"""Each one-step conversion to a double against the mpmath path it replaces, bit for bit.

``opalg._rounded`` (an exact sum to a double) against ``to_float`` of
``from_man_exp``, and ``coeff.to_complex`` against ``mpc_to_complex``. The
inputs are seeded draws plus the edges of each rule.
"""

import random

from mpmath.libmp import finf, fnan, fninf, from_man_exp, fzero, mpc_to_complex, to_float

from telesim import opalg
from telesim.coeff import MP, to_complex


def _two_step(total: int, exp: int, prec: int) -> float:
    return to_float(from_man_exp(total, exp, prec, "n"), False, "n")


def _sums(rng: random.Random, prec: int):
    """(total, exp, near_tie) draws: sizes of 1 to 2,400 bits at the kernels'
    scales and at the subnormal and overflow edges, and sums within
    2^(n - prec) of a 53-bit tie, from either side."""
    yield 0, -1190, False
    for n in (1100, 1190, 2400):  # all ones just below 2^1024: rounds up to overflow
        yield from (((1 << n) - 1, 1024 - n, False), (1 - (1 << n), 1024 - n, False))
    for _ in range(3000):
        n = rng.randint(1, 2400)
        total = rng.getrandbits(n) | 1 << (n - 1)
        exp = rng.choice((-2 * (prec + 64), -4 * (prec + 64), rng.randint(-1030, -1018) - n,
                          rng.randint(1020, 1028) - n, -rng.randint(1, 3000)))
        if exp < 0:
            yield rng.choice((1, -1)) * total, exp, False
    for _ in range(2000):
        n = rng.randint(prec + 1, 2400)
        slack = 1 << (n - prec)
        tie = (rng.getrandbits(53) | 1 << 52) << (n - 53) | 1 << (n - 54)
        total = tie + rng.choice((0, slack // 2, -slack // 2, slack, -slack, rng.randint(-slack, slack)))
        yield rng.choice((1, -1)) * total, rng.randint(-1000 - n, min(-1, 1000 - n)), True


def _parts(rng: random.Random):
    """Raw mpfs of every kind: 1- to 531-bit mantissas of both signs, zero,
    inf and nan, both ends of the normal range, and a mantissa that rounds
    up to 2^1024."""
    yield from (fzero, finf, fninf, fnan, from_man_exp(2**531 - 1, 1024 - 531), from_man_exp(-(2**531 - 1), 493))
    for _ in range(2000):
        bits = rng.randint(1, 531)
        man = rng.choice((1, -1)) * (rng.getrandbits(bits) | 1 << (bits - 1))
        top = rng.choice((rng.randint(-1080, -1015), rng.randint(1018, 1030), rng.randint(-60, 60)))
        yield from_man_exp(man, top - bits)


def test_every_one_step_conversion_matches_the_two_step_bit_for_bit():
    rng, prec = random.Random(20261020), MP.prec
    near_ties = misses = 0
    for total, exp, near_tie in _sums(rng, prec):
        want = _two_step(total, exp, prec)
        assert opalg._rounded(total, exp, prec, "n").hex() == want.hex(), (total, exp)
        if near_tie and -1021 <= total.bit_length() + exp <= 1023:
            near_ties += 1
            misses += (total / (1 << -exp)).hex() != want.hex()
    # one correctly rounded step, a bare division, gets some near-tie sums wrong: the guard is needed
    assert near_ties > 1000 and misses > 100, (near_ties, misses)

    parts = list(_parts(rng))
    for re in parts:
        im = rng.choice(parts)
        for rnd in ("n", "d", "u"):
            want = mpc_to_complex((re, im), False, rnd)
            got = to_complex((re, im), rnd)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (re, im, rnd)

