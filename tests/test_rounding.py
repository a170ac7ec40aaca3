"""Each one-step kernel against the mpmath path it replaces, bit for bit.

``opalg._rounded`` (an exact sum to a double) against ``to_float`` of
``from_man_exp``, ``coeff.to_complex`` against ``mpc_to_complex``, and the
run's product ``coeff._mul`` against ``mpc_mul`` and the ``mpc_mul_mpf``
path it took before it tested finiteness inline. The inputs are seeded
draws plus the edges of each rule.
"""

import itertools
import random

from mpmath.libmp import finf, fnan, fninf, from_man_exp, fzero, mpc_is_infnan, mpc_mul, mpc_mul_mpf
from mpmath.libmp import mpc_to_complex, to_float

from telesim import coeff, opalg
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


def _mul_by_mpc_mul_mpf(x: tuple, y: tuple, prec: int, rnd: str) -> tuple:
    """The product as ``coeff._mul`` made it before its inline finiteness test."""
    if y[1] == fzero and not (mpc_is_infnan(x) or mpc_is_infnan(y)):
        return mpc_mul_mpf(x, y[0], prec, rnd)
    if x[1] == fzero and not (mpc_is_infnan(x) or mpc_is_infnan(y)):
        return mpc_mul_mpf(y, x[0], prec, rnd)
    return mpc_mul(x, y, prec, rnd)


def _operands(rng: random.Random) -> tuple[list, list]:
    """Raw mpcs: every pairing of fzero, finf, fninf, fnan and finite parts,
    so real, imaginary and complex operands with each edge in either slot,
    and seeded real, imaginary and complex draws of 1- to 535-bit mantissas
    of both signs, a tenth of their parts inf, nan or zero."""
    specials = (fzero, finf, fninf, fnan)

    def part():
        bits = rng.randint(1, 535)
        man = rng.choice((1, -1)) * (rng.getrandbits(bits) | 1 << (bits - 1))
        return from_man_exp(man, rng.randint(-700, 700) - bits)

    edges = list(itertools.product(specials + (part(), part()), repeat=2))
    draws = []
    for _ in range(3000):
        re, im = (rng.choice(specials) if rng.random() < 0.1 else part() for _ in "ri")
        draws.append(rng.choice(((re, fzero), (fzero, im), (re, im))))
    return edges, draws


def test_the_product_kernel_is_mpc_mul_bit_for_bit():
    rng, prec = random.Random(20261021), MP.prec
    edges, draws = _operands(rng)
    pairs = [*itertools.product(edges, repeat=2), *((x, rng.choice(draws)) for x in draws)]
    for x, y in pairs:
        for rnd in ("n", "d", "u"):
            got = coeff._mul(x, y, prec, rnd)
            assert got == mpc_mul(x, y, prec, rnd) == _mul_by_mpc_mul_mpf(x, y, prec, rnd), (x, y, rnd)
