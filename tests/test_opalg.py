"""Mode operator algebra: linear combinations, commutators, variances."""

import cmath
import ctypes
import math
import sys

import pytest
from hypothesis import given, strategies as st

from telesim.coeff import ZERO, Call, Mul, Num, ParamEnv
from telesim.opalg import (
    ModeEvaluator,
    ModeExpr,
    ModeId,
    ModeKind,
    dagger,
    input_mode,
    lin_comb,
    prune_for_display,
    quadrature_variance,
)

EMPTY = ParamEnv({})

A_ID = ModeId("a", "left")
B_ID = ModeId("b", "right")
A = input_mode(A_ID)
B = input_mode(B_ID)


def _commutators(ev, left, right) -> tuple[complex, complex]:
    """[left, right] and [left, right^dagger] from the session's doubles."""
    re, im, cross_re, cross_im = ev.commutators(left, right)
    return complex(re, im), complex(cross_re, cross_im)


def test_mode_id_ordering_is_bin_major():
    early = ModeId("z", "r", time_bin=0)
    late = ModeId("a", "r", time_bin=1)
    assert sorted([late, early], key=lambda m: m.sort_key()) == [early, late]


def test_canonical_commutators():
    ev = ModeEvaluator(EMPTY)
    assert _commutators(ev, A, dagger(A))[0] == pytest.approx(1.0)
    assert _commutators(ev, A, A)[0] == 0
    assert _commutators(ev, A, B)[0] == 0
    assert _commutators(ev, A, dagger(B))[0] == 0
    assert _commutators(ev, dagger(A), A)[0] == pytest.approx(-1.0)


def test_dagger_is_an_involution():
    expr = lin_comb([(1 + 2j, A), (0.5, dagger(B))])
    ev = ModeEvaluator(EMPTY)
    assert dict(ev.table(dagger(dagger(expr)))) == dict(ev.table(expr))


def test_dagger_swaps_and_conjugates():
    expr = lin_comb([(2j, A)])
    assert ModeEvaluator(EMPTY).floats(dagger(expr))[A_ID] == (0, -2j)


def test_linear_combination_arithmetic():
    ev = ModeEvaluator(EMPTY)
    expr = lin_comb([(2, A), (1, B), (-1, A)])
    table = ev.floats(expr)
    assert table[A_ID][0] == 1
    assert table[B_ID][0] == 1
    assert ev.floats(lin_comb([(-1, expr)]))[A_ID][0] == -1
    assert ev.floats(lin_comb([(3j, expr)]))[B_ID][0] == 3j


def test_vacuum_variance_is_one_at_every_phase():
    for phase in (0.0, 0.3, math.pi / 2, 2.7):
        assert quadrature_variance(A, phase, EMPTY) == pytest.approx(1.0)


def test_epr_half_variance_is_cosh_2s():
    s = 0.8
    half = lin_comb([(math.cosh(s), A), (math.sinh(s), dagger(B))])
    got = quadrature_variance(half, 0.0, EMPTY)
    assert got == pytest.approx(math.cosh(2 * s), rel=1e-12)


def test_two_mode_squeezed_difference_quadrature():
    # X_b - X_a of an EPR pair collapses as e^{-2s}: the entanglement witness
    s = 1.1
    a0 = lin_comb([(math.cosh(s), A), (math.sinh(s), dagger(B))])
    b0 = lin_comb([(math.cosh(s), B), (math.sinh(s), dagger(A))])
    diff = lin_comb([(1 / math.sqrt(2), b0), (-1 / math.sqrt(2), a0)])
    assert quadrature_variance(diff, 0.0, EMPTY) == pytest.approx(
        math.exp(-2 * s), rel=1e-12
    )


def test_overlap_and_properness():
    # the overlap of A with T is [A, T^dagger]; a proper mode has [A, A^dagger] = 1
    ev = ModeEvaluator(EMPTY)
    assert _commutators(ev, A, A)[1] == pytest.approx(1.0)
    assert _commutators(ev, A, B)[1] == 0
    double = lin_comb([(2, A)])
    assert _commutators(ev, double, double)[1] == pytest.approx(4.0)
    mixed = lin_comb([(1.0, A), (1.0, dagger(A))])
    assert _commutators(ev, mixed, mixed)[1] == 0


def test_prune_for_display_drops_dust():
    expr = lin_comb([(1.0, A), (1e-20, B)])
    kept = dict(prune_for_display(expr, EMPTY))
    assert A_ID in kept and B_ID not in kept


@pytest.mark.skipif(sys.platform == "win32", reason="reads the C library's strtod")
def test_pruning_a_nan_entry_ignores_a_stale_errno():
    # 0*ln(0) is nan. Tabled first, so no libm call runs between strtod
    # leaving errno at ERANGE and the magnitude test; a zero d converts
    # without one as well
    expr = ModeExpr({A_ID: (Mul(Num(0), Call("ln", Num(0))), ZERO)})
    session = ModeEvaluator(EMPTY)
    session.table(expr)
    strtod = ctypes.CDLL(None).strtod
    strtod.restype = ctypes.c_double
    strtod(b"1e999", None)
    c, d = prune_for_display(expr, session)[A_ID]
    assert cmath.isnan(c) and d == 0


def test_mode_kind_tags_survive():
    sig = ModeId("j1", "input", time_bin=1, kind=ModeKind.SIGNAL)
    assert set(input_mode(sig).terms) == {sig}
    assert sig.kind is ModeKind.SIGNAL


def test_table_memo_keeps_keyed_expressions_alive():
    # regression: tables are memoized by expression identity, and daggered
    # temporaries used to be collected so their ids could be recycled,
    # silently serving one expression's table for another
    ev = ModeEvaluator(EMPTY)
    for k in range(300):
        if k % 2:
            table = ev.floats(dagger(lin_comb([(k + 1.0, A)])))
            assert table[A_ID][1] == k + 1.0
            assert table[A_ID][0] == 0
        else:
            table = ev.floats(lin_comb([(k + 1.0, A), (0.5, B)]))
            assert table[A_ID][0] == k + 1.0
            assert table[B_ID][0] == 0.5


@given(
    ca=st.floats(-3, 3, allow_nan=False),
    cb=st.floats(-3, 3, allow_nan=False),
)
def test_commutator_of_annihilator_mixtures_vanishes(ca, cb):
    expr = lin_comb([(ca, A), (cb, B)])
    ev = ModeEvaluator(EMPTY)
    assert _commutators(ev, expr, expr)[0] == 0
    norm = _commutators(ev, expr, dagger(expr))[0]
    assert norm == pytest.approx(ca * ca + cb * cb, abs=1e-12)


@given(phase=st.floats(-math.pi, math.pi, allow_nan=False))
def test_variance_is_phase_invariant_for_vacuum_mixtures(phase):
    expr = lin_comb([(0.6, A), (0.8, B)])
    assert quadrature_variance(expr, phase, EMPTY) == pytest.approx(1.0, abs=1e-12)
