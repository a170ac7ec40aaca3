"""Optical elements as Bogoliubov maps on mode expressions."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from telesim.coeff import ParamEnv
from telesim.elements import (
    apply_balanced_bs,
    apply_inverse_squeezer,
    apply_phase_shift,
    apply_two_mode_squeezer,
    displace,
    dual_homodyne,
    split_modes,
)
from telesim.opalg import (
    ModeEvaluator,
    ModeId,
    dagger,
    input_mode,
    lin_comb,
)

EMPTY = ParamEnv({})

T_ID = ModeId("t", "top")
R_ID = ModeId("r", "bottom")
T = input_mode(T_ID)
R = input_mode(R_ID)


def table(expr, env=EMPTY):
    return ModeEvaluator(env).floats(expr)


def _commutators(ev, left, right) -> tuple[complex, complex]:
    """[left, right] and [left, right^dagger] from the session's doubles."""
    re, im, cross_re, cross_im = ev.commutators(left, right)
    return complex(re, im), complex(cross_re, cross_im)


def test_split_coefficients():
    alpha, phi = 0.3, 0.7
    minus, plus = split_modes(T, R, alpha, phi)
    keep = math.sqrt(alpha)
    cross = math.sqrt(1 - alpha)
    tm = table(minus)
    assert tm[R_ID][0] == pytest.approx(keep)
    assert tm[T_ID][0] == pytest.approx(-1j * cmath.exp(-1j * phi) * cross)
    tp = table(plus)
    assert tp[T_ID][0] == pytest.approx(keep)
    assert tp[R_ID][0] == pytest.approx(-1j * cmath.exp(1j * phi) * cross)


def test_balanced_bs_is_sum_and_difference():
    sum_out, diff_out = apply_balanced_bs(T, R)
    rt2 = 1 / math.sqrt(2)
    assert table(sum_out)[T_ID][0] == pytest.approx(rt2)
    assert table(sum_out)[R_ID][0] == pytest.approx(rt2)
    assert table(diff_out)[T_ID][0] == pytest.approx(rt2)
    assert table(diff_out)[R_ID][0] == pytest.approx(-rt2)


def test_two_mode_squeezer_mixes_daggers():
    g, theta = 0.9, 0.4
    out1, out2 = apply_two_mode_squeezer(T, R, g, theta)
    t1 = table(out1)
    assert t1[T_ID][0] == pytest.approx(math.cosh(g))
    assert t1[R_ID][1] == pytest.approx(cmath.exp(1j * theta) * math.sinh(g))
    t2 = table(out2)
    assert t2[R_ID][0] == pytest.approx(math.cosh(g))
    assert t2[T_ID][1] == pytest.approx(cmath.exp(1j * theta) * math.sinh(g))


def test_inverse_squeezer_inverts():
    out1, out2 = apply_two_mode_squeezer(T, R, 1.3)
    back1, back2 = apply_inverse_squeezer(out1, out2, 1.3)
    t1, t2 = table(back1), table(back2)
    assert t1[T_ID][0] == pytest.approx(1.0, abs=1e-12)
    assert abs(t1[R_ID][1]) < 1e-12
    assert t2[R_ID][0] == pytest.approx(1.0, abs=1e-12)


def test_squeezing_composes_additively():
    a1, a2 = apply_two_mode_squeezer(T, R, 0.7)
    b1, b2 = apply_two_mode_squeezer(a1, a2, 0.5)
    c1, _ = apply_two_mode_squeezer(T, R, 1.2)
    ta, tb = table(b1), table(c1)
    for mid in ta:
        assert ta[mid][0] == pytest.approx(tb[mid][0], abs=1e-12)
        assert ta[mid][1] == pytest.approx(tb[mid][1], abs=1e-12)


def test_phase_shift_rotates_whole_operator():
    mixed = lin_comb([(math.cosh(0.6), T), (math.sinh(0.6), dagger(R))])
    shifted = table(apply_phase_shift(mixed, 0.9))
    rot = cmath.exp(0.9j)
    assert shifted[T_ID][0] == pytest.approx(rot * math.cosh(0.6))
    assert shifted[R_ID][1] == pytest.approx(rot * math.sinh(0.6))


def test_dual_homodyne_canonical_record():
    rec = dual_homodyne(T, R, 0.0, math.pi / 2)
    rt2 = math.sqrt(2)
    tr = table(rec)
    assert tr[T_ID][0] == pytest.approx(rt2)
    assert abs(tr[T_ID][1]) < 1e-12
    assert tr[R_ID][1] == pytest.approx(-rt2)
    assert abs(tr[R_ID][0]) < 1e-12
    # records commute with themselves: a legitimate classical channel
    ev = ModeEvaluator(EMPTY)
    assert _commutators(ev, rec, rec)[0] == pytest.approx(0.0)
    assert _commutators(ev, rec, rec)[1] == pytest.approx(0.0)


def test_displace_adds_scaled_record():
    rec = dual_homodyne(T, R, 0.0, math.pi / 2)
    out = table(displace(R, rec, 1 / math.sqrt(2)))
    assert out[T_ID][0] == pytest.approx(1.0)
    assert out[R_ID][0] == pytest.approx(1.0)
    assert out[R_ID][1] == pytest.approx(-1.0)


def test_teleportation_identity_at_unity_gain():
    # measure signal against one EPR half, displace the other: the output
    # reproduces the signal plus noise that shrinks as e^{-s}
    s = 1.4
    e1, e2 = input_mode(ModeId("e1", "src")), input_mode(ModeId("e2", "src"))
    a0 = lin_comb([(math.cosh(s), e1), (math.sinh(s), dagger(e2))])
    b0 = lin_comb([(math.cosh(s), e2), (math.sinh(s), dagger(e1))])
    rec = dual_homodyne(T, a0, 0.0, math.pi / 2)
    out = table(displace(b0, rec, 1 / math.sqrt(2)))
    assert out[T_ID][0] == pytest.approx(1.0)
    shrink = math.exp(-s)
    assert out[ModeId("e2", "src")][0] == pytest.approx(shrink)
    assert out[ModeId("e1", "src")][1] == pytest.approx(-shrink)


@given(
    alpha=st.floats(0.0, 1.0, allow_nan=False),
    phi=st.floats(-math.pi, math.pi, allow_nan=False),
)
def test_split_preserves_canonical_pairs(alpha, phi):
    minus, plus = split_modes(T, R, alpha, phi)
    ev = ModeEvaluator(EMPTY)
    assert _commutators(ev, minus, minus)[1] == pytest.approx(1.0, abs=1e-10)
    assert _commutators(ev, plus, plus)[1] == pytest.approx(1.0, abs=1e-10)
    assert _commutators(ev, minus, plus)[1] == pytest.approx(0.0, abs=1e-10)
    assert _commutators(ev, minus, plus)[0] == pytest.approx(0.0, abs=1e-10)


@given(
    g=st.floats(0.0, 3.0, allow_nan=False),
    theta=st.floats(-math.pi, math.pi, allow_nan=False),
)
def test_squeezer_preserves_canonical_pairs(g, theta):
    out1, out2 = apply_two_mode_squeezer(T, R, g, theta)
    ev = ModeEvaluator(EMPTY)
    assert _commutators(ev, out1, out1)[1] == pytest.approx(1.0, abs=1e-9)
    assert _commutators(ev, out2, out2)[1] == pytest.approx(1.0, abs=1e-9)
    assert _commutators(ev, out1, out2)[0] == pytest.approx(0.0, abs=1e-9)
    assert _commutators(ev, out1, out2)[1] == pytest.approx(0.0, abs=1e-9)
