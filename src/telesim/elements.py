"""Optical elements as pure transformations on mode expressions.

Beamsplitters and phase plates act on whole wire operators (all
coefficients pick up the same factors, never mixing c with d); squeezers
couple a wire to the conjugate of its partner. Measurement channels
produce :class:`ClassicalSignal` values that commute with their own
conjugates and can be combined and fed forward as displacements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import (
    CoefExpr,
    CoefficientError,
    ParamEnv,
    as_coef,
    cis,
    cosh,
    evaluate,
    sinh,
    sqrt,
)
from .opalg import ModeExpr, dagger, lin_comb


@dataclass(frozen=True)
class ClassicalSignal:
    """Measurement record: a commuting operator that can be fed forward.

    The macroscopic local-oscillator amplitude is already divided out.
    canonical is False when the two quadrature phases were not a
    right-angle pair, which leaves the record usable but outside the
    guarantees of the standard construction.
    """

    expr: ModeExpr
    canonical: bool = True


def _const_real(expr: CoefExpr) -> float | None:
    """Numeric value of a parameter-free expression, else None."""
    if expr.parameters():
        return None
    try:
        value = evaluate(expr, ParamEnv({}))
    except CoefficientError:
        return None
    if abs(value.imag) > 1e-12:
        return None
    return value.real


def _check_transmissivity(alpha: CoefExpr) -> None:
    value = _const_real(alpha)
    if value is not None and not -1e-12 <= value <= 1 + 1e-12:
        raise ValueError(f"beamsplitter transmissivity {value} outside [0, 1]")


def _check_gain(gain: CoefExpr) -> None:
    value = _const_real(gain)
    if value is not None and value < -1e-12:
        raise ValueError(f"squeezer gain {value} must be nonnegative")


def split_modes(
    in_t: ModeExpr, in_r: ModeExpr, alpha, phi
) -> tuple[ModeExpr, ModeExpr]:
    """Single-wire beamsplitter with transmissivity alpha and phase phi.

    out_minus = sqrt(alpha) in_r - i e^{-i phi} sqrt(1-alpha) in_t
    out_plus  = sqrt(alpha) in_t - i e^{+i phi} sqrt(1-alpha) in_r
    """
    alpha = as_coef(alpha)
    phi = as_coef(phi)
    _check_transmissivity(alpha)
    keep = sqrt(alpha)
    cross = sqrt(1 - alpha)
    from .coeff import I

    out_minus = lin_comb([(keep, in_r), (-I * cis(-phi) * cross, in_t)])
    out_plus = lin_comb([(keep, in_t), (-I * cis(phi) * cross, in_r)])
    return out_minus, out_plus


def apply_balanced_bs(in1: ModeExpr, in2: ModeExpr) -> tuple[ModeExpr, ModeExpr]:
    """Balanced mixer: ((in2+in1)/sqrt2, (in1-in2)/sqrt2)."""
    half = 1 / sqrt(as_coef(2))
    sum_out = lin_comb([(half, in2), (half, in1)])
    diff_out = lin_comb([(half, in1), (-half, in2)])
    return sum_out, diff_out


def apply_two_mode_squeezer(
    in1: ModeExpr, in2: ModeExpr, gain, phase=0
) -> tuple[ModeExpr, ModeExpr]:
    """out_i = cosh(g) in_i + e^{i theta} sinh(g) in_other^dagger."""
    gain = as_coef(gain)
    phase = as_coef(phase)
    _check_gain(gain)
    c = cosh(gain)
    s = cis(phase) * sinh(gain)
    out1 = lin_comb([(c, in1), (s, dagger(in2))])
    out2 = lin_comb([(c, in2), (s, dagger(in1))])
    return out1, out2


def apply_inverse_squeezer(
    in1: ModeExpr, in2: ModeExpr, gain
) -> tuple[ModeExpr, ModeExpr]:
    """Undoes apply_two_mode_squeezer at phase 0 and the same gain."""
    gain = as_coef(gain)
    _check_gain(gain)
    c = cosh(gain)
    s = sinh(gain)
    out1 = lin_comb([(c, in1), (-s, dagger(in2))])
    out2 = lin_comb([(c, in2), (-s, dagger(in1))])
    return out1, out2


def apply_phase_shift(in_mode: ModeExpr, phi) -> ModeExpr:
    """Phase plate: the wire operator picks up e^{i phi} as a whole."""
    return lin_comb([(cis(as_coef(phi)), in_mode)])


def dual_homodyne(
    signal: ModeExpr, resource: ModeExpr, xphase, pphase
) -> ClassicalSignal:
    """Joint quadrature readout of signal against resource.

    Mixes the two wires on a balanced beamsplitter and records
    X_diff(xphase) + i X_sum(pphase), normalized by the local-oscillator
    amplitude. With a right-angle phase pair this is
    sqrt2 (e^{-i xphase} signal - e^{i xphase} resource^dagger).
    """
    xphase = as_coef(xphase)
    pphase = as_coef(pphase)
    sum_out, diff_out = apply_balanced_bs(signal, resource)
    x_part = lin_comb([(cis(-xphase), diff_out), (cis(xphase), dagger(diff_out))])
    p_part = lin_comb([(cis(-pphase), sum_out), (cis(pphase), dagger(sum_out))])
    from .coeff import I

    record = lin_comb([(1, x_part), (I, p_part)])
    return ClassicalSignal(record, canonical=_is_right_angle(xphase, pphase))


def _is_right_angle(xphase: CoefExpr, pphase: CoefExpr) -> bool:
    import math

    gap = _const_real(pphase - xphase)
    if gap is None:
        # parameter-dependent separation: trust the caller
        return True
    return abs(math.remainder(gap - math.pi / 2, 2 * math.pi)) <= 1e-9


def displace(resource_half: ModeExpr, record: ClassicalSignal, zeta) -> ModeExpr:
    """Feed-forward displacement: resource_half + zeta * record."""
    return lin_comb([(1, resource_half), (as_coef(zeta), record.expr)])


def classical_combine(
    signals: list[tuple[object, ClassicalSignal]]
) -> ClassicalSignal:
    """Weighted sum of measurement records; still a commuting operator."""
    if not signals:
        raise ValueError("nothing to combine")
    combined = lin_comb([(as_coef(w), sig.expr) for w, sig in signals])
    return ClassicalSignal(combined, canonical=all(sig.canonical for _, sig in signals))
