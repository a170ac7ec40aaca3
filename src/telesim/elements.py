"""Optical elements as pure transformations on mode expressions.

Beamsplitters and phase plates act on whole wire operators (all
coefficients pick up the same factors, never mixing c with d); squeezers
couple a wire to the conjugate of its partner. A dual homodyne returns its
measurement record as a plain :class:`ModeExpr` that commutes with its own
conjugate; records combine with ``lin_comb`` and are fed forward by
:func:`displace`.

These functions are unchecked algebra: they evaluate nothing and accept
any parameter expression. Circuits (``parse_circuit``, ``evaluate_circuit``,
``build``) are the validated entry point; the circuit interpreter checks
every element parameter under the actual binding before it reaches an
element here.
"""

from __future__ import annotations

from .coeff import I, as_coef, cis, cosh, sinh, sqrt
from .opalg import ModeExpr, dagger, lin_comb


def split_modes(
    in_t: ModeExpr, in_r: ModeExpr, alpha, phi
) -> tuple[ModeExpr, ModeExpr]:
    """Single-wire beamsplitter with transmissivity alpha and phase phi.

    out_minus = sqrt(alpha) in_r - i e^{-i phi} sqrt(1-alpha) in_t
    out_plus  = sqrt(alpha) in_t - i e^{+i phi} sqrt(1-alpha) in_r
    """
    alpha = as_coef(alpha)
    phi = as_coef(phi)
    keep = sqrt(alpha)
    cross = sqrt(1 - alpha)
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
) -> ModeExpr:
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
    return lin_comb([(1, x_part), (I, p_part)])


def displace(resource_half: ModeExpr, record: ModeExpr, zeta) -> ModeExpr:
    """Feed-forward displacement: resource_half + zeta * record."""
    return lin_comb([(1, resource_half), (zeta, record)])

