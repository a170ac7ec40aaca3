"""Builders for the telefilter and telemirror circuit family.

Each builder assembles a circuit statement by statement and returns the
:class:`CircuitAst` it wrote; :func:`build` is the one place a registry
circuit is evaluated. The circuit ends with the oracle its analyses judge
it against: the target mode (``target``) and the closed-form limit each
port is designed to reach (``expect``). The statement list is the single
source of truth: the text fixtures under golden/ are these same circuits
serialized, oracle included, and each equals ``protocol_text(name)`` byte
for byte, which serializes without evaluating.

A builder is its own registry entry: its signature gives the argument
names and defaults, its annotations the types ``telesim protocols build``
parses, and the first line of its docstring the summary ``telesim
protocols list`` shows.

Numeric arguments are baked into the statements as literals; only the
squeezing strengths stay symbolic (declared infinite) so the same
circuit can be evaluated at any strength or pushed toward the limit.

Angles follow one rule. An angle is on the grid when its double is
exactly k*pi/4 with |k| <= 8; it is then spelled symbolically (``3*pi/4``),
otherwise as its float literal. An angle derived from others (``pi - phi``,
a homodyne's p-phase ``x + pi/2``) takes its own grid spelling only when it
and its base angles are all on the grid; otherwise it is the exact symbolic
combination of the bases' literals. A phase factor e^{-i m phi} is an exact
unit (1, -i, -1, i) when phi is on the grid and m*phi is a right angle, and
otherwise exp(-i*...) of phi's literal. Either way every angle the wiring
uses equals the literal the circuit carries: a separately rounded double
breaks the cancellations the wiring relies on once squeezing amplifies the
mismatch past float width.
"""

from __future__ import annotations

import cmath
import inspect
import math
from fractions import Fraction
from typing import Callable

from .circuit import (
    BUILTIN_LOC,
    CircuitAst,
    CombineStmt,
    DisplaceStmt,
    ExpectStmt,
    HomodyneStmt,
    ModeDecl,
    OutputStmt,
    ParamDecl,
    PhaseStmt,
    ProtocolDecl,
    ProtocolOutput,
    SplitStmt,
    SqueezeStmt,
    Stmt,
    TargetStmt,
    UnsqueezeStmt,
    evaluate_circuit,
)
from .coeff import (
    Add,
    Call,
    CoefExpr,
    Div,
    ImagUnit,
    Mul,
    Neg,
    Num,
    Param,
    PiConst,
    Sub,
)
from .dsl import serialize_circuit
from .opalg import ModeKind

_HALF_PI = math.pi / 2
_CANONICAL_PHI = -_HALF_PI

_SEED = ModeKind.ENTANGLEMENT_SEED
_SIGNAL = ModeKind.SIGNAL
_VACUUM = ModeKind.VACUUM


# ---------------------------------------------------------------------------
# literal construction
#
# Builders work with plain floats and turn them into expression trees at
# emission time. The trees use the exact shapes the parser produces, so
# serialize -> parse round-trips are structurally identity. Small
# rationals and their square roots get symbolic spellings; anything else
# becomes a float literal (repr round-trips exactly).


def _negated(expr: CoefExpr) -> CoefExpr:
    if isinstance(expr, Div):
        return Div(_negated(expr.left), expr.right)
    if isinstance(expr, Mul):
        return Mul(_negated(expr.left), expr.right)
    return Neg(expr)


def _frac_expr(f: Fraction) -> CoefExpr:
    if f.denominator == 1:
        return Num(f.numerator)
    return Div(Num(f.numerator), Num(f.denominator))


def _real_lit(x: float) -> CoefExpr:
    if x < 0:
        return _negated(_real_lit(-x))
    if x == int(x) and x < 1e15:
        return Num(int(x))
    f = Fraction(x).limit_denominator(64)
    if f.denominator <= 64 and abs(f.numerator) <= 999 and float(f) == x:
        return _frac_expr(f)
    if x > 32:  # past sqrt(999), and x * x may overflow
        return Num(x)
    g = Fraction(x * x).limit_denominator(64)
    if 0 < g.numerator <= 999 and g.denominator <= 64 and math.sqrt(g.numerator / g.denominator) == x:
        return Call("sqrt", _frac_expr(g))
    return Num(x)


def _grid_k(phi: float) -> int | None:
    """k when phi is exactly k*pi/4 with |k| <= 8, else None."""
    k = round(phi * 4 / math.pi)
    return k if abs(k) <= 8 and k * (math.pi / 4) == phi else None


def _angle_lit(phi: float) -> CoefExpr:
    k = _grid_k(phi)
    if k is None:
        return _real_lit(phi)
    if k == 0:
        return Num(0)
    f = Fraction(abs(k), 4)
    base: CoefExpr = PiConst()
    if f.numerator != 1:
        head = Num(f.numerator) if k > 0 else Neg(Num(f.numerator))
        base = Mul(head, PiConst())
    elif k < 0:
        base = Neg(PiConst())
    if f.denominator == 1:
        return base
    return Div(base, Num(f.denominator))


def _derived_angle(value: float, bases: tuple[float, ...], combination: CoefExpr) -> CoefExpr:
    """value's grid spelling, or the combination of the bases' literals."""
    if all(_grid_k(a) is not None for a in (value, *bases)):
        return _angle_lit(value)
    return combination


def _phase_unit(phi: float, m: int = 1) -> complex | None:
    """e^{-i m phi} exactly, when phi is on the grid and m*phi a right angle."""
    k = _grid_k(phi)
    if k is None or m * k % 2:
        return None
    return (1 + 0j, -1j, -1 + 0j, 1j)[m * k // 2 % 4]


def _unit_lit(z: complex) -> CoefExpr:
    table: dict[tuple[int, int], CoefExpr] = {
        (1, 0): Num(1),
        (-1, 0): Neg(Num(1)),
        (0, 1): ImagUnit(),
        (0, -1): Neg(ImagUnit()),
    }
    return table[(int(z.real), int(z.imag))]


def _scale(factor: CoefExpr, expr: CoefExpr) -> CoefExpr:
    """factor * expr with the unit factors folded away."""
    if factor == Num(1):
        return expr
    if factor == Neg(Num(1)):
        return _negated(expr)
    return Mul(factor, expr)


def _conj_phase_lit(phi: float) -> CoefExpr:
    """e^{-i phi} as an expression."""
    unit = _phase_unit(phi)
    if unit is not None:
        return _unit_lit(unit)
    return Call("exp", Mul(Neg(ImagUnit()), _angle_lit(phi)))


def _weight_lit(z: complex) -> CoefExpr:
    """A double as re, im*i or (re +- im*i) in the parser's shapes, never
    respelled symbolically as _real_lit would (1/sqrt(2) stays 0.7071067811865476)."""

    def signed(x: float) -> CoefExpr:
        return Neg(Num(-x)) if x < 0 else Num(x)

    z = complex(z)
    if z.imag == 0:
        return signed(z.real)
    if z.real == 0:
        return Mul(signed(z.imag), ImagUnit())
    imag = Mul(Num(abs(z.imag)), ImagUnit())
    return Add(signed(z.real), imag) if z.imag > 0 else Sub(signed(z.real), imag)


def _form(terms: list[tuple[complex, str]]) -> tuple:
    """(weight, mode) pairs; a mode spelled MODE^dag is its creation operator."""
    return tuple(
        (_weight_lit(weight), name.removesuffix("^dag"), name.endswith("^dag"))
        for weight, name in terms
    )


_S = Param("s")
_R = Param("r")


def _sqrt2() -> CoefExpr:
    return Call("sqrt", Num(2))


def _half_pi() -> CoefExpr:
    return Div(PiConst(), Num(2))


# ---------------------------------------------------------------------------
# statement emission


class _Circ:
    """Accumulates statements."""

    def __init__(self, name: str, args: list[tuple[str, object]]):
        self.stmts: list[Stmt] = [ProtocolDecl(BUILTIN_LOC, name, tuple(args))]

    def infinite(self, name: str):
        self.stmts.append(ParamDecl(BUILTIN_LOC, name, None, True))

    def mode(self, kind: ModeKind, name: str, rail: str, time_bin: int = 0):
        self.stmts.append(ModeDecl(BUILTIN_LOC, kind, name, rail, time_bin))

    def split(self, out_minus, out_plus, in_t, in_r, alpha: CoefExpr, phi: CoefExpr):
        self.stmts.append(SplitStmt(BUILTIN_LOC, out_minus, out_plus, in_t, in_r, alpha, phi))

    def squeeze(self, out1, out2, in1, in2, gain: CoefExpr):
        self.stmts.append(SqueezeStmt(BUILTIN_LOC, out1, out2, in1, in2, gain, Num(0)))

    def unsqueeze(self, out1, out2, in1, in2, gain: CoefExpr):
        self.stmts.append(UnsqueezeStmt(BUILTIN_LOC, out1, out2, in1, in2, gain))

    def phase(self, out, operand, phi: CoefExpr):
        self.stmts.append(PhaseStmt(BUILTIN_LOC, out, operand, phi))

    def homodyne(self, out, signal, resource, xphase: float):
        pphase = _derived_angle(
            xphase + _HALF_PI, (xphase,), Add(_angle_lit(xphase), _half_pi())
        )
        self.stmts.append(
            HomodyneStmt(BUILTIN_LOC, out, signal, resource, _angle_lit(xphase), pphase)
        )

    def combine(self, out, terms: list[tuple[CoefExpr, str]]):
        self.stmts.append(CombineStmt(BUILTIN_LOC, out, tuple(terms)))

    def displace(self, out, resource, record, gain: CoefExpr):
        self.stmts.append(DisplaceStmt(BUILTIN_LOC, out, resource, record, gain, None))

    def output(self, name, wire, slot_bin: int | None = None, role: str | None = None):
        self.stmts.append(OutputStmt(BUILTIN_LOC, name, wire, slot_bin, role))

    def target(self, terms: list[tuple[complex, str]]):
        self.stmts.append(TargetStmt(BUILTIN_LOC, _form(terms)))

    def expect(self, port: str, terms: list[tuple[complex, str]]):
        self.stmts.append(ExpectStmt(BUILTIN_LOC, port, _form(terms)))

    def finish(self) -> CircuitAst:
        return CircuitAst(tuple(self.stmts))


def _check_choice(value: str, allowed: tuple[str, ...], what: str) -> None:
    if value not in allowed:
        raise ValueError(f"{what} must be one of {', '.join(allowed)}; got {value!r}")


def _check_unit_interval(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must lie in [0, 1]; got {value}")


def _canonical_phase(phi: float) -> bool:
    return abs(math.remainder(phi - _CANONICAL_PHI, 2 * math.pi)) <= 1e-12


# ---------------------------------------------------------------------------
# single-mode protocols


def build_atemporal_telefilter(gain_mode: str = "unity") -> CircuitAst:
    """single-mode teleporter, measure and displace

    With unit gain the output reproduces the addressed mode exactly up
    to entanglement noise that vanishes with squeezing; the tanh gain
    trades signal amplitude for vacuum-limited noise at finite
    squeezing.
    """
    _check_choice(gain_mode, ("unity", "tanh"), "gain_mode")
    c = _Circ("atemporal_telefilter", [("gain_mode", gain_mode)])
    c.infinite("s")
    c.mode(_SEED, "e1", "source")
    c.mode(_SEED, "e2", "source")
    c.mode(_SIGNAL, "j0", "input")
    c.mode(_SIGNAL, "j_perp", "input")
    c.mode(_VACUUM, "e1_perp", "receiver")
    c.squeeze("a0", "b0", "e1", "e2", _S)
    c.homodyne("m", "j0", "a0", 0.0)
    if gain_mode == "unity":
        gain: CoefExpr = Div(Num(1), _sqrt2())
    else:
        gain = Div(Call("tanh", _S), _sqrt2())
    c.displace("jout", "b0", "m", gain)
    c.output("filtered", "jout", role="transmitted")
    c.output("filtered_perp", "e1_perp", role="transmitted")
    c.output("record", "m")
    c.target([(1, "j0")])
    c.expect("filtered", [(1, "j0")])
    c.expect("filtered_perp", [(1, "e1_perp")])
    return c.finish()


def build_atemporal_telemirror(gain_mode: str = "unity") -> CircuitAst:
    """single-mode teleporter, amplify and tap, resources recovered

    The reflected pair is undone twice (against the local and the
    resource squeezer) and re-squeezed at arccosh(5/4), which lands the
    recovered modes back on the seed pair. A single inverse squeezer at
    the combined gain does the same job; both decodings are emitted,
    the one-step version as taps.
    """
    _check_choice(gain_mode, ("unity", "matched"), "gain_mode")
    c = _Circ("atemporal_telemirror", [("gain_mode", gain_mode)])
    c.infinite("s")
    matched = gain_mode == "matched"
    if matched:
        crystal = _S
        eta: CoefExpr = Div(Num(2), Add(Num(3), Call("cosh", Mul(Num(2), _S))))
        residual_gain: CoefExpr = Sub(Mul(Num(2), _S), Call("arccosh", Div(Num(5), Num(4))))
    else:
        c.infinite("r")
        crystal = _R
        eta = Mul(Call("sech", _R), Call("sech", _R))
        residual_gain = Sub(Add(_R, _S), Call("arccosh", Div(Num(5), Num(4))))
    c.mode(_SEED, "e1", "source")
    c.mode(_SEED, "e2", "source")
    c.mode(_SIGNAL, "j0", "input")
    c.mode(_SIGNAL, "j_perp", "input")
    c.mode(_VACUUM, "e1_perp", "receiver")
    c.squeeze("a0", "b0", "e1", "e2", _S)
    c.squeeze("c0", "a_refl", "j0", "a0", crystal)
    c.split("jout", "c_refl", "b0", "c0", eta, _angle_lit(_HALF_PI))
    c.unsqueeze("q1", "q2", "a_refl", "c_refl", crystal)
    c.unsqueeze("p1", "p2", "q1", "q2", _S)
    c.squeeze("rec1", "rec2", "p1", "p2", Call("arccosh", Div(Num(5), Num(4))))
    c.unsqueeze("rec1d", "rec2d", "a_refl", "c_refl", residual_gain)
    c.split("jout_perp", "refl_perp", "e1_perp", "j_perp", eta, _angle_lit(_HALF_PI))
    c.output("mirror_out", "jout", role="transmitted")
    c.output("mirror_out_perp", "jout_perp", role="transmitted")
    c.output("recovered_1", "rec1", role="reflected")
    c.output("recovered_2", "rec2", role="reflected")
    c.output("reflected_perp", "refl_perp", role="reflected")
    c.output("recovered_1_direct", "rec1d", role="tap")
    c.output("recovered_2_direct", "rec2d", role="tap")
    c.target([(1, "j0")])
    c.expect("mirror_out", [(1, "j0")])
    c.expect("mirror_out_perp", [(-1, "e1_perp")])
    c.expect("recovered_1", [(1, "e1")])
    c.expect("recovered_2", [(1, "e2")])
    c.expect("reflected_perp", [(1, "j_perp")])
    c.expect("recovered_1_direct", [(1, "e1")])
    c.expect("recovered_2_direct", [(1, "e2")])
    return c.finish()


# ---------------------------------------------------------------------------
# two-bin protocols, delayed feed-forward


_SIGNAL_BINS = ((_SIGNAL, "j1", "input", 1), (_SIGNAL, "j2", "input", 2))
_RECEIVER_PERP = ((_VACUUM, "e1_perp", "receiver"), (_VACUUM, "u_perp", "receiver_ancilla"))
# bin-major so each rail's bins stay nondecreasing
_MIRROR_INPUTS = (
    (_SIGNAL, "j1", "input", 1),
    (_SIGNAL, "j1_perp", "input", 1),
    (_SIGNAL, "j2", "input", 2),
    (_SIGNAL, "j2_perp", "input", 2),
    *_RECEIVER_PERP,
    (_VACUUM, "e2_perp", "sender"),
    (_VACUUM, "v_perp", "sender_ancilla"),
)


def _two_bin_front(c: _Circ, inputs, alpha: float, phi: float) -> tuple[CoefExpr, CoefExpr]:
    """Seed pair, bin ancillas, inputs, squeeze and both distribution
    splits; returns the alpha and phi literals the splits carry."""
    c.mode(_SEED, "e1", "source")
    c.mode(_SEED, "e2", "source")
    c.mode(_VACUUM, "v0", "sender_ancilla")
    c.mode(_VACUUM, "u0", "receiver_ancilla")
    for decl in inputs:
        c.mode(*decl)
    c.squeeze("a0", "b0", "e1", "e2", _S)
    a_lit, phi_lit = _real_lit(alpha), _angle_lit(phi)
    c.split("a_minus", "a_plus", "a0", "v0", a_lit, phi_lit)
    c.split("b_minus", "b_plus", "b0", "u0", a_lit, phi_lit)
    return a_lit, phi_lit


def build_delayed_telefilter(
    alpha: float = 0.5,
    phi: float = _CANONICAL_PHI,
    quad_phases: tuple[float, float] = (0.0, 0.0),
    gain_mode: str = "unity",
) -> CircuitAst:
    """two-bin selector, shared displacement, one bin of delay

    Both homodyne records are summed into a single feed-forward signal,
    so the early output bin cannot leave before the late measurement:
    the device is selective at the price of one bin of delay.
    """
    _check_choice(gain_mode, ("unity", "tanh"), "gain_mode")
    _check_unit_interval(alpha, "alpha")
    ph1, ph2 = float(quad_phases[0]), float(quad_phases[1])
    args = [
        ("alpha", alpha),
        ("phi", phi),
        ("quad_phases", (ph1, ph2)),
        ("gain_mode", gain_mode),
    ]
    c = _Circ("delayed_telefilter", args)
    c.infinite("s")
    a_lit, phi_lit = _two_bin_front(c, _SIGNAL_BINS + _RECEIVER_PERP, alpha, phi)
    c.homodyne("m1", "j1", "a_minus", ph1)
    c.homodyne("m2", "j2", "a_plus", ph2)
    weights: list[CoefExpr] = []
    for ph, amp in ((ph1, Sub(Num(1), a_lit)), (ph2, a_lit)):
        base = _scale(_conj_phase_lit(ph), Call("sqrt", amp))
        if gain_mode == "tanh":
            weights.append(Div(Mul(Call("tanh", _S), base), _sqrt2()))
        else:
            weights.append(Div(base, _sqrt2()))
    c.combine("m", [(weights[0], "m1"), (weights[1], "m2")])
    c.displace("j1p", "b_minus", "m", Call("sqrt", Sub(Num(1), a_lit)))
    c.displace("j2p", "b_plus", "m", Call("sqrt", a_lit))
    chi_lit = _derived_angle(math.pi - phi, (phi,), Sub(PiConst(), phi_lit))
    c.split("sel", "orth", "j1p", "j2p", a_lit, chi_lit)
    c.split("bp_minus", "bp_plus", "e1_perp", "u_perp", a_lit, phi_lit)
    c.split("sel_perp", "orth_perp", "bp_minus", "bp_plus", a_lit, chi_lit)
    c.output("selected", "sel", role="transmitted")
    c.output("orthogonal", "orth", role="transmitted")
    c.output("selected_perp", "sel_perp", role="transmitted")
    c.output("orthogonal_perp", "orth_perp", role="transmitted")
    c.output("bin1_out", "j1p", slot_bin=1, role="tap")
    c.output("bin2_out", "j2p", slot_bin=2, role="tap")
    c.output("record", "m")
    c.expect("selected_perp", [(1, "e1_perp")])
    c.expect("orthogonal_perp", [(1, "u_perp")])
    if not _canonical_phase(phi):
        # closed-form limits of the selected ports hold only at -pi/2
        return c.finish()
    g1 = cmath.exp(-2j * ph1)
    g2 = cmath.exp(-2j * ph2)
    ca, sa = math.sqrt(alpha), math.sqrt(1 - alpha)
    c.target([(sa * g1, "j1"), (ca * g2, "j2")])
    c.expect("selected", [(sa * g1, "j1"), (ca * g2, "j2")])
    c.expect("orthogonal", [(1, "u0")])
    c.expect("bin1_out", [((1 - alpha) * g1, "j1"), (ca * sa * g2, "j2"), (ca, "u0")])
    c.expect("bin2_out", [(ca * sa * g1, "j1"), (alpha * g2, "j2"), (-sa, "u0")])
    return c.finish()


def build_delayed_telemirror(
    alpha: float = 0.5,
    phi: float = _CANONICAL_PHI,
    selection: str = "auto",
    phi_c2: float = 0.0,
) -> CircuitAst:
    """two-bin amplifier selector, resources recovered

    selection picks the decoder wiring: "symmetric" is the balanced
    layout (requires alpha = 1/2 and phi = -pi/2), "tuned" carries the
    general phase bookkeeping, and "auto" chooses between them.
    """
    _check_choice(selection, ("auto", "symmetric", "tuned"), "selection")
    _check_unit_interval(alpha, "alpha")
    canonical = alpha == 0.5 and _canonical_phase(phi)
    if selection == "auto":
        selection = "symmetric" if canonical else "tuned"
    if selection == "symmetric" and not canonical:
        raise ValueError(
            "symmetric selection needs alpha = 1/2 and phi = -pi/2; use selection='tuned'"
        )
    if selection == "symmetric":
        return _delayed_telemirror_symmetric()
    return _delayed_telemirror_tuned(alpha, phi, phi_c2)


def _expect_perp_recovered(c: _Circ):
    # the balanced mirrors hand every orthogonal input back unchanged
    for k, mode in enumerate(("e2_perp", "v_perp", "j1_perp", "j2_perp"), start=1):
        c.expect(f"recovered_{k}_perp", [(1, mode)])


def _delayed_telemirror_symmetric() -> CircuitAst:
    args = [
        ("alpha", 0.5),
        ("phi", _CANONICAL_PHI),
        ("selection", "symmetric"),
        ("phi_c2", 0.0),
    ]
    c = _Circ("delayed_telemirror", args)
    c.infinite("s")
    c.infinite("r")
    half, neg_half_pi = _two_bin_front(c, _MIRROR_INPUTS, 0.5, _CANONICAL_PHI)
    c.squeeze("c1", "ar1", "j1", "a_minus", _R)
    c.squeeze("c2", "ar2", "j2", "a_plus", _R)
    c.split("c_plus", "c_minus", "c1", "c2", half, neg_half_pi)
    eta = Sub(Num(1), Div(Num(1), Mul(Num(2), Mul(Call("cosh", _R), Call("cosh", _R)))))
    c.split("j1p", "c_plus_p", "c_plus", "b_minus", eta, _angle_lit(_HALF_PI))
    c.split("j2p", "c_plus_pp", "c_plus_p", "b_plus", eta, _angle_lit(_HALF_PI))
    c.split("sel", "orth", "j1p", "j2p", half, neg_half_pi)
    c.split("o1", "o2", "ar1", "ar2", half, neg_half_pi)
    c.unsqueeze("rec1", "rec2", "o2", "c_minus", _R)
    k = Sub(Add(_R, _S), Call("arccosh", Div(Num(5), Num(4))))
    c.unsqueeze("rec3", "rec4", "o1", "c_plus_pp", k)
    c.split("bp_minus", "bp_plus", "e1_perp", "u_perp", half, neg_half_pi)
    c.split("sel_perp", "orth_perp", "bp_minus", "bp_plus", half, neg_half_pi)
    c.split("ap_minus", "ap_plus", "e2_perp", "v_perp", half, neg_half_pi)
    c.split("rp_e2", "rp_v", "ap_minus", "ap_plus", half, neg_half_pi)
    c.output("selected", "sel", role="transmitted")
    c.output("orthogonal", "orth", role="transmitted")
    c.output("selected_perp", "sel_perp", role="transmitted")
    c.output("orthogonal_perp", "orth_perp", role="transmitted")
    c.output("recovered_1", "rec1", role="reflected")
    c.output("recovered_2", "rec2", role="reflected")
    c.output("recovered_3", "rec3", role="reflected")
    c.output("recovered_4", "rec4", role="reflected")
    c.output("recovered_1_perp", "rp_e2", role="reflected")
    c.output("recovered_2_perp", "rp_v", role="reflected")
    c.output("recovered_3_perp", "j1_perp", role="reflected")
    c.output("recovered_4_perp", "j2_perp", role="reflected")
    c.output("bin1_out", "j1p", slot_bin=1, role="tap")
    c.output("bin2_out", "j2p", slot_bin=2, role="tap")
    c.output("channel_residual", "c_plus_pp", role="tap")
    rh = 1 / math.sqrt(2)
    c.target([(rh, "j1"), (rh, "j2")])
    c.expect("selected", [(-rh, "j1"), (-rh, "j2")])
    c.expect("orthogonal", [(1, "u0")])
    c.expect("selected_perp", [(1, "e1_perp")])
    c.expect("orthogonal_perp", [(1, "u_perp")])
    c.expect("recovered_1", [(1, "v0")])
    c.expect("recovered_2", [(rh, "j1"), (-rh, "j2")])
    c.expect("recovered_3", [(1, "e1")])
    c.expect("recovered_4", [(1, "e2")])
    _expect_perp_recovered(c)
    return c.finish()


def _delayed_telemirror_tuned(alpha: float, phi: float, phi_c2: float) -> CircuitAst:
    args = [
        ("alpha", alpha),
        ("phi", phi),
        ("selection", "tuned"),
        ("phi_c2", phi_c2),
    ]
    c = _Circ("delayed_telemirror", args)
    c.infinite("s")
    c.infinite("r")
    a_lit, phi_lit = _two_bin_front(c, _MIRROR_INPUTS, alpha, phi)
    pc2_lit = _angle_lit(phi_c2)
    mu_lit = Sub(Num(1), a_lit)
    # the decoder's angles all derive from phi and phi_c2 together
    bases = (phi, phi_c2)
    phi_c1_lit = _derived_angle(_HALF_PI - phi, bases, Sub(_half_pi(), phi_lit))
    theta_p_lit = _derived_angle(phi_c2 + _HALF_PI, bases, Add(pc2_lit, _half_pi()))
    theta_m_lit = _derived_angle(
        phi + phi_c2 + math.pi, bases, Add(Add(phi_lit, pc2_lit), PiConst())
    )
    neg_c0_lit = _derived_angle(phi_c2 - _HALF_PI, bases, Sub(pc2_lit, _half_pi()))
    chi_lit = _derived_angle(math.pi - phi, bases, Sub(PiConst(), phi_lit))
    c.squeeze("c1", "ar1", "j1", "a_minus", _R)
    c.squeeze("c2", "ar2", "j2", "a_plus", _R)
    c.phase("c1s", "c1", phi_c1_lit)
    c.phase("c2s", "c2", pc2_lit)
    c.split("c_minus", "c_plus", "c2s", "c1s", a_lit, neg_c0_lit)
    cosh_sq = Mul(Call("cosh", _R), Call("cosh", _R))
    eta_m = Sub(Num(1), Div(Sub(Num(1), a_lit), cosh_sq))
    eta_p = Sub(Num(1), Div(a_lit, cosh_sq))
    c.split("j1p", "c_plus_p", "c_plus", "b_minus", eta_m, theta_m_lit)
    c.split("j2p", "c_plus_pp", "c_plus_p", "b_plus", eta_p, theta_p_lit)
    c.split("sel", "orth", "j1p", "j2p", a_lit, chi_lit)
    c.split("o1", "o2", "ar2", "ar1", mu_lit, phi_lit)
    c.unsqueeze("rec1", "rec2", "o2", "c_minus", _R)
    c.split("bp_minus", "bp_plus", "e1_perp", "u_perp", a_lit, phi_lit)
    c.split("sel_perp", "orth_perp", "bp_minus", "bp_plus", a_lit, chi_lit)
    c.split("ap_minus", "ap_plus", "e2_perp", "v_perp", a_lit, phi_lit)
    c.split("rp_e2", "rp_v", "ap_plus", "ap_minus", mu_lit, phi_lit)
    c.output("selected", "sel", role="transmitted")
    c.output("orthogonal", "orth", role="transmitted")
    c.output("selected_perp", "sel_perp", role="transmitted")
    c.output("orthogonal_perp", "orth_perp", role="transmitted")
    c.output("recovered_1", "rec1", role="reflected")
    c.output("recovered_2", "rec2", role="reflected")
    c.output("recovered_1_perp", "rp_e2", role="reflected")
    c.output("recovered_2_perp", "rp_v", role="reflected")
    c.output("bin1_out", "j1p", slot_bin=1, role="tap")
    c.output("bin2_out", "j2p", slot_bin=2, role="tap")
    c.output("channel_residual", "c_plus_pp", role="tap")
    ca, sa = math.sqrt(alpha), math.sqrt(1 - alpha)
    ph = cmath.exp(-1j * phi)
    c.target([(1j * ph * sa, "j1"), (-ca, "j2")])
    c.expect("selected", [(1j * ph * sa, "j1"), (-ca, "j2")])
    c.expect("orthogonal", [(1, "u0")])
    c.expect("selected_perp", [(1, "e1_perp")])
    c.expect("orthogonal_perp", [(1, "u_perp")])
    c.expect("recovered_1", [(-1j / ph, "v0")])
    c.expect("recovered_2", [(1j * ph * ca, "j1"), (sa, "j2")])
    c.expect("recovered_1_perp", [(-1j * ph, "e2_perp")])
    c.expect("recovered_2_perp", [(-1j / ph, "v_perp")])
    return c.finish()


# ---------------------------------------------------------------------------
# two-bin protocols, per-bin feed-forward


def build_nodelay_independent() -> CircuitAst:
    """two disjoint single-bin links, recombined

    Each bin is teleported with its own resource pair and its own
    displacement, so nothing waits on a later measurement. Both the
    symmetric and antisymmetric recombinations come out clean: the link
    reproduces the whole two-bin space instead of selecting from it.
    """
    c = _Circ("nodelay_independent", [])
    c.infinite("s")
    c.mode(_SEED, "e1", "source")
    c.mode(_SEED, "e2", "source")
    c.mode(_SEED, "e3", "source2")
    c.mode(_SEED, "e4", "source2")
    c.mode(_SIGNAL, "j1", "input", 1)
    c.mode(_SIGNAL, "j2", "input", 2)
    c.squeeze("a0", "b0", "e1", "e2", _S)
    c.squeeze("y0", "z0", "e3", "e4", _S)
    c.homodyne("m1", "j1", "a0", 0.0)
    c.homodyne("m2", "j2", "y0", 0.0)
    c.displace("j1p", "b0", "m1", Div(Num(1), _sqrt2()))
    c.displace("j2p", "z0", "m2", Div(Num(1), _sqrt2()))
    c.split("sym", "anti", "j1p", "j2p", _real_lit(0.5), _angle_lit(_CANONICAL_PHI))
    c.output("sym_out", "sym", role="transmitted")
    c.output("anti_out", "anti", role="transmitted")
    c.output("bin1_out", "j1p", slot_bin=1, role="tap")
    c.output("bin2_out", "j2p", slot_bin=2, role="tap")
    c.output("record_1", "m1")
    c.output("record_2", "m2")
    rh = 1 / math.sqrt(2)
    c.target([(rh, "j1"), (rh, "j2")])
    c.expect("sym_out", [(rh, "j1"), (rh, "j2")])
    c.expect("anti_out", [(rh, "j1"), (-rh, "j2")])
    c.expect("bin1_out", [(1, "j1")])
    c.expect("bin2_out", [(1, "j2")])
    return c.finish()


def build_nodelay_telefilter(
    alpha: float = 0.5,
    quad_phases: tuple[float, float] = (0.0, 0.0),
) -> CircuitAst:
    """two-bin link, per-bin displacement, zero delay

    Each bin is displaced from its own record immediately, so causality
    costs nothing; the price moves to the orthogonal port, which picks
    up the full distribution noise instead of splitting off clean.
    """
    _check_unit_interval(alpha, "alpha")
    ph1, ph2 = float(quad_phases[0]), float(quad_phases[1])
    args = [("alpha", alpha), ("quad_phases", (ph1, ph2))]
    c = _Circ("nodelay_telefilter", args)
    c.infinite("s")
    a_lit, phi_lit = _two_bin_front(c, _SIGNAL_BINS, alpha, _CANONICAL_PHI)
    c.homodyne("m1", "j1", "a_minus", ph1)
    c.homodyne("m2", "j2", "a_plus", ph2)
    c.displace("j1p", "b_minus", "m1", Div(_conj_phase_lit(ph1), _sqrt2()))
    c.displace("j2p", "b_plus", "m2", Div(_conj_phase_lit(ph2), _sqrt2()))
    c.split("sel", "orth", "j1p", "j2p", a_lit, phi_lit)
    c.output("selected", "sel", role="transmitted")
    c.output("orthogonal", "orth", role="transmitted")
    c.output("bin1_out", "j1p", slot_bin=1, role="tap")
    c.output("bin2_out", "j2p", slot_bin=2, role="tap")
    c.output("record_1", "m1")
    c.output("record_2", "m2")
    g1 = cmath.exp(-2j * ph1)
    g2 = cmath.exp(-2j * ph2)
    ca, sa = math.sqrt(alpha), math.sqrt(1 - alpha)
    c.target([(sa * g1, "j1"), (ca * g2, "j2")])
    c.expect("selected", [(sa * g1, "j1"), (ca * g2, "j2")])
    c.expect("orthogonal", [(ca * g1, "j1"), (-sa * g2, "j2"), (1, "u0"), (-1, "v0^dag")])
    c.expect("bin1_out", [(g1, "j1"), (ca, "u0"), (-ca, "v0^dag")])
    c.expect("bin2_out", [(g2, "j2"), (-sa, "u0"), (sa, "v0^dag")])
    return c.finish()


def build_nodelay_telemirror(
    alpha: float = 0.5,
    theta_minus: float | None = None,
    theta_plus: float | None = None,
) -> CircuitAst:
    """two-bin amplifier link, per-bin reflection, zero delay

    The decoder chain is calibrated for the balanced distribution; the
    theta arguments expose the displacement-splitter phase freedom and
    default to the standard wiring.
    """
    _check_unit_interval(alpha, "alpha")
    th_m = _HALF_PI if theta_minus is None else float(theta_minus)
    th_p = _HALF_PI if theta_plus is None else float(theta_plus)
    args = [("alpha", alpha), ("theta_minus", th_m), ("theta_plus", th_p)]
    c = _Circ("nodelay_telemirror", args)
    c.infinite("s")
    c.infinite("r")
    a_lit, phi_lit = _two_bin_front(c, _MIRROR_INPUTS, alpha, _CANONICAL_PHI)
    back_lit = _angle_lit(-3 * _HALF_PI)
    c.phase("b_minus_d", "b_minus", _angle_lit(math.pi))
    c.phase("b_plus_d", "b_plus", _angle_lit(math.pi))
    c.squeeze("c1", "ar1", "j1", "a_minus", _R)
    c.squeeze("c2", "ar2", "j2", "a_plus", _R)
    disp = Mul(Call("tanh", _R), Call("tanh", _R))
    c.split("j1p", "c1p", "c1", "b_minus_d", disp, _angle_lit(-th_m))
    c.split("j2p", "c2p", "c2", "b_plus_d", disp, _angle_lit(-th_p))
    c.split("sel", "orth", "j1p", "j2p", a_lit, phi_lit)
    c.split("o_minus", "o_plus", "ar2", "ar1", a_lit, back_lit)
    c.split("d_u", "d_b", "c2p", "c1p", a_lit, back_lit)
    c.unsqueeze("rec1", "rec2", "o_minus", "d_u", _R)
    c.unsqueeze("rec3", "rec4", "o_plus", "d_b", _R)
    c.split("bp_minus", "bp_plus", "e1_perp", "u_perp", a_lit, phi_lit)
    c.phase("bp_minus_d", "bp_minus", _angle_lit(math.pi))
    c.phase("bp_plus_d", "bp_plus", _angle_lit(math.pi))
    c.split("sel_perp", "orth_perp", "bp_minus_d", "bp_plus_d", a_lit, phi_lit)
    c.split("ap_minus", "ap_plus", "e2_perp", "v_perp", a_lit, phi_lit)
    c.split("rp_v", "rp_e2", "ap_plus", "ap_minus", a_lit, back_lit)
    c.output("selected", "sel", role="transmitted")
    c.output("orthogonal", "orth", role="transmitted")
    c.output("selected_perp", "sel_perp", role="transmitted")
    c.output("orthogonal_perp", "orth_perp", role="transmitted")
    c.output("recovered_1", "rec1", role="reflected")
    c.output("recovered_2", "rec2", role="reflected")
    c.output("recovered_3", "rec3", role="reflected")
    c.output("recovered_4", "rec4", role="reflected")
    c.output("recovered_1_perp", "rp_e2", role="reflected")
    c.output("recovered_2_perp", "rp_v", role="reflected")
    c.output("recovered_3_perp", "j1_perp", role="reflected")
    c.output("recovered_4_perp", "j2_perp", role="reflected")
    c.output("bin1_out", "j1p", slot_bin=1, role="tap")
    c.output("bin2_out", "j2p", slot_bin=2, role="tap")
    standard = (
        alpha == 0.5 and theta_minus in (None, _HALF_PI) and theta_plus in (None, _HALF_PI)
    )
    if not standard:
        # the decoder chain is calibrated for alpha = 1/2 and standard phases
        return c.finish()
    rh = 1 / math.sqrt(2)
    q = 1 / (2 * math.sqrt(2))
    c.target([(rh, "j1"), (rh, "j2")])
    c.expect("selected", [(rh, "j1"), (rh, "j2")])
    c.expect("orthogonal", [(rh, "j1"), (-rh, "j2"), (-1, "u0"), (1, "v0^dag")])
    c.expect("selected_perp", [(-1, "e1_perp")])
    c.expect("orthogonal_perp", [(-1, "u_perp")])
    c.expect("recovered_1", [(q, "j1^dag"), (-q, "j2^dag"), (-1, "u0^dag"), (1.5, "v0")])
    c.expect("recovered_2", [(q, "j1"), (-q, "j2"), (1, "u0"), (-0.5, "v0^dag")])
    _expect_perp_recovered(c)
    return c.finish()


# ---------------------------------------------------------------------------
# N-bin generalizations


def _default_alphas(n: int) -> list[float]:
    # equal superposition weights: peel 1/n, then 1/(n-1) of the rest, ...
    return [(n - k) / (n - k + 1) for k in range(1, n)]


def _check_nmode_args(n: int, alphas, phis, quad_phases):
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2; got {n!r}")
    alphas = _default_alphas(n) if alphas is None else [float(a) for a in alphas]
    if len(alphas) != n - 1:
        raise ValueError(f"alphas must have length {n - 1}; got {len(alphas)}")
    for a in alphas:
        _check_unit_interval(a, "each alpha")
    if phis is None:
        phis = [_CANONICAL_PHI] * (n - 1)
    else:
        phis = [float(p) for p in phis]
    if len(phis) != n - 1:
        raise ValueError(f"phis must have length {n - 1}; got {len(phis)}")
    quad = [0.0] * n if quad_phases is None else [float(p) for p in quad_phases]
    if len(quad) != n:
        raise ValueError(f"quad_phases must have length {n}; got {len(quad)}")
    return alphas, phis, quad


def _cascade(c: _Circ, prefix: str, trunk: str, ancillas: list[str],
             alpha_lits: list[CoefExpr], phi_lits: list[CoefExpr]) -> list[str]:
    """Peel one share per ancilla; returns the resource wire per bin."""
    resources: list[str] = []
    acc = trunk
    for k, (anc, a, p) in enumerate(zip(ancillas, alpha_lits, phi_lits), start=1):
        res, nxt = f"{prefix}res{k}", f"{prefix}tr{k}"
        c.split(res, nxt, acc, anc, a, p)
        resources.append(res)
        acc = nxt
    resources.append(acc)
    return resources


def _nbin_front(c: _Circ, alphas: list[float], phis: list[float]):
    """Seed pair, bin ancillas, inputs, squeeze and both distribution
    cascades; returns the alpha and phi literals the cascades carry and
    each rail's resource wire per bin."""
    n = len(alphas) + 1
    c.mode(_SEED, "e1", "source")
    c.mode(_SEED, "e2", "source")
    for k in range(1, n):
        c.mode(_VACUUM, f"v{k}", "sender_ancilla")
    for k in range(1, n):
        c.mode(_VACUUM, f"u{k}", "receiver_ancilla")
    for k in range(1, n + 1):
        c.mode(_SIGNAL, f"j{k}", "input", k)
    c.squeeze("a0", "b0", "e1", "e2", _S)
    alpha_lits = [_real_lit(a) for a in alphas]
    phi_lits = [_angle_lit(p) for p in phis]
    a_res = _cascade(c, "a", "a0", [f"v{k}" for k in range(1, n)], alpha_lits, phi_lits)
    b_res = _cascade(c, "b", "b0", [f"u{k}" for k in range(1, n)], alpha_lits, phi_lits)
    return alpha_lits, phi_lits, a_res, b_res


def _fold_back(c: _Circ, phis: list[float], alpha_lits: list[CoefExpr], phi_lits: list[CoefExpr]):
    """Undo the cascade on the displaced bins j1p..jNp: the trunk leaves
    as ``selected`` and each step's leftover as ``orthogonal_k``."""
    n = len(phis) + 1
    acc = f"j{n}p"
    for k in range(n - 1, 0, -1):
        phi = phis[k - 1]
        back = _derived_angle(phi - math.pi, (phi,), Sub(phi_lits[k - 1], PiConst()))
        c.split(f"urec{k}", f"trunk{k}", acc, f"j{k}p", alpha_lits[k - 1], back)
        acc = f"trunk{k}"
    c.output("selected", acc, role="transmitted")
    for k in range(1, n):
        c.output(f"orthogonal_{k}", f"urec{k}", role="transmitted")


def _amplitude_schedule(alphas, phis) -> list[complex]:
    """Trunk amplitude reaching each bin's resource tap."""
    coefs: list[complex] = []
    running = 1.0 + 0j
    for a, p in zip(alphas, phis):
        coefs.append(-1j * cmath.exp(-1j * p) * math.sqrt(1 - a) * running)
        running *= math.sqrt(a)
    coefs.append(running)
    return coefs


def _quad_turn(q: float) -> complex:
    """e^{-2iq}, the turn a quadrature phase gives the teleported bin."""
    unit = _phase_unit(q, 2)
    return cmath.exp(-2j * q) if unit is None else unit


def _tap_weight_asts(alpha_lits: list[CoefExpr]) -> list[CoefExpr]:
    """Square root of the trunk power reaching each tap, symbolic in the
    same alpha literals the cascade splitters carry."""
    outs: list[CoefExpr] = []
    n = len(alpha_lits) + 1
    for k in range(n):
        parts: list[CoefExpr] = [alpha_lits[i] for i in range(k)]
        if k < n - 1:
            parts.append(Sub(Num(1), alpha_lits[k]))
        prod = parts[0]
        for p in parts[1:]:
            prod = Mul(prod, p)
        outs.append(Call("sqrt", prod))
    return outs


def _tap_gain_asts(alpha_lits: list[CoefExpr], phis: list[float]) -> list[CoefExpr]:
    """Displacement gain per tap: the trunk amplitude it must match."""
    weights = _tap_weight_asts(alpha_lits)
    gains: list[CoefExpr] = []
    for w, phi in zip(weights, phis):
        unit = _phase_unit(phi)
        if unit is not None:
            gains.append(_scale(_unit_lit(-1j * unit), w))
        else:
            gains.append(_scale(Neg(ImagUnit()), _scale(_conj_phase_lit(phi), w)))
    gains.append(weights[-1])
    return gains


def build_nmode_delayed_telefilter(
    n: int = 3,
    alphas: list[float] | None = None,
    phis: list[float] | None = None,
    quad_phases: list[float] | None = None,
) -> CircuitAst:
    """N-bin selector, shared displacement

    The resource is peeled across the wavepacket by a splitter cascade;
    all records combine into one signal, so every output bin waits for
    the last measurement. The leftover ports return the receiver
    ancillas unchanged.
    """
    alphas, phis, quad = _check_nmode_args(n, alphas, phis, quad_phases)
    args = [
        ("n", n),
        ("alphas", tuple(alphas)),
        ("phis", tuple(phis)),
        ("quad_phases", tuple(quad)),
    ]
    c = _Circ("nmode_delayed_telefilter", args)
    c.infinite("s")
    alpha_lits, phi_lits, a_res, b_res = _nbin_front(c, alphas, phis)
    gains = _tap_gain_asts(alpha_lits, phis)
    terms: list[tuple[CoefExpr, str]] = []
    for k in range(1, n + 1):
        c.homodyne(f"m{k}", f"j{k}", a_res[k - 1], quad[k - 1])
        weight = Div(_scale(_conj_phase_lit(quad[k - 1]), gains[k - 1]), _sqrt2())
        terms.append((weight, f"m{k}"))
    c.combine("m", terms)
    for k in range(1, n + 1):
        c.displace(f"j{k}p", b_res[k - 1], "m", gains[k - 1])
    _fold_back(c, phis, alpha_lits, phi_lits)
    for k in range(1, n + 1):
        c.output(f"bin{k}_out", f"j{k}p", slot_bin=k, role="tap")
    c.output("record", "m")
    coefs = _amplitude_schedule(alphas, phis)
    selected = [(coefs[k] * _quad_turn(quad[k]), f"j{k + 1}") for k in range(n)]
    c.target(selected)
    c.expect("selected", selected)
    for k in range(1, n):
        c.expect(f"orthogonal_{k}", [(1, f"u{k}")])
    return c.finish()


def build_nmode_nodelay_telefilter(
    n: int = 3,
    alphas: list[float] | None = None,
    quad_phases: list[float] | None = None,
) -> CircuitAst:
    """N-bin link, per-bin displacement, zero delay

    Same cascade as the delayed selector, but each record feeds its own
    bin immediately. Earlier leftovers never see later signals; the
    cost is distribution noise on every leftover port.
    """
    alphas, phis, quad = _check_nmode_args(
        n, alphas, None, quad_phases if quad_phases is not None else [_CANONICAL_PHI] * n
    )
    args = [("n", n), ("alphas", tuple(alphas)), ("quad_phases", tuple(quad))]
    c = _Circ("nmode_nodelay_telefilter", args)
    c.infinite("s")
    alpha_lits, phi_lits, a_res, b_res = _nbin_front(c, alphas, phis)
    for k in range(1, n + 1):
        c.homodyne(f"m{k}", f"j{k}", a_res[k - 1], quad[k - 1])
        gain = Div(_conj_phase_lit(quad[k - 1]), _sqrt2())
        c.displace(f"j{k}p", b_res[k - 1], f"m{k}", gain)
    _fold_back(c, phis, alpha_lits, phi_lits)
    for k in range(1, n + 1):
        c.output(f"bin{k}_out", f"j{k}p", slot_bin=k, role="tap")
        c.output(f"record_{k}", f"m{k}")
    weights = [abs(w) for w in _amplitude_schedule(alphas, phis)]
    turns = [_quad_turn(q) for q in quad]
    # bin 1's weight stays real and positive in the target
    c.target([(weights[k] * (turns[k] * turns[0].conjugate()), f"j{k + 1}") for k in range(n)])
    c.expect("selected", [(weights[k] * turns[k], f"j{k + 1}") for k in range(n)])
    return c.finish()


# ---------------------------------------------------------------------------
# registry


PROTOCOLS: dict[str, Callable[..., CircuitAst]] = {
    builder.__name__.removeprefix("build_"): builder
    for builder in (
        build_atemporal_telefilter,
        build_atemporal_telemirror,
        build_delayed_telefilter,
        build_delayed_telemirror,
        build_nodelay_independent,
        build_nodelay_telefilter,
        build_nodelay_telemirror,
        build_nmode_delayed_telefilter,
        build_nmode_nodelay_telefilter,
    )
}


def _circuit(name: str, overrides: dict) -> CircuitAst:
    builder = PROTOCOLS.get(name)
    if builder is None:
        raise ValueError(f"unknown protocol {name!r}")
    unknown = sorted(overrides.keys() - inspect.signature(builder).parameters.keys())
    if unknown:
        raise ValueError(f"protocol {name} has no argument {unknown[0]!r}")
    return builder(**overrides)


def build(name: str, **overrides) -> ProtocolOutput:
    """The named registry circuit, evaluated; no other code runs one."""
    return evaluate_circuit(_circuit(name, overrides))


def protocol_text(name: str, **overrides) -> str:
    """The circuit a builder writes, as canonical source text, unevaluated."""
    return serialize_circuit(_circuit(name, overrides))
