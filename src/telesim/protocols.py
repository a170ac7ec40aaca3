"""Builders for the telefilter and telemirror circuit family.

A builder writes its golden: its circuit as circuit-language text, one
statement per line, which :func:`telesim.dsl.parse_circuit` turns into
statements. So only the parser knows what tree a coefficient's text makes,
it checks every builder circuit's wiring, and each statement's location is
its line in the golden, as the CLI reports it. :func:`build` is the one
place a registry circuit is evaluated. The circuit ends with the oracle its
analyses judge it against: the target mode (``target``) and the
closed-form limit each port is designed to reach (``expect``). Each golden
under golden/ equals ``protocol_text(name)`` byte for byte.

Line 1, the protocol statement, is not parsed but is a
:class:`ProtocolDecl` of the builder's own Python values: the parser reads
every number as a float, and an argument such as ``n`` must stay an int.

A builder is its own registry entry: its signature gives the argument
names and defaults, its annotations the types ``telesim protocols build``
parses, and the first line of its docstring the summary ``telesim
protocols list`` shows.

Numeric arguments are baked into the statements as literals; only the
squeezing strengths stay symbolic (declared infinite) so the same
circuit can be evaluated at any strength or pushed toward the limit. A
literal spliced into a larger coefficient goes in parentheses, which the
parser drops, so the coefficient is the same tree as the literal's own.

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

from .circuit import CircuitAst, Loc, ProtocolDecl, ProtocolOutput, evaluate_circuit
from .dsl import format_number, parse_circuit, serialize_circuit

_HALF_PI = math.pi / 2
_CANONICAL_PHI = -_HALF_PI


# ---------------------------------------------------------------------------
# literal construction
#
# Builders work with plain floats and turn them into coefficient text at
# emission time. Small rationals and their square roots get symbolic
# spellings; anything else becomes a float literal (repr round-trips
# exactly).


def _real_lit(x: float) -> str:
    if x < 0:
        return "-" + _real_lit(-x)
    if x == int(x) and x < 1e15:
        return str(int(x))
    f = Fraction(x).limit_denominator(64)
    if f.denominator <= 64 and abs(f.numerator) <= 999 and float(f) == x:
        return str(f)
    if x > 32:  # past sqrt(999), and x * x may overflow
        return format_number(x)
    g = Fraction(x * x).limit_denominator(64)
    if 0 < g.numerator <= 999 and g.denominator <= 64 and math.sqrt(g.numerator / g.denominator) == x:
        return f"sqrt({g})"
    return format_number(x)


def _grid_k(phi: float) -> int | None:
    """k when phi is exactly k*pi/4 with |k| <= 8, else None."""
    k = round(phi * 4 / math.pi)
    return k if abs(k) <= 8 and k * (math.pi / 4) == phi else None


def _angle_lit(phi: float) -> str:
    k = _grid_k(phi)
    if k is None:
        return _real_lit(phi)
    if k == 0:
        return "0"
    f = Fraction(abs(k), 4)
    head = "-" if k < 0 else ""
    if f.numerator != 1:
        head += f"{f.numerator}*"
    return f"{head}pi" + ("" if f.denominator == 1 else f"/{f.denominator}")


def _derived_angle(value: float, bases: tuple[float, ...], combination: str) -> str:
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


_UNIT_TEXT = {1: "1", -1j: "-i", -1: "-1", 1j: "i"}


def _scale(factor: str, expr: str) -> str:
    """factor * expr with the unit factors folded away.

    A leading minus binds to expr's first factor, as negating a product
    by hand would; expr is never a sum."""
    if factor == "1":
        return expr
    if factor == "-1":
        return "-" + expr
    return f"{factor}*({expr})"


def _conj_phase_lit(phi: float) -> str:
    """e^{-i phi} as coefficient text."""
    unit = _phase_unit(phi)
    if unit is not None:
        return _UNIT_TEXT[unit]
    return f"exp(-i*({_angle_lit(phi)}))"


def _weight_lit(z: complex) -> str:
    """A double as re, im*i or re +- im*i, never respelled symbolically as
    _real_lit would (1/sqrt(2) stays 0.7071067811865476)."""

    def signed(x: float) -> str:
        return "-" + format_number(-x) if x < 0 else format_number(x)

    z = complex(z)
    if z.imag == 0:
        return signed(z.real)
    if z.real == 0:
        return f"{signed(z.imag)}*i"
    return f"{signed(z.real)} {'+' if z.imag > 0 else '-'} {format_number(abs(z.imag))}*i"


def _terms(terms: list[tuple[complex, str]]) -> str:
    """WEIGHT*MODE terms; a mode spelled MODE^dag is its creation operator."""
    return ", ".join(f"({_weight_lit(weight)})*{name}" for weight, name in terms)


def _homodyne(out: str, signal: str, resource: str, xphase: float) -> str:
    x_lit = _angle_lit(xphase)
    pphase = _derived_angle(xphase + _HALF_PI, (xphase,), f"({x_lit}) + pi/2")
    return f"{out} = homodyne({signal}, {resource}, xphase={x_lit}, pphase={pphase})"


# ---------------------------------------------------------------------------
# statement emission


class _Circ:
    """A circuit's statement lines and its protocol statement."""

    def __init__(self, name: str, args: list[tuple[str, object]]):
        self.decl = ProtocolDecl(Loc(1, 1), name, tuple(args))
        self.lines: list[str] = []

    def add(self, text: str) -> None:
        """Statements, one per line; indentation and blank lines are dropped."""
        self.lines += [line.strip() for line in text.splitlines() if line.strip()]

    def finish(self) -> CircuitAst:
        # line 1 is the protocol statement's, so each statement's location
        # is its line in the golden
        body = parse_circuit("\n" + "\n".join(self.lines))
        return CircuitAst((self.decl, *body.statements))


def _check_choice(value: str, allowed: tuple[str, ...], what: str) -> None:
    if value not in allowed:
        raise ValueError(f"{what} must be one of {', '.join(allowed)}; got {value!r}")


def _check_unit_interval(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must lie in [0, 1]; got {value}")


def _check_length(values, n: int, what: str) -> list[float]:
    values = [float(v) for v in values]
    if len(values) != n:
        raise ValueError(f"{what} must have length {n}; got {len(values)}")
    return values


def _canonical_phase(phi: float) -> bool:
    return abs(math.remainder(phi - _CANONICAL_PHI, 2 * math.pi)) <= 1e-12


# ---------------------------------------------------------------------------
# single-mode protocols

# seed pair, inputs, receiver vacuum and the squeeze
_ONE_BIN_FRONT = """
    mode entanglement_seed e1 rail=source bin=0
    mode entanglement_seed e2 rail=source bin=0
    mode signal j0 rail=input bin=0
    mode signal j_perp rail=input bin=0
    mode vacuum e1_perp rail=receiver bin=0
    (a0, b0) = squeeze(e1, e2, gain=s, phase=0)
"""


def build_atemporal_telefilter(gain_mode: str = "unity") -> CircuitAst:
    """single-mode teleporter, measure and displace

    With unit gain the output reproduces the addressed mode exactly up
    to entanglement noise that vanishes with squeezing; the tanh gain
    trades signal amplitude for vacuum-limited noise at finite
    squeezing.
    """
    _check_choice(gain_mode, ("unity", "tanh"), "gain_mode")
    c = _Circ("atemporal_telefilter", [("gain_mode", gain_mode)])
    c.add("param s = infinity")
    c.add(_ONE_BIN_FRONT)
    gain = "1/sqrt(2)" if gain_mode == "unity" else "tanh(s)/sqrt(2)"
    c.add(f"""
        m = homodyne(j0, a0, xphase=0, pphase=pi/2)
        jout = displace(b0, m, gain={gain})
        output filtered = jout role=transmitted
        output filtered_perp = e1_perp role=transmitted
        output record = m
        target = 1*j0
        expect filtered = 1*j0
        expect filtered_perp = 1*e1_perp
    """)
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
    c.add("param s = infinity")
    if gain_mode == "matched":
        crystal, eta, residual_gain = "s", "2/(3 + cosh(2*s))", "2*s - arccosh(5/4)"
    else:
        c.add("param r = infinity")
        crystal, eta, residual_gain = "r", "sech(r)*sech(r)", "r + s - arccosh(5/4)"
    c.add(_ONE_BIN_FRONT)
    c.add(f"""
        (c0, a_refl) = squeeze(j0, a0, gain={crystal}, phase=0)
        (jout, c_refl) = split(b0, c0, alpha={eta}, phi=pi/2)
        (q1, q2) = unsqueeze(a_refl, c_refl, gain={crystal})
        (p1, p2) = unsqueeze(q1, q2, gain=s)
        (rec1, rec2) = squeeze(p1, p2, gain=arccosh(5/4), phase=0)
        (rec1d, rec2d) = unsqueeze(a_refl, c_refl, gain={residual_gain})
        (jout_perp, refl_perp) = split(e1_perp, j_perp, alpha={eta}, phi=pi/2)
        output mirror_out = jout role=transmitted
        output mirror_out_perp = jout_perp role=transmitted
        output recovered_1 = rec1 role=reflected
        output recovered_2 = rec2 role=reflected
        output reflected_perp = refl_perp role=reflected
        output recovered_1_direct = rec1d role=tap
        output recovered_2_direct = rec2d role=tap
        target = 1*j0
        expect mirror_out = 1*j0
        expect mirror_out_perp = -1*e1_perp
        expect recovered_1 = 1*e1
        expect recovered_2 = 1*e2
        expect reflected_perp = 1*j_perp
        expect recovered_1_direct = 1*e1
        expect recovered_2_direct = 1*e2
    """)
    return c.finish()


# ---------------------------------------------------------------------------
# two-bin protocols, delayed feed-forward


_SIGNAL_BINS = """
    mode signal j1 rail=input bin=1
    mode signal j2 rail=input bin=2
"""
_RECEIVER_PERP = """
    mode vacuum e1_perp rail=receiver bin=0
    mode vacuum u_perp rail=receiver_ancilla bin=0
"""
# bin-major so each rail's bins stay nondecreasing
_MIRROR_INPUTS = f"""
    mode signal j1 rail=input bin=1
    mode signal j1_perp rail=input bin=1
    mode signal j2 rail=input bin=2
    mode signal j2_perp rail=input bin=2
    {_RECEIVER_PERP}
    mode vacuum e2_perp rail=sender bin=0
    mode vacuum v_perp rail=sender_ancilla bin=0
"""


def _two_bin_front(c: _Circ, inputs: str, alpha: float, phi: float) -> tuple[str, str]:
    """Seed pair, bin ancillas, inputs, squeeze and both distribution
    splits; returns the alpha and phi literals the splits carry."""
    a_lit, phi_lit = _real_lit(alpha), _angle_lit(phi)
    c.add(f"""
        mode entanglement_seed e1 rail=source bin=0
        mode entanglement_seed e2 rail=source bin=0
        mode vacuum v0 rail=sender_ancilla bin=0
        mode vacuum u0 rail=receiver_ancilla bin=0
        {inputs}
        (a0, b0) = squeeze(e1, e2, gain=s, phase=0)
        (a_minus, a_plus) = split(a0, v0, alpha={a_lit}, phi={phi_lit})
        (b_minus, b_plus) = split(b0, u0, alpha={a_lit}, phi={phi_lit})
    """)
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
    ph1, ph2 = _check_length(quad_phases, 2, "quad_phases")
    args = [
        ("alpha", alpha),
        ("phi", phi),
        ("quad_phases", (ph1, ph2)),
        ("gain_mode", gain_mode),
    ]
    c = _Circ("delayed_telefilter", args)
    c.add("param s = infinity")
    a_lit, phi_lit = _two_bin_front(c, _SIGNAL_BINS + _RECEIVER_PERP, alpha, phi)
    tanh = "tanh(s)*" if gain_mode == "tanh" else ""
    weights = [
        f"{tanh}({_scale(_conj_phase_lit(ph), f'sqrt({amp})')})/sqrt(2)"
        for ph, amp in ((ph1, f"1 - ({a_lit})"), (ph2, a_lit))
    ]
    chi_lit = _derived_angle(math.pi - phi, (phi,), f"pi - ({phi_lit})")
    c.add(f"""
        {_homodyne("m1", "j1", "a_minus", ph1)}
        {_homodyne("m2", "j2", "a_plus", ph2)}
        m = combine(({weights[0]})*m1, ({weights[1]})*m2)
        j1p = displace(b_minus, m, gain=sqrt(1 - ({a_lit})))
        j2p = displace(b_plus, m, gain=sqrt({a_lit}))
        (sel, orth) = split(j1p, j2p, alpha={a_lit}, phi={chi_lit})
        (bp_minus, bp_plus) = split(e1_perp, u_perp, alpha={a_lit}, phi={phi_lit})
        (sel_perp, orth_perp) = split(bp_minus, bp_plus, alpha={a_lit}, phi={chi_lit})
        output selected = sel role=transmitted
        output orthogonal = orth role=transmitted
        output selected_perp = sel_perp role=transmitted
        output orthogonal_perp = orth_perp role=transmitted
        output bin1_out = j1p bin=1 role=tap
        output bin2_out = j2p bin=2 role=tap
        output record = m
        expect selected_perp = 1*e1_perp
        expect orthogonal_perp = 1*u_perp
    """)
    if not _canonical_phase(phi):
        # closed-form limits of the selected ports hold only at -pi/2
        return c.finish()
    g1 = cmath.exp(-2j * ph1)
    g2 = cmath.exp(-2j * ph2)
    ca, sa = math.sqrt(alpha), math.sqrt(1 - alpha)
    selected = _terms([(sa * g1, "j1"), (ca * g2, "j2")])
    c.add(f"""
        target = {selected}
        expect selected = {selected}
        expect orthogonal = 1*u0
        expect bin1_out = {_terms([((1 - alpha) * g1, "j1"), (ca * sa * g2, "j2"), (ca, "u0")])}
        expect bin2_out = {_terms([(ca * sa * g1, "j1"), (alpha * g2, "j2"), (-sa, "u0")])}
    """)
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


# the balanced mirrors hand every orthogonal input back unchanged
_PERP_RECOVERED = """
    expect recovered_1_perp = 1*e2_perp
    expect recovered_2_perp = 1*v_perp
    expect recovered_3_perp = 1*j1_perp
    expect recovered_4_perp = 1*j2_perp
"""


def _delayed_telemirror_symmetric() -> CircuitAst:
    args = [
        ("alpha", 0.5),
        ("phi", _CANONICAL_PHI),
        ("selection", "symmetric"),
        ("phi_c2", 0.0),
    ]
    c = _Circ("delayed_telemirror", args)
    c.add("param s = infinity\nparam r = infinity")
    _two_bin_front(c, _MIRROR_INPUTS, 0.5, _CANONICAL_PHI)
    eta = "1 - 1/(2*(cosh(r)*cosh(r)))"
    rh = _weight_lit(1 / math.sqrt(2))
    c.add(f"""
        (c1, ar1) = squeeze(j1, a_minus, gain=r, phase=0)
        (c2, ar2) = squeeze(j2, a_plus, gain=r, phase=0)
        (c_plus, c_minus) = split(c1, c2, alpha=1/2, phi=-pi/2)
        (j1p, c_plus_p) = split(c_plus, b_minus, alpha={eta}, phi=pi/2)
        (j2p, c_plus_pp) = split(c_plus_p, b_plus, alpha={eta}, phi=pi/2)
        (sel, orth) = split(j1p, j2p, alpha=1/2, phi=-pi/2)
        (o1, o2) = split(ar1, ar2, alpha=1/2, phi=-pi/2)
        (rec1, rec2) = unsqueeze(o2, c_minus, gain=r)
        (rec3, rec4) = unsqueeze(o1, c_plus_pp, gain=r + s - arccosh(5/4))
        (bp_minus, bp_plus) = split(e1_perp, u_perp, alpha=1/2, phi=-pi/2)
        (sel_perp, orth_perp) = split(bp_minus, bp_plus, alpha=1/2, phi=-pi/2)
        (ap_minus, ap_plus) = split(e2_perp, v_perp, alpha=1/2, phi=-pi/2)
        (rp_e2, rp_v) = split(ap_minus, ap_plus, alpha=1/2, phi=-pi/2)
        output selected = sel role=transmitted
        output orthogonal = orth role=transmitted
        output selected_perp = sel_perp role=transmitted
        output orthogonal_perp = orth_perp role=transmitted
        output recovered_1 = rec1 role=reflected
        output recovered_2 = rec2 role=reflected
        output recovered_3 = rec3 role=reflected
        output recovered_4 = rec4 role=reflected
        output recovered_1_perp = rp_e2 role=reflected
        output recovered_2_perp = rp_v role=reflected
        output recovered_3_perp = j1_perp role=reflected
        output recovered_4_perp = j2_perp role=reflected
        output bin1_out = j1p bin=1 role=tap
        output bin2_out = j2p bin=2 role=tap
        output channel_residual = c_plus_pp role=tap
        target = {rh}*j1, {rh}*j2
        expect selected = -{rh}*j1, -{rh}*j2
        expect orthogonal = 1*u0
        expect selected_perp = 1*e1_perp
        expect orthogonal_perp = 1*u_perp
        expect recovered_1 = 1*v0
        expect recovered_2 = {rh}*j1, -{rh}*j2
        expect recovered_3 = 1*e1
        expect recovered_4 = 1*e2
        {_PERP_RECOVERED}
    """)
    return c.finish()


def _delayed_telemirror_tuned(alpha: float, phi: float, phi_c2: float) -> CircuitAst:
    args = [
        ("alpha", alpha),
        ("phi", phi),
        ("selection", "tuned"),
        ("phi_c2", phi_c2),
    ]
    c = _Circ("delayed_telemirror", args)
    c.add("param s = infinity\nparam r = infinity")
    a_lit, phi_lit = _two_bin_front(c, _MIRROR_INPUTS, alpha, phi)
    pc2_lit = _angle_lit(phi_c2)
    mu_lit = f"1 - ({a_lit})"
    # the decoder's angles all derive from phi and phi_c2 together
    bases = (phi, phi_c2)
    phi_c1_lit = _derived_angle(_HALF_PI - phi, bases, f"pi/2 - ({phi_lit})")
    theta_p_lit = _derived_angle(phi_c2 + _HALF_PI, bases, f"({pc2_lit}) + pi/2")
    theta_m_lit = _derived_angle(
        phi + phi_c2 + math.pi, bases, f"({phi_lit}) + ({pc2_lit}) + pi"
    )
    neg_c0_lit = _derived_angle(phi_c2 - _HALF_PI, bases, f"({pc2_lit}) - pi/2")
    chi_lit = _derived_angle(math.pi - phi, bases, f"pi - ({phi_lit})")
    eta_m = f"1 - (1 - ({a_lit}))/(cosh(r)*cosh(r))"
    eta_p = f"1 - ({a_lit})/(cosh(r)*cosh(r))"
    c.add(f"""
        (c1, ar1) = squeeze(j1, a_minus, gain=r, phase=0)
        (c2, ar2) = squeeze(j2, a_plus, gain=r, phase=0)
        c1s = phase(c1, phi={phi_c1_lit})
        c2s = phase(c2, phi={pc2_lit})
        (c_minus, c_plus) = split(c2s, c1s, alpha={a_lit}, phi={neg_c0_lit})
        (j1p, c_plus_p) = split(c_plus, b_minus, alpha={eta_m}, phi={theta_m_lit})
        (j2p, c_plus_pp) = split(c_plus_p, b_plus, alpha={eta_p}, phi={theta_p_lit})
        (sel, orth) = split(j1p, j2p, alpha={a_lit}, phi={chi_lit})
        (o1, o2) = split(ar2, ar1, alpha={mu_lit}, phi={phi_lit})
        (rec1, rec2) = unsqueeze(o2, c_minus, gain=r)
        (bp_minus, bp_plus) = split(e1_perp, u_perp, alpha={a_lit}, phi={phi_lit})
        (sel_perp, orth_perp) = split(bp_minus, bp_plus, alpha={a_lit}, phi={chi_lit})
        (ap_minus, ap_plus) = split(e2_perp, v_perp, alpha={a_lit}, phi={phi_lit})
        (rp_e2, rp_v) = split(ap_plus, ap_minus, alpha={mu_lit}, phi={phi_lit})
        output selected = sel role=transmitted
        output orthogonal = orth role=transmitted
        output selected_perp = sel_perp role=transmitted
        output orthogonal_perp = orth_perp role=transmitted
        output recovered_1 = rec1 role=reflected
        output recovered_2 = rec2 role=reflected
        output recovered_1_perp = rp_e2 role=reflected
        output recovered_2_perp = rp_v role=reflected
        output bin1_out = j1p bin=1 role=tap
        output bin2_out = j2p bin=2 role=tap
        output channel_residual = c_plus_pp role=tap
    """)
    ca, sa = math.sqrt(alpha), math.sqrt(1 - alpha)
    ph = cmath.exp(-1j * phi)
    selected = _terms([(1j * ph * sa, "j1"), (-ca, "j2")])
    c.add(f"""
        target = {selected}
        expect selected = {selected}
        expect orthogonal = 1*u0
        expect selected_perp = 1*e1_perp
        expect orthogonal_perp = 1*u_perp
        expect recovered_1 = {_terms([(-1j / ph, "v0")])}
        expect recovered_2 = {_terms([(1j * ph * ca, "j1"), (sa, "j2")])}
        expect recovered_1_perp = {_terms([(-1j * ph, "e2_perp")])}
        expect recovered_2_perp = {_terms([(-1j / ph, "v_perp")])}
    """)
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
    rh = _weight_lit(1 / math.sqrt(2))
    c.add(f"""
        param s = infinity
        mode entanglement_seed e1 rail=source bin=0
        mode entanglement_seed e2 rail=source bin=0
        mode entanglement_seed e3 rail=source2 bin=0
        mode entanglement_seed e4 rail=source2 bin=0
        {_SIGNAL_BINS}
        (a0, b0) = squeeze(e1, e2, gain=s, phase=0)
        (y0, z0) = squeeze(e3, e4, gain=s, phase=0)
        m1 = homodyne(j1, a0, xphase=0, pphase=pi/2)
        m2 = homodyne(j2, y0, xphase=0, pphase=pi/2)
        j1p = displace(b0, m1, gain=1/sqrt(2))
        j2p = displace(z0, m2, gain=1/sqrt(2))
        (sym, anti) = split(j1p, j2p, alpha=1/2, phi=-pi/2)
        output sym_out = sym role=transmitted
        output anti_out = anti role=transmitted
        output bin1_out = j1p bin=1 role=tap
        output bin2_out = j2p bin=2 role=tap
        output record_1 = m1
        output record_2 = m2
        target = {rh}*j1, {rh}*j2
        expect sym_out = {rh}*j1, {rh}*j2
        expect anti_out = {rh}*j1, -{rh}*j2
        expect bin1_out = 1*j1
        expect bin2_out = 1*j2
    """)
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
    ph1, ph2 = _check_length(quad_phases, 2, "quad_phases")
    args = [("alpha", alpha), ("quad_phases", (ph1, ph2))]
    c = _Circ("nodelay_telefilter", args)
    c.add("param s = infinity")
    a_lit, phi_lit = _two_bin_front(c, _SIGNAL_BINS, alpha, _CANONICAL_PHI)
    c.add(f"""
        {_homodyne("m1", "j1", "a_minus", ph1)}
        {_homodyne("m2", "j2", "a_plus", ph2)}
        j1p = displace(b_minus, m1, gain=({_conj_phase_lit(ph1)})/sqrt(2))
        j2p = displace(b_plus, m2, gain=({_conj_phase_lit(ph2)})/sqrt(2))
        (sel, orth) = split(j1p, j2p, alpha={a_lit}, phi={phi_lit})
        output selected = sel role=transmitted
        output orthogonal = orth role=transmitted
        output bin1_out = j1p bin=1 role=tap
        output bin2_out = j2p bin=2 role=tap
        output record_1 = m1
        output record_2 = m2
    """)
    g1 = cmath.exp(-2j * ph1)
    g2 = cmath.exp(-2j * ph2)
    ca, sa = math.sqrt(alpha), math.sqrt(1 - alpha)
    selected = _terms([(sa * g1, "j1"), (ca * g2, "j2")])
    orthogonal = _terms([(ca * g1, "j1"), (-sa * g2, "j2"), (1, "u0"), (-1, "v0^dag")])
    c.add(f"""
        target = {selected}
        expect selected = {selected}
        expect orthogonal = {orthogonal}
        expect bin1_out = {_terms([(g1, "j1"), (ca, "u0"), (-ca, "v0^dag")])}
        expect bin2_out = {_terms([(g2, "j2"), (-sa, "u0"), (sa, "v0^dag")])}
    """)
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
    c.add("param s = infinity\nparam r = infinity")
    a, phi = _two_bin_front(c, _MIRROR_INPUTS, alpha, _CANONICAL_PHI)
    back = _angle_lit(-3 * _HALF_PI)
    c.add(f"""
        b_minus_d = phase(b_minus, phi=pi)
        b_plus_d = phase(b_plus, phi=pi)
        (c1, ar1) = squeeze(j1, a_minus, gain=r, phase=0)
        (c2, ar2) = squeeze(j2, a_plus, gain=r, phase=0)
        (j1p, c1p) = split(c1, b_minus_d, alpha=tanh(r)*tanh(r), phi={_angle_lit(-th_m)})
        (j2p, c2p) = split(c2, b_plus_d, alpha=tanh(r)*tanh(r), phi={_angle_lit(-th_p)})
        (sel, orth) = split(j1p, j2p, alpha={a}, phi={phi})
        (o_minus, o_plus) = split(ar2, ar1, alpha={a}, phi={back})
        (d_u, d_b) = split(c2p, c1p, alpha={a}, phi={back})
        (rec1, rec2) = unsqueeze(o_minus, d_u, gain=r)
        (rec3, rec4) = unsqueeze(o_plus, d_b, gain=r)
        (bp_minus, bp_plus) = split(e1_perp, u_perp, alpha={a}, phi={phi})
        bp_minus_d = phase(bp_minus, phi=pi)
        bp_plus_d = phase(bp_plus, phi=pi)
        (sel_perp, orth_perp) = split(bp_minus_d, bp_plus_d, alpha={a}, phi={phi})
        (ap_minus, ap_plus) = split(e2_perp, v_perp, alpha={a}, phi={phi})
        (rp_v, rp_e2) = split(ap_plus, ap_minus, alpha={a}, phi={back})
        output selected = sel role=transmitted
        output orthogonal = orth role=transmitted
        output selected_perp = sel_perp role=transmitted
        output orthogonal_perp = orth_perp role=transmitted
        output recovered_1 = rec1 role=reflected
        output recovered_2 = rec2 role=reflected
        output recovered_3 = rec3 role=reflected
        output recovered_4 = rec4 role=reflected
        output recovered_1_perp = rp_e2 role=reflected
        output recovered_2_perp = rp_v role=reflected
        output recovered_3_perp = j1_perp role=reflected
        output recovered_4_perp = j2_perp role=reflected
        output bin1_out = j1p bin=1 role=tap
        output bin2_out = j2p bin=2 role=tap
    """)
    standard = (
        alpha == 0.5 and theta_minus in (None, _HALF_PI) and theta_plus in (None, _HALF_PI)
    )
    if not standard:
        # the decoder chain is calibrated for alpha = 1/2 and standard phases
        return c.finish()
    rh = _weight_lit(1 / math.sqrt(2))
    q = _weight_lit(1 / (2 * math.sqrt(2)))
    c.add(f"""
        target = {rh}*j1, {rh}*j2
        expect selected = {rh}*j1, {rh}*j2
        expect orthogonal = {rh}*j1, -{rh}*j2, -1*u0, 1*v0^dag
        expect selected_perp = -1*e1_perp
        expect orthogonal_perp = -1*u_perp
        expect recovered_1 = {q}*j1^dag, -{q}*j2^dag, -1*u0^dag, 1.5*v0
        expect recovered_2 = {q}*j1, -{q}*j2, 1*u0, -0.5*v0^dag
        {_PERP_RECOVERED}
    """)
    return c.finish()


# ---------------------------------------------------------------------------
# N-bin generalizations


def _default_alphas(n: int) -> list[float]:
    # equal superposition weights: peel 1/n, then 1/(n-1) of the rest, ...
    return [(n - k) / (n - k + 1) for k in range(1, n)]


def _check_nmode_args(n: int, alphas, phis, quad_phases):
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2; got {n!r}")
    alphas = _check_length(_default_alphas(n) if alphas is None else alphas, n - 1, "alphas")
    for a in alphas:
        _check_unit_interval(a, "each alpha")
    phis = _check_length([_CANONICAL_PHI] * (n - 1) if phis is None else phis, n - 1, "phis")
    quad = _check_length([0.0] * n if quad_phases is None else quad_phases, n, "quad_phases")
    return alphas, phis, quad


def _cascade(c: _Circ, prefix: str, trunk: str, ancillas: list[str],
             alpha_lits: list[str], phi_lits: list[str]) -> list[str]:
    """Peel one share per ancilla; returns the resource wire per bin."""
    resources: list[str] = []
    acc = trunk
    for k, (anc, a, p) in enumerate(zip(ancillas, alpha_lits, phi_lits), start=1):
        res, nxt = f"{prefix}res{k}", f"{prefix}tr{k}"
        c.add(f"({res}, {nxt}) = split({acc}, {anc}, alpha={a}, phi={p})")
        resources.append(res)
        acc = nxt
    resources.append(acc)
    return resources


def _nbin_front(c: _Circ, alphas: list[float], phis: list[float]):
    """Seed pair, bin ancillas, inputs, squeeze and both distribution
    cascades; returns the alpha and phi literals the cascades carry and
    each rail's resource wire per bin."""
    n = len(alphas) + 1
    c.add("""
        mode entanglement_seed e1 rail=source bin=0
        mode entanglement_seed e2 rail=source bin=0
    """)
    for k in range(1, n):
        c.add(f"mode vacuum v{k} rail=sender_ancilla bin=0")
    for k in range(1, n):
        c.add(f"mode vacuum u{k} rail=receiver_ancilla bin=0")
    for k in range(1, n + 1):
        c.add(f"mode signal j{k} rail=input bin={k}")
    c.add("(a0, b0) = squeeze(e1, e2, gain=s, phase=0)")
    alpha_lits = [_real_lit(a) for a in alphas]
    phi_lits = [_angle_lit(p) for p in phis]
    a_res = _cascade(c, "a", "a0", [f"v{k}" for k in range(1, n)], alpha_lits, phi_lits)
    b_res = _cascade(c, "b", "b0", [f"u{k}" for k in range(1, n)], alpha_lits, phi_lits)
    return alpha_lits, phi_lits, a_res, b_res


def _fold_back(c: _Circ, phis: list[float], alpha_lits: list[str], phi_lits: list[str]):
    """Undo the cascade on the displaced bins j1p..jNp: the trunk leaves
    as ``selected`` and each step's leftover as ``orthogonal_k``."""
    n = len(phis) + 1
    acc = f"j{n}p"
    for k in range(n - 1, 0, -1):
        phi = phis[k - 1]
        back = _derived_angle(phi - math.pi, (phi,), f"({phi_lits[k - 1]}) - pi")
        alpha = alpha_lits[k - 1]
        c.add(f"(urec{k}, trunk{k}) = split({acc}, j{k}p, alpha={alpha}, phi={back})")
        acc = f"trunk{k}"
    c.add(f"output selected = {acc} role=transmitted")
    for k in range(1, n):
        c.add(f"output orthogonal_{k} = urec{k} role=transmitted")


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


def _tap_weights(alpha_lits: list[str]) -> list[str]:
    """Square root of the trunk power reaching each tap, symbolic in the
    same alpha literals the cascade splitters carry."""
    outs: list[str] = []
    n = len(alpha_lits) + 1
    for k in range(n):
        parts = [f"({a})" for a in alpha_lits[:k]]
        if k < n - 1:
            parts.append(f"(1 - ({alpha_lits[k]}))")
        outs.append(f"sqrt({'*'.join(parts)})")
    return outs


def _tap_gains(alpha_lits: list[str], phis: list[float]) -> list[str]:
    """Displacement gain per tap: the trunk amplitude it must match."""
    weights = _tap_weights(alpha_lits)
    gains: list[str] = []
    for w, phi in zip(weights, phis):
        unit = _phase_unit(phi)
        if unit is not None:
            gains.append(_scale(_UNIT_TEXT[-1j * unit], w))
        else:
            gains.append(_scale("-i", _scale(_conj_phase_lit(phi), w)))
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
    c.add("param s = infinity")
    alpha_lits, phi_lits, a_res, b_res = _nbin_front(c, alphas, phis)
    gains = _tap_gains(alpha_lits, phis)
    terms: list[str] = []
    for k in range(1, n + 1):
        c.add(_homodyne(f"m{k}", f"j{k}", a_res[k - 1], quad[k - 1]))
        terms.append(f"(({_scale(_conj_phase_lit(quad[k - 1]), gains[k - 1])})/sqrt(2))*m{k}")
    c.add(f"m = combine({', '.join(terms)})")
    for k in range(1, n + 1):
        c.add(f"j{k}p = displace({b_res[k - 1]}, m, gain={gains[k - 1]})")
    _fold_back(c, phis, alpha_lits, phi_lits)
    for k in range(1, n + 1):
        c.add(f"output bin{k}_out = j{k}p bin={k} role=tap")
    c.add("output record = m")
    coefs = _amplitude_schedule(alphas, phis)
    selected = _terms([(coefs[k] * _quad_turn(quad[k]), f"j{k + 1}") for k in range(n)])
    c.add(f"target = {selected}")
    c.add(f"expect selected = {selected}")
    for k in range(1, n):
        c.add(f"expect orthogonal_{k} = 1*u{k}")
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
    c.add("param s = infinity")
    alpha_lits, phi_lits, a_res, b_res = _nbin_front(c, alphas, phis)
    for k in range(1, n + 1):
        c.add(_homodyne(f"m{k}", f"j{k}", a_res[k - 1], quad[k - 1]))
        gain = f"({_conj_phase_lit(quad[k - 1])})/sqrt(2)"
        c.add(f"j{k}p = displace({b_res[k - 1]}, m{k}, gain={gain})")
    _fold_back(c, phis, alpha_lits, phi_lits)
    for k in range(1, n + 1):
        c.add(f"output bin{k}_out = j{k}p bin={k} role=tap")
        c.add(f"output record_{k} = m{k}")
    weights = [abs(w) for w in _amplitude_schedule(alphas, phis)]
    turns = [_quad_turn(q) for q in quad]
    # bin 1's weight stays real and positive in the target
    target = [(weights[k] * (turns[k] * turns[0].conjugate()), f"j{k + 1}") for k in range(n)]
    c.add(f"target = {_terms(target)}")
    c.add(f"expect selected = {_terms([(weights[k] * turns[k], f'j{k + 1}') for k in range(n)])}")
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
