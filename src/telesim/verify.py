"""Independent checks on evaluated circuits.

Nothing in here feeds back into simulation. The operator-side analyses
read coefficient tables from the protocol's per-binding sessions
(:meth:`ProtocolOutput.evaluator`), so each coefficient is evaluated once
per binding however many analyses use it: unitarity from pairwise
commutators, limits by pushing scale parameters twice as far (past
float64 range, OverflowError), causality from the time-bin registry, and
selectivity from overlaps against the protocol's declared target.
Variances are also computed by a float64 quadrature pipeline that never
touches the operator tables or the sessions. Agreement between the two
variance pipelines is the strongest cross-check the package has, because
they share no code past the scalar evaluator, :class:`circuit.Scalars`,
through which the interpreter and the oracle evaluate statement scalars.

:func:`verify_suite` composes these into the named pass/fail checks that
``telesim verify`` reports, :func:`run_suite` into the analyses ``telesim
run`` reports, and :func:`limit_suite` takes the limit of every quantum
port of a protocol; library callers get the same verdicts as the command
line.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import field

from mpmath.libmp import fzero, mpc_sub

from .circuit import (
    CircuitAst,
    CircuitError,
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
    Scalars,
    SplitStmt,
    SqueezeStmt,
    TargetStmt,
    UnsqueezeStmt,
    require_declared,
)
from .coeff import Frozen, ParamEnv, Record, to_complex
from .opalg import (
    Binding,
    ModeEvaluator,
    ModeExpr,
    ModeId,
    ModeKind,
    _magnitude,
    prune_for_display,
    quadrature_variance,
    session_for,
)

LIMIT_TOL = 1e-8
DIVERGENCE_BOUND = 1e8
LEAKAGE_TOL = 1e-6
NOISE_THRESHOLD = 0.5

_ZERO = (fzero, fzero)  # the raw mpc of an exact zero


# ---------------------------------------------------------------------------
# unitarity


class BogoliubovReport(Frozen):
    """Pairwise commutator audit of a set of output modes.

    A set of outputs is a valid new mode basis exactly when [A_i, A_j] = 0
    and [A_i, A_j^dagger] = delta_ij for every pair. failures lists each
    (left, right, check, deviation) that missed by more than tol.
    """

    names: tuple[str, ...]
    tol: float
    max_deviation: float
    failures: tuple[tuple[str, str, str, float], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_bogoliubov(outputs, env: Binding, tol: float = 1e-10) -> BogoliubovReport:
    """Verify that outputs form a canonical mode set under env.

    outputs maps names to mode expressions. Both commutator families are
    checked for every unordered pair, plus self-normalization
    [A, A^dagger] = 1, from one walk per pair
    (:meth:`ModeEvaluator.commutators`, whose parts are doubles); a nan
    deviation fails its pair and is the maximum. env may be a session,
    whose tables are then reused, or a bare env, whose session later calls
    with that same env reuse (see :func:`opalg.session_for`); either first
    tables the outputs it lacks in one pass per tape (:meth:`ModeEvaluator.tabled`).
    """
    items = list(outputs.items())
    evaluator = session_for(env)
    evaluator.tabled(outputs.values())
    failures = []
    deviations = []
    for i, (name_i, expr_i) in enumerate(items):
        for name_j, expr_j in items[i:]:
            expected = 1.0 if name_i == name_j else 0.0
            re, im, cross_re, cross_im = evaluator.commutators(expr_i, expr_j)
            plain = _magnitude(complex(re, im))
            cross = _magnitude(complex(cross_re, cross_im) - expected)
            for check, deviation in (("commutator", plain), ("cross-commutator", cross)):
                deviations.append(deviation)
                if not deviation <= tol:
                    failures.append((name_i, name_j, check, deviation))
    return BogoliubovReport(
        names=tuple(name for name, _ in items),
        tol=tol,
        max_deviation=_worst(deviations),
        failures=tuple(failures),
    )


def _worst(values: list[float]) -> float:
    """max(values, default=0.0), or nan if one is: max() drops a later nan."""
    return max(values, key=lambda v: (math.isnan(v), v), default=0.0)


# ---------------------------------------------------------------------------
# limits


class LimitResult(Frozen):
    """Verdict on a coefficient table compared at scale L and 2L.

    converged means every coefficient moved by at most LIMIT_TOL between the
    two scales and none blew up; limit is the 2L table less the entries
    :func:`opalg.prune_for_display` drops. Divergence is reported, not
    raised: raw classical channels grow like e^r by design and the caller
    may want to see exactly that.
    """

    scale: float
    max_difference: float
    divergent: bool
    converged: bool
    limit: dict


def _complex_table(expr: ModeExpr, evaluator: ModeEvaluator) -> dict:
    table = evaluator.floats(expr)
    for mode, (c, d) in table.items():
        # before any abs(): CPython's abs() of a NaN such as inf - inf obeys a stale errno
        if not (cmath.isfinite(c) and cmath.isfinite(d)):
            raise OverflowError(f"limit coefficient of {mode.name} beyond float64 range")
    return table


def limit_coefficients(
    expr: ModeExpr,
    params_to_infinity: list[str],
    env: Binding,
) -> LimitResult:
    """Numeric limit of a mode expression as the named parameters grow.

    Reads the float views of the scale and double-scale bindings, which a
    given session binds, so every port of a protocol shares them. Raises
    OverflowError when a coefficient at either scale is beyond float64 range.
    """
    session = session_for(env)
    scale = session.env.limit_scale
    low = _complex_table(expr, session.bind(**{p: scale for p in params_to_infinity}))
    doubled = session.bind(**{p: 2 * scale for p in params_to_infinity})
    high = _complex_table(expr, doubled)
    worst = 0.0
    divergent = False
    for mode in low.keys() | high.keys():
        lc, ld = low.get(mode, (0j, 0j))
        hc, hd = high.get(mode, (0j, 0j))
        worst = max(worst, abs(hc - lc), abs(hd - ld))
        if max(abs(hc), abs(hd)) > DIVERGENCE_BOUND:
            divergent = True
    return LimitResult(
        scale=scale,
        max_difference=worst,
        divergent=divergent,
        converged=not divergent and worst <= LIMIT_TOL,
        limit=prune_for_display(expr, doubled),
    )


# ---------------------------------------------------------------------------
# covariance oracle

# Quadrature convention: X = a + a^dagger, P = -i(a - a^dagger), so vacuum
# has Var X = Var P = 1 and a = (X + iP)/2. A wire is tracked by the two
# real rows expressing its X and P in the basis of input-mode quadratures;
# a measurement record by the rows of its real and imaginary parts. The
# element maps below follow from substituting a = (X + iP)/2 into the same
# input-output relations the operator pipeline uses, which keeps the two
# implementations independent everywhere past the scalar evaluator.


class _Rows:
    __slots__ = ("x", "p")

    def __init__(self, x, p):
        self.x = x
        self.p = p


def _mix(u: complex, a: _Rows, v: complex, b: _Rows) -> _Rows:
    # u a + v b: X = Re(u) Xa - Im(u) Pa + (Re(v) Xb - Im(v) Pb),
    # P = Im(u) Xa + Re(u) Pa + (Im(v) Xb + Re(v) Pb)
    ur, ui, vr, vi = u.real, u.imag, v.real, v.imag
    return _Rows(
        [ur * ax - ui * ap + (vr * bx - vi * bp) for ax, ap, bx, bp in zip(a.x, a.p, b.x, b.p)],
        [ui * ax + ur * ap + (vi * bx + vr * bp) for ax, ap, bx, bp in zip(a.x, a.p, b.x, b.p)],
    )


def _accumulate(x, p, u: complex, re, im) -> tuple[list, list]:
    # rows of (X + iP) + u (R + iI): X' = X + Re(u) R - Im(u) I, P' = P + Im(u) R + Re(u) I
    ur, ui = u.real, u.imag
    return (
        [xv + ur * rv - ui * iv for xv, rv, iv in zip(x, re, im)],
        [pv + ui * rv + ur * iv for pv, rv, iv in zip(p, re, im)],
    )


def _squeezed_rows(c, s, one: _Rows, two: _Rows) -> tuple[_Rows, _Rows]:
    # a1' = c a1 + s a2^dagger, a2' = c a2 + s a1^dagger; a^dagger negates P, shares X
    dag_one, dag_two = (_Rows(rows.x, [-v for v in rows.p]) for rows in (one, two))
    return _mix(c, one, s, dag_two), _mix(c, two, s, dag_one)


def _cis(phi: float) -> complex:
    """e^{i phi}; nan for a non-finite phi, as the operator kernels give."""
    return complex(math.cos(phi), math.sin(phi)) if math.isfinite(phi) else complex(math.nan, math.nan)


def _quadrature_row(rows: _Rows, phase: float):
    if not math.isfinite(phase):  # as the operator kernels: a non-finite phase gives nan
        return [math.nan] * len(rows.x)
    c, s = math.cos(phase), math.sin(phase)
    return [c * xv + s * pv for xv, pv in zip(rows.x, rows.p)]


class CovarianceRecord(Record):
    """Quadrature rows of every declared quantum output.

    All supported inputs are vacuum, so first moments vanish identically
    and the interesting content is the per-port variance function.
    """

    ports: dict[str, _Rows] = field(default_factory=dict)

    def variance(self, name: str, phase: float = 0.0) -> float:
        return sum(v * v for v in _quadrature_row(self.ports[name], phase))


def covariance_oracle(circuit: CircuitAst, env: ParamEnv | None = None) -> CovarianceRecord:
    """Propagate quadrature rows through the circuit in float64.

    Returns per-output X/P variance data computed without the operator
    tables; disagreement with quadrature_variance indicates a defect in one
    of the two pipelines. Its scalars are the interpreter's, one run of the
    circuit's tape (:class:`circuit.Scalars`): past them it shares nothing
    with the operator pipeline.
    Each element's row entry is one list-comprehension term with the float
    products and sums of the element map, in the order it is written.
    """
    scalar = Scalars(circuit, env if env is not None else ParamEnv({}))
    n = 2 * sum(1 for s in circuit.statements if isinstance(s, ModeDecl))
    wires: dict[str, object] = {}
    outputs: set[str] = set()
    record = CovarianceRecord()
    slot = 0

    def quantum(name, loc) -> _Rows:
        wire = wires.get(name)
        if not isinstance(wire, _Rows):
            raise CircuitError(f"no quantum wire {name!r}", loc)
        return wire

    def put(name, wire, loc) -> None:
        if name in wires:
            raise CircuitError(f"wire {name!r} assigned twice", loc)
        wires[name] = wire

    def classical(name, loc):
        wire = wires.get(name)
        if wire is None or isinstance(wire, _Rows):
            raise CircuitError(f"no measurement record {name!r}", loc)
        return wire

    for stmt in circuit.statements:
        loc = stmt.loc
        # the target and limit forms are the oracle of other checks, not wiring
        if isinstance(stmt, (ParamDecl, ProtocolDecl, TargetStmt, ExpectStmt)):
            continue
        if isinstance(stmt, ModeDecl):
            x, p = [0.0] * n, [0.0] * n
            x[slot] = 1.0
            p[slot + 1] = 1.0
            put(stmt.name, _Rows(x, p), loc)
            slot += 2
        elif isinstance(stmt, SplitStmt):
            alpha = scalar(stmt.alpha, loc, "alpha").real
            phi = scalar(stmt.phi, loc, "phi").real
            keep = math.sqrt(min(max(alpha, 0.0), 1.0))
            cross = math.sqrt(max(1.0 - alpha, 0.0))
            t, r = quantum(stmt.in_t, loc), quantum(stmt.in_r, loc)
            down = -1j * _cis(-phi) * cross
            up = -1j * _cis(phi) * cross
            put(stmt.out_minus, _mix(keep, r, down, t), loc)
            put(stmt.out_plus, _mix(keep, t, up, r), loc)
        elif isinstance(stmt, (SqueezeStmt, UnsqueezeStmt)):
            g = scalar(stmt.gain, loc, "gain").real
            theta = scalar(stmt.phase, loc, "phase").real if isinstance(stmt, SqueezeStmt) else None
            try:
                c, s = math.cosh(g), math.sinh(g)
            except OverflowError:  # past about 710: a caller binding can pin an infinite gain there
                raise CircuitError(f"gain {g!r} beyond the float64 oracle's range", loc) from None
            s = -s if theta is None else _cis(theta) * s
            one, two = quantum(stmt.in1, loc), quantum(stmt.in2, loc)
            out1, out2 = _squeezed_rows(c, s, one, two)
            put(stmt.out1, out1, loc)
            put(stmt.out2, out2, loc)
        elif isinstance(stmt, PhaseStmt):
            phi = scalar(stmt.phi, loc, "phi").real
            unit = _cis(phi)
            rows = quantum(stmt.operand, loc)
            put(stmt.out, _Rows(*_accumulate([0.0] * n, [0.0] * n, unit, rows.x, rows.p)), loc)
        elif isinstance(stmt, HomodyneStmt):
            xphase = scalar(stmt.xphase, loc, "xphase").real
            pphase = scalar(stmt.pphase, loc, "pphase").real
            sig = quantum(stmt.signal, loc)
            res = quantum(stmt.resource, loc)
            half = 1.0 / math.sqrt(2.0)
            total, diff = _mix(half, res, half, sig), _mix(half, sig, -half, res)
            put(stmt.out, (_quadrature_row(diff, xphase), _quadrature_row(total, pphase)), loc)
        elif isinstance(stmt, CombineStmt):
            parts = [0.0] * n, [0.0] * n
            for weight, name in stmt.terms:
                w = scalar(weight, loc, "combine weight")
                parts = _accumulate(*parts, w, *classical(name, loc))
            put(stmt.out, parts, loc)
        elif isinstance(stmt, DisplaceStmt):
            zeta = scalar(stmt.gain, loc, "gain")
            base = quantum(stmt.resource, loc)
            re_part, im_part = classical(stmt.record, loc)
            # a' = a + zeta (M_re + i M_im) with Hermitian M parts
            twice = complex(2 * zeta.real, 2 * zeta.imag)  # 2 * zeta would make 0 * inf parts
            put(stmt.out, _Rows(*_accumulate(base.x, base.p, twice, re_part, im_part)), loc)
        elif isinstance(stmt, OutputStmt):
            wire = wires.get(stmt.wire)
            if wire is None:
                raise CircuitError(f"unknown wire {stmt.wire!r}", loc)
            if stmt.name in outputs:
                raise CircuitError(f"output {stmt.name!r} declared twice", loc)
            outputs.add(stmt.name)
            if isinstance(wire, _Rows):
                if (stmt.role or "transmitted") not in ("transmitted", "reflected", "tap"):
                    raise CircuitError(f"unknown output role {stmt.role!r}", loc)
                record.ports[stmt.name] = wire
        else:
            raise CircuitError(f"unhandled statement {type(stmt).__name__}", loc)
    return record


# ---------------------------------------------------------------------------
# causality


class DependencyReport(Frozen):
    """Which inputs each output can see, and when it can be emitted.

    dependencies maps output names to the (mode, time_bin) pairs of their
    entries that are neither folded (``coeff``) nor exactly zero. An output
    violates causality when its emission bin comes before the latest bin it
    depends on; mandatory_delay is the largest gap
    between an output's nominal slot and its actual emission.
    """

    dependencies: dict[str, frozenset]
    emission: dict[str, int]
    violations: tuple[str, ...]
    verdict: str
    mandatory_delay: int


def _dependency_scan(expr: ModeExpr, evaluator: ModeEvaluator) -> frozenset:
    """(mode, bin) of each entry with a raw part not exactly zero, as ``!= 0`` tests."""
    found = set()
    for mode, (c, d) in evaluator.table(expr).items():
        if c != _ZERO or d != _ZERO:
            found.add((mode, mode.time_bin))
    return frozenset(found)


def causality_report(protocol: ProtocolOutput) -> DependencyReport:
    """Timing audit of an evaluated protocol."""
    evaluator = protocol.evaluator()
    scanned = {
        name: _dependency_scan(expr, evaluator)
        for name, expr in {**protocol.all_ports(), **protocol.classical}.items()
    }
    emission = {name: timing.emission_bin for name, timing in protocol.port_bins.items()}
    violations = []
    delay = 0
    for name, deps in scanned.items():
        latest = max((time_bin for _, time_bin in deps), default=emission[name])
        if emission[name] < latest:
            violations.append(name)
        delay = max(delay, emission[name] - protocol.port_bins[name].slot_bin)
    return DependencyReport(
        dependencies=scanned,
        emission=emission,
        violations=tuple(violations),
        verdict="acausal" if violations else "causal",
        mandatory_delay=delay,
    )


def signaling_test(protocol: ProtocolOutput, causality: DependencyReport) -> float:
    """Largest weight of a later bin's input inside any earlier-emitted output.

    Reads the quantum and tap ports' float views at the scan's dependencies.
    Zero here is structural, not numeric: a causal device simply never
    routes a late input into an output that already left. Protocols whose
    outputs all emit at the final bin have nothing to test and return 0;
    for those the cost shows up as delay in the causality report instead.
    """
    evaluator = protocol.evaluator()
    weights = []
    for name, expr in protocol.all_ports().items():
        table = evaluator.floats(expr)
        for mode, time_bin in causality.dependencies[name]:
            if time_bin > causality.emission[name]:
                weights += [_magnitude(part) for part in table[mode]]
    return _worst(weights)


# ---------------------------------------------------------------------------
# selectivity


class SelectivityReport(Frozen):
    """Classification of what a device does to the signal subspace.

    mode_selective: the target arrives intact and no orthogonal signal
    superposition survives on any transmitted port. mode_discriminating:
    the target port is clean but orthogonal content passes, buried under
    excess noise on every port that carries it. Anything else is neither.
    """

    target_overlap: complex
    orthogonal_leakage: float
    noise_variance_excess: dict[str, float]
    clean_port: str
    verdict: str


def _signal_vector(table: dict, signal_ids: list[ModeId]) -> list[complex]:
    return [table.get(mode, (0j, 0j))[0] for mode in signal_ids]


def _inner(left: list[complex], right: list[complex]) -> complex:
    return sum(l * r.conjugate() for l, r in zip(left, right))


def _orthogonal_basis(target: list[complex]) -> list[list[complex]]:
    """Orthonormal basis of the signal subspace orthogonal to target."""
    dim = len(target)
    basis: list[list[complex]] = []
    for k in range(dim):
        candidate = [0j] * dim
        candidate[k] = 1 + 0j
        overlap = _inner(candidate, target)
        candidate = [c - overlap * t for c, t in zip(candidate, target)]
        for prior in basis:
            overlap = _inner(candidate, prior)
            candidate = [c - overlap * b for c, b in zip(candidate, prior)]
        norm = math.sqrt(abs(_inner(candidate, candidate)))
        if norm > 1e-9:
            basis.append([c / norm for c in candidate])
    return basis


def selectivity_report(protocol: ProtocolOutput) -> SelectivityReport:
    """Classify transmitted ports against the declared target mode.

    Judged at the high-entanglement limit: every parameter the protocol
    declares as tending to infinity is pinned at the limit scale, whatever
    finite value the caller evaluated at. Reads that binding's float views
    of the target and transmitted ports, and their variances. Raises
    ValueError when there is no target, no transmitted port to judge or a
    target that is not normalized.
    """
    target = protocol.target
    if target is None:
        raise ValueError("protocol declares no target mode")
    if not protocol.transmitted:
        raise ValueError("target declared but no transmitted port: no output has role=transmitted")
    base = protocol.evaluator()
    evaluator = base.bind(**{p: base.env.limit_scale for p in protocol.limit_params})

    signal_ids = sorted(
        (m for m in protocol.input_registry if m.kind is ModeKind.SIGNAL),
        key=ModeId.sort_key,
    )
    tvec = _signal_vector(evaluator.floats(target), signal_ids)
    tnorm = math.sqrt(abs(_inner(tvec, tvec)))
    if abs(tnorm - 1) > 1e-6:
        raise ValueError(f"target is not normalized over the signal inputs: {tnorm}")
    complement = _orthogonal_basis(tvec)

    overlaps: dict[str, complex] = {}
    leakage: dict[str, float] = {}
    excess: dict[str, float] = {}
    for name, expr in protocol.transmitted.items():
        pvec = _signal_vector(evaluator.floats(expr), signal_ids)
        overlaps[name] = _inner(pvec, tvec)
        leakage[name] = max((abs(_inner(pvec, b)) for b in complement), default=0.0)
        spread = max(evaluator.variance(expr, phase) for phase in (0.0, math.pi / 2))
        excess[name] = spread - 1.0

    clean = max(overlaps, key=lambda name: abs(overlaps[name]))
    target_arrived = abs(abs(overlaps[clean]) - 1) <= LEAKAGE_TOL
    fully_filtered = all(v <= LEAKAGE_TOL for v in leakage.values())
    if target_arrived and fully_filtered:
        verdict = "mode_selective"
    elif (
        target_arrived
        and leakage[clean] <= LEAKAGE_TOL
        and all(
            excess[name] > NOISE_THRESHOLD
            for name, v in leakage.items()
            if v > LEAKAGE_TOL
        )
    ):
        verdict = "mode_discriminating"
    else:
        verdict = "neither"
    return SelectivityReport(
        target_overlap=overlaps[clean],
        orthogonal_leakage=leakage[clean],
        noise_variance_excess=excess,
        clean_port=clean,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# check suite


class LimitSuite(Record):
    """Per-port limit results for one set of scale parameters."""

    params: tuple[str, ...]
    results: dict[str, LimitResult]


def limit_suite(protocol: ProtocolOutput, names=()) -> LimitSuite:
    """Limit of every quantum port as names grow, by default the parameters
    declared infinite; each name counts once, in first-seen order.

    All ports draw their bindings from the protocol's root session. Raises
    ValueError when no name is given and none is declared infinite, or at
    a name the circuit does not declare (:func:`circuit.require_declared`).
    """
    params = tuple(dict.fromkeys(names or protocol.limit_params))
    if not params:
        raise ValueError("no scale parameters given and none declared infinite")
    require_declared(protocol.circuit, params)
    session = protocol.evaluator()
    return LimitSuite(
        params,
        {
            name: limit_coefficients(expr, params, session)
            for name, expr in protocol.quantum_ports().items()
        },
    )


def _declared_limit_gap(protocol: ProtocolOutput) -> float:
    """Largest coefficient distance from the declared limit forms, at twice
    the limit scale so the comparison sits well inside convergence: each raw
    difference over the modes of either table (an exact zero where one lacks
    the mode) at the session's precision, converted once. Ports with no
    declared form (those that legitimately diverge) are skipped."""
    evaluator = protocol.evaluator().bind(
        **{p: 2 * protocol.env.limit_scale for p in protocol.limit_params}
    )
    ports, prec, rnd, zero = protocol.all_ports(), evaluator._prec, evaluator._rnd, (_ZERO, _ZERO)
    gaps = []
    for name, want in protocol.expected_limit.items():
        have, target = evaluator.table(ports[name]), evaluator.table(want)
        for mode in have.keys() | target.keys():
            for h, t in zip(have.get(mode, zero), target.get(mode, zero)):
                gaps.append(_magnitude(to_complex(mpc_sub(h, t, prec, rnd), rnd)))
    return _worst(gaps)


class CheckSuite(Record):
    """Named pass/fail outcomes and the reports they were judged from.

    checks lists (name, passed, detail) in the order the checks ran. The
    report fields hold the analyses behind them, so a caller can show
    those without running them again; a field stays None when the
    protocol declares nothing for it to judge (no target, no parameter
    tending to infinity) or when nothing ran it: ``telesim run`` and
    ``telesim limits`` report a suite holding only the analyses they make.
    """

    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    bogoliubov: BogoliubovReport | None = None
    causality: DependencyReport | None = None
    selectivity: SelectivityReport | None = None
    limits: LimitSuite | None = None

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append((name, bool(passed), detail))

    @property
    def all_passed(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def run_suite(protocol: ProtocolOutput) -> CheckSuite:
    """The analyses ``telesim run`` reports, with no pass/fail check: the
    causality report, the selectivity report when the protocol names a
    target, and the limits of its quantum ports when a parameter tends to
    infinity."""
    suite = CheckSuite(causality=causality_report(protocol))
    if protocol.target is not None:
        suite.selectivity = selectivity_report(protocol)
    if protocol.limit_params:
        suite.limits = limit_suite(protocol)
    return suite


def verify_suite(protocol: ProtocolOutput) -> CheckSuite:
    """Every check ``telesim verify`` makes on an evaluated protocol.

    In order: the quantum outputs form a canonical mode set (within 1e-10),
    the device is causal, no output emitted before a bin carries that bin's
    inputs, the covariance oracle matches the operator variances (relative
    gap within 1e-10) and, for protocols that declare limit forms, those
    forms are reached (within LIMIT_TOL). The Bogoliubov audit runs first,
    then :func:`run_suite`'s analyses, which the checks after it extend.
    Each analysis runs once, drawing its tables from the protocol's
    sessions. Raises ValueError when the protocol has no quantum output,
    since every check would then pass vacuously.
    """
    if not protocol.quantum_ports():
        raise ValueError("circuit has no quantum output to verify")
    session = protocol.evaluator()
    bog = check_bogoliubov(protocol.quantum_ports(), session, tol=1e-10)
    suite = run_suite(protocol)
    suite.bogoliubov = bog
    suite.add(
        "bogoliubov canonical output set",
        bog.passed,
        f"max deviation {bog.max_deviation:.3e}",
    )

    causality = suite.causality
    suite.add(
        "causality",
        causality.verdict == "causal",
        f"verdict {causality.verdict}, delay {causality.mandatory_delay}",
    )

    leak = signaling_test(protocol, causality)
    suite.add("no early output carries later input", leak == 0.0, f"max weight {leak:.3e}")

    # pipeline equivalence is checked at a well-conditioned working point:
    # recovery chains cancel terms of order e^{2(r+s)}, which float64 cannot
    # resolve at the limit stand-in, and any finite value probes the same code
    probe = session.bind(**{p: min(protocol.env.values[p], 2.0) for p in protocol.limit_params})
    cov = covariance_oracle(protocol.circuit, probe.env)
    gaps = []
    for name, expr in protocol.all_ports().items():
        for phase in (0.0, math.pi / 2):
            op_side = quadrature_variance(expr, phase, probe)
            cov_side = cov.variance(name, phase)
            scale = max(1.0, abs(op_side), abs(cov_side))
            gaps.append(abs(op_side - cov_side) / scale)
    worst = _worst(gaps)
    suite.add(
        "covariance oracle matches operator variances",
        worst <= 1e-10,
        f"max relative gap {worst:.3e}",
    )

    if protocol.expected_limit and protocol.limit_params:
        gap = _declared_limit_gap(protocol)
        suite.add(
            "declared limit forms reached",
            gap <= LIMIT_TOL,
            f"max coefficient gap {gap:.3e}",
        )
    return suite
