"""Circuit statement graph and its evaluator.

A circuit is an ordered list of statements: parameter and mode
declarations followed by element applications, each binding fresh wire
names, then outputs and the oracle the analyses judge them against (the
target mode and each port's expected limit form). Evaluation walks the
list once, carrying symbolic mode expressions plus an emission time for
every wire, and collects declared outputs into a :class:`ProtocolOutput`.

The interpreter is the one place element parameters are validated: each
split, squeeze and homodyne is judged under the actual binding (declared
defaults overlaid with the caller's values) before the unchecked algebra
of :mod:`telesim.elements` sees it. Measurement records are plain
:class:`ModeExpr` values; a wire's ``classical`` tag is what keeps them
apart from quantum wires.

Emission times follow arrival: an element emits at the latest bin among
its inputs. A displacement may claim an earlier emission bin; the claim
is honored here and judged by the causality analysis, which is exactly
how deliberately impossible circuits get flagged instead of rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .coeff import CoefExpr, CoefficientError, ParamEnv, evaluate
from .elements import (
    apply_inverse_squeezer,
    apply_phase_shift,
    apply_two_mode_squeezer,
    displace,
    dual_homodyne,
    split_modes,
)
from .opalg import ModeEvaluator, ModeExpr, ModeId, ModeKind, dagger, input_mode, lin_comb


@dataclass(frozen=True)
class Loc:
    line: int
    column: int

    def __str__(self):
        return f"line {self.line}, column {self.column}"


BUILTIN_LOC = Loc(0, 0)


class CircuitError(Exception):
    """Evaluation-time failure, tagged with the statement location."""

    def __init__(self, message: str, loc: Loc | None = None):
        self.loc = loc
        if loc is not None and loc.line > 0:
            message = f"{message} ({loc})"
        super().__init__(message)


@dataclass(frozen=True)
class Stmt:
    # source position; never part of structural equality
    loc: Loc = field(compare=False)


@dataclass(frozen=True)
class ParamDecl(Stmt):
    name: str
    value: float | None
    infinite: bool = False


@dataclass(frozen=True)
class ModeDecl(Stmt):
    kind: ModeKind
    name: str
    rail: str
    time_bin: int


@dataclass(frozen=True)
class SplitStmt(Stmt):
    out_minus: str
    out_plus: str
    in_t: str
    in_r: str
    alpha: CoefExpr
    phi: CoefExpr


@dataclass(frozen=True)
class SqueezeStmt(Stmt):
    out1: str
    out2: str
    in1: str
    in2: str
    gain: CoefExpr
    phase: CoefExpr


@dataclass(frozen=True)
class UnsqueezeStmt(Stmt):
    out1: str
    out2: str
    in1: str
    in2: str
    gain: CoefExpr


@dataclass(frozen=True)
class PhaseStmt(Stmt):
    out: str
    operand: str
    phi: CoefExpr


@dataclass(frozen=True)
class HomodyneStmt(Stmt):
    out: str
    signal: str
    resource: str
    xphase: CoefExpr
    pphase: CoefExpr


@dataclass(frozen=True)
class CombineStmt(Stmt):
    out: str
    terms: tuple[tuple[CoefExpr, str], ...]


@dataclass(frozen=True)
class DisplaceStmt(Stmt):
    out: str
    resource: str
    record: str
    gain: CoefExpr
    claimed_bin: int | None = None


ROLES = ("transmitted", "reflected", "tap")


@dataclass(frozen=True)
class OutputStmt(Stmt):
    name: str
    wire: str
    slot_bin: int | None = None
    role: str | None = None


@dataclass(frozen=True)
class ProtocolDecl(Stmt):
    name: str
    args: tuple[tuple[str, object], ...]


# mode forms: (weight, declared mode, creation) terms, creation meaning a^dag
@dataclass(frozen=True)
class TargetStmt(Stmt):
    terms: tuple[tuple[CoefExpr, str, bool], ...]


@dataclass(frozen=True)
class ExpectStmt(Stmt):
    port: str
    terms: tuple[tuple[CoefExpr, str, bool], ...]


@dataclass(frozen=True)
class CircuitAst:
    statements: tuple[Stmt, ...]

    @property
    def params(self) -> tuple[ParamDecl, ...]:
        return tuple(s for s in self.statements if isinstance(s, ParamDecl))

    @property
    def protocol(self) -> ProtocolDecl | None:
        for s in self.statements:
            if isinstance(s, ProtocolDecl):
                return s
        return None


@dataclass(frozen=True)
class PortTiming:
    slot_bin: int
    emission_bin: int


@dataclass
class ProtocolOutput:
    """Named results of one evaluated circuit.

    transmitted and reflected hold the canonical port set; taps carry
    per-bin intermediate views that overlap the canonical ports and are
    therefore excluded from unitarity sweeps. classical maps output names
    to measurement records, operators that commute with their own
    conjugates and carry no quantum port of their own. port_bins records, for
    every port, which temporal slot it occupies and when the device can
    actually emit it. target and expected_limit (per port, its form as the
    infinite parameters grow) come from the circuit's target and expect
    statements. evaluator() is the numeric session every analysis of this
    protocol draws its coefficient tables from.
    """

    transmitted: dict[str, ModeExpr] = field(default_factory=dict)
    reflected: dict[str, ModeExpr] = field(default_factory=dict)
    classical: dict[str, ModeExpr] = field(default_factory=dict)
    taps: dict[str, ModeExpr] = field(default_factory=dict)
    input_registry: list[ModeId] = field(default_factory=list)
    expected_limit: dict[str, ModeExpr] | None = None
    port_bins: dict[str, PortTiming] = field(default_factory=dict)
    circuit: CircuitAst | None = None
    env: ParamEnv = field(default_factory=lambda: ParamEnv({}))
    limit_params: list[str] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    target: ModeExpr | None = None
    name: str | None = None
    protocol_args: dict[str, object] = field(default_factory=dict)
    _session: ModeEvaluator | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def evaluator(self) -> ModeEvaluator:
        """Root session under env; bind() on it reaches derived bindings.

        Every session of the family tables all ports, classical records, the
        target and the declared limit forms when it is created, so nodes they
        share are evaluated once per binding. A new session replaces the
        family when env is reassigned.
        """
        if self._session is None or self._session.env is not self.env:
            roots = [*self.all_ports().values(), *self.classical.values()]
            roots += [self.target] if self.target is not None else []
            roots += (self.expected_limit or {}).values()
            self._session = ModeEvaluator(self.env, tuple(roots))
        return self._session

    def quantum_ports(self) -> dict[str, ModeExpr]:
        ports = dict(self.transmitted)
        ports.update(self.reflected)
        return ports

    def all_ports(self) -> dict[str, ModeExpr]:
        ports = self.quantum_ports()
        ports.update(self.taps)
        return ports


def merge_env(ast: CircuitAst, env: ParamEnv) -> tuple[ParamEnv, list[str]]:
    """Declared defaults overlaid with caller bindings.

    Parameters declared infinite default to the limit scale; the second
    return value lists them so analyses know what to push further. A caller
    binding pins its parameter to that finite value, removing it from the
    infinite list.
    """
    values: dict[str, float] = {}
    infinite: list[str] = []
    for decl in ast.params:
        if decl.infinite and decl.name not in env.values:
            infinite.append(decl.name)
            values[decl.name] = env.limit_scale
        else:
            values[decl.name] = decl.value if not decl.infinite else env.values[decl.name]
    values.update(env.values)
    return ParamEnv(values, env.limit_scale), infinite


class _Wire:
    __slots__ = ("value", "bin", "classical")

    def __init__(self, value, time_bin: int, classical: bool):
        self.value = value
        self.bin = time_bin
        self.classical = classical


class _Evaluation:
    def __init__(self, ast: CircuitAst, env: ParamEnv):
        self.ast = ast
        self.env, self.infinite = merge_env(ast, env)
        self.wires: dict[str, _Wire] = {}
        self.registry: dict[str, ModeId] = {}
        self.flags: list[str] = []

    def scalar(self, expr: CoefExpr, loc: Loc, what: str) -> complex:
        try:
            return evaluate(expr, self.env)
        except CoefficientError as exc:
            raise CircuitError(f"cannot evaluate {what}: {exc}", loc) from exc

    def real_scalar(self, expr: CoefExpr, loc: Loc, what: str) -> float:
        value = self.scalar(expr, loc, what)
        if abs(value.imag) > 1e-9:
            raise CircuitError(f"{what} must be real, got {value}", loc)
        return value.real

    def wire(self, name: str, loc: Loc) -> _Wire:
        found = self.wires.get(name)
        if found is None:
            raise CircuitError(f"unknown wire {name!r}", loc)
        return found

    def quantum(self, name: str, loc: Loc) -> ModeExpr:
        wire = self.wire(name, loc)
        if wire.classical:
            raise CircuitError(f"wire {name!r} is a measurement record", loc)
        return wire.value

    def classical(self, name: str, loc: Loc) -> ModeExpr:
        wire = self.wire(name, loc)
        if not wire.classical:
            raise CircuitError(f"wire {name!r} is not a measurement record", loc)
        return wire.value

    def form(self, terms, loc: Loc) -> ModeExpr:
        parts = []
        for weight, name, creation in terms:
            if name not in self.registry:
                raise CircuitError(f"{name!r} is not a declared mode", loc)
            mode = input_mode(self.registry[name])
            parts.append((weight, dagger(mode) if creation else mode))
        return lin_comb(parts)

    def put(self, name: str, value, time_bin: int, loc: Loc, classical=False):
        if name in self.wires:
            raise CircuitError(f"wire {name!r} assigned twice", loc)
        self.wires[name] = _Wire(value, time_bin, classical)

    def bin_of(self, name: str) -> int:
        return self.wires[name].bin

    def run(self) -> ProtocolOutput:
        out = ProtocolOutput(circuit=self.ast, env=self.env, limit_params=self.infinite)
        decl = self.ast.protocol
        if decl is not None:
            out.name = decl.name
            out.protocol_args = dict(decl.args)
        for stmt in self.ast.statements:
            self._step(stmt, out)
        out.input_registry = list(self.registry.values())
        return out

    def _step(self, stmt: Stmt, out: ProtocolOutput) -> None:
        loc = stmt.loc
        if isinstance(stmt, (ParamDecl, ProtocolDecl)):
            return
        if isinstance(stmt, ModeDecl):
            mode_id = ModeId(stmt.name, stmt.rail, stmt.time_bin, stmt.kind)
            self.registry[stmt.name] = mode_id
            self.put(stmt.name, input_mode(mode_id), stmt.time_bin, loc)
            return
        if isinstance(stmt, SplitStmt):
            alpha = self.real_scalar(stmt.alpha, loc, "alpha")
            if not -1e-12 <= alpha <= 1 + 1e-12:
                raise CircuitError(f"alpha = {alpha} outside [0, 1]", loc)
            if alpha < 1e-12 or alpha > 1 - 1e-12:
                self.flags.append(f"degenerate splitter alpha at {loc}")
            in_t = self.quantum(stmt.in_t, loc)
            in_r = self.quantum(stmt.in_r, loc)
            minus, plus = split_modes(in_t, in_r, stmt.alpha, stmt.phi)
            t_bin = max(self.bin_of(stmt.in_t), self.bin_of(stmt.in_r))
            self.put(stmt.out_minus, minus, t_bin, loc)
            self.put(stmt.out_plus, plus, t_bin, loc)
            return
        if isinstance(stmt, SqueezeStmt):
            if self.real_scalar(stmt.gain, loc, "gain") < -1e-12:
                raise CircuitError("squeezer gain must be nonnegative", loc)
            out1, out2 = apply_two_mode_squeezer(
                self.quantum(stmt.in1, loc),
                self.quantum(stmt.in2, loc),
                stmt.gain,
                stmt.phase,
            )
            t_bin = max(self.bin_of(stmt.in1), self.bin_of(stmt.in2))
            self.put(stmt.out1, out1, t_bin, loc)
            self.put(stmt.out2, out2, t_bin, loc)
            return
        if isinstance(stmt, UnsqueezeStmt):
            if self.real_scalar(stmt.gain, loc, "gain") < -1e-12:
                raise CircuitError("squeezer gain must be nonnegative", loc)
            out1, out2 = apply_inverse_squeezer(
                self.quantum(stmt.in1, loc), self.quantum(stmt.in2, loc), stmt.gain
            )
            t_bin = max(self.bin_of(stmt.in1), self.bin_of(stmt.in2))
            self.put(stmt.out1, out1, t_bin, loc)
            self.put(stmt.out2, out2, t_bin, loc)
            return
        if isinstance(stmt, PhaseStmt):
            shifted = apply_phase_shift(self.quantum(stmt.operand, loc), stmt.phi)
            self.put(stmt.out, shifted, self.bin_of(stmt.operand), loc)
            return
        if isinstance(stmt, HomodyneStmt):
            record = dual_homodyne(
                self.quantum(stmt.signal, loc),
                self.quantum(stmt.resource, loc),
                stmt.xphase,
                stmt.pphase,
            )
            # the record keeps its canonical form only for a right-angle pair
            gap = self.scalar(stmt.pphase - stmt.xphase, loc, "homodyne phases")
            right_angle = (
                abs(gap.imag) <= 1e-9
                and math.isfinite(gap.real)
                and abs(math.remainder(gap.real - math.pi / 2, 2 * math.pi)) <= 1e-9
            )
            if not right_angle:
                self.flags.append(f"noncanonical homodyne phases at {loc}")
            t_bin = max(self.bin_of(stmt.signal), self.bin_of(stmt.resource))
            self.put(stmt.out, record, t_bin, loc, classical=True)
            return
        if isinstance(stmt, CombineStmt):
            if not stmt.terms:
                raise CircuitError("combine needs at least one record", loc)
            combined = lin_comb([(w, self.classical(name, loc)) for w, name in stmt.terms])
            t_bin = max(self.bin_of(name) for _, name in stmt.terms)
            self.put(stmt.out, combined, t_bin, loc, classical=True)
            return
        if isinstance(stmt, DisplaceStmt):
            displaced = displace(
                self.quantum(stmt.resource, loc),
                self.classical(stmt.record, loc),
                stmt.gain,
            )
            arrival = max(self.bin_of(stmt.resource), self.bin_of(stmt.record))
            t_bin = arrival if stmt.claimed_bin is None else stmt.claimed_bin
            self.put(stmt.out, displaced, t_bin, loc)
            return
        if isinstance(stmt, OutputStmt):
            wire = self.wires.get(stmt.wire)
            if wire is None:
                raise CircuitError(f"unknown wire {stmt.wire!r}", loc)
            if stmt.name in out.port_bins:
                raise CircuitError(f"output {stmt.name!r} declared twice", loc)
            slot = wire.bin if stmt.slot_bin is None else stmt.slot_bin
            out.port_bins[stmt.name] = PortTiming(slot, wire.bin)
            if wire.classical:
                out.classical[stmt.name] = wire.value
                return
            role = stmt.role or "transmitted"
            if role == "transmitted":
                out.transmitted[stmt.name] = wire.value
            elif role == "reflected":
                out.reflected[stmt.name] = wire.value
            elif role == "tap":
                out.taps[stmt.name] = wire.value
            else:
                raise CircuitError(f"unknown output role {role!r}", loc)
            return
        if isinstance(stmt, TargetStmt):
            out.target = self.form(stmt.terms, loc)
            return
        if isinstance(stmt, ExpectStmt):
            if stmt.port not in out.all_ports():
                raise CircuitError(f"no quantum output {stmt.port!r} to expect", loc)
            if not any(decl.infinite for decl in self.ast.params):
                raise CircuitError("expect needs a 'param NAME = infinity' declaration", loc)
            out.expected_limit = out.expected_limit or {}
            out.expected_limit[stmt.port] = self.form(stmt.terms, loc)
            return
        raise CircuitError(f"unhandled statement {type(stmt).__name__}", loc)


def evaluate_circuit(ast: CircuitAst, env: ParamEnv | None = None) -> ProtocolOutput:
    """Lower the statement list onto the optical elements.

    Mode expressions stay symbolic in the declared parameters; env (over
    declared defaults) is the binding every element parameter is checked
    under, and is attached to the result for later evaluation.
    """
    evaluation = _Evaluation(ast, env if env is not None else ParamEnv({}))
    result = evaluation.run()
    result.flags.extend(evaluation.flags)
    return result
