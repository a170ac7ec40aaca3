"""Circuit statement graph and its evaluator.

A circuit is an ordered list of statements: parameter and mode
declarations followed by element applications, each binding fresh wire
names, then outputs and the oracle the analyses judge them against (the
target mode and each port's expected limit form). Evaluation walks the
list once, carrying symbolic mode expressions plus an emission time for
every wire, and collects declared outputs into a :class:`ProtocolOutput`.

:data:`ELEMENTS` is the one declaration of element wiring, read by the
parser, the serializer and the interpreter, and each element's statement
class (``SplitStmt`` ... ``DisplaceStmt``) is made from its entry. The
float64 covariance oracle in :mod:`telesim.verify` keeps its own wiring:
it is the independent reference, so a wrong row shows up as an oracle
mismatch instead of being copied into both variance pipelines. The two
share :class:`Scalars`, the one evaluator of statement scalars.

The interpreter is the one place element parameters are validated: each
split, squeeze and homodyne is judged under the actual binding (declared
defaults overlaid with the caller's values) before the unchecked algebra
of :mod:`telesim.elements` sees it. Measurement records are plain
:class:`ModeExpr` values; a wire's kind is what keeps them apart from
quantum wires.

Emission times follow arrival: an element emits at the latest bin among
its inputs. A displacement may claim an earlier emission bin; the claim
is honored here and judged by the causality analysis, which is exactly
how deliberately impossible circuits get flagged instead of rejected.
"""

from __future__ import annotations

import math
from dataclasses import field
from typing import Callable

from .coeff import CoefExpr, CoefficientError, Evaluator, Frozen, ParamEnv, Record, Tape, to_complex
from .elements import (
    apply_inverse_squeezer,
    apply_phase_shift,
    apply_two_mode_squeezer,
    displace,
    dual_homodyne,
    split_modes,
)
from .opalg import ModeEvaluator, ModeExpr, ModeId, ModeKind, dagger, input_mode, lin_comb


class Loc(Frozen):
    """A statement's position in circuit source: 1-based line and column."""

    line: int
    column: int

    def __str__(self):
        return f"line {self.line}, column {self.column}"


class CircuitError(Exception):
    """Evaluation-time failure, tagged with the statement location."""

    def __init__(self, message: str, loc: Loc | None = None):
        self.loc = loc
        if loc is not None and loc.line > 0:
            message = f"{message} ({loc})"
        super().__init__(message)


class Stmt(Frozen):
    """Base of every circuit statement: its source position."""

    # never part of structural equality
    loc: Loc = field(compare=False)


class ParamDecl(Stmt):
    """``param name = value``, or ``= infinity`` for a scale parameter."""

    name: str
    value: float | None
    infinite: bool = False


class ModeDecl(Stmt):
    """``mode kind name rail=... bin=...``: one input mode of the circuit."""

    kind: ModeKind
    name: str
    rail: str
    time_bin: int


# wire kinds, each spelled as the noun a wiring error names
MODE, RECORD = "mode wire", "measurement record"


class Element(Frozen):
    """Source form and wiring of one element statement.

    outputs and inputs pair each field naming a wire with the wire's kind
    (mode wire or measurement record); coefficients are the keyword fields
    in source order. apply is the element function, called with the inputs
    and then the coefficients. extra holds the fields after the
    coefficients, each (name, type) or (name, type, default): combine's
    terms, from which it reads its records, and displace's claimed bin.
    """

    keyword: str
    outputs: tuple[tuple[str, str], ...]
    inputs: tuple[tuple[str, str], ...] = ()
    coefficients: tuple[str, ...] = ()
    apply: Callable | None = None
    extra: tuple[tuple, ...] = ()


ELEMENTS: dict[type, Element] = {}


def _statement(element: Element) -> type:
    """The frozen statement class of element, registered in :data:`ELEMENTS`."""
    fields = [*((name, "str") for name, _ in element.outputs + element.inputs),
              *((name, "CoefExpr") for name in element.coefficients), *element.extra]
    cls = type(f"{element.keyword.capitalize()}Stmt", (Stmt,), {
        "__module__": __name__, "__doc__": f"A ``{element.keyword}`` statement.",
        "__annotations__": {name: kind for name, kind, *_ in fields},
        **{spec[0]: spec[2] for spec in fields if len(spec) == 3},  # the defaults
    })
    ELEMENTS[cls] = element
    return cls


_MODE_OUT = (("out", MODE),)
_MODE_PAIR_OUT = (("out1", MODE), ("out2", MODE))
_MODE_PAIR_IN = (("in1", MODE), ("in2", MODE))

SplitStmt = _statement(Element(
    "split", (("out_minus", MODE), ("out_plus", MODE)), (("in_t", MODE), ("in_r", MODE)),
    ("alpha", "phi"), split_modes,
))
SqueezeStmt = _statement(Element(
    "squeeze", _MODE_PAIR_OUT, _MODE_PAIR_IN, ("gain", "phase"), apply_two_mode_squeezer
))
UnsqueezeStmt = _statement(Element(
    "unsqueeze", _MODE_PAIR_OUT, _MODE_PAIR_IN, ("gain",), apply_inverse_squeezer
))
PhaseStmt = _statement(
    Element("phase", _MODE_OUT, (("operand", MODE),), ("phi",), apply_phase_shift)
)
HomodyneStmt = _statement(Element(
    "homodyne", (("out", RECORD),), (("signal", MODE), ("resource", MODE)),
    ("xphase", "pphase"), dual_homodyne,
))
CombineStmt = _statement(Element(
    "combine", (("out", RECORD),), extra=(("terms", "tuple[tuple[CoefExpr, str], ...]"),)
))
DisplaceStmt = _statement(Element(
    "displace", _MODE_OUT, (("resource", MODE), ("record", RECORD)), ("gain",), displace,
    (("claimed_bin", "int | None", None),),
))

ROLES = ("transmitted", "reflected", "tap")


class OutputStmt(Stmt):
    """``output name = wire [bin=...] [role=...]``: one declared output."""

    name: str
    wire: str
    slot_bin: int | None = None
    role: str | None = None


class ProtocolDecl(Stmt):
    """``protocol name(args)``: the builder and arguments a circuit came from."""

    name: str
    args: tuple[tuple[str, object], ...]


# mode forms: (weight, declared mode, creation) terms, creation meaning a^dag
class TargetStmt(Stmt):
    """``target = ...``: the signal mode that selectivity is judged against."""

    terms: tuple[tuple[CoefExpr, str, bool], ...]


class ExpectStmt(Stmt):
    """``expect port = ...``: the port's form as the infinite parameters grow."""

    port: str
    terms: tuple[tuple[CoefExpr, str, bool], ...]


class CircuitAst(Frozen):
    """Statements, and the tape their scalars run on (see :func:`evaluate_circuit`)."""

    statements: tuple[Stmt, ...]
    tape: Tape = field(default_factory=Tape, init=False, compare=False, repr=False)

    @property
    def params(self) -> tuple[ParamDecl, ...]:
        return tuple(s for s in self.statements if isinstance(s, ParamDecl))

    @property
    def protocol(self) -> ProtocolDecl | None:
        for s in self.statements:
            if isinstance(s, ProtocolDecl):
                return s
        return None


class PortTiming(Frozen):
    """A port's temporal slot and the bin the device can first emit it in."""

    slot_bin: int
    emission_bin: int


class ProtocolOutput(Record):
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
    expected_limit: dict[str, ModeExpr] = field(default_factory=dict)
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

        It and every session bound from it table :meth:`roots` when created,
        so nodes they share are evaluated once per binding. The protocol owns
        the root session, and each session the ones it binds; when env is
        reassigned, a new root replaces the whole tree. The kept root keeps
        the precision it was made with, even if ``MP``'s has changed since.
        """
        if self._session is None or self._session.env is not self.env:
            self._session = ModeEvaluator(self.env, self.roots())
        return self._session

    def roots(self) -> tuple[ModeExpr, ...]:
        """Every expression the analyses table: ports, classical records,
        the target and the declared limit forms."""
        target = () if self.target is None else (self.target,)
        return (*self.all_ports().values(), *self.classical.values(), *target,
                *self.expected_limit.values())

    def quantum_ports(self) -> dict[str, ModeExpr]:
        ports = dict(self.transmitted)
        ports.update(self.reflected)
        return ports

    def all_ports(self) -> dict[str, ModeExpr]:
        ports = self.quantum_ports()
        ports.update(self.taps)
        return ports


def require_declared(ast: CircuitAst, names) -> None:
    """Raise ValueError at the first of names that ast declares no parameter for."""
    declared = {decl.name for decl in ast.params}
    for name in names:
        if name not in declared:
            raise ValueError(f"circuit declares no parameter {name!r}")


def merge_env(ast: CircuitAst, env: ParamEnv) -> tuple[ParamEnv, list[str]]:
    """Declared defaults overlaid with caller bindings.

    Parameters declared infinite default to the limit scale; the second
    return value lists them so analyses know what to push further. A caller
    binding pins its parameter to that finite value, removing it from the
    infinite list. Raises ValueError for a binding of a parameter ast does
    not declare (:func:`require_declared`).
    """
    require_declared(ast, env.values)
    values = {decl.name: env.limit_scale if decl.infinite else decl.value for decl in ast.params}
    values.update(env.values)
    infinite = [decl.name for decl in ast.params if decl.infinite and decl.name not in env.values]
    return ParamEnv(values, env.limit_scale), infinite


class _Wire:
    """A bound wire name: its mode expression, emission bin and kind."""

    __slots__ = ("value", "bin", "kind")

    def __init__(self, value: ModeExpr, bin: int, kind: str):
        self.value, self.bin, self.kind = value, bin, kind


class Scalars:
    """A circuit's statement scalars under env over its declared defaults
    (:func:`merge_env`, whose env and infinite it keeps): a call gives the
    double of one run of the circuit's tape, or raises the run's
    ``CoefficientError`` as a ``CircuitError`` at the statement. The
    interpreter and the covariance oracle both evaluate through it; the
    interpreter's run is also the one its tape builds in (:meth:`Tape.open`)."""

    def __init__(self, ast: CircuitAst, env: ParamEnv):
        self.env, self.infinite = merge_env(ast, env)
        self._run = Evaluator(self.env, ast.tape)

    def __call__(self, expr: CoefExpr, loc: Loc, what: str) -> complex:
        try:
            return to_complex(self._run.eval(expr))
        except CoefficientError as exc:
            raise CircuitError(f"cannot evaluate {what}: {exc}", loc) from exc


class _Evaluation:
    def __init__(self, ast: CircuitAst, env: ParamEnv):
        self.ast = CircuitAst(ast.statements)  # with a tape of its own
        self.scalar = Scalars(self.ast, env)
        self.wires: dict[str, _Wire] = {}
        self.registry: dict[str, ModeId] = {}
        self.flags: list[str] = []
        self.coefficients: list[CoefExpr] = []  # each element statement's, as the oracle reads them

    def real_scalar(self, expr: CoefExpr, loc: Loc, what: str) -> float:
        value = self.scalar(expr, loc, what)
        if abs(value.imag) > 1e-9:
            raise CircuitError(f"{what} must be real, got {value}", loc)
        return value.real

    def fetch(self, name: str, kind: str, loc: Loc) -> ModeExpr:
        wire = self.wires.get(name)
        if wire is None:
            raise CircuitError(f"unknown wire {name!r}", loc)
        if wire.kind != kind:
            negation = "not " if kind == RECORD else ""
            raise CircuitError(f"wire {name!r} is {negation}a measurement record", loc)
        return wire.value

    def form(self, terms, loc: Loc) -> ModeExpr:
        parts = []
        for weight, name, creation in terms:
            if name not in self.registry:
                raise CircuitError(f"{name!r} is not a declared mode", loc)
            mode = input_mode(self.registry[name])
            parts.append((weight, dagger(mode) if creation else mode))
        return lin_comb(parts)

    def put(self, name: str, value, time_bin: int, loc: Loc, kind: str):
        if name in self.wires:
            raise CircuitError(f"wire {name!r} assigned twice", loc)
        self.wires[name] = _Wire(value, time_bin, kind)

    def run(self) -> ProtocolOutput:
        scalar = self.scalar
        out = ProtocolOutput(circuit=self.ast, env=scalar.env, limit_params=scalar.infinite)
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
            self.put(stmt.name, input_mode(mode_id), stmt.time_bin, loc, MODE)
            return
        element = ELEMENTS.get(type(stmt))
        if element is not None:
            self.check(stmt, loc)
            if isinstance(stmt, CombineStmt):
                wires, coefficients = [record for _, record in stmt.terms], [w for w, _ in stmt.terms]
                results = lin_comb([(w, self.fetch(r, RECORD, loc)) for w, r in stmt.terms])
            else:
                wires = [getattr(stmt, name) for name, _ in element.inputs]
                coefficients = [getattr(stmt, k) for k in element.coefficients]
                inputs = [self.fetch(getattr(stmt, f), kind, loc) for f, kind in element.inputs]
                results = element.apply(*inputs, *coefficients)
            self.coefficients += coefficients
            time_bin = max(self.wires[name].bin for name in wires)
            if isinstance(stmt, DisplaceStmt) and stmt.claimed_bin is not None:
                time_bin = stmt.claimed_bin
            if len(element.outputs) == 1:
                results = (results,)
            for (field_name, kind), value in zip(element.outputs, results):
                self.put(getattr(stmt, field_name), value, time_bin, loc, kind)
            return
        if isinstance(stmt, OutputStmt):
            wire = self.wires.get(stmt.wire)
            if wire is None:
                raise CircuitError(f"unknown wire {stmt.wire!r}", loc)
            if stmt.name in out.port_bins:
                raise CircuitError(f"output {stmt.name!r} declared twice", loc)
            slot = wire.bin if stmt.slot_bin is None else stmt.slot_bin
            out.port_bins[stmt.name] = PortTiming(slot, wire.bin)
            if wire.kind == RECORD:
                out.classical[stmt.name] = wire.value
                return
            ports = {"transmitted": out.transmitted, "reflected": out.reflected, "tap": out.taps}
            role = stmt.role or "transmitted"
            if role not in ports:
                raise CircuitError(f"unknown output role {role!r}", loc)
            ports[role][stmt.name] = wire.value
            return
        if isinstance(stmt, TargetStmt):
            out.target = self.form(stmt.terms, loc)
            return
        if isinstance(stmt, ExpectStmt):
            if stmt.port not in out.all_ports():
                raise CircuitError(f"no quantum output {stmt.port!r} to expect", loc)
            if not any(decl.infinite for decl in self.ast.params):
                raise CircuitError("expect needs a 'param NAME = infinity' declaration", loc)
            out.expected_limit[stmt.port] = self.form(stmt.terms, loc)
            return
        raise CircuitError(f"unhandled statement {type(stmt).__name__}", loc)

    def check(self, stmt: Stmt, loc: Loc) -> None:
        """Judge an element's parameters under the binding, before its wiring."""
        if isinstance(stmt, SplitStmt):
            alpha = self.real_scalar(stmt.alpha, loc, "alpha")
            if not -1e-12 <= alpha <= 1 + 1e-12:
                raise CircuitError(f"alpha = {alpha} outside [0, 1]", loc)
            if alpha < 1e-12 or alpha > 1 - 1e-12:
                self.flags.append(f"degenerate splitter alpha at {loc}")
        elif isinstance(stmt, (SqueezeStmt, UnsqueezeStmt)):
            if self.real_scalar(stmt.gain, loc, "gain") < -1e-12:
                raise CircuitError("squeezer gain must be nonnegative", loc)
        elif isinstance(stmt, HomodyneStmt):
            # the record keeps its canonical form only for a right-angle pair
            gap = self.scalar(stmt.pphase - stmt.xphase, loc, "homodyne phases")
            right_angle = (
                abs(gap.imag) <= 1e-9
                and math.isfinite(gap.real)
                and abs(math.remainder(gap.real - math.pi / 2, 2 * math.pi)) <= 1e-9
            )
            if not right_angle:
                self.flags.append(f"noncanonical homodyne phases at {loc}")
        elif isinstance(stmt, CombineStmt) and not stmt.terms:
            raise CircuitError("combine needs at least one record", loc)


def evaluate_circuit(ast: CircuitAst, env: ParamEnv | None = None) -> ProtocolOutput:
    """Lower the statement list onto the optical elements.

    Mode expressions stay symbolic in the declared parameters; env (over
    declared defaults) is the binding every element parameter is checked
    under, and is attached to the result for later evaluation; binding an
    undeclared parameter raises ValueError (:func:`merge_env`). The result's
    circuit is an equal copy of ast with a new tape, building in the
    interpreter's run (:meth:`Tape.open`): each coefficient node made
    meanwhile is numbered on it as it is made, or folded; a foreign one (a
    parser literal, a module constant) joins when first read. The checks,
    the output tables and the covariance oracle run on that tape.
    """
    evaluation = _Evaluation(ast, env if env is not None else ParamEnv({}))
    tape, roots = evaluation.ast.tape, []
    outer = tape.open(evaluation.scalar._run)
    try:
        result = evaluation.run()
        roots = [c for expr in result.roots() for pair in expr.terms.values() for c in pair]
        roots += evaluation.coefficients
    finally:
        tape.close(outer, roots)
    result.flags.extend(evaluation.flags)
    return result
