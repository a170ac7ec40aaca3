"""Circuit source language: parsing, validation, serialization, evaluation."""

import math
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from telesim.circuit import (
    ELEMENTS,
    MODE,
    RECORD,
    CircuitAst,
    CircuitError,
    CombineStmt,
    DisplaceStmt,
    ExpectStmt,
    HomodyneStmt,
    Loc,
    ModeDecl,
    OutputStmt,
    PhaseStmt,
    SplitStmt,
    SqueezeStmt,
    Stmt,
    TargetStmt,
    UnsqueezeStmt,
    evaluate_circuit,
    merge_env,
)
from telesim.coeff import Add, Div, Evaluator, Mul, Neg, Num, Param, ParamEnv, Sub, to_complex
from telesim.dsl import (
    ParseError,
    format_coef,
    format_number,
    parse_circuit,
    serialize_circuit,
)
from telesim.opalg import ModeKind, quadrature_variance
from telesim.verify import covariance_oracle

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "src" / "telesim" / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.tls"))

TWO_MODES = "mode vacuum v rail=r bin=0\nmode vacuum w rail=q bin=0\n"

MINIMAL = """param s = 1.0
mode entanglement_seed e1 rail=src bin=0
mode entanglement_seed e2 rail=src bin=0
mode signal j rail=in bin=0
(a0, b0) = squeeze(e1, e2, gain=s, phase=0)
m = homodyne(j, a0, xphase=0, pphase=pi/2)
out = displace(b0, m, gain=1/sqrt(2))
output filtered = out role=transmitted
output record = m
"""


def test_minimal_circuit_parses_and_evaluates():
    po = evaluate_circuit(parse_circuit(MINIMAL))
    assert list(po.all_ports()) == ["filtered"]
    assert list(po.classical) == ["record"]
    assert po.limit_params == []


def test_serialization_reaches_a_fixed_point():
    ast = parse_circuit(MINIMAL)
    text = serialize_circuit(ast)
    again = parse_circuit(text)
    assert again == ast
    assert serialize_circuit(again) == text


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_golden_byte_round_trip(path):
    text = path.read_text()
    assert serialize_circuit(parse_circuit(text)) == text


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_crlf_line_ends_parse_as_lf(path):
    text = path.read_text()
    assert parse_circuit(text.replace("\n", "\r\n")) == parse_circuit(text)


def test_a_carriage_return_inside_a_line_is_a_located_error():
    with pytest.raises(ParseError, match=r"unexpected character '\\r' \(line 2, column 8\)"):
        parse_circuit("param r = 1\r\nparam s\r= 2\r\n")
    # one CR is dropped per line end: the second is still read
    with pytest.raises(ParseError, match=r"unexpected character '\\r' \(line 1, column 12\)"):
        parse_circuit("param r = 1\r\r\n")


def test_infinity_parameter_becomes_limit_param():
    text = "param s = infinity\nmode vacuum v rail=r bin=0\noutput x = v\n"
    po = evaluate_circuit(parse_circuit(text))
    assert po.limit_params == ["s"]
    # stands in at the env's limit scale
    assert po.env.values["s"] == po.env.limit_scale


def test_merge_env_prefers_caller_values():
    ast = parse_circuit(MINIMAL)
    merged, infinite = merge_env(ast, ParamEnv({"s": 2.5}))
    assert merged.values["s"] == 2.5
    assert infinite == []
    # a negative default parses and binds like any other
    merged, _ = merge_env(parse_circuit("param t = -3\n"), ParamEnv({}))
    assert merged.values["t"] == -3.0


def test_a_binding_of_an_undeclared_parameter_is_rejected():
    # the one declared-name check: the interpreter, the oracle and merge_env
    ast = parse_circuit(MINIMAL)
    for bind in (evaluate_circuit, covariance_oracle, merge_env):
        with pytest.raises(ValueError, match=r"^circuit declares no parameter 'q'$"):
            bind(ast, ParamEnv({"s": 1.0, "q": 1.0}))


def test_evaluate_honors_env_override():
    ast = parse_circuit(MINIMAL)
    po = evaluate_circuit(ast, ParamEnv({"s": 0.0}))
    # at zero squeezing the seeds enter with weight exactly 1
    from telesim.opalg import ModeEvaluator

    tab = {m.name: c for m, (c, _) in ModeEvaluator(po.env).floats(po.transmitted["filtered"]).items()}
    assert tab["j"] == pytest.approx(1.0)
    assert tab["e2"] == pytest.approx(1.0)


def test_claimed_emission_bin_is_recorded():
    text = MINIMAL.replace(
        "out = displace(b0, m, gain=1/sqrt(2))",
        "out = displace(b0, m, gain=1/sqrt(2), bin=3)",
    )
    po = evaluate_circuit(parse_circuit(text))
    assert po.port_bins["filtered"].emission_bin == 3


@pytest.mark.parametrize(
    "source, line, column, fragment",
    [
        ("mode vacuum", 1, 12, "expected mode name"),
        ("param = 3", 1, 7, "expected parameter name"),
        ("output x = ", 1, 12, "expected wire name"),
        ("frobnicate q", 1, 12, "expected '='"),
        ("mode vacuum v rail=r bin=zz", 1, 26, "expected integer bin"),
        ("mode local_oscillator v rail=r bin=0", 1, 6, "unknown mode kind"),
        ("mode vacuum v rail=r bin=0\noutput x = nosuch", 2, 12, "undefined wire"),
        (
            "mode vacuum v rail=r bin=0\noutput x = v\noutput x = v",
            3,
            8,
            "already declared",
        ),
        (
            "mode signal a rail=r bin=2\nmode signal b rail=r bin=1",
            2,
            26,
            "nondecreasing order",
        ),
        # target and expect terms name declared modes; expect a quantum output
        (
            TWO_MODES + "(a, b) = split(v, w, alpha=0.5, phi=0)\ntarget = 1*v, 0.5*a",
            4,
            15,
            "'a' is not a declared mode",
        ),
        ("mode vacuum v rail=r bin=0\ntarget = v", 2, 10, "target term must be WEIGHT\\*MODE"),
        ("mode vacuum v rail=r bin=0\ntarget = 1*v^v", 2, 14, "expected keyword 'dag'"),
        ("mode vacuum v rail=r bin=0\nexpect x = 1*v", 2, 8, "no quantum output 'x' declared"),
        (
            TWO_MODES + "m = homodyne(v, w, xphase=0, pphase=pi/2)\noutput rec = m\n"
            "expect rec = 1*v",
            5,
            8,
            "no quantum output 'rec' declared",
        ),
        (
            "mode vacuum v rail=r bin=0\ntarget = 1*v\ntarget = 1*v^dag",
            3,
            1,
            "duplicate target declaration",
        ),
        (
            "mode vacuum v rail=r bin=0\noutput x = v\nexpect x = 1*v\nexpect x = -1*v",
            4,
            8,
            "duplicate expect for 'x'",
        ),
        (TWO_MODES + "(a, b) = split(v, w, alpha=t, phi=0)", 3, 28, "undeclared parameter 't'"),
        ("mode vacuum v rail=r bin=0\ntarget = t*v", 2, 10, "undeclared parameter 't'"),
        # a name nested in a call or a weight; the sorted-first name, at the expression's start
        (
            TWO_MODES + "(a, b) = split(v, w, alpha=z + sqrt(1 - t), phi=0)",
            3,
            28,
            "undeclared parameter 't'",
        ),
        ("mode vacuum v rail=r bin=0\ntarget = (1 - t)*v", 2, 10, "undeclared parameter 't'"),
        ("mode vacuum pi rail=r bin=0", 1, 13, "name 'pi' is reserved"),
        ("mode vacuum v rail=r bin=0\nparam v = 1", 2, 7, "parameter 'v' already defined"),
        (TWO_MODES + "(a, a) = split(v, w, alpha=0.5, phi=0)", 3, 5, "wire 'a' bound twice"),
        ("mode vacuum v rail=r bin=0\noutput x = v role=sideways", 2, 19, "unknown role"),
        ("mode vacuum v rail=r bin=0\noutput x = v bin=1 bin=2", 2, 20, "unexpected clause 'bin'"),
        ("protocol p()\nprotocol q()", 2, 1, "duplicate protocol declaration"),
        ("protocol p(x=i)", 1, 14, "protocol argument must be a real number"),
        # protocol arguments are literals, never expressions or parameters
        ("protocol p(x=pi/2)", 1, 14, "protocol argument must be a real number"),
        ("param x = 1\nprotocol p(a=x)", 2, 14, "protocol argument must be a real number"),
        (TWO_MODES + "a = frobnicate(v)", 3, 5, "unknown element 'frobnicate'"),
        (TWO_MODES + "(a, b) = frobnicate(v, w)", 3, 10, "unknown two-output element"),
        # the element is looked up before its inputs are read
        (TWO_MODES + "(a, b) = frobnicate(nosuch, w)", 3, 10, "unknown two-output element"),
        (TWO_MODES + "c = combine(1*v)", 3, 13, "wire 'v' is not a measurement record"),
        (
            TWO_MODES + "(a, b) = split(v, w, alpha=sqrt, phi=0)",
            3,
            28,
            "function 'sqrt' requires an argument list",
        ),
        (
            TWO_MODES + "(a, b) = split(v, w, alpha=" + "(" * 201 + "0.5" + ")" * 201 + ", phi=0)",
            3,
            128,
            "expression too deeply nested",
        ),
        (
            TWO_MODES + "(a, b) = split(v, w, alpha=" + "-" * 201 + "1, phi=0)",
            3,
            128,
            "expression too deeply nested",
        ),
        ("mode vacuum v rail=r bin=0\ntarget =", 2, 9, "expected expression"),
        (TWO_MODES + "(a, b) = split(v, w, alpha=), phi=0)", 3, 28, "expected expression"),
        ("mode vacuum v rail=r bin=0 extra", 1, 28, "unexpected trailing input"),
        # past Python's integer-string limit of 4,300 digits
        ("mode vacuum v rail=r bin=" + "1" * 4301, 1, 26, "integer bin too long: 4301 digits"),
        (TWO_MODES + "output o = v bin=" + "1" * 4301, 3, 18, "integer bin too long"),
        (
            TWO_MODES + "m = homodyne(v, w, xphase=0, pphase=pi/2)\n"
            "out = displace(v, m, gain=1, bin=" + "9" * 5000 + ")",
            4,
            34,
            "integer bin too long: 5000 digits",
        ),
    ],
)
def test_parse_errors_carry_line_and_column(source, line, column, fragment):
    with pytest.raises(ParseError, match=fragment) as excinfo:
        parse_circuit(source)
    assert excinfo.value.line == line
    assert excinfo.value.column == column


def test_semantic_errors_surface_as_circuit_errors():
    # every element parameter is judged by the interpreter under the binding
    measured = parse_circuit(TWO_MODES + "m = homodyne(v, w, xphase=0, pphase=pi/2)")
    empty_combine = CircuitAst(measured.statements + (CombineStmt(Loc(4, 1), "c", ()),))
    record_target = CircuitAst(
        measured.statements + (TargetStmt(Loc(4, 1), ((Num(1), "m", False),)),)
    )
    stray_expect = CircuitAst(
        measured.statements + (ExpectStmt(Loc(4, 1), "x", ((Num(1), "v", False),)),)
    )
    param_alpha = "param t = 2\n" + TWO_MODES + "(a, b) = split(v, w, alpha=t, phi=0)"
    undefined = TWO_MODES + "(a, b) = split(v, w, alpha=1/0, phi=0)"
    at = Loc(4, 1)

    def wired(*stmts):
        # hand-built wiring the parser would refuse, after v, w and record m
        return CircuitAst(measured.statements + stmts)

    unknown_wire = wired(SplitStmt(at, "a", "b", "nosuch", "w", Num(0.5), Num(0)))
    record_as_mode = wired(SplitStmt(at, "a", "b", "m", "w", Num(0.5), Num(0)))
    mode_as_record = wired(DisplaceStmt(at, "d", "v", "w", Num(1)))
    unknown_output = wired(OutputStmt(at, "x", "nosuch"))
    reassigned = wired(PhaseStmt(at, "v", "w", Num(0)))
    output_twice = wired(OutputStmt(at, "x", "v"), OutputStmt(Loc(5, 1), "x", "w"))
    unknown_role = wired(OutputStmt(at, "x", "v", None, "sideways"))
    unhandled = wired(Stmt(at))
    cases = [
        (undefined, r"cannot evaluate alpha: division by zero \(line 3, column 1\)"),
        (unknown_wire, r"unknown wire 'nosuch' \(line 4, column 1\)"),
        (record_as_mode, r"wire 'm' is a measurement record \(line 4, column 1\)"),
        (mode_as_record, r"wire 'w' is not a measurement record \(line 4, column 1\)"),
        (reassigned, r"wire 'v' assigned twice \(line 4, column 1\)"),
        (unknown_output, r"unknown wire 'nosuch' \(line 4, column 1\)"),
        (output_twice, r"output 'x' declared twice \(line 5, column 1\)"),
        (unknown_role, r"unknown output role 'sideways' \(line 4, column 1\)"),
        (unhandled, r"unhandled statement Stmt \(line 4, column 1\)"),
        (TWO_MODES + "(a, b) = split(v, w, alpha=2, phi=0)", r"alpha = 2.0 outside"),
        (TWO_MODES + "(a, b) = split(v, w, alpha=0-0.25, phi=0)", r"alpha = -0.25 outside"),
        (TWO_MODES + "(a, b) = split(v, w, alpha=0.5+i, phi=0)", "alpha must be real"),
        (TWO_MODES + "(a, b) = squeeze(v, w, gain=0-1, phase=0)", "nonnegative"),
        (TWO_MODES + "(a, b) = unsqueeze(v, w, gain=0-1)", "nonnegative"),
        (param_alpha, r"alpha = 2.0 outside \[0, 1\] \(line 4, column 1\)"),
        (empty_combine, r"combine needs at least one record \(line 4, column 1\)"),
        (record_target, r"'m' is not a declared mode \(line 4, column 1\)"),
        (stray_expect, r"no quantum output 'x' to expect \(line 4, column 1\)"),
        (
            "mode vacuum v rail=r bin=0\noutput x = v\nexpect x = 1e300*v",
            r"expect needs a 'param NAME = infinity' declaration \(line 3, column 1\)",
        ),
        (
            wired(SqueezeStmt(at, "a", "b", "v", "w", Param("q"), Num(0))),
            r"^cannot evaluate gain: unbound parameter 'q' \(line 4, column 1\)$",
        ),
    ]
    for circuit, message in cases:
        ast = parse_circuit(circuit) if isinstance(circuit, str) else circuit
        with pytest.raises(CircuitError, match=message):
            evaluate_circuit(ast)
    # the declared default is out of range, the bound value is not
    evaluate_circuit(parse_circuit(param_alpha), ParamEnv({"t": 0.5}))
    # the float64 oracle walks the same statements with its own wiring checks
    oracle_cases = [
        (parse_circuit(undefined), r"cannot evaluate alpha: division by zero \(line 3"),
        (unknown_wire, r"no quantum wire 'nosuch' \(line 4, column 1\)"),
        (record_as_mode, r"no quantum wire 'm' \(line 4, column 1\)"),
        (mode_as_record, r"no measurement record 'w' \(line 4, column 1\)"),
        (unknown_output, r"unknown wire 'nosuch' \(line 4, column 1\)"),
        (reassigned, r"wire 'v' assigned twice \(line 4, column 1\)"),
        (output_twice, r"output 'x' declared twice \(line 5, column 1\)"),
        (unknown_role, r"unknown output role 'sideways' \(line 4, column 1\)"),
        (unhandled, r"unhandled statement Stmt \(line 4, column 1\)"),
        # circuit.Scalars: the message of the same row of cases, word for word
        (
            wired(SqueezeStmt(at, "a", "b", "v", "w", Param("q"), Num(0))),
            r"^cannot evaluate gain: unbound parameter 'q' \(line 4, column 1\)$",
        ),
    ]
    for circuit, message in oracle_cases:
        with pytest.raises(CircuitError, match=message):
            covariance_oracle(circuit)


def test_homodyne_phases_off_a_right_angle_are_flagged():
    def flags(pphase: str, **binding) -> list[str]:
        text = (
            "param t = 0\n" + TWO_MODES
            + f"m = homodyne(v, w, xphase=0, pphase={pphase})\noutput rec = m\n"
        )
        return evaluate_circuit(parse_circuit(text), ParamEnv(binding)).flags

    flagged = ["noncanonical homodyne phases at line 4, column 1"]
    assert flags("pi/2") == []
    assert flags("0.3") == flagged
    # parameter-dependent phases are judged under the binding
    assert flags("pi/2 + t") == []
    assert flags("pi/2 + t", t=0.3) == flagged


def _every_element_circuit() -> CircuitAst:
    """One statement per ELEMENTS row, plus a displacement with a bin claim.

    Mode inputs are fresh vacuum modes and record inputs the latest record,
    so rows that read records come after the rows that write them; every
    coefficient is 1/2 and every output wire is declared an output.
    """
    modes = [ModeDecl(Loc(0, 0), ModeKind.VACUUM, f"v{k}", f"r{k}", 0) for k in range(20)]
    fresh = iter(mode.name for mode in modes)
    half = Div(Num(1), Num(2))
    records: list[str] = []
    statements: list = []

    def reads_records(row) -> bool:
        stmt_type, element = row
        return stmt_type is CombineStmt or any(kind == RECORD for _, kind in element.inputs)

    for stmt_type, element in sorted(ELEMENTS.items(), key=reads_records):
        fields = {
            name: next(fresh) if kind == MODE else records[-1] for name, kind in element.inputs
        }
        fields.update({key: half for key in element.coefficients})
        fields.update({name: f"{element.keyword}_{name}" for name, _ in element.outputs})
        if stmt_type is CombineStmt:
            fields["terms"] = ((half, records[-1]), (Num(2), records[0]))
        statements.append(stmt_type(Loc(0, 0), **fields))
        records += [fields[name] for name, kind in element.outputs if kind == RECORD]
    claimed = next(s for s in statements if isinstance(s, DisplaceStmt))
    statements.append(replace(claimed, out="claimed", resource=next(fresh), claimed_bin=0))
    wires = [getattr(stmt, name) for stmt in statements for name, _ in ELEMENTS[type(stmt)].outputs]
    outputs = [OutputStmt(Loc(0, 0), f"port_{wire}", wire) for wire in wires]
    return CircuitAst(tuple(modes) + tuple(statements) + tuple(outputs))


def test_every_element_row_round_trips_and_runs_in_both_pipelines():
    ast = _every_element_circuit()
    text = serialize_circuit(ast)
    for element in ELEMENTS.values():
        assert f" = {element.keyword}(" in text
    assert ", bin=0)" in text and "combine(1/2*" in text
    assert parse_circuit(text) == ast
    assert serialize_circuit(parse_circuit(text)) == text
    # a row the float64 oracle has no wiring for fails here as unhandled
    protocol = evaluate_circuit(ast)
    oracle = covariance_oracle(ast)
    assert set(oracle.ports) == set(protocol.all_ports())
    session = protocol.evaluator()
    for name, expr in protocol.all_ports().items():
        for phase in (0.0, math.pi / 2):
            op_side = quadrature_variance(expr, phase, session)
            assert oracle.variance(name, phase) == pytest.approx(op_side, rel=1e-10, abs=1e-10)


# positional construction is public: field order and defaults are pinned
STATEMENT_SHAPES = [
    (SplitStmt, "split", ("out_minus", "out_plus", "in_t", "in_r", "alpha", "phi"), {}),
    (SqueezeStmt, "squeeze", ("out1", "out2", "in1", "in2", "gain", "phase"), {}),
    (UnsqueezeStmt, "unsqueeze", ("out1", "out2", "in1", "in2", "gain"), {}),
    (PhaseStmt, "phase", ("out", "operand", "phi"), {}),
    (HomodyneStmt, "homodyne", ("out", "signal", "resource", "xphase", "pphase"), {}),
    (CombineStmt, "combine", ("out", "terms"), {}),
    (DisplaceStmt, "displace", ("out", "resource", "record", "gain", "claimed_bin"),
     {"claimed_bin": None}),
]


@pytest.mark.parametrize("cls, keyword, names, defaults", STATEMENT_SHAPES)
def test_statement_classes_keep_their_public_shape(cls, keyword, names, defaults):
    assert [f.name for f in fields(cls)] == ["loc", *names]
    assert {f.name: f.default for f in fields(cls) if f.default is not MISSING} == defaults
    assert (cls.__module__, cls.__qualname__) == ("telesim.circuit", cls.__name__)
    assert cls.__doc__ and "\n" not in cls.__doc__
    assert ELEMENTS[cls].keyword == keyword
    values = [f"v{k}" for k in range(len(names))]
    stmt = cls(Loc(1, 1), *values)
    assert [getattr(stmt, name) for name in names] == values
    # loc is never part of structural equality
    assert stmt == cls(Loc(2, 2), *values) and hash(stmt) == hash(cls(Loc(2, 2), *values))
    assert repr(stmt).startswith(f"{cls.__name__}(loc=Loc(line=1, column=1), {names[0]}='v0'")
    with pytest.raises(FrozenInstanceError):
        setattr(stmt, names[-1], "changed")


def test_every_element_has_a_statement_class():
    assert set(ELEMENTS) == {cls for cls, *_ in STATEMENT_SHAPES}


def test_negative_literals_serialize_bare_wherever_they_sit():
    # the parser reads -2.5 as Neg(Num(2.5)); a negative Num comes from folds such as -Num(2.5)
    x, n = Param("x"), Num(-2.5)
    env = ParamEnv({"x": 0.75})
    cases = [
        (Add(n, x), "-2.5 + x"), (Add(x, n), "x + -2.5"),
        (Sub(n, x), "-2.5 - x"), (Sub(x, n), "x - -2.5"),
        (Mul(n, x), "-2.5*x"), (Mul(x, n), "x*-2.5"),
        (Div(n, x), "-2.5/x"), (Div(x, n), "x/-2.5"),
        (Neg(n), "--2.5"),
    ]
    for expr, text in cases:
        assert format_coef(expr) == text
        ast = parse_circuit(f"param x = 0.75\n{TWO_MODES}out = phase(v, phi={text})\n")
        parsed = to_complex(Evaluator(env).eval(ast.statements[-1].phi))
        assert parsed == to_complex(Evaluator(env).eval(expr)), text

    base = parse_circuit(
        TWO_MODES + "m = homodyne(v, w, xphase=0, pphase=pi/2)\nc = combine(1*m)\ntarget = 1*v\n"
    )
    *head, combine, target = base.statements
    ast = CircuitAst((
        *head, replace(combine, terms=((n, "m"),)), replace(target, terms=((n, "v", False),))
    ))
    text = serialize_circuit(ast)
    assert text.endswith("c = combine(-2.5*m)\ntarget = -2.5*v\n")
    *_, combine, target = parse_circuit(text).statements
    for weight in (combine.terms[0][0], target.terms[0][0]):
        assert to_complex(Evaluator(env).eval(weight)) == -2.5


def test_records_are_not_mode_wires():
    text = (
        "mode vacuum v rail=r bin=0\nmode vacuum w rail=q bin=0\n"
        "m = homodyne(v, w, xphase=0, pphase=pi/2)\n"
        "(a, b) = split(m, v, alpha=0.5, phi=0)"
    )
    with pytest.raises(ParseError, match="not a mode wire"):
        parse_circuit(text)
    text = (
        "mode vacuum v rail=r bin=0\nmode vacuum w rail=q bin=0\n"
        "d = displace(v, w, gain=1)"
    )
    with pytest.raises(ParseError, match="not a measurement record"):
        parse_circuit(text)


def test_a_400_digit_literal_reads_as_1e400():
    # a 400-digit integer is past float64, as 1e400 is: both read as inf
    split = TWO_MODES + "(a, b) = split(v, w, alpha={}, phi=0)"
    assert parse_circuit(split.format("1" + "0" * 399)) == parse_circuit(split.format("1e400"))


def test_parsing_runs_no_evaluator(monkeypatch):
    # literals are values when parsed, so no parse needs a coefficient run
    from telesim import coeff
    from telesim.protocols import protocol_text

    texts = [path.read_text() for path in GOLDEN_FILES]
    texts.append(protocol_text("nmode_delayed_telefilter", n=16))
    made = []
    init = coeff.Evaluator.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(coeff.Evaluator, "__init__", counting)
    for text in texts:
        parse_circuit(text)
    assert not made


def test_format_number_round_trips():
    for value in (0.5, -1.0, 3.0, math.pi, 1 / 3, 1e-12, -0.0):
        assert float(format_number(value)) == value


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
@example("output = = =")
@example("param s = ")
@example("(a, b) = split(")
@example("\x00\x01")
@example(TWO_MODES + "(a, b) = split(v, w, alpha=1" + "0" * 399 + ", phi=0)")
def test_fuzzed_text_never_crashes_the_parser(text):
    # arbitrary input must yield a circuit or a located ParseError, nothing else
    try:
        parse_circuit(text)
    except ParseError as err:
        assert err.line >= 1
        assert err.column >= 1


@settings(max_examples=100, deadline=None)
@given(
    index=st.integers(0, 10_000),
    junk=st.text(alphabet="()=,abTAZ09+-*/ \t", max_size=12),
)
def test_fuzzed_golden_mutations_never_crash(index, junk):
    text = GOLDEN_FILES[index % len(GOLDEN_FILES)].read_text()
    lines = text.splitlines()
    cut = index % len(lines)
    mutated = "\n".join(lines[:cut] + [junk] + lines[cut + 1 :])
    try:
        evaluate_circuit(parse_circuit(mutated))
    except (ParseError, CircuitError):
        pass
