"""Per-binding numeric sessions: sharing, exactness, evaluation counts."""

import contextlib
import gc
import io
import math
import operator
import weakref
from collections import Counter
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_rational

from telesim import cli, coeff, opalg, verify
from telesim.circuit import evaluate_circuit
from telesim.coeff import (
    MP,
    Add,
    Call,
    CoefExpr,
    CoefficientError,
    Conj,
    Div,
    Evaluator,
    I,
    ImagUnit,
    Mul,
    Neg,
    Num,
    Param,
    ParamEnv,
    PiConst,
    Sub,
    Tape,
    conj,
)
from telesim.dsl import format_coef, parse_circuit, serialize_circuit
from telesim.opalg import (
    GUARD_BITS,
    ModeEvaluator,
    ModeExpr,
    ModeId,
    dagger,
    quadrature_variance,
    session_for,
)
from telesim.protocols import protocol_text
from telesim.verify import (
    check_bogoliubov,
    covariance_oracle,
    limit_coefficients,
    verify_suite,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "src" / "telesim" / "golden"
GOLDENS = sorted(path.stem for path in GOLDEN_DIR.glob("*.tls"))


def _golden(name: str):
    return evaluate_circuit(parse_circuit((GOLDEN_DIR / f"{name}.tls").read_text()))


def test_bind_returns_one_session_per_binding():
    protocol = _golden("delayed_telemirror")
    root = protocol.evaluator()
    assert protocol.evaluator() is root
    assert root.bind() is root
    doubled = {p: 2 * protocol.env.limit_scale for p in protocol.limit_params}
    high = root.bind(**doubled)
    assert high is not root
    assert root.bind(**doubled) is high
    # siblings reach each other, whichever session binds
    assert high.bind(**{p: protocol.env.limit_scale for p in protocol.limit_params}) is root
    assert high.env.limit_scale == protocol.env.limit_scale


def test_reassigned_env_gets_a_new_session():
    protocol = _golden("delayed_telefilter")
    root = protocol.evaluator()
    protocol.env = protocol.env.bind(r=1.5)
    assert protocol.evaluator() is not root
    assert protocol.evaluator().env is protocol.env


def test_session_tables_equal_fresh_evaluation():
    for path in sorted(GOLDEN_DIR.glob("*.tls")):
        protocol = _golden(path.stem)
        doubled = {p: 2 * protocol.env.limit_scale for p in protocol.limit_params}
        for session in (protocol.evaluator(), protocol.evaluator().bind(**doubled)):
            fresh = ModeEvaluator(session.env)
            exprs = list(protocol.all_ports().values())
            exprs += list(protocol.classical.values())
            for expr in exprs:
                assert session.table(expr) == fresh.table(expr), path.stem


# ---------------------------------------------------------------------------
# [A, B^dagger] from tables

IDS = [ModeId(name, "r", time_bin) for name, time_bin in (("a", 0), ("b", 0), ("c", 1))]
LEAVES = st.one_of(
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False).map(Num),
    st.sampled_from([Param("x"), Param("y"), I, PiConst()]),
)
COEFS = st.recursive(
    LEAVES,
    lambda kids: st.one_of(
        kids.map(Neg),
        kids.map(Conj),
        kids.map(conj),
        st.tuples(kids, kids).map(lambda pair: Add(*pair)),
        st.tuples(kids, kids).map(lambda pair: Mul(*pair)),
        kids.map(lambda arg: Call("sqrt", arg)),
    ),
    max_leaves=6,
)
MODE_EXPRS = st.dictionaries(
    st.sampled_from(IDS), st.tuples(COEFS, COEFS), max_size=3
).map(ModeExpr)


@settings(max_examples=150, deadline=None)
@given(left=MODE_EXPRS, right=MODE_EXPRS)
def test_cross_commutator_is_exactly_the_dagger_commutator(left, right):
    ev = ModeEvaluator(ParamEnv({"x": 0.7, "y": -1.3}))
    got = ev.cross_commutator(left, right)
    want = ev.commutator(left, dagger(right))
    # exact: same mpc value, not merely close
    assert (got.real, got.imag) == (want.real, want.imag)
    assert got.real._mpf_ == want.real._mpf_ and got.imag._mpf_ == want.imag._mpf_


# the kernels against exact rational sums of the same table entries

GRID = MP.prec + GUARD_BITS  # P: the kernels hold entries at 2^-P


def _frac(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    value = man * Fraction(2) ** exp
    return -value if sign else value


def _cfrac(z) -> tuple[Fraction, Fraction]:
    return _frac(z.real), _frac(z.imag)


def _cmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _cadd(x, y, sign=1):
    return x[0] + sign * y[0], x[1] + sign * y[1]


def _conj(x):
    return x[0], -x[1]


def _norm1(x) -> Fraction:
    return abs(x[0]) + abs(x[1])


def _on_grid(*values) -> bool:
    return all((part * 2**GRID).denominator == 1 for value in values for part in value)


def _assert_rounds(got, exact: Fraction, on_grid: bool, bound: Fraction):
    """got is exact rounded once when every entry lies on the grid, and
    within bound of it, plus that rounding, otherwise."""
    if on_grid:
        want = from_rational(exact.numerator, exact.denominator, MP.prec, "n")
        assert got._mpf_ == want
    else:
        assert abs(_frac(got) - exact) <= bound + (abs(exact) + bound) / 2**MP.prec


def _assert_commutator_exact(got, pairs, cross: bool):
    """pairs: ((c, d), (e, f)) exact entries of each mode in both tables."""
    total, size, entries = (Fraction(0), Fraction(0)), Fraction(0), []
    for (c, d), (e, f) in pairs:
        if cross:
            e, f = _conj(e), _conj(f)
            term = _cadd(_cmul(c, e), _cmul(d, f), -1)
        else:
            term = _cadd(_cmul(c, f), _cmul(d, e), -1)
        total = _cadd(total, term)
        size += _norm1(c) + _norm1(d) + _norm1(e) + _norm1(f)
        entries += [c, d, e, f]
    for part, exact in zip((got.real, got.imag), total):
        _assert_rounds(part, exact, _on_grid(*entries), size / 2**GRID)


def _assert_variance_exact(got, table, phase):
    w = _cfrac(MP.exp(MP.mpc(0, -phase)))
    total = bound = Fraction(0)
    for c, d in table:
        amp = _cadd(_cmul(w, c), _conj(_cmul(w, d)))
        total += amp[0] ** 2 + amp[1] ** 2
        delta = (2 * _norm1(w) + _norm1(c) + _norm1(d)) / 2**GRID
        bound += 2 * delta * (_norm1(amp) + delta)
    entries = [w] + [part for entry in table for part in entry]
    _assert_rounds(got, total, _on_grid(*entries), bound)


@settings(max_examples=150, deadline=None)
@given(
    left=MODE_EXPRS,
    right=MODE_EXPRS,
    shift=st.sampled_from([0, 80]),
    poisoned=st.booleans(),
)
def test_integer_kernels_round_the_exact_sum_once(left, right, shift, poisoned):
    # a shift of 80 bits pushes low mantissa bits below the grid; ln(0) is -inf
    left = ModeExpr({m: (Mul(Num(2.0**-shift), c), d) for m, (c, d) in left.terms.items()})
    if poisoned:
        left = ModeExpr({**left.terms, IDS[1]: (Call("ln", Num(0)), Num(1))})
    ev = ModeEvaluator(ParamEnv({"x": 0.7, "y": -1.3}))
    lt, rt = ev.table(left), ev.table(right)
    finite = {
        id(table): all(MP.isfinite(z) for entry in table.values() for z in entry)
        for table in (lt, rt)
    }
    got = (ev.commutator(left, right), ev.cross_commutator(left, right))
    if not (finite[id(lt)] and finite[id(rt)]):
        for value in got:
            assert MP.isnan(value.real) and MP.isnan(value.imag)
    else:
        pairs = [
            (tuple(map(_cfrac, lt[m])), tuple(map(_cfrac, rt[m]))) for m in lt if m in rt
        ]
        _assert_commutator_exact(got[0], pairs, cross=False)
        _assert_commutator_exact(got[1], pairs, cross=True)
    for expr, table in ((left, lt), (right, rt)):
        for phase in (0.0, math.pi / 2, 0.3):
            variance = ev.variance(expr, phase)
            if not finite[id(table)]:
                assert MP.isnan(variance)
            else:
                exact = [tuple(map(_cfrac, entry)) for entry in table.values()]
                _assert_variance_exact(variance, exact, phase)


def test_a_coefficient_beyond_the_kernels_range_raises_overflow():
    # e^50000 is about 2^72135: its fixed-point integer would grow with the exponent
    ev = ModeEvaluator(ParamEnv({}))
    huge = ModeExpr({IDS[0]: (Call("exp", Num(50000)), Num(0))})
    with pytest.raises(OverflowError, match="the exact sums. range"):
        ev.variance(huge, 0.0)


# scalar evaluation against plain mpmath object arithmetic

# exactly real, exactly imaginary and zero operands come up often
SCALARS = st.one_of(
    st.sampled_from([0, 1, -2.5, 0.5j, -3j, 1.5 - 0.25j]),
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
)
_OBJECT_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
# "leaf" is exp or ln of a fresh Num; exp takes leaves only: exp of exp of a
# product can pass mpmath's exponent range and raise OverflowError
_KINDS = st.sampled_from([Num, "leaf", "ln(0)", Call, Neg, Conj, *_OBJECT_OPS])


@st.composite
def coefficient_dags(draw) -> list:
    """The nodes of a random DAG, each after its operands.

    Operands are drawn from the nodes so far, so subtrees are shared, and
    fresh Nums, exp and ln leaves and quotients repeat values. ln(0) is -inf,
    so products with it test where real operands may skip mpc_mul.
    """
    nodes = [Param("x"), Param("y"), I, PiConst(), Call("ln", Num(0))]

    def pick():
        return nodes[draw(st.integers(0, 63)) % len(nodes)]

    for _ in range(draw(st.integers(1, 14))):
        kind = draw(_KINDS)
        if kind is Num:
            node = Num(draw(SCALARS))
        elif kind == "leaf":
            node = Call(draw(st.sampled_from(["exp", "ln"])), Num(draw(SCALARS)))
        elif kind == "ln(0)":
            node = Call("ln", Num(0))
        elif kind is Call:
            node = Call(draw(st.sampled_from(["sqrt", "ln"])), pick())
        elif kind in (Neg, Conj):
            node = kind(pick())
        else:
            node = kind(pick(), pick())
        nodes.append(node)
    return nodes


def _object_value(expr: CoefExpr, env: dict, done: dict):
    """The reference value of expr: plain MP.mpc object arithmetic, node by node."""
    if id(expr) not in done:
        cls = type(expr)
        if cls is Num:
            value = MP.mpc(expr.value)
        elif cls is Param:
            value = MP.mpc(env[expr.name])
        elif cls is PiConst:
            value = MP.mpc(MP.pi)
        elif cls is ImagUnit:
            value = MP.mpc(0, 1)
        elif cls is Neg:
            value = -_object_value(expr.operand, env, done)
        elif cls is Conj:
            value = MP.conj(_object_value(expr.operand, env, done))
        elif cls is Call:
            value = MP.mpc(getattr(MP, expr.func)(_object_value(expr.arg, env, done)))
        else:
            left = _object_value(expr.left, env, done)
            right = _object_value(expr.right, env, done)
            if cls is Div and right == 0:
                raise CoefficientError("division by zero")
            value = _OBJECT_OPS[cls](left, right)
        done[id(expr)] = value
    return done[id(expr)]


@settings(max_examples=200, deadline=None)
@given(nodes=coefficient_dags())
def test_raw_evaluation_is_bit_identical_to_object_arithmetic(nodes):
    env = {"x": 0.7, "y": -1.3}
    ev, done = Evaluator(ParamEnv(env)), {}
    for node in nodes:
        try:
            want = _object_value(node, env, done)
        except CoefficientError:
            with pytest.raises(CoefficientError, match="division by zero"):
                ev.eval(node)
            continue
        assert _same_mpc(ev.eval(node), want)


# ---------------------------------------------------------------------------
# evaluation counts


def _nodes(roots) -> list:
    """Distinct coefficient nodes reachable from roots, walked iteratively."""
    seen: dict[int, CoefExpr] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        for f in fields(node):
            value = getattr(node, f.name)
            if isinstance(value, CoefExpr):
                stack.append(value)
    return list(seen.values())


def _unique_nodes(roots) -> int:
    return len(_nodes(roots))


def _dependent_and_leaf_nodes(roots) -> set[int]:
    """Ids of the nodes a Param is reachable from, and of every leaf constant."""
    dependent, leaves = _param_reached_and_leaf_nodes(roots)
    return dependent | leaves


def _param_reached_and_leaf_nodes(roots) -> tuple[set[int], set[int]]:
    """Ids of the nodes a Param is reachable from; ids of the leaf constants."""
    dependent: set[int] = set()
    leaves: set[int] = set()
    done: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        kids = [getattr(node, f.name) for f in fields(node)]
        kids = [kid for kid in kids if isinstance(kid, CoefExpr)]
        pending = [kid for kid in kids if id(kid) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        done.add(id(node))
        if isinstance(node, Param) or any(id(kid) in dependent for kid in kids):
            dependent.add(id(node))
        elif not kids:
            leaves.add(id(node))
    return dependent, leaves


def _coefficients(expr: ModeExpr):
    return [coef for pair in expr.terms.values() for coef in pair]


def _count_evaluations(monkeypatch, counting=lambda: True) -> Counter:
    """Counts (binding, node) pairs reaching Evaluator._eval while counting()."""
    counts: Counter = Counter()
    kept = []  # holds every counted node so no id is recycled
    plain = Evaluator._eval

    def counting_eval(self, i):
        if counting():
            node = self.tape.nodes[i]
            counts[tuple(sorted(self.env.values.items())), id(node)] += 1
            kept.append(node)
        return plain(self, i)

    monkeypatch.setattr(Evaluator, "_eval", counting_eval)
    return counts


def test_verify_evaluates_each_node_once_per_binding(tmp_path, monkeypatch):
    """Every (binding, DAG node) pair reaches Evaluator._eval at most once.

    The root binding evaluates at most every node; a derived binding only
    the nodes that depend on a parameter, and leaf constants. Loading evaluates statement scalars on its own, and the covariance
    oracle deliberately shares nothing with the sessions, so neither counts.
    """
    path = tmp_path / "nbin8.tls"
    path.write_text(protocol_text("nmode_delayed_telefilter", n=8))

    loaded = []
    load = cli._load_protocol

    def recording_load(*args):
        protocol = load(*args)
        loaded.append(protocol)
        return protocol

    in_oracle = []
    oracle = verify.covariance_oracle

    def fenced_oracle(*args):
        in_oracle.append(True)
        try:
            return oracle(*args)
        finally:
            in_oracle.pop()

    monkeypatch.setattr(cli, "_load_protocol", recording_load)
    monkeypatch.setattr(verify, "covariance_oracle", fenced_oracle)
    counts = _count_evaluations(monkeypatch, lambda: loaded and not in_oracle)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", str(path), "--format", "machine"]) == 0

    (protocol,) = loaded
    roots = []
    for expr in [*protocol.all_ports().values(), *protocol.classical.values()]:
        roots += _coefficients(expr)
    for expr in [protocol.target, *(protocol.expected_limit or {}).values()]:
        if expr is not None:
            roots += _coefficients(expr)
    bindings = {binding for binding, _ in counts}
    # root (also the selectivity limit), twice the scale, the probe point
    assert len(bindings) == 3
    assert max(counts.values()) == 1
    root = tuple(sorted(protocol.env.values.items()))
    at_root = [node for binding, node in counts if binding == root]
    assert len(at_root) <= _unique_nodes(roots)
    # a derived binding takes every binding-invariant value stored on the tape
    allowed = _dependent_and_leaf_nodes(roots)
    for binding, node in counts:
        assert binding == root or node in allowed, binding


def test_verify_converts_each_table_once_per_session(monkeypatch):
    """The kernels convert a (session, table) pair to fixed point at most
    once, however many pairs and phases read it."""
    protocol = evaluate_circuit(parse_circuit(protocol_text("nmode_delayed_telefilter", n=16)))
    converted = []  # the tables themselves, so no id is reused
    convert = opalg._fixed_table

    def counting(table, bits):
        converted.append(table)
        return convert(table, bits)

    monkeypatch.setattr(opalg, "_fixed_table", counting)
    suite = verify_suite(protocol)
    assert suite.all_passed
    # each session caches its tables, so a table stands for (session, expression)
    assert len(converted) > len(protocol.quantum_ports())
    assert max(Counter(map(id, converted)).values()) == 1


# ---------------------------------------------------------------------------
# bare ParamEnv bindings


def test_audit_under_one_bare_env_evaluates_each_node_once_per_binding(monkeypatch):
    """Library calls that keep passing one bare env share its session.

    Only the circuit's first binding evaluates parameter-free nodes: every
    later binding, under this env or a new one, reads their values off the
    circuit's tape and evaluates exactly the nodes a Param reaches.
    """
    protocol = _golden("delayed_telemirror")
    roots = []
    for expr in protocol.all_ports().values():
        roots += _coefficients(expr)
    dependent, _ = _param_reached_and_leaf_nodes(roots)
    counts = _count_evaluations(monkeypatch)
    first = None
    for r, s in ((1.3, 0.9), (0.4, 2.1), (1.7, 0.2)):
        env = protocol.env.bind(r=r, s=s)
        counts.clear()
        check_bogoliubov(protocol.quantum_ports(), env)
        for expr in protocol.all_ports().values():
            for phase in (0.0, math.pi / 2):
                quadrature_variance(expr, phase, env)
        for expr in protocol.quantum_ports().values():
            limit_coefficients(expr, protocol.limit_params, env)

        bindings = {binding for binding, _ in counts}
        # the env itself, the limit scale and twice the limit scale
        assert len(bindings) == 3
        assert max(counts.values()) == 1
        assert sum(counts.values()) <= len(bindings) * _unique_nodes(roots)
        here = tuple(sorted(env.values.items()))
        first = first or here
        for binding, node in counts:
            assert binding == first or node in dependent, binding
        if here != first:
            assert {node for binding, node in counts if binding == here} == dependent


def test_each_distinct_constant_and_function_argument_is_evaluated_once(monkeypatch):
    # the splitters of an n-bin circuit each build their own cis(phi), sqrt(alpha)
    # and Num nodes; the 16-bin root binding has 5 distinct exp arguments
    protocol = evaluate_circuit(parse_circuit(protocol_text("nmode_delayed_telefilter", n=16)))
    args: dict[str, list] = {"exp": [], "sqrt": [], "Num": []}
    for name in ("exp", "sqrt"):

        def counted(x, _plain=coeff._FUNCTIONS[name], _args=args[name]):
            _args.append(x._mpc_)
            return _plain(x)

        monkeypatch.setitem(coeff._FUNCTIONS, name, counted)

    class CountingContext:
        """coeff's MP, recording each complex it converts: a Num's value."""

        def __getattr__(self, name):
            return getattr(MP, name)

        def mpc(self, *values):
            if values and type(values[0]) is complex:
                args["Num"].append(values[0])
            return MP.mpc(*values)

    monkeypatch.setattr(coeff, "MP", CountingContext())
    protocol.evaluator()
    for name, seen in args.items():
        assert seen and len(seen) == len(set(seen)), name
    assert len(args["exp"]) == 5


def test_equal_values_with_another_limit_scale_are_another_binding():
    protocol = _golden("delayed_telemirror")
    values = dict(protocol.env.bind(r=1.2, s=0.7).values)
    low, high = ParamEnv(values, 20.0), ParamEnv(values, 30.0)
    params = protocol.limit_params
    for name, expr in protocol.quantum_ports().items():
        got_low = limit_coefficients(expr, params, low)
        got_high = limit_coefficients(expr, params, high)
        assert (got_low.scale, got_high.scale) == (20.0, 30.0)
        assert got_low == limit_coefficients(expr, params, ModeEvaluator(low)), name
        assert got_high == limit_coefficients(expr, params, ModeEvaluator(high)), name


def _same_mpc(got, want) -> bool:
    return got.real._mpf_ == want.real._mpf_ and got.imag._mpf_ == want.imag._mpf_


def test_interleaved_bare_envs_match_fresh_sessions_exactly():
    protocol = _golden("delayed_telemirror")
    first = protocol.env.bind(r=1.1, s=0.6)
    second = protocol.env.bind(r=1.7, s=0.3)
    for env in (first, second, first):
        session = session_for(env)
        assert session.env is env
        assert session_for(env) is session
        fresh = ModeEvaluator(env)
        for name, expr in protocol.all_ports().items():
            got, want = session.table(expr), fresh.table(expr)
            assert got.keys() == want.keys(), name
            for mode, (c, d) in got.items():
                assert _same_mpc(c, want[mode][0]) and _same_mpc(d, want[mode][1]), name
            for phase in (0.0, math.pi / 2):
                assert quadrature_variance(expr, phase, env) == float(
                    fresh.variance(expr, phase)
                ), name


def test_bare_env_session_is_released_once_another_env_is_used():
    protocol = _golden("delayed_telemirror")
    first = protocol.env.bind(r=1.1)
    second = protocol.env.bind(r=1.7)
    ports = protocol.quantum_ports()
    # limit_coefficients binds siblings, so the session sits in a cycle
    for expr in ports.values():
        limit_coefficients(expr, protocol.limit_params, first)
    session = weakref.ref(session_for(first))
    gc.collect()
    assert session() is not None
    check_bogoliubov(ports, second)
    gc.collect()
    assert session() is None


# ---------------------------------------------------------------------------
# binding-invariant values stored on the tape


def _named_exprs(protocol) -> dict:
    named = {f"port {name}": expr for name, expr in protocol.all_ports().items()}
    named.update({f"record {name}": expr for name, expr in protocol.classical.items()})
    named.update({f"expect {n}": e for n, e in (protocol.expected_limit or {}).items()})
    if protocol.target is not None:
        named["target"] = protocol.target
    return named


def _assert_same_tables(session, fresh, protocol, copy) -> None:
    want_exprs = _named_exprs(copy)
    for name, expr in _named_exprs(protocol).items():
        got, want = session.table(expr), fresh.table(want_exprs[name])
        assert got.keys() == want.keys(), name
        for mode, (c, d) in got.items():
            assert _same_mpc(c, want[mode][0]) and _same_mpc(d, want[mode][1]), name


def _assert_oracle_agrees(protocol, env, variance) -> None:
    record = covariance_oracle(protocol.circuit, env)
    for name, expr in protocol.all_ports().items():
        for phase in (0.0, math.pi / 2):
            op_side, cov_side = variance(expr, phase), record.variance(name, phase)
            scale = max(1.0, abs(op_side), abs(cov_side))
            assert abs(op_side - cov_side) / scale <= 1e-10, (name, phase)


@pytest.mark.parametrize("name", GOLDENS)
def test_a_later_binding_is_bit_identical_to_a_fresh_copy(name):
    """Values stored under binding A leave binding B exactly as a copy of the
    circuit evaluated only under B, in family sessions and bare envs alike."""
    family, bare, copy = _golden(name), _golden(name), _golden(name)
    params = sorted(copy.limit_params)
    a = dict(zip(params, (1.3, 0.8)))
    b = dict(zip(params, (0.45, 2.05)))
    copy.env = copy.env.bind(**b)
    fresh = copy.evaluator()

    session = family.evaluator().bind(**a).bind(**b)
    _assert_same_tables(session, fresh, family, copy)
    _assert_oracle_agrees(family, session.env, lambda e, p: float(session.variance(e, p)))

    env_a, env_b = bare.env.bind(**a), bare.env.bind(**b)
    for env in (env_a, env_b):
        _assert_oracle_agrees(bare, env, lambda e, p: quadrature_variance(e, p, env))
    _assert_same_tables(session_for(env_b), fresh, bare, copy)


def test_each_evaluation_has_a_tape_of_its_own():
    # a tape shared by every evaluation of one AST would grow with each of them
    ast = parse_circuit((GOLDEN_DIR / "delayed_telemirror.tls").read_text())
    first, second = evaluate_circuit(ast), evaluate_circuit(ast)
    assert first.circuit == second.circuit == ast
    tape = first.circuit.tape
    assert tape is not second.circuit.tape and not ast.tape.nodes
    assert tape.nodes  # the interpreter's checks ran on it
    first.evaluator()
    size = len(tape.nodes)
    second.evaluator()
    assert len(tape.nodes) == size
    assert all(expr.tape is tape for expr in first.all_ports().values())


def _coefs_in(value, found: list) -> list:
    """Every CoefExpr held by a circuit AST, through its statements' fields."""
    if isinstance(value, CoefExpr):
        found.append(value)
    elif is_dataclass(value):
        for f in fields(value):
            _coefs_in(getattr(value, f.name), found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _coefs_in(item, found)
    return found


def _all_nodes(protocol) -> list:
    roots = _coefs_in(protocol.circuit, [])
    for expr in _named_exprs(protocol).values():
        roots += _coefficients(expr)
    return _nodes(roots)


def _appearance(nodes) -> list:
    seen = []
    for node in nodes:
        try:
            text = format_coef(node)
        except ValueError as exc:
            text = repr(exc)
        seen.append((repr(node), hash(node), [f.name for f in fields(node)], text))
    return seen


def test_stored_values_are_invisible():
    protocol, copy = _golden("delayed_telemirror"), _golden("delayed_telemirror")
    nodes = _all_nodes(protocol)
    before = _appearance(nodes)

    assert verify_suite(protocol).all_passed
    assert _appearance(nodes) == before
    assert nodes == _all_nodes(copy)
    text = serialize_circuit(protocol.circuit)
    assert serialize_circuit(parse_circuit(text)) == text == serialize_circuit(copy.circuit)
    for node in nodes:
        assert set(vars(node)) == {f.name for f in fields(node)}, node
    # the invariant values live on the circuit's tape, and none depends on a Param
    tape = protocol.circuit.tape
    stored = tape.stored[MP.prec]
    assert stored and not [i for i in stored if tape.dependent[i]]
    dependent, _ = _param_reached_and_leaf_nodes(nodes)
    assert not [i for i in stored if id(tape.nodes[i]) in dependent]


def _snapshot(tape: Tape) -> dict:
    return {prec: dict(values) for prec, values in tape.stored.items() if values}


def test_a_failed_evaluation_stores_no_value():
    def build():
        # numerator: a constant phase times x, plus 2; denominator y - 1
        phase = Call("exp", Mul(ImagUnit(), Num(0.3)))
        top = Add(Mul(phase, Param("x")), Num(2))
        return Div(top, Sub(Param("y"), Num(1)))

    expr, tape = build(), Tape()
    failing = (({"x": 0.5}, "unbound parameter 'y'"), ({"x": 0.5, "y": 1.0}, "division by zero"))
    good = ParamEnv({"x": 0.5, "y": 3.0})
    for _ in range(2):  # before any value is stored, then after
        for env, message in failing:
            before = _snapshot(tape)
            with pytest.raises(CoefficientError, match=message):
                Evaluator(ParamEnv(env), tape).eval(expr)
            assert _snapshot(tape) == before
        assert _same_mpc(Evaluator(good, tape).eval(expr), Evaluator(good).eval(build()))
        assert _snapshot(tape)[MP.prec]


@pytest.mark.parametrize("name", GOLDENS)
def test_a_240_digit_run_after_a_160_digit_run_is_a_fresh_240_digit_run(name):
    """Invariants stored at 160 digits never reach a run at 240 digits."""
    protocol, copy = _golden(name), _golden(name)
    at_160 = protocol.evaluator()
    with MP.workdps(240):
        later, fresh = ModeEvaluator(protocol.env), ModeEvaluator(copy.env)
        want_exprs = copy.all_ports()
        differs = False
        for port, expr in protocol.all_ports().items():
            got, want = later.table(expr), fresh.table(want_exprs[port])
            assert got.keys() == want.keys(), port
            for mode, (c, d) in got.items():
                assert _same_mpc(c, want[mode][0]) and _same_mpc(d, want[mode][1]), port
                low = at_160.table(expr)[mode]
                differs |= not (_same_mpc(c, low[0]) and _same_mpc(d, low[1]))
    assert differs
    # one set of invariants per precision
    assert len(protocol.circuit.tape.stored) == 2
