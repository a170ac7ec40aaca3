"""Per-binding numeric sessions: sharing, exactness, evaluation counts."""

import cmath
import contextlib
import gc
import io
import math
import operator
import random
import types
import weakref
from collections import Counter
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import finf, fnan, fninf, from_float, from_man_exp, from_rational, fzero, mpc_cosh
from mpmath.libmp import mpc_is_infnan, mpc_mul, mpc_mul_mpf, mpc_sinh, mpc_sub, mpc_to_complex, to_float

from telesim import cli, coeff, opalg, verify
from telesim.circuit import CircuitError, evaluate_circuit
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
    Mul,
    Neg,
    Num,
    Param,
    ParamEnv,
    PiConst,
    Sub,
    Tape,
    conj,
    cosh,
    sinh,
    to_complex,
)
from telesim.dsl import format_coef, parse_circuit, serialize_circuit
from telesim.opalg import (
    GUARD_BITS,
    ModeEvaluator,
    ModeExpr,
    ModeId,
    dagger,
    lin_comb,
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
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
FIXTURES = sorted(path.stem for path in FIXTURE_DIR.glob("*.tls"))


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
    assert high.bind(**doubled) is high
    # a session binds downwards only: nothing refers back up the tree
    back = high.bind(**{p: protocol.env.limit_scale for p in protocol.limit_params})
    assert back is not root and back.env.values == root.env.values
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
    # exact: the same raw parts, not merely close
    assert ev.commutators(left, right)[2:] == ev.commutators(left, dagger(right))[:2]


# the kernels against exact rational sums of the same table entries

GRID = MP.prec + GUARD_BITS  # P: the kernels hold entries at 2^-P


def _frac(x: tuple) -> Fraction:
    sign, man, exp, _ = x
    value = man * Fraction(2) ** exp
    return -value if sign else value


def _cfrac(z: tuple) -> tuple[Fraction, Fraction]:
    return _frac(z[0]), _frac(z[1])


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


def _two_step(value: Fraction) -> float:
    """value rounded to MP.prec bits, then to a double."""
    return to_float(from_rational(value.numerator, value.denominator, MP.prec, "n"), False, "n")


def _assert_rounds(got: float, exact: Fraction, on_grid: bool, bound: Fraction):
    """The double got is the two-step rounding of exact when every entry
    lies on the grid, and otherwise of a sum within bound of it: as both
    roundings are monotone, between those of exact - bound and exact + bound."""
    assert type(got) is float
    if on_grid:
        assert got.hex() == _two_step(exact).hex()
    else:
        assert _two_step(exact - bound) <= got <= _two_step(exact + bound)


def _assert_commutator_exact(got: tuple, pairs, cross: bool):
    """got: the doubles (re, im); pairs: ((c, d), (e, f)) exact entries of
    each mode in both tables."""
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
    for part, exact in zip(got, total):
        _assert_rounds(part, exact, _on_grid(*entries), size / 2**GRID)


def _assert_variance_exact(got, table, phase):
    w = _cfrac(MP.exp(MP.mpc(0, -phase))._mpc_)
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
        id(table): not any(mpc_is_infnan(z) for entry in table.values() for z in entry)
        for table in (lt, rt)
    }
    got = ev.commutators(left, right)
    if not (finite[id(lt)] and finite[id(rt)]):
        assert all(math.isnan(part) for part in got)
    else:
        pairs = [
            (tuple(map(_cfrac, lt[m])), tuple(map(_cfrac, rt[m]))) for m in lt if m in rt
        ]
        _assert_commutator_exact(got[:2], pairs, cross=False)
        _assert_commutator_exact(got[2:], pairs, cross=True)
    for expr, table in ((left, lt), (right, rt)):
        for phase in (0.0, math.pi / 2, 0.3):
            variance = ev.variance(expr, phase)
            if not finite[id(table)]:
                assert math.isnan(variance)
            else:
                exact = [tuple(map(_cfrac, entry)) for entry in table.values()]
                _assert_variance_exact(variance, exact, phase)


def test_a_coefficient_beyond_the_kernels_range_raises_overflow():
    # e^50000 is about 2^72135: its fixed-point integer would grow with the exponent
    ev = ModeEvaluator(ParamEnv({}))
    huge = ModeExpr({IDS[0]: (Call("exp", Num(50000)), Num(0))})
    for phase in (0.0, math.nan):  # the table is converted before the phase is read
        with pytest.raises(OverflowError, match="the exact sums. range"):
            ev.variance(huge, phase)
    # an inf or nan part of an entry wins over a part too large for the sums
    mixed = ModeExpr({IDS[0]: (Call("exp", Num(50000)), Call("ln", Num(0)))})
    assert math.isnan(ev.variance(mixed, 0.0))


def _reference_variance(session: ModeEvaluator, expr: ModeExpr, phase: float) -> tuple:
    """The raw mpf of the per-entry kernel: each entry's |a|^2 summed in turn."""
    bits, table = session._bits, []
    for c, d in session.table(expr).values():
        parts = c + d
        if any(not man and exp for _, man, exp, _ in parts):
            return fnan
        table.append(tuple(opalg._to_fixed(part, bits) for part in parts))
    if not math.isfinite(phase):
        return fnan
    wr, wi = opalg._phase_factor(phase, session._prec)
    total = 0
    for cr, ci, dr, di in table:
        re = wr * (cr + dr) - wi * (ci + di)
        im = wr * (ci - di) + wi * (cr - dr)
        total += re * re + im * im
    return from_man_exp(total, -4 * bits, session._prec, session._rnd)


def _source(name: str, n: int | None = None) -> str:
    if n is not None:
        return protocol_text(name, n=n)
    folder = GOLDEN_DIR if name in GOLDENS else FIXTURE_DIR
    return (folder / f"{name}.tls").read_text()


# infinite_gain's tables hold inf and nan
@pytest.mark.parametrize(
    "name,n", [(name, None) for name in [*GOLDENS, "infinite_gain"]] + [("nmode_delayed_telefilter", 8)]
)
def test_the_variance_is_bit_identical_to_the_per_entry_sum(name, n):
    protocol = evaluate_circuit(parse_circuit(_source(name, n)))
    root = protocol.evaluator()
    derived = root.bind(**dict(zip(sorted(protocol.limit_params), (1.3, 0.8))))
    assert (derived is root) == (name == "infinite_gain")
    for session in (root, derived):
        for expr in protocol.all_ports().values():
            for phase in (0.0, math.pi / 2, 0.3, -2.5, 1e3, math.nan):
                want = to_float(_reference_variance(session, expr, phase), False, session._rnd)
                assert session.variance(expr, phase).hex() == want.hex(), (name, phase)


def _commutators(session: ModeEvaluator, left: ModeExpr, right: ModeExpr) -> tuple[complex, complex]:
    """[left, right] and [left, right^dagger] from the session's doubles."""
    re, im, cross_re, cross_im = session.commutators(left, right)
    return complex(re, im), complex(cross_re, cross_im)


def _reference_bogoliubov(outputs, session: ModeEvaluator, tol: float) -> tuple:
    """(max_deviation, failures) rebuilt from commutators() as doubles."""
    items, worst, failures = list(outputs.items()), 0.0, []
    for i, (name_i, expr_i) in enumerate(items):
        for name_j, expr_j in items[i:]:
            plain, cross = _commutators(session, expr_i, expr_j)
            expected = 1.0 if name_i == name_j else 0.0
            checks = (("commutator", plain), ("cross-commutator", cross - expected))
            for check, value in checks:
                deviation = math.nan if cmath.isnan(value) else abs(value)
                if math.isnan(deviation) or (not math.isnan(worst) and deviation > worst):
                    worst = deviation
                if not deviation <= tol:
                    failures.append((name_i, name_j, check, deviation))
    return worst, failures


def _assert_bogoliubov_matches(outputs, session: ModeEvaluator, tol: float = 1e-10):
    report = check_bogoliubov(outputs, session, tol=tol)
    worst, failures = _reference_bogoliubov(outputs, session, tol)
    assert report.max_deviation.hex() == worst.hex()
    assert len(report.failures) == len(failures)
    for got, want in zip(report.failures, failures):
        assert got[:3] == want[:3] and got[3].hex() == want[3].hex()
    return report


@pytest.mark.parametrize("name", GOLDENS)
def test_the_bogoliubov_floats_equal_the_commutators_values(name):
    protocol = _golden(name)
    root = protocol.evaluator()
    assert _assert_bogoliubov_matches(protocol.quantum_ports(), root).passed
    rng = random.Random(f"bogoliubov:{name}")
    for _ in range(4):  # the sweep workload's draws: U(0.1, 2.2) per limit parameter
        session = root.bind(**{p: rng.uniform(0.1, 2.2) for p in sorted(protocol.limit_params)})
        assert _assert_bogoliubov_matches(protocol.quantum_ports(), session).passed


def test_the_bogoliubov_floats_keep_their_failures():
    cloning = evaluate_circuit(parse_circuit(_source("cloning")))
    report = _assert_bogoliubov_matches(cloning.quantum_ports(), cloning.evaluator())
    assert not report.passed and report.max_deviation == 0.5
    poisoned = evaluate_circuit(parse_circuit(_source("infinite_gain")))
    report = _assert_bogoliubov_matches(poisoned.quantum_ports(), poisoned.evaluator())
    assert math.isnan(report.max_deviation) and report.failures


# scalar evaluation against plain mpmath object arithmetic

# exactly real, exactly imaginary and zero operands come up often
SCALARS = st.one_of(
    st.sampled_from([0, 1, -2.5, 0.5j, -3j, 1.5 - 0.25j]),
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
)
_OBJECT_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
# "leaf" is exp or ln of a fresh Num; exp takes leaves only: exp of exp of a
# product can pass mpmath's exponent range and raise OverflowError
_KINDS = st.sampled_from([Num, "leaf", "ln(0)", Call, Neg, Conj, "imaginary", "again", *_OBJECT_OPS])
# pure imaginary values: finite, infinite (i ln 0 is nan - i inf) and nan
_IMAGINARY = [I, Num(0.5j), Num(-3j), Mul(I, PiConst()), Mul(I, Param("x")),
              Num(complex(0, math.inf)), Num(complex(0, -math.inf)), Num(complex(0, math.nan))]


def _same_value(draw, node):
    """A node of node's value but another structure."""
    return draw(st.sampled_from([Neg(Neg(node)), Conj(Conj(node)), Add(node, Num(0))]))


@st.composite
def coefficient_dags(draw) -> list:
    """The nodes of a random DAG, each after its operands.

    Operands are drawn from the nodes so far, so subtrees are shared, and
    fresh Nums, exp and ln leaves and quotients repeat values. ln(0) is -inf,
    so products with it test where real operands may skip mpc_mul; pure
    imaginary operands meet finite, infinite and nan partners; "again" is an
    earlier product's operand values through another structure.
    """
    nodes = [Param("x"), Param("y"), I, PiConst(), Call("ln", Num(0))]

    def pick():
        return nodes[draw(st.integers(0, 63)) % len(nodes)]

    for _ in range(draw(st.integers(1, 14))):
        kind = draw(_KINDS)
        products = [node for node in nodes if type(node) is Mul]
        if kind == "again":
            earlier = draw(st.sampled_from(products)) if products else Mul(pick(), pick())
            left, right = earlier.left, earlier.right
            node = Mul(*draw(st.sampled_from([(_same_value(draw, left), right),
                                              (left, _same_value(draw, right)), (right, left)])))
        elif kind == "imaginary":
            partner = pick() if draw(st.booleans()) else Num(draw(SCALARS))
            node = Mul(*draw(st.permutations([draw(st.sampled_from(_IMAGINARY)), partner])))
        elif kind is Num:
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
        assert ev.eval(node) == want._mpc_


# ---------------------------------------------------------------------------
# evaluation counts


# zero, inf, nan, and mantissas too long for an exact product at either precision
_PARTS = st.one_of(
    st.sampled_from([fzero, finf, fninf, fnan]),
    st.builds(lambda man, exp, neg: from_man_exp(-man if neg else man, exp),
              st.integers(1 << 300, 1 << 320), st.integers(-200, 200), st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(_PARTS, min_size=4, max_size=4), prec=st.sampled_from([53, 532]),
       rnd=st.sampled_from(["n", "f", "c", "d", "u"]))
def test_the_product_kernel_is_mpc_mul_under_every_rounding(parts, prec, rnd):
    """coeff._mul takes shortcuts through zero parts of finite operands:
    each part it gives is mpc_mul's, bit for bit, in every rounding mode."""
    xr, xi, yr, yi = parts
    for x, y in (((xr, xi), (yr, yi)), ((xr, fzero), (fzero, yi)), ((fzero, xi), (yr, yi)),
                 ((xr, xi), (fzero, yi))):
        assert coeff._mul(x, y, prec, rnd) == mpc_mul(x, y, prec, rnd), (x, y)


def _doubles(seed: int, count: int) -> list[float]:
    """count seeded doubles of both signs from subnormal to 2^1023, and
    zero, the smallest subnormal and normal, 1, past 2^10, inf and nan."""
    rng = random.Random(seed)
    drawn = [math.ldexp(rng.random(), rng.randint(-1074, 1023)) for _ in range(count)]
    drawn += [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 1.5, 2000.0, math.inf, math.nan]
    return drawn + [-x for x in drawn]


def test_a_real_operand_pairs_cosh_and_sinh_as_the_complex_kernels(monkeypatch):
    """cosh and sinh of one real operand come from one mpf_cosh_sinh per
    run, equal to mpc_cosh's and mpc_sinh's values bit for bit: on doubles
    of every kind and on reals of the run's full precision."""
    calls, plain = [], coeff.mpf_cosh_sinh
    monkeypatch.setattr(coeff, "mpf_cosh_sinh", lambda x, prec, rnd: calls.append(x) or plain(x, prec, rnd))
    x = Param("x")
    third = Mul(x, Num(1 / 3))  # a real with a mantissa of the run's precision
    nodes = [sinh(third), cosh(third), cosh(x), sinh(x)]  # each pair in both orders
    for value in _doubles(62, 120):
        run, calls[:] = Evaluator(ParamEnv({"x": value})), []
        for node, got in zip(nodes, run.eval_all(nodes)):
            arg = run.eval(node.arg)
            assert got == (mpc_cosh if node.func == "cosh" else mpc_sinh)(arg, run._prec, run._rnd), value
        assert len(calls) == sum(run.eval(arg)[1] == fzero for arg in (third, x))  # inf/3 is inf + nan i


def test_a_product_of_two_finite_reals_is_mpc_mul_mpf():
    """coeff._mul of two finite reals is mpc_mul_mpf's, and mpc_mul's, bit
    for bit, its imaginary part fzero; of a real and an inf or nan it is mpc_mul's."""
    rng = random.Random(63)
    reals = [from_float(x) for x in _doubles(63, 200)]
    reals += [from_man_exp(rng.getrandbits(600) | 1, rng.randint(-900, 900)) for _ in range(200)]
    for (x, y), (prec, rnd) in zip(zip(reals, reversed(reals)), [(MP.prec, "n"), (53, "f"), (200, "u")] * 300):
        want = mpc_mul((x, fzero), (y, fzero), prec, rnd)
        assert coeff._mul((x, fzero), (y, fzero), prec, rnd) == want, (x, y)
        if not mpc_is_infnan((x, y)):  # both finite
            assert mpc_mul_mpf((x, fzero), y, prec, rnd) == want and want[1] == fzero


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


def _structural_classes(roots) -> dict[int, int]:
    """Class of each node reachable from roots, by id: two nodes share a class
    when their types, leaf fields and operands' classes are equal."""
    classes: dict[int, int] = {}
    labels: dict[tuple, int] = {}
    stack = list(roots)
    while stack:
        node = stack[-1]
        if id(node) in classes:
            stack.pop()
            continue
        values = [getattr(node, f.name) for f in fields(node)]
        pending = [v for v in values if isinstance(v, CoefExpr) and id(v) not in classes]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        label = (type(node), *(classes[id(v)] if isinstance(v, CoefExpr) else v for v in values))
        classes[id(node)] = labels.setdefault(label, len(labels))
    return classes


def _coefficients(expr: ModeExpr):
    return [coef for pair in expr.terms.values() for coef in pair]


def _count_evaluations(monkeypatch, counting=lambda: True) -> Counter:
    """Counts (binding, node) pairs in the passes Evaluator._eval runs while counting()."""
    counts: Counter = Counter()
    kept = []  # holds every counted node so no id is recycled
    plain = Evaluator._eval

    def counting_eval(self, order):
        if counting():
            binding = tuple(sorted(self.env.values.items()))
            for i in order:
                node = self.tape.nodes[i]
                counts[binding, id(node)] += 1
                kept.append(node)
        return plain(self, order)

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
    for expr in [protocol.target, *protocol.expected_limit.values()]:
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


def _refers_to(start, target) -> bool:
    """Whether target is reachable from start through gc.get_referents,
    other than through a module, a class or a function."""
    seen, stack = {id(start)}, [start]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if ref is target:
                return True
            if id(ref) not in seen and not isinstance(ref, (types.ModuleType, type, types.FunctionType)):
                seen.add(id(ref))
                stack.append(ref)
    return False


def test_verify_converts_each_table_once_per_session(monkeypatch):
    """The kernels convert a (session, table) pair to fixed point at most
    once, however many pairs and phases read it. Each entry is converted to
    fixed point and to complex at most once in the whole tree of sessions:
    a bound session converts only the entries a parameter reaches, and
    takes the rest from the root session's, to which it holds no reference."""
    protocol = evaluate_circuit(parse_circuit(protocol_text("nmode_delayed_telefilter", n=16)))
    converted = []  # the tables themselves, so no id is reused
    entries = {"fixed": [], "complex": []}  # the entries, likewise kept alive
    convert, to_floats = opalg._fixed_table, opalg._float_table

    def counting(table, bits):
        converted.append(table)
        entries["fixed"].extend(table.values())
        return convert(table, bits)

    def counting_complex(table, rnd):
        entries["complex"].extend(table.values())
        return to_floats(table, rnd)

    monkeypatch.setattr(opalg, "_fixed_table", counting)
    monkeypatch.setattr(opalg, "_float_table", counting_complex)
    suite = verify_suite(protocol)
    assert suite.all_passed
    # each session caches its tables, so a table stands for (session, expression)
    assert len(converted) > len(protocol.quantum_ports())
    assert max(Counter(map(id, converted)).values()) == 1

    root = protocol.evaluator()
    bound = list(root._derived.values())  # twice the limit scale, and the probe point
    assert len(bound) == 2
    dependent, _ = _param_reached_and_leaf_nodes(
        [coef for expr in protocol.roots() for coef in _coefficients(expr)])
    at_root, reached = set(), set()
    for expr in protocol.roots():
        at_root.update(map(id, root.table(expr).values()))
        for session in bound:
            for mode, pair in session.table(expr).items():
                c, d = expr.terms[mode]
                if id(c) in dependent or id(d) in dependent:
                    reached.add(id(pair))
                else:  # shared with the root session, not made again
                    assert pair is root.table(expr)[mode]
    assert reached and not reached & at_root
    for kind, seen in entries.items():
        assert max(Counter(map(id, seen)).values()) == 1, kind
        made_bound = {id(pair) for pair in seen} - at_root
        assert made_bound and made_bound <= reached, kind
    for session in bound:
        assert _refers_to(root, session) and not _refers_to(session, root)


def test_the_raw_zero_test_agrees_with_mpc_ne_zero():
    """The causality scan's test of raw parts against (fzero, fzero) is
    ``mpc != 0``: exact zeros only are zero; a residue, a value below float
    range, inf and nan are dependencies."""
    protocol = _golden("delayed_telefilter")
    session = protocol.evaluator()
    ln0 = Call("ln", Num(0))
    cases = {
        "zero": ((Num(0), Num(-0.0)), False),
        "signed zero, cancellation": ((Num(complex(-0.0, -0.0)), Sub(Param("s"), Param("s"))), False),
        "below float range": ((Mul(Num(1e-200), Num(1e-200)), Num(0)), True),
        "inf": ((Num(0), ln0), True),
        "nan": ((Sub(ln0, ln0), Num(0)), True),
    }
    for case, (pair, nonzero) in cases.items():
        expr = ModeExpr({IDS[2]: pair})
        c, d = session.table(expr)[IDS[2]]
        assert (MP.make_mpc(c) != 0 or MP.make_mpc(d) != 0) == nonzero, case
        want = frozenset({(IDS[2], 1)} if nonzero else ())
        assert verify._dependency_scan(expr, session) == want, case
    assert session.floats(ModeExpr({IDS[2]: cases["below float range"][0]}))[IDS[2]][0] == 0
    # the build folds delayed_telefilter's invariant residues of 5e-324 (its j1,
    # j2 and v0 entries); orthogonal keeps u0 and two entries a parameter
    # reaches, residues near 5.8e-154
    orthogonal = protocol.all_ports()["orthogonal"]
    assert sorted(mode.name for mode in session.table(orthogonal)) == ["e1", "e2", "u0"]
    parts = [abs(MP.make_mpc(z)) for pair in session.table(orthogonal).values() for z in pair]
    assert any(0 < part < 1e-150 for part in parts)
    for expr in [*protocol.all_ports().values(), *protocol.classical.values()]:
        want = {(m, m.time_bin) for m, (c, d) in session.table(expr).items()
                if MP.make_mpc(c) != 0 or MP.make_mpc(d) != 0}
        assert verify._dependency_scan(expr, session) == want


@pytest.mark.parametrize("scale", [20.0, 60.0, 100.0])
def test_the_declared_limit_gap_is_complex_of_the_mpc_differences(scale):
    """Raw differences at the session's precision, converted once, give the
    bits of ``complex(have - want)`` on mpc values, and of every mode's raw
    mpc_sub, though a mode only the port's table holds reads its float view:
    on every golden with ``expect`` forms and nan_limit_tap, at the CLI's
    default scale, 60 and 100 (where precision runs out and the mirrors'
    gaps are huge)."""
    checked, zeros = {}, ((fzero, fzero),) * 2
    for name in [*GOLDENS, "nan_limit_tap"]:
        protocol = evaluate_circuit(parse_circuit(_source(name)), ParamEnv({}, scale))
        if not protocol.expected_limit:
            continue
        high = {p: 2 * scale for p in protocol.limit_params}
        session, ports, gaps, raw_gaps = protocol.evaluator().bind(**high), protocol.all_ports(), [], []
        for port, want in protocol.expected_limit.items():
            have, target = session.table(ports[port]), session.table(want)
            for mode in have.keys() | target.keys():
                for h, t in zip(have.get(mode, zeros), target.get(mode, zeros)):
                    gaps.append(verify._magnitude(complex(MP.make_mpc(h) - MP.make_mpc(t))))
                    raw = mpc_sub(h, t, session._prec, session._rnd)
                    raw_gaps.append(verify._magnitude(mpc_to_complex(raw, False, session._rnd)))
        gap = checked[name] = verify._declared_limit_gap(protocol)
        assert gap.hex() == verify._worst(gaps).hex() == verify._worst(raw_gaps).hex(), name
    # 2L = 40 makes nan_limit_tap's phase ln(0): a nan gap
    assert len(checked) > 3 and math.isnan(checked["nan_limit_tap"]) == (scale == 20.0)


def _hex_pair(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _sweep_bindings(protocol, seed: str, count: int = 3) -> list[dict]:
    """Draws of the sweep workload's range, U(0.1, 2.2), for each limit parameter."""
    rng = random.Random(seed)
    return [{p: rng.uniform(0.1, 2.2) for p in sorted(protocol.limit_params)} for _ in range(count)]


@pytest.mark.parametrize(
    "name,n", [(name, None) for name in [*GOLDENS, *FIXTURES]] + [("nmode_delayed_telefilter", 8)]
)
def test_the_float_view_is_complex_of_each_entry(name, n):
    """Each part's float.hex equals complex()'s (infinite_gain's tables hold
    inf and nan). A rounding mode passed in mpc_to_complex's second slot,
    strict, would round with round_fast instead."""
    protocol = evaluate_circuit(parse_circuit(_source(name, n)))
    root = protocol.evaluator()
    sessions = [root] + [root.bind(**draw) for draw in _sweep_bindings(protocol, f"floats:{name}")]
    for session in sessions:
        for expr in protocol.roots():
            table, view = session.table(expr), session.floats(expr)
            assert list(view) == list(table), name
            for mode, pair in table.items():
                want = [_hex_pair(complex(MP.make_mpc(z))) for z in pair]
                assert [_hex_pair(z) for z in view[mode]] == want, (name, mode)


@pytest.mark.parametrize("name", ["delayed_telemirror", "infinite_gain"])
def test_values_stay_raw_from_tape_to_kernel(name, monkeypatch):
    """A session's table entries are the raw tuples Evaluator.eval returns
    for their coefficients, floats() is mpc_to_complex of each at the
    session's rounding, and check_bogoliubov reads the four doubles of the
    public commutators() (infinite_gain's tables hold inf and nan)."""
    protocol = evaluate_circuit(parse_circuit(_source(name)))
    session = protocol.evaluator()
    run = Evaluator(protocol.env, protocol.circuit.tape)
    for expr in protocol.roots():
        table, view = session.table(expr), session.floats(expr)
        assert list(table) == list(expr.terms)
        for mode, (c, d) in expr.terms.items():
            assert table[mode] == (run.eval(c), run.eval(d)), mode
            assert [type(z) for z in table[mode]] == [tuple, tuple], mode
            want = [_hex_pair(mpc_to_complex(z, False, session._rnd)) for z in table[mode]]
            assert list(map(_hex_pair, view[mode])) == want, mode
    given, plain = [], ModeEvaluator.commutators

    def recording(self, left, right):
        given.append(plain(self, left, right))
        return given[-1]

    monkeypatch.setattr(ModeEvaluator, "commutators", recording)
    report = check_bogoliubov(protocol.quantum_ports(), session)
    monkeypatch.undo()
    ports = list(protocol.quantum_ports().values())
    pairs = [(left, right) for i, left in enumerate(ports) for right in ports[i:]]
    hexes = [tuple(map(float.hex, parts)) for parts in given]
    assert hexes == [tuple(map(float.hex, session.commutators(left, right))) for left, right in pairs]
    assert all(len(parts) == 4 and all(type(part) is float for part in parts) for parts in given)
    worst, failures = _reference_bogoliubov(protocol.quantum_ports(), session, report.tol)
    assert report.max_deviation.hex() == worst.hex() and len(report.failures) == len(failures)


def _assert_same_session(got: ModeEvaluator, want: ModeEvaluator, exprs) -> None:
    """Tables (raw), fixed tables, variance sums and float views (float.hex) equal."""
    for expr in exprs:
        table, fresh = got.table(expr), want.table(expr)
        assert list(table) == list(fresh)
        for mode, pair in table.items():
            assert pair == fresh[mode], mode
            view, fresh_view = got.floats(expr)[mode], want.floats(expr)[mode]
            assert list(map(_hex_pair, view)) == list(map(_hex_pair, fresh_view)), mode
        fixed, fresh_fixed = got._fixed(expr), want._fixed(expr)
        assert fixed == fresh_fixed and (fixed is None or list(fixed) == list(fresh_fixed))
        assert got._sums(expr) == want._sums(expr)


@pytest.mark.parametrize(
    "name,n,t", [(name, None, None) for name in GOLDENS] + [("nmode_delayed_telefilter", k, None) for k in (8, 16)]
    + [("infinite_gain", None, t) for t in (0.0, 1.0)]
)
def test_a_bound_session_matches_a_fresh_session(name, n, t):
    """A bound session that takes its invariant entries from the root
    session's tables, fixed tables and float views matches a session that
    evaluates and converts every entry itself: the first bound session makes
    the root's forms, the second reads them, and a session bound from a bound
    session shares the root's too. A non-root expression is tabled in full.
    infinite_gain, made at t = 0 or 1 and bound to the other, holds inf and
    nan in the root's fixed table or in the bound session's."""
    env = None if t is None else ParamEnv({"t": t})
    protocol = evaluate_circuit(parse_circuit(_source(name, n)), env)
    root = protocol.evaluator()
    first, second, third = _sweep_bindings(protocol, f"bound:{name}:{n}") if t is None else [{"t": 1 - t}] * 3
    ports = list(protocol.all_ports().values())
    extra = lin_comb([(0.5, ports[0]), (0.25j, dagger(ports[-1]))])
    dependent, _ = _param_reached_and_leaf_nodes(
        [coef for expr in protocol.roots() for coef in _coefficients(expr)])
    shared_outright = 0
    for session in (root.bind(**first), root.bind(**second), root.bind(**first).bind(**third)):
        assert session is not root
        _assert_same_session(session, ModeEvaluator(session.env), [*protocol.roots(), extra])
        for expr in protocol.roots():
            table = session.table(expr)
            reached = {m for m, (c, d) in expr.terms.items() if {id(c), id(d)} & dependent}
            for mode, pair in table.items():
                assert (pair is root.table(expr)[mode]) == (mode not in reached), mode
            if not reached:  # the root's forms themselves
                shared_outright += 1
                assert table is root.table(expr) and session.floats(expr) is root.floats(expr)
                assert session._fixed(expr) is root._fixed(expr)
    assert shared_outright or name == "infinite_gain"  # t reaches every entry there


@pytest.mark.parametrize(
    "name,n", [(name, None) for name in [*GOLDENS, *FIXTURES]] + [("nmode_delayed_telefilter", 8)]
)
def test_the_top_session_records_each_roots_reached_modes(name, n):
    """Once protocol.evaluator() returns, before any bind(), the top session
    holds the reached modes of every root: those whose c or d a Param reaches."""
    protocol = evaluate_circuit(parse_circuit(_source(name, n)))
    root = protocol.evaluator()
    assert not root._derived
    dependent, _ = _param_reached_and_leaf_nodes(
        [coef for expr in protocol.roots() for coef in _coefficients(expr)])
    assert set(root._reached) == set(protocol.roots())
    for expr in protocol.roots():
        reached = [m for m, (c, d) in expr.terms.items() if {id(c), id(d)} & dependent]
        assert root._reached[expr] == reached


def test_a_bound_session_converts_its_own_table_when_the_root_overflows():
    """At r = 40 the root's entries pass 2^65536, past the exact sums' range:
    its variances raise. A session bound to r = 0.01 cannot take the root's
    fixed forms then, so it converts its own table, as a fresh session does."""
    source = """param r = 40
mode signal a rail=in bin=0
mode vacuum b rail=b bin=0
(x, y) = squeeze(a, b, gain=2000*r, phase=0)
output out = x
output other = y
"""
    protocol = evaluate_circuit(parse_circuit(source))
    root = protocol.evaluator()
    ports = list(protocol.all_ports().values())
    for expr in ports:
        with pytest.raises(OverflowError, match="the exact sums' range"):
            root.variance(expr, 0.3)
    bound = root.bind(r=0.01)
    fresh = ModeEvaluator(bound.env)
    _assert_same_session(bound, fresh, ports)
    for expr in ports:
        assert bound.variance(expr, 0.3).hex() == fresh.variance(expr, 0.3).hex()
        assert bound.variance(expr, 0.3) == pytest.approx(1.177e17, rel=1e-3)


# ---------------------------------------------------------------------------
# bare ParamEnv bindings


def test_audit_under_one_bare_env_evaluates_each_node_once_per_binding(monkeypatch):
    """Library calls that keep passing one bare env share its session.

    Only the circuit's first binding evaluates parameter-free nodes: every
    later binding, under this env or a new one, reads their values off the
    circuit's tape and evaluates one node of each structure a Param reaches.
    """
    protocol = _golden("delayed_telemirror")
    roots = []
    for expr in protocol.all_ports().values():
        roots += _coefficients(expr)
    dependent, _ = _param_reached_and_leaf_nodes(roots)
    classes = _structural_classes(roots)
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
            # one node per structural class: equal structure shares one instruction
            evaluated = [classes[node] for binding, node in counts if binding == here]
            assert sorted(evaluated) == sorted({classes[node] for node in dependent})


def _runs_counted(monkeypatch, counted):
    """Calls counted(run, order) after each pass Evaluator._eval runs, and
    returns the list whose last item is the run of the pass under way, and
    the list of the runs Tape.open is given: each a build's run."""
    current, builds, plain, plain_open = [], [], Evaluator._eval, Tape.open

    def counting_eval(self, order):
        current.append(self)
        try:
            plain(self, order)
        finally:
            current.pop()
        counted(self, order)

    monkeypatch.setattr(Evaluator, "_eval", counting_eval)
    monkeypatch.setattr(Tape, "open", lambda tape, run: builds.append(run) or plain_open(tape, run))
    return current, builds


def test_each_distinct_constant_is_converted_once(monkeypatch):
    # the splitters of an n-bin circuit each build their own cis(phi) and Num
    # nodes; interned, each distinct Num is one instruction, converted once
    # per run, and each run calls exp once per exp instruction it computes:
    # the build's run computes them, so the root session's computes none
    runs, exps, constants, exp_calls = [], Counter(), Counter(), Counter()

    def counted(run, order):
        runs.append(run)
        exps[run] += sum(type(run.tape.nodes[i]) is Call and run.tape.nodes[i].func == "exp" for i in order)

    current, builds = _runs_counted(monkeypatch, counted)

    def counting_exp(x, prec, rnd, _plain=coeff._FUNCTIONS["exp"]):
        exp_calls[current[-1]] += 1
        return _plain(x, prec, rnd)

    monkeypatch.setitem(coeff._FUNCTIONS, "exp", counting_exp)

    class CountingContext:
        """coeff's MP, recording each complex it converts: a Num's value."""

        def __getattr__(self, name):
            return getattr(MP, name)

        def mpc(self, *values):
            if values and type(values[0]) is complex:
                constants[values[0], current[-1]] += 1
            return MP.mpc(*values)

    monkeypatch.setattr(coeff, "MP", CountingContext())
    protocol = evaluate_circuit(parse_circuit(protocol_text("nmode_delayed_telefilter", n=16)))
    (build,) = builds
    built = dict(constants)
    protocol.evaluator()
    root = runs[-1]
    assert constants == built and max(constants.values()) == 1
    assert {value for value, run in constants if run is build} > {1 + 0j, 16 + 0j}
    assert exp_calls == exps and exps[build] > 1 and not exps[root]


def test_an_invariant_product_is_computed_once_per_distinct_operand_pair(monkeypatch):
    """The 16-bin build's run passes Evaluator._eval each node it computes
    once, and runs the product kernels once per distinct operand pair of its
    binding-invariant products: 2,152 times for 3,247 products. The builder's
    splitter ratios meet again as values: 7/8 * 6/7 rounds to 3/4, and exp(i 0)
    is 1. The root session's run computes only dependent instructions, 1,028,
    each once, with one kernel call per dependent product, 685."""
    evaluated: dict = {}  # run -> Counter of the nodes it computed, held in kept
    invariant_pairs, products, kept = {}, {}, []

    def counted(run, order):
        nodes, count = run.tape.nodes, evaluated.setdefault(run, Counter())
        for i in order:  # operand values read after the pass
            count[id(nodes[i])] += 1
            kept.append(nodes[i])
            if type(nodes[i]) is Mul:
                _, a, b = run.tape.ops[i]
                products[run] = products.get(run, 0) + 1
                if not run.tape.dependent[i]:
                    invariant_pairs.setdefault(run, set()).add((run._vals[a], run._vals[b]))

    (current, builds), kernel_calls = _runs_counted(monkeypatch, counted), Counter()

    def counting_mul(x, y, prec, rnd, _plain=coeff._mul):
        kernel_calls[current[-1]] += 1
        return _plain(x, y, prec, rnd)

    monkeypatch.setattr(coeff, "_mul", counting_mul)
    protocol = evaluate_circuit(parse_circuit(protocol_text("nmode_delayed_telefilter", n=16)))
    (build,) = builds
    protocol.evaluator()
    root = list(evaluated)[-1]
    tape = protocol.circuit.tape
    assert max(evaluated[build].values()) == 1 == max(evaluated[root].values())
    assert products[build] == 3_247 and kernel_calls[build] == len(invariant_pairs[build]) == 2_152
    assert len(evaluated[root]) == sum(tape.dependent) == 1_028 and root not in invariant_pairs
    assert products[root] == kernel_calls[root] == 685


@pytest.mark.parametrize("name,n", [(name, None) for name in GOLDENS] + [("nmode_delayed_telefilter", 8)])
def test_a_load_makes_one_run_that_computes_each_instruction_once(monkeypatch, name, n):
    # the interpreter's statement scalars and the build's invariant values
    # come from one run, so no instruction is computed twice (counted by
    # node, held in kept: a folded sum's number is taken by the next node)
    made, computed, kept, plain_init = [], Counter(), [], Evaluator.__init__

    def counted(run, order):
        kept.extend(run.tape.nodes[i] for i in order)
        computed.update(id(run.tape.nodes[i]) for i in order)

    def counting_init(run, *args, **kwargs):
        made.append(run)
        plain_init(run, *args, **kwargs)

    monkeypatch.setattr(Evaluator, "__init__", counting_init)
    _, builds = _runs_counted(monkeypatch, counted)
    evaluate_circuit(parse_circuit(_source(name, n)))
    assert made == builds and len(made) == 1
    assert computed and max(computed.values()) == 1


def test_the_oracle_computes_no_invariant_instruction(monkeypatch):
    """A build stores each element statement's invariant scalars, so over a
    verify of each golden the covariance oracle's runs compute only what a
    parameter reaches."""
    in_oracle, plain_oracle, computed = [], verify.covariance_oracle, Counter()

    def fenced_oracle(*args):
        in_oracle.append(True)
        try:
            return plain_oracle(*args)
        finally:
            in_oracle.pop()

    def counted(run, order):
        if in_oracle:
            computed.update(bool(run.tape.dependent[i]) for i in order)

    monkeypatch.setattr(verify, "covariance_oracle", fenced_oracle)
    _runs_counted(monkeypatch, counted)
    for name in GOLDENS:
        verify_suite(_golden(name))
    assert computed[True] and not computed[False]


@pytest.mark.parametrize("name", ["delayed_telemirror", "nmode_delayed_telefilter"])
def test_the_build_stores_what_dependent_instructions_read_only_at_its_precision(monkeypatch, name):
    """After a verify at 160 digits, the store at 160 digits holds every
    invariant operand of a dependent instruction, so passes at that
    precision look for none among the instructions numbered by the build;
    at 240 digits the first session's passes store them, and a second
    session computes no invariant instruction."""
    protocol = _golden(name)
    verify_suite(protocol)
    tape = protocol.circuit.tape
    stored = tape.stored[MP.prec]
    for i, (_, a, b) in enumerate(tape.ops):
        if tape.dependent[i]:
            assert all(k < 0 or tape.dependent[k] or k in stored for k in (a, b)), i
    computed = Counter()
    _runs_counted(monkeypatch, lambda run, order: computed.update(bool(run.tape.dependent[i]) for i in order))
    with MP.workdps(240):
        ModeEvaluator(protocol.env, protocol.roots())
        assert computed[False]
        computed.clear()
        ModeEvaluator(protocol.env, protocol.roots())
    assert computed[True] and not computed[False]


def test_the_tape_holds_one_instruction_per_structural_class():
    # the splitters of an n-bin circuit each build their own cis(phi), sqrt(alpha)
    # and Num nodes; the tape keeps one instruction for each distinct structure
    # the roots reach (the others it holds were operands of folded sums)
    protocol = evaluate_circuit(parse_circuit(protocol_text("nmode_delayed_telefilter", n=16)))
    protocol.evaluator()
    nodes = _nodes([coef for expr in protocol.roots() for coef in _coefficients(expr)])
    classes = _structural_classes(nodes)
    tape = protocol.circuit.tape
    assert len(nodes) > len(set(classes.values()))
    reached = _reached_instructions(protocol)
    assert sorted(classes[id(tape.nodes[i])] for i in reached) == sorted(set(classes.values()))
    for node in nodes:
        assert classes[id(tape.nodes[tape.index[id(node)]])] == classes[id(node)], node


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
            assert session.table(expr) == fresh.table(expr), name
            for phase in (0.0, math.pi / 2):
                assert quadrature_variance(expr, phase, env) == float(
                    fresh.variance(expr, phase)
                ), name


@contextlib.contextmanager
def _cyclic_gc_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_bare_env_session_is_released_once_another_env_is_used():
    protocol = _golden("delayed_telemirror")
    first = protocol.env.bind(r=1.1)
    second = protocol.env.bind(r=1.7)
    ports = protocol.quantum_ports()
    with _cyclic_gc_off():
        for expr in ports.values():
            limit_coefficients(expr, protocol.limit_params, first)
        session = weakref.ref(session_for(first))
        assert session() is not None
        check_bogoliubov(ports, second)
        assert session() is None


def _telesim_objects() -> int:
    return sum(type(o).__module__.startswith("telesim.") for o in gc.get_objects())


def test_verify_frees_its_sessions_and_tape_without_the_cyclic_gc(tmp_path, monkeypatch):
    path = tmp_path / "nbin8.tls"
    path.write_text(protocol_text("nmode_delayed_telefilter", n=8))
    refs = []
    load = cli._load_protocol

    def recording_load(*args):
        protocol = load(*args)
        refs.extend([weakref.ref(protocol.evaluator()), weakref.ref(protocol.circuit.tape)])
        return protocol

    monkeypatch.setattr(cli, "_load_protocol", recording_load)
    with _cyclic_gc_off(), contextlib.redirect_stdout(io.StringIO()):
        gc.collect()
        before = _telesim_objects()
        assert cli.main(["verify", str(path), "--format", "machine"]) == 0
        assert [ref() for ref in refs] == [None, None]
        # nothing is left behind, in cycles or otherwise
        assert _telesim_objects() == before


@pytest.mark.parametrize("command", ["run", "limits"])
def test_run_and_limits_free_their_sessions_and_tape_without_the_cyclic_gc(
    tmp_path, monkeypatch, command
):
    """The CLI pauses the cyclic GC for every command, so no command may leave cycles."""
    path = tmp_path / "nbin8.tls"
    path.write_text(protocol_text("nmode_delayed_telefilter", n=8))
    refs = []
    load = cli._load_protocol

    def recording_load(*args):
        protocol = load(*args)
        refs.extend([weakref.ref(protocol.evaluator()), weakref.ref(protocol.circuit.tape)])
        return protocol

    monkeypatch.setattr(cli, "_load_protocol", recording_load)
    with _cyclic_gc_off(), contextlib.redirect_stdout(io.StringIO()):
        gc.collect()
        before = _telesim_objects()
        assert cli.main([command, str(path), "--format", "machine"]) == 0
        assert [ref() for ref in refs] == [None, None]
        assert _telesim_objects() == before


# ---------------------------------------------------------------------------
# binding-invariant values stored on the tape


def _named_exprs(protocol) -> dict:
    named = {f"port {name}": expr for name, expr in protocol.all_ports().items()}
    named.update({f"record {name}": expr for name, expr in protocol.classical.items()})
    named.update({f"expect {n}": e for n, e in protocol.expected_limit.items()})
    if protocol.target is not None:
        named["target"] = protocol.target
    return named


def _assert_same_tables(session, fresh, protocol, copy) -> None:
    want_exprs = _named_exprs(copy)
    for name, expr in _named_exprs(protocol).items():
        assert session.table(expr) == fresh.table(want_exprs[name]), name


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
    circuit evaluated only under B, in bound sessions and bare envs alike."""
    bound, bare, copy = _golden(name), _golden(name), _golden(name)
    params = sorted(copy.limit_params)
    a = dict(zip(params, (1.3, 0.8)))
    b = dict(zip(params, (0.45, 2.05)))
    copy.env = copy.env.bind(**b)
    fresh = copy.evaluator()

    session = bound.evaluator().bind(**a).bind(**b)
    _assert_same_tables(session, fresh, bound, copy)
    _assert_oracle_agrees(bound, session.env, session.variance)

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


# instruction, dependent and reached counts after protocol.evaluator(): one
# instruction per distinct structure, however many times the interpreter builds
# it; the roots reach all but the operands of the sums the build folded
TAPE_COUNTS = {
    ("atemporal_telefilter", None): (59, 34, 55),
    ("atemporal_telemirror", None): (156, 132, 156),
    ("delayed_telefilter", None): (211, 104, 175),
    ("delayed_telemirror", None): (295, 247, 291),
    ("nmode_delayed_telefilter", None): (362, 170, 279),
    ("nmode_nodelay_telefilter", None): (310, 150, 279),
    ("nodelay_independent", None): (92, 46, 88),
    ("nodelay_telefilter", None): (173, 92, 159),
    ("nodelay_telemirror", None): (296, 227, 288),
    # the build makes 1,608 and 5,272; the target and expect forms' parser nodes join after it
    ("nmode_delayed_telefilter", 8): (1624, 500, 1011),
    ("nmode_delayed_telefilter", 16): (5292, 1028, 2843),
    ("acausal", None): (59, 34, 55),
    ("cloning", None): (13, 0, 13),
    # conj of a real Num (dagger's conj(ONE)) once numbered a node no root reached
    ("infinite_gain", None): (10, 6, 10),
    ("nan_limit_tap", None): (64, 38, 60),
}


@pytest.mark.parametrize("name,n", sorted(TAPE_COUNTS, key=str), ids=str)
def test_the_tape_structure_is_pinned(name, n, monkeypatch):
    ast = parse_circuit(_source(name, n))
    joined = []  # the roots the joining walk is handed: foreign nodes only
    append = Tape.append
    monkeypatch.setattr(Tape, "append", lambda tape, root: joined.append(root) or append(tape, root))
    protocol = evaluate_circuit(ast)
    protocol.evaluator()
    foreign = {id(node) for node in _nodes(_coefs_in(ast, []))} | {id(coeff.ZERO), id(coeff.ONE), id(I)}
    assert joined and all(id(root) in foreign for root in joined)
    tape = protocol.circuit.tape
    assert (len(tape.nodes), sum(tape.dependent)) == TAPE_COUNTS[name, n][:2]
    assert len(tape.ops) == len(tape.dependent) == len(tape.nodes)
    assert all(tape.keys[key] == i and max(key[1:]) < i for i, key in enumerate(tape.ops))
    assert len(_reached_instructions(protocol)) == TAPE_COUNTS[name, n][2]


def _reached_instructions(protocol) -> set[int]:
    """The instructions reached from the ports, records, target and forms."""
    tape = protocol.circuit.tape
    reached, todo = set(), [tape.index[id(c)] for e in protocol.roots() for c in _coefficients(e)]
    while todo:
        i = todo.pop()
        if i >= 0 and i not in reached:
            reached.add(i)
            todo += tape.ops[i][1:]
    return reached


def test_the_conjugate_of_a_real_num_is_that_num():
    tape = Tape()
    Tape.current = tape
    try:
        real, imag = coeff.as_coef(2.5), coeff.as_coef(1 + 2j)
        assert conj(real) is real and conj(coeff.ONE) is coeff.ONE
        assert conj(imag).value == 1 - 2j
    finally:
        Tape.current = None
    assert len(tape.nodes) == 3


def test_a_failed_evaluation_leaves_no_tape_current():
    text = """
        mode signal a rail=in bin=0
        mode vacuum v rail=v bin=0
        mode vacuum w rail=w bin=0
        (x, y) = split(a, v, alpha=0.5, phi=pi/4)
        (p, q) = split(x, w, alpha=2, phi=0)
        output o = p
    """
    with pytest.raises(CircuitError, match="alpha = 2.0 outside"):
        evaluate_circuit(parse_circuit(text))
    assert Tape.current is None
    # library nodes are not interned: each build is a node of its own
    built = [cosh(Param("s")) * 2 for _ in range(2)]
    assert built[0] == built[1] and built[0] is not built[1]
    value = to_complex(Evaluator(ParamEnv({"s": 1.5})).eval(built[0]))
    assert (value.real.hex(), value.imag.hex()) == ("0x1.2d1bc21e22022p+2", "0x0.0p+0")
    name = "delayed_telemirror"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", str(GOLDEN_DIR / f"{name}.tls"), "--format", "machine"])
    pinned = Path(__file__).parent / "fixtures" / "reports" / f"verify_{name}.json"
    assert code == 0 and out.getvalue().encode("utf-8") == pinned.read_bytes()


def test_two_evaluations_of_one_ast_make_equal_tapes():
    ast = parse_circuit(protocol_text("nmode_delayed_telefilter", n=4))
    first, second = evaluate_circuit(ast), evaluate_circuit(ast)
    one, two = first.circuit.tape, second.circuit.tape
    tables = [[p.evaluator().table(expr) for expr in p.roots()] for p in (first, second)]
    assert one.dependent == two.dependent
    assert [key[1:] for key in one.ops] == [key[1:] for key in two.ops]
    for got, want in zip(*tables):
        assert got == want
    # both number the parser's nodes, and share no node the interpreter made
    shared = {id(node) for node in one.nodes} & {id(node) for node in two.nodes}
    parsed = {id(node) for node in _nodes(_coefs_in(ast, []))}
    assert shared and shared <= parsed | {id(coeff.ZERO), id(coeff.ONE), id(I)}


# each zero of the circuit below, spelled as the parser reads it
_SPELLED_ZEROS = {"Z1": "-0", "Z2": "0.0", "Z3": "1e-400", "Z4": "-0.0", "Z5": "0"}
_ZERO_CIRCUIT = """\
param s = infinity
mode entanglement_seed e1 rail=source bin=0
mode entanglement_seed e2 rail=source bin=0
mode signal j0 rail=input bin=0
mode signal j1 rail=input bin=1
mode vacuum v rail=receiver bin=0
(a0, b0) = squeeze(e1, e2, gain=s, phase=Z1)
(a1, a2) = split(a0, v, alpha=0.5, phi=Z2)
m0 = homodyne(j0, a1, xphase=Z3, pphase=pi/2)
m1 = homodyne(j1, a2, xphase=Z4, pphase=pi/2 + Z1)
m = combine(1*m0, (Z2)*m1, 0.5*m1, (Z5)*m0)
out = displace(b0, m, gain=1/sqrt(2) + Z3)
turned = phase(out, phi=Z4)
output filtered = turned role=transmitted
output record = m
"""


def _machine_reports(path: Path) -> list:
    reports = []
    for command in ("run", "verify"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, str(path), "--format", "machine"])
        reports.append((code, out.getvalue()))
    return reports


def test_literal_spellings_survive_interning(tmp_path):
    """Num keys compare complex values, so 0j and -0j share an instruction;
    the serializer prints the parser's nodes, never the interned ones."""
    spelled, plain = _ZERO_CIRCUIT, _ZERO_CIRCUIT
    for mark, zero in _SPELLED_ZEROS.items():
        spelled, plain = spelled.replace(mark, zero), plain.replace(mark, "0")
    ast = parse_circuit(spelled)
    before = serialize_circuit(ast)
    protocol = evaluate_circuit(ast)
    protocol.evaluator()
    text = serialize_circuit(protocol.circuit)
    assert text == before == serialize_circuit(parse_circuit(text))
    assert "-0" in text and "-0" not in serialize_circuit(parse_circuit(plain))
    paths = tmp_path / "spelled.tls", tmp_path / "plain.tls"
    for path, source in zip(paths, (spelled, plain)):
        path.write_text(source)
    assert _machine_reports(paths[0]) == _machine_reports(paths[1])


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
        phase = Call("exp", Mul(I, Num(0.3)))
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
            # the tape is whole whichever binding first reached it and raised
            assert id(expr) in tape.index
        size = len(tape.nodes)
        assert Evaluator(good, tape).eval(expr) == Evaluator(good).eval(build())
        assert len(tape.nodes) == size
        assert _snapshot(tape)[MP.prec]


@pytest.mark.parametrize("quotient_first, message", [
    (False, "unbound parameter 'q'"),
    (True, "division by zero"),
])
def test_a_failing_pass_raises_its_first_failure_in_tape_order(quotient_first, message):
    """Two instructions of one root fail, an unbound parameter and a zero
    divisor; the pass raises the one numbered first on the tape, and stores
    nothing, not even the invariant root it computed beside them."""
    quotient = Div(Num(1), Param("y"))
    root, invariant = Add(Param("q"), quotient), Mul(Num(0.3), Call("exp", I))
    tape = Tape()
    if quotient_first:  # numbered before q, though the root reads q first
        tape.append(quotient)
    run = Evaluator(ParamEnv({"y": 0.0}), tape)
    with pytest.raises(CoefficientError, match=message):
        run.eval_all([invariant, root])
    assert _snapshot(tape) == {}
    assert run.eval(invariant) == Evaluator(ParamEnv({})).eval(invariant)
    assert _snapshot(tape)[MP.prec]


def test_appending_computes_nothing(monkeypatch):
    """Tape.append compiles roots without computing or storing a value;
    a run then computes them and appends nothing."""
    text = protocol_text("nmode_delayed_telefilter", n=16)
    protocol, copy = (evaluate_circuit(parse_circuit(text)) for _ in range(2))
    ports, copy_ports = protocol.all_ports(), copy.all_ports()
    counts = _count_evaluations(monkeypatch)
    tape = Tape()
    for expr in ports.values():
        for root in _coefficients(expr):
            assert tape.append(root) == tape.index[id(root)]
    assert not counts and tape.stored == {}
    size, run, fresh = len(tape.nodes), Evaluator(protocol.env, tape), copy.evaluator()
    for port, expr in ports.items():
        want = fresh.table(copy_ports[port])
        assert expr.terms.keys() == want.keys(), port
        for mode, pair in expr.terms.items():
            for root, value in zip(pair, want[mode]):
                assert run.eval(root) == value, port
    assert len(tape.nodes) == size and tape.stored[MP.prec]


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
            got, low = later.table(expr), at_160.table(expr)
            assert got == fresh.table(want_exprs[port]), port
            differs |= any(pair != low[mode] for mode, pair in got.items())
    assert differs
    # one set of invariants per precision
    assert len(protocol.circuit.tape.stored) == 2


@pytest.mark.parametrize("name", ["delayed_telemirror", "nodelay_telemirror"])
def test_a_lazy_session_tables_at_the_precision_it_was_made_with(name):
    """A 160-digit session tables at 160 digits under a 240-digit MP, and
    stores no 240-digit value among the 160-digit invariants of its tape."""
    protocol, copy = _golden(name), _golden(name)
    ports = protocol.all_ports()
    started, untouched = ModeEvaluator(protocol.env), ModeEvaluator(protocol.env)
    # this port's run stores few of the invariants the other ports read, so
    # most of theirs are computed after MP's precision has changed
    started.table(ports["recovered_3_perp"])
    with MP.workdps(240):
        for session in (started, untouched):
            for expr in ports.values():
                session.table(expr)
    for session in (started, untouched, ModeEvaluator(protocol.env)):
        _assert_same_tables(session, ModeEvaluator(copy.env), protocol, copy)


def test_bind_makes_a_derived_session_at_its_own_precision():
    protocol, copy = _golden("delayed_telemirror"), _golden("delayed_telemirror")
    root = protocol.evaluator()
    with MP.workdps(240):
        bound = root.bind(s=40, r=40)
    assert root.bind(s=40, r=40) is bound
    _assert_same_tables(bound, copy.evaluator().bind(s=40, r=40), protocol, copy)
