"""Coefficient expression trees: construction, folding, evaluation."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from telesim.coeff import (
    ZERO,
    Add,
    CoefficientError,
    Evaluator,
    Mul,
    Num,
    Param,
    ParamEnv,
    arccosh,
    as_coef,
    cis,
    conj,
    cosh,
    evaluate,
    evaluate_mp,
    exp,
    ln,
    num,
    param,
    sech,
    sinh,
    sqrt,
    tanh,
)
from telesim.opalg import ModeEvaluator, ModeExpr, ModeId

EMPTY = ParamEnv({})


def test_literals_and_constants():
    assert evaluate(num(2.5), EMPTY) == 2.5
    assert evaluate(num(1 + 2j), EMPTY) == 1 + 2j
    assert evaluate(as_coef(3), EMPTY) == 3.0
    assert evaluate(cis(math.pi / 2), EMPTY) == pytest.approx(1j, abs=1e-15)


def test_param_lookup_and_bind():
    env = ParamEnv({"s": 1.25})
    assert evaluate(param("s"), env) == 1.25
    rebound = env.bind(s=2.0, r=0.5)
    assert evaluate(param("s") + param("r"), rebound) == 2.5
    # bind returns a fresh env, the original is untouched
    assert env.values == {"s": 1.25}
    assert env.limit_scale == 20.0


def test_unbound_param_raises():
    with pytest.raises(CoefficientError, match="unbound parameter 'q'"):
        evaluate(param("q"), EMPTY)


def test_division_by_zero_raises():
    with pytest.raises(CoefficientError, match="division by zero"):
        evaluate(num(1) / num(0), EMPTY)


def test_arithmetic_sugar():
    x = param("x")
    env = ParamEnv({"x": 0.75})
    assert evaluate(2 * x + 1, env) == 2.5
    assert evaluate(1 - x, env) == 0.25
    assert evaluate(-x / 3, env) == -0.25
    assert evaluate((x + x) * (x - 1), env) == pytest.approx(-0.375)


@pytest.mark.parametrize(
    "builder, reference",
    [
        (cosh, cmath.cosh),
        (sinh, cmath.sinh),
        (tanh, cmath.tanh),
        (exp, cmath.exp),
        (sqrt, cmath.sqrt),
        (ln, cmath.log),
        (sech, lambda z: 1 / cmath.cosh(z)),
        (arccosh, cmath.acosh),
    ],
)
def test_functions_match_cmath(builder, reference):
    env = ParamEnv({"x": 1.35})
    got = evaluate(builder(param("x")), env)
    assert got == pytest.approx(reference(1.35), rel=1e-13)


def test_conj():
    z = num(1 + 2j) * param("x")
    assert evaluate(conj(z), ParamEnv({"x": 3.0})) == 3 - 6j


def test_parameters_collection():
    expr = sqrt(param("a")) * cosh(param("b")) + num(2)
    assert expr.parameters() == frozenset({"a", "b"})
    assert num(5).parameters() == frozenset()


def test_high_precision_cancellation():
    # cosh^2 - sinh^2 = 1 must survive at arguments where both terms are
    # ~ 6e16; float64 loses all sub-unit precision there
    s = param("s")
    expr = cosh(s) * cosh(s) - sinh(s) * sinh(s)
    value = evaluate_mp(expr, ParamEnv({"s": 20.0}))
    assert abs(value - 1) < 1e-100


def test_evaluator_memo_keeps_keyed_expressions_alive():
    # regression: an identity-keyed memo must not serve a stale value when
    # a garbage-collected temporary's id is recycled by a new expression
    env = ParamEnv({"x": 2.0})
    ev = Evaluator(env)
    for k in range(300):
        fresh = param("x") + num(float(k))
        assert complex(ev.eval(fresh)) == 2.0 + k


def test_deep_chains_evaluate_without_recursion():
    # e <- 1 + (-1)*e, built raw so nothing folds: 5,000 operator nodes,
    # each one level deeper, far past the interpreter's recursion limit
    steps = 2500
    chain = Param("x")
    for _ in range(steps):
        chain = Add(Num(1), Mul(Num(-1), chain))
    # an even number of steps maps x back to itself
    assert complex(Evaluator(ParamEnv({"x": 0.75})).eval(chain)) == 0.75
    mode = ModeId("a", "r")
    expr = ModeExpr({mode: (chain, ZERO)})
    session = ModeEvaluator(ParamEnv({"x": 0.75}), (expr,))
    for x in (0.75, 2.5):
        c, d = session.bind(x=x).table(expr)[mode]
        assert (complex(c), complex(d)) == (x, 0)


@given(
    a=st.floats(-50, 50, allow_nan=False),
    b=st.floats(-50, 50, allow_nan=False),
)
def test_field_ops_match_complex_arithmetic(a, b):
    env = ParamEnv({"a": a, "b": b})
    pa, pb = param("a"), param("b")
    assert evaluate(pa + pb, env) == pytest.approx(a + b, abs=1e-12)
    assert evaluate(pa - pb, env) == pytest.approx(a - b, abs=1e-12)
    assert evaluate(pa * pb, env) == pytest.approx(a * b, rel=1e-12, abs=1e-12)


@given(s=st.floats(0.01, 5.0, allow_nan=False))
def test_tanh_sech_pythagorean(s):
    env = ParamEnv({"s": s})
    t = evaluate(tanh(param("s")), env)
    c = evaluate(sech(param("s")), env)
    assert abs(t) ** 2 + abs(c) ** 2 == pytest.approx(1.0, abs=1e-12)
