"""Coefficient expression trees: construction, folding, evaluation."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from telesim.coeff import (
    MP,
    ZERO,
    Add,
    Call,
    CoefficientError,
    Evaluator,
    Mul,
    Num,
    Param,
    ParamEnv,
    as_coef,
    cis,
    conj,
    cosh,
    sinh,
    to_complex,
)
from telesim.opalg import ModeEvaluator, ModeExpr, ModeId

EMPTY = ParamEnv({})


def test_literals_and_constants():
    assert to_complex(Evaluator(EMPTY).eval(Num(2.5))) == 2.5
    assert to_complex(Evaluator(EMPTY).eval(Num(1 + 2j))) == 1 + 2j
    assert to_complex(Evaluator(EMPTY).eval(as_coef(3))) == 3.0
    assert to_complex(Evaluator(EMPTY).eval(cis(math.pi / 2))) == pytest.approx(1j, abs=1e-15)


def test_param_lookup_and_bind():
    env = ParamEnv({"s": 1.25})
    assert to_complex(Evaluator(env).eval(Param("s"))) == 1.25
    rebound = env.bind(s=2.0, r=0.5)
    assert to_complex(Evaluator(rebound).eval(Param("s") + Param("r"))) == 2.5
    # bind returns a fresh env, the original is untouched
    assert env.values == {"s": 1.25}
    assert env.limit_scale == 20.0


def test_unbound_param_raises():
    with pytest.raises(CoefficientError, match="unbound parameter 'q'"):
        to_complex(Evaluator(EMPTY).eval(Param("q")))


def test_division_by_zero_raises():
    with pytest.raises(CoefficientError, match="division by zero"):
        to_complex(Evaluator(EMPTY).eval(Num(1) / Num(0)))


def test_arithmetic_sugar():
    x = Param("x")
    env = ParamEnv({"x": 0.75})
    assert to_complex(Evaluator(env).eval(2 * x + 1)) == 2.5
    assert to_complex(Evaluator(env).eval(1 - x)) == 0.25
    assert to_complex(Evaluator(env).eval(-x / 3)) == -0.25
    assert to_complex(Evaluator(env).eval((x + x) * (x - 1))) == pytest.approx(-0.375)


@pytest.mark.parametrize(
    "func, reference",
    [
        ("cosh", cmath.cosh),
        ("sinh", cmath.sinh),
        ("tanh", cmath.tanh),
        ("exp", cmath.exp),
        ("sqrt", cmath.sqrt),
        ("ln", cmath.log),
        ("sech", lambda z: 1 / cmath.cosh(z)),
        ("arccosh", cmath.acosh),
    ],
)
def test_functions_match_cmath(func, reference):
    env = ParamEnv({"x": 1.35})
    got = to_complex(Evaluator(env).eval(Call(func, Param("x"))))
    assert got == pytest.approx(reference(1.35), rel=1e-13)


def test_conj():
    z = Num(1 + 2j) * Param("x")
    assert to_complex(Evaluator(ParamEnv({"x": 3.0})).eval(conj(z))) == 3 - 6j


def test_high_precision_cancellation():
    # cosh^2 - sinh^2 = 1 must survive at arguments where both terms are
    # ~ 6e16; float64 loses all sub-unit precision there
    s = Param("s")
    expr = cosh(s) * cosh(s) - sinh(s) * sinh(s)
    value = MP.make_mpc(Evaluator(ParamEnv({"s": 20.0})).eval(expr))
    assert abs(value - 1) < 1e-100


def test_evaluator_memo_keeps_keyed_expressions_alive():
    # regression: an identity-keyed memo must not serve a stale value when
    # a garbage-collected temporary's id is recycled by a new expression
    env = ParamEnv({"x": 2.0})
    ev = Evaluator(env)
    for k in range(300):
        fresh = Param("x") + Num(float(k))
        assert to_complex(ev.eval(fresh)) == 2.0 + k


def test_deep_chains_evaluate_without_recursion():
    # e <- 1 + (-1)*e, built raw so nothing folds: 5,000 operator nodes,
    # each one level deeper, far past the interpreter's recursion limit
    steps = 2500
    chain = Param("x")
    for _ in range(steps):
        chain = Add(Num(1), Mul(Num(-1), chain))
    # an even number of steps maps x back to itself
    assert to_complex(Evaluator(ParamEnv({"x": 0.75})).eval(chain)) == 0.75
    mode = ModeId("a", "r")
    expr = ModeExpr({mode: (chain, ZERO)})
    session = ModeEvaluator(ParamEnv({"x": 0.75}), (expr,))
    for x in (0.75, 2.5):
        assert session.bind(x=x).floats(expr)[mode] == (x, 0)


@given(
    a=st.floats(-50, 50, allow_nan=False),
    b=st.floats(-50, 50, allow_nan=False),
)
def test_field_ops_match_complex_arithmetic(a, b):
    env = ParamEnv({"a": a, "b": b})
    pa, pb = Param("a"), Param("b")
    assert to_complex(Evaluator(env).eval(pa + pb)) == pytest.approx(a + b, abs=1e-12)
    assert to_complex(Evaluator(env).eval(pa - pb)) == pytest.approx(a - b, abs=1e-12)
    assert to_complex(Evaluator(env).eval(pa * pb)) == pytest.approx(a * b, rel=1e-12, abs=1e-12)


@given(s=st.floats(0.01, 5.0, allow_nan=False))
def test_tanh_sech_pythagorean(s):
    env = ParamEnv({"s": s})
    t = to_complex(Evaluator(env).eval(Call("tanh", Param("s"))))
    c = to_complex(Evaluator(env).eval(Call("sech", Param("s"))))
    assert abs(t) ** 2 + abs(c) ** 2 == pytest.approx(1.0, abs=1e-12)
