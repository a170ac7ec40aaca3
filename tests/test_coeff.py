"""Coefficient expression trees: construction, folding, evaluation."""

import cmath
import contextlib
import math

import pytest
from hypothesis import given, strategies as st

from telesim.coeff import (
    MP,
    ZERO,
    Add,
    Call,
    CoefficientError,
    Div,
    Evaluator,
    Mul,
    Num,
    Param,
    ParamEnv,
    Sub,
    Tape,
    as_coef,
    cis,
    conj,
    cosh,
    sinh,
    sqrt,
    to_complex,
)
from telesim.opalg import ModeEvaluator, ModeExpr, ModeId
from telesim import evaluate_circuit, parse_circuit
from telesim.verify import causality_report

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


# ---------------------------------------------------------------------------
# invariant sums folded by the building tape


@contextlib.contextmanager
def _building():
    """A fresh tape, current and building in a run of its own while the block runs."""
    tape = Tape()
    outer = tape.open(Evaluator(EMPTY, tape))
    try:
        yield tape
    finally:
        tape.close(outer)


@given(p=st.integers(1, 1000), q=st.integers(1, 1000))
def test_an_exactly_cancelling_invariant_sum_folds_and_numbers_nothing(p, q):
    # sqrt(p/q) sqrt(q/p) is 1 exactly, but not at 160 digits, nor in doubles
    with _building() as tape:
        product, one = sqrt(as_coef(p) / q) * sqrt(as_coef(q) / p), as_coef(1)
        size = len(tape.nodes)
        assert product - one is ZERO and one - product is ZERO
        assert len(tape.nodes) == size


@pytest.mark.parametrize("identity", [
    lambda x: cosh(x) * cosh(x) - sinh(x) * sinh(x) - 1,
    lambda x: Call("tanh", x) * Call("tanh", x) + Call("sech", x) * Call("sech", x) - 1,
    lambda x: Call("exp", Call("ln", x)) - x,
    lambda x: sqrt(x) * sqrt(x) - x,
    lambda x: cosh(Call("arccosh", 1 + x)) - (1 + x),
    lambda x: cis(x) * cis(-x) - 1,
], ids=["cosh-sinh", "tanh-sech", "exp-ln", "sqrt", "arccosh", "cis"])
def test_function_identities_fold_on_an_inexact_argument(identity):
    # each function's bound on |f'| over its argument's ball is finite here
    with _building():
        assert identity(sqrt(as_coef(2)) / 4) is ZERO


def test_a_literal_sum_is_a_node_its_run_values_exactly():
    # no constructor rule folds Num +- Num: with a current tape or without
    # one, a literal sum is an Add or a Sub like any other
    for building in (contextlib.nullcontext(), _building()):
        with building as tape:
            total, difference = Num(1) + Num(2), Num(0.5) - Num(0.25)
        assert type(total) is Add and type(difference) is Sub
        run = Evaluator(EMPTY, tape)
        assert to_complex(run.eval(total)) == 3 and to_complex(run.eval(difference)) == 0.25


def test_a_small_real_difference_is_kept_with_its_value():
    with _building() as tape:
        one = as_coef(1)
        small = one - (one - 1e-150)  # |v| ~ 2^-498, its radius ~ 2^-534
    assert type(small) is Sub and id(small) in tape.index
    assert to_complex(Evaluator(EMPTY, tape).eval(small)) == pytest.approx(1e-150, rel=1e-9)


def test_a_deep_invariant_chain_keeps_its_bound_tight():
    # 3,000 products by an inexact unit: a bound that grew by a bit a level
    # would pass the chain's magnitude, and fold a difference of 1e-120 at its end
    with _building() as tape:
        unit = sqrt(as_coef(3)) * sqrt(as_coef(3)) / 3
        chain = unit
        for _ in range(3000):
            chain = chain * unit
        small = chain - (chain - 1e-120)
    assert type(small) is Sub and id(small) in tape.index
    assert to_complex(Evaluator(EMPTY, tape).eval(small)) == pytest.approx(1e-120, rel=1e-9)


def test_sums_without_a_bound_or_reached_by_a_param_never_fold():
    # a residue near 7e-161 that the parser's nodes keep: its ball holds 0
    residue = Sub(Mul(Call("sqrt", Num(7)), Call("sqrt", Num(7))), Num(7))
    ln0 = Call("ln", Num(0))
    bad = Div(Num(1), Sub(Num(1), Num(1)))
    with _building() as tape:
        root2 = sqrt(2)
        assert root2 - root2 is ZERO  # exactly 0, within a finite radius
        kept = {
            "a Param reaches it": Param("s") - Param("s"),
            "not finite": ln0 - ln0,
            "sqrt of a ball holding 0": sqrt(residue) - sqrt(residue),
            "ln of a ball holding 0": Call("ln", residue) - Call("ln", residue),
            "a divisor's ball holds 0": 1 / residue - 1 / residue,
            "an operand whose build evaluation failed": bad - bad,
        }
    assert 0 < to_complex(Evaluator(EMPTY).eval(residue)).real < 1e-160
    for case, node in kept.items():
        assert type(node) is Sub and id(node) in tape.index, case
    with pytest.raises(CoefficientError, match="division by zero"):
        Evaluator(EMPTY, tape).eval(kept["an operand whose build evaluation failed"])


TINY_WEIGHT_CIRCUIT = """\
mode signal a rail=input bin=0
mode signal late rail=input bin=3
mode vacuum u rail=receiver bin=0
mode vacuum w rail=receiver bin=3
m0 = homodyne(a, u, xphase=0, pphase=pi/2)
m1 = homodyne(late, w, xphase=0, pphase=pi/2)
m = combine(1*m0, (1 + 1e-120)*m1, (-1)*m1)
output record = m
"""


def test_a_tiny_invariant_weight_on_a_late_bin_keeps_its_dependency():
    # the two weights on m1 cancel to 1e-120, far above their sum's radius
    protocol = evaluate_circuit(parse_circuit(TINY_WEIGHT_CIRCUIT))
    record = protocol.classical["record"]
    (late,) = [mode for mode in record.terms if mode.name == "late"]
    c, d = protocol.evaluator().table(record)[late]
    assert 1e-121 < abs(to_complex(c)) + abs(to_complex(d)) < 1e-119
    report = causality_report(protocol)
    assert ("late", 3) in {(mode.name, b) for mode, b in report.dependencies["record"]}
    assert report.emission["record"] == 3
