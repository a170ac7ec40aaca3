"""Per-binding numeric sessions: sharing, exactness, evaluation counts."""

import contextlib
import io
from collections import Counter
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings, strategies as st

from telesim import cli
from telesim.circuit import evaluate_circuit
from telesim.coeff import (
    PI,
    Add,
    Call,
    CoefExpr,
    Conj,
    Evaluator,
    I,
    Mul,
    Neg,
    Num,
    Param,
    ParamEnv,
    conj,
)
from telesim.dsl import parse_circuit
from telesim.opalg import ModeEvaluator, ModeExpr, ModeId, dagger
from telesim.protocols import protocol_text

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "src" / "telesim" / "golden"


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
            exprs += [signal.expr for signal in protocol.classical.values()]
            for expr in exprs:
                assert session.table(expr) == fresh.table(expr), path.stem


# ---------------------------------------------------------------------------
# [A, B^dagger] from tables

IDS = [ModeId(name, "r", time_bin) for name, time_bin in (("a", 0), ("b", 0), ("c", 1))]
LEAVES = st.one_of(
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False).map(Num),
    st.sampled_from([Param("x"), Param("y"), I, PI]),
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


# ---------------------------------------------------------------------------
# evaluation counts


def _unique_nodes(roots) -> int:
    """Distinct coefficient nodes reachable from roots, walked iteratively."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for f in fields(node):
            value = getattr(node, f.name)
            if isinstance(value, CoefExpr):
                stack.append(value)
    return len(seen)


def _coefficients(expr: ModeExpr):
    return [coef for pair in expr.terms.values() for coef in pair]


def test_verify_evaluates_each_node_once_per_binding(tmp_path, monkeypatch):
    """Every (binding, DAG node) pair reaches Evaluator._eval at most once.

    Loading evaluates statement scalars on its own, and the covariance
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
    oracle = cli.covariance_oracle

    def fenced_oracle(*args):
        in_oracle.append(True)
        try:
            return oracle(*args)
        finally:
            in_oracle.pop()

    counts: Counter = Counter()
    kept = []  # holds every counted node so no id is recycled
    plain = Evaluator._eval

    def counting_eval(self, expr):
        if loaded and not in_oracle:
            counts[tuple(sorted(self.env.values.items())), id(expr)] += 1
            kept.append(expr)
        return plain(self, expr)

    monkeypatch.setattr(cli, "_load_protocol", recording_load)
    monkeypatch.setattr(cli, "covariance_oracle", fenced_oracle)
    monkeypatch.setattr(Evaluator, "_eval", counting_eval)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", str(path), "--format", "machine"]) == 0

    (protocol,) = loaded
    roots = []
    for expr in protocol.all_ports().values():
        roots += _coefficients(expr)
    for signal in protocol.classical.values():
        roots += _coefficients(signal.expr)
    for expr in [protocol.target, *(protocol.expected_limit or {}).values()]:
        if expr is not None:
            roots += _coefficients(expr)
    bindings = {binding for binding, _ in counts}
    # root (also the selectivity limit), twice the scale, the probe point
    assert len(bindings) == 3
    assert max(counts.values()) == 1
    assert sum(counts.values()) <= len(bindings) * _unique_nodes(roots)
