"""Independent analysis layer: unitarity, limits, covariances, timing."""

import contextlib
import ctypes
import io
import json
import math
import sys
from pathlib import Path

import pytest

from telesim import cli, verify
from telesim.circuit import evaluate_circuit
from telesim.coeff import ParamEnv
from telesim.dsl import parse_circuit
from telesim.opalg import ModeId, dagger, input_mode, lin_comb, quadrature_variance
from telesim.protocols import PROTOCOLS, build
from telesim.verify import (
    causality_report,
    check_bogoliubov,
    covariance_oracle,
    limit_coefficients,
    run_suite,
    selectivity_report,
    signaling_test,
    verify_suite,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "src" / "telesim" / "golden"
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"

A = input_mode(ModeId("a", "left"))
B = input_mode(ModeId("b", "right"))


def test_bogoliubov_accepts_canonical_pairs():
    s = 0.9
    a0 = lin_comb([(math.cosh(s), A), (math.sinh(s), dagger(B))])
    b0 = lin_comb([(math.cosh(s), B), (math.sinh(s), dagger(A))])
    report = check_bogoliubov({"a0": a0, "b0": b0}, ParamEnv({}))
    assert report.passed
    assert report.max_deviation <= 1e-12
    assert report.failures == ()


def test_bogoliubov_rejects_scaled_and_overlapping_sets():
    report = check_bogoliubov({"x": A, "y": lin_comb([(2, A)])}, ParamEnv({}))
    assert not report.passed
    kinds = {(left, right, kind) for left, right, kind, _ in report.failures}
    # y is not normalized and x overlaps it
    assert ("y", "y", "cross-commutator") in kinds
    assert ("x", "y", "cross-commutator") in kinds


def test_bogoliubov_flags_squeezer_with_wrong_norm():
    bad = lin_comb([(1.0, A), (1.0, dagger(B))])  # cosh^2 - sinh^2 = 0
    report = check_bogoliubov({"output0": bad}, ParamEnv({}), tol=1e-10)
    assert not report.passed
    assert report.names == ("output0",)
    assert report.max_deviation == pytest.approx(1.0)


def test_limit_converges_to_declared_form():
    po = build("atemporal_telefilter")
    res = limit_coefficients(po.transmitted["filtered"], po.limit_params, po.env)
    assert res.converged and not res.divergent
    names = {m.name: complex(c) for m, (c, d) in res.limit.items()}
    assert names == {"j0": pytest.approx(1.0, abs=1e-8)}
    assert res.scale == po.env.limit_scale


def test_limit_reports_divergence_without_raising():
    po = build("atemporal_telefilter")
    res = limit_coefficients(po.classical["record"], po.limit_params, po.env)
    assert res.divergent
    assert not res.converged


def test_limit_of_a_difference_is_empty():
    po = build("atemporal_telemirror")
    target = input_mode(next(m for m in po.input_registry if m.name == "j0"))
    gap = lin_comb([(1, po.transmitted["mirror_out"]), (-1, target)])
    res = limit_coefficients(gap, po.limit_params, po.env)
    assert res.converged
    assert res.limit == {}


def test_covariance_oracle_matches_operator_variances():
    po = build("nodelay_telemirror")
    env = po.env.bind(r=0.9, s=1.2)
    record = covariance_oracle(po.circuit, env)
    for port, expr in po.quantum_ports().items():
        for phase in (0.0, 0.7, math.pi / 2):
            want = quadrature_variance(expr, phase, env)
            assert record.variance(port, phase) == pytest.approx(want, rel=1e-10), port


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_a_non_finite_phase_gives_a_nan_variance_in_both_pipelines(phase):
    po = evaluate_circuit(parse_circuit((GOLDEN_DIR / "delayed_telemirror.tls").read_text()))
    record = covariance_oracle(po.circuit, po.env)
    for port, expr in po.quantum_ports().items():
        assert math.isnan(quadrature_variance(expr, phase, po.env)), port
        assert math.isnan(record.variance(port, phase)), port


def test_covariance_oracle_on_passive_circuit_gives_unit_variances():
    text = """mode vacuum v1 rail=a bin=0
mode vacuum v2 rail=b bin=0
mode vacuum v3 rail=c bin=0
(m1, p1) = split(v1, v2, alpha=0.3, phi=0.4)
q = phase(m1, phi=1.1)
(m2, p2) = split(q, v3, alpha=0.6, phi=-0.9)
output o1 = m2
output o2 = p2
output o3 = p1
"""
    po = evaluate_circuit(parse_circuit(text))
    record = covariance_oracle(po.circuit, po.env)
    for port in ("o1", "o2", "o3"):
        for phase in (0.0, 1.3):
            assert record.variance(port, phase) == pytest.approx(1.0, abs=1e-12)


def test_causality_report_fields():
    po = build("nodelay_telefilter")
    report = causality_report(po)
    assert report.verdict == "causal"
    assert report.violations == ()
    assert report.mandatory_delay == 0
    assert report.emission["bin1_out"] == 1
    deps = {m.name for m, _ in report.dependencies["bin1_out"]}
    # the bin-1 tap never touches the bin-2 input
    assert "j2" not in deps and "j1" in deps


def test_causality_delay_spans_the_bins():
    assert causality_report(build("delayed_telefilter")).mandatory_delay == 1
    assert causality_report(build("nmode_delayed_telefilter", n=5)).mandatory_delay == 4
    assert causality_report(build("nmode_nodelay_telefilter", n=5)).mandatory_delay == 0


def test_signaling_is_structurally_zero_for_no_delay_taps():
    for name in ("nodelay_telefilter", "nodelay_telemirror"):
        po = build(name)
        assert signaling_test(po, causality_report(po)) == 0.0
    # every delayed output emits at the final bin, so the test is vacuous
    po = build("delayed_telefilter")
    assert signaling_test(po, causality_report(po)) == 0.0


def test_selectivity_verdicts():
    rep = selectivity_report(build("atemporal_telefilter"))
    assert rep.verdict == "mode_selective"
    assert abs(rep.target_overlap) == pytest.approx(1.0, abs=1e-8)
    rep = selectivity_report(build("nodelay_telefilter"))
    assert rep.verdict == "mode_discriminating"
    assert rep.clean_port == "selected"
    assert rep.noise_variance_excess["orthogonal"] == pytest.approx(2.0, abs=1e-8)
    rep = selectivity_report(build("nodelay_independent"))
    assert rep.verdict == "neither"


def _machine_verify(path: Path) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", str(path), "--format", "machine"])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("name", list(PROTOCOLS))
def test_verify_suite_passes_on_every_protocol(name):
    protocol = build(name)
    suite = verify_suite(protocol)
    assert suite.all_passed, suite.checks
    # the suite hands back every report it judged from
    assert suite.bogoliubov.passed and suite.causality.verdict == "causal"
    assert (suite.selectivity is not None) == (protocol.target is not None)
    assert (suite.limits is not None) == bool(protocol.limit_params)


def test_verify_suite_passes_on_the_tanh_gain_delayed_telefilter():
    # the tanh-gain combine weights of the shared displacement record
    suite = verify_suite(build("delayed_telefilter", gain_mode="tanh"))
    assert len(suite.checks) == 5
    assert suite.all_passed, suite.checks
    assert suite.selectivity.verdict == "mode_selective"


@pytest.mark.parametrize("name", list(PROTOCOLS))
def test_verify_suite_matches_the_cli_checks(name):
    suite = verify_suite(build(name))
    code, report = _machine_verify(GOLDEN_DIR / f"{name}.tls")
    assert code == 0
    assert [check for check, _, _ in suite.checks] == [
        entry["check"] for entry in report["checks"]
    ]


@pytest.mark.parametrize("name", list(PROTOCOLS))
def test_run_suite_holds_the_analyses_of_run_and_no_check(name):
    protocol = build(name)
    suite = run_suite(protocol)
    assert not suite.checks and suite.all_passed and suite.bogoliubov is None
    assert suite.causality == causality_report(protocol)
    want = None if protocol.target is None else selectivity_report(protocol)
    assert suite.selectivity == want
    assert (suite.limits is not None) == bool(protocol.limit_params)
    if suite.limits is not None:
        assert suite.limits.params == tuple(protocol.limit_params)
        assert suite.limits.results.keys() == protocol.quantum_ports().keys()


def test_limit_suite_defaults_to_the_declared_infinite_parameters():
    protocol = build("delayed_telemirror")
    suite = verify.limit_suite(protocol)
    assert suite.params == tuple(protocol.limit_params) == ("s", "r")
    assert suite == verify.limit_suite(protocol, ["s", "r", "s"])


def test_limit_suite_rejects_no_scale_parameter_and_an_undeclared_one():
    finite = evaluate_circuit(parse_circuit((FIXTURE_DIR / "acausal.tls").read_text()))
    assert not finite.limit_params
    with pytest.raises(ValueError, match=r"^no scale parameters given and none declared infinite$"):
        verify.limit_suite(finite)
    with pytest.raises(ValueError, match=r"^circuit declares no parameter 'q'$"):
        verify.limit_suite(build("delayed_telemirror"), ["s", "q"])


def test_cli_verify_runs_each_analysis_once(monkeypatch):
    calls = []
    wrapped = (
        "check_bogoliubov",
        "causality_report",
        "covariance_oracle",
        "selectivity_report",
        "_declared_limit_gap",
    )
    for name in wrapped:
        plain = getattr(verify, name)

        def counted(*args, _plain=plain, _name=name, **kwargs):
            calls.append(_name)
            return _plain(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    code, report = _machine_verify(GOLDEN_DIR / "delayed_telemirror.tls")
    assert code == 0
    assert sorted(calls) == sorted(wrapped)
    assert {"bogoliubov", "causality", "limits", "selectivity"} <= report.keys()


@pytest.mark.skipif(sys.platform == "win32", reason="reads the C library's strtod")
def test_a_nan_magnitude_ignores_a_stale_errno():
    # CPython's complex abs() of a nan reads errno, which a libm call may
    # have left at ERANGE, and then raises OverflowError
    strtod = ctypes.CDLL(None).strtod
    strtod.restype = ctypes.c_double
    z = complex(math.nan, 0.0)
    strtod(b"1e999", None)
    assert math.isnan(verify._magnitude(z))
