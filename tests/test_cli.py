"""Command-line front end: report formats, determinism, exit codes."""

import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import telesim
from telesim.cli import main
from telesim.dsl import parse_circuit, serialize_circuit

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "src" / "telesim" / "golden"
ACAUSAL = Path(__file__).resolve().parent / "fixtures" / "acausal.tls"
CLONING = Path(__file__).resolve().parent / "fixtures" / "cloning.tls"
INFINITE_GAIN = Path(__file__).resolve().parent / "fixtures" / "infinite_gain.tls"
NAN_LIMIT_TAP = Path(__file__).resolve().parent / "fixtures" / "nan_limit_tap.tls"
GOLDEN = GOLDEN_DIR / "delayed_telefilter.tls"
MIRROR = GOLDEN_DIR / "delayed_telemirror.tls"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_protocols_list_names_everything(capsys):
    code, out, _ = run_cli(capsys, "protocols", "list")
    assert code == 0
    for name in (
        "atemporal_telefilter",
        "delayed_telemirror",
        "nodelay_independent",
        "nmode_nodelay_telefilter",
    ):
        assert name in out


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN_DIR.glob("*.tls")))
def test_protocols_build_emits_the_golden_text(capsys, name):
    code, out, _ = run_cli(capsys, "protocols", "build", name)
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.tls").read_text()


def test_registry_text_is_written_without_evaluating(capsys, monkeypatch):
    import telesim.circuit
    import telesim.protocols

    def refuse(*args, **kwargs):
        raise AssertionError("the circuit was evaluated")

    monkeypatch.setattr(telesim.circuit, "evaluate_circuit", refuse)
    monkeypatch.setattr(telesim.protocols, "evaluate_circuit", refuse)
    for path in sorted(GOLDEN_DIR.glob("*.tls")):
        assert telesim.protocol_text(path.stem) == path.read_text()
        code, out, _ = run_cli(capsys, "protocols", "build", path.stem)
        assert (code, out) == (0, path.read_text())


@pytest.mark.parametrize(
    "name, params, overrides",
    [
        ("delayed_telefilter", ["alpha=0.3"], {"alpha": 0.3}),
        ("delayed_telefilter", ["gain_mode=tanh"], {"gain_mode": "tanh"}),
        # tuple[float, float]: a list, not the float its arguments name
        ("delayed_telefilter", ["quad_phases=0.1,-0.2"], {"quad_phases": (0.1, -0.2)}),
        ("nodelay_telemirror", ["theta_minus=1.2"], {"theta_minus": 1.2}),
        (
            "nmode_delayed_telefilter",
            ["n=4", "alphas=0.5,0.5,0.5"],
            {"n": 4, "alphas": (0.5, 0.5, 0.5)},
        ),
    ],
)
def test_protocols_build_types_params_by_annotation(capsys, name, params, overrides):
    argv = [arg for param in params for arg in ("--param", param)]
    code, out, err = run_cli(capsys, "protocols", "build", name, *argv)
    assert (code, err) == (0, "")
    assert out == telesim.protocol_text(name, **overrides)


@pytest.mark.parametrize(
    "name, param, message",
    [
        (
            "delayed_telefilter",
            "nonsense=1",
            "unknown protocol argument 'nonsense' (takes: alpha, phi, quad_phases, gain_mode)",
        ),
        ("nodelay_independent", "x=1", "unknown protocol argument 'x' (takes: none)"),
        ("nmode_delayed_telefilter", "n=x", "bad value for 'n': 'x'"),
        ("delayed_telefilter", "alpha=abc", "bad value for 'alpha': 'abc'"),
        ("delayed_telefilter", "quad_phases=1", "quad_phases must have length 2; got 1"),
        ("delayed_telefilter", "quad_phases=1,2,3", "quad_phases must have length 2; got 3"),
        ("nodelay_telefilter", "quad_phases=1", "quad_phases must have length 2; got 1"),
        ("nodelay_telefilter", "quad_phases=1,2,3", "quad_phases must have length 2; got 3"),
    ],
)
def test_protocols_build_rejects_bad_params(capsys, name, param, message):
    code, out, err = run_cli(capsys, "protocols", "build", name, "--param", param)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "name, params",
    [
        ("delayed_telemirror", ["phi=inf"]),
        ("delayed_telemirror", ["alpha=0.4", "phi=nan"]),
        ("delayed_telefilter", ["quad_phases=nan,0"]),
    ],
)
def test_protocols_build_rejects_non_finite_params(capsys, name, params):
    argv = [arg for param in params for arg in ("--param", param)]
    code, out, err = run_cli(capsys, "protocols", "build", name, *argv)
    key, _, raw = params[-1].partition("=")
    message = f"error: parameter {key!r} needs a finite numeric value, got {raw!r}\n"
    assert (code, out, err) == (2, "", message)


def test_protocols_build_spells_a_huge_angle_as_a_float_literal(capsys):
    code, out, err = run_cli(
        capsys, "protocols", "build", "delayed_telefilter", "--param", "phi=1e300"
    )
    assert (code, err) == (0, "")
    assert "split(a0, v0, alpha=1/2, phi=1e+300)" in out
    assert serialize_circuit(parse_circuit(out)) == out


def test_a_file_with_a_byte_order_mark_reports_as_the_plain_file(tmp_path, capsys):
    path = tmp_path / "bom.tls"
    path.write_bytes(b"\xef\xbb\xbf" + GOLDEN.read_bytes())
    for command in ("run", "verify"):
        with_bom = run_cli(capsys, command, str(path), "--format", "machine")
        assert with_bom == run_cli(capsys, command, str(GOLDEN), "--format", "machine")
        assert with_bom[0] == 0


def test_a_right_angle_past_the_grid_builds_a_circuit_that_verifies(tmp_path, capsys):
    # 5*pi/2 is spelled as its double, so its phase factor stays exp(-i*...)
    # of that double instead of an exact -i the literal does not equal
    code, out, err = run_cli(
        capsys, "protocols", "build", "delayed_telefilter",
        "--param", "quad_phases=7.853981633974483,0",
    )
    assert (code, err) == (0, "")
    assert "exp(-i*7.853981633974483)" in out
    path = tmp_path / "past_the_grid.tls"
    path.write_text(out)
    code, report, _ = run_cli(capsys, "verify", str(path))
    assert code == 0, report


def test_protocols_build_accepts_typed_params(capsys):
    code, out, _ = run_cli(
        capsys, "protocols", "build", "nmode_delayed_telefilter",
        "--param", "n=4", "--param", "alphas=0.5,0.5,0.5",
    )
    assert code == 0
    assert "mode signal j4" in out


def test_run_text_report_mentions_ports_and_verdicts(capsys):
    code, out, _ = run_cli(capsys, "run", str(GOLDEN))
    assert code == 0
    assert "selected" in out and "orthogonal" in out
    assert "causal" in out
    assert "mode_selective" in out
    assert "limit scale: 20" in out


def test_run_machine_report_is_byte_deterministic(capsys):
    code, first, _ = run_cli(capsys, "run", str(GOLDEN), "--format", "machine")
    assert code == 0
    code, second, _ = run_cli(capsys, "run", str(GOLDEN), "--format", "machine")
    assert code == 0
    assert first == second
    payload = json.loads(first)
    # canonical encoding: sorted keys, trailing newline, no negative zero
    assert first == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert "-0.0" not in first
    assert payload["tool"]["name"] == "telesim"
    assert payload["protocol"] == "delayed_telefilter"
    assert payload["causality"]["verdict"] == "causal"
    assert payload["causality"]["mandatory_delay"] == 1
    assert payload["selectivity"]["verdict"] == "mode_selective"
    outputs = payload["outputs"]
    assert outputs["orthogonal"]["coefficients"]["u0"] == [1.0, 0.0, 0.0, 0.0]


def test_run_coefficients_are_rounded_to_12_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "run", str(GOLDEN), "--format", "machine")
    selected = json.loads(out)["outputs"]["selected"]["coefficients"]
    assert selected["j1"][0] == 0.707106781187
    assert selected["j2"][1] == 0.0


def test_run_param_override_is_echoed(capsys):
    _, out, _ = run_cli(
        capsys, "run", str(GOLDEN), "--format", "machine", "--param", "s=1.5"
    )
    payload = json.loads(out)
    assert payload["parameters"]["s"] == 1.5
    assert payload["limit_parameters"] == []


def test_run_writes_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "run", str(GOLDEN), "--format", "machine", "--out", str(target)
    )
    assert code == 0
    assert json.loads(target.read_text())["protocol"] == "delayed_telefilter"


@pytest.mark.parametrize(
    "argv",
    [
        ("run", str(GOLDEN)),
        ("verify", str(GOLDEN)),
        ("limits", str(GOLDEN), "--param", "s"),
        ("protocols", "build", "delayed_telefilter"),
    ],
    ids=["run", "verify", "limits", "protocols-build"],
)
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_an_unwritable_out_path_exits_2_with_a_message(tmp_path, capsys, argv, where):
    target = tmp_path / "no" / "such" / "report.json" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


def test_limit_scale_env_var(capsys, monkeypatch):
    monkeypatch.setenv("TELESIM_LIMIT_SCALE", "7")
    _, out, _ = run_cli(capsys, "run", str(GOLDEN), "--format", "machine")
    assert json.loads(out)["limit_scale"] == 7.0


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.tls")), ids=lambda p: p.stem)
def test_verify_passes_on_every_golden(capsys, path):
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0, out
    assert "FAIL" not in out


def test_verify_flags_the_acausal_fixture(capsys):
    code, out, _ = run_cli(capsys, "verify", str(ACAUSAL))
    assert code == 1
    assert "acausal" in out
    # the bin-0 output carries the bin-1 signal at full weight
    assert "[FAIL] no early output carries later input  max weight 1.000e+00" in out


def test_verify_text_names_the_failing_bogoliubov_pair(capsys):
    # the circuit reads signal a twice, so its two outputs do not commute
    code, out, _ = run_cli(capsys, "verify", str(CLONING))
    assert code == 1
    lines = out.splitlines()
    assert "bogoliubov: FAIL (max deviation 5.000e-01, tol 1.0e-10)" in lines
    assert "  cross-commutator [out_x, out_p]: 5.000e-01" in lines


def test_verify_fails_a_non_finite_deviation(capsys):
    # gain = -ln(0) is infinite: the tables hold inf and nan, the variances
    # read nan, and a nan deviation must fail rather than drop out of a max
    code, out, _ = run_cli(capsys, "verify", str(INFINITE_GAIN))
    assert code == 1
    lines = out.splitlines()
    assert "  [FAIL] bogoliubov canonical output set  max deviation nan" in lines
    assert "  [FAIL] covariance oracle matches operator variances  max relative gap nan" in lines
    assert "  cross-commutator [out, out]: nan" in lines


def test_verify_fails_an_infinite_homodyne_phase(tmp_path, capsys):
    # xphase = -ln(0) is infinite: the oracle's quadrature rows read nan, as
    # the operator tables do, so the checks fail by name instead of raising
    path = tmp_path / "infinite_phase.tls"
    path.write_text(
        "param t = 0\n"
        "mode signal a rail=in bin=0\n"
        "mode vacuum v rail=v bin=0\n"
        "mode vacuum w rail=w bin=0\n"
        "m = homodyne(a, v, xphase=-ln(t), pphase=pi/2)\n"
        "x = displace(w, m, gain=1)\n"
        "output out = x\n"
    )
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "  [FAIL] bogoliubov canonical output set  max deviation nan" in lines
    assert "  [FAIL] covariance oracle matches operator variances  max relative gap nan" in lines
    assert run_cli(capsys, "run", str(path))[0] == 0


@pytest.mark.parametrize("statement", [
    "(x, y) = split(a, v, alpha=0.5, phi=ln(0))",
    "(x, y) = squeeze(a, v, gain=1, phase=ln(0))",
    "x = phase(a, phi=ln(0))",
])
def test_verify_fails_a_non_finite_rotation_phase(tmp_path, capsys, statement):
    # the oracle's rotation e^{i phi} of an infinite phase is nan, as the
    # operator kernels give, so the checks fail by name instead of raising
    path = tmp_path / "infinite_rotation.tls"
    path.write_text(f"mode signal a rail=in bin=0\nmode vacuum v rail=v bin=0\n{statement}\noutput o = x\n")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "  [FAIL] bogoliubov canonical output set  max deviation nan" in lines
    assert "  [FAIL] covariance oracle matches operator variances  max relative gap nan" in lines


def test_verify_fails_a_non_finite_declared_limit_gap(capsys):
    # the tap's phase ln(40 - s) is nan at twice the limit scale; taps get no
    # limit suite, so only the declared-form gap reads that coefficient
    code, out, _ = run_cli(capsys, "verify", str(NAN_LIMIT_TAP))
    assert code == 1
    lines = out.splitlines()
    assert "  [FAIL] declared limit forms reached  max coefficient gap nan" in lines
    assert [line for line in lines if "[FAIL]" in line] == [lines[-1]]


def _refuse_constant(name):
    raise AssertionError(f"{name} is not strict JSON")


@pytest.mark.parametrize("command", ["run", "verify"])
def test_non_finite_machine_reports_are_strict_json(capsys, command):
    code, out, _ = run_cli(capsys, command, str(INFINITE_GAIN), "--format", "machine")
    assert code == (1 if command == "verify" else 0)
    report = json.loads(out, parse_constant=_refuse_constant)
    assert '"nan"' in out
    if command == "verify":
        assert report["bogoliubov"]["max_deviation"] == "nan"


def test_verify_fails_a_non_finite_late_weight(tmp_path, capsys):
    # the acausal fixture's early output carries the bin-1 record with weight nan
    path = tmp_path / "acausal_nan.tls"
    path.write_text(ACAUSAL.read_text().replace("gain=1/sqrt(2), bin=0", "gain=0*ln(0), bin=0"))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "  [FAIL] no early output carries later input  max weight nan" in out.splitlines()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "mode vacuum v rail=r bin=0\nmode vacuum w rail=q bin=0\n",
        "mode vacuum v rail=r bin=0\nmode vacuum w rail=q bin=0\n"
        "m = homodyne(v, w, xphase=0, pphase=pi/2)\noutput rec = m\n",
    ],
    ids=["empty", "modes-only", "records-only"],
)
def test_verify_without_quantum_outputs_exits_2(tmp_path, capsys, text):
    # every check is a max over the quantum outputs, so none would be judged
    path = tmp_path / "circuit.tls"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: circuit has no quantum output to verify\n"


# selectivity verdict of every golden; the first four are the ones the
# benchmark gate pins (perfbench/workloads.py, EXPECTED_SELECTIVITY)
GOLDEN_SELECTIVITY = {
    "atemporal_telefilter": "mode_selective",
    "delayed_telefilter": "mode_selective",
    "nodelay_telefilter": "mode_discriminating",
    "nodelay_independent": "neither",
    "atemporal_telemirror": "mode_selective",
    "delayed_telemirror": "mode_selective",
    "nmode_delayed_telefilter": "mode_selective",
    "nmode_nodelay_telefilter": "mode_discriminating",
    "nodelay_telemirror": "mode_discriminating",
}


def test_protocol_header_larger_than_the_file_is_not_rebuilt(tmp_path, capsys, monkeypatch):
    # a file carries its own target and limit forms: no command runs a
    # registry builder, whatever protocol its header names
    import telesim.protocols as protocols

    def refuse(**kwargs):
        raise AssertionError(f"registry rebuild with {kwargs}")

    for name in list(protocols.PROTOCOLS):
        monkeypatch.setitem(protocols.PROTOCOLS, name, refuse)
    path = tmp_path / "claims.tls"
    path.write_text(
        "protocol nmode_delayed_telefilter(n=100000)\n"
        "mode vacuum v rail=r bin=0\nmode vacuum w rail=q bin=0\n"
        "(a, b) = split(v, w, alpha=0.5, phi=0)\noutput x = a\n"
    )
    code, out, _ = run_cli(capsys, "run", str(path), "--format", "machine")
    assert code == 0
    assert json.loads(out)["selectivity"] is None
    assert sorted(GOLDEN_SELECTIVITY) == sorted(p.stem for p in GOLDEN_DIR.glob("*.tls"))
    for name, verdict in GOLDEN_SELECTIVITY.items():
        for command in ("run", "verify"):
            argv = (command, str(GOLDEN_DIR / f"{name}.tls"), "--format", "machine")
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, (command, name)
            assert json.loads(out)["selectivity"]["verdict"] == verdict, (command, name)


HANDWRITTEN = """param s = infinity
mode entanglement_seed e1 rail=src bin=0
mode entanglement_seed e2 rail=src bin=0
mode signal j rail=in bin=0
mode signal k rail=in bin=0
(a0, b0) = squeeze(e1, e2, gain=s, phase=0)
m = homodyne(j, a0, xphase=0, pphase=pi/2)
out = displace(b0, m, gain=1/sqrt(2))
output filtered = out role=transmitted
"""


def test_handwritten_circuit_declares_its_own_oracle(tmp_path, capsys):
    # no protocol header: the verdicts come from the file's own statements
    path = tmp_path / "teleporter.tls"
    path.write_text(HANDWRITTEN + "target = 1*j\nexpect filtered = 1*j\n")
    code, out, _ = run_cli(capsys, "verify", str(path), "--format", "machine")
    assert code == 0, out
    payload = json.loads(out)
    assert payload["protocol"] is None
    assert payload["selectivity"]["verdict"] == "mode_selective"
    assert payload["selectivity"]["clean_port"] == "filtered"
    checks = {entry["check"]: entry["passed"] for entry in payload["checks"]}
    assert checks["declared limit forms reached"] is True
    # a wrong limit form is caught
    path.write_text(HANDWRITTEN + "target = 1*j\nexpect filtered = 1*j^dag\n")
    code, out, _ = run_cli(capsys, "verify", str(path), "--format", "machine")
    assert code == 1
    checks = {entry["check"]: entry["passed"] for entry in json.loads(out)["checks"]}
    assert checks["declared limit forms reached"] is False


def test_expect_without_an_infinite_parameter_exits_2(tmp_path, capsys):
    # with nothing declared infinite no limit is taken, so the form is never judged
    path = tmp_path / "finite.tls"
    finite = HANDWRITTEN.replace("param s = infinity", "param s = 3")
    path.write_text(finite + "expect filtered = 1e300*j\n")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: expect needs a 'param NAME = infinity' declaration (line 10")
    assert "Traceback" not in err
    # a declared infinite parameter pinned by --param still evaluates
    path.write_text(HANDWRITTEN + "expect filtered = 1*j\n")
    assert run_cli(capsys, "verify", str(path), "--param", "s=3")[0] == 0


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize(
    "target", ["2*j", "1*e1", "0.6*j, 0.6*k"], ids=["scaled", "seed-only", "overweight"]
)
def test_unnormalized_target_exits_2(tmp_path, capsys, command, target):
    path = tmp_path / "teleporter.tls"
    path.write_text(HANDWRITTEN + f"target = {target}\n")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: target is not normalized over the signal inputs")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize(
    "tap",
    ["", "mode vacuum v rail=aux bin=0\noutput aux = v role=tap\n"],
    ids=["reflected", "reflected-and-tap"],
)
def test_a_target_without_a_transmitted_port_exits_2(tmp_path, capsys, command, tap):
    # selectivity picks its clean port among the transmitted ones
    path = tmp_path / "teleporter.tls"
    path.write_text(HANDWRITTEN.replace("role=transmitted", "role=reflected") + tap + "target = 1*j\n")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == "error: target declared but no transmitted port: no output has role=transmitted\n"


def test_limits_command_reports_convergence(capsys):
    code, out, _ = run_cli(capsys, "limits", str(GOLDEN), "--param", "s")
    assert code == 0
    assert "converged" in out


def test_limits_rejects_undeclared_parameter(capsys):
    code, _, err = run_cli(capsys, "limits", str(GOLDEN), "--param", "zz")
    assert code == 2
    assert "zz" in err


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "run", "/no/such/file.tls")[0] == 2
    assert run_cli(capsys, "protocols", "build", "bogus")[0] == 2
    assert run_cli(capsys, "run", str(GOLDEN), "--param", "not-an-assignment")[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_one_parser_serves_every_call_of_a_process(capsys):
    """The parser is built once; a parse, a usage error or --help leaves it as it was."""
    calls = [
        ("limits", str(GOLDEN), "--param", "s", "--format", "machine"),
        ("run", str(GOLDEN), "--format", "yaml"),
        ("protocols", "--help"),
        ("run", str(GOLDEN), "--param", "s=0.7", "--param", "s=0.8", "--format", "machine"),
        ("run", str(GOLDEN), "--format", "machine"),
    ]
    first = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, *_ in first] == [0, 2, 0, 0, 0]
    assert telesim.cli._make_parser() is telesim.cli._make_parser()
    assert [run_cli(capsys, *argv) for argv in calls] == first


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "argv, code, handled",
    [
        (("verify", str(GOLDEN)), 0, True),
        (("verify", str(CLONING)), 1, True),
        (("run", "{tmp}/bad.tls"), 2, True),  # parse error
        (("run", "/no/such/file.tls"), 2, True),  # usage error
        (("protocols", "build", "delayed_telefilter", "--out", "{tmp}"), 2, True),
        (("--help",), 0, False),
        (("frobnicate",), 2, False),
    ],
    ids=["pass", "fail", "parse-error", "usage-error", "write-error", "help", "unknown-command"],
)
def test_the_collector_is_paused_for_the_command_and_restored_on_every_exit(
    tmp_path, capsys, monkeypatch, collecting, argv, code, handled
):
    (tmp_path / "bad.tls").write_text("output x = nosuch\n")
    seen = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording_parse_args(self, *args, **kwargs):
        parsed = parse_args(self, *args, **kwargs)
        handler = parsed.handler

        def recording_handler(namespace):
            seen.append(gc.isenabled())
            return handler(namespace)

        parsed.handler = recording_handler
        return parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert run_cli(capsys, *argv)[0] == code
        assert gc.isenabled() is collecting
        assert seen == ([False] if handled else [])
        # an exception that escapes every handler restores the state too
        monkeypatch.setattr(telesim.cli, "_load_protocol", _raise_runtime_error)
        with pytest.raises(RuntimeError):
            main(["verify", str(GOLDEN)])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def _raise_runtime_error(*args):
    raise RuntimeError("escapes")


def test_parse_errors_exit_2_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.tls"
    bad.write_text("mode vacuum v rail=r bin=0\noutput x = nosuch\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "line 2" in err and "column 12" in err


def test_a_bin_past_the_integer_string_limit_is_a_located_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tls"
    bad.write_text("mode vacuum v rail=r bin=" + "1" * 4301 + "\noutput o = v\n")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: integer bin too long: 4301 digits (line 1, column 26)")
    assert "Traceback" not in err


def _child(*argv):
    # the child imports the same telesim as this process, installed or not
    package_root = str(Path(telesim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, path]))},
    )


def test_console_entry_point():
    proc = _child("-m", "telesim.cli", "protocols", "list")
    assert proc.returncode == 0
    assert "nodelay_telemirror" in proc.stdout


STARTUP = """
import contextlib, io, json, sys
import telesim, telesim.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [telesim.cli.main([command, sys.argv[1], "--format", "machine"])
             for command in ("run", "verify", "limits")]
seen = {"codes": codes, "loaded": "telesim.protocols" in sys.modules}
seen["listed"] = sorted({"PROTOCOLS", "build", "protocol_text"} & set(dir(telesim)))
seen["text"] = telesim.protocol_text("delayed_telefilter")
from telesim import PROTOCOLS, build
seen["build"] = build is telesim.protocols.build and PROTOCOLS is telesim.protocols.PROTOCOLS
try:
    telesim.nope
except AttributeError as exc:
    seen["nope"] = str(exc)
print(json.dumps(seen))
"""


def test_run_verify_and_limits_never_load_the_protocol_builders():
    # start-up compiles every module a command imports; the builders load on first use
    proc = _child("-c", STARTUP, str(GOLDEN))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["codes"] == [0, 0, 0]
    assert seen["loaded"] is False
    assert seen["listed"] == ["PROTOCOLS", "build", "protocol_text"]
    assert seen["text"] == GOLDEN.read_text()
    assert seen["build"] is True
    assert seen["nope"] == "module 'telesim' has no attribute 'nope'"


def test_too_deep_circuit_exits_2_with_a_message(capsys, monkeypatch):
    import telesim.cli as cli

    def too_deep(path, env):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_load_protocol", too_deep)
    code, out, err = run_cli(capsys, "verify", str(GOLDEN))
    assert code == 2
    assert out == ""
    assert err.startswith("error: circuit too deep to evaluate")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, scale",
    [
        (("verify", str(MIRROR), "--param", "r=1e308"), None),
        (("run", str(MIRROR), "--param", "r=1e6"), None),
        (("verify", str(MIRROR)), "1e6"),
        (("verify", str(GOLDEN_DIR / "nodelay_telefilter.tls"), "--param", "s=800"), None),
    ],
    ids=["verify-r-1e308", "run-r-1e6", "verify-scale-1e6", "verify-oracle-gain-800"],
)
def test_out_of_range_bindings_exit_2_with_a_message(capsys, monkeypatch, argv, scale):
    if scale is not None:
        monkeypatch.setenv("TELESIM_LIMIT_SCALE", scale)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_an_oracle_gain_past_float64_names_its_statement(capsys):
    # a binding pins the infinite s, so the oracle's probe no longer caps it;
    # cosh(800) overflows a double
    path = GOLDEN_DIR / "nodelay_telefilter.tls"
    code, out, err = run_cli(capsys, "verify", str(path), "--param", "s=800")
    assert (code, out) == (2, "")
    assert err == "error: gain 800.0 beyond the float64 oracle's range (line 9, column 1)\n"


@pytest.mark.parametrize(
    "argv, scale",
    [
        (("run", str(MIRROR), "--param", "r=1e6"), None),
        (("verify", str(MIRROR)), "1e6"),
    ],
    ids=["run-r-1e6", "verify-scale-1e6"],
)
def test_out_of_range_limit_tables_exit_2_under_every_hash_seed(argv, scale):
    # regression: complex abs() of inf - inf raised or returned NaN depending
    # on a stale errno, so the exit code followed the hash seed
    package_root = str(Path(telesim.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "TELESIM_LIMIT_SCALE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    if scale is not None:
        env["TELESIM_LIMIT_SCALE"] = scale
    results = [
        subprocess.run(
            [sys.executable, "-m", "telesim.cli", *argv],
            capture_output=True,
            text=True,
            env={**env, "PYTHONHASHSEED": seed},
        )
        for seed in ("1", "2")
    ]
    for proc in results:
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: number out of range")
    assert results[0].stderr == results[1].stderr


def test_out_of_memory_exits_2_with_a_message(capsys, monkeypatch):
    import telesim.cli as cli

    def exhausted(path, env):
        raise MemoryError

    monkeypatch.setattr(cli, "_load_protocol", exhausted)
    code, out, err = run_cli(capsys, "verify", str(GOLDEN))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_undeclared_param_binding_exits_2(capsys, command):
    code, out, err = run_cli(capsys, command, str(MIRROR), "--param", "nosuch=1")
    assert (code, out, err) == (2, "", "error: circuit declares no parameter 'nosuch'\n")


def test_limits_without_a_scale_parameter_exits_2(capsys):
    code, out, err = run_cli(capsys, "limits", str(ACAUSAL))
    assert (code, out, err) == (2, "", "error: no scale parameters given and none declared infinite\n")


def test_limits_reports_its_usage_errors_in_order(tmp_path, capsys, monkeypatch):
    # the scale variable first, then the file, then the parameter names
    missing = str(tmp_path / "missing.tls")
    monkeypatch.setenv("TELESIM_LIMIT_SCALE", "-1")
    code, _, err = run_cli(capsys, "limits", missing, "--param", "nosuch")
    assert code == 2 and "TELESIM_LIMIT_SCALE must be a finite number above zero" in err
    monkeypatch.delenv("TELESIM_LIMIT_SCALE")
    code, _, err = run_cli(capsys, "limits", missing, "--param", "nosuch")
    assert code == 2 and err.startswith(f"error: cannot read {missing}")
    code, out, err = run_cli(capsys, "limits", str(MIRROR), "--param", "nosuch")
    assert (code, out, err) == (2, "", "error: circuit declares no parameter 'nosuch'\n")


def test_a_non_numeric_binding_exits_2(capsys):
    path = GOLDEN_DIR / "atemporal_telefilter.tls"
    code, out, err = run_cli(capsys, "run", str(path), "--param", "s=abc")
    assert code == 2
    assert out == ""
    assert "parameter 's' needs a finite numeric value, got 'abc'" in err


GOLDENS = sorted(GOLDEN_DIR.glob("*.tls"))


@pytest.mark.parametrize(
    "path, binding, scale",
    [(path, "s=nan", None) for path in GOLDENS]
    + [(GOLDEN_DIR / "atemporal_telefilter.tls", b, None) for b in ("s=inf", "s=1e400")]
    + [(path, None, "nan") for path in GOLDENS]
    # at scale 0, L and 2L are one binding; below it, an invalid one
    + [(GOLDEN_DIR / "atemporal_telefilter.tls", None, scale) for scale in ("0", "-5")],
    ids=lambda v: v.stem if isinstance(v, Path) else v,
)
def test_non_finite_bindings_exit_2(capsys, monkeypatch, path, binding, scale):
    # NaN fails every tolerance comparison, so it used to pass every check
    if scale is not None:
        monkeypatch.setenv("TELESIM_LIMIT_SCALE", scale)
    argv = ["verify", str(path)] + (["--param", binding] if binding else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "finite" in err
    assert "Traceback" not in err


def test_limits_takes_each_parameter_once(capsys):
    code, out, _ = run_cli(capsys, "limits", str(MIRROR), "--param", "r", "--param", "r")
    assert code == 0
    assert "limits: r -> infinity" in out
