"""The benchmark's tracing hooks still reach the functions they wrap.

``perfbench/tracing.py`` replaces telesim functions by name. A renamed or
bypassed function would otherwise show up only as a failed benchmark run,
so this installs the tracer around one ``verify`` and around the library
calls of the ``sweep`` workload, and checks that the spans fired and both
evaluator counters counted. The module is executed from its source text,
which writes nothing under ``perfbench/``.
"""

import types
from pathlib import Path

import pytest

import telesim
from telesim import cli, evaluate_circuit, parse_circuit

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
GOLDEN = ROOT / "src" / "telesim" / "golden" / "delayed_telefilter.tls"


def _load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_span_and_counter_fires(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # through the module: the tracer replaces cli.main there
        assert cli.main(["verify", str(GOLDEN)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert [name for name, fired in tracer.fires.items() if not fired] == []
    assert tracer.counts["coeff.eval_misses"] > 0  # passes: Evaluator._eval
    assert tracer.counts["coeff.evaluators"] > 0  # Evaluator.__init__


def test_the_sweep_library_path_counts_runs_and_instructions():
    # perfbench's sweep workload: library calls under a bare ParamEnv
    protocol = evaluate_circuit(parse_circuit(GOLDEN.read_text(encoding="utf-8")))
    env = protocol.env.bind(**{p: 1.3 for p in protocol.limit_params})
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        telesim.check_bogoliubov(protocol.quantum_ports(), env)
        record = telesim.covariance_oracle(protocol.circuit, env)
        for name, expr in protocol.all_ports().items():
            assert telesim.quadrature_variance(expr, 0.0, env) == pytest.approx(
                record.variance(name, 0.0), rel=1e-10
            )
    finally:
        tracer.uninstall()
    assert tracer.fires["coeff.eval"] > 0
    assert tracer.fires["verify.bogoliubov"] == tracer.fires["verify.oracle"] == 1
    assert tracer.counts["coeff.eval_misses"] > 0  # passes run: Evaluator._eval
    # runs (Evaluator.__init__): the session's and the oracle's
    assert tracer.counts["coeff.evaluators"] == 2
