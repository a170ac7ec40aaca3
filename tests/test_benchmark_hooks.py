"""The benchmark's tracing hooks still reach the functions they wrap.

``perfbench/tracing.py`` replaces telesim functions by name. A renamed or
bypassed function would otherwise show up only as a failed benchmark run,
so this installs the tracer around one ``verify`` and checks that every
span fired and both evaluator counters counted. The module is executed
from its source text, which writes nothing under ``perfbench/``.
"""

import types
from pathlib import Path

from telesim import cli

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
    assert tracer.counts["coeff.eval_misses"] > 0  # Evaluator._eval
    assert tracer.counts["coeff.evaluators"] > 0  # Evaluator.__init__
