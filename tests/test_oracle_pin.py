"""Covariance-oracle variances pinned bit for bit.

Reports print the oracle's relative gap to three digits, so a last-bit
change in its float64 row algebra would not show there. Every quantum port
of the 9 goldens and of the 8-bin delayed telefilter is pinned here as
``float.hex`` of ``CovarianceRecord.variance`` at phases 0, pi/2 and 0.3,
under the circuit's own binding and two seeded ones (each limit parameter
drawn from U(0.1, 2.2)). A change that means to alter these bits
regenerates the fixture and says so:

    PYTHONPATH=src python tests/test_oracle_pin.py --regenerate
"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

from telesim.circuit import evaluate_circuit
from telesim.dsl import parse_circuit
from telesim.protocols import protocol_text
from telesim.verify import covariance_oracle

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE.parents[0] / "src" / "telesim" / "golden"
FIXTURE = HERE / "fixtures" / "oracle_variances.json"
NBIN = 8
SOURCES = sorted(path.stem for path in GOLDEN_DIR.glob("*.tls")) + [
    f"nmode_delayed_telefilter_n{NBIN}"
]
PHASES = {"0": 0.0, "pi/2": math.pi / 2, "0.3": 0.3}
SEEDS = (1, 2)


def _protocol(source: str):
    if source == f"nmode_delayed_telefilter_n{NBIN}":
        text = protocol_text("nmode_delayed_telefilter", n=NBIN)
    else:
        text = (GOLDEN_DIR / f"{source}.tls").read_text(encoding="utf-8")
    return evaluate_circuit(parse_circuit(text))


def _variances(source: str) -> dict[str, str]:
    """float.hex of every (binding, port, phase) variance of one source."""
    protocol = _protocol(source)
    bindings = {"root": protocol.env}
    for seed in SEEDS:
        rng = random.Random(f"oracle:{source}:{seed}")
        draw = {p: rng.uniform(0.1, 2.2) for p in sorted(protocol.limit_params)}
        bindings[f"seed {seed}"] = protocol.env.bind(**draw)
    got = {}
    for label, env in bindings.items():
        record = covariance_oracle(protocol.circuit, env)
        for port in record.ports:
            for phase_label, phase in PHASES.items():
                key = f"{source} | {label} | {port} | {phase_label}"
                got[key] = record.variance(port, phase).hex()
    return got


def test_every_source_is_pinned():
    pinned = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert len(SOURCES) == 10
    assert {key.split(" | ")[0] for key in pinned} == set(SOURCES)


@pytest.mark.parametrize("source", SOURCES)
def test_oracle_variances_are_bit_identical(source):
    pinned = json.loads(FIXTURE.read_text(encoding="utf-8"))
    want = {key: value for key, value in pinned.items() if key.startswith(f"{source} | ")}
    assert want and _variances(source) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(__doc__)
    table = {}
    for source in SOURCES:
        table.update(_variances(source))
    FIXTURE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
