"""Protocol registry: built-in circuits, argument handling, timing metadata."""

from pathlib import Path

import pytest

from telesim.circuit import evaluate_circuit
from telesim.coeff import ParamEnv
from telesim.dsl import parse_circuit, serialize_circuit
from telesim.opalg import ModeEvaluator, ModeKind
from telesim.protocols import PROTOCOLS, build, protocol_text

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "src" / "telesim" / "golden"

ALL_NAMES = [
    "atemporal_telefilter",
    "atemporal_telemirror",
    "delayed_telefilter",
    "delayed_telemirror",
    "nodelay_telefilter",
    "nodelay_telemirror",
    "nodelay_independent",
    "nmode_delayed_telefilter",
    "nmode_nodelay_telefilter",
]


def test_registry_contents():
    assert sorted(PROTOCOLS) == sorted(ALL_NAMES)
    for name, builder in PROTOCOLS.items():
        assert builder.__name__ == f"build_{name}"
        assert builder.__doc__.partition("\n")[0]  # the summary `protocols list` shows


def test_unknown_protocol_and_arguments_are_rejected():
    with pytest.raises(ValueError, match="unknown protocol"):
        build("nope")
    with pytest.raises(ValueError, match="no argument 'nonsense'"):
        build("atemporal_telefilter", nonsense=1)
    with pytest.raises(ValueError, match="gain_mode must be one of"):
        build("atemporal_telefilter", gain_mode="bogus")
    with pytest.raises(ValueError, match="n must be an integer"):
        build("nmode_delayed_telefilter", n=3.5)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_protocol_builds_with_analysis_metadata(name):
    po = build(name)
    assert po.name == name
    assert po.target is not None
    assert po.expected_limit
    assert po.limit_params
    # taps are excluded from the unitary port set
    for tap in po.taps:
        assert tap not in po.quantum_ports()
        assert tap in po.all_ports()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_goldens_are_the_builders_circuits(name):
    """Each golden is its builder's circuit, oracle included. Regenerate all with

    PYTHONPATH=src python -c "from telesim.protocols import PROTOCOLS, protocol_text; [open(f'src/telesim/golden/{n}.tls', 'w').write(protocol_text(n)) for n in PROTOCOLS]"
    """
    assert (GOLDEN_DIR / f"{name}.tls").read_text() == protocol_text(name)


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("delayed_telemirror", {"alpha": 0.4, "phi": -1.2, "phi_c2": 0.3}),
        ("delayed_telefilter", {"alpha": 0.3, "quad_phases": (0.1, -0.2)}),
        ("nodelay_telefilter", {"alpha": 0.7, "quad_phases": (0.4, 0.0)}),
        ("nmode_delayed_telefilter", {"n": 5, "phis": (-1.0, 0.5, -1.5708, 2.0)}),
    ],
)
def test_limit_form_weights_survive_the_text_exactly(name, overrides):
    # complex and irrational weights are spelled as the builder's doubles, so
    # the re-parsed target and limit forms evaluate to the same 160 digits
    built = build(name, **overrides)
    text = protocol_text(name, **overrides)
    assert serialize_circuit(parse_circuit(text)) == text
    parsed = evaluate_circuit(parse_circuit(text))
    forms = {"target": built.target, **built.expected_limit}
    again = {"target": parsed.target, **parsed.expected_limit}
    assert list(again) == list(forms)
    session = ModeEvaluator(built.env)
    for port, form in forms.items():
        assert session.table(again[port]) == session.table(form), port


@pytest.mark.parametrize("name", ALL_NAMES)
def test_protocol_text_round_trips_and_rebuilds(name):
    text = protocol_text(name)
    ast = parse_circuit(text)
    assert serialize_circuit(ast) == text
    po = evaluate_circuit(ast)
    assert set(po.all_ports()) == set(build(name).all_ports())


def test_signal_bins_count_from_one():
    po = build("delayed_telefilter")
    bins = {m.name: m.time_bin for m in po.input_registry if m.kind is ModeKind.SIGNAL}
    assert bins == {"j1": 1, "j2": 2}
    seeds = {m.time_bin for m in po.input_registry if m.kind is ModeKind.ENTANGLEMENT_SEED}
    assert seeds == {0}
    # mirrors carry the orthogonal input content as explicit wires
    po = build("delayed_telemirror")
    bins = {m.name: m.time_bin for m in po.input_registry if m.kind is ModeKind.SIGNAL}
    assert bins == {"j1": 1, "j1_perp": 1, "j2": 2, "j2_perp": 2}
    po = build("nmode_delayed_telefilter", n=5)
    bins = {m.name: m.time_bin for m in po.input_registry if m.kind is ModeKind.SIGNAL}
    assert bins == {f"j{k}": k for k in range(1, 6)}


def test_tap_timing_separates_delayed_from_no_delay():
    timing = build("delayed_telefilter").port_bins["bin1_out"]
    assert (timing.slot_bin, timing.emission_bin) == (1, 2)
    timing = build("nodelay_telefilter").port_bins["bin1_out"]
    assert (timing.slot_bin, timing.emission_bin) == (1, 1)
    timing = build("nmode_delayed_telefilter", n=4).port_bins["bin1_out"]
    assert (timing.slot_bin, timing.emission_bin) == (1, 4)


def test_argument_overrides_are_echoed():
    po = build("delayed_telefilter", alpha=0.3, quad_phases=(0.1, -0.2))
    assert po.protocol_args["alpha"] == 0.3
    assert po.protocol_args["quad_phases"] == (0.1, -0.2)
    po = build("nmode_nodelay_telefilter", n=4)
    assert po.protocol_args["n"] == 4 and isinstance(po.protocol_args["n"], int)
    assert len(po.protocol_args["alphas"]) == 3


def test_nmode_default_schedule_is_balanced():
    # defaults split each step so every bin gets equal weight
    po = build("nmode_delayed_telefilter", n=4)
    assert po.protocol_args["alphas"] == pytest.approx((3 / 4, 2 / 3, 1 / 2))


def test_delayed_mirror_auto_selection():
    assert build("delayed_telemirror").protocol_args["selection"] == "symmetric"
    po = build("delayed_telemirror", alpha=0.4)
    assert po.protocol_args["selection"] == "tuned"


def test_target_is_normalized():
    for name in ALL_NAMES:
        po = build(name)
        env = ParamEnv({p: 1.0 for p in po.limit_params})
        tab = ModeEvaluator(env).table(po.target)
        norm = sum(abs(complex(c)) ** 2 + abs(complex(d)) ** 2 for c, d in tab.values())
        assert norm == pytest.approx(1.0, abs=1e-12), name
