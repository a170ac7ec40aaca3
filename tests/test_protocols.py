"""Protocol registry: built-in circuits, argument handling, timing metadata."""

import hashlib
import math
from pathlib import Path

import pytest

from telesim.circuit import evaluate_circuit
from telesim.coeff import ParamEnv
from telesim.dsl import parse_circuit, serialize_circuit
from telesim.opalg import ModeEvaluator, ModeKind
from telesim.protocols import PROTOCOLS, _conj_phase_lit, _phase_unit, build, protocol_text
from telesim.verify import verify_suite

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


@pytest.mark.parametrize("name", ALL_NAMES)
def test_build_flags_name_the_golden_lines(name):
    # the library and the CLI see the same statements, locations included
    golden = evaluate_circuit(parse_circuit((GOLDEN_DIR / f"{name}.tls").read_text()))
    assert build(name).flags == golden.flags


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


def _q(k):
    """k*pi/4, on the angle grid for |k| <= 8."""
    return k * (math.pi / 4)


# sha256 of protocol_text for arguments beyond the defaults, taken before the
# builders shared one angle rule and one resource front. Every phase is on
# the grid; quadrature phases stay below 7*pi/4, whose p-phase leaves the
# grid, and the N-bin quadrature phases keep e^{-2iq} at the value the
# earlier N-bin forms assumed (1 delayed, -1 no-delay).
PINNED_TEXT = [
    ("atemporal_telefilter", {"gain_mode": "tanh"},
     "8d36911f7fc2b50086a7db8a77f85d96c559cc3defa96401e0f4123b04154daf"),
    ("atemporal_telemirror", {"gain_mode": "matched"},
     "32d61ff194094632c46fc3ddbc64578afcaa775f4e0ea28e57b247b95f5ab6e5"),
    ("delayed_telefilter", {"alpha": 0.3},
     "f734868104e963294c99b5fef3e0ab9755a4a851a0defb4b603e1776c74bdc5a"),
    ("delayed_telefilter", {"alpha": 0.2, "phi": _q(6)},
     "aebe99f0558287fbde7756eaf392db772354ce6ad7a5970aec62c444314649b9"),
    ("delayed_telefilter", {"phi": _q(2)},
     "32b9a411e0e8386fef2107d963ef0f50b41fb11131c77321cf6d015ba42c541d"),
    ("delayed_telefilter", {"phi": _q(-6)},
     "0b4f2f6f62e5f226084b90081683f32b58a9d00233245039b8cfe829a13ed763"),
    ("delayed_telefilter", {"phi": _q(8)},
     "17b14f9edfefc0e0584f5216508c1a7b21d55a1e995d844cbd14ac88bf256aaa"),
    ("delayed_telefilter", {"phi": _q(-8)},
     "7dc6fc59b7489230c79b8e569ac8825632c5e071eae8dd4582b21901ce5a8ee7"),
    ("delayed_telefilter", {"phi": _q(1), "alpha": 0.6},
     "bd66b8a776abc30c494520dd78ef2cd52028e52fa29ca0e50de1506fea3dcbcd"),
    ("delayed_telefilter", {"quad_phases": (_q(1), _q(-3))},
     "b6bb9318724f673349b49515138e8e2a3a0ffbaa4322c9c4a9b75c4dc8993fe2"),
    ("delayed_telefilter", {"quad_phases": (_q(-8), _q(4))},
     "075c95d7a16cb01488a7c8b71d137b1ec5bb241b08f5815ca3e7845def168bfd"),
    ("delayed_telefilter", {"alpha": 0.7, "quad_phases": (_q(6), _q(-2)), "gain_mode": "tanh"},
     "aac2b3962fbd8f02f4dbf80c837a49e9c58729998fe56c7e058fca238416c77d"),
    ("delayed_telefilter", {"alpha": 1.0, "quad_phases": (_q(-5), _q(3))},
     "e92c19deef7850aa112a3ba1319c73df21dad22a7da36f4c335b7fcdf98becd4"),
    ("delayed_telefilter", {"alpha": 0.0, "phi": _q(-7), "quad_phases": (_q(5), _q(-1))},
     "485fcf0a3c08d9b760fe172c50b79a7bd3722dc662ad2d2af61f941069bf82e8"),
    ("delayed_telemirror", {"alpha": 0.4},
     "5b40fe85a0a8e8e167e90854fbf32f6f3b68cf402047f985fde5b6b4915d174b"),
    ("delayed_telemirror", {"selection": "tuned"},
     "2b63c0b6f3a1d559ef04cf20c4e724aa3d78ffc74d27840db728cfbbffb19c9d"),
    ("delayed_telemirror", {"alpha": 0.3, "phi": _q(1)},
     "f7f86801daf2e53282f4a3a63bca785c7dfb01ae548691427d21d13025911818"),
    ("delayed_telemirror", {"alpha": 0.6, "phi_c2": _q(2)},
     "c5e9bdc803cab092abd018fd8454485711b27fb6b403069f31a10f58d3618c3e"),
    ("delayed_telemirror", {"phi": _q(-4), "phi_c2": _q(-1), "selection": "tuned"},
     "9a045b19110723ba148f323d7c109d5f7d7d0ea07bfa58b8a022bb4adb9a2753"),
    ("delayed_telemirror", {"phi": _q(8), "phi_c2": _q(-8)},
     "d35afdbda0a05620547a1e9aa41be273a147003cec7cf91b6f021077ee9833ac"),
    ("delayed_telemirror", {"alpha": 0.2, "phi": _q(-7), "phi_c2": _q(3)},
     "56b4d124f74c61b93a1e14ed432c8654415ffe5640719c38d61b4719735876e4"),
    ("delayed_telemirror", {"alpha": 0.9, "phi": _q(5), "phi_c2": _q(7)},
     "4749fde0a7310e7c687fbc8d3660f6c4332222b4ce1186cf5b6a3242af0b9010"),
    ("delayed_telemirror", {"alpha": 0.75, "phi": _q(6), "phi_c2": _q(6)},
     "e12250f2edb55e95ef382130f173b585790afd013039441348a523ad6d58f7d2"),
    ("delayed_telemirror", {"alpha": 0.5, "phi": _q(-8), "phi_c2": _q(8)},
     "cd9956236f86a837c9ee8c02018a8b4c931c85a3e0fe1dfae26f745b09ac142d"),
    ("nodelay_telefilter", {"alpha": 0.3},
     "6d47981bc2baf58fdec76a897a9ff1ee846968d4385a3fbd0cdadbcb3959b53d"),
    ("nodelay_telefilter", {"quad_phases": (_q(1), _q(2))},
     "be851b982d359859b8f1bbb6bd04b9aaafb877fe13703f60bc7c6a6f2a016b1c"),
    ("nodelay_telefilter", {"quad_phases": (_q(-8), _q(-7))},
     "5e9b6b2550ee1447d521bcb4bfe9944e1e20fab4f1a9827e3bf314e095cef158"),
    ("nodelay_telefilter", {"alpha": 0.8, "quad_phases": (_q(-3), _q(6))},
     "181cbb6aa15f6013a523a84c4f78eb9cebd35ed4b6e718ea4df6d9e4df11cda1"),
    ("nodelay_telefilter", {"alpha": 0.0, "quad_phases": (_q(4), _q(-4))},
     "bcb2b9f3e0c0b59e08586d7b3af9a9ca30addea72e44c5ab4766eb8f0bfce2d0"),
    ("nodelay_telefilter", {"alpha": 0.25, "quad_phases": (_q(5), _q(-6))},
     "5a8a93d59e700b4480ea247cfc553a6d7d1dfe06aded9ee58a5d85709e3e2947"),
    ("nodelay_telemirror", {"alpha": 0.3},
     "bdd9af140b7229c7e343dce05fe5626205d804fda36619edcaa60d10edb1a90e"),
    ("nodelay_telemirror", {"theta_minus": _q(1)},
     "eab7dc3b4fef8a71a56c33fa4d0c7d2416622793b873cd1059f3a134e57b2dff"),
    ("nodelay_telemirror", {"theta_plus": _q(-2)},
     "15ace9c145618bd7ec953342c98c132a957d12df223ad395c01c72d14308e271"),
    ("nodelay_telemirror", {"theta_minus": _q(2), "theta_plus": _q(2)},
     "08f12e549223d4374cf67d2a54b897bee3df11d4fc75a169bad4c42f290e9e14"),
    ("nodelay_telemirror", {"theta_minus": _q(4), "theta_plus": _q(-4)},
     "68abfe9e8f1b5d0a05e9dabe78bc48e41d645a60727939ed62ab2d37fa2141be"),
    ("nodelay_telemirror", {"alpha": 0.7, "theta_minus": _q(8), "theta_plus": _q(-8)},
     "503a40ba82d7b3760603bdcafa7eedd2b161c2008918f830677471c5ad7209ae"),
    ("nmode_delayed_telefilter", {"n": 2},
     "52feed54b1b763774ef4d7cef938ffb1a7921b847f67db55a551b2faa2e2b5d7"),
    ("nmode_delayed_telefilter", {"n": 4, "phis": (_q(1), _q(-3), _q(2))},
     "fe63bfd4602b3bdd84657bfad3b7250390bf8af674236cff5d1ab418ca35d1b1"),
    ("nmode_delayed_telefilter", {"n": 3, "alphas": (0.5, 0.25), "phis": (_q(8), _q(-8))},
     "93fbf2ae96d508cfbcc7425724f55f65d9c655fce8f9c50bd0a495f0d0a72a04"),
    ("nmode_delayed_telefilter", {"n": 4, "quad_phases": (_q(4), _q(0), _q(-4), _q(-8))},
     "fd4c94397e90a8af54584d9fdb526bc9855e03b6f52ab4553ac4ad46f2f5ccc6"),
    ("nmode_delayed_telefilter",
     {"n": 3, "phis": (_q(6), _q(-6)), "quad_phases": (_q(-4), _q(4), _q(0))},
     "db00284ce3d4bb0a2d6cf5522b1be6e01ac4159fb0eda59351e36f12e8ed169f"),
    ("nmode_delayed_telefilter",
     {"n": 5, "alphas": (0.5, 0.5, 0.5, 0.5), "phis": (_q(-5), _q(7), _q(0), _q(3))},
     "e66ca156773096ce28e9e273be4fd977eb247e134b067aa2e1fbdcbb69d1a74d"),
    ("nmode_nodelay_telefilter", {"n": 2},
     "84328cf078e248585ee34602788d795b5833f5e21d7056ce6c91bc5346c68271"),
    ("nmode_nodelay_telefilter", {"n": 4, "alphas": (0.5, 0.5, 0.5)},
     "49d0327d9dd3c13d49080a1b98fd61692b70ec9f33487bfe74b64eccafd368ba"),
    ("nmode_nodelay_telefilter", {"n": 3, "quad_phases": (_q(2), _q(-2), _q(6))},
     "af61c6f0111a37931d422b1818710f0945078bde38a13a0eac82b55f8317e0eb"),
    ("nmode_nodelay_telefilter", {"n": 5, "quad_phases": (_q(-6),) * 5},
     "3686f5a9323f6923d76db16f676883dc560c12431b73408ac490c63b6838733a"),
    ("nmode_nodelay_telefilter", {"n": 3, "alphas": (0.25, 1.0)},
     "f161348842c64740770cbb33ddad8b67dcc54ba24b2704a6050b7321729b291b"),
    ("nmode_delayed_telefilter", {"n": 8},
     "56ddf13fb1c988718bf8d269ffe466df571f147e422bea3132cab28526a4becf"),
    ("nmode_delayed_telefilter", {"n": 16},
     "31281c5182a7a11d05fe6a4863e4654f75c30c0b3fe3301663224b777148803a"),
    ("nmode_delayed_telefilter", {"n": 32},
     "9eb13bd0040337622e8716475fb2953b494df0943d642ceb7071f9381650ff54"),
    ("nmode_nodelay_telefilter", {"n": 8},
     "dcfb316589370522e6b2e18f94b2731c46e5597b70f988551693241a89b35d2e"),
    ("nmode_nodelay_telefilter", {"n": 16},
     "592935ddf4a2c9a4f0107319650092fc0193e8d22c80bcd4f32896b26706f620"),
    ("nmode_nodelay_telefilter", {"n": 32},
     "e0b8c1b22151166ce074234f0cca8a08d4397e89805e65d5f0b3b20f5d6ccd3a"),
]


@pytest.mark.parametrize("name, overrides, digest", PINNED_TEXT)
def test_builder_text_beyond_the_defaults_is_pinned(name, overrides, digest):
    assert hashlib.sha256(protocol_text(name, **overrides).encode()).hexdigest() == digest


FIVE_HALF_PI = 5 * math.pi / 2  # a right angle past the grid

OFF_GRID = [
    ("delayed_telefilter", {"alpha": 0.3, "quad_phases": (0.4, -0.3)}, "mode_selective"),
    ("delayed_telefilter", {"quad_phases": (FIVE_HALF_PI, 0.0)}, "mode_selective"),
    ("nodelay_telefilter", {"alpha": 0.3, "quad_phases": (0.4, -0.3)}, "mode_discriminating"),
    ("nodelay_telefilter", {"quad_phases": (0.0, FIVE_HALF_PI)}, "mode_discriminating"),
    ("nmode_delayed_telefilter", {"quad_phases": (0.4, -0.3, 0.2)}, "mode_selective"),
    ("nmode_delayed_telefilter",
     {"phis": (FIVE_HALF_PI, -1.2), "quad_phases": (0.0, FIVE_HALF_PI, 0.0)}, "mode_selective"),
    ("nmode_nodelay_telefilter", {"quad_phases": (0.4, -0.3, 0.2)}, "mode_discriminating"),
    ("nmode_nodelay_telefilter",
     {"alphas": (0.6, 0.3), "quad_phases": (FIVE_HALF_PI, -0.3, _q(-2))}, "mode_discriminating"),
    ("delayed_telemirror", {"alpha": 0.4, "phi": -1.2, "phi_c2": 0.3}, "mode_selective"),
    ("delayed_telemirror", {"alpha": 0.4, "phi": -1.2, "phi_c2": FIVE_HALF_PI}, "mode_selective"),
    ("nodelay_telemirror", {"theta_minus": _q(2), "theta_plus": _q(2)}, "mode_discriminating"),
    # off the standard phases the no-delay mirror declares no target
    ("nodelay_telemirror", {"theta_minus": 0.4, "theta_plus": FIVE_HALF_PI}, None),
]


@pytest.mark.parametrize("name, overrides, verdict", OFF_GRID)
def test_builders_pass_their_own_checks_off_the_grid(name, overrides, verdict):
    parsed = evaluate_circuit(parse_circuit(protocol_text(name, **overrides)))
    for po in (build(name, **overrides), parsed):
        suite = verify_suite(po)
        assert [check for check in suite.checks if not check[1]] == []
        assert (suite.selectivity and suite.selectivity.verdict) == verdict


@pytest.mark.parametrize("phi", [FIVE_HALF_PI, 3 * math.pi, 1e16, -1e16, 1e300])
def test_phases_past_the_grid_get_no_exact_unit(phi):
    # each double is a multiple of pi/2 in float arithmetic, but past the
    # grid the circuit carries it as a float literal, whose exact phase
    # factor is no unit
    assert _phase_unit(phi) is None
    assert _phase_unit(phi, 2) is None
    assert _conj_phase_lit(phi).startswith("exp(-i*")


NON_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize(
    "name, argument, overrides",
    [
        ("delayed_telefilter", "phi", lambda x: {"phi": x}),
        ("delayed_telefilter", "quad_phases", lambda x: {"quad_phases": (0.0, x)}),
        ("nmode_delayed_telefilter", "phis", lambda x: {"phis": [x, 0.0]}),
        ("nmode_delayed_telefilter", "quad_phases", lambda x: {"quad_phases": [0.0, x, 0.0]}),
        ("delayed_telemirror", "phi", lambda x: {"phi": x}),
        ("delayed_telemirror", "phi_c2", lambda x: {"phi_c2": x}),
        ("nodelay_telefilter", "quad_phases", lambda x: {"quad_phases": (x, 0.0)}),
        ("nodelay_telemirror", "theta_minus", lambda x: {"theta_minus": x}),
        ("nodelay_telemirror", "theta_plus", lambda x: {"theta_plus": x}),
    ],
)
def test_builders_reject_non_finite_angles_by_name(name, argument, overrides, value):
    with pytest.raises(ValueError, match=f"^{argument} must be finite; got {value}$"):
        build(name, **overrides(value))


def test_phases_on_the_grid_get_exact_units():
    for k in range(-8, 9):
        assert _phase_unit(_q(k), 2) == (1, -1j, -1, 1j)[k % 4]
        assert _phase_unit(_q(k)) == (None if k % 2 else (1, -1j, -1, 1j)[k // 2 % 4])
