"""End-to-end acceptance checks, one numbered criterion per test group.

Expected coefficient structures are frozen here as literal linear forms over
the declared input modes; nothing is read back from the builders' own
expected_limit tables. Where a form is claimed exactly, the expectation
weights are built as coefficient trees rather than floats, so both sides of
the comparison evaluate in extended precision and the assertion threshold
can sit far below double rounding.
"""

import cmath
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from telesim.circuit import CircuitError, evaluate_circuit
from mpmath.libmp import fzero, mpc_sub

from telesim.coeff import MP, Call, Num, ParamEnv, cosh, sinh, sqrt, to_complex
from telesim.dsl import ParseError, parse_circuit, serialize_circuit
from telesim.elements import apply_inverse_squeezer
from telesim.opalg import (
    ModeEvaluator,
    dagger,
    input_mode,
    lin_comb,
    quadrature_variance,
)
from telesim.protocols import PROTOCOLS, build
from telesim.verify import (
    causality_report,
    check_bogoliubov,
    covariance_oracle,
    selectivity_report,
    signaling_test,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "src" / "telesim" / "golden"
ACAUSAL = Path(__file__).resolve().parent / "fixtures" / "acausal.tls"

RT2 = 1 / math.sqrt(2)
EXACT = 1e-20  # structural identities; actual residuals sit at precision noise


def seeds(po):
    return {m.name: input_mode(m) for m in po.input_registry}


def epr_halves(sd, s):
    ch, sh = cosh(Num(s)), sinh(Num(s))
    a0 = lin_comb([(ch, sd["e1"]), (sh, dagger(sd["e2"]))])
    b0 = lin_comb([(ch, sd["e2"]), (sh, dagger(sd["e1"]))])
    return a0, b0


def residual(po, port, expected, env):
    """Largest coefficient distance between a port and an expected form, each
    difference taken at MP's precision before it becomes a double."""
    ev = ModeEvaluator(env)
    have, want = ev.table(po.all_ports()[port]), ev.table(expected)
    zeros = ((fzero, fzero),) * 2
    worst = 0.0
    for mid in set(have) | set(want):
        for h, w in zip(have.get(mid, zeros), want.get(mid, zeros)):
            worst = max(worst, abs(to_complex(mpc_sub(h, w, *MP._prec_rounding))))
    return worst


def scale_env(po, value=20.0):
    return ParamEnv({p: value for p in po.limit_params})


# --- 1 -----------------------------------------------------------------


@pytest.mark.criterion(1, "atemporal telefilter is the identity at high squeezing")
def test_unity_filter_transmits_the_addressed_mode():
    po = build("atemporal_telefilter")
    sd = seeds(po)
    worst = residual(po, "filtered", sd["j0"], scale_env(po))
    assert worst <= 1e-8


# --- 2 -----------------------------------------------------------------


@pytest.mark.criterion(2, "finite-squeezing filter and mirror closed forms")
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_tanh_filter_coefficients(s):
    po = build("atemporal_telefilter", gain_mode="tanh")
    sd = seeds(po)
    want = lin_comb([(Call("tanh", Num(s)), sd["j0"]), (Call("sech", Num(s)), sd["e2"])])
    assert residual(po, "filtered", want, ParamEnv({"s": s})) <= 1e-12


@pytest.mark.criterion(2, "finite-squeezing filter and mirror closed forms")
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_matched_mirror_coefficients(s):
    po = build("atemporal_telemirror", gain_mode="matched")
    sd = seeds(po)
    den = sqrt(Num(3) + cosh(Num(2 * s)))
    want = lin_comb(
        [
            (sqrt(Num(2)) * cosh(Num(s)) / den, sd["j0"]),
            (-sqrt(Num(2)) / den, sd["e2"]),
        ]
    )
    assert residual(po, "mirror_out", want, ParamEnv({"s": s})) <= 1e-12


# --- 3 -----------------------------------------------------------------


@pytest.mark.criterion(3, "all-optical mirror transmission and reflected recovery")
@pytest.mark.parametrize("r, s", [(0.7, 1.1), (1.9, 0.4)])
def test_mirror_transmission_is_exact_at_finite_squeezing(r, s):
    po = build("atemporal_telemirror")
    sd = seeds(po)
    a0, b0 = epr_halves(sd, s)
    th = Call("tanh", Num(r))
    want = lin_comb([(1, sd["j0"]), (-th, b0), (th, dagger(a0))])
    assert residual(po, "mirror_out", want, ParamEnv({"r": r, "s": s})) <= EXACT


@pytest.mark.criterion(3, "all-optical mirror transmission and reflected recovery")
def test_mirror_limit_and_recovery_chain():
    po = build("atemporal_telemirror")
    sd = seeds(po)
    env = scale_env(po)
    assert residual(po, "mirror_out", sd["j0"], env) <= 1e-8
    # three-step decode lands on the seeds
    assert residual(po, "recovered_1", sd["e1"], env) <= 1e-8
    assert residual(po, "recovered_2", sd["e2"], env) <= 1e-8
    # its intermediate pair carries the (5/4, -3/4) structure
    p1, p2 = apply_inverse_squeezer(
        po.all_ports()["recovered_1"], po.all_ports()["recovered_2"], math.acosh(5 / 4)
    )
    ev = ModeEvaluator(env)
    by_name = {m.name: entry for m, entry in ev.floats(p1).items()}
    assert by_name["e1"][0] == pytest.approx(5 / 4, abs=1e-8)
    assert by_name["e2"][1] == pytest.approx(-3 / 4, abs=1e-8)
    by_name = {m.name: entry for m, entry in ev.floats(p2).items()}
    assert by_name["e2"][0] == pytest.approx(5 / 4, abs=1e-8)
    assert by_name["e1"][1] == pytest.approx(-3 / 4, abs=1e-8)


@pytest.mark.criterion(3, "all-optical mirror transmission and reflected recovery")
@pytest.mark.parametrize("r, s", [(0.7, 1.1), (1.9, 0.4)])
def test_single_squeeze_decode_equals_the_three_step_chain(r, s):
    # one squeezer at gain r + s - arccosh(5/4) reproduces the whole chain
    po = build("atemporal_telemirror")
    env = ParamEnv({"r": r, "s": s})
    ports = po.all_ports()
    for direct, chained in [
        ("recovered_1_direct", "recovered_1"),
        ("recovered_2_direct", "recovered_2"),
    ]:
        gap = residual(po, direct, ports[chained], env)
        assert gap <= 1e-12
    env = scale_env(po)
    sd = seeds(po)
    assert residual(po, "recovered_1_direct", sd["e1"], env) <= 1e-8
    assert residual(po, "recovered_2_direct", sd["e2"], env) <= 1e-8


@pytest.mark.criterion(3, "all-optical mirror transmission and reflected recovery")
def test_mirror_reflects_the_orthogonal_component():
    po = build("atemporal_telemirror")
    sd = seeds(po)
    # admixture of anything else converges to exactly zero
    env = scale_env(po)
    assert residual(po, "reflected_perp", sd["j_perp"], env) <= 1e-8
    gap = lin_comb([(1, po.all_ports()["reflected_perp"]), (-1, sd["j_perp"])])
    from telesim.verify import limit_coefficients

    res = limit_coefficients(gap, po.limit_params, po.env)
    assert res.converged and res.limit == {}


# --- 4 -----------------------------------------------------------------


@pytest.mark.criterion(4, "delayed two-bin filter selects the superposition")
def test_delayed_filter_per_bin_and_recombined_forms():
    po = build("delayed_telefilter")
    sd = seeds(po)
    s = 1.0
    env = ParamEnv({"s": s})
    a0, b0 = epr_halves(sd, s)
    ent = lin_comb([(1, b0), (-1, dagger(a0))])
    half = 0.5
    rt2 = 1 / sqrt(Num(2))
    for port, u_sign in (("bin1_out", 1), ("bin2_out", -1)):
        want = lin_comb(
            [
                (half, sd["j1"]),
                (half, sd["j2"]),
                (u_sign * rt2, sd["u0"]),
                (rt2, ent),
            ]
        )
        assert residual(po, port, want, env) <= EXACT, port
    want_sel = lin_comb([(rt2, sd["j1"]), (rt2, sd["j2"]), (1, ent)])
    assert residual(po, "selected", want_sel, env) <= EXACT
    assert residual(po, "orthogonal", sd["u0"], env) <= EXACT


@pytest.mark.criterion(4, "delayed two-bin filter selects the superposition")
def test_delayed_filter_arbitrary_weights_and_phase_grid():
    s = 0.8
    worst = 0.0
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        for p1, p2 in [(0.0, 0.0), (0.4, -0.3), (-1.1, 0.9), (2.2, 1.7), (-2.8, -0.6)]:
            po = build("delayed_telefilter", alpha=alpha, quad_phases=(p1, p2))
            sd = seeds(po)
            env = ParamEnv({"s": s})
            a0, b0 = epr_halves(sd, s)
            want = lin_comb(
                [
                    (cmath.exp(-2j * p1) * math.sqrt(1 - alpha), sd["j1"]),
                    (cmath.exp(-2j * p2) * math.sqrt(alpha), sd["j2"]),
                    (1, b0),
                    (-1, dagger(a0)),
                ]
            )
            worst = max(worst, residual(po, "selected", want, env))
            worst = max(worst, residual(po, "orthogonal", sd["u0"], env))
    assert worst <= 1e-12


# --- 5 -----------------------------------------------------------------


@pytest.mark.criterion(5, "delayed two-bin mirror output block and orthogonal rail")
def test_symmetric_delayed_mirror_limit_block():
    po = build("delayed_telemirror")
    sd = seeds(po)
    env = scale_env(po)
    want_sel = lin_comb([(-RT2, sd["j1"]), (-RT2, sd["j2"])])
    assert residual(po, "selected", want_sel, env) <= 1e-8
    assert residual(po, "orthogonal", sd["u0"], env) <= 1e-8
    want_rec2 = lin_comb([(RT2, sd["j1"]), (-RT2, sd["j2"])])
    assert residual(po, "recovered_1", sd["v0"], env) <= 1e-8
    assert residual(po, "recovered_2", want_rec2, env) <= 1e-8
    assert residual(po, "recovered_3", sd["e1"], env) <= 1e-8
    assert residual(po, "recovered_4", sd["e2"], env) <= 1e-8


@pytest.mark.criterion(5, "delayed two-bin mirror output block and orthogonal rail")
@pytest.mark.parametrize("r, s", [(0.9, 1.2), (1.5, 0.6)])
def test_delayed_mirror_orthogonal_rail_is_exact_at_finite_squeezing(r, s):
    po = build("delayed_telemirror")
    sd = seeds(po)
    env = ParamEnv({"r": r, "s": s})
    quadruple = [
        ("recovered_1_perp", "e2_perp"),
        ("recovered_2_perp", "v_perp"),
        ("recovered_3_perp", "j1_perp"),
        ("recovered_4_perp", "j2_perp"),
    ]
    for port, mode_name in quadruple:
        assert residual(po, port, sd[mode_name], env) <= EXACT, port
    # the undelayed reflected records are exact at finite squeezing too
    assert residual(po, "recovered_1", sd["v0"], env) <= EXACT
    rt2 = 1 / sqrt(Num(2))
    want_rec2 = lin_comb([(rt2, sd["j1"]), (-rt2, sd["j2"])])
    assert residual(po, "recovered_2", want_rec2, env) <= EXACT


@pytest.mark.criterion(5, "delayed two-bin mirror output block and orthogonal rail")
@pytest.mark.parametrize(
    "alpha, phi, phi_c2",
    [(0.3, -0.7, 0.4), (0.62, 1.9, -1.3), (0.5, -math.pi / 2, 0.0), (0.81, 2.6, 2.2)],
)
def test_tuned_delayed_mirror_arbitrary_selection(alpha, phi, phi_c2):
    po = build("delayed_telemirror", alpha=alpha, phi=phi, phi_c2=phi_c2, selection="tuned")
    sd = seeds(po)
    env = scale_env(po)
    sa, ca = math.sqrt(1 - alpha), math.sqrt(alpha)
    rot = cmath.exp(-1j * phi)
    want_sel = lin_comb([(1j * rot * sa, sd["j1"]), (-ca, sd["j2"])])
    assert residual(po, "selected", want_sel, env) <= 1e-8
    assert residual(po, "orthogonal", sd["u0"], env) <= 1e-8
    want_r1 = lin_comb([(-1j / rot, sd["v0"])])
    want_r2 = lin_comb([(1j * rot * ca, sd["j1"]), (sa, sd["j2"])])
    assert residual(po, "recovered_1", want_r1, env) <= 1e-8
    assert residual(po, "recovered_2", want_r2, env) <= 1e-8
    assert residual(po, "selected_perp", sd["e1_perp"], env) <= 1e-8
    assert residual(po, "orthogonal_perp", sd["u_perp"], env) <= 1e-8


# --- 6 -----------------------------------------------------------------


@pytest.mark.criterion(6, "no-delay filter forms, signaling, orthogonal noise")
@pytest.mark.parametrize("alpha, p1, p2", [(0.25, 0.0, 0.0), (0.37, 0.5, -0.8)])
def test_nodelay_filter_selected_and_orthogonal_forms(alpha, p1, p2):
    po = build("nodelay_telefilter", alpha=alpha, quad_phases=(p1, p2))
    sd = seeds(po)
    s = 0.9
    env = ParamEnv({"s": s})
    a0, b0 = epr_halves(sd, s)
    ent = lin_comb([(1, b0), (-1, dagger(a0))])
    uv = lin_comb([(1, sd["u0"]), (-1, dagger(sd["v0"]))])
    sa, ca = math.sqrt(1 - alpha), math.sqrt(alpha)
    g1, g2 = cmath.exp(-2j * p1), cmath.exp(-2j * p2)
    want_sel = lin_comb([(sa * g1, sd["j1"]), (ca * g2, sd["j2"]), (1, ent)])
    assert residual(po, "selected", want_sel, env) <= 1e-12
    want_orth = lin_comb([(ca * g1, sd["j1"]), (-sa * g2, sd["j2"]), (1, uv)])
    assert residual(po, "orthogonal", want_orth, env) <= 1e-12


@pytest.mark.criterion(6, "no-delay filter forms, signaling, orthogonal noise")
def test_nodelay_filter_per_bin_taps():
    alpha = 0.25
    po = build("nodelay_telefilter", alpha=alpha)
    sd = seeds(po)
    s = 0.9
    env = ParamEnv({"s": s})
    a0, b0 = epr_halves(sd, s)
    ent = lin_comb([(1, b0), (-1, dagger(a0))])
    uv = lin_comb([(1, sd["u0"]), (-1, dagger(sd["v0"]))])
    sa, ca = sqrt(Num(1) - Num(alpha)), sqrt(Num(alpha))
    want_b1 = lin_comb([(1, sd["j1"]), (sa, ent), (ca, uv)])
    assert residual(po, "bin1_out", want_b1, env) <= EXACT
    want_b2 = lin_comb([(1, sd["j2"]), (ca, ent), (-sa, uv)])
    assert residual(po, "bin2_out", want_b2, env) <= EXACT


@pytest.mark.criterion(6, "no-delay filter forms, signaling, orthogonal noise")
def test_nodelay_filter_signaling_and_noise_excess():
    po = build("nodelay_telefilter")
    assert signaling_test(po, causality_report(po)) == 0.0
    env = scale_env(po)
    for phase in (0.0, 0.9, math.pi / 2):
        excess = quadrature_variance(po.transmitted["orthogonal"], phase, env) - 1.0
        assert excess == pytest.approx(2.0, abs=1e-9)


# --- 7 -----------------------------------------------------------------


@pytest.mark.criterion(7, "no-delay mirror forms and reflected block")
@pytest.mark.parametrize("r, s", [(0.8, 1.0), (1.4, 0.5)])
def test_nodelay_mirror_is_exact_in_tanh_r(r, s):
    po = build("nodelay_telemirror")
    sd = seeds(po)
    env = ParamEnv({"r": r, "s": s})
    a0, b0 = epr_halves(sd, s)
    ent = lin_comb([(1, b0), (-1, dagger(a0))])
    uv = lin_comb([(1, sd["u0"]), (-1, dagger(sd["v0"]))])
    th = Call("tanh", Num(r))
    rt2 = 1 / sqrt(Num(2))
    cases = [
        ("bin1_out", lin_comb([(1, sd["j1"]), (-th * rt2, ent), (-th * rt2, uv)])),
        ("bin2_out", lin_comb([(1, sd["j2"]), (-th * rt2, ent), (th * rt2, uv)])),
        ("selected", lin_comb([(rt2, sd["j1"]), (rt2, sd["j2"]), (-th, ent)])),
        ("orthogonal", lin_comb([(rt2, sd["j1"]), (-rt2, sd["j2"]), (-th, uv)])),
    ]
    for port, want in cases:
        assert residual(po, port, want, env) <= EXACT, port


@pytest.mark.criterion(7, "no-delay mirror forms and reflected block")
def test_nodelay_mirror_reflected_block_at_high_gain():
    po = build("nodelay_telemirror")
    sd = seeds(po)
    s = 1.0
    env = ParamEnv({"r": 20.0, "s": s})
    a0, b0 = epr_halves(sd, s)
    q = 1 / (2 * math.sqrt(2))
    block = [
        ("recovered_1", [(q, dagger(sd["j1"])), (-q, dagger(sd["j2"])), (-1, dagger(sd["u0"])), (1.5, sd["v0"])]),
        ("recovered_2", [(q, sd["j1"]), (-q, sd["j2"]), (1, sd["u0"]), (-0.5, dagger(sd["v0"]))]),
        ("recovered_3", [(q, dagger(sd["j1"])), (q, dagger(sd["j2"])), (1.5, a0), (-1, dagger(b0))]),
        ("recovered_4", [(q, sd["j1"]), (q, sd["j2"]), (-0.5, dagger(a0)), (1, b0)]),
    ]
    for port, weighted in block:
        assert residual(po, port, lin_comb(weighted), env) <= 1e-8, port


@pytest.mark.criterion(7, "no-delay mirror forms and reflected block")
def test_nodelay_mirror_signaling_is_structurally_zero():
    po = build("nodelay_telemirror")
    assert signaling_test(po, causality_report(po)) == 0.0


# --- 8 -----------------------------------------------------------------


@pytest.mark.criterion(8, "independent-resource link leaves both recombinations noisy-clean")
def test_independent_resources_transmit_but_discriminate_nothing():
    po = build("nodelay_independent")
    sd = seeds(po)
    env = scale_env(po)
    want_sym = lin_comb([(RT2, sd["j1"]), (RT2, sd["j2"])])
    want_anti = lin_comb([(RT2, sd["j1"]), (-RT2, sd["j2"])])
    assert residual(po, "sym_out", want_sym, env) <= 1e-8
    assert residual(po, "anti_out", want_anti, env) <= 1e-8
    assert selectivity_report(po).verdict == "neither"


# --- 9 -----------------------------------------------------------------


def chain_amplitudes(alphas):
    """Independent product form: bin k keeps sqrt(a1..a_{k-1}(1-a_k))."""
    out = []
    running = Num(1)
    for a in alphas:
        out.append(sqrt(running * (Num(1) - Num(a))))
        running = running * Num(a)
    out.append(sqrt(running))
    return out


@pytest.mark.criterion(9, "n-bin chains follow the product amplitudes")
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_nbin_chains_match_product_amplitudes(n):
    rng = random.Random(100 + n)
    s = 1.0
    for _ in range(10):
        alphas = [rng.uniform(0.15, 0.85) for _ in range(n - 1)]
        env = ParamEnv({"s": s})

        po = build("nmode_delayed_telefilter", n=n, alphas=alphas)
        sd = seeds(po)
        a0, b0 = epr_halves(sd, s)
        coefs = chain_amplitudes(alphas)
        want = lin_comb(
            [(coefs[k], sd[f"j{k + 1}"]) for k in range(n)]
            + [(1, b0), (-1, dagger(a0))]
        )
        assert residual(po, "selected", want, env) <= 1e-12
        for k in range(1, n):
            assert residual(po, f"orthogonal_{k}", sd[f"u{k}"], env) <= EXACT

        po = build("nmode_nodelay_telefilter", n=n, alphas=alphas)
        sd = seeds(po)
        a0, b0 = epr_halves(sd, s)
        want = lin_comb(
            [(-coefs[k], sd[f"j{k + 1}"]) for k in range(n)]
            + [(1, b0), (-1, dagger(a0))]
        )
        assert residual(po, "selected", want, env) <= 1e-12
        ev = ModeEvaluator(env)
        for k in range(1, n + 1):
            for mode, (c, d) in ev.floats(po.taps[f"bin{k}_out"]).items():
                if mode.time_bin > k:
                    assert c == 0 and d == 0, (k, mode.name)


@pytest.mark.criterion(9, "n-bin chains follow the product amplitudes")
def test_two_bin_chains_reduce_to_the_dedicated_builders():
    def tables_match(po_a, po_b, port, env):
        ev = ModeEvaluator(env)
        rename = {"u1": "u0", "v1": "v0"}
        ta = {rename.get(m.name, m.name): entry
              for m, entry in ev.floats(po_a.transmitted[port]).items()}
        tb = {m.name: entry for m, entry in ev.floats(po_b.transmitted[port]).items()}
        worst = 0.0
        for name in set(ta) | set(tb):
            ac, ad = ta.get(name, (0, 0))
            bc, bd = tb.get(name, (0, 0))
            worst = max(worst, abs(ac - bc), abs(ad - bd))
        return worst

    env = ParamEnv({"s": 1.7})
    for alpha in (0.37, 0.62):
        reduced = build("nmode_delayed_telefilter", n=2, alphas=[alpha])
        direct = build("delayed_telefilter", alpha=alpha)
        assert tables_match(reduced, direct, "selected", env) <= 1e-12
        reduced = build("nmode_nodelay_telefilter", n=2, alphas=[alpha])
        direct = build(
            "nodelay_telefilter", alpha=alpha, quad_phases=(-math.pi / 2, -math.pi / 2)
        )
        assert tables_match(reduced, direct, "selected", env) <= 1e-12


# --- 10 ----------------------------------------------------------------


@pytest.mark.criterion(10, "mirror output sets stay canonical under random draws")
@pytest.mark.parametrize(
    "name", ["atemporal_telemirror", "delayed_telemirror", "nodelay_telemirror"]
)
def test_mirrors_pass_the_unitarity_suite(name):
    rng = random.Random(hash(name) % 10_000)
    for draw in range(20):
        overrides = {}
        if name == "delayed_telemirror" and draw % 2:
            overrides = {
                "alpha": rng.uniform(0.15, 0.85),
                "phi": rng.uniform(-math.pi, math.pi),
                "phi_c2": rng.uniform(-math.pi, math.pi),
                "selection": "tuned",
            }
        elif name == "nodelay_telemirror" and draw % 2:
            overrides = {"alpha": rng.uniform(0.15, 0.85)}
        po = build(name, **overrides)
        env = ParamEnv({"r": rng.uniform(0.2, 2.5), "s": rng.uniform(0.2, 2.5)})
        report = check_bogoliubov(po.quantum_ports(), env, tol=1e-10)
        assert report.passed, (draw, overrides, report.failures[:3])


# --- 11 ----------------------------------------------------------------


@pytest.mark.criterion(11, "covariance oracle agrees with operator variances")
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_covariance_oracle_equivalence(name):
    rng = random.Random(len(name))
    po_default = build(name)
    for _ in range(10):
        po = po_default
        env = po.env.bind(**{p: rng.uniform(0.1, 2.2) for p in po.limit_params})
        record = covariance_oracle(po.circuit, env)
        for port, expr in po.all_ports().items():
            for phase in (0.0, 0.7, math.pi / 2):
                want = quadrature_variance(expr, phase, env)
                got = record.variance(port, phase)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10), (port, phase)


# --- 12 ----------------------------------------------------------------


@pytest.mark.criterion(12, "delay accounting matches the bin span")
def test_delay_accounting():
    expectations = {
        "delayed_telefilter": 1,
        "delayed_telemirror": 1,
        "nodelay_telefilter": 0,
        "nodelay_telemirror": 0,
        "nodelay_independent": 0,
    }
    for name, delay in expectations.items():
        report = causality_report(build(name))
        assert report.verdict == "causal", name
        assert report.mandatory_delay == delay, name
    for n in (3, 5):
        assert causality_report(build("nmode_delayed_telefilter", n=n)).mandatory_delay == n - 1
        assert causality_report(build("nmode_nodelay_telefilter", n=n)).mandatory_delay == 0


@pytest.mark.criterion(12, "delay accounting matches the bin span")
def test_no_delay_dependencies_are_lower_triangular():
    for name in ("nodelay_telefilter", "nodelay_telemirror", "nmode_nodelay_telefilter"):
        po = build(name)
        report = causality_report(po)
        for tap in po.taps:
            slot = po.port_bins[tap].slot_bin
            latest = max(b for _, b in report.dependencies[tap])
            assert latest <= slot, (name, tap)


@pytest.mark.criterion(12, "delay accounting matches the bin span")
def test_acausal_fixture_is_flagged():
    po = evaluate_circuit(parse_circuit(ACAUSAL.read_text()))
    report = causality_report(po)
    assert report.verdict == "acausal"
    assert report.violations


# --- 13 ----------------------------------------------------------------


@pytest.mark.criterion(13, "golden files round-trip byte-identically")
@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.tls")), ids=lambda p: p.stem)
def test_goldens_parse_evaluate_and_reserialize(path):
    text = path.read_text()
    ast = parse_circuit(text)
    po = evaluate_circuit(ast)
    assert po.all_ports()
    assert serialize_circuit(ast) == text


@pytest.mark.criterion(13, "golden files round-trip byte-identically")
def test_golden_fixture_set_is_complete():
    assert {p.stem for p in GOLDEN_DIR.glob("*.tls")} == set(PROTOCOLS)


@pytest.mark.criterion(13, "golden files round-trip byte-identically")
@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=100))
def test_fuzzed_sources_never_crash(text):
    try:
        evaluate_circuit(parse_circuit(text))
    except ParseError as err:
        assert err.line >= 1 and err.column >= 1
    except CircuitError:
        pass


@pytest.mark.criterion(13, "golden files round-trip byte-identically")
def test_parse_errors_locate_the_offence():
    with pytest.raises(ParseError) as excinfo:
        parse_circuit("param s = 1.0\nmode vacuum v rail=r bin=\n")
    assert excinfo.value.line == 2
    assert excinfo.value.column == 26
