"""The mutant gate: every element fault fails ``verify_suite`` on a shipped circuit.

Each mutant replaces, in process, the ``apply`` of one ``circuit.ELEMENTS``
entry with a small fault of the operator pipeline. The covariance oracle
keeps its own element maps, so it stays the independent reference. The
circuits are the 9 goldens and the blind-spot circuits under
``fixtures/mutants/``, which close the gaps the goldens leave: no golden
turns a phase off 0 and pi, and only one reads a complex feed-forward
gain or an on-the-run homodyne with a nonzero p-phase. Mutation testing
after DeMillo, Lipton and Sayward, *Hints on test data selection*, IEEE
Computer 11 (1978).
"""

import dataclasses
from pathlib import Path

import pytest

from telesim import evaluate_circuit, parse_circuit
from telesim.circuit import (
    ELEMENTS,
    DisplaceStmt,
    HomodyneStmt,
    PhaseStmt,
    SplitStmt,
    SqueezeStmt,
    UnsqueezeStmt,
)
from telesim.coeff import as_coef, cis, conj, cosh, sinh
from telesim.elements import apply_two_mode_squeezer, dual_homodyne, split_modes
from telesim.opalg import dagger, lin_comb
from telesim.verify import verify_suite

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE.parent / "src" / "telesim" / "golden"
BLIND_SPOT_DIR = HERE / "fixtures" / "mutants"
CIRCUITS = {
    path.stem: path.read_text()
    for path in [*sorted(GOLDEN_DIR.glob("*.tls")), *sorted(BLIND_SPOT_DIR.glob("*.tls"))]
}


def _phase_conjugated(operand, phi):
    # e^{-i phi} where the plate applies e^{i phi}
    return lin_comb([(cis(-as_coef(phi)), operand)])


def _displace_conjugate_gain(resource, record, zeta):
    return lin_comb([(1, resource), (conj(zeta), record)])


def _homodyne_pphase_negated(signal, resource, xphase, pphase):
    return dual_homodyne(signal, resource, xphase, -as_coef(pphase))


def _squeeze_coupling_negated(in1, in2, gain, phase):
    c, s = cosh(as_coef(gain)), -(cis(as_coef(phase)) * sinh(as_coef(gain)))
    return lin_comb([(c, in1), (s, dagger(in2))]), lin_comb([(c, in2), (s, dagger(in1))])


def _unsqueeze_coupling_negated(in1, in2, gain):
    # +sinh(g) where the inverse squeezer couples with -sinh(g): a squeezer again
    return apply_two_mode_squeezer(in1, in2, gain)


def _split_phases_swapped(in_t, in_r, alpha, phi):
    # e^{+i phi} on out_minus and e^{-i phi} on out_plus
    return split_modes(in_t, in_r, alpha, -as_coef(phi))


# (statement class, mutant, a circuit that must catch it, the check that fails there)
MUTANTS = {
    "phase e^{-i phi}": (
        PhaseStmt, _phase_conjugated, "asymmetric_phase", "declared limit forms reached"
    ),
    "displace conjugate gain": (
        DisplaceStmt, _displace_conjugate_gain, "complex_gain",
        "covariance oracle matches operator variances",
    ),
    "dual_homodyne p-phase sign": (
        HomodyneStmt, _homodyne_pphase_negated, "onrun_pphase",
        "covariance oracle matches operator variances",
    ),
    "squeeze coupling sign": (
        SqueezeStmt, _squeeze_coupling_negated, "atemporal_telefilter",
        "covariance oracle matches operator variances",
    ),
    "unsqueeze coupling sign": (
        UnsqueezeStmt, _unsqueeze_coupling_negated, "atemporal_telemirror",
        "covariance oracle matches operator variances",
    ),
    "split phases swapped": (
        SplitStmt, _split_phases_swapped, "nodelay_telefilter", "declared limit forms reached"
    ),
}


def _failed_checks(source: str) -> list[str]:
    suite = verify_suite(evaluate_circuit(parse_circuit(source)))
    return [name for name, passed, _ in suite.checks if not passed]


def test_every_element_function_has_a_mutant():
    assert {cls for cls, *_ in MUTANTS.values()} == {
        cls for cls, element in ELEMENTS.items() if element.apply is not None
    }


@pytest.mark.parametrize("name", sorted(p.stem for p in BLIND_SPOT_DIR.glob("*.tls")))
def test_the_blind_spot_circuits_pass_unmutated(name):
    assert "expect " in CIRCUITS[name]
    assert _failed_checks(CIRCUITS[name]) == []


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_fails_verify_on_a_shipped_circuit(monkeypatch, mutant):
    cls, apply, catcher, check = MUTANTS[mutant]
    monkeypatch.setitem(ELEMENTS, cls, dataclasses.replace(ELEMENTS[cls], apply=apply))
    assert check in _failed_checks(CIRCUITS[catcher])
