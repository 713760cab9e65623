import math

import pytest

from zerotemp import (
    LocallyConstantPotential,
    PerronError,
    Sft,
    decompose_aubry,
    estimate_gamma,
    estimate_subaction,
    limit_measure_estimate,
    word_graph,
)
from zerotemp.verify import (
    lc1_potential,
    lc2_potential,
    three_symbol_potential,
    zero_potential,
)
from zerotemp.asymptotics import Analysis
from conftest import lifted, two_zero_blocks_potential


def test_gamma_closed_form_examples():
    ge1 = estimate_gamma(Analysis(lc1_potential()))
    assert ge1.gamma_maxplus == -1.0
    assert ge1.h == 0.0
    # exact closed form: gamma_hat = (1/beta) log log(1+e^{-beta})
    for b, g in zip(ge1.beta_grid, ge1.gamma_hat):
        assert g == pytest.approx(math.log(math.log1p(math.exp(-b))) / b, abs=1e-12)
    ge2 = estimate_gamma(Analysis(lc2_potential()))
    assert ge2.gamma_maxplus == -1.5
    assert abs(ge2.gamma_hat[-1] + 1.5) < 1e-3


def test_gamma_two_disjoint_zero_cycles():
    ge = estimate_gamma(Analysis(three_symbol_potential()))
    assert ge.gamma_maxplus == -1.0
    assert abs(ge.gamma_hat[-1] + 1.0) < 0.01


def test_gamma_with_positive_entropy_component():
    # h = log 2 from the {1,2} block; excess decays at the travelling cost rate
    ge = estimate_gamma(Analysis(two_zero_blocks_potential()))
    assert ge.h == pytest.approx(math.log(2), abs=1e-12)
    assert ge.gamma_maxplus == -2.0
    assert abs(ge.gamma_hat[-1] + 2.0) < 0.05


def test_gamma_entropy_precision_follows_the_grid():
    # P - h is about e^{-2 beta}, below 1e-600 from beta 700 on, so h needs
    # the precision of the largest beta
    ge = estimate_gamma(Analysis(two_zero_blocks_potential()), beta_grid=(500, 600, 700, 800, 1000))
    assert all(abs(g + 2.0) < 0.05 for g in ge.gamma_hat)


def test_estimates_share_one_analysis():
    pot = three_symbol_potential()
    an = Analysis(pot)
    ge = estimate_gamma(an, beta_grid=(8.0, 16.0))
    assert ge == estimate_gamma(Analysis(pot), beta_grid=(8.0, 16.0))
    assert estimate_subaction(an, 16.0) == estimate_subaction(Analysis(pot), 16.0)
    words = [(0,), (2,)]
    assert limit_measure_estimate(an, 8.0, words) == limit_measure_estimate(Analysis(pot), 8.0, words)


def test_missing_zero_state_is_a_perron_error():
    sft = Sft(2, ((False, True), (True, True)))
    table = {"010": -1.0, "011": -1.0, "101": -1.0, "110": -1.0, "111": 0.0}
    pot = LocallyConstantPotential.from_table(sft, table)
    with pytest.raises(PerronError):
        estimate_subaction(Analysis(pot), 4.0)


def test_pressure_excess_is_monotone():
    for pot in (lc1_potential(), lc2_potential(), three_symbol_potential()):
        ge = estimate_gamma(Analysis(pot))
        excess = [b * g for b, g in zip(ge.beta_grid, ge.gamma_hat)]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(excess, excess[1:]))
        assert all(g < 0 for g in ge.gamma_hat)


def test_gamma_error_on_zero_excess():
    with pytest.raises(PerronError):
        estimate_gamma(Analysis(zero_potential()), beta_grid=(2.0, 4.0))


def test_grid_must_increase():
    with pytest.raises(ValueError):
        estimate_gamma(Analysis(lc1_potential()), beta_grid=(4.0, 2.0))


def test_subaction_closed_forms():
    se1 = estimate_subaction(Analysis(lc1_potential()), 50.0)
    assert se1.v_hat[0] == 0.0
    assert abs(se1.v_hat[1]) < 1e-12
    an2 = Analysis(lc2_potential())
    se2 = estimate_subaction(an2, 50.0)
    assert se2.v_hat[1] == pytest.approx(0.5, abs=0.01)  # exact value (b-d)/2
    assert an2.eigenvectors.eigenspace_dim == 1


def test_subaction_reconstruction_agrees():
    for pot in (lc1_potential(), lc2_potential(), three_symbol_potential()):
        an = Analysis(pot)
        se = estimate_subaction(an, 256.0)
        gaps = [abs(a - b) for a, b in zip(se.v_hat, an.subaction_maxplus)]
        assert max(gaps) <= 0.05


def test_subaction_offsets_match_eigenvector():
    an = Analysis(lc2_potential())
    se = estimate_subaction(an, 200.0)
    d = decompose_aubry(word_graph(lc2_potential()))
    offsets = [float(x) for x in an.eigenvectors.eigenvectors[0]]
    for i, comp in enumerate(d.components):
        assert abs(se.v_hat[comp[0]] - offsets[i]) <= 0.02


def test_calibration_residual_decays():
    an = Analysis(three_symbol_potential())
    r16 = estimate_subaction(an, 16.0).calibration_residual
    r256 = estimate_subaction(an, 256.0).calibration_residual
    assert r256 <= r16 + 1e-15
    assert r256 <= 0.02


def test_subaction_constant_on_components():
    se = estimate_subaction(Analysis(three_symbol_potential()), 256.0)
    d = decompose_aubry(word_graph(three_symbol_potential()))
    for comp in d.components:
        vals = [se.v_hat[v] for v in comp]
        assert max(vals) - min(vals) <= 1e-9


def test_limit_measure_estimates():
    # on 2-word states, so that the 2-words below have their masses
    masses = limit_measure_estimate(Analysis(lifted(lc1_potential(), 2)), 50.0, [(0,), (0, 1), (1,)])
    assert masses[(0,)] == pytest.approx(0.5, abs=1e-6)
    assert masses[(0, 1)] <= math.exp(-49.0)
    uniform = limit_measure_estimate(Analysis(lifted(zero_potential(), 2)), 1.0, [(0,), (1, 0)])
    assert uniform[(0,)] == pytest.approx(0.5, rel=1e-12)
    assert uniform[(1, 0)] == pytest.approx(0.25, rel=1e-12)


def test_measure_concentrates_on_aubry_cylinders():
    masses = limit_measure_estimate(Analysis(three_symbol_potential()), 64.0, [(0,), (1,), (2,)])
    assert masses[(0,)] + masses[(1,)] + masses[(2,)] == pytest.approx(1.0, abs=1e-12)
    assert masses[(1,)] == pytest.approx(masses[(2,)], rel=1e-9)
    assert masses[(0,)] > 0.1 and masses[(1,)] > 0.1
