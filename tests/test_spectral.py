import math

import numpy as np
import pytest

from zerotemp import (
    LocallyConstantPotential,
    PerronError,
    PositiveCycleError,
    decompose_aubry,
    word_graph,
    equilibrium_cylinder_mass,
    full_shift,
    golden_mean_shift,
    perron,
    transfer_matrix,
)
from zerotemp.verify import lc1_potential, lc2_potential, zero_potential

import mpmath


def test_table_validation():
    sft = full_shift(1, 0.5)
    with pytest.raises(ValueError):
        LocallyConstantPotential(sft, 1, {(0, 0): 0.0})  # missing words
    with pytest.raises(ValueError):
        LocallyConstantPotential(sft, 1, {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0, (0, 2): 0.0})


def test_golden_mean_table_excludes_forbidden():
    sft = golden_mean_shift()
    pot = LocallyConstantPotential.from_table(sft, {"00": 0.0, "01": -1.0, "10": -1.0})
    assert pot.value((0, 1)) == -1.0
    with pytest.raises(ValueError):
        LocallyConstantPotential.from_table(sft, {"00": 0.0, "01": -1.0, "10": -1.0, "11": 0.0})


def test_transfer_matrix_orientation():
    m1 = transfer_matrix(lc1_potential(), 1.0)
    assert np.allclose(m1, [[0.0, -1.0], [-1.0, 0.0]])
    m2 = transfer_matrix(lc2_potential(), 1.0)
    # row = target first symbol, column = prepended symbol
    assert m2[1, 0] == -1.0  # A(01)
    assert m2[0, 1] == -2.0  # A(10)


def test_transfer_matrix_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        transfer_matrix(lc1_potential(), 0.0)


def test_perron_closed_forms():
    lc1, lc2 = lc1_potential(), lc2_potential()
    for beta in (1.0, 7.0, 25.0, 50.0):
        p1 = perron(lc1, beta)
        assert p1.log_lambda == pytest.approx(math.log1p(math.exp(-beta)), rel=1e-13)
        p2 = perron(lc2, beta)
        assert p2.log_lambda == pytest.approx(math.log1p(math.exp(-1.5 * beta)), rel=1e-13)
        # eigenfunction ratio H(1)/H(0) = e^{beta(b-d)/2} = e^{beta/2}
        assert p2.log_H[1] == pytest.approx(beta / 2, rel=1e-12)
        assert p1.log_H[1] == pytest.approx(0.0, abs=1e-12)


def test_perron_zero_potential():
    p = perron(zero_potential(), 3.0)
    assert p.log_lambda == pytest.approx(math.log(2), rel=1e-14)
    assert p.mass_k == pytest.approx((0.5, 0.5))


def test_depth_zero_lift():
    sft = full_shift(1, 0.5)
    pot = LocallyConstantPotential(sft, 0, {(0,): 0.0, (1,): -1.0})
    for beta in (1.0, 5.0):
        p = perron(pot, beta)
        assert p.log_lambda == pytest.approx(math.log1p(math.exp(-beta)), rel=1e-13)


def test_pressure_monotone_and_convex_in_beta():
    lc2 = lc2_potential()
    betas = [0.5 * k for k in range(1, 15)]
    ps = [perron(lc2, b).log_lambda for b in betas]
    assert all(p2 < p1 for p1, p2 in zip(ps, ps[1:]))  # A <= 0 and not cohomologous to 0
    second = [p0 - 2 * p1 + p2 for p0, p1, p2 in zip(ps, ps[1:], ps[2:])]
    assert all(s > -1e-12 for s in second)


def test_pressure_derivative_is_potential_average():
    lc2 = lc2_potential()
    beta, h = 2.0, 1e-5
    deriv = (perron(lc2, beta + h).log_lambda - perron(lc2, beta - h).log_lambda) / (2 * h)
    p = perron(lc2, beta)
    avg = sum(
        lc2.value(w) * equilibrium_cylinder_mass(p, w)
        for w in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    assert deriv == pytest.approx(avg, abs=1e-8)


def test_equilibrium_measure_consistency():
    p = perron(lc2_potential(), 3.0)
    words = [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1), (0, 1, 1), (1, 0, 0)]
    masses = {w: equilibrium_cylinder_mass(p, w) for w in words}
    assert masses[(0,)] + masses[(1,)] == pytest.approx(1.0, abs=1e-14)
    # Kolmogorov extension: mass of [w] = sum of masses of one-symbol extensions
    assert masses[(0, 1)] == pytest.approx(
        equilibrium_cylinder_mass(p, (0, 1, 0)) + masses[(0, 1, 1)], rel=1e-12
    )
    # shift invariance: mass of [w] = sum over prepended symbols
    assert masses[(1, 0)] == pytest.approx(
        equilibrium_cylinder_mass(p, (0, 1, 0)) + equilibrium_cylinder_mass(p, (1, 1, 0)),
        rel=1e-12,
    )


def test_inadmissible_word_gets_zero_mass():
    sft = golden_mean_shift()
    pot = LocallyConstantPotential.from_table(sft, {"00": 0.0, "01": -1.0, "10": -1.0})
    p = perron(pot, 2.0)
    assert equilibrium_cylinder_mass(p, (1, 1)) == 0.0
    assert equilibrium_cylinder_mass(p, (0, 1, 1, 0)) == 0.0


def test_zero_potential_bernoulli_masses():
    p = perron(zero_potential(), 1.0)
    for w in ((0, 1), (1, 1), (0, 0, 1)):
        assert equilibrium_cylinder_mass(p, w) == pytest.approx(0.5 ** len(w), rel=1e-12)


def test_pressure_excess_error_on_zero_gap():
    p = perron(zero_potential(), 5.0)
    with pytest.raises(PerronError):
        p.pressure_excess_log(mpmath.log(mpmath.mpf(2)))


def test_pressure_sandwich_under_perturbation():
    beta = 10.0
    eps = 1e-3
    base = perron(lc1_potential(), beta).log_lambda
    sft = full_shift(1, 0.5)
    pert = LocallyConstantPotential.from_table(
        sft, {"00": 0.0, "01": -1.0 + eps / beta, "10": -1.0, "11": 0.0}
    )
    assert abs(perron(pert, beta).log_lambda - base) <= eps


def test_normalization_check():
    assert lc1_potential().is_normalized_for_optimization()
    sft = full_shift(1, 0.5)
    bad = LocallyConstantPotential.from_table(
        sft, {"00": 0.5, "01": -1.0, "10": -1.0, "11": 0.0}
    )
    assert not bad.is_normalized_for_optimization()
    shifted = LocallyConstantPotential.from_table(
        sft, {"00": -0.5, "01": -1.0, "10": -1.0, "11": -0.5}
    )
    assert not shifted.is_normalized_for_optimization()


def test_normalization_uses_the_aubry_rule():
    # the cycle 0 -> 1 -> 2 -> 0 weighs 2e-12 (mean 6.7e-13): positive beyond
    # the zero-cycle tolerance, so neither check may accept it
    table = {w: -1.0 for w in ("00", "02", "10", "11", "21", "22")}
    table.update({"01": 1e-12, "12": 1e-12, "20": 0.0})
    pot = LocallyConstantPotential.from_table(full_shift(2, 0.5), table)
    assert not pot.is_normalized_for_optimization()
    with pytest.raises(PositiveCycleError):
        decompose_aubry(word_graph(pot))
