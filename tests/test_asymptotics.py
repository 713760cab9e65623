import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest

from zerotemp import (
    EmptyAubrySetError,
    LocallyConstantPotential,
    PerronError,
    PositiveCycleError,
    Sft,
    decompose_aubry,
    estimate_gamma,
    estimate_subaction,
    full_shift,
    limit_measure_estimate,
    word_graph,
)
from zerotemp.verify import (
    lc1_potential,
    lc2_potential,
    three_symbol_potential,
    zero_potential,
)
from zerotemp import asymptotics
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


def test_the_subaction_certificate_skips_the_states_it_cannot_reach():
    # no path leads from the Aubry set {0} into state 2, so V_rec(2) = -inf,
    # and the calibration residual leaves it out
    rows = ((True, True, False), (True, True, False), (True, True, True))
    table = {"00": 0, "01": -1, "10": -1, "11": -3, "20": -2, "21": -2, "22": -5}
    an = Analysis(LocallyConstantPotential.from_table(Sft(3, rows), table))
    assert an.subaction_maxplus == (0.0, -1.0, -math.inf)
    assert an.floor[3] == an.subaction_maxplus


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


def fixed_point_table(k, seed):
    """Full 2-shift table on (k+1)-words: 0 on the two fixed points, and
    uniform in [-4, -1] elsewhere, so that it is normalized."""
    rng = random.Random(seed)
    words = itertools.product((0, 1), repeat=k + 1)
    table = {w: 0.0 if len(set(w)) == 1 else -rng.uniform(1.0, 4.0) for w in words}
    return LocallyConstantPotential(full_shift(1), k, table)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("c", [-1.7, -0.25, 0.3, 2.5])
def test_a_constant_shift_moves_only_the_floor(k, c):
    # A + c has the cycle mean c, and everything read off A + c - c is read
    # off A: the rate over beta*m + h, the subactions, the masses
    pot = fixed_point_table(k, seed=k)
    shifted = LocallyConstantPotential(pot.sft, pot.depth, {w: a + c for w, a in pot.values.items()})
    an, an_c = Analysis(pot), Analysis(shifted)
    assert an.floor[0] == 0.0
    assert an_c.floor[0] == pytest.approx(c, abs=1e-15)
    grid = (4.0, 16.0, 64.0)
    assert estimate_gamma(an_c, grid).gamma_hat == pytest.approx(estimate_gamma(an, grid).gamma_hat, abs=1e-12)
    assert an_c.subaction_maxplus == pytest.approx(an.subaction_maxplus, abs=1e-12)
    for beta in grid:
        se, se_c = estimate_subaction(an, beta), estimate_subaction(an_c, beta)
        assert se_c.v_hat == pytest.approx(se.v_hat, abs=1e-12)
        assert se_c.calibration_residual == pytest.approx(se.calibration_residual, abs=1e-12)
        assert an_c.perron(beta).mass_k == pytest.approx(an.perron(beta).mass_k, abs=1e-12)


def test_a_floor_whose_float_exponents_round_is_exact():
    # the loops weigh m = 0.3, and 50 * 0.3 rounds to the float 15, 5.6e-16
    # below the exact product, far more than the excess e^{50*gamma}, about
    # 2e-54: S is formed from the table's floats and the exact m, so the
    # loops weigh exactly 1 in it, and the rate over the floor is that of
    # the unshifted table (from the float products, gamma_hat read -0.70
    # for -2.47)
    pot = fixed_point_table(1, seed=1)
    shifted = LocallyConstantPotential(pot.sft, pot.depth, {w: a + 0.3 for w, a in pot.values.items()})
    an = Analysis(shifted)
    assert an.exact_floor and an.floor[0] == Fraction(0.3)
    assert Fraction(50 * 0.3) != 50 * Fraction(0.3)
    grid = (16.0, 50.0, 64.0)
    exact = estimate_gamma(Analysis(pot), grid).gamma_hat
    assert estimate_gamma(an, grid).gamma_hat == pytest.approx(exact, abs=1e-12)


NEAR_TIE = {"00": -0.15, "01": -0.1, "10": -0.2, "11": -1.0}


def test_a_near_tie_of_critical_cycles_is_refused_once_per_analysis(monkeypatch):
    # the loop 00 has the mean -0.15, the 2-cycle 01 the float mean
    # -0.15000000000000002, and exactly they differ by 1.4e-17: both are
    # critical in floats, and no floor e^{beta*m + h} is exact for both
    exact_runs, howard = [], asymptotics.howard_cycle_mean

    def recorded(n, edges):
        if isinstance(edges[0][2], Fraction):
            exact_runs.append(n)
        return howard(n, edges)

    monkeypatch.setattr(asymptotics, "howard_cycle_mean", recorded)
    an = Analysis(LocallyConstantPotential.from_table(full_shift(1), NEAR_TIE))
    assert len(an.decomposition.critical_pairs) == 3
    assert Fraction(-0.15) != (Fraction(-0.1) + Fraction(-0.2)) / 2
    for grid in ((2.0,), (4.0, 64.0)):
        with pytest.raises(PerronError, match="critical cycles of A - m tie to float rounding"):
            estimate_gamma(an, grid)
    assert exact_runs == [2, 2]  # the largest and the least exact mean, once
    assert not an.exact_floor


def test_the_floor_runs_one_exact_cycle_mean_and_the_near_tie_guard_one_more(monkeypatch):
    # zero on the 5-words plus a 2-decimal coboundary g(x) - g(y): every
    # edge is critical, and the rounded coboundary leaves cycles whose
    # exact means differ; the floor needs the largest, the guard the least
    exact_runs, howard = [], asymptotics.howard_cycle_mean

    def recorded(n, edges):
        if isinstance(edges[0][2], Fraction):
            exact_runs.append(n)
        return howard(n, edges)

    monkeypatch.setattr(asymptotics, "howard_cycle_mean", recorded)
    rng = random.Random(1)
    g = {w: round(rng.uniform(-1.0, 1.0), 2) for w in itertools.product((0, 1), repeat=4)}
    table = {w: g[w[:-1]] - g[w[1:]] for w in itertools.product((0, 1), repeat=5)}
    an = Analysis(LocallyConstantPotential(full_shift(1), 4, table))
    assert len(an.decomposition.critical_pairs) == 32
    m = an.floor[0]
    assert exact_runs == [16]
    with pytest.raises(PerronError, match="critical cycles of A - m tie to float rounding"):
        estimate_gamma(an, (2.0,))
    assert exact_runs == [16, 16] and an.floor[0] == m and not an.exact_floor


def test_an_analysis_is_freed_as_soon_as_it_is_dropped():
    # its Perron pairs keep their deferred vectors, and with them the
    # factors of each solve: no reference cycle may hold them until the
    # cyclic collector runs
    gc.disable()
    try:
        an = Analysis(fixed_point_table(3, seed=1))
        estimate_gamma(an, (16.0, 64.0))
        estimate_subaction(an, 16.0)
        pair, analysis = weakref.ref(an.perron(64.0)), weakref.ref(an)
        del an
        assert analysis() is None and pair() is None
    finally:
        gc.enable()


def every_read(an):
    """Read each part of the analysis, twice, through every estimate."""
    for _ in range(2):
        estimate_gamma(an, (4.0, 8.0))
        estimate_subaction(an, 8.0)
        limit_measure_estimate(an, 8.0, [(0,), (1,)])
        an.floor, an.decomposition, an.gamma_maxplus, an.subaction_maxplus


def test_one_decomposition_per_normalization(monkeypatch):
    # A is decomposed once when it is normalized, and A - m once more when
    # it is not; the floor builds no second potential and no second analysis
    decompose, calls, built = asymptotics.decompose_aubry, [], []
    monkeypatch.setattr(asymptotics, "decompose_aubry", lambda g: calls.append(g) or decompose(g))
    init, check = Analysis.__init__, LocallyConstantPotential.__post_init__
    monkeypatch.setattr(Analysis, "__init__", lambda an, pot: built.append(an) or init(an, pot))
    monkeypatch.setattr(LocallyConstantPotential, "__post_init__", lambda pot: built.append(pot) or check(pot))
    pot = fixed_point_table(2, seed=1)
    for c, runs in ((0.0, 1), (-0.5, 2), (0.75, 2)):
        shifted = LocallyConstantPotential(pot.sft, pot.depth, {w: a + c for w, a in pot.values.items()})
        an = Analysis(shifted)
        calls.clear(), built.clear()
        every_read(an)
        assert len(calls) == runs
        assert built == []


def test_a_failed_normalization_is_kept(monkeypatch):
    # off by 1e-9, m leaves A - m without a zero cycle: that error stands
    # for the decomposition, and no read runs it again
    decompose, calls = asymptotics.decompose_aubry, []

    def wrong_mean(g):
        calls.append(g)
        try:
            return decompose(g)
        except PositiveCycleError as e:
            raise PositiveCycleError(e.mean + 1e-9) from None

    monkeypatch.setattr(asymptotics, "decompose_aubry", wrong_mean)
    pot = fixed_point_table(2, seed=1)
    an = Analysis(LocallyConstantPotential(pot.sft, pot.depth, {w: a + 0.5 for w, a in pot.values.items()}))
    for _ in range(3):
        with pytest.raises(EmptyAubrySetError):
            an.decomposition
    assert an.floor is None
    assert len(calls) == 2
