import collections
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerotemp import (
    GOLDEN_MASS_0,
    GOLDEN_RATIO,
    BracketError,
    MaxPlusMatrix,
    SeriesDivergenceError,
    WaltersPotential,
    appendix_example,
    classify_regime,
    mp_eigenvalue,
    perturbation_stability_experiment,
    subaction_offset_estimate,
    walters_cylinder_ratio,
    walters_gamma,
    walters_pressure,
)
from zerotemp import walters
from zerotemp.asymptotics import Analysis
from zerotemp.verify import regime_potentials
from zerotemp.walters import _appendix_chains, _head_cap, _pressure_equation, _Series


W4 = WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-3.0)


def a_n(w, n):
    """A|[0^n 1] = a (1-rho) rho^(n-2), n >= 2."""
    return w.a * (1.0 - w.rho) * w.rho ** (n - 2)


def partial_a(w, j):
    """a_2 + ... + a_{1+j}."""
    return w.a * (1.0 - w.rho**j)


def cost_matrix(w):
    """The 2x2 travelling-cost matrix between the fixed points 0^inf and 1^inf."""
    return MaxPlusMatrix.from_rows([[w.d + w.b + w.a, w.d + w.c], [w.b + w.a, w.b + w.d + w.c]])


def test_parameter_validation():
    with pytest.raises(ValueError):
        WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-1.0, rho=1.0)
    with pytest.raises(ValueError):
        WaltersPotential(b=0.0, d=-1.0, a=-1.0, c=-1.0)  # strict needs b < 0
    # relaxed form allows b = 0 as long as b + d < 0
    WaltersPotential(b=0.0, d=-1.0, a=-1.0, c=-1.0, relaxed=True)
    with pytest.raises(ValueError):
        WaltersPotential(b=0.0, d=0.0, a=-1.0, c=-1.0, relaxed=True)
    with pytest.raises(ValueError):
        WaltersPotential(b=-1.0, d=-1.0, a=0.0, c=-1.0, relaxed=True)


def test_tail_rule():
    w = WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-2.0, rho=0.5)
    assert a_n(w, 2) == -0.5
    assert a_n(w, 3) == -0.25
    assert sum(a_n(w, n) for n in range(2, 60)) == pytest.approx(w.a, abs=1e-15)
    assert partial_a(w, 3) == pytest.approx(a_n(w, 2) + a_n(w, 3) + a_n(w, 4), abs=1e-15)
    # partial sums squeezed between a and a + |a| rho^j
    for j in range(1, 40):
        assert w.a <= partial_a(w, j) <= w.a + abs(w.a) * w.rho**j


def test_gamma_closed_form():
    assert walters_gamma(W4) == -3.0
    assert walters_gamma(WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-1.0)) == -2.0
    # middle branch attained
    assert walters_gamma(WaltersPotential(b=-0.5, d=-0.5, a=-1.0, c=-1.0)) == -1.5
    # nearly degenerate tails: gamma -> max of the 2x2 travelling costs
    wd = WaltersPotential(b=-1.0, d=-1.0, a=-1e-9, c=-1e-9)
    assert walters_gamma(wd) == pytest.approx(-1.0, abs=1e-8)


def test_gamma_is_cost_matrix_eigenvalue():
    for w in regime_potentials().values():
        assert walters_gamma(w) == pytest.approx(float(mp_eigenvalue(cost_matrix(w))), abs=1e-14)


def test_pressure_degenerate_tails_match_two_state_closed_form():
    wd = WaltersPotential(b=-1.0, d=-1.0, a=-1e-9, c=-1e-9)
    for beta in (1.0, 5.0, 20.0):
        p = walters_pressure(wd, beta)
        assert p == pytest.approx(math.log1p(math.exp(-beta)), abs=1e-8)


def test_pressure_rate_approaches_gamma():
    for w in regime_potentials().values():
        gamma = walters_gamma(w)
        p = walters_pressure(w, 150.0)
        assert abs(math.log(p) / 150.0 - gamma) <= 0.05


def test_pressure_boundary_prefactor_is_golden():
    p = walters_pressure(W4, 150.0)
    assert p / math.exp(150.0 * -3.0) == pytest.approx(GOLDEN_RATIO, abs=0.02)


def test_pressure_perturbation_sandwich():
    beta, eps = 10.0, 0.01
    w = WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-2.0)
    wp = WaltersPotential(b=-1.0 + eps, d=-1.0, a=-1.0, c=-2.0)
    assert abs(walters_pressure(wp, beta) - walters_pressure(w, beta)) <= beta * eps


def test_cylinder_ratio_regimes():
    beta = 150.0
    for name, w in regime_potentials().items():
        rep = classify_regime(w)
        p = walters_pressure(w, beta)
        ratio, mu0 = walters_cylinder_ratio(w, 0.0, beta, p)
        if rep.regime == "zero-dominant":
            if rep.mirrored:
                assert mu0 <= 0.01
            else:
                assert mu0 >= 0.99 and ratio > 100.0
        else:
            assert mu0 == pytest.approx(rep.limit_mass_0, abs=0.02)


def test_boundary_regime_golden_limits():
    beta = 150.0
    p = walters_pressure(W4, beta)
    ratio, mu0 = walters_cylinder_ratio(W4, 0.0, beta, p)
    assert ratio == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=0.02)
    assert mu0 == pytest.approx(GOLDEN_MASS_0, abs=0.02)


def asymptotic_ratio(w, p, beta):
    """(P^2+e^{beta a})/(P+e^{beta a}) * (P+e^{beta c})/(P^2+e^{beta c})."""
    lp = math.log(p)
    t = (
        np.logaddexp(2.0 * lp, beta * w.a)
        - np.logaddexp(lp, beta * w.a)
        + np.logaddexp(lp, beta * w.c)
        - np.logaddexp(2.0 * lp, beta * w.c)
    )
    return math.exp(t) if t < 709.0 else math.inf


def test_asymptotic_ratio():
    beta = 150.0
    sym = WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-1.0)
    assert asymptotic_ratio(sym, walters_pressure(sym, beta), beta) == 1.0
    for w in regime_potentials().values():
        p = walters_pressure(w, beta)
        exact, _ = walters_cylinder_ratio(w, 0.0, beta, p)
        asym = asymptotic_ratio(w, p, beta)
        if math.isinf(exact) or math.isinf(asym):
            assert math.isinf(exact) and math.isinf(asym)
        else:
            assert exact == pytest.approx(asym, rel=0.02)


def test_series_divergence_detected():
    p = walters_pressure(W4, 50.0)
    with pytest.raises(SeriesDivergenceError):
        walters_cylinder_ratio(W4, 2.0 * p, 50.0, p)


def test_pressure_underflow_is_a_bracket_error():
    # beta*gamma is about -2e300, so P = e^{log P} is 0.0 at the lower
    # bracket end: a float underflow, not a perturbation >= pressure
    w = WaltersPotential(b=-1e300, d=-1.0, a=-1.0, c=-1.0, rho=0.5)
    with pytest.raises(BracketError, match="underflows to 0"):
        walters_pressure(w, 4.0)


def test_truncation_cap_raises_instead_of_a_wrong_pressure():
    # rho^J / (1 - rho) < 1e-15 needs J of about 3.9e6 terms at rho 0.99999;
    # the 1e5-term cap left rho^J = 0.37 and a pressure off by 6e-4
    w = WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-1.0, rho=0.99999)
    with pytest.raises(SeriesDivergenceError):
        _head_cap(w.rho)
    with pytest.raises(SeriesDivergenceError):
        walters_pressure(w, 11.0)
    assert _head_cap(0.999) < 10**5


def test_series_small_terms_negligible():
    # head of the weighted series is tiny compared to the analytic tail
    beta = 150.0
    p = walters_pressure(W4, beta)
    head = sum(
        (j + 1) * math.exp(beta * partial_a(W4, j) - j * p) for j in range(1, 150)
    )
    assert head < 1e-8


def test_tail_sums_match_asymptotics():
    # geometric tail times P approaches 1 once the potential part saturates
    beta = 150.0
    w = WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-1.0)
    p = walters_pressure(w, beta)
    k = 150
    tail = math.exp(-k * p) / (-math.expm1(-p))
    assert tail * p == pytest.approx(1.0, rel=0.05)
    weighted_tail = math.exp(-k * p) / (-math.expm1(-p)) * (k + 1.0 / (-math.expm1(-p)))
    assert weighted_tail * p * p == pytest.approx(1.0, rel=0.05)


def test_log_series_against_direct_sum():
    # moderate parameters where the direct sum is representable
    w = WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-2.0)
    beta, z = 3.0, 0.25
    direct = sum(math.exp(beta * partial_a(w, j) - j * z) for j in range(1, 4000))
    log_s, log_s_w = _Series(w.a, w.rho, beta)(z)
    assert log_s == pytest.approx(math.log(direct), abs=1e-12)
    direct_w = sum(
        (j + 1) * math.exp(beta * partial_a(w, j) - j * z) for j in range(1, 4000)
    )
    assert log_s_w == pytest.approx(math.log(direct_w), abs=1e-12)


def test_head_early_stop_matches_the_full_head():
    # the head stops at the first term below 2^-60 / J^2 of the first; a
    # full-length math.fsum over all J - 1 terms agrees to 4 ulp (of the
    # result, or of 1: the log of the sum is accurate to an absolute error)
    stopped = 0
    for rho in (0.5, 0.9, 0.99, 0.999):
        for beta in (1.0, 25.0, 150.0):
            for total in (-0.5, -3.0):
                w = dataclasses.replace(W4, a=total, rho=rho)
                for z in (walters_pressure(w, beta), 1e-9, 2.0**-6, 0.25, 2.0):
                    series = _Series(total, rho, beta)
                    got = series._log_head(z)
                    stopped += len(series._head) < series._head_len - 1
                    exps = [beta * total * (1.0 - rho ** float(j)) - z * j
                            for j in range(1, series._head_len)]
                    terms = [math.exp(e - exps[0]) for e in exps]
                    full = (
                        exps[0] + math.log(math.fsum(terms)),
                        exps[0] + math.log(math.fsum((j + 2) * t for j, t in enumerate(terms))),
                    )
                    for x, ref in zip(got, full):
                        assert abs(x - ref) <= 4 * math.ulp(max(abs(ref), 1.0))
    assert stopped > 0


def test_shared_series_matches_a_fresh_one():
    # the pressure solve and the reports at one beta share a _Series: a head
    # grown by an earlier call, or a value kept from one, gives what a fresh
    # series gives
    for rho in (0.9, 0.999):
        w = dataclasses.replace(W4, rho=rho)
        p = walters_pressure(w, 25.0)
        series_a, series_c = walters._series(w, 25.0)
        assert walters._series(w, 25.0)[0] is series_a
        for z in (1e-9, p, 2.0, p):
            assert series_a(z) == _Series(w.a, rho, 25.0)(z)
            assert series_c(z) == _Series(w.c, rho, 25.0)(z)


def test_classify_regime_cases():
    assert classify_regime(WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-1.0)).regime == "symmetric"
    rep2 = classify_regime(WaltersPotential(b=-2.0, d=-2.0, a=-1.0, c=-2.0))
    assert rep2.regime == "two-cycle-dominant" and rep2.limit_mass_0 == 0.5
    rep3 = classify_regime(WaltersPotential(b=-0.5, d=-0.5, a=-1.0, c=-3.0))
    assert rep3.regime == "zero-dominant" and rep3.limit_mass_0 == 1.0
    rep4 = classify_regime(W4)
    assert rep4.regime == "boundary-golden"
    assert rep4.limit_mass_0 == pytest.approx(GOLDEN_MASS_0, abs=1e-15)
    assert rep4.l_limit == pytest.approx(GOLDEN_RATIO, abs=1e-15)
    mirror = classify_regime(WaltersPotential(b=-1.0, d=-1.0, a=-3.0, c=-1.0))
    assert mirror.mirrored and mirror.limit_mass_0 == pytest.approx(1.0 - GOLDEN_MASS_0, abs=1e-15)


def test_mirror_symmetry_of_masses():
    # swapping the roles of the two fixed points flips mu([0]) to mu([1])
    beta = 120.0
    w = WaltersPotential(b=-0.7, d=-1.3, a=-1.0, c=-2.5)
    m = WaltersPotential(b=-1.3, d=-0.7, a=-2.5, c=-1.0)
    pw, pm = walters_pressure(w, beta), walters_pressure(m, beta)
    assert pw == pytest.approx(pm, rel=1e-10)
    _, mu_w = walters_cylinder_ratio(w, 0.0, beta, pw)
    _, mu_m = walters_cylinder_ratio(m, 0.0, beta, pm)
    assert mu_w == pytest.approx(1.0 - mu_m, abs=1e-9)


def test_stability_experiment():
    gamma = walters_gamma(W4)
    grid = (50.0, 100.0, 150.0)
    pressures = [walters_pressure(W4, beta) for beta in grid]
    masses = [walters_cylinder_ratio(W4, 0.0, beta, p)[1] for beta, p in zip(grid, pressures)]
    rep = perturbation_stability_experiment(W4, gamma - 0.5, grid, pressures, masses)
    assert rep.mu_gap_tail <= 0.02
    assert rep.vhat_gap_tail <= 0.02
    assert rep.gaps_shrink
    # zero perturbation: gaps vanish identically
    rep0 = perturbation_stability_experiment(W4, gamma - 0.5, grid[:2], pressures[:2], masses[:2], sign=0.0)
    assert rep0.mu_gap_tail == 0.0 and rep0.vhat_gap_tail == 0.0


def test_instability_branch_signals_divergence():
    w = WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-1.0)  # gamma = -2
    pressures = [walters_pressure(w, beta) for beta in (50.0, 100.0)]
    masses = [walters_cylinder_ratio(w, 0.0, beta, p)[1] for beta, p in zip((50.0, 100.0), pressures)]
    with pytest.raises(SeriesDivergenceError):
        perturbation_stability_experiment(w, -1.0, (50.0, 100.0), pressures, masses, sign=1.0)


def test_subaction_offset_estimate_unperturbed_limit():
    # (1/beta) log H(1 0^inf) - c approaches gamma - d - c
    beta = 200.0
    w = WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-1.0)
    p = walters_pressure(w, beta)
    v = subaction_offset_estimate(w, beta, p)
    assert v == pytest.approx(walters_gamma(w) - w.d - w.c, abs=0.01)


def test_appendix_closed_forms():
    with pytest.raises(ValueError):
        appendix_example(-1.0, -2.0, 10.0)
    ex = appendix_example(-2.0, -1.0, 10.0)
    assert ex.p0 == pytest.approx(2.0611536096934955e-09, rel=1e-10)
    assert ex.max_rel_err <= 1e-10
    assert ex.mu0_unpert == pytest.approx(0.5, abs=1e-12)
    assert ex.h1_unpert == pytest.approx(1.0, abs=1e-12)
    assert ex.p_unpert == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)


def test_appendix_selection_flip():
    # perturbed chain selects the other fixed point: mass of [0] collapses
    assert appendix_example(-2.0, -1.0, 20.0).p0 <= 1e-8
    rate = math.log(appendix_example(-2.0, -1.0, 50.0).h1_pert) / 50.0
    assert rate == pytest.approx(1.0, abs=0.02)


def test_appendix_floors_match_critical_floor():
    # the closed-form floors that appendix_example hands to perron agree
    # with the ones perron would derive (Analysis.floor: howard_cycle_mean,
    # Aubry decomposition of A - m, howard_cycle_mean, subaction),
    # up to the rounding of m; the betas keep the perturbed loop weight
    # m = log(1 + e^{beta eta}) above ZERO_CYCLE_TOL, below which the Aubry
    # rule counts the loop at 0 as critical too
    for gamma_p, eta in ((-2.0, -1.0), (-1.5, -0.25), (-3.0, -2.5)):
        for beta in (1.0, 2.0, 5.0, 10.0):
            for pot, (m, adj, gamma, v, aubry) in _appendix_chains(gamma_p, eta, beta):
                m_ref, adj_ref, gamma_ref, v_ref, aubry_ref = Analysis(pot).floor
                assert aubry == aubry_ref
                assert m == pytest.approx(m_ref, rel=1e-12, abs=1e-15)
                assert adj == adj_ref
                assert gamma == pytest.approx(gamma_ref, rel=1e-12, abs=1e-14)
                assert v == pytest.approx(v_ref, rel=1e-12, abs=1e-14)


def test_appendix_example_derives_no_floor(monkeypatch):
    calls, solves = [], []
    monkeypatch.setattr(Analysis, "floor", property(lambda an: calls.append(an.pot)))
    original = walters.perron

    def recorded(pot, beta, floor):
        solves.append(floor)
        return original(pot, beta, floor)

    monkeypatch.setattr(walters, "perron", recorded)
    assert appendix_example(-2.0, -1.0, 20.0).max_rel_err <= 1e-10
    assert calls == []
    # one solve per chain, each at its closed-form floor
    assert solves == [floor for _, floor in _appendix_chains(-2.0, -1.0, 20.0)]


# ------------------------------------------------------------ mpmath oracle
#
# An independent evaluation of the series at 40 digits: a head of a fixed
# ORACLE_HEAD terms summed directly, and the rest by expanding
# e^{c rho^j} = sum_m (c rho^j)^m / m!, c = -beta*total, each m a geometric
# sum in closed form; no logarithms until the end.

ORACLE_HEAD = 24
ORACLE_DPS = 40
DYADIC = st.sampled_from([-0.25, -0.5, -0.75, -1.0, -1.25, -1.5, -1.75, -2.0])
ORACLE_RHOS = st.sampled_from([0.5, 0.9, 0.99, 0.999])
ORACLE_BETAS = st.sampled_from([25.0, 50.0, 100.0, 150.0])


def oracle_series(total, rho, beta, z):
    """(S_0(z), S_1(z)) as mpf, S_w = sum_{j>=1} (j+1)^w e^{beta total (1 - rho^j) - j z}."""
    total, rho, beta, z = map(mpmath.mpf, (total, rho, beta, z))
    c = -beta * total
    big_j = ORACLE_HEAD
    plain = weighted = mpmath.mpf(0)
    for j in range(1, big_j):
        term = mpmath.exp(-c * (1 - rho**j) - j * z)
        plain += term
        weighted += (j + 1) * term
    # sum_{j>=J} y^j = y^J / (1-y), sum_{j>=J} (j+1) y^j = y^J (1 + J(1-y)) / (1-y)^2,
    # y = rho^m e^{-z}, 1 - y = (1 - rho^m) + rho^m (1 - e^{-z})
    x = c * rho**big_j
    q = -mpmath.expm1(-z)
    coeff = mpmath.exp(-c - big_j * z)  # e^{-c} (c rho^J)^m / m! e^{-Jz}
    rho_m = mpmath.mpf(1)
    tail = tail_w = mpmath.mpf(0)
    m = 0
    while True:
        one_minus_y = (1 - rho_m) + rho_m * q
        term = coeff / one_minus_y
        tail += term
        tail_w += term * (1 + big_j * one_minus_y) / one_minus_y
        if m > x and term < tail * mpmath.mpf(10) ** -(ORACLE_DPS + 5):
            break
        m += 1
        coeff *= x / m
        rho_m *= rho
    return plain + tail, weighted + tail_w


def oracle_pressure(w, beta):
    """Root in t = log P of the renewal equation, by mpmath.findroot
    (Anderson-Björck) on the bracket [beta*gamma - 10, beta*gamma + 10]."""

    def f(t):
        p = mpmath.exp(t)
        s_a, _ = oracle_series(w.a, w.rho, beta, p)
        s_c, _ = oracle_series(w.c, w.rho, beta, p)
        return beta * (mpmath.mpf(w.b) + w.d) + mpmath.log1p(s_a) + mpmath.log1p(s_c) - 2 * p

    t0 = beta * walters_gamma(w)
    return mpmath.exp(mpmath.findroot(f, (t0 - 10, t0 + 10), solver="anderson"))


def oracle_mu0(w, beta, p, a_beta):
    s_a, s_a_w = oracle_series(w.a, w.rho, beta, mpmath.mpf(p) - a_beta)
    s_c, s_c_w = oracle_series(w.c, w.rho, beta, p)
    s0 = (1 + s_a_w) / (1 + s_a)
    s1 = (1 + s_c_w) / (1 + s_c)
    return s0 / (s0 + s1)


def check_against_oracle(w, beta, sign=0.0):
    with mpmath.workdps(ORACLE_DPS):
        p = walters_pressure(w, beta)
        assert p == pytest.approx(float(oracle_pressure(w, beta)), rel=1e-12, abs=0.0)
        a_beta = sign * math.exp(beta * (walters_gamma(w) - 0.5))
        _, mu0 = walters_cylinder_ratio(w, a_beta, beta, p)
        assert mu0 == pytest.approx(float(oracle_mu0(w, beta, p, a_beta)), rel=1e-12, abs=0.0)
        for total in (w.a, w.c):
            for z in (2.0**-6, 0.25, 2.0):
                s, s_w = oracle_series(total, w.rho, beta, z)
                got = _Series(total, w.rho, beta)(z)
                for log_sum, exact in zip(got, (s, s_w)):
                    assert log_sum == pytest.approx(float(mpmath.log(exact)), rel=0.0, abs=1e-13)


@given(b=DYADIC, d=DYADIC, a=DYADIC, c=DYADIC, rho=ORACLE_RHOS, beta=ORACLE_BETAS,
       sign=st.sampled_from([0.0, 1.0, -1.0]))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
def test_pressure_and_masses_against_mpmath_oracle(b, d, a, c, rho, beta, sign):
    check_against_oracle(WaltersPotential(b=b, d=d, a=a, c=c, rho=rho), beta, sign=sign)


def test_short_head_is_exact(monkeypatch):
    # the cap bounds the head only: at 8 head terms the tail carries the
    # e^{c rho^j} factor exactly (c rho^8 of 23 to 69 here); summed as
    # e^{beta*total} past the head, these pressures were 2.2e-3 and 1.3e-3 low
    monkeypatch.setattr(walters, "_head_cap", lambda rho: 8)
    w = dataclasses.replace(W4, rho=0.99)
    assert _Series(w.a, w.rho, 25.0)._head_len == 8
    check_against_oracle(w, 25.0)
    check_against_oracle(w, 25.0, sign=1.0)
    check_against_oracle(WaltersPotential(b=-0.5, d=-0.75, a=-2.0, c=-1.0, rho=0.99), 25.0)


# ------------------------------------------------------------ solve cost


def test_pressure_solve_evaluates_each_series_at_most_12_times(monkeypatch):
    # bracket probes included; bisection took about 55 steps of 2 series
    calls = collections.Counter()
    call = walters._Series.__call__

    def counted(self, z):
        calls[id(self)] += 1
        return call(self, z)

    monkeypatch.setattr(walters._Series, "__call__", counted)
    for w in regime_potentials().values():
        for scale in (0.5, 0.75, 1.0):
            scaled = WaltersPotential(b=scale * w.b, d=scale * w.d, a=scale * w.a,
                                      c=scale * w.c, rho=w.rho)
            for rho in (0.5, 0.9, 0.99, 0.999):
                for beta in (25.0, 50.0, 100.0, 150.0):
                    calls.clear()
                    walters_pressure(dataclasses.replace(scaled, rho=rho), beta)
                    assert len(calls) == 2 and max(calls.values()) <= 12


def test_newton_slope_matches_central_difference():
    for w in regime_potentials().values():
        for rho in (0.5, 0.99):
            for beta in (25.0, 150.0):
                w_rho = dataclasses.replace(w, rho=rho)
                f = _pressure_equation(w_rho, beta)
                t_root = math.log(walters_pressure(w_rho, beta))
                for t in (t_root - 2.0, t_root, t_root + 0.5):
                    h = 1e-5
                    numeric = (f(t + h)[0] - f(t - h)[0]) / (2.0 * h)
                    assert f(t)[1] == pytest.approx(numeric, rel=1e-6)
