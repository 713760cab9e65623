"""Self-contained verification suites over closed-form examples.

Each suite runs a batch of numerical checks whose expected values come from
independent closed forms (2x2 eigenvalues, geometric series, brute-force
cycle enumeration) and returns one CheckResult per check.  The suites back
both the command line ``verify`` verb and the acceptance test module.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .asymptotics import Analysis, estimate_gamma, estimate_subaction
from .maxplus import (
    NEG_INF,
    MaxPlusMatrix,
    NoEigenvalueError,
    mp_2x2_closed_form,
    mp_apply,
    mp_eigenvalue,
    mp_eigenvectors,
)
from .spectral import LocallyConstantPotential
from .symbolic import full_shift
from .walters import (
    GOLDEN_MASS_0,
    GOLDEN_RATIO,
    WaltersPotential,
    appendix_example,
    classify_regime,
    perturbation_stability_experiment,
    walters_cylinder_ratio,
    walters_gamma,
    walters_pressure,
)

__all__ = [
    "CheckResult",
    "SUITE_NAMES",
    "run_suite",
    "format_result",
    "lc1_potential",
    "lc2_potential",
    "three_symbol_potential",
    "zero_potential",
    "regime_potentials",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    expected: float
    tol: float


def format_result(r: CheckResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return (
        f"[{status}] {r.name}: measured={r.measured:.12g} "
        f"expected={r.expected:.12g} tol={r.tol:g}"
    )


def lc1_potential() -> LocallyConstantPotential:
    """Symmetric two-cycle example: zero on 00 and 11, -1 on 01 and 10."""
    sft = full_shift(1)
    return LocallyConstantPotential.from_table(
        sft, {"00": 0.0, "01": -1.0, "10": -1.0, "11": 0.0}
    )


def lc2_potential() -> LocallyConstantPotential:
    """Asymmetric variant: -1 on 01, -2 on 10."""
    sft = full_shift(1)
    return LocallyConstantPotential.from_table(
        sft, {"00": 0.0, "01": -1.0, "10": -2.0, "11": 0.0}
    )


def three_symbol_potential() -> LocallyConstantPotential:
    """Two disjoint zero cycles on three symbols: fixed point 0 and orbit 12."""
    sft = full_shift(2)
    return LocallyConstantPotential.from_table(
        sft,
        {
            "00": 0.0,
            "12": 0.0,
            "21": 0.0,
            "01": -1.0,
            "10": -1.0,
            "02": -1.0,
            "20": -1.0,
            "11": -1.0,
            "22": -1.0,
        },
    )


def zero_potential() -> LocallyConstantPotential:
    sft = full_shift(1)
    return LocallyConstantPotential.from_table(
        sft, {"00": 0.0, "01": 0.0, "10": 0.0, "11": 0.0}
    )


def regime_potentials() -> dict:
    """One representative per limit-measure regime (plus mirror images)."""
    return {
        "symmetric": WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-1.0),
        "two-cycle-dominant": WaltersPotential(b=-2.0, d=-2.0, a=-1.0, c=-2.0),
        "zero-dominant": WaltersPotential(b=-0.5, d=-0.5, a=-1.0, c=-3.0),
        "boundary-golden": WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-3.0),
        "two-cycle-dominant-mirror": WaltersPotential(b=-2.0, d=-2.0, a=-2.0, c=-1.0),
        "zero-dominant-mirror": WaltersPotential(b=-0.5, d=-0.5, a=-3.0, c=-1.0),
        "boundary-golden-mirror": WaltersPotential(b=-1.0, d=-1.0, a=-3.0, c=-1.0),
    }


def suite_closed_forms() -> list[CheckResult]:
    """perron() against exact 2x2 eigenvalues over an inverse-temperature sweep."""
    out = []
    an1, an2 = Analysis(lc1_potential()), Analysis(lc2_potential())
    worst1 = worst2 = 0.0
    for beta in range(1, 51):
        p1 = an1.perron(float(beta)).log_lambda
        e1 = math.log1p(math.exp(-beta))
        worst1 = max(worst1, abs(p1 - e1) / e1)
        p2 = an2.perron(float(beta)).log_lambda
        e2 = math.log1p(math.exp(-1.5 * beta))
        worst2 = max(worst2, abs(p2 - e2) / e2)
    out.append(
        CheckResult("perron symmetric example rel err, beta 1..50", worst1 <= 1e-12, worst1, 0.0, 1e-12)
    )
    out.append(
        CheckResult("perron asymmetric example rel err, beta 1..50", worst2 <= 1e-12, worst2, 0.0, 1e-12)
    )
    p0 = Analysis(zero_potential()).perron(1.0).log_lambda
    out.append(
        CheckResult("pressure of zero potential", abs(p0 - math.log(2)) <= 1e-12, p0, math.log(2), 1e-12)
    )
    return out


def _lemma_cost_law_checks(name: str, d) -> list[CheckResult]:
    cost = d.cost
    n = cost.n
    finite_nonpos = all(
        cost[i, j] != NEG_INF and cost[i, j] <= 0 for i in range(n) for j in range(n)
    )
    diag_neg = all(cost[i, i] < 0 for i in range(n))
    tri = all(
        cost[l, i] + cost[i, j] <= cost[l, j] + 1e-12
        for l in range(n)
        for i in range(n)
        for j in range(n)
    )
    return [
        CheckResult(f"{name} cost entries finite and <= 0", finite_nonpos, float(finite_nonpos), 1.0, 0.0),
        CheckResult(f"{name} cost diagonal < 0", diag_neg, float(diag_neg), 1.0, 0.0),
        CheckResult(f"{name} cost triangle law", tri, float(tri), 1.0, 0.0),
    ]


def suite_theorem_a() -> list[CheckResult]:
    """Pressure-excess rate vs max-plus eigenvalue, monotonicity, cost laws,
    and calibrated-subaction residuals."""
    out = []
    analyses = [
        ("symmetric example", Analysis(lc1_potential())),
        ("asymmetric example", Analysis(lc2_potential())),
        ("three-symbol example", Analysis(three_symbol_potential())),
    ]
    for name, an in analyses:
        ge = estimate_gamma(an)
        gap = abs(ge.gamma_hat[-1] - ge.gamma_maxplus)
        out.append(
            CheckResult(f"{name} gamma gap at beta 256", gap <= 0.05, ge.gamma_hat[-1], ge.gamma_maxplus, 0.05)
        )
        # log(P - h) = beta * gamma_hat must decrease along the grid
        excess = [b * g for b, g in zip(ge.beta_grid, ge.gamma_hat)]
        drop = max(e2 - e1 for e1, e2 in zip(excess, excess[1:]))
        out.append(
            CheckResult(f"{name} pressure excess non-increasing", drop <= 1e-12, drop, 0.0, 1e-12)
        )
        out.extend(_lemma_cost_law_checks(name, an.decomposition))
    for name, an in analyses[:2]:
        se = estimate_subaction(an, 256.0)
        out.append(
            CheckResult(f"{name} calibration residual at beta 256", se.calibration_residual <= 0.02, se.calibration_residual, 0.0, 0.02)
        )
    # subaction constancy across a multi-node Aubry component
    an3 = analyses[2][1]
    se3 = estimate_subaction(an3, 256.0)
    spread = 0.0
    for comp in an3.decomposition.components:
        vals = [se3.v_hat[v] for v in comp]
        spread = max(spread, max(vals) - min(vals))
    out.append(
        CheckResult("subaction constant on Aubry components", spread <= 1e-9, spread, 0.0, 1e-9)
    )
    return out


def suite_theorem_b() -> list[CheckResult]:
    """Walters rate, limit-measure regimes, and stability under small
    first-coordinate perturbations at beta = 150."""
    out = []
    beta = 150.0
    for name, w in regime_potentials().items():
        gamma = walters_gamma(w)
        p = walters_pressure(w, beta)
        rate = math.log(p) / beta
        out.append(
            CheckResult(f"{name} pressure rate vs gamma", abs(rate - gamma) <= 0.05, rate, gamma, 0.05)
        )
        rep = classify_regime(w)
        _, mu0 = walters_cylinder_ratio(w, 0.0, beta, p)
        if rep.regime == "zero-dominant":
            ok = mu0 >= 0.98 if not rep.mirrored else mu0 <= 0.02
            out.append(CheckResult(f"{name} mass concentration", ok, mu0, rep.limit_mass_0, 0.02))
        else:
            out.append(
                CheckResult(f"{name} limit mass of [0]", abs(mu0 - rep.limit_mass_0) <= 0.02, mu0, rep.limit_mass_0, 0.02)
            )
        if rep.l_limit is not None:
            l_beta = p / math.exp(beta * gamma)
            out.append(
                CheckResult(f"{name} pressure prefactor l(beta)", abs(l_beta - GOLDEN_RATIO) <= 0.02, l_beta, GOLDEN_RATIO, 0.02)
            )
        # stability: perturbation exponentially below the gamma rate
        for sign in (1.0, -1.0):
            row = perturbation_stability_experiment(w, gamma - 0.5, (beta,), [p], [mu0], sign).rows[0]
            mu_gap = abs(row.mu0_pert - row.mu0_unpert)
            v_gap = abs(row.vhat1_pert - row.vhat1_unpert)
            tag = "+" if sign > 0 else "-"
            out.append(
                CheckResult(f"{name} mass stability (sign {tag})", mu_gap <= 0.02, mu_gap, 0.0, 0.02)
            )
            out.append(
                CheckResult(f"{name} subaction stability (sign {tag})", v_gap <= 0.02, v_gap, 0.0, 0.02)
            )
    return out


def suite_appendix() -> list[CheckResult]:
    """Selection-flip example: closed forms vs numeric spectral data."""
    out = []
    gamma_p, eta = -2.0, -1.0
    for beta in (5.0, 10.0, 20.0):
        ex = appendix_example(gamma_p, eta, beta)
        out.append(
            CheckResult(f"closed forms vs perron at beta {beta:g}", ex.max_rel_err <= 1e-10, ex.max_rel_err, 0.0, 1e-10)
        )
    ex20 = appendix_example(gamma_p, eta, 20.0)
    out.append(
        CheckResult("perturbed mass of [0] at beta 20", ex20.p0 <= 1e-8, ex20.p0, 0.0, 1e-8)
    )
    ex50 = appendix_example(gamma_p, eta, 50.0)
    rate = math.log(ex50.h1_pert) / 50.0
    out.append(
        CheckResult("perturbed eigenfunction rate at 1^inf", abs(rate - (eta - gamma_p)) <= 0.02, rate, eta - gamma_p, 0.02)
    )
    out.append(
        CheckResult("unperturbed mass of [0]", abs(ex50.mu0_unpert - 0.5) <= 1e-10, ex50.mu0_unpert, 0.5, 1e-10)
    )
    return out


def _brute_best_cycle_mean(m: MaxPlusMatrix):
    """Maximum mean over all simple cycles, by exhaustive DFS enumeration."""
    n = m.n
    exact = any(
        isinstance(e, (int, Fraction)) for row in m.entries for e in row if e != NEG_INF
    )
    best = None

    def consider(weight, length):
        nonlocal best
        mean = Fraction(weight, length) if exact else weight / length
        if best is None or mean > best:
            best = mean

    def dfs(start, node, visited, weight, length):
        for j in range(n):
            w = m.entries[node][j]
            if w == NEG_INF:
                continue
            if j == start:
                consider(weight + w, length + 1)
            elif j > start and j not in visited:
                dfs(start, j, visited | {j}, weight + w, length + 1)

    for s in range(n):
        dfs(s, s, {s}, 0, 0)
    return best


def suite_maxplus_oracle() -> list[CheckResult]:
    """Howard eigenvalue vs brute-force simple cycles, and the 2x2 closed form
    vs the general machinery, on seeded random matrices."""
    out = []
    rng = random.Random(20240817)
    mismatches = 0
    identity_bad = 0
    cyclic = 0
    for _ in range(500):
        n = rng.randint(1, 6)
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                if rng.random() < 0.35:
                    row.append(NEG_INF)
                else:
                    row.append(Fraction(rng.randint(-24, 12), rng.randint(1, 4)))
            rows.append(row)
        m = MaxPlusMatrix.from_rows(rows)
        expected = _brute_best_cycle_mean(m)
        try:
            lam = mp_eigenvalue(m)
        except NoEigenvalueError:
            lam = None
        if lam != expected:
            mismatches += 1
            continue
        if lam is None:
            continue
        cyclic += 1
        if m.is_finite():
            eig = mp_eigenvectors(m)
            for v in eig.eigenvectors:
                lhs = mp_apply(m, list(v))
                if any(x != lam + y for x, y in zip(lhs, v)):
                    identity_bad += 1
                    break
    out.append(
        CheckResult("Howard vs brute-force simple cycles (500 exact matrices)", mismatches == 0, float(mismatches), 0.0, 0.0)
    )
    out.append(
        CheckResult("exact eigen-identity on finite matrices", identity_bad == 0, float(identity_bad), 0.0, 0.0)
    )
    worst_lam = worst_off = worst_ident = 0.0
    for _ in range(1000):
        a, b, c, d = (rng.uniform(-3.0, 3.0) for _ in range(4))
        lam_cf, off_cf = mp_2x2_closed_form(a, b, c, d)
        m = MaxPlusMatrix.from_rows([[a + b + d, c + d], [a + b, b + c + d]])
        lam = mp_eigenvalue(m)
        eig = mp_eigenvectors(m)
        v = eig.eigenvectors[0]
        worst_lam = max(worst_lam, abs(lam - lam_cf))
        worst_off = max(worst_off, abs((v[1] - v[0]) - off_cf))
        lhs = mp_apply(m, list(v))
        worst_ident = max(worst_ident, max(abs(x - (lam + y)) for x, y in zip(lhs, v)))
    out.append(
        CheckResult("2x2 closed-form eigenvalue vs Howard (1000 matrices)", worst_lam <= 1e-12, worst_lam, 0.0, 1e-12)
    )
    out.append(
        CheckResult("2x2 closed-form offset vs eigenvector", worst_off <= 1e-12, worst_off, 0.0, 1e-12)
    )
    out.append(
        CheckResult("float eigen-identity residual", worst_ident <= 1e-12, worst_ident, 0.0, 1e-12)
    )
    out.append(
        CheckResult("oracle coverage: matrices with cycles", cyclic >= 300, float(cyclic), 500.0, 200.0)
    )
    return out


SUITE_NAMES = ("closed-forms", "theorem-a", "theorem-b", "appendix", "maxplus-oracle")

_SUITES = {
    "closed-forms": suite_closed_forms,
    "theorem-a": suite_theorem_a,
    "theorem-b": suite_theorem_b,
    "appendix": suite_appendix,
    "maxplus-oracle": suite_maxplus_oracle,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return _SUITES[name]()
