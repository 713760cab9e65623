"""Walters-type potentials on the full 2-shift.

The potential is constant on the cylinders [0^n 1], [1^n 0], [01], [10] with
values a_n, c_n, b, d, and vanishes at the fixed points.  For geometric tails
everything of interest has a closed or semi-closed form: the gamma rate, an
implicit scalar equation for the pressure, and exact series for the cylinder
masses mu([0]), mu([1]) of the equilibrium state, including a perturbation
B(x) = a_beta on [0].

Series are evaluated in log domain: at large inverse temperature the terms
span hundreds of orders of magnitude and the sums themselves overflow floats,
so only their logarithms are ever materialized.  Each tail series
sum_j (j+1)^w e^{beta A_j - jz} is a head of at most a few thousand
terms, summed in plain floats with math.fsum until its falling terms no
longer count, plus an exact tail: past the head e^{beta A_j} is expanded
in powers of rho^j, and each power is a geometric series in closed form.
The z-free head exponents are computed once per (total, rho, beta), as
far as a call reaches.  One evaluation gives the plain and the
(j+1)-weighted sum, so the pressure equation comes with its derivative
and is solved by safeguarded Newton on log P.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .maxplus import mp_2x2_closed_form
from .spectral import LocallyConstantPotential, perron
from .symbolic import full_shift

__all__ = [
    "WaltersPotential",
    "WaltersZeroTempReport",
    "StabilityRow",
    "StabilityReport",
    "AppendixExample",
    "SeriesDivergenceError",
    "BracketError",
    "walters_gamma",
    "walters_pressure",
    "walters_cylinder_ratio",
    "classify_regime",
    "subaction_offset_estimate",
    "perturbation_stability_experiment",
    "appendix_example",
    "GOLDEN_RATIO",
    "GOLDEN_MASS_0",
]

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_MASS_0 = (10.0 + 2.0 * math.sqrt(5.0)) / 20.0

TRUNC_CAP = 10**5
# Newton on log P stops at a step below this (or 4 ulp of log P)
_LOG_P_STEP = 1e-15
# the series tails stop at terms below 2^-60 of the largest
_TAIL_DIGITS = 60.0 * math.log(2.0)


class SeriesDivergenceError(ValueError):
    """A series cannot be summed to its tolerance: the cylinder-mass series
    diverges (perturbation at least as large as P), or its tail needs more
    than TRUNC_CAP terms."""


class BracketError(RuntimeError):
    """The pressure bisection bracket does not straddle a sign change."""


@dataclass(frozen=True)
class WaltersPotential:
    """b = A|[01], d = A|[10]; a_n = A|[0^n 1] with geometric profile
    a_n = a (1-rho) rho^(n-2), so that sum a_n = a; same for c_n with total c.

    With ``relaxed`` the all-negative hypothesis is weakened to b, d <= 0,
    b + d < 0 (the individual tail terms must still be negative).
    """

    b: float
    d: float
    a: float
    c: float
    rho: float = 0.5
    relaxed: bool = False

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")
        if self.relaxed:
            ok = self.b <= 0 and self.d <= 0 and self.b + self.d < 0
        else:
            ok = self.b < 0 and self.d < 0
        if not (ok and self.a < 0 and self.c < 0):
            raise ValueError("potential values must be negative (or relaxed form)")


def walters_gamma(w: WaltersPotential) -> float:
    """gamma = max{a+b+d, c+b+d, (a+c+b+d)/2} (tail totals a, c)."""
    lam, _ = mp_2x2_closed_form(w.a, w.b, w.c, w.d)
    return lam


def _softplus(x: float) -> float:
    """log(1 + e^x), stable for both signs."""
    if x > 36.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    """1 / (1 + e^{-x}), the derivative of _softplus."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _logaddexp(x: float, y: float) -> float:
    if x == -math.inf:
        return y
    if y == -math.inf:
        return x
    m = max(x, y)
    return m + math.log1p(math.exp(min(x, y) - m))


def _log_sum(exponents) -> float:
    """log sum_i e^{exponents_i} for a nonempty list."""
    top = max(exponents)
    return top + math.log(math.fsum(math.exp(x - top) for x in exponents))


def _head_cap(rho: float) -> int:
    """J with rho^J / (1 - rho) < 1e-15, so that the dropped tail of
    the partial sums is below relative rounding of the total.  Raises
    SeriesDivergenceError when J would pass TRUNC_CAP: a shorter sum
    would return a pressure off by up to rho^J, without an error."""
    j = math.ceil(math.log(1e-15 * (1.0 - rho)) / math.log(rho))
    if j > TRUNC_CAP:
        raise SeriesDivergenceError(
            f"rho = {rho} needs {j} series terms for a tail below 1e-15, "
            f"more than the cap of {TRUNC_CAP}"
        )
    return max(int(j), 8)


class _Series:
    """S_w(z) = sum_{j>=1} (j+1)^w e^{beta A_j - j z}, w in {0, 1}, for one
    tail total: A_j = total (1 - rho^j).

    The head j < J is summed term by term with math.fsum.  Its exponents
    beta A_j - j z fall with j, so the sum stops at the first term below
    2^-60 / J^2 of the first, found by bisection: the fewer than J terms
    from there on, each weighted by at most J, add less than 2^-60 of the
    sum.  The z-free exponents beta A_j are kept, computed as far as a call
    has reached, and so is each value by z.
    The tail j >= J is exact: with c = -beta total > 0,
    e^{beta A_j} = e^{-c} sum_m (c rho^j)^m / m!, so
    sum_{j>=J} = e^{-c} sum_m c^m/m! sum_{j>=J} (j+1)^w (rho^m e^{-z})^j,
    every term positive and every inner sum geometric.  J is the smallest
    J >= 8 with c rho^J <= 1 (capped by _head_cap), so the m-sum converges
    like the exponential series; it stops at the first m past c rho^J whose
    term is below 2^-60 of the largest, which bounds it for every z, since
    the geometric factors only fall with m.  When the cap leaves c rho^J
    above TRUNC_CAP, the m-sum would need that many terms, and
    SeriesDivergenceError is raised instead.
    """

    def __init__(self, total: float, rho: float, beta: float):
        cap = _head_cap(rho)
        c = -beta * total
        log_rho = math.log(rho)
        head_len = 8
        if c * rho**head_len > 1.0:
            head_len = math.ceil(math.log(c) / -log_rho)
        self._head_len = max(2, min(head_len, cap))
        self._beta_total, self._rho = beta * total, rho
        self._head = [self._beta_total * (1.0 - rho)]  # beta A_j for j = 1, 2, ...
        # log of 2^-60 / J^2
        self._head_cut = -_TAIL_DIGITS - 2.0 * math.log(self._head_len)
        x = c * rho**self._head_len
        if x > TRUNC_CAP:
            raise SeriesDivergenceError(
                f"the series tail needs about {x:.3g} terms, more than the cap of {TRUNC_CAP}"
            )
        log_x = math.log(c) + self._head_len * log_rho
        coeffs = []
        top = -math.inf
        while True:
            m = len(coeffs)
            t = m * log_x - math.lgamma(m + 1)
            top = max(top, t)
            if m > x and t < top - _TAIL_DIGITS:
                break
            coeffs.append(t)
        self._m_log_rho = [m * log_rho for m in range(len(coeffs))]
        self._tail = [t - c for t in coeffs]
        self._values = {}  # z -> (log S_0(z), log S_1(z))

    def _log_head(self, z: float) -> tuple[float, float]:
        """(log, log of the (j+1)-weighted) head sum over j < J."""
        beta_total, rho, head = self._beta_total, self._rho, self._head
        top = head[0] - z

        def exponent(j):  # of term j over the first, as head[j - 1] gives it
            return beta_total * (1.0 - rho ** float(j)) - z * j - top

        # term lo counts; hi is J or the first term that does not
        lo, hi = 1, self._head_len
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if exponent(mid) < self._head_cut:
                hi = mid
            else:
                lo = mid
        head += [beta_total * (1.0 - rho ** float(j)) for j in range(len(head) + 1, hi)]
        terms = [math.exp(b - z * j - top) for j, b in zip(range(1, hi), head)]
        weighted = math.fsum(map(operator.mul, range(2, hi + 1), terms))
        return top + math.log(math.fsum(terms)), top + math.log(weighted)

    def __call__(self, z: float) -> tuple[float, float]:
        """(log S_0(z), log S_1(z))."""
        if z <= 0.0:
            raise SeriesDivergenceError(
                f"series exponent z = {z} is not positive (perturbation >= pressure)"
            )
        if z in self._values:
            return self._values[z]
        log_head, log_head_w = self._log_head(z)
        # sum_{j>=J} y^j = y^J / (1-y); sum_{j>=J} (j+1) y^j = y^J (1 + J(1-y)) / (1-y)^2
        tail, tail_w = [], []
        for coeff, m_log_rho in zip(self._tail, self._m_log_rho):
            one_minus_y = -math.expm1(m_log_rho - z)
            log_q = math.log(one_minus_y)
            t = coeff - self._head_len * z - log_q
            tail.append(t)
            tail_w.append(t + math.log1p(self._head_len * one_minus_y) - log_q)
        value = _logaddexp(log_head, _log_sum(tail)), _logaddexp(log_head_w, _log_sum(tail_w))
        self._values[z] = value
        return value


@functools.lru_cache(maxsize=16)
def _series(w: WaltersPotential, beta: float) -> tuple[_Series, _Series]:
    """The _Series of the A and C tails of w at beta, shared by the pressure
    solve and the reports that evaluate them again at the same beta."""
    return _Series(w.a, w.rho, beta), _Series(w.c, w.rho, beta)


def _pressure_equation(w: WaltersPotential, beta: float):
    """t -> (f(t), f'(t)) for the log of the renewal equation at P = e^t,
    f(t) = beta(b+d) + softplus(log S_a(P)) + softplus(log S_c(P)) - 2P,
    strictly decreasing.  f' comes from the same evaluation:
    d log S/dz = -(S_w/S - 1), so
    f'(t) = -P (sigma(log S_a)(S_w,a/S_a - 1) + sigma(log S_c)(S_w,c/S_c - 1) + 2).
    """
    series_a, series_c = _series(w, beta)
    bd = beta * (w.b + w.d)

    def f(t: float) -> tuple[float, float]:
        p = math.exp(t)
        la, la_w = series_a(p)
        lc, lc_w = series_c(p)
        # P (S_w/S - 1) = e^{t + log S_w - log S} - P, with S_w >= 2S
        slope = (
            _sigmoid(la) * (math.exp(t + la_w - la) - p)
            + _sigmoid(lc) * (math.exp(t + lc_w - lc) - p)
        )
        return bd + _softplus(la) + _softplus(lc) - 2.0 * p, -slope - 2.0 * p

    return f


def walters_pressure(w: WaltersPotential, beta: float) -> float:
    """Unique positive root P of
    e^{2P} = e^{beta(b+d)} (1 + sum_j e^{beta A_j - jP})(1 + sum_j e^{beta C_j - jP})
    with A_j, C_j the tail partial sums.

    Newton's method on t = log P (see _pressure_equation), from beta*gamma,
    inside a bracket; a step that leaves the bracket is replaced by
    bisection.  It stops at a step below _LOG_P_STEP or 4 ulp of t: rounding
    in f leaves t no finer resolution.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    f = _pressure_equation(w, beta)
    t = beta * walters_gamma(w)
    lo = t - 10.0
    hi = math.log(math.log(2.0)) + 1.0
    for _ in range(51):
        if math.exp(lo) == 0.0:
            raise BracketError(
                f"lower bracket for log P not found: P = e^{lo:.6g} "
                "underflows to 0 in floating point"
            )
        if f(lo)[0] > 0.0:
            break
        lo -= 20.0
    else:
        raise BracketError("lower bracket for log P not found")
    if f(hi)[0] >= 0.0:
        raise BracketError("upper bracket for log P not found")
    for _ in range(200):
        value, slope = f(t)
        if value > 0.0:
            lo = t
        else:
            hi = t
        step = -value / slope
        if abs(step) <= max(_LOG_P_STEP, 4.0 * math.ulp(t)):
            return math.exp(t + step)
        t += step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
            if hi - lo <= max(_LOG_P_STEP, 4.0 * math.ulp(t)):
                break
    return math.exp(t)


def walters_cylinder_ratio(w: WaltersPotential, a_beta: float, beta: float, p: float):
    """(S0/S1, mu([0])) from the exact cylinder-mass series, with the
    first-coordinate perturbation B = a_beta on [0] and 0 on [1].

    S0 = (1 + sum (j+1) e^{beta A_j + j a_beta - j P}) / (1 + sum e^{...}),
    S1 the same with C_j and no perturbation term;
    mu([0]) = S0 / (S0 + S1).
    """
    series_a, series_c = _series(w, beta)
    l0, l0_w = series_a(p - a_beta)
    l1, l1_w = series_c(p)
    t = (_softplus(l0_w) - _softplus(l0)) - (_softplus(l1_w) - _softplus(l1))
    ratio = math.exp(t) if t < 709.0 else math.inf
    # mu0 = S0 / (S0 + S1) = 1 / (1 + e^{-t})
    return ratio, _sigmoid(t)


@dataclass(frozen=True)
class WaltersZeroTempReport:
    gamma: float
    regime: str  # symmetric | two-cycle-dominant | zero-dominant | boundary-golden
    mirrored: bool
    limit_mass_0: float
    l_limit: float | None


def classify_regime(w: WaltersPotential) -> WaltersZeroTempReport:
    """Exact case split on (a, c, b+d); c > a cases follow by the 0<->1 swap."""
    gamma = walters_gamma(w)
    a, c, bd = w.a, w.c, w.b + w.d
    if a == c:
        return WaltersZeroTempReport(gamma, "symmetric", False, 0.5, None)
    mirrored = c > a
    if mirrored:
        a, c = c, a
    if a + bd < c:
        mass = 0.5
        regime = "two-cycle-dominant"
        l_lim = None
    elif a + bd > c:
        mass = 0.0 if mirrored else 1.0
        regime = "zero-dominant"
        l_lim = None
    else:
        mass = 1.0 - GOLDEN_MASS_0 if mirrored else GOLDEN_MASS_0
        regime = "boundary-golden"
        l_lim = GOLDEN_RATIO
    return WaltersZeroTempReport(gamma, regime, mirrored, mass, l_lim)


def subaction_offset_estimate(w: WaltersPotential, beta: float, p: float,
                              a_beta: float = 0.0) -> float:
    """Subaction value at 1^inf from the first-coordinate eigen relation.

    With H(0^inf) = 1 the eigen equation at 0^inf gives
    H(1 0^inf) = (e^P - e^{a_beta}) e^{-beta d}; travelling from 1 0^inf to
    1^inf costs the tail total c, so V(1^inf) is estimated by
    (1/beta) log H(1 0^inf) - c.
    """
    num = math.expm1(p) - math.expm1(a_beta)
    if num <= 0.0:
        raise SeriesDivergenceError(
            "perturbation dominates the pressure in the eigen relation"
        )
    return (math.log(num) - beta * w.d) / beta - w.c


@dataclass(frozen=True)
class StabilityRow:
    beta: float
    pressure: float
    a_beta: float
    mu0_pert: float
    mu0_unpert: float
    vhat1_pert: float
    vhat1_unpert: float


@dataclass(frozen=True)
class StabilityReport:
    delta: float
    sign: float
    rows: tuple[StabilityRow, ...]
    mu_gap_tail: float
    vhat_gap_tail: float
    gaps_shrink: bool


def perturbation_stability_experiment(w: WaltersPotential, delta: float, beta_grid,
                                      pressures, masses, sign: float = 1.0) -> StabilityReport:
    """Compare mu([0]) and the V(1^inf) estimate with and without the
    perturbation a_beta = sign * e^{beta delta} along a beta grid.

    The perturbed pressure reuses the unperturbed one: it lies in the
    sandwich [P - |a_beta|, P + |a_beta|], and for delta < gamma the width
    is a vanishing fraction of P itself.  ``pressures`` are walters_pressure
    at the grid points, and ``masses`` the unperturbed mu([0]) there
    (walters_cylinder_ratio with a_beta = 0).
    """
    grid = tuple(float(b) for b in beta_grid)
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("beta grid must be strictly increasing")
    rows = []
    for beta, p, mu_unpert in zip(grid, pressures, masses, strict=True):
        a_beta = sign * math.exp(beta * delta)
        _, mu_pert = walters_cylinder_ratio(w, a_beta, beta, p)
        v_pert = subaction_offset_estimate(w, beta, p, a_beta)
        v_unpert = subaction_offset_estimate(w, beta, p, 0.0)
        rows.append(
            StabilityRow(beta, p, a_beta, mu_pert, mu_unpert, v_pert, v_unpert)
        )
    tail = rows[len(rows) // 2 :]
    mu_gap = max(abs(r.mu0_pert - r.mu0_unpert) for r in tail)
    v_gap = max(abs(r.vhat1_pert - r.vhat1_unpert) for r in tail)
    first_gap = abs(rows[0].mu0_pert - rows[0].mu0_unpert)
    last_gap = abs(rows[-1].mu0_pert - rows[-1].mu0_unpert)
    return StabilityReport(
        delta=delta,
        sign=sign,
        rows=tuple(rows),
        mu_gap_tail=mu_gap,
        vhat_gap_tail=v_gap,
        gaps_shrink=last_gap <= first_gap + 1e-12,
    )


@dataclass(frozen=True)
class AppendixExample:
    """Two-symbol example where a sup-norm perturbation of size e^{beta eta},
    eta above the gamma rate, flips the selected limit measure.

    Closed forms (g = e^{beta gamma_p}, h = e^{beta eta}):
    lambda_tilde = 1 + (h + sqrt(h^2 + 4 g^2))/2, H1 = (lambda_tilde - 1)/g,
    p0 = mu([0]) = 1/2 - h / (2 sqrt(h^2 + 4 g^2)).
    """

    beta: float
    gamma_p: float
    eta: float
    lambda_tilde: float
    h1_pert: float
    p0: float
    h1_unpert: float
    p_unpert: float
    mu0_unpert: float
    max_rel_err: float


def _rel_err(measured: float, expected: float) -> float:
    return abs(measured - expected) / max(abs(expected), 1e-300)


def _appendix_chains(gamma_p: float, eta: float, beta: float):
    """The perturbed and unperturbed two-state chains, as depth-1 potentials
    on the full 2-shift with beta already applied, each with its perron
    floor (m, adj, gamma, V, C) in closed form.

    Perturbed: the loop at 1 weighs m = log(1 + e^{beta eta}) > 0, the
    largest cycle mean; its Aubry set is that loop, C = (1,), and the best
    way back to it in A - m is 1 -> 0 -> 1, of weight 2 beta gamma_p - 2m.
    The subaction of A - m is S(1, x): 0 at 1 and beta gamma_p - m at 0, so
    V = (0, m - beta gamma_p) once it vanishes at 0.
    Unperturbed: m = 0, both loops are Aubry components of entropy 0, so C
    is both states, the max-plus rate of their cost matrix is the 2-cycle
    mean beta gamma_p, and V = 0.
    """
    g = beta * gamma_p
    m = math.log1p(math.exp(beta * eta))

    def chain(top):
        return LocallyConstantPotential.from_table(full_shift(1), {"00": 0.0, "01": g, "10": g, "11": top})

    return (
        (chain(m), (m, ((1,),), 2.0 * g - 2.0 * m, (0.0, m - g), (1,))),
        (chain(0.0), (0.0, ((1,),), g, (0.0, 0.0), (0, 1))),
    )


def appendix_example(gamma_p: float, eta: float, beta: float) -> AppendixExample:
    """Evaluate the selection-flip example and cross-check against perron.

    The perturbed transfer matrix is [[1, g], [g, 1+h]]; its potential is
    handed to the spectral solver at beta 1 and the numeric eigendata is
    compared with the closed forms (max relative error reported).
    """
    if not (gamma_p < eta < 0.0):
        raise ValueError("parameters must satisfy gamma_p < eta < 0")
    r = math.exp(beta * (gamma_p - eta))  # in (0, 1)
    s = math.sqrt(1.0 + 4.0 * r * r)
    lambda_tilde = 1.0 + 0.5 * math.exp(beta * eta) * (1.0 + s)
    h1_pert = 0.5 * math.exp(beta * (eta - gamma_p)) * (1.0 + s)
    p0 = 2.0 * r * r / (s * (s + 1.0))  # = 1/2 - h/(2 sqrt(h^2+4g^2)), stably
    p_unpert = math.log1p(math.exp(beta * gamma_p))

    pert, unpert = (perron(pot, 1.0, floor) for pot, floor in _appendix_chains(gamma_p, eta, beta))
    errs = [
        _rel_err(math.exp(pert.log_lambda), lambda_tilde),
        _rel_err(math.exp(pert.log_H[1]), h1_pert),
        _rel_err(pert.mass_k[0], p0),
        _rel_err(math.exp(unpert.log_H[1]), 1.0),
        _rel_err(unpert.log_lambda, p_unpert),
        _rel_err(unpert.mass_k[0], 0.5),
    ]
    return AppendixExample(
        beta=beta,
        gamma_p=gamma_p,
        eta=eta,
        lambda_tilde=lambda_tilde,
        h1_pert=h1_pert,
        p0=p0,
        h1_unpert=math.exp(unpert.log_H[1]),
        p_unpert=p_unpert,
        mu0_unpert=unpert.mass_k[0],
        max_rel_err=max(errs),
    )
