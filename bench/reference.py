"""Reference values computed without the code under test.

Only numpy and mpmath do the arithmetic; nothing here imports zerotemp.

* Locally constant potentials: the Perron root of the transfer matrix is
  bracketed by the M-matrix test (mu > rho exactly when Gaussian elimination
  of mu*I - M without pivoting has only positive pivots), narrowing a
  bracket on log(rho - e^h) to 1e-15 at twice the digits P - h ~
  e^(beta gamma) needs.  The eigenvectors come from inverse iteration at
  the upper end of that bracket, repeated until every component settles.
  Two-state tables use the closed-form 2x2 root instead.
* Aubry sets and costs: zero-weight edges, all-pairs longest paths by
  Floyd-Warshall, and the max-plus eigenvalue as the best mean of a closed
  walk of length <= L, plus brute-force simple-cycle enumeration for L <= 7.
* Walters potentials: the pressure series summed term by term up to the
  index where beta*|a|*rho^j <= 1, and past it in closed form by expanding
  exp(-beta*a*rho^j) as a power series; that tail is exact up to a
  remainder below 1e-30 of the sum.
* The selection-flip example: its closed forms, with enough digits for
  the cancellation in p0.
"""

from __future__ import annotations

import functools
import itertools
import math

import mpmath
import numpy as np

from workloads import words

NEG_INF = float("-inf")


# --------------------------------------------------------------- symbolic

class WordGraph:
    """k-words as nodes; edge u -> v carries A(u . v[-1]).  The generated
    tables all have depth k >= 1 (keys are (k+1)-words)."""

    def __init__(self, pot_cfg: dict):
        trans = pot_cfg["transitions"]
        table = {tuple(int(ch) for ch in w): float(v) for w, v in pot_cfg["table"].items()}
        k = self.k = len(next(iter(table))) - 1
        self.nodes = words(trans, k)
        index = {w: i for i, w in enumerate(self.nodes)}
        self.edges = []
        for u in self.nodes:
            for s in range(len(trans)):
                if trans[u[-1]][s]:
                    long_word = u + (s,)
                    self.edges.append((index[u], index[long_word[-k:]], table[long_word]))
        self.zero_word = tuple([0] * k)
        self.zero_index = index.get(self.zero_word)

    @property
    def n(self):
        return len(self.nodes)


# ------------------------------------------------------------ Aubry, costs

def best_paths(g: WordGraph) -> np.ndarray:
    """best[u, v] = max weight of a path u -> v with at least one edge."""
    d = np.full((g.n, g.n), NEG_INF)
    for u, v, w in g.edges:
        d[u, v] = max(d[u, v], w)
    for k in range(g.n):
        d = np.maximum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def _reach(adj, start):
    seen, todo = {start}, [start]
    while todo:
        for v in adj[todo.pop()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def aubry(g: WordGraph, dps: int) -> dict:
    """Components of the zero-weight cycles, the largest entropy h (mpf),
    the maximal-entropy set and the cost matrix a_ij of entering i from j."""
    zero_adj = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        if w == 0.0:
            zero_adj[u].append(v)
    reach = [_reach(zero_adj, u) for u in range(g.n)]
    crit = {(u, v) for u in range(g.n) for v in zero_adj[u] if u in reach[v] or u == v}
    on_cycle = sorted({u for u, _ in crit})
    comps, seen = [], set()
    for u in on_cycle:
        if u in seen:
            continue
        comp = tuple(sorted(v for v in on_cycle if v in reach[u] and u in reach[v]))
        seen |= set(comp)
        comps.append(comp)
    comps.sort()
    entropies = [component_entropy(comp, crit, dps) for comp in comps]
    h = max(entropies)
    with mpmath.workdps(dps):
        eps = mpmath.mpf(10) ** (-(dps // 2))
        maximal = [i for i, e in enumerate(entropies) if e >= h - eps]
    best = best_paths(g)
    node_comp = {v: i for i, comp in enumerate(comps) for v in comp}
    L = len(comps)
    cost = np.full((L, L), NEG_INF)
    for u, v, w in g.edges:
        i = node_comp.get(v)
        if i is None or ((u, v) in crit and node_comp.get(u) == i):
            continue
        for j, comp in enumerate(comps):
            approach = 0.0 if u in comp else best[comp[0], u]
            cost[i, j] = max(cost[i, j], w + approach)
    return {"components": comps, "h": h, "maximal": maximal, "cost": cost}


def component_entropy(comp, crit, dps):
    pos = {v: t for t, v in enumerate(comp)}
    adj = [[0] * len(comp) for _ in comp]
    for u, v in crit:
        if u in pos and v in pos:
            adj[pos[u]][pos[v]] = 1
    if all(sum(row) == 1 for row in adj):
        return mpmath.mpf(0)  # a single cycle
    coeffs = charpoly(adj)
    with mpmath.workdps(dps + 10):
        # Newton from above the largest real root decreases monotonically to it
        x = mpmath.mpf(max(sum(row) for row in adj))
        for _ in range(400):
            p = mpmath.polyval(coeffs, x, derivative=True)
            step = p[0] / p[1]
            x -= step
            if step <= x * mpmath.mpf(10) ** (-dps):
                break
        return mpmath.log(x)


def charpoly(adj):
    """Integer coefficients of det(xI - A), highest first (Faddeev-LeVerrier)."""
    n = len(adj)
    coeffs = [1]
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = [[sum(adj[i][t] * mk[t][j] for t in range(n)) + (coeffs[-1] if i == j else 0)
               for j in range(n)] for i in range(n)]
        am = sum(adj[i][t] * mk[t][i] for i in range(n) for t in range(n))
        coeffs.append(-am // k)
    return coeffs


def mp_product(a, b):
    return np.max(a[:, :, None] + b[None, :, :], axis=1)


def max_cycle_mean(c: np.ndarray) -> float:
    """Best mean weight over closed walks of length 1..L (a maximal simple
    cycle is among them)."""
    best, power = NEG_INF, c.copy()
    for k in range(1, c.shape[0] + 1):
        best = max(best, float(np.max(np.diag(power))) / k)
        power = mp_product(power, c)
    return best


def brute_force_cycle_mean(c: np.ndarray) -> float:
    """Enumerate every simple cycle by its least node."""
    L, best = c.shape[0], NEG_INF
    for first in range(L):
        rest = range(first + 1, L)
        for size in range(0, L - first):
            for others in itertools.combinations(rest, size):
                for order in itertools.permutations(others):
                    cyc = (first,) + order + (first,)
                    w = sum(c[a, b] for a, b in zip(cyc, cyc[1:]))
                    best = max(best, w / (size + 1))
    return best


# ----------------------------------------------------------- Perron root

def _shifted(m, mu):
    n = len(m)
    return [[(mu if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]


def _lu(a) -> int:
    """In-place LU without pivoting (L below the diagonal, U on and above).

    Stops at the first pivot that is not positive and returns its index, or
    len(a) if there is none.  For an irreducible nonnegative m, mu > rho(m)
    exactly when mu*I - m is a nonsingular M-matrix, that is when all its
    leading principal minors, and so all these pivots, are positive.
    """
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return k
        row_k = a[k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] = a[i][k] / row_k[k]
                row_i = a[i]
                for j in range(k + 1, n):
                    if row_k[j]:
                        row_i[j] -= f * row_k[j]
    return n


def _solve(lu, b, transpose=False):
    n = len(lu)
    x = list(b)
    if not transpose:
        for i in range(n):
            x[i] -= sum(lu[i][j] * x[j] for j in range(i))
        for i in reversed(range(n)):
            x[i] = (x[i] - sum(lu[i][j] * x[j] for j in range(i + 1, n))) / lu[i][i]
    else:  # (LU)^T y = b  ->  U^T z = b, L^T y = z
        for i in range(n):
            x[i] = (x[i] - sum(lu[j][i] * x[j] for j in range(i))) / lu[i][i]
        for i in reversed(range(n)):
            x[i] -= sum(lu[j][i] * x[j] for j in range(i + 1, n))
    return x


def reference_dps(g: WordGraph, beta: float, gamma: float) -> int:
    """Twice the digits P - h ~ e^{beta gamma} needs, plus guard digits:
    elimination on mu*I - M cancels about that many digits in its pivots."""
    return 2 * (int(beta * abs(gamma) / math.log(10)) + 40 + 2 * g.n)


def perron_point(g: WordGraph, beta: float, entropy, gamma: float) -> dict:
    """Perron data of the transfer matrix M[v][u] = exp(beta A(u.v[-1]));
    entropy(dps) gives h at that many digits."""
    dps = reference_dps(g, beta, gamma)
    while True:
        out = _perron_point(g, beta, entropy(dps), gamma, dps)
        # the excess must sit well inside the working precision
        if -out["log_excess"] / math.log(10) < dps / 2 - 20:
            return out
        dps *= 2


def _perron_point(g, beta, h, gamma, dps):
    n = g.n
    with mpmath.workdps(dps):
        m = [[mpmath.mpf(0)] * n for _ in range(n)]
        for u, v, w in g.edges:
            m[v][u] = mpmath.exp(mpmath.mpf(beta) * mpmath.mpf(w))
        h = mpmath.mpf(h)
        if n == 2 and all(m[i][j] > 0 for i in range(2) for j in range(2)):
            tr = m[0][0] + m[1][1]
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            rho = (tr + mpmath.sqrt(tr * tr - 4 * det)) / 2
            mu = rho * (1 + mpmath.mpf(10) ** (-(dps // 2)))
        else:
            mu = rho = _bracket_root(m, mpmath.exp(h), h + beta * gamma)
        a = _shifted(m, mu)
        if _lu(a) < n:
            raise ArithmeticError("shift is not above the Perron root")
        right, left = _inverse_iteration(a, n)
        if min(right) <= 0 or min(left) <= 0:
            raise ArithmeticError("reference Perron vectors are not positive")
        anchor = right[g.zero_index] if g.zero_index is not None else mpmath.mpf(1)
        h_vec = [x / anchor for x in right]
        raw = [r * l for r, l in zip(right, left)]
        z = sum(raw)
        pressure = mpmath.log(rho)
        excess = pressure - h
    with mpmath.workdps(30):  # the cancellations are done; 30 digits give every float
        return {
            "pressure": float(pressure),
            "log_excess": float(mpmath.log(excess)),
            "log_H": [float(mpmath.log(x)) for x in h_vec],
            "mass_k": [float(x / z) for x in raw],
        }


def _inverse_iteration(lu, n, tol=1e-30, max_steps=60):
    """Right and left Perron vectors of M from the factors of mu*I - M.

    Each step shrinks another eigenvector's share by (mu - rho)/(mu - l).
    A second eigenvalue l near rho (two zero cycles) can leave a share of
    the size of the smallest Perron component after a few steps, so this
    iterates until no component of either vector moves by more than `tol`
    relative, twice in a row.
    """
    right, left = [mpmath.mpf(1)] * n, [mpmath.mpf(1)] * n
    settled = 0
    for _ in range(max_steps):
        new_right = _solve(lu, right)
        new_left = _solve(lu, left, transpose=True)
        new_right = [x / max(new_right) for x in new_right]
        new_left = [x / max(new_left) for x in new_left]
        moved = max(abs(x - y) / abs(x) for x, y in zip(new_right + new_left, right + left) if x)
        right, left = new_right, new_left
        settled = settled + 1 if moved < tol else 0
        if settled == 2:
            return right, left
    raise ArithmeticError("reference inverse iteration did not settle")


def _bracket_root(m, floor, guess):
    """Upper end of a bracket on s = log(rho - floor) of width 1e-15,
    certified at both ends by the M-matrix test; rho > floor = e^h.

    Starts around the max-plus estimate `guess` of s, widens until the test
    changes sign, bisects to width 1, then runs regula falsi (Illinois) on
    the last pivot, which crosses zero at rho once the leading pivots are
    positive.
    """
    n = len(m)

    def probe(s):
        a = _shifted(m, floor + mpmath.exp(s))
        k = _lu(a)
        return k == n, (a[-1][-1] if k >= n - 1 else None)  # None: a leading pivot failed

    s_lo, s_hi, width = guess - 16, guess + 16, 16
    while not probe(s_hi)[0]:
        width *= 2
        s_hi = guess + width
    while probe(s_lo)[0]:
        width *= 2
        s_lo = guess - width
        if width > 1e6:
            raise ArithmeticError("rho - e^h is below the reference precision")
    f_hi, f_lo = probe(s_hi)[1], probe(s_lo)[1]
    s_lo, s_hi = mpmath.mpf(s_lo), mpmath.mpf(s_hi)
    side = 0
    while s_hi - s_lo > 1e-15:
        s = (s_lo + s_hi) / 2
        if s_hi - s_lo < 1 and f_lo is not None:
            s = s_hi - f_hi * (s_hi - s_lo) / (f_hi - f_lo)
            s = min(max(s, s_lo + (s_hi - s_lo) * 1e-9), s_hi - (s_hi - s_lo) * 1e-9)
        above, f = probe(s)
        if above:
            s_hi, f_hi = s, f
            if side == 1 and f_lo is not None:
                f_lo /= 2
            side = 1
        else:
            s_lo, f_lo = s, f
            if side == -1:
                f_hi /= 2
            side = -1
    return floor + mpmath.exp(s_hi)


def lc_reference(pot_cfg: dict, grid) -> dict:
    g = WordGraph(pot_cfg)
    aub = aubry(g, 30)
    maximal = aub["cost"][np.ix_(aub["maximal"], aub["maximal"])]
    gamma = max_cycle_mean(maximal)

    @functools.lru_cache(maxsize=None)
    def entropy(dps):
        return aub["h"] if aub["h"] == 0 else aubry(g, dps)["h"]

    return {
        "graph": g,
        "h": float(aub["h"]),
        "gamma": gamma,
        "points": {beta: perron_point(g, beta, entropy, gamma) for beta in grid},
    }


# --------------------------------------------------------------- max-plus

def maxplus_reference(pot_cfg: dict) -> dict:
    g = WordGraph(pot_cfg)
    aub = aubry(g, 30)
    idx = aub["maximal"]
    cost = aub["cost"][np.ix_(idx, idx)]
    out = {
        "components": [frozenset("".join(map(str, g.nodes[v])) for v in c) for c in aub["components"]],
        "maximal": idx,
        "cost": cost,
        "eigenvalue": max_cycle_mean(cost),
    }
    if len(idx) <= 7:
        out["brute_force"] = brute_force_cycle_mean(cost)
    return out


# ---------------------------------------------------------------- Walters

def walters_log_series(total, rho, beta, z, weighted):
    """log sum_{j>=1} (j+1)^w exp(beta*total*(1-rho^j) - j*z)."""
    c = -beta * total
    J = max(8, math.ceil(math.log(max(c, 1.0)) / -math.log(rho)) + 1)
    j = np.arange(1, J, dtype=float)
    head = beta * total * (1.0 - rho**j) - j * z
    if weighted:
        head += np.log(j + 1.0)
    # sum_{j>=J} = e^{beta total} sum_m c^m/m! sum_{j>=J} (j+1)^w (rho^m e^{-z})^j
    tail = []
    for m in range(80):
        log_y = m * math.log(rho) - z
        one_minus_y = -math.expm1(log_y)
        t = beta * total + (m * math.log(c) if m else 0.0) - math.lgamma(m + 1)
        t += J * log_y - math.log(one_minus_y)
        if weighted:
            t += math.log(J + 1 - J * math.exp(log_y)) - math.log(one_minus_y)
        tail.append(t)
    terms = np.concatenate([head, tail])
    top = float(np.max(terms))
    return top + math.log(float(np.sum(np.exp(terms - top))))


def softplus(x):
    return x + math.log1p(math.exp(-x)) if x > 0 else math.log1p(math.exp(x))


def walters_gamma(p):
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    return max(a + b + d, c + b + d, (a + b + c + d) / 2.0)


def walters_pressure(p, beta, a_beta=0.0):
    """Root of beta(b+d) + a_beta + softplus(log S_a(P - a_beta)) +
    softplus(log S_c(P)) = 2P, found by regula falsi (Illinois) on log P.

    This is the renewal equation over excursions 0^(j+1) 1^(k+1); the
    perturbation B = a_beta on [0] adds (j+1) a_beta to each one, so
    a_beta = 0 gives the pressure of the unperturbed potential.
    """
    def f(t):
        z = math.exp(t)
        la = walters_log_series(p["a"], p["rho"], beta, z - a_beta, False)
        lc = walters_log_series(p["c"], p["rho"], beta, z, False)
        return beta * (p["b"] + p["d"]) + a_beta + softplus(la) + softplus(lc) - 2.0 * z

    lo, hi = beta * walters_gamma(p) - 10.0, math.log(math.log(2.0)) + 1.0
    if a_beta > 0.0:  # the series need P > a_beta; f grows without bound there
        lo = max(lo, math.log(a_beta) + 1e-9)
    f_lo, f_hi = f(lo), f(hi)
    while f_lo <= 0:
        lo -= 20.0
        f_lo = f(lo)
    side = 0
    for _ in range(300):
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        ft = f(t)
        if ft > 0:
            lo, f_lo = t, ft
            if side == -1:
                f_hi /= 2
            side = -1
        else:
            hi, f_hi = t, ft
            if side == 1:
                f_lo /= 2
            side = 1
        if ft == 0 or hi - lo <= 4e-16 * max(1.0, abs(t)):
            break
    return math.exp(t)


def walters_mu0(p, beta, pressure, a_beta=0.0):
    """(S0/S1, mu([0])) from the cylinder-mass series."""
    z0 = pressure - a_beta
    ls0 = softplus(walters_log_series(p["a"], p["rho"], beta, z0, True)) - softplus(
        walters_log_series(p["a"], p["rho"], beta, z0, False))
    ls1 = softplus(walters_log_series(p["c"], p["rho"], beta, pressure, True)) - softplus(
        walters_log_series(p["c"], p["rho"], beta, pressure, False))
    t = ls0 - ls1
    return math.exp(t), 1.0 / (1.0 + math.exp(-t))


GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_MASS_0 = (10.0 + 2.0 * math.sqrt(5.0)) / 20.0


def walters_regime(p):
    """Limit regime from the comparison of a + b + d with c."""
    a, c, bd = p["a"], p["c"], p["b"] + p["d"]
    gamma = walters_gamma(p)
    if a == c:
        return [gamma, "symmetric", 0, 0.5, None]
    mirrored = c > a
    if mirrored:
        a, c = c, a
    if a + bd < c:
        return [gamma, "two-cycle-dominant", int(mirrored), 0.5, None]
    if a + bd > c:
        return [gamma, "zero-dominant", int(mirrored), 0.0 if mirrored else 1.0, None]
    mass = 1.0 - GOLDEN_MASS_0 if mirrored else GOLDEN_MASS_0
    return [gamma, "boundary-golden", int(mirrored), mass, GOLDEN_RATIO]


def walters_vhat1(p, beta, pressure, a_beta):
    """V(1^inf) from the eigen relation at 0^inf."""
    return (math.log(math.expm1(pressure) - math.expm1(a_beta)) - beta * p["d"]) / beta - p["c"]


# ------------------------------------------------------ selection flip

def appendix_reference(gamma_p: float, eta: float, beta: float) -> dict:
    # p0 = 1/2 - h/(2 sqrt(h^2 + 4g^2)) cancels about 2 beta (eta - gamma_p) / ln 10 digits
    digits = 50 + int(2 * beta * max(-gamma_p, eta - gamma_p) / math.log(10))
    with mpmath.workdps(digits):
        g = mpmath.exp(mpmath.mpf(beta) * gamma_p)
        h = mpmath.exp(mpmath.mpf(beta) * eta)
        root = mpmath.sqrt(h * h + 4 * g * g)
        lam = 1 + (h + root) / 2
        return {
            "lambda_tilde": float(lam),
            "h1_pert": float((lam - 1) / g),
            "p0": float(mpmath.mpf(1) / 2 - h / (2 * root)),
            "p_unpert": float(mpmath.log(1 + g)),
            "mu0_unpert": 0.5,
        }
