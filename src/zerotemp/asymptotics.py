"""Zero-temperature asymptotics for locally constant potentials.

Cross-checks the pressure route (1/beta * log(P(beta A) - beta*m - h), from
spectral data) against the max-plus route (eigenvalue of the Aubry cost
matrix of A - m), and extracts calibrated-subaction estimates from
eigenfunction logarithms.  ``Analysis`` holds what they share for one
potential, so that each piece is computed once however many estimates read
it, and its ``floor`` is the one max-plus floor routine behind ``perron``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath

from .aubry import ZERO_CYCLE_TOL, AubryDecomposition, EmptyAubrySetError, PositiveCycleError, WordGraph
from .aubry import decompose_aubry, max_plus_subaction, word_graph
from .maxplus import NEG_INF, NoEigenvalueError, howard_cycle_mean, mp_eigenvectors
from .spectral import LocallyConstantPotential, PerronData, PerronError, _adjacency_root
from .spectral import equilibrium_cylinder_mass, perron

__all__ = [
    "Analysis",
    "GammaEstimate",
    "SubactionEstimate",
    "estimate_gamma",
    "estimate_subaction",
    "limit_measure_estimate",
    "DEFAULT_BETA_GRID",
]

DEFAULT_BETA_GRID = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class GammaEstimate:
    beta_grid: tuple[float, ...]
    gamma_hat: tuple[float, ...]
    gamma_maxplus: float
    h: float


def _entropy_mp(root, dps: int):
    """The largest component entropy h = log e^h as an mpf at dps digits."""
    with mpmath.workdps(dps):
        return mpmath.log(root)


class Analysis:
    """What the estimates for one potential A share, each part computed once:
    the word graph of A - m and its Aubry decomposition, the max-plus
    eigendata and subaction read off them; Perron pairs by beta, each solved
    on first use above the floor of this analysis; and e^h at the highest
    precision asked for so far."""

    def __init__(self, pot: LocallyConstantPotential):
        self.pot = pot
        self._perron: dict[float, PerronData] = {}
        self._root = (0, None)  # (dps, e^h at that precision)

    def perron(self, beta: float) -> PerronData:
        if beta not in self._perron:
            self._perron[beta] = perron(self.pot, beta, self.floor, self.root)
        return self._perron[beta]

    def root(self, dps: int):
        """e^h at dps digits, solved once at the most digits asked for so far
        and rounded."""
        if dps > self._root[0]:
            d = self.decomposition
            self._root = dps, _adjacency_root(d.adjacency(d.entropies.index(d.h)), dps)
        with mpmath.workdps(dps):
            return +self._root[1]

    def entropy(self, beta: float):
        """h (an mpf) at the Perron working precision at beta, which
        resolves P - beta*m - h at beta and below."""
        dps = self.perron(beta).dps
        return _entropy_mp(self.root(dps), dps)

    @cached_property
    def _normalized(self) -> tuple:
        """(word graph of A - m, its Aubry decomposition or else its error,
        m's failed certificate), m a float: 0 or the maximum cycle mean of A."""
        g = word_graph(self.pot)
        try:
            return g, decompose_aubry(g)
        except (PositiveCycleError, EmptyAubrySetError) as e:
            m = e.mean if isinstance(e, PositiveCycleError) else howard_cycle_mean(g.n, g.edges)
        g = WordGraph(g.nodes, tuple((u, v, w - m) for u, v, w in g.edges))
        try:
            return g, decompose_aubry(g)
        except (PositiveCycleError, EmptyAubrySetError) as e:
            return g, e

    graph = property(lambda self: self._normalized[0])

    @property
    def decomposition(self) -> AubryDecomposition:
        if isinstance(d := self._normalized[1], Exception):
            raise d
        return d

    @cached_property
    def floor(self):
        """(m, adjacency of a largest-entropy component, gamma, max-plus
        subaction, Aubry states C) for ``perron``, read off A - m, with m
        the exact (Fraction) mean of its critical cycles.  gamma and
        the subaction are None when either fails its certificate; C is ()
        when a critical component has less entropy than h, as its rows read
        an O(1) share of the root through the rest, which perron's split
        cannot resolve.  The floor is None when A - m has no Aubry
        decomposition, and perron finds its own."""
        d = self._normalized[1]
        if isinstance(d, Exception):
            return None
        try:
            gamma, v = self.gamma_maxplus, self.subaction_maxplus
        except NoEigenvalueError:
            gamma = v = None
        aubry = () if len(d.maximal_set) < len(d.components) else tuple(sorted(x for c in d.components for x in c))
        return self._top_mean, d.adjacency(d.entropies.index(d.h)), gamma, v, aubry

    def _critical_mean(self, sign: int) -> Fraction:
        """The largest (sign 1) or the least (sign -1) mean in A of the
        critical cycles of A - m, as an exact Fraction of the table's floats:
        the word graph is shifted by a float m, so every cycle whose mean
        agrees with m to rounding is critical, though their exact means may
        differ."""
        nodes, pairs = self.graph.nodes, self.decomposition.critical_pairs
        weights = [self.pot.value(nodes[u] + nodes[v][-1:]) for u, v in pairs]
        if len(set(weights)) == 1:  # one weight, as 0 on every bench table
            return Fraction(weights[0])
        index = {x: i for i, x in enumerate({x for pair in pairs for x in pair})}
        edges = [(index[u], index[v], sign * Fraction(w)) for (u, v), w in zip(pairs, weights)]
        return sign * howard_cycle_mean(len(index), edges)

    @cached_property
    def _top_mean(self) -> Fraction:
        return self._critical_mean(1)

    @cached_property
    def exact_floor(self) -> bool:
        """Whether every critical cycle has the exact mean m, so that the floor
        e^{beta*m + h} is exact at every beta: not on a tie to float rounding."""
        return self._top_mean == self._critical_mean(-1)

    @cached_property
    def gamma_maxplus(self) -> float:
        return float(self.eigenvectors.eigenvalue)

    @cached_property
    def eigenvectors(self):
        return mp_eigenvectors(self.decomposition.maximal_cost())

    @cached_property
    def subaction_maxplus(self) -> tuple[float, ...]:
        """V_rec(x) = max_j [V(Sigma_j) + S_j(x)], with the first max-plus
        eigenvector as the offsets V(Sigma_j), vanishing at the all-zeros word;
        NoEigenvalueError unless calibrated within ZERO_CYCLE_TOL * max(1, |V|)."""
        g = self.graph
        zero_word = tuple([0] * self.pot.word_length)
        if zero_word not in g.nodes:
            raise PerronError(f"state {zero_word} is not admissible, so V cannot vanish at it")
        lead = [float(x) for x in self.eigenvectors.eigenvectors[0]]
        v = max_plus_subaction(g, self.decomposition, lead, g.nodes.index(zero_word))
        residual = _calibration_residual(g, v)
        if residual > ZERO_CYCLE_TOL * max(1.0, *(abs(x) for x in v if x != NEG_INF)):
            raise NoEigenvalueError(f"the max-plus subaction misses calibration by {residual:.3g}")
        return v


def _calibration_residual(g: WordGraph, v) -> float:
    """max_y |max_x [w(x y) + V(x)] - V(y)| on g, skipping -inf entries of V."""
    best_in: dict[int, float] = {}
    for (x, y, w) in g.edges:
        if v[x] != NEG_INF and v[y] != NEG_INF:
            best_in[y] = max(best_in.get(y, NEG_INF), w + v[x] - v[y])
    return max((abs(r) for r in best_in.values()), default=0.0)


def estimate_gamma(an: Analysis, beta_grid=DEFAULT_BETA_GRID) -> GammaEstimate:
    """gamma_hat(beta) = (1/beta) log(P(beta A) - beta*m - h) along the grid,
    plus the max-plus eigenvalue of the cost matrix of A - m restricted to
    maximal-entropy components (the predicted limit).

    h is computed at the precision the largest beta needs.
    """
    grid = tuple(float(b) for b in beta_grid)
    if not grid or any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("beta grid must be non-empty and strictly increasing")
    if not an.exact_floor:
        raise PerronError("critical cycles of A - m tie to float rounding but differ in their exact means, "
                          "so no floor e^(beta*m + h) is exact for all of them and P - beta*m - h is not resolved")
    h_mp = an.entropy(grid[-1])
    gamma_hat = tuple(an.perron(b).pressure_excess_log(h_mp) / b for b in grid)
    return GammaEstimate(beta_grid=grid, gamma_hat=gamma_hat, gamma_maxplus=an.gamma_maxplus, h=float(h_mp))


@dataclass(frozen=True)
class SubactionEstimate:
    beta: float
    v_hat: tuple[float, ...]
    calibration_residual: float


def estimate_subaction(an: Analysis, beta: float) -> SubactionEstimate:
    """Finite-beta subaction V_hat = (1/beta) log H by node of ``an.graph``,
    normalized to vanish at the all-zeros word, and its residual of the
    calibration of A - m; its max-plus limit is ``an.subaction_maxplus``.
    """
    v_hat = tuple(lh / beta for lh in an.perron(beta).log_H)
    return SubactionEstimate(beta, v_hat, _calibration_residual(an.graph, v_hat))


def limit_measure_estimate(an: Analysis, beta: float, words) -> dict:
    """Equilibrium cylinder masses at the given beta for each word."""
    p = an.perron(beta)
    return {tuple(w): equilibrium_cylinder_mass(p, w) for w in words}
