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

from .aubry import (
    ZERO_CYCLE_TOL,
    AubryDecomposition,
    EmptyAubrySetError,
    PositiveCycleError,
    WordGraph,
    decompose_aubry,
    max_plus_subaction,
    word_graph,
)
from .maxplus import NEG_INF, NoEigenvalueError, howard_cycle_mean, mp_eigenvectors
from .spectral import LocallyConstantPotential, PerronData, PerronError, adjacency_entropy
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


def _entropy_mp(decomp: AubryDecomposition, dps: int):
    """Largest component entropy h as an mpf at dps digits."""
    return adjacency_entropy(decomp.adjacency(decomp.entropies.index(decomp.h)), dps)


class Analysis:
    """What the estimates for one potential A share, each part computed once:
    the word graph of A - m and its Aubry decomposition, the max-plus
    eigendata and subaction read off them; Perron pairs by beta, each solved
    on first use above the floor of this analysis; and h at the highest
    precision asked for so far."""

    def __init__(self, pot: LocallyConstantPotential):
        self.pot = pot
        self._perron: dict[float, PerronData] = {}
        self._h = (0, None)  # (dps, h at that precision)

    def perron(self, beta: float) -> PerronData:
        if beta not in self._perron:
            self._perron[beta] = perron(self.pot, beta, self.floor)
        return self._perron[beta]

    def entropy(self, beta: float):
        """h (an mpf) at the Perron working precision at beta, which
        resolves P - beta*m - h at beta and below."""
        dps = self.perron(beta).dps
        if dps > self._h[0]:
            self._h = (dps, _entropy_mp(self.decomposition, dps))
        return self._h[1]

    @cached_property
    def _normalized(self) -> tuple:
        """(m, word graph of A - m, its Aubry decomposition or else its error,
        m's failed certificate); m is 0 or the maximum cycle mean of A."""
        g = word_graph(self.pot)
        try:
            return 0.0, g, decompose_aubry(g)
        except (PositiveCycleError, EmptyAubrySetError) as e:
            m = e.mean if isinstance(e, PositiveCycleError) else howard_cycle_mean(g.n, g.edges)
        g = WordGraph(g.nodes, tuple((u, v, w - m) for u, v, w in g.edges))
        try:
            return m, g, decompose_aubry(g)
        except (PositiveCycleError, EmptyAubrySetError) as e:
            return m, g, e

    graph = property(lambda self: self._normalized[1])

    @property
    def decomposition(self) -> AubryDecomposition:
        if isinstance(d := self._normalized[2], Exception):
            raise d
        return d

    @cached_property
    def floor(self):
        """(m, adjacency of a largest-entropy component, gamma, max-plus
        subaction, Aubry states C) for ``perron``, read off A - m.  gamma and
        the subaction are None when either fails its certificate; C is ()
        when a critical component has less entropy than h, as its rows read
        an O(1) share of the root through the rest, which perron's split
        cannot resolve.  The floor is None when A - m has no Aubry
        decomposition, and perron finds its own."""
        m, _, d = self._normalized
        if isinstance(d, Exception):
            return None
        try:
            gamma, v = self.gamma_maxplus, self.subaction_maxplus
        except NoEigenvalueError:
            gamma = v = None
        aubry = () if len(d.maximal_set) < len(d.components) else tuple(sorted(x for c in d.components for x in c))
        return m, d.adjacency(d.entropies.index(d.h)), gamma, v, aubry

    def exact_floor(self, beta: float) -> bool:
        """Whether each critical cycle of A - m weighs exactly 0 in the float
        exponents beta*A of transfer_matrix less beta*m, so that the floor
        e^{beta*m + h} under P - beta*m - h is exact."""
        nodes, shift = self.graph.nodes, Fraction(beta) * Fraction(self._normalized[0])
        pairs = self.decomposition.critical_pairs
        index = {x: i for i, x in enumerate({x for pair in pairs for x in pair})}
        edges = [(index[u], index[v], Fraction(beta * self.pot.value(nodes[u] + nodes[v][-1:])) - shift)
                 for u, v in pairs]
        if not any(w for _, _, w in edges):  # critical edges that weigh 0, as on every bench table
            return True
        negated = [(u, v, -w) for u, v, w in edges]  # all cycle means 0: the largest and the least
        return howard_cycle_mean(len(index), edges) == 0 == howard_cycle_mean(len(index), negated)

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
    for b in grid:
        if not an.exact_floor(b):
            raise PerronError(f"at beta {b:g} the float exponents beta*A move the floor e^(beta*m + h) "
                              "off its critical cycles, so P - beta*m - h is not resolved")
    h_mp = an.entropy(grid[-1])
    return GammaEstimate(
        beta_grid=grid,
        gamma_hat=tuple(an.perron(b).pressure_excess_log(h_mp) / b for b in grid),
        gamma_maxplus=an.gamma_maxplus,
        h=float(h_mp),
    )


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
