"""Zero-temperature asymptotics for locally constant potentials.

Cross-checks the pressure route (1/beta * log(P(beta A) - h), from spectral
data) against the max-plus route (eigenvalue of the Aubry inter-component
cost matrix), and extracts calibrated-subaction estimates from eigenfunction
logarithms.  ``Analysis`` holds what these estimates share for one
potential, so that each piece is computed once however many estimates read it,
and its ``floor`` is the one max-plus floor routine behind ``perron``.  Each
estimate takes the analysis of its potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .aubry import (
    AubryDecomposition,
    EmptyAubrySetError,
    PositiveCycleError,
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
    """What the estimates for one potential share, each part computed once:
    the word graph, the Aubry decomposition, the max-plus eigendata of its
    maximal cost matrix and the max-plus subaction; Perron pairs by beta,
    each solved on first use above the floor of this analysis; and h at the
    highest precision asked for so far.
    """

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
        resolves P - h at beta and below."""
        dps = self.perron(beta).dps
        if dps > self._h[0]:
            self._h = (dps, _entropy_mp(self.decomposition, dps))
        return self._h[1]

    @cached_property
    def graph(self):
        return word_graph(self.pot)

    @cached_property
    def decomposition(self) -> AubryDecomposition:
        return decompose_aubry(self.graph)

    @cached_property
    def floor(self):
        """(m, adjacency of a largest-entropy component, gamma, max-plus
        subaction) for ``perron``: m = 0 when the potential is normalized;
        otherwise m is the maximum cycle mean of the word graph's edges (from
        PositiveCycleError, or howard_cycle_mean), and the rest is read off the
        analysis of A - m.  gamma and the subaction are None when the cost
        matrix has no eigenvector; the floor is None when A - m has no Aubry
        decomposition, m's certificate, and perron finds its own."""
        an, m = self, 0.0
        try:
            d = self.decomposition
        except (PositiveCycleError, EmptyAubrySetError) as e:
            m = e.mean if isinstance(e, PositiveCycleError) else howard_cycle_mean(self.graph.n, self.graph.edges)
            shifted = {w: a - m for w, a in self.pot.values.items()}
            an = Analysis(LocallyConstantPotential(self.pot.sft, self.pot.depth, shifted))
            try:
                d = an.decomposition
            except (PositiveCycleError, EmptyAubrySetError):
                return None
        try:
            gamma, v = an.gamma_maxplus, an.subaction_maxplus
        except NoEigenvalueError:
            gamma = v = None
        return m, d.adjacency(d.entropies.index(d.h)), gamma, v

    @cached_property
    def gamma_maxplus(self) -> float:
        return float(self.eigenvectors.eigenvalue)

    @cached_property
    def eigenvectors(self):
        return mp_eigenvectors(self.decomposition.maximal_cost())

    @cached_property
    def subaction_maxplus(self) -> tuple[float, ...]:
        """V_rec(x) = max_j [V(Sigma_j) + S_j(x)], with the first max-plus
        eigenvector as the offsets V(Sigma_j), vanishing at the all-zeros word."""
        g = self.graph
        zero_word = tuple([0] * self.pot.word_length)
        if zero_word not in g.nodes:
            raise PerronError(f"state {zero_word} is not admissible, so V cannot vanish at it")
        lead = [float(x) for x in self.eigenvectors.eigenvectors[0]]
        return max_plus_subaction(g, self.decomposition, lead, g.nodes.index(zero_word))


def estimate_gamma(an: Analysis, beta_grid=DEFAULT_BETA_GRID) -> GammaEstimate:
    """gamma_hat(beta) = (1/beta) log(P(beta A) - h) along the grid, plus the
    max-plus eigenvalue of the cost matrix restricted to maximal-entropy
    components (the predicted limit).

    h is computed at the precision the largest beta needs.
    """
    grid = tuple(float(b) for b in beta_grid)
    if not grid or any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("beta grid must be non-empty and strictly increasing")
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
    normalized to vanish at the all-zeros word; its max-plus limit is
    ``an.subaction_maxplus``.
    """
    v_hat = tuple(lh / beta for lh in an.perron(beta).log_H)
    # residual of the calibration max_u [A(u v) + V(u)] = V(v) at each node
    best_in: dict[int, float] = {}
    for (u, v, w) in an.graph.edges:
        best_in[v] = max(best_in.get(v, NEG_INF), w + v_hat[u] - v_hat[v])
    return SubactionEstimate(
        beta=beta,
        v_hat=v_hat,
        calibration_residual=max((abs(m) for m in best_in.values()), default=0.0),
    )


def limit_measure_estimate(an: Analysis, beta: float, words) -> dict:
    """Equilibrium cylinder masses at the given beta for each word."""
    p = an.perron(beta)
    return {tuple(w): equilibrium_cylinder_mass(p, w) for w in words}
