"""Mane potential, Aubry decomposition and inter-component costs.

For a locally constant potential the dynamics at cylinder granularity is a
weighted digraph on k-words (the word graph); the Mane potential S(u, v) is
then the maximum total weight of a directed path u -> v, the Aubry set is the
union of zero-weight cycles, and the cost a_ij of travelling into component
Sigma_i from component Sigma_j drives the max-plus eigenproblem of the
pressure's zero-temperature speed.

This module is a thin layer over ``maxplus``: the Mane table is the max-plus
closure of the word graph's weight matrix, kept on the graph, and the Aubry
components are the components of its critical graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .maxplus import NEG_INF, MaxPlusMatrix, _closure, critical_graph
from .spectral import LocallyConstantPotential, adjacency_entropy

__all__ = [
    "WordGraph",
    "AubryDecomposition",
    "PositiveCycleError",
    "EmptyAubrySetError",
    "word_graph",
    "mane_potential",
    "decompose_aubry",
    "max_plus_subaction",
]

ZERO_CYCLE_TOL = 1e-12


class PositiveCycleError(ValueError):
    """The word graph has a positive-weight cycle, i.e. m(A) != 0."""


class EmptyAubrySetError(ValueError):
    """No zero-weight cycle found; the potential is not normalized."""


@dataclass(frozen=True)
class WordGraph:
    """Weighted digraph on k-words; edge u -> v carries A(u . v[-1])."""

    nodes: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, float], ...]  # (source index, target index, weight)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def weight_matrix(self) -> MaxPlusMatrix:
        rows = [[NEG_INF] * self.n for _ in range(self.n)]
        for (u, v, w) in self.edges:
            rows[u][v] = w
        return MaxPlusMatrix.from_rows(rows)

    @cached_property
    def best_paths(self) -> list[list[float]]:
        """best_paths[u][v] = max weight over paths u -> v of length >= 1.

        The max-plus closure of the weight matrix, kept with the graph.
        Raises PositiveCycleError when a diagonal entry is positive.
        """
        best = _closure(self.weight_matrix())
        if any(best[v][v] > ZERO_CYCLE_TOL for v in range(self.n)):
            raise PositiveCycleError("positive cycle: potential has m(A) != 0")
        return best


def word_graph(pot: LocallyConstantPotential) -> WordGraph:
    return WordGraph(tuple(pot.states), pot.edges)


def mane_potential(g: WordGraph, u: int, v: int) -> float:
    """Maximum path weight from node u to node v (length >= 1); -inf if unreachable."""
    return g.best_paths[u][v]


@dataclass(frozen=True)
class AubryDecomposition:
    """Irreducible components of the Aubry set with entropies and costs.

    ``cost`` is the full L x L matrix (a_ij), a_ij = best way to enter
    Sigma_i coming from Sigma_j; ``maximal_set`` indexes the components of
    maximal entropy.
    """

    graph: WordGraph
    components: tuple[tuple[int, ...], ...]
    entropies: tuple[float, ...]
    maximal_set: tuple[int, ...]
    cost: MaxPlusMatrix
    critical_pairs: tuple[tuple[int, int], ...]

    @property
    def h(self) -> float:
        return max(self.entropies)

    def adjacency(self, i: int) -> tuple[tuple[int, ...], ...]:
        """0/1 adjacency of the critical edges inside component i."""
        return _adjacency(self.components[i], self.critical_pairs)

    def maximal_cost(self) -> MaxPlusMatrix:
        return self.cost.restrict(self.maximal_set)


def _adjacency(comp, critical_pairs) -> tuple[tuple[int, ...], ...]:
    pos = {v: t for t, v in enumerate(comp)}
    adj = [[0] * len(comp) for _ in comp]
    for (u, v) in critical_pairs:
        if u in pos and v in pos:
            adj[pos[u]][pos[v]] = 1
    return tuple(map(tuple, adj))


def decompose_aubry(g: WordGraph) -> AubryDecomposition:
    """Critical subgraph, its components, entropies and the cost matrix."""
    best = g.best_paths  # raises on positive cycles
    crit_edges, comps = critical_graph(
        g.weight_matrix(), best, lambda x: x >= -ZERO_CYCLE_TOL
    )
    if not comps:
        raise EmptyAubrySetError("no zero-weight cycle: potential not normalized")
    node_comp = {}
    for i, comp in enumerate(comps):
        for v in comp:
            node_comp[v] = i

    crit_pairs = set(crit_edges)
    entropies = [adjacency_entropy(_adjacency(comp, crit_edges)) for comp in comps]
    h = max(entropies)
    maximal = tuple(i for i, hi in enumerate(entropies) if hi >= h - ZERO_CYCLE_TOL)

    # cost a_ij: edges u -> v entering Sigma_i that are not internal critical
    # edges of Sigma_i, weighted by the best approach from Sigma_j to u.
    L = len(comps)
    cost = [[NEG_INF] * L for _ in range(L)]
    for (u, v, w) in g.edges:
        i = node_comp.get(v)
        if i is None or ((u, v) in crit_pairs and node_comp.get(u) == i):
            continue
        for j, comp in enumerate(comps):
            # from the lexicographically least node of Sigma_j
            approach = 0.0 if u in comp else best[comp[0]][u]
            if approach != NEG_INF:
                cost[i][j] = max(cost[i][j], w + approach)
    return AubryDecomposition(
        graph=g,
        components=tuple(comps),
        entropies=tuple(entropies),
        maximal_set=maximal,
        cost=MaxPlusMatrix.from_rows(cost),
        critical_pairs=tuple(crit_edges),
    )


def max_plus_subaction(g: WordGraph, d: AubryDecomposition, offsets, anchor: int) -> tuple[float, ...]:
    """V(x) = max_j [offsets_j + S(Sigma_j, x)] over the maximal components
    Sigma_j of d (S = 0 on Sigma_j itself), shifted to vanish at node
    ``anchor``: with the offsets a max-plus eigenvector of the maximal cost
    matrix, a calibrated subaction, max_u [A(u v) + V(u)] = V(v)."""
    comps = [d.components[j] for j in d.maximal_set]
    v = [
        max(
            (o + (0.0 if x in c else mane_potential(g, c[0], x)) for o, c in zip(offsets, comps)),
            default=NEG_INF,
        )
        for x in range(g.n)
    ]
    return tuple(x if x == NEG_INF else x - v[anchor] for x in v)
