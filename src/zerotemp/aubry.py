"""Mane potential, Aubry decomposition and inter-component costs.

For a locally constant potential the dynamics at cylinder granularity is a
weighted digraph on k-words (the word graph); the Mane potential S(u, v) is
then the maximum total weight of a directed path u -> v, the Aubry set is the
union of zero-weight cycles, and the cost a_ij of travelling from the base of
component Sigma_j to the base of Sigma_i drives the max-plus eigenproblem of
the pressure's zero-temperature speed.

The word graph has E = O(n) edges and is never closed.  The bias of
Howard's policy iteration gives it a potential u (w + u(x) - u(y) <= 0 on
every edge), and the Aubry components are those of the critical graph read
off u.  The cost matrix, the max-plus subaction and the Mane potential read
single-source rows of S, each a Dijkstra run over successor lists of the
reduced weights (Johnson's reweighting), both built once and kept on the
graph: O(nE + L E log n) for L components.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .maxplus import NEG_INF, MaxPlusMatrix, critical_graph, policy_iteration
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
    """The word graph has a positive-weight cycle, of mean ``mean``."""

    def __init__(self, mean: float):
        super().__init__("positive cycle: potential has m(A) != 0")
        self.mean = mean


class EmptyAubrySetError(ValueError):
    """No zero-weight cycle found; the potential is not normalized."""


@dataclass(frozen=True)
class WordGraph:
    """Weighted digraph on k-words; edge u -> v carries A(u . v[-1])."""

    nodes: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, float], ...]  # (source index, target index, weight)
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def potential(self) -> list[float]:
        """u with w + u(x) - u(y) <= ZERO_CYCLE_TOL / n on every edge x -> y,
        up to the weight of each near-zero positive cycle over its length.

        0 when no edge weighs more.  Else -x, x the bias of policy_iteration with
        a 0-weight exit from every node to a sink (reducible shifts too).  While
        the top mean m > ZERO_CYCLE_TOL / n, its cycle raises PositiveCycleError
        if heavier than ZERO_CYCLE_TOL, else m is taken off its edges; then the
        sink's loop weighs m.  Where the float bias (to 1e-12 * max |w|) misses
        the bound, the exact one meets it, up to rounding.
        """
        n, gain = self.n, ZERO_CYCLE_TOL / self.n
        if all(w <= gain for (_, _, w) in self.edges):
            return [0.0] * n
        for num in (float, Fraction):
            weights = {(x, y): num(w) for (x, y, w) in self.edges}
            weights.update({(x, n): 0 for x in range(n + 1)})  # the exits, and the sink's loop
            for _ in range(n + 1):
                m, x, cycle = policy_iteration(n + 1, [(a, b, w) for (a, b), w in weights.items()])
                if m <= gain or m * len(cycle) > ZERO_CYCLE_TOL:
                    break
                for (a, b, w) in cycle:
                    weights[a, b] = w - m
            if m > gain:
                raise PositiveCycleError(float(m))
            if m > 0:
                weights[n, n] = m
                _, x, _ = policy_iteration(n + 1, [(a, b, w) for (a, b), w in weights.items()])
            if num is Fraction or all(weights[a, b] - x[a] + x[b] <= gain for (a, b, _) in self.edges):
                return [float(-v) for v in x[:n]]

    @cached_property
    def _successors(self) -> list[list[tuple[int, float, float]]]:
        """(y, w, max(0, u(y) - u(x) - w)) for each edge x -> y, by x in edge
        order: the raw and the reduced weight that every row reads."""
        u, out = self.potential, [[] for _ in self.nodes]
        for (x, y, w) in self.edges:
            out[x].append((y, w, max(0.0, u[y] - u[x] - w)))
        return out

    def paths_from(self, s: int) -> list[float]:
        """row[v] = max weight over paths s -> v of length >= 1, -inf when
        there is none, kept with the graph.  Dijkstra on the reduced weights
        min(0, w + u(x) - u(y)) picks the paths; the row sums their raw weights.
        """
        if s in self._rows:
            return self._rows[s]
        out, push, pop = self._successors, heapq.heappush, heapq.heappop
        loss = [math.inf] * self.n  # minus the reduced weight of the best path
        raw = [NEG_INF] * self.n
        heap = [(0.0, s, 0.0)]  # the empty path, which the row does not count
        while heap:
            c, x, r = pop(heap)
            if c > loss[x]:
                continue
            for (y, w, dc) in out[x]:
                if (d := c + dc) < loss[y]:
                    loss[y], raw[y] = d, r + w
                    push(heap, (d, y, r + w))
        self._rows[s] = raw
        return raw


def word_graph(pot: LocallyConstantPotential) -> WordGraph:
    return WordGraph(tuple(pot.states), pot.edges)


def mane_potential(g: WordGraph, u: int, v: int) -> float:
    """Maximum path weight from node u to node v (length >= 1); -inf if unreachable."""
    return g.paths_from(u)[v]


@dataclass(frozen=True)
class AubryDecomposition:
    """Irreducible components of the Aubry set with entropies and costs.

    ``cost`` is the full L x L matrix (a_ij), a_ij = best path from the base
    (least node) of Sigma_j into Sigma_i and along it back to its base;
    ``maximal_set`` indexes the components of maximal entropy.
    """

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
    # the potential raises on positive cycles
    crit_edges, comps = critical_graph(g.potential, g.edges, lambda x: x >= -ZERO_CYCLE_TOL)
    if not comps:
        raise EmptyAubrySetError("no zero-weight cycle: potential not normalized")
    node_comp = {v: i for i, comp in enumerate(comps) for v in comp}

    crit_pairs, inside = set(crit_edges), [[] for _ in comps]
    for (u, v) in crit_edges:  # both ends lie in one component
        inside[node_comp[u]].append((u, v))
    entropies = [adjacency_entropy(_adjacency(comp, pairs)) for comp, pairs in zip(comps, inside)]
    h = max(entropies)
    maximal = tuple(i for i, hi in enumerate(entropies) if hi >= h - ZERO_CYCLE_TOL)

    # cost a_ij: edges u -> v entering Sigma_i that are not internal critical
    # edges of Sigma_i, weighted by the best approach to u from the base
    # x_j = least node of Sigma_j (0 at x_j) and by the critical leg from v
    # back to x_i, S(v, x_i) = -S(x_i, v) inside Sigma_i (0 at x_i)
    L = len(comps)
    rows = [g.paths_from(comp[0]) for comp in comps]
    cost = [[NEG_INF] * L for _ in range(L)]
    for (u, v, w) in g.edges:
        i = node_comp.get(v)
        if i is None or (u, v) in crit_pairs:  # critical edges stay inside a component
            continue
        back = 0.0 if v == comps[i][0] else -rows[i][v]
        for j in range(L):
            approach = 0.0 if u == comps[j][0] else rows[j][u]
            if approach != NEG_INF:
                cost[i][j] = max(cost[i][j], approach + w + back)
    return AubryDecomposition(
        components=tuple(comps),
        entropies=tuple(entropies),
        maximal_set=maximal,
        cost=MaxPlusMatrix.from_rows(cost),
        critical_pairs=tuple(crit_edges),
    )


def max_plus_subaction(g: WordGraph, d: AubryDecomposition, offsets, anchor: int) -> tuple[float, ...]:
    """V(x) = max_j [offsets_j + S(x_j, x)] over the maximal components
    Sigma_j of d, x_j the least node of Sigma_j and S(x_j, x_j) = 0, shifted
    to vanish at ``anchor``: with the offsets a max-plus eigenvector of the
    maximal cost matrix, a calibrated subaction, max_u [A(u v) + V(u)] = V(v)."""
    bases = [(d.components[j][0], g.paths_from(d.components[j][0])) for j in d.maximal_set]
    v = [
        max((o + (0.0 if x == b else row[x]) for o, (b, row) in zip(offsets, bases)), default=NEG_INF)
        for x in range(g.n)
    ]
    return tuple(x if x == NEG_INF else x - v[anchor] for x in v)
