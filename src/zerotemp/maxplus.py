"""Max-plus (tropical) linear algebra over R u {-inf}.

The semiring operations are (max, +).  The eigenproblem M (x) v = lam (x) v
is solved through the maximum cycle mean (Howard's policy iteration on the
edge list, ``howard_cycle_mean``) and the tropical Kleene closure of M - lam,
whose columns at critical nodes span the eigenspace.  ``critical_graph``
finds those nodes from a potential of the graph in O(n + E): ``aubry``
passes the ``policy_iteration`` bias of a word graph, never closed, and
``mp_eigenvectors`` the best path weights into each node of M - lam.

Entries may be floats or exact rationals (``fractions.Fraction`` / int);
-inf is represented by ``float('-inf')`` in either mode, so exact mode stays
exact on all finite arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "MaxPlusMatrix",
    "MaxPlusEigenData",
    "NoEigenvalueError",
    "mp_apply",
    "mp_eigenvalue",
    "mp_eigenvectors",
    "mp_2x2_closed_form",
]

NEG_INF = float("-inf")

# float tolerance for a zero cycle weight, and for a tie in mp_2x2_closed_form
DEDUP_TOL = 1e-9

# rounds of policy_iteration before it gives up
HOWARD_ROUNDS = 1000


class NoEigenvalueError(ValueError):
    """Raised for matrices whose finite-entry graph contains no cycle."""


@dataclass(frozen=True)
class MaxPlusMatrix:
    entries: tuple[tuple[object, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    @classmethod
    def from_rows(cls, rows) -> "MaxPlusMatrix":
        return cls(tuple(tuple(r) for r in rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def is_finite(self) -> bool:
        return all(e != NEG_INF for row in self.entries for e in row)

    def shifted(self, c) -> "MaxPlusMatrix":
        """Entrywise M + c (tropical scalar multiplication)."""
        return MaxPlusMatrix.from_rows([[e if e == NEG_INF else e + c for e in row] for row in self.entries])

    def restrict(self, indices) -> "MaxPlusMatrix":
        idx = list(indices)
        return MaxPlusMatrix.from_rows([[self.entries[i][j] for j in idx] for i in idx])


@dataclass(frozen=True)
class MaxPlusEigenData:
    eigenvalue: object
    eigenvectors: tuple[tuple[object, ...], ...]
    eigenspace_dim: int


def mp_apply(m: MaxPlusMatrix, v) -> list:
    """(M (x) v)_i = max_j (M_ij + v_j)."""
    if len(v) != m.n:
        raise ValueError(f"dimension mismatch: matrix {m.n}, vector {len(v)}")
    return [max((e + x for e, x in zip(row, v) if e != NEG_INF and x != NEG_INF), default=NEG_INF)
            for row in m.entries]


def _strongly_connected_components(adj: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def howard_cycle_mean(n: int, edges):
    """Maximum cycle mean of the digraph on nodes 0..n-1 with edges (i, j, w)."""
    return policy_iteration(n, edges)[0]


def policy_iteration(n: int, edges):
    """Howard's policy iteration (Cochet-Terrasson et al., IFAC SSC 1998): the
    maximum cycle mean m, the final bias x and a heaviest cycle of mean m.

    A policy picks one edge out of each node that reaches a cycle.  A node
    takes the mean eta of the policy cycle it reaches (exact, or the fsum
    over the length) and the bias x(i) = w - eta + x(j) along the policy,
    kept from the round before at a cycle's first node.  A node moves to an
    edge into a larger eta, or else into the same eta where that raises x
    by more than tol: 0 with exact (Fraction / int) weights, 1e-12 * max(1,
    max |w|) in floats.  Each move raises (eta, x) in lexicographic order,
    so no policy comes back; w + x(j) - x(i) <= eta + tol on edges keeping
    eta.  Raises NoEigenvalueError with no cycle or after HOWARD_ROUNDS rounds.
    """
    out: list[list] = [[] for _ in range(n)]
    for (i, j, w) in edges:
        out[i].append((j, w))
    adj = [[j for (j, _) in o] for o in out]
    alive: set[int] = set()  # the nodes that reach a cycle
    for comp in _strongly_connected_components(adj):  # successors first
        if len(comp) > 1 or comp[0] in adj[comp[0]] or any(j in alive for v in comp for j in adj[v]):
            alive.update(comp)
    out = [[e for e in o if e[0] in alive] for o in out]
    policy = {v: max(out[v], key=lambda e: e[1]) for v in range(n) if v in alive}
    if not policy:
        raise NoEigenvalueError("graph has no cycle")
    weights = [w for (_, _, w) in edges]
    exact = all(isinstance(w, (int, Fraction)) for w in weights)
    tol = 0 if exact else 1e-12 * max(1.0, *map(abs, weights))
    x = [0] * n
    for _ in range(HOWARD_ROUNDS):
        eta: list = [None] * n
        seen = [False] * n
        top = (-math.inf, 0, [])  # (eta, weight, edges (i, j, w)) of the heaviest policy cycle of largest mean
        for s in policy:
            path, v = [], s
            while not seen[v]:
                seen[v] = True
                path.append(v)
                v = policy[v][0]
            if eta[v] is None:  # the walk closed a new policy cycle at v
                cycle = [(u, *policy[u]) for u in path[path.index(v):]]
                weight = (sum if exact else math.fsum)(w for (_, _, w) in cycle)
                eta[v] = Fraction(weight, len(cycle)) if exact else weight / len(cycle)
                top = max(top, (eta[v], weight, cycle), key=lambda t: t[:2])
            for u in reversed(path):
                if u != v:
                    j, w = policy[u]
                    eta[u], x[u] = eta[j], w - eta[j] + x[j]
        settled = True
        for v in policy:  # eta and x stay those of the policy before the moves
            j, w = max(out[v], key=lambda e: (eta[e[0]], e[1] - eta[e[0]] + x[e[0]]))
            if eta[j] > eta[v] or w - eta[v] + x[j] > x[v] + tol:
                policy[v], settled = (j, w), False
        if settled:
            return top[0], x, top[2]
    raise NoEigenvalueError(f"policy iteration did not settle in {HOWARD_ROUNDS} rounds")


def mp_eigenvalue(m: MaxPlusMatrix):
    """Maximum cycle mean of the weighted digraph of finite entries, by
    howard_cycle_mean: for irreducible matrices the unique max-plus
    eigenvalue.  Raises NoEigenvalueError when the graph has no cycle."""
    edges = [(i, j, w) for i, row in enumerate(m.entries) for j, w in enumerate(row) if w != NEG_INF]
    return howard_cycle_mean(m.n, edges)


def _closure(b: MaxPlusMatrix) -> list[list[object]]:
    """All-pairs best path weights of B (no positive cycles assumed)."""
    d = [list(row) for row in b.entries]
    for k in range(b.n):
        for i in range(b.n):
            dik = d[i][k]
            if dik != NEG_INF:
                d[i] = [max(x, dik + y) for x, y in zip(d[i], d[k])]
    return d


def critical_graph(u, edges, is_zero):
    """Edges on a zero-weight cycle, and the components they form.

    ``u`` is a potential of the edge list ``edges`` of (i, j, w): every
    reduced weight w + u[i] - u[j] is at most zero, so a cycle weighs zero
    exactly when each of its edges is tight, and ``is_zero`` is the
    caller's test for a tight reduced weight.  The critical edges are the
    tight edges inside a strongly connected component of the tight
    subgraph.  Returns them sorted, and the components that hold one, each
    a sorted tuple, ordered by least node.  O(n + E).
    """
    adj: list[list[int]] = [[] for _ in u]
    tight = []
    for (i, j, w) in edges:
        if is_zero(w + u[i] - u[j]):
            adj[i].append(j)
            tight.append((i, j))
    sccs = _strongly_connected_components(adj)
    scc_of = {v: c for c, scc in enumerate(sccs) for v in scc}
    critical = sorted((i, j) for (i, j) in tight if scc_of[i] == scc_of[j])
    comps = sorted(tuple(sorted(c)) for c in sccs if len(c) > 1 or c[0] in adj[c[0]])
    return critical, comps


def mp_eigenvectors(m: MaxPlusMatrix) -> MaxPlusEigenData:
    """Eigenvalue, an eigenvector basis and the eigenspace dimension.

    B = M - lam has maximum cycle mean 0; columns of its Kleene closure at
    critical nodes (nodes on a zero-weight cycle of B) are eigenvectors, one
    basis vector per strongly connected component of the critical graph.
    Basis vectors are normalized with first component 0.  NoEigenvalueError
    unless the potential and a critical cycle certify lam (below).
    """
    lam = mp_eigenvalue(m)
    exact = isinstance(lam, (int, Fraction))
    b = m.shifted(-lam)
    d = _closure(b)
    n = m.n
    # the best path weight into each node, or 0: a potential of B
    u = [max(0, *(d[i][j] for i in range(n))) for j in range(n)]
    edges = [(i, j, w) for i, row in enumerate(b.entries) for j, w in enumerate(row) if w != NEG_INF]
    critical, comps = critical_graph(u, edges, (lambda x: x == 0) if exact else (lambda x: abs(x) <= DEDUP_TOL))
    if not comps:
        raise NoEigenvalueError("no critical cycle found")
    # lam's certificate (LP duality): u leaves no reduced weight above 0, and
    # the cycle that critical edges trace from a critical node has mean lam
    tol = 0 if exact else 1e-12 * max(1, abs(lam))
    succ, walk = dict(critical), [comps[0][0]]
    while succ[walk[-1]] not in walk:
        walk.append(succ[walk[-1]])
    weights = [m.entries[i][succ[i]] for i in walk[walk.index(succ[walk[-1]]):]]
    mean = Fraction(sum(weights), len(weights)) if exact else math.fsum(weights) / len(weights)
    if max(w + u[i] - u[j] for i, j, w in edges) > tol or abs(mean - lam) > tol:
        raise NoEigenvalueError(f"eigenvalue {lam} is not certified by a potential and a critical cycle")

    vectors: list[tuple] = []
    for comp in comps:
        c = comp[0]
        col = [d[i][c] if i != c else max(d[c][c], 0 * lam) for i in range(n)]
        # column c of I + closure(B); for irreducible M all entries are finite
        base = col[0]
        if base == NEG_INF:
            raise NoEigenvalueError("reducible matrix: eigenvector has -inf entries")
        vectors.append(tuple(x if x == NEG_INF else x - base for x in col))
    return MaxPlusEigenData(eigenvalue=lam, eigenvectors=tuple(vectors), eigenspace_dim=len(comps))


def mp_2x2_closed_form(a, b, c, d):
    """Eigen-data of the 2x2 matrix [[a+b+d, c+d], [a+b, b+c+d]].

    Returns (eigenvalue, offset) with offset = y - x for an eigenvector
    (x, y).  The eigenvalue is max{a+b+d, b+c+d, (a+b+c+d)/2}; the offset
    comes from whichever branch attains the maximum (y = x - d, x = y - b,
    or y = x + (a+b-c-d)/2).  When several branches tie they must agree.
    """
    exact = all(isinstance(v, (int, Fraction)) for v in (a, b, c, d))
    half = Fraction(1, 2) if exact else 0.5
    cands = [a + b + d, b + c + d, (a + b + c + d) * half]
    lam = max(cands)
    offsets = [o for cand, o in zip(cands, (-d, b, (a + b - c - d) * half)) if cand == lam]
    first = offsets[0]
    if any(o != first if exact else abs(o - first) > DEDUP_TOL for o in offsets[1:]):
        raise AssertionError(f"inconsistent tie in 2x2 closed form: offsets {offsets}")
    return lam, first
