"""Max-plus (tropical) linear algebra over R u {-inf}.

The semiring operations are (max, +).  The eigenproblem M (x) v = lam (x) v
is solved through the maximum cycle mean (Karp's dynamic program, run per
strongly connected component) and the tropical Kleene closure of M - lam,
whose columns at critical nodes span the eigenspace.  ``critical_graph``
finds those nodes from a potential of the graph in O(n + E): ``aubry``
passes the Bellman-Ford potential of a word graph, which is never closed,
and ``mp_eigenvectors`` the best path weights into each node of M - lam.

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
        return MaxPlusMatrix.from_rows(
            [[e if e == NEG_INF else e + c for e in row] for row in self.entries]
        )

    def restrict(self, indices) -> "MaxPlusMatrix":
        idx = list(indices)
        return MaxPlusMatrix.from_rows(
            [[self.entries[i][j] for j in idx] for i in idx]
        )


@dataclass(frozen=True)
class MaxPlusEigenData:
    eigenvalue: object
    eigenvectors: tuple[tuple[object, ...], ...]
    eigenspace_dim: int


def mp_apply(m: MaxPlusMatrix, v) -> list:
    """(M (x) v)_i = max_j (M_ij + v_j)."""
    if len(v) != m.n:
        raise ValueError(f"dimension mismatch: matrix {m.n}, vector {len(v)}")
    out = []
    for i in range(m.n):
        best = NEG_INF
        for j in range(m.n):
            e = m.entries[i][j]
            if e == NEG_INF or v[j] == NEG_INF:
                continue
            cand = e + v[j]
            if cand > best:
                best = cand
        out.append(best)
    return out


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


def _karp_scc(m: MaxPlusMatrix, comp: list[int]):
    """Maximum cycle mean inside one strongly connected component.

    Karp: lam = max_v min_{0<=k<n} (D_n(v) - D_k(v)) / (n - k), with D_k the
    best walk weight of length k from an arbitrary source in the component.
    """
    nodes = comp
    n = len(nodes)
    pos = {v: t for t, v in enumerate(nodes)}
    edges = [
        (pos[u], pos[v], m.entries[u][v])
        for u in nodes
        for v in nodes
        if m.entries[u][v] != NEG_INF
    ]
    if not edges:
        return None
    if n == 1:
        # single node: the only cycles are iterates of the self-loop
        return edges[0][2]
    D = [[NEG_INF] * n for _ in range(n + 1)]
    D[0][0] = 0
    for k in range(1, n + 1):
        prev, cur = D[k - 1], D[k]
        for (i, j, w) in edges:
            if prev[i] != NEG_INF:
                cand = prev[i] + w
                if cand > cur[j]:
                    cur[j] = cand
    exact = isinstance(edges[0][2], (int, Fraction))
    best = None
    for v in range(n):
        if D[n][v] == NEG_INF:
            continue
        worst = None
        for k in range(n):
            if D[k][v] == NEG_INF:
                continue
            num = D[n][v] - D[k][v]
            ratio = Fraction(num, n - k) if exact else num / (n - k)
            if worst is None or ratio < worst:
                worst = ratio
        if worst is not None and (best is None or worst > best):
            best = worst
    return best


def mp_eigenvalue(m: MaxPlusMatrix):
    """Maximum cycle mean of the weighted digraph of finite entries.

    For irreducible matrices this is the unique max-plus eigenvalue.  Raises
    NoEigenvalueError when the graph has no cycle at all.
    """
    n = m.n
    adj = [[j for j in range(n) if m.entries[i][j] != NEG_INF] for i in range(n)]
    best = None
    for comp in _strongly_connected_components(adj):
        lam = _karp_scc(m, comp)
        if lam is not None and (best is None or lam > best):
            best = lam
    if best is None:
        raise NoEigenvalueError("matrix has no finite cycle")
    return best


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
    offsets = []
    if cands[0] == lam:
        offsets.append(-d)
    if cands[1] == lam:
        offsets.append(b)
    if cands[2] == lam:
        offsets.append((a + b - c - d) * half)
    first = offsets[0]
    for o in offsets[1:]:
        if (exact and o != first) or (not exact and abs(o - first) > DEDUP_TOL):
            raise AssertionError(
                f"inconsistent tie in 2x2 closed form: offsets {offsets}"
            )
    return lam, first
