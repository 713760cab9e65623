"""Finite-matrix transfer operator for locally constant potentials.

The operator L_A(psi)(x) = sum_{sigma(z)=x} e^{A(z)} psi(z) acts on functions
of k-word cylinders when A depends on k+1 coordinates.  All spectral data is
produced in log-domain form; perron forms the matrix in mpmath from the
table's floats, and every solve runs in mpmath or in plain floats.

At large inverse temperature the leading eigenvalues cluster within a
factor 1 + O(e^{beta*gamma}) of the max-plus floor e^{beta*m + h} (m the
maximum cycle mean, h the largest entropy of a critical component), so
fixed-precision iteration cannot separate them.  perron() solves for the
dominant pair only, on a tropically scaled matrix S whose precision
follows the excess, not the spread of the matrix: it brackets the root by
the M-matrix test in fixed-point ints, narrows it by regula falsi, and
certifies it in mpmath by the Collatz-Wielandt bounds of its Perron vectors.
Only the Aubry states C need the digits of the excess: the states N outside
them are split off at about R + G digits, and the bracket and the vectors
are certified on the Schur complement onto C (_schur_block).

The floor's root e^h of a critical adjacency comes from Newton's method on
det(x*I - adj), in floats and then at doubling precision.  One sparse
elimination plan per pattern, in a fill-reducing order, serves both: each
perron probe is one numeric pass of it over mu*I - S, one in mpf gives the
factors the solves reuse, and each Newton step is one over x*I - adj.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import mpmath

from .maxplus import _strongly_connected_components
from .symbolic import Sft, enumerate_words

__all__ = [
    "LocallyConstantPotential",
    "PerronData",
    "PerronError",
    "transfer_matrix",
    "perron",
    "adjacency_entropy",
    "equilibrium_cylinder_mass",
]

ITERATION_NOTE = "matrix may be reducible or periodic"

# bounds on the probes of one bracket, on the iteration steps and on the
# solves that a failed certificate repeats at a higher precision
_MAX_PROBES = 400
_MAX_STEPS = 100
_MAX_ESCALATIONS = 6

# digits of the excess beyond beta*|gamma|/ln10, digits of the excess that
# the bracket resolves, and guard digits (E, R and G of perron)
_EXCESS_SLACK = 15
_RESOLVED = 60
_GUARD = 30
# digits past the working precision at which S is formed, then rounded
_ENTRY_GUARD = 10
# digits by which the excess must lie below the gap e^h - rho(S_NN) for the
# split: K(mu) then moves by under 10^-this of its size across the bracket
_SPLIT_MARGIN = 6
# the most digits one solve may ask for: the benchmark ladder peaks below
# 2,000, a 2-state solve at 10^5 digits takes about a minute, and far
# enough past it mpmath cannot even set the precision up
_MAX_DPS = 10**5


class PerronError(RuntimeError):
    """Dominant eigendata could not be extracted (reducible/periodic input)."""


@dataclass(frozen=True)
class LocallyConstantPotential:
    """A potential constant on (depth+1)-cylinders, given by a value table.

    ``values`` maps every admissible (depth+1)-word to the value of the
    potential on that cylinder.
    """

    sft: Sft
    depth: int
    values: dict = field(hash=False)

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        table = {tuple(w): float(v) for w, v in self.values.items()}
        object.__setattr__(self, "values", table)
        words = enumerate_words(self.sft, self.depth + 1)
        admissible = set(words)
        if table.keys() == admissible:
            return
        for w in table:
            if w not in admissible:
                raise ValueError(f"table key {w} is not an admissible (k+1)-word")
        for w in words:
            if w not in table:
                raise ValueError(f"table misses admissible word {w}")

    @classmethod
    def from_table(cls, sft: Sft, table: dict) -> "LocallyConstantPotential":
        """Build from a {word-string-or-tuple: value} mapping."""
        conv = {tuple(map(int, key)) if isinstance(key, str) else tuple(key): v for key, v in table.items()}
        if not conv:
            raise ValueError("table is empty")
        depth = len(next(iter(conv))) - 1
        return cls(sft, depth, conv)

    @property
    def word_length(self) -> int:
        """State word length k of the transfer matrix (depth 0 is lifted to 1)."""
        return max(self.depth, 1)

    def value(self, word) -> float:
        w = tuple(word)
        if self.depth == 0:
            return self.values[w[:1]]
        return self.values[w]

    @cached_property
    def states(self) -> list[tuple[int, ...]]:
        return enumerate_words(self.sft, self.word_length)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """(u, v, A(u.s)) by state index for each admissible (k+1)-word u.s,
        v = u[1:] + (s,): the edges of the word graph, ordered by u, then s."""
        index = {w: i for i, w in enumerate(self.states)}
        follow = [[s for s, ok in enumerate(row) if ok] for row in self.sft.transitions]
        values, lift = self.values, self.depth == 0  # depth 0: A(u.s) = A(u)
        return tuple(
            (i, index[u[1:] + (s,)], values[u if lift else u + (s,)])
            for i, u in enumerate(self.states)
            for s in follow[u[-1]]
        )

    @cached_property
    def irreducible(self) -> bool:
        """Whether the edges of finite weight join every state to every other."""
        out = [[] for _ in self.states]
        for u, v, w in self.edges:
            if math.isfinite(w):
                out[u].append(v)
        return len(_strongly_connected_components(out)) == 1

    @cached_property
    def _plans(self) -> dict:
        return {}

    def plan(self, aubry: tuple) -> tuple:
        """(plan, block plan), at every beta, for the split of the states
        into ``aubry`` (C) and the rest (N): the _elimination_plan of the
        transfer matrix's pattern that eliminates N first and C last, and
        that of the Schur complement onto C, in C's order, over the pairs
        of C joined by an edge or by a path through N.  With N empty both
        are the plan of the whole pattern."""
        if aubry not in self._plans:
            n = len(self.states)
            pattern = [[False] * n for _ in range(n)]
            for u, v, w in self.edges:
                pattern[v][u] = math.isfinite(w)
            plan = _elimination_plan(pattern, aubry)
            block = plan if len(aubry) == n else _elimination_plan(_schur_pattern(pattern, aubry))
            self._plans[aubry] = plan, block
        return self._plans[aubry]


def transfer_matrix(pot: LocallyConstantPotential, beta: float) -> tuple[tuple[float, ...], ...]:
    """Log-domain transfer matrix over k-words, as rows of floats: entry
    [v][u] is beta times the weight of the word-graph edge u -> v, -inf
    where there is none.  Row index is the target word, column the
    preimage word.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    n = len(pot.states)
    m = [[-math.inf] * n for _ in range(n)]
    for u, v, w in pot.edges:
        m[v][u] = beta * w
    return tuple(map(tuple, m))


@dataclass(frozen=True)
class PerronData:
    """Dominant eigendata of the transfer matrix, all in log domain.

    H is the eigenfunction (right eigenvector, H(0^k) = 1) and nu the
    eigenmeasure (left eigenvector, total mass 1); mass_k holds the
    equilibrium-measure masses of the k-word cylinders, all three solved on
    first read by ``vectors``, which is then dropped.  ``bracket`` (lo, hi),
    at ``dps`` digits, holds the root of the exactly formed matrix, as the
    Collatz-Wielandt bounds of H_S certify (of H_C on the Schur complement
    onto C, when N is split off); ``dps_n`` is the precision of the rows and
    columns of N, ``dps`` when the whole matrix is solved; ``escalations``
    counts the solves repeated at a higher precision when they could not.
    lambda is hi, or the max-plus floor when the root lies within the
    resolution of it (zero excess); lam is its value for S, at dps: lambda
    = lam e^{beta*m}.  The reports read lam's excess over the floor at 113
    bits, never a log at dps (an AGM at about 2*dps for lam near 1).
    """

    beta: float
    pot: LocallyConstantPotential
    log_lambda: float
    lam: object  # mpmath.mpf
    dps: int
    dps_n: int
    bracket: tuple
    escalations: int
    m: Fraction  # the maximum cycle mean of the floor, 0 without one
    vectors: object = field(compare=False, repr=False)  # () -> (log_H, log_nu, mass_k)

    @cached_property
    def _solved(self) -> tuple:
        solved = self.vectors()
        object.__setattr__(self, "vectors", None)  # frees the factors it holds
        return solved

    log_H = property(lambda self: self._solved[0])
    log_nu = property(lambda self: self._solved[1])
    mass_k = property(lambda self: self._solved[2])

    @property
    def words(self) -> list[tuple[int, ...]]:
        return self.pot.states

    def pressure_excess_log(self, h_mp) -> float:
        """log(P - beta*m - h) = log log(lam e^-h); raises unless the
        certified bracket lies above the floor e^{beta*m + h} by more than
        10^-E relative, E = dps - R - G the digits that the excess was sized
        to occupy.  lam e^-h is formed at dps, so its excess over 1 is right
        to R + G digits whenever it is resolved, and mpmath's log at 113
        bits reads that excess off its whole mantissa, exactly."""
        with mpmath.workdps(self.dps):
            shift, e_h = _beta_m(self.beta, self.m), mpmath.exp(h_mp)
            ratio = self.lam / e_h
            resolvable = 1 + mpmath.mpf(10) ** (_RESOLVED + _GUARD - self.dps)
            if not self.bracket[0] > mpmath.exp(shift) * e_h * resolvable:
                raise PerronError(f"pressure excess P - beta*m - h = {mpmath.nstr(mpmath.log(ratio), 6)} is not "
                                  "resolvably positive (h misidentified or potential has zero excess)")
        with mpmath.workprec(113):
            return float(mpmath.log(mpmath.log(ratio)))


def _schur_pattern(pattern, aubry):
    """The pattern of the Schur complement of ``pattern`` onto the states
    ``aubry``, in their order: (i, j) where the pattern holds (i, j) or a
    path j -> k_1 -> ... -> i through states k outside aubry (row i the
    target, as in the transfer matrix)."""
    n, inside = len(pattern), set(aubry)
    out = [[i for i in range(n) if pattern[i][j]] for j in range(n)]
    block = [[pattern[i][j] for j in aubry] for i in aubry]
    for c, j in enumerate(aubry):
        seen, todo = set(), [k for k in out[j] if k not in inside]
        while todo:
            k = todo.pop()
            if k not in seen:
                seen.add(k)
                todo.extend(i for i in out[k] if i not in inside)
        for r, i in enumerate(aubry):
            block[r][c] = block[r][c] or any(pattern[i][k] for k in seen)
    return block


def _elimination_plan(pattern, last=()):
    """The pattern of Gaussian elimination of x*I - a without pivoting, for
    every a whose nonzero entries lie where ``pattern`` is true, fixed once
    for every x: (size, entries, steps).  Entries, fill-in included, live in
    numbered slots; slot i holds the diagonal entry (i, i), and ``entries``
    lists (slot, i, j) for each (i, j) of the pattern.  Each step eliminates
    the remaining node k of least in-degree times out-degree in the filled
    graph (loops not counted; ties to the least index), the nodes of
    ``last`` once no other is left, as
    (k, [(i, slot of b_ik, [(slot of b_ij, slot of b_kj), ...]), ...],
    [(j, slot of b_kj), ...]).  After a numeric pass, slot (i, k) holds
    the multiplier of L and slot (k, j) the entry of U.  One plan of a
    pattern serves every pass over it: the perron probes (_fixed_test),
    factors (_shifted_lu) and solves (_solve), and the Newton steps.
    """
    n = len(pattern)
    out = [{j for j in range(n) if pattern[i][j] and j != i} for i in range(n)]
    into = [{i for i in range(n) if pattern[i][j] and i != j} for j in range(n)]
    slots = {(i, i): i for i in range(n)}

    def slot(i, j):
        return slots.setdefault((i, j), len(slots))

    entries = [(slot(i, j), i, j) for i in range(n) for j in range(n) if pattern[i][j]]
    remaining, steps = set(range(n)), []
    first = remaining - set(last)
    while remaining:
        k = min(first or remaining, key=lambda v: (len(into[v]) * len(out[v]), v))
        remaining.remove(k)
        first.discard(k)
        rows, cols = sorted(into[k]), sorted(out[k])
        for i in rows:
            out[i].discard(k)
        for j in cols:
            into[j].discard(k)
        updates = []
        for i in rows:
            for j in cols:
                if i != j:
                    out[i].add(j)
                    into[j].add(i)
            updates.append((i, slot(i, k), [(slot(i, j), slot(k, j)) for j in cols]))
        steps.append((k, updates, [(j, slot(k, j)) for j in cols]))
    return len(slots), entries, steps


def _shifted_lu(plan, a, mu):
    """(passes, det, factors) of the M-matrix test of mu*I - a, a
    nonnegative, in one numeric pass of the plan; the factors are its
    slots.  mu > rho(a) exactly when mu*I - a is a nonsingular M-matrix,
    that is when all its leading principal minors, and so all the pivots,
    are positive.  A symmetric permutation P (mu*I - a) P^T = mu*I - P a P^T
    is the same test on a matrix with the same spectrum, so the plan's
    order is as valid as the natural one.  Elimination goes on past a
    negative pivot, so that det is det(mu*I - a) as the product of the
    pivots; it stops at a zero one, and det is None when that is not the
    last.  A plan cut to its first steps factors the leading block alone.
    """
    size, entries, steps = plan
    val = [mu] * len(a) + [0] * (size - len(a))
    for s, i, j in entries:
        val[s] -= a[i][j]
    passes, det = True, 1
    for k, updates, _ in steps:
        p = val[k]
        passes = passes and p > 0
        det *= p
        if not p:
            return (False, None, val) if k != steps[-1][0] else (False, det, val)
        for _, ik, targets in updates:
            f = val[ik] = val[ik] / p
            for ij, kj in targets:
                val[ij] -= f * val[kj]
    return passes, det, val


def _fixed_steps(steps, val, bits, last, det=1, exp=0):
    """(passes, det, exp) of the given steps of _shifted_lu in fixed point,
    in place on the ints val, which stand for val * 2^-bits in the pivot
    rows: multipliers (b << bits) // p, kept in their slots, and updates
    (f * b) >> bits.  The product det * 2^exp of the pivots keeps 2*bits
    bits, with the shifts in exp; det is None after a zero pivot that is
    not the plan's ``last``."""
    passes = True
    for k, updates, _ in steps:
        p = val[k]
        passes = passes and p > 0
        if not p and k != last:
            return False, None, exp
        det *= p
        cut = max(det.bit_length() - 2 * bits, 0)
        det, exp = det >> cut, exp + cut - bits
        for _, ik, targets in updates:
            f = val[ik] = (val[ik] << bits) // p
            for ij, kj in targets:
                val[ij] -= f * val[kj] >> bits
    return passes, det, exp


def _fixed_phase(plan, a, nn, mu, bits):
    """The fixed-point state (nn, passes, det, exp, val) after the first nn
    steps of the plan, those of N, over mu*I - a on N and -a elsewhere: the
    rows of a and of val are ints at 2^-bits in N and at any finer scale in
    C, so that the entries of C read off S_CN (mu I - S_NN)^-1 S_NC at that
    scale.  It depends on mu only through the diagonal of N, at 2^-bits."""
    size, entries, steps = plan
    val = [0] * size
    for k, _, _ in steps[:nn]:
        val[k] = mu
    for s, i, j in entries:
        val[s] -= a[i][j]
    return (nn, *_fixed_steps(steps[:nn], val, bits, steps[-1][0]), val)


def _fixed_test(plan, a, mu, bits, phase=None):
    """(passes, det) of _shifted_lu in fixed point: ints a and mu stand for
    a * 2^-bits and mu * 2^-bits, from the state ``phase`` that _fixed_phase
    left after the steps of N (with none, N is empty), so that only C's
    steps run here; det returns as one mpf."""
    nn, passes, det, exp, val = phase or _fixed_phase(plan, a, 0, 0, bits)
    if det is None:
        return False, None
    val, steps = val[:], plan[2][nn:]
    for k, _, _ in steps:
        val[k] += mu
    passes_c, det, exp = _fixed_steps(steps, val, bits, plan[2][-1][0], det, exp)
    return passes and passes_c, None if det is None else mpmath.mpf((det, exp))


def _solve(plan, lu, b, transpose=False, skip=()) -> list:
    """x with (LU) x = b, or (LU)^T x = b, from the factors of _shifted_lu,
    in the plan's order.  The entries of ``skip`` are set to 0 between the
    two sweeps: with the plan cut to the steps of N and skip = C, x solves
    the block of N alone."""
    steps = plan[2]
    x = list(b)
    if not transpose:  # L y = b, then U x = y
        for k, updates, _ in steps:
            for i, ik, _ in updates:
                x[i] -= lu[ik] * x[k]
        for i in skip:
            x[i] = 0
        for k, _, cols in reversed(steps):
            x[k] = (x[k] - sum(lu[kj] * x[j] for j, kj in cols)) / lu[k]
    else:  # U^T z = b, then L^T x = z
        for k, _, cols in steps:
            x[k] /= lu[k]
            for j, kj in cols:
                x[j] -= lu[kj] * x[k]
        for i in skip:
            x[i] = 0
        for k, updates, _ in reversed(steps):
            x[k] -= sum(lu[ik] * x[i] for i, ik, _ in updates)
    return x


def _newton_step(plan, x):
    """det / (d/dx det) of x*I - adj, 0 when x is the root, in the
    arithmetic of x (float or mpf), from one numeric pass of the
    elimination plan: each entry carries its derivative in x, so the
    pivots p_k come with p_k', and d/dx log det = sum p_k'/p_k."""
    size, entries, steps = plan
    n = len(steps)
    val, der = [x] * n + [0] * (size - n), [1] * n + [0] * (size - n)
    for s, _, _ in entries:
        val[s] -= 1
    log_slope = 0  # sum of p_k'/p_k over the pivots before the last
    for k, updates, _ in steps[:-1]:
        p, dp = val[k], der[k]
        if not p:  # a leading block is singular: x is the root
            return 0
        log_slope += dp / p
        for _, ik, targets in updates:
            f = val[ik] / p
            df = (der[ik] - f * dp) / p
            for ij, kj in targets:
                val[ij] -= f * val[kj]
                der[ij] -= df * val[kj] + f * der[kj]
    p, dp = val[steps[-1][0]], der[steps[-1][0]]
    return p / (dp + p * log_slope)


def _adjacency_root(adj, dps: int | None = None):
    """Perron root of an irreducible 0/1 adjacency matrix, as a float, or
    as an mpf at dps digits.

    With equal out-degrees r the root is r exactly (a cycle gives 1).
    Otherwise Newton's method on det(x I - adj) (_newton_step, on one
    elimination plan) runs in floats from the Collatz-Wielandt bound
    max_i (adj d)_i / d_i, d the out-degrees, at most the largest of them:
    from above the root its steps stay above it, so x falls monotonically
    onto it.  Given dps, each Newton step squares the error, so the steps
    run at precisions that double from 53 bits up to dps digits, and
    further steps at dps follow until they stop halving (one, when the
    doubling has converged); the M-matrix test (_shifted_lu) then certifies
    the root within 10^-(dps - 10) of it, or PerronError is raised.
    """
    d = [sum(row) for row in adj]
    if len(set(d)) == 1:
        return float(d[0]) if dps is None else mpmath.mpf(d[0])
    plan = _elimination_plan(adj)
    x = max(sum(a * dj for a, dj in zip(row, d)) / di for row, di in zip(adj, d))
    for _ in range(_MAX_STEPS + 8 * len(adj)):
        step = _newton_step(plan, x)
        if not step > 0 or x - step == x:  # rounding reached the root
            break
        x -= step
    else:
        raise PerronError(f"Newton iteration for an adjacency root did not settle; {ITERATION_NOTE}")
    if dps is None:
        return x
    with mpmath.workdps(dps):
        target = mpmath.mp.prec
    # 8 guard bits a level cover the constant in e_next = C e^2
    precs = [target]
    while precs[-1] > 120:
        precs.append(precs[-1] // 2 + 8)
    x = mpmath.mpf(x)
    for prec in reversed(precs):
        with mpmath.workprec(prec):
            x -= _newton_step(plan, x)
    with mpmath.workdps(dps):
        last = mpmath.inf
        for _ in range(_MAX_STEPS):
            step = _newton_step(plan, x)
            x -= step
            if not step or abs(step) > abs(last) / 2 or abs(step) < x * mpmath.eps * 8:
                break
            last = step
        else:
            raise PerronError(f"Newton iteration for an adjacency root did not settle; {ITERATION_NOTE}")
        # the root lies within 10^-(dps - 10) of x: the M-matrix test of
        # mu*I - adj passes just above x and fails just below it
        close = mpmath.mpf(10) ** (10 - dps)
        if not _shifted_lu(plan, adj, x * (1 + close))[0] or _shifted_lu(plan, adj, x * (1 - close))[0]:
            raise PerronError(f"the adjacency root {mpmath.nstr(x, 15)} fails its M-matrix test "
                              f"at 10^-{dps - 10} relative")
        return x


def adjacency_entropy(adj) -> float:
    """log of the Perron root of an irreducible 0/1 adjacency matrix: the
    entropy of the subshift it presents, 0 exactly for a cycle."""
    return math.log(_adjacency_root(adj))


def _beta_m(beta, m):
    """beta*m at the working precision, rounded once from the exact product
    of the float beta and the rational m (an int or a Fraction)."""
    num, den = beta.as_integer_ratio()
    q = mpmath.libmp.from_rational(num * m.numerator, den * m.denominator, mpmath.mp.prec, "n")
    return mpmath.mp.make_mpf(q)


def _scaled_matrix(edges, beta, m, w, rest=(), rest_dps=None) -> list:
    """S[v][u] = exp(beta*a - beta*m + w[u] - w[v]) over the word-graph edges
    (u, v, a), w mpf, at the working precision, or at rest_dps digits in a
    row or column of the states ``rest``; 0 elsewhere.  The exponent is formed
    at _ENTRY_GUARD more digits, where beta*a is exact and beta*m is rounded
    once (_beta_m), so a cycle of mean m weighs 1 up to that rounding.  Each
    distinct exponential is formed there once and rounded, so an entry is
    within 2^(1-prec) of exact, prec that of its digits, and equal to the
    rounding of a formation at any higher precision unless within 10^-10 of
    a tie."""
    low, exponent, formed = set(rest), {}, ([], [])  # formed: the entries outside rest, and in it
    with mpmath.workdps(mpmath.mp.dps + _ENTRY_GUARD):
        b, shift = mpmath.mpf(beta), _beta_m(beta, m)
        for u, v, a in edges:
            if math.isfinite(a):
                if a not in exponent:
                    exponent[a] = b * a - shift
                formed[u in low or v in low].append((v, u, exponent[a] + w[u] - w[v]))
    mat = [[0] * len(w) for _ in w]
    for digits, entries in zip((mpmath.mp.dps, rest_dps), formed):
        if not entries:
            continue
        cache = {}
        with mpmath.workdps(digits + _ENTRY_GUARD):
            for _, _, x in entries:
                if x not in cache:
                    cache[x] = mpmath.exp(x)
        with mpmath.workdps(digits):
            for i, j, x in entries:
                mat[i][j] = +cache[x]
    return mat


def _bracket_root(plan, mat, floor, guess, digits: int, nn: int = 0, bits_n=None):
    """Bracket (lo, hi, lambda) of the Perron root of mat by the M-matrix
    test, each probe a _fixed_test over a, mat floored to ints at 2^-bits;
    a wrong verdict can only cost the certificate perron checks.  floor is
    a lower estimate of the root, or None for the larger Collatz-Wielandt
    lower bound of ones (rows or columns); bits is mp.prec plus what brings
    the floor to 2^bits units, so that units stay relative to the root.
    The plan's first nn steps eliminate N, whose rows of a
    are at 2^-bits_n (bits_n <= bits): a probe at mu runs them at mu
    floored to 2^-bits_n, so probes that agree to bits_n share one pass of
    them, and only C's steps run again.

    The search works on x = (mu - floor) 2^bits, guess one of root - floor
    (or None).  It brackets log x by steps of ln 2 times 1, 2, 4, ... from
    the guess (or down from the smaller largest row or column sum of a plus
    n + 1 units, as each floored entry falls short by under one), bisects
    in log x while the ends are more than a factor 2 apart, then runs
    regula falsi (Anderson-Bjorck) on det(mu*I - a), the product of the
    pivots (the last pivot alone changes sign in a window as narrow as the
    excess), until hi - lo <= 10^-R (hi - floor), and without a floor also
    10^-R |hi - 1|, so that log(hi) holds R digits.  lambda is hi, or the
    floor when the test passes within floor * 10^-digits of it (zero
    excess); a floor above the root gives way to None, or with N split
    off, returns None.
    """
    n, ref = len(mat), floor
    if floor is None:
        ref = max(_collatz_wielandt(plan, mat, [mpmath.mpf(1)] * n, t)[0] for t in (False, True))
    bits = mpmath.mp.prec + max(0, 1 - mpmath.mag(ref or 1))
    cut = bits - (bits if bits_n is None else bits_n)
    rest = {k for k, _, _ in plan[2][:nn]}
    a, rows, cols = [[0] * n for _ in mat], [0] * n, [0] * n
    for _, i, j in plan[1]:
        x = int(mpmath.ldexp(mat[i][j], bits))
        a[i][j] = x >> cut if i in rest else x
        rows[i] += x
        cols[j] += x
    top = min(max(rows), max(cols)) + n + 1
    base = int(mpmath.ldexp(ref, bits))
    one = None if floor is not None else 1 << bits
    kept = [None, None]

    def phase(mu_n):  # the state after N, the last one kept
        if kept[0] != mu_n:
            kept[:] = mu_n, _fixed_phase(plan, a, nn, mu_n, bits - cut)
        return kept[1]

    def test(x):  # the M-matrix test at mu = base + x
        mu = base + x
        return _fixed_test(plan, a, mu, bits, phase(mu >> cut if nn else 0))

    x_min = max(base // 10**digits, 1)
    x_max = max(2 * (top - base), 2 * x_min)
    found = _search(test, x_max if guess is None else int(mpmath.ldexp(guess, bits)), x_min, x_max)
    if found is None:  # the test passes at floor + x_min
        if not test(-x_min)[0]:
            lo, hi, lam = (mpmath.ldexp(base + x, -bits) for x in (-x_min, x_min, 0))
            return lo, hi, lam if floor is None else floor
        if floor is None:
            raise PerronError(f"no root above the lower Collatz-Wielandt bound; {ITERATION_NOTE}")
        # the floor lies above the root
        return None if nn else _bracket_root(plan, mat, None, None, digits)
    x_lo, f_lo, x_hi, f_hi = found
    side = 0
    for _ in range(_MAX_PROBES):
        width = x_hi // 10**_RESOLVED
        if one is not None:
            width = min(width, abs(base + x_hi - one) // 10**_RESOLVED)
        if 2 * x_lo < x_hi:  # bisect in log x
            x = math.isqrt(x_lo * x_hi)
        elif f_lo is None or f_lo > 0:  # an even count of eigenvalues above lo
            x = (x_lo + x_hi) // 2
        else:
            # keep half the target width from either end, so that a step that
            # lands next to one end still closes the bracket, and aim a quarter
            # of it low, so that no probe lands within rounding of the root
            x = x_hi - int(f_hi * (x_hi - x_lo) / (f_hi - f_lo)) - width // 4
            x = min(max(x, x_lo + width // 2), x_hi - width // 2)
        # resolved, or no point left between the ends
        if x_hi - x_lo <= width or x == x_lo or x == x_hi:
            lo, hi = (mpmath.ldexp(base + x, -bits) for x in (x_lo, x_hi))
            return lo, hi, hi
        passes, f = test(x)
        # Anderson-Bjorck: when one end is replaced twice in a row, scale
        # the value kept at the other end down, so that both ends move
        if passes:
            if side == 1 and f_lo is not None:
                scale = 1 - f / f_hi
                f_lo *= scale if scale > 0 else mpmath.mpf(0.5)
            x_hi, f_hi = x, f
            side = 1
        else:
            if side == -1 and f is not None and f_lo is not None:
                scale = 1 - f / f_lo
                f_hi *= scale if scale > 0 else mpmath.mpf(0.5)
            x_lo, f_lo = x, f
            side = -1
    raise PerronError(f"bracket not narrowed in {_MAX_PROBES} probes; {ITERATION_NOTE}")


def _search(test, x, x_min, x_max):
    """Bracket the root in x = mu - floor from a first x in [x_min, x_max],
    by factors 2, 4, 16, ...: down while test(x) passes, up while it fails
    (up to x_max, where it passes).  Returns (x_lo, det at x_lo, x_hi, det
    at x_hi), or None if the test still passes at x_min."""
    x = min(max(x, x_min), x_max)
    passes, f = test(x)
    step = 1
    if passes:
        while x > x_min:
            x_next = max(x >> step, x_min)
            passes_next, f_next = test(x_next)
            if not passes_next:
                return x_next, f_next, x, f
            x, f = x_next, f_next
            step *= 2
        return None
    while x < x_max:
        x_next = min(x << step, x_max)
        passes_next, f_next = test(x_next)
        if passes_next:
            return x, f, x_next, f_next
        x, f = x_next, f_next
        step *= 2
    raise PerronError(f"the upper Collatz-Wielandt bound fails the M-matrix test; {ITERATION_NOTE}")


def _cw_rows(plan, mat, transpose=False) -> tuple:
    """(below, above): the rows over the plan's pattern, as lists of (entry,
    column), of each matrix of the pair mat (below, above), or of mat twice;
    of the transpose with ``transpose``."""
    ends = mat if isinstance(mat, tuple) else (mat,)
    rows = [[[] for _ in plan[2]] for _ in ends]
    for _, i, j in plan[1]:
        row, col = (j, i) if transpose else (i, j)
        for out, m in zip(rows, ends):
            out[row].append((m[i][j], col))
    return rows[0], rows[-1]


def _collatz_wielandt(plan, mat, x, transpose=False, lo=0, rows=None):
    """(low, high) with low <= rho(S) <= high, S the exactly formed matrix
    that mat rounds (_scaled_matrix), from a mat-vec over the plan's pattern
    at the working precision with a positive x (None for any other x): for
    nonnegative S, min (Sx)_i/x_i <= rho(S) <= max (Sx)_i/x_i (S^T x with
    ``transpose``).  Entries and ratios each lie within u = 2^(1-prec) of
    exact, as fdot and the division round once each, so the ends move out
    by 3u, which also covers their own rounding.  mat may also be a pair
    (below, above) of matrices that enclose S entrywise: low then reads the
    first and high the second.  The rows of the largest set D whose ratios
    so widened lie below lo, and which read only D, are left out of low:
    then rho(S_DD) < lo, the Perron vector vanishes on D, and low comes from
    the other rows J, as rho(S) >= rho(S_JJ).  ``rows`` is _cw_rows(plan,
    mat, transpose), passed by callers that bound many x on one matrix."""
    if not all(v > 0 for v in x):
        return None
    below, above = rows or _cw_rows(plan, mat, transpose)

    def ratios(rs):
        return [mpmath.fdot((a, x[j]) for a, j in row) / y for row, y in zip(rs, x)]

    low = ratios(below)
    widen = mpmath.ldexp(3, 1 - mpmath.mp.prec)
    high = max(low if above is below else ratios(above)) * (1 + widen)
    # r (1 + widen) < lo exactly when r < lo / (1 + widen), rounded toward 0
    cut = mpmath.fdiv(lo, 1 + widen, rounding="d")
    block = {i for i, r in enumerate(low) if r < cut}
    while any(j not in block for i in block for _, j in below[i]):
        block = {i for i in block if all(j in block for _, j in below[i])}
    if 0 < len(block) < len(x):
        low = [
            mpmath.fdot((a, x[j]) for a, j in row if j not in block) / y
            for i, (row, y) in enumerate(zip(below, x)) if i not in block
        ]
    return min(low) * (1 - widen), high


def _gap_digits(plan, nn, edges, beta, m, v, root):
    """The digits that the gap e^h - rho(S_NN) costs, estimated in floats:
    those of max z, z = (e^h I - S_NN)^-1 1 over the plan's first nn steps,
    S the scaled matrix of perron (shift beta*m, subaction v), e^h = root,
    as by Collatz-Wielandt rho(S_NN) <= e^h - 1 / max z.  None when the
    floats cannot resolve it."""
    size, entries, steps = plan
    rest = {k for k, _, _ in steps[:nn]}
    s, shift = [[0.0] * len(v) for _ in v], beta * float(m)
    for u, t, a in edges:
        if u in rest and t in rest and math.isfinite(a):
            s[t][u] = math.exp(min(beta * a - shift + beta * (v[u] - v[t]), 700.0))
    head = (size, entries, steps[:nn])
    passes, _, lu = _shifted_lu(head, s, root)
    if not passes:
        return None
    z = _solve(head, lu, [float(k in rest) for k in range(len(s))], skip=set(range(len(s))) - rest)
    top = max(z[k] for k in rest)
    if not (all(z[k] > 0 for k in rest) and math.isfinite(top)):
        return None
    return max(0, math.ceil(math.log10(top)))


def _ratio_up(num, den):
    """(m, s), m of about 64 bits, with m / 2^s >= num / den >= 0."""
    s = max(0, den.bit_length() - num.bit_length() + 64)
    return -((-num << s) // den), s


def _schur_block(plan, block, aubry, mat, lo, hi, prec_n):
    """(below, above), matrices over C (``aubry``, in the block plan's
    order) at the working precision that enclose S_CC + K(mu) entrywise for
    every mu in [lo, hi], K(mu) = S_CN (mu I - S_NN)^-1 S_NC the part of the
    Schur complement of mu I - S onto C that runs through N; None unless
    lo*I - S_NN is certified a nonsingular M-matrix.

    Y = (mu0 I - S_NN)^-1 S_NC, mu0 = hi floored, and the vectors below are
    solved in fixed point at 2^-bits, bits = 2 prec_n or mp.prec if less,
    on one pass over N.  Each entry of S_NN and S_NC, of prec_n bits, lies
    in [a - d, a + 1 + d] units, d >= a 2^(1 - prec_n), so exact ints bound
    the residual of a column y at every mu in the bracket: |r(mu)| <=
    theta*y + t, theta over the rows where y keeps prec_n + 8 bits, t over
    the others.  With v = (mu0 I - S_NN)^-1 y (plus z at 2^-(bits - prec_n
    - 8)), z = (mu0 I - S_NN)^-1 1, (lo I - S_NN) v >= (1 - eta) y and
    (lo I - S_NN) z >= (1 - zeta) 1, which certify lo > rho(S_NN),
    |Y(mu) - y| <= theta v / (1 - eta) + t z / (1 - zeta): relative where y
    is resolved, as an M-matrix solve with a nonnegative right-hand side is
    accurate entry by entry.  S_CC + K then sums, as exact ints, the
    mantissas of S_CC and S_CN, each moved out by its rounding, times the
    ints of y: K keeps its digits however small."""
    size, entries, steps = plan
    n, top = len(mat), mpmath.mp.prec
    bits, nn, col = min(top, 2 * prec_n), n - len(aubry), {j: c for c, j in enumerate(aubry)}
    rest = [k for k, _, _ in steps[:nn]]
    a = [[0] * n for _ in range(n)]
    rows = [[] for _ in range(n)]  # by row: (j, a_ij, its upper bound), j in N
    for _, i, j in entries:
        if i not in col:
            a[i][j] = int(mpmath.ldexp(mat[i][j], bits))
        if j not in col:
            x = a[i][j]
            rows[i].append((j, x, x + 2 + (x >> (prec_n - 1))))
    mu0 = int(mpmath.ldexp(hi, bits))
    _, passes, _, _, val = _fixed_phase(plan, a, nn, mu0, bits)
    if not passes:
        return None
    forward = [(k, [(i, ik) for i, ik, _ in updates if i not in col]) for k, updates, _ in steps[:nn]]
    backward = [(k, [(j, kj) for j, kj in cols if j not in col]) for k, _, cols in reversed(steps[:nn])]

    def solve(x):  # (mu0 I - S_NN)^-1 x on the factors of N
        x = list(x)
        for k, updates in forward:
            for i, ik in updates:
                x[i] -= val[ik] * x[k] >> bits
        for k, cols in backward:
            x[k] = ((x[k] << bits) - sum(val[kj] * x[j] for j, kj in cols)) // val[k]
        return x

    lo_units, one = int(mpmath.ldexp(lo, bits)), 1 << bits
    d_mu = int(mpmath.ldexp(hi - lo, bits)) + 2

    def margin(y, v):  # (num, den): the least ((lo I - S_NN) v)_i / y_i in units, or None
        best = None
        for i in rest:
            w = lo_units * v[i] - sum(up * v[j] for j, _, up in rows[i])
            if y[i] <= 0:
                if w < 0:
                    return None
            elif best is None or w * best[1] < best[0] * y[i]:
                best = w, y[i]
        return best

    ones = [0 if k in col else one for k in range(n)]
    z = solve(ones)
    zeta = margin(ones, z)
    if zeta is None or zeta[0] <= 0 or min(z[i] for i in rest) <= 0:
        return None
    spread, resolved = [], 1 << (prec_n + 8)
    for j in aubry:
        b = [a[i][j] for i in range(n)]
        y = [max(x, 0) for x in solve(b)]
        theta, t = (0, 1), 0  # the bound theta*y + t on |r|, in units of 2^-2bits
        for i in rest:
            flow = sum(x * y[k] for k, x, _ in rows[i])
            r = abs((b[i] << bits) - mu0 * y[i] + flow) + sum((up - x) * y[k] for k, x, up in rows[i])
            r += d_mu * y[i] + ((b[i] >> (prec_n - 1)) + 2 << bits if b[i] else 0)
            if y[i] < resolved:
                t = max(t, r)
            elif r * theta[1] > theta[0] * (y[i] << bits):
                theta = r, y[i] << bits
        v = [x + (zk >> (bits - prec_n - 8)) for x, zk in zip(solve(y), z)]
        eta = margin(y, v) if theta[0] else (1, 1)
        if eta is None or eta[0] <= 0:
            return None
        # y + theta v / (1 - eta) + t z / (1 - zeta) in units, where
        # 1 - eta = eta / one, 1 - zeta = zeta / one and t is in units / one
        (f, sf), (g, sg) = _ratio_up(theta[0] * eta[1] * one, theta[1] * eta[0]), _ratio_up(t * zeta[1], one * zeta[0])
        spread.append((y, [x - (-f * vk >> sf) - (-g * zk >> sg) for x, vk, zk in zip(y, v, z)]))

    def term(x, prec, scale):  # (low, high, exponent): mpf x moved out by its rounding, times scale
        pad = max(prec - x.man.bit_length(), 0)  # mpmath strips trailing zeros
        man = x.man << pad
        d = (man >> (prec - 1)) + 1
        return (man - d) * scale[0], (man + d) * scale[1], x.exp - pad

    below, above = [[0] * len(aubry) for _ in aubry], [[0] * len(aubry) for _ in aubry]
    for _, r, c in block[1]:
        i, (y, high), s = aubry[r], spread[c], mat[aubry[r]][aubry[c]]
        terms = [term(mat[i][k], prec_n, (max(y[k] + y[k] - high[k], 0), high[k])) + (-bits,)
                 for k, _, _ in rows[i]]
        if s:
            terms.append(term(s, top, (1, 1)) + (0,))
        base = min((e + shift for _, _, e, shift in terms), default=0)
        k_low = sum(max(x, 0) << (e + shift - base) for x, _, e, shift in terms)
        k_high = sum(x << (e + shift - base) for _, x, e, shift in terms)
        below[r][c], above[r][c] = mpmath.mpf((k_low, base)), mpmath.mpf((k_high, base))
    return below, above


def _off_block(plan, aubry, mat, mu, h_c, nu_c):
    """(H, nu) on every state from their parts on C (``aubry``): H_N =
    (mu I - S_NN)^-1 S_NC H_C and nu_N = (mu I - S_NN)^-T S_CN^T nu_C, at
    the working precision on one factorization of mu I - S_NN.  Both are
    M-matrix solves with nonnegative right-hand sides, so each entry comes
    out to about that precision."""
    size, entries, steps = plan
    head, n = (size, entries, steps[: len(steps) - len(aubry)]), len(mat)
    h, nu, rhs_h, rhs_nu = [0] * n, [0] * n, [0] * n, [0] * n
    for c, j in enumerate(aubry):
        h[j], nu[j] = h_c[c], nu_c[c]
    inside = set(aubry)
    for _, i, j in entries:
        if i not in inside and j in inside:
            rhs_h[i] += mat[i][j] * h[j]
        elif i in inside and j not in inside:
            rhs_nu[j] += mat[i][j] * nu[i]
    lu = _shifted_lu(head, mat, mu)[2]
    h_n, nu_n = _solve(head, lu, rhs_h, skip=aubry), _solve(head, lu, rhs_nu, transpose=True, skip=aubry)
    for k, _, _ in head[2]:
        h[k], nu[k] = h_n[k], nu_n[k]
    return h, nu


def _perron_vector(plan, lu, mat, lo, hi, transpose=False):
    """The right (left with ``transpose``) Perron vector of mat, unnormalized,
    by inverse iteration on the factors lu of hi*I - mat, whose inverse is
    nonnegative, so iterates of a positive start stay positive.  The first
    iterate whose Collatz-Wielandt bounds lie in [lo, hi) is returned; None
    once a step no longer halves high/low - 1 below hi/lo - 1, the rounding
    floor.  Above it low may stall for a step at a state that reads the rest
    through a tiny entry; high/low - 1, unlike high - low, falls as it climbs."""
    x, spread, rows = [mpmath.mpf(1)] * len(plan[2]), mpmath.inf, _cw_rows(plan, mat, transpose)
    for _ in range(_MAX_STEPS):
        x = _solve(plan, lu, x, transpose)
        bounds = _collatz_wielandt(plan, mat, x, transpose, lo, rows)
        if bounds is None:
            return None
        low, high = bounds
        if lo <= low and high < hi:
            return x
        last, spread = spread, high / low - 1 if low else mpmath.inf
        if spread < hi / lo - 1 and not spread <= last / 2:
            return None
    return None


def perron(pot: LocallyConstantPotential, beta: float, floor, root=None) -> PerronData:
    """Dominant eigenvalue, eigenfunction, eigenmeasure and Markov measure
    of the transfer matrix exp(beta*A) on the word graph, with H normalized
    to 1 at the all-zeros state.  Analysis(pot).perron(beta), in
    asymptotics, passes the floor of the potential and its root(dps), e^h
    at dps digits; without root, adj is solved at each precision.

    ``floor`` is (m, adj, gamma, V, C), or None: the maximum cycle mean of
    the word graph (exact, as a Fraction or float), the 0/1 critical
    adjacency of a component of largest entropy h of A - m, the max-plus
    rate gamma of the excess (None if unknown), a max-plus subaction V of
    A - m by state, vanishing at the all-zeros state (None if unknown), and
    C, the states of the critical components, every one of entropy h (() if
    unknown or if not).

    The solve runs on S = e^{-beta*m} D^-1 exp(beta*A) D, D = diag(e^{w}),
    w = beta*V, formed once per precision from the table's floats and the
    exact m (_scaled_matrix), so a cycle of mean m weighs 1.  The root lies
    above the floor e^h by about e^{beta*gamma}; at E + R + G digits, E =
    beta*|gamma|/ln10 + 15 for the excess, the bracket resolves R = 60
    digits of it, and G = 30 digits guard against rounding.  Without gamma,
    E starts from the rate bound n*beta*span, span the spread of A (a cycle
    of A - m has at most n edges); without V (or with a -inf entry in it)
    w = 0, and from at least beta*span.

    With V, gamma and C, the states N outside C, on which every cycle of S
    weighs less than e^h, are split off once the excess lies _SPLIT_MARGIN
    digits below the gap e^h - rho(S_NN) and E reaches dps_n = R + G plus
    the digits that gap costs (_gap_digits): the rows and columns of N in S
    are formed at dps_n.  The plan eliminates N first, and its last steps
    see the Schur complement onto C, mu I - S_CC - K(mu), K(mu) = S_CN
    (mu I - S_NN)^-1 S_NC, whose entries are of the size of the excess, so
    R + G digits of them resolve it.  Probes that agree to dps_n share one
    pass over N (_bracket_root), and the bracket is certified on C alone:
    _schur_block encloses S_CC + K over it, which also certifies lo >
    rho(S_NN), and the Collatz-Wielandt bounds of H_C on that enclosure
    (_perron_vector) lie in it.  As mu > rho(S) exactly when mu > rho(S_NN)
    and mu > rho(S_CC + K(mu)), and K falls as mu grows, that holds the
    root of S.  A split that does not certify gives way to the whole matrix
    at the same precision; when that fails, E doubles and the solve
    restarts, up to _MAX_DPS digits.

    ``vectors`` returns (log_H, log_nu, mass_k): nu_S is solved and
    certified alike, transposed, on C (or on the whole matrix, when it does
    not certify on C); H_N and nu_N follow by one solve each over N at
    dps_n (_off_block); both are unscaled as H = H_S e^{w}, nu = nu_S
    e^{-w}.  It raises PerronError when nu_S does not certify, or when the
    word graph is reducible, where H and nu may vanish or fail to be unique.
    """
    zero = tuple([0] * pot.word_length)
    if zero not in pot.states:
        raise PerronError(f"state {zero} is not admissible, so H cannot be normalized at it")
    anchor = pot.states.index(zero)
    if beta <= 0:
        raise ValueError("beta must be positive")
    n = len(pot.states)
    finite = [x for x in (beta * a for _, _, a in pot.edges) if math.isfinite(x)]
    span = max(finite) - min(finite) if finite else 0.0
    m, adj, gamma, v, aubry = floor if floor is not None else (0, None, None, None, ())
    m = Fraction(m)
    root = root or (lambda dps: _adjacency_root(adj, dps))
    scaled = v is not None and all(math.isfinite(x) for x in v)
    rate = beta * abs(gamma) if gamma is not None else n * span
    if not scaled:
        v, rate = (0.0,) * n, max(rate, span)
    excess_digits = int(rate / math.log(10)) + _EXCESS_SLACK
    gap = None
    if scaled and gamma is not None and 0 < len(aubry) < n and excess_digits >= _RESOLVED + _GUARD:
        gap = _gap_digits(pot.plan(aubry)[0], n - len(aubry), pot.edges, beta, m, v, _adjacency_root(adj))
        if gap is not None and rate / math.log(10) < gap + _SPLIT_MARGIN:
            gap = None  # the excess is not far below the gap: K moves across the bracket
    escalations = 0
    while True:
        dps = excess_digits + _RESOLVED + _GUARD
        if dps > _MAX_DPS:
            raise PerronError(f"the solve at beta {beta:g} needs {float(dps):.3g} digits, "
                              f"more than the cap of {_MAX_DPS}")
        # the split pays once the excess needs more digits than N: E >= dps_n
        dps_n = dps if gap is None or excess_digits < _RESOLVED + _GUARD + gap else _RESOLVED + _GUARD + gap
        states = aubry if dps_n < dps else tuple(range(n))
        plan, block = pot.plan(states)
        nn = n - len(states)
        prec_n = mpmath.libmp.dps_to_prec(dps_n)
        with mpmath.workdps(dps):
            shift = _beta_m(beta, m)
            w = [mpmath.mpf(beta) * x for x in v]
            mat = _scaled_matrix(pot.edges, beta, m, w, [k for k, _, _ in plan[2][:nn]], dps_n)
            base = guess = None
            if adj is not None:
                base = root(dps)
                if gamma is not None:
                    with mpmath.workprec(53):
                        guess = base * mpmath.exp(mpmath.mpf(beta) * gamma)
            found = _bracket_root(plan, mat, base, guess, excess_digits + _RESOLVED, nn, prec_n)
            if found is None:  # the floor lies above the root: solve the whole matrix
                gap = None
                continue
            lo, hi, lam = found
            if nn:  # the enclosure of S_CC + K, iterated on its upper end
                cw = _schur_block(plan, block, states, mat, lo, hi, prec_n)
                mid = cw and cw[1]
            else:
                cw = mid = mat
            passes, _, lu = _shifted_lu(block, mid, hi) if cw else (False, None, None)
            h_vec = _perron_vector(block, lu, cw, lo, hi) if passes else None
        if h_vec is not None:
            break
        if nn:  # the split did not certify: the whole matrix, at this precision
            gap = None
            continue
        escalations += 1
        if escalations > _MAX_ESCALATIONS:
            raise PerronError(f"no Collatz-Wielandt certificate of the bracket at {dps} digits; {ITERATION_NOTE}")
        excess_digits *= 2
    with mpmath.workdps(dps):
        bracket = tuple(x * mpmath.exp(shift) for x in (lo, hi))
        base = 1 if base is None else base
        ratio = lam / base
    with mpmath.workprec(113):  # log(ratio) reads its excess over 1 off the whole mantissa
        log_lambda = float(shift + mpmath.log(base) + mpmath.log(ratio))

    def vectors():
        if not pot.irreducible:
            raise PerronError("the transfer matrix is reducible: H and nu need not be positive or unique")
        with mpmath.workdps(dps):
            nu_vec = _perron_vector(block, lu, cw, lo, hi, transpose=True)
        if nu_vec is None and nn:  # nu_C does not certify on C: the whole matrix
            return perron(pot, beta, floor[:4] + ((),)).vectors()  # not root: it would tie its Analysis in a cycle
        if nu_vec is None:
            raise PerronError(f"no Collatz-Wielandt certificate of nu; {ITERATION_NOTE}")
        with mpmath.workdps(dps):
            # a certified iterate can still be 10^-R off, relative (H_S lies
            # near the start of ones), and both are read to R + G digits
            h_s, nu_s = _solve(block, lu, h_vec), _solve(block, lu, nu_vec, transpose=True)
        if nn:
            with mpmath.workdps(dps_n):
                h_s, nu_s = _off_block(plan, states, mat, hi, h_s, nu_s)
        with mpmath.workdps(dps):
            mass_raw = [h * nu for h, nu in zip(h_s, nu_s)]
            z = sum(mass_raw)
            mass_k = tuple(float(x / z) for x in mass_raw)
        with mpmath.workdps(_RESOLVED + _GUARD):
            # log nu = log nu_S - w - log sum(nu_S e^{-w})
            log_nu_total = mpmath.log(sum(x * mpmath.exp(-y) for x, y in zip(nu_s, w)))
            log_h0 = mpmath.log(h_s[anchor]) + w[anchor]
            # + 0.0: a log H of -1e-400 rounds to -0.0, not 0
            log_H = tuple(float(mpmath.log(x) + y - log_h0) + 0.0 for x, y in zip(h_s, w))
            log_nu = tuple(float(mpmath.log(x) - y - log_nu_total) for x, y in zip(nu_s, w))
        return log_H, log_nu, mass_k

    return PerronData(beta=beta, pot=pot, log_lambda=log_lambda, lam=lam, dps=dps, dps_n=dps_n, bracket=bracket,
                      escalations=escalations, m=m, vectors=vectors)


def equilibrium_cylinder_mass(p: PerronData, word) -> float:
    """Mass of the cylinder [word] under the equilibrium Markov measure: the
    sum of mass_k over the k-word states that begin with word, so 0 for an
    inadmissible word.  A word longer than k raises ValueError.
    """
    w = tuple(word)
    if len(w) > p.pot.word_length:
        raise ValueError(f"word {w} is longer than the {p.pot.word_length}-word states")
    return float(sum(p.mass_k[i] for i, u in enumerate(p.words) if u[: len(w)] == w))
