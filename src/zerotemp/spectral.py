"""Finite-matrix transfer operator for locally constant potentials.

The operator L_A(psi)(x) = sum_{sigma(z)=x} e^{A(z)} psi(z) acts on functions
of k-word cylinders when A depends on k+1 coordinates.  All spectral data is
produced in log-domain form; the log transfer matrix is rows of floats, and
every solve runs in mpmath or in plain floats.

At large inverse temperature the leading eigenvalues cluster within a
factor 1 + O(e^{beta*gamma}) of the max-plus floor e^{beta*m + h} (m the
maximum cycle mean, h the largest entropy of a critical component), so
fixed-precision iteration cannot separate them.  perron() solves for the
dominant pair only, with mpmath, on the tropically scaled matrix
S = e^{-beta*m} D^-1 M D, D = diag(e^{beta*V}) for a max-plus subaction V
of A - m: every entry of S is at most 1 and the critical ones equal 1, so
the precision follows the excess, E = beta*|gamma|/ln10 + 15 digits, not
the spread of the matrix.  It brackets s = log(rho - floor), where the
cluster is spread out, with the M-matrix test (mu > rho exactly when
elimination of mu*I - S without pivoting, in any symmetric order, has only
positive pivots), and narrows it by regula falsi on det(mu*I - S) to R = 60
digits of the excess at E + R + 30 digits.  The bracket is the certificate:
S is formed once per precision, at the working one plus guard digits, and
rounded to it; both ends, moved inward by the bound u on that rounding, are
probed again at twice the precision, and when a probe disagrees the solve
is repeated, from a cold search, at 2E + R + 30 digits.
H and nu, by inverse iteration at its upper end, are solved on first read.

The floor's root e^h of a critical adjacency comes from Newton's method on
det(x*I - adj), in floats and then at doubling precision.  One sparse
elimination, planned once per matrix in a fill-reducing order, serves both:
each perron probe is one numeric pass of it over mu*I - S, the solves of
inverse iteration run on its factors, and each Newton step is one pass
over x*I - adj that carries d/dx next to each entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import mpmath

from .symbolic import Sft, enumerate_words, is_admissible

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

# bounds on the probes of one bracket, on the inverse-iteration steps and
# on the solves that a failed confirmation repeats at a higher precision
_MAX_PROBES = 400
_MAX_STEPS = 100
_MAX_ESCALATIONS = 6

# digits of the excess beyond beta*|gamma|/ln10, digits of the excess that
# the bracket resolves, and guard digits (E, R and G of perron_core)
_EXCESS_SLACK = 15
_RESOLVED = 60
_GUARD = 30
# digits past the working precision at which S is formed, then rounded
_ENTRY_GUARD = 10
# the most digits one solve may ask for: the benchmark ladder peaks below
# 2,000, a 2-state solve at 10^5 digits takes about a minute, and far
# enough past it mpmath cannot even set the precision up
_MAX_DPS = 10**5
# the largest eigen-residual |S H - lambda H| accepted, relative to
# lambda max(H)
_MAX_RESIDUAL = 1e-8


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
        for w in table:
            if w not in admissible:
                raise ValueError(f"table key {w} is not an admissible (k+1)-word")
        for w in words:
            if w not in table:
                raise ValueError(f"table misses admissible word {w}")

    @classmethod
    def from_table(cls, sft: Sft, table: dict) -> "LocallyConstantPotential":
        """Build from a {word-string-or-tuple: value} mapping."""
        conv = {}
        for key, v in table.items():
            w = tuple(int(ch) for ch in key) if isinstance(key, str) else tuple(key)
            conv[w] = v
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
        allows = self.sft.allows
        return tuple(
            (index[u], index[u[1:] + (s,)], self.value(u + (s,)))
            for u in self.states
            for s in range(self.sft.alphabet_size)
            if allows(u[-1], s)
        )


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
    first read by ``vectors``, which is then dropped.  ``bracket`` is the
    certificate (lo, hi) of the Perron root, both at ``dps`` digits: the
    M-matrix test fails at lo and passes at hi, so lo <= root < hi, and it
    did so again at ``certified_dps`` digits with both ends moved inward by
    the bound u on the rounding of an entry of S to ``dps`` digits.
    ``escalations`` counts the solves that a disagreeing probe sent to a
    higher precision.  lambda is hi, or the max-plus floor when the root
    lies within the resolution of it (zero excess).
    """

    beta: float
    pot: LocallyConstantPotential
    log_lambda: float
    log_lambda_mp: object  # mpmath.mpf, keeps the tiny excess over e^h resolvable
    dps: int
    bracket: tuple
    certified_dps: int
    escalations: int
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
        """log(P - h); raises unless the certified bracket lies above e^h
        by more than 10^-E relative, E = dps - R - G the digits that the
        excess was sized to occupy.

        log_lambda_mp carries the working precision it was produced at, so
        the cancellation P - h is accurate whenever the excess is resolved.
        """
        with mpmath.workdps(self.dps):
            resolvable = 1 + mpmath.mpf(10) ** (_RESOLVED + _GUARD - self.dps)
            if not self.bracket[0] > mpmath.exp(h_mp) * resolvable:
                raise PerronError(
                    f"pressure excess P - h = {mpmath.nstr(self.log_lambda_mp - h_mp, 6)} "
                    "is not resolvably positive (h misidentified or potential "
                    "has zero excess)"
                )
        # the subtraction is exact before rounding; 113 bits leave enough
        # guard bits for the float log to be correctly rounded
        with mpmath.workprec(113):
            return float(mpmath.log(self.log_lambda_mp - h_mp))


def _elimination_plan(pattern):
    """The pattern of Gaussian elimination of x*I - a without pivoting, for
    every a whose nonzero entries lie where ``pattern`` is true, fixed once
    for every x: (size, entries, steps).  Entries, fill-in included, live in
    numbered slots; slot i holds the diagonal entry (i, i), and ``entries``
    lists (slot, i, j) for each (i, j) of the pattern.  Each step eliminates
    the remaining node k of least in-degree times out-degree in the filled
    graph (loops not counted; ties to the least index), as
    (k, [(i, slot of b_ik, [(slot of b_ij, slot of b_kj), ...]), ...],
    [(j, slot of b_kj), ...]).  After a numeric pass, slot (i, k) holds
    the multiplier of L and slot (k, j) the entry of U.  One plan of a
    pattern serves every pass over it: the perron probes (_shifted_lu) and
    solves (_solve) on S, and the Newton steps (_newton_step) on an
    adjacency.
    """
    n = len(pattern)
    out = [{j for j in range(n) if pattern[i][j] and j != i} for i in range(n)]
    into = [{i for i in range(n) if pattern[i][j] and i != j} for j in range(n)]
    slots = {(i, i): i for i in range(n)}

    def slot(i, j):
        return slots.setdefault((i, j), len(slots))

    entries = [(slot(i, j), i, j) for i in range(n) for j in range(n) if pattern[i][j]]
    remaining, steps = set(range(n)), []
    while remaining:
        k = min(remaining, key=lambda v: (len(into[v]) * len(out[v]), v))
        remaining.remove(k)
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
    last.
    """
    size, entries, steps = plan
    val = [mu] * len(steps) + [0] * (size - len(steps))
    for s, i, j in entries:
        val[s] -= a[i][j]
    passes, det = True, 1
    for k, updates, _ in steps:
        p = val[k]
        passes = passes and p > 0
        det *= p
        if not p and k != steps[-1][0]:
            return False, None, val
        for _, ik, targets in updates:
            f = val[ik] = val[ik] / p
            for ij, kj in targets:
                val[ij] -= f * val[kj]
    return passes, det, val


def _solve(plan, lu, b, transpose=False) -> list:
    """x with (LU) x = b, or (LU)^T x = b, from the factors of _shifted_lu,
    in the plan's order."""
    steps = plan[2]
    x = list(b)
    if not transpose:  # L y = b, then U x = y
        for k, updates, _ in steps:
            for i, ik, _ in updates:
                x[i] -= lu[ik] * x[k]
        for k, _, cols in reversed(steps):
            x[k] = (x[k] - sum(lu[kj] * x[j] for j, kj in cols)) / lu[k]
    else:  # U^T z = b, then L^T x = z
        for k, _, cols in steps:
            x[k] /= lu[k]
            for j, kj in cols:
                x[j] -= lu[kj] * x[k]
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
    elimination plan) runs in floats from the largest out-degree: from
    above the root its steps stay above it, so x falls monotonically onto
    it.  Given dps, each Newton step squares the error, so the steps run at
    precisions that double from the float's 53 bits up to dps digits, and
    further steps at dps follow until they stop halving (one, when the
    doubling has converged).
    """
    degrees = {sum(row) for row in adj}
    if len(degrees) == 1:
        r = degrees.pop()
        return float(r) if dps is None else mpmath.mpf(r)
    plan = _elimination_plan(adj)
    x = float(max(degrees))
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
                return x
            last = step
    raise PerronError(f"Newton iteration for an adjacency root did not settle; {ITERATION_NOTE}")


def adjacency_entropy(adj, dps: int | None = None):
    """log of the Perron root of an irreducible 0/1 adjacency matrix: the
    entropy of the subshift it presents.  A float, or an mpf at dps digits;
    0 exactly for a cycle."""
    root = _adjacency_root(adj, dps)
    if dps is None:
        return math.log(root)
    with mpmath.workdps(dps):
        return mpmath.log(root)


def _scaled_matrix(logm, shift, w) -> list:
    """exp(logm[i][j] - shift + w[j] - w[i]) at the working precision; 0
    where logm is -inf.  shift and w are mpf; the exponent is formed in
    mpf from the exact float entries, so the matrix is similar to
    exp(logm - shift) up to one rounding of each exponent.  Each distinct
    exponential is formed once at _ENTRY_GUARD more digits and rounded, so
    an entry is within 2^(1-prec) of exact, and equal to the rounding of a
    formation at any higher precision unless within 10^-10 of a tie."""
    cache = {}
    mat = [[0] * len(logm) for _ in logm]
    with mpmath.workdps(mpmath.mp.dps + _ENTRY_GUARD):
        for i, row in enumerate(logm):
            for j, e in enumerate(row):
                if math.isfinite(e):
                    x = mpmath.mpf(e) - shift + w[j] - w[i]
                    if x not in cache:
                        cache[x] = mpmath.exp(x)
                    mat[i][j] = cache[x]
    return [[+x for x in row] for row in mat]


def _bracket_root(plan, mat, floor, guess, digits: int, rel_width):
    """Certified bracket of the Perron root of mat, narrowed around it, by
    the M-matrix test on the elimination plan of its pattern.

    ``floor`` is a lower estimate of the root (its max-plus floor, or None)
    and ``guess`` an estimate of root - floor (or None).  The search works
    on s = log(mu - floor), which spreads the cluster of eigenvalues just
    above the floor: it brackets s by steps of ln 2 times 1, 2, 4, ... from
    the guess (or down from an upper Collatz-Wielandt bound), bisects in s
    while the ends are more than a factor 2 apart in mu - floor, then runs
    regula falsi (Anderson-Bjorck) on det(mu*I - mat), the product of the
    pivots, until hi - lo <= rel_width * (hi - floor).  (The last pivot
    alone changes sign only between the root of the leading block and rho,
    a window as narrow as the excess when the last state is off the Aubry
    set.)

    Returns (lo, hi, lambda, factors of hi*I - mat).  When the test passes
    within floor * 10^-digits of the floor (the zero-excess case, such as
    the zero potential, where the root equals the floor), lambda is the
    floor itself.  A floor that turns out to lie above the root is replaced
    by the lower Collatz-Wielandt bound.
    """
    n = len(mat)
    rows = [sum(r) for r in mat]
    cols = [sum(mat[i][j] for i in range(n)) for j in range(n)]
    top = min(max(rows), max(cols))
    low = max(min(rows), min(cols)) * (1 - mpmath.mpf(10) ** -digits)
    if floor is None:
        floor = low
    x_min = floor * mpmath.mpf(10) ** -digits
    x_max = max(2 * (top - floor), 2 * x_min)
    found = _search(plan, mat, floor, guess or x_max, x_min, x_max)
    if found is None:  # the test passes at floor + x_min
        lo = floor - x_min
        if not _shifted_lu(plan, mat, lo)[0]:
            hi = floor + x_min
            return lo, hi, floor, _shifted_lu(plan, mat, hi)[2]
        # the floor lies above the root; low lies below it by low * 10^-digits
        floor, x_min = low, low * mpmath.mpf(10) ** -digits
        found = _search(plan, mat, floor, lo - floor, x_min, lo - floor)
        if found is None:
            raise PerronError(f"no root above the lower Collatz-Wielandt bound; {ITERATION_NOTE}")
    lo, f_lo, hi, f_hi, lu_hi = found
    side = 0
    for _ in range(_MAX_PROBES):
        x_lo, x_hi = lo - floor, hi - floor
        width = rel_width * x_hi
        if x_hi - x_lo <= width:
            return lo, hi, hi, lu_hi
        if 2 * x_lo < x_hi:  # bisect in s; x needs no more than 53 bits
            with mpmath.workprec(53):
                x = mpmath.sqrt(x_lo * x_hi)
        elif f_lo is None or f_lo > 0:  # an even count of eigenvalues above lo
            x = (x_lo + x_hi) / 2
        else:
            # keep half the target width from either end, so that a step that
            # lands next to one end still closes the bracket, and aim a quarter
            # of it low, so that no probe lands within rounding of the root
            x = x_hi - f_hi * (x_hi - x_lo) / (f_hi - f_lo) - width / 4
            x = min(max(x, x_lo + width / 2), x_hi - width / 2)
        mu = floor + x
        if mu == lo or mu == hi:  # no point left between the ends
            return lo, hi, hi, lu_hi
        passes, f, lu = _shifted_lu(plan, mat, mu)
        # Anderson-Bjorck: when one end is replaced twice in a row, scale
        # the value kept at the other end down, so that both ends move
        if passes:
            if side == 1 and f_lo is not None:
                scale = 1 - f / f_hi
                f_lo *= scale if scale > 0 else mpmath.mpf(0.5)
            hi, f_hi, lu_hi = mu, f, lu
            side = 1
        else:
            if side == -1 and f is not None and f_lo is not None:
                scale = 1 - f / f_lo
                f_hi *= scale if scale > 0 else mpmath.mpf(0.5)
            lo, f_lo = mu, f
            side = -1
    raise PerronError(f"bracket not narrowed in {_MAX_PROBES} probes; {ITERATION_NOTE}")


def _search(plan, mat, floor, x, x_min, x_max):
    """Bracket the root in x = mu - floor from a first x in [x_min, x_max],
    by factors 2, 4, 16, ...: down while the test passes, up while it fails
    (up to x_max, where it passes).  Returns (lo, det at lo, hi, det at hi,
    factors at hi), or None if the test still passes at floor + x_min."""
    x = min(max(x, x_min), x_max)
    passes, f, lu = _shifted_lu(plan, mat, floor + x)
    step = 1
    if passes:
        while x > x_min:
            x_next = max(x / mpmath.mpf(2) ** step, x_min)
            passes_next, f_next, lu_next = _shifted_lu(plan, mat, floor + x_next)
            if not passes_next:
                return floor + x_next, f_next, floor + x, f, lu
            x, f, lu = x_next, f_next, lu_next
            step *= 2
        return None
    while x < x_max:
        x_next = min(x * mpmath.mpf(2) ** step, x_max)
        passes_next, f_next, lu_next = _shifted_lu(plan, mat, floor + x_next)
        if passes_next:
            return floor + x, f, floor + x_next, f_next, lu_next
        x, f = x_next, f_next
        step *= 2
    raise PerronError(f"the upper Collatz-Wielandt bound fails the M-matrix test; {ITERATION_NOTE}")


def _inverse_iteration(plan, lu, settle):
    """Right and left Perron vectors from the factors of mu*I - M, mu just
    above the root, iterated until no component of either vector moves by
    more than ``settle`` relative."""
    n = len(plan[2])
    right, left = [mpmath.mpf(1)] * n, [mpmath.mpf(1)] * n
    for _ in range(_MAX_STEPS):
        new_right = _solve(plan, lu, right)
        new_left = _solve(plan, lu, left, transpose=True)
        top_r, top_l = max(new_right), max(new_left)
        new_right = [x / top_r for x in new_right]
        new_left = [x / top_l for x in new_left]
        moved = max(
            (abs(x - y) / abs(x) for x, y in zip(new_right + new_left, right + left) if x),
            default=0,
        )
        right, left = new_right, new_left
        if moved <= settle:
            return right, left
    raise PerronError(f"inverse iteration did not settle in {_MAX_STEPS} steps; {ITERATION_NOTE}")


def perron(pot: LocallyConstantPotential, beta: float, floor) -> PerronData:
    """Dominant eigenvalue, eigenfunction, eigenmeasure and Markov measure
    of the transfer matrix of ``pot`` at ``beta``; see perron_core for
    ``floor`` (None when no floor is known).  Analysis(pot).perron(beta),
    in asymptotics, passes the floor of the potential.
    """
    zero = tuple([0] * pot.word_length)
    if zero not in pot.states:
        raise PerronError(f"state {zero} is not admissible, so H cannot be normalized at it")
    logm = transfer_matrix(pot, beta)
    return PerronData(beta=beta, pot=pot, **perron_core(logm, beta, floor, pot.states.index(zero)))


def perron_core(logm, beta: float, floor, anchor: int) -> dict:
    """The Perron pair of exp(logm), as the PerronData fields other than
    beta and pot, with H normalized to 1 at ``anchor``.

    ``floor`` is (m, adj, gamma, V), or None: the maximum cycle mean of the
    word graph, the 0/1 critical adjacency of a component of largest
    entropy h of A - m, the max-plus rate gamma of the excess (None if
    unknown) and a max-plus subaction V of A - m by state, vanishing at
    ``anchor`` (None if unknown).  logm = beta*A.

    The solve runs on S = e^{-beta*m} D^-1 exp(logm) D, D = diag(e^{w}),
    w = beta*V, whose exponents are formed in mpf (_scaled_matrix).  The
    root lies above the floor e^h by about e^{beta*gamma}; at E + R + G
    digits, E = beta*|gamma|/ln10 + 15 for the excess, the bracket resolves
    R = 60 digits of it, and G = 30 digits guard against rounding.  Without
    V (or with a -inf entry in it) w = 0, and E starts from the rate bound
    beta*span, span the spread of A.  S is formed once per precision, at
    the working one plus guard digits, and rounded to it; both ends of the
    bracket, moved inward by the bound u on that rounding, are probed again
    at twice the precision, and a disagreement doubles E and restarts it.
    A solve that would need more than _MAX_DPS digits raises PerronError
    before it starts.  Every probe, escalation and confirmation runs on one
    elimination plan of the finite pattern of logm.  H and nu are left to
    ``vectors``, which returns (log_H, log_nu, mass_k) when called: they
    settle by inverse iteration on the factors at hi to R digits and are
    unscaled as H = H_S e^{w}, nu = nu_S e^{-w}; the masses H_S nu_S need
    no unscaling.  Its eigen-residual must stay below _MAX_RESIDUAL
    relative to lambda, or it raises PerronError.
    """
    n = len(logm)
    plan = _elimination_plan([[math.isfinite(x) for x in row] for row in logm])
    finite = [x for row in logm for x in row if math.isfinite(x)]
    span = max(finite) - min(finite) if finite else 0.0
    cycle_mean, adj, gamma, v = floor if floor is not None else (0.0, None, None, None)
    scaled = v is not None and all(math.isfinite(x) for x in v)
    rate = beta * abs(gamma) if gamma is not None else 0.0
    if not scaled:
        v, rate = (0.0,) * n, max(rate, span)
    excess_digits = int(rate / math.log(10)) + _EXCESS_SLACK
    escalations = 0
    while True:
        dps = excess_digits + _RESOLVED + _GUARD
        if dps > _MAX_DPS:
            raise PerronError(
                f"the solve at beta {beta:g} needs {float(dps):.3g} digits, "
                f"more than the cap of {_MAX_DPS}"
            )
        with mpmath.workdps(dps):
            shift = mpmath.mpf(beta) * cycle_mean
            w = [mpmath.mpf(beta) * x for x in v]
            mat = _scaled_matrix(logm, shift, w)
            base = guess = None
            if adj is not None:
                base = _adjacency_root(adj, dps)
                if gamma is not None:
                    with mpmath.workprec(53):
                        guess = base * mpmath.exp(mpmath.mpf(beta) * gamma)
            resolution = mpmath.mpf(10) ** -_RESOLVED
            lo, hi, lam, lu = _bracket_root(
                plan, mat, base, guess, excess_digits + _RESOLVED, resolution
            )
        if _confirmed(plan, mat, lo, hi, dps):
            break
        escalations += 1
        if escalations > _MAX_ESCALATIONS:
            raise PerronError(
                f"the bracket was not confirmed at {2 * dps} digits; {ITERATION_NOTE}"
            )
        excess_digits *= 2
    with mpmath.workdps(dps):
        log_lambda_mp = mpmath.log(lam) + shift
        lo, hi = (x * mpmath.exp(shift) for x in (lo, hi))

    def vectors():
        with mpmath.workdps(dps):
            h_vec, nu_vec = _inverse_iteration(plan, lu, resolution)
            if any(x <= 0 for x in h_vec + nu_vec):
                raise PerronError(f"Perron vector not strictly positive; {ITERATION_NOTE}")
            res = max(
                abs(sum(mat[i][j] * h_vec[j] for j in range(n) if mat[i][j]) - lam * h_vec[i])
                for i in range(n)
            )
            if res > _MAX_RESIDUAL * lam * max(h_vec):
                raise PerronError(f"eigen-residual {mpmath.nstr(res, 4)} too large")
            mass_raw = [h * nu for h, nu in zip(h_vec, nu_vec)]
            z = sum(mass_raw)
            mass_k = tuple(float(x / z) for x in mass_raw)
        with mpmath.workdps(_RESOLVED + _GUARD):
            # log nu = log nu_S - w - log sum(nu_S e^{-w})
            log_nu_total = mpmath.log(sum(x * mpmath.exp(-y) for x, y in zip(nu_vec, w)))
            log_h0 = mpmath.log(h_vec[anchor]) + w[anchor]
            # + 0.0: a log H of -1e-400 rounds to -0.0, not 0
            log_H = tuple(float(mpmath.log(x) + y - log_h0) + 0.0 for x, y in zip(h_vec, w))
            log_nu = tuple(float(mpmath.log(x) - y - log_nu_total) for x, y in zip(nu_vec, w))
        return log_H, log_nu, mass_k

    return dict(
        log_lambda=float(log_lambda_mp),
        log_lambda_mp=log_lambda_mp,
        dps=dps,
        bracket=(lo, hi),
        certified_dps=2 * dps,
        escalations=escalations,
        vectors=vectors,
    )


def _confirmed(plan, mat, lo, hi, dps: int) -> bool:
    """lo <= rho < hi, rho the Perron root of the exact matrix that mat
    rounds to dps digits (_scaled_matrix): each entry is within u =
    2^(1-prec), so (1 - u) exact <= mat <= (1 + u) exact, and as rho grows
    with the entries of a nonnegative matrix, rho(mat) / (1 + u) <= rho <=
    rho(mat) / (1 - u).  So the M-matrix test of mat, run at 2*dps digits,
    must fail at lo (1 + u) and pass at hi (1 - u)."""
    with mpmath.workdps(dps):
        u = mpmath.mpf(2) ** (1 - mpmath.mp.prec)
    with mpmath.workdps(2 * dps):
        return not _shifted_lu(plan, mat, lo * (1 + u))[0] and _shifted_lu(plan, mat, hi * (1 - u))[0]


def equilibrium_cylinder_mass(p: PerronData, word) -> float:
    """Mass of the cylinder [word] under the equilibrium Markov measure.

    The measure is the stationary Markov chain on k-words with transition
    weight exp(entry) * nu(target) / (lambda * nu(source)); inadmissible
    words get mass 0.
    """
    w = tuple(word)
    pot = p.pot
    if not is_admissible(pot.sft, w):
        return 0.0
    k = pot.word_length
    words = p.words
    index = {u: i for i, u in enumerate(words)}
    if len(w) <= k:
        return float(
            sum(p.mass_k[i] for i, u in enumerate(words) if u[: len(w)] == w)
        )
    log_mass = math.log(p.mass_k[index[w[:k]]])
    for t in range(len(w) - k):
        u = w[t : t + k]
        v = w[t + 1 : t + 1 + k]
        iu, iv = index[u], index[v]
        e = p.beta * pot.value(w[t : t + k + 1])  # the entry of transfer_matrix
        log_mass += e + p.log_nu[iv] - p.log_lambda - p.log_nu[iu]
    return math.exp(log_mass)
