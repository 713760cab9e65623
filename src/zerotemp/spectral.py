"""Finite-matrix transfer operator for locally constant potentials.

The operator L_A(psi)(x) = sum_{sigma(z)=x} e^{A(z)} psi(z) acts on functions
of k-word cylinders when A depends on k+1 coordinates.  All spectral data is
produced in log-domain form.

At large inverse temperature the two leading eigenvalues differ by a factor
1 + O(e^{beta*gamma}), so fixed-precision iteration cannot separate them;
perron() therefore solves the eigenproblem with mpmath at a working precision
chosen from the magnitude of the matrix exponents, then converts to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import mpmath
import numpy as np

from .symbolic import Sft, enumerate_words, is_admissible

__all__ = [
    "LocallyConstantPotential",
    "PerronData",
    "PerronError",
    "transfer_matrix",
    "perron",
    "equilibrium_cylinder_mass",
]

ITERATION_NOTE = "matrix may be reducible or periodic"


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
        for w in table:
            if not is_admissible(self.sft, w) or len(w) != self.depth + 1:
                raise ValueError(f"table key {w} is not an admissible (k+1)-word")
        for w in enumerate_words(self.sft, self.depth + 1):
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

    def is_normalized_for_optimization(self, tol: float = 1e-12) -> bool:
        """All values <= 0 and maximal cycle mean of the word graph equal 0."""
        from .aubry import max_cycle_mean, word_graph

        if any(v > tol for v in self.values.values()):
            return False
        return abs(max_cycle_mean(word_graph(self))) <= tol


def transfer_matrix(pot: LocallyConstantPotential, beta: float) -> np.ndarray:
    """Log-domain transfer matrix over k-words.

    Entry (w, w') equals beta * A(w'[0] . w) when the k-word w' can be
    obtained from w by prepending one symbol (w'[1:] == w[:-1] and the
    (k+1)-word w'[0].w is admissible); -inf otherwise.  Row index is the
    target word, column the prepended (preimage) word.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    words = pot.states
    k = pot.word_length
    index = {w: i for i, w in enumerate(words)}
    n = len(words)
    m = np.full((n, n), -np.inf)
    for wp in words:
        for s in range(pot.sft.alphabet_size):
            long_word = wp + (s,)
            if not is_admissible(pot.sft, long_word):
                continue
            w = long_word[-k:]
            if w in index:
                m[index[w], index[wp]] = beta * pot.value(long_word)
    return m


@dataclass(frozen=True)
class PerronData:
    """Dominant eigendata of the transfer matrix, all in log domain.

    H is the eigenfunction (right eigenvector, H(0^k) = 1) and nu the
    eigenmeasure (left eigenvector, total mass 1); mass_k holds the
    equilibrium-measure masses of the k-word cylinders.
    """

    beta: float
    pot: LocallyConstantPotential
    log_lambda: float
    log_lambda_mp: object  # mpmath.mpf, keeps the tiny excess over e^h resolvable
    log_H: tuple[float, ...]
    log_nu: tuple[float, ...]
    mass_k: tuple[float, ...]
    log_matrix: np.ndarray

    @property
    def words(self) -> list[tuple[int, ...]]:
        return self.pot.states

    def pressure_excess_log(self, h_mp) -> float:
        """log(P - h); raises if the excess is not resolvably positive.

        log_lambda_mp carries the working precision it was produced at, so
        the cancellation P - h is accurate whenever the excess exceeds the
        stored resolution.
        """
        # the subtraction is exact before rounding; 113 bits leave enough
        # guard bits for the float log to be correctly rounded
        with mpmath.workprec(113):
            excess = self.log_lambda_mp - h_mp
            if excess <= mpmath.mpf(10) ** (-_excess_floor_digits(self)):
                raise PerronError(
                    f"pressure excess P - h = {mpmath.nstr(excess, 6)} is not "
                    "resolvably positive (h misidentified or potential has "
                    "zero excess)"
                )
            return float(mpmath.log(excess))


def _excess_floor_digits(p: PerronData) -> int:
    # the excess decays no faster than a simple path cost, <= n * span
    finite = p.log_matrix[np.isfinite(p.log_matrix)]
    span = float(-finite.min()) if finite.size else 0.0
    return int(p.log_matrix.shape[0] * span / math.log(10)) + 12


def _working_dps(log_entries: np.ndarray) -> int:
    finite = log_entries[np.isfinite(log_entries)]
    span = float(finite.max() - finite.min()) if finite.size else 0.0
    n = log_entries.shape[0]
    return 45 + int((n + 0.5) * span / math.log(10)) + 2 * n


def perron(pot: LocallyConstantPotential, beta: float, tol: float = 1e-14) -> PerronData:
    """Dominant eigenvalue, eigenfunction, eigenmeasure and Markov measure.

    Solved at adaptive precision so that log_lambda keeps full relative
    accuracy even when the spectral gap closes like e^{beta*gamma}; tol
    bounds the accepted eigen-residual relative to lambda.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    zero = tuple([0] * pot.word_length)
    if zero not in pot.states:
        raise PerronError(f"state {zero} is not admissible, so H cannot be normalized at it")
    logm = transfer_matrix(pot, beta)
    n = logm.shape[0]
    dps = _working_dps(logm)
    with mpmath.workdps(dps):
        m = mpmath.zeros(n, n)
        for i in range(n):
            for j in range(n):
                e = logm[i, j]
                if math.isfinite(e):
                    m[i, j] = mpmath.exp(mpmath.mpf(e))
        try:
            eigvals, left, right = mpmath.eig(m, left=True, right=True)
        except (RuntimeError, ZeroDivisionError) as exc:  # pragma: no cover - mpmath QR failure
            raise PerronError(f"eigen decomposition failed: {exc}; {ITERATION_NOTE}")
        # dominant eigenvalue: largest real part; must be real and simple-dominant
        idx = max(range(n), key=lambda i: mpmath.re(eigvals[i]))
        lam = eigvals[idx]
        if abs(mpmath.im(lam)) > tol * abs(lam) or mpmath.re(lam) <= 0:
            raise PerronError(f"dominant eigenvalue not real positive; {ITERATION_NOTE}")
        lam = mpmath.re(lam)
        h_vec = [mpmath.re(right[i, idx]) for i in range(n)]
        nu_vec = [mpmath.re(left[idx, i]) for i in range(n)]
        for vec in (h_vec, nu_vec):
            if all(x <= 0 for x in vec):
                for i in range(n):
                    vec[i] = -vec[i]
            if any(x <= 0 for x in vec):
                raise PerronError(
                    f"Perron vector not strictly positive; {ITERATION_NOTE}"
                )
        # residual check against the requested tolerance
        res = max(
            abs(sum(m[i, j] * h_vec[j] for j in range(n)) - lam * h_vec[i])
            for i in range(n)
        )
        scale = lam * max(h_vec)
        if res > mpmath.mpf(tol) * scale * 10**6:
            raise PerronError(f"eigen-residual {mpmath.nstr(res, 4)} too large")

        h0 = h_vec[pot.states.index(zero)]
        h_vec = [x / h0 for x in h_vec]
        nu_total = sum(nu_vec)
        nu_vec = [x / nu_total for x in nu_vec]
        mass_raw = [h_vec[i] * nu_vec[i] for i in range(n)]
        z = sum(mass_raw)
        mass_k = tuple(float(x / z) for x in mass_raw)
        log_lambda_mp = mpmath.log(lam)
        log_H = tuple(float(mpmath.log(x)) for x in h_vec)
        log_nu = tuple(float(mpmath.log(x)) for x in nu_vec)
        return PerronData(
            beta=beta,
            pot=pot,
            log_lambda=float(log_lambda_mp),
            log_lambda_mp=log_lambda_mp,
            log_H=log_H,
            log_nu=log_nu,
            mass_k=mass_k,
            log_matrix=logm,
        )


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
        e = p.log_matrix[iv, iu]
        if not math.isfinite(e):
            return 0.0
        log_mass += e + p.log_nu[iv] - p.log_lambda - p.log_nu[iu]
    return math.exp(log_mass)
