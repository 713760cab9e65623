"""The dense eigen-solver that ``spectral.perron`` replaced, kept as a test
oracle for transfer matrices with at most 9 states.

It computes every eigenpair of exp(transfer matrix), left and right, by
mpmath's complex Hessenberg QR at ``dps`` digits, and returns the dominant
pair in the form ``perron`` reports it.  The default precision is its own,
so that the oracle takes none from the code under test: the spread rule
that ``perron`` used before it scaled by the subaction, which covers the
digits of the excess, plus 100 digits, more than the 90 that ``perron``
resolves beyond them.
"""

from __future__ import annotations

import math

import mpmath

import numpy as np

from zerotemp.spectral import transfer_matrix


def _reference_dps(logm) -> int:
    """(n + 0.5) * span digits and more, span the spread of the log entries."""
    finite = logm[np.isfinite(logm)]
    span = float(finite.max() - finite.min()) if finite.size else 0.0
    n = logm.shape[0]
    return 145 + int((n + 0.5) * span / math.log(10)) + 2 * n


def reference_perron(pot, beta: float, dps: int | None = None) -> dict:
    logm = np.array(transfer_matrix(pot, beta))
    n = logm.shape[0]
    if n > 9:
        raise ValueError("the dense reference is for at most 9 states")
    dps = dps or _reference_dps(logm)
    with mpmath.workdps(dps):
        m = mpmath.zeros(n, n)
        for i in range(n):
            for j in range(n):
                if math.isfinite(logm[i, j]):
                    m[i, j] = mpmath.exp(mpmath.mpf(logm[i, j]))
        eigvals, left, right = mpmath.eig(m, left=True, right=True)
        idx = max(range(n), key=lambda i: mpmath.re(eigvals[i]))
        lam = mpmath.re(eigvals[idx])
        h_vec = [mpmath.re(right[i, idx]) for i in range(n)]
        nu_vec = [mpmath.re(left[idx, i]) for i in range(n)]
        for vec in (h_vec, nu_vec):
            if all(x <= 0 for x in vec):
                vec[:] = [-x for x in vec]
        h0 = h_vec[pot.states.index(tuple([0] * pot.word_length))]
        h_vec = [x / h0 for x in h_vec]
        nu_total = sum(nu_vec)
        nu_vec = [x / nu_total for x in nu_vec]
        mass = [h * nu for h, nu in zip(h_vec, nu_vec)]
        z = sum(mass)
        return {
            "lambda": lam,
            "log_lambda_mp": mpmath.log(lam),
            "log_H": [float(mpmath.log(x)) for x in h_vec],
            "mass_k": [float(x / z) for x in mass],
        }
