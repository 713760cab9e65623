"""Which ground state does the Walters family select?

Depending on how the tail sums a and c compare with the two-cycle cost
a + b + d, the equilibrium measures concentrate on the fixed point 0^inf, on
the two-cycle, or split with a golden-ratio weight on the boundary.  The
script evaluates the cylinder mass mu_beta([0]) at growing beta against the
predicted limit in every regime.
"""

from zerotemp import (
    classify_regime,
    walters_cylinder_ratio,
    walters_gamma,
    walters_pressure,
)
from zerotemp.verify import regime_potentials


if __name__ == "__main__":
    for name, w in regime_potentials().items():
        rep = classify_regime(w)
        print(f"\n{name}: gamma = {walters_gamma(w)}, predicted mass {rep.limit_mass_0}")
        for beta in (25.0, 50.0, 100.0, 150.0):
            p = walters_pressure(w, beta)
            _, mu0 = walters_cylinder_ratio(w, 0.0, beta, p)
            print(f"  beta {beta:5.0f}: mu([0]) = {mu0:.10f}")
        if rep.l_limit is not None:
            import math

            l_beta = walters_pressure(w, 150.0) / math.exp(150.0 * rep.gamma)
            print(f"  pressure prefactor at beta 150: {l_beta:.10f} (limit {rep.l_limit:.10f})")
