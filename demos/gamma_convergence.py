"""How fast does the pressure reach its ground-state limit?

For a locally constant potential the pressure P(beta A) converges to the
residual entropy h of the maximizing subshift, and the excess P - h decays
exponentially.  The decay rate is the max-plus eigenvalue of the matrix of
travelling costs between Aubry components.  This script prints the finite-beta
estimate (1/beta) log(P - h) next to that eigenvalue for three examples.
"""

from zerotemp import Analysis, estimate_gamma
from zerotemp.verify import lc1_potential, lc2_potential, three_symbol_potential


def show(name, pot):
    an = Analysis(pot)
    ge = estimate_gamma(an)
    d = an.decomposition
    print(f"\n{name}: components {d.components}, entropies {d.entropies}")
    print(f"  travelling costs {d.cost.entries}")
    print(f"  max-plus rate gamma = {ge.gamma_maxplus}")
    print("  beta     (1/beta) log(P - h)")
    for beta, g in zip(ge.beta_grid, ge.gamma_hat):
        print(f"  {beta:6.0f}   {g:+.8f}")


if __name__ == "__main__":
    show("symmetric two-cycle", lc1_potential())
    show("asymmetric two-cycle", lc2_potential())
    show("three symbols, two zero cycles", three_symbol_potential())
