"""Stability of the selected measure under small perturbations.

Perturbing the potential on the first coordinate by +- e^{beta delta} with
delta below the decay rate gamma leaves the limit measure and the subaction
offsets unchanged; pushing delta above gamma breaks the construction.  The
script runs the stable experiment on the boundary example and then shows the
divergence signal on the unstable side.
"""

from zerotemp import (
    SeriesDivergenceError,
    WaltersPotential,
    perturbation_stability_experiment,
    walters_cylinder_ratio,
    walters_gamma,
    walters_pressure,
)


if __name__ == "__main__":
    w = WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-3.0)
    gamma = walters_gamma(w)
    grid = (25.0, 50.0, 100.0, 150.0)
    pressures = [walters_pressure(w, beta) for beta in grid]
    masses = [walters_cylinder_ratio(w, 0.0, beta, p)[1] for beta, p in zip(grid, pressures)]
    for sign in (1.0, -1.0):
        rep = perturbation_stability_experiment(w, gamma - 0.5, grid, pressures, masses, sign)
        print(f"\nsign {sign:+.0f}, delta = gamma - 0.5 = {rep.delta}")
        print("  beta    |mu gap|      |V-hat gap|")
        for row in rep.rows:
            mu_gap = abs(row.mu0_pert - row.mu0_unpert)
            v_gap = abs(row.vhat1_pert - row.vhat1_unpert)
            print(f"  {row.beta:5.0f}   {mu_gap:.3e}    {v_gap:.3e}")
        print(f"  gaps shrink along the grid: {rep.gaps_shrink}")

    sym = WaltersPotential(b=-1.0, d=-1.0, a=-1.0, c=-1.0)  # gamma = -2
    pressures = [walters_pressure(sym, b) for b in grid]
    masses = [walters_cylinder_ratio(sym, 0.0, b, p)[1] for b, p in zip(grid, pressures)]
    try:
        perturbation_stability_experiment(sym, -1.0, grid, pressures, masses)
    except SeriesDivergenceError as exc:
        print(f"\ndelta = -1 above gamma = -2: {exc}")
