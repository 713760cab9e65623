"""Calibrated subactions from normalized eigenfunctions.

V-hat = (1/beta) log H_beta converges to a calibrated subaction.  The limit
can be reconstructed independently from max-plus data: eigenvector offsets of
the cost matrix plus Mane potentials from each Aubry component.  The script
compares the two at increasing beta and shows the calibration residual decay.
"""

from zerotemp import Analysis, estimate_subaction
from zerotemp.verify import lc2_potential, three_symbol_potential


def show(name, pot):
    an = Analysis(pot)
    print(f"\n{name}")
    print("  beta    residual      max |V-hat - V-reconstructed|")
    for beta in (16.0, 64.0, 256.0):
        se = estimate_subaction(an, beta)
        gap = max(abs(a - b) for a, b in zip(se.v_hat, an.subaction_maxplus))
        # log H resolves R = 60 digits; a smaller gap is rounding noise
        gap = gap if gap >= 1e-60 else 0.0
        print(f"  {beta:5.0f}   {se.calibration_residual:.3e}    {gap:.3e}")
    print(f"  values at beta 256: {[round(v, 6) for v in se.v_hat]}")
    print(f"  eigenspace dimension: {an.eigenvectors.eigenspace_dim}")


if __name__ == "__main__":
    show("asymmetric two-cycle", lc2_potential())
    show("three symbols, two zero cycles", three_symbol_potential())
