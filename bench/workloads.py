"""Seeded workload generators.

Each workload is a list of jobs.  A job is one config file (or one library
call) that a single client solves; the program only ever sees the generated
config files.  The same (workload, seed) always gives the same jobs.

Costs are kept nearly independent of the seed: the transfer-matrix span is
pinned (every random table holds a -4 entry), the Walters truncation depends
only on rho, and the Aubry closure only on the state count.  What the seed
changes is the table values, the choice of Walters regimes and their scale,
and the zero orbits of the max-plus potentials.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("lc-reports", "lc-gamma-deep", "walters-reports", "maxplus-route")

# Known seed defects.  4a-4c each have a config of their own (its "defect"
# key); check.defect_outcome knows the seed's outcome on it, and a failure
# of that form is expected and reported apart from the workload's own
# failures.  These configs run untimed, so fixing one moves no timing.  4d
# is a signature that any stability report may show.
KNOWN_DEFECTS = {
    "4a": "two-zero-blocks potential at beta 640: the 500-digit entropy string "
    "cannot resolve P - h, so `zerotemp gamma` exits 3",
    "4b": "transitions [[0,1],[1,1]] at depth 2: perron looks up the missing "
    "state 00 and raises ValueError (exit 1, outside the 0/2/3 contract)",
    "4c": "Walters rho=0.99999: the 1e5-term truncation cap leaves rho^trunc = "
    "0.37, so the pressure at beta 11 is silently off by 6e-4 relative",
    "4d": "the stability report evaluates the perturbed series at the "
    "unperturbed pressure, so mu0_pert and vhat1_pert miss the shift of P by "
    "about a_beta mu([0])",
}

LC_REPORTS = ["gamma", "subaction", "measure"]
WALTERS_REPORTS = ["pressure", "regime", "measure", "stability"]

# (b, d, a, c): one representative per limit-measure regime, plus mirrors.
REGIMES = {
    "symmetric": (-1.0, -1.0, -1.0, -1.0),
    "two-cycle-dominant": (-2.0, -2.0, -1.0, -2.0),
    "zero-dominant": (-0.5, -0.5, -1.0, -3.0),
    "boundary-golden": (-1.0, -1.0, -1.0, -3.0),
    "two-cycle-dominant-mirror": (-2.0, -2.0, -2.0, -1.0),
    "zero-dominant-mirror": (-0.5, -0.5, -3.0, -1.0),
    "boundary-golden-mirror": (-1.0, -1.0, -3.0, -1.0),
}
# dyadic scales keep the regime comparisons (a + b + d vs c) exact; at 1.0
# and beta 150 the pressure and a_beta are still normal floats
SCALES = (0.5, 0.75, 1.0)
WALTERS_BETAS = [25.0, 50.0, 100.0, 150.0]

FULL2 = [[1, 1], [1, 1]]
FULL3 = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
GOLDEN = [[1, 1], [1, 0]]  # word 11 forbidden
NO_00 = [[0, 1], [1, 1]]  # word 00 forbidden


def words(trans, length):
    """Admissible words of the SFT, in lexicographic order."""
    n = len(trans)
    return [
        w
        for w in itertools.product(range(n), repeat=length)
        if all(trans[u][v] for u, v in zip(w, w[1:]))
    ]


def word_str(w) -> str:
    return "".join(str(s) for s in w)


def orbit_words(orbit, length):
    """The length-`length` windows of the periodic point orbit^inf."""
    p = len(orbit)
    return {tuple(orbit[(i + t) % p] for t in range(length)) for i in range(p)}


def random_table(rng, trans, depth, zero_orbits):
    """Normalized table: zero on the windows of the given periodic orbits,
    uniform in [-4, -1] elsewhere, with the minimum pinned at -4."""
    ws = words(trans, depth + 1)
    zero = set()
    for orbit in zero_orbits:
        zero |= orbit_words(orbit, depth + 1)
    table = {w: (0.0 if w in zero else -round(rng.uniform(1.0, 4.0), 2)) for w in ws}
    pinned = rng.choice([w for w in ws if w not in zero])
    table[pinned] = -4.0
    return {word_str(w): v for w, v in table.items()}


def lc_config(trans, table, grid, reports):
    return {
        "potential": {
            "kind": "locally-constant",
            "alphabet_size": len(trans),
            "transitions": trans,
            "table": table,
        },
        "beta_grid": grid,
        "reports": reports,
    }


def two_zero_blocks():
    """Fixed point 0 and the full shift on {1, 2} both carry zero weight."""
    return {
        "00": 0.0, "11": 0.0, "12": 0.0, "21": 0.0, "22": 0.0,
        "01": -1.0, "02": -1.0, "10": -1.0, "20": -1.0,
    }


def three_symbol():
    """Two disjoint zero cycles on three symbols: fixed point 0 and orbit 12."""
    return {
        "00": 0.0, "12": 0.0, "21": 0.0,
        "01": -1.0, "10": -1.0, "02": -1.0, "20": -1.0, "11": -1.0, "22": -1.0,
    }


def _job(jid, verb, config=None, argv=None, defect=None):
    return {"id": jid, "verb": verb, "config": config, "argv": argv or [], "defect": defect}


def lc_jobs(rng, verb, reports, specs):
    """One config per (count, name, transitions, depth, zero orbits, grid)."""
    jobs = []
    for count, name, trans, depth, orbits, grid in specs:
        for i in range(count):
            table = random_table(rng, trans, depth, orbits)
            jobs.append(_job(f"{verb}-{name}-{i}", verb, lc_config(trans, table, grid, reports)))
    return jobs


# `perron`'s QR iteration count, and so its cost, varies by 10-30% between
# random tables of one size.  The lc workloads therefore spread their time
# over many tables and put the median config inside a large group of tables
# of about the same cost.
ZERO_FULL = [(0,), (1,)]
ZERO_GOLDEN = [(0,), (0, 1)]


def lc_reports(rng):
    """`zerotemp run` with gamma, subaction and measure; every grid has two
    points, so seed counts read 3 perron calls per point and 1 + 2 Aubry
    decompositions per potential."""
    jobs = lc_jobs(rng, "run", LC_REPORTS, [
        (1, "n2", FULL2, 1, ZERO_FULL, [32.0, 64.0]),
        (4, "n4", FULL2, 2, ZERO_FULL, [32.0, 64.0]),
        (8, "golden5", GOLDEN, 3, ZERO_GOLDEN, [16.0, 32.0]),
        (3, "golden8", GOLDEN, 4, ZERO_GOLDEN, [4.0, 8.0]),
        (2, "n8", FULL2, 3, ZERO_FULL, [2.0, 4.0]),
        (1, "n9", FULL3, 2, ZERO_FULL, [2.0, 4.0]),
    ])
    # 4b: the SFT has no state 00
    table = random_table(rng, NO_00, 2, [(1,), (0, 1)])
    jobs.append(
        _job("run-no00-defect", "run", lc_config(NO_00, table, [32.0, 64.0], LC_REPORTS), defect="4b")
    )
    return jobs


def lc_gamma_deep(rng):
    """`zerotemp gamma` (one perron per point) at large beta, plus the
    positive-entropy potential and the selection-flip closed form."""
    deep = [64.0, 128.0, 256.0, 512.0]
    jobs = lc_jobs(rng, "gamma", ["gamma"], [
        (1, "n2", FULL2, 1, ZERO_FULL, deep),
        (2, "golden5", GOLDEN, 3, ZERO_GOLDEN, [64.0, 128.0, 256.0]),
        (9, "golden8", GOLDEN, 4, ZERO_GOLDEN, [16.0, 32.0]),
        (1, "n4", FULL2, 2, ZERO_FULL, [128.0, 256.0, 512.0]),
        (1, "n8", FULL2, 3, ZERO_FULL, [32.0]),
        (1, "n9", FULL3, 2, ZERO_FULL, [16.0]),
    ])
    jobs.append(
        _job("gamma-three-symbol", "gamma", lc_config(FULL3, three_symbol(), deep, ["gamma"]))
    )
    jobs.append(
        _job("gamma-two-zero-blocks", "gamma", lc_config(FULL3, two_zero_blocks(), deep, ["gamma"]))
    )
    # 4a: beyond the 500 digits the entropy string carries
    jobs.append(
        _job(
            "gamma-two-zero-blocks-defect",
            "gamma",
            lc_config(FULL3, two_zero_blocks(), [320.0, 640.0], ["gamma"]),
            defect="4a",
        )
    )
    gamma_p = -round(rng.uniform(1.5, 3.0), 2)
    eta = round(gamma_p / 2.0, 2)
    jobs.append(
        _job(
            "appendix",
            "appendix",
            argv=["appendix", "--gamma", str(gamma_p), "--eta", str(eta), "--beta-max", "64"],
        )
    )
    return jobs


def walters_config(params, rho, grid, reports, scale, sign):
    b, d, a, c = (scale * x for x in params)
    gamma = max(a + b + d, c + b + d, (a + b + c + d) / 2.0)
    cfg = {
        "potential": {"kind": "walters", "b": b, "d": d, "a": a, "c": c, "rho": rho},
        "beta_grid": grid,
        "reports": reports,
    }
    if "stability" in reports:
        cfg["perturbation"] = {"kind": "first-coord", "delta": gamma - 0.5, "sign": sign}
    return cfg


def walters_reports(rng):
    """`zerotemp walters` on regime representatives at rho 0.5, 0.9 and 0.99,
    one rho=0.999 pressure point and the 4c pressure point.  The three cheap
    rho=0.5 configs balance the three dear ones, so the median config is a
    rho=0.9 one."""
    jobs = []
    names = list(REGIMES)
    picks = rng.sample(names, 7)
    for i, (name, rho) in enumerate(zip(picks, (0.5, 0.5, 0.5, 0.9, 0.9, 0.9, 0.99))):
        cfg = walters_config(
            REGIMES[name], rho, WALTERS_BETAS, WALTERS_REPORTS,
            rng.choice(SCALES), rng.choice("+-"),
        )
        jobs.append(_job(f"walters-{i}-{name}-rho{rho}", "walters", cfg))
    name = rng.choice(names)
    cfg = walters_config(REGIMES[name], 0.999, [rng.choice(WALTERS_BETAS)], ["pressure"],
                         rng.choice(SCALES), "+")
    jobs.append(_job(f"walters-{name}-rho0.999", "walters", cfg))
    cfg = walters_config(REGIMES["symmetric"], 0.99999, [11.0], ["pressure"], 1.0, "+")
    jobs.append(_job("walters-rho0.99999-defect", "walters", cfg, defect="4c"))
    return jobs


def maxplus_route(rng):
    """Library route word_graph -> decompose_aubry -> mp_eigenvalue /
    mp_eigenvectors on potentials that vanish on many short periodic orbits."""
    orbits = []
    seen = set()
    for p in range(1, 7):
        for w in itertools.product((0, 1), repeat=p):
            rot = min(w[i:] + w[:i] for i in range(p))
            # primitive orbits only: skip powers of shorter words
            if rot in seen or any(p % q == 0 and rot == rot[:q] * (p // q) for q in range(1, p)):
                continue
            seen.add(rot)
            orbits.append(rot)
    jobs = []
    for i, depth in enumerate((6,) * 4 + (7,) * 7):
        zero = rng.sample(orbits, rng.randint(8, 14))
        table = random_table(rng, FULL2, depth, zero)
        jobs.append(
            _job(f"maxplus-{i}-n{2 ** depth}", "maxplus-route", lc_config(FULL2, table, [1.0], ["gamma"]))
        )
    return jobs


GENERATORS = {
    "lc-reports": lc_reports,
    "lc-gamma-deep": lc_gamma_deep,
    "walters-reports": walters_reports,
    "maxplus-route": maxplus_route,
}


def build(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng)
