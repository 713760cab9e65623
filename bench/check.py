"""Compare each job's outputs with its reference.

``check_job`` returns a Checker whose ``problems`` list is empty when the
job's outputs are correct.  A non-zero exit, an exception that escaped the
program, a missing output or any value outside tolerance is a problem.
``defect_outcome`` tells a known seed defect in its seed form from a fix
and from any other failure.
"""

from __future__ import annotations

import math

import reference as ref

# P - h to 1e-12 relative and log H to 1e-9 (the tolerances the fast Perron
# solver must meet); Walters and measure values to 1e-9 relative.
TOL_LOG_EXCESS = 1e-12
TOL_PRESSURE = 1e-12
TOL_LOG_H = 1e-9
TOL_REL = 1e-9
TOL_ABS = 1e-9


def parse_sections(text: str) -> list[tuple[list[str], list[list[str]]]]:
    """CSV sections of a report stream: each starts with a config-sha256
    comment and a header; rows end at the next comment or a summary line."""
    sections, current = [], None
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("# config-sha256="):
            current = (lines[i + 1].split(","), [])
            sections.append(current)
            i += 2
            continue
        fields = line.split(",")
        if current is not None and len(fields) == len(current[0]) and _is_number(fields[0]):
            current[1].append(fields)
        else:
            current = None
        i += 1
    return sections


def _is_number(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


def is_close(got, want, rel=TOL_REL, abs_tol=0.0) -> bool:
    got = float(got)
    if want == -math.inf:
        return got == want
    return math.isfinite(got) and abs(got - want) <= max(abs_tol, rel * abs(want))


class Checker:
    def __init__(self, job_id: str):
        self.job_id = job_id
        self.problems: list[str] = []
        # known defects whose signature the outputs match (see KNOWN_DEFECTS)
        self.defects: set[str] = set()

    def fail(self, what: str):
        self.problems.append(f"{self.job_id}: {what}")

    def close(self, what, got, want, rel=TOL_REL, abs_tol=0.0):
        if not is_close(got, want, rel, abs_tol):
            self.fail(f"{what} = {float(got)!r}, reference {want!r}")

    def equal(self, what, got, want):
        if got != want:
            self.fail(f"{what} = {got!r}, reference {want!r}")


def _header(c: Checker, section, expected, extra_ok=False):
    """The section's rows, if its header is `expected` (or, with
    `extra_ok`, starts with it)."""
    header, rows = section
    if header != expected and not (extra_ok and header[: len(expected)] == expected):
        c.fail(f"header {header} != {expected}")
        return []
    return rows


# ------------------------------------------------------------ lc reports

def check_lc_gamma(c: Checker, rows, r: dict):
    grid = sorted(r["points"])
    c.equal("gamma rows", len(rows), len(grid))
    for row, beta in zip(rows, grid):
        b, pressure, gamma_hat, gamma_mp, h = (float(x) for x in row)
        pt = r["points"][beta]
        c.close(f"beta[{beta:g}]", b, beta, rel=0.0)
        c.close(f"pressure[{beta:g}]", pressure, pt["pressure"], rel=TOL_PRESSURE)
        c.close(f"log(P-h)[{beta:g}]", beta * gamma_hat, pt["log_excess"], rel=0.0, abs_tol=TOL_LOG_EXCESS)
        c.close(f"gamma_maxplus[{beta:g}]", gamma_mp, r["gamma"], rel=0.0, abs_tol=TOL_ABS)
        c.close(f"h[{beta:g}]", h, r["h"], rel=1e-12, abs_tol=1e-15)


def check_lc_subaction(c: Checker, rows, r: dict):
    g = r["graph"]
    names = ["".join(map(str, w)) for w in g.nodes]
    grid = sorted(r["points"])
    c.equal("subaction rows", len(rows), len(grid) * g.n)
    if len(rows) != len(grid) * g.n:
        return
    for t, beta in enumerate(grid):
        block = rows[t * g.n : (t + 1) * g.n]
        c.equal(f"nodes[{beta:g}]", [row[1] for row in block], names)
        log_h = [beta * float(row[2]) for row in block]
        v_rec = [float(row[3]) for row in block]
        want = r["points"][beta]["log_H"]
        if g.zero_index is None:  # no 0^k state to anchor at: compare shapes
            log_h = [x - log_h[0] for x in log_h]
            want = [x - want[0] for x in want]
        for name, got, w in zip(names, log_h, want):
            c.close(f"log H[{beta:g}, {name}]", got, w, rel=0.0, abs_tol=TOL_LOG_H)
        v_ref = [x / beta for x in r["points"][beta]["log_H"]]
        residual = 0.0
        incoming = {v: [] for v in range(g.n)}
        for u, v, w in g.edges:
            incoming[v].append((u, w))
        for v in range(g.n):
            residual = max(residual, abs(max(w + v_ref[u] - v_ref[v] for u, w in incoming[v])))
            # V_rec = max_j [V(Sigma_j) + S_j] is a calibrated subaction
            calibrated = max(w + v_rec[u] for u, w in incoming[v])
            c.close(f"calibration of v_rec[{beta:g}, {names[v]}]", calibrated, v_rec[v], rel=0.0, abs_tol=TOL_ABS)
        if g.zero_index is not None:
            c.close(f"v_rec[{beta:g}] at 0^k", v_rec[g.zero_index], 0.0, rel=0.0, abs_tol=TOL_ABS)
        for row in block:
            c.close(f"calibration_residual[{beta:g}]", float(row[4]), residual, rel=0.0, abs_tol=2 * TOL_LOG_H / beta)


def measure_words(g):
    ones = sorted({w[:1] for w in g.nodes})
    return ones + (g.nodes if g.k > 1 else [])


def check_lc_measure(c: Checker, rows, r: dict):
    g = r["graph"]
    ws = measure_words(g)
    grid = sorted(r["points"])
    c.equal("measure rows", len(rows), len(grid) * len(ws))
    if len(rows) != len(grid) * len(ws):
        return
    for t, beta in enumerate(grid):
        mass_k = r["points"][beta]["mass_k"]
        for row, w in zip(rows[t * len(ws) : (t + 1) * len(ws)], ws):
            name = "".join(map(str, w))
            c.equal(f"word[{beta:g}]", row[1], name)
            want = sum(m for u, m in zip(g.nodes, mass_k) if u[: len(w)] == w)
            c.close(f"mass[{beta:g}, {name}]", float(row[2]), want, abs_tol=1e-300)


LC_HEADERS = {
    "gamma": ["beta", "pressure", "gamma_hat", "gamma_maxplus", "h"],
    "subaction": ["beta", "node", "v_hat", "v_rec", "calibration_residual"],
    "measure": ["beta", "word", "mass"],
}
LC_CHECKS = {"gamma": check_lc_gamma, "subaction": check_lc_subaction, "measure": check_lc_measure}


def check_lc_run(c: Checker, res: dict, cfg: dict, r: dict):
    for report in cfg["reports"]:
        text = res["files"].get(f"{report}.csv")
        if text is None:
            c.fail(f"missing {report}.csv")
            continue
        sections = parse_sections(text)
        if len(sections) != 1:
            c.fail(f"{report}.csv holds {len(sections)} CSV sections")
            continue
        LC_CHECKS[report](c, _header(c, sections[0], LC_HEADERS[report]), r)


def check_lc_gamma_verb(c: Checker, res: dict, r: dict):
    sections = parse_sections(res["stdout"])
    if len(sections) != 1:
        c.fail(f"stdout holds {len(sections)} CSV sections")
        return
    check_lc_gamma(c, _header(c, sections[0], LC_HEADERS["gamma"]), r)


# --------------------------------------------------------------- Walters

WALTERS_HEADERS = {
    "pressure": ["beta", "pressure", "rate", "gamma"],
    "regime": ["gamma", "regime", "mirrored", "limit_mass_0", "l_limit"],
    "measure": ["beta", "pressure", "ratio", "mu_0"],
    "stability": ["beta", "pressure", "a_beta", "mu0_pert", "mu0_unpert", "vhat1_pert", "vhat1_unpert"],
}


def a_beta_of(pert: dict, beta: float) -> float:
    sign = 1.0 if pert["sign"] == "+" else -1.0
    return sign * math.exp(beta * float(pert["delta"]))


def walters_reference(cfg: dict) -> dict:
    p = {k: float(cfg["potential"][k]) for k in ("a", "b", "c", "d", "rho")}
    grid = [float(b) for b in cfg["beta_grid"]]
    r = {"p": p, "pressure": {b: ref.walters_pressure(p, b) for b in grid}}
    if "stability" in cfg["reports"]:
        pert = cfg["perturbation"]
        r["perturbed"] = {b: ref.walters_pressure(p, b, a_beta_of(pert, b)) for b in grid}
    return r


def check_stability_row(c: Checker, beta, vals, p, P, P_pert, a_beta):
    """mu([0]) and V(1^inf) with and without the perturbation.  The perturbed
    values are checked at the perturbed pressure; values computed at the
    unperturbed pressure instead match the signature of known defect 4d."""
    c.close(f"a_beta[{beta:g}]", vals[2], a_beta, rel=1e-12)
    c.close(f"mu0_unpert[{beta:g}]", vals[4], ref.walters_mu0(p, beta, P)[1], abs_tol=1e-300)
    c.close(f"vhat1_unpert[{beta:g}]", vals[6], ref.walters_vhat1(p, beta, P, 0.0), rel=0.0, abs_tol=TOL_ABS)

    def pert_values(pressure):
        return ref.walters_mu0(p, beta, pressure, a_beta)[1], ref.walters_vhat1(p, beta, pressure, a_beta)

    def matches(want):
        return is_close(vals[3], want[0], abs_tol=1e-300) and is_close(vals[5], want[1], rel=0.0, abs_tol=TOL_ABS)

    exact = pert_values(P_pert)
    if matches(exact):
        return
    if matches(pert_values(P)):
        c.defects.add("4d")
        return
    c.fail(f"(mu0_pert, vhat1_pert)[{beta:g}] = ({vals[3]!r}, {vals[5]!r}), reference {exact!r}")


def check_walters(c: Checker, res: dict, cfg: dict, r: dict):
    p, pressures = r["p"], r["pressure"]
    sections = parse_sections(res["stdout"])
    if len(sections) != len(cfg["reports"]):
        c.fail(f"stdout holds {len(sections)} CSV sections for {len(cfg['reports'])} reports")
        return
    gamma = ref.walters_gamma(p)
    for report, section in zip(cfg["reports"], sections):
        # a fix of defect 4d may add the pressure sandwich bound as columns
        rows = _header(c, section, WALTERS_HEADERS[report], extra_ok=report == "stability")
        if report == "regime":
            c.equal("regime rows", len(rows), 1)
            want = ref.walters_regime(p)
            for row in rows:
                c.close("regime gamma", row[0], want[0], rel=1e-12)
                c.equal("regime", row[1], want[1])
                c.equal("mirrored", int(row[2]), want[2])
                c.close("limit_mass_0", row[3], want[3], rel=1e-12)
                c.equal("l_limit", row[4] == "", want[4] is None)
                if want[4] is not None and row[4]:
                    c.close("l_limit", row[4], want[4], rel=1e-12)
            continue
        c.equal(f"{report} rows", len(rows), len(pressures))
        pert = cfg.get("perturbation")
        for row, beta in zip(rows, sorted(pressures)):
            P = pressures[beta]
            vals = [float(x) for x in row]
            c.close(f"{report} beta", vals[0], beta, rel=0.0)
            c.close(f"{report} pressure[{beta:g}]", vals[1], P)
            if report == "pressure":
                c.close(f"rate[{beta:g}]", vals[2], math.log(P) / beta, rel=0.0, abs_tol=TOL_ABS / beta)
                c.close(f"gamma[{beta:g}]", vals[3], gamma, rel=1e-12)
            elif report == "measure":
                ratio, mu0 = ref.walters_mu0(p, beta, P)
                c.close(f"ratio[{beta:g}]", vals[2], ratio)
                c.close(f"mu_0[{beta:g}]", vals[3], mu0, abs_tol=1e-300)
            else:
                check_stability_row(c, beta, vals, p, P, r["perturbed"][beta], a_beta_of(pert, beta))


# ------------------------------------------------------- selection flip

APPENDIX_HEADER = ["beta", "lambda_tilde", "h1_pert", "p0", "p_unpert", "mu0_unpert", "max_rel_err"]


def appendix_grid(beta_max: float):
    grid, b = [], 2.0
    while b < beta_max:
        grid.append(b)
        b *= 2.0
    return grid + [beta_max]


def check_appendix(c: Checker, res: dict, argv: list[str]):
    gamma_p = float(argv[argv.index("--gamma") + 1])
    eta = float(argv[argv.index("--eta") + 1])
    grid = appendix_grid(float(argv[argv.index("--beta-max") + 1]))
    sections = parse_sections(res["stdout"])
    if len(sections) != 1:
        c.fail(f"stdout holds {len(sections)} CSV sections")
        return
    rows = _header(c, sections[0], APPENDIX_HEADER)
    c.equal("appendix rows", len(rows), len(grid))
    for row, beta in zip(rows, grid):
        want = ref.appendix_reference(gamma_p, eta, beta)
        vals = [float(x) for x in row]
        c.close("beta", vals[0], beta, rel=0.0)
        for name, got in zip(APPENDIX_HEADER[1:6], vals[1:6]):
            c.close(f"{name}[{beta:g}]", got, want[name], rel=1e-12)
        if not 0.0 <= vals[6] <= 1e-10:
            c.fail(f"max_rel_err[{beta:g}] = {vals[6]!r} exceeds 1e-10")


# ------------------------------------------------------------- max-plus

def check_maxplus(c: Checker, res: dict, r: dict):
    out = res["result"]
    got_comps = [frozenset(comp) for comp in out["components"]]
    if sorted(map(sorted, got_comps)) != sorted(map(sorted, r["components"])):
        c.fail(f"Aubry components {sorted(map(sorted, got_comps))} differ from the reference")
        return
    mine = {comp: i for i, comp in enumerate(r["components"])}
    order = [mine[got_comps[i]] for i in out["maximal_set"]]
    if sorted(order) != sorted(r["maximal"]):
        c.fail("maximal-entropy components differ from the reference")
        return
    pos = {comp_index: t for t, comp_index in enumerate(r["maximal"])}
    cost = r["cost"][[pos[i] for i in order]][:, [pos[i] for i in order]]
    lam = out["eigenvalue"]
    for i, row in enumerate(out["maximal_cost"]):
        for j, x in enumerate(row):
            c.close(f"cost[{i},{j}]", -math.inf if x is None else x, cost[i, j], rel=0.0, abs_tol=TOL_ABS)
    c.close("eigenvalue", lam, r["eigenvalue"], rel=0.0, abs_tol=TOL_ABS)
    if "brute_force" in r:
        c.close("eigenvalue vs simple cycles", lam, r["brute_force"], rel=0.0, abs_tol=TOL_ABS)
    if not out["eigenvectors"]:
        c.fail("no eigenvector")
    for t, vec in enumerate(out["eigenvectors"]):
        if any(x is None for x in vec):
            c.fail(f"eigenvector {t} has -inf entries")
            continue
        for i in range(len(vec)):
            lhs = max(cost[i, j] + vec[j] for j in range(len(vec)))
            c.close(f"(M (x) v{t})[{i}]", lhs, lam + vec[i], rel=0.0, abs_tol=TOL_ABS)


# ------------------------------------------------------------ dispatch

def reference_for(job: dict):
    """The reference a job is checked against (computed once per run)."""
    cfg = job["config"]
    if job["verb"] in ("run", "gamma"):
        return ref.lc_reference(cfg["potential"], [float(b) for b in cfg["beta_grid"]])
    if job["verb"] == "walters":
        return walters_reference(cfg)
    if job["verb"] == "maxplus-route":
        return ref.maxplus_reference(cfg["potential"])
    return None


def check_job(job: dict, res: dict, r) -> Checker:
    """Check one job's outputs; the returned Checker holds the problems found
    and the known defects whose signature the outputs match."""
    c = Checker(job["id"])
    if res["error"] is not None:
        c.fail(f"exit {res['exit']} ({res['error']})")
    elif res["exit"] != 0:
        c.fail(f"exit {res['exit']}")
    else:
        try:
            if job["verb"] == "run":
                check_lc_run(c, res, job["config"], r)
            elif job["verb"] == "gamma":
                check_lc_gamma_verb(c, res, r)
            elif job["verb"] == "walters":
                check_walters(c, res, job["config"], r)
            elif job["verb"] == "appendix":
                check_appendix(c, res, job["argv"])
            else:
                check_maxplus(c, res, r)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            c.fail(f"malformed output ({type(exc).__name__}: {exc})")
    return c


# ------------------------------------------------------- known defects

def _loud_exit(res, code) -> bool:
    """The program returned `code` from cli.main (no exception escaped)."""
    return res["exit"] == code and res["error"] is None


def _pressure_low_by(job, res, r, lo, hi) -> bool:
    """Every pressure is below the reference by a relative amount in
    [lo, hi], and every other output is right for the pressure printed."""
    sections = parse_sections(res["stdout"])
    if len(sections) != 1 or sections[0][0] != WALTERS_HEADERS["pressure"]:
        return False
    rows = sections[0][1]
    if len(rows) != len(r["pressure"]):
        return False
    printed = {}
    for row, beta in zip(rows, sorted(r["pressure"])):
        got = float(row[1])
        if not lo <= 1.0 - got / r["pressure"][beta] <= hi:
            return False
        printed[beta] = got
    c = Checker(job["id"])
    check_walters(c, res, job["config"], {**r, "pressure": printed})
    return not c.problems


# For each defect config: its outcome at the seed (the signature), and the
# other outcomes that count as the defect fixed.  Anything else is a failure.
def defect_outcome(job: dict, res: dict, r, checked: Checker) -> str | None:
    """'fixed', 'reproduced', or None when the config failed in a way that
    is neither the seed's defect nor a fix."""
    if not checked.problems:
        return "fixed"
    defect = job["defect"]
    if defect == "4a":  # P - h below the entropy string's digits: exit 3
        return "reproduced" if _loud_exit(res, 3) else None
    if defect == "4b":  # ValueError escapes cli.main; exit 3 keeps the contract
        if res["exit"] == 1 and (res["error"] or "").startswith("ValueError:"):
            return "reproduced"
        return "fixed" if _loud_exit(res, 3) else None
    if defect == "4c":  # exit 0 with a pressure 5e-4 to 7e-4 low; or exit 3
        if _loud_exit(res, 3):
            return "fixed"
        if _loud_exit(res, 0) and _pressure_low_by(job, res, r, 5e-4, 7e-4):
            return "reproduced"
    return None
