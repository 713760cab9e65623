"""Self-test of the output check: correct outputs pass, and a deliberately
perturbed value, a non-zero exit or an escaped exception is flagged.  A
known-defect config is expected only in the form the seed shows it: the
same config failing another way is a failure.

Usage (from the root of a checkout): python3 bench/selftest.py
Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def perturb_field(text: str, line_no: int, col: int, factor: float) -> str:
    """Scale one CSV field of a report stream by `factor`."""
    lines = text.splitlines(keepends=True)
    fields = lines[line_no].rstrip("\n").split(",")
    fields[col] = repr(float(fields[col]) * factor)
    lines[line_no] = ",".join(fields) + "\n"
    return "".join(lines)


def main() -> int:
    import zerotemp
    import zerotemp.cli

    picks = {
        "lc-reports": "run-n4-0",
        "lc-gamma-deep": "gamma-n2-0",
        "walters-reports": None,  # first rho=0.9 config
        "maxplus-route": "maxplus-0-n64",
    }
    cases = []
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_tmp")) as tmp:
        for workload, jid in picks.items():
            jobs = workloads.build(workload, 0)
            job = next(j for j in jobs if j["id"] == jid) if jid else jobs[0]
            run.write_configs([job], tmp)
            entry = run.pass_plan([job], tmp)["jobs"][0]
            res = passrun.run_job(zerotemp, entry)
            res["files"] = {}
            if entry.get("output_dir"):
                for name in os.listdir(entry["output_dir"]):
                    with open(os.path.join(entry["output_dir"], name)) as fh:
                        res["files"][name] = fh.read()
            ref = check.reference_for(job)
            cases.append((f"{job['id']} as produced", job, res, ref, False))

            bad = copy.deepcopy(res)
            if job["verb"] == "run":  # v_hat of the second node (the first is 0^k, where it is 0)
                text = bad["files"]["subaction.csv"]
                bad["files"]["subaction.csv"] = perturb_field(text, 3, 2, 1 + 1e-7)
            elif job["verb"] == "gamma":  # gamma_hat at the last beta
                lines = bad["stdout"].count("\n")
                bad["stdout"] = perturb_field(bad["stdout"], lines - 1, 2, 1 + 1e-12)
            elif job["verb"] == "walters":  # first pressure
                bad["stdout"] = perturb_field(bad["stdout"], 2, 1, 1 + 1e-8)
            else:
                bad["result"]["eigenvalue"] += 1e-6
            cases.append((f"{job['id']} with one value perturbed", job, bad, ref, True))

            failed = copy.deepcopy(res)
            failed.update(exit=1, error="ValueError: raised inside cli.main")
            cases.append((f"{job['id']} with an escaped exception", job, failed, ref, True))

        # an exception escaping cli.main is caught and counted, not fatal
        job = workloads.build("lc-reports", 0)[0]
        entry = {"id": "bad-argv", "verb": "run", "argv": ["run", os.path.join(tmp, "missing.json")]}
        res = passrun.run_job(zerotemp, entry)
        res["files"] = {}
        cases.append(("missing config file (exit 2)", job, res, None, True))

        defect_cases = defect_outcomes(zerotemp, tmp) + reference_cases()

    ok = True
    for name, job, res, ref, want_flagged in cases:
        problems = check.check_job(job, res, ref).problems
        flagged = bool(problems)
        good = flagged == want_flagged
        ok &= good
        verdict = "ok" if good else "WRONG"
        print(f"[{verdict}] {name}: {'flagged: ' + problems[0] if flagged else 'passes'}")
    for name, got, want in defect_cases:
        good = got == want
        ok &= good
        print(f"[{'ok' if good else 'WRONG'}] {name}: {got}")
    return 0 if ok else 1


# zero on both fixed points, so the second eigenvalue sits as close to rho
# as rho sits to 1, and the Perron vector has a component near 1e-45 at beta 64
TWO_ZERO_FIXED_POINTS = {
    "000": 0.0, "001": -2.34, "010": -1.2, "011": -4.0,
    "100": -1.19, "101": -1.17, "110": -3.95, "111": 0.0,
}


def reference_cases():
    """The Perron reference against mpmath.eig, on a table whose second
    eigenvalue lies within rho - 1 of rho."""
    import mpmath

    import reference

    pot_cfg = workloads.lc_config(workloads.FULL2, TWO_ZERO_FIXED_POINTS, [64.0], [])["potential"]
    got = reference.lc_reference(pot_cfg, [64.0])["points"][64.0]
    g = reference.WordGraph(pot_cfg)
    with mpmath.workdps(800):
        m = mpmath.zeros(g.n, g.n)
        for u, v, w in g.edges:
            m[v, u] = mpmath.exp(64 * mpmath.mpf(w))
        vals, left, right = mpmath.eig(m, left=True, right=True)
        k = max(range(g.n), key=lambda i: mpmath.re(vals[i]))
        r = [mpmath.re(right[i, k]) for i in range(g.n)]
        raw = [x * mpmath.re(left[k, i]) for i, x in enumerate(r)]
        log_h = [float(mpmath.log(x / r[g.zero_index])) for x in r]
        mass = [float(x / sum(raw)) for x in raw]
    close = all(abs(a - b) <= 1e-12 * max(abs(b), 1) for a, b in zip(got["log_H"], log_h)) and all(
        abs(a - b) <= 1e-12 * b for a, b in zip(got["mass_k"], mass))
    return [("reference Perron vectors with a near second eigenvalue match mpmath.eig", close, True)]


def solve(zerotemp, job, tmp):
    run.write_configs([job], tmp)
    return passrun.run_job(zerotemp, run.pass_plan([job], tmp)["jobs"][0])


def defect_outcomes(zerotemp, tmp):
    """(case, outcome, expected outcome) for the known-defect signatures."""
    out = []
    jobs = {j["id"]: j for w in ("lc-gamma-deep", "walters-reports") for j in workloads.build(w, 0)}

    job = jobs["gamma-two-zero-blocks-defect"]
    ref = check.reference_for(job)
    res = solve(zerotemp, job, tmp)
    res["files"] = {}
    out.append(("4a as the seed gives it", check.defect_outcome(job, res, ref, check.check_job(job, res, ref)),
                "reproduced"))
    crashed = dict(res, exit=1, error="ZeroDivisionError: raised inside cli.main")
    out.append(("4a with an escaped exception instead",
                check.defect_outcome(job, crashed, ref, check.check_job(job, crashed, ref)), None))

    job = next(j for j in workloads.build("lc-reports", 0) if j["defect"] == "4b")
    ref = check.reference_for(job)
    res = solve(zerotemp, job, tmp)
    res["files"] = {}
    out.append(("4b as the seed gives it", check.defect_outcome(job, res, ref, check.check_job(job, res, ref)),
                "reproduced"))

    job = jobs["walters-rho0.99999-defect"]
    ref = check.reference_for(job)
    res = solve(zerotemp, job, tmp)
    res["files"] = {}
    out.append(("4c as the seed gives it", check.defect_outcome(job, res, ref, check.check_job(job, res, ref)),
                "reproduced"))
    stopped = dict(res, exit=3, stdout="")
    out.append(("4c stopped with exit 3", check.defect_outcome(job, stopped, ref, check.check_job(job, stopped, ref)),
                "fixed"))
    for factor in (1.0 - 2e-3, 1.0 + 6e-4):
        bad = dict(res, stdout=perturb_field(res["stdout"], 2, 1, factor))
        out.append((f"4c with the pressure scaled by {factor}",
                    check.defect_outcome(job, bad, ref, check.check_job(job, bad, ref)), None))

    # 4d: the seed's perturbed values sit at the unperturbed pressure
    job = next(j for j in jobs.values() if "rho0.9-" in j["id"] or j["id"].endswith("rho0.9"))
    ref = check.reference_for(job)
    res = solve(zerotemp, job, tmp)
    checked = check.check_job(job, res, ref)
    out.append(("4d as the seed gives it", (checked.problems, sorted(checked.defects)), ([], ["4d"])))
    text = res["stdout"]
    row = text.splitlines().index(",".join(check.WALTERS_HEADERS["stability"])) + 1
    bad = dict(res, stdout=perturb_field(text, row, 3, 1 + 1e-6))
    out.append(("4d with mu0_pert perturbed", bool(check.check_job(job, bad, ref).problems), True))
    return out


if __name__ == "__main__":
    sys.exit(main())
