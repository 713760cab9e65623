"""zerotemp benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage (from the root of a checkout):

    python3 bench/run.py --workload lc-reports --seed 1 --seconds 28 --trace 0

The program is imported from ``src/`` of the checkout.  Every repetition
(pass) solves all of the workload's configs, one after another, in a fresh
interpreter with ZEROTEMP_THREADS unset; passes repeat until the next one
would end after ``--seconds``, with at least two.  Each output is checked
against a reference that does not come from the code under test.  Times are
reported in seconds at reference speed (see bench/README.md).  The last
line of stdout is one JSON object; the lines before it are for people.
``--workload all`` measures every workload in turn, each with its own
report and JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import passrun  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
# importing zerotemp's dependencies alone calibrates set-up time: it takes
# IMPORT_REF_S at reference import speed
BASE_IMPORT = "import numpy, mpmath"
IMPORT_REF_S = 0.3
MIN_PASSES = 2
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "config_p50_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("ZEROTEMP_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # bytecode goes under .bench_build/, never next to the sources
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_build", "pycache")
    return env


def measure_setup(env) -> list[float]:
    """Fresh interpreters importing zerotemp (numpy + mpmath) until ready, in
    seconds at reference import speed: each probe's time times
    IMPORT_REF_S over the mean time of importing numpy and mpmath alone,
    just before and just after it.  An untimed first import fills the
    bytecode cache, as a user's first run does once."""

    def fresh(code):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing zerotemp failed:\n{proc.stderr}")
        return time.perf_counter() - t0, proc.stdout

    _, where = fresh("import zerotemp, zerotemp.cli; print(zerotemp.__file__)")
    where = os.path.realpath(where.strip())
    if not where.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        raise RuntimeError(f"zerotemp was imported from {where}, not from this checkout")
    samples = []
    base, _ = fresh(BASE_IMPORT)
    for _ in range(SETUP_PROBES):
        elapsed, _ = fresh("import zerotemp, zerotemp.cli")
        base_before, (base, _) = base, fresh(BASE_IMPORT)
        samples.append(elapsed * 2 * IMPORT_REF_S / (base_before + base))
    return samples


def write_configs(jobs, tmp):
    os.makedirs(os.path.join(tmp, "configs"), exist_ok=True)
    for job in jobs:
        if job["config"] is not None:
            job["config_path"] = os.path.join(tmp, "configs", job["id"] + ".json")
            with open(job["config_path"], "w") as fh:
                json.dump(job["config"], fh, indent=1)


def pass_plan(jobs, pass_dir) -> dict:
    """Known-defect configs run untimed, after the others."""
    plan = []
    for job in jobs:
        entry = {"id": job["id"], "verb": job["verb"], "config_path": job.get("config_path"),
                 "timed": not job["defect"]}
        if job["verb"] == "run":
            entry["output_dir"] = os.path.join(pass_dir, job["id"])
            entry["argv"] = ["run", job["config_path"], "--output-dir", entry["output_dir"]]
        elif job["verb"] in ("gamma", "walters"):
            entry["argv"] = [job["verb"], job["config_path"]]
        else:
            entry["argv"] = job["argv"]
        plan.append(entry)
    return {"jobs": plan}


def run_pass(jobs, tmp, index, traced, env) -> dict:
    """One repetition in a fresh interpreter; the known-defect configs are
    solved in the first repetition only."""
    if index:
        jobs = [job for job in jobs if not job["defect"]]
    pass_dir = os.path.join(tmp, f"pass-{index}")
    os.makedirs(pass_dir)
    plan_path = os.path.join(pass_dir, "plan.json")
    result_path = os.path.join(pass_dir, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(pass_plan(jobs, pass_dir), fh)
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), plan_path, result_path]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} crashed:\n{proc.stderr}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["traced"] = traced
    result["jobs"] = {res["id"]: res for res in result["jobs"]}
    return result


def stats(values) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"value": med, "median": med, "q1": q1, "q3": q3, "n": len(values)}


def reference_speed(p) -> dict:
    """Each timed config's time in pass `p`, in seconds at reference speed:
    its elapsed time times CAL_REF_S over the mean of the calibrations run
    just before and just after it."""
    cal = p["cal_s"]
    timed = [r for r in p["jobs"].values() if r["timed"]]
    return {r["id"]: r["elapsed_s"] * 2 * passrun.CAL_REF_S / (cal[i] + cal[i + 1]) for i, r in enumerate(timed)}


def classify(jobs, passes, refs):
    """Check every job of every pass.  Returns (attempted, failures, expected,
    report lines).  A known-defect config whose outcome is the seed's
    signature for that defect is expected; any other failure is a failure."""
    attempted = failures = expected = 0
    lines = []
    signatures = set()
    for job, r in zip(jobs, refs):
        runs = [p["jobs"][job["id"]] for p in passes if job["id"] in p["jobs"]]
        job_problems = []
        for res in runs:
            attempted += 1
            checked = check.check_job(job, res, r)
            signatures |= checked.defects
            problems = checked.problems
            if (res["stdout"], res["files"]) != (runs[0]["stdout"], runs[0]["files"]):
                problems.append(f"{job['id']}: output differs between repetitions")
            if not problems:
                continue
            job_problems = problems
            if job["defect"]:
                outcome = check.defect_outcome(job, res, r, checked)
                lines.append(f"known defect {job['defect']}: {outcome or 'FAILED another way'}: "
                             f"{workloads.KNOWN_DEFECTS[job['defect']]}")
                if outcome == "reproduced":
                    expected += 1
                    continue
                if outcome == "fixed":
                    continue
            failures += 1
        if job["defect"] and not job_problems:
            lines.append(f"known defect {job['defect']}: fixed (outputs pass the check)")
        lines.extend(f"  {p}" for p in job_problems[:5])
    for defect in sorted(signatures):
        lines.append(f"known defect {defect}: reproduced: {workloads.KNOWN_DEFECTS[defect]}")
    return attempted, failures, expected, lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills the running pass, finally cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "zerotemp", "__init__.py")):
        print(f"error: no zerotemp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in workloads.WORKLOADS:
            run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        return 0
    run_workload(args)
    return 0


def run_workload(args) -> None:
    """Measure one workload; print the report and, last, the JSON result."""
    env = child_env()
    jobs = workloads.build(args.workload, args.seed)
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        write_configs(jobs, tmp)
        setup = measure_setup(env)
        passes = []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(jobs, tmp, len(passes), traced, env))
            last = time.perf_counter() - t0
            elapsed = time.perf_counter() - t_start
            if len(passes) >= MIN_PASSES and elapsed + last > args.seconds:
                break
        refs = [check.reference_for(job) for job in jobs]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted, failures, expected, lines = classify(jobs, passes, refs)
    ids = [job["id"] for job in jobs if not job["defect"]]
    norm = [reference_speed(p) for p in plain]
    per_config = {jid: statistics.median(n[jid] for n in norm) for jid in ids}
    e2e = {
        "setup_s": stats(setup),
        "wall_s": stats(sum(n.values()) for n in norm),
        "config_p50_s": stats(statistics.median(n.values()) for n in norm),
        "peak_rss_mb": stats(p["peak_rss_mb"] for p in plain),
    }
    # every config's median over passes, so that one slow pass moves little
    e2e["wall_s"]["value"] = sum(per_config.values())
    e2e["config_p50_s"]["value"] = statistics.median(per_config.values())
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} configs ({len(ids)} timed), "
          f"{len(plain)} untraced and {len(traced)} traced passes in fresh interpreters")
    print("  times in seconds at reference speed; per-pass (or per-probe) median, q1, q3, n")
    for name, s in e2e.items():
        unit = END_TO_END_UNITS[name]
        print(f"  {name:14s} {s['value']:.6g} {unit}  per pass: median {s['median']:.6g}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    print(f"  {'raw wall':14s} {statistics.median(p['wall_s'] for p in plain):.6g} s on this machine, "
          f"calibration median {statistics.median(c for p in plain for c in p['cal_s']) * 1e3:.4g} ms "
          f"(reference {passrun.CAL_REF_S * 1e3:g} ms)")
    bad = failures + expected
    print(f"  {'error_rate':14s} {bad / attempted:.6g}  ({bad} of {attempted} config runs failed, "
          f"{expected} of them known defects)")
    for line in lines:
        print(line)

    if args.trace:
        by_id = {job["id"]: job for job in jobs}
        per_pass = [tracing.layer_metrics(p["spans"], by_id, p["jobs"]) for p in traced]
        # span times at reference speed, by the pass's median calibration
        speed = [passrun.CAL_REF_S / statistics.median(p["cal_s"]) for p in traced]
        metrics = {}
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            if name.endswith("_s"):
                metrics[name] = {"value": statistics.median(v * f for v, f in zip(values, speed)), "unit": "s"}
            else:
                if len(set(values)) != 1:
                    print(f"warning: {name} differs between traced passes: {values}")
                unit = "count" if name.endswith("_calls") else "ratio"
                metrics[name] = {"value": values[0], "unit": unit}
        ratio = statistics.median(sum(reference_speed(p).values()) for p in traced) / e2e["wall_s"]["median"]
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"jobs": [j["id"] for j in jobs], "spans": traced[-1]["spans"]}, fh)
    else:
        metrics = {name: {"value": s["value"], "unit": END_TO_END_UNITS[name]} for name, s in e2e.items()}

    print(json.dumps({
        "correct": failures == 0,
        "attempted": attempted,
        "failed": failures,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
