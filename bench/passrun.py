"""One repetition: solve every job of a plan in this fresh interpreter.

Usage: python3 bench/passrun.py PLAN.json RESULT.json [--trace]

Run with the checkout's ``src`` on PYTHONPATH.  Jobs run one after another
(a closed loop with one client).  Outputs are read back only after the last
job, so the timed region holds nothing but the program's own work.  Jobs
marked ``"timed": false`` (the known-defect configs) run after the timed
region and count in neither the wall time nor the peak memory.  A fresh
interpreter per repetition matters: ``aubry._best_paths`` and
``symbolic._enumerate_cached`` are process-wide caches keyed by value, and a
second pass in one process would find them warm.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import time


def _finite(x):
    return None if x == -math.inf else float(x)


def maxplus_route(zerotemp, config_path: str) -> dict:
    """word_graph -> decompose_aubry -> mp_eigenvalue / mp_eigenvectors."""
    with open(config_path) as fh:
        pot_cfg = json.load(fh)["potential"]
    trans = tuple(tuple(bool(v) for v in row) for row in pot_cfg["transitions"])
    sft = zerotemp.symbolic.Sft(pot_cfg["alphabet_size"], trans)
    pot = zerotemp.spectral.LocallyConstantPotential.from_table(sft, pot_cfg["table"])
    g = zerotemp.aubry.word_graph(pot)
    decomp = zerotemp.aubry.decompose_aubry(g)
    cost = decomp.maximal_cost()
    lam = zerotemp.maxplus.mp_eigenvalue(cost)
    eig = zerotemp.maxplus.mp_eigenvectors(cost)
    return {
        "components": [["".join(map(str, g.nodes[v])) for v in comp] for comp in decomp.components],
        "maximal_set": list(decomp.maximal_set),
        "maximal_cost": [[_finite(x) for x in row] for row in cost.entries],
        "eigenvalue": float(lam),
        "eigenvectors": [[_finite(x) for x in vec] for vec in eig.eigenvectors],
    }


# calibrate() takes this long at the reference speed; timings are reported
# in seconds at that speed (see run.py)
CAL_REF_S = 0.02


def calibrate() -> float:
    """Seconds for a fixed piece of work of the two kinds zerotemp does:
    mpmath arithmetic at a few hundred digits (as in perron) and a
    longest-path relaxation over Python float lists (as in aubry)."""
    import mpmath

    t0 = time.perf_counter()
    with mpmath.workdps(300):
        x = mpmath.mpf(2) / 3
        for _ in range(500):
            x = x * x + mpmath.mpf(1) / 7
            x = x / (1 + x)
    n = 40
    cur = [[(i * 7 + j * 3) % 11 - 10.0 for j in range(n)] for i in range(n)]
    edges = [(u, (2 * u + b) % n, -1.0 - b) for u in range(n) for b in (0, 1)]
    for _ in range(28):
        nxt = [[-math.inf] * n for _ in range(n)]
        for u, v, w in edges:
            for s in range(n):
                c = cur[s][u]
                if c + w > nxt[s][v]:
                    nxt[s][v] = c + w
        cur = nxt
    return time.perf_counter() - t0


def run_job(zerotemp, job: dict) -> dict:
    out = {"id": job["id"], "timed": job.get("timed", True), "exit": 0, "error": None, "stdout": "",
           "result": None}
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            if job["verb"] == "maxplus-route":
                out["result"] = maxplus_route(zerotemp, job["config_path"])
            else:
                out["exit"] = zerotemp.cli.main(job["argv"])
    except SystemExit as exc:  # argparse rejects the arguments
        out["exit"] = exc.code if isinstance(exc.code, int) else 2
        out["error"] = f"SystemExit: {exc.code}"
    except Exception as exc:  # an uncaught exception is exit 1 for a user
        out["exit"] = 1
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["stdout"] = buf.getvalue()
    return out


def main(argv) -> int:
    plan_path, result_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(plan_path) as fh:
        plan = json.load(fh)
    import zerotemp
    import zerotemp.cli

    tracer = None
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracer.install(zerotemp)
    timed = [job for job in plan["jobs"] if job["timed"]]
    untimed = [job for job in plan["jobs"] if not job["timed"]]
    outcomes = []

    cal = [calibrate()]

    def solve(jobs):
        for job in jobs:
            if tracer is not None:
                tracer.job = job["id"]
            t0 = time.perf_counter()
            res = run_job(zerotemp, job)
            res["elapsed_s"] = time.perf_counter() - t0
            outcomes.append(res)
            cal.append(calibrate())

    solve(timed)
    wall = sum(res["elapsed_s"] for res in outcomes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    solve(untimed)

    for job, res in zip(timed + untimed, outcomes):
        files = {}
        out_dir = job.get("output_dir")
        if out_dir and os.path.isdir(out_dir):
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name)) as fh:
                    files[name] = fh.read()
        res["files"] = files
    result = {"wall_s": wall, "peak_rss_mb": peak_kb / 1024.0, "jobs": outcomes, "cal_s": cal}
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
