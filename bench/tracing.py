"""Spans around the public functions at each layer boundary of zerotemp.

The program is not changed: ``Tracer.install`` replaces module attributes.
A function imported with ``from .spectral import perron`` is a separate
binding in the importing module, so every module attribute that is the
original function object gets the wrapper, not only the defining module's.

Spans stay in memory as ``[name, start, end, parent, job]`` rows and are
turned into per-layer metrics once the pass has ended.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs wrapped; the span name is "<module>.<function>"
BOUNDARIES = (
    ("cli", "main"),
    ("spectral", "perron"),
    ("spectral", "transfer_matrix"),
    ("spectral", "equilibrium_cylinder_mass"),
    ("asymptotics", "estimate_subaction"),
    ("asymptotics", "limit_measure_estimate"),
    ("asymptotics", "_entropy_mp"),
    ("aubry", "word_graph"),
    ("aubry", "decompose_aubry"),
    ("aubry", "mane_potential"),
    ("maxplus", "mp_eigenvalue"),
    ("maxplus", "mp_eigenvectors"),
    ("walters", "walters_pressure"),
    ("walters", "walters_cylinder_ratio"),
    ("walters", "perturbation_stability_experiment"),
    ("symbolic", "enumerate_words"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None  # id of the job running

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            row = [name, clock(), 0.0, parent, self.job]
            spans.append(row)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def install(self, zerotemp) -> None:
        modules = [m for n, m in sys.modules.items() if n == "zerotemp" or n.startswith("zerotemp.")]
        for mod_name, fn_name in BOUNDARIES:
            original = getattr(getattr(zerotemp, mod_name), fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def summarize(spans) -> dict:
    """Per span name: call count, inclusive time of the outermost calls, and
    self time (duration minus the time covered by child spans)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            s["incl_s"] += end - start
    return out


def calls_by_job(spans, name: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for row in spans:
        if row[0] == name:
            counts[row[4]] = counts.get(row[4], 0) + 1
    return counts


def _completed(outcome) -> bool:
    return outcome["exit"] == 0 and outcome["error"] is None


def _per_item(spans, name, items, weight) -> float:
    """Calls of `name` made by the given jobs, per unit of `weight`."""
    by_job = calls_by_job(spans, name)
    total = sum(weight(job) for job in items)
    return sum(by_job.get(job["id"], 0) for job in items) / total if total else 0.0


def layer_metrics(spans, jobs, outcomes) -> dict[str, float]:
    """Per-layer numbers of one traced pass (`jobs` and `outcomes` keyed by
    job id).

    Ratios are taken over the jobs that completed (exit 0): calls per
    (potential, beta) point, or per potential.  Walters pressure calls per
    point count only configs with more than one report, the ones where a
    pressure could be reused.
    """
    s = summarize(spans)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def incl(name):
        return s.get(name, {}).get("incl_s", 0.0)

    def self_time(layer):
        return sum(v["self_s"] for k, v in s.items() if k.split(".")[0] == layer)

    done = [jobs[jid] for jid, o in outcomes.items() if _completed(o)]
    lc = [job for job in done if job["verb"] in ("run", "gamma")]
    walters_multi = [
        job for job in done if job["verb"] == "walters" and len(job["config"]["reports"]) > 1
    ]
    decomposed = [job for job in done if job["verb"] in ("run", "gamma", "maxplus-route")]

    def grid_size(job):
        return len(job["config"]["beta_grid"])

    return {
        "spectral.perron_calls": calls("spectral.perron"),
        "spectral.perron_s": incl("spectral.perron"),
        "spectral.transfer_matrix_s": incl("spectral.transfer_matrix"),
        "spectral.perron_per_point": _per_item(spans, "spectral.perron", lc, grid_size),
        "spectral.cylinder_mass_calls": calls("spectral.equilibrium_cylinder_mass"),
        "spectral.cylinder_mass_s": incl("spectral.equilibrium_cylinder_mass"),
        "asymptotics.subaction_s": incl("asymptotics.estimate_subaction"),
        "asymptotics.measure_s": incl("asymptotics.limit_measure_estimate"),
        "asymptotics.entropy_s": incl("asymptotics._entropy_mp"),
        "asymptotics.self_s": self_time("asymptotics"),
        "aubry.word_graph_s": incl("aubry.word_graph"),
        "aubry.decompose_calls": calls("aubry.decompose_aubry"),
        "aubry.decompose_s": incl("aubry.decompose_aubry"),
        "aubry.decompose_per_potential": _per_item(spans, "aubry.decompose_aubry", decomposed, lambda job: 1),
        "aubry.mane_potential_calls": calls("aubry.mane_potential"),
        "maxplus.eigenvalue_calls": calls("maxplus.mp_eigenvalue"),
        "maxplus.eigenvalue_s": incl("maxplus.mp_eigenvalue"),
        "maxplus.eigenvectors_s": incl("maxplus.mp_eigenvectors"),
        "walters.pressure_calls": calls("walters.walters_pressure"),
        "walters.pressure_s": incl("walters.walters_pressure"),
        "walters.pressure_per_point": _per_item(spans, "walters.walters_pressure", walters_multi, grid_size),
        "walters.cylinder_ratio_calls": calls("walters.walters_cylinder_ratio"),
        "walters.cylinder_ratio_s": incl("walters.walters_cylinder_ratio"),
        "walters.stability_s": incl("walters.perturbation_stability_experiment"),
        "symbolic.enumerate_words_calls": calls("symbolic.enumerate_words"),
        "cli.main_s": incl("cli.main"),
        "cli.self_s": self_time("cli"),
    }
