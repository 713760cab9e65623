"""The benchmark's tracer wraps the functions named in bench/tracing.py by
looking each one up on its zerotemp module; a name a refactor removes or
renames would break a traced benchmark run."""

import importlib.util
from pathlib import Path

import zerotemp
import zerotemp.cli  # noqa: F401  (the tracer reads zerotemp.cli too)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_boundaries():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.BOUNDARIES


def test_every_trace_boundary_resolves():
    boundaries = load_boundaries()
    assert boundaries
    for module, name in boundaries:
        assert callable(getattr(getattr(zerotemp, module), name)), f"{module}.{name}"
