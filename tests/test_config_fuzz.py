"""Mutated JSON configs run through cli.main in-process.  Whatever the
config, a run ends in a documented exit code (0 success, 2 malformed config,
3 numerical failure) and no exception escapes."""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from zerotemp.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA, main

FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# a small JSON value of any type, for a field that should hold another
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-1e3, 1e3), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
BETA = st.one_of(st.floats(1e-3, 1e3), st.sampled_from(["1e-3", "1000"]))
BAD_NUMBER = st.sampled_from(["nan", "-inf", "1e400", "x", "", 0, -1])
REPORTS = {
    "locally-constant": ["gamma", "subaction", "measure"],
    "walters": ["pressure", "regime", "measure", "stability"],
    "appendix": ["appendix"],
}
VERBS = {"locally-constant": "gamma", "walters": "walters", "appendix": "run"}
# three in ten configs run as drawn
MUTATIONS = [
    None, None, None, "wrong-type", "drop", "bad-number", "empty-grid", "repeat-key", "foreign-digits", "verb",
]


@st.composite
def lc_potentials(draw):
    """A table over the admissible (k+1)-words of a subshift of up to 3
    symbols, k = 1 or 2, not always normalized.  The transitions hold a
    permutation, so that no symbol is dead, but are often not primitive,
    and a forbidden 00 leaves no state 0^k at k = 2."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    trans = draw(st.lists(row, min_size=n, max_size=n))
    for i, j in enumerate(draw(st.permutations(range(n)))):
        trans[i][j] = 1
    depth = draw(st.integers(1, 2))
    words = [
        w for w in itertools.product(range(n), repeat=depth + 1)
        if all(trans[a][b] for a, b in zip(w, w[1:]))
    ]
    table = {"".join(map(str, w)): draw(st.floats(-3.0, 0.5)) for w in words}
    return {"kind": "locally-constant", "alphabet_size": n, "transitions": trans, "table": table}


NEGATIVE = st.floats(-3.0, -0.05)
POTENTIALS = {
    "locally-constant": lc_potentials(),
    "walters": st.fixed_dictionaries(
        {"kind": st.just("walters"), "b": NEGATIVE, "d": NEGATIVE, "a": NEGATIVE, "c": NEGATIVE},
        optional={"rho": st.floats(0.05, 0.999)},
    ),
    "appendix": st.lists(NEGATIVE, min_size=2, max_size=2, unique=True).map(
        lambda ge: {"kind": "appendix", "gamma": min(ge), "eta": max(ge)}
    ),
}


@st.composite
def cases(draw):
    """(verb, config text): a valid config of each kind, or one with one
    mutation."""
    kind = draw(st.sampled_from(sorted(REPORTS)))
    pot = draw(POTENTIALS[kind])
    cfg = {"potential": pot, "beta_grid": sorted(draw(st.lists(BETA, min_size=1, max_size=3, unique=True)), key=float)}
    cfg["reports"] = draw(st.lists(st.sampled_from(REPORTS[kind]), min_size=1, max_size=3, unique=True))
    if kind == "walters":
        cfg["perturbation"] = {"delta": draw(st.floats(-8.0, -0.05)), "sign": draw(st.sampled_from(["+", "-"]))}
    verb = VERBS[kind] if draw(st.booleans()) else "run"
    mutation = draw(st.sampled_from(MUTATIONS))
    # (object, key) of every field a mutation may change
    slots = [(cfg, k) for k in cfg] + [(pot, k) for k in pot]
    slots += [(cfg["beta_grid"], i) for i in range(len(cfg["beta_grid"]))]
    slots += [(pot["table"], k) for k in pot.get("table", ())]
    obj, key = draw(st.sampled_from(slots))
    if mutation == "wrong-type":
        obj[key] = draw(JUNK)
    elif mutation == "drop":
        del obj[key]
    elif mutation == "bad-number":
        obj[key] = draw(BAD_NUMBER)
    elif mutation == "empty-grid":
        cfg["beta_grid"] = []
    elif mutation == "foreign-digits" and "table" in pot:
        word = draw(st.sampled_from(sorted(pot["table"])))
        pot["table"]["".join(chr(0x660 + int(c)) for c in word)] = pot["table"][word] - 1.0
    elif mutation == "verb":
        verb = draw(st.sampled_from(["gamma", "walters"]))
    text = json.dumps(cfg)
    if mutation == "repeat-key":
        key = draw(st.sampled_from(sorted(pot)))
        text = text.replace('"potential": {', '"potential": {' + json.dumps({key: draw(JUNK)})[1:-1] + ", ", 1)
    return verb, text


def run(verb, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(text, encoding="utf-8")
        argv = [verb, str(path)] + (["--output-dir", str(Path(tmp) / "out")] if verb == "run" else [])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


@FUZZ
@given(cases())
def test_mutated_configs_end_in_a_documented_exit_code(case):
    verb, text = case
    code, err = run(verb, text)
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_NUMERICAL)
    if code == EXIT_SCHEMA:
        assert err.startswith("config error:")
    elif code == EXIT_NUMERICAL:
        assert err.startswith(f"numerical failure in {verb}:")
