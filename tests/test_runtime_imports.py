"""The runtime needs mpmath only: numpy stays unimported on every verb."""

import json
import os
import subprocess
import sys
from pathlib import Path

import zerotemp

SRC = str(Path(zerotemp.__file__).resolve().parent.parent)

# the golden-mean component (adjacency ((1, 1), (1, 0))) has unequal
# out-degrees, so the entropy and the perron floor run the Newton root
GOLDEN_CONFIG = {
    "potential": {
        "kind": "locally-constant",
        "alphabet_size": 3,
        "table": {
            "00": 0, "01": 0, "10": 0, "11": -1, "02": -1,
            "20": -1, "12": -1, "21": -1, "22": -0.5,
        },
    },
    "beta_grid": [4, 8],
    "reports": ["gamma", "subaction", "measure"],
}

WALTERS_CONFIG = {
    "potential": {"kind": "walters", "b": -1, "d": -1, "a": -1, "c": -3, "rho": 0.9},
    "beta_grid": [25, 50],
    "perturbation": {"delta": -3.5, "kind": "first-coord", "sign": "+"},
    "reports": ["pressure", "regime", "measure", "stability"],
}

SCRIPT = """
import contextlib, io, sys
import zerotemp, zerotemp.cli
from zerotemp.cli import main
lc, walters, out = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["run", lc, "--output-dir", out]),
        main(["gamma", lc]),
        main(["walters", walters]),
        main(["appendix", "--gamma", "-2", "--eta", "-1", "--beta-max", "8"]),
        main(["verify", "theorem-a"]),
    ]
pot = zerotemp.LocallyConstantPotential.from_table(
    zerotemp.full_shift(1), {"00": 0.0, "01": -1.0, "10": -2.0, "11": 0.0})
zerotemp.mp_eigenvectors(zerotemp.decompose_aubry(zerotemp.word_graph(pot)).maximal_cost())
print(codes, "numpy" in sys.modules)
"""


def test_no_verb_imports_numpy(tmp_path):
    lc, walters = tmp_path / "lc.json", tmp_path / "w.json"
    lc.write_text(json.dumps(GOLDEN_CONFIG))
    walters.write_text(json.dumps(WALTERS_CONFIG))
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(lc), str(walters), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "[0, 0, 0, 0, 0] False"
