import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import zerotemp
from zerotemp import spectral
from zerotemp.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA, build_parser, main

from perron_reference import reference_perron

LC1_CONFIG = {
    "potential": {
        "kind": "locally-constant",
        "alphabet_size": 2,
        "table": {"00": "0", "01": "-1", "10": "-1", "11": "0"},
    },
    "beta_grid": ["2", "4", "8"],
    "reports": ["gamma", "subaction", "measure"],
}

W4_CONFIG = {
    "potential": {"kind": "walters", "b": "-1", "d": "-1", "a": "-1", "c": "-3"},
    "beta_grid": ["50", "100", "150"],
    "perturbation": {"delta": "-3.5", "kind": "first-coord", "sign": "+"},
    "reports": ["pressure", "regime", "measure", "stability"],
}


TWO_ZERO_BLOCKS_CONFIG = {
    "potential": {
        "kind": "locally-constant",
        "alphabet_size": 3,
        "table": {
            "00": 0, "11": 0, "12": 0, "21": 0, "22": 0,
            "01": -1, "02": -1, "10": -1, "20": -1,
        },
    },
    "beta_grid": [640],
    "reports": ["gamma"],
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def count_calls(monkeypatch, module, name):
    """Replace every zerotemp module binding of zerotemp.<module>.<name>
    with a wrapper that records the arguments of each call."""
    original = getattr(getattr(zerotemp, module), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "zerotemp" or mod_name.startswith("zerotemp."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def run_csvs(tmp_path, cfg, name):
    """Run the config and return {report: CSV text} of its outputs."""
    out = tmp_path / name
    assert main(["run", write_config(tmp_path, cfg, name + ".json"), "--output-dir", str(out)]) == EXIT_OK
    return {r: (out / f"{r}.csv").read_text() for r in cfg["reports"]}


def test_run_lc_config(tmp_path, capsys):
    cfg = write_config(tmp_path, LC1_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_OK
    for report in LC1_CONFIG["reports"]:
        text = (out / f"{report}.csv").read_text()
        assert text.startswith("# config-sha256=")
    gamma_lines = (out / "gamma.csv").read_text().splitlines()
    assert gamma_lines[1].split(",")[0] == "beta"
    assert (out / "summary.txt").exists()
    assert "gamma" in capsys.readouterr().out


def test_run_walters_config_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, W4_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "boundary-golden, mass 0.7236068" in captured
    assert (out / "stability.csv").exists()


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, W4_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--output-dir", str(out1)]) == EXIT_OK
    assert main(["run", cfg, "--output-dir", str(out2)]) == EXIT_OK
    for name in W4_CONFIG["reports"]:
        assert (out1 / f"{name}.csv").read_bytes() == (out2 / f"{name}.csv").read_bytes()


def test_reports_share_one_analysis(tmp_path, monkeypatch):
    perron_calls = count_calls(monkeypatch, "spectral", "perron")
    decompose_calls = count_calls(monkeypatch, "aubry", "decompose_aubry")
    eigenvalue_calls = count_calls(monkeypatch, "maxplus", "mp_eigenvalue")
    run_csvs(tmp_path, dict(LC1_CONFIG, beta_grid=["4", "8"]), "lc")
    assert sorted(args[1] for args in perron_calls) == [4.0, 8.0]
    assert len(decompose_calls) == 1
    assert len(eigenvalue_calls) == 1


def test_walters_reports_share_one_pressure_per_beta(tmp_path, monkeypatch):
    pressure_calls = count_calls(monkeypatch, "walters", "walters_pressure")
    ratio_calls = count_calls(monkeypatch, "walters", "walters_cylinder_ratio")
    run_csvs(tmp_path, W4_CONFIG, "w")
    assert sorted(args[1] for args in pressure_calls) == [50.0, 100.0, 150.0]
    # measure and stability share the unperturbed mu([0]): one call per beta
    # with a_beta = 0, one with the perturbation
    unperturbed = [args[2] for args in ratio_calls if args[1] == 0.0]
    perturbed = [args[2] for args in ratio_calls if args[1] != 0.0]
    assert sorted(unperturbed) == sorted(perturbed) == [50.0, 100.0, 150.0]


@pytest.mark.parametrize("cfg", [LC1_CONFIG, W4_CONFIG], ids=["lc", "walters"])
def test_combined_run_matches_single_report_runs(tmp_path, cfg):
    combined = run_csvs(tmp_path, cfg, "all")
    for report in cfg["reports"]:
        single_cfg = dict(cfg, reports=[report])
        alone = run_csvs(tmp_path, single_cfg, report)[report]
        # same CSV below the digest line, which names each run's own config
        digest = hashlib.sha256(json.dumps(single_cfg).encode()).hexdigest()
        assert alone.splitlines(True)[0] == f"# config-sha256={digest}\n"
        assert alone.splitlines(True)[1:] == combined[report].splitlines(True)[1:]


def test_single_report_verbs_print_the_run_csvs(tmp_path, capsys):
    lc = run_csvs(tmp_path, LC1_CONFIG, "lc")
    capsys.readouterr()
    assert main(["gamma", str(tmp_path / "lc.json")]) == EXIT_OK
    assert capsys.readouterr().out == lc["gamma"]
    w = run_csvs(tmp_path, W4_CONFIG, "w")
    summary = (tmp_path / "w" / "summary.txt").read_text().split("\n", 1)[1]
    capsys.readouterr()
    assert main(["walters", str(tmp_path / "w.json")]) == EXIT_OK
    assert capsys.readouterr().out == "".join(w[r] for r in W4_CONFIG["reports"]) + summary


# state 2 leads into {0, 1} and is never entered again: the transfer matrix
# is reducible, and H vanishes at state 2
REDUCIBLE_CONFIG = {
    "potential": {
        "kind": "locally-constant",
        "alphabet_size": 3,
        "transitions": [[1, 1, 0], [1, 1, 0], [1, 1, 1]],
        "table": {"00": 0, "01": -1, "10": -1, "11": -3, "20": -2, "21": -2, "22": -5},
    },
    "beta_grid": [4, 8, 16, 32],
    "reports": ["gamma", "subaction"],
}


def test_a_reducible_word_graph_gives_the_rate_but_not_the_vectors(tmp_path, capsys):
    cfg = write_config(tmp_path, REDUCIBLE_CONFIG)
    assert main(["gamma", cfg]) == EXIT_OK
    # the rows that the doubled-precision re-probe certified, byte for byte
    assert capsys.readouterr().out.splitlines()[1:] == [
        "beta,pressure,gamma_hat,gamma_maxplus,h",
        "4,0.00033529600927151634,-2.0001242016316962,-2,0",
        "8,1.1253515572726389e-07,-2.000000021095623,-2,0",
        "16,1.2664165549093936e-14,-2.0000000000000013,-2,0",
        "32,1.6038108905486379e-28,-2,-2,0",
    ]
    out = tmp_path / "out"
    assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_NUMERICAL
    assert "the transfer matrix is reducible" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_verb_resolves_small_pressure_excess(tmp_path, capsys):
    # P - h is about e^{-1280} here, so h needs more than 556 digits
    assert main(["gamma", write_config(tmp_path, TWO_ZERO_BLOCKS_CONFIG)]) == EXIT_OK
    row = capsys.readouterr().out.splitlines()[2].split(",")
    assert abs(float(row[2]) + 2.0) < 0.05


UNNORMALIZED_CONFIG = {
    "potential": {
        "kind": "locally-constant",
        "alphabet_size": 2,
        "table": {"00": -0.5, "01": -1, "10": -2, "11": -0.5},
    },
    "beta_grid": [4, 16, 64],
    "reports": ["gamma", "subaction", "measure"],
}


def test_a_table_that_is_not_normalized_runs_every_report(tmp_path, capsys):
    # m = -0.5: every report reads A - m, and gamma_hat is measured over
    # beta*m + h
    cfg = write_config(tmp_path, UNNORMALIZED_CONFIG)
    assert main(["gamma", cfg]) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[2] for row in rows] == ["-1.0022721724374253", "-1.000000003516724", "-1"]
    out = tmp_path / "out"
    assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_OK
    subaction = (out / "subaction.csv").read_text().splitlines()
    assert subaction[-2:] == ["64,0,0,0,0", "64,1,0.5,0.5,0"]
    assert (out / "measure.csv").read_text().splitlines()[-2:] == ["64,0,0.5", "64,1,0.5"]


def test_a_cycle_mean_that_no_float_holds_gets_its_rate(tmp_path, capsys):
    # the 2-cycle 01 -> 10 has mean (1.1 + 0.2) / 2, and the float m = 0.65
    # leaves it a weight of 2^-54 in A - m: at beta 64 that would move the
    # floor by 1.8e-15, far above the excess e^{-105.6}.  S is formed from
    # the exact m, so gamma_hat is that of the dense reference
    table = {"00": -1, "01": 1.1, "10": 0.2, "11": -1}
    potential = {"kind": "locally-constant", "alphabet_size": 2, "table": table}
    cfg = write_config(tmp_path, dict(UNNORMALIZED_CONFIG, potential=potential, reports=["gamma"]))
    assert main(["gamma", cfg]) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    pot = zerotemp.LocallyConstantPotential.from_table(zerotemp.full_shift(1), table)
    m = (Fraction(1.1) + Fraction(0.2)) / 2
    assert [float(row[0]) for row in rows] == UNNORMALIZED_CONFIG["beta_grid"]
    for beta, _, gamma_hat, gamma_maxplus, h in rows:
        ref = reference_perron(pot, float(beta))
        with mpmath.workdps(200):  # h = 0: the critical component is the 2-cycle
            q = Fraction(float(beta)) * m
            expected = float(mpmath.log(ref["log_lambda_mp"] - mpmath.mpf(q.numerator) / q.denominator)) / float(beta)
        assert float(gamma_hat) == pytest.approx(expected, rel=1e-12)
        assert float(h) == 0.0 and float(gamma_maxplus) == pytest.approx(-1.65, abs=1e-12)


def test_a_near_tie_of_critical_cycles_exits_3(tmp_path, capsys):
    # the loop 00 and the 2-cycle 01 tie in floats at -0.15, not exactly
    table = {"00": -0.15, "01": -0.1, "10": -0.2, "11": -1}
    potential = {"kind": "locally-constant", "alphabet_size": 2, "table": table}
    cfg = write_config(tmp_path, dict(UNNORMALIZED_CONFIG, potential=potential, reports=["gamma"]))
    assert main(["gamma", cfg]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "critical cycles of A - m tie to float rounding" in err and "at beta" not in err


def test_an_uncalibrated_max_plus_subaction_exits_3(tmp_path, capsys, monkeypatch):
    # V_rec at the state 01, off the Aubry set {00, 11}, moved by 1e-9
    subaction = zerotemp.asymptotics.max_plus_subaction

    def off(*args):
        v = subaction(*args)
        return v[:1] + (v[1] + 1e-9,) + v[2:]

    monkeypatch.setattr(zerotemp.asymptotics, "max_plus_subaction", off)
    table = {"000": 0, "001": -1.87, "010": -3.3, "011": -3.11, "100": -4, "101": -1.33, "110": -1.08, "111": 0}
    potential = {"kind": "locally-constant", "alphabet_size": 2, "table": table}
    cfg = write_config(tmp_path, dict(LC1_CONFIG, potential=potential, reports=["subaction"]))
    assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == EXIT_NUMERICAL
    assert "misses calibration by 1e-09" in capsys.readouterr().err


def test_missing_zero_state_exits_3(tmp_path, capsys):
    cfg = {
        "potential": {
            "kind": "locally-constant",
            "alphabet_size": 2,
            "transitions": [[0, 1], [1, 1]],
            "table": {"010": -1, "011": -1, "101": -1, "110": -1, "111": 0},
        },
        "beta_grid": [32, 64],
        "reports": ["gamma", "subaction", "measure"],
    }
    assert main(["run", write_config(tmp_path, cfg)]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == EXIT_SCHEMA
    assert "config error" in capsys.readouterr().err


def test_schema_violations_exit_2(tmp_path, capsys):
    bad_grid = dict(LC1_CONFIG, beta_grid=["4", "2"])
    assert main(["run", write_config(tmp_path, bad_grid, "g.json")]) == EXIT_SCHEMA
    bad_report = dict(LC1_CONFIG, reports=["regime"])
    assert main(["run", write_config(tmp_path, bad_report, "r.json")]) == EXIT_SCHEMA
    no_pert = {k: v for k, v in W4_CONFIG.items() if k != "perturbation"}
    assert main(["run", write_config(tmp_path, no_pert, "p.json")]) == EXIT_SCHEMA
    bad_kind = dict(LC1_CONFIG, potential={"kind": "mystery"})
    assert main(["run", write_config(tmp_path, bad_kind, "k.json")]) == EXIT_SCHEMA
    capsys.readouterr()


def test_schema_failure_writes_no_files(tmp_path):
    bad_report = dict(LC1_CONFIG, reports=["gamma", "bogus"])
    cfg = write_config(tmp_path, bad_report)
    out = tmp_path / "out"
    assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_SCHEMA
    assert not out.exists()


def test_unwritable_output_dir_exits_2(tmp_path):
    # an existing file where the output directory should go
    cfg = write_config(tmp_path, LC1_CONFIG)
    out = tmp_path / "out"
    out.write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "zerotemp.cli", "run", cfg, "--output-dir", str(out)],
        env={**os.environ, "PYTHONPATH": str(Path(zerotemp.__file__).resolve().parent.parent)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_SCHEMA
    assert proc.stderr.startswith("argument error:")
    assert "Traceback" not in proc.stderr


def test_numerical_failure_exits_3(tmp_path, capsys):
    zero = {
        "potential": {
            "kind": "locally-constant",
            "alphabet_size": 2,
            "table": {"00": "0", "01": "0", "10": "0", "11": "0"},
        },
        "beta_grid": ["2", "4"],
        "reports": ["gamma"],
    }
    cfg = write_config(tmp_path, zero)
    out = tmp_path / "out"
    assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_verb(tmp_path, capsys):
    cfg = write_config(tmp_path, LC1_CONFIG)
    assert main(["gamma", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("# config-sha256=")
    assert "gamma_hat" in out


def test_gamma_verb_rejects_walters_config(tmp_path, capsys):
    cfg = write_config(tmp_path, W4_CONFIG)
    assert main(["gamma", cfg]) == EXIT_SCHEMA
    capsys.readouterr()


def test_walters_verb(tmp_path, capsys):
    cfg = write_config(tmp_path, W4_CONFIG)
    assert main(["walters", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "regime" in out and "boundary-golden" in out


def test_appendix_verb(capsys):
    assert main(["appendix", "--gamma", "-2", "--eta", "-1", "--beta-max", "20"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lambda_tilde" in out
    assert main(["appendix", "--gamma", "-1", "--eta", "-2", "--beta-max", "20"]) == EXIT_SCHEMA
    capsys.readouterr()


def test_run_of_an_appendix_config_matches_the_verb(tmp_path, capsys):
    cfg = {
        "potential": {"kind": "appendix", "gamma": "-2", "eta": "-1"},
        "beta_grid": [2, 4, 8, 16, 20],
        "reports": ["appendix"],
    }
    csv = run_csvs(tmp_path, cfg, "app")["appendix"]
    summary = (tmp_path / "app" / "summary.txt").read_text().split("\n", 1)[1]
    capsys.readouterr()
    assert main(["appendix", "--gamma", "-2", "--eta", "-1", "--beta-max", "20"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines(True)
    # the verb's digest names its arguments, not config bytes
    digest = hashlib.sha256(b"appendix gamma=-2.0 eta=-1.0 beta_max=20.0").hexdigest()
    assert out[0] == f"# config-sha256={digest}\n"
    assert out[1:] == (csv + summary).splitlines(True)[1:]


def test_run_writes_next_to_the_config_by_default(tmp_path, capsys):
    cfg = write_config(tmp_path, W4_CONFIG, "w4.json")
    assert main(["run", cfg]) == EXIT_OK
    out = tmp_path / "w4_out"
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted([f"{r}.csv" for r in W4_CONFIG["reports"]] + ["summary.txt"])
    assert capsys.readouterr().out == (out / "summary.txt").read_text().split("\n", 1)[1]


def test_verify_verb(capsys):
    assert main(["verify", "appendix"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert main(["verify", "bogus"]) == EXIT_SCHEMA
    capsys.readouterr()


def test_walters_truncation_cap_exits_3(tmp_path, capsys):
    cfg = {
        "potential": {"kind": "walters", "b": -1, "d": -1, "a": -1, "c": -1, "rho": 0.99999},
        "beta_grid": [11],
        "reports": ["pressure"],
    }
    assert main(["walters", write_config(tmp_path, cfg)]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_theta_range_validation(tmp_path, capsys):
    # theta, the metric base of the shift, is accepted and range-checked
    # although no computation reads it
    for cfg in (LC1_CONFIG, W4_CONFIG):
        for theta in (1.5, 1.0, 0.0):
            bad = dict(cfg, potential=dict(cfg["potential"], theta=theta))
            assert main(["run", write_config(tmp_path, bad)]) == EXIT_SCHEMA
            assert "theta must lie in (0, 1)" in capsys.readouterr().err
    good = dict(LC1_CONFIG, potential=dict(LC1_CONFIG["potential"], theta="0.25"))
    assert main(["gamma", write_config(tmp_path, good)]) == EXIT_OK
    capsys.readouterr()


def _with_potential(cfg, **fields):
    return dict(cfg, potential=dict(cfg["potential"], **fields))


NON_FINITE = [
    ("gamma", dict(LC1_CONFIG, beta_grid=[2, "nan"])),
    ("gamma", dict(LC1_CONFIG, beta_grid=[2, "inf"])),
    ("gamma", dict(LC1_CONFIG, beta_grid=[2, "1e400"])),
    ("run", _with_potential(LC1_CONFIG, table=dict(LC1_CONFIG["potential"]["table"], **{"01": "nan"}))),
    ("run", _with_potential(LC1_CONFIG, table=dict(LC1_CONFIG["potential"]["table"], **{"10": "-inf"}))),
    ("walters", _with_potential(W4_CONFIG, a="-inf")),
    ("walters", _with_potential(W4_CONFIG, rho="nan")),
    ("walters", dict(W4_CONFIG, perturbation=dict(W4_CONFIG["perturbation"], delta="nan"))),
    ("appendix", ["--gamma", "-2", "--eta", "-1", "--beta-max", "nan"]),
    ("appendix", ["--gamma", "-2", "--eta", "-1", "--beta-max", "inf"]),
    ("appendix", ["--gamma", "-2", "--eta", "-1", "--beta-max", "1e400"]),
    ("appendix", ["--gamma=-inf", "--eta", "-1", "--beta-max", "8"]),
]


@pytest.mark.parametrize("verb,arg", NON_FINITE, ids=range(len(NON_FINITE)))
def test_non_finite_numbers_exit_2(tmp_path, capsys, verb, arg):
    argv = [verb] + (arg if verb == "appendix" else [write_config(tmp_path, arg)])
    assert main(argv) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(("config error:", "argument error:"))


MALFORMED = [
    # "0" is a string, 2 is not 0/1: both used to run as the full shift
    ("run", _with_potential(LC1_CONFIG, transitions=[["1", "1"], ["1", "0"]])),
    ("run", _with_potential(LC1_CONFIG, transitions=[[1, 1], [1, 2]])),
    ("run", _with_potential(LC1_CONFIG, alphabet_size=True, table={"0": 0})),
    # JSON true is not the number 1
    ("run", _with_potential(LC1_CONFIG, transitions=[[True, True], [True, True]])),
    ("walters", dict(W4_CONFIG, perturbation=dict(W4_CONFIG["perturbation"], sign=True))),
    # without transitions the full shift's n x n matrix is never built
    ("run", _with_potential(LC1_CONFIG, alphabet_size=10**6)),
    # a non-empty string used to switch relaxed mode on
    ("walters", _with_potential(W4_CONFIG, b="0", relaxed="false")),
]


@pytest.mark.parametrize("verb,cfg", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_fields_exit_2(tmp_path, capsys, verb, cfg):
    assert main([verb, write_config(tmp_path, cfg)]) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("config error:")


EXTREME = [
    # perron would need about 1e300 digits
    ("gamma", _with_potential(LC1_CONFIG, table=dict(LC1_CONFIG["potential"]["table"], **{"01": -1e300}))),
    ("gamma", _with_potential(LC1_CONFIG, table=dict(LC1_CONFIG["potential"]["table"], **{"01": 1e300}))),
    ("gamma", dict(LC1_CONFIG, beta_grid=[1e300])),
    # the head is capped, so the series tail would need about 1e285 terms
    ("walters", {
        "potential": {"kind": "walters", "b": -1e-300, "d": -1, "a": -1, "c": -1e300, "rho": 0.5},
        "beta_grid": [4],
        "reports": ["pressure"],
    }),
    # e^{beta (eta - gamma)} overflows a float
    ("appendix", ["--gamma", "-2", "--eta", "-1", "--beta-max", "1000"]),
    # P = e^{beta*gamma} is below the smallest float
    ("walters", {
        "potential": {"kind": "walters", "b": -1e300, "d": -1, "a": -1, "c": -1, "rho": 0.5},
        "beta_grid": [4],
        "reports": ["pressure"],
    }),
]


@pytest.mark.parametrize("verb,arg", EXTREME, ids=range(len(EXTREME)))
def test_extreme_inputs_exit_3(tmp_path, capsys, verb, arg):
    argv = [verb] + (arg if verb == "appendix" else [write_config(tmp_path, arg)])
    assert main(argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure")


# each would override the value of "11" and still exit 0
SELF_OVERRIDING = [
    '{"potential": {"kind": "locally-constant", "table": '
    '{"00": 0, "01": -1, "10": -1, "11": 0, "11": -7}}, "beta_grid": [8], "reports": ["gamma"]}',
    '{"potential": {"kind": "locally-constant", "table": '
    '{"00": 0, "01": -1, "10": -1, "11": 0, "\\u0661\\u0661": -7}}, "beta_grid": [8], "reports": ["gamma"]}',
    '{"potential": {"kind": "locally-constant", "table": {"00": 0, "01": -1, "10": -1, "11": 0}}, '
    '"beta_grid": [8], "reports": ["gamma"], "beta_grid": [2]}',
]


@pytest.mark.parametrize("text", SELF_OVERRIDING, ids=["repeated-key", "arabic-indic-digits", "top-level"])
def test_configs_that_override_themselves_exit_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    assert main(["gamma", str(path)]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert captured.out == ""


def test_one_process_answers_as_separate_ones(tmp_path, capsys):
    # one parser serves every call of main in a process
    argvs = [
        ["run", write_config(tmp_path, dict(LC1_CONFIG, reports=["gamma", "bogus"]), "bad.json")],
        ["gamma", write_config(tmp_path, LC1_CONFIG, "lc.json")],
        ["walters", write_config(tmp_path, W4_CONFIG, "w.json")],
    ]
    in_process = []
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [EXIT_SCHEMA, EXIT_OK, EXIT_OK]
    assert build_parser() is build_parser()
    src = str(Path(zerotemp.__file__).resolve().parent.parent)
    for argv, got in zip(argvs, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "zerotemp.cli", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == got


# a golden-mean component with unequal out-degrees, whose reports read the
# rate (lambda only) and the subaction (H, solved together with nu)
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
    "reports": ["gamma", "subaction"],
}


def test_a_failed_vector_solve_fails_only_the_reports_that_read_it(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, GOLDEN_CONFIG)
    assert main(["gamma", cfg]) == EXIT_OK
    gamma_csv = capsys.readouterr().out
    solve = spectral._perron_vector
    # the left vector never certifies: nu, and the reports that read it, fail
    monkeypatch.setattr(
        spectral, "_perron_vector",
        lambda *args, transpose=False: None if transpose else solve(*args),
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--output-dir", str(out)]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "numerical failure in run: no Collatz-Wielandt certificate of nu" in captured.err
    assert captured.out == ""
    assert not out.exists()
    # the rate never reads H or nu, so it does not fail with them
    assert main(["gamma", cfg]) == EXIT_OK
    assert capsys.readouterr().out == gamma_csv
