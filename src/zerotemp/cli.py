"""Batch experiment runner.

Configs are JSON files with a tagged ``potential`` union, a ``beta_grid``,
an optional ``perturbation`` block and a list of requested ``reports``.
Numeric fields may be given as decimal strings.  Runs are fully
deterministic: identical config bytes produce identical CSV bytes, and every
CSV carries a comment line with the sha256 digest of the config it came from.

The reports of one config share its solves: the Perron pair at each beta,
the Aubry decomposition, h and the Walters pressure at each beta are each
computed once per config and kept until the run ends.  H and nu of a
Perron pair are solved only when a report reads them: gamma never does.

Exit codes: 0 success, 2 malformed config or arguments, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
from functools import cache, cached_property

from .asymptotics import Analysis, estimate_gamma, estimate_subaction, limit_measure_estimate
from .aubry import EmptyAubrySetError, PositiveCycleError
from .maxplus import NoEigenvalueError
from .spectral import LocallyConstantPotential, PerronError
from .symbolic import Sft, enumerate_words
from .verify import SUITE_NAMES, format_result, run_suite
from .walters import (
    BracketError,
    SeriesDivergenceError,
    WaltersPotential,
    appendix_example,
    classify_regime,
    perturbation_stability_experiment,
    walters_cylinder_ratio,
    walters_gamma,
    walters_pressure,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3

NUMERICAL_ERRORS = (
    PerronError,
    BracketError,
    SeriesDivergenceError,
    NoEigenvalueError,
    PositiveCycleError,
    EmptyAubrySetError,
    OverflowError,
)


class ConfigError(ValueError):
    pass


def _num(x, field: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise ConfigError(f"{field} must be a number or decimal string")
    try:
        value = float(x)
    except (ValueError, OverflowError):
        raise ConfigError(f"{field} is not a valid number: {x!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{field} must be finite, got {x!r}")
    return value


def _check_theta(pot_cfg: dict) -> None:
    """The metric base theta of the shift: accepted and checked, though no
    computation reads it."""
    theta = _num(pot_cfg.get("theta", 0.5), "theta")
    if not 0.0 < theta < 1.0:
        raise ConfigError(f"theta must lie in (0, 1), got {theta}")


def _fmt(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _word_str(word) -> str:
    return "".join(str(s) for s in word)


def _unique_keys(pairs) -> dict:
    """A JSON object, refusing a key that it repeats: json.loads would keep
    the last value and so let the config change its own potential."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config repeats the key {key!r}")
        obj[key] = value
    return obj


def _load_config(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        cfg = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    digest = hashlib.sha256(raw).hexdigest()
    return cfg, digest


def _parse_potential(cfg: dict):
    pot_cfg = cfg.get("potential")
    if not isinstance(pot_cfg, dict):
        raise ConfigError("missing or malformed 'potential' object")
    kind = pot_cfg.get("kind")
    if kind == "locally-constant":
        n = pot_cfg.get("alphabet_size", 2)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ConfigError("alphabet_size must be a positive integer")
        trans = pot_cfg.get("transitions")
        if trans is None:
            # table words spell each symbol as one digit
            if n > 10:
                raise ConfigError(f"alphabet_size {n} is more than a table of digit words can cover")
            rows = tuple(tuple(True for _ in range(n)) for _ in range(n))
        else:
            if (
                not isinstance(trans, list)
                or len(trans) != n
                or any(not isinstance(r, list) or len(r) != n for r in trans)
                or any(isinstance(v, bool) or v not in (0, 1) for r in trans for v in r)
            ):
                raise ConfigError("transitions must be an n x n 0/1 matrix")
            rows = tuple(tuple(bool(v) for v in r) for r in trans)
        _check_theta(pot_cfg)
        table = pot_cfg.get("table")
        if not isinstance(table, dict) or not table:
            raise ConfigError("locally-constant potential needs a 'table' object")
        conv = {}
        for key, val in table.items():
            # isdigit() alone takes other scripts' digits, which int() reads as 0-9
            if not (key.isascii() and key.isdigit()):
                raise ConfigError(f"table key {key!r} must be a word of ASCII digits")
            conv[key] = _num(val, f"table[{key}]")
        try:
            return kind, LocallyConstantPotential.from_table(Sft(n, rows), conv)
        except ValueError as exc:
            raise ConfigError(str(exc))
    if kind == "walters":
        _check_theta(pot_cfg)
        relaxed = pot_cfg.get("relaxed", False)
        if not isinstance(relaxed, bool):
            raise ConfigError("relaxed must be true or false")
        try:
            return kind, WaltersPotential(
                b=_num(pot_cfg.get("b"), "b"),
                d=_num(pot_cfg.get("d"), "d"),
                a=_num(pot_cfg.get("a"), "a"),
                c=_num(pot_cfg.get("c"), "c"),
                rho=_num(pot_cfg.get("rho", 0.5), "rho"),
                relaxed=relaxed,
            )
        except ValueError as exc:
            raise ConfigError(str(exc))
    if kind == "appendix":
        gamma_p = _num(pot_cfg.get("gamma"), "gamma")
        eta = _num(pot_cfg.get("eta"), "eta")
        if not (gamma_p < eta < 0):
            raise ConfigError("appendix parameters must satisfy gamma < eta < 0")
        return kind, (gamma_p, eta)
    raise ConfigError(
        "potential.kind must be one of locally-constant, walters, appendix"
    )


def _parse_config(cfg: dict):
    kind, pot = _parse_potential(cfg)
    grid_cfg = cfg.get("beta_grid")
    if not isinstance(grid_cfg, list) or not grid_cfg:
        raise ConfigError("beta_grid must be a non-empty list")
    grid = tuple(_num(b, "beta_grid entry") for b in grid_cfg)
    if any(b <= 0 for b in grid) or any(
        b2 <= b1 for b1, b2 in zip(grid, grid[1:])
    ):
        raise ConfigError("beta_grid must be positive and strictly increasing")
    reports = cfg.get("reports")
    if not isinstance(reports, list) or not reports:
        raise ConfigError("reports must be a non-empty list")
    allowed = tuple(r for (k, r) in _REPORTS if k == kind)
    for r in reports:
        if r not in allowed:
            raise ConfigError(
                f"report {r!r} not available for kind {kind!r}; allowed: {allowed}"
            )
    pert = None
    pert_cfg = cfg.get("perturbation")
    if pert_cfg is not None:
        if not isinstance(pert_cfg, dict):
            raise ConfigError("perturbation must be an object")
        p_kind = pert_cfg.get("kind", "first-coord")
        if p_kind != "first-coord":
            raise ConfigError("perturbation.kind must be 'first-coord'")
        sign_raw = pert_cfg.get("sign", "+")
        if sign_raw in ("+", 1, 1.0) and not isinstance(sign_raw, bool):
            sign = 1.0
        elif sign_raw in ("-", -1, -1.0):
            sign = -1.0
        else:
            raise ConfigError("perturbation.sign must be '+' or '-'")
        pert = {"delta": _num(pert_cfg.get("delta"), "delta"), "sign": sign}
    if "stability" in reports and pert is None:
        raise ConfigError("the stability report needs a 'perturbation' block")
    return _Run(kind, pot, grid, pert), tuple(reports)


class _Run:
    """One config, and what its reports share.  Each shared part is solved
    on first use and kept until the run ends."""

    def __init__(self, kind, pot, grid, pert):
        self.kind, self.pot, self.grid, self.pert = kind, pot, grid, pert

    @cached_property
    def analysis(self) -> Analysis:
        return Analysis(self.pot)

    @cached_property
    def pressures(self) -> list[float]:
        return [walters_pressure(self.pot, b) for b in self.grid]

    @cached_property
    def ratios(self) -> list[tuple[float, float]]:
        """(S0/S1, mu([0])) without perturbation at each beta."""
        return [walters_cylinder_ratio(self.pot, 0.0, b, p)
                for b, p in zip(self.grid, self.pressures)]


def _report_lc_gamma(run):
    ge = estimate_gamma(run.analysis, run.grid)
    csv_rows = [
        (b, run.analysis.perron(b).log_lambda, g, ge.gamma_maxplus, ge.h)
        for b, g in zip(run.grid, ge.gamma_hat)
    ]
    header = ["beta", "pressure", "gamma_hat", "gamma_maxplus", "h"]
    summary = (
        f"gamma: gamma_hat({run.grid[-1]:g}) = {ge.gamma_hat[-1]:.6f}, "
        f"max-plus prediction {ge.gamma_maxplus:.6f}, h = {ge.h:.6f}"
    )
    return header, csv_rows, summary


def _report_lc_subaction(run):
    an = run.analysis
    header = ["beta", "node", "v_hat", "v_rec", "calibration_residual"]
    csv_rows = []
    for beta in run.grid:
        se = estimate_subaction(an, beta)
        for node, v_hat, v_rec in zip(an.graph.nodes, se.v_hat, an.subaction_maxplus):
            csv_rows.append((beta, _word_str(node), v_hat, v_rec, se.calibration_residual))
    summary = (
        f"subaction: residual({run.grid[-1]:g}) = {se.calibration_residual:.3e}, "
        f"eigenspace dimension {an.eigenvectors.eigenspace_dim}"
    )
    return header, csv_rows, summary


def _report_lc_measure(run):
    pot = run.pot
    ones = enumerate_words(pot.sft, 1)
    words = ones + enumerate_words(pot.sft, pot.word_length) if pot.word_length > 1 else ones
    header = ["beta", "word", "mass"]
    csv_rows = []
    for beta in run.grid:
        masses = limit_measure_estimate(run.analysis, beta, words)
        for w in words:
            csv_rows.append((beta, _word_str(w), masses[tuple(w)]))
    tail = ", ".join(f"[{_word_str(w)}]={masses[tuple(w)]:.6f}" for w in ones)
    summary = f"measure: at beta {run.grid[-1]:g}: {tail}"
    return header, csv_rows, summary


def _report_walters_pressure(run):
    gamma = walters_gamma(run.pot)
    header = ["beta", "pressure", "rate", "gamma"]
    csv_rows = [(b, p, math.log(p) / b, gamma) for b, p in zip(run.grid, run.pressures)]
    summary = (
        f"pressure: rate({run.grid[-1]:g}) = {csv_rows[-1][2]:.6f}, gamma = {gamma:.6f}"
    )
    return header, csv_rows, summary


def _report_walters_regime(run):
    rep = classify_regime(run.pot)
    header = ["gamma", "regime", "mirrored", "limit_mass_0", "l_limit"]
    csv_rows = [
        (
            rep.gamma,
            rep.regime,
            int(rep.mirrored),
            rep.limit_mass_0,
            rep.l_limit if rep.l_limit is not None else "",
        )
    ]
    summary = f"regime: {rep.regime}, mass {rep.limit_mass_0:.7f}"
    if rep.l_limit is not None:
        summary += f", l_limit {rep.l_limit:.7f}"
    return header, csv_rows, summary


def _report_walters_measure(run):
    header = ["beta", "pressure", "ratio", "mu_0"]
    csv_rows = [(beta, p, *r) for beta, p, r in zip(run.grid, run.pressures, run.ratios)]
    summary = f"measure: mu([0]) at beta {run.grid[-1]:g} = {csv_rows[-1][3]:.7f}"
    return header, csv_rows, summary


def _report_walters_stability(run):
    rep = perturbation_stability_experiment(
        run.pot, run.pert["delta"], run.grid, run.pressures, [mu0 for _, mu0 in run.ratios],
        run.pert["sign"],
    )
    header = [
        "beta",
        "pressure",
        "a_beta",
        "mu0_pert",
        "mu0_unpert",
        "vhat1_pert",
        "vhat1_unpert",
    ]
    csv_rows = [
        (r.beta, r.pressure, r.a_beta, r.mu0_pert, r.mu0_unpert, r.vhat1_pert, r.vhat1_unpert)
        for r in rep.rows
    ]
    summary = (
        f"stability: tail gaps mu {rep.mu_gap_tail:.3e}, "
        f"subaction {rep.vhat_gap_tail:.3e}, shrinking {rep.gaps_shrink}"
    )
    return header, csv_rows, summary


def _report_appendix(run):
    gamma_p, eta = run.pot
    header = [
        "beta",
        "lambda_tilde",
        "h1_pert",
        "p0",
        "p_unpert",
        "mu0_unpert",
        "max_rel_err",
    ]
    csv_rows = []
    for beta in run.grid:
        ex = appendix_example(gamma_p, eta, beta)
        csv_rows.append(
            (beta, ex.lambda_tilde, ex.h1_pert, ex.p0, ex.p_unpert, ex.mu0_unpert, ex.max_rel_err)
        )
    last = csv_rows[-1]
    summary = (
        f"appendix: p0({run.grid[-1]:g}) = {last[3]:.3e}, "
        f"closed-form agreement {last[6]:.3e}"
    )
    return header, csv_rows, summary


# (potential kind, report name) -> report; the order per kind is the order
# the config schema lists them in
_REPORTS = {
    ("locally-constant", "gamma"): _report_lc_gamma,
    ("locally-constant", "subaction"): _report_lc_subaction,
    ("locally-constant", "measure"): _report_lc_measure,
    ("walters", "pressure"): _report_walters_pressure,
    ("walters", "regime"): _report_walters_regime,
    ("walters", "measure"): _report_walters_measure,
    ("walters", "stability"): _report_walters_stability,
    ("appendix", "appendix"): _report_appendix,
}


def _render_csv(header, rows, digest: str) -> str:
    buf = io.StringIO()
    buf.write(f"# config-sha256={digest}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(x) for x in row) + "\n")
    return buf.getvalue()


def _appendix_config(gamma, eta, beta_max):
    """The config the appendix verb runs, and its digest: the selection-flip
    example at beta = 2, 4, 8, ... below beta_max, then at beta_max."""
    gamma, eta, beta_max = _num(gamma, "gamma"), _num(eta, "eta"), _num(beta_max, "beta-max")
    if beta_max < 2:
        raise ConfigError("beta-max must be at least 2")
    grid = []
    b = 2.0
    while b < beta_max:
        grid.append(b)
        b *= 2.0
    cfg = {
        "potential": {"kind": "appendix", "gamma": gamma, "eta": eta},
        "beta_grid": grid + [beta_max],
        "reports": ["appendix"],
    }
    digest = hashlib.sha256(
        f"appendix gamma={gamma!r} eta={eta!r} beta_max={beta_max!r}".encode()
    ).hexdigest()
    return cfg, digest


def _write_outputs(config_path, output_dir, results, summaries: str, digest) -> None:
    """Each report's CSV and summary.txt into output_dir, by default
    <config stem>_out/ next to the config."""
    if output_dir is None:
        stem = os.path.splitext(os.path.basename(config_path))[0]
        output_dir = os.path.join(os.path.dirname(os.path.abspath(config_path)), stem + "_out")
    os.makedirs(output_dir, exist_ok=True)
    for name, (header, rows, _) in results:
        with open(os.path.join(output_dir, f"{name}.csv"), "w", newline="") as fh:
            fh.write(_render_csv(header, rows, digest))
    with open(os.path.join(output_dir, "summary.txt"), "w") as fh:
        fh.write(f"# config-sha256={digest}\n{summaries}")


def _cmd_verify(suite: str) -> int:
    try:
        results = run_suite(suite)
    except KeyError as exc:
        print(f"argument error: {exc.args[0]}", file=sys.stderr)
        return EXIT_SCHEMA
    failed = 0
    for r in results:
        print(format_result(r))
        if not r.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed in suite {suite!r}")
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


@cache  # parse_args leaves the parser as it is, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerotemp",
        description="Zero-temperature asymptotics of Gibbs equilibrium states",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="run all requested reports from a config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(SUITE_NAMES)}")
    p_gamma = sub.add_parser("gamma", help="gamma sweep for a locally constant config")
    p_gamma.add_argument("config")
    p_walters = sub.add_parser("walters", help="reports for a walters config")
    p_walters.add_argument("config")
    p_app = sub.add_parser("appendix", help="selection-flip example sweep")
    p_app.add_argument("--gamma", required=True)
    p_app.add_argument("--eta", required=True)
    p_app.add_argument("--beta-max", required=True)
    return parser


# the potential kind of the config each single-config verb runs
_VERB_KINDS = {"gamma": "locally-constant", "walters": "walters", "appendix": "appendix"}


def main(argv=None) -> int:
    """Every verb but verify runs one config: run writes each report's CSV
    and the summaries to a directory and prints the summaries; gamma prints
    the gamma CSV; walters and appendix print every report's CSV, then the
    summaries."""
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "verify":
            return _cmd_verify(args.suite)
        if args.verb == "appendix":
            cfg, digest = _appendix_config(args.gamma, args.eta, args.beta_max)
        else:
            cfg, digest = _load_config(args.config)
        run, reports = _parse_config(cfg)
        kind = _VERB_KINDS.get(args.verb, run.kind)
        if run.kind != kind:
            raise ConfigError(f"this verb needs a {kind!r} potential, config has {run.kind!r}")
        if args.verb == "gamma":
            reports = ("gamma",)
        results = [(name, _REPORTS[run.kind, name](run)) for name in reports]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure in {args.verb}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    summaries = "".join(f"{s}\n" for _, (_, _, s) in results)
    # all computation done; only now touch the filesystem
    if args.verb == "run":
        try:
            _write_outputs(args.config, args.output_dir, results, summaries, digest)
        except OSError as exc:
            print(f"argument error: cannot write outputs: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
    else:
        for _, (header, rows, _) in results:
            sys.stdout.write(_render_csv(header, rows, digest))
    if args.verb != "gamma":
        print(summaries, end="")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
