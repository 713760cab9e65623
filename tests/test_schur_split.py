"""perron's split at the Aubry states C: the states N outside them are
formed at dps_n digits, probes share one pass over N, and the bracket and
both vectors are certified on the Schur complement onto C."""

import itertools
import json
import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zerotemp import LocallyConstantPotential, PerronError, Sft, perron, spectral
from zerotemp.asymptotics import Analysis
from zerotemp.cli import EXIT_NUMERICAL, main

from conftest import table_potential
from perron_reference import reference_perron

FULL2 = ((True, True), (True, True))
GOLDEN = ((True, True), (True, False))
ORBITS = {FULL2: [(0,), (1,), (0, 1), (0, 0, 1), (0, 1, 1)], GOLDEN: [(0,), (0, 1), (0, 0, 1)]}
# dyadic weights of span at most 1 keep the dense reference below a second
# at beta 256 on 8 states
WEIGHTS = (-0.25, -0.5, -0.75, -1.0)
R_G = spectral._RESOLVED + spectral._GUARD


def _words(rows, length):
    return [w for w in itertools.product((0, 1), repeat=length) if all(rows[u][v] for u, v in zip(w, w[1:]))]


@st.composite
def split_tables(draw):
    """A normalized table on the full 2-shift (depth 2-3) or the golden mean
    shift (depth 2-4), at most 8 states: 0 on the windows of 1-3 periodic
    orbits, dyadic weights elsewhere."""
    rows, depth = draw(st.sampled_from([(FULL2, 2), (FULL2, 3), (GOLDEN, 2), (GOLDEN, 3), (GOLDEN, 4)]))
    orbits = draw(st.lists(st.sampled_from(ORBITS[rows]), min_size=1, max_size=3, unique=True))
    zero = {tuple(o[(i + t) % len(o)] for t in range(depth + 1)) for o in orbits for i in range(len(o))}
    words = _words(rows, depth + 1)
    values = draw(st.lists(st.sampled_from(WEIGHTS), min_size=len(words), max_size=len(words)))
    table = {w: 0.0 if w in zero else x for w, x in zip(words, values)}
    return LocallyConstantPotential(Sft(2, rows), depth, table)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(split_tables(), st.sampled_from([16.0, 64.0, 128.0, 256.0]))
def test_split_solves_match_the_dense_reference(pot, beta):
    an = Analysis(pot)
    assume(an.floor is not None and 0 < len(an.floor[4]) < len(pot.states))
    p = an.perron(beta)
    assume(p.dps_n < p.dps)  # the split was taken
    assert p.escalations == 0
    ref = reference_perron(pot, beta)
    lo, hi = p.bracket
    with mpmath.workdps(2 * p.dps):
        slack = ref["lambda"] * mpmath.mpf(10) ** (10 - p.dps)
        assert lo - slack <= ref["lambda"] <= hi + slack
    assert p.log_H == pytest.approx(ref["log_H"], abs=1e-12)
    assert p.mass_k == pytest.approx(ref["mass_k"], abs=1e-12)


def _slow_cycle_potential() -> LocallyConstantPotential:
    """The full 2-shift at depth 2 with the fixed point 0 at 0, and the
    2-cycle 01 of N at mean -1e-6: rho(S_NN) lies within about beta*1e-6
    of 1, so N takes digits beyond R + G."""
    table = {w: -1.0 for w in itertools.product((0, 1), repeat=3)}
    table.update({(0, 0, 0): 0.0, (0, 1, 0): -1e-6, (1, 0, 1): -1e-6})
    return LocallyConstantPotential(Sft(2, FULL2), 2, table)


@pytest.mark.parametrize("beta", [128.0, 256.0, 512.0])
def test_a_slow_cycle_in_n_costs_digits_of_its_gap(beta):
    an = Analysis(_slow_cycle_potential())
    assert an.floor[4] == (0,)
    p = an.perron(beta)
    gap_digits = math.ceil(-math.log10(beta * 1e-6))
    assert R_G + gap_digits <= p.dps_n < p.dps
    assert p.escalations == 0
    ref = reference_perron(an.pot, beta)
    with mpmath.workdps(2 * p.dps):
        assert p.bracket[0] <= ref["lambda"] * (1 + mpmath.mpf(10) ** (10 - p.dps))
        assert ref["lambda"] <= p.bracket[1] * (1 + mpmath.mpf(10) ** (10 - p.dps))
    assert p.log_H == pytest.approx(ref["log_H"], abs=1e-12)
    assert p.mass_k == pytest.approx(ref["mass_k"], abs=1e-12)


def _schur_inputs(pot, beta):
    """(an, p, plan, block, aubry, mat, prec_n, w): what perron hands to
    _schur_block for its certificate at beta, and the scaling w = beta V."""
    an = Analysis(pot)
    p = an.perron(beta)
    assert p.dps_n < p.dps
    aubry = an.floor[4]
    plan, block = pot.plan(aubry)
    rest = [k for k, _, _ in plan[2][: len(pot.states) - len(aubry)]]
    m, _, _, v, _ = an.floor
    with mpmath.workdps(p.dps):
        w = [mpmath.mpf(beta) * x for x in v]
        mat = spectral._scaled_matrix(pot.edges, beta, m, w, rest, p.dps_n)
    return an, p, plan, block, aubry, mat, mpmath.libmp.dps_to_prec(p.dps_n), w


def _exact_block(pot, an, beta, aubry, w, mu, dps):
    """S_CC + S_CN (mu I - S_NN)^-1 S_NC at dps digits, from the exponents."""
    n, inside = len(pot.states), set(aubry)
    rest = [k for k in range(n) if k not in inside]
    with mpmath.workdps(dps):
        shift, s = spectral._beta_m(beta, an.floor[0]), [[0] * n for _ in range(n)]
        for u, v, a in pot.edges:
            s[v][u] = mpmath.exp(mpmath.mpf(beta) * a - shift + w[u] - w[v])
        a = mpmath.matrix([[(mu if i == j else 0) - s[i][j] for j in rest] for i in rest])
        y = [mpmath.lu_solve(a, mpmath.matrix([s[i][c] for i in rest])) for c in aubry]
        return [[s[r][c] + mpmath.fsum(s[r][k] * y[q][t] for t, k in enumerate(rest)) for q, c in enumerate(aubry)]
                for r in aubry]


@pytest.mark.parametrize("name, beta, widen", [
    ("n4", 256.0, 0), ("golden8", 32.0, 0), ("golden5", 128.0, 0),
    ("n4", 256.0, 20), ("golden8", 32.0, 30),
])
def test_the_schur_block_encloses_the_exact_complement_at_both_ends(name, beta, widen):
    # widen > 0 opens the bracket to 10^-widen of the root below hi, so that
    # K moves across it by far more than the rounding of the solve over N
    pot = table_potential(name)
    an, p, plan, block, aubry, mat, prec_n, w = _schur_inputs(pot, beta)
    with mpmath.workdps(p.dps):
        shift = mpmath.exp(-spectral._beta_m(beta, an.floor[0]))
        lo, hi = (x * shift for x in p.bracket)
        if widen:
            lo = hi * (1 - mpmath.mpf(10) ** -widen)
        below, above = spectral._schur_block(plan, block, aubry, mat, lo, hi, prec_n)
    for mu in (lo, hi):
        exact = _exact_block(pot, an, beta, aubry, w, mu, 3 * p.dps)
        with mpmath.workdps(3 * p.dps):
            for _, r, c in block[1]:
                assert below[r][c] <= exact[r][c] <= above[r][c], (r, c, mu == lo)
    if not widen:  # and tightly, at the bracket perron found: to dps_n digits of K, or 10^-dps
        with mpmath.workdps(p.dps):
            for _, r, c in block[1]:
                assert above[r][c] - below[r][c] <= above[r][c] * mpmath.mpf(10) ** (10 - p.dps_n) + \
                    mpmath.mpf(10) ** (2 - p.dps)


def test_a_failed_split_falls_back_to_the_whole_matrix(monkeypatch):
    pot = table_potential("n4")
    expected = Analysis(pot).perron(256.0)
    assert expected.dps_n < expected.dps
    monkeypatch.setattr(spectral, "_schur_block", lambda *args: None)
    p = Analysis(pot).perron(256.0)
    assert (p.dps, p.dps_n, p.escalations) == (expected.dps, expected.dps, 0)
    assert p.log_lambda == expected.log_lambda
    assert p.log_H == pytest.approx(expected.log_H, abs=1e-12)
    assert p.mass_k == pytest.approx(expected.mass_k, abs=1e-12)


def test_a_left_vector_that_does_not_certify_on_c_is_solved_whole(monkeypatch):
    pot = table_potential("golden5")
    expected = perron(pot, 256.0, Analysis(pot).floor[:4] + ((),))
    assert expected.dps_n == expected.dps
    iterate = spectral._perron_vector
    monkeypatch.setattr(spectral, "_perron_vector", lambda plan, lu, mat, lo, hi, transpose=False: (
        None if transpose and isinstance(mat, tuple) else iterate(plan, lu, mat, lo, hi, transpose)))
    p = Analysis(pot).perron(256.0)
    assert p.dps_n < p.dps
    assert (p.log_H, p.log_nu, p.mass_k) == (expected.log_H, expected.log_nu, expected.mass_k)


@pytest.mark.parametrize("name, beta", [("n2", 512.0), ("two zero blocks", 16.0), ("golden8", 8.0)])
def test_without_states_outside_c_or_a_deep_excess_the_matrix_is_solved_whole(name, beta):
    p = Analysis(table_potential(name)).perron(beta)
    assert p.dps_n == p.dps


@pytest.mark.parametrize("beta", [16.0, 64.0])
def test_an_unfloored_root_near_one_resolves_its_log(beta):
    # golden8 without a floor: the root lies within e^-120 (beta 16) or
    # e^-480 (beta 64) of 1; log_lambda holds R digits of root - 1, or the
    # solve gives up
    pot = table_potential("golden8")
    floored = Analysis(pot).perron(beta).log_lambda
    try:
        p = perron(pot, beta, None)
    except PerronError as e:
        assert beta == 64.0 and "probes" in str(e)
        return
    assert p.log_lambda == pytest.approx(floored, rel=1e-12, abs=0)


def _golden_1001_adjacency():
    table = {w: -1.0 if w == (1, 0, 0, 1) else 0.0 for w in _words(GOLDEN, 4)}
    an = Analysis(LocallyConstantPotential(Sft(2, GOLDEN), 3, table))
    return an.floor[1]


@pytest.mark.parametrize("dps", [40, 300, 1200])
def test_the_adjacency_root_is_certified_to_its_digits(dps):
    adj = _golden_1001_adjacency()
    assert len(set(map(sum, adj))) > 1  # out-degrees differ, so Newton runs
    root = spectral._adjacency_root(adj, dps)
    with mpmath.workdps(2 * dps):
        eig = mpmath.eig(mpmath.matrix([list(row) for row in adj]), left=False, right=False)
        ref = max(mpmath.re(x) for x in eig)
        assert abs(root - ref) <= ref * mpmath.mpf(10) ** (5 - dps)


def test_an_adjacency_root_off_by_its_certificate_exits_3(monkeypatch, tmp_path, capsys):
    # Newton's steps pulled 10^-(dps - 12) relative above the root, 100
    # times the certificate's 10^-(dps - 10): the M-matrix test passes below
    # the returned root, and gamma exits 3
    step = spectral._newton_step
    monkeypatch.setattr(spectral, "_newton_step",
                        lambda plan, x: step(plan, x) - x * mpmath.mpf(10) ** (12 - mpmath.mp.dps))
    table = {"".join(map(str, w)): -1.0 if w == (1, 0, 0, 1) else 0.0 for w in _words(GOLDEN, 4)}
    config = tmp_path / "golden1001.json"
    config.write_text(json.dumps({
        "potential": {"kind": "locally-constant", "alphabet_size": 2, "transitions": [[1, 1], [1, 0]],
                      "table": table},
        "beta_grid": [4.0, 8.0], "reports": ["gamma"],
    }))
    assert main(["gamma", str(config)]) == EXIT_NUMERICAL
    assert "fails its M-matrix test" in capsys.readouterr().err
