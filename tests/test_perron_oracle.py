"""perron() against the dense eigen-solver it replaced (perron_reference),
on random potentials and on the near-degenerate examples."""

import itertools
import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zerotemp import LocallyConstantPotential, PerronError, Sft, asymptotics, full_shift, perron, spectral
from zerotemp.asymptotics import Analysis, _entropy_mp, estimate_gamma
from zerotemp.cli import EXIT_OK, main
from zerotemp.maxplus import _strongly_connected_components
from zerotemp.spectral import (
    _collatz_wielandt,
    _elimination_plan,
    _adjacency_root,
    _beta_m,
    _scaled_matrix,
    _shifted_lu,
    _solve,
    adjacency_entropy,
    transfer_matrix,
)
from zerotemp.verify import three_symbol_potential, zero_potential
from zerotemp.walters import _appendix_chains

from conftest import TABLES, table_potential, two_zero_blocks_potential
from perron_reference import reference_perron

# dyadic weights of span <= 1 keep the dense reference below a second at
# beta 128; 0.0 twice so that zero cycles, and near-degenerate clusters of
# eigenvalues, are common
# plain decimal tables on the full 2-shift: the 2-cycle 01 is critical, and
# its mean m is no float (-0.1 + -0.2 is -0.30000000000000004), so S is
# formed from the table's floats and the exact m
DECIMAL_TABLES = {
    "decimal, m -0.15": {"00": -0.3, "01": -0.1, "10": -0.2, "11": -0.7},
    "decimal, m -0.35": {"00": -0.5, "01": -0.3, "10": -0.4, "11": -0.9},
    "decimal, m 0.65": {"00": -1.0, "01": 1.1, "10": 0.2, "11": -1.0},
}


def _potential(name) -> LocallyConstantPotential:
    if name in DECIMAL_TABLES:
        return LocallyConstantPotential.from_table(full_shift(1), DECIMAL_TABLES[name])
    return table_potential(name)


NORMALIZED = (0.0, 0.0, -0.25, -0.5, -0.75, -1.0)
GENERIC = (-1.0, -0.5, 0.0, 0.25, 0.5)
BETAS = st.sampled_from([1.0, 2.0, 8.0, 32.0, 128.0])
ORACLE = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _is_irreducible(pot) -> bool:
    index = {w: i for i, w in enumerate(pot.states)}
    k = pot.word_length
    adj = [[] for _ in pot.states]
    for w in pot.states:
        for s in range(pot.sft.alphabet_size):
            if pot.sft.allows(w[-1], s):
                adj[index[w]].append(index[(w + (s,))[-k:]])
    return len(_strongly_connected_components(adj)) == 1


@st.composite
def potentials(draw, weights):
    """A table of ``weights`` on a random SFT with 0 -> 0 allowed, whose
    word graph is irreducible with at most 9 states; the fixed point 0^inf
    weighs 0."""
    a, depth = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]))
    row = st.lists(st.sampled_from([True, True, False]), min_size=a, max_size=a).filter(any)
    rows = draw(st.lists(row, min_size=a, max_size=a))
    rows[0][0] = True
    assume(all(map(any, zip(*rows))))
    sft = Sft(a, tuple(map(tuple, rows)))
    words = [w for w in itertools.product(range(a), repeat=depth + 1)
             if all(sft.allows(u, v) for u, v in zip(w, w[1:]))]
    values = draw(st.lists(st.sampled_from(weights), min_size=len(words), max_size=len(words)))
    table = dict(zip(words, values))
    table[(0,) * (depth + 1)] = 0.0
    pot = LocallyConstantPotential(sft, depth, table)
    assume(_is_irreducible(pot))
    return pot


def _h(adj, dps):
    """h of a 0/1 adjacency at dps digits, as Analysis.entropy forms it."""
    return _entropy_mp(_adjacency_root(adj, dps), dps)


def assert_matches_reference(p, ref):
    assert p.log_H == pytest.approx(ref["log_H"], abs=1e-9)
    assert p.mass_k == pytest.approx(ref["mass_k"], abs=1e-12)
    assert p.log_lambda == pytest.approx(float(ref["log_lambda_mp"]), rel=1e-12, abs=1e-300)
    lo, hi = p.bracket
    assert lo < hi
    with mpmath.workdps(2 * p.dps):
        # the reference carries rounding of its own, a few units of its last digit
        slack = ref["lambda"] * mpmath.mpf(10) ** (10 - p.dps)
        assert lo - slack <= ref["lambda"] <= hi + slack


def assert_excess_matches(p, h, ref):
    """log(P - h) to 1e-12, i.e. P - h to 1e-12 relative, or both zero."""
    try:
        got = p.pressure_excess_log(h)
    except PerronError:
        got = None
    with mpmath.workdps(p.dps):
        excess = ref["log_lambda_mp"] - h
        resolvable = excess > mpmath.mpf(10) ** (12 - p.dps)
        expected = float(mpmath.log(excess)) if resolvable else None
    if expected is None or got is None:
        assert got == expected
    else:
        assert got == pytest.approx(expected, abs=1e-12)


@ORACLE
@given(potentials(NORMALIZED), BETAS)
def test_normalized_potentials_match_the_dense_reference(pot, beta):
    an = Analysis(pot)
    p = an.perron(beta)
    ref = reference_perron(pot, beta)
    assert_matches_reference(p, ref)
    assert_excess_matches(p, an.entropy(beta), ref)


@ORACLE
@given(potentials(GENERIC), BETAS)
def test_generic_potentials_match_the_dense_reference(pot, beta):
    assert_matches_reference(Analysis(pot).perron(beta), reference_perron(pot, beta))


@pytest.mark.parametrize("beta", [5.0, 20.0, 50.0])
def test_near_degenerate_appendix_2x2(beta):
    # the perturbed selection-flip matrix [[1, g], [g, 1 + e]] with g << e
    g, e = beta * -2.0, math.log1p(math.exp(beta * -1.0))
    pot = LocallyConstantPotential(full_shift(1), 1, {(0, 0): 0.0, (0, 1): g, (1, 0): g, (1, 1): e})
    assert_matches_reference(Analysis(pot).perron(1.0), reference_perron(pot, 1.0))


def test_two_zero_blocks_at_beta_512():
    pot = two_zero_blocks_potential()
    an = Analysis(pot)
    p = an.perron(512.0)
    ref = reference_perron(pot, 512.0)
    assert_matches_reference(p, ref)
    assert_excess_matches(p, an.entropy(512.0), ref)
    assert p.pressure_excess_log(an.entropy(512.0)) / 512.0 == pytest.approx(-2.0, abs=0.01)


def test_zero_potential_returns_the_floor():
    p = Analysis(zero_potential()).perron(7.0)
    ref = reference_perron(zero_potential(), 7.0)
    assert_matches_reference(p, ref)
    assert p.bracket[0] < 2 < p.bracket[1]
    with mpmath.workdps(p.dps):
        assert _log_lambda_at_dps(p) == mpmath.log(2)
    with pytest.raises(PerronError):
        p.pressure_excess_log(_h(((1, 1), (1, 1)), p.dps))


def test_wrong_floor_and_guess_are_caught_by_the_test():
    pot = two_zero_blocks_potential()
    expected = Analysis(pot).perron(32.0)
    # floor e^{log 3} above the root, and floor e^0 with a far guess
    for floor in [(0.0, ((1, 1, 1), (1, 1, 1), (1, 1, 1)), None, None, ()), (0.0, ((1,),), -40.0, None, ())]:
        p = perron(pot, 32.0, floor)
        assert p.log_H == expected.log_H
        assert p.mass_k == expected.mass_k
        assert p.log_lambda == expected.log_lambda


@pytest.mark.parametrize("beta, dps", [(16.0, 243), (32.0, 382)])
def test_an_unscaled_solve_without_gamma_sizes_the_excess_from_n_span(beta, dps):
    # golden5: 5 states, span 4, gamma -6.645 beyond the span; the 132 and
    # 160 digits that beta*span alone gives cannot resolve P - h
    an = Analysis(table_potential("golden5"))
    m, adj, _, _, aubry = an.floor
    p = perron(an.pot, beta, (m, adj, None, None, aubry))
    assert p.dps == dps
    assert p.log_lambda == an.perron(beta).log_lambda
    h = an.entropy(beta)
    assert p.pressure_excess_log(h) == an.perron(beta).pressure_excess_log(h)


@pytest.mark.parametrize("name", list(DECIMAL_TABLES))
def test_decimal_tables_match_the_dense_reference(name, tmp_path):
    # at dyadic beta transfer_matrix's products are exact, so the reference
    # solves the matrix that perron forms; m is the exact mean of 01
    pot = _potential(name)
    an = Analysis(pot)
    table = DECIMAL_TABLES[name]
    m = (Fraction(table["01"]) + Fraction(table["10"])) / 2
    assert an.floor[0] == m != Fraction(float(m))  # a mean that no float holds
    grid = (2.0, 16.0, 64.0)
    gamma_hat = estimate_gamma(an, grid).gamma_hat
    for beta, rate in zip(grid, gamma_hat):
        p, ref = an.perron(beta), reference_perron(pot, beta)
        assert p.log_lambda == pytest.approx(float(ref["log_lambda_mp"]), rel=1e-12)
        assert p.log_H == pytest.approx(ref["log_H"], abs=1e-12)
        assert p.mass_k == pytest.approx(ref["mass_k"], abs=1e-12)
        with mpmath.workdps(p.dps):  # h = 0: the critical component is the 2-cycle
            q = Fraction(beta) * m
            expected = float(mpmath.log(ref["log_lambda_mp"] - mpmath.mpf(q.numerator) / q.denominator)) / beta
        assert rate == pytest.approx(expected, rel=1e-12)
    config = tmp_path / "decimal.json"
    config.write_text(json.dumps({
        "potential": {"kind": "locally-constant", "alphabet_size": 2, "table": table},
        "beta_grid": list(grid), "reports": ["gamma", "subaction", "measure"],
    }))
    assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == EXIT_OK


def test_missing_zero_state_still_raises():
    sft = Sft(2, ((False, True), (True, True)))
    table = {"010": -1.0, "011": -1.0, "101": -1.0, "110": -1.0, "111": 0.0}
    with pytest.raises(PerronError):
        perron(LocallyConstantPotential.from_table(sft, table), 4.0, None)


def test_adjacency_entropy():
    golden = ((1, 1), (1, 0))
    assert adjacency_entropy(golden) == pytest.approx(math.log((1 + math.sqrt(5)) / 2), rel=1e-15)
    assert adjacency_entropy(((0, 1, 0), (0, 0, 1), (1, 0, 0))) == 0.0  # a cycle
    with mpmath.workdps(60):
        exact = mpmath.log((1 + mpmath.sqrt(5)) / 2)
        assert abs(_h(golden, 50) - exact) < mpmath.mpf(10) ** -49
    with mpmath.workdps(40):
        assert _h(((1, 1), (1, 1)), 40) == mpmath.log(2)


def test_two_zero_blocks_escalates_and_still_matches():
    # half the true rate sizes the excess at half its digits: the first
    # precision cannot resolve the bracket, the Collatz-Wielandt bounds of H
    # do not narrow into it, and the solve repeats at 2E + R + G digits
    pot = two_zero_blocks_potential()
    an = Analysis(pot)
    m, adj, gamma, v, aubry = an.floor
    p = perron(pot, 128.0, (m, adj, gamma / 2, v, aubry))
    assert p.escalations >= 1
    ref = reference_perron(pot, 128.0)
    assert_matches_reference(p, ref)
    assert_excess_matches(p, _h(adj, p.dps), ref)


def golden_mean_potential() -> LocallyConstantPotential:
    """A golden-mean table whose regula-falsi estimate at beta 16 lands
    within one unit in the last place of the root."""
    sft = Sft(2, ((True, True), (True, False)))
    table = {
        "0000": 0.0,
        "0001": -1.12,
        "0010": -3.95,
        "0100": -4.0,
        "0101": 0.0,
        "1000": -1.04,
        "1001": -1.17,
        "1010": 0.0,
    }
    return LocallyConstantPotential.from_table(sft, table)


def test_a_probe_next_to_the_root_does_not_escalate():
    # there the test cannot tell the side of the root
    pot = golden_mean_potential()
    p = Analysis(pot).perron(16.0)
    assert p.escalations == 0
    assert_matches_reference(p, reference_perron(pot, 16.0))


def test_the_collatz_wielandt_bounds_see_one_unit_in_the_last_digit():
    # each entry of the working matrix is within u = 2^(1-prec) of the
    # exactly formed one, so the bounds of a Perron vector good to 3*dps
    # digits, H or nu, move out by more than u: ends a few u outside the
    # root certify, an end within root (1 +- u/2) does not
    pot = two_zero_blocks_potential()
    beta = 128.0
    an = Analysis(pot)
    p = an.perron(beta)
    logm = transfer_matrix(pot, beta)
    root = reference_perron(pot, beta, dps=3 * p.dps)["lambda"]
    with mpmath.workdps(p.dps):
        u = mpmath.mpf(2) ** (1 - mpmath.mp.prec)
        w = [mpmath.mpf(beta) * x for x in an.subaction_maxplus]
        mat = _scaled_matrix(pot.edges, beta, 0, w)
    plan = _elimination_plan([[math.isfinite(x) for x in row] for row in logm])
    for transpose in (False, True):
        with mpmath.workdps(3 * p.dps):
            lu = _shifted_lu(plan, mat, root * (1 + 4 * u))[2]
            x = [mpmath.mpf(1)] * len(mat)
            for _ in range(4):
                x = _solve(plan, lu, x, transpose)
            near, far = root * (1 - u / 2), root * (1 - 8 * u)
            above_near, above_far = root * (1 + u / 2), root * (1 + 8 * u)
        with mpmath.workdps(p.dps):
            low, high = _collatz_wielandt(plan, mat, x, transpose)
        assert far <= low and high < above_far
        assert not near <= low  # lo within u/2
        assert not high < above_near  # hi within u/2


def test_a_state_read_through_a_tiny_entry_certifies_without_escalating():
    # nu_S at state 00 reads the rest through an entry near 1e-139: while
    # their entries grow by the first 1e89-fold steps, its ratio, and the
    # lower bound, stays near 0 for a step without narrowing.  Its row reads
    # the others, so it is never left out of that bound
    sft = Sft(3, ((True, True, False), (False, True, True), (True, True, False)))
    pot = LocallyConstantPotential.from_table(sft, {
        "000": -3.0, "001": -3.0, "011": -0.5, "012": -0.5, "111": -2.0, "112": 0.0,
        "120": -3.0, "121": 0.0, "200": -3.0, "201": -1.0, "211": -1.0, "212": 0.0,
    })
    p = Analysis(pot).perron(64.0)
    assert p.escalations == 0
    ref = reference_perron(pot, 64.0)
    assert_matches_reference(p, ref)
    # so the mass at 00, near 1e-264, is right to all its digits
    assert p.mass_k == pytest.approx(ref["mass_k"], rel=1e-12, abs=0)


@pytest.mark.parametrize("rows, table, root", [
    # state 2 leads into {0, 1} and is never entered again, so H_S vanishes
    # there and the lower bound of its row stays at e^{-5 beta}: the root
    # is that of the block {0, 1}, (1 + c + sqrt((1 - c)^2 + 4 d)) / 2
    (((1, 1, 0), (1, 1, 0), (1, 1, 1)),
     {"00": 0.0, "01": -1.0, "10": -1.0, "11": -3.0, "20": -2.0, "21": -2.0, "22": -5.0},
     lambda c, d: (1 + c + mpmath.sqrt((1 - c) ** 2 + 4 * d)) / 2),
    # two loops of weight -2, the second leading into the first: the root
    # e^{-2 beta} is a double eigenvalue with one eigenvector
    (((1, 0, 0), (1, 0, 0), (0, 1, 1)),
     {"00": -2.0, "10": -0.25, "21": -0.5, "22": -2.0},
     lambda c, d: d),
])
def test_a_reducible_matrix_certifies_its_root_but_not_its_vectors(rows, table, root):
    pot = LocallyConstantPotential.from_table(Sft(3, tuple(tuple(map(bool, r)) for r in rows)), table)
    for beta in (4.0, 32.0):
        p = Analysis(pot).perron(beta)
        assert p.escalations == 0
        with mpmath.workdps(2 * p.dps):
            c, d = (mpmath.exp(-k * mpmath.mpf(beta)) for k in (3, 2))
            assert p.bracket[0] <= root(c, d) < p.bracket[1]
        with pytest.raises(PerronError, match="reducible"):
            p.mass_k


def record_perron_vectors(monkeypatch) -> list:
    """Each _perron_vector call, as (dps, plan, mat, lo, hi, transpose, vector)."""
    calls = []
    original = spectral._perron_vector

    def recorded(plan, lu, mat, lo, hi, transpose=False):
        x = original(plan, lu, mat, lo, hi, transpose=transpose)
        calls.append((mpmath.mp.dps, plan, mat, lo, hi, transpose, x))
        return x

    monkeypatch.setattr(spectral, "_perron_vector", recorded)
    return calls


def record_fixed_perron(monkeypatch) -> list:
    """Each _fixed_perron call, as (plan, bits, ends, lo, hi, vector)."""
    calls = []
    original = spectral._fixed_perron

    def recorded(plan, mid, bits, ends, lo, hi):
        x = original(plan, mid, bits, ends, lo, hi)
        calls.append((plan, bits, ends, lo, hi, x))
        return x

    monkeypatch.setattr(spectral, "_fixed_perron", recorded)
    return calls


VECTOR_TABLES = [
    ("n2", 512.0), ("n4", 512.0), ("golden5", 256.0), ("golden8", 32.0), ("two zero blocks", 512.0),
    *((name, 64.0) for name in DECIMAL_TABLES),
]


@pytest.mark.parametrize("name, beta", VECTOR_TABLES)
def test_both_perron_vectors_certify_the_reference_root(monkeypatch, name, beta):
    # the right vector is the fixed-point iterate that certified the root,
    # the left one the mpf iterate that certified nu on the first read
    fixed, calls = record_fixed_perron(monkeypatch), record_perron_vectors(monkeypatch)
    an = Analysis(_potential(name))
    p = an.perron(beta)
    assert calls == []  # the root stage ran no mpf vector
    assert len(p.log_nu) == len(p.words)  # the left vector is solved on this read
    (*_, bits, _, _, _, h_ints), [(dps, plan, mat, lo, hi, left, nu_vec)] = fixed[-1], calls
    assert left
    with mpmath.workdps(3 * dps):
        root = reference_perron(an.pot, beta, dps=3 * dps)["lambda"]
        root *= mpmath.exp(-_beta_m(beta, an.floor[0]))  # the root of S
    with mpmath.workdps(dps):
        for x, transpose in (([spectral._exact(v, -bits) for v in h_ints], False), (nu_vec, True)):
            low, high = _collatz_wielandt(plan, mat, x, transpose)
            assert lo <= low <= root <= high < hi
            # any positive x bounds the root, if not as tightly
            nudged = [x[0] * (1 + mpmath.mpf(10) ** -20)] + x[1:]
            low, high = _collatz_wielandt(plan, mat, nudged, transpose)
            assert low <= root <= high
            for bad in (0, -x[0]):
                assert _collatz_wielandt(plan, mat, [bad] + x[1:], transpose) is None


@pytest.mark.parametrize("name, beta", [
    ("n2", 512.0), ("n4", 512.0), ("golden5", 256.0), ("golden8", 32.0), ("two zero blocks", 512.0),
    *((name, 64.0) for name in DECIMAL_TABLES),
])
def test_the_working_matrix_is_the_doubled_precision_one_rounded(monkeypatch, name, beta):
    formed = []
    original = spectral._scaled_matrix

    def recorded(edges, beta, m, w, rest=(), rest_dps=None):
        mat = original(edges, beta, m, w, rest, rest_dps)
        formed.append((mpmath.mp.dps, m, w, set(rest), rest_dps, mat))
        return mat

    monkeypatch.setattr(spectral, "_scaled_matrix", recorded)
    pot = _potential(name)
    p = Analysis(pot).perron(beta)
    [(dps, m, w, rest, rest_dps, mat)] = formed  # once, at the working precision
    assert dps == p.dps and m == p.m
    # n2 and the decimal tables have no states outside the Aubry set, and
    # two zero blocks a critical component below the top entropy; the
    # others split, their rest at dps_n
    whole = name in ("n2", "two zero blocks", *DECIMAL_TABLES)
    assert (rest_dps, bool(rest)) == ((p.dps, False) if whole else (p.dps_n, True))
    assert p.dps_n < p.dps or not rest
    n = len(pot.states)
    doubled = [[0] * n for _ in range(n)]
    with mpmath.workdps(2 * dps):  # beta*a and beta*m exactly, as rationals
        for u, v, a in pot.edges:
            q = Fraction(beta) * (Fraction(a) - m)
            doubled[v][u] = mpmath.exp(mpmath.mpf(q.numerator) / q.denominator + w[u] - w[v])
    for i, row in enumerate(doubled):
        for j, x in enumerate(row):
            with mpmath.workdps(p.dps_n if i in rest or j in rest else dps):
                assert mat[i][j] == +x


def test_the_guard_digits_round_each_entry_correctly():
    # mpmath's exp at 120 digits rounds each of these the wrong way
    logm = ((-9.06640625, -16.80859375), (-21.671875, -23.73046875))
    edges = [(j, i, e) for i, row in enumerate(logm) for j, e in enumerate(row)]  # entry [v][u] of u -> v
    with mpmath.workdps(360):
        exact = [[mpmath.exp(e) for e in row] for row in logm]
    with mpmath.workdps(120):
        assert _scaled_matrix(edges, 1.0, 0, [mpmath.mpf(0)] * 2) == [
            [+x for x in row] for row in exact
        ]


def test_vectors_are_solved_on_first_read_only(monkeypatch):
    calls = record_perron_vectors(monkeypatch)
    an = Analysis(golden_mean_potential())
    grid = (4.0, 16.0, 64.0)

    def left_solves():
        return sum(1 for call in calls if call[5])

    estimate_gamma(an, grid)
    assert left_solves() == 0  # the rate reads lambda only
    for beta in grid:
        assert an.perron(beta).log_H[0] == 0.0
    assert left_solves() == len(grid)
    for beta in grid:
        p = an.perron(beta)
        assert len(p.log_H) == len(p.log_nu) == len(p.mass_k)
        assert p.vectors is None  # dropped with the factors it held
    assert left_solves() == len(grid)


@pytest.mark.parametrize("name, grid", [
    ("golden5", (32.0, 64.0, 128.0, 256.0)),
    ("n4", (64.0, 128.0, 256.0, 512.0)),
])
def test_the_root_stage_runs_no_mpf_factorization_or_vector(monkeypatch, name, grid):
    # the rate reads the roots alone, certified in ints; the first read of
    # log_H factors hi*I minus the matrix certified once in mpf, at dps, and
    # certifies nu once (on a split N is factored once more, at dps_n)
    factored, vectors, bounds = [], [], []
    factor, iterate, bound = spectral._shifted_lu, spectral._perron_vector, spectral._collatz_wielandt
    monkeypatch.setattr(spectral, "_shifted_lu", lambda plan, a, mu: (
        isinstance(mu, mpmath.mpf) and factored.append((len(plan[2]), mpmath.mp.dps))) or factor(plan, a, mu))
    monkeypatch.setattr(spectral, "_perron_vector", lambda *args, transpose=False: (
        vectors.append(transpose)) or iterate(*args, transpose=transpose))
    monkeypatch.setattr(spectral, "_collatz_wielandt", lambda *args: bounds.append(args) or bound(*args))
    an = Analysis(table_potential(name))
    estimate_gamma(an, grid)
    assert (factored, vectors, bounds) == ([], [], [])
    splits = 0
    for beta in grid:
        p, n = an.perron(beta), len(an.pot.states)
        c = len(an.floor[4]) if p.dps_n < p.dps else n
        del factored[:], vectors[:]
        assert p.log_H[p.words.index((0,) * len(p.words[0]))] == 0.0
        assert factored == [(c, p.dps)] + ([(n - c, p.dps_n)] if c < n else [])
        assert vectors == [True]
        splits += c < n
    assert splits  # the grid reaches the split


# (log_H, log_nu, mass_k) as the solve gave them before it was deferred,
# but for log_H of three symbols: every row of its transfer matrix sums to
# 1 + 2e^{-beta}, so H is constant, and log_H is 0 where the eager solve
# left rounding noise of about 1e-106
EAGER_VECTORS = {
    ("two zero blocks", 16.0): (
        (0.0, 15.30685281944008, 15.30685281944008),
        (-16.000000112535194, -0.6931472930951137, -0.6931472930951137),
        (2.5328331098186426e-14, 0.49999999999998734, 0.49999999999998734),
    ),
    ("two zero blocks", 256.0): (
        (0.0, 255.30685281944005, 255.30685281944005),
        (-256.0, -0.6931471805599453, -0.6931471805599453),
        (8.754982074106102e-223, 0.5, 0.5),
    ),
    ("three symbols", 16.0): (
        (0.0, 0.0, 0.0),
        (-1.0986122886681098,) * 3,
        (0.3333333333333333,) * 3,
    ),
    ("three symbols", 256.0): (
        (0.0, 0.0, 0.0),
        (-1.0986122886681098,) * 3,
        (0.3333333333333333,) * 3,
    ),
}


@pytest.mark.parametrize("name, pot", [
    ("two zero blocks", two_zero_blocks_potential()),
    ("three symbols", three_symbol_potential()),
])
def test_vectors_read_late_are_the_eager_ones(name, pot):
    an = Analysis(pot)
    estimate_gamma(an, (16.0, 256.0))  # both pairs solved before either is read
    for beta in (16.0, 256.0):
        p = an.perron(beta)
        assert (p.log_H, p.log_nu, p.mass_k) == EAGER_VECTORS[name, beta]


def record_probe_verdicts(monkeypatch) -> list:
    """Each probe of perron, as (fixed-point verdict, mpf verdict): the
    first from _fixed_test on the floored ints, the second from _shifted_lu
    on the working matrix at the same mu."""
    formed, verdicts = [], []
    form, fixed_test = spectral._scaled_matrix, spectral._fixed_test

    def recorded_form(*args):
        formed.append(form(*args))
        return formed[-1]

    def recorded_test(plan, a, mu, bits, phase=None):
        passes, det = fixed_test(plan, a, mu, bits, phase)
        with mpmath.workprec(mu.bit_length() + 1):  # mu exactly
            exact_mu = mpmath.ldexp(mu, -bits)
        verdicts.append((passes, _shifted_lu(plan, formed[-1], exact_mu)[0]))
        return passes, det

    monkeypatch.setattr(spectral, "_scaled_matrix", recorded_form)
    monkeypatch.setattr(spectral, "_fixed_test", recorded_test)
    return verdicts


def _reducible_potential():
    # state 2 leads into {0, 1} and is never entered again
    sft = Sft(3, ((True, True, False), (True, True, False), (True, True, True)))
    return LocallyConstantPotential.from_table(
        sft, {"00": 0.0, "01": -1.0, "10": -1.0, "11": -3.0, "20": -2.0, "21": -2.0, "22": -5.0})


# floors by name, from the floor (m, adj, gamma, V, C) of Analysis
FLOORS = {
    "analysis": lambda m, adj, gamma, v, aubry: (m, adj, gamma, v, aubry),
    "half the rate": lambda m, adj, gamma, v, aubry: (m, adj, gamma / 2, v, aubry),  # escalates
    "above the root": lambda *_: (0.0, ((1, 1, 1), (1, 1, 1), (1, 1, 1)), None, None, ()),
    "unscaled": lambda m, adj, gamma, v, aubry: (m, adj, None, None, aubry),
    "no subaction": lambda m, adj, gamma, v, aubry: (m, adj, gamma, None, aubry),
    "none": lambda *_: None,
}


@pytest.mark.parametrize("pot, beta, floor", [
    (two_zero_blocks_potential(), 512.0, "analysis"),
    (two_zero_blocks_potential(), 128.0, "half the rate"),
    (two_zero_blocks_potential(), 32.0, "above the root"),
    (table_potential("golden5"), 32.0, "unscaled"),
    (table_potential("n4"), 256.0, "no subaction"),
    (table_potential("golden8"), 16.0, "none"),
    (golden_mean_potential(), 16.0, "analysis"),
    (_reducible_potential(), 32.0, "analysis"),
    (zero_potential(), 7.0, "analysis"),
    (table_potential("n4"), 256.0, "analysis"),  # N split off: probes share passes over it
    *((_potential(name), 64.0, "analysis") for name in DECIMAL_TABLES),
])
def test_every_fixed_point_probe_has_the_mpf_verdict(monkeypatch, pot, beta, floor):
    verdicts = record_probe_verdicts(monkeypatch)
    p = perron(pot, beta, FLOORS[floor](*Analysis(pot).floor))
    assert {fixed for fixed, _ in verdicts} == {True, False}
    assert [fixed for fixed, _ in verdicts] == [mp for _, mp in verdicts]
    assert p.escalations == (1 if floor == "half the rate" else 0)


@pytest.mark.parametrize("k, beta", [(6, 512.0), (8, 256.0)])
def test_tied_components_keep_the_digits_of_a_tiny_determinant(k, beta):
    # k fixed points of weight 0 joined by edges of weight -1: rho(S) =
    # 1 + (k - 1) e^{-beta}, and det(mu I - S), near (mu - rho) (mu - 1)^(k-1),
    # falls hundreds of digits below any fixed grid near the root, so
    # regula falsi reads each det to its own leading bits
    table = {(i, j): 0.0 if i == j else -1.0 for i in range(k) for j in range(k)}
    p = Analysis(LocallyConstantPotential(full_shift(k - 1), 1, table)).perron(beta)
    assert p.escalations == 0
    with mpmath.workdps(p.dps):
        assert p.bracket[0] <= 1 + (k - 1) * mpmath.exp(-beta) < p.bracket[1]


def _exact_bounds(plan, ends, x):
    """(low, high) as Fractions: the least ratio sum_j L_ij x_j / x_i and
    the largest sum_j U_ij x_j / x_i."""
    def ratio(end, i):
        return Fraction(sum(end[i][j] * x[j] for _, r, j in plan[1] if r == i), x[i])

    return min(ratio(ends[0], i) for i in range(len(x))), max(ratio(ends[1], i) for i in range(len(x)))


@pytest.mark.parametrize("pot, beta", [(_potential(name), beta) for name, beta in VECTOR_TABLES])
def test_the_fixed_point_certificate_holds_the_reference_root(monkeypatch, pot, beta):
    # the exact int Collatz-Wielandt bounds of the iterate that certified
    # the root lie in [lo, hi) and hold the root of S, as the enclosure
    # holds S; the mpf bounds of the same vector agree with them to rounding
    calls, formed, form = record_fixed_perron(monkeypatch), [], spectral._scaled_matrix
    monkeypatch.setattr(spectral, "_scaled_matrix",
                        lambda *args: formed.append((args[3], form(*args))) or formed[-1][1])
    p = Analysis(pot).perron(beta)
    [(plan, bits, ends, lo, hi, x)] = calls  # certified at once, in ints
    assert x is not None
    (w, mat), n = formed[-1], len(x)
    low, high = _exact_bounds(plan, ends, x)
    assert lo <= low and high < hi
    with mpmath.workdps(3 * p.dps):
        root = reference_perron(pot, beta, dps=3 * p.dps)["lambda"] * mpmath.exp(-_beta_m(beta, p.m))
        units = mpmath.ldexp(root, bits)
        assert mpmath.mpf(low.numerator) / low.denominator <= units <= mpmath.mpf(high.numerator) / high.denominator
        if len(plan[2]) == len(pot.states):  # the whole matrix: its enclosure holds S, formed from the exponents
            for u, v, a in pot.edges:
                q = Fraction(beta) * (Fraction(a) - p.m)
                s = mpmath.ldexp(mpmath.exp(mpmath.mpf(q.numerator) / q.denominator + w[u] - w[v]), bits)
                assert ends[0][v][u] <= s <= ends[1][v][u], (v, u)
            cw = mat
        else:
            cw = tuple([[spectral._exact(e, -bits) for e in row] for row in end] for end in ends)
    with mpmath.workdps(p.dps):
        lo_mp = spectral._exact(lo, -bits)
        mpf_low, mpf_high = _collatz_wielandt(plan, cw, [spectral._exact(v, -bits) for v in x], False, lo_mp)
        # each ratio moves by 3 ulp in mpf, and between mat and the
        # enclosure by at most the width of its row, weighted by x / x_i
        slack = 3 + max(mpmath.mpf(sum((ends[1][i][j] - ends[0][i][j]) * x[j] for _, i, j in plan[1] if i == r)) / x[r]
                        for r in range(n))
        for mpf_end, exact in ((mpf_low, low), (mpf_high, high)):
            assert abs(mpmath.ldexp(mpf_end, bits) - mpmath.mpf(exact.numerator) / exact.denominator) <= \
                slack + units * mpmath.ldexp(8, -mpmath.mp.prec)


@pytest.mark.parametrize("pot, beta, floor", [
    (_reducible_potential(), 32.0, "analysis"),  # V is -inf on state 2, where H_S vanishes
    (table_potential("golden5"), 32.0, "unscaled"),
    (table_potential("n4"), 256.0, "no subaction"),
    (table_potential("golden8"), 16.0, "none"),
])
def test_an_unscaled_root_is_certified_in_mpf(monkeypatch, pot, beta, floor):
    # without a finite subaction H_S may fall along an edge by more than the
    # guard digits, past the grid of the probes' ints: the root stage
    # certifies in mpf, on factors that the vectors then reuse
    fixed, calls = record_fixed_perron(monkeypatch), record_perron_vectors(monkeypatch)
    factored, factor = [], spectral._shifted_lu
    monkeypatch.setattr(spectral, "_shifted_lu", lambda plan, a, mu: factored.append(mu) or factor(plan, a, mu))
    p = perron(pot, beta, FLOORS[floor](*Analysis(pot).floor))
    [(dps, plan, mat, lo, hi, transpose, x)] = calls
    assert fixed == [] and not transpose and dps == p.dps
    with mpmath.workdps(dps):
        low, high = _collatz_wielandt(plan, mat, x, False, lo)
        assert lo <= low and high < hi
    if pot.irreducible:
        root_stage = len(factored)
        assert len(p.log_nu) == len(pot.states)
        assert [call[5] for call in calls] == [False, True]
        assert len(factored) == root_stage  # no factorization past the root stage's


def test_a_ratio_on_the_upper_end_does_not_certify():
    # S = [[m]] exactly: its Perron root m lies in [lo, hi) only if m < hi
    plan, m, bits = _elimination_plan([[True]]), 3 << 60, 64
    ends = ([[m]], [[m]])
    assert spectral._fixed_perron(plan, [[m - 1]], bits, ends, m - 5, m + 1) is not None
    assert spectral._fixed_perron(plan, [[m - 1]], bits, ends, m - 5, m) is None


GOLDEN_1001 = {
    w: -1.0 if w == "1001" else 0.0
    for w in ("".join(t) for t in itertools.product("01", repeat=4)) if "11" not in w
}


def golden_1001_potential() -> LocallyConstantPotential:
    """The golden-mean shift, 0 on every 4-word but 1001 = -1: the critical
    component has out-degrees 1 and 2, so its root e^h is irrational."""
    return LocallyConstantPotential.from_table(Sft(2, ((True, True), (True, False))), GOLDEN_1001)


def _log_lambda_at_dps(p):
    """log lambda = log(lam) + beta*m at the working precision, as perron
    once formed it."""
    with mpmath.workdps(p.dps):
        return mpmath.log(p.lam) + _beta_m(p.beta, p.m)


def _excess_log_from_the_log(p, h) -> float:
    """log(P - beta*m - h) read off the log of lambda at dps, as perron once did."""
    with mpmath.workdps(p.dps):
        log_root = _log_lambda_at_dps(p) - _beta_m(p.beta, p.m)
    with mpmath.workprec(113):
        return float(mpmath.log(log_root - h))


def _nonnormalized_potential() -> LocallyConstantPotential:
    _, table = TABLES["n4"]
    return LocallyConstantPotential.from_table(full_shift(1), {w: v + 0.75 for w, v in table.items()})


def _analysis_solve(pot, beta):
    an = Analysis(pot)
    return an.perron(beta), an.entropy(beta)


def _appendix_solve(which):
    pot, floor = _appendix_chains(-2.0, -1.0, 64.0)[which]
    return perron(pot, 1.0, floor), mpmath.mpf(0)


LAZY_LOG_SOLVES = {
    **{(name, beta): (lambda name=name, beta=beta: _analysis_solve(table_potential(name), beta))
       for name in ("n2", "n4", "golden5", "golden8", "two zero blocks") for beta in (16.0, 512.0)},
    ("golden 1001", 64.0): lambda: _analysis_solve(golden_1001_potential(), 64.0),
    ("n4 + 0.75", 128.0): lambda: _analysis_solve(_nonnormalized_potential(), 128.0),
    ("appendix, perturbed", 1.0): lambda: _appendix_solve(0),
    ("appendix, unperturbed", 1.0): lambda: _appendix_solve(1),
    ("golden8, no floor", 16.0): lambda: (perron(table_potential("golden8"), 16.0, None), mpmath.mpf(0)),
    **{(name, 64.0): (lambda name=name: _analysis_solve(_potential(name), 64.0)) for name in DECIMAL_TABLES},
}


@pytest.mark.parametrize("case", list(LAZY_LOG_SOLVES))
def test_the_rate_and_pressure_match_the_working_precision_log(case):
    p, h = LAZY_LOG_SOLVES[case]()
    excess_log = p.pressure_excess_log(h)
    assert p.log_lambda == float(_log_lambda_at_dps(p))
    assert excess_log == _excess_log_from_the_log(p, h)


def test_the_cases_cover_shifted_floors():
    assert Analysis(_nonnormalized_potential()).floor[0] == 0.75
    (_, (m, _, _, v, _)), (_, (m0, _, _, _, _)) = _appendix_chains(-2.0, -1.0, 64.0)
    assert m > 0 and v[1] != 0 and m0 == 0


@pytest.mark.parametrize("pot, grid", [
    (table_potential("n4"), (128.0, 256.0, 512.0)),
    (two_zero_blocks_potential(), (64.0, 128.0, 256.0, 512.0)),
])
def test_a_gamma_sweep_forms_no_log_at_the_working_precision(monkeypatch, pot, grid):
    precs, log = [], mpmath.log
    monkeypatch.setattr(mpmath, "log", lambda *args: precs.append(mpmath.mp.prec) or log(*args))
    an = Analysis(pot)
    estimate_gamma(an, grid)
    # the one log above 113 bits is h's, in _entropy_mp
    assert sum(prec > 113 for prec in precs) == 1


# `zerotemp gamma` on GOLDEN_1001 as it printed when perron formed the log
# of lambda at dps
GOLDEN_1001_GAMMA = """\
# config-sha256=05d588cfef2f8fb4573fcf20624a4cab8b9b0891560b037ccc2bcc2dd544df05
beta,pressure,gamma_hat,gamma_maxplus,h
16,0.41401274508767644,-1.1676775019204297,-1,0.4140127373937918
32,0.41401273739379268,-1.0838387509481213,-1,0.4140127373937918
64,0.4140127373937918,-1.0419193754740608,-1,0.4140127373937918
128,0.4140127373937918,-1.0209596877370304,-1,0.4140127373937918
256,0.4140127373937918,-1.0104798438685152,-1,0.4140127373937918
"""


def test_a_gamma_sweep_solves_the_floor_root_once(monkeypatch):
    # the golden-mean 1001 floor has out-degrees 1 and 2, so each mpf root
    # is a Newton solve: one, at the largest beta's digits, serves the five
    # solves and h, each rounded from it
    roots, solve = [], spectral._adjacency_root

    def recorded(adj, dps=None):
        if dps is not None:
            roots.append(dps)
        return solve(adj, dps)

    for module in (spectral, asymptotics):
        monkeypatch.setattr(module, "_adjacency_root", recorded)
    an = Analysis(golden_1001_potential())
    grid = (16.0, 32.0, 64.0, 128.0, 256.0)
    estimate_gamma(an, grid)
    assert roots == [an.perron(256.0).dps]
    with mpmath.workdps(an.perron(16.0).dps):
        assert an.root(an.perron(16.0).dps) == +solve(an.floor[1], an.perron(256.0).dps)


def test_a_gamma_sweep_on_an_irrational_floor_prints_as_before(tmp_path, capsys):
    config = {
        "potential": {"kind": "locally-constant", "alphabet_size": 2, "transitions": [[1, 1], [1, 0]],
                      "table": GOLDEN_1001},
        "beta_grid": [16.0, 32.0, 64.0, 128.0, 256.0],
        "reports": ["gamma"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["gamma", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == GOLDEN_1001_GAMMA
