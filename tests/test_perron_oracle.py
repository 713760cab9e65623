"""perron() against the dense eigen-solver it replaced (perron_reference),
on random potentials and on the near-degenerate examples."""

import functools
import itertools
import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zerotemp import LocallyConstantPotential, PerronError, Sft, full_shift, perron, spectral
from zerotemp.asymptotics import Analysis, estimate_gamma
from zerotemp.maxplus import _strongly_connected_components
from zerotemp.spectral import (
    _confirmed,
    _elimination_plan,
    _scaled_matrix,
    adjacency_entropy,
    transfer_matrix,
)
from zerotemp.verify import three_symbol_potential, zero_potential

from conftest import table_potential, two_zero_blocks_potential
from perron_reference import reference_perron

# dyadic weights of span <= 1 keep the dense reference below a second at
# beta 128; 0.0 twice so that zero cycles, and near-degenerate clusters of
# eigenvalues, are common
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
        assert p.log_lambda_mp == mpmath.log(2)
    with pytest.raises(PerronError):
        p.pressure_excess_log(adjacency_entropy(((1, 1), (1, 1)), p.dps))


def test_wrong_floor_and_guess_are_caught_by_the_test():
    pot = two_zero_blocks_potential()
    expected = Analysis(pot).perron(32.0)
    # floor e^{log 3} above the root, and floor e^0 with a far guess
    for floor in [(0.0, ((1, 1, 1), (1, 1, 1), (1, 1, 1)), None, None), (0.0, ((1,),), -40.0, None)]:
        p = perron(pot, 32.0, floor)
        assert p.log_H == expected.log_H
        assert p.mass_k == expected.mass_k
        assert p.log_lambda == expected.log_lambda


@pytest.mark.parametrize("beta, dps", [(16.0, 243), (32.0, 382)])
def test_an_unscaled_solve_without_gamma_sizes_the_excess_from_n_span(beta, dps):
    # golden5: 5 states, span 4, gamma -6.645 beyond the span; the 132 and
    # 160 digits that beta*span alone gives cannot resolve P - h
    an = Analysis(table_potential("golden5"))
    m, adj, _, _ = an.floor
    p = perron(an.pot, beta, (m, adj, None, None))
    assert p.dps == dps
    assert p.log_lambda == an.perron(beta).log_lambda
    h = an.entropy(beta)
    assert p.pressure_excess_log(h) == an.perron(beta).pressure_excess_log(h)


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
        assert abs(adjacency_entropy(golden, 50) - exact) < mpmath.mpf(10) ** -49
    with mpmath.workdps(40):
        assert adjacency_entropy(((1, 1), (1, 1)), 40) == mpmath.log(2)


def test_two_zero_blocks_escalates_and_still_matches():
    # half the true rate sizes the excess at half its digits: the first
    # precision cannot resolve the bracket, the doubled-precision probe
    # disagrees, and the solve repeats at 2E + R + G digits
    pot = two_zero_blocks_potential()
    an = Analysis(pot)
    m, adj, gamma, v = an.floor
    p = perron(pot, 128.0, (m, adj, gamma / 2, v))
    assert p.escalations >= 1
    assert p.certified_dps == 2 * p.dps
    ref = reference_perron(pot, 128.0)
    assert_matches_reference(p, ref)
    assert_excess_matches(p, adjacency_entropy(adj, p.dps), ref)


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
    assert p.certified_dps == 2 * p.dps
    assert_matches_reference(p, reference_perron(pot, 16.0))


def test_the_doubled_precision_probe_sees_one_unit_in_the_last_digit():
    # each entry of the working matrix is within u = 2^(1-prec) of the
    # exactly formed one, so the confirmation moves both ends inward by u:
    # ends a few u outside the root confirm, an end within root (1 +- u)
    # does not
    pot = two_zero_blocks_potential()
    beta = 128.0
    an = Analysis(pot)
    p = an.perron(beta)
    logm = transfer_matrix(pot, beta)
    root = reference_perron(pot, beta, dps=3 * p.dps)["lambda"]
    with mpmath.workdps(p.dps):
        u = mpmath.mpf(2) ** (1 - mpmath.mp.prec)
        w = [mpmath.mpf(beta) * x for x in an.subaction_maxplus]
        mat = _scaled_matrix(logm, mpmath.mpf(0), w)
    plan = _elimination_plan([[math.isfinite(x) for x in row] for row in logm])
    confirmed = functools.partial(_confirmed, plan, mat, dps=p.dps)
    with mpmath.workdps(3 * p.dps):
        assert confirmed(root * (1 - 3 * u), root * (1 + 3 * u))
        assert not confirmed(root * (1 - u / 2), root * (1 + 3 * u))  # lo within u
        assert not confirmed(root * (1 - 3 * u), root * (1 + u / 2))  # hi within u


@pytest.mark.parametrize("name, beta", [
    ("n2", 512.0), ("n4", 512.0), ("golden5", 256.0), ("golden8", 32.0), ("two zero blocks", 512.0),
])
def test_the_working_matrix_is_the_doubled_precision_one_rounded(monkeypatch, name, beta):
    formed = []
    original = spectral._scaled_matrix

    def recorded(logm, shift, w):
        mat = original(logm, shift, w)
        formed.append((mpmath.mp.dps, logm, shift, w, mat))
        return mat

    monkeypatch.setattr(spectral, "_scaled_matrix", recorded)
    p = Analysis(table_potential(name)).perron(beta)
    [(dps, logm, shift, w, mat)] = formed  # once, at the working precision
    assert dps == p.dps
    with mpmath.workdps(2 * dps):
        doubled = [
            [mpmath.exp(mpmath.mpf(e) - shift + w[j] - w[i]) if math.isfinite(e) else 0
             for j, e in enumerate(row)]
            for i, row in enumerate(logm)
        ]
    with mpmath.workdps(dps):
        assert mat == [[+x for x in row] for row in doubled]


def test_the_guard_digits_round_each_entry_correctly():
    # mpmath's exp at 120 digits rounds each of these the wrong way
    logm = ((-9.06640625, -16.80859375), (-21.671875, -23.73046875))
    with mpmath.workdps(360):
        exact = [[mpmath.exp(e) for e in row] for row in logm]
    with mpmath.workdps(120):
        assert _scaled_matrix(logm, mpmath.mpf(0), [mpmath.mpf(0)] * 2) == [
            [+x for x in row] for row in exact
        ]


def count_inverse_iterations(monkeypatch) -> list:
    calls = []
    original = spectral._inverse_iteration

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(spectral, "_inverse_iteration", counted)
    return calls


def test_vectors_are_solved_on_first_read_only(monkeypatch):
    calls = count_inverse_iterations(monkeypatch)
    an = Analysis(golden_mean_potential())
    grid = (4.0, 16.0, 64.0)
    estimate_gamma(an, grid)
    assert calls == []  # the rate reads lambda only
    for beta in grid:
        assert an.perron(beta).log_H[0] == 0.0
    assert len(calls) == len(grid)
    for beta in grid:
        p = an.perron(beta)
        assert len(p.log_H) == len(p.log_nu) == len(p.mass_k)
        assert p.vectors is None  # dropped with the factors it held
    assert len(calls) == len(grid)


# (log_H, log_nu, mass_k) as the solve gave them before it was deferred
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
        (0.0, 8.197664210041083e-107, 8.197664210041083e-107),
        (-1.0986122886681098,) * 3,
        (0.3333333333333333,) * 3,
    ),
    ("three symbols", 256.0): (
        (0.0, 9.973679516524927e-107, 9.973679516524927e-107),
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
