import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerotemp import (
    EmptyAubrySetError,
    LocallyConstantPotential,
    PerronError,
    PositiveCycleError,
    decompose_aubry,
    enumerate_words,
    word_graph,
    equilibrium_cylinder_mass,
    Sft,
    full_shift,
    perron,
    transfer_matrix,
)
from zerotemp import spectral
from zerotemp.asymptotics import Analysis, estimate_gamma
from zerotemp.verify import lc1_potential, lc2_potential, zero_potential

import mpmath

from conftest import lifted, table_potential

# two symbols, word 11 forbidden
GOLDEN = Sft(2, ((True, True), (True, False)))


def test_table_validation():
    sft = full_shift(1)
    with pytest.raises(ValueError):
        LocallyConstantPotential(sft, 1, {(0, 0): 0.0})  # missing words
    with pytest.raises(ValueError):
        LocallyConstantPotential(sft, 1, {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0, (0, 2): 0.0})
    with pytest.raises(ValueError):
        LocallyConstantPotential.from_table(sft, {})


@pytest.mark.parametrize("sft, keys, message", [
    (full_shift(1), [(0, 0), (0, 2), (0, 1), (1, 0), (1, 1)],
     "table key (0, 2) is not an admissible (k+1)-word"),  # symbol out of range
    (full_shift(1), [(0, 0), (0, 1), (1, 0, 1), (1, 0), (1, 1)],
     "table key (1, 0, 1) is not an admissible (k+1)-word"),  # wrong length
    (GOLDEN, [(0, 0), (1, 1), (0, 1), (1, 0)],
     "table key (1, 1) is not an admissible (k+1)-word"),  # forbidden transition
    (GOLDEN, [(0, 0), (1, 0)], "table misses admissible word (0, 1)"),
    # a bad key is reported before a missing word, and the first bad key first
    (full_shift(1), [(2, 0), (0, 0), (0, 0, 0)], "table key (2, 0) is not an admissible (k+1)-word"),
])
def test_table_validation_names_the_first_bad_key(sft, keys, message):
    with pytest.raises(ValueError) as info:
        LocallyConstantPotential(sft, 1, dict.fromkeys(keys, 0.0))
    assert str(info.value) == message


NO_00 = Sft(2, ((False, True), (True, True)))


@pytest.mark.parametrize("sft", [full_shift(1), GOLDEN, NO_00, full_shift(2)], ids=["FULL2", "GOLDEN", "NO_00", "FULL3"])
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_edges_match_the_word_by_word_reference(sft, depth):
    rng = random.Random(depth)
    words = enumerate_words(sft, depth + 1)
    pot = LocallyConstantPotential(sft, depth, {w: -rng.uniform(0.0, 4.0) for w in words})
    # one edge u -> u[1:] + s for each admissible (k+1)-word u.s, weighted
    # A(u.s), or A(u) at depth 0, in the order of u, then s
    index = {w: i for i, w in enumerate(pot.states)}
    reference = tuple(
        (index[u], index[u[1:] + (s,)], pot.value(u + (s,)))
        for u in pot.states
        for s in range(sft.alphabet_size)
        if sft.allows(u[-1], s)
    )
    assert pot.edges == reference


def test_golden_mean_table_excludes_forbidden():
    sft = GOLDEN
    pot = LocallyConstantPotential.from_table(sft, {"00": 0.0, "01": -1.0, "10": -1.0})
    assert pot.value((0, 1)) == -1.0
    with pytest.raises(ValueError):
        LocallyConstantPotential.from_table(sft, {"00": 0.0, "01": -1.0, "10": -1.0, "11": 0.0})


def test_transfer_matrix_orientation():
    m1 = transfer_matrix(lc1_potential(), 1.0)
    assert m1 == ((0.0, -1.0), (-1.0, 0.0))
    m2 = transfer_matrix(lc2_potential(), 1.0)
    # row = target first symbol, column = prepended symbol
    assert m2[1][0] == -1.0  # A(01)
    assert m2[0][1] == -2.0  # A(10)


def test_transfer_matrix_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        transfer_matrix(lc1_potential(), 0.0)


def test_perron_closed_forms():
    lc1, lc2 = Analysis(lc1_potential()), Analysis(lc2_potential())
    for beta in (1.0, 7.0, 25.0, 50.0):
        p1 = lc1.perron(beta)
        assert p1.log_lambda == pytest.approx(math.log1p(math.exp(-beta)), rel=1e-13)
        p2 = lc2.perron(beta)
        assert p2.log_lambda == pytest.approx(math.log1p(math.exp(-1.5 * beta)), rel=1e-13)
        # eigenfunction ratio H(1)/H(0) = e^{beta(b-d)/2} = e^{beta/2}
        assert p2.log_H[1] == pytest.approx(beta / 2, rel=1e-12)
        assert p1.log_H[1] == pytest.approx(0.0, abs=1e-12)


def test_perron_zero_potential():
    p = Analysis(zero_potential()).perron(3.0)
    assert p.log_lambda == pytest.approx(math.log(2), rel=1e-14)
    assert p.mass_k == pytest.approx((0.5, 0.5))


@pytest.mark.parametrize("table", [
    {"00": -1.0, "01": -1.0, "10": -1.0, "11": -1.0},  # the root is the row sum
    {"00": -1.0, "01": -1.03125, "10": -1.015625, "11": -1.046875},
])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("beta", [16.0, 240.0, 256.0, 1024.0])
def test_unfloored_roots_far_from_one_keep_their_relative_resolution(table, sign, beta):
    # with no floor S is unnormalized: its root 2e^{-beta} or e^{-beta}(1 +
    # ...) sits far below or above 1, and a span of at most beta/16 sizes
    # only a few digits
    pot = LocallyConstantPotential.from_table(full_shift(1), {k: sign * v for k, v in table.items()})
    p = perron(pot, beta, None)
    with mpmath.workdps(p.dps):
        a, b, c, d = (mpmath.exp(beta * sign * table[k]) for k in ("00", "10", "01", "11"))
        root = (a + d) / 2 + mpmath.sqrt(((a - d) / 2) ** 2 + b * c)
        assert p.escalations == 0
        assert abs(mpmath.log(p.lam) - mpmath.log(root)) <= mpmath.mpf(10) ** -50 * beta  # m = 0: lam is lambda
        assert p.bracket[0] <= root <= p.bracket[1]


def test_depth_zero_lift():
    sft = full_shift(1)
    an = Analysis(LocallyConstantPotential(sft, 0, {(0,): 0.0, (1,): -1.0}))
    for beta in (1.0, 5.0):
        p = an.perron(beta)
        assert p.log_lambda == pytest.approx(math.log1p(math.exp(-beta)), rel=1e-13)


def test_pressure_monotone_and_convex_in_beta():
    an = Analysis(lc2_potential())
    betas = [0.5 * k for k in range(1, 15)]
    ps = [an.perron(b).log_lambda for b in betas]
    assert all(p2 < p1 for p1, p2 in zip(ps, ps[1:]))  # A <= 0 and not cohomologous to 0
    second = [p0 - 2 * p1 + p2 for p0, p1, p2 in zip(ps, ps[1:], ps[2:])]
    assert all(s > -1e-12 for s in second)


def test_pressure_derivative_is_potential_average():
    # on 2-word states, so that each 2-word of the table has its mass
    lc2 = lc2_potential()
    an = Analysis(lifted(lc2, 2))
    beta, h = 2.0, 1e-5
    deriv = (an.perron(beta + h).log_lambda - an.perron(beta - h).log_lambda) / (2 * h)
    p = an.perron(beta)
    avg = sum(
        lc2.value(w) * equilibrium_cylinder_mass(p, w)
        for w in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    assert deriv == pytest.approx(avg, abs=1e-8)


def test_equilibrium_measure_consistency():
    # on 3-word states, so that every word below has its mass
    p = Analysis(lifted(lc2_potential(), 3)).perron(3.0)
    words = [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1), (0, 1, 1), (1, 0, 0)]
    masses = {w: equilibrium_cylinder_mass(p, w) for w in words}
    assert masses[(0,)] + masses[(1,)] == pytest.approx(1.0, abs=1e-14)
    # the same measure as on the 1-word states of the table
    assert masses[(0,)] == pytest.approx(
        equilibrium_cylinder_mass(Analysis(lc2_potential()).perron(3.0), (0,)), rel=1e-12
    )
    # Kolmogorov extension: mass of [w] = sum of masses of one-symbol extensions
    assert masses[(0, 1)] == pytest.approx(
        equilibrium_cylinder_mass(p, (0, 1, 0)) + masses[(0, 1, 1)], rel=1e-12
    )
    # shift invariance: mass of [w] = sum over prepended symbols
    assert masses[(1, 0)] == pytest.approx(
        equilibrium_cylinder_mass(p, (0, 1, 0)) + equilibrium_cylinder_mass(p, (1, 1, 0)),
        rel=1e-12,
    )


def test_inadmissible_word_gets_zero_mass():
    sft = GOLDEN
    pot = LocallyConstantPotential.from_table(sft, {"00": 0.0, "01": -1.0, "10": -1.0})
    p = Analysis(lifted(pot, 3)).perron(2.0)
    assert equilibrium_cylinder_mass(p, (1, 1)) == 0.0
    assert equilibrium_cylinder_mass(p, (0, 1, 1)) == 0.0
    assert equilibrium_cylinder_mass(p, (0, 1, 0)) > 0.0
    # a word longer than the states is not answered
    with pytest.raises(ValueError):
        equilibrium_cylinder_mass(p, (0, 1, 1, 0))


def test_zero_potential_bernoulli_masses():
    p = Analysis(lifted(zero_potential(), 3)).perron(1.0)
    for w in ((0, 1), (1, 1), (0, 0, 1)):
        assert equilibrium_cylinder_mass(p, w) == pytest.approx(0.5 ** len(w), rel=1e-12)


def test_pressure_excess_error_on_zero_gap():
    p = Analysis(zero_potential()).perron(5.0)
    with pytest.raises(PerronError):
        p.pressure_excess_log(mpmath.log(mpmath.mpf(2)))


def test_pressure_sandwich_under_perturbation():
    beta = 10.0
    eps = 1e-3
    base = Analysis(lc1_potential()).perron(beta).log_lambda
    sft = full_shift(1)
    pert = LocallyConstantPotential.from_table(
        sft, {"00": 0.0, "01": -1.0 + eps / beta, "10": -1.0, "11": 0.0}
    )
    assert abs(Analysis(pert).perron(beta).log_lambda - base) <= eps


def test_normalization_check():
    # the Aubry decomposition accepts exactly the normalized potentials
    decompose_aubry(word_graph(lc1_potential()))
    sft = full_shift(1)
    bad = LocallyConstantPotential.from_table(
        sft, {"00": 0.5, "01": -1.0, "10": -1.0, "11": 0.0}
    )
    with pytest.raises(PositiveCycleError):
        decompose_aubry(word_graph(bad))
    shifted = LocallyConstantPotential.from_table(
        sft, {"00": -0.5, "01": -1.0, "10": -1.0, "11": -0.5}
    )
    with pytest.raises(EmptyAubrySetError):
        decompose_aubry(word_graph(shifted))


def test_normalization_uses_the_aubry_rule():
    # the cycle 0 -> 1 -> 2 -> 0 weighs 2e-12 (mean 6.7e-13): positive beyond
    # the zero-cycle tolerance, so the Aubry rule may not accept it
    table = {w: -1.0 for w in ("00", "02", "10", "11", "21", "22")}
    table.update({"01": 1e-12, "12": 1e-12, "20": 0.0})
    pot = LocallyConstantPotential.from_table(full_shift(2), table)
    with pytest.raises(PositiveCycleError):
        decompose_aubry(word_graph(pot))


# ------------------------------------------------- precision from the request


def _lifted_tables():
    """One potential on the full 2-shift as a depth-3 table (8 states) and
    as the same values read off depth-4, 5 and 6 words (16, 32 and 64
    states); the fixed points 0 and 1 weigh 0, and the other values are not
    dyadic."""
    words3 = list(itertools.product((0, 1), repeat=4))
    table3 = {
        w: 0.0 if len(set(w)) == 1 else -1.0 - 0.37 * ((5 * int("".join(map(str, w)), 2)) % 9)
        for w in words3
    }
    sft = full_shift(1)
    return [
        LocallyConstantPotential(
            sft, depth, {w: table3[w[:4]] for w in itertools.product((0, 1), repeat=depth + 1)}
        )
        for depth in (3, 4, 5, 6)
    ]


def test_precision_follows_the_excess_not_the_state_count():
    pot8, *lifted = _lifted_tables()
    beta = 128.0
    an8 = Analysis(pot8)
    p8 = an8.perron(beta)
    for pot in lifted:
        an = Analysis(pot)
        gamma = an.gamma_maxplus
        assert an8.gamma_maxplus == pytest.approx(gamma, rel=1e-12)
        p = an.perron(beta)
        assert p.dps <= beta * abs(gamma) / math.log(10) + 120
        assert abs(p.dps - p8.dps) < 10
        assert p.log_lambda == pytest.approx(p8.log_lambda, rel=1e-13)


def test_unscaled_floors_give_the_same_pair():
    pot = _lifted_tables()[0]
    an = Analysis(pot)
    m, adj, gamma, v, aubry = an.floor
    expected = an.perron(64.0)
    # no subaction, and one with a -inf entry: perron runs unscaled
    for floor in [(m, adj, gamma, None, aubry), (m, adj, gamma, (float("-inf"),) + v[1:], aubry)]:
        p = perron(pot, 64.0, floor)
        assert p.log_lambda == expected.log_lambda
        assert p.log_H == pytest.approx(expected.log_H, rel=1e-14, abs=1e-14)
        assert p.log_nu == pytest.approx(expected.log_nu, rel=1e-14, abs=1e-14)
        assert p.mass_k == pytest.approx(expected.mass_k, rel=1e-14, abs=1e-300)


def test_the_plan_is_built_once_per_potential(monkeypatch):
    calls, plan = [], spectral._elimination_plan
    monkeypatch.setattr(spectral, "_elimination_plan",
                        lambda pattern, last=(): calls.append(len(pattern)) or plan(pattern, last))
    an = Analysis(table_potential("golden8"))
    gammas = estimate_gamma(an, (4.0, 8.0, 16.0, 32.0)).gamma_hat
    assert len(set(gammas)) == 4
    # beta 32 alone reaches the digits at which perron splits off N
    assert [an.perron(beta).dps_n < an.perron(beta).dps for beta in (4.0, 8.0, 16.0, 32.0)] == [False] * 3 + [True]
    # at beta 32, the first solved, one plan that eliminates N first and one
    # of the Schur complement onto the Aubry states C; then one of the whole
    # pattern.  The critical components, the fixed point 0 and the orbit of
    # 01, are cycles, whose roots need no plan
    n = len(an.pot.states)
    assert calls == [n, len(an.floor[4]), n]


def test_perron_reads_the_edges_and_checks_reducibility_once_per_potential(monkeypatch):
    # S, the span and the gap under the floor come from the table's floats
    # in pot.edges, not from transfer_matrix's rounded products beta*a; the
    # word graph's strong connectivity, which the vectors need, is checked
    # once for every beta
    made, components = [], []
    monkeypatch.setattr(spectral, "transfer_matrix", lambda *args: made.append(args))
    scc = spectral._strongly_connected_components
    monkeypatch.setattr(spectral, "_strongly_connected_components", lambda adj: components.append(adj) or scc(adj))
    an = Analysis(table_potential("golden5"))
    for beta in (16.0, 256.0):
        p = an.perron(beta)
        assert abs(sum(p.mass_k) - 1) < 1e-12
    assert an.perron(256.0).dps_n < an.perron(256.0).dps  # the gap was estimated
    assert made == [] and len(components) == 1


def test_the_left_vector_certifies_while_its_smallest_entries_converge(monkeypatch):
    # on 64 states at beta 128, entries of nu_S hundreds of orders of
    # magnitude below its largest converge last: for a step the lower
    # Collatz-Wielandt bound climbs by orders of magnitude while high - low
    # stays near high, so high - low fails to halve, and only the spread
    # high/low - 1 shows the progress
    rng = random.Random(5)
    table = {w: 0.0 if len(set(w)) == 1 else -rng.uniform(1.0, 4.0)
             for w in itertools.product((0, 1), repeat=7)}
    pot = LocallyConstantPotential(full_shift(1), 6, table)
    transposed = []
    bound = spectral._collatz_wielandt

    def recorded(plan, mat, x, transpose=False, lo=0, rows=None):
        bounds = bound(plan, mat, x, transpose, lo, rows)
        if transpose:
            transposed.append(bounds)
        return bounds

    monkeypatch.setattr(spectral, "_collatz_wielandt", recorded)
    # the whole matrix, as a floor without the Aubry states C does not split it
    p = perron(pot, 128.0, Analysis(pot).floor[:4] + ((),))
    assert p.escalations == 0
    assert abs(sum(p.mass_k) - 1) < 1e-12  # nu is certified
    # with a floor the bracket starts from no Collatz-Wielandt bound of
    # ones, so every transposed bound is one of an iterate of nu_S
    widths = [high - low for low, high in transposed]
    assert any(not later <= earlier / 2 for earlier, later in zip(widths, widths[1:]))


def _cycle_product(mat, cycle):
    prod = mpmath.mpf(1)
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        prod *= mat[v][u]  # row = target, column = source
    return prod


def test_scaled_exponents_are_formed_in_mpmath():
    # golden shift, zero on the windows of the orbits 0 and 01, non-dyadic
    # elsewhere, so that the subaction V is not dyadic
    sft = GOLDEN
    words = [w for w in itertools.product((0, 1), repeat=4) if (1, 1) not in zip(w, w[1:])]
    zero = {(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0)}
    table = {w: 0.0 if w in zero else -1.1 - 0.3 * i for i, w in enumerate(words)}
    pot = LocallyConstantPotential(sft, 3, table)
    an = Analysis(pot)
    beta = 64.0
    v = an.subaction_maxplus
    assert any(x * 2**20 != int(x * 2**20) for x in v)
    p = an.perron(beta)
    logm = transfer_matrix(pot, beta)
    n = len(logm)
    # every simple cycle of the word graph, by its least node
    cycles, graph = [], {u: [] for u in range(n)}
    for (u, t, _) in an.graph.edges:
        graph[u].append(t)

    def extend(path):
        for t in graph[path[-1]]:
            if t == path[0]:
                cycles.append(list(path))
            elif t > path[0] and t not in path:
                extend(path + [t])

    for u in range(n):
        extend([u])
    critical = set(an.decomposition.critical_pairs)
    with mpmath.workdps(p.dps):
        w = [mpmath.mpf(beta) * x for x in v]
        mat = spectral._scaled_matrix(pot.edges, beta, an.floor[0], w)
        # float exponents, the formation that mpmath replaces
        rounded = [
            [mpmath.exp(logm[i][j] + float(w[j]) - float(w[i])) if mat[i][j] else 0
             for j in range(n)]
            for i in range(n)
        ]
        tiny = mpmath.mpf(10) ** (10 - p.dps)
        seen_critical = off_by_rounding = 0
        for cycle in cycles:
            weight = mpmath.exp(sum(mpmath.mpf(logm[t][u]) for u, t in zip(cycle, cycle[1:] + cycle[:1])))
            assert abs(_cycle_product(mat, cycle) / weight - 1) < tiny
            if all((u, t) in critical for u, t in zip(cycle, cycle[1:] + cycle[:1])):
                seen_critical += 1
                assert abs(_cycle_product(mat, cycle) - 1) < tiny
            off_by_rounding += abs(_cycle_product(rounded, cycle) / weight - 1) > 10**-20
        assert seen_critical >= 2
        assert off_by_rounding > 0
        assert all(mat[i][j] <= 1 + tiny for i in range(n) for j in range(n))


def _charpoly(adj):
    """Integer coefficients of det(x I - adj), leading first (Faddeev-LeVerrier)."""
    n = len(adj)
    a = [[Fraction(x) for x in row] for row in adj]
    m = [[Fraction(0)] * n for _ in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        m = [[am[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)] for i in range(n)]
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        coeffs.append(-sum(am[i][i] for i in range(n)) / k)
    return [int(c) for c in coeffs]


def test_adjacency_root_doubles_its_precision(monkeypatch):
    adj = ((1, 1, 1, 0), (1, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 0))
    dps = 4000
    with mpmath.workdps(dps):
        full = mpmath.mp.prec
    calls = []
    newton_step = spectral._newton_step
    monkeypatch.setattr(
        spectral, "_newton_step", lambda plan, x: calls.append(mpmath.mp.prec) or newton_step(plan, x)
    )
    root = spectral._adjacency_root(adj, dps)
    assert 0 < sum(prec >= full for prec in calls) <= 2
    # Newton on the integer characteristic polynomial, at more digits
    coeffs = _charpoly(adj)
    with mpmath.workdps(dps + 20):
        x = mpmath.mpf(float(root))
        for _ in range(20):
            x -= mpmath.polyval(coeffs, x) / mpmath.polyval(
                [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])], x
            )
        assert abs(root - x) / x < mpmath.mpf(10) ** -3990


def test_the_float_newton_stage_starts_at_a_collatz_wielandt_bound(monkeypatch):
    # a cycle through 38 states united with 4 random cycles: the bound
    # max_i (adj d)_i / d_i of the out-degrees d lies below their largest
    rng = random.Random(7)
    adj = [[0] * 38 for _ in range(38)]
    cycles = [rng.sample(range(38), 38)] + [rng.sample(range(38), rng.randint(2, 38)) for _ in range(4)]
    for cycle in cycles:
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            adj[u][v] = 1
    adj = tuple(map(tuple, adj))
    newton_step, plan = spectral._newton_step, spectral._elimination_plan(adj)
    x, from_degree = float(max(map(sum, adj))), 0
    while True:  # the float stage as it ran from the largest out-degree
        step, from_degree = newton_step(plan, x), from_degree + 1
        if not step > 0 or x - step == x:
            break
        x -= step
    floats = []
    monkeypatch.setattr(spectral, "_newton_step", lambda plan, x: (
        isinstance(x, float) and floats.append(x)) or newton_step(plan, x))
    root = spectral._adjacency_root(adj)
    assert floats[0] < max(map(sum, adj)) and len(floats) < from_degree - 5
    assert root == x
    # 600 digits agree with Newton on the integer characteristic polynomial
    coeffs = _sparse_charpoly(adj)
    slope = [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]
    with mpmath.workdps(620):
        ref = mpmath.mpf(root)
        for _ in range(12):
            ref -= mpmath.polyval(coeffs, ref) / mpmath.polyval(slope, ref)
        assert abs(spectral._adjacency_root(adj, 600) - ref) < ref * mpmath.mpf(10) ** -600


@st.composite
def cycle_unions(draw):
    """A strongly connected 0/1 matrix on 2-40 states: a cycle through
    every state, united with up to 4 random cycles (loops included)."""
    n = draw(st.integers(2, 40))
    adj = [[0] * n for _ in range(n)]
    cycles = [draw(st.permutations(range(n)))]
    cycles += draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
                            max_size=4))
    for cycle in cycles:
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            adj[u][v] = 1
    return tuple(map(tuple, adj))


def _sparse_charpoly(adj):
    """Integer coefficients of det(x I - adj), leading first, by
    Faddeev-LeVerrier in integers, multiplying by adj one edge at a time."""
    n = len(adj)
    edges = [(i, j) for i in range(n) for j in range(n) if adj[i][j]]
    m = [[0] * n for _ in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        am = [[0] * n for _ in range(n)]
        for i, j in edges:
            am[i] = [x + y for x, y in zip(am[i], m[j])]
        for i in range(n):
            am[i][i] += coeffs[-1]
        m = am
        trace = sum(m[j][i] for i, j in edges)
        assert trace % k == 0
        coeffs.append(-(trace // k))
    return coeffs


@given(cycle_unions())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_adjacency_root_against_eigvals_and_the_characteristic_polynomial(adj):
    root = spectral._adjacency_root(adj)
    dense = max(np.linalg.eigvals(np.array(adj, dtype=float)).real)
    assert root == pytest.approx(dense, rel=1e-14, abs=0.0)
    # mpmath reference: Newton on the integer characteristic polynomial
    # at 100 digits, from the dense float root
    coeffs = _sparse_charpoly(adj)
    slope = [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]
    with mpmath.workdps(100):
        x = mpmath.mpf(dense)
        for _ in range(100):
            step = mpmath.polyval(coeffs, x) / mpmath.polyval(slope, x)
            x -= step
            if abs(step) < x * mpmath.mpf(10) ** -90:
                break
        assert abs(root - x) / x < 4 * 2.0**-53
        assert abs(spectral._adjacency_root(adj, 50) - x) / x < mpmath.mpf(10) ** -50


def _perron_root(mat):
    """Largest |eigenvalue| over the strongly connected blocks of a
    nonnegative matrix, from mpmath.eig: in each block the Perron root is
    simple, so it is resolved to the working precision even where the
    whole matrix has Jordan blocks."""
    n = len(mat)
    reach = [[i == j or bool(mat[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    blocks = {tuple(j for j in range(n) if reach[i][j] and reach[j][i]) for i in range(n)}
    return max(
        abs(mat[bl[0]][bl[0]]) if len(bl) == 1 else
        max(abs(x) for x in mpmath.eig(mpmath.matrix([[mat[a][b] for b in bl] for a in bl]),
                                       left=False, right=False))
        for bl in blocks
    )


@st.composite
def shifted_matrices(draw):
    """(M, rho, mu, b): a nonnegative M on 1-12 states with a random zero
    pattern and dyadic or non-dyadic mpf entries, a shift mu above or below
    its Perron root rho by a relative gap, and a right-hand side b.  Drawn
    inside mpmath.workdps(50), it takes rho from mpmath.eig at 50 digits."""
    n = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.2, 0.5, 0.9]))
    unit = mpmath.mpf(1) / draw(st.sampled_from([8, 3]))
    cells = draw(st.lists(st.tuples(st.floats(0, 1), st.integers(1, 64)), min_size=n * n,
                          max_size=n * n))
    mat = [[c * unit if u < density else mpmath.mpf(0) for u, c in cells[i * n:(i + 1) * n]]
           for i in range(n)]
    rho = _perron_root(mat)
    gap = draw(st.floats(1e-6, 1.0)) * max(rho, 1)
    mu = rho + gap if draw(st.booleans()) else rho - gap
    b = [mpmath.mpf(x) for x in draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))]
    return mat, rho, mu, b


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_planned_elimination_against_dense_references(data):
    with mpmath.workdps(50):
        mat, rho, mu, b = data.draw(shifted_matrices())
        n = len(mat)
        plan = spectral._elimination_plan(mat)
        passes, det, lu = spectral._shifted_lu(plan, mat, mu)
        # the same test in fixed point, on mat and mu floored at 2^-bits
        bits = mpmath.mp.prec
        fixed = [[int(mpmath.ldexp(x, bits)) for x in row] for row in mat]
        fixed_passes, fixed_det = spectral._fixed_test(plan, fixed, int(mpmath.ldexp(mu, bits)), bits)
        assert passes == fixed_passes == (mu > rho)
        a = mpmath.matrix([[(mu if i == j else 0) - mat[i][j] for j in range(n)] for i in range(n)])
        scale = (abs(mu) + max(sum(row) for row in mat)) ** n
        if fixed_det is not None:  # an exact pair (m, e) for m * 2^e
            assert abs(mpmath.mpf(fixed_det) - mpmath.det(a)) <= mpmath.mpf(10) ** -40 * scale
        if det is None:  # a leading block is singular, so mu <= rho
            assert mu < rho
            return
        assert abs(det - mpmath.det(a)) <= mpmath.mpf(10) ** -40 * scale
        if not det:
            return
        for transpose, dense in ((False, a), (True, a.T)):
            x = spectral._solve(plan, lu, b, transpose)
            ref = mpmath.lu_solve(dense, mpmath.matrix(b))
            tol = mpmath.mpf(10) ** -30 * max(max(abs(y) for y in ref), 1)
            assert all(abs(x[i] - ref[i]) <= tol for i in range(n))
