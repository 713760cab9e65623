import gc
import itertools
import math
import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerotemp import (
    EmptyAubrySetError,
    LocallyConstantPotential,
    PositiveCycleError,
    Sft,
    decompose_aubry,
    enumerate_words,
    full_shift,
    mane_potential,
    mp_eigenvalue,
    word_graph,
)
from zerotemp import asymptotics, aubry, maxplus
from zerotemp.asymptotics import Analysis
from zerotemp.maxplus import NEG_INF
from zerotemp.verify import lc1_potential, lc2_potential, three_symbol_potential, zero_potential

from conftest import TABLES, table_potential, two_zero_blocks_potential


def test_word_graph_shape():
    g = word_graph(lc1_potential())
    assert g.nodes == ((0,), (1,))
    assert len(g.edges) == 4
    weights = {(u, v): w for (u, v, w) in g.edges}
    assert weights[(0, 0)] == 0.0 and weights[(0, 1)] == -1.0


def test_max_cycle_mean_zero_for_normalized():
    for pot in (lc1_potential(), lc2_potential(), three_symbol_potential()):
        g = word_graph(pot)
        assert maxplus.howard_cycle_mean(g.n, g.edges) == 0.0


def test_mane_values():
    g1 = word_graph(lc1_potential())
    assert mane_potential(g1, 0, 1) == -1.0
    g2 = word_graph(lc2_potential())
    assert mane_potential(g2, 1, 0) == -2.0
    assert mane_potential(g2, 0, 1) == -1.0
    assert mane_potential(g2, 0, 0) == 0.0  # the zero self-loop


def test_mane_triangle_inequality():
    for pot in (lc2_potential(), three_symbol_potential()):
        g = word_graph(pot)
        n = g.n
        s = [[mane_potential(g, u, v) for v in range(n)] for u in range(n)]
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    if s[u][v] == NEG_INF or s[v][w] == NEG_INF:
                        continue
                    assert s[u][v] + s[v][w] <= s[u][w] + 1e-12


def test_positive_cycle_rejected():
    sft = full_shift(1)
    pot = LocallyConstantPotential.from_table(
        sft, {"00": 0.1, "01": -1.0, "10": -1.0, "11": 0.0}
    )
    with pytest.raises(PositiveCycleError):
        mane_potential(word_graph(pot), 0, 1)


def bumped(k, words, bump):
    """Full 2-shift table on (k+1)-words: 0 on the fixed points, uniform
    in [-4, -1] elsewhere, with ``words`` raised to ``bump``."""
    rng = random.Random(1)
    table = {w: 0.0 if len(set(w)) == 1 else -rng.uniform(1.0, 4.0)
             for w in itertools.product((0, 1), repeat=k + 1)}
    for w in words:
        table[w] = bump
    return LocallyConstantPotential(full_shift(1), k, table)


@pytest.mark.parametrize("k, words, components", [
    *((k, [(0,) * (k + 1)], ((0,), (2**k - 1,))) for k in (1, 4, 6, 7, 8)),
    # the 2-cycle of the orbit 0101...
    (8, [tuple((s + i) % 2 for i in range(9)) for s in (0, 1)], ((0,), (85, 170), (255,))),
])
def test_near_zero_cycle_is_judged_by_its_weight_not_by_n(k, words, components):
    # from n = 128 on, the bumped edges weigh more than ZERO_CYCLE_TOL / n,
    # so the potential comes from policy iteration and its top cycle is
    # judged by its weight: a cycle of weight 1e-14 is still a zero-weight
    # cycle at every n, and a cycle of weight 1e-11 is a positive one
    d = decompose_aubry(word_graph(bumped(k, words, 1e-14 / len(words))))
    assert d.components == components
    with pytest.raises(PositiveCycleError):
        decompose_aubry(word_graph(bumped(k, words, 1e-11 / len(words))))


def orbit_words(seq, k):
    """The (k+1)-words along the periodic orbit of the 0/1 string seq."""
    return [tuple(int(seq[(i + t) % len(seq)]) for t in range(k + 1)) for i in range(len(seq))]


# m-sequences: every nonzero 4-word (5-word) once per period, so their
# orbits are simple cycles that miss the all-zero word at depth 4 to 8
M4, M5 = "000100110101111", "0000100101100111110001101110101"


@pytest.mark.parametrize("k, seq, mean, components", [
    (4, M4, 8e-14, None),
    (4, M4, 6.6e-14, ((0,), tuple(range(1, 16)))),
    (8, M5, 9.9e-14, None),
])
def test_each_near_zero_cycle_is_judged_by_its_own_weight(k, seq, mean, components):
    # the loop at 0...0, of weight 1e-13, holds the top mean and counts as
    # a zero-weight cycle; the orbit of seq has a lower mean, and is judged
    # by its own weight too: 15 * 8e-14 and 31 * 9.9e-14 are above
    # ZERO_CYCLE_TOL, 15 * 6.6e-14 is below
    table = {w: -1.0 for w in itertools.product((0, 1), repeat=k + 1)}
    table[(0,) * (k + 1)] = 1e-13
    for w in orbit_words(seq, k):
        table[w] = mean
    g = word_graph(LocallyConstantPotential(full_shift(1), k, table))
    if components is None:
        with pytest.raises(PositiveCycleError):
            decompose_aubry(g)
    else:
        assert decompose_aubry(g).components == components


@pytest.mark.parametrize("loop, components", [(3e-12, None), (8e-13, ((0,), (1,)))])
def test_a_cycle_below_the_float_tolerance_is_judged_on_exact_weights(loop, components):
    # the loop at 0 gains less over the edge 0 -> 1 than the float
    # tolerance 4e-12 of policy iteration, which so misses it; it leaves a
    # reduced weight above ZERO_CYCLE_TOL / n, so the exact weights decide:
    # a positive cycle at 3e-12, a zero-weight one at 8e-13
    pot = LocallyConstantPotential.from_table(full_shift(1), {"00": loop, "01": 4.0, "10": -4.5, "11": 0.0})
    if components is None:
        with pytest.raises(PositiveCycleError):
            decompose_aubry(word_graph(pot))
    else:
        assert decompose_aubry(word_graph(pot)).components == components


def test_empty_aubry_set_detected():
    sft = full_shift(1)
    pot = LocallyConstantPotential.from_table(
        sft, {"00": -1.0, "01": -1.0, "10": -1.0, "11": -1.0}
    )
    with pytest.raises(EmptyAubrySetError):
        decompose_aubry(word_graph(pot))


def test_symmetrized_check_matches_components():
    g = word_graph(three_symbol_potential())
    d = decompose_aubry(g)
    assert d.components == ((0,), (1, 2))

    def symmetrized(u, v):  # S(u, v) + S(v, u)
        return mane_potential(g, u, v) + mane_potential(g, v, u)

    assert symmetrized(1, 2) == 0.0
    assert symmetrized(0, 1) < 0.0
    assert symmetrized(0, 0) == 0.0


def test_decomposition_closed_forms():
    d1 = decompose_aubry(word_graph(lc1_potential()))
    assert d1.components == ((0,), (1,))
    assert d1.entropies == (0.0, 0.0)
    assert d1.cost.entries == ((-2.0, -1.0), (-1.0, -2.0))
    d2 = decompose_aubry(word_graph(lc2_potential()))
    assert d2.cost.entries == ((-3.0, -2.0), (-1.0, -3.0))
    d3 = decompose_aubry(word_graph(three_symbol_potential()))
    assert d3.cost.entries == ((-2.0, -1.0), (-1.0, -1.0))
    assert mp_eigenvalue(d3.cost) == -1.0


def test_zero_potential_single_component():
    d = decompose_aubry(word_graph(zero_potential()))
    assert d.components == ((0, 1),)
    assert d.entropies[0] == pytest.approx(math.log(2), abs=1e-12)
    # every edge is internal critical, so no travelling cost exists
    assert d.cost.entries == ((NEG_INF,),)


def test_positive_entropy_component_dominates():
    d = decompose_aubry(word_graph(two_zero_blocks_potential()))
    assert d.components == ((0,), (1, 2))
    assert d.entropies[0] == 0.0
    assert d.entropies[1] == pytest.approx(math.log(2), abs=1e-12)
    assert d.maximal_set == (1,)
    # entering the {1,2} block from itself passes through symbol 0
    assert d.maximal_cost().entries == ((-2.0,),)


def test_noncritical_internal_edges_flagged():
    sft = full_shift(2)
    pot = LocallyConstantPotential.from_table(
        sft,
        {
            "00": 0.0,
            "12": 0.0,
            "21": 0.0,
            "11": -0.3,
            "22": -1.0,
            "01": -1.0,
            "10": -1.0,
            "02": -1.0,
            "20": -1.0,
        },
    )
    d = decompose_aubry(word_graph(pot))
    assert d.components == ((0,), (1, 2))
    # the non-critical self-loop inside a component still contributes a
    # cost candidate
    assert d.cost[1, 1] == -0.3


def test_lemma_cost_laws_on_decompositions():
    for pot in (lc1_potential(), lc2_potential(), three_symbol_potential(), two_zero_blocks_potential()):
        cost = decompose_aubry(word_graph(pot)).cost
        n = cost.n
        for i in range(n):
            assert cost[i, i] < 0
            for j in range(n):
                assert cost[i, j] != NEG_INF and cost[i, j] <= 0
                for l in range(n):
                    assert cost[l, i] + cost[i, j] <= cost[l, j] + 1e-12


def test_best_paths_are_freed_with_the_graph():
    # values no other test uses, so no equal graph was seen before
    pot = LocallyConstantPotential.from_table(
        full_shift(1), {"00": 0.0, "01": -0.7, "10": -1.3, "11": 0.0}
    )
    g = word_graph(pot)
    decompose_aubry(g)
    mane_potential(g, 0, 1)
    assert "_successors" in vars(g)  # the successor lists go with it
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


# dyadic weights, so every path sum is exact whatever the summation order
WEIGHTS = (0.0, 0.0, -0.25, -0.5, -1.0, -1.5, -3.0)


@st.composite
def small_potentials(draw):
    """A table of WEIGHTS on a random SFT whose word graph has <= 8 states.

    (2, 3) is listed three times: most random shifts cut its 8 states to
    5 or fewer, so the weight keeps the larger graphs common."""
    a, depth = draw(st.sampled_from([(2, 3), (2, 3), (2, 3), (4, 1), (2, 2), (3, 1), (2, 1)]))
    row = st.lists(st.sampled_from([True, True, False]), min_size=a, max_size=a).filter(any)
    rows = draw(st.lists(row, min_size=a, max_size=a).filter(lambda m: all(map(any, zip(*m)))))
    sft = Sft(a, tuple(map(tuple, rows)))
    words = enumerate_words(sft, depth + 1)
    values = draw(st.lists(st.sampled_from(WEIGHTS), min_size=len(words), max_size=len(words)))
    return LocallyConstantPotential(sft, depth, dict(zip(words, values)))


def simple_walks(g):
    """Every simple path u -> v (u != v) and simple cycle u -> u, as
    (u, v, [edge indices])."""
    out = []

    def extend(start, node, path, seen):
        for e, (x, v, _) in enumerate(g.edges):
            if x != node:
                continue
            if v == start:
                out.append((start, start, path + [e]))
            elif v not in seen:
                out.append((start, v, path + [e]))
                extend(start, v, path + [e], seen | {v})

    for s in range(g.n):
        extend(s, s, [], {s})
    return out


ORACLE = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@ORACLE
@given(small_potentials())
def test_mane_potential_matches_path_enumeration(pot):
    g = word_graph(pot)
    brute = [[NEG_INF] * g.n for _ in range(g.n)]
    for u, v, path in simple_walks(g):
        brute[u][v] = max(brute[u][v], sum(g.edges[e][2] for e in path))
    assert [[mane_potential(g, u, v) for v in range(g.n)] for u in range(g.n)] == brute

    aubry = {u for u in range(g.n) if brute[u][u] == 0.0}
    if not aubry:
        with pytest.raises(EmptyAubrySetError):
            decompose_aubry(g)
        return
    comps = decompose_aubry(g).components
    assert {v for c in comps for v in c} == aubry
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    for u in aubry:
        for v in aubry:
            assert (comp_of[u] == comp_of[v]) == (brute[u][v] + brute[v][u] == 0.0)


@ORACLE
@given(small_potentials(), st.data())
def test_planted_positive_cycle_is_rejected(pot, data):
    g = word_graph(pot)
    cycles = [path for u, v, path in simple_walks(g) if u == v]
    path = data.draw(st.sampled_from(cycles))
    # raise the first edge of the cycle until the cycle weighs +0.5
    u, v, _ = g.edges[path[0]]
    word = g.nodes[u] + g.nodes[v][-1:]
    rest = sum(g.edges[e][2] for e in path[1:])
    planted = LocallyConstantPotential(pot.sft, pot.depth, {**pot.values, word: 0.5 - rest})
    with pytest.raises(PositiveCycleError):
        decompose_aubry(word_graph(planted))


def floyd_warshall(g):
    """best[u][v] over paths u -> v of length >= 1, by the dense closure."""
    best = [[NEG_INF] * g.n for _ in range(g.n)]
    for u, v, w in g.edges:
        best[u][v] = max(best[u][v], w)
    for k in range(g.n):
        for i in range(g.n):
            if best[i][k] != NEG_INF:
                best[i] = [max(b, best[i][k] + c) for b, c in zip(best[i], best[k])]
    return best


def seeded_potential(seed, coboundary=True):
    """A WEIGHTS table on a full shift with 16-128 states, zero on 1-3 random
    periodic orbits of period <= 4, so that the Aubry set is not empty, plus
    a dyadic coboundary g(x) - g(y) on each edge x -> y: the cycle weights
    stay, but edges may weigh more than 0, so the analysis needs a
    nonzero potential, and critical edges need not weigh 0.  Returns the
    potential and g by state; without ``coboundary``, g = 0."""
    rng = random.Random(seed)
    d, depth = rng.choice([(1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (3, 2)])
    sft = full_shift(d)
    words = enumerate_words(sft, depth + 1)
    values = {w: rng.choice(WEIGHTS) for w in words}
    for _ in range(rng.randint(1, 3)):
        orbit = [rng.randrange(d + 1) for _ in range(rng.randint(1, 4))]
        for w in words:
            if any(list(w) == (orbit * (depth + 2))[i : i + depth + 1] for i in range(len(orbit))):
                values[w] = 0.0
    g = {x: rng.choice((0.0, 0.5, 1.0, 2.0, 4.0)) * coboundary for x in enumerate_words(sft, depth)}
    values = {w: a + g[w[:-1]] - g[w[1:]] for w, a in values.items()}
    return LocallyConstantPotential(sft, depth, values), g


def test_the_sink_exit_gives_a_reducible_shift_its_potential():
    # no path leads from 1 or 2 back to 0, so the loops 0, 1 and 2 (means 0,
    # -1.5 and -3.5) each hold a policy of their own unless every node has
    # an exit to one common cycle, and a bias of such policies would not
    # bound the edge 1 -> 2, which weighs more than 0
    trans = ((True, True, True), (False, True, True), (False, False, True))
    table = {"00": 0.0, "01": -3.5, "02": -3.25, "11": -1.5, "12": 1.25, "22": -3.5}
    g = word_graph(LocallyConstantPotential.from_table(Sft(3, trans), table))
    assert [[mane_potential(g, u, v) for v in range(g.n)] for u in range(g.n)] == floyd_warshall(g)
    assert mane_potential(g, 0, 2) == -2.25  # 0 -> 1 -> 2


def test_a_near_zero_loop_out_of_reach_takes_the_sink_loop_with_it():
    # the loop at 0, of mean 1e-13 <= ZERO_CYCLE_TOL / n, is out of reach of
    # 1 and 2, whose best cycle is the exit to the sink: unless the sink's
    # loop weighs 1e-13 too, 0 keeps its loop, 1 and 2 their exits, and
    # their biases leave the edge 0 -> 1 a reduced weight of 1.25 - 1
    trans = ((True, True, True), (False, True, True), (False, False, True))
    table = {"00": 1e-13, "01": -1.0, "02": -3.25, "11": -1.5, "12": 1.25, "22": -3.5}
    g = word_graph(LocallyConstantPotential.from_table(Sft(3, trans), table))
    u = g.potential
    assert all(w + u[x] - u[y] <= aubry.ZERO_CYCLE_TOL / g.n for x, y, w in g.edges)
    assert decompose_aubry(g).components == ((0,),)
    assert mane_potential(g, 0, 2) == 0.25  # 0 -> 1 -> 2


@pytest.mark.parametrize("seed", range(12))
def test_sparse_analysis_matches_dense_closure(seed):
    pot, _ = seeded_potential(seed)
    g = word_graph(pot)
    assert 16 <= g.n <= 128
    best = floyd_warshall(g)
    assert [[mane_potential(g, u, v) for v in range(g.n)] for u in range(g.n)] == best

    critical = sorted((u, v) for u, v, w in g.edges if w + (0.0 if u == v else best[v][u]) == 0.0)
    aubry = sorted({u for u, _ in critical})
    comps = []
    for u in aubry:
        if not any(u in c for c in comps):
            comps.append(tuple(v for v in aubry if v == u or best[u][v] + best[v][u] == 0.0))
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    cost = [[NEG_INF] * len(comps) for _ in comps]
    # from the base c[0] of Sigma_j to u, then u -> v, then back to the base
    # of Sigma_i: the critical edges need not weigh 0
    for u, v, w in g.edges:
        i = comp_of.get(v)
        if i is None or ((u, v) in critical and comp_of.get(u) == i):
            continue
        back = 0.0 if v == comps[i][0] else best[v][comps[i][0]]
        for j, c in enumerate(comps):
            cost[i][j] = max(cost[i][j], (0.0 if u == c[0] else best[c[0]][u]) + w + back)

    d = decompose_aubry(g)
    assert d.components == tuple(comps)
    assert d.critical_pairs == tuple(critical)
    assert d.cost.entries == tuple(map(tuple, cost))


def inexact_mean_potential():
    """Full 3-shift table: -1 but on the 3-cycle 0 -> 1 -> 2 -> 0, whose
    edges weigh 1.1, 0.2 and 0.3."""
    table = {"".join(w): -1.0 for w in itertools.product("012", repeat=2)}
    table.update({"01": 1.1, "12": 0.2, "20": 0.3})
    return LocallyConstantPotential.from_table(full_shift(2), table)


def test_floor_returns_on_an_inexact_cycle_mean():
    # the 3-cycle has mean 1.6 / 3, not a float: after the shift by the
    # fsum mean m it weighs +1.1e-16, a rounding-sized positive cycle.  Its
    # edges weigh 1.1 - m, 0.2 - m and 0.3 - m, so the best return to the
    # base 0 is 0 -> 1 -> 0, of weight 0.1 - 2m, and V is S(0, x)
    m, adj, gamma, v, aubry = Analysis(inexact_mean_potential()).floor
    assert aubry == (0, 1, 2)
    assert (1.1 - m) + (0.2 - m) + (0.3 - m) > 0.0
    assert m == pytest.approx(1.6 / 3, abs=1e-15)
    assert adj == ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    assert gamma == pytest.approx(0.1 - 2 * m, abs=1e-15)
    assert v == pytest.approx((0.0, 1.1 - m, 1.3 - 2 * m), abs=1e-15)


@pytest.mark.parametrize("shift, error", [(1e-9, EmptyAubrySetError), (-1e-9, PositiveCycleError)])
def test_a_wrong_cycle_mean_never_reaches_perron(monkeypatch, shift, error):
    # the decomposition of A - m is the certificate of m: off by 1e-9, A - m
    # has no zero cycle or a positive one, so there is no floor, and perron
    # finds its own root
    pot = inexact_mean_potential()
    log_lambda = Analysis(pot).perron(8.0).log_lambda
    decompose, means = asymptotics.decompose_aubry, []

    def wrong_mean(g):  # m comes with the PositiveCycleError of A
        try:
            return decompose(g)
        except PositiveCycleError as e:
            means.append(e.mean + shift)
            raise PositiveCycleError(means[-1]) from None

    monkeypatch.setattr(asymptotics, "decompose_aubry", wrong_mean)
    an = Analysis(pot)
    with pytest.raises(error):
        an.decomposition
    m = means[0]
    assert m - shift == pytest.approx(1.6 / 3, abs=1e-15)
    assert an.graph.edges == tuple((u, v, w - m) for u, v, w in word_graph(pot).edges)
    assert an.floor is None
    assert an.perron(8.0).log_lambda == log_lambda == 4.266817706773091


def recorded(monkeypatch, original):
    """Wrap ``original`` in every zerotemp module that holds it; returns the
    list of the argument tuples of its calls."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name == "zerotemp" or name.startswith("zerotemp."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_floor_closes_only_the_cost_matrix(monkeypatch):
    calls = recorded(monkeypatch, maxplus._closure)
    an = Analysis(seeded_potential(0)[0])
    assert an.graph.n == 128
    assert an.floor is not None
    assert calls and max(b.n for (b,) in calls) <= len(an.decomposition.components)


@pytest.mark.parametrize("seed", range(40))
def test_a_coboundary_keeps_gamma_and_shifts_the_subaction_by_minus_g(seed):
    # A + g(x) - g(y) has the cycles of A, so the same gamma, and V - g is
    # calibrated for it; g moves the weights of the critical edges off 0
    (pot, _), (shifted, g) = seeded_potential(seed, coboundary=False), seeded_potential(seed)
    an, an_g = Analysis(pot), Analysis(shifted)
    assert an_g.gamma_maxplus == pytest.approx(an.gamma_maxplus, abs=1e-12)
    zero = (0,) * pot.word_length
    expected = [v - g[x] + g[zero] for v, x in zip(an.subaction_maxplus, an.graph.nodes)]
    assert an_g.subaction_maxplus == pytest.approx(expected, abs=1e-12)


def random_potential(k, low, high):
    """Full 2-shift table on (k+1)-words, uniform in [low, high]."""
    rng = random.Random(3)
    table = {w: rng.uniform(low, high) for w in itertools.product((0, 1), repeat=k + 1)}
    return LocallyConstantPotential(full_shift(1), k, table)


@pytest.mark.parametrize("low, high, error", [(-4.0, -1.0, EmptyAubrySetError), (-1.0, 3.0, PositiveCycleError)])
def test_floor_shifts_by_the_mean_of_a_critical_cycle(monkeypatch, low, high, error):
    # and, as in test_floor_closes_only_the_cost_matrix, builds no matrix
    # larger than the cost matrix of A - m
    sizes, check = [], maxplus.MaxPlusMatrix.__post_init__
    monkeypatch.setattr(maxplus.MaxPlusMatrix, "__post_init__", lambda mat: sizes.append(mat.n) or check(mat))
    pot = random_potential(8, low, high)
    an = Analysis(pot)
    assert an.graph.n == 256
    m, built = an.floor[0], list(sizes)
    with pytest.raises(error):
        decompose_aubry(word_graph(pot))
    d = an.decomposition
    assert built and max(built) <= len(d.components)
    succ, walk = dict(d.critical_pairs), [d.components[0][0]]
    while succ[walk[-1]] not in walk:
        walk.append(succ[walk[-1]])
    cycle = walk[walk.index(succ[walk[-1]]):]
    weight = {(x, y): w for x, y, w in word_graph(pot).edges}
    mean = math.fsum(weight[x, succ[x]] for x in cycle) / len(cycle)
    assert m == pytest.approx(mean, rel=1e-15, abs=0.0)


def test_policy_iteration_runs_only_when_an_edge_weighs_above_zero(monkeypatch):
    # every bench table weighs at most 0 on each edge: its potential is 0,
    # with no cycle routine run
    calls = recorded(monkeypatch, maxplus.policy_iteration)
    for name in TABLES:
        decompose_aubry(word_graph(table_potential(name)))
    for seed in range(6):
        decompose_aubry(word_graph(seeded_potential(seed, coboundary=False)[0]))
    assert calls == []
    with pytest.raises(PositiveCycleError):
        decompose_aubry(word_graph(random_potential(8, -1.0, 3.0)))
    assert len(calls) == 1


def test_a_graph_builds_its_successor_lists_once(monkeypatch):
    built, build = [], aubry.WordGraph._successors.func
    monkeypatch.setattr(aubry.WordGraph._successors, "func", lambda g: built.append(g.n) or build(g))
    g = word_graph(seeded_potential(3)[0])
    decompose_aubry(g)
    assert built == [g.n]
    for s in reversed(range(g.n)):
        mane_potential(g, s, 0)
    assert built == [g.n]


def shuffled(n, seed):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


@pytest.mark.parametrize("seed", range(4))
def test_rows_read_in_any_order_match_the_dense_closure_of_a_minus_m(seed):
    # + 0.25 on every word makes m = 0.25, so the graph read is A - m; the
    # coboundary leaves it a nonzero potential, and all sums stay dyadic
    pot, _ = seeded_potential(seed)
    an = Analysis(LocallyConstantPotential(pot.sft, pot.depth, {w: a + 0.25 for w, a in pot.values.items()}))
    g = an.graph
    assert g.edges == pot.edges and any(g.potential)
    best = floyd_warshall(g)
    for order in (reversed(range(g.n)), shuffled(g.n, seed)):
        fresh = aubry.WordGraph(g.nodes, g.edges)
        assert {s: fresh.paths_from(s) for s in order} == dict(enumerate(best))


def test_rows_of_a_reducible_shift_read_in_any_order_match_the_dense_closure():
    trans = ((True, True, True), (False, True, True), (False, False, True))
    table = {"000": -0.5, "001": 0.75, "002": -3.25, "011": -1.5, "012": 1.25, "022": -3.5,
             "111": 0.0, "112": -0.25, "122": -1.0, "222": -2.0}
    pot = LocallyConstantPotential.from_table(Sft(3, trans), table)
    best = floyd_warshall(word_graph(pot))
    for order in (range(len(pot.states)), reversed(range(len(pot.states)))):
        g = word_graph(pot)
        assert any(g.potential)
        assert {s: g.paths_from(s) for s in order} == dict(enumerate(best))
