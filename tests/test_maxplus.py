import json
import math
import random
from fractions import Fraction

import pytest

from zerotemp import (
    MaxPlusMatrix,
    NoEigenvalueError,
    mp_2x2_closed_form,
    mp_apply,
    mp_eigenvalue,
    mp_eigenvectors,
)
from zerotemp import maxplus
from zerotemp.cli import EXIT_NUMERICAL, EXIT_OK, main
from zerotemp.maxplus import NEG_INF
from zerotemp.verify import _brute_best_cycle_mean

from conftest import TABLES

F = Fraction


def test_matrix_must_be_square():
    with pytest.raises(ValueError):
        MaxPlusMatrix.from_rows([[0.0, 1.0], [0.0]])


def test_apply_dimension_mismatch():
    m = MaxPlusMatrix.from_rows([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        mp_apply(m, [0.0])


def test_apply_example():
    m = MaxPlusMatrix.from_rows([[-3.0, -2.0], [-1.0, -3.0]])
    assert mp_apply(m, [0.0, 0.5]) == [-1.5, -1.0]


def test_eigenvalue_two_cycle():
    m = MaxPlusMatrix.from_rows([[-2.0, -1.0], [-1.0, -2.0]])
    assert mp_eigenvalue(m) == -1.0


def test_eigenvalue_exact_half_integer():
    m = MaxPlusMatrix.from_rows([[F(-3), F(-2)], [F(-1), F(-3)]])
    lam = mp_eigenvalue(m)
    assert lam == F(-3, 2)
    assert isinstance(lam, Fraction)


def test_eigenvalue_acyclic_raises():
    m = MaxPlusMatrix.from_rows([[NEG_INF, 0.0], [NEG_INF, NEG_INF]])
    with pytest.raises(NoEigenvalueError):
        mp_eigenvalue(m)


def test_eigenvalue_homogeneity():
    rng = random.Random(7)
    for _ in range(20):
        rows = [[rng.uniform(-5, 5) for _ in range(3)] for _ in range(3)]
        m = MaxPlusMatrix.from_rows(rows)
        c = rng.uniform(-2, 2)
        assert mp_eigenvalue(m.shifted(c)) == pytest.approx(mp_eigenvalue(m) + c, abs=1e-12)


def test_eigenvector_of_asymmetric_cost():
    m = MaxPlusMatrix.from_rows([[F(-3), F(-2)], [F(-1), F(-3)]])
    eig = mp_eigenvectors(m)
    assert eig.eigenvalue == F(-3, 2)
    assert eig.eigenspace_dim == 1
    assert eig.eigenvectors == ((F(0), F(1, 2)),)


def test_eigenvector_identity_random():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 5)
        rows = [[rng.uniform(-4, 4) for _ in range(n)] for _ in range(n)]
        m = MaxPlusMatrix.from_rows(rows)
        eig = mp_eigenvectors(m)
        assert len(eig.eigenvectors) == eig.eigenspace_dim
        for v in eig.eigenvectors:
            lhs = mp_apply(m, list(v))
            assert all(abs(x - (eig.eigenvalue + y)) < 1e-9 for x, y in zip(lhs, v))


def test_two_component_eigenspace():
    m = MaxPlusMatrix.from_rows([[0.0, -5.0], [-5.0, 0.0]])
    eig = mp_eigenvectors(m)
    assert eig.eigenvalue == 0.0
    assert eig.eigenspace_dim == 2
    assert (0.0, -5.0) in eig.eigenvectors
    # second basis column (-5, 0) is pinned to start at 0
    assert (0.0, 5.0) in eig.eigenvectors


def test_duplicate_components_dedup():
    # two critical nodes joined by zero edges form one component, one vector
    m = MaxPlusMatrix.from_rows([[NEG_INF, 0.0], [0.0, NEG_INF]])
    eig = mp_eigenvectors(m)
    assert eig.eigenspace_dim == 1
    assert eig.eigenvectors == ((0.0, 0.0),)


def test_closed_form_branches():
    # max attained by a+b+d
    lam, off = mp_2x2_closed_form(F(0), F(-1), F(-4), F(-1))
    assert (lam, off) == (F(-2), F(1))
    # max attained by b+c+d
    lam, off = mp_2x2_closed_form(F(-4), F(-1), F(0), F(-1))
    assert (lam, off) == (F(-2), F(-1))
    # middle branch
    lam, off = mp_2x2_closed_form(F(0), F(-1), F(0), F(-2))
    assert (lam, off) == (F(-3, 2), F(1, 2))


def test_closed_form_matches_general_machinery():
    rng = random.Random(4242)
    for _ in range(200):
        a, b, c, d = (rng.uniform(-3, 3) for _ in range(4))
        m = MaxPlusMatrix.from_rows([[a + b + d, c + d], [a + b, b + c + d]])
        lam, off = mp_2x2_closed_form(a, b, c, d)
        assert mp_eigenvalue(m) == pytest.approx(lam, abs=1e-12)
        v = mp_eigenvectors(m).eigenvectors[0]
        assert v[1] - v[0] == pytest.approx(off, abs=1e-12)


def first_policy_mean(m):
    """Best cycle mean of the first policy of howard_cycle_mean: each node
    takes its heaviest out-edge (the first of equal ones), after the nodes
    from which every walk ends are pruned."""
    live = set(range(m.n))
    while any(all(m[i, j] == NEG_INF or j not in live for j in range(m.n)) for i in live):
        live = {i for i in live if any(m[i, j] != NEG_INF and j in live for j in range(m.n))}
    succ = {i: max((j for j in range(m.n) if j in live and m[i, j] != NEG_INF), key=lambda j: m[i, j]) for i in live}
    means = []
    for i in live:
        walk = [i]
        while succ[walk[-1]] not in walk:
            walk.append(succ[walk[-1]])
        cycle = walk[walk.index(succ[walk[-1]]):]
        means.append(F(sum(m[u, succ[u]] for u in cycle), len(cycle)))
    return max(means, default=None)


def random_exact(rng, n, p_missing, min_step=-math.inf):
    """n x n Fraction matrix, each entry -inf with probability p_missing,
    and entry (i, j) -inf whenever j - i < min_step: with min_step 0 the
    only cycles are self-loops, with 1 there is none."""
    return MaxPlusMatrix.from_rows([
        [
            NEG_INF if rng.random() < p_missing or j - i < min_step else F(rng.randint(-12, 6), rng.randint(1, 3))
            for j in range(n)
        ]
        for i in range(n)
    ])


def test_howard_vs_brute_force_exact():
    rng = random.Random(11)
    matrices = [random_exact(rng, rng.randint(1, 5), 0.3) for _ in range(100)]
    # reducible ones: several components, and nodes that start no cycle
    matrices += [random_exact(rng, rng.randint(2, 6), 0.75) for _ in range(100)]
    # ones whose only cycles are self-loops, and acyclic ones
    matrices += [random_exact(rng, rng.randint(1, 6), 0.2, min_step) for min_step in (0, 1) for _ in range(20)]
    # ones where the heaviest out-edges miss the best cycle: 0 -> 0 and
    # 1 -> 0 close a cycle of mean 0, and 0 -> 1 -> 0 has mean 1
    misled = [MaxPlusMatrix.from_rows([[F(0), F(-1)], [F(3), F(-5)]])]
    while len(misled) < 50:
        m = random_exact(rng, rng.randint(2, 6), 0.3)
        best = _brute_best_cycle_mean(m)
        if best is not None and first_policy_mean(m) < best:
            misled.append(m)
    matrices += misled
    acyclic = 0
    for m in matrices:
        expected = _brute_best_cycle_mean(m)
        if expected is None:
            acyclic += 1
            with pytest.raises(NoEigenvalueError):
                mp_eigenvalue(m)
        else:
            assert mp_eigenvalue(m) == expected
    assert acyclic >= 20


def test_restrict_and_shift():
    m = MaxPlusMatrix.from_rows([[0.0, -1.0, -2.0], [-3.0, -4.0, -5.0], [-6.0, -7.0, -8.0]])
    r = m.restrict((0, 2))
    assert r.entries == ((0.0, -2.0), (-6.0, -8.0))
    assert m.shifted(1.0)[0, 1] == 0.0


def shift_eigenvalue(monkeypatch, shift):
    """mp_eigenvectors then works from the maximum cycle mean plus shift."""
    monkeypatch.setattr(maxplus, "mp_eigenvalue", lambda m, mean=mp_eigenvalue: mean(m) + shift)


@pytest.mark.parametrize("shift", [1e-9, -1e-9, F(1, 10**30), F(-1, 10**30)])
def test_a_shifted_eigenvalue_raises(monkeypatch, shift):
    exact = isinstance(shift, Fraction)
    m = MaxPlusMatrix.from_rows([[F(x) if exact else float(x) for x in row] for row in ((-3, -2), (-1, -3))])
    assert mp_eigenvectors(m).eigenvalue == -1.5
    shift_eigenvalue(monkeypatch, shift)
    with pytest.raises(NoEigenvalueError):
        mp_eigenvectors(m)


@pytest.mark.parametrize("shift", [1e-10, -1e-10, 1e-11, -1e-11])
@pytest.mark.parametrize("rows", [((-3.0, -2.0), (-1.0, -3.0)), ((-1.0, -3.0), (-3.0, -2.0))])
def test_a_shift_within_the_zero_tolerance_fails_the_certificate(monkeypatch, rows, shift):
    # each critical edge still looks tight, so only the certificate sees it
    m = MaxPlusMatrix.from_rows(rows)
    mp_eigenvectors(m)
    shift_eigenvalue(monkeypatch, shift)
    with pytest.raises(NoEigenvalueError, match="not certified"):
        mp_eigenvectors(m)


@pytest.mark.parametrize("shift", [1e-10, -1e-10])
def test_gamma_exits_3_on_an_uncertified_eigenvalue(monkeypatch, tmp_path, capsys, shift):
    trans, table = TABLES["golden5"]
    cfg = {
        "potential": {"kind": "locally-constant", "alphabet_size": 2, "transitions": trans, "table": table},
        "beta_grid": [1.0, 2.0],
        "reports": ["gamma"],
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    argv = ["gamma", str(tmp_path / "cfg.json")]
    assert main(argv) == EXIT_OK
    shift_eigenvalue(monkeypatch, shift)
    capsys.readouterr()
    assert main(argv) == EXIT_NUMERICAL
    assert "not certified" in capsys.readouterr().err


def test_run_exits_3_when_policy_iteration_does_not_settle(monkeypatch, tmp_path, capsys):
    # not normalized, so perron's floor takes the maximum cycle mean of the
    # word graph: its heaviest out-edges 0 -> 0 and 1 -> 0 close a cycle of
    # mean 0, and a second round finds 0 -> 1 -> 0, of mean 1
    cfg = {
        "potential": {
            "kind": "locally-constant", "alphabet_size": 2, "transitions": [[1, 1], [1, 1]],
            "table": {"00": 0.0, "01": -1.0, "10": 3.0, "11": -5.0},
        },
        "beta_grid": [1.0, 2.0],
        "reports": ["measure"],
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    argv = ["run", str(tmp_path / "cfg.json")]
    assert main(argv) == EXIT_OK
    monkeypatch.setattr(maxplus, "HOWARD_ROUNDS", 1)
    capsys.readouterr()
    assert main(argv) == EXIT_NUMERICAL
    assert "did not settle in 1 rounds" in capsys.readouterr().err
