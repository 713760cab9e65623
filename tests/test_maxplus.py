import json
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


def test_karp_vs_brute_force_exact():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = [
            [
                NEG_INF if rng.random() < 0.3 else F(rng.randint(-12, 6), rng.randint(1, 3))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        m = MaxPlusMatrix.from_rows(rows)
        expected = _brute_best_cycle_mean(m)
        if expected is None:
            with pytest.raises(NoEigenvalueError):
                mp_eigenvalue(m)
        else:
            assert mp_eigenvalue(m) == expected


def test_restrict_and_shift():
    m = MaxPlusMatrix.from_rows([[0.0, -1.0, -2.0], [-3.0, -4.0, -5.0], [-6.0, -7.0, -8.0]])
    r = m.restrict((0, 2))
    assert r.entries == ((0.0, -2.0), (-6.0, -8.0))
    assert m.shifted(1.0)[0, 1] == 0.0


def shift_eigenvalue(monkeypatch, shift):
    """mp_eigenvectors then works from Karp's eigenvalue plus shift."""
    monkeypatch.setattr(maxplus, "mp_eigenvalue", lambda m, karp=mp_eigenvalue: karp(m) + shift)


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
