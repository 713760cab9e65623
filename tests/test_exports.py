"""The package exports exactly the ``__all__`` of its computing modules."""

from fractions import Fraction

import pytest

import zerotemp
from zerotemp import asymptotics, aubry, maxplus, spectral, symbolic, walters

MODULES = (symbolic, maxplus, spectral, aubry, asymptotics, walters)

DELETED = (
    "critical_floor",
    "max_cycle_mean",
    "symmetrized_mane_check",
    "walters_asymptotic_ratio",
    "golden_mean_shift",
    "_log_series",
    "FirstCoordPerturbation",
    "perron_core",
    "is_admissible",
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_module_name_resolves_on_the_package(module):
    for name in module.__all__:
        assert getattr(zerotemp, name) is getattr(module, name), name


def test_package_all_is_the_union_without_duplicates():
    assert len(zerotemp.__all__) == len(set(zerotemp.__all__))
    assert set(zerotemp.__all__) == {name for m in MODULES for name in m.__all__}


def test_deleted_names_are_gone():
    for name in DELETED:
        assert name not in zerotemp.__all__
        assert not any(hasattr(m, name) for m in (zerotemp,) + MODULES), name
    assert not hasattr(aubry.AubryDecomposition, "flagged_edges")
    assert not hasattr(spectral.LocallyConstantPotential, "is_normalized_for_optimization")
    assert not hasattr(aubry.WordGraph, "best_paths")
    assert not hasattr(aubry.WordGraph, "weight_matrix")
    assert not hasattr(maxplus, "_karp_scc")
    assert not hasattr(aubry, "_pred_cycle")
    assert "howard_cycle_mean" not in DELETED
    # the bare mean: the bias and the top cycle stay with policy_iteration
    assert maxplus.howard_cycle_mean(2, [(0, 1, 1), (1, 0, 2), (1, 1, 1)]) == Fraction(3, 2)
    for name in ("a_n", "partial_a", "cost_matrix"):
        assert not hasattr(walters.WaltersPotential, name), name
    assert not hasattr(walters, "MaxPlusMatrix")
    assert "theta" not in {f.name for f in symbolic.Sft.__dataclass_fields__.values()}
    assert "theta" not in {f.name for f in walters.WaltersPotential.__dataclass_fields__.values()}
