"""The public surface of quadlink, and the reference layer that lives in the tests."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import quadlink

import oracles

PUBLIC = [
    "CyclotomicSum",
    "QmodZ",
    "cyclo_abs_squared",
    "cyclo_equals",
    "cyclo_from_residues",
    "cyclotomic_polynomial",
    "IntMatrix",
    "SmithDecomposition",
    "determinant",
    "intmatrix",
    "kernel_basis",
    "smith_normal_form",
    "solve_integer",
    "solve_mod2",
    "DiscriminantData",
    "discriminant",
    "is_characteristic",
    "phi_table",
    "wu_classes",
    "DEFAULT_ORDER_CAP",
    "FiniteAbelianGroup",
    "Fingerprint",
    "GroupIso",
    "OrderCapExceeded",
    "QuadraticFunction",
    "table_fingerprint",
    "DecoratedPresentation",
    "Destabilize",
    "HandleSlide",
    "PresentationError",
    "ReverseOrientation",
    "SlamDunk",
    "Stabilize",
    "YMove",
    "apply_move",
    "chern_equal",
    "enumerate_moves",
    "presentation",
    "random_walk",
    "spin_structures",
    "EquivalenceVerdict",
    "InvariantReport",
    "canonical_chern_vectors",
    "invariants_report",
    "lens_diffeo_count",
    "lens_yc_count",
    "yc_classes",
    "yc_equivalent",
    "spaces",
    "__version__",
]

# the rational reference layer and the second finite decision route: no
# decision, report or CLI command reaches them, so they live in oracles
MOVED = [
    "qmodz_reduce",
    "cyclo_from_angles",
    "residue_multiset",
    "RationalVector",
    "_frac_vec",
    "_dot",
    "phi_eval",
    "linking_pairing",
    "evaluation_pairing",
    "radical_slope",
    "chern_coordinates",
    "bilinear_of",
    "defect_of",
    "gauss_sum",
    "radical_compatible",
    "invariant_fingerprint",
    "is_isomorphic",
    "yc_equivalent_by_pairing",
    "_PAIRING_REASONS",
]
MOVED_METHODS = ["lifts", "dual_contains", "require_dual", "torsion_lift"]

# every verdict is definite, so the vocabulary of an indefinite one is gone;
# oracles keeps its own for the budgeted sweep
RETIRED = ["UNKNOWN", "DEFAULT_SEARCH_BUDGET", "EXIT_UNKNOWN", "_add_budget"]

MODULES = [importlib.import_module(f"quadlink.{m.name}") for m in pkgutil.iter_modules(quadlink.__path__)]


def test_the_public_names_are_pinned():
    assert quadlink.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(quadlink, name) is not None, name


@pytest.mark.parametrize("module", [quadlink, *MODULES], ids=lambda m: m.__name__)
def test_the_reference_layer_left_the_library(module):
    assert [name for name in MOVED if hasattr(module, name)] == []


def test_the_reference_layer_lives_in_the_oracles():
    assert [name for name in MOVED if not hasattr(oracles, name)] == []
    # the rational lifts are functions of the discriminant data, not methods
    assert [name for name in MOVED_METHODS if hasattr(quadlink.DiscriminantData, name)] == []
    assert [name for name in MOVED_METHODS if not callable(getattr(oracles, name, None))] == []
    lattice = importlib.import_module("quadlink.lattice")
    assert not hasattr(lattice, "Fraction") and not hasattr(lattice, "QmodZ")


@pytest.mark.parametrize("module", [quadlink, *MODULES], ids=lambda m: m.__name__)
def test_the_indefinite_verdict_is_retired(module):
    assert [name for name in RETIRED if hasattr(module, name)] == []


def test_no_budget_and_no_smith_log_is_kept():
    assert not hasattr(quadlink.EquivalenceVerdict, "is_definite")
    for entry in (quadlink.yc_equivalent, quadlink.yc_classes):
        assert "budget" not in inspect.signature(entry).parameters
    # nothing read the Smith log or its indices once discriminant had built its data
    fields = {f.name for f in dataclasses.fields(quadlink.DiscriminantData)}
    assert fields.isdisjoint({"smith", "torsion_indices", "free_indices"})
