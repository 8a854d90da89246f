"""The package surface: what `duadic` exports, and that no test oracle is
defined in it."""

from __future__ import annotations

import importlib
import pkgutil

import duadic

import oracles

EXPECTED_ALL = [
    "AlgebraElement",
    "Antiautomorphism",
    "CayleyFormatError",
    "CssCode",
    "DEFAULT_ENUM_CAP",
    "DistanceRecord",
    "DuadicCodes",
    "DuadicError",
    "DuadicPair",
    "EnumerationCapError",
    "FiniteField",
    "FqClassPartition",
    "Group",
    "IdempotentSet",
    "LinearCode",
    "NoSplittingError",
    "PairAnalysis",
    "SplittingCheck",
    "VerificationError",
    "alg_mul",
    "analyze_pair",
    "apply_antiauto",
    "builtin_mu_minus1",
    "builtin_mu_swap",
    "check_splitting",
    "classify_duality",
    "code_from_ideal",
    "construct_pairs",
    "css_build",
    "css_distance",
    "cyclic_group",
    "degeneracy_report",
    "difference_min_weight",
    "dual",
    "duadic_codes",
    "field_from_order",
    "field_make",
    "fq_classes",
    "group_abelian",
    "group_from_cayley",
    "group_product",
    "hat_group",
    "hat_subgroup",
    "is_central",
    "is_even_like",
    "is_idempotent",
    "mu_action_on_class",
    "multiplicative_order_mod",
    "odd_like_bound",
    "odd_like_min_weight",
    "parse_cayley_text",
    "product_antiauto",
    "product_duadic",
    "quantum_duadic",
    "read_cayley_file",
    "split_primitive_central_idempotents",
    "splitting_exists_mu_minus1",
    "subcode_check",
    "verify_key_proposition",
    "weight_distribution",
]


def test_all_is_the_expected_list():
    assert duadic.__all__ == EXPECTED_ALL


def test_every_exported_name_resolves():
    for name in duadic.__all__:
        value = getattr(duadic, name)
        assert getattr(value, "__module__", "duadic").startswith("duadic"), name


def test_no_oracle_name_is_defined_in_the_package():
    oracle_names = {
        name
        for name, value in vars(oracles).items()
        if callable(value) and getattr(value, "__module__", None) == oracles.__name__
    }
    # functions, classes and cached functions alike
    assert {"abelian_character_idempotents", "Polynomial", "_modulus_reduction"} <= oracle_names
    modules = [duadic] + [
        importlib.import_module(f"duadic.{info.name}") for info in pkgutil.iter_modules(duadic.__path__)
    ]
    for module in modules:
        assert not oracle_names & set(vars(module)), module.__name__
