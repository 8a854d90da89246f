"""The package surface: what `duadic` exports, and that no test oracle is
defined in it."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

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
    "cyclic_group",
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


# the public names of the core types, as EXPECTED_ALL pins the exports: a
# wrapper that restates an array index is re-added by editing this on purpose
EXPECTED_SURFACE = {
    "FiniteField": [
        "add", "coeffs_of", "frobenius", "from_int", "inv", "mul", "neg", "power", "sub",
        "vadd", "vfrobenius", "vinv", "vmul", "vneg", "vsub", "vsum",
    ],
    "Group": [
        "element_id", "element_orders", "element_tuple", "exponent", "is_abelian", "labels",
        "left_translation", "power", "right_translation",
    ],
    "Antiautomorphism": ["galois_exponents", "is_inversion_for"],
    "AlgebraElement": [
        "basis", "coefficient_sum", "field", "from_coeff_list", "group", "one", "scale",
        "to_pairs", "vec", "weight", "zero",
    ],
}

EXPECTED_SPLITTING_CHECK_FIELDS = ["ok", "fixed_class_ids", "partition"]


def test_core_type_surfaces_are_the_expected_lists():
    for name, expected in EXPECTED_SURFACE.items():
        cls = getattr(duadic, name)
        assert sorted(attr for attr in dir(cls) if not attr.startswith("_")) == expected, name


def test_splitting_check_fields_are_the_expected_list():
    assert [field.name for field in dataclasses.fields(duadic.SplittingCheck)] == EXPECTED_SPLITTING_CHECK_FIELDS
    assert not [attr for attr in dir(duadic.SplittingCheck) if not attr.startswith("_")]


ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_at_the_python_floor():
    # the parser of a newer Python accepts syntax the requires-python floor
    # lacks (except*, PEP 695 generics); parsing at the floor's grammar
    # catches it on any interpreter
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    version = (3, int(floor.group(1)))
    paths = sorted([*(ROOT / "src" / "duadic").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
