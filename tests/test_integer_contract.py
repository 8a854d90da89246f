"""The integer contract of the public API, driven by its signatures.

Every parameter annotated `int` of a callable in `duadic.__all__`, or of a
method of a class there, goes through `gf.as_int` (counts, orders, degrees,
exponents, caps) or `gf.as_indexes` (ids and field indexes).  So each one
refuses a float, an integral float, a str, a bool and a value one past its
documented range with a ValueError raised in `duadic`, never with numpy's
IndexError, AttributeError or OverflowError, and never with a result.  2^70
gives a result or that ValueError, without stalling.  -1 is refused where
the range excludes it (an id, an index, an order, a degree, a cap, or an
exponent the docstring bounds below) and taken everywhere else.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duadic
from duadic import (
    AlgebraElement,
    Antiautomorphism,
    DistanceRecord,
    FiniteField,
    FqClassPartition,
    analyze_pair,
    builtin_mu_minus1,
    builtin_mu_swap,
    construct_pairs,
    cyclic_group,
    difference_min_weight,
    duadic_codes,
    field_from_order,
    field_make,
    fq_classes,
    group_abelian,
    multiplicative_order_mod,
    odd_like_min_weight,
    splitting_exists_mu_minus1,
    weight_distribution,
)

PACKAGE = Path(duadic.__file__).parent

GF2, GF9 = field_from_order(2), field_from_order(9)
Z7, Z3X3 = cyclic_group(7), group_abelian([3, 3])
MU = builtin_mu_minus1(Z7)
PARTITION = fq_classes(Z7, 2)
PAIR = construct_pairs(MU, GF2, Z7)[0]
CODES = duadic_codes(PAIR)
ONE = AlgebraElement.one(GF9, Z7)

# (callable, parameter) -> (the call with that parameter set to v and the
# others valid, a value one past the documented range or None where every
# integer is in it, whether -1 is in the range)
CASES = {
    ("AlgebraElement.basis", "g"): (lambda v: AlgebraElement.basis(GF9, Z7, v), 7, False),
    ("AlgebraElement.basis", "coeff"): (lambda v: AlgebraElement.basis(GF9, Z7, 1, v), 9, False),
    ("AlgebraElement.scale", "s"): (lambda v: ONE.scale(v), 9, False),
    ("AlgebraElement.__pow__", "e"): (lambda v: ONE**v, -1, False),
    ("Antiautomorphism.__init__", "frobenius_power"): (lambda v: Antiautomorphism(Z7, Z7.inverse, v), -1, False),
    ("Antiautomorphism.galois_exponents", "q"): (lambda v: MU.galois_exponents(v), 6, False),
    ("DistanceRecord.__init__", "value"): (lambda v: DistanceRecord(v, True, "x"), None, False),
    ("FqClassPartition.__init__", "q"): (lambda v: FqClassPartition(Z7, v, PARTITION.class_of, PARTITION.reps), None, True),
    ("FiniteField.__init__", "p"): (lambda v: FiniteField(v, 1), 65537, False),
    ("FiniteField.__init__", "m"): (lambda v: FiniteField(3, v), 0, False),
    ("FiniteField.coeffs_of", "a"): (lambda v: GF9.coeffs_of(v), 9, False),
    ("FiniteField.from_int", "n"): (lambda v: GF9.from_int(v), None, True),
    ("FiniteField.add", "a"): (lambda v: GF9.add(v, 1), 9, False),
    ("FiniteField.add", "b"): (lambda v: GF9.add(1, v), 9, False),
    ("FiniteField.neg", "a"): (lambda v: GF9.neg(v), 9, False),
    ("FiniteField.sub", "a"): (lambda v: GF9.sub(v, 1), 9, False),
    ("FiniteField.sub", "b"): (lambda v: GF9.sub(1, v), 9, False),
    ("FiniteField.mul", "a"): (lambda v: GF9.mul(v, 2), 9, False),
    ("FiniteField.mul", "b"): (lambda v: GF9.mul(2, v), 9, False),
    ("FiniteField.inv", "a"): (lambda v: GF9.inv(v), 9, False),
    ("FiniteField.power", "a"): (lambda v: GF9.power(v, 2), 9, False),
    ("FiniteField.power", "e"): (lambda v: GF9.power(2, v), -1, False),
    ("FiniteField.frobenius", "a"): (lambda v: GF9.frobenius(v, 1), 9, False),
    ("FiniteField.frobenius", "t"): (lambda v: GF9.frobenius(2, v), None, True),
    ("FiniteField.vfrobenius", "t"): (lambda v: GF9.vfrobenius(np.arange(9), v), None, True),
    ("Group.power", "g"): (lambda v: Z7.power(v, 2), 7, False),
    ("Group.power", "e"): (lambda v: Z7.power(3, v), None, True),
    ("Group.element_tuple", "g"): (lambda v: Z3X3.element_tuple(v), 9, False),
    ("analyze_pair", "cap"): (lambda v: analyze_pair(PAIR, v), 0, False),
    ("builtin_mu_swap", "q"): (lambda v: builtin_mu_swap(Z3X3, v), 3, True),
    ("cyclic_group", "n"): (lambda v: cyclic_group(v), 0, False),
    ("difference_min_weight", "cap"): (lambda v: difference_min_weight(CODES.c_e, CODES.d_e, v), 0, False),
    ("field_from_order", "q"): (lambda v: field_from_order(v), 65537, False),
    ("field_make", "p"): (lambda v: field_make(v, 1), 65537, False),
    ("field_make", "m"): (lambda v: field_make(3, v), 0, False),
    ("fq_classes", "q"): (lambda v: fq_classes(Z7, v), 7, True),
    ("multiplicative_order_mod", "q"): (lambda v: multiplicative_order_mod(v, 7), 7, True),
    ("multiplicative_order_mod", "n"): (lambda v: multiplicative_order_mod(3, v), 0, False),
    ("odd_like_min_weight", "cap"): (lambda v: odd_like_min_weight(CODES, "e", v), 0, False),
    ("splitting_exists_mu_minus1", "n"): (lambda v: splitting_exists_mu_minus1(v, 2), 0, False),
    ("splitting_exists_mu_minus1", "q"): (lambda v: splitting_exists_mu_minus1(7, v), 7, True),
    ("weight_distribution", "cap"): (lambda v: weight_distribution(CODES.c_e, v), 0, False),
}

# the positions of a parse error, kept for its message: no computation reads them as counts
EXEMPT = {
    ("CayleyFormatError.__init__", "line"),
    ("CayleyFormatError.__init__", "column"),
}

NOT_INTEGERS = st.one_of(
    st.floats(),
    st.integers(-(2**80), 2**80).map(float),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.text(max_size=4),
    st.booleans(),
    st.booleans().map(np.bool_),
)


def _int_parameters() -> set[tuple[str, str]]:
    """(qualified name, parameter) for every parameter annotated int, or a union with int."""
    found = set()
    for name in duadic.__all__:
        obj = getattr(duadic, name)
        members = [(name, obj)]
        if inspect.isclass(obj):  # its public methods and its dunders
            members = [(f"{name}.{a}", m) for a, m in vars(obj).items() if not a.startswith("_") or a.endswith("__")]
        for qualname, member in members:
            func = inspect.unwrap(getattr(member, "__func__", member))  # a classmethod's, a cache's function
            if not inspect.isfunction(func):
                continue
            for param in inspect.signature(func).parameters.values():
                text = param.annotation if isinstance(param.annotation, str) else str(param.annotation)
                if "int" in text.replace(" ", "").split("|"):
                    found.add((qualname, param.name))
    return found


def _raises_in_duadic(call, value) -> None:
    with pytest.raises(ValueError) as info:
        call(value)
    tb = info.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert Path(tb.tb_frame.f_code.co_filename).parent == PACKAGE, (value, tb.tb_frame.f_code.co_filename)


def test_the_cases_cover_every_int_parameter():
    assert _int_parameters() == set(CASES) | EXEMPT


@pytest.mark.parametrize("key", sorted(CASES), ids="{0[0]}:{0[1]}".format)
def test_refused_where_documented_and_taken_where_not(key):
    call, past, takes_negative = CASES[key]
    for value in (1.5, 2.0, "2", True, False):
        _raises_in_duadic(call, value)
    if past is not None:
        _raises_in_duadic(call, past)
    if takes_negative:
        call(-1)
    else:
        _raises_in_duadic(call, -1)
    try:
        call(2**70)
    except ValueError:
        _raises_in_duadic(call, 2**70)


@pytest.mark.parametrize("key", sorted(CASES), ids="{0[0]}:{0[1]}".format)
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(value=NOT_INTEGERS)
def test_anything_but_an_integer_is_refused(key, value):
    _raises_in_duadic(CASES[key][0], value)
