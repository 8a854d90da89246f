"""Group construction, F_q-conjugacy classes, antiautomorphisms, file formats."""

from __future__ import annotations

import gc
import random
import re
import sys
import weakref
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duadic import groups
from duadic.duadic import check_splitting
from duadic.errors import CayleyFormatError
from duadic.gf import field_make
from duadic.groups import (
    Antiautomorphism,
    Group,
    _right_generators,
    builtin_mu_minus1,
    builtin_mu_swap,
    cyclic_group,
    fq_classes,
    group_abelian,
    group_from_cayley,
    group_product,
    is_subgroup,
    mu_action_on_class,
    parse_cayley_text,
    parse_permutation_text,
    product_antiauto,
)

from conftest import frobenius21_table, heisenberg27_table, metacyclic_table
from oracles import (
    format_cayley,
    reference_antiautomorphism_failure,
    reference_associativity_failure,
    reference_conjugacy_classes,
    reference_element_id,
    reference_element_tuple,
    reference_fq_classes,
    reference_labels,
)


class TestGroupConstruction:
    def test_cyclic7(self):
        g = group_abelian([7])
        assert g.order == 7 and g.exponent == 7
        assert g.table[3, 5] == 1
        assert g.inverse[3] == 4

    def test_z3z3(self):
        g = group_abelian([3, 3])
        assert g.order == 9 and g.exponent == 3
        assert g.element_tuple(0) == (0, 0)
        assert g.element_id((1, 2)) == g.table[g.element_id((1, 0)), g.element_id((0, 2))]

    def test_order81(self):
        g = group_abelian([3, 3, 3, 3])
        assert g.order == 81 and g.exponent == 3

    def test_mixed_radix_roundtrip(self):
        g = group_abelian([3, 5, 7])
        for i in range(g.order):
            assert g.element_id(g.element_tuple(i)) == i

    def test_rejects_small_factor(self):
        with pytest.raises(ValueError, match=">= 2"):
            group_abelian([3, 1])

    def test_rejects_above_cap(self):
        with pytest.raises(ValueError, match="cap"):
            group_abelian([3, 171])

    def test_trivial_cayley(self):
        g = group_from_cayley([[0]])
        assert g.order == 1 and g.exponent == 1

    def test_cayley_z7_matches_abelian(self):
        table = [[(a + b) % 7 for b in range(7)] for a in range(7)]
        assert group_from_cayley(table) == group_abelian([7])

    def test_frobenius21_is_valid_nonabelian(self, frobenius21):
        assert frobenius21.order == 21
        assert not frobenius21.is_abelian
        assert frobenius21.exponent == 21
        assert sorted(np.unique(frobenius21.element_orders).tolist()) == [1, 3, 7]

    def test_rejects_missing_identity(self):
        with pytest.raises(ValueError, match="identity"):
            group_from_cayley([[1, 0], [0, 1]])

    def test_rejects_non_permutation_row(self):
        with pytest.raises(ValueError, match="inverses"):
            group_from_cayley([[0, 1, 2], [1, 1, 1], [2, 0, 1]])

    def test_rejects_non_permutation_column(self):
        with pytest.raises(ValueError, match="some column is not a permutation"):
            group_from_cayley([[0, 1, 2], [1, 2, 0], [2, 1, 0]])

    def test_rejects_non_associative(self):
        # latin square with identity that is not a group (order 5 loop)
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValueError, match="associativity"):
            group_from_cayley(table)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="closure"):
            group_from_cayley([[0, 1], [1, 7]])

    def test_rejects_element_without_inverse(self):
        # row 1 holds no identity: its inverse stayed -1, and table[-1, 1]
        # (the last row, by negative indexing) happened to be 0
        with pytest.raises(ValueError, match=r"^not a group \(inverses\): element 1 lacks a two-sided inverse$"):
            Group([[0, 1, 2], [1, 1, 1], [2, 0, 0]])

    @pytest.mark.parametrize(
        "build",
        [pytest.param(lambda n=n: cyclic_group(n), id=f"z{n}") for n in (*range(1, 26), 63, 127, 255, 511)]
        + [
            pytest.param(lambda o=o: group_abelian(o), id="x".join(map(str, o)))
            for o in ([2, 2], [3, 3], [2, 4, 6], [3, 9], [5, 5, 5], [3, 3, 3, 3], [7, 73])
        ]
        + [
            pytest.param(lambda: group_product(cyclic_group(3), cyclic_group(5)), id="3,5"),
            pytest.param(lambda: group_product(group_abelian([3, 3]), group_abelian([3, 3])), id="3x3,3x3"),
            pytest.param(lambda: group_product(cyclic_group(7), group_from_cayley([[0]])), id="7,1"),
            pytest.param(lambda: group_product(group_from_cayley(metacyclic_table(7, 2)), cyclic_group(3)), id="7:3,3"),
            pytest.param(lambda: group_product(cyclic_group(5), group_from_cayley(metacyclic_table(13, 3))), id="5,13:3"),
        ],
    )
    def test_library_tables_pass_the_full_axiom_check(self, build):
        # the constructors skip the axiom check, which only outside tables need
        group = build()
        Group._validate(group.table)

    def test_product(self):
        g = group_product(group_abelian([3, 3]), group_abelian([3, 3]))
        assert g.order == 81
        assert g.abelian_orders == (3, 3, 3, 3)
        assert g == group_abelian([3, 3, 3, 3])

    def test_abelian_orders_come_from_the_constructors(self):
        # a caller cannot label a table with another group's cyclic factors
        with pytest.raises(TypeError):
            Group(cyclic_group(7).table, abelian_orders=(3, 3))
        assert Group(cyclic_group(7).table).abelian_orders is None
        assert group_abelian([3, 3]).abelian_orders == (3, 3)
        assert group_abelian([3, 3]).labels[5] == "a^1*b^2"
        product = group_product(cyclic_group(3), group_abelian([3, 3]))
        assert product.abelian_orders == (3, 3, 3) and product.labels[5] == "a^0*b^1*c^2"
        assert group_product(cyclic_group(3), group_from_cayley(cyclic_group(3).table)).abelian_orders is None

    @pytest.mark.parametrize(
        "table,message",
        [
            ([[0, 1]], r"must be square, got shape \(1, 2\)"),
            (np.zeros((0, 0), dtype=np.int64), "empty Cayley table"),
        ],
        ids=["non-square", "empty"],
    )
    def test_rejects_unsquare_and_empty_tables(self, table, message):
        for build in (Group, group_from_cayley):
            with pytest.raises(ValueError, match=message):
                build(table)

    def test_power(self):
        g = cyclic_group(7)
        assert g.power(3, 0) == 0
        assert g.power(3, 2) == 6
        assert g.power(3, -1) == 4

    def test_element_labels(self, frobenius21):
        g = group_abelian([3, 3])
        assert g.labels[g.element_id((1, 2))] == "a^1*b^2"
        # Cayley-table groups label by raw id
        assert frobenius21.labels[5] == "5"

    def test_label_table_is_built_once(self, frobenius21):
        for g in (group_abelian([3, 5, 3]), frobenius21):
            assert g.labels is g.labels and len(g.labels) == g.order
        assert list(frobenius21.labels) == [str(x) for x in range(21)]
        g = group_abelian([3, 5, 3])
        assert g.labels[g.element_id((2, 4, 1))] == "a^2*b^4*c^1"
        assert list(g.labels) == [f"a^{i}*b^{j}*c^{k}" for i in range(3) for j in range(5) for k in range(3)]

    @pytest.mark.parametrize(
        "name", ["element_orders", "exponent", "left_translation", "right_translation", "labels"]
    )
    def test_lazy_attribute_is_built_once(self, name):
        for g in (group_abelian([3, 5]), group_from_cayley(frobenius21_table())):
            assert name not in vars(g)
            value = getattr(g, name)
            assert vars(g)[name] is value and getattr(g, name) is value

    def test_subgroup_check(self):
        g = group_abelian([3, 3])
        a = g.element_id((1, 0))
        assert is_subgroup(g, [0, a, g.power(a, 2)])
        assert not is_subgroup(g, [0, a])
        assert not is_subgroup(g, [a])


class TestFqClasses:
    def test_z7_q2(self):
        p = fq_classes(cyclic_group(7), 2)
        assert p.classes == ((0,), (1, 2, 4), (3, 5, 6))
        assert p.reps == (0, 1, 3)

    def test_z3z3_q2(self):
        g = group_abelian([3, 3])
        p = fq_classes(g, 2)
        as_tuples = [tuple(g.element_tuple(x) for x in cls) for cls in p.classes]
        assert as_tuples == [
            ((0, 0),),
            ((0, 1), (0, 2)),
            ((1, 0), (2, 0)),
            ((1, 1), (2, 2)),
            ((1, 2), (2, 1)),
        ]

    def test_q_one_mod_exponent_gives_singletons(self):
        g = cyclic_group(5)
        p = fq_classes(g, 11)
        assert len(p) == 5 and all(len(c) == 1 for c in p.classes)

    def test_gcd_violation(self):
        with pytest.raises(ValueError, match="gcd"):
            fq_classes(cyclic_group(9), 3)

    @pytest.mark.parametrize("group_fixture", ["frobenius21", "heisenberg27"])
    @pytest.mark.parametrize("q", [2, 4, 5])
    def test_partition_invariants_nonabelian(self, group_fixture, q, request):
        g = request.getfixturevalue(group_fixture)
        p = fq_classes(g, q)
        seen = sorted(x for cls in p.classes for x in cls)
        assert seen == list(range(g.order))
        for cls in p.classes:
            members = set(cls)
            for x in cls:
                assert g.power(x, q) in members
                for h in range(g.order):
                    assert g.table[g.table[g.inverse[h], x], h] in members

    def test_identity_class_is_trivial(self, frobenius21):
        assert fq_classes(frobenius21, 2).classes[0] == (0,)

    def test_abelian_q_power_alone_generates(self):
        g = group_abelian([9, 3])
        p = fq_classes(g, 2)
        for cls in p.classes:
            seed = cls[0]
            orbit = {seed}
            x = seed
            while True:
                x = g.power(x, 2)
                if x in orbit:
                    break
                orbit.add(x)
            assert orbit == set(cls)


class TestAntiautomorphisms:
    def test_mu_minus1_trivial_group(self):
        g = group_from_cayley([[0]])
        mu = builtin_mu_minus1(g)
        assert mu.mu_star[0] == 0

    def test_mu_minus1_z7(self):
        mu = builtin_mu_minus1(cyclic_group(7))
        assert mu.mu_star[3] == 4

    def test_mu_minus1_is_built_once_per_group(self, frobenius21):
        for group in (cyclic_group(7), frobenius21):
            assert builtin_mu_minus1(group) == builtin_mu_minus1(group)
        assert builtin_mu_minus1(cyclic_group(7)) == builtin_mu_minus1(cyclic_group(7))

    def test_mu_minus1_does_not_keep_its_group_alive(self):
        # no reference cycle: the group goes when its last holder does,
        # without waiting for the cyclic collector
        gc.disable()
        try:
            group = cyclic_group(9)
            mu = builtin_mu_minus1(group)
            group_ref, mu_ref = weakref.ref(group), weakref.ref(mu)
            del group
            assert group_ref() is mu.group
            del mu
            assert group_ref() is None and mu_ref() is None
        finally:
            gc.enable()

    def test_mu_minus1_nonabelian_validates(self, frobenius21):
        mu = builtin_mu_minus1(frobenius21)
        t = frobenius21.table
        for g in range(21):
            for h in range(21):
                assert mu.mu_star[t[g, h]] == t[mu.mu_star[h], mu.mu_star[g]]

    def test_swap_examples(self):
        g = group_abelian([3, 3])
        mu = builtin_mu_swap(g, 2)
        assert g.element_tuple(mu.mu_star[g.element_id((1, 1))]) == (2, 1)
        assert mu.mu_star[0] == 0

    def test_swap_z5z5_q3(self):
        g = group_abelian([5, 5])
        mu = builtin_mu_swap(g, 3)
        assert g.element_tuple(mu.mu_star[g.element_id((1, 0))]) == (0, 1)

    def test_swap_rejects_bad_groups(self):
        with pytest.raises(ValueError, match="Z_p x Z_p"):
            builtin_mu_swap(cyclic_group(9), 2)
        with pytest.raises(ValueError, match="odd prime"):
            builtin_mu_swap(group_abelian([2, 2]), 3)
        with pytest.raises(ValueError, match="gcd"):
            builtin_mu_swap(group_abelian([3, 3]), 6)

    def test_rejects_non_antihomomorphism(self):
        g = group_abelian([5, 5])
        # transposition of two non-inverse elements breaks the axiom
        perm = list(range(25))
        perm[1], perm[2] = perm[2], perm[1]
        with pytest.raises(ValueError, match="antiautomorphism"):
            Antiautomorphism(g, perm)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="^mu_star must be a length-3 permutation$"):
            Antiautomorphism(cyclic_group(3), [0, 2])

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            Antiautomorphism(cyclic_group(3), [0, 1, 1])

    def test_product_of_inversions_is_inversion(self):
        z3 = cyclic_group(3)
        mu = product_antiauto(builtin_mu_minus1(z3), builtin_mu_minus1(z3))
        prod = group_product(z3, z3)
        assert np.array_equal(mu.mu_star, prod.inverse)

    def test_product_mismatched_frobenius(self):
        z7 = cyclic_group(7)
        mu1 = builtin_mu_minus1(z7)
        mu2 = Antiautomorphism(z7, z7.inverse.copy(), frobenius_power=1)
        with pytest.raises(ValueError, match="Frobenius"):
            product_antiauto(mu1, mu2)

    def test_product_on_a_group_of_another_order(self):
        z3 = cyclic_group(3)
        with pytest.raises(ValueError, match="product group does not match"):
            product_antiauto(builtin_mu_minus1(z3), builtin_mu_minus1(z3), cyclic_group(7))

    def test_product_with_trivial_factor(self):
        z7 = cyclic_group(7)
        triv = group_from_cayley([[0]])
        mu = product_antiauto(builtin_mu_minus1(z7), builtin_mu_minus1(triv))
        assert mu.group.order == 7
        assert np.array_equal(mu.mu_star, z7.inverse)

    def test_galois_exponents(self):
        z7 = cyclic_group(7)
        mu = Antiautomorphism(z7, z7.inverse.copy(), frobenius_power=1)
        k, ell = mu.galois_exponents(4)  # sigma = x -> x^2 on GF(4), k = 2 mod 7
        assert (k, ell) == (2, 4)
        assert k * ell % 7 == 1
        k0, ell0 = builtin_mu_minus1(z7).galois_exponents(4)
        assert (k0, ell0) == (1, 1)

    def test_galois_exponents_needs_a_prime_power(self):
        # 6 is no field order: p and the degree were once read off its least
        # prime factor, and the Frobenius power 1 gave (2, 4) with no error
        z7 = cyclic_group(7)
        mu = Antiautomorphism(z7, z7.inverse.copy(), frobenius_power=1)
        with pytest.raises(ValueError, match="6 is not a prime power"):
            mu.galois_exponents(6)
        with pytest.raises(ValueError, match="6 is not a prime power"):
            mu_action_on_class(mu, fq_classes(z7, 6), 1)


class TestClassAction:
    def test_mu_minus1_z7(self):
        g = cyclic_group(7)
        p = fq_classes(g, 2)
        mu = builtin_mu_minus1(g)
        assert mu_action_on_class(mu, p, 1) == 2
        assert mu_action_on_class(mu, p, 2) == 1
        assert mu_action_on_class(mu, p, 0) == 0

    def test_swap_moves_every_nontrivial_class_inversion_fixes_all(self):
        g = group_abelian([3, 3])
        p = fq_classes(g, 2)
        mu1 = builtin_mu_minus1(g)
        swap = builtin_mu_swap(g, 2)
        assert all(mu_action_on_class(mu1, p, c) == c for c in range(len(p)))
        moved = [c for c in range(1, len(p)) if mu_action_on_class(swap, p, c) != c]
        assert len(moved) == len(p) - 1
        # class of a = (1,0) goes to the class of b = (0,1)
        ca = p.class_of[g.element_id((1, 0))]
        cb = p.class_of[g.element_id((0, 1))]
        assert mu_action_on_class(swap, p, ca) == cb

    @pytest.mark.parametrize("q", [2, 4])
    def test_action_well_defined_on_members(self, frobenius21, q):
        p = fq_classes(frobenius21, q)
        mu = builtin_mu_minus1(frobenius21)
        _, ell = mu.galois_exponents(q)
        for cid, cls in enumerate(p.classes):
            target = mu_action_on_class(mu, p, cid)
            for x in cls:
                assert p.class_of[frobenius21.power(mu.mu_star[x], ell)] == target

    def test_action_rejects_another_group_and_class_ids_out_of_range(self):
        z7 = cyclic_group(7)
        mu, partition = builtin_mu_minus1(z7), fq_classes(z7, 2)
        with pytest.raises(ValueError, match="different groups"):
            mu_action_on_class(mu, fq_classes(cyclic_group(9), 2), 0)
        for cid in (-1, len(partition)):
            with pytest.raises(ValueError, match=rf"^class id {cid} out of range \[0, {len(partition)}\)$"):
                mu_action_on_class(mu, partition, np.array([0, cid]))

    def test_action_is_permutation_and_involution(self, frobenius21):
        p = fq_classes(frobenius21, 2)
        mu = builtin_mu_minus1(frobenius21)
        images = [mu_action_on_class(mu, p, c) for c in range(len(p))]
        assert sorted(images) == list(range(len(p)))
        for c in range(len(p)):
            assert mu_action_on_class(mu, p, images[c]) == c


def z11_text(cell=None, token=None, sep=" ") -> str:
    """The Cayley text of Z11, with the entry at cell = (row, column) written as token."""
    rows = [[str((a + b) % 11) for b in range(11)] for a in range(11)]
    if cell is not None:
        rows[cell[0]][cell[1]] = token
    return "11\n" + "\n".join(sep.join(row) for row in rows) + "\n"


class TestTextFormats:
    def test_cayley_roundtrip(self, frobenius21):
        text = format_cayley(frobenius21)
        again = parse_cayley_text(text)
        assert again == frobenius21

    def test_cayley_diagnostics(self):
        with pytest.raises(CayleyFormatError, match="line 1"):
            parse_cayley_text("zap")
        with pytest.raises(CayleyFormatError, match="3 entries"):
            parse_cayley_text("3\n0 1 2\n1 2\n2 0 1")
        with pytest.raises(CayleyFormatError, match="line 3, column 2"):
            parse_cayley_text("2\n0 1\n1 9")
        with pytest.raises(CayleyFormatError, match="empty"):
            parse_cayley_text("\n\n")

    def test_cayley_non_integer_entry(self):
        with pytest.raises(CayleyFormatError) as caught:
            parse_cayley_text("2\n0 x\n1 0\n")
        assert str(caught.value) == "non-integer table entry 'x' (line 2, column 2)"
        assert (caught.value.line, caught.value.column) == (2, 2)

    @pytest.mark.parametrize(
        "cell,token",
        [((2, 8), "+10"), ((1, 10), "-0"), ((2, 8), "1_0"), ((1, 2), "\u0663"), ((1, 2), "+3")],
        ids=["plus", "minus-zero", "underscore", "arabic-indic-digit", "plus-digit"],
    )
    def test_cayley_tokens_that_int_takes_read_as_it_reads_them(self, cell, token):
        # numpy's one-call reader refuses 1_0 and the Arabic-Indic 3, which
        # int() takes: the table is read again row by row
        assert parse_cayley_text(z11_text(cell, token)) == cyclic_group(11)

    def test_cayley_rows_split_by_tabs(self):
        assert parse_cayley_text(z11_text(sep="\t")) == cyclic_group(11)

    @pytest.mark.parametrize(
        "token,message",
        [
            ("1.0", "non-integer table entry '1.0' (line 3, column 1)"),
            ("1e3", "non-integer table entry '1e3' (line 3, column 1)"),
            ("-1", "table entry -1 out of range [0, 11) (line 3, column 1)"),
            ("99999999999999999999", "table entry 99999999999999999999 out of range [0, 11) (line 3, column 1)"),
        ],
    )
    def test_cayley_tokens_that_int_refuses_are_named(self, token, message):
        with pytest.raises(CayleyFormatError, match=f"^{re.escape(message)}$"):
            parse_cayley_text(z11_text((1, 0), token))

    def test_cayley_row_too_long_next_to_one_too_short(self):
        # the same number of tokens in all, so only the row counts tell
        lines = z11_text().splitlines()
        lines[2] += " 0"
        lines[3] = lines[3].rsplit(" ", 1)[0]
        with pytest.raises(CayleyFormatError, match=r"^expected 11 entries in table row 1, found 12 \(line 3\)$"):
            parse_cayley_text("\n".join(lines))

    def test_permutation_format(self):
        g = cyclic_group(7)
        mu = parse_permutation_text("7\n0 6 5 4 3 2 1\n0\n", g)
        assert np.array_equal(mu.mu_star, g.inverse)
        with pytest.raises(CayleyFormatError, match="order 5"):
            parse_permutation_text("5\n0 1 2 3 4\n", g)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("3\n0 x 2\n", "non-integer permutation image 'x' (line 2, column 2)"),
            ("3\n0 1 -1\n", "permutation image -1 out of range [0, 3) (line 2, column 3)"),
            ("3\n0 99999999999999999999 1\n", "permutation image 99999999999999999999 out of range [0, 3) (line 2, column 2)"),
            ("3\n0 1\n", "expected 3 images, found 2 (line 2)"),
        ],
    )
    def test_permutation_diagnostics(self, text, message):
        # one reader for both id files: an image is reported as a table entry is
        with pytest.raises(CayleyFormatError, match=f"^{re.escape(message)}$"):
            parse_permutation_text(text, cyclic_group(3))


# ---------------------------------------------------------------------------
# the vectorized group routines against their loop forms
# ---------------------------------------------------------------------------


def reference_is_subgroup(group, ids):
    s = set(int(x) for x in ids)
    if not s or 0 not in s:
        return False
    return all(int(group.table[a, b]) in s for a in s for b in s) and all(
        int(group.inverse[a]) in s for a in s
    )


def reference_element_orders(group):
    orders = np.ones(group.order, dtype=np.int64)
    for g in range(1, group.order):
        x, k = g, 1
        while x != 0:
            x, k = int(group.table[x, g]), k + 1
        orders[g] = k
    return orders


ORACLE_GROUPS = ["frobenius21", "heisenberg27", "z9z3", "z45", "z3z3z3z3"]


@pytest.fixture
def oracle_group(request):
    name = request.param
    if name in ("frobenius21", "heisenberg27"):
        return request.getfixturevalue(name)
    return {"z9z3": group_abelian([9, 3]), "z45": cyclic_group(45), "z3z3z3z3": group_abelian([3, 3, 3, 3])}[name]


@pytest.mark.parametrize("oracle_group", ORACLE_GROUPS, indirect=True)
class TestGroupRoutinesAgainstLoops:
    def test_element_orders_and_conjugacy_classes(self, oracle_group):
        g = oracle_group
        assert g.element_orders.tolist() == reference_element_orders(g).tolist()
        # with q = 1 mod the exponent, g^q = g: the F_q-classes are the conjugacy classes
        assert fq_classes(g, g.exponent + 1).classes == reference_conjugacy_classes(g)

    def test_is_subgroup(self, oracle_group):
        g = oracle_group
        rng = np.random.default_rng(g.order)
        cyclic = [sorted({g.power(x, e) for e in range(g.order)}) for x in range(g.order)]
        cases = [[0], list(range(g.order))] + cyclic
        for sub in cyclic[1:]:
            cases.append(sub[:-1])  # drops an element: not closed
            cases.append(sub[1:])  # drops the identity
            cases.append(sub + [int(rng.integers(1, g.order))])
        for size in (1, 2, 3, g.order // 3, g.order - 1):
            pick = rng.choice(g.order, size=size, replace=False)
            cases.append(pick.tolist())
            cases.append([0] + pick.tolist())
        cases.append([])
        expected = [reference_is_subgroup(g, ids) for ids in cases]
        assert [is_subgroup(g, ids) for ids in cases] == expected
        assert True in expected and False in expected

    def test_is_subgroup_rejects_ids_outside_the_group(self, oracle_group):
        assert not is_subgroup(oracle_group, [0, oracle_group.order])
        assert not is_subgroup(oracle_group, [0, -1])


# ---------------------------------------------------------------------------
# the table routines against their oracles, on the benchmark's groups
# ---------------------------------------------------------------------------

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
try:
    import pools
finally:
    sys.path.remove(str(BENCH))

TABLE_GROUPS = {
    **{f"z{n}": lambda n=n: cyclic_group(n) for n in (1, 3, 45, 199, 255, 511)},
    **{f"{p}x{p}": lambda p=p: group_abelian([p, p]) for p in (3, 5, 7, 11, 13)},
    "3x3,3x3": lambda: group_product(group_abelian([3, 3]), group_abelian([3, 3])),
    "7:3,5": lambda: group_product(group_from_cayley(metacyclic_table(7, 2)), cyclic_group(5)),
    "heisenberg27": lambda: group_from_cayley(heisenberg27_table()),
    # the benchmark pools' metacyclic groups; 7:3 is frobenius21
    **{
        f"{p}:{r}": lambda p=p, r=r: parse_cayley_text(pools.metacyclic_cayley_text(p, r))
        for p, r in pools.EXACT_METACYCLIC + pools.BOUND_METACYCLIC
    },
}
TABLE_QS = (2, 3, 4, 5, 7, 8, 9, 16)


@cache
def table_group(name: str) -> Group:
    return TABLE_GROUPS[name]()


def coprime_qs(group: Group) -> list[int]:
    return [q for q in TABLE_QS if np.gcd(q, group.order) == 1]


@pytest.mark.parametrize("name", TABLE_GROUPS)
class TestTableRoutinesAgainstOracles:
    def test_fq_classes(self, name):
        g = table_group(name)
        for q in coprime_qs(g):
            p = fq_classes(g, q)
            classes, reps, class_of = reference_fq_classes(g, q)
            assert (p.classes, p.reps, p.class_of.tolist()) == (classes, reps, class_of.tolist()), q

    def test_element_orders(self, name):
        g = table_group(name)
        assert g.element_orders.tolist() == reference_element_orders(g).tolist()

    def test_power_is_elementwise(self, name):
        g = table_group(name)
        ids = np.arange(g.order)
        assert g.power(ids, 0).tolist() == [0] * g.order
        assert g.power(ids, -1).tolist() == g.inverse.tolist()
        assert g.power(ids, 3).tolist() == g.table[g.table[ids, ids], ids].tolist()
        for e in (-(2**40) - 3, -g.order - 1, -2, 2, g.order + 1, 2**40 + 3):
            per_id = [g.power(x, e) for x in range(g.order)]
            assert all(type(x) is int for x in per_id)
            assert g.power(ids, e).tolist() == per_id, e

    def test_class_action_is_elementwise(self, name):
        g = table_group(name)
        for q in coprime_qs(g):
            p = fq_classes(g, q)
            cids = np.arange(len(p))
            mus = [builtin_mu_minus1(g), Antiautomorphism(g, g.inverse, frobenius_power=1)]
            if name in ("3x3", "5x5", "7x7", "11x11", "13x13"):
                mus.append(builtin_mu_swap(g, q))
            for mu in mus:
                per_id = [mu_action_on_class(mu, p, c) for c in range(len(p))]
                assert all(type(x) is int for x in per_id)
                assert mu_action_on_class(mu, p, cids).tolist() == per_id, (q, mu)


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts of Group._power (the kernel of every power) and Antiautomorphism.galois_exponents calls."""
    counts = Counter()
    for cls, name in ((Group, "_power"), (Antiautomorphism, "galois_exponents")):
        def counted(*args, _name=name, _method=getattr(cls, name)):
            counts[_name] += 1
            return _method(*args)

        monkeypatch.setattr(cls, name, counted)
    return counts


def test_fq_classes_calls_power_once(calls):
    # the closure called power once per element
    assert len(fq_classes(cyclic_group(45), 2)) == 8
    assert calls["_power"] == 1


def test_check_splitting_calls_galois_exponents_once(calls):
    # the class action computed the Galois exponents once per class
    g = cyclic_group(7)
    assert len(check_splitting(builtin_mu_minus1(g), field_make(2, 1), g).partition) == 3
    assert calls["galois_exponents"] == 1


# ---------------------------------------------------------------------------
# the associativity check on a generating set against the exhaustive one
# ---------------------------------------------------------------------------


def random_loop(n: int, rng: random.Random) -> np.ndarray:
    """A random Latin square of order n with identity 0, filled cell by cell
    with backtracking."""
    t = np.zeros((n, n), dtype=np.int64)
    t[0] = t[:, 0] = np.arange(n)
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(i: int) -> bool:
        if i == len(cells):
            return True
        r, c = cells[i]
        used = set(t[r, :c].tolist()) | set(t[:r, c].tolist())
        for s in rng.sample(range(n), n):
            if s not in used:
                t[r, c] = s
                if fill(i + 1):
                    return True
        return False

    assert fill(0)
    return t


def cycle_switch(table: np.ndarray, a: int, b: int) -> np.ndarray | None:
    """The Latin square with rows a, b != 0 exchanged on one cycle of the
    column map c -> (the column where row b holds table[a, c]) that misses
    column 0, so the identity stays; None if every cycle meets column 0."""
    pi = np.argsort(table[b])[table[a]]
    cycle, c = [], 0
    while True:
        c = pi[c]
        cycle.append(c)
        if c == 0:
            break
    rest = sorted(set(range(1, len(table))) - set(cycle))
    if not rest:
        return None
    cycle, c = [], rest[0]
    while c not in cycle:
        cycle.append(c)
        c = pi[c]
    t = table.copy()
    t[a, cycle], t[b, cycle] = table[b, cycle], table[a, cycle]
    return t


def _assert_validate_matches_exhaustive(table: np.ndarray) -> bool:
    """Group._validate raises for exactly the tables the exhaustive check
    rejects, naming its first failing triple; True iff it raised."""
    failure = reference_associativity_failure(table)
    if failure is None:
        Group._validate(table)
        return False
    a, b, c = failure
    with pytest.raises(ValueError, match=rf"^not a group \(associativity\): \({a}\*{b}\)\*{c} != {a}\*\({b}\*{c}\)$"):
        Group._validate(table)
    return True


BENCH_TABLES = [f"{p}:{r}" for p, r in pools.EXACT_METACYCLIC + pools.BOUND_METACYCLIC]


class TestAssociativityOnGenerators:
    def test_random_loops(self):
        rng = random.Random(17)
        rejected = sum(_assert_validate_matches_exhaustive(random_loop(n, rng)) for n in range(2, 10) for _ in range(12))
        assert rejected > 50  # most random loops of order >= 5 are not groups

    def test_groups_with_one_cycle_switched(self):
        # loops one Latin trade away from a group: most triples still associate
        rng = random.Random(29)
        tables = [table_group(name).table for name in ("z45", "5x5", "7:3,5", "heisenberg27")]
        tables += [table_group(name).table for name in BENCH_TABLES]
        tables += [np.arange(16)[:, None] ^ np.arange(16)]  # Z_2^4, full of intercalates
        rejected = 0
        for table in tables:
            for _ in range(4):
                a, b = rng.sample(range(1, len(table)), 2)
                switched = cycle_switch(table, a, b)
                if switched is not None:
                    rejected += _assert_validate_matches_exhaustive(switched)
        assert rejected > 20

    def test_loops_whose_first_generator_associates(self):
        # Z_k x Q with ids q * k + z: the first generator, id 1, spans Z_k,
        # which associates with everything, so a later generator must fail
        rng = random.Random(41)
        rejected = 0
        for k in (3, 4, 5):
            z = (np.arange(k)[:, None] + np.arange(k)) % k
            for _ in range(5):
                loop = random_loop(6, rng)
                table = (loop[:, None, :, None] * k + z[None, :, None, :]).reshape(6 * k, 6 * k)
                assert np.array_equal(table[table[:, 1]], table[:, table[1]])
                rejected += _assert_validate_matches_exhaustive(table)
        assert rejected > 10

    @pytest.mark.parametrize("name", BENCH_TABLES)
    def test_bench_tables(self, name):
        table = table_group(name).table
        assert reference_associativity_failure(table) is None
        Group._validate(table)

    @pytest.mark.parametrize(
        "build,size",
        [
            (lambda: cyclic_group(511), 1),
            (lambda: group_abelian([7, 73]), 2),
            (lambda: group_abelian([3] * 5), 5),
            (lambda: group_from_cayley(heisenberg27_table()), 3),
        ],
    )
    def test_generating_set_is_small(self, build, size):
        # greedy over a group: each new generator at least doubles the subgroup reached
        table = build().table
        gens = list(_right_generators(table))
        assert len(gens) == size and 2 ** len(gens) <= len(table)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: group_abelian([]), "need at least one cyclic factor"),
        (lambda: group_product(cyclic_group(23), cyclic_group(23)), "product order 529 exceeds the validation cap 512"),
        # these built Z3, stored Frobenius power 1, built Z7 and built the trivial group
        (lambda: group_abelian([3.5]), "^cyclic factor order must be an integer, got 3.5$"),
        (
            lambda: Antiautomorphism(cyclic_group(3), [0, 2, 1], frobenius_power=1.5),
            "^frobenius power must be an integer, got 1.5$",
        ),
        (lambda: cyclic_group(7.0), "^group order must be an integer, got 7.0$"),
        (lambda: cyclic_group(True), "^group order must be an integer, got True$"),
    ],
)
def test_public_input_guards_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("g", [-1, 7, np.array([0, 7])])
def test_power_rejects_an_id_out_of_range_and_an_exponent_that_is_not_an_integer(g):
    # power(-1, 2) read id -1 as 6 and returned 5, and id 7 raised numpy's IndexError
    with pytest.raises(ValueError, match=r"^id (-1|7) out of range \[0, 7\)$"):
        cyclic_group(7).power(g, 2)
    # a TypeError from `e & 1` before
    with pytest.raises(ValueError, match="^exponent must be an integer, got 1.5$"):
        cyclic_group(7).power(2, 1.5)


def test_antiautomorphism_rejects_images_that_are_not_integers():
    # truncated to the inversion [0, 2, 1] before
    with pytest.raises(ValueError, match="^indexes must be integers, got float64 entries$"):
        Antiautomorphism(cyclic_group(3), [0, 2.2, 1.1])


def test_cayley_tables_and_subgroups_reject_ids_that_are_not_integers():
    # the table was truncated to Z3's, and [0.5] to the subgroup {0}
    table = cyclic_group(3).table.astype(float)
    table[1, 1] += 0.5
    for call in (lambda: group_from_cayley(table), lambda: is_subgroup(cyclic_group(3), [0.5])):
        with pytest.raises(ValueError, match="^indexes must be integers, got float64 entries$"):
            call()


def test_powers_and_class_images_reject_ids_that_are_not_integers():
    # 1.5 was truncated to the id, or the class id, 1
    z3 = cyclic_group(3)
    partition = fq_classes(z3, 2)
    for call in (lambda: z3.power(1.5, 2), lambda: mu_action_on_class(builtin_mu_minus1(z3), partition, 1.5)):
        with pytest.raises(ValueError, match="^indexes must be integers, got float64 entries$"):
            call()


def test_element_tuples_need_an_abelian_product():
    cayley = group_from_cayley(cyclic_group(7).table)
    for call in (lambda: cayley.element_tuple(1), lambda: cayley.element_id((1,))):
        with pytest.raises(ValueError, match="element tuples only exist for abelian product groups"):
            call()
    with pytest.raises(ValueError, match="wrong tuple length"):
        group_abelian([3, 3]).element_id((1, 2, 0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: group_abelian([3, 3, 3, 3, 3]),
        lambda: group_abelian([7, 73]),
        lambda: group_abelian([13, 13]),
        lambda: group_abelian([511]),
        lambda: group_product(group_abelian([3, 3]), group_abelian([5, 5])),
    ],
    ids=["3x3x3x3x3", "7x73", "13x13", "511", "3x3,5x5"],
)
def test_ids_and_labels_match_the_digit_loops(build):
    g = build()
    orders = np.array(g.abelian_orders)
    for i in range(g.order):
        t = g.element_tuple(i)
        assert t == reference_element_tuple(g, i) and all(type(e) is int for e in t)
        assert g.element_id(t) == reference_element_id(g, t) == i
        # exponents are taken mod their factor's order
        for shifted in (np.array(t) + orders, np.array(t) - 2 * orders):
            assert g.element_id(shifted.tolist()) == reference_element_id(g, shifted.tolist()) == i
    assert g.labels == reference_labels(g)


def test_ids_outside_the_group_raise():
    g = group_abelian([3, 3])
    for bad in (9, -1):
        with pytest.raises(ValueError):
            g.element_tuple(bad)
    with pytest.raises(ValueError, match="^indexes must be integers, got float64 entries$"):  # numpy's TypeError before
        g.element_id((1.5, 0))


def test_hashes_follow_equality():
    z33 = group_abelian([3, 3])
    same = group_from_cayley(z33.table)
    assert same == z33 and hash(same) == hash(z33) and len({z33, same, cyclic_group(9)}) == 2
    swap = builtin_mu_swap(group_abelian([3, 3]), 2)
    assert swap == builtin_mu_swap(z33, 2) and hash(swap) == hash(builtin_mu_swap(z33, 2))
    assert len({swap, builtin_mu_swap(z33, 2), builtin_mu_minus1(z33)}) == 2


# ---------------------------------------------------------------------------
# the antiautomorphism law on a generating set, and the state a group caches
# ---------------------------------------------------------------------------

LAW_GROUPS = {
    "z9": lambda: cyclic_group(9),
    "z15": lambda: cyclic_group(15),
    "3x3x3": lambda: group_abelian([3, 3, 3]),
    "5x5": lambda: group_abelian([5, 5]),
    "3x3,7": lambda: group_product(group_abelian([3, 3]), cyclic_group(7)),
    "7:3": lambda: group_from_cayley(frobenius21_table()),
    "13:3": lambda: group_from_cayley(metacyclic_table(13, 3)),
    "3,7:3": lambda: group_product(cyclic_group(3), group_from_cayley(frobenius21_table())),
    "heisenberg27": lambda: group_from_cayley(heisenberg27_table()),
}


@cache
def law_group(name: str) -> Group:
    return LAW_GROUPS[name]()


def generated(table: np.ndarray, gens) -> set[int]:
    """The subgroup generated by gens, by closure under right multiplication."""
    reached, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for s in gens:
            if (y := int(table[x, s])) not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def right_cosets(table: np.ndarray, s: int) -> list[list[int]]:
    """The right cosets <s>h, each as h, s*h, s^2*h, ..., the identity's first."""
    cosets, seen = [], set()
    for h in range(len(table)):
        if h not in seen:
            orbit = [h]
            while (x := int(table[s, orbit[-1]])) != h:
                orbit.append(x)
            seen.update(orbit)
            cosets.append(orbit)
    return cosets


@st.composite
def law_cases(draw):
    """(group, perm fixing 0).  The group is a fresh copy with a random
    generating set S half the time.  The perm is nu, inversion after an inner
    automorphism (after a power map too, if abelian); nu with two images
    swapped; nu after a map rho with rho(s*h) = s*rho(h) for the first s in S,
    so the law holds for g = s and may fail for the rest of S; or any perm."""
    group = law_group(draw(st.sampled_from(sorted(LAW_GROUPS))))
    n, t, inv = group.order, group.table, group.inverse
    if draw(st.booleans()):
        gens = []
        for g in draw(st.permutations(range(1, n))):
            if len(reached := generated(t, gens)) == n:
                break
            if g not in reached:
                gens.append(g)
        group = Group(t)
        group._generators = tuple(gens)
    c = draw(st.integers(0, n - 1))
    perm = t[t[c, inv], inv[c]]  # x -> c x^-1 c^-1
    if group.is_abelian:
        k = draw(st.sampled_from([k for k in range(1, n) if np.gcd(k, n) == 1]))
        perm = perm[group.power(np.arange(n), k)]
    kind = draw(st.sampled_from(["anti", "swapped", "first-generator", "any"]))
    if kind == "swapped":
        a, b = draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True))
        perm[[a, b]] = perm[[b, a]]
    elif kind == "first-generator":
        # rho moves the coset <s>h to another, turned by s^k; it keeps <s>
        cosets = right_cosets(t, group._generators[0])
        rho = np.zeros(n, dtype=np.int64)
        for src, i in zip(cosets, [0, *draw(st.permutations(range(1, len(cosets))))]):
            rho[src] = np.roll(cosets[i], -draw(st.integers(0, len(src) - 1)) if i else 0)
        perm = perm[rho]
    elif kind == "any":
        perm = np.array([0, *draw(st.permutations(range(1, n)))])
    return group, perm


def assert_law_matches_the_full_check(group: Group, perm) -> None:
    failure = reference_antiautomorphism_failure(group.table.tolist(), perm.tolist())
    if failure is None:
        assert np.array_equal(Antiautomorphism(group, perm).mu_star, perm)
        return
    g, h = failure
    message = rf"^mu_star is not an antiautomorphism: mu\({g}\*{h}\) != mu\({h}\)\*mu\({g}\)$"
    with pytest.raises(ValueError, match=message):
        Antiautomorphism(group, perm)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=law_cases())
def test_the_law_on_a_generating_set_accepts_what_the_full_law_accepts(case):
    assert_law_matches_the_full_check(*case)


def test_a_failure_outside_the_generating_set_is_named_as_before():
    # with S = {3} on Z7 the first failing pair, (1, 1), has g outside S
    group = Group(cyclic_group(7).table)
    group._generators = (3,)
    perm = np.array([0, 2, 1, 3, 4, 5, 6])
    assert reference_antiautomorphism_failure(group.table.tolist(), perm.tolist()) == (1, 1)
    with pytest.raises(ValueError, match=r"^mu_star is not an antiautomorphism: mu\(1\*1\) != mu\(1\)\*mu\(1\)$"):
        Antiautomorphism(group, perm)


def test_constructed_groups_take_their_generators_from_their_construction(monkeypatch):
    def search(table):
        raise AssertionError("searched a constructed group's table for generators")

    monkeypatch.setattr(groups, "_right_generators", search)
    z3, z7, z5z5 = cyclic_group(3), cyclic_group(7), group_abelian([5, 5])
    maps = [builtin_mu_minus1(cyclic_group(n)) for n in (1, 7, 199, 511)]
    maps += [builtin_mu_swap(z5z5, 2), builtin_mu_minus1(group_abelian([3, 3, 7]))]
    maps += [product_antiauto(builtin_mu_minus1(z3), builtin_mu_minus1(z7))]
    maps += [product_antiauto(builtin_mu_swap(z5z5, 2), builtin_mu_minus1(group_product(z3, cyclic_group(5))))]
    for mu in maps:
        assert generated(mu.group.table, mu.group._generators) == set(range(mu.group.order))
        assert check_splitting(mu, field_make(2, 1), mu.group).partition.group is mu.group
    assert group_abelian([3, 5, 7])._generators == (35, 7, 1)  # the unit exponent tuples


def test_constructors_hand_over_the_inverse_the_search_finds(monkeypatch):
    builds = {
        "z199": lambda: cyclic_group(199),
        "3x3x3": lambda: group_abelian([3, 3, 3]),
        "5x5": lambda: group_abelian([5, 5]),
        "3x3,7": lambda: group_product(group_abelian([3, 3]), cyclic_group(7)),
        "1": lambda: cyclic_group(1),
    }
    for build in builds.values():
        group = build()
        assert group.inverse.dtype == np.int64
        assert group.inverse.tolist() == groups._search_inverse(group.table).tolist()

    def search(table):
        raise AssertionError("searched a constructed group's table for inverses")

    monkeypatch.setattr(groups, "_search_inverse", search)
    for build in builds.values():
        build()
    table = cyclic_group(7).table
    for searched in (Group, group_from_cayley):  # a caller's table is searched
        with pytest.raises(AssertionError, match="searched"):
            searched(table)


def test_a_constructors_inverse_is_checked():
    with pytest.raises(ValueError, match=r"^not a group \(inverses\): element 1 lacks a two-sided inverse$"):
        Group._constructed(cyclic_group(5).table, "5", np.array([0, 1, 3, 2, 1]))


def test_the_classes_are_built_on_first_read(frobenius21):
    partition = check_splitting(builtin_mu_minus1(frobenius21), field_make(2, 1), frobenius21).partition
    assert "classes" not in vars(partition)
    assert len(partition) == len(partition.reps) == 4
    assert partition.classes == reference_fq_classes(frobenius21, 2)[0]
    assert vars(partition)["classes"] is partition.classes


def test_partitions_and_splitting_checks_compare_by_value():
    z7 = cyclic_group(7)
    a, b = fq_classes(z7, 2), fq_classes(cyclic_group(7), 2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # GF(4) has the classes of GF(2) on Z7 (4 = 2^2 mod 7) but another q;
    # GF(3) has one class of the six nonzero ids (3 is a primitive root)
    assert fq_classes(z7, 4).class_of.tolist() == a.class_of.tolist() and fq_classes(z7, 4) != a
    assert fq_classes(z7, 3) != a and a != a.class_of and a != "partition"
    relabeled = groups.FqClassPartition(z7, 2, np.array([0, 2, 2, 1, 2, 1, 1]), (0, 3, 1))
    assert relabeled != a and len({a, relabeled}) == 2
    mu = builtin_mu_minus1(z7)
    check = check_splitting(mu, field_make(2, 1), z7)
    assert check == check_splitting(builtin_mu_minus1(cyclic_group(7)), field_make(2, 1), cyclic_group(7))
    assert check != check_splitting(mu, field_make(2, 2), z7)


def test_is_abelian_reads_the_table_once_per_group(monkeypatch, frobenius21):
    array_equal, reads = np.array_equal, []
    for group in (Group(frobenius21.table), cyclic_group(45)):
        monkeypatch.setattr(np, "array_equal", lambda a, b, **kw: reads.append(a is group.table) or array_equal(a, b, **kw))
        for q in (2, 4, 8, 11, 13):
            fq_classes(group, q)
        assert reads.count(True) == 1
        reads.clear()
    assert not Group(frobenius21.table).is_abelian and cyclic_group(45).is_abelian


@pytest.mark.parametrize("build", [Group, group_from_cayley])
def test_a_group_keeps_its_table_when_the_callers_array_changes(build):
    wide = np.zeros((7, 9), dtype=np.int64)
    wide[:, :7] = cyclic_group(7).table
    for table in (cyclic_group(7).table.copy(), wide[:, :7]):  # the caller's int64 array and a view of one
        group = build(table)
        table[1] = table[2]
        assert group == cyclic_group(7) and builtin_mu_minus1(group).mu_star.tolist() == [0, 6, 5, 4, 3, 2, 1]
        with pytest.raises(ValueError, match="read-only"):
            group.table[1, 1] = 0


def test_a_cayley_group_searches_for_generators_once(monkeypatch):
    # the associativity check's generating set is the one the law is checked on
    calls, search = [], groups._right_generators
    monkeypatch.setattr(groups, "_right_generators", lambda t: calls.append(len(t)) or search(t))
    group = group_from_cayley(frobenius21_table())
    builtin_mu_minus1(group)
    builtin_mu_minus1(group)
    assert calls == [21] and generated(group.table, group._generators) == set(range(21))
