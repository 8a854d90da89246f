"""Splitting existence, pair construction, the four codes, duality, bounds,
and product pairs."""

from __future__ import annotations

import collections
import functools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from duadic.algebra import (
    AlgebraElement,
    alg_mul,
    apply_antiauto,
    hat_group,
    split_primitive_central_idempotents,
)
from duadic import _linalg
from duadic import duadic as duadic_module
from duadic.codes import LinearCode, dual, odd_like_min_weight
from duadic.duadic import (
    DuadicPair,
    check_splitting,
    construct_pairs,
    duadic_codes,
    duality_case,
    odd_like_bound,
    product_duadic,
    splitting_exists_mu_minus1,
    verify_key_proposition,
)
from duadic.errors import NoSplittingError, VerificationError
from duadic.gf import field_from_order, multiplicative_order_mod
from duadic.groups import (
    Antiautomorphism,
    builtin_mu_minus1,
    builtin_mu_swap,
    cyclic_group,
    group_abelian,
    group_from_cayley,
)
from duadic.quantum import analyze_pair

from conftest import frobenius21_table, metacyclic_table
from oracles import (
    is_even_like,
    is_idempotent,
    reference_degeneracy_sides,
    reference_mu_minus1_flags,
    reference_pair_axioms,
    reference_pairs_from_cycles,
    reference_product_duadic,
)


def tuple_elem(field, group, tuples):
    return AlgebraElement.from_coeff_list(field, group, [(group.element_id(t), 1) for t in tuples])


def multiplier(group, a: int) -> Antiautomorphism:
    """x -> ax on a cyclic group: an automorphism of an abelian group, hence an antiautomorphism."""
    n = group.order
    return Antiautomorphism(group, [a * x % n for x in range(n)], descriptor=f"x{a}")


# splittings with 2- and 4-cycles, a Frobenius twist, and cells without a
# pair (a fixed idempotent or a 3-cycle), on cyclic, 3x3 and metacyclic groups
_AXIOM_CELLS = {
    "7-q2-mu-1": (7, 2, "mu-1"),
    "13-q3-x7": (13, 3, "x7"),
    "13-q3-x2": (13, 3, "x2"),
    "13-q5-x2": (13, 5, "x2"),
    "13-q3-mu-1": (13, 3, "mu-1"),
    "9-q2-mu-1": (9, 2, "mu-1"),
    "3x3-q2-swap": ("3x3", 2, "swap"),
    "3x3-q4-mu-1-frobenius": ("3x3", 4, "mu-1-frobenius"),
    "Z7:Z3-q4-mu-1": ("Z7:Z3", 4, "mu-1"),
    "Z7:Z3-q2-mu-1": ("Z7:Z3", 2, "mu-1"),
}


# cyclic mu_-1 cells over every q in {2, 3, 4, 5, 7, 8, 9}, each with two
# pairs or more under enumerate-all: (n, q, pair count)
_CYCLIC_STACK_CELLS = {
    "31-q2-mu-1": (31, 2, 4),
    "21-q4-mu-1": (21, 4, 8),
    "31-q5-mu-1": (31, 5, 16),
    "19-q7-mu-1": (19, 7, 4),
    "7-q8-mu-1": (7, 8, 4),
    "13-q9-mu-1": (13, 9, 2),
    # r^2 <= 4P: e^2 = e through the products of the units
    "71-q5-mu-1": (71, 5, 64),
    "99-q4-mu-1": (99, 4, 64),
}


@functools.cache
def axiom_cell(name: str):
    """(field, group, mu, idempotents, cycles of mu on the nontrivial ones)."""
    spec, q, mu_name = _AXIOM_CELLS[name]
    if spec == "3x3":
        group = group_abelian([3, 3])
    elif spec == "Z7:Z3":
        group = group_from_cayley(frobenius21_table())
    else:
        group = cyclic_group(spec)
    field = field_from_order(q)
    if mu_name == "swap":
        mu = builtin_mu_swap(group, q)
    elif mu_name.startswith("mu-1"):
        mu = Antiautomorphism(group, group.inverse, int(mu_name.endswith("frobenius")))
    else:
        mu = multiplier(group, int(mu_name[1:]))
    members = [AlgebraElement(field, group, h) for h in split_primitive_central_idempotents(field, group)]
    images = [members.index(apply_antiauto(mu, h)) for h in members]
    cycles, done = [], {members.index(hat_group(field, group))}
    for start in range(len(members)):
        if start not in done:
            cycles.append([start])
            while images[cycles[-1][-1]] != start:
                cycles[-1].append(images[cycles[-1][-1]])
            done.update(cycles[-1])
    return field, group, mu, members, cycles


@pytest.fixture(scope="module")
def f2():
    return field_from_order(2)


@pytest.fixture(scope="module")
def z33_swap_pair(f2):
    group = group_abelian([3, 3])
    return construct_pairs(builtin_mu_swap(group, 2), f2, group)[0]


@pytest.fixture(scope="module")
def paper_pair(f2):
    group = group_abelian([3, 3])
    e1 = tuple_elem(f2, group, [(1, 0), (2, 0), (1, 1), (2, 2)])
    f1 = tuple_elem(f2, group, [(0, 1), (0, 2), (1, 2), (2, 1)])
    return DuadicPair(f2, group, e1, f1, builtin_mu_swap(group, 2))


class TestSplittingExists:
    @pytest.mark.parametrize("n,q,expected", [(7, 2, True), (9, 2, False), (1, 5, False), (23, 2, True)])
    def test_examples(self, n, q, expected):
        assert splitting_exists_mu_minus1(n, q) is expected

    def test_rejects_even_order(self):
        with pytest.raises(ValueError, match="odd"):
            splitting_exists_mu_minus1(8, 3)

    def test_rejects_gcd(self):
        with pytest.raises(ValueError, match="gcd"):
            splitting_exists_mu_minus1(9, 3)

    def test_one_modular_power_decides_the_parity_of_the_order(self):
        # q^(odd part of phi(n)) = 1 (mod n) iff ord_n(q) is odd, against the order's own loop
        cells = [(n, q) for n in range(3, 512, 2) for q in range(2, 300) if math.gcd(n, q) == 1]
        assert len(cells) == 61674
        wrong = [(n, q) for n, q in cells if splitting_exists_mu_minus1(n, q) != (multiplicative_order_mod(q, n) % 2 == 1)]
        assert wrong == []

    def test_an_order_over_the_cap_is_refused_as_before(self):
        with pytest.raises(ValueError, match="^modulus 65537 exceeds the cap 65536$"):
            splitting_exists_mu_minus1(65537, 2)


class TestCheckSplitting:
    def test_z7_ok(self, f2):
        g = cyclic_group(7)
        chk = check_splitting(builtin_mu_minus1(g), f2, g)
        assert chk.ok
        assert chk.fixed_class_ids == (0,)
        assert chk.partition.classes == ((0,), (1, 2, 4), (3, 5, 6))

    def test_z33_mu_minus1_fails_with_all_classes_fixed(self, f2):
        g = group_abelian([3, 3])
        chk = check_splitting(builtin_mu_minus1(g), f2, g)
        assert not chk.ok
        assert chk.fixed_class_ids == (0, 1, 2, 3, 4)
        assert verify_key_proposition(builtin_mu_minus1(g), f2, g) == (5, 5)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_trivial_group_has_no_splitting(self, q):
        # its one class is the identity's, fixed by every mu
        g = cyclic_group(1)
        chk = check_splitting(builtin_mu_minus1(g), field_from_order(q), g)
        assert not chk.ok and chk.fixed_class_ids == (0,) and len(chk.partition) == 1
        assert not splitting_exists_mu_minus1(1, q)

    def test_z33_swap_ok(self, f2):
        g = group_abelian([3, 3])
        assert check_splitting(builtin_mu_swap(g, 2), f2, g).ok

    def test_swap_fails_when_order_of_q_is_odd(self, f2):
        # the swap splitting needs ord_p(q) even; ord_7(2) = 3 is odd, so a
        # nontrivial fixed class must exist (and counts still agree)
        g = group_abelian([7, 7])
        chk = check_splitting(builtin_mu_swap(g, 2), f2, g)
        assert not chk.ok
        assert verify_key_proposition(builtin_mu_swap(g, 2), f2, g) == (len(chk.fixed_class_ids),) * 2
        assert len(chk.fixed_class_ids) > 1

    def test_context_mismatch(self, f2):
        g = cyclic_group(7)
        with pytest.raises(ValueError, match="different group"):
            check_splitting(builtin_mu_minus1(cyclic_group(5)), f2, g)


class TestKeyProposition:
    @pytest.mark.parametrize(
        "orders,q,mu_name,expected",
        [
            ([3, 3], 2, "mu-1", (5, 5)),
            ([3, 3], 2, "swap", (1, 1)),
            ([7], 2, "mu-1", (1, 1)),
        ],
    )
    def test_examples(self, orders, q, mu_name, expected):
        field = field_from_order(q)
        group = group_abelian(orders)
        mu = builtin_mu_minus1(group) if mu_name == "mu-1" else builtin_mu_swap(group, q)
        assert verify_key_proposition(mu, field, group) == expected

    @pytest.mark.parametrize("q", [2, 4, 5])
    def test_nonabelian(self, frobenius21, q):
        field = field_from_order(q)
        counts = verify_key_proposition(builtin_mu_minus1(frobenius21), field, frobenius21)
        assert counts[0] == counts[1]

    def test_nontrivial_galois_part(self):
        # sigma = x -> x^2 on GF(4) with the identity group map: mu(a g) = a^2 g
        field = field_from_order(4)
        group = cyclic_group(7)
        mu = Antiautomorphism(group, np.arange(7), frobenius_power=1)
        counts = verify_key_proposition(mu, field, group)
        assert counts[0] == counts[1]

    def test_swap_all_coprime_q(self):
        for p in (3, 5):
            group = group_abelian([p, p])
            for q in (2, 3, 4, 5, 7, 9):
                if math.gcd(p, q) != 1:
                    continue
                field = field_from_order(q)
                counts = verify_key_proposition(builtin_mu_swap(group, q), field, group)
                assert counts[0] == counts[1], (p, q, counts)

    def test_every_scan_pool_cell(self):
        # the cells of the benchmark's scan pool: cyclic odd n in [3, 199]
        # with mu_-1 and Z_p x Z_p, p <= 13, with the swap map, over each q
        # of 2, 3, 4, 5, 7, 8, 9 prime to the order; Ghat is always fixed
        specs = [(cyclic_group(n), "mu-1") for n in range(3, 200, 2)]
        specs += [(group_abelian([p, p]), "swap") for p in (3, 5, 7, 11, 13)]
        cells = 0
        for group, mu_name in specs:
            for q in (2, 3, 4, 5, 7, 8, 9):
                if math.gcd(group.order, q) != 1:
                    continue
                field = field_from_order(q)
                mu = builtin_mu_minus1(group) if mu_name == "mu-1" else builtin_mu_swap(group, q)
                classes, idempotents = verify_key_proposition(mu, field, group)
                assert classes == idempotents, (group.descriptor, q)
                ok = check_splitting(mu, field, group).ok
                assert ok == (idempotents == 1), (group.descriptor, q)
                assert mu_name == "swap" or ok == splitting_exists_mu_minus1(group.order, q)
                cells += 1
        assert cells == 624

    def test_counts_reported_not_enforced(self, monkeypatch):
        # a class action that fixes every class breaks the count equality:
        # the oracle reports both counts, and the class criterion, which
        # decides alone, refuses the cell before any idempotent is built
        field = field_from_order(2)
        group = cyclic_group(7)
        mu = builtin_mu_minus1(group)
        # every g its own image: mu fixes every class
        monkeypatch.setattr(duadic_module, "_mu_images", lambda group, mus, qs, ids: np.array([ids] * len(mus)))
        assert verify_key_proposition(mu, field, group) == (3, 1)
        assert check_splitting(mu, field, group).fixed_class_ids == (0, 1, 2)
        splits, split = [], duadic_module.split_primitive_central_idempotents
        monkeypatch.setattr(duadic_module, split.__name__, lambda *a: splits.append(a) or split(*a))
        with pytest.raises(NoSplittingError, match="2 nontrivial fixed idempotent"):
            construct_pairs(mu, field, group)
        assert not splits

    def test_construct_enforces_the_counts(self, monkeypatch):
        # a class action that fixes only the identity's class on Z9 over
        # GF(2), whose three idempotents mu_-1 all fixes: the class
        # criterion accepts the cell, and the split's count refuses it
        field = field_from_order(2)
        group = cyclic_group(9)
        mu = builtin_mu_minus1(group)
        # images that swap the classes of 1, {1, 2, 4, 5, 7, 8}, and of 3, {3, 6}
        swap = np.array([0, 3, 3, 1, 3, 3, 1, 3, 3])
        monkeypatch.setattr(duadic_module, "_mu_images", lambda group, mus, qs, ids: np.array([swap[ids]] * len(mus)))
        assert check_splitting(mu, field, group).ok
        assert verify_key_proposition(mu, field, group) == (1, 3)
        with pytest.raises(VerificationError, match="^fixed-class count 1 != fixed-idempotent count 3$"):
            construct_pairs(mu, field, group)


class TestConstructPairs:
    def test_z7_canonical(self, f2):
        g = cyclic_group(7)
        pairs = construct_pairs(builtin_mu_minus1(g), f2, g)
        assert len(pairs) == 1
        e, f = pairs[0].e, pairs[0].f
        assert np.flatnonzero(e.vec).tolist() == [0, 3, 5, 6]
        assert np.flatnonzero(f.vec).tolist() == [0, 1, 2, 4]
        assert duality_case(pairs[0])[0] == "i"
        assert repr(pairs[-1]) == "DuadicPair(n=7, q=2, mu=mu-1)"

    def test_z33_swap_enumerate_all_contains_paper_pair(self, f2):
        g = group_abelian([3, 3])
        pairs = construct_pairs(builtin_mu_swap(g, 2), f2, g, mode="enumerate-all")
        assert len(pairs) == 2  # 2^(l-1) with l = 2
        e1 = tuple_elem(f2, g, [(1, 0), (2, 0), (1, 1), (2, 2)])
        f1 = tuple_elem(f2, g, [(0, 1), (0, 2), (1, 2), (2, 1)])
        assert any(p.e == e1 and p.f == f1 for p in pairs)
        assert all(duality_case(p)[0] == "ii" for p in pairs)

    def test_trivial_group_yields_nothing(self, f2):
        g = group_from_cayley([[0]])
        for mode in ("canonical", "enumerate-all"):
            with pytest.raises(NoSplittingError, match="^the trivial group carries no duadic pairs$"):
                construct_pairs(builtin_mu_minus1(g), f2, g, mode=mode)

    def test_trivial_group_pair_refused(self, f2):
        # e = f = 0 and Ghat = 1 meet all four axioms, but the group has no
        # nontrivial idempotent to split, as construct_pairs says
        g = cyclic_group(1)
        zero = AlgebraElement.zero(f2, g)
        with pytest.raises(NoSplittingError, match="^the trivial group carries no duadic pairs$"):
            DuadicPair(f2, g, zero, zero, builtin_mu_minus1(g))

    def test_no_splitting_raises(self, f2):
        g = cyclic_group(9)
        with pytest.raises(NoSplittingError, match="no splitting"):
            construct_pairs(builtin_mu_minus1(g), f2, g)

    def test_even_order_rejected(self):
        f3 = field_from_order(3)
        g = cyclic_group(8)
        with pytest.raises(ValueError, match="odd"):
            construct_pairs(builtin_mu_minus1(g), f3, g)

    def test_enumerate_all_count_is_2_to_l_minus_1(self, f2):
        g = group_abelian([5, 5])
        pairs = construct_pairs(builtin_mu_swap(g, 2), f2, g, mode="enumerate-all")
        n_idem = len(split_primitive_central_idempotents(f2, g))
        l = (n_idem - 1) // 2
        assert len(pairs) == 2 ** (l - 1)

    @pytest.mark.parametrize("q", [2, 3])
    def test_enumerate_all_pairs_fully_analyzable(self, q):
        field = field_from_order(q)
        g = group_abelian([5, 5])
        pairs = construct_pairs(builtin_mu_swap(g, q), field, g, mode="enumerate-all")
        assert len(pairs) >= 2
        for pair in pairs:
            codes = duadic_codes(pair)
            assert (codes.c_e.k, codes.d_e.k) == (12, 13)
            assert duality_case(pair) == ("ii", ("C_e-perp = D_f", "C_f-perp = D_e"))
            assert (codes.c_e_perp, codes.d_e_perp) == (dual(codes.c_e), dual(codes.d_e))

    def test_invalid_pair_rejected(self, f2):
        g = cyclic_group(7)
        e = AlgebraElement.from_coeff_list(f2, g, [(1, 1), (2, 1), (4, 1)])
        with pytest.raises(VerificationError, match="axioms"):
            DuadicPair(f2, g, e, e, builtin_mu_minus1(g))

    def test_pair_from_another_field_rejected(self, f2):
        # a GF(2) pair is no pair over GF(4): without the check, analyze_pair
        # would refuse it only later, with mismatched contexts
        g = cyclic_group(7)
        pair = construct_pairs(builtin_mu_minus1(g), f2, g)[0]
        with pytest.raises(ValueError, match=r"^e, f and mu must live over GF\(2\^2\) and Group\(7, n=7\)$"):
            DuadicPair(field_from_order(4), g, pair.e, pair.f, pair.mu)

    def test_pair_from_another_group_rejected(self, f2):
        z3, z7 = cyclic_group(3), cyclic_group(7)
        pair = construct_pairs(builtin_mu_minus1(z7), f2, z7)[0]
        with pytest.raises(ValueError, match=r"^e, f and mu must live over GF\(2\) and Group\(3, n=3\)$"):
            DuadicPair(f2, z3, pair.e, pair.f, builtin_mu_minus1(z3))

    def test_mu_on_another_group_rejected(self, f2):
        z3, z7 = cyclic_group(3), cyclic_group(7)
        pair = construct_pairs(builtin_mu_minus1(z7), f2, z7)[0]
        with pytest.raises(ValueError, match=r"^e, f and mu must live over GF\(2\) and Group\(7, n=7\)$"):
            DuadicPair(f2, z7, pair.e, pair.f, builtin_mu_minus1(z3))

    def test_mu_permutation_follows_the_cycles(self):
        for name in _AXIOM_CELLS:
            field, group, mu, _, cycles = axiom_cell(name)
            vecs = split_primitive_central_idempotents(field, group)
            perm = duadic_module._mu_permutation(mu, field, vecs)
            for cycle in cycles:
                assert [perm[i] for i in cycle] == cycle[1:] + cycle[:1], name

    @pytest.mark.parametrize("cell", ["13-q3-x7", "13-q3-x2"])
    @pytest.mark.parametrize("mode", ["canonical", "enumerate-all"])
    def test_four_cycle_gives_one_pair_of_alternate_idempotents(self, cell, mode):
        # once "idempotent pairing failed", or a pair failing A1 under enumerate-all
        field, group, mu, members, cycles = axiom_cell(cell)
        (cycle,) = cycles
        assert len(cycle) == 4
        (pair,) = construct_pairs(mu, field, group, mode=mode)
        assert reference_pair_axioms(pair.e, pair.f, mu) == []
        even, odd = members[cycle[0]] + members[cycle[2]], members[cycle[1]] + members[cycle[3]]
        assert (pair.e, pair.f) == (even, odd) or (mode == "enumerate-all" and (pair.e, pair.f) == (odd, even))

    @pytest.mark.parametrize("mode", ["canonical", "enumerate-all"])
    @pytest.mark.parametrize(
        "cell", ["13-q3-x7", "13-q3-x2", "3x3-q2-swap", "Z7:Z3-q4-mu-1", "13-q3-mu-1", *_CYCLIC_STACK_CELLS]
    )
    def test_pairs_equal_the_sums_of_cycle_halves(self, cell, mode):
        if cell in _CYCLIC_STACK_CELLS:
            n, q, size = _CYCLIC_STACK_CELLS[cell]
            field, group = field_from_order(q), cyclic_group(n)
            mu = builtin_mu_minus1(group)
        else:
            field, group, mu, _, _ = axiom_cell(cell)
            size = None
        pairs = construct_pairs(mu, field, group, mode=mode)
        expected = reference_pairs_from_cycles(mu, field, group, mode=mode)
        assert [(p.e, p.f) for p in pairs] == [(p.e, p.f) for p in expected]
        if size is not None:
            assert len(pairs) == (1 if mode == "canonical" else size)

    def test_pairs_are_built_as_one_stack(self, monkeypatch):
        # once a DuadicPair per pair, each e and f a field sum of its own:
        # now one product per side for the whole stack, mu applied to the
        # idempotents and to the stack of every e for A2 (mu_-1 is a column
        # gather), and e^2 = e by one product per pair while the pairs are
        # few next to the idempotents, by two products for the whole stack
        # once r^2 <= 4P
        calls = collections.Counter()

        def counted(owner, name):
            call = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name, sys._getframe(1).f_code.co_name] += 1
                return call(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(_linalg, "matmul")
        for name in ("_antiauto_rows", "_convolve"):
            counted(duadic_module, name)
        counted(DuadicPair, "__init__")
        field, group = field_from_order(2), cyclic_group(31)
        for mode, size in (("canonical", 1), ("enumerate-all", 4)):
            calls.clear()
            assert len(construct_pairs(builtin_mu_minus1(group), field, group, mode=mode)) == size
            assert calls["matmul", "construct_pairs"] == 2, mode
            assert {key: count for key, count in calls.items() if key[0] != "matmul"} == {
                ("_antiauto_rows", "_mu_permutation"): 1,
                ("_antiauto_rows", "_pair_axioms"): 1,
                ("_convolve", "<genexpr>"): size,
            }, mode
        # 256 pairs of the 19 idempotents of 127-q2: the products of the
        # units, 8 at a time, and the check of the claimed selections
        group = cyclic_group(127)
        calls.clear()
        assert len(construct_pairs(builtin_mu_minus1(group), field, group, mode="enumerate-all")) == 256
        assert duadic_module._UNIT_PRODUCT_CELLS // 127**2 == 8
        assert calls["matmul", "construct_pairs"] == 2 and calls["matmul", "_idempotent_rows"] == 3 + 1
        assert {key: count for key, count in calls.items() if key[0] != "matmul"} == {
            ("_antiauto_rows", "_mu_permutation"): 1,
            ("_antiauto_rows", "_pair_axioms"): 1,
        }

    def test_pairs_are_built_as_they_are_read(self, monkeypatch):
        # the 256 pairs of 127-q2 cost only the elements the construction
        # itself makes (the 19 idempotents among them); each pair read makes
        # its e and f, where a list of every pair made 2 x 256 more
        made = collections.Counter()
        init = AlgebraElement.__init__

        def counted(self, *args, **kwargs):
            made["elements"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(AlgebraElement, "__init__", counted)
        field, group = field_from_order(2), cyclic_group(127)
        pairs = construct_pairs(builtin_mu_minus1(group), field, group, "enumerate-all")
        assert len(pairs) == 256 and made["elements"] <= 23
        made.clear()
        last = pairs[-1]
        assert made["elements"] == 2
        assert np.array_equal(last.e.vec, pairs.es[255]) and np.array_equal(last.f.vec, pairs.fs[255])
        with pytest.raises(IndexError):
            pairs[256]

    def test_odd_cycle_raises_no_splitting(self):
        # no idempotent is fixed, yet the 3-cycle leaves no pair
        field, group, mu, _, cycles = axiom_cell("13-q5-x2")
        assert [len(c) for c in cycles] == [3] and check_splitting(mu, field, group).ok
        for mode in ("canonical", "enumerate-all"):
            with pytest.raises(NoSplittingError, match="in a cycle of odd length 3$"):
                construct_pairs(mu, field, group, mode=mode)


class TestStackedAxioms:
    """`_pair_axioms` on the stack of the four pairs of 31-q2: a row changed
    so that it breaks one of the four axioms alone raises VerificationError
    naming that axiom, whatever the other rows."""

    AXIOMS = ["e idempotent", "e even-like", "A1: e + f = 1 - Ghat", "A2: mu(e) = f"]

    @pytest.mark.parametrize("axiom", AXIOMS)
    def test_one_corrupted_row_names_its_axiom(self, axiom):
        field, group = field_from_order(2), cyclic_group(31)
        mu = builtin_mu_minus1(group)
        pairs = construct_pairs(mu, field, group, mode="enumerate-all")
        es, fs = np.array([p.e.vec for p in pairs]), np.array([p.f.vec for p in pairs])
        ghat = pairs[0].ghat
        h = next(
            AlgebraElement(field, group, h)
            for h in split_primitive_central_idempotents(field, group)
            if not np.array_equal(h, ghat.vec)
        )
        e, f = pairs[2].e, pairs[2].f
        if axiom == "e idempotent":
            # x = g + g^-1 has mu_-1(x) = x = -x and coefficient sum 0, and x^2 != x
            x = AlgebraElement.basis(field, group, 1) + AlgebraElement.basis(field, group, 30)
            e, f = e + x, f - x
        elif axiom == "e even-like":
            # in characteristic 2, e + Ghat and f + Ghat keep e^2 = e, A1 and A2
            e, f = e + ghat, f + ghat
        elif axiom == "A1: e + f = 1 - Ghat":
            e, f = h, apply_antiauto(mu, h)
        else:
            e, f = h, AlgebraElement.one(field, group) - ghat - h
        assert [name for name in reference_pair_axioms(e, f, mu) if name in self.AXIOMS] == [axiom]
        es[2], fs[2] = e.vec, f.vec
        with pytest.raises(VerificationError, match=f"^duadic axioms violated: {re.escape(axiom)}$"):
            duadic_module._pair_axioms(field, group, mu, ghat, es, fs)


class TestIdempotentRows:
    """`_idempotent_rows` decides e^2 = e for every row of a stack of sums of
    the 9 idempotents of 21-q4, given the claimed selections or not, and
    whatever the units: a row that is not the sum it claims, and every row
    once the units are not orthogonal idempotents, is squared directly."""

    def run(self, monkeypatch, es, parts):
        squared = []
        convolve = duadic_module._convolve
        monkeypatch.setattr(duadic_module, "_convolve", lambda *args: squared.append(1) or convolve(*args))
        field, group = field_from_order(4), cyclic_group(21)
        return duadic_module._idempotent_rows(field, group, es, parts), len(squared)

    def stack(self):
        field, group = field_from_order(4), cyclic_group(21)
        units = split_primitive_central_idempotents(field, group).copy()  # a test corrupts a unit
        sel = np.random.default_rng(21).integers(0, 2, (12, len(units)))
        return sel, units, _linalg.matmul(field, sel, units)

    def test_sums_of_units_take_no_product_per_row(self, monkeypatch):
        sel, units, es = self.stack()
        assert self.run(monkeypatch, es, (sel, units)) == (True, 0)
        assert self.run(monkeypatch, es, None) == (True, 12)

    @pytest.mark.parametrize("corrupt_row", [False, True])
    @pytest.mark.parametrize("where", ["claim", "unit"])
    def test_every_row_is_decided(self, monkeypatch, where, corrupt_row):
        sel, units, es = self.stack()
        if where == "claim":  # row 3 claims another sum
            sel[3] ^= 1
        else:  # a unit that is no idempotent: every row is squared
            units[1] = units[1] ^ units[2]
        if corrupt_row:  # (e + g)^2 = e + g^2 in characteristic 2, for central e
            es[3, 5] ^= 1
        # squared: row 3 alone, or every row up to the first that fails
        squared = {"claim": 1, "unit": 4 if corrupt_row else 12}[where]
        assert self.run(monkeypatch, es, (sel, units)) == (not corrupt_row, squared)

    def test_a_claim_beyond_0_1_is_no_selection(self, monkeypatch):
        # row 3 is x times a sum of units, as it claims, and no idempotent
        sel, units, es = self.stack()
        sel[3] *= 2
        es[3] = _linalg.matmul(field_from_order(4), sel[3:4], units)[0]
        assert self.run(monkeypatch, es, (sel, units)) == (False, 4)


@st.composite
def axiom_cases(draw):
    """(field, group, mu, e, f): e every other idempotent of each cycle, or any
    sum of idempotents; f = 1 - Ghat - e or mu(e); then perhaps one
    coefficient of e or f changed."""
    field, group, mu, members, cycles = axiom_cell(draw(st.sampled_from(sorted(_AXIOM_CELLS))))
    if draw(st.booleans()):
        chosen = [i for cycle in cycles for i in cycle[draw(st.integers(0, 1)) :: 2]]
    else:
        chosen = [i for i in range(len(members)) if draw(st.booleans())]
    e = sum((members[i] for i in chosen), AlgebraElement.zero(field, group))
    if draw(st.booleans()):
        f = AlgebraElement.one(field, group) - hat_group(field, group) - e
    else:
        f = apply_antiauto(mu, e)
    target = draw(st.sampled_from(["none", "none", "e", "f"]))
    if target != "none":
        g, delta = draw(st.integers(0, group.order - 1)), draw(st.integers(1, field.q - 1))
        bump = AlgebraElement.basis(field, group, g, delta)
        e, f = (e + bump, f) if target == "e" else (e, f + bump)
    return field, group, mu, e, f


AXIOM_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


class TestPairAxiomReduction:
    """The four axioms `DuadicPair` checks reject exactly the (e, f, mu)
    that violate one of all eleven (`reference_pair_axioms`)."""

    @AXIOM_SETTINGS
    @given(case=axiom_cases())
    def test_raises_iff_an_axiom_is_violated(self, case):
        field, group, mu, e, f = case
        violated = reference_pair_axioms(e, f, mu)
        if not violated:
            DuadicPair(field, group, e, f, mu)
            return
        with pytest.raises(VerificationError, match="^duadic axioms violated: ") as info:
            DuadicPair(field, group, e, f, mu)
        named = str(info.value).split(": ", 1)[1].split(", ")
        assert set(named) <= set(violated)

    @pytest.mark.parametrize("valid", [True, False])
    def test_cases_reach_both_outcomes(self, valid):
        find(axiom_cases(), lambda c: (not reference_pair_axioms(c[3], c[4], c[2])) == valid, settings=AXIOM_SETTINGS)


class TestDuadicCodes:
    def test_z7_dims(self, f2):
        g = cyclic_group(7)
        pair = construct_pairs(builtin_mu_minus1(g), f2, g)[0]
        codes = duadic_codes(pair)
        assert (codes.c_e.k, codes.c_f.k, codes.d_e.k, codes.d_f.k) == (3, 3, 4, 4)

    def test_z33_dims(self, z33_swap_pair):
        codes = duadic_codes(z33_swap_pair)
        assert (codes.c_e.k, codes.c_f.k, codes.d_e.k, codes.d_f.k) == (4, 4, 5, 5)

    def test_direct_sum_structure(self, z33_swap_pair):
        codes = duadic_codes(z33_swap_pair)
        assert codes.d_e.contains(z33_swap_pair.ghat.vec)
        assert codes.d_e.k == codes.c_e.k + 1


def twisted(group) -> Antiautomorphism:
    """x -> x^-1 composed with the Frobenius a -> a^p."""
    return Antiautomorphism(group, group.inverse, frobenius_power=1)


def identity_twisted(group) -> Antiautomorphism:
    """The identity group map composed with the Frobenius a -> a^p."""
    return Antiautomorphism(group, np.arange(group.order), frobenius_power=1)


# (group, q, mu, mode): splitting cells on cyclic, 3x3 and 5x5 swap,
# metacyclic and Frobenius-twisted antiautomorphisms over every q in
# {2, 3, 4, 5, 7, 8, 9}; the order-81 product is built apart
_DERIVATION_CELLS = {
    "7-q2": (lambda: cyclic_group(7), 2, builtin_mu_minus1, "canonical"),
    "23-q2": (lambda: cyclic_group(23), 2, builtin_mu_minus1, "canonical"),
    "11-q3": (lambda: cyclic_group(11), 3, builtin_mu_minus1, "canonical"),
    "23-q3": (lambda: cyclic_group(23), 3, builtin_mu_minus1, "canonical"),
    "19-q4": (lambda: cyclic_group(19), 4, builtin_mu_minus1, "canonical"),
    "19-q5": (lambda: cyclic_group(19), 5, builtin_mu_minus1, "canonical"),
    "19-q7": (lambda: cyclic_group(19), 7, builtin_mu_minus1, "enumerate-all"),
    "7-q8": (lambda: cyclic_group(7), 8, builtin_mu_minus1, "enumerate-all"),
    "23-q9": (lambda: cyclic_group(23), 9, builtin_mu_minus1, "canonical"),
    "3x3-q2-swap": (lambda: group_abelian([3, 3]), 2, None, "enumerate-all"),
    "3x3-q8-swap": (lambda: group_abelian([3, 3]), 8, None, "enumerate-all"),
    "5x5-q3-swap": (lambda: group_abelian([5, 5]), 3, None, "enumerate-all"),
    "5x5-q7-swap": (lambda: group_abelian([5, 5]), 7, None, "enumerate-all"),
    "5x5-q9-swap": (lambda: group_abelian([5, 5]), 9, None, "canonical"),
    "Z7:Z3-q4": (lambda: group_from_cayley(metacyclic_table(7, 2)), 4, builtin_mu_minus1, "enumerate-all"),
    "Z19:Z3-q7": (lambda: group_from_cayley(metacyclic_table(19, 7)), 7, builtin_mu_minus1, "enumerate-all"),
    "7-q4-twisted": (lambda: cyclic_group(7), 4, twisted, "canonical"),
    "7-q8-twisted": (lambda: cyclic_group(7), 8, twisted, "canonical"),
    "13-q9-twisted": (lambda: cyclic_group(13), 9, twisted, "enumerate-all"),
    "9-q4-identity-twisted": (lambda: cyclic_group(9), 4, identity_twisted, "enumerate-all"),
}


def derivation_pairs(name: str) -> list[DuadicPair]:
    if name in ("3x3,3x3-q2-product", "3x3,7-q2-product"):
        field, group = field_from_order(2), group_abelian([3, 3])
        (pair,) = construct_pairs(builtin_mu_swap(group, 2), field, group)
        if name == "3x3,3x3-q2-product":
            return [product_duadic(pair, pair)]
        z7 = cyclic_group(7)
        return [product_duadic(pair, construct_pairs(builtin_mu_minus1(z7), field, z7)[0])]
    make_group, q, make_mu, mode = _DERIVATION_CELLS[name]
    group = make_group()
    mu = builtin_mu_swap(group, q) if make_mu is None else make_mu(group)
    return construct_pairs(mu, field_from_order(q), group, mode)


class TestCodeDerivation:
    """C_e comes from its n translates, and C_f, D_e and D_f from C_e by mu
    and by one added row."""

    @pytest.mark.parametrize("name", [*_DERIVATION_CELLS, "3x3,3x3-q2-product"])
    def test_derived_codes_equal_their_elimination(self, name):
        for pair in derivation_pairs(name):
            codes = duadic_codes(pair)
            one = AlgebraElement.one(pair.field, pair.group)
            derived = ((codes.c_e, pair.e), (codes.c_f, pair.f), (codes.d_e, one - pair.f), (codes.d_f, one - pair.e))
            for code, a in derived:
                eliminated = LinearCode(pair.field, a.vec[pair.group.left_translation])
                red, pivots = _linalg.rref(pair.field, code.gen)
                assert red.tobytes() == eliminated.gen.tobytes() and pivots == eliminated.pivots, (pair, a)
                assert code == eliminated, (pair, a)

    @pytest.mark.parametrize("name", ["7-q2", "7-q4-twisted", "5x5-q3-swap", "Z7:Z3-q4"])
    def test_wrong_mu_star_raises(self, name, monkeypatch):
        pair = derivation_pairs(name)[0]
        monkeypatch.setattr(pair.mu, "mu_star", np.arange(pair.group.order))
        with pytest.raises(VerificationError, match="does not lie in the ideal"):
            duadic_codes(pair)

    def test_wrong_ghat_raises(self, monkeypatch):
        pair = derivation_pairs("23-q2")[0]
        vec = pair.ghat.vec.copy()
        vec[3] = pair.field.add(int(vec[3]), 1)
        monkeypatch.setattr(pair, "ghat", AlgebraElement(pair.field, pair.group, vec))
        with pytest.raises(VerificationError, match="does not lie in the ideal"):
            duadic_codes(pair)

    @pytest.mark.parametrize(
        "name,case",
        [
            ("23-q2", "i"),
            ("3x3-q2-swap", "ii"),
            ("19-q4", "i"),
            ("5x5-q3-swap", "ii"),
            ("3x3,7-q2-product", "mixed"),
            ("3x3,3x3-q2-product", "ii"),
        ],
    )
    def test_one_elimination_of_the_n_translates(self, name, case, monkeypatch):
        pair = derivation_pairs(name)[0]
        rows = []
        rref = _linalg.rref
        monkeypatch.setattr(_linalg, "rref", lambda field, mat: rows.append(len(mat)) or rref(field, mat))
        analysis = analyze_pair(pair, cap=1 << 12)
        assert analysis.case == case
        # a cell with q^k over the cap builds its codes on first read
        assert rows == ([] if pair.field.q ** (pair.group.order // 2) > 1 << 12 else rows[:1])
        # C_e alone is eliminated; the mixed duals mu_-1(D_f) and mu_-1(C_f) are mapped rows
        assert analysis.css.k == 1 and rows == [pair.group.order]


def _cell_pairs(q: int, spec: str, mu: str, mode: str = "canonical"):
    group = cyclic_group(int(spec)) if "x" not in spec else group_abelian([int(p) for p in spec.split("x")])
    mu_map = builtin_mu_minus1(group) if mu == "mu-1" else builtin_mu_swap(group, q)
    return construct_pairs(mu_map, field_from_order(q), group, mode)


def _canonical_pair(q: int, spec: str, mu: str) -> DuadicPair:
    return _cell_pairs(q, spec, mu)[0]


# (q, factors): one cell per duality case and q; two factors make a product
# pair, which carries witnesses (case ii over GF(3) and GF(4) has no product
# under the group order cap)
_MEMBERSHIP_CELLS = {
    "7,7-q2-i": (2, [("7", "mu-1"), ("7", "mu-1")]),
    "3x3,3x3-q2-ii": (2, [("3x3", "swap"), ("3x3", "swap")]),
    "3x3,7-q2-mixed": (2, [("3x3", "swap"), ("7", "mu-1")]),
    "11,13-q3-i": (3, [("11", "mu-1"), ("13", "mu-1")]),
    "7x7-q3-ii": (3, [("7x7", "swap")]),
    "11,5x5-q3-mixed": (3, [("11", "mu-1"), ("5x5", "swap")]),
    "3,3x3-q4-i": (4, [("3", "mu-1"), ("3x3", "mu-1")]),
    "5x5-q4-ii": (4, [("5x5", "swap")]),
    "3,5x5-q4-mixed": (4, [("3", "mu-1"), ("5x5", "swap")]),
}


class TestIdealMembership:
    """A word lies in Ra iff w a = w: for C = Re and D-perp = R mu_-1(f) the
    product answers as the code's own row-space test does."""

    @pytest.mark.parametrize("name", _MEMBERSHIP_CELLS)
    def test_product_agrees_with_the_code(self, name):
        q, factors = _MEMBERSHIP_CELLS[name]
        pairs = [_canonical_pair(q, *factor) for factor in factors]
        pair = pairs[0] if len(pairs) == 1 else product_duadic(*pairs)
        field, group = pair.field, pair.group
        assert name.endswith(duality_case(pair)[0]) and bool(pair.witnesses) == (len(pairs) == 2)
        analysis = analyze_pair(pair, cap=1)
        m1f = apply_antiauto(builtin_mu_minus1(group), pair.f)
        sides = ((pair.e, analysis.codes.c_e), (m1f, analysis.codes.d_e_perp))
        rng = np.random.default_rng(group.order * q)
        randoms = [AlgebraElement(field, group, rng.integers(q, size=group.order)) for _ in range(4)]
        # random words, random members of each side, and the witnesses
        words = [*randoms, *(r * a for r in randoms for a, _ in sides), *pair.witnesses]
        for a, code in sides:
            found = [w * a == w for w in words]
            assert found == [code.contains(w.vec) for w in words]
            assert any(found) and not all(found)
        named = (("C", analysis.codes.c_e), ("D-perp", analysis.codes.d_e_perp))
        d = analysis.distance.value
        assert analysis.sides == reference_degeneracy_sides(named, pair.witnesses, d, cap=1)
        for w in pair.witnesses:  # one at a time, so each side's count shows whether it holds w
            single = analyze_pair(DuadicPair(field, group, pair.e, pair.f, pair.mu, witnesses=(w,)), cap=1)
            assert single.sides == reference_degeneracy_sides(named, (w,), d, cap=1)


def _case_pairs(f2, z33_swap_pair):
    """A pair of each duality case: 7 with mu_-1 (i), 3x3 with the swap (ii)
    and their product (mixed)."""
    g7 = cyclic_group(7)
    pair7 = construct_pairs(builtin_mu_minus1(g7), f2, g7)[0]
    return {"i": pair7, "ii": z33_swap_pair, "mixed": product_duadic(z33_swap_pair, pair7)}


class TestDualIdentities:
    """`duadic_codes` hands out the duals of C_e and D_e its case gives, each
    the dual eliminated from the built code."""

    def test_case_i(self, f2, z33_swap_pair):
        pair = _case_pairs(f2, z33_swap_pair)["i"]
        assert duality_case(pair) == ("i", ("C_e-perp = D_e", "C_f-perp = D_f"))
        codes = duadic_codes(pair)
        assert (codes.c_e_perp, codes.d_e_perp) == (dual(codes.c_e), dual(codes.d_e))
        assert codes.c_e_perp is codes.d_e and codes.d_e_perp is codes.c_e

    def test_case_ii(self, z33_swap_pair):
        assert duality_case(z33_swap_pair) == ("ii", ("C_e-perp = D_f", "C_f-perp = D_e"))
        codes = duadic_codes(z33_swap_pair)
        assert (codes.c_e_perp, codes.d_e_perp) == (dual(codes.c_e), dual(codes.d_e))
        assert codes.c_e_perp is codes.d_f and codes.d_e_perp is codes.c_f

    def test_mixed_case(self, f2, z33_swap_pair):
        mixed = _case_pairs(f2, z33_swap_pair)["mixed"]
        assert duality_case(mixed) == ("mixed", ("C_e-perp = R(1 - mu_-1(e))",))
        codes = duadic_codes(mixed)
        assert (codes.c_e_perp, codes.d_e_perp) == (dual(codes.c_e), dual(codes.d_e))

    # The mixed identities hold in every case, so only i and ii are wrong
    # answers the checks can catch: a case-i pair told "mixed" is built right.
    @pytest.mark.parametrize("case,wrong", [("i", "ii"), ("ii", "i"), ("mixed", "i"), ("mixed", "ii")])
    def test_wrong_case_is_caught(self, f2, z33_swap_pair, monkeypatch, case, wrong):
        pair = _case_pairs(f2, z33_swap_pair)[case]
        monkeypatch.setattr(duadic_module, "duality_case", lambda pair: (wrong, ()))
        with pytest.raises(VerificationError, match="^dual of an ideal code violates the inversion-dual identity$"):
            duadic_codes(pair)


class TestDualityCaseReadsMuMinus1:
    """`duality_case` reads mu_-1's action from one pair's e and f; the
    flags `reference_mu_minus1_flags` computes over a whole stack are the
    oracle: swapped is case i, fixed case ii, neither mixed."""

    @staticmethod
    def flag_cases(group, es, fs) -> list[str]:
        fixed, swapped = reference_mu_minus1_flags(group, es, fs)
        return ["i" if s else "ii" if f else "mixed" for f, s in zip(fixed, swapped)]

    @pytest.mark.parametrize("spec,mu_name,q,case,count", [
        ("31", "mu-1", 5, "i", 16),
        ("3x3", "swap", 2, "ii", 2),
        ("5x5", "swap", 2, "ii", 4),
    ])
    def test_every_enumerated_pair(self, spec, mu_name, q, case, count):
        pairs = _cell_pairs(q, spec, mu_name, "enumerate-all")
        assert len(pairs) == count
        cases = [duality_case(pair)[0] for pair in pairs]
        assert cases == self.flag_cases(pairs.group, pairs.es, pairs.fs) == [case] * count

    def test_mixed_product(self, f2, z33_swap_pair):
        mixed = _case_pairs(f2, z33_swap_pair)["mixed"]
        assert duality_case(mixed)[0] == "mixed"
        assert self.flag_cases(mixed.group, mixed.e.vec[None], mixed.f.vec[None]) == ["mixed"]


class TestOddLikeBound:
    def test_sharpened_for_inversion(self, f2):
        g = cyclic_group(7)
        pair = construct_pairs(builtin_mu_minus1(g), f2, g)[0]
        assert odd_like_bound(pair) == ("sharpened", 3)

    def test_square_for_swap(self, z33_swap_pair):
        assert odd_like_bound(z33_swap_pair) == ("square", 3)

    def test_square_for_product(self, paper_pair):
        prod = product_duadic(paper_pair, paper_pair)
        assert odd_like_bound(prod) == ("square", 9)

    def test_bounds_hold_on_enumerable_instances(self, f2):
        for n, q in [(7, 2), (11, 3), (13, 3), (23, 2), (31, 2)]:
            field = field_from_order(q)
            g = cyclic_group(n)
            pair = construct_pairs(builtin_mu_minus1(g), field, g)[0]
            codes = duadic_codes(pair)
            kind, bound = odd_like_bound(pair)
            assert kind == "sharpened"
            d_o, _ = odd_like_min_weight(codes, "e")
            assert d_o >= bound
            assert d_o * d_o - d_o + 1 >= n


class TestProductDuadic:
    def test_paper_product(self, paper_pair):
        prod = product_duadic(paper_pair, paper_pair)
        assert prod.group.order == 81
        assert is_idempotent(prod.e) and is_even_like(prod.e)
        assert duality_case(prod)[0] == "ii"
        codes = duadic_codes(prod)
        assert (codes.c_e.k, codes.d_e.k) == (40, 41)

    def test_product_witness_weight_4(self, paper_pair):
        prod = product_duadic(paper_pair, paper_pair)
        weights = sorted(w.weight() for w in prod.witnesses)
        assert weights[0] == 4
        # e * e1 = e1 pins wt(C_e) <= 4
        e1 = prod.witnesses[0]
        assert alg_mul(prod.e, e1) == e1 or alg_mul(prod.f, e1) == e1

    def test_order_49_product(self, f2):
        g = cyclic_group(7)
        pair = construct_pairs(builtin_mu_minus1(g), f2, g)[0]
        prod = product_duadic(pair, pair)
        assert prod.group.order == 49
        codes = duadic_codes(prod)
        assert (codes.c_e.k, codes.d_e.k) == (24, 25)

    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
    def test_matches_reference_product(self, q):
        """e, f and the witnesses, byte for byte and in order, equal the pair
        built by group-algebra products: every pairing of order <= 512 of the
        first two enumerate-all pairs of each factor cell, and a product of a
        product on either side."""
        field = field_from_order(q)
        factors = []
        for group, mu in [
            (group_abelian([3, 3]), builtin_mu_swap),
            (group_abelian([5, 5]), builtin_mu_swap),
            (cyclic_group(7), None),
            (cyclic_group(11), None),
            (cyclic_group(23), None),
        ]:
            try:
                split = builtin_mu_minus1(group) if mu is None else mu(group, q)
                pairs = construct_pairs(split, field, group, "enumerate-all")
            except (ValueError, NoSplittingError):  # gcd(n, q) > 1, or no splitting
                continue
            factors += [pairs[i] for i in range(min(2, len(pairs)))]
        pairings = [(a, b) for a in factors for b in factors if a.group.order * b.group.order <= 512]
        z7 = next((pair for pair in factors if pair.group.order == 7), None)
        if z7 is not None:
            z49 = product_duadic(z7, z7)
            pairings += [(z49, z7), (z7, z49)]
        assert pairings
        for a, b in pairings:
            got, want = product_duadic(a, b), reference_product_duadic(a, b)
            assert got.e.vec.tobytes() == want.e.vec.tobytes() and got.f.vec.tobytes() == want.f.vec.tobytes()
            assert [w.vec.tobytes() for w in got.witnesses] == [w.vec.tobytes() for w in want.witnesses]
            assert got.mu == want.mu and got.group == want.group

    def test_field_mismatch(self, f2, paper_pair):
        f4 = field_from_order(4)
        g = cyclic_group(7)
        pair47 = construct_pairs(builtin_mu_minus1(g), f4, g)[0]
        with pytest.raises(ValueError, match="different fields"):
            product_duadic(paper_pair, pair47)


class TestExistenceEquivalence:
    @pytest.mark.parametrize("q", [2, 3])
    def test_small_slice(self, q):
        field = field_from_order(q)
        for n in range(3, 26, 2):
            if math.gcd(n, q) != 1:
                continue
            g = cyclic_group(n)
            mu = builtin_mu_minus1(g)
            try:
                built = bool(construct_pairs(mu, field, g))
            except NoSplittingError:
                built = False
            assert built == splitting_exists_mu_minus1(n, q), (n, q)


class TestNonabelian:
    def test_frobenius21_over_gf4(self, frobenius21):
        # ord_21(4) = 3 is odd, so the inversion splitting exists on a
        # nonabelian group of odd order
        f4 = field_from_order(4)
        mu = builtin_mu_minus1(frobenius21)
        chk = check_splitting(mu, f4, frobenius21)
        assert chk.ok
        pair = construct_pairs(mu, f4, frobenius21)[0]
        codes = duadic_codes(pair)
        assert (codes.c_e.k, codes.d_e.k) == (10, 11)
        assert duality_case(pair) == ("i", ("C_e-perp = D_e", "C_f-perp = D_f"))
        assert (codes.c_e_perp, codes.d_e_perp) == (dual(codes.c_e), dual(codes.d_e))

    def test_frobenius21_over_gf2_no_splitting(self, frobenius21):
        f2 = field_from_order(2)
        chk = check_splitting(builtin_mu_minus1(frobenius21), f2, frobenius21)
        assert not chk.ok
        assert not splitting_exists_mu_minus1(21, 2)

    def test_heisenberg27_over_gf4(self, heisenberg27):
        # nonabelian with a nontrivial center; ord_27(4) = 9 is odd
        f4 = field_from_order(4)
        mu = builtin_mu_minus1(heisenberg27)
        chk = check_splitting(mu, f4, heisenberg27)
        assert chk.ok
        assert splitting_exists_mu_minus1(27, 4)
        pair = construct_pairs(mu, f4, heisenberg27)[0]
        codes = duadic_codes(pair)
        assert (codes.c_e.k, codes.d_e.k) == (13, 14)
        assert odd_like_bound(pair) == ("sharpened", 6)

    @pytest.mark.parametrize("q", [2, 4, 5, 7])
    def test_heisenberg27_count_equality(self, heisenberg27, q):
        field = field_from_order(q)
        counts = verify_key_proposition(builtin_mu_minus1(heisenberg27), field, heisenberg27)
        assert counts[0] == counts[1]
        # the class criterion must agree with the order-of-q test
        chk = check_splitting(builtin_mu_minus1(heisenberg27), field, heisenberg27)
        assert chk.ok == splitting_exists_mu_minus1(27, q)


def _zero_pair(order, q):
    field, group = field_from_order(q), cyclic_group(order)
    zero = AlgebraElement.zero(field, group)
    return DuadicPair(field, group, zero, zero, builtin_mu_minus1(group))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: _zero_pair(8, 3), "group order 8 must be odd"),
        (lambda: _zero_pair(9, 3), re.escape("gcd(|G|=9, q=3) != 1")),
        (
            lambda: construct_pairs(builtin_mu_minus1(cyclic_group(7)), field_from_order(2), cyclic_group(7), mode="bogus"),
            "unknown mode 'bogus'",
        ),
    ],
)
def test_public_input_guards_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
