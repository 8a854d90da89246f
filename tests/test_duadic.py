"""Splitting existence, pair construction, the four codes, duality, bounds,
and product pairs."""

from __future__ import annotations

import math

import numpy as np
import pytest

from duadic.algebra import (
    AlgebraElement,
    alg_mul,
    is_even_like,
    is_idempotent,
    split_primitive_central_idempotents,
)
from duadic import duadic as duadic_module
from duadic.codes import odd_like_min_weight
from duadic.duadic import (
    DuadicPair,
    check_splitting,
    classify_duality,
    construct_pairs,
    duadic_codes,
    odd_like_bound,
    product_duadic,
    splitting_exists_mu_minus1,
    verify_key_proposition,
)
from duadic.errors import NoSplittingError, VerificationError
from duadic.gf import field_from_order
from duadic.groups import (
    Antiautomorphism,
    builtin_mu_minus1,
    builtin_mu_swap,
    cyclic_group,
    group_abelian,
    group_from_cayley,
)


def tuple_elem(field, group, tuples):
    return AlgebraElement.from_coeff_list(field, group, [(group.element_id(t), 1) for t in tuples])


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
    @pytest.mark.parametrize("n,q,expected", [(7, 2, True), (9, 2, False), (1, 5, True), (23, 2, True)])
    def test_examples(self, n, q, expected):
        assert splitting_exists_mu_minus1(n, q) is expected

    def test_rejects_even_order(self):
        with pytest.raises(ValueError, match="odd"):
            splitting_exists_mu_minus1(8, 3)

    def test_rejects_gcd(self):
        with pytest.raises(ValueError, match="gcd"):
            splitting_exists_mu_minus1(9, 3)


class TestCheckSplitting:
    def test_z7_ok(self, f2):
        g = cyclic_group(7)
        chk = check_splitting(builtin_mu_minus1(g), f2, g)
        assert chk.ok
        assert chk.fixed_class_count == chk.fixed_idempotent_count == 1

    def test_z33_mu_minus1_fails_with_all_classes_fixed(self, f2):
        g = group_abelian([3, 3])
        chk = check_splitting(builtin_mu_minus1(g), f2, g)
        assert not chk.ok
        assert chk.fixed_class_ids == (0, 1, 2, 3, 4)
        assert chk.fixed_idempotent_count == 5

    def test_z33_swap_ok(self, f2):
        g = group_abelian([3, 3])
        assert check_splitting(builtin_mu_swap(g, 2), f2, g).ok

    def test_swap_fails_when_order_of_q_is_odd(self, f2):
        # the swap splitting needs ord_p(q) even; ord_7(2) = 3 is odd, so a
        # nontrivial fixed class must exist (and counts still agree)
        g = group_abelian([7, 7])
        chk = check_splitting(builtin_mu_swap(g, 2), f2, g)
        assert not chk.ok
        assert chk.fixed_class_count == chk.fixed_idempotent_count > 1

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

    def test_counts_reported_not_enforced(self, monkeypatch):
        # a class action that fixes every class breaks the count equality:
        # the oracle reports both counts, check_splitting refuses them
        field = field_from_order(2)
        group = cyclic_group(7)
        mu = builtin_mu_minus1(group)
        monkeypatch.setattr(duadic_module, "mu_action_on_class", lambda mu, partition, cid: cid)
        assert verify_key_proposition(mu, field, group) == (3, 1)
        with pytest.raises(VerificationError, match="fixed-class count 3 != fixed-idempotent count 1"):
            check_splitting(mu, field, group)


class TestConstructPairs:
    def test_z7_canonical(self, f2):
        g = cyclic_group(7)
        pairs = construct_pairs(builtin_mu_minus1(g), f2, g)
        assert len(pairs) == 1
        e, f = pairs[0].e, pairs[0].f
        assert sorted(e.support()) == [0, 3, 5, 6]
        assert sorted(f.support()) == [0, 1, 2, 4]
        assert pairs[0].swapped_by_mu_minus1 and not pairs[0].fixed_by_mu_minus1

    def test_z33_swap_enumerate_all_contains_paper_pair(self, f2):
        g = group_abelian([3, 3])
        pairs = construct_pairs(builtin_mu_swap(g, 2), f2, g, mode="enumerate-all")
        assert len(pairs) == 2  # 2^(l-1) with l = 2
        e1 = tuple_elem(f2, g, [(1, 0), (2, 0), (1, 1), (2, 2)])
        f1 = tuple_elem(f2, g, [(0, 1), (0, 2), (1, 2), (2, 1)])
        assert any(p.e == e1 and p.f == f1 for p in pairs)
        assert all(p.fixed_by_mu_minus1 for p in pairs)

    def test_trivial_group_yields_nothing(self, f2):
        g = group_from_cayley([[0]])
        assert construct_pairs(builtin_mu_minus1(g), f2, g) == []

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
            report = classify_duality(pair, codes)
            assert report.verified

    def test_invalid_pair_rejected(self, f2):
        g = cyclic_group(7)
        e = AlgebraElement.from_coeff_list(f2, g, [(1, 1), (2, 1), (4, 1)])
        with pytest.raises(VerificationError, match="axioms"):
            DuadicPair(f2, g, e, e, builtin_mu_minus1(g))


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


class TestClassifyDuality:
    def test_case_i(self, f2):
        g = cyclic_group(7)
        pair = construct_pairs(builtin_mu_minus1(g), f2, g)[0]
        report = classify_duality(pair)
        assert report.case == "i" and report.verified

    def test_case_ii(self, z33_swap_pair):
        report = classify_duality(z33_swap_pair)
        assert report.case == "ii" and report.verified

    def test_mixed_case(self, f2, z33_swap_pair):
        g7 = cyclic_group(7)
        pair7 = construct_pairs(builtin_mu_minus1(g7), f2, g7)[0]
        mixed = product_duadic(z33_swap_pair, pair7)
        assert not mixed.fixed_by_mu_minus1 and not mixed.swapped_by_mu_minus1
        report = classify_duality(mixed)
        assert report.case == "mixed" and report.verified


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
        assert prod.fixed_by_mu_minus1
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
        assert pair.swapped_by_mu_minus1
        codes = duadic_codes(pair)
        assert (codes.c_e.k, codes.d_e.k) == (10, 11)
        report = classify_duality(pair, codes)
        assert report.case == "i" and report.verified

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
