"""Group algebra arithmetic and centrally primitive idempotents."""

from __future__ import annotations

import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest

from duadic import _linalg, algebra
from duadic.algebra import (
    AlgebraElement,
    _by_minimal_polynomial,
    _class_sum_action,
    _scalar_rows,
    _split_units,
    alg_mul,
    apply_antiauto,
    hat_group,
    split_primitive_central_idempotents,
)
from duadic.codes import code_from_ideal
from duadic.errors import VerificationError
from duadic.gf import field_from_order, multiplicative_order_mod
from duadic.groups import (
    builtin_mu_minus1,
    builtin_mu_swap,
    cyclic_group,
    fq_classes,
    group_abelian,
    group_from_cayley,
    group_product,
)

from conftest import heisenberg27_table, metacyclic_table
from oracles import (
    Polynomial,
    _primitive_root_factor,
    abelian_character_idempotents,
    hat_subgroup,
    is_central,
    is_even_like,
    is_idempotent,
    naive_mul,
    reference_rref,
    reference_split_idempotents,
    validate_idempotent_set,
    x_pow_minus_one,
)

REFERENCE_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
NOT_INTEGERS = r"^indexes must be integers, got (float64|<U1) entries$"


def _reference_cells():
    """(q, group) for the Frobenius-kernel oracle: non-abelian groups of odd
    order and abelian cells, over every field order coprime to |G|."""
    frobenius21 = group_from_cayley(metacyclic_table(7, 2))
    groups = [
        ("frobenius21", frobenius21),
        ("heisenberg27", group_from_cayley(heisenberg27_table())),
        ("z7:z3xz3", group_product(frobenius21, cyclic_group(3))),
        ("z13:z3", group_from_cayley(metacyclic_table(13, 3))),
        ("z19:z3", group_from_cayley(metacyclic_table(19, 7))),
        ("z7", cyclic_group(7)),
        ("z9", cyclic_group(9)),
        ("z15", cyclic_group(15)),
        ("z21", cyclic_group(21)),
        ("z3xz3", group_abelian([3, 3])),
        ("z5xz5", group_abelian([5, 5])),
    ]
    for name, group in groups:
        for q in REFERENCE_QS:
            if math.gcd(group.order, q) == 1:
                yield pytest.param(q, group, id=f"{name}-q{q}")


def reference_alg_mul(a, b):
    """The convolution one support element at a time: a_h times b shifted by h."""
    field, left = a.field, a.group.left_translation
    acc = np.zeros(a.group.order, dtype=np.int64)
    for g in np.nonzero(a.vec)[0]:
        acc = field.vadd(acc, field.vmul(np.int64(int(a.vec[g])), b.vec[left[g]]))
    return AlgebraElement(field, a.group, acc)


def poly_elem(field, group, exponents):
    """Element sum x^e over exponents, in a cyclic group written as powers of x."""
    return AlgebraElement.from_coeff_list(field, group, [(e % group.order, 1) for e in exponents])


def tuple_elem(field, group, tuples):
    return AlgebraElement.from_coeff_list(field, group, [(group.element_id(t), 1) for t in tuples])


@pytest.fixture(scope="module")
def z7():
    return cyclic_group(7)


@pytest.fixture(scope="module")
def z33():
    return group_abelian([3, 3])


class TestAlgMul:
    def test_unit(self, gf4, z7):
        rng = random.Random(3)
        a = AlgebraElement(gf4, z7, [rng.randrange(4) for _ in range(7)])
        one = AlgebraElement.one(gf4, z7)
        assert alg_mul(a, one) == a
        assert alg_mul(one, a) == a

    def test_squaring_char2(self, gf2, z7):
        a = poly_elem(gf2, z7, [0, 1, 2, 4])
        assert alg_mul(a, a) == a

    def test_paper_idempotent_z33(self, gf2, z33):
        e1 = tuple_elem(gf2, z33, [(1, 0), (2, 0), (1, 1), (2, 2)])
        assert alg_mul(e1, e1) == e1

    def test_context_mismatch(self, gf2, gf4, z7):
        a = AlgebraElement.one(gf2, z7)
        b = AlgebraElement.one(gf4, z7)
        with pytest.raises(ValueError, match="context"):
            alg_mul(a, b)

    @pytest.mark.parametrize("q,orders", [(2, [7]), (4, [5]), (9, [3, 3]), (3, [2, 2])])
    def test_against_naive_convolution(self, q, orders):
        field = field_from_order(q)
        group = group_abelian(orders)
        rng = random.Random(q * 17)
        for _ in range(4):
            a = AlgebraElement(field, group, [rng.randrange(q) for _ in range(group.order)])
            b = AlgebraElement(field, group, [rng.randrange(q) for _ in range(group.order)])
            assert alg_mul(a, b) == naive_mul(a, b)

    def test_against_naive_nonabelian(self, frobenius21, gf2):
        rng = random.Random(5)
        a = AlgebraElement(gf2, frobenius21, [rng.randrange(2) for _ in range(21)])
        b = AlgebraElement(gf2, frobenius21, [rng.randrange(2) for _ in range(21)])
        assert alg_mul(a, b) == naive_mul(a, b)

    @pytest.mark.parametrize("group_fixture", ["frobenius21", "heisenberg27"])
    def test_associativity_exhaustive_basis(self, group_fixture, gf2, request):
        g = request.getfixturevalue(group_fixture)
        basis = [AlgebraElement.basis(gf2, g, i) for i in range(g.order)]
        for i in range(g.order):
            for j in range(g.order):
                left_ij = alg_mul(basis[i], basis[j])
                for k in range(g.order):
                    left = alg_mul(left_ij, basis[k])
                    right = alg_mul(basis[i], alg_mul(basis[j], basis[k]))
                    assert left == right

    @pytest.mark.parametrize("q,orders", [(2, [3, 3]), (5, [7]), (4, [9])])
    def test_associativity_random(self, q, orders):
        field = field_from_order(q)
        group = group_abelian(orders)
        rng = random.Random(q + sum(orders))
        for _ in range(5):
            a, b, c = (
                AlgebraElement(field, group, [rng.randrange(q) for _ in range(group.order)])
                for _ in range(3)
            )
            assert alg_mul(alg_mul(a, b), c) == alg_mul(a, alg_mul(b, c))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 257])
    @pytest.mark.parametrize("group_fixture", ["frobenius21", "heisenberg27"])
    def test_against_loop_oracle(self, q, group_fixture, request):
        g = request.getfixturevalue(group_fixture)
        field = field_from_order(q)
        rng = np.random.default_rng(q * g.order)
        for density in (0.0, 0.1, 0.5, 1.0):
            a, b = (
                AlgebraElement(field, g, rng.integers(0, q, g.order) * (rng.random(g.order) < density))
                for _ in range(2)
            )
            expected = reference_alg_mul(a, b)
            assert alg_mul(a, b) == expected

    def test_pow(self, gf2, z7):
        a = poly_elem(gf2, z7, [1])
        assert (a ** 7) == AlgebraElement.one(gf2, z7)
        assert (a ** 0) == AlgebraElement.one(gf2, z7)


class TestHat:
    def test_identity_subgroup(self, gf4, z7):
        assert hat_subgroup(gf4, z7, [0]) == AlgebraElement.one(gf4, z7)

    def test_ghat_z7(self, gf2, z7):
        ghat = hat_group(gf2, z7)
        assert ghat.vec.tolist() == [1] * 7
        assert is_idempotent(ghat)

    def test_ghat_z33(self, gf2, z33):
        assert hat_group(gf2, z33).vec.tolist() == [1] * 9

    def test_repetition_ideal_dim_one(self, gf2, z7):
        assert code_from_ideal(hat_group(gf2, z7)).k == 1

    def test_proper_subgroup_hat(self, gf2, z33):
        a = z33.element_id((1, 0))
        n_hat = hat_subgroup(gf2, z33, [0, a, z33.power(a, 2)])
        assert is_idempotent(n_hat) and is_central(n_hat)
        assert n_hat.weight() == 3

    def test_rejects_non_subgroup(self, gf2, z7):
        with pytest.raises(ValueError, match="subgroup"):
            hat_subgroup(gf2, z7, [0, 1])

    def test_rejects_non_invertible_size(self):
        f7 = field_from_order(7)
        with pytest.raises(ValueError, match="invertible"):
            hat_subgroup(f7, cyclic_group(7), range(7))
        with pytest.raises(ValueError, match=r"\|N\| = 7 is not invertible"):
            hat_group(f7, cyclic_group(7))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
    def test_ghat_is_the_hat_of_the_whole_group(self, q, z33, frobenius21):
        field = field_from_order(q)
        for group in (cyclic_group(11), z33, frobenius21):
            if group.order % field.p:
                assert hat_group(field, group) == hat_subgroup(field, group, range(group.order))


class TestPredicates:
    def test_even_like(self, gf2, z7, z33):
        assert is_even_like(AlgebraElement.zero(gf2, z7))
        assert is_even_like(tuple_elem(gf2, z33, [(1, 0), (2, 0), (1, 1), (2, 2)]))
        assert not is_even_like(poly_elem(gf2, z7, [0, 1, 3]))

    def test_central_abelian(self, gf9, z33):
        rng = random.Random(1)
        a = AlgebraElement(gf9, z33, [rng.randrange(9) for _ in range(9)])
        assert is_central(a)

    def test_central_nonabelian(self, frobenius21, gf2):
        assert is_central(hat_group(gf2, frobenius21))
        # a is conjugated to a^2, so the basis element a is not central
        assert not is_central(AlgebraElement.basis(gf2, frobenius21, 3))


class TestApplyAntiauto:
    def test_mu_minus1_on_qr_idempotent(self, gf2, z7):
        mu = builtin_mu_minus1(z7)
        e = poly_elem(gf2, z7, [0, 1, 2, 4])
        assert apply_antiauto(mu, e) == poly_elem(gf2, z7, [0, 3, 5, 6])

    def test_swap_sends_e1_to_f1(self, gf2, z33):
        mu = builtin_mu_swap(z33, 2)
        e1 = tuple_elem(gf2, z33, [(1, 0), (2, 0), (1, 1), (2, 2)])
        f1 = tuple_elem(gf2, z33, [(0, 1), (0, 2), (1, 2), (2, 1)])
        assert apply_antiauto(mu, e1) == f1

    def test_mu_minus1_fixes_e1(self, gf2, z33):
        mu = builtin_mu_minus1(z33)
        e1 = tuple_elem(gf2, z33, [(1, 0), (2, 0), (1, 1), (2, 2)])
        assert apply_antiauto(mu, e1) == e1

    @pytest.mark.parametrize("q,orders", [(2, [7]), (4, [3, 3]), (9, [5])])
    def test_antimultiplicative_and_isometric(self, q, orders):
        field = field_from_order(q)
        group = group_abelian(orders)
        mu = builtin_mu_minus1(group)
        rng = random.Random(q)
        for _ in range(4):
            a = AlgebraElement(field, group, [rng.randrange(q) for _ in range(group.order)])
            b = AlgebraElement(field, group, [rng.randrange(q) for _ in range(group.order)])
            assert apply_antiauto(mu, alg_mul(a, b)) == alg_mul(
                apply_antiauto(mu, b), apply_antiauto(mu, a)
            )
            assert apply_antiauto(mu, a).weight() == a.weight()

    def test_fixes_ghat(self, frobenius21, gf4):
        mu = builtin_mu_minus1(frobenius21)
        ghat = hat_group(gf4, frobenius21)
        assert apply_antiauto(mu, ghat) == ghat

    def test_nontrivial_frobenius_part(self, gf4, z7):
        from duadic.groups import Antiautomorphism

        mu = Antiautomorphism(z7, z7.inverse.copy(), frobenius_power=1)
        a = AlgebraElement(gf4, z7, [2, 3, 0, 0, 0, 0, 1])
        out = apply_antiauto(mu, a)
        # coefficients are squared and moved to inverse positions
        assert out.vec[0] == gf4.frobenius(2)
        assert out.vec[6] == gf4.frobenius(3)
        assert out.vec[1] == gf4.frobenius(1)


class TestSplitIdempotents:
    def test_z7_exact_set(self, gf2, z7):
        s = split_primitive_central_idempotents(gf2, z7)
        supports = set(map(tuple, s.tolist()))
        want = {
            tuple(np.bincount([0, 1, 2, 4], minlength=7)),
            tuple(np.bincount([0, 3, 5, 6], minlength=7)),
            (1,) * 7,
        }
        assert supports == want
        validate_idempotent_set(gf2, z7, s)

    def test_z33_count_and_dims(self, gf2, z33):
        s = split_primitive_central_idempotents(gf2, z33)
        assert len(s) == 5
        dims = sorted(code_from_ideal(AlgebraElement(gf2, z33, e)).k for e in s)
        assert dims == [1, 2, 2, 2, 2]
        validate_idempotent_set(gf2, z33, s)

    def test_trivial_group(self, gf9):
        g = group_from_cayley([[0]])
        s = split_primitive_central_idempotents(gf9, g)
        assert s.tolist() == [[1]]

    def test_gcd_violation(self, z33):
        f3 = field_from_order(3)
        with pytest.raises(ValueError, match="gcd"):
            split_primitive_central_idempotents(f3, z33)

    def test_given_partition(self, gf2, z7, z33):
        # the classes a caller has computed already, as construct_pairs
        # passes its check's; those of another field or group are refused
        want = split_primitive_central_idempotents(gf2, z7)
        assert np.array_equal(split_primitive_central_idempotents(gf2, z7, fq_classes(z7, 2)), want)
        for partition in (fq_classes(z7, 4), fq_classes(z33, 2)):
            with pytest.raises(ValueError, match="^partition belongs to another group or field$"):
                split_primitive_central_idempotents(gf2, z7, partition)

    @pytest.mark.parametrize(
        "q,orders",
        [(2, [15]), (3, [11]), (4, [9]), (5, [9]), (9, [7]), (4, [3, 3]), (2, [9, 3])],
    )
    def test_validates_and_counts_classes(self, q, orders):
        field = field_from_order(q)
        group = group_abelian(orders)
        s = split_primitive_central_idempotents(field, group)
        assert len(s) == len(fq_classes(group, q))
        validate_idempotent_set(field, group, s)

    @pytest.mark.parametrize("q", [2, 4, 5])
    def test_nonabelian_frobenius21(self, frobenius21, q):
        field = field_from_order(q)
        s = split_primitive_central_idempotents(field, frobenius21)
        assert len(s) == len(fq_classes(frobenius21, q))
        validate_idempotent_set(field, frobenius21, s)

    def test_mu_stability(self, gf2, z33):
        s = split_primitive_central_idempotents(gf2, z33)
        for mu in (builtin_mu_minus1(z33), builtin_mu_swap(z33, 2)):
            for e in s:
                assert apply_antiauto(mu, AlgebraElement(gf2, z33, e)).vec.tolist() in s.tolist()

    def test_component_dimensions_sum_to_n(self, frobenius21):
        field = field_from_order(2)
        s = split_primitive_central_idempotents(field, frobenius21)
        assert sum(code_from_ideal(AlgebraElement(field, frobenius21, e)).k for e in s) == 21


def _force_values(monkeypatch, by_minimal_polynomial: bool) -> None:
    """Split every stack through the minimal polynomial of its sum, or
    through x^q - x, whatever its size."""
    monkeypatch.setattr(algebra, "_by_minimal_polynomial", lambda q, stack: by_minimal_polynomial)


class TestSplitAgainstFrobeniusKernel:
    @pytest.mark.parametrize("q,group", list(_reference_cells()))
    def test_matches_frobenius_kernel_oracle(self, q, group, monkeypatch):
        field = field_from_order(q)
        reference, fixed_center = reference_split_idempotents(field, group)
        partition = fq_classes(group, q)
        r = len(partition)
        # the fixed center is F_q^r, spanned by the F_q-class sums
        assert fixed_center.shape[0] == r
        class_sums = (partition.class_of == np.arange(r)[:, None]).astype(np.int64)
        assert np.array_equal(reference_rref(field, fixed_center)[0], reference_rref(field, class_sums)[0])
        assert np.array_equal(split_primitive_central_idempotents(field, group), reference)
        # each value set on every stack: x^q - x, and the minimal polynomial
        for by_minimal_polynomial in (False, True):
            _force_values(monkeypatch, by_minimal_polynomial)
            assert np.array_equal(split_primitive_central_idempotents(field, group), reference), by_minimal_polynomial

    def test_refining_outside_the_fixed_subalgebra_raises(self, gf2, z7, monkeypatch):
        # g is central but not Frobenius-fixed: multiplication by g on the
        # class representatives, read at the representatives, is a matrix whose
        # minimal polynomial on the unit is x^2, which has one root only
        reps = fq_classes(z7, 2).reps
        matrix = np.array([[int(z7.table[x, 1] == y) for y in reps] for x in reps])
        units = np.eye(1, len(reps), dtype=np.int64)
        for by_minimal_polynomial in (False, True):
            _force_values(monkeypatch, by_minimal_polynomial)
            with pytest.raises(VerificationError, match="not split squarefree") as info:
                _split_units(gf2, units, lambda rows: _linalg.matmul(gf2, rows, matrix))
            assert "polynomial x^2 in" in str(info.value)

    @pytest.mark.parametrize(
        "shift,message",
        [
            # multiplication by g on class coordinates: x^3 - 1, degree above q
            ((), "minimal polynomial of degree > 2 is not split squarefree"),
            # by g + g^-1, central but not Frobenius-fixed: irreducible over GF(2)
            ((1, 1, 1), "minimal polynomial x^2 + x + 1 in the fixed subalgebra"),
        ],
        ids=["degree-above-q", "irreducible"],
    )
    def test_refining_by_a_non_class_sum_raises(self, gf2, z7, shift, message, monkeypatch):
        # reps (0, 1, 3) of Z7 over GF(2); class(z_k g^-1) = (2, 0, 1)
        def times(rows):
            out = rows[:, [2, 0, 1]]
            return gf2.vadd(out, rows[:, list(shift)]) if shift else out

        for by_minimal_polynomial in (False, True):
            _force_values(monkeypatch, by_minimal_polynomial)
            with pytest.raises(VerificationError, match=re.escape(message)):
                _split_units(gf2, np.eye(1, 3, dtype=np.int64), times)

    def test_refining_names_the_first_unit_not_split(self, gf2, monkeypatch):
        # coordinates (0, 1): diag(0, 1); (2, 3): the companion matrix of the
        # irreducible x^2 + x + 1.  Unit e0 + e1 splits by x^2 + x; e2 does not,
        # and the sum's minimal polynomial x^4 + x has degree above q
        matrix = np.zeros((4, 4), dtype=np.int64)
        matrix[1, 1] = matrix[2, 3] = matrix[3, 2] = matrix[3, 3] = 1
        units = np.array([[1, 1, 0, 0], [0, 0, 1, 0]])
        for by_minimal_polynomial in (False, True):
            _force_values(monkeypatch, by_minimal_polynomial)
            with pytest.raises(VerificationError) as info:
                _split_units(gf2, units, lambda rows: _linalg.matmul(gf2, rows, matrix))
            assert str(info.value) == (
                "minimal polynomial x^2 + x + 1 in the fixed subalgebra is not split squarefree"
            ), by_minimal_polynomial

    @pytest.mark.parametrize("n,q", [(7, 257), (7, 65521), (7, 65536), (25, 251)])
    def test_small_groups_over_large_fields_match_characters(self, n, q, monkeypatch):
        field, group = field_from_order(q), cyclic_group(n)
        want = abelian_character_idempotents(field, group)
        assert np.array_equal(split_primitive_central_idempotents(field, group), want)
        if q <= 257:  # a q x q table on the x^q - x side
            for by_minimal_polynomial in (False, True):
                _force_values(monkeypatch, by_minimal_polynomial)
                assert np.array_equal(split_primitive_central_idempotents(field, group), want), by_minimal_polynomial


class TestSplitWork:
    @pytest.mark.parametrize(
        "q,group,minimal_polynomial_steps",
        [
            pytest.param(2, cyclic_group(33), 0, id="z33-q2"),
            pytest.param(4, group_from_cayley(metacyclic_table(7, 2)), 0, id="z7:z3-q4"),
            pytest.param(9, group_abelian([5, 5]), 1, id="z5xz5-q9"),
        ],
    )
    def test_small_fields_split_by_x_q_minus_x(self, q, group, minimal_polynomial_steps, monkeypatch):
        # x^q - x gives every value of a class sum while q k <= 2r + 1 for the
        # k moved units: no elimination and no root search there; a larger
        # stack takes one root search for its class sum; at most q + 1
        # products per class sum either way
        calls = {"rref": 0, "roots": 0}
        steps = []

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        def class_sum_action(field, partition, j):
            times = _class_sum_action(field, partition, j)
            steps.append({"products": 0, "rref": calls["rref"]})

            def counted_times(rows):
                steps[-1]["products"] += 1
                return times(rows)

            return counted_times

        def by_minimal_polynomial(q, stack):
            steps[-1]["minimal_polynomial"] = _by_minimal_polynomial(q, stack)
            return steps[-1]["minimal_polynomial"]

        monkeypatch.setattr(_linalg, "rref", counted("rref", _linalg.rref))
        monkeypatch.setattr(algebra, "roots", counted("roots", algebra.roots))
        monkeypatch.setattr(algebra, "_class_sum_action", class_sum_action)
        monkeypatch.setattr(algebra, "_by_minimal_polynomial", by_minimal_polynomial)
        field = field_from_order(q)
        split = split_primitive_central_idempotents(field, group)
        assert len(split) == len(fq_classes(group, q))
        assert sum(step.get("minimal_polynomial", False) for step in steps) == minimal_polynomial_steps
        assert calls["roots"] == minimal_polynomial_steps
        # every elimination runs in a class sum split by its minimal polynomial
        ends = [step["rref"] for step in steps[1:]] + [calls["rref"]]
        assert all(end == step["rref"] or step["minimal_polynomial"] for step, end in zip(steps, ends))
        assert steps and max(step["products"] for step in steps) <= q + 1

    def test_field_order_cap_builds_no_q_row_stack(self):
        # a q-row Krylov stack of one unit alone holds 8 q r bytes
        field, group = field_from_order(65521), cyclic_group(7)
        want = abelian_character_idempotents(field, group)
        assert np.array_equal(split_primitive_central_idempotents(field, group), want)  # the field's tables
        tracemalloc.start()
        try:
            split = split_primitive_central_idempotents(field, group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(split, want)
        assert "_point_projections" not in vars(field)
        assert peak < 8 * field.q * len(split)


CLASS_QS = (2, 3, 4, 5, 8, 9, 25)


def _class_coordinate_cells():
    """(q, group) for the class-sum matrices: non-abelian and abelian groups
    over every field order in CLASS_QS coprime to |G|."""
    groups = [
        ("z7:z3", group_from_cayley(metacyclic_table(7, 2))),
        ("heisenberg27", group_from_cayley(heisenberg27_table())),
        ("z9xz3", group_abelian([9, 3])),
        ("z3^4", group_abelian([3, 3, 3, 3])),
    ]
    for name, group in groups:
        for q in CLASS_QS:
            if math.gcd(group.order, q) == 1:
                yield pytest.param(q, group, id=f"{name}-q{q}")


class TestClassCoordinates:
    @pytest.mark.parametrize("q,group", list(_class_coordinate_cells()))
    def test_class_sum_matrices_against_alg_mul(self, q, group, monkeypatch):
        # row i of M_j is K_i K_j read at the class representatives
        field = field_from_order(q)
        partition = fq_classes(group, q)
        r = len(partition)
        sums = [AlgebraElement(field, group, (partition.class_of == i).astype(np.int64)) for i in range(r)]
        reps = list(partition.reps)
        want = [np.array([alg_mul(k_i, k_j).vec[reps] for k_i in sums]) for k_j in sums]
        identity = np.eye(r, dtype=np.int64)
        # the default blocks, then one member of C_j per gathered block
        for cells in (algebra._PRODUCT_CELLS, 1):
            monkeypatch.setattr(algebra, "_PRODUCT_CELLS", cells)
            for j in range(r):
                assert np.array_equal(_class_sum_action(field, partition, j)(identity), want[j]), j

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 25])
    def test_scalar_precheck_against_row_loop(self, q):
        field = field_from_order(q)
        rng = np.random.default_rng(q)
        units = rng.integers(0, q, (200, 6))
        units[:, 0] *= rng.random(200) < 0.5  # leading zeros
        units[~units.any(axis=1), 3] = 1
        products = field.vmul(rng.integers(0, q, 200)[:, None], units)
        bent = rng.random(200) < 0.5
        cols = rng.integers(0, 6, 200)[bent]
        products[bent, cols] = field.vadd(products[bent, cols], rng.integers(1, q, bent.sum()))
        want = [
            any(np.array_equal(p, field.vmul(np.int64(lam), u)) for lam in range(q))
            for u, p in zip(units, products)
        ]
        assert _scalar_rows(field, units, products).tolist() == want
        assert 0 < sum(want) < len(want)

    def test_fully_split_z63_over_gf64_matches_characters(self, monkeypatch):
        field, group = field_from_order(64), cyclic_group(63)
        split = split_primitive_central_idempotents(field, group)
        assert len(split) == 63
        assert np.array_equal(split, abelian_character_idempotents(field, group))
        for by_minimal_polynomial in (False, True):
            _force_values(monkeypatch, by_minimal_polynomial)
            assert np.array_equal(split_primitive_central_idempotents(field, group), split), by_minimal_polynomial

    def test_fully_split_z255_over_gf256(self):
        field, group = field_from_order(256), cyclic_group(255)
        start = time.perf_counter()
        split = split_primitive_central_idempotents(field, group)
        elapsed = time.perf_counter() - start
        assert len(split) == 255
        total = AlgebraElement.zero(field, group)
        for e in split:
            total = total + AlgebraElement(field, group, e)
        assert total == AlgebraElement.one(field, group)
        assert elapsed < 20.0, f"Z255 over GF(256) took {elapsed:.1f}s"


class TestCharacterOracle:
    @pytest.mark.parametrize(
        "q,m",
        [(2, 1), (2, 7), (2, 9), (2, 15), (2, 21), (3, 8), (3, 13), (4, 9), (5, 12),
         (7, 9), (8, 7), (9, 5), (16, 17), (25, 13)],
    )
    def test_primitive_root_factor_against_brute_force(self, q, m):
        field = field_from_order(q)
        s = multiplicative_order_mod(q, m)
        ym1 = x_pow_minus_one(field, m)
        lower = [x_pow_minus_one(field, d) for d in range(1, m) if m % d == 0]
        # monic degree-s divisors of y^m - 1 sharing no root with y^d - 1, d < m
        found = []
        for v in range(q**s):
            h = Polynomial(field, [v // q**i % q for i in range(s)] + [1])
            if (ym1 % h).is_zero() and all(h.gcd(g).is_one() for g in lower):
                found.append(h.coeffs)
        assert len(found) == sum(math.gcd(k, m) == 1 for k in range(1, m + 1)) // s
        assert _primitive_root_factor(field, m).coeffs == min(found)

    def test_z7_orbit_idempotent(self, gf2, z7):
        s = abelian_character_idempotents(gf2, z7)
        qr = poly_elem(gf2, z7, [0, 1, 2, 4])
        assert qr.vec.tolist() in s.tolist()

    def test_trivial_orbit_gives_ghat(self, gf2, z33):
        s = abelian_character_idempotents(gf2, z33)
        assert hat_group(gf2, z33).vec.tolist() in s.tolist()

    def test_matches_splitting_z33(self, gf2, z33):
        assert np.array_equal(abelian_character_idempotents(gf2, z33), split_primitive_central_idempotents(gf2, z33))

    @pytest.mark.parametrize(
        "q,orders",
        [(2, [45]), (3, [49]), (4, [21]), (5, [27]), (7, [25]), (9, [11]), (2, [3, 9]),
         (3, [5, 5]), (2, [63])],
    )
    def test_matches_splitting_grid(self, q, orders):
        field = field_from_order(q)
        group = group_abelian(orders)
        assert np.array_equal(
            abelian_character_idempotents(field, group), split_primitive_central_idempotents(field, group)
        )

    def test_rejects_nonabelian(self, frobenius21, gf2):
        with pytest.raises(ValueError, match="abelian"):
            abelian_character_idempotents(gf2, frobenius21)

    @pytest.mark.parametrize(
        "q,orders",
        [(2, [91]), (3, [104]), (2, [11, 11]), (4, [115]), (2, [5, 25])],
    )
    def test_matches_splitting_beyond_81(self, q, orders):
        field = field_from_order(q)
        group = group_abelian(orders)
        assert np.array_equal(
            abelian_character_idempotents(field, group), split_primitive_central_idempotents(field, group)
        )

    @pytest.mark.parametrize("orders", [[9], [3, 3], [9, 3], [5, 25]])
    def test_table_built_group_uses_greedy_basis(self, orders):
        # strip the product structure so the cyclic decomposition is recomputed
        field = field_from_order(2)
        structured = group_abelian(orders)
        stripped = group_from_cayley(structured.table.copy())
        assert stripped.abelian_orders is None
        got = abelian_character_idempotents(field, stripped)
        want = split_primitive_central_idempotents(field, stripped)
        assert np.array_equal(got, want)


class TestElementSurface:
    def test_coeffs_and_pairs(self, gf2, z33):
        e1 = tuple_elem(gf2, z33, [(1, 0), (2, 0), (1, 1), (2, 2)])
        assert e1.weight() == 4
        assert e1.to_pairs() == [
            ("a^1*b^0", 1),
            ("a^1*b^1", 1),
            ("a^2*b^0", 1),
            ("a^2*b^2", 1),
        ]
        assert "a^1*b^0" in repr(e1)

    def test_coefficient_vector_immutable(self, gf2, z7):
        a = AlgebraElement.one(gf2, z7)
        with pytest.raises(ValueError):
            a.vec[0] = 0

    def test_rejects_bad_vectors(self, gf2, z7):
        with pytest.raises(ValueError, match="length"):
            AlgebraElement(gf2, z7, [0, 1])
        with pytest.raises(ValueError, match="range"):
            AlgebraElement(gf2, z7, [0, 1, 2, 0, 0, 0, 0])

    @pytest.mark.parametrize("vec", [[1.7, 0, 0], ["1", "0", "0"]], ids=["float", "str"])
    def test_rejects_coefficients_that_are_not_integers(self, gf2, vec):
        # each was truncated or parsed to the element 1
        with pytest.raises(ValueError, match=NOT_INTEGERS):
            AlgebraElement(gf2, cyclic_group(3), vec)

    def test_basis_rejects_an_id_that_is_not_an_integer(self, gf2):
        # numpy's IndexError before
        with pytest.raises(ValueError, match=NOT_INTEGERS):
            AlgebraElement.basis(gf2, cyclic_group(3), 1.5)

    def test_coefficient_list_rejects_a_coefficient_that_is_not_an_integer(self, gf4):
        # an AttributeError from the field's addition before
        with pytest.raises(ValueError, match=NOT_INTEGERS):
            AlgebraElement.from_coeff_list(gf4, cyclic_group(3), [(0, 1.5)])

    def test_hat_subgroup_rejects_ids_that_are_not_integers(self, gf2):
        # truncated to 0, 1, 2: the hat of the whole group
        with pytest.raises(ValueError, match=NOT_INTEGERS):
            hat_subgroup(gf2, cyclic_group(3), [0.0, 1.2, 2.7])

    @pytest.mark.parametrize("g", [-1, 7])
    def test_basis_rejects_an_element_id_out_of_range(self, gf2, z7, g):
        # a negative id would index from the end: -1 would set the coefficient of a^6
        message = rf"^id {g} out of range \[0, 7\)$"
        with pytest.raises(ValueError, match=message):
            AlgebraElement.basis(gf2, z7, g)
        with pytest.raises(ValueError, match=message):
            AlgebraElement.from_coeff_list(gf2, z7, [(0, 1), (g, 1)])

    @pytest.mark.parametrize("q,coeff", [(3, 5), (3, -1), (3, 3), (9, 10), (9, -1), (4, 4)])
    def test_coefficient_list_rejects_an_index_out_of_range(self, z7, q, coeff):
        # over GF(3), 5 and -1 would reduce to 2; over GF(9), 10 would read past the digit table
        field = field_from_order(q)
        message = rf"^coefficient {coeff} out of range \[0, {q}\)$"
        with pytest.raises(ValueError, match=message):
            AlgebraElement.from_coeff_list(field, z7, [(1, coeff)])
        with pytest.raises(ValueError, match=message):
            AlgebraElement.basis(field, z7, 1, coeff)

    def test_coefficient_list_sums_duplicates_in_the_field(self, z7):
        f3 = field_from_order(3)
        a = AlgebraElement.from_coeff_list(f3, z7, [(1, 2), (1, 2), (6, 1)])
        assert a.vec.tolist() == [0, 1, 0, 0, 0, 0, 1]
        assert AlgebraElement.basis(f3, z7, 6, 0) == AlgebraElement.zero(f3, z7)

    def test_negation_and_hash(self, z7):
        f3 = field_from_order(3)
        a = AlgebraElement.from_coeff_list(f3, z7, [(1, 1), (2, 2)])
        assert -a == AlgebraElement.from_coeff_list(f3, z7, [(1, 2), (2, 1)])
        assert -a + a == AlgebraElement.zero(f3, z7)
        assert hash(a) == hash(AlgebraElement(f3, z7, a.vec.copy())) and len({a, -a, -(-a)}) == 2

    @pytest.mark.parametrize(
        "q,group",
        [(2, cyclic_group(7)), (4, group_abelian([3, 3])), (5, group_from_cayley(metacyclic_table(7, 2)))],
        ids=["z7-q2", "z3xz3-q4", "z7:z3-q5"],
    )
    def test_idempotent_stack_is_read_only_sorted_with_ghat(self, q, group):
        field = field_from_order(q)
        s = split_primitive_central_idempotents(field, group)
        assert s.dtype == np.int64 and s.shape == (len(fq_classes(group, q)), group.order)
        with pytest.raises(ValueError, match="read-only"):
            s[0, 0] = 0
        assert s.tolist() == sorted(s.tolist())
        assert hat_group(field, group).vec.tolist() in s.tolist()

    def test_idempotent_stack_without_ghat_raises(self, gf2, z7, monkeypatch):
        # units that split into the three class sums of Z7 over GF(2), none Ghat
        monkeypatch.setattr(algebra, "_split_units", lambda field, units, times: np.eye(3, dtype=np.int64))
        with pytest.raises(VerificationError, match="^trivial idempotent missing from idempotent set$"):
            split_primitive_central_idempotents(gf2, z7)


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda f: apply_antiauto(builtin_mu_minus1(cyclic_group(5)), AlgebraElement.one(f, cyclic_group(7))),
            "antiautomorphism and element live on different groups",
        ),
        (lambda f: AlgebraElement.one(f, cyclic_group(7)) ** -1, "^exponent must be >= 0, got -1$"),
        # an AttributeError before
        (lambda f: AlgebraElement.one(f, cyclic_group(7)).scale(1.5), "^indexes must be integers, got float64 entries$"),
    ],
)
def test_public_input_guards_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call(field_from_order(2))
