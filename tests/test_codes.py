"""Linear code construction, duals, and weight enumeration."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duadic import _linalg
from duadic import codes as codes_module
from duadic.algebra import AlgebraElement, apply_antiauto, hat_group
from duadic.codes import (
    LinearCode,
    _combination_table,
    _coset_chunks,
    _mu_image,
    _plus_vector,
    check_dual,
    code_from_ideal,
    coset_min_weight,
    difference_min_weight,
    dual,
    odd_like_min_weight,
    subcode_check,
    weight_distribution,
)
from duadic.duadic import check_splitting, classify_duality, construct_pairs, duadic_codes, product_duadic
from duadic.errors import EnumerationCapError, VerificationError
from duadic.gf import FiniteField, field_from_order
from duadic.groups import (
    Antiautomorphism,
    builtin_mu_minus1,
    builtin_mu_swap,
    cyclic_group,
    group_abelian,
    group_from_cayley,
)
from duadic.quantum import DistanceRecord, analyze_pair

from conftest import enumerable_cells, frobenius21_table
from oracles import (
    macwilliams,
    naive_codewords,
    naive_min_weight,
    reference_blocks,
    reference_coset_weights,
    reference_combination_table,
    reference_css_distance,
    reference_difference_min_weight,
    reference_odd_like_min_weight,
    reference_right_kernel,
    reference_weight_distribution,
)


@pytest.fixture(scope="module")
def z7_codes():
    field = field_from_order(2)
    group = cyclic_group(7)
    pair = construct_pairs(builtin_mu_minus1(group), field, group)[0]
    return duadic_codes(pair)


def min_weight(code):
    """Minimum nonzero weight of a code and a witness: its coset with the zero offset."""
    return coset_min_weight(code.field, code.gen, np.zeros(code.n, dtype=np.int64))


@pytest.fixture(scope="module")
def z33_codes():
    field = field_from_order(2)
    group = group_abelian([3, 3])
    pair = construct_pairs(builtin_mu_swap(group, 2), field, group)[0]
    return duadic_codes(pair)


class TestCodeFromIdeal:
    def test_zero_ideal(self, gf2):
        z7 = cyclic_group(7)
        c = code_from_ideal(AlgebraElement.zero(gf2, z7))
        assert (c.n, c.k) == (7, 0)

    def test_ghat_gives_repetition(self, gf2):
        z7 = cyclic_group(7)
        c = code_from_ideal(hat_group(gf2, z7))
        assert (c.n, c.k) == (7, 1)
        assert c.gen.tolist() == [[1] * 7]

    def test_qr_idempotent_gives_7_3(self, gf2):
        z7 = cyclic_group(7)
        e = AlgebraElement.from_coeff_list(gf2, z7, [(g, 1) for g in (0, 1, 2, 4)])
        assert code_from_ideal(e).k == 3

    def test_code_equality_is_row_space_equality(self, gf2):
        z7 = cyclic_group(7)
        e = AlgebraElement.from_coeff_list(gf2, z7, [(g, 1) for g in (0, 1, 2, 4)])
        c = code_from_ideal(e)
        shuffled = LinearCode(gf2, c.gen[::-1].copy())
        assert shuffled == c

    @pytest.mark.parametrize("product", [False, True])
    def test_the_translates_give_the_whole_ideal(self, gf2, product):
        # Re has dimension (n-1)/2, holds e, and is closed under translation
        group = cyclic_group(23) if not product else group_abelian([3, 3])
        mu = builtin_mu_minus1(group) if not product else builtin_mu_swap(group, 2)
        pair = construct_pairs(mu, gf2, group)[0]
        e = (pair if not product else product_duadic(pair, pair)).e
        ideal = code_from_ideal(e)
        assert ideal.k == e.group.order // 2 and ideal.contains(e.vec)
        assert all(ideal.contains(v) for row in ideal.gen for v in row[e.group.left_translation])


class TestDual:
    def test_zero_code_dual_is_full_space(self, gf2):
        c = LinearCode(gf2, np.zeros((0, 5), dtype=np.int64))
        assert dual(c).k == 5

    def test_hamming_dual_is_even_subcode(self, z7_codes):
        assert dual(z7_codes.d_e) == z7_codes.c_e

    def test_repetition_dual_is_even_weight_code(self, gf2):
        z7 = cyclic_group(7)
        rep = code_from_ideal(hat_group(gf2, z7))
        d = dual(rep)
        assert d.k == 6
        counts = weight_distribution(d)
        want = [math.comb(7, w) if w % 2 == 0 else 0 for w in range(8)]
        assert counts.tolist() == want

    @pytest.mark.parametrize("q,orders", [(2, [7]), (3, [5]), (4, [3, 3]), (9, [5])])
    def test_dual_involution_and_dims(self, q, orders):
        field = field_from_order(q)
        group = group_abelian(orders)
        rng = random.Random(q * 3)
        for _ in range(4):
            e = AlgebraElement(field, group, [rng.randrange(q) for _ in range(group.order)])
            c = code_from_ideal(e)
            d = dual(c)
            assert c.k + d.k == c.n
            assert dual(d) == c

    def test_inversion_dual_identity_checked(self, z7_codes):
        # C^perp = R(1 - mu_-1(e)), computed independently of any pair
        c_e = z7_codes.c_e
        pair = z7_codes.pair
        mu1 = builtin_mu_minus1(pair.group)
        ideal = code_from_ideal(
            AlgebraElement.one(pair.field, pair.group) - apply_antiauto(mu1, pair.e)
        )
        assert dual(c_e) == ideal

    def test_no_elimination(self, z33_codes, monkeypatch):
        # the kernel basis comes off the kept systematic basis and is itself systematic
        d_e = z33_codes.d_e
        assert (d_e.n, d_e.k) == (9, 5)
        rows = []
        rref = _linalg.rref
        monkeypatch.setattr(_linalg, "rref", lambda field, mat: rows.append(len(mat)) or rref(field, mat))
        perp = dual(d_e)
        assert rows == []
        assert perp == LinearCode(d_e.field, reference_right_kernel(d_e.field, d_e.gen))


    @pytest.mark.parametrize(
        "field,group,mu",
        [*enumerable_cells((2, 3, 4, 5, 7, 8, 9, 16, 25, 27)), pytest.param(None, None, None, id="product-mixed")],
    )
    def test_against_right_kernel_oracle(self, field, group, mu):
        if field is None:
            f2, z33, z7 = field_from_order(2), group_abelian([3, 3]), cyclic_group(7)
            pairs = [
                product_duadic(
                    construct_pairs(builtin_mu_swap(z33, 2), f2, z33)[0],
                    construct_pairs(builtin_mu_minus1(z7), f2, z7)[0],
                )
            ]
        else:
            pairs = [*construct_pairs(mu, field, group), *construct_pairs(mu, field, group, mode="enumerate-all")]
        for pair in pairs:
            codes = duadic_codes(pair)
            mu1 = builtin_mu_minus1(pair.group)
            one = AlgebraElement.one(pair.field, pair.group)
            ideals = (pair.e, pair.f, one - pair.f, one - pair.e)
            for code, a in zip((codes.c_e, codes.c_f, codes.d_e, codes.d_f), ideals):
                d = dual(code)
                assert d == code_from_ideal(one - apply_antiauto(mu1, a))
                assert d == LinearCode(code.field, reference_right_kernel(code.field, code.gen))
            report = classify_duality(pair, codes)
            assert report.c_e_perp == dual(codes.c_e) and report.d_e_perp == dual(codes.d_e)
            # cases i and ii hand out the codes already built
            if report.case == "i":
                assert report.c_e_perp is codes.d_e
            elif report.case == "ii":
                assert report.c_e_perp is codes.d_f
            else:
                assert field is None  # only the product pair is mixed

    def test_identity_failure_raises(self, z7_codes, z33_codes):
        for codes, other_odd in ((z7_codes, z7_codes.d_f), (z33_codes, z33_codes.d_e)):
            c_e = codes.c_e
            perp = classify_duality(codes.pair, codes).c_e_perp
            candidates = [
                other_odd,  # the odd-like code of the same dimension that is not the dual
                LinearCode(c_e.field, perp.gen[:1]),  # a one-row subcode of the dual
                LinearCode(c_e.field, np.eye(c_e.n, dtype=np.int64)),  # a larger code
            ]
            for other in candidates:
                with pytest.raises(VerificationError, match="inversion-dual identity"):
                    check_dual(c_e, other)


class TestSubcode:
    def test_reflexive(self, z7_codes):
        assert subcode_check(z7_codes.c_e, z7_codes.c_e)

    def test_even_inside_odd(self, z7_codes):
        assert subcode_check(z7_codes.c_e, z7_codes.d_e)

    def test_dimension_obstruction(self, z7_codes):
        assert not subcode_check(z7_codes.d_e, z7_codes.c_e)

    def test_mismatched_spaces(self, gf2, gf4):
        a = LinearCode(gf2, np.eye(3, dtype=np.int64))
        b = LinearCode(gf4, np.eye(3, dtype=np.int64))
        with pytest.raises(ValueError, match="different"):
            subcode_check(a, b)


class TestMinWeight:
    def test_hamming_distance_3(self, z7_codes):
        d, witness = min_weight(z7_codes.d_e)
        assert d == 3
        assert np.count_nonzero(witness) == 3
        assert z7_codes.d_e.contains(witness)

    def test_even_code_distance_4(self, z7_codes):
        assert min_weight(z7_codes.c_e)[0] == 4

    def test_repetition(self, gf2):
        rep = code_from_ideal(hat_group(gf2, cyclic_group(7)))
        assert min_weight(rep)[0] == 7

    @pytest.mark.parametrize("q,k,n", [(2, 5, 9), (3, 4, 8), (4, 3, 7)])
    def test_against_naive(self, q, k, n):
        field = field_from_order(q)
        rng = random.Random(q * k)
        rows = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(k)], dtype=np.int64)
        c = LinearCode(field, rows)
        if c.k == 0:
            return
        assert min_weight(c)[0] == naive_min_weight(field, c.gen)

    def test_consistent_with_distribution(self, z33_codes):
        counts = weight_distribution(z33_codes.d_e)
        first = next(w for w in range(1, len(counts)) if counts[w])
        assert min_weight(z33_codes.d_e)[0] == first


class TestWeightDistribution:
    def test_repetition(self, gf2):
        rep = code_from_ideal(hat_group(gf2, cyclic_group(7)))
        counts = weight_distribution(rep)
        assert counts[0] == 1 and counts[7] == 1 and counts.sum() == 2

    def test_hamming(self, z7_codes):
        assert weight_distribution(z7_codes.d_e).tolist() == [1, 0, 0, 7, 7, 0, 0, 1]

    def test_even_code(self, z7_codes):
        assert weight_distribution(z7_codes.c_e).tolist() == [1, 0, 0, 0, 7, 0, 0, 0]

    def test_total_is_q_to_k(self, z33_codes):
        counts = weight_distribution(z33_codes.c_e)
        assert counts.sum() == 2**4


class TestOddLikeMinWeight:
    def test_z7_meets_sharpened_bound_with_equality(self, z7_codes):
        d_o, witness = odd_like_min_weight(z7_codes, "e")
        assert d_o == 3
        assert d_o * d_o - d_o + 1 == 7
        assert z7_codes.d_e.contains(witness)
        assert not z7_codes.c_e.contains(witness)

    def test_sides_agree_by_symmetry(self, z7_codes):
        assert odd_like_min_weight(z7_codes, "e")[0] == odd_like_min_weight(z7_codes, "f")[0]

    def test_z33_swap_square_bound(self, z33_codes):
        d_o, _ = odd_like_min_weight(z33_codes, "e")
        assert d_o * d_o >= 9

    def test_equals_direct_set_difference_enumeration(self, z33_codes):
        field = z33_codes.c_e.field
        best = None
        for word in naive_codewords(field, z33_codes.d_e.gen):
            vec = np.array(word)
            if field.vsum(vec) == 0:
                continue  # even-like
            w = int(np.count_nonzero(vec))
            best = w if best is None else min(best, w)
        assert odd_like_min_weight(z33_codes, "e")[0] == best

    def test_cap(self, z7_codes):
        with pytest.raises(EnumerationCapError):
            odd_like_min_weight(z7_codes, "e", cap=3)

    def test_bad_side(self, z7_codes):
        with pytest.raises(ValueError, match="side"):
            odd_like_min_weight(z7_codes, "x")


def _nested_pair(q: int, n: int, k_big: int, extra: int, seed: int):
    """A random [n, k_big] code over GF(q) and a subcode spanned by random
    combinations of its rows, `extra` dimensions smaller."""
    field = field_from_order(q)
    rng = random.Random(seed)
    while True:
        big = LinearCode(field, [[rng.randrange(q) for _ in range(n)] for _ in range(k_big)])
        mix = np.array([[rng.randrange(q) for _ in range(big.k)] for _ in range(k_big - extra)], dtype=np.int64)
        mix = mix.reshape(k_big - extra, big.k)  # also when the subcode is zero
        small = LinearCode(field, _linalg.matmul(field, mix, big.gen))
        if big.k == k_big and small.k == k_big - extra:
            return field, small, big


class TestDifferenceMinWeight:
    @pytest.mark.parametrize(
        "seed,extra,q",
        [(seed, extra, q) for q in (2, 3, 4, 5, 7, 8, 9, 25) for extra in (1, 2, 3) for seed in range(1 if q > 9 else 3)],
    )
    def test_matches_naive_set_difference(self, seed, extra, q):
        # k_big = 3 above GF(4), and one seed for GF(25), keep the naive enumeration small
        field, small, big = _nested_pair(q, 7, 4 if q <= 4 else 3, extra, seed + 10 * q + 100 * extra)
        inside = {tuple(w) for w in naive_codewords(field, small.gen)}
        outside = [np.array(w, dtype=np.int64) for w in naive_codewords(field, big.gen) if tuple(w) not in inside]
        assert len(outside) == q**big.k - q**small.k
        w, witness = difference_min_weight(small, big)
        assert w == min(int(np.count_nonzero(v)) for v in outside)
        assert np.count_nonzero(witness) == w
        assert big.contains(witness) and not small.contains(witness)
        # one coset per scalar class finds the word the scan of all q^Delta - 1 cosets finds
        assert witness.tolist() == reference_difference_min_weight(small, big)[1].tolist()

    @pytest.mark.parametrize("field,group,mu", enumerable_cells((3, 4, 5, 7, 8, 9, 25)))
    def test_odd_like_matches_every_ghat_coset(self, field, group, mu):
        codes = duadic_codes(construct_pairs(mu, field, group)[0])
        for side, small, big in (("e", codes.c_e, codes.d_e), ("f", codes.c_f, codes.d_f)):
            w, witness = difference_min_weight(small, big)
            assert w == reference_odd_like_min_weight(codes, side)
            assert witness.tolist() == reference_difference_min_weight(small, big)[1].tolist()

    @pytest.mark.parametrize("q,extra", [(25, 1), (4, 2), (3, 3)])
    def test_one_coset_per_scalar_class(self, q, extra, monkeypatch):
        # (q^Delta - 1)/(q - 1) cosets: one for Delta = 1 over GF(25), as for
        # the odd-like words of a duadic pair, where a scan of every nonzero
        # offset makes 24
        field, small, big = _nested_pair(q, 9, 4, extra, 7)
        calls = []
        real = codes_module.coset_min_weight
        monkeypatch.setattr(codes_module, "coset_min_weight", lambda *a: calls.append(a) or real(*a))
        difference_min_weight(small, big)
        assert len(calls) == (q**extra - 1) // (q - 1)

    def test_cosets_share_one_set_of_tables(self, monkeypatch):
        # Delta = 3 over GF(4): 21 cosets, against the per-coset scan, which
        # builds the two tables of small once for each of them
        field, small, big = _nested_pair(4, 20, 10, 3, 5)
        assert (big.n, small.k, big.k - small.k) == (20, 7, 3)
        small_pivots = set(small.pivots)
        ext = big.gen[[i for i, c in enumerate(big.pivots) if c not in small_pivots]]
        offsets = [v for j in range(3) for v in field.vadd(ext[j], _combination_table(field, ext[:j], 20))]
        assert len(offsets) == 21
        per_coset = min((coset_min_weight(field, small.gen, offset) for offset in offsets), key=lambda r: r[0])
        tables = []
        real = codes_module._combination_table
        monkeypatch.setattr(codes_module, "_combination_table", lambda *a: tables.append(a) or real(*a))
        w, witness = difference_min_weight(small, big)
        # small's two coset tables, its tail and its one head table over all
        # the rows before the tail (here none: small's 4^7 words fill the
        # tail), then the offsets for j = 1, 2 (the one for j = 0 is ext[0])
        assert len(tables) == 2 + 2
        assert w == per_coset[0]
        assert witness.tolist() == per_coset[1].tolist()

    def test_pivots_that_do_not_nest(self, gf2):
        # small = span{11000} is kept systematic on column 1, as a dual is, and
        # big's RREF has pivots 0 and 2: big \\ small = {00111, 11111}
        small = dual(LinearCode(gf2, [[1, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]))
        big = LinearCode(gf2, [[1, 1, 0, 0, 0], [0, 0, 1, 1, 1]])
        assert (small.pivots, big.pivots) == ([1], [0, 2])
        w, witness = difference_min_weight(small, big)
        assert (w, witness.tolist()) == (3, [0, 0, 1, 1, 1])

    def test_zero_subcode_gives_the_minimum_distance(self, z33_codes):
        zero = LinearCode(z33_codes.d_e.field, np.zeros((0, 9), dtype=np.int64))
        assert difference_min_weight(zero, z33_codes.d_e)[0] == min_weight(z33_codes.d_e)[0]

    def test_not_nested(self, gf2):
        small = LinearCode(gf2, np.array([[1, 1, 0]], dtype=np.int64))
        big = LinearCode(gf2, np.array([[1, 0, 0], [0, 0, 1]], dtype=np.int64))
        with pytest.raises(VerificationError, match="not nested"):
            difference_min_weight(small, big)
        with pytest.raises(VerificationError, match="not nested"):
            difference_min_weight(big, small)

    def test_equal_codes(self, z7_codes):
        with pytest.raises(ValueError, match="empty"):
            difference_min_weight(z7_codes.c_e, z7_codes.c_e)

    def test_cap_names_the_count(self, z7_codes):
        # 2^4 - 2^3 = 8 words
        assert difference_min_weight(z7_codes.c_e, z7_codes.d_e, cap=8)[0] == 3
        with pytest.raises(EnumerationCapError, match=r"= 8 words exceed the cap 7"):
            difference_min_weight(z7_codes.c_e, z7_codes.d_e, cap=7)


# ---------------------------------------------------------------------------
# oracle: the block enumeration the comparison kernel replaced, which builds
# every word with field additions and counts its nonzero entries
# (`oracles.reference_blocks`)
# ---------------------------------------------------------------------------

def reference_coset_min_weight(field, gen, offset, tables=None):
    # builds every word itself, so the shared coset tables go unused
    best, witness = None, None
    for block in reference_blocks(field, gen, offset):
        weights = np.count_nonzero(block, axis=1)
        nz = np.nonzero(weights)[0]
        if nz.size == 0:
            continue
        i = nz[np.argmin(weights[nz])]
        if best is None or weights[i] < best:
            best, witness = int(weights[i]), block[i].copy()
    if best is None:
        raise ValueError("coset contains only the zero word")
    return best, witness


def _assert_coset_min_weight(field, gen, offset, span: LinearCode):
    """coset_min_weight agrees with the oracle, and its witness lies in the
    coset and has the reported weight."""
    w, witness = coset_min_weight(field, gen, offset)
    assert w == reference_coset_min_weight(field, gen, offset)[0]
    assert witness.dtype == np.int64 and np.count_nonzero(witness) == w
    assert span.contains(field.vsub(witness, offset))


class TestKernelAgainstOracle:
    # every duadic cell under 2^16 words; GF(27) has none, and
    # test_outer_rows_head_table_and_tail covers it
    @pytest.mark.parametrize("field,group,mu", enumerable_cells((2, 3, 4, 5, 7, 8, 9, 16, 25, 27)))
    def test_duadic_cell(self, field, group, mu, monkeypatch):
        codes = duadic_codes(construct_pairs(mu, field, group)[0])
        for code in (codes.c_e, codes.d_e):
            assert weight_distribution(code).tolist() == reference_weight_distribution(code).tolist()
        ghat = codes.pair.ghat.vec
        for a in range(1, field.q):
            _assert_coset_min_weight(field, codes.c_e.gen, field.vmul(np.int64(a), ghat), codes.c_e)
        zero = np.zeros(codes.d_e.n, dtype=np.int64)
        _assert_coset_min_weight(field, codes.d_e.gen, zero, codes.d_e)
        # words come in the oracle's order, so the witness is the same word
        witness = min_weight(codes.d_e)[1]
        assert witness.tolist() == reference_coset_min_weight(field, codes.d_e.gen, zero)[1].tolist()
        fast = [odd_like_min_weight(codes, side)[0] for side in "ef"], analyze_pair(codes.pair).degeneracy.distance
        assert fast[1] == DistanceRecord(reference_css_distance(codes.c_e, codes.d_e), True, "coset-enumeration")
        monkeypatch.setattr(codes_module, "coset_min_weight", reference_coset_min_weight)
        assert fast == ([odd_like_min_weight(codes, side)[0] for side in "ef"], analyze_pair(codes.pair).degeneracy.distance)

    def test_offset_inside_span_skips_zero_word(self, z33_codes):
        code = z33_codes.d_e
        offset = code.gen.sum(axis=0) % 2
        assert code.contains(offset) and offset.any()
        _assert_coset_min_weight(code.field, code.gen, offset, code)
        assert coset_min_weight(code.field, code.gen, offset)[0] == min_weight(code)[0]

    def test_zero_coset_rejected(self, gf2):
        with pytest.raises(ValueError, match="only the zero word"):
            coset_min_weight(gf2, np.zeros((0, 5), dtype=np.int64), np.zeros(5, dtype=np.int64))

    def test_field_above_256_uses_uint16_indexes(self):
        field = field_from_order(257)
        rng = random.Random(257)
        rows = np.array([[rng.randrange(257) for _ in range(5)] for _ in range(2)], dtype=np.int64)
        code = LinearCode(field, rows)
        neg_heads, _, _ = next(_coset_chunks(field, np.zeros(5, dtype=np.int64), code._tables))
        assert neg_heads.dtype == np.uint16
        assert weight_distribution(code).tolist() == reference_weight_distribution(code).tolist()
        offset = np.array([3, 0, 256, 1, 0], dtype=np.int64)
        _assert_coset_min_weight(field, code.gen, offset, code)

    def test_length_300_weights_overflow_uint8(self, gf2):
        rep = LinearCode(gf2, np.ones((1, 300), dtype=np.int64))
        assert min_weight(rep)[0] == 300
        counts = weight_distribution(rep)
        assert counts[0] == 1 and counts[300] == 1 and counts.sum() == 2
        rng = random.Random(300)
        rows = np.array([[rng.randrange(2) for _ in range(300)] for _ in range(4)], dtype=np.int64)
        code = LinearCode(gf2, np.vstack([rows, np.ones((1, 300), dtype=np.int64)]))
        assert weight_distribution(code).tolist() == reference_weight_distribution(code).tolist()
        _assert_coset_min_weight(gf2, code.gen[1:], code.gen[0], code)

    @pytest.mark.parametrize(
        "q,k,n", [(2, 9, 11), (3, 6, 9), (4, 5, 8), (8, 4, 7), (9, 4, 6), (16, 4, 6), (25, 4, 5), (27, 4, 5)]
    )
    def test_outer_rows_head_table_and_tail(self, q, k, n, monkeypatch):
        # a 2-row tail and 1-row head tables leave k - 3 rows to the outer
        # odometer; a chunk compares q heads with the tails on the mixed columns
        monkeypatch.setattr(codes_module, "_BLOCK_WORDS", q * q)
        field = field_from_order(q)
        rng = random.Random(q * k * n)
        rows = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(k)], dtype=np.int64)
        code = LinearCode(field, rows)
        assert code.k == k
        mixed = code._tables.mixed
        assert 0 < mixed <= n - k
        monkeypatch.setattr(codes_module, "_CHUNK_CELLS", q**3 * mixed)
        chunks = list(_coset_chunks(field, np.zeros(n, dtype=np.int64), code._tables))
        assert len(chunks) == q ** (k - 3) and chunks[0][2].shape == (q, q * q)
        assert weight_distribution(code).tolist() == reference_weight_distribution(code).tolist()
        offset = np.array([rng.randrange(q) for _ in range(n)], dtype=np.int64)
        _assert_coset_min_weight(field, code.gen[1:], offset, LinearCode(field, code.gen[1:]))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_distribution_over_one_word_per_scalar_class(self, q, monkeypatch):
        # over q > 2 only rank 0 and the tail ranks [q^j, 2 q^j) are scanned
        field = field_from_order(q)
        rng = np.random.default_rng(q)
        n = 7

        def code_of_dimension(k):
            return LinearCode(field, np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, q, (k, n - k))]))

        # no head rows, the zero code too: one zero head, no mixed column, and
        # the tail-only columns are those the tail rows touch
        zero = LinearCode(field, np.zeros((0, n), dtype=np.int64))
        untouched = LinearCode(field, np.hstack([code_of_dimension(3).gen[:, :5], np.zeros((3, 2), dtype=np.int64)]))
        for headless in (code_of_dimension(3), zero, untouched):
            tables = headless._tables
            assert len(tables.neg_heads) == 1 and tables.mixed == 0
            assert sorted(tables.cols[: tables.tail_only].tolist()) == np.flatnonzero(headless.gen.any(axis=0)).tolist()
            assert weight_distribution(headless).tolist() == reference_weight_distribution(headless).tolist()
            offset = rng.integers(0, q, n)
            offset[-1] = 1
            _assert_coset_min_weight(field, headless.gen, offset, headless)
        # the sizes count when a code builds its tables, on its first
        # enumeration: a 2-row tail, q^3 heads in blocks of q^2, chunks of q
        monkeypatch.setattr(codes_module, "_BLOCK_WORDS", q * q)
        monkeypatch.setattr(codes_module, "_CHUNK_CELLS", q**3 * n)
        code = code_of_dimension(5)
        assert weight_distribution(code).tolist() == reference_weight_distribution(code).tolist()
        tables = code._tables
        assert tables.neg_heads.shape == (q**3, n) and tables.tail_t.shape == (n, q * q)
        # [I | random]: the 2 tail pivots are tail-only, the 3 head pivots in no tail row
        hoisted = tables.mixed + tables.tail_only
        assert (tables.cols[tables.mixed : hoisted][:2].tolist(), tables.cols[hoisted:][:3].tolist()) == ([3, 4], [0, 1, 2])
        assert sorted(tables.cols.tolist()) == list(range(n))

    def test_no_field_operation_per_chunk(self, monkeypatch):
        # 3^4 heads in blocks of 9 and chunks of 3: one vsub per block; the
        # two all-ones columns are the mixed ones
        q, n = 3, 8
        monkeypatch.setattr(codes_module, "_BLOCK_WORDS", q * q)
        monkeypatch.setattr(codes_module, "_CHUNK_CELLS", q**3 * 2)
        field = field_from_order(q)
        code = LinearCode(field, np.hstack([np.eye(6, dtype=np.int64), np.ones((6, 2), dtype=np.int64)]))
        tables = code._tables
        assert (tables.mixed, tables.cols[:2].tolist()) == (2, [6, 7])
        calls = []
        for name in ("vadd", "vsub", "vneg", "vmul", "vsum"):
            counted = lambda self, *a, real=getattr(FiniteField, name), name=name: calls.append(name) or real(self, *a)
            monkeypatch.setattr(FiniteField, name, counted)
        chunks = list(_coset_chunks(field, np.ones(n, dtype=np.int64), tables))
        assert len(chunks) == q**3 and calls == ["vsub"] * q**2

    @pytest.mark.parametrize("q,k,n", [(2, 7, 9), (3, 5, 6), (4, 5, 5)])
    def test_words_come_in_the_oracle_order(self, q, k, n, monkeypatch):
        # 2-row tail and head tables, k - 4 outer rows; the same order as the
        # oracle means the same first minimal word, so the same witness
        monkeypatch.setattr(codes_module, "_BLOCK_WORDS", q * q)
        monkeypatch.setattr(codes_module, "_CHUNK_CELLS", q**4 * n)
        field = field_from_order(q)
        rng = random.Random(q + k + n)
        gen = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(k)], dtype=np.int64)
        offset = np.array([rng.randrange(q) for _ in range(n)], dtype=np.int64)
        tables = codes_module._coset_tables(field, gen, n)
        chunks = _coset_chunks(field, offset, tables)
        words = np.vstack([field.vsub(tail[None], neg[:, None]).reshape(-1, n) for neg, tail, _ in chunks])
        # the chunks' words are in the permuted columns of the tables
        assert np.array_equal(words[:, np.argsort(tables.cols)], np.vstack(list(reference_blocks(field, gen, offset, q * q))))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27, 257])
    def test_combination_table_matches_the_vadd_loop(self, q):
        # one reduction at the end gives the table of one field addition per row,
        # and the words of naive_codewords, which never calls the package's arithmetic
        field = field_from_order(q)
        rng = np.random.default_rng(q)
        for t in range(max(i for i in range(5) if q**i <= 1 << 14) + 1):
            rows = rng.integers(0, q, (t, 6))
            rows[:, 0] = q - 1  # the largest digits, so the unreduced sums peak
            table = _combination_table(field, rows, 6)
            assert table.dtype == np.min_scalar_type(q - 1)
            assert np.array_equal(table, reference_combination_table(field, rows, 6))
            assert {tuple(w) for w in table.tolist()} == {tuple(w) for w in naive_codewords(field, rows)}


# ---------------------------------------------------------------------------
# oracle: the full comparison on every column (`oracles.reference_coset_weights`),
# against the kernel that compares only the mixed columns and hoists the rest
# ---------------------------------------------------------------------------


def _split_generators(field, k, n, seed):
    """Bases of q^k > 2^14 words, so with head rows: [I | random]; the same
    with an all-zero column; [I | 0], with no column for both halves; and
    [I | random] mixed by an invertible matrix, whose rows touch nearly
    every column, so that little or nothing is hoisted."""
    rng = np.random.default_rng(seed)
    systematic = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, field.q, (k, n - k))])
    zero_column = np.insert(systematic, n // 2, 0, axis=1)
    while True:
        mix = rng.integers(0, field.q, (k, k))
        if len(_linalg.rref(field, mix)[1]) == k:
            return {
                "systematic": systematic,
                "zero column": zero_column,
                "no mixed column": np.eye(k, n, dtype=np.int64),
                "mixed": _linalg.matmul(field, mix, systematic),
            }


class TestSplitKernelAgainstFullComparison:
    @pytest.mark.parametrize("q,k,n", [(2, 16, 22), (3, 10, 14), (4, 8, 12), (5, 7, 10), (7, 6, 9), (8, 5, 8), (9, 5, 8)])
    def test_weights_minimum_and_distribution(self, q, k, n):
        field = field_from_order(q)
        rng = np.random.default_rng(q + 100 * k)
        hoisted = {}
        for name, gen in _split_generators(field, k, n, q * k).items():
            width = gen.shape[1]
            tables = codes_module._coset_tables(field, gen, width)
            assert len(tables.neg_heads) > 1  # head rows
            hoisted[name] = width - tables.mixed
            for offset in (np.zeros(width, dtype=np.int64), rng.integers(0, q, width)):
                reference = reference_coset_weights(field, gen, offset)
                weights = [w.ravel() for _, _, w in _coset_chunks(field, offset, tables)]
                assert np.concatenate(weights).tolist() == reference.tolist()
                nonzero = np.flatnonzero(reference)
                first = int(nonzero[np.argmin(reference[nonzero])])
                word = np.vstack(list(reference_blocks(field, gen, offset)))[first]
                w, witness = coset_min_weight(field, gen, offset)
                assert (w, witness.tolist()) == (reference[first], word.tolist())
            if name != "mixed":  # a LinearCode keeps the systematic basis as it comes
                code = LinearCode(field, gen)
                assert np.array_equal(code.gen, gen)
                zero = np.zeros(width, dtype=np.int64)
                expected = np.bincount(reference_coset_weights(field, gen, zero), minlength=width + 1)
                assert weight_distribution(code).tolist() == expected.tolist()
        assert hoisted["mixed"] < hoisted["systematic"] < hoisted["zero column"] and hoisted["no mixed column"] == n

    def test_distribution_is_scanned_once(self, monkeypatch):
        field = field_from_order(3)
        code = LinearCode(field, _split_generators(field, 10, 14, 1)["systematic"])
        scans = []
        real = codes_module._coset_chunks
        monkeypatch.setattr(codes_module, "_coset_chunks", lambda *a: scans.append(a) or real(*a))
        first = weight_distribution(code)
        assert len(scans) == 1 and first.sum() == 3**10
        first[:] = 0  # the caller's copy
        second = weight_distribution(code)
        assert len(scans) == 1 and second.sum() == 3**10
        with pytest.raises(EnumerationCapError, match=r"q\^k = 59049 exceeds the cap 59048"):
            weight_distribution(code, cap=59048)
        assert weight_distribution(code, cap=59049).tolist() == second.tolist() and len(scans) == 1


def _mu_minus2(group):
    """Inversion with the Frobenius x -> x^2: over GF(4) it maps entries, not only columns."""
    return Antiautomorphism(group, group.inverse, 1, descriptor="mu-2")


def _named_pair(spec, q, mu_name):
    """Pair 0 of the cell: the group 7, 13 or 3x3 with mu_name, or the
    product of the 3x3 swap pair and the 7 mu_-1 pair for spec 3x3,7."""
    if spec == "3x3,7":
        return product_duadic(_named_pair("3x3", q, "swap"), _named_pair("7", q, "mu-1"))
    group = group_abelian([3, 3]) if spec == "3x3" else cyclic_group(int(spec))
    make_mu = {"mu-1": builtin_mu_minus1, "swap": lambda g: builtin_mu_swap(g, q), "mu-2": _mu_minus2}[mu_name]
    return construct_pairs(make_mu(group), field_from_order(q), group)[0]


@pytest.mark.parametrize(
    "group,q,mu_name,case,builds",
    [("7", 2, "mu-1", "i", 1), ("3x3", 2, "swap", "ii", 1), ("13", 4, "mu-2", "ii", 2)],
)
def test_a_pair_builds_one_set_of_coset_tables(group, q, mu_name, case, builds, monkeypatch):
    # C_e's: C_f = mu(C_e) and D_f = mu(D_e) relabel its columns and share
    # them, and the odd-like words, the CSS differences and both degeneracy
    # sides all enumerate cosets of C_e or C_f (D_e-perp is C_e in case i
    # and C_f in case ii).  A mu with a Frobenius part maps the entries too,
    # so C_f builds its own.  Rebuilt per call, they were 5 and 6; one set
    # per code, 2
    built = []
    real = codes_module._coset_tables
    monkeypatch.setattr(codes_module, "_coset_tables", lambda *a: built.append(a) or real(*a))
    analysis = analyze_pair(_named_pair(group, q, mu_name))
    assert analysis.duality.case == case and analysis.css.distance.exact
    assert all(side.exact for side in analysis.degeneracy.sides)
    assert len(built) == builds


def _sharing_pairs():
    """Exact cells as (field, group, mu): cyclic 7-31 with mu_-1 over q in
    {2, 3, 4, 5, 7, 8, 9} (case i), 3x3 and 5x5 with the swap at q = 2, 3
    (case ii), Z7:Z3 at q = 4 with mu_-1, and 13 at q = 4 with mu_-2 (case
    ii, a Frobenius part), where they split and q^((n+1)/2) <= 2^22."""
    specs = [(cyclic_group(n), q, builtin_mu_minus1) for n in range(7, 32, 2) for q in (2, 3, 4, 5, 7, 8, 9)]
    specs += [(group_abelian([p, p]), q, lambda g, q=q: builtin_mu_swap(g, q)) for p in (3, 5) for q in (2, 3)]
    specs += [(group_from_cayley(frobenius21_table(), descriptor="Z7:Z3"), 4, builtin_mu_minus1)]
    specs += [(cyclic_group(13), 4, _mu_minus2)]
    for group, q, make_mu in specs:
        field = field_from_order(q)
        if math.gcd(group.order, q) != 1 or q ** ((group.order + 1) // 2) > 1 << 22:
            continue
        mu = make_mu(group)
        if check_splitting(mu, field, group).ok:
            yield pytest.param(field, group, mu, id=f"{group.descriptor}-q{q}-{mu.descriptor}")


class TestFSideSharesTheESide:
    @pytest.mark.parametrize(
        "cell",
        [
            pytest.param(("7", 2, "mu-1", "i"), id="7-q2-mu-1"),
            pytest.param(("3x3", 2, "swap", "ii"), id="3x3-q2-swap"),
            pytest.param(("3x3,7", 2, "swap*mu-1", "mixed"), id="3x3,7-q2-swap*mu-1-product"),
            pytest.param(("13", 4, "mu-2", "ii"), id="13-q4-mu-2"),
        ],
    )
    def test_d_f_is_c_f_plus_ghat(self, cell):
        # D_f = mu(D_e) is the D_f = C_f + span(Ghat) it replaced, as a row space
        spec, q, mu_name, case = cell
        pair = _named_pair(spec, q, mu_name)
        codes = duadic_codes(pair)
        assert classify_duality(pair, codes).case == case
        one = AlgebraElement.one(pair.field, pair.group)
        assert codes.d_f == _plus_vector(codes.c_f, pair.ghat.vec, one - pair.e)
        # the f-side relabels the e-side's columns, unless mu maps entries too
        if mu_name == "mu-2":
            assert codes.c_f._source is None and codes.d_f._source is None
        else:
            assert codes.c_f._source[0] is codes.c_e and codes.d_f._source[0] is codes.d_e

    @pytest.mark.parametrize("field,group,mu", list(_sharing_pairs()))
    def test_every_call_answers_as_a_fresh_scan(self, field, group, mu, monkeypatch):
        calls, scans = [], []
        real_min, real_chunks = codes_module.coset_min_weight, codes_module._coset_chunks

        def recorded(field, gen, offset, tables=None):
            result = real_min(field, gen, offset, tables)
            calls.append((gen, offset.copy(), result))
            return result

        monkeypatch.setattr(codes_module, "coset_min_weight", recorded)
        monkeypatch.setattr(codes_module, "_coset_chunks", lambda *a: scans.append(a) or real_chunks(*a))
        analysis = analyze_pair(construct_pairs(mu, field, group)[0])
        assert analysis.css.distance.exact and all(side.exact for side in analysis.degeneracy.sides)
        # the odd-like cosets of both sides and the CSS differences are one
        # coset of C_e up to relabelling, and both degeneracy sides one
        # distribution; with a Frobenius part C_f's are scanned apart
        shared = mu.frobenius_power % field.m == 0
        assert len(calls) >= 3 and len(scans) == (2 if shared else 4)
        monkeypatch.undo()
        for gen, offset, (w, word) in calls:
            fresh_w, fresh_word = coset_min_weight(field, gen, offset)
            assert (w, word.tolist()) == (fresh_w, fresh_word.tolist())
        # C_f and D_e-perp (C_f in case ii) count from the shared scan
        for code in (analysis.codes.c_f, analysis.css.dual_d):
            expected = weight_distribution(LinearCode(field, code.gen))
            assert weight_distribution(code).tolist() == expected.tolist()

    def test_a_coset_is_scanned_once(self, monkeypatch):
        field = field_from_order(3)
        rng = np.random.default_rng(5)
        code = LinearCode(field, _split_generators(field, 10, 14, 1)["systematic"])
        tables = code._tables
        scans = []
        real = codes_module._coset_chunks
        monkeypatch.setattr(codes_module, "_coset_chunks", lambda *a: scans.append(a) or real(*a))
        offset = rng.integers(0, 3, 14)
        kept = offset.copy()
        w, word = coset_min_weight(field, code.gen, offset, tables)
        assert len(scans) == 1
        assert coset_min_weight(field, code.gen, offset, tables)[1].tolist() == word.tolist() and len(scans) == 1
        # the memo keeps copies: neither the caller's offset nor the word it got back is read again
        expected = word.tolist()
        offset[:] = 0
        word[:] = 0
        w1, word1 = coset_min_weight(field, code.gen, kept, tables)
        assert (w1, word1.tolist()) == (w, expected) and len(scans) == 1
        # another offset is scanned, and agrees with a scan on fresh tables
        other = field.vadd(kept, np.eye(14, dtype=np.int64)[0])
        assert not code.contains(field.vsub(other, kept))
        w2, word2 = coset_min_weight(field, code.gen, other, tables)
        assert len(scans) == 2
        monkeypatch.undo()
        fresh = coset_min_weight(field, code.gen, other)
        assert (w2, word2.tolist()) == (fresh[0], fresh[1].tolist())
        # a relabelling of the columns finds the relabelled coset in the memo
        perm = rng.permutation(14)
        scans.clear()
        monkeypatch.setattr(codes_module, "_coset_chunks", lambda *a: scans.append(a) or real(*a))
        moved, moved_gen = np.empty_like(kept), np.empty_like(code.gen)
        moved[perm], moved_gen[:, perm] = kept, code.gen
        w3, word3 = coset_min_weight(field, moved_gen, moved, tables.relabelled(perm))
        assert not scans and w3 == w and word3[perm].tolist() == expected


# ---------------------------------------------------------------------------
# properties of random small codes
# ---------------------------------------------------------------------------


@st.composite
def small_codes(draw):
    q = draw(st.sampled_from([2, 3, 4, 9]))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(n, 3)))
    entries = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=k, max_size=k))
    return LinearCode(field_from_order(q), np.array(rows, dtype=np.int64))


class TestWeightDistributionProperties:
    @settings(max_examples=150, deadline=None)
    @given(small_codes())
    def test_distribution(self, code):
        q = code.field.q
        counts = weight_distribution(code)
        assert counts.sum() == q**code.k
        naive = np.zeros(code.n + 1, dtype=np.int64)
        for word in naive_codewords(code.field, code.gen.reshape(-1, code.n)):
            naive[sum(1 for x in word if x)] += 1
        assert counts.tolist() == naive.tolist()
        assert macwilliams(counts, q, code.k) == weight_distribution(dual(code)).tolist()


# ---------------------------------------------------------------------------
# the systematic invariant: every route to a code keeps gen[:, pivots] = I,
# and equality is row-space equality whatever form two bases are in
# ---------------------------------------------------------------------------


@st.composite
def codes_by_every_route(draw):
    """Codes of one space over a cyclic group: from LinearCode, `_mu_image`
    (mu_-1, or mu_-1 with the Frobenius), `_plus_vector` and `dual`, each
    next to the elimination of its own basis, which is the same code in
    canonical form, and an unrelated code."""
    q = draw(st.sampled_from([2, 3, 4, 8, 9]))
    n = draw(st.sampled_from([3, 5, 7, 9]))
    field, group = field_from_order(q), cyclic_group(n)
    one = AlgebraElement.one(field, group)
    words = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = np.array(draw(st.lists(words, max_size=n)), dtype=np.int64).reshape(-1, n)
    frobenius_power = draw(st.integers(0, 1))
    mu = Antiautomorphism(group, group.inverse, frobenius_power=frobenius_power)
    code = LinearCode(field, rows)
    image, perp = _mu_image(code, mu, one), dual(code)
    codes = [code, image, LinearCode(field, image.gen), perp, LinearCode(field, perp.gen), dual(perp)]
    v = np.array(draw(words), dtype=np.int64)
    for base in (code, image, perp):
        if not base.contains(v):
            codes += [_plus_vector(base, v, one), LinearCode(field, np.vstack([base.gen, v]))]
    codes.append(LinearCode(field, np.array(draw(st.lists(words, max_size=n)), dtype=np.int64).reshape(-1, n)))
    return codes


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(codes_by_every_route())
def test_systematic_invariant_and_row_space_equality(codes):
    canonical = [_linalg.rref(code.field, code.gen)[0] for code in codes]
    for code in codes:
        assert code.gen.shape == (code.k, code.n) and len(code.pivots) == code.k
        assert np.array_equal(code.gen[:, code.pivots], np.eye(code.k, dtype=np.int64))
    for (a, red_a), (b, red_b) in itertools.product(zip(codes, canonical), repeat=2):
        same = red_a.shape == red_b.shape and np.array_equal(red_a, red_b)
        assert (a == b) == same
        if same:
            assert hash(a) == hash(b)


@pytest.mark.parametrize("word", [[0] * 6, [0] * 8, [[0] * 7]])
def test_public_input_guards_raise(word):
    code = LinearCode(field_from_order(2), np.eye(3, 7, dtype=np.int64))
    with pytest.raises(ValueError, match=r"word length \(.*\) != 7"):
        code.contains(word)


@pytest.mark.parametrize("q,entry", [(4, -1), (4, 4), (3, 3), (3, -1), (9, 9), (2, 2**40)])
def test_linear_code_rejects_an_entry_out_of_range(q, entry):
    # over GF(4), -1 would read index 255 of the byte tables, and 2^40 would
    # wrap to 0 in the uint8 elimination
    with pytest.raises(ValueError, match=rf"^entry {entry} out of range \[0, {q}\)$"):
        LinearCode(field_from_order(q), [[0, entry, 1]])


@pytest.mark.parametrize("rows", [[[0, 1.5, 2.9]], [["0", "1", "2"]]], ids=["float", "str"])
def test_linear_code_rejects_entries_that_are_not_integers(rows):
    # the floats were truncated to the code of [[0, 1, 2]]; a word to test, likewise
    field = field_from_order(4)
    with pytest.raises(ValueError, match=r"^indexes must be integers, got (float64|<U1) entries$"):
        LinearCode(field, rows)
    with pytest.raises(ValueError, match=r"^indexes must be integers, got (float64|<U1) entries$"):
        LinearCode(field, [[0, 1, 2]]).contains(rows[0])


def test_repr_and_an_added_vector_already_in_the_code():
    f2 = field_from_order(2)
    code = LinearCode(f2, np.eye(3, 7, dtype=np.int64))
    assert repr(code) == "[7, 3] code over GF(2)"
    with pytest.raises(VerificationError, match="already lies in the code"):
        _plus_vector(code, code.gen[1] ^ code.gen[2], AlgebraElement.one(f2, cyclic_group(7)))
