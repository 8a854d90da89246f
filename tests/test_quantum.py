"""CSS construction, distances, and degeneracy evidence."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from duadic import _linalg, algebra, quantum
from duadic import duadic as duadic_module
from duadic.algebra import AlgebraElement, split_primitive_central_idempotents
from duadic.codes import LinearCode, dual, weight_distribution
from duadic.duadic import (
    DuadicPair,
    classify_duality,
    construct_pairs,
    duadic_codes,
    odd_like_bound,
    product_duadic,
)
from duadic.errors import EnumerationCapError, NoSplittingError
from duadic.gf import field_from_order
from duadic.groups import builtin_mu_minus1, builtin_mu_swap, cyclic_group, group_abelian
from duadic.quantum import (
    DistanceRecord,
    analyze_pair,
    css_build,
    css_distance,
    degeneracy_report,
    quantum_duadic,
)

from conftest import enumerable_cells
from oracles import macwilliams, naive_codewords, reference_odd_like_min_weight


@pytest.fixture(scope="module")
def f2():
    return field_from_order(2)


@pytest.fixture(scope="module")
def steane(f2):
    return quantum_duadic(f2, cyclic_group(7), builtin_mu_minus1(cyclic_group(7)))


def naive_css_distance(code):
    """Min weight over (D \\ C) union (C-perp \\ D-perp) by full enumeration."""
    field = code.field
    best = None
    for big, small in ((code.code_d, code.code_c), (dual(code.code_c), code.dual_d)):
        for word in naive_codewords(field, big.gen):
            vec = np.array(word, dtype=np.int64)
            if small.contains(vec):
                continue
            w = int(np.count_nonzero(vec))
            best = w if best is None else min(best, w)
    return best


class TestCssBuild:
    def test_c_equals_d_gives_k_zero(self, f2):
        c = LinearCode(f2, np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int64))
        code = css_build(c, c)
        assert code.k == 0

    def test_steane_parameters(self, steane):
        assert (steane.n, steane.k) == (7, 1)
        assert steane.distance == DistanceRecord(3, True, "coset-enumeration")
        assert steane.params() == "[[7,1,3]]_2"

    def test_rejects_non_nested(self, f2):
        c = LinearCode(f2, np.array([[1, 0, 0]], dtype=np.int64))
        d = LinearCode(f2, np.array([[0, 1, 0]], dtype=np.int64))
        with pytest.raises(ValueError, match="contained"):
            css_build(c, d)

    def test_stabilizer_orthogonality(self, steane):
        prod = _linalg.matmul(steane.field, steane.x_stabilizers, steane.z_stabilizers.T)
        assert not np.any(prod)

    def test_k_identity(self, f2):
        for n, q in [(7, 2), (11, 3)]:
            field = field_from_order(q)
            g = cyclic_group(n)
            pair = construct_pairs(builtin_mu_minus1(g), field, g)[0]
            codes = duadic_codes(pair)
            code = css_build(codes.c_e, codes.d_e)
            assert code.k == codes.d_e.k - codes.c_e.k == 1


class TestCssDistance:
    def test_steane_exact(self, steane):
        assert css_distance(steane) == DistanceRecord(3, True, "coset-enumeration")

    def test_matches_naive_both_sides(self, steane):
        assert css_distance(steane).value == naive_css_distance(steane)

    def test_z33_swap_exact_and_square_bound(self, f2):
        g = group_abelian([3, 3])
        code = quantum_duadic(f2, g, builtin_mu_swap(g, 2))
        assert code.params() == "[[9,1,3]]_2"
        assert code.distance.exact
        assert code.distance.value ** 2 >= 9
        assert css_distance(code).value == naive_css_distance(code)

    def test_cap_counts_the_difference_words(self, steane):
        # case i: the one difference D \ C holds 2^4 - 2^3 = 8 words
        with pytest.raises(EnumerationCapError, match="^distance enumeration of 8 words exceeds cap 7$"):
            css_distance(steane, cap=7)
        assert css_distance(steane, cap=8) == DistanceRecord(3, True, "coset-enumeration")
        with pytest.raises(EnumerationCapError):
            css_distance(steane, cap=4)

    def test_record_text(self):
        assert str(DistanceRecord(3, True, "coset-enumeration")) == "3 (exact, coset-enumeration)"
        bound = DistanceRecord(9, False, "odd-like-square-bound")
        assert bound.tag() == "lower-bound"
        assert str(bound) == "9 (lower-bound, odd-like-square-bound)"

    def test_k_zero_rejected(self, f2):
        c = LinearCode(f2, np.array([[1, 1, 0]], dtype=np.int64))
        code = css_build(c, c)
        with pytest.raises(ValueError, match="k = 0"):
            css_distance(code)

    @pytest.mark.parametrize(
        "group,mu_name,cap,build_calls",
        [
            (cyclic_group(7), "mu-1", 1 << 24, 1),  # case i: D-perp = C, so C-perp = D
            (cyclic_group(23), "mu-1", 100, 1),  # case i above the cap
            (group_abelian([3, 3]), "swap", 1 << 24, 2),  # case ii: C-perp is a kernel of its own
            (group_abelian([3, 3]), "swap", 16, 2),  # case ii above the cap
        ],
    )
    def test_duals_come_from_css_build_alone(self, f2, monkeypatch, group, mu_name, cap, build_calls):
        mu = builtin_mu_minus1(group) if mu_name == "mu-1" else builtin_mu_swap(group, 2)
        codes = duadic_codes(construct_pairs(mu, f2, group)[0])
        calls = []
        monkeypatch.setattr(quantum, "dual", lambda c: calls.append(c) or dual(c))
        code = css_build(codes.c_e, codes.d_e)
        assert len(calls) == build_calls
        assert code.dual_c == dual(codes.c_e) and code.dual_d == dual(codes.d_e)
        try:
            record = css_distance(code, cap=cap)
        except EnumerationCapError:
            record = None
        assert len(calls) == build_calls
        if record is not None:
            assert record.value == naive_css_distance(code)


class TestQuantumDuadic:
    def test_steane(self, steane):
        assert steane.params() == "[[7,1,3]]_2"
        d = steane.distance.value
        assert d * d - d + 1 >= 7

    def test_golay_23(self, f2):
        g = cyclic_group(23)
        code = quantum_duadic(f2, g, builtin_mu_minus1(g))
        assert code.params() == "[[23,1,7]]_2"
        assert code.distance.exact
        assert 7 * 7 - 7 + 1 >= 23

    def test_no_splitting(self, f2):
        g = cyclic_group(9)
        with pytest.raises(NoSplittingError):
            quantum_duadic(f2, g, builtin_mu_minus1(g))

    def test_trivial_group_carries_no_pairs(self, f2):
        g = cyclic_group(1)
        with pytest.raises(NoSplittingError, match="^the trivial group carries no duadic pairs$"):
            quantum_duadic(f2, g, builtin_mu_minus1(g))

    def test_nonabelian_frobenius21_over_gf4(self, frobenius21):
        f4 = field_from_order(4)
        code = quantum_duadic(f4, frobenius21, builtin_mu_minus1(frobenius21))
        assert code.params() == "[[21,1,6]]_4"
        d = code.distance.value
        assert code.distance.exact and d * d - d + 1 >= 21

    def test_nonabelian_heisenberg27_bound_above_cap(self, heisenberg27):
        f4 = field_from_order(4)
        code = quantum_duadic(f4, heisenberg27, builtin_mu_minus1(heisenberg27))
        assert code.params() == "[[27,1,>=6]]_4"
        assert not code.distance.exact
        assert code.distance.provenance == "odd-like-sharpened-bound"

    def test_order81_bound_tagged(self, f2):
        g = group_abelian([3, 3])
        pair = construct_pairs(builtin_mu_swap(g, 2), f2, g)[0]
        prod = product_duadic(pair, pair)
        codes = duadic_codes(prod)
        code = css_build(codes.c_e, codes.d_e, witnesses=prod.witnesses)
        with pytest.raises(EnumerationCapError):
            css_distance(code)
        code.distance = analyze_pair(prod).degeneracy.distance
        assert code.distance == DistanceRecord(9, False, "odd-like-square-bound")
        assert code.params() == "[[81,1,>=9]]_2"
        assert not code.distance.exact


class TestDegeneracy:
    def test_steane_not_degenerate(self, steane):
        report = degeneracy_report(steane)
        assert not report.degenerate
        assert all(s.exact and not s.counts for s in report.sides)

    def test_order81_degenerate_with_weight4_words(self, f2):
        g = group_abelian([3, 3])
        pair = construct_pairs(builtin_mu_swap(g, 2), f2, g)[0]
        prod = product_duadic(pair, pair)
        codes = duadic_codes(prod)
        code = css_build(codes.c_e, codes.d_e, witnesses=prod.witnesses)
        code.distance = DistanceRecord(9, False, "odd-like-square-bound")
        report = degeneracy_report(code)
        assert report.degenerate
        by_side = {s.side: s for s in report.sides}
        assert not by_side["C"].exact
        assert by_side["C"].counts and by_side["C"].counts[0][0] == 4
        assert by_side["C"].counts[0][1] >= 81
        assert by_side["D-perp"].counts and by_side["D-perp"].counts[0][0] == 4

    @pytest.mark.parametrize("q", [2, 4])
    def test_zero_dimensional_side(self, q):
        # both sides are the zero code, enumerated like any other: over GF(4)
        # the scalar-class subset of the tail ranks runs with no tail row
        field = field_from_order(q)
        full = LinearCode(field, np.eye(4, dtype=np.int64))
        zero = LinearCode(field, np.zeros((0, 4), dtype=np.int64))
        code = css_build(zero, full)
        assert code.code_c.k == code.dual_d.k == 0
        code.distance = DistanceRecord(4, True, "coset-enumeration")
        report = degeneracy_report(code)
        assert [(s.side, s.exact, s.counts) for s in report.sides] == [("C", True, ()), ("D-perp", True, ())]
        assert not report.degenerate

    def test_witness_counts_only_the_translates_the_side_contains(self, f2):
        # C = span(1 + x) is no ideal of F_2[Z7]: of the seven shifts of its
        # witness it holds one, whichever shift the witness is
        z7 = cyclic_group(7)
        word = np.array([1, 1, 0, 0, 0, 0, 0], dtype=np.int64)
        full = LinearCode(f2, np.eye(7, dtype=np.int64))
        for shift in (0, 1):
            witness = AlgebraElement(f2, z7, np.roll(word, shift))
            code = css_build(LinearCode(f2, word[None]), full, witnesses=(witness,))
            code.distance = DistanceRecord(5, False, "odd-like-square-bound")
            report = degeneracy_report(code, cap=1)
            assert [(s.side, s.exact, s.counts) for s in report.sides] == [("C", False, ((2, 1),)), ("D-perp", True, ())]

    def test_requires_distance(self, f2):
        g = cyclic_group(7)
        pair = construct_pairs(builtin_mu_minus1(g), f2, g)[0]
        codes = duadic_codes(pair)
        code = css_build(codes.c_e, codes.d_e)
        with pytest.raises(ValueError, match="distance"):
            degeneracy_report(code)


class TestAnalyzePair:
    @pytest.mark.parametrize("field,group,mu", enumerable_cells((2, 3, 4, 5, 7, 8, 9, 11, 13, 16)))
    def test_matches_generic_oracles(self, field, group, mu):
        pairs = [*construct_pairs(mu, field, group), *construct_pairs(mu, field, group, mode="enumerate-all")]
        cases = set()
        for pair in pairs:
            analysis = analyze_pair(pair)
            codes = duadic_codes(pair)
            cases.add(analysis.duality.case)
            report = classify_duality(pair, codes)
            assert analysis.duality == report
            assert (analysis.case, analysis.equalities) == (report.case, report.equalities)
            assert analysis.bound == odd_like_bound(pair)
            for side, record in zip("ef", analysis.odd_like):
                assert record == DistanceRecord(reference_odd_like_min_weight(codes, side), True, "coset-enumeration")
            code = css_build(codes.c_e, codes.d_e, witnesses=pair.witnesses)
            code.distance = css_distance(code)
            assert analysis.css.distance == code.distance
            assert analysis.css.params() == code.params()
            assert analysis.degeneracy == degeneracy_report(code)
            a_ce = weight_distribution(codes.c_e)
            assert macwilliams(a_ce, field.q, codes.c_e.k) == list(weight_distribution(codes.d_e))
        assert cases == ({"i"} if mu.is_inversion_for(field) else {"ii"})

    @pytest.mark.parametrize(
        "group,q,mu_name,cap,tags",
        [
            # tags: odd-like, CSS, degeneracy; E exact, B bound.  Case i at
            # q^k = 729, (q-1) q^k = 1458, where the CSS count is that once
            *((cyclic_group(13), 3, "mu-1", cap, tags) for cap, tags in [
                (728, "BBB"), (729, "BBE"), (1000, "BBE"), (1457, "BBE"), (1458, "EEE"),
            ]),
            # case ii at q^k = 625, (q-1) q^k = 2500, and the CSS count twice that
            *((group_abelian([3, 3]), 5, "swap", cap, tags) for cap, tags in [
                (624, "BBB"), (625, "BBE"), (2499, "BBE"), (2500, "EBE"), (3000, "EBE"), (4999, "EBE"), (5000, "EEE"),
            ]),
            (cyclic_group(23), 2, "mu-1", 100, "BBB"),
        ],
    )
    def test_cap_bands_match_generic_cap_rules(self, group, q, mu_name, cap, tags):
        field = field_from_order(q)
        mu = builtin_mu_minus1(group) if mu_name == "mu-1" else builtin_mu_swap(group, q)
        pair = construct_pairs(mu, field, group)[0]
        analysis = analyze_pair(pair, cap)
        codes = duadic_codes(pair)
        bound_type, bound_d = odd_like_bound(pair)
        fallback = DistanceRecord(bound_d, False, f"odd-like-{bound_type}-bound")
        for side, record in zip("ef", analysis.odd_like):
            try:
                odd = DistanceRecord(reference_odd_like_min_weight(codes, side, cap), True, "coset-enumeration")
            except EnumerationCapError:
                odd = fallback
            assert record == odd
        code = css_build(codes.c_e, codes.d_e, witnesses=pair.witnesses)
        try:
            code.distance = css_distance(code, cap=cap)
        except EnumerationCapError:
            code.distance = fallback
        assert analysis.css.distance == code.distance
        assert analysis.degeneracy == degeneracy_report(code, cap=cap)
        exact = (*(r.exact for r in analysis.odd_like), code.distance.exact, *(s.exact for s in analysis.degeneracy.sides))
        assert "".join("E" if e else "B" for e in exact) == tags[0] * 2 + tags[1] + tags[2] * 2

    @pytest.mark.parametrize(
        "factors,q,case,words",
        [
            ([(cyclic_group(13), "mu-1")], 3, "i", 1458),  # D_e \ C_e once
            ([(group_abelian([3, 3]), "swap")], 5, "ii", 5000),  # and C-perp \ D-perp
            ([(group_abelian([3, 3]), "swap"), (cyclic_group(7), "mu-1")], 2, "mixed", 2**32),
        ],
    )
    def test_css_rule_counts_the_words_css_distance_counts(self, factors, q, case, words):
        field = field_from_order(q)
        pairs = [
            construct_pairs(builtin_mu_minus1(g) if name == "mu-1" else builtin_mu_swap(g, q), field, g)[0]
            for g, name in factors
        ]
        pair = pairs[0] if len(pairs) == 1 else product_duadic(*pairs)
        analysis = analyze_pair(pair, cap=1)
        k = pair.group.order // 2
        assert analysis.case == case
        assert (q - 1) * q**k * (1 if case == "i" else 2) == words  # the CSS rule of `analyze_pair`
        with pytest.raises(EnumerationCapError, match=f"^distance enumeration of {words} words exceeds cap 1$"):
            css_distance(analysis.css, cap=1)

    def test_order81_product_all_bounds(self, f2):
        g = group_abelian([3, 3])
        pair = construct_pairs(builtin_mu_swap(g, 2), f2, g)[0]
        analysis = analyze_pair(product_duadic(pair, pair))
        assert analysis.css.params() == "[[81,1,>=9]]_2"
        assert analysis.odd_like == (analysis.css.distance,) * 2
        assert analysis.degeneracy == degeneracy_report(analysis.css)
        assert analysis.degeneracy.degenerate
        assert not any(side.exact for side in analysis.degeneracy.sides)


def record_calls(monkeypatch, owners, name: str) -> list:
    """Wrap `name` in each owner module; each call appends (caller file, positional arguments)."""
    calls = []
    for owner in owners:
        original = getattr(owner, name)

        def wrapper(*args, _original=original, **kwargs):
            calls.append((sys._getframe(1).f_code.co_filename, args))
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestWorkCounts:
    """Each pair fact is checked once, where it is established."""

    def test_a_pair_costs_one_product(self, f2, monkeypatch):
        group = group_abelian([3, 3])
        pair = construct_pairs(builtin_mu_swap(group, 2), f2, group)[0]
        products = record_calls(monkeypatch, [algebra, duadic_module], "_convolve")
        DuadicPair(f2, group, pair.e, pair.f, pair.mu)
        assert len(products) == 1

    def test_bound_cell_checks_one_inclusion_and_no_stabilizer_product(self, f2, monkeypatch):
        group = cyclic_group(23)
        pair = construct_pairs(builtin_mu_minus1(group), f2, group)[0]
        inclusions = record_calls(monkeypatch, [_linalg], "in_row_space")
        products = record_calls(monkeypatch, [_linalg], "matmul")
        analysis = analyze_pair(pair, cap=100)
        assert not analysis.css.distance.exact
        assert len(inclusions) == 1  # C_e inside D_e, by CssCode
        assert not [caller for caller, _ in products if caller == quantum.__file__]

    @pytest.mark.parametrize("mode", ["canonical", "enumerate-all"])
    def test_pairing_applies_mu_to_no_idempotent(self, f2, monkeypatch, mode):
        # two cycles, so neither e nor f is itself one of the idempotents
        group = group_abelian([3, 3])
        members = split_primitive_central_idempotents(f2, group)
        applied = record_calls(monkeypatch, [duadic_module], "apply_antiauto")
        stacks = record_calls(monkeypatch, [duadic_module], "_antiauto_rows")
        pairs = construct_pairs(builtin_mu_swap(group, 2), f2, group, mode=mode)
        assert len(pairs) == (1 if mode == "canonical" else 2)
        assert not applied
        # once to the stacked idempotents, for the permutation construct_pairs
        # works out, then to the stacked e of every pair, for A2
        assert [rows.shape for _, (_, _, rows) in stacks] == [members.shape, (len(pairs), 9)]
        assert np.array_equal(stacks[0][1][2], members)


def test_css_code_without_a_distance(f2):
    code_d = LinearCode(f2, np.eye(4, 7, dtype=np.int64))
    code_c = LinearCode(f2, np.eye(1, 7, dtype=np.int64))
    css = quantum.CssCode(code_c, code_d, dual(code_c), dual(code_d))
    assert css.params() == "[[7,3,?]]_2" and repr(css) == "CssCode([[7,3,?]]_2)"


@pytest.mark.parametrize("field_c,n_c", [(2, 6), (2, 8), (3, 7)])
def test_public_input_guards_raise(field_c, n_c):
    # a CssCode's C and D share one field and one length
    f2 = field_from_order(2)
    code_d = LinearCode(f2, np.eye(4, 7, dtype=np.int64))
    code_c = LinearCode(field_from_order(field_c), np.eye(1, n_c, dtype=np.int64))
    with pytest.raises(ValueError, match="C and D live in different spaces"):
        quantum.CssCode(code_c, code_d, dual(code_c), dual(code_d))
