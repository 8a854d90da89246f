"""CSS codes of duadic pairs, their distances, and degeneracy evidence."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from duadic import _linalg, algebra, quantum
from duadic import duadic as duadic_module
from duadic.algebra import AlgebraElement, apply_antiauto, split_primitive_central_idempotents
from duadic.codes import DEFAULT_ENUM_CAP, LinearCode, difference_min_weight, dual, weight_distribution
from duadic.duadic import (
    DuadicPair,
    construct_pairs,
    duadic_codes,
    duality_case,
    odd_like_bound,
    product_duadic,
)
from duadic.errors import EnumerationCapError, NoSplittingError
from duadic.gf import field_from_order
from duadic.groups import builtin_mu_minus1, builtin_mu_swap, cyclic_group, group_abelian
from duadic.quantum import DistanceRecord, analyze_pair

from conftest import enumerable_cells
from oracles import (
    macwilliams,
    reference_css_distance,
    reference_degeneracy_sides,
    reference_odd_like_min_weight,
)


@pytest.fixture(scope="module")
def f2():
    return field_from_order(2)


def canonical_analysis(field, group, mu, cap=DEFAULT_ENUM_CAP):
    return analyze_pair(construct_pairs(mu, field, group)[0], cap)


@pytest.fixture(scope="module")
def steane(f2):
    return canonical_analysis(f2, cyclic_group(7), builtin_mu_minus1(cyclic_group(7)))


@pytest.fixture(scope="module")
def order81(f2):
    g = group_abelian([3, 3])
    pair = construct_pairs(builtin_mu_swap(g, 2), f2, g)[0]
    return analyze_pair(product_duadic(pair, pair))


def reference_degeneracy(pair, codes, distance, cap):
    """(degenerate, distance, sides) as the generic rules give them: sides C_e and dual(D_e)."""
    sides = reference_degeneracy_sides((("C", codes.c_e), ("D-perp", dual(codes.d_e))), pair.witnesses, distance.value, cap)
    return any(s.counts for s in sides), distance, sides


def degeneracy(analysis):
    """(degenerate, distance, sides) of an analysis, as `reference_degeneracy` gives them."""
    return analysis.degenerate, analysis.distance, analysis.sides


class TestCssCode:
    def test_c_equals_d_gives_k_zero(self, f2):
        c = LinearCode(f2, np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int64))
        assert quantum.CssCode(c, c, dual(c), dual(c)).k == 0

    def test_steane_parameters(self, steane):
        assert (steane.css.n, steane.css.k) == (7, 1)
        assert steane.css.distance == DistanceRecord(3, True, "coset-enumeration")
        assert steane.css.params() == steane.params() == "[[7,1,3]]_2"

    def test_rejects_non_nested(self, f2):
        c = LinearCode(f2, np.array([[1, 0, 0]], dtype=np.int64))
        d = LinearCode(f2, np.array([[0, 1, 0]], dtype=np.int64))
        with pytest.raises(ValueError, match="contained"):
            quantum.CssCode(c, d, dual(c), dual(d))

    def test_stabilizer_orthogonality(self, steane):
        css = steane.css
        prod = _linalg.matmul(css.field, css.x_stabilizers, css.z_stabilizers.T)
        assert not np.any(prod)

    def test_k_identity(self):
        for n, q in [(7, 2), (11, 3)]:
            g = cyclic_group(n)
            analysis = canonical_analysis(field_from_order(q), g, builtin_mu_minus1(g))
            assert analysis.css.k == analysis.codes.d_e.k - analysis.codes.c_e.k == 1


class TestCssDistance:
    def test_steane_exact(self, steane):
        assert steane.distance == DistanceRecord(3, True, "coset-enumeration")

    def test_matches_naive_both_sides(self, steane):
        assert steane.css.distance.value == reference_css_distance(steane.codes.c_e, steane.codes.d_e)

    def test_z33_swap_exact_and_square_bound(self, f2):
        g = group_abelian([3, 3])
        analysis = canonical_analysis(f2, g, builtin_mu_swap(g, 2))
        assert analysis.params() == "[[9,1,3]]_2"
        assert analysis.css.distance.exact
        assert analysis.css.distance.value ** 2 >= 9
        assert analysis.css.distance.value == reference_css_distance(analysis.codes.c_e, analysis.codes.d_e)

    def test_cap_counts_the_difference_words(self, f2):
        # case i: the one difference D \ C holds 2^4 - 2^3 = 8 words
        g = cyclic_group(7)
        tags = [canonical_analysis(f2, g, builtin_mu_minus1(g), cap).distance for cap in (4, 7, 8)]
        assert tags == [DistanceRecord(3, False, "odd-like-sharpened-bound")] * 2 + [
            DistanceRecord(3, True, "coset-enumeration")
        ]

    def test_k_zero_rejected(self, f2):
        # a k = 0 CssCode has no D \ C to enumerate, and the enumerator says so
        c = LinearCode(f2, np.array([[1, 1, 0]], dtype=np.int64))
        code = quantum.CssCode(c, c, dual(c), dual(c))
        with pytest.raises(ValueError, match="set difference is empty"):
            difference_min_weight(code.code_c, code.code_d)

    def test_record_text(self):
        assert str(DistanceRecord(3, True, "coset-enumeration")) == "3 (exact, coset-enumeration)"
        bound = DistanceRecord(9, False, "odd-like-square-bound")
        assert bound.tag() == "lower-bound"
        assert str(bound) == "9 (lower-bound, odd-like-square-bound)"

    @pytest.mark.parametrize(
        "group,mu_name,cap",
        [
            (cyclic_group(7), "mu-1", 1 << 24),  # case i: D-perp = C, so C-perp = D
            (cyclic_group(23), "mu-1", 100),  # case i above the cap
            (group_abelian([3, 3]), "swap", 1 << 24),  # case ii: C-perp = D_f
            (group_abelian([3, 3]), "swap", 16),  # case ii above the cap
        ],
    )
    def test_duals_come_from_duadic_codes_alone(self, f2, monkeypatch, group, mu_name, cap):
        mu = builtin_mu_minus1(group) if mu_name == "mu-1" else builtin_mu_swap(group, 2)
        pair = construct_pairs(mu, f2, group)[0]
        calls = record_calls(monkeypatch, [duadic_module, quantum], "duadic_codes")
        analysis = analyze_pair(pair, cap=cap)
        code = analysis.css
        assert len(calls) == 1
        assert (code.dual_c, code.dual_d) == (analysis.codes.c_e_perp, analysis.codes.d_e_perp)
        assert code.dual_c == dual(code.code_c) and code.dual_d == dual(code.code_d)
        if analysis.css.distance.exact:
            assert analysis.css.distance.value == reference_css_distance(code.code_c, code.code_d)


class TestPairPipeline:
    def test_steane(self, steane):
        assert steane.params() == "[[7,1,3]]_2"
        d = steane.css.distance.value
        assert d * d - d + 1 >= 7

    def test_golay_23(self, f2):
        g = cyclic_group(23)
        analysis = canonical_analysis(f2, g, builtin_mu_minus1(g))
        assert analysis.css.params() == "[[23,1,7]]_2"
        assert analysis.css.distance.exact
        assert 7 * 7 - 7 + 1 >= 23

    def test_no_splitting(self, f2):
        g = cyclic_group(9)
        with pytest.raises(NoSplittingError):
            canonical_analysis(f2, g, builtin_mu_minus1(g))

    def test_trivial_group_carries_no_pairs(self, f2):
        g = cyclic_group(1)
        with pytest.raises(NoSplittingError, match="^the trivial group carries no duadic pairs$"):
            canonical_analysis(f2, g, builtin_mu_minus1(g))

    def test_nonabelian_frobenius21_over_gf4(self, frobenius21):
        analysis = canonical_analysis(field_from_order(4), frobenius21, builtin_mu_minus1(frobenius21))
        assert analysis.css.params() == "[[21,1,6]]_4"
        d = analysis.css.distance.value
        assert analysis.css.distance.exact and d * d - d + 1 >= 21

    def test_nonabelian_heisenberg27_bound_above_cap(self, heisenberg27):
        analysis = canonical_analysis(field_from_order(4), heisenberg27, builtin_mu_minus1(heisenberg27))
        assert analysis.css.params() == "[[27,1,>=6]]_4"
        assert not analysis.css.distance.exact
        assert analysis.css.distance.provenance == "odd-like-sharpened-bound"

    def test_order81_bound_tagged(self, order81):
        codes = order81.codes
        with pytest.raises(EnumerationCapError):
            reference_css_distance(codes.c_e, codes.d_e)
        assert order81.css.distance == DistanceRecord(9, False, "odd-like-square-bound")
        assert order81.css.params() == "[[81,1,>=9]]_2"


class TestDegeneracy:
    def test_steane_not_degenerate(self, steane):
        assert not steane.degenerate
        assert all(s.exact and not s.counts for s in steane.sides)

    def test_order81_degenerate_with_weight4_words(self, order81):
        assert order81.degenerate
        by_side = {s.side: s for s in order81.sides}
        assert not by_side["C"].exact
        assert by_side["C"].counts and by_side["C"].counts[0][0] == 4
        assert by_side["C"].counts[0][1] >= 81
        assert by_side["D-perp"].counts and by_side["D-perp"].counts[0][0] == 4

    def test_report_carries_the_css_distance(self, steane, order81):
        # the evidence is the words below the CSS code's own distance record
        for analysis in (steane, order81):
            assert analysis.distance is analysis.css.distance
            assert all(w < analysis.distance.value for s in analysis.sides for w, _ in s.counts)

    def test_degenerate_is_whether_a_side_holds_a_word(self, steane, order81):
        # enumerated sides on 21 over GF(4) (degenerate) and 7 over GF(2)
        # (not), and the witness sides of the order-81 product's bound path
        z21 = cyclic_group(21)
        analyses = [canonical_analysis(field_from_order(4), z21, builtin_mu_minus1(z21)), steane, order81]
        assert [a.degenerate for a in analyses] == [any(s.counts for s in a.sides) for a in analyses]
        assert [a.degenerate for a in analyses] == [True, False, True]
        assert [all(s.exact for s in a.sides) for a in analyses] == [True, True, False]

    @pytest.mark.parametrize("q", [2, 4])
    def test_zero_dimensional_side(self, q):
        # both sides are the zero code, enumerated like any other: over GF(4)
        # the scalar-class subset of the tail ranks runs with no tail row
        field = field_from_order(q)
        full = LinearCode(field, np.eye(4, dtype=np.int64))
        zero = LinearCode(field, np.zeros((0, 4), dtype=np.int64))
        code = quantum.CssCode(zero, full, dual(zero), dual(full))
        assert (code.k, code.code_c.k, code.dual_d.k) == (4, 0, 0)
        assert weight_distribution(zero).tolist() == weight_distribution(code.dual_d).tolist() == [1, 0, 0, 0, 0]
        assert difference_min_weight(zero, full)[0] == reference_css_distance(zero, full) == 1
        sides = reference_degeneracy_sides((("C", code.code_c), ("D-perp", code.dual_d)), (), 4)
        assert [(s.side, s.exact, s.counts) for s in sides] == [("C", True, ()), ("D-perp", True, ())]

    def test_witness_counts_only_the_translates_the_side_contains(self, f2):
        # C = span(1 + x) is no ideal of F_2[Z7]: of the seven shifts of its
        # witness the oracle's row-space test holds one, whichever shift the
        # witness is
        z7 = cyclic_group(7)
        word = np.array([1, 1, 0, 0, 0, 0, 0], dtype=np.int64)
        code = LinearCode(f2, word[None])
        for shift in (0, 1):
            witness = AlgebraElement(f2, z7, np.roll(word, shift))
            sides = reference_degeneracy_sides((("C", code),), (witness,), 5, cap=1)
            assert [(s.side, s.exact, s.counts) for s in sides] == [("C", False, ((2, 1),))]

    @pytest.mark.parametrize("side", ["C", "D-perp"])
    @pytest.mark.parametrize("group,mu_name", [(cyclic_group(7), "mu-1"), (group_abelian([3, 3]), "swap")])
    def test_ideal_test_counts_the_translates_the_row_space_test_counts(self, f2, group, mu_name, side):
        # on the ideal sides C = Re and D-perp = R mu_-1(f), w a = w admits a
        # witness, and then all its translates, exactly where the row-space
        # test of each translate does; d = n counts every nonzero weight
        mu = builtin_mu_minus1(group) if mu_name == "mu-1" else builtin_mu_swap(group, 2)
        pair = construct_pairs(mu, f2, group)[0]
        analysis = analyze_pair(pair)
        codes = analysis.codes
        a, code = (pair.e, codes.c_e) if side == "C" else (apply_antiauto(builtin_mu_minus1(group), pair.f), codes.d_e_perp)
        pair_word = np.zeros(group.order, dtype=np.int64)
        pair_word[:2] = 1
        rows = (*codes.c_e.gen, *codes.d_e.gen, *codes.c_e_perp.gen, *codes.d_e_perp.gen, pair_word)
        witnesses = tuple(AlgebraElement(f2, group, row) for row in rows)
        assert any(w * a == w for w in witnesses) and not all(w * a == w for w in witnesses)
        evidence = quantum._witness_side(side, witnesses, group.order, a)
        assert (evidence,) == reference_degeneracy_sides(((side, code),), witnesses, group.order, cap=1)
        assert evidence.counts and not evidence.exact


class TestAnalyzePair:
    @pytest.mark.parametrize("field,group,mu", enumerable_cells((2, 3, 4, 5, 7, 8, 9, 11, 13, 16)))
    def test_matches_generic_oracles(self, field, group, mu):
        pairs = [*construct_pairs(mu, field, group), *construct_pairs(mu, field, group, mode="enumerate-all")]
        cases = set()
        for pair in pairs:
            analysis = analyze_pair(pair)
            codes = duadic_codes(pair)
            cases.add(analysis.case)
            duals = (analysis.codes.c_e_perp, analysis.codes.d_e_perp)
            assert duals == (codes.c_e_perp, codes.d_e_perp) == (dual(codes.c_e), dual(codes.d_e))
            assert (analysis.case, analysis.equalities) == duality_case(pair)
            assert analysis.bound == odd_like_bound(pair)
            for side, record in zip("ef", analysis.odd_like):
                assert record == DistanceRecord(reference_odd_like_min_weight(codes, side), True, "coset-enumeration")
            distance = DistanceRecord(reference_css_distance(codes.c_e, codes.d_e), True, "coset-enumeration")
            assert analysis.css.distance == distance
            assert analysis.css.params() == analysis.params() == f"[[{group.order},1,{distance.value}]]_{field.q}"
            assert degeneracy(analysis) == reference_degeneracy(pair, codes, distance, DEFAULT_ENUM_CAP)
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
        try:
            distance = DistanceRecord(reference_css_distance(codes.c_e, codes.d_e, cap), True, "coset-enumeration")
        except EnumerationCapError:
            distance = fallback
        assert analysis.css.distance == distance
        assert degeneracy(analysis) == reference_degeneracy(pair, codes, distance, cap)
        exact = (*(r.exact for r in analysis.odd_like), distance.exact, *(s.exact for s in analysis.sides))
        assert "".join("E" if e else "B" for e in exact) == tags[0] * 2 + tags[1] + tags[2] * 2

    @pytest.mark.parametrize(
        "factors,q,case,words",
        [
            ([(cyclic_group(13), "mu-1")], 3, "i", 1458),  # D_e \ C_e once
            ([(group_abelian([3, 3]), "swap")], 5, "ii", 5000),  # and C-perp \ D-perp
            ([(group_abelian([3, 3]), "swap"), (cyclic_group(7), "mu-1")], 2, "mixed", 2**32),
        ],
    )
    def test_css_rule_counts_the_words_the_generic_rule_counts(self, factors, q, case, words):
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
        codes = analysis.codes
        with pytest.raises(EnumerationCapError, match=f"^distance enumeration of {words} words exceeds cap {words - 1}$"):
            reference_css_distance(codes.c_e, codes.d_e, cap=words - 1)
        if case != "mixed":  # the tag flips where the rule says: past words - 1 the distance is enumerated
            assert [analyze_pair(pair, cap).css.distance.exact for cap in (words - 1, words)] == [False, True]

    def test_order81_product_all_bounds(self, order81):
        assert order81.css.params() == "[[81,1,>=9]]_2"
        assert order81.odd_like == (order81.css.distance,) * 2
        assert degeneracy(order81) == reference_degeneracy(order81.pair, order81.codes, order81.css.distance, DEFAULT_ENUM_CAP)
        assert order81.degenerate
        assert not any(side.exact for side in order81.sides)


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

    def test_exact_cell_builds_its_css_code_on_first_read(self, f2, monkeypatch):
        # case i under the cap: every inclusion test is an enumerator's own
        # nesting check until `css` is read, which builds the code once
        group = cyclic_group(7)
        pair = construct_pairs(builtin_mu_minus1(group), f2, group)[0]
        builds = record_calls(monkeypatch, [quantum], "CssCode")
        inclusions = []
        original = _linalg.in_row_space

        def in_row_space(*args):
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            inclusions.append(names)
            return original(*args)

        monkeypatch.setattr(_linalg, "in_row_space", in_row_space)
        analysis = analyze_pair(pair)
        assert analysis.case == "i" and analysis.params() == "[[7,1,3]]_2"
        assert not builds and inclusions
        assert all("difference_min_weight" in names for names in inclusions)
        checked = len(inclusions)
        assert analysis.css.params() == "[[7,1,3]]_2" and analysis.css is analysis.css
        assert len(builds) == 1 and len(inclusions) == checked + 1  # C_e inside D_e, by CssCode

    @pytest.mark.parametrize("group,mu_name,case", [(cyclic_group(7), "mu-1", "i"), (group_abelian([3, 3]), "swap", "ii")])
    def test_css_distance_runs_each_difference_of_its_case(self, f2, monkeypatch, group, mu_name, case):
        mu = builtin_mu_minus1(group) if mu_name == "mu-1" else builtin_mu_swap(group, 2)
        pair = construct_pairs(mu, f2, group)[0]
        differences = record_calls(monkeypatch, [quantum], "difference_min_weight")
        analysis = analyze_pair(pair)
        codes = analysis.codes
        expected = [(codes.c_e, codes.d_e)] + ([(codes.d_e_perp, codes.c_e_perp)] if case == "ii" else [])
        assert analysis.case == case and analysis.css.distance.exact
        assert [args[:2] for _, args in differences] == expected

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
