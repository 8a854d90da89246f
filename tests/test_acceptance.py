"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

from duadic.algebra import (
    AlgebraElement,
    alg_mul,
    is_even_like,
    is_idempotent,
    split_primitive_central_idempotents,
)
from duadic.cli import main
from duadic.codes import DEFAULT_ENUM_CAP, odd_like_min_weight, subcode_check
from duadic.duadic import (
    DuadicPair,
    classify_duality,
    construct_pairs,
    duadic_codes,
    odd_like_bound,
    product_duadic,
    splitting_exists_mu_minus1,
    verify_key_proposition,
)
from duadic.errors import EnumerationCapError, NoSplittingError
from duadic.gf import field_from_order
from duadic.groups import (
    builtin_mu_minus1,
    builtin_mu_swap,
    cyclic_group,
    group_abelian,
    group_from_cayley,
)
from duadic.quantum import DistanceRecord, analyze_pair

from conftest import frobenius21_table
from oracles import abelian_character_idempotents, reference_css_distance, reference_degeneracy_sides

Q_LIST = (2, 3, 4, 5, 7, 9)
ODD_N = tuple(range(3, 46, 2))


@pytest.fixture(scope="module")
def cyclic_grid():
    """Criterion-1 grid: (n, q) -> constructed pair or None, plus elapsed time."""
    start = time.perf_counter()
    cells = {}
    for n in ODD_N:
        group = cyclic_group(n)
        mu = builtin_mu_minus1(group)
        for q in Q_LIST:
            if math.gcd(n, q) != 1:
                continue
            field = field_from_order(q)
            try:
                pairs = construct_pairs(mu, field, group)
                cells[(n, q)] = pairs[0] if pairs else None
            except NoSplittingError:
                cells[(n, q)] = None
    elapsed = time.perf_counter() - start
    return cells, elapsed


def test_criterion_1_existence_equivalence(cyclic_grid):
    cells, elapsed = cyclic_grid
    assert len(cells) >= 90
    for (n, q), pair in cells.items():
        assert (pair is not None) == splitting_exists_mu_minus1(n, q), (n, q)
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: construction matches the odd-order-of-q test on {len(cells)} cyclic cells ({elapsed:.1f}s)")


def test_criterion_2_fixed_count_equality():
    start = time.perf_counter()
    checked = 0
    cells = []
    for n in range(2, 32):
        for q in Q_LIST:
            if math.gcd(n, q) == 1:
                cells.append((cyclic_group(n), q, "mu-1"))
    for p in (3, 5):
        group = group_abelian([p, p])
        for q in Q_LIST:
            if math.gcd(p, q) == 1:
                cells.append((group, q, "mu-1"))
                cells.append((group, q, "swap"))
    frob = group_from_cayley(frobenius21_table(), descriptor="frobenius21")
    for q in Q_LIST:
        if math.gcd(21, q) == 1:
            cells.append((frob, q, "mu-1"))
    for group, q, mu_name in cells:
        field = field_from_order(q)
        mu = builtin_mu_minus1(group) if mu_name == "mu-1" else builtin_mu_swap(group, q)
        n_classes, n_idems = verify_key_proposition(mu, field, group)
        assert n_classes == n_idems, (group.descriptor, q, mu_name, n_classes, n_idems)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"PASS criterion 2: fixed-class = fixed-idempotent counts on {checked} (G, q, mu) cells ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def swap_pair_9():
    field = field_from_order(2)
    group = group_abelian([3, 3])
    return construct_pairs(builtin_mu_swap(group, 2), field, group)[0]


def test_criterion_3_code_structure(cyclic_grid, swap_pair_9):
    cells, _ = cyclic_grid
    pairs = [p for p in cells.values() if p is not None] + [swap_pair_9]
    for pair in pairs:
        n = pair.group.order
        codes = duadic_codes(pair)
        assert (codes.c_e.k, codes.c_f.k) == ((n - 1) // 2, (n - 1) // 2)
        assert (codes.d_e.k, codes.d_f.k) == ((n + 1) // 2, (n + 1) // 2)
        # duadic_codes checks only the dimensions: the inclusions follow from
        # the orthogonality of e, f and Ghat, both re-checked here
        for a, b in ((pair.e, pair.f), (pair.e, pair.ghat), (pair.f, pair.ghat)):
            assert alg_mul(a, b).weight() == 0
            assert alg_mul(b, a).weight() == 0
        assert subcode_check(codes.c_e, codes.d_e) and subcode_check(codes.c_f, codes.d_f)
        assert codes.d_e.contains(pair.ghat.vec) and codes.d_f.contains(pair.ghat.vec)
    print(f"PASS criterion 3: dimensions, inclusions, orthogonality on {len(pairs)} pairs")


def test_criterion_4_duality_cases(cyclic_grid, swap_pair_9):
    cells, _ = cyclic_grid
    pair7 = cells[(7, 2)]
    report_i = classify_duality(pair7)
    assert (report_i.case, report_i.equalities) == ("i", ("C_e-perp = D_e", "C_f-perp = D_f"))
    report_ii = classify_duality(swap_pair_9)
    assert (report_ii.case, report_ii.equalities) == ("ii", ("C_e-perp = D_f", "C_f-perp = D_e"))
    print("PASS criterion 4: duality case i at (n=7, q=2), case ii at (Z3xZ3, swap, q=2)")


def test_criterion_5_odd_like_weight_bounds(cyclic_grid, swap_pair_9):
    cells, _ = cyclic_grid
    start = time.perf_counter()
    checked = 0
    for (n, q), pair in sorted(cells.items()):
        if pair is None:
            continue
        codes = duadic_codes(pair)
        field = pair.field
        if field.q**codes.c_e.k * (field.q - 1) > DEFAULT_ENUM_CAP:
            continue
        kind, bound = odd_like_bound(pair)
        assert kind == "sharpened"
        d_o, _ = odd_like_min_weight(codes, "e")
        assert d_o * d_o - d_o + 1 >= n, (n, q, d_o)
        assert d_o >= bound
        if (n, q) == (7, 2):
            assert d_o == 3 and d_o * d_o - d_o + 1 == 7
        checked += 1
    codes9 = duadic_codes(swap_pair_9)
    d_o9, _ = odd_like_min_weight(codes9, "e")
    assert d_o9 * d_o9 >= 9
    elapsed = time.perf_counter() - start
    print(
        f"PASS criterion 5: odd-like weight bounds hold on {checked} inversion instances + swap instance "
        f"({elapsed:.1f}s)"
    )


def test_criterion_6_order81_product_reproduction():
    start = time.perf_counter()
    field = field_from_order(2)
    group = group_abelian([3, 3])
    mu = builtin_mu_swap(group, 2)
    ids = [group.element_id(t) for t in [(1, 0), (2, 0), (1, 1), (2, 2)]]
    e1 = AlgebraElement.from_coeff_list(field, group, [(g, 1) for g in ids])
    ids_f = [group.element_id(t) for t in [(0, 1), (0, 2), (1, 2), (2, 1)]]
    f1 = AlgebraElement.from_coeff_list(field, group, [(g, 1) for g in ids_f])
    assert is_idempotent(e1) and is_idempotent(f1)
    assert is_even_like(e1) and is_even_like(f1)
    # A1/A2 under swap-mu and mu_-1 fixedness are re-verified by the pair constructor
    pair1 = DuadicPair(field, group, e1, f1, mu)
    pair2 = DuadicPair(field, group, e1, f1, mu)
    assert pair1.fixed_by_mu_minus1
    product = product_duadic(pair1, pair2)
    assert is_idempotent(product.e)
    codes = duadic_codes(product)
    assert (codes.c_e.k, codes.d_e.k) == (40, 41)
    witness = next(w for w in product.witnesses if alg_mul(product.e, w) == w)
    assert witness.weight() == 4
    assert codes.c_e.contains(witness.vec)
    kind, bound = odd_like_bound(product)
    assert (kind, bound) == ("square", 9)
    with pytest.raises(EnumerationCapError):
        reference_css_distance(codes.c_e, codes.d_e, cap=DEFAULT_ENUM_CAP)
    analysis = analyze_pair(product)
    css = analysis.css
    assert css.distance == DistanceRecord(9, False, "odd-like-square-bound")
    assert css.params() == "[[81,1,>=9]]_2"
    assert not css.distance.exact
    sides = (("C", codes.c_e), ("D-perp", analysis.duality.d_e_perp))
    assert analysis.degeneracy.sides == reference_degeneracy_sides(sides, product.witnesses, 9)
    assert analysis.degeneracy.degenerate
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 6 took {elapsed:.1f}s"
    print(f"PASS criterion 6: order-81 product reproduction, [[81,1,>=9]]_2 tagged ({elapsed:.1f}s)")


def test_criterion_7_css_pipeline():
    start = time.perf_counter()
    field = field_from_order(2)
    for n, params in [(7, "[[7,1,3]]_2"), (23, "[[23,1,7]]_2")]:
        group = cyclic_group(n)
        analysis = analyze_pair(construct_pairs(builtin_mu_minus1(group), field, group)[0])
        codes = analysis.codes
        assert analysis.css.params() == params and analysis.css.distance.exact
        assert analysis.css.distance.value == reference_css_distance(codes.c_e, codes.d_e)
    assert 7 * 7 - 7 + 1 >= 23
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 7 took {elapsed:.1f}s"
    print(f"PASS criterion 7: [[7,1,3]]_2 and [[23,1,7]]_2 by enumeration ({elapsed:.1f}s)")


def _partitions(k):
    if k == 0:
        yield []
        return
    for first in range(k, 0, -1):
        for rest in _partitions(k - first):
            if not rest or rest[0] <= first:
                yield [first] + rest


def _abelian_orders_of(n):
    """Cyclic-factor lists of every abelian group of order n, up to isomorphism."""
    factors = {}
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    per_prime = [
        [[p**part for part in parts] for parts in _partitions(a)]
        for p, a in sorted(factors.items())
    ]
    for combo in itertools.product(*per_prime):
        yield [x for grp in combo for x in grp]


def test_criterion_8_oracle_equivalence():
    start = time.perf_counter()
    cells = 0
    for n in range(2, 82):
        for orders in _abelian_orders_of(n):
            group = group_abelian(orders)
            for q in Q_LIST:
                if math.gcd(n, q) != 1:
                    continue
                field = field_from_order(q)
                split = split_primitive_central_idempotents(field, group)
                oracle = abelian_character_idempotents(field, group)
                assert np.array_equal(split, oracle), (orders, q)
                cells += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.1f}s"
    print(f"PASS criterion 8: oracle equivalence on {cells} abelian cells ({elapsed:.1f}s)")


def test_criterion_9_scan_determinism(capsys):
    argv = [
        "scan", "--family", "cyclic", "--n", "3-45",
        "--q", "2,3,4,5,7,9", "--mu", "mu-1", "--json",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    rows = json.loads(first)
    assert len(rows) >= 90
    with capsys.disabled():
        print("\nPASS criterion 9: byte-identical scan JSON across runs")
