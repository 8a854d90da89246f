"""Tests of the benchmark's own parts: span arithmetic, work counts, the
seeded draw, the pools and the reference checker."""

from __future__ import annotations

import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import pools  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import SpanStats, Tracer, outermost, self_times  # noqa: E402

REFERENCE = check.load_reference()
COSTS = {key: entry["latency_s"] for key, entry in REFERENCE["requests"].items()}
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class TestSelfTimes:
    def test_nested_spans(self):
        # root [0, 100] with children [10, 30] and [40, 70]; [45, 55] nests
        # in the second child
        start = [0, 10, 40, 45]
        end = [100, 30, 70, 55]
        parent = [-1, 0, 0, 2]
        assert self_times(start, end, parent).tolist() == [50, 20, 20, 10]

    def test_overlapping_and_overhanging_children(self):
        # children [10, 50] and [40, 60] overlap by 10; [90, 120] overhangs
        # the parent's end by 20; only the covered part of the parent counts
        start = [0, 10, 40, 90]
        end = [100, 50, 60, 120]
        parent = [-1, 0, 0, 0]
        assert self_times(start, end, parent)[0] == 100 - 50 - 10

    def test_children_of_several_parents_do_not_mix(self):
        start = [0, 5, 200, 205]
        end = [100, 95, 300, 210]
        parent = [-1, 0, -1, 2]
        assert self_times(start, end, parent).tolist() == [10, 90, 95, 5]

    def test_outermost_skips_recursive_calls(self):
        name = np.array([0, 0, 1, 0])
        parent = np.array([-1, 0, 1, 2])
        assert outermost(name, parent, np.array([0])).tolist() == [True, False, False, False]
        assert outermost(name, parent, np.array([1])).tolist() == [False, False, True, False]


def test_tracer_records_a_known_nest(monkeypatch):
    # a clock that advances 10 ns per reading gives every span a known length
    ticks = iter(range(0, 10_000, 10))
    monkeypatch.setattr(tracer_mod.time, "perf_counter_ns", lambda: next(ticks))
    t = Tracer()

    def inner(x):
        return x

    inner_t = t.wrap(inner, "m.inner")

    def outer():
        return inner_t(1) + inner_t(2)

    outer_t = t.wrap(outer, "m.outer")
    t.request_id = 7
    assert outer_t() == 3
    # readings: outer 0, inner 10..20, inner 30..40, outer ends at 50
    stats = SpanStats(t)
    assert stats.calls("m.inner") == 2
    assert stats.total_s("m.outer") == pytest.approx(50e-9)
    assert stats.self_time("m.outer") == pytest.approx(30e-9)
    assert stats.self_time("m.inner") == pytest.approx(20e-9)
    assert set(t.request) == {7}
    assert list(t.parent) == [-1, 0, 0]


def test_install_and_uninstall_restore_the_package():
    import duadic.codes
    import duadic.gf

    original_vadd = duadic.gf.FiniteField.vadd
    original_min = duadic.codes.coset_min_weight
    t = Tracer()
    t.install()
    try:
        assert duadic.codes.coset_min_weight is not original_min
        assert duadic.gf.FiniteField.vadd is not original_vadd
    finally:
        t.uninstall()
    assert duadic.codes.coset_min_weight is original_min
    assert duadic.gf.FiniteField.vadd is original_vadd


def test_work_counts_on_the_order_7_code(tmp_path):
    # hand count: odd-like d_e and d_f scan 2^3 words each, the collapsed
    # CSS difference one coset of 2^3, and the two degeneracy sides 2^3 each
    req = pools.Request(("construct", "--group", "7", "--q", "2", "--mu", "mu-1", "--json"))
    _, answers, final = run.run_pass([req], time.perf_counter() + 60, tmp_path / "spans.npz")
    assert final is not None
    layer = final["spans"]["metrics"]
    assert layer["codes.enum.words"] == 40
    assert layer["quantum.bound_fallbacks"] == 0
    assert layer["algebra.idempotents.count"] == 3
    res = answers[0]
    summary = check.summarize(req.argv, res["exit"], res["stdout"])
    words = {int(k): v for k, v in final["spans"]["enum_words_by_request"].items()}
    assert run.passes_per_pair([req], [summary], words) == 2.5
    saved = np.load(tmp_path / "spans.npz")
    assert len(saved["name"]) == final["spans"]["span_count"]


# ---------------------------------------------------------------------------
# pools and the seeded draw
# ---------------------------------------------------------------------------


def _keys(passes):
    return [[r.key for r in p] for p in passes]


@pytest.mark.parametrize("workload", sorted(pools.POOLS))
def test_same_seed_same_requests(workload):
    a = pools.draw(workload, 3, COSTS, 24.0)
    b = pools.draw(workload, 3, COSTS, 24.0)
    assert _keys(a) == _keys(b)


@pytest.mark.parametrize("workload", sorted(pools.POOLS))
def test_other_seed_other_requests_from_the_same_pool(workload):
    pool = {r.key for r in pools.POOLS[workload]()}
    a = pools.draw(workload, 1, COSTS, 24.0)
    b = pools.draw(workload, 2, COSTS, 24.0)
    assert _keys(a) != _keys(b)
    drawn = {key for p in _keys(a) + _keys(b) for key in p}
    assert drawn <= pool


@pytest.mark.parametrize("workload", sorted(pools.POOLS))
def test_no_request_repeats_within_a_pass(workload):
    for p in _keys(pools.draw(workload, 5, COSTS, 24.0)):
        assert len(p) == len(set(p))


@pytest.mark.parametrize("workload", sorted(pools.POOLS))
def test_draw_fills_the_budget(workload):
    passes = pools.draw(workload, 4, COSTS, 24.0)
    cost = sum(COSTS[r.key] for p in passes for r in p)
    assert 0.6 * 24.0 <= cost <= 1.3 * 24.0


def test_costly_requests_are_in_every_run():
    for workload in pools.POOLS:
        pool = sorted(pools.POOLS[workload](), key=lambda r: -COSTS[r.key])
        costliest, spent = set(), 0.0
        for r in pool:
            spent += COSTS[r.key]
            if spent > pools.CERTAIN_SHARE * 24.0:
                break
            costliest.add(r.key)
        assert costliest
        for seed in range(4):
            assert costliest <= {r.key for p in pools.draw(workload, seed, COSTS, 24.0) for r in p}


def test_pool_sizes_match_the_benchmark_spec():
    for workload in SPEC["workloads"]:
        size = int(re.search(r"pool of (\d+)", workload["why"]).group(1))
        assert len(pools.POOLS[workload["name"]]()) == size


def test_pools_follow_their_rules():
    for req in pools.pool_construct_exact():
        q = int(req.argv[req.argv.index("--q") + 1])
        n = REFERENCE["requests"][req.key]["summary"]["nk"][0]
        assert 2**10 <= q ** ((n + 1) // 2) <= 2**22
    bound = pools.pool_construct_bound()
    cyclic = [r for r in bound if r.argv[2].isdigit() and "--enumerate-all" not in r.argv]
    assert len(cyclic) == 141
    for req in bound:
        q = int(req.argv[req.argv.index("--q") + 1])
        n = REFERENCE["requests"][req.key]["summary"]["nk"][0]
        assert q ** ((n - 1) // 2) > 2**24
        if "--enumerate-all" in req.argv:
            assert 2 <= REFERENCE["requests"][req.key]["summary"]["pairs"] <= 2**8
    scan = pools.pool_scan()
    assert len(scan) == 99 + 5


def test_reference_covers_every_request_and_nothing_fails():
    for workload, build in pools.POOLS.items():
        for req in build():
            entry = REFERENCE["requests"][req.key]
            assert entry["workload"] == workload
            assert entry["summary"]["exit"] == 0


@pytest.mark.parametrize("workload,share", [("construct-exact", 1.0), ("construct-bound", 0.0)])
def test_reference_exact_share(workload, share):
    tags = [
        tag
        for req in pools.POOLS[workload]()
        for tag in check.distance_tags(REFERENCE["requests"][req.key]["summary"])
    ]
    assert sum(tags) / len(tags) == share


def test_cayley_tables_are_groups():
    from duadic.groups import parse_cayley_text

    for p, r in pools.EXACT_METACYCLIC + pools.BOUND_METACYCLIC:
        group = parse_cayley_text(pools.metacyclic_cayley_text(p, r))
        assert group.order == p * r and not group.is_abelian


def test_swap_rule_matches_the_library():
    from duadic.duadic import check_splitting
    from duadic.gf import field_from_order
    from duadic.groups import builtin_mu_swap, group_abelian

    for p in (3, 5):
        group = group_abelian([p, p])
        for q in (2, 4, 7, 8, 11):
            if math.gcd(p, q) == 1:
                ok = check_splitting(builtin_mu_swap(group, q), field_from_order(q), group).ok
                assert ok == pools.swap_splits(p, q), (p, q)


def test_spec_lists_every_per_layer_metric():
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [(m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER.values())


# ---------------------------------------------------------------------------
# checker
# ---------------------------------------------------------------------------


def _construct_summary(d_e=(3, True), d_f=(3, True), d=(3, True), exit_code=0):
    return {
        "exit": exit_code,
        "existence": {"class_criterion": True, "ord_criterion": True, "agree": True},
        "pairs": 1,
        "dims": {"c_e": 3, "c_f": 3, "d_e": 4, "d_f": 4},
        "duality": {"case": "i", "verified": True, "equalities": []},
        "nk": [7, 1],
        "distances": {"odd_like_d_e": list(d_e), "odd_like_d_f": list(d_f), "quantum_d": list(d)},
        "degeneracy": [["C", True, []], ["D-perp", True, []]],
    }


ARGV7 = ("construct", "--group", "7", "--q", "2", "--mu", "mu-1", "--json")


class TestCompare:
    def test_identical_passes(self):
        assert check.compare(ARGV7, _construct_summary(), _construct_summary()) == []

    def test_exit_code_differs(self):
        assert check.compare(ARGV7, _construct_summary(), {"exit": 1})

    def test_exact_values_differ(self):
        assert check.compare(ARGV7, _construct_summary(), _construct_summary(d=(4, True)))

    def test_exactness_may_change(self):
        ref = _construct_summary(d=(3, False))
        assert check.compare(ARGV7, ref, _construct_summary(d=(3, True))) == []
        assert check.compare(ARGV7, _construct_summary(), _construct_summary(d=(3, False))) == []

    def test_exact_below_reference_bound(self):
        ref = _construct_summary(d=(3, False))
        assert check.compare(ARGV7, ref, _construct_summary(d=(2, True)))

    def test_bound_above_reference_exact(self):
        assert check.compare(ARGV7, _construct_summary(), _construct_summary(d=(4, False)))

    def test_exact_odd_like_distance_below_the_odd_like_bound(self):
        low = _construct_summary(d_e=(2, True))
        assert any("odd-like bound" in p for p in check.compare(ARGV7, low, low))

    def test_dimension_differs(self):
        got = _construct_summary()
        got["dims"] = dict(got["dims"], c_e=2)
        assert check.compare(ARGV7, _construct_summary(), got)

    def test_missing_scan_cell(self):
        argv = ("scan", "--family", "cyclic", "--n", "7")
        cell = {"class_criterion": True, "ord_criterion": True, "agree": True}
        ref = {"exit": 0, "cells": {"7|2|mu-1": cell, "7|3|mu-1": cell}}
        got = {"exit": 0, "cells": {"7|2|mu-1": cell}}
        assert check.compare(argv, ref, got) == ["scan cell 7|3|mu-1 missing"]

    def test_odd_like_bounds(self):
        assert check.odd_like_bound(7, "mu-1") == 3
        assert check.odd_like_bound(81, "swap") == 9
        assert check.odd_like_bound(23, "mu-1") == 6


def test_tail_percentile():
    latencies = [float(i) for i in range(1, 101)]
    value, pct, beyond = run.tail(latencies)
    assert (pct, beyond) == (90.0, 10)
    # the Harrell-Davis weights of 1..100 centre on 0.9 x 100 + 0.5
    assert value == pytest.approx(90.5, abs=0.01)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_harrell_davis_quantile():
    assert run.quantile([5.0] * 7, 0.5) == pytest.approx(5.0)
    # symmetric samples: the median estimate is the middle value
    assert run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    # one sample moving far off changes the median estimate only a little
    base = [float(i) for i in range(1, 30)]
    moved = base[:-1] + [1000.0]
    assert run.quantile(moved, 0.5) - run.quantile(base, 0.5) < 0.01
