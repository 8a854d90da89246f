"""Per-layer metrics of a traced pass.

The layers are the package's modules.  `span_summary` turns the spans of a
traced pass into every per-layer metric that the spans alone determine;
`run.py` adds the ones that also need the checked outputs or the untraced
pass (`codes.enum.passes_per_pair`, `trace.overhead_share`, `exact_share`,
`fail_share`).  No layer has a queue or a second thread, so no waiting time
exists to record.  Metric names of the `_linalg` module drop its leading
underscore, since a benchmark metric name starts with a letter or digit.
"""

from __future__ import annotations

from tracer import SpanStats

VECTOR_OPS = tuple(
    f"gf.FiniteField.{m}" for m in ("vadd", "vneg", "vsub", "vmul", "vinv", "vfrobenius", "vsum")
)
ENUMERATIONS = ("codes.coset_min_weight", "codes.weight_distribution")
GROUP_BUILDS = (
    "groups.Group.__init__",
    "groups.cyclic_group",
    "groups.group_abelian",
    "groups.group_from_cayley",
    "groups.group_product",
    "groups.parse_cayley_text",
    "groups.read_cayley_file",
)
CLI_PARSE = (
    "cli.build_parser",
    "cli.parse_group_spec",
    "cli.parse_mu_spec",
    "cli._parse_int_list",
    "cli._parse_range",
)

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "codes.enum.words": ("count", "lower"),
    "codes.enum.total_s": ("s", "lower"),
    "codes.enum.words_per_s": ("1/s", "higher"),
    "codes.enum.passes_per_pair": ("ratio", "lower"),
    "codes.odd_like_min_weight.total_s": ("s", "lower"),
    "codes.weight_distribution.total_s": ("s", "lower"),
    "quantum.css_distance.total_s": ("s", "lower"),
    "quantum.degeneracy_report.total_s": ("s", "lower"),
    "gf.vector_ops.calls": ("count", "lower"),
    "gf.vector_ops.elements": ("count", "lower"),
    "gf.vector_ops.self_s": ("s", "lower"),
    "linalg.rref.calls": ("count", "lower"),
    "linalg.rref.entries": ("count", "lower"),
    "linalg.rref.self_s": ("s", "lower"),
    "linalg.right_kernel.total_s": ("s", "lower"),
    "codes.linear_code.builds": ("count", "lower"),
    "codes.dual.calls": ("count", "lower"),
    "codes.dual.total_s": ("s", "lower"),
    "algebra.alg_mul.calls": ("count", "lower"),
    "algebra.alg_mul.self_s": ("s", "lower"),
    "algebra.idempotents.total_s": ("s", "lower"),
    "algebra.idempotents.count": ("count", "lower"),
    "gf.poly_factor.calls": ("count", "lower"),
    "gf.poly_factor.total_s": ("s", "lower"),
    "linalg.solve_in_span.calls": ("count", "lower"),
    "linalg.solve_in_span.self_s": ("s", "lower"),
    "duadic.check_splitting.total_s": ("s", "lower"),
    "groups.build.total_s": ("s", "lower"),
    "groups.fq_classes.calls": ("count", "lower"),
    "groups.fq_classes.total_s": ("s", "lower"),
    "duadic.pair_axioms.calls": ("count", "lower"),
    "duadic.pair_axioms.total_s": ("s", "lower"),
    "duadic.construct_pairs.total_s": ("s", "lower"),
    "duadic.duadic_codes.total_s": ("s", "lower"),
    "duadic.classify_duality.total_s": ("s", "lower"),
    "duadic.product_duadic.total_s": ("s", "lower"),
    "quantum.css_build.total_s": ("s", "lower"),
    "quantum.bound_fallbacks": ("count", "lower"),
    "cli.parse.total_s": ("s", "lower"),
    "cli.emit_json.total_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "exact_share": ("ratio", "higher"),
    "fail_share": ("ratio", "lower"),
}


def span_summary(tracer) -> dict:
    """Per-layer metrics from the spans, plus enumerated words per request."""
    s = SpanStats(tracer)
    words = s.work_sum(*ENUMERATIONS)
    enum_s = s.total_s(*ENUMERATIONS)
    metrics = {
        "codes.enum.words": words,
        "codes.enum.total_s": enum_s,
        "codes.enum.words_per_s": words / enum_s if enum_s else 0.0,
        "codes.odd_like_min_weight.total_s": s.total_s("codes.odd_like_min_weight"),
        "codes.weight_distribution.total_s": s.total_s("codes.weight_distribution"),
        "quantum.css_distance.total_s": s.total_s("quantum.css_distance"),
        "quantum.degeneracy_report.total_s": s.total_s("quantum.degeneracy_report"),
        "gf.vector_ops.calls": s.calls(*VECTOR_OPS),
        "gf.vector_ops.elements": s.work_sum(*VECTOR_OPS),
        "gf.vector_ops.self_s": s.self_time(*VECTOR_OPS),
        "linalg.rref.calls": s.calls("_linalg.rref"),
        "linalg.rref.entries": s.work_sum("_linalg.rref"),
        "linalg.rref.self_s": s.self_time("_linalg.rref"),
        "linalg.right_kernel.total_s": s.total_s("_linalg.right_kernel"),
        "codes.linear_code.builds": s.calls("codes.LinearCode.__init__"),
        "codes.dual.calls": s.calls("codes.dual"),
        "codes.dual.total_s": s.total_s("codes.dual"),
        "algebra.alg_mul.calls": s.calls("algebra.alg_mul"),
        "algebra.alg_mul.self_s": s.self_time("algebra.alg_mul"),
        "algebra.idempotents.total_s": s.total_s("algebra.split_primitive_central_idempotents"),
        "algebra.idempotents.count": s.work_sum("algebra.split_primitive_central_idempotents"),
        "gf.poly_factor.calls": s.calls("gf.poly_factor"),
        "gf.poly_factor.total_s": s.total_s("gf.poly_factor"),
        "linalg.solve_in_span.calls": s.calls("_linalg.solve_in_span"),
        "linalg.solve_in_span.self_s": s.self_time("_linalg.solve_in_span"),
        "duadic.check_splitting.total_s": s.total_s("duadic.check_splitting"),
        "groups.build.total_s": s.total_s(*GROUP_BUILDS),
        "groups.fq_classes.calls": s.calls("groups.fq_classes"),
        "groups.fq_classes.total_s": s.total_s("groups.fq_classes"),
        "duadic.pair_axioms.calls": s.calls("duadic.DuadicPair.__init__"),
        "duadic.pair_axioms.total_s": s.total_s("duadic.DuadicPair.__init__"),
        "duadic.construct_pairs.total_s": s.total_s("duadic.construct_pairs"),
        "duadic.duadic_codes.total_s": s.total_s("duadic.duadic_codes"),
        "duadic.classify_duality.total_s": s.total_s("duadic.classify_duality"),
        "duadic.product_duadic.total_s": s.total_s("duadic.product_duadic"),
        "quantum.css_build.total_s": s.total_s("quantum.css_build"),
        "quantum.bound_fallbacks": s.work_sum("quantum.css_distance"),
        "cli.parse.total_s": s.total_s(*CLI_PARSE),
        "cli.emit_json.total_s": s.total_s("cli.emit_json"),
        "cli.self_s": s.self_time(prefix="cli."),
    }
    return {
        "metrics": metrics,
        "enum_words_by_request": s.work_by_request(*ENUMERATIONS),
        "span_count": len(s.name),
    }
