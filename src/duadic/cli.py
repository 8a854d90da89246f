"""Command-line frontend: existence scans, code construction, and verification
suites, with a deterministic JSON report format.

Exit codes: 0 ok, 1 usage error, 2 no splitting, 3 verification failure, 130 interrupted,
141 stdout closed.

One writer produces the `--json` text: `_write_json` gives the bytes of
json.dumps(..., indent=2) for report values (dicts with str keys, lists,
str, int, bool and None), and `_PairRows.chunks` writes each pair list in
its place.  `tests/test_cli.py::TestJsonWriter` (its corner cases) and
`tests/test_cli_properties.py::test_emit_json_matches_the_indenting_encoder`
(drawn reports) pin it byte for byte to json.dumps.  `--help` shows the
paragraphs above this one.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields as dataclass_fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import _linalg
from .algebra import AlgebraElement, _terms_text
from .codes import DEFAULT_ENUM_CAP
from .duadic import (
    DuadicCodes,
    DuadicPair,
    _class_criterion,
    construct_pairs,
    duality_case,
    product_duadic,
    splitting_exists_mu_minus1,
)
from .errors import (
    CayleyFormatError,
    EnumerationCapError,
    NoSplittingError,
    VerificationError,
)
from .gf import FiniteField, field_from_order
from .groups import (
    Antiautomorphism,
    Group,
    builtin_mu_minus1,
    builtin_mu_swap,
    check_order_cap,
    cyclic_group,
    group_abelian,
    group_product,
    parse_permutation_text,
    product_antiauto,
    read_cayley_file,
)
from .quantum import CssCode, DistanceRecord, PairAnalysis, analyze_pair

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_SPLITTING = 2
EXIT_VERIFY_FAILED = 3
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as 130 is 128 + SIGINT


# ---------------------------------------------------------------------------
# report type
# ---------------------------------------------------------------------------


class _PairRows:
    """The pairs of a constructed report as their (P, n) e and f stacks over
    the group's labels.  The JSON text is rendered from the stacks
    (`chunks`); the [label, coefficient] lists of each pair are built only
    where the rows are iterated, by the text report."""

    def __init__(self, labels: tuple[str, ...], es: np.ndarray, fs: np.ndarray):
        self.labels, self.es, self.fs = labels, es, fs

    def __len__(self) -> int:
        return len(self.es)

    def __iter__(self):
        for e, f in zip(self.es, self.fs):
            yield {"e": self._terms(e), "f": self._terms(f)}

    def _terms(self, vec: np.ndarray) -> list:
        support = np.flatnonzero(vec)
        return [[self.labels[g], c] for g, c in zip(support.tolist(), vec[support].tolist())]

    def chunks(self, pad: str):
        """json.dumps(list(self), indent=2) at indentation pad, one chunk per
        pair (a report has at least one).  The terms of a row are its nonzero
        columns, keyed by (column, coefficient): the text of each key that
        occurs is made once, and each row joins the texts of its keys."""
        p1, p2, p3, p4 = (pad + "  " * i for i in range(1, 5))
        rows = np.stack((self.es, self.fs), axis=1).reshape(2 * len(self), -1)
        at = np.flatnonzero(rows)
        base = int(rows.max()) + 1
        keys, key_of = np.unique(at % rows.shape[1] * base + rows.reshape(-1)[at], return_inverse=True)
        texts = [
            f"[\n{p4}{encode_basestring_ascii(self.labels[k // base])},\n{p4}{k % base}\n{p3}]"
            for k in keys.tolist()
        ]
        ends = np.cumsum(np.count_nonzero(rows, axis=1)).tolist()
        sep = ",\n" + p3

        def side(i: int) -> str:
            start, end = ends[i - 1] if i else 0, ends[i]
            if start == end:
                return "[]"
            return f"[\n{p3}{sep.join(map(texts.__getitem__, key_of[start:end].tolist()))}\n{p2}]"

        for i in range(len(self)):
            yield f'{"," if i else "["}\n{p1}{{\n{p2}"e": {side(2 * i)},\n{p2}"f": {side(2 * i + 1)}\n{p1}}}'
        yield f"\n{pad}]"


@dataclass
class CodeReport:
    """One (group, q, mu) cell: existence verdicts and, when constructed,
    idempotents, dimensions, tagged distances, quantum parameters, and the
    degeneracy summary.  timing_ms is emitted as null in JSON so reports are
    byte-identical across runs.  A constructed report keeps its pairs as
    `_PairRows`; one read from JSON holds them as lists."""

    group: str
    q: int
    mu: str
    existence: dict | None = None
    pairs: list | _PairRows | None = None
    dims: dict | None = None
    duality: dict | None = None
    distances: list | None = None
    quantum: dict | None = None
    degeneracy: dict | None = None
    timing_ms: float | None = None

    def _json_fields(self) -> dict:
        # shallow: the fields hold plain JSON values, which asdict would deep-copy
        d = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        d["timing_ms"] = None
        return d


def _json_chunks(reports: list[CodeReport]):
    """The text json.dumps(..., indent=2) + "\n" gives for the reports, each
    as its fields with timing_ms null and its pairs listed, in chunks, which
    `main` writes as they come: the whole text at once when no report holds
    a `_PairRows`, else the text before each stack, the stack's own
    `chunks` at the indentation of its line, and the text after."""
    out: list = []
    _write_json([r._json_fields() for r in reports], "", out)
    out.append("\n")
    start = 0
    for i in [i for i, piece in enumerate(out) if type(piece) is tuple]:
        rows, pad = out[i]
        yield "".join(out[start:i])
        yield from rows.chunks(pad)
        start = i + 1
    yield "".join(out[start:])


def _write_json(value, pad: str, out: list) -> None:
    """Append the text json.dumps(value, indent=2) gives, for a report value
    on a line indented by pad, to out; a `_PairRows` is appended as (rows,
    pad).  A report value is a dict with str keys, a list, or a scalar of
    `_JSON_SCALARS`; a dict's scalar items are written inline, with no call
    of their own."""
    if type(value) is _PairRows:
        out.append((value, pad))
    elif not isinstance(value, (dict, list)):
        out.append(_JSON_SCALARS[type(value)](value))
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            text = _JSON_SCALARS.get(type(item))
            if text is None:
                out.append(f"{sep}{encode_basestring_ascii(key)}: ")
                _write_json(item, inner, out)
            else:
                out.append(f"{sep}{encode_basestring_ascii(key)}: {text(item)}")
            sep = ",\n" + inner
        out.append(f"\n{pad}}}")
    else:
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append(f"\n{pad}]")


# json's text of each scalar type of a report, by exact type
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda value: "null",
}


# ---------------------------------------------------------------------------
# spec mini-grammar
# ---------------------------------------------------------------------------


def parse_group_spec(spec: str) -> Group:
    """`7` cyclic, `3x3` abelian product, `3x3,3x3` outer product,
    `@file` Cayley table file."""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty group spec")
    if "," in spec:
        parts = spec.split(",")
        if len(parts) != 2:
            raise ValueError("outer products take exactly two factors")
        return group_product(parse_group_spec(parts[0]), parse_group_spec(parts[1]))
    if spec.startswith("@"):
        return read_cayley_file(spec[1:])
    try:
        orders = [int(tok) for tok in spec.split("x")]
    except ValueError:
        raise ValueError(f"bad group spec {spec!r}") from None
    if len(orders) == 1:
        return cyclic_group(orders[0])
    return group_abelian(orders)


def parse_mu_spec(spec: str, group: Group, q: int) -> Antiautomorphism:
    """`mu-1`, `swap`, `A*B` componentwise on the two factors of an outer
    product (split at the first `*`), `@file`."""
    spec = spec.strip()
    if "*" in spec:
        if group.factors is None:
            raise ValueError("product mu spec needs an outer-product group spec")
        left, right = spec.split("*", 1)
        g1, g2 = group.factors
        return product_antiauto(parse_mu_spec(left, g1, q), parse_mu_spec(right, g2, q), group)
    if spec == "mu-1":
        return builtin_mu_minus1(group)
    if spec == "swap":
        return builtin_mu_swap(group, q)
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return parse_permutation_text(fh.read(), group, descriptor=spec)
    raise ValueError(f"bad mu spec {spec!r}")


def _parse_int_list(text: str, option: str, form: str = "a comma list of integers") -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"{option} expects {form}, got {text!r}")
    return values


def _parse_range(text: str) -> list[int] | range:
    """`--n`: a `3-45` inclusive range (not listed, since its ends are
    unchecked) or a comma list."""
    form = "a range like 3-45 or a comma list of integers"
    if "-" not in text:
        return _parse_int_list(text, "--n", form)
    try:
        lo, hi = (int(end) for end in text.split("-", 1))
    except ValueError:
        raise ValueError(f"--n expects {form}, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"reversed range {text!r}: the lower end comes first")
    return range(lo, hi + 1)


def _odd_order(group: Group) -> Group:
    """The group itself; duadic codes have odd length, so an even order is a usage error."""
    if group.order % 2 == 0:
        raise ValueError(f"group {group.descriptor} has even order {group.order}; duadic codes need odd order")
    return group


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _existence_fields(mu: Antiautomorphism, field: FiniteField, ok: bool) -> dict:
    ord_crit = splitting_exists_mu_minus1(mu.group.order, field.q) if mu.is_inversion_for(field) else None
    agree = None if ord_crit is None else ord_crit == ok
    return {"class_criterion": ok, "ord_criterion": ord_crit, "agree": agree}


def _analysis_fields(analysis: PairAnalysis) -> dict:
    distance, k = analysis.distance, analysis.pair.group.order // 2
    # the pair's identities give the dims and the case; the matrices check them where the codes are built
    return {
        "dims": {"c_e": k, "c_f": k, "d_e": k + 1, "d_f": k + 1},
        "duality": {
            "case": analysis.case,
            "verified": True,
            "equalities": [[name, True] for name in analysis.equalities],
        },
        "distances": [
            {"name": f"odd_like_d_{side}", **asdict(record)}
            for side, record in zip("ef", analysis.odd_like)
        ],
        "quantum": {
            "n": 2 * k + 1,
            "k": 1,  # dim D_e - dim C_e
            "d": distance.value,
            "exact": distance.exact,
            "provenance": distance.provenance,
            "params": analysis.params(),
        },
        "degeneracy": {
            "degenerate": analysis.degenerate,
            "sides": [
                {"side": s.side, "exact": s.exact, "counts": [[w, c] for w, c in s.counts]}
                for s in analysis.sides
            ],
        },
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_scan(args) -> list[CodeReport]:
    qs = _parse_int_list(args.q, "--q")
    reports = []
    if args.family == "pxp":
        ps = _parse_int_list(args.p, "--p")
        groups = [(f"{p}x{p}", _odd_order(group_abelian([p, p]))) for p in ps]
    else:  # cyclic, the other choice of --family
        ns = []
        for n in _parse_range(args.n):  # a long range stops at its first odd order over the cap
            if n % 2 == 1:
                check_order_cap(n)
                ns.append(n)
        if not ns:
            raise ValueError(f"--n {args.n!r} holds no odd order; duadic codes need odd order")
        # built one per step: a group is dropped once its cells are done
        groups = ((str(n), cyclic_group(n)) for n in ns)
    fields = [field_from_order(q) for q in qs]
    per_q = args.mu.strip() == "swap"  # the one spec that reads q; others are parsed once per group
    for label, group in groups:
        start, cells, mu = time.perf_counter(), [], None
        for q, field in zip(qs, fields):
            if math.gcd(group.order, q) == 1:
                if mu is None or per_q:
                    mu = parse_mu_spec(args.mu, group, q)
                cells.append((mu, field))
        if not cells:
            continue
        oks = _class_criterion(group, cells)[0].tolist()  # one pass for the group's cells
        share = (time.perf_counter() - start) * 1e3 / len(cells)
        for (mu, field), ok in zip(cells, oks):
            existence = _existence_fields(mu, field, ok)
            reports.append(CodeReport(group=label, q=field.q, mu=mu.descriptor, existence=existence, timing_ms=share))
    if not reports:
        raise ValueError("every group order shares a factor with every --q; no cell has gcd(|G|, q) = 1")
    return reports


def cmd_construct(args) -> list[CodeReport]:
    q = args.q
    field = field_from_order(q)
    cap = args.max_enum
    if cap < 1:
        raise ValueError(f"--max-enum must be at least 1, got {cap}")
    start = time.perf_counter()
    if args.product:
        if "," not in args.group:
            raise ValueError("--product needs an outer-product group spec (G1,G2)")
        if args.enumerate_all:
            raise ValueError("--enumerate-all does not combine with --product, which builds one canonical pair")
        # G1,G2 split at the first comma; A*B at the first star, else one map on both
        g1, g2 = (_odd_order(parse_group_spec(spec)) for spec in args.group.split(",", 1))
        mu_left, mu_right = args.mu.split("*", 1) if "*" in args.mu else (args.mu, args.mu)
        mu1, mu2 = parse_mu_spec(mu_left, g1, q), parse_mu_spec(mu_right, g2, q)
        pair = product_duadic(construct_pairs(mu1, field, g1)[0], construct_pairs(mu2, field, g2)[0])
        es, fs = pair.e.vec[None], pair.f.vec[None]
    else:
        group = _odd_order(parse_group_spec(args.group))
        mu = parse_mu_spec(args.mu, group, q)
        pairs = construct_pairs(mu, field, group, "enumerate-all" if args.enumerate_all else "canonical")
        pair, es, fs = pairs[0], pairs.es, pairs.fs
    analysis = analyze_pair(pair, cap)
    report = CodeReport(
        group=args.group,
        q=q,
        mu=args.mu,
        existence=_existence_fields(pair.mu, field, True),
        pairs=_PairRows(pair.group.labels, es, fs),
        **_analysis_fields(analysis),
        timing_ms=(time.perf_counter() - start) * 1e3,
    )
    if args.emit_matrices:
        _emit_matrices(Path(args.emit_matrices), analysis.codes, analysis.css)
    return [report]


def _emit_matrices(directory: Path, codes: DuadicCodes, css: CssCode) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    named = {
        "c_e.mat": codes.c_e.gen,
        "c_f.mat": codes.c_f.gen,
        "d_e.mat": codes.d_e.gen,
        "d_f.mat": codes.d_f.gen,
        "x_stabilizers.mat": css.x_stabilizers,
        "z_stabilizers.mat": css.z_stabilizers,
    }
    field = css.field
    for name, mat in named.items():
        mat = _linalg.rref(field, mat)[0]  # derived codes are systematic; the files hold the canonical form
        lines = [f"# {mat.shape[0]} x {mat.shape[1]} over GF({field.q})"]
        for row in mat:
            lines.append(" ".join(str(int(x)) for x in row))
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

_EXISTENCE_Q = (2, 3, 4, 5, 7, 9)


def _suite_existence(log) -> bool:
    ok = True
    for n in range(3, 46, 2):
        for q in _EXISTENCE_Q:
            if math.gcd(n, q) != 1:
                continue
            field = field_from_order(q)
            group = cyclic_group(n)
            mu = builtin_mu_minus1(group)
            by_ord = splitting_exists_mu_minus1(n, q)
            try:
                built = bool(construct_pairs(mu, field, group))
            except NoSplittingError:
                built = False
            good = built == by_ord
            ok &= good
            if not good:
                log(f"FAIL existence n={n} q={q}: construction {built}, ord test {by_ord}")
    log(f"{'PASS' if ok else 'FAIL'} existence: cyclic n in [3,45], q in {list(_EXISTENCE_Q)}")
    return ok


def _key_prop_cells():
    for n in range(3, 32, 2):
        for q in _EXISTENCE_Q:
            if math.gcd(n, q) == 1:
                yield cyclic_group(n), q, "mu-1"
    for p in (3, 5):
        for q in _EXISTENCE_Q:
            if math.gcd(p, q) == 1:
                yield group_abelian([p, p]), q, "mu-1"
                yield group_abelian([p, p]), q, "swap"


def _suite_key_prop(log) -> bool:
    from .duadic import verify_key_proposition

    ok = True
    for group, q, mu_name in _key_prop_cells():
        classes, idems = verify_key_proposition(parse_mu_spec(mu_name, group, q), field_from_order(q), group)
        if classes != idems:
            ok = False
            log(f"FAIL key-prop {group.descriptor} q={q} mu={mu_name}: {classes} != {idems}")
    log(f"{'PASS' if ok else 'FAIL'} key-prop: fixed-class count = fixed-idempotent count")
    return ok


def _suite_structure(log) -> bool:
    """Every cell splits; a failed duality or dimension check raises.  Each
    cell builds its codes, enumerated or not, through `duadic_codes`, which
    checks the dual identities of the case the pair gives."""
    ok = True
    for n, q in [(7, 2), (7, 4), (11, 3), (13, 3), (19, 4), (23, 2), (31, 2)]:
        group = cyclic_group(n)
        pair = construct_pairs(builtin_mu_minus1(group), field_from_order(q), group)[0]
        analysis = analyze_pair(pair, cap=1 << 16)
        analysis.codes  # builds the codes; a failed identity raises
        d_e = analysis.odd_like[0]
        good = not d_e.exact or d_e.value >= analysis.bound[1]
        ok &= good
        if not good:
            log(f"FAIL structure n={n} q={q}")
    z33 = group_abelian([3, 3])
    pair9 = construct_pairs(builtin_mu_swap(z33, 2), field_from_order(2), z33)[0]
    analysis = analyze_pair(pair9)
    analysis.codes  # as above
    ok &= analysis.case == "ii"
    log(f"{'PASS' if ok else 'FAIL'} structure: dims, inclusions, duality, bounds")
    return ok


def _suite_paper81(log) -> bool:
    ok = True
    f2 = field_from_order(2)
    z33 = group_abelian([3, 3])
    mu = builtin_mu_swap(z33, 2)
    e1 = AlgebraElement.from_coeff_list(
        f2, z33, [(z33.element_id(t), 1) for t in [(1, 0), (2, 0), (1, 1), (2, 2)]]
    )
    f1 = AlgebraElement.from_coeff_list(
        f2, z33, [(z33.element_id(t), 1) for t in [(0, 1), (0, 2), (1, 2), (2, 1)]]
    )
    try:
        pair1 = DuadicPair(f2, z33, e1, f1, mu)
    except VerificationError as exc:
        log(f"FAIL paper-81: component pair invalid: {exc}")
        return False
    ok &= duality_case(pair1)[0] == "ii"
    product = product_duadic(pair1, pair1)
    analysis = analyze_pair(product)
    ok &= (analysis.codes.c_e.k, analysis.codes.d_e.k) == (40, 41)
    ok &= any(w.weight() == 4 for w in product.witnesses)
    ok &= analysis.bound == ("square", 9)
    ok &= analysis.css.params() == "[[81,1,>=9]]_2" and not analysis.css.distance.exact
    ok &= analysis.degenerate
    log(f"{'PASS' if ok else 'FAIL'} paper-81: product pair, dims 40/41, weight-4 witness, [[81,1,>=9]]_2")
    return ok


_SUITES = {
    "existence": _suite_existence,
    "key-prop": _suite_key_prop,
    "structure": _suite_structure,
    "paper-81": _suite_paper81,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        ok &= _SUITES[name](print)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _print_scan_table(reports: list[CodeReport]) -> None:
    header = f"{'group':>10} {'q':>3} {'mu':>10} {'class':>6} {'ord':>5} {'agree':>6} {'ms':>8}"
    print(header)
    for r in reports:
        ex = r.existence
        fmt = lambda v: "-" if v is None else ("yes" if v else "no")
        ms = f"{r.timing_ms:.1f}"
        print(
            f"{r.group:>10} {r.q:>3} {r.mu:>10} {fmt(ex['class_criterion']):>6} "
            f"{fmt(ex['ord_criterion']):>5} {fmt(ex['agree']):>6} {ms:>8}"
        )


def _print_construct_report(r: CodeReport) -> None:
    print(f"group {r.group}  q={r.q}  mu={r.mu}")
    ex = r.existence
    print(
        f"existence: class-criterion={ex['class_criterion']} "
        f"ord-criterion={ex['ord_criterion']} agree={ex['agree']}"
    )
    for i, pd in enumerate(r.pairs):
        print(f"pair {i}: e = {_terms_text(pd['e'])}")
        print(f"         f = {_terms_text(pd['f'])}")
    print(
        f"dims: C_e={r.dims['c_e']} C_f={r.dims['c_f']} "
        f"D_e={r.dims['d_e']} D_f={r.dims['d_f']}"
    )
    print(f"duality: case {r.duality['case']} verified={r.duality['verified']}")
    for row in r.distances:
        print(f"{row['name']}: {DistanceRecord(row['value'], row['exact'], row['provenance'])}")
    record = DistanceRecord(r.quantum["d"], r.quantum["exact"], r.quantum["provenance"])
    print(f"quantum: {r.quantum['params']} d={record}")
    print(f"degenerate: {r.degeneracy['degenerate']}")
    for side in r.degeneracy["sides"]:
        if side["counts"]:
            pretty = ", ".join(f"weight {w}: {c}" for w, c in side["counts"])
            kind = "exactly" if side["exact"] else "at least"
            print(f"  {side['side']}: {kind} {pretty}")
    print(f"time: {r.timing_ms:.1f} ms")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# Each command's help line and its options, as the (name, keywords) of one
# `add_argument` call each: `build_parser` declares them to argparse, and
# `_read_plain` reads the argv that names them exactly.
_COMMANDS = {
    "scan": ("existence sweep over a family", (
        ("--family", {"choices": ["cyclic", "pxp"], "default": "cyclic"}),
        ("--n", {"default": "3-45", "help": "cyclic orders, range `3-45` or list"}),
        ("--p", {"default": "3,5", "help": "primes for the pxp family"}),
        ("--q", {"default": "2,3,4,5,7,9", "help": "comma list of field orders"}),
        ("--mu", {"default": "mu-1", "help": "mu spec: mu-1 | swap"}),
        ("--json", {"action": "store_true"}),
    )),
    "construct": ("build and analyze duadic codes", (
        ("--group", {"required": True, "help": "group spec: 7 | 3x3 | 3x3,3x3 | @file"}),
        ("--q", {"type": int, "required": True}),
        ("--mu", {"required": True, "help": "mu spec: mu-1 | swap | swap*swap | @file"}),
        ("--product", {"action": "store_true", "help": "product construction on G1,G2"}),
        ("--enumerate-all", {"action": "store_true"}),
        ("--emit-matrices", {"metavar": "DIR"}),
        ("--max-enum", {"type": int, "default": DEFAULT_ENUM_CAP}),
        ("--json", {"action": "store_true"}),
    )),
    "verify": ("run a verification suite", (
        ("suite", {"choices": sorted(_SUITES) + ["all"]}),
    )),
}


class _UsageError(Exception):
    pass


def build_parser():
    """The argparse parser of `_COMMANDS`, for the argv that `_read_plain` hands over."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    parser = Parser(prog="duadic", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, options) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_line)
        for name, keywords in options:
            command_parser.add_argument(name, **keywords)
    return parser


def _read_plain(argv) -> SimpleNamespace | None:
    """The namespace argparse gives for an argv `COMMAND (--name VALUE |
    --flag)*` of exact option names and values that do not start with `-`,
    or None for any other argv, which argparse reads with its own messages.
    Each value takes its option's type and is checked against its choices,
    the last of a repeated option counts, and the options not given take
    their defaults or, when required, hand the argv over."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = dict(_COMMANDS[argv[0]][1])
    values = {"command": argv[0]}
    tokens = iter(argv[1:])
    for name in tokens:
        keywords = options.get(name) if name.startswith("--") else None
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            value = True
        else:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            try:
                value = keywords.get("type", str)(value)
            except ValueError:
                return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        values[name[2:].replace("-", "_")] = value
    for name, keywords in options.items():
        dest = name.lstrip("-").replace("-", "_")
        if dest in values:
            continue
        if keywords.get("required", not name.startswith("-")):  # a positional is required
            return None
        values[dest] = keywords.get("default", False if keywords.get("action") == "store_true" else None)
    return SimpleNamespace(**values)


_PARSER = None  # `build_parser()`, once per process, at the first argv that needs it


def main(argv=None) -> int:
    global _PARSER
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:
        if _PARSER is None:  # parse_args keeps no state between calls
            _PARSER = build_parser()
        try:
            args = _PARSER.parse_args(argv)
        except _UsageError as exc:
            print(f"duadic: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
    try:
        if args.command == "verify":
            code = cmd_verify(args)
        else:
            reports = cmd_scan(args) if args.command == "scan" else cmd_construct(args)
            if args.json:
                for chunk in _json_chunks(reports):
                    sys.stdout.write(chunk)
            elif args.command == "scan":
                _print_scan_table(reports)
            else:
                for r in reports:
                    _print_construct_report(r)
            code = EXIT_OK
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: what stdout still buffers is flushed
        # to the null device at exit, so nothing more is written or raised
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except NoSplittingError as exc:
        print(f"duadic: {exc}", file=sys.stderr)
        return EXIT_NO_SPLITTING
    except VerificationError as exc:
        print(f"duadic: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ValueError, CayleyFormatError, EnumerationCapError, OSError) as exc:
        print(f"duadic: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("duadic: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
