"""Property tests of the CLI's input handling: any group or mu spec, `--n`
and `--q` text, Cayley file or permutation file exits with a code in 0..2
and at most one line on stderr, and no exception escapes `main`; exit 3,
the program's own verification failure, is never right for them.  The
examples are derandomized, so every run tries the same inputs; the
regression tests at the end pin the defects these inputs found (the trivial
`--product` factor is pinned in `test_cli.py`)."""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from duadic.cli import EXIT_NO_SPLITTING, EXIT_USAGE, CodeReport, _PairRows, emit_json, main
from duadic.groups import cyclic_group, group_abelian, group_from_cayley

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Most draws are well-formed, so that exits 0 and 2 are reached as well as
# exit 1; small odd orders keep the constructions fast, and the large numbers
# probe the caps and int().
ODD = st.sampled_from([1, 3, 5, 7, 9, 11, 15, 21]).map(str)
NUMBERS = st.one_of(
    st.integers(-2, 11),
    st.sampled_from([513, 65521, 1 << 17, 2**61 - 1, 10**20]),
).map(str)
JUNK = st.text(alphabet="0123456789x,@-* \t\nab#", max_size=8)
FIELDS = st.sampled_from(["2", "3", "4", "5", "7", "8", "9", "25"])
Q = st.one_of(FIELDS, FIELDS, FIELDS, NUMBERS, JUNK)
ORDERS = st.lists(st.one_of(ODD, ODD, NUMBERS), min_size=1, max_size=2).map("x".join)
GROUP_SPECS = st.one_of(
    ODD,
    ORDERS,
    ORDERS,
    st.tuples(ODD, ODD).map(",".join),
    st.tuples(ORDERS, ORDERS).map(",".join),
    st.sampled_from(["@", "@missing.cayley", ""]),
    JUNK,
)
MU_SPECS = st.one_of(
    st.sampled_from(["mu-1", "swap", "swap*swap", "mu-1*swap", "swap*mu-1"]),
    st.sampled_from(["mu-1", "*", "mu-1*", "@", "@missing.perm", ""]),
    JUNK,
)
# lists that hold no integer at all
EMPTY_LISTS = st.sampled_from(["", ",", ",,", " , "])
Q_LISTS = st.one_of(st.lists(Q, min_size=1, max_size=3).map(",".join), JUNK, EMPTY_LISTS)
N_SPECS = st.one_of(
    st.tuples(ODD, ODD).map("-".join),
    st.tuples(NUMBERS, NUMBERS).map("-".join),
    st.lists(st.one_of(ODD, NUMBERS), min_size=1, max_size=3).map(",".join),
    JUNK,
    EMPTY_LISTS,
)


def run_io(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run(argv: list[str]) -> tuple[int, str]:
    code, _, err = run_io(argv)
    return code, err


def assert_clean(argv: list[str]) -> None:
    code, out, err = run_io(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert err.count("\n") <= 1 and err.endswith("\n") == bool(err), (argv, err)
    assert bool(err) == (code != 0), (argv, code, err)
    if code == 0 and argv[0] == "scan" and "--json" in argv:
        assert json.loads(out), (argv, out)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-properties")


class TestSpecGrammar:
    @SETTINGS
    @given(group=GROUP_SPECS, q=Q, mu=MU_SPECS, product=st.booleans())
    @example(group="1,7", q="2", mu="mu-1", product=True)
    @example(group="7,1", q="2", mu="mu-1", product=True)
    @example(group="3x3,3", q="2", mu="swap*mu-1", product=True)
    def test_construct(self, group, q, mu, product):
        argv = ["construct", "--group", group, "--q", q, "--mu", mu, "--max-enum", "4096"]
        assert_clean(argv + ["--product"] * product)

    @SETTINGS
    @given(n=N_SPECS, q=Q_LISTS, mu=MU_SPECS)
    @example(n="3-100000000000000", q="2", mu="mu-1")
    @example(n="3-9", q=str(2**61 - 1), mu="mu-1")
    def test_scan_cyclic(self, n, q, mu):
        assert_clean(["scan", "--n", n, "--q", q, "--mu", mu, "--json"])

    @SETTINGS
    @given(p=Q_LISTS, q=Q_LISTS, mu=MU_SPECS)
    def test_scan_pxp(self, p, q, mu):
        assert_clean(["scan", "--family", "pxp", "--p", p, "--q", q, "--mu", mu, "--json"])


# JSON values as the reports hold them, and what they never hold: strings with
# quotes, backslashes, control and non-ASCII characters, ints beyond int64,
# floats (nan and infinities included), tuples, and dicts with int keys
STRINGS = st.one_of(
    st.text(max_size=6),
    st.text(alphabet='"\\\n\t\x00\x1f\x7f/e\u00e9\u2028\U0001f600', max_size=6),
)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**63 - 2, 2**70), st.integers(-(2**70), -(2**63)),
    st.floats(), STRINGS,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(STRINGS, inner, max_size=4),
        st.dictionaries(st.integers(-3, 3), inner, max_size=2),
    ),
    max_leaves=24,
)


# lists of scalar lists, as e and f are written: mostly rows of str, int,
# bool and None, with one-item rows, empty rows, tuples and the odd float
ROW_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(2**63 - 2, 2**70), STRINGS)
SCALAR_ROWS = st.lists(
    st.one_of(
        st.lists(ROW_SCALARS, min_size=1, max_size=3),
        st.lists(ROW_SCALARS, min_size=1, max_size=1),
        st.lists(ROW_SCALARS, min_size=1, max_size=2).map(tuple),
        st.lists(st.one_of(ROW_SCALARS, st.floats()), min_size=1, max_size=2),
        st.just([]),
    ),
    max_size=4,
)


@SETTINGS
@given(
    value=JSON_VALUES,
    pairs=st.lists(JSON_VALUES, max_size=3),
    dims=st.dictionaries(STRINGS, JSON_VALUES, max_size=3),
    rows=st.lists(SCALAR_ROWS, max_size=3),
)
@example(value=[], pairs=[[["a^0", 1], ["a^3", True]]], dims={}, rows=[])
@example(value={}, pairs=[[]], dims={"": {"": []}}, rows=[])
@example(value=None, pairs=[], dims={}, rows=[[["e"], [None, False, -7, "x"]], [["a", 1], []], [["a", 1.5]], [[2]]])
@example(value="\0pairs", pairs=[], dims={"pairs": "\0pairs"}, rows=[])  # the mark of a pair stack, as a report string
def test_emit_json_matches_the_indenting_encoder(value, pairs, dims, rows):
    report = CodeReport("7", 2, "mu-1", existence=value, pairs=pairs, dims=dims, distances=rows, timing_ms=1.5)
    assert emit_json([report]) == json.dumps([report.to_dict()], indent=2) + "\n"
    assert emit_json([report, report]) == json.dumps([report.to_dict()] * 2, indent=2) + "\n"


TOKENS = st.sampled_from(["-1", "x", "1.5", "10" * 10, "#"])


# the labels of a cyclic group (a^i), of an abelian product (a^i*b^j) and
# of a Cayley table (its ids)
PAIR_LABELS = st.sampled_from(
    [cyclic_group(7).labels, group_abelian([3, 5]).labels, tuple(str(g) for g in range(15))]
)


@st.composite
def pair_stacks(draw):
    """(labels, es, fs): P = 1..5 pairs whose rows come from a pool of at
    most three vectors, so that rows repeat and share their terms, over a
    field of order 2, 4, 9 or 2^16 (multi-digit coefficients); zero rows too."""
    labels = draw(PAIR_LABELS)
    q = draw(st.sampled_from([2, 4, 9, 65536]))
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    vector = st.one_of(st.lists(entry, min_size=len(labels), max_size=len(labels)), st.just([0] * len(labels)))
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    count = draw(st.integers(1, 5))
    rows = draw(st.lists(st.sampled_from(pool), min_size=2 * count, max_size=2 * count))
    stack = np.array(rows, dtype=np.int64).reshape(count, 2, len(labels))
    return labels, stack[:, 0], stack[:, 1]


@SETTINGS
@given(stacks=pair_stacks())
def test_pair_stacks_emit_their_list_form(stacks):
    labels, es, fs = stacks

    def terms(vec):
        return [[labels[g], int(c)] for g, c in enumerate(vec) if c]

    listed = [{"e": terms(e), "f": terms(f)} for e, f in zip(es, fs)]
    report = CodeReport("7", 2, "mu-1", pairs=_PairRows(labels, es, fs), dims={"c_e": 3}, timing_ms=1.5)
    assert report.to_dict()["pairs"] == listed
    deep = dict(report.to_dict(), pairs=listed)
    assert emit_json([report]) == json.dumps([deep], indent=2) + "\n"
    assert emit_json([report, report]) == json.dumps([deep] * 2, indent=2) + "\n"


@st.composite
def cayley_texts(draw) -> bytes:
    """The table of Z_n, n in {1, 3, 4, 5}, as written or with one fault: an entry, a
    row, the header, or a relabelling that may break the group axioms."""
    n = draw(st.sampled_from([1, 3, 3, 4, 5, 5]))
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    fault = draw(st.sampled_from(["none", "entry", "row", "header", "relabel"]))
    if fault == "relabel":
        perm = draw(st.permutations(range(n)))
        rows = [[perm[x] for x in row] for row in rows]
    text = [str(n)] + [" ".join(map(str, row)) for row in rows]
    if fault == "entry":
        i, j = draw(st.integers(1, n)), draw(st.integers(0, n - 1))
        line = text[i].split()
        line[j] = draw(st.one_of(TOKENS, st.integers(0, n).map(str)))
        text[i] = " ".join(line)
    elif fault == "row":
        del text[draw(st.integers(1, n))]
    elif fault == "header":
        text[0] = draw(st.sampled_from(["", "x", "0", str(n + 1), f"{n} extra", f"# order\n{n}"]))
    return "\n".join(text).encode()


@st.composite
def permutation_texts(draw, n: int = 7) -> bytes:
    """x -> kx on Z_n (an automorphism, hence an antiautomorphism of the
    abelian group), or any permutation, with an optional Frobenius power and
    an optional fault in the header or one image."""
    if draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        images = [k * x % n for x in range(n)]
    else:
        images = [0, *draw(st.permutations(range(1, n)))]
    images = [str(x) for x in images]
    header = str(n)
    fault = draw(st.sampled_from(["none", "none", "image", "header", "short"]))
    if fault == "image":
        images[draw(st.integers(0, n - 1))] = draw(st.one_of(TOKENS, st.integers(0, n + 1).map(str)))
    elif fault == "header":
        header = draw(st.sampled_from([str(n - 1), "x", f"{n} {n}", ""]))
    elif fault == "short":
        images.pop()
    power = draw(st.sampled_from([[], ["0"], ["1"], ["-1"], ["x"], ["10" * 10]]))
    return "\n".join([header, " ".join(images), *power]).encode()


def mostly(texts: st.SearchStrategy[bytes]) -> st.SearchStrategy[bytes]:
    """`texts` three times in four, else any short byte string."""
    return st.one_of(texts, texts, texts, st.binary(max_size=24))


class TestFiles:
    @SETTINGS
    @given(text=mostly(cayley_texts()), q=st.sampled_from(["2", "3", "4", "5"]))
    @example(text=b"3\n0 1 2\n1 2 0\n2 0 1\n", q="2")
    @example(text=b"1\n0\n", q="2")
    @example(text=b"\xff\xfe", q="2")
    def test_cayley_file(self, workdir, text, q):
        path = workdir / "group.cayley"
        path.write_bytes(text)
        assert_clean(["construct", "--group", f"@{path}", "--q", q, "--mu", "mu-1", "--max-enum", "4096"])

    @SETTINGS
    @given(text=mostly(permutation_texts()), q=st.sampled_from(["2", "4"]))
    @example(text=b"7\n0 6 5 4 3 2 1\n", q="2")
    @example(text=b"7\n0 6 5 4 3 2 1\n1\n", q="4")
    def test_permutation_file(self, workdir, text, q):
        path = workdir / "mu.perm"
        path.write_bytes(text)
        assert_clean(["construct", "--group", "7", "--q", q, "--mu", f"@{path}", "--max-enum", "4096"])

    # the multipliers of Z_13 permute its idempotents in 2-, 3- and 4-cycles
    @SETTINGS
    @given(text=mostly(permutation_texts(13)), q=st.sampled_from(["3", "5"]), enumerate_all=st.booleans())
    @example(text=b"13\n0 7 1 8 2 9 3 10 4 11 5 12 6\n", q="3", enumerate_all=False)
    @example(text=b"13\n0 2 4 6 8 10 12 1 3 5 7 9 11\n", q="3", enumerate_all=True)
    @example(text=b"13\n0 2 4 6 8 10 12 1 3 5 7 9 11\n", q="5", enumerate_all=False)
    def test_permutation_file_z13(self, workdir, text, q, enumerate_all):
        path = workdir / "mu13.perm"
        path.write_bytes(text)
        argv = ["construct", "--group", "13", "--q", q, "--mu", f"@{path}", "--max-enum", "4096"]
        assert_clean(argv + ["--enumerate-all"] * enumerate_all)


def order_511_table(kind: str, seed: int) -> np.ndarray:
    """Z_511, or Z_7 x Z_73 with id 73a + b, relabelled by a seeded
    permutation s of the ids that fixes the identity: s(x) s(y) = s(xy)."""
    ids = np.arange(511)
    if kind == "Z511":
        table = (ids[:, None] + ids) % 511
    else:
        a, b = np.divmod(ids, 73)
        table = (a[:, None] + a) % 7 * 73 + (b[:, None] + b) % 73
    relabel = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(510)])
    out = np.empty_like(table)
    out[np.ix_(relabel, relabel)] = relabel[table]
    return out


class TestOrder511:
    """Validation at the largest odd order under the cap (0.6 s a table):
    two examples per group, each valid as drawn and rejected after one
    entry is changed, by `group_from_cayley` and through `main`."""

    @pytest.mark.parametrize("kind", ["Z511", "Z7xZ73"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=2)
    @given(
        seed=st.integers(0, 2**32 - 1),
        row=st.integers(0, 510),
        col=st.integers(0, 510),
        shift=st.integers(1, 510),
    )
    def test_one_faulty_entry_is_rejected(self, workdir, kind, seed, row, col, shift):
        table = order_511_table(kind, seed)
        assert group_from_cayley(table).order == 511
        table[row, col] = (table[row, col] + shift) % 511
        with pytest.raises(ValueError, match="^not a group"):
            group_from_cayley(table)
        path = workdir / "order511.cayley"
        path.write_text("\n".join(["511", *(" ".join(map(str, line)) for line in table.tolist())]), encoding="utf-8")
        code, err = run(["construct", "--group", f"@{path}", "--q", "2", "--mu", "mu-1"])
        assert code == EXIT_USAGE and err.startswith("duadic: error: not a group") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# regressions: inputs that once escaped as a traceback or stalled
# ---------------------------------------------------------------------------


def test_permutation_image_beyond_int64_exits_1(tmp_path):
    # numpy raised OverflowError on an image outside int64
    path = tmp_path / "mu.perm"
    path.write_text(f"7\n0 6 5 4 3 2 {10**20}\n", encoding="utf-8")
    argv = ["construct", "--group", "7", "--q", "2", "--mu", f"@{path}"]
    message = f"duadic: error: permutation image {10**20} out of range [0, 7) (line 2, column 7)\n"
    assert run(argv) == (EXIT_USAGE, message)


def test_large_prime_field_order_exits_1_at_once():
    # trial division of a 61-bit prime q did not end in any useful time
    q = 2**61 - 1
    argv = ["construct", "--group", "7", "--q", str(q), "--mu", "mu-1"]
    assert run(argv) == (EXIT_USAGE, f"duadic: error: field order {q} exceeds the cap 65536\n")


def test_long_n_range_stops_at_the_cap():
    # the range was listed in full before any order was checked
    argv = ["scan", "--n", f"3-{10**15}", "--q", "2"]
    assert run(argv) == (EXIT_USAGE, "duadic: error: group order 513 exceeds the validation cap 512\n")


@pytest.mark.parametrize("text", ["", ","])
def test_empty_q_list_exits_1(text):
    # scan --q '' and --q , printed an empty table and exited 0
    argv = ["scan", "--n", "7", "--q", text, "--mu", "mu-1"]
    assert run(argv) == (EXIT_USAGE, f"duadic: error: --q expects a comma list of integers, got {text!r}\n")


@pytest.mark.parametrize("text", ["", ","])
def test_empty_p_list_exits_1(text):
    # scan --family pxp --p '' printed [] and exited 0
    argv = ["scan", "--family", "pxp", "--p", text, "--q", "2", "--mu", "swap", "--json"]
    assert run(argv) == (EXIT_USAGE, f"duadic: error: --p expects a comma list of integers, got {text!r}\n")


@pytest.mark.parametrize("text", ["", ","])
def test_empty_n_list_exits_1(text):
    # an --n list with no integer is named as such, not as a list of even orders
    argv = ["scan", "--n", text, "--q", "2", "--mu", "mu-1", "--json"]
    message = f"duadic: error: --n expects a range like 3-45 or a comma list of integers, got {text!r}\n"
    assert run(argv) == (EXIT_USAGE, message)


NO_COPRIME_CELL = "duadic: error: every group order shares a factor with every --q; no cell has gcd(|G|, q) = 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--n", "5-5", "--q", "5", "--mu", "mu-1", "--json"],
        ["scan", "--family", "pxp", "--p", "3", "--q", "3", "--mu", "swap"],
    ],
    ids=["cyclic", "pxp"],
)
def test_scan_with_no_coprime_cell_exits_1(argv):
    # every cell was skipped: the scan printed [] or a bare header and exited 0
    assert run(argv) == (EXIT_USAGE, NO_COPRIME_CELL)


def test_scan_skips_cells_beside_coprime_ones():
    code, out, err = run_io(["scan", "--n", "3-5", "--q", "5,9", "--mu", "mu-1", "--json"])
    assert (code, err) == (0, "")
    assert [(r["group"], r["q"]) for r in json.loads(out)] == [("3", 5), ("5", 9)]
    code, out, err = run_io(["scan", "--family", "pxp", "--p", "3,5", "--q", "3", "--mu", "swap", "--json"])
    assert (code, err) == (0, "")
    assert [(r["group"], r["q"]) for r in json.loads(out)] == [("5x5", 3)]


# x -> 7x and x -> 2x on Z_13
X7_TEXT = "13\n0 7 1 8 2 9 3 10 4 11 5 12 6\n"
X2_TEXT = "13\n0 2 4 6 8 10 12 1 3 5 7 9 11\n"


def construct_z13(tmp_path, text: str, q: str, *extra: str) -> tuple[int, str, str]:
    path = tmp_path / "mu.perm"
    path.write_text(text, encoding="utf-8")
    return run_io(["construct", "--group", "13", "--q", q, "--mu", f"@{path}", "--json", *extra])


@pytest.mark.parametrize(
    "text,q,extra",
    [(X7_TEXT, "3", ()), (X7_TEXT, "3", ("--enumerate-all",)), (X2_TEXT, "3", ("--enumerate-all",))],
    ids=["x7", "x7-enumerate-all", "x2-enumerate-all"],
)
def test_four_cycle_multiplier_builds_one_pair(tmp_path, text, q, extra):
    # x -> 7x and x -> 2x permute the four nontrivial idempotents of GF(3)[Z_13]
    # in one 4-cycle; the pairing of 2-cycles exited 3 ("idempotent pairing
    # failed", or a pair failing A1 under --enumerate-all)
    code, out, err = construct_z13(tmp_path, text, q, *extra)
    assert (code, err) == (0, "")
    (report,) = json.loads(out)
    assert len(report["pairs"]) == 1 and report["quantum"]["params"] == "[[13,1,5]]_3"


def test_odd_cycle_multiplier_exits_2(tmp_path):
    # x -> 2x permutes the three nontrivial idempotents of GF(5)[Z_13] in a
    # 3-cycle: no idempotent is fixed, yet no pair exists
    code, out, err = construct_z13(tmp_path, X2_TEXT, "5")
    assert (code, out) == (EXIT_NO_SPLITTING, "")
    assert err.count("\n") == 1 and err.endswith("mu permutes the nontrivial idempotents in a cycle of odd length 3\n")


@SETTINGS
@given(n=st.integers(0, 40).map(lambda i: 2 * i + 1), q=st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
@example(n=1, q=2)
def test_scan_class_criterion_iff_construct_builds(n, q):
    # scan read the class criterion `yes` on the trivial group, which
    # construct refuses with exit 2
    assume(math.gcd(n, q) == 1)
    code, out, _ = run_io(["scan", "--n", str(n), "--q", str(q), "--mu", "mu-1", "--json"])
    (row,) = json.loads(out)
    built, _ = run(["construct", "--group", str(n), "--q", str(q), "--mu", "mu-1", "--max-enum", "1", "--json"])
    assert code == 0 and built in (0, EXIT_NO_SPLITTING)
    assert row["existence"]["class_criterion"] == (built == 0), (n, q)
