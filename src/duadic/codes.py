"""Linear codes over F_q as systematic row spaces: ideal-generated codes,
Euclidean duals, and exhaustive weight computations, each with its cap rule.

A generator matrix is systematic: gen[:, pivots] is the identity, with the
pivots in row order.  `LinearCode(field, rows)` eliminates once, to the
canonical RREF (leftmost pivots, monic, eliminated above and below); the
derived codes keep the systematic form they come in, with no elimination:
a mu image moves the pivots with the columns, an added vector joins as one
row, and a dual's kernel basis is systematic on the free columns.  Two codes
are equal iff their row spaces are, which is their RREFs being equal.
Coordinates are indexed by group element id for ideal-generated codes;
`duadic_codes` eliminates C_e alone, from its n translates, and derives the
other three codes of a pair from it.

Exhaustive enumeration splits each coset word into head + tail; the word is
zero at j exactly where tail[j] == -head[j], so weights come from comparing
field indexes, with no field addition per word.  A code builds its head and
tail tables once, for all its cosets; a coset subtracts its offset from the
heads once, not per chunk.  Only the columns that both head rows and tail
rows touch (about n - k of a systematic basis, none when the code has no
head rows) are compared word by word: a column no tail row touches adds one
count per head, and a column only tail rows touch one count per tail.
Weight distributions scan one word per scalar class.  A mu image with no
Frobenius part only relabels columns, so it shares its source's tables, and
their memo scans each coset and the distribution once for every code that
shares them.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import _linalg
from .algebra import AlgebraElement, _antiauto_rows
from .errors import EnumerationCapError, VerificationError
from .gf import FiniteField, as_indexes, as_int

DEFAULT_ENUM_CAP = 1 << 24

# coset enumeration: a tail table of q^t <= _BLOCK_WORDS words, and chunks
# of at most _CHUNK_CELLS (head, tail word, coordinate) comparisons
_BLOCK_WORDS = 1 << 14
_CHUNK_CELLS = 1 << 21


class LinearCode:
    """An [n, k] linear code over F_q as a systematic generator matrix:
    gen[:, pivots] is the identity."""

    def __init__(self, field: FiniteField, rows):
        self._set_basis(field, *_linalg.rref(field, as_indexes(rows, field.q, "entry")))

    @classmethod
    def _systematic(cls, field: FiniteField, gen: np.ndarray, pivots) -> LinearCode:
        """The code of a basis already systematic on pivots: no elimination."""
        code = cls.__new__(cls)
        code._set_basis(field, gen, pivots)
        return code

    def _set_basis(self, field: FiniteField, gen: np.ndarray, pivots) -> None:
        gen = gen.copy()
        gen.flags.writeable = False
        self.field = field
        self.n = int(gen.shape[1])
        self.k = int(gen.shape[0])
        self.gen = gen
        self.pivots = [int(c) for c in pivots]
        self._source = None  # (code, mu_star) when this code is a relabelling of code's columns

    def __eq__(self, other) -> bool:
        """Row-space equality: same space and dimension, and one inclusion."""
        return other is self or (
            isinstance(other, LinearCode)
            and (self.field, self.n, self.k) == (other.field, other.n, other.k)
            and _linalg.in_row_space(self.field, other.gen, other.pivots, self.gen)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.k))

    def __repr__(self) -> str:
        return f"[{self.n}, {self.k}] code over {self.field!r}"

    @cached_property
    def _tables(self) -> _CosetTables:
        """`_coset_tables` of the basis, or its source's relabelled, built on first use."""
        if self._source is None:
            return _coset_tables(self.field, self.gen, self.n)
        source, mu_star = self._source
        return source._tables.relabelled(mu_star)

    def contains(self, vec) -> bool:
        v = as_indexes(vec, self.field.q, "entry")
        if v.shape != (self.n,):
            raise ValueError(f"word length {v.shape} != {self.n}")
        return _linalg.in_row_space(self.field, self.gen, self.pivots, v)


def code_from_ideal(e: AlgebraElement) -> LinearCode:
    """Row space of {g*e : g in G}: the RREF of all n translates of e."""
    return LinearCode(e.field, e.vec[e.group.left_translation])


def _in_ideal(code: LinearCode, a: AlgebraElement) -> LinearCode:
    """The code, checked to lie in Ra for the idempotent a: x a = x for its rows."""
    if not np.array_equal(_linalg.matmul(a.field, code.gen, a.vec[a.group.left_translation]), code.gen):
        raise VerificationError("a derived code does not lie in the ideal of its idempotent")
    return code


def _mu_image(code: LinearCode, mu, a: AlgebraElement) -> LinearCode:
    """mu(code) as the code of the ideal Ra, checked.  mu moves column j to
    mu_star[j] and its Frobenius power fixes 0 and 1, so the mapped basis is
    systematic on mu_star[pivots].  With no Frobenius part the image is the
    code with its columns relabelled, and shares its coset tables."""
    rows = _antiauto_rows(mu, code.field, code.gen)
    image = _in_ideal(LinearCode._systematic(code.field, rows, [mu.mu_star[c] for c in code.pivots]), a)
    if mu.frobenius_power % code.field.m == 0:
        image._source = code, mu.mu_star
    return image


def _plus_vector(code: LinearCode, v: np.ndarray, a: AlgebraElement) -> LinearCode:
    """code + span(v) as the code of the ideal Ra, checked: v reduced by the
    basis (so zero at the pivots), made monic at its first nonzero column c
    and cleared from the other rows there joins the basis as its last row."""
    field, gen, pivots = code.field, code.gen, code.pivots
    row = field.vsub(v, _linalg.matmul(field, v[pivots], gen)[0])
    if not row.any():
        raise VerificationError("the added vector already lies in the code")
    c = int(np.flatnonzero(row)[0])
    row = field.vmul(row, field.inv(int(row[c])))
    basis = np.vstack([field.vsub(gen, field.vmul(gen[:, c : c + 1], row[None])), row[None]])
    return _in_ideal(LinearCode._systematic(field, basis, [*pivots, c]), a)


def dual(code: LinearCode) -> LinearCode:
    """Euclidean dual: the right kernel of the generator matrix.  Each free
    column j gives the kernel vector with 1 at j and -gen[:, j] at the pivot
    columns, so the basis is systematic on the free columns as it stands."""
    field, gen, pivots = code.field, code.gen, code.pivots
    free = np.setdiff1d(np.arange(code.n), pivots)
    basis = np.zeros((free.size, code.n), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = field.vneg(gen[:, free].T)
    return LinearCode._systematic(field, basis, free)


def check_dual(code: LinearCode, other: LinearCode) -> None:
    """VerificationError unless other is code-perp: a code of dimension
    n - k orthogonal to every generator of code is the whole dual."""
    if (other.field, other.n, other.k) != (code.field, code.n, code.n - code.k) or np.any(
        _linalg.matmul(code.field, code.gen, other.gen.T)
    ):
        raise VerificationError("dual of an ideal code violates the inversion-dual identity")


def subcode_check(inner: LinearCode, outer: LinearCode) -> bool:
    """True iff every generator row of inner lies in the row space of outer."""
    if inner.field != outer.field or inner.n != outer.n:
        raise ValueError("codes live in different spaces")
    return _linalg.in_row_space(outer.field, outer.gen, outer.pivots, inner.gen)


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------


def _combination_table(field: FiniteField, rows: np.ndarray, n: int) -> np.ndarray:
    """All q^t combinations of the t given rows, in message-rank order: the
    combination with coefficient indexes a_i has rank sum_i a_i q^i, so the
    last row is the most significant.  Field indexes come in the smallest type.

    GF(2^m) adds by XOR.  Other fields add unreduced and reduce once: each
    element stands for its digit vector read in base b = t(p-1) + 1, so the
    sums of t codes carry no digit across, and one lookup maps each sum to
    its reduced index (a prime field's code is the index itself).

    The table is built transposed, one column per combination, and comes as
    the transpose of that C-ordered array, so the tail table takes no copy.
    """
    p, m, t, dtype = field.p, field.m, len(rows), np.min_scalar_type(field.q - 1)
    multiples = field.vmul(np.reshape(rows, (t, n, 1)), np.arange(field.q, dtype=np.int64))  # [j, col, a] = a row_j[col]
    if p == 2:
        codes = multiples.astype(dtype)
        add, lookup = np.bitwise_xor, None
    else:
        b = t * (p - 1) + 1
        sums = np.arange(b**m, dtype=np.int64)
        lookup = sum((sums // b**i % b % p) * p**i for i in range(m))
        digit_codes = field._digit_table @ b ** np.arange(m, dtype=np.int64)
        codes = digit_codes.astype(np.min_scalar_type(b**m - 1))[multiples]
        add = np.add
    table = np.zeros((n, 1), dtype=codes.dtype)
    for j in range(t):
        table = add(codes[j, :, :, None], table[:, None]).reshape(n, -1)
    return (table if lookup is None else lookup.astype(dtype).take(table)).T


class _CosetTables:
    """What `_coset_chunks` needs of span(gen), for any coset of it, as field
    indexes of the smallest type, with the columns permuted: column i of the
    tables is column cols[i] of the code.

    neg_heads holds the negated combinations of the head rows, the first row
    most significant (odometer order), and tail_t the transposed table of the
    tail rows.  The permuted columns come in three runs: the first `mixed`,
    which both halves touch, then `tail_only`, which only tail rows touch,
    then the rest, which no tail row touches.

    A relabelling of the code's columns (`relabelled`) shares the arrays and
    the memo, which keeps what `coset_min_weight` (per offset, in the
    tables' column order) and `weight_distribution` scanned.
    """

    def __init__(
        self, neg_heads: np.ndarray, tail_t: np.ndarray, cols: np.ndarray, mixed: int, tail_only: int, memo=None
    ):
        self.neg_heads, self.tail_t, self.cols, self.mixed, self.tail_only = neg_heads, tail_t, cols, mixed, tail_only
        self.memo = {} if memo is None else memo

    def relabelled(self, mu_star: np.ndarray) -> _CosetTables:
        """The tables of the code whose column mu_star[j] is column j of this one."""
        return _CosetTables(self.neg_heads, self.tail_t, mu_star[self.cols], self.mixed, self.tail_only, self.memo)


def _coset_tables(field: FiniteField, gen: np.ndarray, n: int) -> _CosetTables:
    """The `_CosetTables` of span(gen).  The tail spans the last t rows
    (q^t <= _BLOCK_WORDS), the heads the rows before them, about q^k /
    _BLOCK_WORDS combinations."""
    gen = np.asarray(gen, dtype=np.int64).reshape(-1, n)
    k = len(gen)
    t = max(i for i in range(k + 1) if field.q**i <= _BLOCK_WORDS)
    in_heads, in_tail = gen[: k - t].any(axis=0), gen[k - t :].any(axis=0)
    runs = [np.flatnonzero(run) for run in (in_heads & in_tail, in_tail & ~in_heads, ~in_tail)]
    cols, mixed, tail_only = np.concatenate(runs), len(runs[0]), len(runs[1])
    gen = gen[:, cols]
    neg_heads = np.ascontiguousarray(_combination_table(field, field.vneg(gen[: k - t][::-1]), n))
    return _CosetTables(neg_heads, _combination_table(field, gen[k - t :], n).T, cols, mixed, tail_only)


def _coset_chunks(field: FiniteField, offset: np.ndarray, tables: _CosetTables):
    """Cover the coset offset + span once, for the span whose `_coset_tables`
    are given, in chunks of words head + tail.  The offset comes in the
    code's column order, the words go out in the tables'.

    Yields (neg_heads, tail, weights), weights[i, j] being the Hamming weight
    of tail[j] - neg_heads[i], for the largest power of q of heads that makes
    at most _CHUNK_CELLS comparisons (or one head).  The offset is subtracted
    from blocks of about _BLOCK_WORDS heads, with no field operation per
    chunk.

    Only the mixed columns are compared word by word.  On a column no tail
    row touches, the word is zero where its negated head is, which gives one
    count per head, taken once per block; on a tail-only column it is zero
    where the tail equals -offset, the negated head of head 0 (the zero
    combination), which gives one count per tail, taken once per coset.
    """
    n, offset = len(offset), offset[tables.cols]
    heads, tail_t = tables.neg_heads, tables.tail_t
    # the weight type leaves room for the skip value n + 1 of the zero word
    weight_type = np.min_scalar_type(n + 1)
    m, hoisted = tables.mixed, tables.mixed + tables.tail_only
    mixed_t = tail_t[:m]
    step = 1
    while step < len(heads) and step * field.q * max(m, 1) * tail_t.shape[1] <= _CHUNK_CELLS:
        step *= field.q
    block = step * max(1, _BLOCK_WORDS // step)
    differ = np.empty((step, *mixed_t.shape), dtype=bool)  # reused: a new array per chunk costs page faults
    for start in range(0, len(heads), block):
        neg_block = field.vsub(heads[start : start + block], offset).astype(tail_t.dtype)
        if not start:
            tail_counts = (tail_t[m:hoisted] != neg_block[0, m:hoisted, None]).view(np.uint8).sum(axis=0, dtype=weight_type)
        head_counts = (neg_block[:, hoisted:] != 0).view(np.uint8).sum(axis=1, dtype=weight_type)
        for i in range(0, len(neg_block), step):
            np.not_equal(mixed_t, neg_block[i : i + step, :m, None], out=differ)
            weights = differ.view(np.uint8).sum(axis=1, dtype=weight_type)
            weights += head_counts[i : i + step, None]
            weights += tail_counts
            yield neg_block[i : i + step], tail_t.T, weights


def coset_min_weight(field: FiniteField, gen: np.ndarray, offset: np.ndarray, tables=None) -> tuple[int, np.ndarray]:
    """Minimum nonzero Hamming weight over offset + span(gen), with a witness.

    The zero word (present only when the offset lies in the span) is skipped.
    tables, from `_coset_tables`, are shared by the cosets of one span and its
    relabellings, whose memo scans each coset once, on its first call.
    """
    n = len(offset)
    tables = _coset_tables(field, gen, n) if tables is None else tables
    key = np.asarray(offset, dtype=np.int64)[tables.cols].tobytes()
    if key not in tables.memo:
        best, witness = n + 1, None
        for neg_heads, tail, weights in _coset_chunks(field, offset, tables):
            flat = weights.ravel()
            flat[flat == 0] = n + 1
            i = int(flat.argmin())
            if flat[i] < best:
                head, j = divmod(i, len(tail))
                best, witness = int(flat[i]), field.vsub(tail[j], neg_heads[head])
        if best > n:
            raise ValueError("coset contains only the zero word")
        tables.memo[key] = best, witness  # the witness in the tables' column order
    best, witness = tables.memo[key]
    word = np.empty_like(witness)
    word[tables.cols] = witness
    return best, word


def weight_distribution(code: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """Counts A_w of codewords by weight, w = 0..n, as a new array.  The
    words are scanned once, on the first call under the cap on any code that
    shares its tables, and the counts kept in the tables' memo: no column
    order changes them.

    Of the q - 1 nonzero multiples of a word with a nonzero tail, all of its
    weight, one has most significant tail coefficient 1, a tail rank in
    [q^j, 2 q^j): only those tails and the zero tail are scanned, and all but
    the zero tail count q - 1 times."""
    n, q = code.n, code.field.q
    if q**code.k > as_int(cap, "cap", lo=1):
        raise EnumerationCapError(f"q^k = {q**code.k} exceeds the cap {cap}")
    tables = code._tables
    memo = tables.memo
    if None not in memo:
        if q > 2:  # rank 0 and the ranks [q^j, 2 q^j), j < t
            leads = q ** np.arange(round(math.log(tables.tail_t.shape[1], q)))
            ranks = np.concatenate([[0], *(np.arange(r, 2 * r) for r in leads)])
            tail_t = tables.tail_t.take(ranks, axis=1)
            tables = _CosetTables(tables.neg_heads, tail_t, tables.cols, tables.mixed, tables.tail_only)
        counts = np.zeros(n + 1, dtype=np.int64)
        for _, _, weights in _coset_chunks(code.field, np.zeros(n, dtype=np.int64), tables):
            counts += (q - 1) * np.bincount(weights.ravel(), minlength=n + 1)
            counts -= (q - 2) * np.bincount(weights[:, 0], minlength=n + 1)
        memo[None] = counts
    return memo[None].copy()


def difference_min_weight(
    small: LinearCode, big: LinearCode, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, np.ndarray]:
    """Minimum weight over big \\ small for nested codes, with a witness.

    When small's pivots lie among big's (always so for RREFs, and for the
    codes of a duadic pair, which gain pivots as they grow; other codes are
    reduced to their RREFs first), the nonzero combinations of the Delta big
    rows whose pivot columns small lacks offset the nonzero cosets of small,
    which cover big \\ small once: q^k_big - q^k_small words, counted against
    the cap before any is scanned.  Since wt(a w) = wt(w), the cosets of v
    and a v share their minimum, so only the (q^Delta - 1)/(q - 1) offsets
    whose most significant nonzero coefficient is 1 are scanned: ext[j] +
    span(ext[:j]), j = 0..Delta-1, in rank order, all with small's tables.
    The cap still counts all q^k_big - q^k_small words.  Each scanned offset
    ranks first in its scalar class, so the first minimal offset, and with it
    the witness, is the one a scan of all q^Delta - 1 offsets finds.
    """
    field = big.field
    size = field.q**big.k - field.q**small.k
    if size > as_int(cap, "cap", lo=1):
        raise EnumerationCapError(f"q^k_big - q^k_small = {size} words exceed the cap {cap}")
    if not subcode_check(small, big):
        raise VerificationError("codes are not nested")
    if size == 0:
        raise ValueError("set difference is empty: the codes are equal")
    if not set(small.pivots) <= set(big.pivots):
        small, big = LinearCode(field, small.gen), LinearCode(field, big.gen)  # RREF pivots nest
    small_pivots = set(small.pivots)
    ext = big.gen[[i for i, c in enumerate(big.pivots) if c not in small_pivots]]
    blocks = (field.vadd(ext[j], _combination_table(field, ext[:j], big.n)) if j else ext[:1] for j in range(len(ext)))
    return min((coset_min_weight(field, small.gen, v, small._tables) for b in blocks for v in b), key=lambda r: r[0])


def odd_like_min_weight(duadic_codes, which: str = "e", cap: int = DEFAULT_ENUM_CAP) -> tuple[int, np.ndarray]:
    """Minimum weight of an odd-like word of D_e (or D_f), with a witness.

    The odd-like words of D_e are D_e \\ C_e, since D_e = C_e + span(Ghat).
    """
    if which not in ("e", "f"):
        raise ValueError("side must be 'e' or 'f'")
    if which == "e":
        return difference_min_weight(duadic_codes.c_e, duadic_codes.d_e, cap)
    return difference_min_weight(duadic_codes.c_f, duadic_codes.d_f, cap)
