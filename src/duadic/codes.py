"""Linear codes over F_q as canonical row spaces: ideal-generated codes,
Euclidean duals, and exhaustive weight computations, each with its cap rule.

Generator matrices are kept in RREF (leftmost pivots, monic, eliminated above
and below), so two codes are equal iff their matrices are equal.  Coordinates
are indexed by group element id for ideal-generated codes.

Exhaustive enumeration splits each coset word into head + tail; the word is
zero at j exactly where tail[j] == -head[j], so weights come from comparing
field indexes, with no field addition per word.
"""

from __future__ import annotations

import itertools
import weakref

import numpy as np

from . import _linalg
from .algebra import AlgebraElement, apply_antiauto, is_idempotent
from .errors import EnumerationCapError, VerificationError
from .gf import FiniteField
from .groups import builtin_mu_minus1

DEFAULT_ENUM_CAP = 1 << 24

# coset enumeration: a tail table of q^t <= _BLOCK_WORDS words, and chunks
# of at most _CHUNK_CELLS (head, tail word, coordinate) comparisons
_BLOCK_WORDS = 1 << 14
_CHUNK_CELLS = 1 << 21

# ideal codes still in use, per group (equal tables share one entry) and then
# by (field, element bytes); weak at both levels, so nothing outlives its user
_IDEAL_CODES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class LinearCode:
    """An [n, k] linear code over F_q as a canonical generator matrix.
    Codes from code_from_ideal and dual are shared: never mutate one."""

    def __init__(self, field: FiniteField, rows, provenance: AlgebraElement | None = None):
        mat = _linalg.as_matrix(rows)
        if mat.size:
            red, pivots = _linalg.rref(field, mat)
        else:
            red, pivots = np.zeros((0, mat.shape[1]), dtype=np.int64), []
        red = red.copy()
        red.flags.writeable = False
        self.field = field
        self.n = int(mat.shape[1])
        self.k = int(red.shape[0])
        self.gen = red
        self.pivots = list(pivots)
        self.provenance = provenance

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.n == other.n
            and self.k == other.k
            and np.array_equal(self.gen, other.gen)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.gen.tobytes()))

    def __repr__(self) -> str:
        return f"[{self.n}, {self.k}] code over {self.field!r}"

    def contains(self, vec) -> bool:
        v = np.asarray(vec, dtype=np.int64)
        if v.shape != (self.n,):
            raise ValueError(f"word length {v.shape} != {self.n}")
        return _linalg.in_row_space(self.field, self.gen, self.pivots, v)


def code_from_ideal(e: AlgebraElement) -> LinearCode:
    """Row space of {g*e : g in G}; a code of e still in use is returned again."""
    built = _IDEAL_CODES.setdefault(e.group, weakref.WeakValueDictionary())
    key = (e.field, e.vec.tobytes())
    if (code := built.get(key)) is None:
        code = built[key] = LinearCode(e.field, e.vec[e.group.left_translation], provenance=e)
    return code


def dual(code: LinearCode) -> LinearCode:
    """Euclidean dual; verifies the inversion-dual identity for ideal codes.

    For a code generated by an idempotent e the dual is the shared ideal code
    of 1 - mu_-1(e) (in cases i and ii, D_e or D_f itself), checked exactly: a
    code of dimension n - k orthogonal to every generator is the whole dual,
    else VerificationError.  Other codes take the right kernel.
    """
    prov = code.provenance
    if prov is None or not is_idempotent(prov):
        kernel = _linalg.right_kernel(code.field, code.gen) if code.k else np.eye(code.n, dtype=np.int64)
        return LinearCode(code.field, kernel)
    mu1 = builtin_mu_minus1(prov.group)
    out = code_from_ideal(AlgebraElement.one(prov.field, prov.group) - apply_antiauto(mu1, prov))
    if (out.field, out.n, out.k) != (code.field, code.n, code.n - code.k) or np.any(
        _linalg.matmul(code.field, code.gen, out.gen.T)
    ):
        raise VerificationError("dual of an ideal code violates the inversion-dual identity")
    return out


def subcode_check(inner: LinearCode, outer: LinearCode) -> bool:
    """True iff every generator row of inner lies in the row space of outer."""
    if inner.field != outer.field or inner.n != outer.n:
        raise ValueError("codes live in different spaces")
    return _linalg.in_row_space(outer.field, outer.gen, outer.pivots, inner.gen)


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------


def _combination_table(field: FiniteField, rows: np.ndarray, n: int) -> np.ndarray:
    """All q^len(rows) combinations of the given rows, in message-rank order."""
    table = np.zeros((1, n), dtype=np.int64)
    for r in rows:
        multiples = field.vmul(np.arange(field.q, dtype=np.int64)[:, None], r.reshape(1, -1))
        table = field.vadd(multiples[:, None], table[None]).reshape(-1, n)
    return table


def _coset_chunks(field: FiniteField, gen: np.ndarray, offset: np.ndarray):
    """Cover offset + span(gen) once, in chunks of words head + tail.

    Yields (neg_heads, tail, weights), weights[i, j] being the Hamming weight
    of tail[j] - neg_heads[i].  The tail spans the last t rows (q^t <=
    _BLOCK_WORDS), the heads offset + the other rows in odometer order.
    """
    n, q = len(offset), field.q
    gen = np.asarray(gen, dtype=np.int64).reshape(-1, n)
    k = len(gen)
    t = max(i for i in range(k + 1) if q**i <= _BLOCK_WORDS)
    s = max(i for i in range(k - t + 1) if i == 0 or q ** (i + t) * n <= _CHUNK_CELLS)
    tail = _combination_table(field, gen[k - t :], n)
    neg_table = field.vneg(_combination_table(field, gen[k - t - s : k - t][::-1], n))
    index_type = np.min_scalar_type(q - 1)
    tail_t = np.ascontiguousarray(tail.T, dtype=index_type)
    outer = gen[: k - t - s]
    for message in itertools.product(range(q), repeat=len(outer)):
        scaled = field.vmul(np.array(message, dtype=np.int64)[:, None], outer)
        base = field.vsum(np.vstack([offset, scaled]), axis=0)
        neg_heads = field.vsub(neg_table, base).astype(index_type)
        differ = tail_t[None] != neg_heads[:, :, None]
        # the weight type leaves room for the skip value n + 1 of the zero word
        yield neg_heads, tail, differ.view(np.uint8).sum(axis=1, dtype=np.min_scalar_type(n + 1))


def coset_min_weight(field: FiniteField, gen: np.ndarray, offset: np.ndarray) -> tuple[int, np.ndarray]:
    """Minimum nonzero Hamming weight over offset + span(gen), with a witness.

    The zero word (present only when the offset lies in the span) is skipped.
    """
    n = len(offset)
    best, witness = n + 1, None
    for neg_heads, tail, weights in _coset_chunks(field, gen, offset):
        flat = weights.ravel()
        flat[flat == 0] = n + 1
        i = int(flat.argmin())
        if flat[i] < best:
            head, j = divmod(i, len(tail))
            best, witness = int(flat[i]), field.vsub(tail[j], neg_heads[head])
    if best > n:
        raise ValueError("coset contains only the zero word")
    return best, witness


def weight_distribution(code: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """Counts A_w of codewords by weight, w = 0..n."""
    size = code.field.q**code.k
    if size > cap:
        raise EnumerationCapError(f"q^k = {size} exceeds the cap {cap}")
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for _, _, weights in _coset_chunks(code.field, code.gen, np.zeros(code.n, dtype=np.int64)):
        counts += np.bincount(weights.ravel(), minlength=code.n + 1)
    return counts


def difference_min_weight(
    small: LinearCode, big: LinearCode, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, np.ndarray]:
    """Minimum weight over big \\ small for nested codes, with a witness.

    The nonzero combinations of the big rows whose pivot columns small lacks
    offset the nonzero cosets of small, which cover big \\ small once:
    q^k_big - q^k_small words, counted against the cap before any is scanned.
    """
    q = big.field.q
    size = q**big.k - q**small.k
    if size > cap:
        raise EnumerationCapError(f"q^k_big - q^k_small = {size} words exceed the cap {cap}")
    if not subcode_check(small, big):
        raise VerificationError("codes are not nested")
    if size == 0:
        raise ValueError("set difference is empty: the codes are equal")
    small_pivots = set(small.pivots)
    ext = big.gen[[i for i, c in enumerate(big.pivots) if c not in small_pivots]]
    offsets = _combination_table(big.field, ext, big.n)[1:]
    return min((coset_min_weight(big.field, small.gen, offset) for offset in offsets), key=lambda r: r[0])


def odd_like_min_weight(duadic_codes, which: str = "e", cap: int = DEFAULT_ENUM_CAP) -> tuple[int, np.ndarray]:
    """Minimum weight of an odd-like word of D_e (or D_f), with a witness.

    The odd-like words of D_e are D_e \\ C_e, since D_e = C_e + span(Ghat).
    """
    if which not in ("e", "f"):
        raise ValueError("side must be 'e' or 'f'")
    if which == "e":
        return difference_min_weight(duadic_codes.c_e, duadic_codes.d_e, cap)
    return difference_min_weight(duadic_codes.c_f, duadic_codes.d_f, cap)
