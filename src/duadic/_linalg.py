"""Exact linear algebra over a FiniteField on numpy index matrices.

Matrices are 2-D int64 arrays of field-element indexes.  Everything here is
deterministic: leftmost-pivot RREF with monic pivots, eliminating above and
below, which makes the reduced form canonical (two row spaces are equal iff
their RREFs are equal).
"""

from __future__ import annotations

import numpy as np

from .gf import FiniteField

# int64 cells (256 KB) per temporary of a chunked GF(2^m) product
_PRODUCT_CELLS = 1 << 15
# r k c below which elementwise products beat the plane kernel (2-vCPU x86,
# numpy 2.4, OpenBLAS): up to 2^10 it takes 11-12, 20-23 and 30-35 us over
# prime fields, GF(4) and GF(9), the elementwise kernel 3-4, 6-12 and 15-30
_SMALL_PRODUCT = 1 << 10
# the float64 product is exact and reduced exactly while every sum of digit
# products, at most k (p-1)^2 for inner dimension k, stays below this bound
# (at the caps, k = 512 and p = 65521, it is below 2^41)
_EXACT_SUM = 1 << 48
# fields whose q x q product and difference tables `rref` reads, in uint8
_BYTE_FIELD = 1 << 8


def as_matrix(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr


def rref(field: FiniteField, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form and pivot columns.

    Columns left of pivot column c are final, so step c touches m[:, c:],
    and the steps end once the rows left hold no nonzero entry.  The matrix
    is stored in np.min_scalar_type(q - 1) over every field: each step takes
    every row's multiple of the pivot row from `_multiples` and subtracts
    it, one XOR in characteristic 2, one read of the q x q difference table
    while q <= _BYTE_FIELD, else one `vsub` on int64 (a prime field's
    (a - b) % p would wrap in uint16)."""
    m = as_matrix(mat).astype(np.min_scalar_type(field.q - 1))
    rows, cols = m.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        blk = m[:, c:]
        hits = np.flatnonzero(blk[r:, 0])
        if hits.size == 0:
            if not blk[r:].any():
                break
            continue
        i = r + int(hits[0])
        if i != r:
            blk[[r, i]] = blk[[i, r]]
        if blk[r, 0] != 1:
            blk[r] = _multiples(field, np.array([field.inv(int(blk[r, 0]))]), blk[r])
        factors = blk[:, 0].copy()
        factors[r] = 0
        steps = _multiples(field, factors, blk[r])
        if field.p == 2:
            blk ^= steps
        elif field.q <= _BYTE_FIELD:  # a - b at a q + b
            at = blk.astype(np.intp)
            at *= field.q
            at += steps
            blk[...] = field._byte_tables[1].take(at)
        else:
            blk[...] = field.vsub(blk.astype(np.int64), steps)
        pivots.append(c)
    return m[: len(pivots)].astype(np.int64), pivots


def _multiples(field: FiniteField, factors: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Row i: factors[i] * row, in row's dtype.  While q <= _BYTE_FIELD they
    come from the q x q product table: the table of the q multiples of row
    (at most _BYTE_FIELD x len(row) bytes), read at each factor; above it,
    from `vmul`."""
    if field.q > _BYTE_FIELD:
        return field.vmul(factors[:, None].astype(np.int64), row).astype(row.dtype)
    return field._byte_tables[0].take(row, axis=1).take(factors, axis=0)


def in_row_space(field: FiniteField, red: np.ndarray, pivots: list[int], v: np.ndarray) -> bool:
    """True iff v (a vector, or every row of a matrix) lies in the row space
    of the RREF basis red: a member is the combination of the basis rows
    given by its own entries at the pivot columns."""
    v = as_matrix(v)
    return bool(np.array_equal(matmul(field, v[:, pivots], red), v))


def matmul(field: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact matrix product over the field, the kernel chosen by the field
    and the size r k c (a r x k, b k x c).  Over GF(2^m) with m >= 3 the
    products a[i, k] * b[k, j] come from the log tables for a slice of k at
    a time, at most _PRODUCT_CELLS per slice, and are summed by XOR.  Other
    fields take them elementwise too below r k c = _SMALL_PRODUCT = 2^10
    (int64 mod p, or log tables), where the plane kernel's 15 numpy calls
    cost more.  Every larger product is one float64 BLAS product of GF(p)
    digit planes: with a = sum_i x^i a_i, the planes a_i stacked (m r x k)
    times the digits of b side by side (k x c m) are the digits of every
    a_i b.  Their entries are integers below _EXACT_SUM, exact in any
    summation order; they are reduced mod p, packed, and combined with
    m - 1 table products by x^i (the index p^i).  A prime field is the case
    m = 1, where an element is its own digit.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    p, m = field.p, field.m
    (r, k), c = a.shape, b.shape[1]
    if p == 2 and m >= 3:
        step = max(1, _PRODUCT_CELLS // max(1, r * c))
        out = np.zeros((r, c), dtype=np.int64)
        for j in range(0, k, step):
            out ^= np.bitwise_xor.reduce(field.vmul(a[:, j : j + step, None], b[None, j : j + step]), axis=1)
        return out
    if k * (p - 1) ** 2 >= _EXACT_SUM:
        raise ValueError(f"inner dimension {k} is too large for an exact product over {field!r}")
    if r * k * c < _SMALL_PRODUCT:
        return a @ b % p if m == 1 else field.vsum(field.vmul(a[:, :, None], b[None]), axis=1)
    if m == 1:
        prod = a.astype(np.float64) @ b.astype(np.float64)
    else:
        digits, powers = field._float_digits
        prod = digits.T.take(a, axis=1).reshape(m * r, k) @ digits.take(b, axis=0).reshape(k, c * m)
    _reduce(prod, p)
    if m == 1:
        return prod.astype(np.int64)
    parts = (prod.reshape(-1, m) @ powers).astype(np.int64).reshape(m, r, c)
    out = parts[0]
    for i in range(1, m):
        out = field.vadd(out, field.vmul(parts[i], np.int64(p**i)))
    return out


def _reduce(x: np.ndarray, p: int) -> None:
    """x mod p in place, for float64 integers 0 <= x < _EXACT_SUM: x - p
    floor((x + 1/2) / p), where the float quotient is off by less than
    2^-51 (x + 1/2) / p, short of the 1/(2p) to the nearest integer."""
    quot = x * (1 / p)
    quot += 0.5 / p
    np.floor(quot, out=quot)
    quot *= p
    x -= quot
