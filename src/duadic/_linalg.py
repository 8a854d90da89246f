"""Exact linear algebra over a FiniteField on numpy index matrices.

Matrices are 2-D int64 arrays of field-element indexes.  Everything here is
deterministic: leftmost-pivot RREF with monic pivots, eliminating above and
below, which makes the reduced form canonical (two row spaces are equal iff
their RREFs are equal).
"""

from __future__ import annotations

import numpy as np

from .gf import FiniteField

# int64 cells (256 KB) per temporary of a chunked extension-field product
_PRODUCT_CELLS = 1 << 15


def as_matrix(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr


def rref(field: FiniteField, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form and pivot columns.

    Columns left of pivot column c are final, so step c touches m[:, c:].
    Over a prime field entries are reduced mod p only where read: each step
    moves an entry by less than p^2, so p^2 * min(rows, cols) bounds them,
    which int64 holds for every p below the field-order cap 2^16."""
    m = as_matrix(mat).copy()
    rows, cols = m.shape
    lazy = field.m == 1
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        hits = np.flatnonzero(m[r:, c] % field.p if lazy else m[r:, c])
        if hits.size == 0:
            continue
        blk = m[:, c:]
        i = r + int(hits[0])
        if i != r:
            blk[[r, i]] = blk[[i, r]]
        pivot_row = blk[r] % field.p if lazy else blk[r]
        blk[r] = field.vmul(pivot_row, field.inv(int(pivot_row[0])))
        factors = blk[:, :1] % field.p if lazy else blk[:, :1].copy()
        factors[r] = 0
        others = np.flatnonzero(factors)
        if lazy:
            blk[others] -= factors[others] * blk[r]
        else:
            blk[others] = field.vsub(blk[others], field.vmul(factors[others], blk[r]))
        pivots.append(c)
    red = m[: len(pivots)]
    return red % field.p if lazy else red, pivots


def in_row_space(field: FiniteField, red: np.ndarray, pivots: list[int], v: np.ndarray) -> bool:
    """True iff v (a vector, or every row of a matrix) lies in the row space
    of the RREF basis red: a member is the combination of the basis rows
    given by its own entries at the pivot columns."""
    v = as_matrix(v)
    return bool(np.array_equal(matmul(field, v[:, pivots], red), v))


def right_kernel(field: FiniteField, mat: np.ndarray) -> np.ndarray:
    """Rows spanning {v : mat @ v = 0}, in RREF."""
    red, pivots = rref(field, mat)
    cols = as_matrix(mat).shape[1]
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = field.vneg(red[:, free].T)
    return rref(field, basis)[0]


def matmul(field: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact matrix product over the field.

    Over an extension field the products a[i, k] * b[k, j] are formed for a
    slice of k at a time, at most _PRODUCT_CELLS field digits per slice.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    if field.m == 1:
        return (a @ b) % field.p
    step = max(1, _PRODUCT_CELLS // max(1, a.shape[0] * b.shape[1] * field.m))
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(0, a.shape[1], step):
        terms = field.vmul(a[:, k : k + step, None], b[None, k : k + step])
        out = field.vadd(out, field.vsum(terms, axis=1))
    return out
