"""Exact linear algebra over a FiniteField on numpy index matrices.

Matrices are 2-D int64 arrays of field-element indexes.  Everything here is
deterministic: leftmost-pivot RREF with monic pivots, eliminating above and
below, which makes the reduced form canonical (two row spaces are equal iff
their RREFs are equal).  Products of GF(p) digits are taken by float BLAS,
exact while every sum of digit products stays below 2^21 in float32 and
below 2^50 in float64 (`matmul`, `_reduce`).
"""

from __future__ import annotations

import numpy as np

from .gf import FiniteField, as_indexes

# r k c below which elementwise products beat the plane kernel (2-vCPU x86,
# numpy 2.4, OpenBLAS): at 2^10 it takes 4.5-5, 8-9.5 and 8-9.5 us over
# prime fields, GF(4) and GF(9), the elementwise kernel 2.3-2.7, 5.6-7 and
# 18-29 us
_SMALL_PRODUCT = 1 << 10
# a float product of digits is exact, and reduced exactly by `_reduce`,
# while every sum stays below these bounds, 3 bits short of the 24- and
# 53-bit significands of float32 and float64
_SINGLE_SUM = 1 << 21
_EXACT_SUM = 1 << 50
# fields whose q x q product and difference tables `rref` reads, in uint8
_BYTE_FIELD = 1 << 8


def as_matrix(rows) -> np.ndarray:
    arr = as_indexes(rows)
    return arr.reshape(1, -1) if arr.ndim == 1 else arr


def rref(field: FiniteField, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form and pivot columns.

    Columns left of pivot column c are final, so step c touches m[:, c:],
    and the steps end once the rows left hold no nonzero entry.  Each step
    takes every row's multiple of the pivot row from `_multiples` and
    subtracts it.  The matrix is stored in the smallest unsigned type that
    holds q - 1, or 2 (p - 1) over an odd prime field, where the step adds
    the multiples by -factor and wraps each sum x in [0, 2p - 2] back below
    p as min(x, x - p), since x - p wraps round for x < p.  In
    characteristic 2 the subtraction is one XOR; over an odd extension field
    it reads the q x q difference table while q <= _BYTE_FIELD, else takes
    `vsub`."""
    prime = field.m == 1 and field.p > 2
    m = as_matrix(mat).astype(np.min_scalar_type(2 * (field.q - 1) if prime else field.q - 1))
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
            blk[r] = _multiples(field, field._inverses[blk[r, :1]], blk[r])
        factors = blk[:, 0].copy()
        factors[r] = 0
        if prime:
            blk += _multiples(field, field.vneg(factors), blk[r])
            np.minimum(blk, blk - field.p, out=blk)
        elif field.p == 2:
            blk ^= _multiples(field, factors, blk[r])
        elif field.q <= _BYTE_FIELD:  # a - b at a q + b
            at = blk.astype(np.intp)
            at *= field.q
            at += _multiples(field, factors, blk[r])
            blk[...] = field._byte_differences.take(at)
        else:
            blk[...] = field.vsub(blk, _multiples(field, factors, blk[r]))
        pivots.append(c)
    return m[: len(pivots)].astype(np.int64), pivots


def _multiples(field: FiniteField, factors: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Row i: factors[i] * row.  While q <= _BYTE_FIELD they come in uint8
    from the q x q product table: the table of the q multiples of row (at
    most _BYTE_FIELD x len(row) bytes), read at each factor; above it, from
    `vmul`, in row's dtype."""
    if field.q > _BYTE_FIELD:
        return field.vmul(factors[:, None], row).astype(row.dtype)
    return field._byte_products.take(row, axis=1).take(factors, axis=0)


def in_row_space(field: FiniteField, red: np.ndarray, pivots: list[int], v: np.ndarray) -> bool:
    """True iff v (a vector, or every row of a matrix) lies in the row space
    of the RREF basis red: a member is the combination of the basis rows
    given by its own entries at the pivot columns."""
    v = as_matrix(v)
    return bool(np.array_equal(matmul(field, v[:, pivots], red), v))


def matmul(field: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact matrix product over the field (a r x k, b k x c), the kernel
    chosen by the size r k c alone.  Below _SMALL_PRODUCT = 2^10 the
    products a[i, k] * b[k, j] are taken elementwise (int64 mod p, or log
    tables), where the plane kernel's 10-15 numpy calls cost more.  Above,
    it is one BLAS product of GF(p) digit planes: with a = sum_i x^i a_i,
    the planes a_i stacked (m r x k) times the digits of b side by side
    (k x c m) are the digits of every a_i b, and the digits of a b are their
    sum over i, each times the shift matrix of x^i (`_float_digits`).  Every
    entry is an integer of at most k (p-1)^2, and m^2 k (p-1)^3 once
    combined: the product is taken in float32 while that bound is below
    _SINGLE_SUM = 2^21 and in float64 below _EXACT_SUM = 2^50, exact in any
    summation order, then reduced mod p once and packed.  A prime field is
    the case m = 1, where an element is its own digit.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    p, m = field.p, field.m
    (r, k), c = a.shape, b.shape[1]
    most = k * (p - 1) ** 2 * (1 if m == 1 else m * m * (p - 1))
    if most >= _EXACT_SUM:
        raise ValueError(f"inner dimension {k} is too large for an exact product over {field!r}")
    if r * k * c < _SMALL_PRODUCT:
        return a @ b % p if m == 1 else field.vsum(field.vmul(a[:, :, None], b[None]), axis=1)
    dtype = np.float32 if most < _SINGLE_SUM else np.float64
    if m == 1:
        prod = a.astype(dtype) @ b.astype(dtype)
        _reduce(prod, p)
        return prod.astype(np.int64)
    planes, digits, powers, shifts = field._float_digits[dtype]
    parts = (planes.take(a, axis=1).reshape(m * r, k) @ digits.take(b, axis=0).reshape(k, c * m)).reshape(m, r * c, m)
    out = parts[0]
    for i in range(1, m):
        out += parts[i] @ shifts[i]
    _reduce(out, p)
    return (out @ powers).astype(np.int64).reshape(r, c)


def _reduce(x: np.ndarray, p: int) -> None:
    """x mod p in place, for integers 0 <= x below _SINGLE_SUM = 2^21 in
    float32 or _EXACT_SUM = 2^50 in float64: x - p floor((x + 1/2) / p),
    where the float quotient is off by about 3u (x + 1/2) / p at most, for
    the unit roundoff u = 2^-24 or 2^-53: below 3/(8p), short of the 1/(2p)
    from (x + 1/2) / p to the nearest integer."""
    quot = x * (1 / p)
    quot += 0.5 / p
    np.floor(quot, out=quot)
    quot *= p
    x -= quot
