"""Exact linear algebra over small fields."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from duadic import _linalg
from duadic.codes import LinearCode, dual
from duadic.gf import field_from_order

from conftest import random_rank_deficient
from oracles import reference_matmul, reference_right_kernel, reference_rref, solve_in_span

FIELDS = [2, 3, 4, 5, 9]


def random_matrix(field, rows, cols, seed):
    rng = random.Random(seed)
    return np.array([[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)


@pytest.mark.parametrize("q", FIELDS)
def test_rref_is_canonical_under_row_operations(q):
    field = field_from_order(q)
    rng = random.Random(q * 11)
    for seed in range(5):
        m = random_matrix(field, 5, 8, seed * 31 + q)
        red, pivots = _linalg.rref(field, m)
        # shuffle rows and rescale: same row space, same rref
        rows = [field.vmul(np.int64(rng.randrange(1, field.q)), r) for r in m]
        rng.shuffle(rows)
        red2, pivots2 = _linalg.rref(field, np.array(rows))
        assert pivots == pivots2
        assert np.array_equal(red, red2)
        # every pivot entry 1, eliminated above and below
        for i, c in enumerate(pivots):
            col = red[:, c]
            assert col[i] == 1 and np.count_nonzero(col) == 1


@pytest.mark.parametrize("q", FIELDS)
def test_right_kernel_annihilates(q):
    field = field_from_order(q)
    for seed in range(4):
        m = random_matrix(field, 4, 9, seed + q * 7)
        kern = dual(LinearCode(field, m)).gen
        assert kern.shape[0] == 9 - len(_linalg.rref(field, m)[1])
        if kern.size:
            prod = _linalg.matmul(field, m, kern.T)
            assert not np.any(prod)


@pytest.mark.parametrize("q", FIELDS)
def test_matmul_against_naive(q):
    field = field_from_order(q)
    a = random_matrix(field, 4, 6, q)
    b = random_matrix(field, 6, 5, q + 1)
    fast = _linalg.matmul(field, a, b)
    for i in range(4):
        for j in range(5):
            acc = 0
            for k in range(6):
                acc = field.add(acc, field.mul(int(a[i, k]), int(b[k, j])))
            assert acc == fast[i, j]


@pytest.mark.parametrize("q", FIELDS)
def test_solve_in_span(q):
    field = field_from_order(q)
    rng = random.Random(q * 5)
    basis = random_matrix(field, 3, 7, q * 13)
    coeffs = np.array([rng.randrange(field.q) for _ in range(3)], dtype=np.int64)
    v = np.zeros(7, dtype=np.int64)
    for c, row in zip(coeffs, basis):
        v = field.vadd(v, field.vmul(np.int64(int(c)), row))
    x = solve_in_span(field, basis, v)
    assert x is not None
    recon = np.zeros(7, dtype=np.int64)
    for c, row in zip(x, basis):
        recon = field.vadd(recon, field.vmul(np.int64(int(c)), row))
    assert np.array_equal(recon, v)


def test_solve_in_span_outside():
    field = field_from_order(2)
    basis = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    assert solve_in_span(field, basis, np.array([0, 0, 1])) is None


def test_equal_row_spaces_have_equal_rref():
    field = field_from_order(3)
    a = np.array([[1, 2, 0], [0, 1, 1]], dtype=np.int64)
    b = np.array([[1, 0, 1], [0, 2, 2]], dtype=np.int64)  # row ops of a
    c = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    assert np.array_equal(_linalg.rref(field, a)[0], _linalg.rref(field, b)[0])
    assert not np.array_equal(_linalg.rref(field, a)[0], _linalg.rref(field, c)[0])


# ---------------------------------------------------------------------------
# the vectorized routines against their loop forms (oracles module)
# ---------------------------------------------------------------------------

# 65521, the largest prime under the field-order cap: the elimination adds
# its multiples in uint32, where uint16 sums would wrap; 2^16 and 3^10 have
# the most digit planes
ORACLE_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 81, 256, 257, 59049, 65521, 65536]
# (rows, cols, rank bound): wide, tall, square, one row, full rank, larger
SHAPES = [(6, 9, 3), (9, 6, 4), (12, 12, 5), (1, 5, 1), (7, 7, 7), (20, 31, 11)]


def reference_in_row_space(field, red, pivots, v):
    """Residue of v after eliminating it one pivot at a time is zero."""
    w = v.astype(np.int64).copy()
    for j, c in enumerate(pivots):
        if w[c] != 0:
            w = field.vsub(w, field.vmul(np.int64(w[c]), red[j]))
    return not np.any(w)


def _oracle_matrices(field, seed):
    rng = np.random.default_rng(seed)
    for rows, cols, rank in SHAPES:
        mat = random_rank_deficient(field, rows, cols, rank, rng)
        if cols > 2:
            mat[:, 1] = 0  # a column without pivot before others
        yield mat
    yield np.zeros((4, 6), dtype=np.int64)


@pytest.mark.parametrize("q", ORACLE_FIELDS)
def test_rref_and_kernel_against_loop_oracle(q):
    field = field_from_order(q)
    for mat in _oracle_matrices(field, q):
        before = mat.copy()
        red, pivots = _linalg.rref(field, mat)
        ref_red, ref_pivots = reference_rref(field, mat)
        assert pivots == ref_pivots and np.array_equal(red, ref_red)
        assert np.array_equal(mat, before)
        kernel = dual(LinearCode(field, mat)).gen
        # the kernel basis is systematic, not reduced: its RREF is the oracle's
        assert np.array_equal(_linalg.rref(field, kernel)[0], reference_right_kernel(field, mat))
        assert kernel.shape == (mat.shape[1] - len(pivots), mat.shape[1])


@pytest.mark.parametrize("q", ORACLE_FIELDS)
def test_matmul_against_loop_oracle(q, monkeypatch):
    field = field_from_order(q)
    rng = np.random.default_rng(q + 1)
    # square-ish, one row, one column, an outer product, both sides of
    # the size rule, zero inner dimension
    shapes = [(5, 13, 7), (1, 13, 7), (5, 13, 1), (5, 1, 7), (1, 1023, 1), (1, 1024, 1), (9, 13, 11), (5, 0, 7)]
    if field.m > 1:  # wide, short and long inner dimensions by the plane count
        shapes[-1:-1] = [(3, 4 * (field.m - 1) - 1, 400), (3, 4 * (field.m - 1), 400)]
    pairs = [(rng.integers(0, q, (r, k)), rng.integers(0, q, (k, c))) for r, k, c in shapes]
    for a, b in pairs:
        assert np.array_equal(_linalg.matmul(field, a, b), reference_matmul(field, a, b)), a.shape
    assert not _linalg.matmul(field, *pairs[-1]).any()
    # every kernel of the field on both sides of the size rule: the
    # elementwise kernel for all sizes, then the plane kernel for all sizes
    for bound in (1 << 62, 0):
        monkeypatch.setattr(_linalg, "_SMALL_PRODUCT", bound)
        for a, b in pairs:
            assert np.array_equal(_linalg.matmul(field, a, b), reference_matmul(field, a, b)), (bound, a.shape)


def test_matmul_exact_at_the_largest_sums():
    # every digit product (p-1)^2 at the largest prime and group order: each
    # entry 512 (p-1)^2 = 512 mod p sums to about 2^41 before it is reduced
    p = 65521
    field = field_from_order(p)
    a = np.full((3, 512), p - 1)
    b = np.full((512, 4), p - 1)
    assert (_linalg.matmul(field, a, b) == 512).all()
    assert np.array_equal(_linalg.matmul(field, a, b), reference_matmul(field, a, b))


@pytest.mark.parametrize("q", [65536, 59049])
def test_matmul_exact_at_the_largest_extension_sums(q, monkeypatch):
    # every digit p - 1 at the group-order cap: the combined planes sum to
    # m^2 512 (p-1)^3 before they are reduced, 2^17 over GF(2^16) and about
    # 2^18.6 over GF(3^10), both in float32; k = 511 and 512 give the two
    # nonzero multiples of (q-1)^2 over GF(3^10), and (q-1)^2 and 0 over
    # GF(2^16)
    field = field_from_order(q)
    dtypes = []
    reduce = _linalg._reduce
    monkeypatch.setattr(_linalg, "_reduce", lambda x, p: (dtypes.append(x.dtype), reduce(x, p)))
    for k in (511, 512):
        a = np.full((3, k), q - 1)
        b = np.full((k, 4), q - 1)
        assert np.array_equal(_linalg.matmul(field, a, b), reference_matmul(field, a, b)), k
    assert dtypes == [np.float32, np.float32]


def test_matmul_large_enough_to_thread():
    # 512 x 512 x 512 is large enough for a threaded BLAS to split the sums
    # (CI reruns this module with OPENBLAS_NUM_THREADS=1 for the serial
    # order); the int64 product is exact, each sum below 2^41
    p = 65521
    field = field_from_order(p)
    rng = np.random.default_rng(p)
    a = rng.integers(0, p, (512, 512))
    b = rng.integers(0, p, (512, 512))
    assert np.array_equal(_linalg.matmul(field, a, b), a @ b % p)


def test_matmul_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match=r"shape mismatch: \(2, 3\) @ \(2, 3\)"):
        _linalg.matmul(field_from_order(2), np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))


def test_matmul_rejects_inexact_inner_dimension():
    field = field_from_order(65521)
    k = -(-_linalg._EXACT_SUM // 65520**2)  # the least k with k (p-1)^2 >= the bound
    assert _linalg.matmul(field, np.zeros((0, k - 1)), np.zeros((k - 1, 0))).shape == (0, 0)
    with pytest.raises(ValueError, match="too large for an exact product"):
        _linalg.matmul(field, np.zeros((0, k)), np.zeros((k, 0)))


@pytest.mark.parametrize("p", [2, 3, 7, 251, 65521])
def test_float_reduction_exact_up_to_the_bound(p):
    # below _EXACT_SUM in float64 and below _SINGLE_SUM in float32: residues
    # 0, 1 and p - 1 of the largest multiples of p below the bound, where a
    # float quotient is nearest to an integer, and random values
    rng = np.random.default_rng(p)
    # the quotient's error, about 3u x / p for the unit roundoff u, stays
    # below the 1/(2p) to the nearest integer
    assert 3 * _linalg._EXACT_SUM < 2**52 and 3 * _linalg._SINGLE_SUM < 2**23
    for bound, dtype in ((_linalg._EXACT_SUM, np.float64), (_linalg._SINGLE_SUM, np.float32)):
        top = (bound - 1) // p * p
        edges = np.array([top - p * j + s for j in range(1, 50) for s in (0, 1, p - 1)] + [0, 1, p - 1])
        values = np.concatenate([edges[edges >= 0], rng.integers(0, bound, 10000)])
        x = values.astype(dtype)
        _linalg._reduce(x, p)
        assert x.dtype == dtype and np.array_equal(x.astype(np.int64), values % p), dtype


@pytest.mark.parametrize("q", [2, 3, 7, 4, 9])
def test_matmul_exact_at_the_largest_single_sums(q, monkeypatch):
    # every digit p - 1: the largest inner dimension k whose sums, at most
    # k (p-1)^2, or m^2 k (p-1)^3 once the planes are combined, stay below
    # _SINGLE_SUM takes float32, and k + 1 takes float64
    field = field_from_order(q)
    p, m = field.p, field.m
    most = (p - 1) ** 2 * (1 if m == 1 else m * m * (p - 1))
    largest = (_linalg._SINGLE_SUM - 1) // most
    dtypes = []
    reduce = _linalg._reduce
    monkeypatch.setattr(_linalg, "_reduce", lambda x, p: (dtypes.append(x.dtype), reduce(x, p)))
    for k in (largest, largest + 1):
        a = np.full((1, k), q - 1)
        b = np.full((k, 2), q - 1)
        # k equal terms sum to k mod p of them
        assert np.array_equal(_linalg.matmul(field, a, b), reference_matmul(field, a[:, : k % p], b[: k % p])), k
    assert dtypes == [np.float32, np.float64]


@pytest.mark.parametrize("q", ORACLE_FIELDS)
def test_row_space_membership_and_solve_against_loop_oracle(q):
    field = field_from_order(q)
    rng = np.random.default_rng(q + 2)
    for mat in _oracle_matrices(field, q + 3):
        red, pivots = _linalg.rref(field, mat)
        inside = reference_matmul(field, rng.integers(0, q, mat.shape[0]), mat)[0]
        candidates = [inside, rng.integers(0, q, mat.shape[1]), np.zeros(mat.shape[1], dtype=np.int64)]
        for v in candidates:
            member = reference_in_row_space(field, red, pivots, v)
            assert _linalg.in_row_space(field, red, pivots, v) == member
            x = solve_in_span(field, mat, v)
            assert (x is not None) == member
            if x is not None:
                assert np.array_equal(reference_matmul(field, x, mat)[0], v)
        assert _linalg.in_row_space(field, red, pivots, mat)
        assert _linalg.in_row_space(field, red, pivots, np.vstack([mat, candidates[1]])) == (
            reference_in_row_space(field, red, pivots, candidates[1])
        )


# every field eliminates on the pivot row's multiples: the table of all q
# multiples while q <= rows (2, 3, 4, 8, 9 at 40 rows, 256 at 260 rows), the
# multiples of the factors that occur above (3 rows, and every shape at 257
# and up).  An odd prime field adds the multiples by -factor and wraps sums
# up to 2 (p - 1), stored in uint8 up to 127 (sums up to 252), in uint16
# from 131 (sums from 260) to 257 and in uint32 at 65521; the rows full of
# p - 1 under a first row [1, p - 1, ...] reach those sums.  Otherwise the
# differences are an XOR in characteristic 2 and a read of the q x q table
# over GF(9)
MULTIPLES_FIELDS = [2, 3, 4, 8, 9, 127, 131, 251, 256, 257, 65521, 65536]


def _multiples_matrices(field, rng):
    yield np.zeros((5, 8), dtype=np.int64)
    yield random_rank_deficient(field, 12, 20, 5, rng)
    yield rng.integers(0, field.q, (1, 9))
    yield rng.integers(0, field.q, (9, 1))
    yield rng.integers(0, field.q, (3, 30))
    yield random_rank_deficient(field, 40, 50, 30, rng)
    full = np.full((7, 12), field.q - 1)
    full[0, 0] = 1
    mixed = full.copy()
    mixed[3:, 5:] = rng.integers(0, field.q, (4, 7))
    yield full
    yield mixed
    if field.q == 256:
        yield rng.integers(0, field.q, (260, 12))


@pytest.mark.parametrize("q", MULTIPLES_FIELDS)
def test_rref_on_the_pivot_multiples_against_loop_oracle(q):
    field = field_from_order(q)
    for mat in _multiples_matrices(field, np.random.default_rng(q + 5)):
        before = mat.copy()
        red, pivots = _linalg.rref(field, mat)
        ref_red, ref_pivots = reference_rref(field, mat)
        assert pivots == ref_pivots and np.array_equal(red, ref_red), mat.shape
        assert red.dtype == np.int64 and np.array_equal(mat, before)


def test_rref_temporaries_at_the_largest_field():
    # the multiples of the 64 rows' own factors, not a table of all 2^16
    # multiples of the pivot row (16 MB at 128 columns in uint16)
    field = field_from_order(65536)
    mat = np.random.default_rng(7).integers(0, field.q, (64, 128))
    field._log_exp  # the field's own tables, built once per field
    tracemalloc.start()
    try:
        _linalg.rref(field, mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * mat.nbytes
