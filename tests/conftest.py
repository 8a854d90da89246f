"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the package's vectorized code paths:
naive convolution runs through FieldElement scalar arithmetic and naive
codeword enumeration folds generator rows one scalar at a time, so they give
an independent route for cross-checking results.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from duadic import _linalg
from duadic.algebra import AlgebraElement, IdempotentSet
from duadic.codes import DEFAULT_ENUM_CAP, coset_min_weight
from duadic.duadic import check_splitting
from duadic.errors import EnumerationCapError
from duadic.gf import Polynomial, field_from_order, field_make
from duadic.groups import (
    Group,
    builtin_mu_minus1,
    builtin_mu_swap,
    cyclic_group,
    group_abelian,
    group_from_cayley,
)


def metacyclic_table(p: int, r: int) -> np.ndarray:
    """Cayley table of the metacyclic group Z_p : Z_3, for r of order 3 mod p.

    Presentation a^p = b^3 = 1, b^-1 a b = a^r; elements a^i b^j with
    id = 3*i + j; the relation gives b^j a = a^(r^j) b^j.
    """
    def eid(i: int, j: int) -> int:
        return 3 * (i % p) + (j % 3)

    table = np.zeros((3 * p, 3 * p), dtype=np.int64)
    for i1 in range(p):
        for j1 in range(3):
            for i2 in range(p):
                for j2 in range(3):
                    # (a^i1 b^j1)(a^i2 b^j2) = a^(i1 + i2*r^j1) b^(j1+j2)
                    table[eid(i1, j1), eid(i2, j2)] = eid(i1 + i2 * r**j1, j1 + j2)
    return table


def frobenius21_table() -> np.ndarray:
    """Cayley table of the order-21 Frobenius group Z7 : Z3 (r = 2)."""
    return metacyclic_table(7, 2)


@pytest.fixture(scope="session")
def frobenius21() -> Group:
    return group_from_cayley(frobenius21_table(), descriptor="frobenius21")


def heisenberg27_table() -> np.ndarray:
    """Cayley table of the exponent-3 Heisenberg group of order 27.

    Triples (a, b, c) over F_3 with (a1,b1,c1)(a2,b2,c2) =
    (a1+a2, b1+b2, c1+c2+a1*b2); id = 9a + 3b + c.
    """
    def eid(a: int, b: int, c: int) -> int:
        return 9 * (a % 3) + 3 * (b % 3) + (c % 3)

    table = np.zeros((27, 27), dtype=np.int64)
    for a1 in range(3):
        for b1 in range(3):
            for c1 in range(3):
                for a2 in range(3):
                    for b2 in range(3):
                        for c2 in range(3):
                            table[eid(a1, b1, c1), eid(a2, b2, c2)] = eid(
                                a1 + a2, b1 + b2, c1 + c2 + a1 * b2
                            )
    return table


@pytest.fixture(scope="session")
def heisenberg27() -> Group:
    return group_from_cayley(heisenberg27_table(), descriptor="heisenberg27")


@pytest.fixture(scope="session")
def gf2():
    return field_make(2, 1)


@pytest.fixture(scope="session")
def gf4():
    return field_make(2, 2)


@pytest.fixture(scope="session")
def gf9():
    return field_make(3, 2)


def naive_mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Convolution via FieldElement scalar arithmetic (independent route)."""
    field, group = a.field, a.group
    out = [field.zero] * group.order
    ca, cb = a.coeffs, b.coeffs
    for g in range(group.order):
        for h in range(group.order):
            k = group.mul(g, h)
            out[k] = out[k] + ca[g] * cb[h]
    return AlgebraElement(field, group, [c.index for c in out])


def naive_codewords(field, gen):
    """All words of the row space, folded one scalar multiply at a time."""
    gen = np.asarray(gen, dtype=np.int64)
    k, n = gen.shape
    for message in itertools.product(range(field.q), repeat=k):
        word = [0] * n
        for m_i, row in zip(message, gen):
            if m_i:
                word = [field.add(w, field.mul(m_i, int(r))) for w, r in zip(word, row)]
        yield word


def naive_min_weight(field, gen) -> int:
    best = None
    for word in naive_codewords(field, gen):
        w = sum(1 for x in word if x)
        if w and (best is None or w < best):
            best = w
    return best


def macwilliams(dist: np.ndarray, q: int, k: int) -> list[int]:
    """Weight distribution of the dual of a q-ary [n, k] code with distribution dist."""
    n = len(dist) - 1

    def krawtchouk(j: int, i: int) -> int:
        return sum(
            (-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
            for s in range(j + 1)
        )

    out = []
    for j in range(n + 1):
        total = sum(int(dist[i]) * krawtchouk(j, i) for i in range(n + 1))
        assert total % q**k == 0
        out.append(total // q**k)
    return out


def enumerable_cells(qs):
    """(field, group, mu) parameters for every field order in qs with a
    splitting and q^((n+1)/2) <= 2^16: cyclic groups with mu_-1 (duality case
    i) and Z_p x Z_p with mu_-1 or the swap map (case ii)."""
    specs = [(cyclic_group(n), "mu-1") for n in range(3, 32, 2)]
    specs += [(group_abelian([p, p]), mu) for p in (3, 5) for mu in ("mu-1", "swap")]
    for group, mu_name in specs:
        for q in qs:
            if math.gcd(group.order, q) != 1 or q ** ((group.order + 1) // 2) > 1 << 16:
                continue
            mu = builtin_mu_minus1(group) if mu_name == "mu-1" else builtin_mu_swap(group, q)
            field = field_from_order(q)
            if check_splitting(mu, field, group).ok:
                yield pytest.param(field, group, mu, id=f"{group.descriptor}-q{q}-{mu_name}")


def reference_odd_like_min_weight(duadic_codes, which: str = "e", cap: int = DEFAULT_ENUM_CAP) -> int:
    """Minimum odd-like weight of D_e (or D_f) from the Ghat cosets: D = C +
    span(Ghat), so the odd-like words are c + a*Ghat with c in the even-like
    code C and a nonzero, q^k_C * (q - 1) words in all.  It shares only the
    coset kernel with the package, which test_codes checks on its own."""
    even = duadic_codes.c_e if which == "e" else duadic_codes.c_f
    field = even.field
    size = field.q**even.k * (field.q - 1)
    if size > cap:
        raise EnumerationCapError(f"q^k * (q-1) = {size} exceeds the cap {cap}")
    ghat = duadic_codes.pair.ghat.vec
    return min(coset_min_weight(field, even.gen, field.vmul(np.int64(a), ghat))[0] for a in range(1, field.q))


# ---------------------------------------------------------------------------
# oracles: the loop forms of the linear algebra that _linalg now vectorizes
# ---------------------------------------------------------------------------


def reference_rref(field, mat):
    """Leftmost-pivot RREF, eliminating whole rows one pivot at a time."""
    m = np.array(mat, dtype=np.int64).reshape(-1, np.shape(mat)[-1])
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(m[r:, c])[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        pv = int(m[r, c])
        if pv != 1:
            m[r] = field.vmul(m[r], field.inv(pv))
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            factors = m[others, c].reshape(-1, 1)
            m[others] = field.vsub(m[others], field.vmul(factors, m[r].reshape(1, -1)))
        pivots.append(c)
        r += 1
    return m[: len(pivots)], pivots


def reference_right_kernel(field, mat):
    """Kernel basis built entry by entry from the RREF, then reduced."""
    red, pivots = reference_rref(field, mat)
    cols = np.shape(mat)[-1]
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for j, pc in enumerate(pivots):
            basis[i, pc] = field.neg(int(red[j, fc]))
    return reference_rref(field, basis)[0]


def reference_matmul(field, a, b):
    """Matrix product as a sum of outer products, one inner index at a time."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    out = np.zeros((a.shape[0], np.shape(b)[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        out = field.vadd(out, field.vmul(a[:, k].reshape(-1, 1), np.asarray(b)[k].reshape(1, -1)))
    return out


def random_rank_deficient(field, rows, cols, rank, rng):
    """A rows x cols matrix of rank at most `rank`, as a product of two random factors."""
    left = rng.integers(0, field.q, (rows, rank))
    right = rng.integers(0, field.q, (rank, cols))
    return reference_matmul(field, left, right)


# ---------------------------------------------------------------------------
# oracle: the Frobenius-kernel construction of the centrally primitive
# idempotents, from ordinary class sums raised to the q-th power
# ---------------------------------------------------------------------------


def reference_conjugacy_classes(group):
    """Orbits under conjugation, by closure."""
    n = group.order
    seen = np.zeros(n, dtype=bool)
    classes = []
    for seed in range(n):
        if seen[seed]:
            continue
        orbit, stack = {seed}, [seed]
        while stack:
            x = stack.pop()
            for y in (group.mul(group.mul(group.inv(h), x), h) for h in range(n)):
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        cls = tuple(sorted(orbit))
        seen[list(cls)] = True
        classes.append(cls)
    return tuple(classes)


def reference_fixed_center(field, group):
    """(basis rows, class representatives) of the part of the center fixed by
    a -> a^q: the kernel of Frobenius - 1 on the ordinary class sums, each
    raised to the q-th power by repeated squaring in F_q[G]."""
    classes = reference_conjugacy_classes(group)
    center = np.zeros((len(classes), group.order), dtype=np.int64)
    for i, cls in enumerate(classes):
        center[i, list(cls)] = 1
    reps = [cls[0] for cls in classes]
    frob = np.array([(AlgebraElement(field, group, row) ** field.q).vec[reps] for row in center])
    eye = np.eye(len(classes), dtype=np.int64)
    kernel = reference_right_kernel(field, field.vsub(frob.T, eye))
    return reference_matmul(field, kernel, center), reps


def reference_split_idempotents(field, group):
    """(idempotent set, fixed-center basis): the unit split against each
    fixed-center basis vector through the roots of its minimal polynomial,
    the roots found by scalar evaluation at every field element."""
    basis, reps = reference_fixed_center(field, group)
    components = [AlgebraElement.one(field, group)]
    for row in basis:
        b = AlgebraElement(field, group, row)
        components = [part for unit in components for part in _reference_refine(field, reps, unit, b)]
    return IdempotentSet(field, group, components), basis


def _reference_refine(field, reps, unit, b):
    c = b * unit
    rows, power = [unit.vec[reps]], c
    while (sol := _linalg.solve_in_span(field, np.array(rows), power.vec[reps])) is None:
        rows.append(power.vec[reps])
        power = power * c
    minpoly = Polynomial(field, [field.neg(int(x)) for x in sol] + [1])
    roots = [x for x in range(field.q) if minpoly.evaluate(x) == 0]
    assert len(roots) == minpoly.degree(), f"{minpoly} is not split squarefree"
    if len(roots) == 1:
        return [unit]
    out = []
    for lam in roots:
        # the Lagrange idempotent prod_{mu != lam} (c - mu) / (lam - mu)
        acc = unit
        for mu in roots:
            if mu != lam:
                step = (c - unit.scale(mu)).scale(field.inv(field.sub(lam, mu)))
                acc = acc * step
        out.append(acc)
    return out
