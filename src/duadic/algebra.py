"""Arithmetic in the group algebra F_q[G], idempotent predicates, and all
centrally primitive idempotents, split in the Frobenius-fixed part of the
center.  Elements store a length-n vector of field-element indexes.
"""

from __future__ import annotations

import math

import numpy as np

from . import _linalg
from .errors import VerificationError
from .gf import FiniteField, lagrange_rows, roots
from .groups import Antiautomorphism, FqClassPartition, Group, fq_classes, is_subgroup


class AlgebraElement:
    """Element of F_q[G]: the coefficient vector (a_g), indexed by element id."""

    __slots__ = ("field", "group", "vec")

    def __init__(self, field: FiniteField, group: Group, vec):
        v = np.array(vec, dtype=np.int64)
        if v.shape != (group.order,):
            raise ValueError(f"coefficient vector must have length {group.order}")
        if v.size and (v.min() < 0 or v.max() >= field.q):
            raise ValueError("coefficient index out of field range")
        v.flags.writeable = False
        self.field = field
        self.group = group
        self.vec = v

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: FiniteField, group: Group) -> "AlgebraElement":
        return cls(field, group, np.zeros(group.order, dtype=np.int64))

    @classmethod
    def one(cls, field: FiniteField, group: Group) -> "AlgebraElement":
        return cls.basis(field, group, 0)

    @classmethod
    def basis(cls, field: FiniteField, group: Group, g: int, coeff: int = 1) -> "AlgebraElement":
        v = np.zeros(group.order, dtype=np.int64)
        v[g] = coeff
        return cls(field, group, v)

    @classmethod
    def from_coeff_list(cls, field: FiniteField, group: Group, pairs) -> "AlgebraElement":
        """Build from (element id, coefficient index) pairs, summing duplicates."""
        v = np.zeros(group.order, dtype=np.int64)
        for g, c in pairs:
            v[g] = field.add(int(v[g]), c)
        return cls(field, group, v)

    # -- basics --------------------------------------------------------------

    def _same_context(self, other: "AlgebraElement") -> None:
        if self.field != other.field or self.group != other.group:
            raise ValueError("mismatched group algebra contexts")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.field == other.field
            and self.group == other.group
            and np.array_equal(self.vec, other.vec)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.group, self.vec.tobytes()))

    def key(self) -> tuple[int, ...]:
        """Coefficient tuple, used for deterministic (lexicographic) ordering."""
        return tuple(self.vec.tolist())

    def weight(self) -> int:
        return int(np.count_nonzero(self.vec))

    def coefficient_sum(self) -> int:
        return self.field.vsum(self.vec)

    def to_pairs(self) -> list[tuple[str, int]]:
        support = np.flatnonzero(self.vec)
        return list(zip(map(self.group.labels.__getitem__, support.tolist()), self.vec[support].tolist()))

    def __repr__(self) -> str:
        return _terms_text(self.to_pairs())

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_context(other)
        return AlgebraElement(self.field, self.group, self.field.vadd(self.vec, other.vec))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_context(other)
        return AlgebraElement(self.field, self.group, self.field.vsub(self.vec, other.vec))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.field, self.group, self.field.vneg(self.vec))

    def scale(self, s: int) -> "AlgebraElement":
        return AlgebraElement(self.field, self.group, self.field.vmul(s, self.vec))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return alg_mul(self, other)

    def __pow__(self, e: int) -> "AlgebraElement":
        if e < 0:
            raise ValueError("negative powers not supported")
        out = AlgebraElement.one(self.field, self.group)
        base = self
        while e:
            if e & 1:
                out = alg_mul(out, base)
            base = alg_mul(base, base)
            e >>= 1
        return out


def _terms_text(pairs) -> str:
    """The sum of (label, coefficient) terms as text, a coefficient of 1
    left out: [("a^1", 1), ("a^2", 2)] is "a^1 + 2*a^2", no terms "0"."""
    return " + ".join(label if c == 1 else f"{c}*{label}" for label, c in pairs) or "0"


def alg_mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Convolution product: coefficient of g is sum_h a_h * b_{h^-1 g}."""
    a._same_context(b)
    return AlgebraElement(a.field, a.group, _convolve(a.field, a.group, a.vec, b.vec))


def _convolve(field: FiniteField, group: Group, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The coefficient vector of alg_mul on coefficient vectors a and b."""
    support = np.flatnonzero(a)
    return _linalg.matmul(field, a[support], b[group.left_translation[support]])[0]


def _inverse_size(field: FiniteField, size: int) -> int:
    if size % field.p == 0:
        raise ValueError(f"|N| = {size} is not invertible in {field!r}")
    return field.inv(field.from_int(size))


def hat_subgroup(field: FiniteField, group: Group, subgroup_ids) -> AlgebraElement:
    """The idempotent |N|^-1 sum_{g in N} g for a subgroup N."""
    ids = sorted(set(int(g) for g in subgroup_ids))
    if not is_subgroup(group, ids):
        raise ValueError("ids do not form a subgroup")
    coeff = _inverse_size(field, len(ids))
    v = np.zeros(group.order, dtype=np.int64)
    v[ids] = coeff
    return AlgebraElement(field, group, v)


def hat_group(field: FiniteField, group: Group) -> AlgebraElement:
    """Ghat = n^-1 sum_g g, the constant vector n^-1."""
    return AlgebraElement(field, group, np.full(group.order, _inverse_size(field, group.order), dtype=np.int64))


def is_idempotent(a: AlgebraElement) -> bool:
    return alg_mul(a, a) == a


def is_even_like(a: AlgebraElement) -> bool:
    """True iff the coefficient sum vanishes (equivalently a * Ghat = 0)."""
    return a.coefficient_sum() == 0


def is_central(a: AlgebraElement) -> bool:
    """True iff a commutes with every basis element (hence with everything)."""
    coeffs_left = a.vec[a.group.left_translation]
    coeffs_right = a.vec[a.group.right_translation]
    return bool(np.array_equal(coeffs_left, coeffs_right))


def apply_antiauto(mu: Antiautomorphism, a: AlgebraElement) -> AlgebraElement:
    """mu(sum a_g g) = sum sigma(a_g) mu_star(g)."""
    if mu.group != a.group:
        raise ValueError("antiautomorphism and element live on different groups")
    return AlgebraElement(a.field, a.group, _antiauto_rows(mu, a.field, a.vec))


def _antiauto_rows(mu: Antiautomorphism, field: FiniteField, rows: np.ndarray) -> np.ndarray:
    """mu applied to every coefficient vector of a stack (the last axis
    indexes group elements): one scatter and one vfrobenius."""
    out = np.empty_like(rows)
    out[..., mu.mu_star] = field.vfrobenius(rows, mu.frobenius_power)
    return out


# ---------------------------------------------------------------------------
# centrally primitive idempotents
# ---------------------------------------------------------------------------


class IdempotentSet:
    """The complete set of centrally primitive idempotents of F_q[G], sorted by
    coefficient tuple; ``trivial_index`` locates Ghat, ``partition`` the F_q-classes."""

    def __init__(self, field: FiniteField, group: Group, members, partition=None):
        ms = sorted(members, key=lambda e: e.key())
        self.field = field
        self.group = group
        self.partition = fq_classes(group, field.q) if partition is None else partition
        self.members = tuple(ms)
        ghat = hat_group(field, group)
        try:
            self.trivial_index = ms.index(ghat)
        except ValueError:
            raise VerificationError("trivial idempotent missing from idempotent set") from None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> AlgebraElement:
        return self.members[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IdempotentSet)
            and self.field == other.field
            and self.group == other.group
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.field, self.group, self.members))


def split_primitive_central_idempotents(field: FiniteField, group: Group) -> IdempotentSet:
    """All centrally primitive idempotents of F_q[G], split in F_q-class coordinates.

    With gcd(|G|, q) = 1, the q-th power of a class sum is the class sum of
    the q-th powers (x -> x^p is additive modulo [A, A], which meets the
    center only in 0), so the Frobenius-fixed part of the center is spanned
    by the F_q-class sums K_j: a split algebra F_q^r whose elements are
    r-vectors, their values at the class representatives, and in which
    multiplication by K_j is an r x r matrix M_j (`_class_sum_action`).  The
    stack of component units is split by each K_j in one step
    (`_split_units`).  Each idempotent is expanded to length n once, through
    ``partition.class_of``.
    """
    n, q = group.order, field.q
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd(|G|={n}, q={q}) != 1")
    partition = fq_classes(group, q)
    r = len(partition)
    units = np.eye(1, r, dtype=np.int64)
    for j in range(1, r):
        if len(units) == r:
            break
        units = _split_units(field, units, _class_sum_action(field, partition, j))
    if len(units) != r:
        raise VerificationError(f"splitting produced {len(units)} components, expected {r}")
    members = [AlgebraElement(field, group, v) for v in units[:, partition.class_of]]
    return IdempotentSet(field, group, members, partition)


def _scalar_rows(field: FiniteField, units: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Mask of the nonzero rows u whose product is lambda u, lambda read at u's first nonzero."""
    rows, lead = np.arange(len(units)), (units != 0).argmax(axis=1)
    lam = field.vmul(products[rows, lead], field.vinv(units[rows, lead]))
    return (products == field.vmul(lam[:, None], units)).all(axis=1)


def _class_sum_action(field: FiniteField, partition: FqClassPartition, j: int):
    """u -> u M_j on stacked r-vectors, M_j[i, k] = #{y in C_j : class(z_k y^-1)
    = i} mod p with z_k the representative of class k: the sum over y in C_j
    of u[class(z_k y^-1)], gathered from the |C_j| x r table of those classes
    for a block of y at a time, at most max(2^15, u.size) entries."""
    group = partition.group
    members = group.inverse[list(partition.classes[j])]
    hits = partition.class_of[group.table[np.array(partition.reps)[None, :], members[:, None]]]

    def times(rows: np.ndarray) -> np.ndarray:
        step = max(1, _linalg._PRODUCT_CELLS // rows.size)
        out = field.vsum(rows[:, hits[:step]], axis=1)
        for i in range(step, len(hits), step):
            out = field.vadd(out, field.vsum(rows[:, hits[i : i + step]], axis=1))
        return out

    return times


def _by_minimal_polynomial(q: int, stack: np.ndarray) -> bool:
    """Whether the k x r stack is split by the minimal polynomial of its sum,
    not x^q - x, whose q k Krylov rows outnumber the 2r + 1 that the sum's
    Krylov rows can need."""
    return q * len(stack) > 2 * stack.shape[1] + 1


def _split_units(field: FiniteField, units: np.ndarray, times) -> np.ndarray:
    """The units (stacked orthogonal idempotents, r-vectors) split by the
    linear map ``times`` (rows -> rows @ M): a unit with u M = lambda u (the
    scalar pre-check) is kept, any other becomes its nonzero parts
    u b(M) / b(lambda), lambda ascending, for the roots lambda of a split
    squarefree f with f(M) = 0 on the moved units and b = f / (x - lambda):
    one product of their table (`lagrange_rows`) with the moved units'
    Krylov stack U, U M, U M^2, ...  f is x^q - x, the product of x - lambda
    over F_q (table ``field._point_projections``, check U M^q = U M), or,
    where `_by_minimal_polynomial`, the minimal polynomial of M on the moved
    units' sum, the lcm of theirs.  Where M is not split squarefree,
    VerificationError names the minimal polynomial of the first moved unit
    it does not split."""
    product = times(units)
    moved = ~_scalar_rows(field, units, product)
    if not moved.any():
        return units
    stack, powers = units[moved], [units[moved], product[moved]]
    by_minimal_polynomial = _by_minimal_polynomial(field.q, stack)
    if by_minimal_polynomial:
        try:
            table = lagrange_rows(field, *_split_values(field, field.vsum(stack, axis=0), times))
        except VerificationError:
            for unit in stack:
                _split_values(field, unit, times)
            raise
    else:
        table = field._point_projections
    while len(powers) < len(table):
        powers.append(times(powers[-1]))
    if not by_minimal_polynomial:  # u M^q = u M iff x^q - x kills u
        for unit in stack[(times(powers[-1]) != powers[1]).any(axis=1)]:
            _split_values(field, unit, times)
    d, (k, r) = len(table), stack.shape
    parts = _linalg.matmul(field, table, np.array(powers[:d]).reshape(d, -1))
    parts = parts.reshape(d, k, r).swapaxes(0, 1).reshape(-1, r)
    return np.vstack([units[~moved], parts[parts.any(axis=1)]])


def _split_values(field: FiniteField, unit: np.ndarray, times) -> tuple[list[int], list[int]]:
    """The minimal polynomial of ``times`` on ``unit`` and its roots, from one
    RREF of the transposed Krylov rows u, u M, ... (grown to 2d + 1 until a
    dependence shows, so d <= 2 takes one).  VerificationError unless it
    splits squarefree, which needs d <= q."""
    limit = min(len(unit), field.q) + 1
    powers, d = [unit], 1
    while d == len(powers) < limit:
        while len(powers) < min(2 * d + 1, limit):
            powers.append(times(powers[-1][None])[0])
        red, pivots = _linalg.rref(field, np.array(powers).T)
        d = len(pivots)
    if d == limit:
        raise VerificationError(f"minimal polynomial of degree > {field.q} is not split squarefree")
    minpoly = field.vneg(red[:, d]).tolist() + [1]
    values = roots(field, minpoly)
    if len(values) != d:
        raise VerificationError(
            f"minimal polynomial {_poly_text(minpoly)} in the fixed subalgebra is not split squarefree"
        )
    return minpoly, values


def _poly_text(coeffs: list[int]) -> str:
    """The polynomial with little-endian coefficients as text, highest term
    first: [1, 1, 1] is "x^2 + x + 1", [0, 0, 1] is "x^2"."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c:
            power = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            terms.append(str(c) if not power else power if c == 1 else f"{c}*{power}")
    return " + ".join(terms)
