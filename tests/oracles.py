"""Independent reference constructions that the tests check the package against.

Nothing here is on a path that the `duadic` CLI or library runs.  Each oracle
takes another route than the code it checks: scalar loops where the package
vectorizes, a polynomial algebra with Rabin's irreducibility test where it
looks for roots in subfields, Cantor-Zassenhaus factoring and characters
where it finds roots by evaluation and splits class sums, a Frobenius kernel
where it works in F_q-class coordinates.  Tests import it the way they import `conftest`;
an oracle that only one test module uses stays in that module.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from string import ascii_lowercase

import numpy as np

from duadic import _linalg
from duadic.algebra import (
    AlgebraElement,
    alg_mul,
    apply_antiauto,
    is_central,
    is_idempotent,
    split_primitive_central_idempotents,
)
from duadic.codes import DEFAULT_ENUM_CAP, coset_min_weight, dual
from duadic.duadic import DuadicPair, SplittingCheck
from duadic.errors import EnumerationCapError, VerificationError
from duadic.gf import FiniteField, _prime_factors, multiplicative_order_mod
from duadic.groups import FqClassPartition, Group, fq_classes, group_product, product_antiauto
from duadic.quantum import SideEvidence

# Fixed seed for the equal-degree splitting step of the factorization, so
# repeated runs pick identical splitting elements.
_FACTOR_SEED = 0x0D7A21C


# ---------------------------------------------------------------------------
# scalar routes: convolution, codewords, weights
# ---------------------------------------------------------------------------


def naive_mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Convolution by scalar field.add and field.mul on indexes (independent route)."""
    field, group = a.field, a.group
    out = [0] * group.order
    ca, cb = a.vec.tolist(), b.vec.tolist()
    for g in range(group.order):
        for h in range(group.order):
            k = group.table[g, h]
            out[k] = field.add(out[k], field.mul(ca[g], cb[h]))
    return AlgebraElement(field, group, out)


@functools.lru_cache(maxsize=None)
def _raw_tables(field: FiniteField) -> tuple[list[list[int]], list[list[int]]]:
    """The q x q add and multiply tables of the indexes, by digit-wise addition mod p and `_raw_mul`."""
    p, q, m = field.p, field.q, field.m
    add = [[sum((a // p**i + b // p**i) % p * p**i for i in range(m)) for b in range(q)] for a in range(q)]
    mul = [[_raw_mul(p, field.modulus or (0, 1), a, b) for b in range(q)] for a in range(q)]  # GF(p): nothing to reduce
    return add, mul


def naive_codewords(field, gen):
    """All words of the row space, folded one scalar multiply at a time."""
    add, mul = _raw_tables(field)
    gen = np.asarray(gen, dtype=np.int64)
    k, n = gen.shape
    rows = gen.tolist()
    for message in itertools.product(range(field.q), repeat=k):
        word = [0] * n
        for m_i, row in zip(message, rows):
            if m_i:
                word = [add[w][mul[m_i][r]] for w, r in zip(word, row)]
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


def reference_combination_table(field, rows, n):
    """All q^len(rows) combinations of the rows in message-rank order (the
    last row most significant), reduced by one field addition per row."""
    table = np.zeros((1, n), dtype=np.int64)
    for r in rows:
        multiples = field.vmul(np.arange(field.q, dtype=np.int64)[:, None], r.reshape(1, -1))
        table = field.vadd(multiples[:, None], table[None]).reshape(-1, n)
    return table


def reference_blocks(field, gen, offset, block_words=1 << 14):
    """Blocks of offset + span(gen), covering each word once, in the order
    `codes.coset_min_weight` scans them: the last rows, as many as fill a
    block, make a combination table, and the others step through in
    odometer order, each word built with field additions."""
    k, n = gen.shape if gen.size else (0, len(offset))
    q = field.q
    t = 0
    while t < k and q ** (t + 1) <= block_words:
        t += 1
    block = reference_combination_table(field, gen[k - t :] if k else gen, n)
    prefix = gen[: k - t]
    for message in itertools.product(range(q), repeat=k - t):
        base = offset
        for c, row in zip(message, prefix):
            base = field.vadd(base, field.vmul(np.int64(c), row))
        yield field.vadd(base.reshape(1, -1), block)


def reference_coset_weights(field, gen, offset, block_words=1 << 14):
    """The Hamming weight of every word of offset + span(gen), in the order
    of `reference_blocks` (message rank, the head rows in odometer order
    before the tail ranks), by the full comparison on every column: the word
    tail + head + offset is zero at j exactly where tail[j] equals
    -(head + offset)[j], the negated base built with field additions."""
    gen = np.asarray(gen, dtype=np.int64)
    k, n = gen.shape if gen.size else (0, len(offset))
    q = field.q
    t = 0
    while t < k and q ** (t + 1) <= block_words:
        t += 1
    tails = reference_combination_table(field, gen[k - t :] if k else gen, n)
    weights = []
    for message in itertools.product(range(q), repeat=k - t):
        base = offset
        for c, row in zip(message, gen[: k - t]):
            base = field.vadd(base, field.vmul(np.int64(c), row))
        weights.append((tails != field.vneg(base)).sum(axis=1))
    return np.concatenate(weights)


def reference_difference_min_weight(small, big):
    """Minimum weight over big \\ small with a witness: every word of the
    q^Delta - 1 nonzero cosets, the offsets in rank order and each coset in
    scan order, and the first word of least weight."""
    field, n = big.field, big.n
    small_pivots = set(small.pivots)
    ext = big.gen[[i for i, c in enumerate(big.pivots) if c not in small_pivots]]
    offsets = reference_combination_table(field, ext, n)[1:]
    span = np.vstack(list(reference_blocks(field, small.gen, np.zeros(n, dtype=np.int64))))
    words = field.vadd(offsets[:, None], span[None]).reshape(-1, n)
    weights = np.count_nonzero(words, axis=1)  # no word is zero: every offset lies outside small
    i = int(np.argmin(weights))
    return int(weights[i]), words[i]


def reference_weight_distribution(code):
    counts = np.zeros(code.n + 1, dtype=np.int64)
    zero = np.zeros(code.n, dtype=np.int64)
    for block in reference_blocks(code.field, code.gen, zero):
        counts += np.bincount(np.count_nonzero(block, axis=1), minlength=code.n + 1)
    return counts


# ---------------------------------------------------------------------------
# CSS codes: the generic rules for any nested codes C inside D
# ---------------------------------------------------------------------------


def reference_css_distance(code_c, code_d, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Min weight over (D \\ C) union (C-perp \\ D-perp), every word of each
    difference listed, with both duals from `dual`.  The differences are one
    set when D-perp = C, tested here by comparing the codes, not read from
    a duality case; EnumerationCapError when the words to list exceed cap."""
    q = code_c.field.q
    dual_c, dual_d = dual(code_c), dual(code_d)
    differences = [(code_c, code_d)] + ([] if dual_d == code_c else [(dual_d, dual_c)])
    total = sum(q**big.k - q**small.k for small, big in differences)
    if total > cap:
        raise EnumerationCapError(f"distance enumeration of {total} words exceeds cap {cap}")
    return min(reference_difference_min_weight(small, big)[0] for small, big in differences)


def reference_degeneracy_sides(sides, witnesses, d: int, cap: int = DEFAULT_ENUM_CAP) -> tuple:
    """Words of weight below d in each named code of sides, as `SideEvidence`:
    a code of q^k <= cap words is listed whole, exactly; past the cap the
    evidence is the distinct group translates of each witness of weight
    below d that pass a row-space test of their own, with no use of the
    code being an ideal."""
    out = []
    for name, code in sides:
        if code.field.q**code.k <= cap:
            dist = reference_weight_distribution(code)
            out.append(SideEvidence(name, True, tuple((w, int(dist[w])) for w in range(1, min(d, len(dist))) if dist[w])))
            continue
        found: dict[int, set[bytes]] = {}
        for w in witnesses:
            wt = w.weight()
            if 0 < wt < d:
                found.setdefault(wt, set()).update(t.tobytes() for t in w.vec[w.group.left_translation] if code.contains(t))
        out.append(SideEvidence(name, False, tuple((wt, len(tr)) for wt, tr in sorted(found.items()) if tr)))
    return tuple(out)


# ---------------------------------------------------------------------------
# linear algebra: the loop forms of what _linalg vectorizes
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


def solve_in_span(field: FiniteField, basis: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """Coefficients x with x @ basis = v, or None if v is outside the span:
    one RREF of [basis | I], the identity block recording the row operations."""
    basis = _linalg.as_matrix(basis)
    k, n = basis.shape
    red, pivots = _linalg.rref(field, np.hstack([basis, np.eye(k, dtype=np.int64)]))
    top = sum(c < n for c in pivots)
    w = np.concatenate([v.astype(np.int64), np.zeros(k, dtype=np.int64)])
    w = field.vsub(w, _linalg.matmul(field, w[pivots[:top]], red[:top])[0])
    if np.any(w[:n]):
        return None
    return field.vneg(w[n:])


# ---------------------------------------------------------------------------
# polynomials: the general algebra with Rabin's irreducibility test
# ---------------------------------------------------------------------------


class Polynomial:
    """Univariate polynomial over a FiniteField.

    Coefficients are field-element indexes, little-endian, with no trailing
    zeros; the empty tuple is the zero polynomial.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- basics ----------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    @classmethod
    def zero(cls, field: FiniteField) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field: FiniteField) -> "Polynomial":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: FiniteField) -> "Polynomial":
        return cls(field, (0, 1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({self.field!r}, {self.coeffs})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.degree(), -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xi = "x" if i == 1 else f"x^{i}"
                terms.append(xi if c == 1 else f"{c}*{xi}")
        return " + ".join(terms)

    # -- arithmetic --------------------------------------------------------

    def _same(self, other: "Polynomial") -> None:
        if self.field != other.field:
            raise ValueError("mismatched fields")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._same(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Polynomial(F, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._same(other)
        F = self.field
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] = F.sub(out[i], c)
        return Polynomial(F, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._same(other)
        F = self.field
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(F)
        if len(self.coeffs) + len(other.coeffs) >= 32:
            return Polynomial(F, _np_poly_mul(F, self.coeffs, other.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(other.coeffs):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
        return Polynomial(F, out)

    def scale(self, s: int) -> "Polynomial":
        F = self.field
        return Polynomial(F, [F.mul(s, c) for c in self.coeffs])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return self.scale(self.field.inv(lead))

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._same(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Polynomial.zero(F), self
        if len(self.coeffs) >= 32:
            quot, rem = _np_poly_divmod(F, self.coeffs, other.coeffs)
            return Polynomial(F, quot), Polynomial(F, rem)
        rem = list(self.coeffs)
        quot = [0] * (dq + 1)
        inv_lead = F.inv(other.coeffs[-1])
        for k in range(dq, -1, -1):
            c = F.mul(rem[k + len(other.coeffs) - 1], inv_lead)
            quot[k] = c
            if c:
                for i, oc in enumerate(other.coeffs):
                    if oc:
                        rem[k + i] = F.sub(rem[k + i], F.mul(c, oc))
        return Polynomial(F, quot), Polynomial(F, rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def pow_mod(self, e: int, mod: "Polynomial") -> "Polynomial":
        """self^e mod `mod` (of degree d >= 1) by squaring, on length-d
        coefficient arrays: a product c of two of them reduces to c[:d] +
        c[d:] @ `_reduction_table(mod)`, one field product."""
        F, table = self.field, _reduction_table(mod)
        d = table.shape[1]

        def times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            c = np.array(_np_poly_mul(F, a, b), dtype=np.int64)
            return F.vadd(c[:d], _linalg.matmul(F, c[None, d:], table)[0])

        out, base = np.eye(1, d, dtype=np.int64)[0], np.zeros(d, dtype=np.int64)
        rest = (self % mod).coeffs
        base[: len(rest)] = rest
        while e:
            if e & 1:
                out = times(out, base)
            base = times(base, base)
            e >>= 1
        return Polynomial(F, out.tolist())

    def roots(self) -> list[int]:
        """Distinct roots in the base field, sorted: one vectorized Horner
        pass over all q field elements."""
        F = self.field
        xs = np.arange(F.q, dtype=np.int64)
        acc = np.zeros(F.q, dtype=np.int64)
        for c in reversed(self.coeffs):
            acc = F.vadd(F.vmul(acc, xs), np.int64(c))
        return np.flatnonzero(acc == 0).tolist()

    # -- irreducibility -----------------------------------------------------

    def is_irreducible(self) -> bool:
        """Rabin's test: every irreducible factor of f has degree deg(f)."""
        d = self.degree()
        if d < 1:
            return False
        return d == 1 or _factors_all_of_degree(self.monic(), d)


def _factors_all_of_degree(f: Polynomial, d: int) -> bool:
    """True iff the monic f is squarefree with every irreducible factor of
    degree d: x^(q^d) = x mod f and gcd(x^(q^(d/r)) - x, f) = 1 for each
    prime r dividing d."""
    x = Polynomial.x(f.field)
    # iterated Frobenius: powers[e - 1] = x^(q^e) mod f
    powers = [x.pow_mod(f.field.q, f)]
    for _ in range(d - 1):
        powers.append(powers[-1].pow_mod(f.field.q, f))
    if powers[-1] != x % f:
        return False
    return all((powers[d // r - 1] - x).gcd(f).is_one() for r in _prime_factors(d))


# ---------------------------------------------------------------------------
# vectorized polynomial kernels (large operands)
# ---------------------------------------------------------------------------


def _np_poly_mul(field: FiniteField, a, b) -> list[int]:
    a_arr = np.array(a, dtype=np.int64)
    b_arr = np.array(b, dtype=np.int64)
    if field.m == 1:
        return [int(x) for x in np.convolve(a_arr, b_arr) % field.p]
    p, m = field.p, field.m
    digits = field._digit_table
    da = digits[a_arr]
    db = digits[b_arr]
    wide = np.zeros((len(a) + len(b) - 1, 2 * m - 1), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            wide[:, i + j] += np.convolve(da[:, i], db[:, j])
    wide %= p
    low = wide[:, :m]
    if m > 1:
        low = low + wide[:, m:] @ _modulus_reduction(field)
    low %= p
    powers = p ** np.arange(m, dtype=np.int64)
    return [int(x) for x in low @ powers]


def _np_poly_divmod(field: FiniteField, a, b) -> tuple[list[int], list[int]]:
    rem = np.array(a, dtype=np.int64)
    b_arr = np.array(b, dtype=np.int64)
    db = len(b)
    dq = len(a) - db
    quot = [0] * (dq + 1)
    inv_lead = field.inv(int(b_arr[-1]))
    for k in range(dq, -1, -1):
        c = field.mul(int(rem[k + db - 1]), inv_lead)
        quot[k] = c
        if c:
            rem[k : k + db] = field.vsub(rem[k : k + db], field.vmul(np.int64(c), b_arr))
    return quot, [int(x) for x in rem]


@functools.lru_cache(maxsize=64)
def _reduction_table(mod: Polynomial) -> np.ndarray:
    """Rows i = 0..d-2: the coefficients of x^(d+i) mod `mod`, d = deg mod,
    each row x times the one before with its x^d term folded back by
    x^d = -(monic mod)[:d]."""
    F, d = mod.field, mod.degree()
    low = np.array(mod.monic().coeffs[:d], dtype=np.int64)
    rows = [F.vneg(low)]
    for _ in range(d - 2):
        row = rows[-1]
        rows.append(F.vsub(np.concatenate([[0], row[:-1]]), F.vmul(row[-1], low)))
    return np.array(rows[: d - 1], dtype=np.int64).reshape(d - 1, d)


@functools.lru_cache(maxsize=None)
def _modulus_reduction(field: FiniteField) -> np.ndarray:
    """Rows k = 0..m-2: digit vector of x^(m+k) reduced by the modulus."""
    x = field.p  # index of the element x
    rows = np.zeros((max(field.m - 1, 0), field.m), dtype=np.int64)
    for k in range(field.m - 1):
        rows[k] = field.coeffs_of(field.power(x, field.m + k))
    return rows


def reference_smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p),
    coefficients compared low-degree-first, found by Rabin's test."""
    base = FiniteField(p, 1, None)
    for v in range(p ** (m - 1) if m >= 2 else 0, p**m):
        coeffs = tuple(v // p ** (m - 1 - i) % p for i in range(m)) + (1,)
        if Polynomial(base, coeffs).is_irreducible():
            return coeffs
    raise AssertionError(f"no irreducible of degree {m} over GF({p})")


def _raw_mul(p: int, modulus: tuple[int, ...], a: int, b: int) -> int:
    """Product of two GF(p^m) indexes as coefficient vectors, reduced by the
    modulus term by term."""
    m = len(modulus) - 1
    ca = [a // p**i % p for i in range(m)]
    cb = [b // p**i % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(ca):
        if x:
            for j, y in enumerate(cb):
                prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * m - 2, m - 1, -1):  # x^(m+k) = -sum_i c_i x^(k+i)
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(m):
                prod[k - m + i] = (prod[k - m + i] - c * modulus[i]) % p
    return sum(c * p**i for i, c in enumerate(prod[:m]))


def _raw_pow(p: int, modulus: tuple[int, ...], a: int, e: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = _raw_mul(p, modulus, out, a)
        a = _raw_mul(p, modulus, a, a)
        e >>= 1
    return out


def reference_log_tables(field: FiniteField) -> tuple[list[int], list[int], dict[int, list[int]]]:
    """exp, log and the Frobenius maps {t: [x^(p^t) for x]} of an extension
    field, one scalar product per element: the generator is the smallest
    index whose (q-1)/r-th powers differ from 1 for every prime r | q-1, and
    exp[i + 1] = exp[i] * gen."""
    p, q, modulus = field.p, field.q, field.modulus
    cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
    gen = next(c for c in range(2, q) if all(_raw_pow(p, modulus, c, e) != 1 for e in cofactors))
    exp = [1] * (q - 1)
    log = [0] * q
    acc = 1
    for i in range(q - 1):
        exp[i] = acc
        log[acc] = i
        acc = _raw_mul(p, modulus, acc, gen)
    frobenius = {t: [0] + [exp[log[x] * p**t % (q - 1)] for x in range(1, q)] for t in range(1, field.m)}
    return exp, log, frobenius


# ---------------------------------------------------------------------------
# polynomials: scalar evaluation and Cantor-Zassenhaus factoring
# ---------------------------------------------------------------------------


def evaluate(f: Polynomial, x: int) -> int:
    """f(x) by scalar Horner steps."""
    field = f.field
    acc = 0
    for c in reversed(f.coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def x_pow_minus_one(field: FiniteField, n: int) -> Polynomial:
    if n == 0:
        return Polynomial.zero(field)
    coeffs = [0] * (n + 1)
    coeffs[0] = field.neg(1)
    coeffs[n] = 1
    return Polynomial(field, coeffs)


def equal_degree_factors(f: Polynomial, d: int) -> list[Polynomial]:
    """The monic irreducible factors of f, sorted by coefficients, when f is
    squarefree with every irreducible factor of degree d (checked first;
    ValueError otherwise), split by Cantor-Zassenhaus with `_FACTOR_SEED`."""
    g = f.monic()
    if d < 1 or g.degree() < 1 or g.degree() % d or not _factors_all_of_degree(g, d):
        raise ValueError(f"{f} is not a squarefree product of degree-{d} irreducibles")
    return sorted(_equal_degree_split(g, d, random.Random(_FACTOR_SEED)), key=lambda h: h.coeffs)


def _equal_degree_split(f: Polynomial, d: int, rng: random.Random) -> list[Polynomial]:
    """Cantor-Zassenhaus: factor a monic squarefree product of degree-d irreducibles."""
    F = f.field
    if f.degree() == d:
        return [f]
    q = F.q
    n = f.degree()
    while True:
        h = Polynomial(F, [rng.randrange(q) for _ in range(n)])
        if h.degree() < 1:
            continue
        if F.p == 2:
            # trace map to GF(2): sum of h^(2^i) over the extension degree
            e = d * F.m
            t = h % f
            acc = t
            for _ in range(e - 1):
                t = t.pow_mod(2, f)
                acc = (acc + t) % f
            g = acc.gcd(f)
        else:
            t = h.pow_mod((q**d - 1) // 2, f)
            g = (t - Polynomial.one(F)).gcd(f)
        if 0 < g.degree() < n:
            left = _equal_degree_split(g, d, rng)
            right = _equal_degree_split(f // g, d, rng)
            return left + right


# ---------------------------------------------------------------------------
# groups: the Cayley text format, exponent tuples and ordinary conjugacy classes
# ---------------------------------------------------------------------------


def format_cayley(group: Group) -> str:
    """The Cayley-table text that `groups.parse_cayley_text` reads."""
    lines = [str(group.order)]
    for row in group.table:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def reference_element_tuple(group: Group, g: int) -> tuple[int, ...]:
    """The exponent tuple of id g, one digit at a time from the last factor;
    an id outside [0, n) wraps."""
    out = []
    for n_i in reversed(group.abelian_orders):
        out.append(g % n_i)
        g //= n_i
    return tuple(reversed(out))


def reference_element_id(group: Group, exponents) -> int:
    """The id of an exponent tuple by Horner's rule over the factor orders."""
    g = 0
    for e, n_i in zip(exponents, group.abelian_orders):
        g = g * n_i + e % n_i
    return g


def reference_labels(group: Group) -> tuple[str, ...]:
    """Every id's exponent word, a^1*b^2, from `reference_element_tuple`."""
    return tuple(
        "*".join(f"{x}^{e}" for x, e in zip(ascii_lowercase, reference_element_tuple(group, g)))
        for g in range(group.order)
    )


def reference_right_generators(table) -> list[int]:
    """The greedy generating set of `groups._right_generators`, each subgroup
    closed by right multiplication with the generators alone: one step per
    element of a cyclic group."""
    t = np.asarray(table)
    reached = np.zeros(len(t), dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            hit = np.zeros(len(t), dtype=bool)
            hit[t[np.ix_(frontier, gens)]] = True
            frontier = np.flatnonzero(hit & ~reached)
            reached |= hit
    return gens


def reference_permutation_failure(table) -> str | None:
    """The first kind of line, "row" or "column", of a closed square table
    that is not a permutation, by sorting the whole table; None when every
    line is one."""
    t = np.asarray(table)
    ids = np.arange(len(t))
    if not np.array_equal(np.sort(t, axis=1), np.broadcast_to(ids, t.shape)):
        return "row"
    if not np.array_equal(np.sort(t, axis=0), np.broadcast_to(ids[:, None], t.shape)):
        return "column"
    return None


def reference_associativity_failure(table) -> tuple[int, int, int] | None:
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc), or
    None: every triple, one n x n comparison per a."""
    t = np.asarray(table)
    for a in range(len(t)):
        differ = np.argwhere(t[t[a]] != t[a][t])
        if differ.size:
            return a, int(differ[0, 0]), int(differ[0, 1])
    return None


def reference_antiautomorphism_failure(table, perm) -> tuple[int, int] | None:
    """The first (g, h) in lexicographic order with mu(g*h) != mu(h)*mu(g),
    or None: every pair, one Python comparison each."""
    n = len(table)
    for g in range(n):
        for h in range(n):
            if perm[table[g][h]] != table[perm[h]][perm[g]]:
                return g, h
    return None


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
            for y in (int(group.table[group.table[group.inverse[h], x], h]) for h in range(n)):
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        cls = tuple(sorted(orbit))
        seen[list(cls)] = True
        classes.append(cls)
    return tuple(classes)


def reference_fq_classes(group: Group, q: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], np.ndarray]:
    """(classes, reps, class_of) of the F_q-conjugacy classes, by closing each
    seed under x -> x^q (repeated products) and conjugation by every h."""
    n, table, inv = group.order, group.table, group.inverse
    seen = np.zeros(n, dtype=bool)
    classes = []
    for seed in range(n):
        if seen[seed]:
            continue
        orbit, stack = {seed}, [seed]
        while stack:
            x = stack.pop()
            y = x
            for _ in range(q - 1):
                y = int(table[y, x])
            for z in [y] + table[table[inv, x], np.arange(n)].tolist():
                if z not in orbit:
                    orbit.add(z)
                    stack.append(z)
        cls = tuple(sorted(orbit))
        seen[list(cls)] = True
        classes.append(cls)
    class_of = np.zeros(n, dtype=np.int64)
    for i, cls in enumerate(classes):
        class_of[list(cls)] = i
    return tuple(classes), tuple(cls[0] for cls in classes), class_of


def reference_check_splitting(mu, field: FiniteField, group: Group) -> SplittingCheck:
    """The class criterion one field at a time, on the classes of
    `reference_fq_classes`: mu maps the class of each representative r to
    the class of mu_star(r)^l, l repeated products per class, with l the
    inverse Galois exponent of mu over the field; the check holds when only
    the identity's class, of at least two, is fixed."""
    classes, reps, class_of = reference_fq_classes(group, field.q)
    _, ell = mu.galois_exponents(field.q)
    fixed = []
    for c, r in enumerate(reps):
        x, m = 0, int(mu.mu_star[r])
        for _ in range(ell):
            x = int(group.table[x, m])
        if class_of[x] == c:
            fixed.append(c)
    fixed = tuple(fixed)
    partition = FqClassPartition(group, field.q, class_of, reps)
    return SplittingCheck(fixed == (0,) and len(classes) > 1, fixed, partition)


# ---------------------------------------------------------------------------
# centrally primitive idempotents: structural checks
# ---------------------------------------------------------------------------


def sorted_stack(field: FiniteField, group: Group, vecs) -> np.ndarray:
    """The read-only stack of the coefficient vectors, sorted as Python
    tuples; VerificationError unless Ghat is one of them."""
    rows = sorted(tuple(int(c) for c in vec) for vec in vecs)
    if (field.inv(field.from_int(group.order)),) * group.order not in rows:
        raise VerificationError("trivial idempotent missing from idempotent set")
    stack = np.array(rows, dtype=np.int64).reshape(len(rows), group.order)
    stack.flags.writeable = False
    return stack


def validate_idempotent_set(field: FiniteField, group: Group, stack: np.ndarray) -> None:
    """Exact structural checks of a complete set of centrally primitive
    idempotents, given as `split_primitive_central_idempotents` returns it:
    a read-only int64 stack, rows sorted and Ghat among them; raises
    VerificationError on any failure."""
    if stack.dtype != np.int64 or stack.flags.writeable:
        raise VerificationError("idempotent set is not a read-only int64 stack")
    if not np.array_equal(stack, sorted_stack(field, group, stack)):
        raise VerificationError("idempotent set is not sorted by coefficient tuple")
    members = [AlgebraElement(field, group, row) for row in stack]
    total = AlgebraElement.zero(field, group)
    for e in members:
        if e.weight() == 0:
            raise VerificationError("zero member in idempotent set")
        if not is_idempotent(e):
            raise VerificationError(f"not idempotent: {e!r}")
        if not is_central(e):
            raise VerificationError(f"not central: {e!r}")
        total = total + e
    if total != AlgebraElement.one(field, group):
        raise VerificationError("idempotents do not sum to 1")
    for i, e in enumerate(members):
        for f in members[i + 1 :]:
            prod = alg_mul(e, f)
            if prod.weight() or alg_mul(f, e).weight():
                raise VerificationError("idempotents are not pairwise orthogonal")
    count = len(fq_classes(group, field.q))
    if len(members) != count:
        raise VerificationError(f"{len(members)} idempotents vs {count} F_q-conjugacy classes")


# ---------------------------------------------------------------------------
# duadic pairs: the eleven axioms, pairs from cycles and product pairs
# ---------------------------------------------------------------------------


def reference_pair_axioms(e: AlgebraElement, f: AlgebraElement, mu) -> list[str]:
    """Names of the violated duadic-pair axioms, all eleven checked one by
    one: scalar convolution, mu applied one coefficient at a time, and Ghat
    and the coefficient sums from scalar field arithmetic."""
    field, group = e.field, e.group
    n_inv = field.inv(field.from_int(group.order))
    ghat = AlgebraElement(field, group, [n_inv] * group.order)
    one = AlgebraElement.basis(field, group, 0)
    power = field.p ** (mu.frobenius_power % field.m)

    def apply(a: AlgebraElement) -> AlgebraElement:
        out = [0] * group.order
        for g, c in enumerate(a.vec.tolist()):
            out[mu.mu_star[g]] = field.power(c, power)
        return AlgebraElement(field, group, out)

    def even_like(a: AlgebraElement) -> bool:
        return functools.reduce(field.add, a.vec.tolist(), 0) == 0

    def vanishes(a: AlgebraElement, b: AlgebraElement) -> bool:
        return naive_mul(a, b).weight() == 0

    checks = [
        ("e idempotent", naive_mul(e, e) == e),
        ("f idempotent", naive_mul(f, f) == f),
        ("e even-like", even_like(e)),
        ("f even-like", even_like(f)),
        ("A1: e + f = 1 - Ghat", e + f == one - ghat),
        ("A2: mu(e) = f", apply(e) == f),
        ("A2: mu(f) = e", apply(f) == e),
        ("e*f = 0", vanishes(e, f)),
        ("f*e = 0", vanishes(f, e)),
        ("e*Ghat = 0", vanishes(e, ghat)),
        ("f*Ghat = 0", vanishes(f, ghat)),
    ]
    return [name for name, ok in checks if not ok]


def reference_pairs_from_cycles(mu, field: FiniteField, group: Group, mode: str = "canonical") -> list:
    """The duadic pairs `construct_pairs` gives, by `AlgebraElement` sums:
    the two halves of each cycle of mu on the nontrivial idempotents summed
    one idempotent at a time, then canonical mode's sum of the even halves,
    or enumerate-all's sum for every phase choice but the first cycle's,
    e <-> f swapped by coefficient tuple and the pairs sorted.  The cell
    must split with cycles of even length."""
    members = [AlgebraElement(field, group, row) for row in split_primitive_central_idempotents(field, group)]
    perm = [members.index(apply_antiauto(mu, h)) for h in members]
    zero = AlgebraElement.zero(field, group)
    ghat = AlgebraElement(field, group, [field.inv(field.from_int(group.order))] * group.order)
    done = {members.index(ghat)}
    halves = []
    for start in range(len(members)):
        if start in done:
            continue
        cycle = [start]
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
        done.update(cycle)
        halves.append(tuple(sum((members[i] for i in cycle[phase::2]), zero) for phase in (0, 1)))
    if mode == "canonical":
        e, f = (sum((half[phase] for half in halves), zero) for phase in (0, 1))
        return [DuadicPair(field, group, e, f, mu)]
    pairs = []
    for choice in itertools.product((0, 1), repeat=len(halves) - 1):
        phases = (0, *choice)
        e, f = (sum((half[phase ^ flip] for half, phase in zip(halves, phases)), zero) for flip in (0, 1))
        if e.vec.tolist() > f.vec.tolist():
            e, f = f, e
        pairs.append(DuadicPair(field, group, e, f, mu))
    pairs.sort(key=lambda p: p.e.vec.tolist())
    return pairs


def reference_product_duadic(pair1: DuadicPair, pair2: DuadicPair) -> DuadicPair:
    """The product pair by group-algebra products on G1 x G2: e1, f1 on the
    ids g1 * n2 and e2, f2 on the ids g2 embedded, e = e1 + e2 - e1 e2 - f1 e2
    and f = f1 + f2 - f1 f2 - e1 f2, and as witnesses each embedded e1, f1,
    e2, f2 and factor witness that e or f fixes, first occurrences in order."""
    field = pair1.field
    product = group_product(pair1.group, pair2.group)

    def embed(a: AlgebraElement, ids) -> AlgebraElement:
        vec = np.zeros(product.order, dtype=np.int64)
        vec[ids] = a.vec
        return AlgebraElement(field, product, vec)

    left, right = np.s_[:: pair2.group.order], np.s_[: pair2.group.order]
    e1, f1 = embed(pair1.e, left), embed(pair1.f, left)
    e2, f2 = embed(pair2.e, right), embed(pair2.f, right)
    e = e1 + e2 - alg_mul(e1, e2) - alg_mul(f1, e2)
    f = f1 + f2 - alg_mul(f1, f2) - alg_mul(e1, f2)
    candidates = [e1, f1, e2, f2]
    candidates += [embed(w, left) for w in pair1.witnesses]
    candidates += [embed(w, right) for w in pair2.witnesses]
    witnesses, seen = [], set()
    for w in candidates:
        if (alg_mul(e, w) == w or alg_mul(f, w) == w) and w.vec.tobytes() not in seen:
            witnesses.append(w)
            seen.add(w.vec.tobytes())
    mu = product_antiauto(pair1.mu, pair2.mu, product)
    return DuadicPair(field, product, e, f, mu, witnesses=tuple(witnesses))


# ---------------------------------------------------------------------------
# centrally primitive idempotents: the Frobenius-kernel construction, from
# ordinary class sums raised to the q-th power
# ---------------------------------------------------------------------------


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
    """(`sorted_stack` of the idempotents, fixed-center basis): the unit
    split against each fixed-center basis vector through the roots of its
    minimal polynomial, the roots found by scalar evaluation at every field
    element."""
    basis, reps = reference_fixed_center(field, group)
    components = [AlgebraElement.one(field, group)]
    for row in basis:
        b = AlgebraElement(field, group, row)
        components = [part for unit in components for part in _reference_refine(field, reps, unit, b)]
    return sorted_stack(field, group, [c.vec for c in components]), basis


def _reference_refine(field, reps, unit, b):
    c = b * unit
    rows, power = [unit.vec[reps]], c
    while (sol := solve_in_span(field, np.array(rows), power.vec[reps])) is None:
        rows.append(power.vec[reps])
        power = power * c
    minpoly = Polynomial(field, [field.neg(int(x)) for x in sol] + [1])
    roots = [x for x in range(field.q) if evaluate(minpoly, x) == 0]
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


# ---------------------------------------------------------------------------
# centrally primitive idempotents: characters (abelian groups)
# ---------------------------------------------------------------------------


def _natural_abelian_basis(group: Group) -> tuple[list[int], list[int]]:
    orders = group.abelian_orders
    gens = []
    for i in range(len(orders)):
        gens.append(group.element_id([1 if j == i else 0 for j in range(len(orders))]))
    return gens, list(orders)


def _abelian_basis_from_table(group: Group) -> tuple[list[int], list[int]]:
    """Greedy cyclic decomposition of an abelian group given only by its table.

    Works prime by prime: within the p-part, repeatedly take the element of
    maximal order modulo the span and adjust it to a direct generator.
    """
    n = group.order
    orders = group.element_orders
    gens: list[int] = []
    gen_orders: list[int] = []
    for p in _prime_factors(n):
        part = [g for g in range(n) if _is_p_power(int(orders[g]), p)]
        span = {0}
        span_tuples = {0: ()}
        local: list[tuple[int, int]] = []  # (gen, order) for this prime
        while len(span) < len(part):
            best_g, best_d = -1, 0
            for g in part:
                if g in span:
                    continue
                d = _quotient_order(group, g, span)
                if d > best_d:
                    best_g, best_d = g, d
            g, d = best_g, best_d
            excess = group.power(g, d)
            exps = span_tuples[excess]
            adjust = 0
            for (bg, bord), c in zip(local, exps):
                if c % d != 0:
                    raise VerificationError("abelian basis adjustment failed")
                adjust = int(group.table[adjust, group.power(bg, (c // d) % bord)])
            g = int(group.table[g, group.inverse[adjust]])
            if group.power(g, d) != 0:
                raise VerificationError("adjusted generator has wrong order")
            local.append((g, d))
            new_span = {}
            for h, tup in span_tuples.items():
                acc = h
                for j in range(d):
                    new_span[acc] = tup + (j,)
                    acc = int(group.table[acc, g])
            span_tuples = new_span
            span = set(span_tuples)
        gens.extend(g for g, _ in local)
        gen_orders.extend(d for _, d in local)
    return gens, gen_orders


def _is_p_power(k: int, p: int) -> bool:
    while k % p == 0:
        k //= p
    return k == 1


def _quotient_order(group: Group, g: int, span: set[int]) -> int:
    d = 1
    x = g
    while x not in span:
        x = int(group.table[x, g])
        d += 1
    return d


def _element_exponents(group: Group, gens: list[int], gen_orders: list[int]) -> np.ndarray:
    """Matrix E with row g = the exponent tuple of g over the given basis."""
    n = group.order
    exps = np.zeros((n, len(gens)), dtype=np.int64)
    ids: dict[int, tuple[int, ...]] = {}

    def rec(i: int, acc: int, tup: tuple[int, ...]):
        if i == len(gens):
            if acc in ids:
                raise VerificationError("abelian basis is not a direct decomposition")
            ids[acc] = tup
            exps[acc] = tup
            return
        x = acc
        for e in range(gen_orders[i]):
            rec(i + 1, x, tup + (e,))
            x = int(group.table[x, gens[i]])

    rec(0, 0, ())
    if len(ids) != n:
        raise VerificationError("abelian basis does not enumerate the group")
    return exps


def abelian_character_idempotents(field: FiniteField, group: Group) -> np.ndarray:
    """Centrally primitive idempotents of an abelian F_q[G] via characters.

    Characters take values among m-th roots of unity (m the exponent), which
    live in GF(q^s) realized as F_q[y]/(h) for a deterministic irreducible
    factor h of y^m - 1 with roots of order exactly m.  Galois orbits of
    characters are summed and every resulting coefficient is checked to land
    in the base field.  Returns their `sorted_stack`.
    """
    if not group.is_abelian:
        raise ValueError("character construction requires an abelian group")
    n = group.order
    q = field.q
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd(|G|={n}, q={q}) != 1")
    if n == 1:
        return sorted_stack(field, group, [AlgebraElement.one(field, group).vec])
    if group.abelian_orders is not None:
        gens, gen_orders = _natural_abelian_basis(group)
    else:
        gens, gen_orders = _abelian_basis_from_table(group)
    exps = _element_exponents(group, gens, gen_orders)
    m = group.exponent
    s = multiplicative_order_mod(q, m)
    h = _primitive_root_factor(field, m)

    # delta^j mod h as rows of field indexes
    powers = np.zeros((m, s), dtype=np.int64)
    y = Polynomial.x(field)
    acc = Polynomial.one(field)
    for j in range(m):
        for i, ci in enumerate(acc.coeffs):
            powers[j, i] = ci
        acc = (acc * y) % h

    orders_arr = np.array(gen_orders, dtype=np.int64)
    weights = np.array([m // d for d in gen_orders], dtype=np.int64)
    inv_n = field.inv(field.from_int(n))

    # character u-tuples share the mixed-radix id space of the basis orders;
    # Galois orbits are closures under u -> q*u componentwise
    tuples = np.zeros((n, len(gens)), dtype=np.int64)
    rest = np.arange(n)
    for i in range(len(gens) - 1, -1, -1):
        tuples[:, i] = rest % orders_arr[i]
        rest = rest // orders_arr[i]
    seen = np.zeros(n, dtype=bool)
    members = []
    for seed in range(n):
        if seen[seed]:
            continue
        orbit = []
        cur = seed
        while not seen[cur]:
            seen[cur] = True
            orbit.append(tuples[cur])
            cur = _tuple_id((q * tuples[cur]) % orders_arr, orders_arr)
        counts = np.zeros((n, m), dtype=np.int64)
        for u in orbit:
            phases = (-(exps @ (weights * u))) % m
            counts[np.arange(n), phases] += 1
        counts %= field.p
        values = _linalg.matmul(field, counts, powers)
        if np.any(values[:, 1:]):
            raise VerificationError(
                "character-orbit sum left the base field; internal error"
            )
        coeff = field.vmul(np.int64(inv_n), values[:, 0])
        members.append(AlgebraElement(field, group, coeff).vec)
    return sorted_stack(field, group, members)


def _tuple_id(u: np.ndarray, orders: np.ndarray) -> int:
    g = 0
    for e, o in zip(u.tolist(), orders.tolist()):
        g = g * o + e % o
    return g


@functools.lru_cache(maxsize=512)
def _primitive_root_factor(field: FiniteField, m: int) -> Polynomial:
    """Deterministic irreducible factor of y^m - 1 whose roots have order m:
    the cyclotomic polynomial Phi_m, left when y^m - 1 loses its common
    factor with y^(m/r) - 1 for each prime r | m, split in degree ord_m(q);
    cached, since every abelian group of exponent m repeats the split."""
    phi = x_pow_minus_one(field, m)
    for r in _prime_factors(m):
        phi = phi // phi.gcd(x_pow_minus_one(field, m // r))
    return equal_degree_factors(phi, multiplicative_order_mod(field.q, m))[0]
