"""Exact arithmetic in GF(p^m), its deterministic moduli, and polynomial roots.

Field elements are encoded as integer indexes: the element with coefficient
vector (c_0, ..., c_{m-1}) over the prime field (little-endian in the root of
the modulus) has index sum(c_i * p^i).  Index 0 is zero and index 1 is one.
All operations work on indexes.  Multiplication in extension fields goes
through discrete log/antilog tables, built lazily once per field.

A polynomial is a plain little-endian sequence of coefficient indexes, with no
arithmetic of its own: `roots` evaluates one at every element of a field,
`lagrange_rows` divides one by x - lambda for each of its roots, and the
modulus of GF(p^m) is the lex-smallest monic degree-m polynomial over
GF(p) with no root in any GF(p^d), d <= m/2.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

FIELD_ORDER_CAP = 1 << 16


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == (n,)


def multiplicative_order_mod(q: int, n: int) -> int:
    """Smallest t >= 1 with q^t = 1 (mod n); 1 when n == 1.  The loop takes up to n
    steps, so n is capped at FIELD_ORDER_CAP."""
    q, n = as_int(q, "q"), as_int(n, "modulus", lo=1, hi=FIELD_ORDER_CAP)
    if math.gcd(q, n) != 1:
        raise ValueError(f"gcd({q}, {n}) != 1; multiplicative order undefined")
    if n == 1:
        return 1
    acc = q % n
    t = 1
    while acc != 1:
        acc = (acc * q) % n
        t += 1
    return t


def as_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """A count, order, exponent or cap as a Python int; ValueError unless a Python or
    numpy integer (a bool is a flag, not a number), at least lo and at most the cap hi."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{name} {value} exceeds the cap {hi}")
    return value


def as_indexes(values, below: int | None = None, name: str = "index") -> np.ndarray:
    """Ids or field indexes as int64, an int64 array as it is; ValueError unless integers
    (a bool array is a 0/1 matrix, a lone bool a flag) and, given below, in [0, below)."""
    raw = np.asarray(values)
    if raw.dtype.kind not in ("biu" if raw.ndim else "iu") and raw.size:
        raise ValueError(f"indexes must be integers, got {raw.dtype} entries")
    arr = raw.astype(np.int64, copy=False)
    if below is not None and arr.size and arr.view(np.uint64).max() >= below:  # a negative index wraps past below
        raise ValueError(f"{name} {raw[arr.view(np.uint64) >= below].flat[0]} out of range [0, {below})")
    return arr


class FiniteField:
    """Arithmetic context for GF(p^m).

    Use :func:`field_make` to construct one, with the lex-smallest modulus
    that a modulus of None stands for; the constructor checks p, m and the
    modulus it is given.  Two fields with equal (p, m, modulus) compare equal
    and their elements interoperate.

    The vector kernels take indexes as numpy arrays, 0-d arrays or numpy
    scalars of any integer type and return int64 indexes (`vsum` over every
    axis: a Python int); on Python ints they use Python arithmetic.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None):
        p = as_int(p, "characteristic")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        m = as_int(m, "extension degree", lo=1)
        if p ** min(m, FIELD_ORDER_CAP.bit_length()) > FIELD_ORDER_CAP:  # p >= 2: no p**m for a huge m
            raise ValueError(f"field order {p}^{m} exceeds the cap {FIELD_ORDER_CAP}")
        if m == 1:
            if modulus is not None:
                raise ValueError("prime fields carry no modulus")
        else:
            modulus = _smallest_irreducible(p, m) if modulus is None else modulus
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("extension fields need a monic degree-m modulus")
            modulus = tuple(int(c) % p for c in modulus)
            if not _is_irreducible(p, modulus):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        self._key = (p, m, modulus)
        self._frob_maps: dict[int, np.ndarray] = {}

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteField) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    # -- element encoding ----------------------------------------------

    def _index(self, a) -> int:
        """The index a of a scalar op, checked by `as_indexes` unless an int in [0, q)."""
        return a if type(a) is int and 0 <= a < self.q else int(as_indexes(a, self.q))

    def coeffs_of(self, a: int) -> tuple[int, ...]:
        """Little-endian coefficient vector of the element with index a."""
        a = self._index(a)
        return tuple(a // self.p**i % self.p for i in range(self.m))

    def from_int(self, n: int) -> int:
        """Index of the prime-subfield element n mod p."""
        return as_int(n, "n") % self.p

    # -- scalar arithmetic on indexes: the vector kernels on one checked index

    def add(self, a: int, b: int) -> int:
        return int(self.vadd(self._index(a), self._index(b)))

    def neg(self, a: int) -> int:
        return int(self.vneg(self._index(a)))

    def sub(self, a: int, b: int) -> int:
        return int(self.vsub(self._index(a), self._index(b)))

    @cached_property
    def _log_exp(self) -> tuple[np.ndarray, np.ndarray]:
        """The (log, exp) tables of an extension field, built on first use
        (prime fields multiply mod p and never read them), from the powers
        of the generator, the smallest index of multiplicative order q - 1.
        y -> c*y is the m x m matrix over GF(p) whose row j is the
        coefficient vector of c x^j, so the digit rows of gen^0, ...,
        gen^(q-2) come from log2(q) doublings block -> [block; block @
        G^len(block)], and log is their scatter."""
        p, m, q = self.p, self.m, self.q
        times_x = np.eye(m, k=1, dtype=np.int64)
        times_x[-1] = np.negative(self.modulus[:m]) % p  # x^m = -sum_i c_i x^i

        def times(c: int) -> np.ndarray:
            rows = [np.array(self.coeffs_of(c))]
            for _ in range(m - 1):
                rows.append(rows[-1] @ times_x % p)
            return np.array(rows)

        def power_is_one(mat: np.ndarray, e: int) -> bool:
            acc = one = np.eye(m, dtype=np.int64)
            while e:
                if e & 1:
                    acc = acc @ mat % p
                mat = mat @ mat % p
                e >>= 1
            return bool(np.array_equal(acc, one))

        cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
        gen = next(c for c in range(2, q) if not any(power_is_one(times(c), e) for e in cofactors))
        block, step = np.eye(1, m, dtype=np.int64), times(gen)  # the digits of gen^0 = 1
        while len(block) < q - 1:
            block = np.vstack([block, block @ step % p])
            step = step @ step % p
        period = q - 1
        # no modulo or zero test on the vector paths: log[0] = 2(q-1), exp
        # runs two periods and is 0 from 2(q-1) on; `power` skips 0, `_inverses` reads 0 from the end
        exp = np.zeros(4 * period + 1, dtype=np.int64)
        exp[:period] = exp[period : 2 * period] = self._pack_digits(block[:period])
        log = np.full(q, 2 * period, dtype=np.int64)
        log[exp[:period]] = np.arange(period)
        return log, exp

    def mul(self, a: int, b: int) -> int:
        return int(self.vmul(self._index(a), self._index(b)))

    def inv(self, a: int) -> int:
        return int(self.vinv(self._index(a)))

    def power(self, a: int, e: int) -> int:
        """a^e for integer e >= 0 (e < 0 rejected; invert explicitly)."""
        a, e = self._index(a), as_int(e, "exponent", lo=0)
        if self.m == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 0 if e else 1
        log, exp = self._log_exp
        return int(exp[int(log[a]) * e % (self.q - 1)])

    def frobenius(self, a: int, t: int = 1) -> int:
        """a^(p^t)."""
        return int(self.vfrobenius(self._index(a), t))

    # -- vectorized arithmetic on numpy index arrays ----------------------

    @cached_property
    def _digit_table(self) -> np.ndarray:
        """Row a: the m base-p digits of the index a, little-endian."""
        idx = np.arange(self.q, dtype=np.int64)
        digits = np.empty((self.q, self.m), dtype=np.int64)
        for i in range(self.m):
            digits[:, i] = idx % self.p
            idx = idx // self.p
        return digits

    @cached_property
    def _float_digits(self) -> dict[type, tuple[np.ndarray, ...]]:
        """For exact BLAS products of digits, in float32 and in float64: the
        digit planes (m, q) and the digit table (q, m), the powers p^i that
        pack a digit row, and the (m, m, m) shifts whose row j of matrix i
        is the digits of x^(i+j), so a digit row d times matrix i is the
        digits of x^i d (unreduced)."""
        x = self.p ** np.arange(self.m)  # the index of x^i
        tables = (self._digit_table.T, self._digit_table, x, self._digit_table[self.vmul(x[:, None], x)])
        return {t: tuple(np.ascontiguousarray(a, dtype=t) for a in tables) for t in (np.float32, np.float64)}

    @cached_property
    def _inverses(self) -> np.ndarray:
        """Index a -> a^-1, with 0 -> 0: by pow in a prime field, else exp[-log a]."""
        if self.m == 1:
            return np.array([0] + [pow(i, -1, self.p) for i in range(1, self.p)], dtype=np.int64)
        log, exp = self._log_exp
        return exp[self.q - 1 - log]  # log[0] = 2(q-1) reads a zero of exp from its end

    @cached_property
    def _point_projections(self) -> np.ndarray:
        """Row lambda: 1 - (x - lambda)^(q-1) = -(x^q - x)/(x - lambda), 1 at
        lambda and 0 elsewhere (`lagrange_rows` of x^q - x), q x q."""
        return lagrange_rows(self, [0, self.neg(1)] + [0] * (self.q - 2) + [1], np.arange(self.q))

    @cached_property
    def _byte_products(self) -> np.ndarray:
        """The q x q table a * b in uint8, for q <= 256."""
        idx = np.arange(self.q)
        return self.vmul(idx[:, None], idx).astype(np.uint8)

    @cached_property
    def _byte_differences(self) -> np.ndarray:
        """The q x q table a - b in uint8, for q <= 256."""
        idx = np.arange(self.q)
        return self.vsub(idx[:, None], idx).astype(np.uint8)

    def _pack_digits(self, digits: np.ndarray) -> np.ndarray:
        powers = self.p ** np.arange(self.m, dtype=np.int64)
        return digits @ powers

    @staticmethod
    def _wide(a):
        """Numpy indexes of any type but int64 as int64; Python ints as they are."""
        return a if isinstance(a, int) or a.dtype == np.int64 else a.astype(np.int64)

    def vadd(self, a: np.ndarray, b) -> np.ndarray:
        if self.m == 1:
            return (self._wide(a) + self._wide(b)) % self.p
        if self.p == 2:
            return self._wide(a) ^ self._wide(b)
        d = self._digit_table
        return self._pack_digits((d[a] + d[b]) % self.p)

    def vneg(self, a: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (-self._wide(a)) % self.p
        if self.p == 2:
            return np.array(a, dtype=np.int64) if isinstance(a, np.ndarray) else self._wide(a)
        d = self._digit_table
        return self._pack_digits((-d[a]) % self.p)

    def vsub(self, a: np.ndarray, b) -> np.ndarray:
        if self.m == 1:
            return (self._wide(a) - self._wide(b)) % self.p
        if self.p == 2:
            return self._wide(a) ^ self._wide(b)
        d = self._digit_table
        return self._pack_digits((d[a] - d[b]) % self.p)

    def vmul(self, a: np.ndarray, b) -> np.ndarray:
        if self.m == 1:
            return (self._wide(a) * self._wide(b)) % self.p
        log, exp = self._log_exp
        return exp[log[a] + log[b]]

    def vinv(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a)
        if not a.all():
            raise ZeroDivisionError(f"inversion of zero in {self!r}")
        return self._inverses[a]

    def vfrobenius(self, a: np.ndarray, t: int = 1) -> np.ndarray:
        """Vectorized a^(p^t) via a cached permutation of indexes, exp[p^t log a]."""
        t = as_int(t, "frobenius power") % self.m
        if t == 0:
            return np.asarray(a, dtype=np.int64)
        if t not in self._frob_maps:
            log, exp = self._log_exp
            frob = exp[log * self.p**t % (self.q - 1)]
            frob[0] = 0
            self._frob_maps[t] = frob
        return self._frob_maps[t][np.asarray(a)]

    def vsum(self, a: np.ndarray, axis=None):
        """Field sum of an index array along an axis (None = total).

        Axis indexes the input array; it must be non-negative.
        """
        arr = np.asarray(a, dtype=np.int64)
        if self.m == 1:
            out = np.sum(arr, axis=axis) % self.p
        elif self.p == 2:  # addition in GF(2^m) is XOR
            out = np.bitwise_xor.reduce(arr, axis=axis)
        else:
            d = self._digit_table
            digits = d[arr].reshape(-1, self.m).sum(axis=0) if axis is None else d[arr].sum(axis=axis)
            out = self._pack_digits(digits % self.p)
        return int(out) if axis is None else out


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


# ---------------------------------------------------------------------------
# roots and modulus selection
# ---------------------------------------------------------------------------


def roots(field: FiniteField, coeffs) -> list[int]:
    """Distinct roots in `field` of the polynomial with little-endian
    coefficients `coeffs` (field indexes), sorted: one vectorized Horner pass
    over all q field elements."""
    xs = np.arange(field.q, dtype=np.int64)
    acc = np.zeros(field.q, dtype=np.int64)
    for c in reversed(coeffs):
        acc = field.vadd(field.vmul(acc, xs), c)
    return np.flatnonzero(acc == 0).tolist()


def lagrange_rows(field: FiniteField, coeffs, values) -> np.ndarray:
    """Row i: b / b(values[i]) for b = f / (x - values[i]), f monic with
    coefficients `coeffs` and distinct roots `values`, one per degree (1 at
    values[i], 0 at the other roots): synthetic division for all at once."""
    values = np.asarray(values, dtype=np.int64)
    b = at = np.ones(len(values), dtype=np.int64)
    quotients = [b]
    for c in coeffs[-2:0:-1]:
        b = field.vadd(c, field.vmul(values, b))
        at = field.vadd(field.vmul(at, values), b)
        quotients.append(b)
    return field.vmul(np.array(quotients[::-1]).T, field.vinv(at)[:, None])


def _is_irreducible(p: int, coeffs: tuple[int, ...]) -> bool:
    """Whether the monic polynomial over GF(p) with little-endian coefficients
    `coeffs` is irreducible.  Of degree m, it is reducible iff it has a factor
    of degree d <= m/2, that is a root in GF(p^d), where its coefficients are
    the prime-subfield indexes 0..p-1; d < m ends the recursion through
    `field_make`."""
    return not any(roots(field_make(p, d), coeffs) for d in range(1, (len(coeffs) - 1) // 2 + 1))


@lru_cache(maxsize=None)
def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m >= 2 over GF(p).

    Coefficient vectors (c_0, ..., c_{m-1}) are compared low-degree-first.
    The constant term of an irreducible of degree >= 2 is nonzero, so the
    scan starts at c_0 = 1; every degree has an irreducible, so it ends.
    """
    candidates = (tuple(v // p ** (m - 1 - i) % p for i in range(m)) + (1,) for v in range(p ** (m - 1), p**m))
    return next(c for c in candidates if _is_irreducible(p, c))


@lru_cache(maxsize=None, typed=True)  # typed: field_make(2, 2.0) is refused, not a hit
def field_make(p: int, m: int) -> FiniteField:
    """Construct GF(p^m) with the deterministic (lex-smallest) modulus."""
    return FiniteField(p, m, None)


def field_from_order(q: int) -> FiniteField:
    """GF(q) for a prime power q."""
    q = as_int(q, "field order", hi=FIELD_ORDER_CAP)  # before trial division, which a large prime q would stall
    for p in _prime_factors(q):
        m = 0
        n = q
        while n % p == 0:
            n //= p
            m += 1
        if n == 1:
            return field_make(p, m)
    raise ValueError(f"{q} is not a prime power")
