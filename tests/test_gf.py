"""Field construction (moduli against Rabin's test), arithmetic, roots, the
oracle polynomial algebra (irreducibility, equal-degree factoring), orders."""

from __future__ import annotations

import functools
import random
import re

import numpy as np
import pytest

from duadic.gf import (
    FIELD_ORDER_CAP,
    FiniteField,
    _is_irreducible,
    field_from_order,
    field_make,
    is_prime,
    lagrange_rows,
    multiplicative_order_mod,
    roots,
)

from oracles import (
    Polynomial,
    _raw_mul,
    equal_degree_factors,
    evaluate,
    reference_log_tables,
    reference_smallest_irreducible,
)

ALL_PRIME_POWERS_256 = sorted(
    p**m
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
              71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
              149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
              227, 229, 233, 239, 241, 251]
    for m in range(1, 9)
    if p**m <= 256
)

# every extension field of order <= 2^10, and the largest binary and ternary
TABLE_FIELDS = [
    (p, m) for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31] for m in range(2, 11) if p**m <= 1 << 10
] + [(2, 16), (3, 10)]


def _digitwise(field, a: int, b: int, sign: int = 1) -> int:
    """a + sign * b, digit by digit mod p on the coefficient vectors."""
    pairs = zip(field.coeffs_of(a), field.coeffs_of(b))
    return sum((x + sign * y) % field.p * field.p**i for i, (x, y) in enumerate(pairs))


class TestFieldMake:
    def test_prime_field_has_no_modulus(self):
        f = field_make(2, 1)
        assert (f.p, f.m, f.q) == (2, 1, 2)
        assert f.modulus is None

    def test_gf4_modulus_is_the_unique_irreducible_quadratic(self):
        assert field_make(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1

    def test_gf9_modulus_is_lex_smallest(self):
        # brute scan: monic quadratic c0 + c1 x + x^2 irreducible iff rootless
        candidates = []
        for c0 in range(3):
            for c1 in range(3):
                if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
                    candidates.append((c0, c1, 1))
        assert field_make(3, 2).modulus == min(candidates)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError, match="not prime"):
            field_make(6, 1)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError, match=">= 1"):
            field_make(5, 0)

    def test_rejects_order_above_cap(self):
        with pytest.raises(ValueError, match="cap"):
            field_make(2, 17)
        assert field_make(2, 16).q == FIELD_ORDER_CAP

    def test_deterministic(self):
        a = FiniteField(3, 3, field_make(3, 3).modulus)
        b = field_make(3, 3)
        assert a == b and hash(a) == hash(b)

    def test_rejects_reducible_modulus(self):
        with pytest.raises(ValueError, match="reducible"):
            FiniteField(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
        # rootless over GF(2) but (x^2 + x + 1)^2: the root lies in GF(4)
        with pytest.raises(ValueError, match=re.escape("modulus (1, 0, 1, 0, 1) is reducible over GF(2)")):
            FiniteField(2, 4, (1, 0, 1, 0, 1))

    def test_modulus_matches_rabin_search(self):
        # every extension field under the cap: 93 pairs (p, m) with m >= 2
        pairs = [(p, m) for p in range(2, 257) if is_prime(p) for m in range(2, 17) if p**m <= FIELD_ORDER_CAP]
        assert len(pairs) == 93
        for p, m in pairs:
            assert field_make(p, m).modulus == reference_smallest_irreducible(p, m), (p, m)

    def test_equal_fields_interoperate(self):
        a = FiniteField(2, 2, (1, 1, 1))
        b = field_make(2, 2)
        # x * x = x + 1: index 2 is (0, 1), index 3 is (1, 1)
        assert a.mul(2, 2) == b.mul(2, 2) == 3
        assert np.array_equal(a.vmul(np.arange(4), 2), b.vmul(np.arange(4), 2))

    def test_field_from_order(self):
        assert field_from_order(49) == field_make(7, 2)
        with pytest.raises(ValueError, match="prime power"):
            field_from_order(12)


class TestArithmetic:
    def test_char2_addition(self, gf2):
        assert gf2.add(1, 1) == 0

    def test_gf4_omega_squared(self, gf4):
        omega = 2
        assert gf4.coeffs_of(omega) == (0, 1)
        assert gf4.coeffs_of(gf4.mul(omega, omega)) == (1, 1)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 27])
    def test_inv_one(self, q):
        assert field_from_order(q).inv(1) == 1

    def test_inversion_of_zero(self, gf9):
        with pytest.raises(ZeroDivisionError):
            gf9.inv(0)

    def test_mismatched_fields(self, gf2, gf4):
        with pytest.raises(ValueError, match="mismatched"):
            Polynomial(gf2, (1,)) + Polynomial(gf4, (1,))

    @pytest.mark.parametrize("q", ALL_PRIME_POWERS_256)
    def test_fermat_exhaustive(self, q):
        f = field_from_order(q)
        for a in range(1, q):
            assert f.power(a, q - 1) == 1

    def test_scalar_surface_on_indexes(self, gf9):
        a, b = 2 + 1 * 3, 1 + 1 * 3  # coefficient vectors (2, 1) and (1, 1)
        assert gf9.coeffs_of(gf9.add(a, b)) == (0, 2)
        assert gf9.sub(a, a) == 0
        assert gf9.mul(a, gf9.inv(a)) == 1
        assert gf9.neg(gf9.neg(a)) == a
        assert gf9.power(a, 0) == 1
        assert gf9.coeffs_of(0) == (0, 0)
        assert gf9.coeffs_of(1) == (1, 0)

    def test_frobenius_is_additive(self, gf9):
        for a in range(9):
            for b in range(9):
                s = gf9.frobenius(gf9.add(a, b))
                assert s == gf9.add(gf9.frobenius(a), gf9.frobenius(b))

    @pytest.mark.parametrize("q", [5, 8, 9])
    def test_scalar_ops_return_python_ints(self, q):
        f = field_from_order(q)
        for a, b in [(3, 2), (np.int64(3), np.int64(2))]:
            values = [f.add(a, b), f.neg(a), f.sub(a, b), f.mul(a, b), f.inv(a), f.frobenius(a), f.power(a, 2)]
            assert all(type(v) is int for v in values), (q, values)

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 27, 64])
    def test_vmul_and_vsum_exhaustive(self, q):
        # every product, zero factors included, and sums along each axis
        f = field_from_order(q)
        add, x = functools.partial(_digitwise, f), np.arange(q, dtype=np.int64)
        table = f.vmul(x[:, None], x[None, :])
        assert table.tolist() == [[_raw_mul(f.p, f.modulus, a, b) for b in range(q)] for a in range(q)]
        for axis in (0, 1):
            lines = table.T if axis == 0 else table
            expected = [functools.reduce(add, line, 0) for line in lines.tolist()]
            assert f.vsum(table, axis=axis).tolist() == expected
        assert f.vsum(table) == functools.reduce(add, expected, 0)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1)] + TABLE_FIELDS)
def test_vector_ops_match_oracles(p, m):
    # every pair for q <= 64, else 512 random pairs; vfrobenius is checked
    # against the reference maps in test_log_tables_match_scalar_construction
    f = field_make(p, m)
    if f.q <= 64:
        a, b = (x.ravel() for x in np.meshgrid(np.arange(f.q), np.arange(f.q)))
    else:
        a, b = np.random.default_rng(f.q).integers(0, f.q, (2, 512))
    modulus, pairs = f.modulus or (0, 1), list(zip(a.tolist(), b.tolist()))  # (0, 1): x, for mod-p products
    assert f.vadd(a, b).tolist() == [_digitwise(f, u, v) for u, v in pairs]
    assert f.vsub(a, b).tolist() == [_digitwise(f, u, v, -1) for u, v in pairs]
    assert f.vneg(a).tolist() == [_digitwise(f, 0, u, -1) for u in a.tolist()]
    assert f.vmul(a, b).tolist() == [_raw_mul(p, modulus, u, v) for u, v in pairs]
    nz = a[a != 0]
    assert all(_raw_mul(p, modulus, u, v) == 1 for u, v in zip(nz.tolist(), f.vinv(nz).tolist()))
    assert f.vsum(a) == functools.reduce(functools.partial(_digitwise, f), a.tolist(), 0)


def test_prime_field_kernels_do_not_wrap_unsigned_indexes():
    # computed in the operands' type, these gave [0, 2], 44 and 88
    gf3, gf251 = field_make(3, 1), field_make(251, 1)
    assert gf3.vneg(np.array([1, 2], np.uint8)).tolist() == [2, 1]
    assert gf251.vadd(np.uint8(200), np.uint8(100)) == 49
    assert gf251.vmul(np.uint8(200), np.uint8(3)) == 98


INDEX_TYPES = [np.uint8, np.uint16, np.uint32, np.int16, np.int32, np.int64]
KERNELS = {
    "vadd": lambda f, a, b: f.vadd(a, b),
    "vsub": lambda f, a, b: f.vsub(a, b),
    "vneg": lambda f, a, b: f.vneg(a),
    "vmul": lambda f, a, b: f.vmul(a, b),
    "vinv": lambda f, a, b: f.vinv(b),
    "vfrobenius": lambda f, a, b: f.vfrobenius(a),
    "vsum": lambda f, a, b: f.vsum(np.stack([a, b]), axis=0),
}


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (251, 1), (257, 1), (65521, 1)] + TABLE_FIELDS)
def test_vector_kernels_take_any_integer_type(p, m):
    # arrays, 0-d arrays and numpy scalars of every integer type that holds
    # the indexes give the int64 result of the int64 call
    f = field_make(p, m)
    a, b = np.random.default_rng(f.q).integers(0, f.q, (2, 16))
    a[:2], b[:2] = f.q - 1, [f.q - 1, 1]  # the largest index, where narrow types wrap
    b[b == 0] = 1  # vinv inverts b
    for name, kernel in KERNELS.items():
        expected = kernel(f, a, b)
        for dtype in (t for t in INDEX_TYPES if np.iinfo(t).max >= f.q - 1):
            x, y = a.astype(dtype), b.astype(dtype)
            calls = [(kernel(f, x, y), expected)] + [
                (kernel(f, wrap(x[i]), wrap(y[i])), expected[i])
                for wrap in (np.asarray, dtype)
                for i in range(3)
            ]
            for out, want in calls:
                assert isinstance(out, (np.ndarray, np.generic)) and out.dtype == np.int64, (name, dtype, out)
                assert np.array_equal(out, want), (name, dtype)


@pytest.mark.parametrize("p,m", TABLE_FIELDS)
def test_log_tables_match_scalar_construction(p, m):
    field = field_make(p, m)
    exp, log, frobenius = reference_log_tables(field)
    log_table, exp_table = field._log_exp
    period = field.q - 1
    assert exp_table[:period].tolist() == exp and log_table[1:].tolist() == log[1:]
    # the vector layout: a second period, zeros after it, log[0] pointing into them
    assert np.array_equal(exp_table[period : 2 * period], exp_table[:period])
    assert not exp_table[2 * period :].any() and log_table[0] == 2 * period
    x = np.arange(field.q)
    assert sorted(frobenius) == list(range(1, m))
    for t, images in frobenius.items():
        assert field.vfrobenius(x, t).tolist() == images, t


def test_lazy_tables_are_built_once_per_field():
    for field, names in [
        (FiniteField(3, 2, field_make(3, 2).modulus), ["_log_exp", "_digit_table", "_float_digits"]),
        (FiniteField(7, 1, None), ["_prime_inverses", "_digit_table", "_float_digits"]),
    ]:
        for name in names:
            assert name not in vars(field)
            value = getattr(field, name)
            assert vars(field)[name] is value and getattr(field, name) is value, (field, name)


def test_prime_fields_never_build_log_tables():
    field, x = FiniteField(7, 1, None), np.arange(7)
    assert field.mul(3, 5) == 1 and field.inv(3) == 5 and field.power(3, 6) == 1
    assert field.frobenius(3) == 3 and field.vfrobenius(x).tolist() == x.tolist()
    assert field.vmul(x, x).tolist() == [0, 1, 4, 2, 2, 4, 1]
    assert field.vinv(x[1:]).tolist() == [1, 4, 5, 2, 3, 6]
    assert "_log_exp" not in vars(field)


def _random_irreducibles(field, d, count, rng):
    """`count` distinct random monic irreducibles of degree d, sorted."""
    found = set()
    while len(found) < count:
        f = Polynomial(field, [rng.randrange(field.q) for _ in range(d)] + [1])
        if f.is_irreducible():
            found.add(f.coeffs)
    return [Polynomial(field, c) for c in sorted(found)]


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _irreducible_count(q: int, d: int) -> int:
    """Gauss's formula for the number of monic irreducibles of degree d over GF(q)."""
    return sum(_mobius(d // e) * q**e for e in range(1, d + 1) if d % e == 0) // d


@pytest.mark.parametrize("p,top", [(2, 10), (3, 6), (5, 4), (7, 4), (11, 3), (13, 3)])
def test_irreducibility_against_rabin_and_gauss(p, top):
    # every monic polynomial of degree 1..top over GF(p)
    prime = field_make(p, 1)
    for d in range(1, top + 1):
        monics = [tuple(v // p**i % p for i in range(d)) + (1,) for v in range(p**d)]
        verdicts = [_is_irreducible(p, c) for c in monics]
        assert verdicts == [Polynomial(prime, c).is_irreducible() for c in monics], d
        assert sum(verdicts) == _irreducible_count(p, d), d


class TestPolynomials:
    @pytest.mark.parametrize("q,d", [(2, 1), (2, 4), (2, 6), (3, 3), (4, 3), (5, 2), (9, 2)])
    def test_is_irreducible_count_matches_gauss_formula(self, q, d):
        field = field_from_order(q)
        count = sum(
            Polynomial(field, [v // q**i % q for i in range(d)] + [1]).is_irreducible()
            for v in range(q**d)
        )
        assert count == _irreducible_count(q, d)

    def test_factor_linear(self, gf9):
        f = Polynomial(gf9, (gf9.neg(1), 1))
        assert equal_degree_factors(f, 1) == [f]

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
    def test_factor_roundtrip_random(self, q):
        field = field_from_order(q)
        rng = random.Random(100 + q)
        for trial in range(8):
            d = rng.randrange(1, 4)
            count = rng.randrange(1, min(3, _irreducible_count(q, d)) + 1)
            irreducibles = _random_irreducibles(field, d, count, rng)
            f = functools.reduce(Polynomial.__mul__, irreducibles)
            lead = rng.randrange(1, q)
            assert equal_degree_factors(f.scale(lead), d) == irreducibles

    def test_factor_deterministic(self, gf9):
        f = functools.reduce(Polynomial.__mul__, _random_irreducibles(gf9, 2, 5, random.Random(20)))
        assert equal_degree_factors(f, 2) == equal_degree_factors(f, 2)

    def test_factor_rejects_other_degrees_and_squares(self, gf2):
        a, b = Polynomial(gf2, (1, 1)), Polynomial(gf2, (1, 1, 1))
        for f, d in [(a * b, 1), (a * b, 2), (b * b, 2), (a * a, 1), (b, 1), (b, 3), (Polynomial.zero(gf2), 1)]:
            with pytest.raises(ValueError, match="not a squarefree product"):
                equal_degree_factors(f, d)

    def test_poly_roots(self, gf9):
        # x^2 - 1 has roots 1 and -1
        assert roots(gf9, (gf9.neg(1), 0, 1)) == sorted([1, gf9.neg(1)])

    def test_zero_polynomial_vanishes_everywhere(self, gf4):
        assert roots(gf4, ()) == roots(gf4, (0, 0)) == [0, 1, 2, 3]

    @pytest.mark.parametrize("q", [2, 4, 7, 27])
    def test_roots_against_scalar_evaluation(self, q):
        field = field_from_order(q)
        rng = random.Random(q)
        for _ in range(10):
            coeffs = [rng.randrange(q) for _ in range(rng.randrange(1, 6))]
            assert roots(field, coeffs) == [x for x in range(q) if evaluate(Polynomial(field, coeffs), x) == 0]

    @pytest.mark.parametrize("q", [2, 4, 7, 9, 27])
    def test_lagrange_rows_against_products_of_factors(self, q):
        # row i is prod_{j != i} (x - v_j) / (v_i - v_j), built factor by factor
        field = field_from_order(q)
        rng = random.Random(q)
        for _ in range(5):
            values = sorted(rng.sample(range(q), rng.randrange(1, q + 1)))
            f = functools.reduce(Polynomial.__mul__, [Polynomial(field, (field.neg(v), 1)) for v in values])
            want = []
            for i, v in enumerate(values):
                row = Polynomial.one(field)
                for u in values[:i] + values[i + 1 :]:
                    row = row * Polynomial(field, (field.neg(u), 1)).scale(field.inv(field.sub(v, u)))
                want.append(list(row.coeffs) + [0] * (len(values) - 1 - row.degree()))
            assert lagrange_rows(field, list(f.coeffs), values).tolist() == want

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25])
    def test_point_projections_are_the_indicators_of_the_field(self, q):
        # row lambda is 1 - (x - lambda)^(q-1): 1 at lambda, 0 elsewhere
        field = field_from_order(q)
        table = field._point_projections
        assert table.shape == (q, q)
        for lam in range(q):
            poly = Polynomial(field, [int(c) for c in table[lam]])
            assert [evaluate(poly, x) for x in range(q)] == [int(x == lam) for x in range(q)]
        assert field._point_projections is table

    def test_str(self, gf2):
        assert str(Polynomial(gf2, (1, 1, 0, 1))) == "x^3 + x + 1"


class TestMultiplicativeOrder:
    @pytest.mark.parametrize("q,n,expected", [(2, 7, 3), (2, 9, 6), (5, 1, 1), (3, 13, 3)])
    def test_examples(self, q, n, expected):
        assert multiplicative_order_mod(q, n) == expected

    def test_gcd_violation(self):
        with pytest.raises(ValueError, match="gcd"):
            multiplicative_order_mod(6, 9)

    @pytest.mark.parametrize("q,n", [(2, 7), (3, 11), (4, 9), (9, 13)])
    def test_is_actual_order(self, q, n):
        t = multiplicative_order_mod(q, n)
        assert pow(q, t, n) == 1
        assert all(pow(q, s, n) != 1 for s in range(1, t))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: FiniteField(4, 1, None), ValueError, "characteristic 4 is not prime"),
        (lambda: FiniteField(3, 0, None), ValueError, "extension degree must be >= 1, got 0"),
        (lambda: FiniteField(2, 17, None), ValueError, re.escape("field order 2^17 exceeds the cap 65536")),
        (lambda: FiniteField(5, 1, (0, 1)), ValueError, "prime fields carry no modulus"),
        (lambda: FiniteField(3, 2, (2, 1)), ValueError, "extension fields need a monic degree-m modulus"),
        (lambda: multiplicative_order_mod(2, 0), ValueError, "modulus must be >= 1, got 0"),
        (lambda: field_from_order(9).power(3, -1), ValueError, "negative exponents not supported; use inv"),
        (lambda: field_from_order(5).vinv(np.array([1, 0])), ZeroDivisionError, re.escape("inversion of zero in GF(5)")),
    ],
)
def test_public_input_guards_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("n", [-3, 0, 1])
def test_no_integer_below_2_is_prime(n):
    assert is_prime(n) is False
