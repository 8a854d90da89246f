"""Shared fixtures and test data: Cayley tables of non-abelian groups, small
fields, enumerable duadic cells and random rank-deficient matrices.  The
independent reference constructions live in `oracles`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from duadic.duadic import check_splitting
from duadic.gf import field_from_order, field_make
from duadic.groups import (
    Group,
    builtin_mu_minus1,
    builtin_mu_swap,
    cyclic_group,
    group_abelian,
    group_from_cayley,
)

from oracles import reference_matmul


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


def random_rank_deficient(field, rows, cols, rank, rng):
    """A rows x cols matrix of rank at most `rank`, as a product of two random factors."""
    left = rng.integers(0, field.q, (rows, rank))
    right = rng.integers(0, field.q, (rank, cols))
    return reference_matmul(field, left, right)
