"""Finite groups via explicit multiplication tables, F_q-conjugacy classes,
and isometric antiautomorphisms in (group antiautomorphism, Frobenius power)
normal form.

Element ids run 0..n-1 with id 0 the identity.  Groups built as direct
products of cyclic factors keep their exponent-tuple structure for labeling;
Cayley-table groups label elements by raw id.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from io import StringIO
from string import ascii_lowercase

import numpy as np

from .errors import CayleyFormatError
from .gf import as_indexes, as_int, field_from_order, is_prime

GROUP_ORDER_CAP = 512


def check_order_cap(n: int) -> None:
    """ValueError when a group of order n would exceed GROUP_ORDER_CAP."""
    if n > GROUP_ORDER_CAP:
        raise ValueError(f"group order {n} exceeds the validation cap {GROUP_ORDER_CAP}")


def _square_table(table) -> np.ndarray:
    t = as_indexes(table)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"Cayley table must be square, got shape {t.shape}")
    if t.shape[0] == 0:
        raise ValueError("empty Cayley table")
    check_order_cap(t.shape[0])
    return t


def _search_inverse(t: np.ndarray) -> np.ndarray:
    """The h with g * h = 0 for each row g of the square table t, -1 where
    the row holds no identity: a search of all n^2 entries."""
    inv = np.full(len(t), -1, dtype=np.int64)
    rows, cols = np.nonzero(t == 0)
    inv[rows] = cols
    return inv


def _right_generators(t: np.ndarray):
    """Yield a generating set of the Latin square t with identity 0, built
    greedily: each element is the least id not yet reached from 0 by right
    multiplication with the ones before it, so that every id is a product
    of yielded elements once the generator is exhausted.

    Each step also multiplies by the powers g^(2^i) of the generators, one
    more squaring per step, so a cyclic subgroup closes in O(log n) steps,
    not one per element, and no subgroup takes more steps than by the
    generators alone.  In a group both walks reach the same subgroups, so
    they yield the same generating set."""
    reached = np.zeros(len(t), dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        yield gens[-1]
        frontier = np.flatnonzero(reached)
        factors = powers = np.array(gens)
        while frontier.size:
            hit = np.zeros(len(t), dtype=bool)
            hit[t[np.ix_(frontier, factors)]] = True
            powers = t[powers, powers]
            factors = np.concatenate([factors, powers])
            frontier = np.flatnonzero(hit & ~reached)
            reached |= hit


class Group:
    """Finite group of order n as an n x n multiplication table.

    The constructor checks the shape, the order cap and two-sided inverses;
    it trusts the table to be a group, and keeps it read-only, copying a
    caller's array once.  Outside tables enter through `group_from_cayley`,
    which checks every group axiom first.  A direct product made by
    `group_product` keeps its two factors in `factors`; only the
    constructors set `abelian_orders`, the orders of its cyclic factors,
    `is_abelian` and `_generators`, and hand over the new table they built,
    kept without a copy, and the inverse map their construction gives,
    which is checked rather than searched for."""

    def __init__(self, table, descriptor: str = ""):
        t = _square_table(table)
        self._set_table(t.copy() if t is table or not t.flags.owndata else t, descriptor)
        self._set_inverse(_search_inverse(self.table))

    @classmethod
    def _constructed(cls, table: np.ndarray, descriptor: str, inverse: np.ndarray) -> Group:
        """The group of a constructor's new int64 table, kept as it is, with
        the inverse map of its construction."""
        group = cls.__new__(cls)
        group._set_table(table, descriptor)
        group._set_inverse(inverse)
        return group

    def _set_table(self, t: np.ndarray, descriptor: str) -> None:
        t.flags.writeable = False
        n = t.shape[0]
        self.table = t
        self.order = n
        self.descriptor = descriptor or f"cayley(n={n})"
        self.abelian_orders: tuple[int, ...] | None = None
        self.factors: tuple[Group, Group] | None = None

    # -- validation -------------------------------------------------------

    @staticmethod
    def _validate(t: np.ndarray) -> tuple[int, ...]:
        """Every group axiom of a square id table: closure, id 0 a two-sided
        identity, rows and columns permutations, and associativity; returns
        the generating set associativity was checked on."""
        n = len(t)
        if t.min() < 0 or t.max() >= n:
            bad = np.argwhere((t < 0) | (t >= n))[0]
            raise ValueError(
                f"not a group (closure): entry at row {bad[0]}, column {bad[1]} is out of range"
            )
        ids = np.arange(n)
        if not np.array_equal(t[0], ids) or not np.array_equal(t[:, 0], ids):
            raise ValueError("not a group (identity): id 0 is not a two-sided identity")
        # every row and column must be a permutation, which with associativity
        # gives unique two-sided inverses: its entries reach all n ids
        for line, at in (("row", (ids[:, None], t)), ("column", (t, ids))):
            seen = np.zeros((n, n), dtype=bool)
            seen[at] = True  # seen[i, t[i, j]] for the rows, seen[t[i, j], j] for the columns
            if not seen.all():
                raise ValueError(f"not a group (inverses): some {line} is not a permutation")
        # Light's test: the g with (x g) y = x (g y) for all x, y form a
        # closed set, so a generating set decides associativity; the
        # exhaustive loop only names the first failing triple
        gens = tuple(_right_generators(t))
        if all(np.array_equal(t[t[:, g]], t[:, t[g]]) for g in gens):
            return gens
        for a in range(n):
            lhs = t[t[a], :]
            rhs = t[a][t]
            if not np.array_equal(lhs, rhs):
                b, c = np.argwhere(lhs != rhs)[0]
                raise ValueError(
                    f"not a group (associativity): ({a}*{b})*{c} != {a}*({b}*{c})"
                )

    def _set_inverse(self, inv: np.ndarray) -> None:
        """Keep inv once an O(n) gather shows inv[g] * g is the identity for every g."""
        bad = (inv < 0) | (self.table[inv, np.arange(self.order)] != 0)
        if bad.any():
            raise ValueError(f"not a group (inverses): element {np.argmax(bad)} lacks a two-sided inverse")
        self.inverse = inv

    # -- identity and equality --------------------------------------------

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, Group) and np.array_equal(self.table, other.table))

    def __hash__(self) -> int:
        return hash(self.table.tobytes())

    def __repr__(self) -> str:
        return f"Group({self.descriptor}, n={self.order})"

    # -- structure ---------------------------------------------------------

    def power(self, g: int | np.ndarray, e: int) -> int | np.ndarray:
        """g^e through the table, elementwise over an id array; an int id gives an int."""
        out = self._power(as_indexes(g, self.order, "id"), as_int(e, "exponent"))
        return int(out) if np.ndim(out) == 0 else out

    def _power(self, ids: np.ndarray, e) -> np.ndarray:
        """`power` of ids its caller built in range, unchecked; e is one exponent
        or an integer array that broadcasts against ids (one per row), taken
        mod n as g^n = 1.  Each bit multiplies an entry by its base if its
        exponent has the bit, else by id 0: flat-table gathers, diagonal squares."""
        n = self.order
        e, flat, square = np.asarray(e % n), self.table.reshape(-1), np.diagonal(self.table)
        out, base = np.zeros_like(ids * e), ids
        for _ in range(int(e.max(initial=0)).bit_length()):
            out = flat[out * n + base * (e & 1)]
            base, e = square[base], e >> 1
        return out

    @cached_property
    def element_orders(self) -> np.ndarray:
        """The least divisor d of n with g^d = 1, for every id g."""
        n = self.order
        divisors = np.array([d for d in range(1, n + 1) if n % d == 0])
        ones = self._power(np.arange(n), divisors[:, None]) == 0  # ones[i, g]: g^(divisors[i]) = 1
        return divisors[np.argmax(ones, axis=0)]

    @cached_property
    def exponent(self) -> int:
        """The lcm of the element orders, from the factors where a constructor set them."""
        if self.abelian_orders is not None or self.factors is not None:
            return math.lcm(*(self.abelian_orders or [factor.exponent for factor in self.factors]))
        return int(np.lcm.reduce(self.element_orders))

    @cached_property
    def is_abelian(self) -> bool:
        """Whether the table is symmetric; the constructors set it from their construction."""
        return bool(np.array_equal(self.table, self.table.T))

    @cached_property
    def _generators(self) -> tuple[int, ...]:
        """A generating set, found greedily on the table where no constructor
        set one: `group_abelian` and `group_product` take theirs from the
        construction, `group_from_cayley` the one its validation found."""
        return tuple(_right_generators(self.table))

    @cached_property
    def left_translation(self) -> np.ndarray:
        """L[g, x] = id of g^-1 * x, so (g*a) has coefficients a[L[g]]."""
        left = self.table[self.inverse]
        left.flags.writeable = False
        return left

    # -- labels --------------------------------------------------------------

    def element_tuple(self, g: int) -> tuple[int, ...]:
        """The exponent tuple of id g; an id outside [0, n) raises ValueError."""
        if self.abelian_orders is None:
            raise ValueError("element tuples only exist for abelian product groups")
        return tuple(int(e) for e in np.unravel_index(as_indexes(g, self.order, "id"), self.abelian_orders))

    def element_id(self, exponents) -> int:
        if self.abelian_orders is None:
            raise ValueError("element tuples only exist for abelian product groups")
        exps = as_indexes(list(exponents))
        if len(exps) != len(self.abelian_orders):
            raise ValueError("wrong tuple length")
        return int(np.ravel_multi_index(exps, self.abelian_orders, mode="wrap"))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The label of every element id, built once: raw ids for Cayley-table
        groups, exponent words such as a^1*b^2 for abelian products."""
        if self.abelian_orders is None:
            return tuple(str(g) for g in range(self.order))
        digits = np.unravel_index(np.arange(self.order), self.abelian_orders)
        words = [
            np.array([f"{x}^{e}" for e in range(n_i)], dtype=object)[d]
            for x, n_i, d in zip(ascii_lowercase, self.abelian_orders, digits)
        ]
        return tuple(map("*".join, zip(*words)))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def group_abelian(orders) -> Group:
    """Direct product of cyclic groups Z_n1 x ... x Z_nk.

    Element ids are the row-major mixed-radix encoding of exponent tuples
    (last factor varies fastest); the identity is the all-zero tuple, id 0.
    """
    ords = [as_int(x, "cyclic factor order") for x in orders]
    if not ords:
        raise ValueError("need at least one cyclic factor")
    if any(o < 2 for o in ords):
        raise ValueError(f"cyclic factor orders must be >= 2, got {ords}")
    check_order_cap(math.prod(ords))
    table, inverse = np.zeros((1, 1), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for o in ords:
        # row a of Z_o's table, (a + b) % o, is ring[a:a + o]: a read-only view, no n x n temporary
        ring = np.arange(2 * o) % o
        block = np.lib.stride_tricks.as_strided(ring, (o, o), ring.strides * 2, writeable=False)
        # the first factor's table is its block; a later block is spread over each entry of the table so far
        m = table.shape[0]
        table = block.copy() if m == 1 else (table[:, None, :, None] * o + block[None, :, None, :]).reshape(m * o, -1)
        inverse = (inverse[:, None] * o + ring[o:0:-1]).reshape(-1)  # -a mod o, in the same digit
    group = Group._constructed(table, "x".join(str(o) for o in ords), inverse)
    group.abelian_orders, group.is_abelian = tuple(ords), True
    group._generators = tuple(math.prod(ords[i + 1 :]) for i in range(len(ords)))  # the unit tuples
    return group


def cyclic_group(n: int) -> Group:
    # n = 1 is allowed here (degenerate scans); group_abelian itself rejects it
    if as_int(n, "group order") == 1:
        trivial = Group._constructed(np.zeros((1, 1), dtype=np.int64), "1", np.zeros(1, dtype=np.int64))
        trivial._generators, trivial.is_abelian = (), True
        return trivial
    return group_abelian([n])


def group_from_cayley(table, descriptor: str = "") -> Group:
    """Group from an explicit n x n id matrix, the one entry for outside
    tables: every group axiom is checked before the group is built."""
    t = _square_table(table)
    gens = Group._validate(t)
    group = Group(t, descriptor=descriptor)
    group._generators = gens
    return group


def group_product(g1: Group, g2: Group) -> Group:
    """Direct product G1 x G2 with ids packed as g1 * |G2| + g2 and
    `factors` = (G1, G2)."""
    n1, n2 = g1.order, g2.order
    if n1 * n2 > GROUP_ORDER_CAP:
        raise ValueError(f"product order {n1 * n2} exceeds the validation cap {GROUP_ORDER_CAP}")
    table = (g1.table[:, None, :, None] * n2 + g2.table[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    inverse = (g1.inverse[:, None] * n2 + g2.inverse[None, :]).reshape(-1)
    product = Group._constructed(table, f"{g1.descriptor},{g2.descriptor}", inverse)
    product.factors, product.is_abelian = (g1, g2), g1.is_abelian and g2.is_abelian
    product._generators = tuple(s * n2 for s in g1._generators) + g2._generators
    if g1.abelian_orders is not None and g2.abelian_orders is not None:
        product.abelian_orders = g1.abelian_orders + g2.abelian_orders
    return product


# ---------------------------------------------------------------------------
# F_q-conjugacy classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FqClassPartition:
    """Partition of a group into F_q-conjugacy classes.

    Each class is the closure of a seed under conjugation and g -> g^q;
    classes are sorted by (and represented by) their smallest element id.
    `class_of` maps each id to its class; the member lists, `classes`, are
    built from it on first read.  Two partitions are equal when their group,
    q and `class_of` are.
    """

    group: Group
    q: int
    class_of: np.ndarray
    reps: tuple[int, ...]

    def __post_init__(self):
        as_int(self.q, "q")

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, FqClassPartition)
            and (self.group, self.q) == (other.group, other.q)
            and np.array_equal(self.class_of, other.class_of)
        )

    def __hash__(self) -> int:
        return hash((self.group, self.q))

    def __len__(self) -> int:
        return len(self.reps)

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The ids of each class in increasing order, classes in the order of `reps`."""
        members = np.split(np.argsort(self.class_of, kind="stable"), np.cumsum(np.bincount(self.class_of))[:-1])
        return tuple(tuple(c.tolist()) for c in members)


def _fq_labels(group: Group, qs) -> np.ndarray:
    """Row i holds, for every id g, the least id of the closure of g under
    conjugation and x -> x^q, q = qs[i]: the union of the conjugacy classes
    of the g^(q^j), so its least id is the least conjugate of some g^(q^j).
    After k doublings low[g] is the minimum over j < 2^k and step[g] =
    g^(q^(2^k)), an index into the flattened rows; the orbit of g under
    x -> x^q has at most max(1, n - 1) elements, so bit_length(n - 1)
    doublings cover it.  The least conjugates are found once, and the q-th
    powers of every row come from one `_power` call (of q mod n: g^n = 1)."""
    n = group.order
    if bad := [q for q in qs if math.gcd(q, n) != 1]:
        raise ValueError(f"gcd(|G|={n}, q={bad[0]}) != 1")
    ids, t, rows = np.arange(n), group.table, np.arange(len(qs))[:, None]
    # the least conjugate: x itself if G is abelian, else a column minimum of [h, x] = h^-1 x h
    low = np.tile(ids if group.is_abelian else t[t[group.inverse[:, None], ids], ids[:, None]].min(axis=0), len(qs))
    step = (group._power(ids, np.array([q % n for q in qs], dtype=np.int64)[:, None]) + rows * n).reshape(-1)
    for _ in range((n - 1).bit_length()):
        low, step = np.minimum(low, low[step]), step[step]
    return low.reshape(len(qs), n)


def fq_classes(group: Group, q: int) -> FqClassPartition:
    """The F_q-conjugacy classes of group: the one-row case of `_fq_labels`."""
    q = as_int(q, "q")
    reps, class_of = np.unique(_fq_labels(group, [q])[0], return_inverse=True)
    return FqClassPartition(group, q, class_of, tuple(reps.tolist()))


# ---------------------------------------------------------------------------
# antiautomorphisms
# ---------------------------------------------------------------------------


class Antiautomorphism:
    """Isometric antiautomorphism of F_q[G] in normal form.

    Acts on a scalar multiple of a group element as the group antiautomorphism
    mu_star composed with the field automorphism x -> x^(p^t), where t is
    ``frobenius_power``.
    """

    def __init__(self, group: Group, mu_star, frobenius_power: int = 0, descriptor: str = ""):
        perm = as_indexes(mu_star).copy()
        n = group.order
        if perm.shape != (n,):
            raise ValueError(f"mu_star must be a length-{n} permutation")
        if not (np.sort(perm) == np.arange(n)).all():
            raise ValueError("mu_star is not a bijection")
        if perm[0] != 0:
            raise ValueError("mu_star must fix the identity")
        # the g with mu(g*h) = mu(h)*mu(g) for every h are closed under
        # products (mu(g*g'*h) = mu(g'*h)*mu(g) = mu(h)*mu(g*g')), so a
        # generating set decides the law; only a failure takes the n x n
        # law, to name its first failing pair
        t, gens = group.table, list(group._generators)
        if not np.array_equal(perm[t[gens]], t[perm[:, None], perm[gens]].T):
            g, h = np.argwhere(perm[t] != t[np.ix_(perm, perm)].T)[0]
            raise ValueError(
                f"mu_star is not an antiautomorphism: mu({g}*{h}) != mu({h})*mu({g})"
            )
        if (power := as_int(frobenius_power, "frobenius power")) < 0:
            raise ValueError("frobenius power must be >= 0")
        self.group = group
        self.mu_star = perm
        self.mu_star.flags.writeable = False
        self.frobenius_power = power
        self.descriptor = descriptor or "perm"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Antiautomorphism)
            and self.group == other.group
            and np.array_equal(self.mu_star, other.mu_star)
            and self.frobenius_power == other.frobenius_power
        )

    def __hash__(self) -> int:
        return hash((self.group, self.mu_star.tobytes(), self.frobenius_power))

    def __repr__(self) -> str:
        return f"Antiautomorphism({self.descriptor}, t={self.frobenius_power})"

    def galois_exponents(self, q: int) -> tuple[int, int]:
        """(k, l) with k = p^t mod exponent and k*l = 1 mod exponent.

        k is the exponent by which the extension of x -> x^(p^t) acts on
        m-th roots of unity; l is its inverse used in the class action.
        p and the degree of GF(q) come from `field_from_order`, so a q that
        is not a prime power raises ValueError.
        """
        field = field_from_order(q)
        m = self.group.exponent
        k = pow(field.p, self.frobenius_power % field.m, m)
        return k, pow(k, -1, m)

    @cached_property
    def _inverts(self) -> bool:
        """Whether mu_star is g -> g^-1, compared once per map."""
        return bool(np.array_equal(self.mu_star, self.group.inverse))

    def is_inversion_for(self, field) -> bool:
        """True iff this map is exactly mu_-1 on F_q[G] (sigma trivial on F_q)."""
        return self._inverts and self.frobenius_power % field.m == 0


def builtin_mu_minus1(group: Group) -> Antiautomorphism:
    """The inversion map g -> g^-1 with trivial field part; every call builds a new, equal map."""
    return Antiautomorphism(group, group.inverse, 0, descriptor="mu-1")


def builtin_mu_swap(group: Group, q: int) -> Antiautomorphism:
    """The coordinate-swap map (x, y) -> (q*y, x) on Z_p x Z_p."""
    orders = group.abelian_orders
    if orders is None or len(orders) != 2 or orders[0] != orders[1]:
        raise ValueError("swap antiautomorphism needs a group built as Z_p x Z_p")
    p, q = orders[0], as_int(q, "q")
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"swap antiautomorphism needs an odd prime p, got {p}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"gcd(p={p}, q={q}) != 1")
    xs, ys = np.divmod(np.arange(p * p), p)
    perm = (q % p * ys % p) * p + xs
    return Antiautomorphism(group, perm, 0, descriptor="swap")


def product_antiauto(mu1: Antiautomorphism, mu2: Antiautomorphism, product: Group | None = None) -> Antiautomorphism:
    """Componentwise antiautomorphism on G1 x G2."""
    if mu1.frobenius_power != mu2.frobenius_power:
        raise ValueError(
            f"mismatched Frobenius powers: {mu1.frobenius_power} != {mu2.frobenius_power}"
        )
    if product is None:
        product = group_product(mu1.group, mu2.group)
    n1, n2 = mu1.group.order, mu2.group.order
    if product.order != n1 * n2:
        raise ValueError("product group does not match the component groups")
    perm = (mu1.mu_star[:, None] * n2 + mu2.mu_star[None, :]).reshape(-1)
    return Antiautomorphism(
        product, perm, mu1.frobenius_power, descriptor=f"{mu1.descriptor}*{mu2.descriptor}"
    )


def _mu_images(group: Group, mus, qs, ids: np.ndarray) -> np.ndarray:
    """mu_star(g)^l for each g of ids, one row per mu of mus, with l its inverse
    Galois exponent over GF(q), q the matching item of qs: mu maps the
    F_q-class of g onto the class of this image.  One `_power` call."""
    stars = np.array([mu.mu_star for mu in mus], dtype=np.int64).reshape(len(mus), group.order)
    ells = np.array([mu.galois_exponents(q)[1] for mu, q in zip(mus, qs)], dtype=np.int64)
    return group._power(stars[:, ids], ells.reshape((-1,) + (1,) * np.ndim(ids)))


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def _id_lines(text: str, need: int, missing: str) -> tuple[int, list[tuple[int, str]]]:
    """The order on the first data line of an id file, and its data lines as
    (line number, stripped text), header first, without blank lines and #
    comments; fewer than `need` of them raise CayleyFormatError(missing)."""
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    rows = [(no, ln) for no, ln in rows if ln and not ln.startswith("#")]
    if len(rows) < need:
        raise CayleyFormatError(missing)
    no, header = rows[0]
    try:
        return int(header), rows
    except ValueError:
        raise CayleyFormatError(f"expected group order, got {header!r}", line=no) from None


def _id_row(no: int, line: str, n: int, entry: str, expected: str) -> np.ndarray:
    """The n ids in [0, n) of data line no.  Another count raises
    CayleyFormatError(f"{expected}, found ..."); a bad id raises one that
    names the `entry` and its column, found by walking the tokens only then."""
    parts = line.split()
    if len(parts) != n:
        raise CayleyFormatError(f"{expected}, found {len(parts)}", line=no)
    try:
        ids = np.array(list(map(int, parts)), dtype=np.int64)
        if (ids.view(np.uint64) < n).all():  # a negative id wraps past n
            return ids
    except (ValueError, OverflowError):
        pass
    for c, tok in enumerate(parts, 1):
        try:
            v = int(tok)
        except ValueError:
            raise CayleyFormatError(f"non-integer {entry} {tok!r}", line=no, column=c) from None
        if not 0 <= v < n:
            raise CayleyFormatError(f"{entry} {v} out of range [0, {n})", line=no, column=c)


def parse_cayley_text(text: str, descriptor: str = "") -> Group:
    """Parse the Cayley-table text format.

    Line 1 holds n; lines 2..n+1 hold n whitespace-separated ids each
    (row g, column h, entry g*h).  Raises CayleyFormatError with line and
    column positions on malformed input, and ValueError at the order line
    for an n over the order cap.  The data lines are read in one numpy call;
    only a table that call refuses, or one with an id out of range, is read
    again row by row, which gives the same table or names the first fault.
    """
    n, rows = _id_lines(text, 1, "empty Cayley file")
    if n < 1:
        raise CayleyFormatError(f"group order must be >= 1, got {n}", line=rows[0][0])
    check_order_cap(n)
    if len(rows) - 1 != n:
        raise CayleyFormatError(f"expected {n} table rows, found {len(rows) - 1}", line=rows[-1][0])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # older numpy reads an integer via a float with a warning
            table = np.loadtxt(StringIO("\n".join(ln for _, ln in rows[1:])), dtype=np.int64, ndmin=2, comments=None)
    except Exception:  # whatever numpy refuses (1_0, which int() takes, among it), the row reader decides
        table = None
    if table is None or table.shape != (n, n) or (table.view(np.uint64) >= n).any():  # a negative id wraps past n
        table = np.array([
            _id_row(no, ln, n, "table entry", f"expected {n} entries in table row {r}")
            for r, (no, ln) in enumerate(rows[1:])
        ])
    return group_from_cayley(table, descriptor=descriptor or f"cayley(n={n})")


def read_cayley_file(path) -> Group:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cayley_text(fh.read(), descriptor=f"@{path}")


def parse_permutation_text(text: str, group: Group, descriptor: str = "") -> Antiautomorphism:
    """Parse the explicit-antiautomorphism format.

    Line 1 holds n, line 2 the n images of mu_star, line 3 the Frobenius
    power (optional, default 0); no data line may follow it.
    """
    n, rows = _id_lines(text, 2, "permutation file needs an order line and an image line")
    if n != group.order:
        raise CayleyFormatError(f"permutation is for order {n}, group has order {group.order}", line=rows[0][0])
    perm = _id_row(*rows[1], n, "permutation image", f"expected {n} images")
    t = 0
    if len(rows) > 2:
        no, ln = rows[2]
        try:
            t = int(ln)
        except ValueError:
            raise CayleyFormatError(f"expected Frobenius power, got {ln!r}", line=no) from None
    if len(rows) > 3:
        no, ln = rows[3]
        raise CayleyFormatError(f"unexpected line after the Frobenius power: {ln!r}", line=no)
    return Antiautomorphism(group, perm, t, descriptor=descriptor or "perm")
