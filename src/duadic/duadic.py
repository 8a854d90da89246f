"""Duadic pairs in F_q[G]: splitting existence, construction of the four
codes, duality classification, odd-like weight bounds, and product pairs.

A duadic pair is a pair of even-like central idempotents (e, f) with
e + f = 1 - Ghat that an isometric antiautomorphism mu swaps.  Each fact is
checked once, where it is established: `DuadicPair` checks the four axioms
that imply the rest, and `duadic_codes` the four dimensions and that each
code derived from C_e, the pair's one elimination, lies in its ideal.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .algebra import (
    AlgebraElement,
    IdempotentSet,
    _antiauto_rows,
    _convolve,
    apply_antiauto,
    hat_group,
    split_primitive_central_idempotents,
)
from .codes import LinearCode, _mu_image, _plus_vector, check_dual, code_from_ideal
from .errors import NoSplittingError, VerificationError
from .gf import FiniteField, multiplicative_order_mod
from .groups import (
    Antiautomorphism,
    Group,
    builtin_mu_minus1,
    group_product,
    mu_action_on_class,
    product_antiauto,
)

_ENUMERATE_ALL_MAX_CYCLES = 20  # enumerate-all builds 2^(l-1) pairs for l cycles
# P pairs of r idempotents check e^2 = e through the units' products once
# r^2 <= 4P (`_idempotent_rows`), which take 0.25-0.8 of the time of one
# product per pair at r^2 / P <= 2.3, 0.84 at 3.5 and 1.2-7.5 times at 5.3
_PARTS_ROWS = 4
_UNIT_PRODUCT_CELLS = 1 << 17  # translates of units multiplied at once


class DuadicPair:
    """Even-like idempotents (e, f) with their splitting mu; validated on build.

    Four axioms are checked: e idempotent, e even-like, A1 e + f = 1 - Ghat
    and A2 mu(e) = f.  They imply the rest, with one product per pair:
    f = mu(e) is idempotent since mu(e)^2 = mu(e^2); f is even-like since
    eps(f) = eps(1) - eps(Ghat) - eps(e) = 1 - 1 - 0; mu fixes 1 and Ghat,
    so mu(f) = 1 - Ghat - f = e; e Ghat = eps(e) Ghat = 0 and f Ghat = 0;
    and ef = e - e Ghat - e^2 = 0, fe = 0 the same way.  The check is
    `_pair_axioms` on a stack of one row, the one `construct_pairs` runs on
    the stack of all its pairs.
    """

    def __init__(
        self,
        field: FiniteField,
        group: Group,
        e: AlgebraElement,
        f: AlgebraElement,
        mu: Antiautomorphism,
        witnesses: tuple[AlgebraElement, ...] = (),
    ):
        if group.order == 1:
            raise NoSplittingError("the trivial group carries no duadic pairs")
        if group.order % 2 == 0:
            raise ValueError(f"group order {group.order} must be odd")
        if math.gcd(group.order, field.q) != 1:
            raise ValueError(f"gcd(|G|={group.order}, q={field.q}) != 1")
        ghat = hat_group(field, group)
        (fixed,), (swapped,) = _pair_axioms(field, group, mu, ghat, e.vec[None], f.vec[None])
        self._set(field, group, e, f, mu, ghat, fixed, swapped, witnesses)

    def _set(self, field, group, e, f, mu, ghat, fixed, swapped, witnesses=()) -> "DuadicPair":
        """Store a pair whose axioms `_pair_axioms` has checked."""
        self.field = field
        self.group = group
        self.e = e
        self.f = f
        self.mu = mu
        self.ghat = ghat
        self.fixed_by_mu_minus1 = fixed
        self.swapped_by_mu_minus1 = swapped
        self.witnesses = tuple(witnesses)
        return self

    def __repr__(self) -> str:
        return (
            f"DuadicPair(n={self.group.order}, q={self.field.q}, "
            f"mu={self.mu.descriptor})"
        )


def _pair_axioms(
    field: FiniteField,
    group: Group,
    mu: Antiautomorphism,
    ghat: AlgebraElement,
    es: np.ndarray,
    fs: np.ndarray,
    parts: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[list[bool], list[bool]]:
    """Check `DuadicPair`'s four axioms on every row of the (P, n) stacks es
    and fs, (e, f) = (es[i], fs[i]): e^2 = e by `_idempotent_rows`, and
    even-like, A1 and A2 (one scatter and one vfrobenius) by one comparison
    over the stack each.  parts, when given, is (sel, units): the P x r 0/1
    selections of the stacked units whose sums the rows of es claim to be.
    VerificationError names every axiom some row violates.  Returns, per
    row, whether mu_-1 fixes e and whether it swaps e and f: mu_-1(e) is e
    with its columns taken at the inverses, since inversion is an involution
    and mu_-1 has no field part."""
    checks = [
        ("e idempotent", _idempotent_rows(field, group, es, parts)),
        ("e even-like", not field.vsum(es, axis=1).any()),
        ("A1: e + f = 1 - Ghat", (field.vadd(es, fs) == (AlgebraElement.one(field, group) - ghat).vec).all()),
        ("A2: mu(e) = f", np.array_equal(_antiauto_rows(mu, field, es), fs)),
    ]
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise VerificationError(f"duadic axioms violated: {', '.join(failed)}")
    m1e = es[:, group.inverse]
    return (m1e == es).all(axis=1).tolist(), (m1e == fs).all(axis=1).tolist()


def _idempotent_rows(
    field: FiniteField, group: Group, es: np.ndarray, parts: tuple[np.ndarray, np.ndarray] | None
) -> bool:
    """Whether e^2 = e for every row e of es, with a number of products that
    does not grow with the rows.  Given parts = (sel, units), when the r
    units are orthogonal idempotents, u_i u_j = delta_ij u_i, every sum of
    distinct units is idempotent, so for 0/1 selections one product sel @
    units leaves only the rows that are not the sums they claim.  Those, and every row without
    parts, are squared directly, one product each.  The units' products
    (u_i u_j)[g] = sum_h u_i[h] u_j[h^-1 g] are the units times the n x s n
    matrix of the translates of s units at a time, s n^2 at most
    _UNIT_PRODUCT_CELLS."""
    if parts is not None:
        sel, units = parts
        (r, n), step = units.shape, max(1, _UNIT_PRODUCT_CELLS // group.order**2)
        orthogonal = True
        for j in range(0, r, step):
            block = units[j : j + step]
            shifted = block[:, group.left_translation].transpose(1, 0, 2).reshape(n, -1)
            products = _linalg.matmul(field, units, shifted).reshape(r, len(block), n)
            orthogonal &= np.array_equal(products, np.eye(r, dtype=np.int64)[:, j : j + step, None] * block)
        if orthogonal and np.isin(sel, (0, 1)).all():
            es = es[(_linalg.matmul(field, sel, units) != es).any(axis=1)]
    return all(np.array_equal(_convolve(field, group, e, e), e) for e in es)


@dataclass(frozen=True)
class SplittingCheck:
    """Joint idempotent-level and class-level splitting test results; the
    F_q-classes are ``idempotents.partition``."""

    ok: bool
    fixed_class_ids: tuple[int, ...]
    fixed_idempotent_ids: tuple[int, ...]
    idempotents: IdempotentSet
    mu_permutation: tuple[int, ...]  # mu(idempotents[i]) = idempotents[mu_permutation[i]]


def splitting_exists_mu_minus1(n: int, q: int) -> bool:
    """The order-of-q criterion for an inversion splitting on any group of odd order n."""
    if n % 2 == 0:
        raise ValueError(f"group order must be odd, got {n}")
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd({n}, {q}) != 1")
    return multiplicative_order_mod(q, n) % 2 == 1


def _fixed_ids(
    mu: Antiautomorphism, field: FiniteField, group: Group
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], IdempotentSet]:
    """Ids of the F_q-classes and of the centrally primitive idempotents that
    mu fixes (trivial ones included), the permutation mu induces on the
    idempotents, and the idempotents."""
    if mu.group != group:
        raise ValueError("antiautomorphism lives on a different group")
    idempotents = split_primitive_central_idempotents(field, group)
    partition = idempotents.partition
    cids = np.arange(len(partition))
    fixed_classes = tuple(np.flatnonzero(mu_action_on_class(mu, partition, cids) == cids).tolist())
    vecs = np.array([h.vec for h in idempotents])
    index = {v.tobytes(): i for i, v in enumerate(vecs)}
    images = tuple(index.get(v.tobytes(), -1) for v in _antiauto_rows(mu, field, vecs))
    if -1 in images:
        raise VerificationError("antiautomorphism does not permute the idempotent set")
    fixed_idems = tuple(i for i, j in enumerate(images) if i == j)
    return fixed_classes, fixed_idems, images, idempotents


def check_splitting(mu: Antiautomorphism, field: FiniteField, group: Group) -> SplittingCheck:
    """Decide whether mu gives a splitting, by both available criteria.

    The idempotent-level test (no nontrivial centrally primitive idempotent
    fixed) is the ground truth; the class-level test must agree with it, and
    a disagreement raises VerificationError since the two counts coincide by
    theorem.  Both are necessary for a duadic pair; when mu is not an
    involution on the idempotents they are not sufficient (`construct_pairs`).
    """
    fixed_classes, fixed_idems, images, idempotents = _fixed_ids(mu, field, group)
    if len(fixed_classes) != len(fixed_idems):
        raise VerificationError(
            f"fixed-class count {len(fixed_classes)} != fixed-idempotent count {len(fixed_idems)}"
        )
    ok = fixed_idems == (idempotents.trivial_index,)
    return SplittingCheck(ok, fixed_classes, fixed_idems, idempotents, images)


def verify_key_proposition(
    mu: Antiautomorphism, field: FiniteField, group: Group
) -> tuple[int, int]:
    """(fixed class count, fixed idempotent count) including the trivial ones.

    The two numbers must be equal; this operation reports them without
    enforcing it, as the test oracle.
    """
    fixed_classes, fixed_idems, _, _ = _fixed_ids(mu, field, group)
    return len(fixed_classes), len(fixed_idems)


def construct_pairs(
    mu: Antiautomorphism,
    field: FiniteField,
    group: Group,
    mode: str = "canonical",
) -> _PairStacks:
    """Duadic pairs from the cycles of mu on the nontrivial idempotents.

    mu(e) = f and e + f = 1 - Ghat hold iff e takes every other idempotent
    of each cycle, so a cycle of odd length leaves no pair.  Each cycle
    starts at its smallest index (idempotents are sorted by coefficient
    tuple), and a choice of phase per cycle gives e the idempotents at the
    positions of that parity, f the others.  Canonical mode is the all-zero
    choice; enumerate-all takes every choice whose first phase is 0, one of
    each e <-> f swap, 2^(l-1) pairs for l cycles, so the result is never
    empty.  The P choices are built as one stack: a P x r 0/1 selection
    matrix for each side times the r stacked idempotents is the (P, n)
    matrix of every e, and of every f; enumerate-all swaps the rows where
    f comes first by coefficient tuple and sorts them by e.  The whole stack
    is checked at once (`_pair_axioms`, the check `DuadicPair` runs on one
    row), and a violated axiom raises VerificationError naming it.  The
    checked stacks are returned as a sequence whose items are built as they
    are read.  NoSplittingError names the cell and the idempotents mu fixes,
    or the odd cycle length, when mu gives no splitting; the trivial group,
    whose only idempotent is 1 = Ghat, carries no pairs and raises it too.
    """
    if mode not in ("canonical", "enumerate-all"):
        raise ValueError(f"unknown mode {mode!r}")
    if group.order % 2 == 0:
        raise ValueError(f"group order {group.order} must be odd")
    check = check_splitting(mu, field, group)
    cell = f"no splitting for mu={mu.descriptor} on {group.descriptor} over GF({field.q})"
    if not check.ok:
        parts = [cell]
        if mu.is_inversion_for(field):
            t = multiplicative_order_mod(field.q, group.order)
            parts.append(f"ord_{group.order}({field.q}) = {t} is even")
        parts.append(f"{len(check.fixed_idempotent_ids) - 1} nontrivial fixed idempotent(s)")
        raise NoSplittingError("; ".join(parts))
    perm, members = check.mu_permutation, check.idempotents
    cycle_of = np.full(len(members), -1)  # the cycle of each idempotent, -1 for Ghat
    parity = np.zeros(len(members), dtype=np.int64)  # its position in the cycle, mod 2
    l = 0
    for start in range(len(members)):
        if start == members.trivial_index or cycle_of[start] >= 0:
            continue
        cycle = [start]
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
        if len(cycle) % 2:
            raise NoSplittingError(
                f"{cell}; mu permutes the nontrivial idempotents in a cycle of odd length {len(cycle)}"
            )
        cycle_of[cycle], parity[cycle] = l, np.arange(len(cycle)) % 2
        l += 1
    if l == 0:
        raise NoSplittingError("the trivial group carries no duadic pairs")
    if mode == "enumerate-all" and l > _ENUMERATE_ALL_MAX_CYCLES:
        raise ValueError(
            f"enumerate-all over the {l} cycles of mu would build 2^{l - 1} = {2 ** (l - 1)} pairs, "
            f"more than 2^{_ENUMERATE_ALL_MAX_CYCLES - 1}; use canonical mode"
        )
    count = 2 ** (l - 1) if mode == "enumerate-all" else 1
    # row i's phases: 0 for the first cycle, then the bits of i, highest first
    phases = np.arange(count)[:, None] >> np.arange(l - 1, -1, -1) & 1
    in_e = (phases[:, cycle_of] == parity) & (cycle_of >= 0)
    in_f = ~in_e & (cycle_of >= 0)
    vecs = np.array([h.vec for h in members])
    es = _linalg.matmul(field, in_e, vecs)
    fs = _linalg.matmul(field, in_f, vecs)
    if mode == "enumerate-all":
        rows = np.arange(count)
        first = (es != fs).argmax(axis=1)  # the first coefficient where e and f differ
        swap = (es[rows, first] > fs[rows, first])[:, None]
        es, fs = np.where(swap, fs, es), np.where(swap, es, fs)
        order = np.lexsort(es.T[::-1])
        es, fs, in_e = es[order], fs[order], np.where(swap, in_f, in_e)[order]
    ghat = hat_group(field, group)
    selection = (in_e, vecs) if _PARTS_ROWS * len(in_e) >= len(vecs) ** 2 else None
    fixed, swapped = _pair_axioms(field, group, mu, ghat, es, fs, selection)
    return _PairStacks(field, group, mu, ghat, es, fs, fixed, swapped)


@dataclass(frozen=True, eq=False)
class _PairStacks(Sequence):
    """The checked pairs of `construct_pairs` as stacks: row i of es and fs
    is pair i's e and f, fixed[i] and swapped[i] its mu_-1 flags."""

    field: FiniteField
    group: Group
    mu: Antiautomorphism
    ghat: AlgebraElement
    es: np.ndarray
    fs: np.ndarray
    fixed: list[bool]
    swapped: list[bool]

    def __len__(self) -> int:
        return len(self.es)

    def __getitem__(self, i: int) -> DuadicPair:
        """Pair i as a DuadicPair, stored without a second check."""
        field, group = self.field, self.group
        e, f = AlgebraElement(field, group, self.es[i]), AlgebraElement(field, group, self.fs[i])
        return DuadicPair.__new__(DuadicPair)._set(
            field, group, e, f, self.mu, self.ghat, self.fixed[i], self.swapped[i]
        )


@dataclass(frozen=True)
class DuadicCodes:
    """The four codes of a pair: even-like C_e, C_f and odd-like D_e, D_f."""

    pair: DuadicPair
    c_e: LinearCode
    c_f: LinearCode
    d_e: LinearCode
    d_f: LinearCode


def duadic_codes(pair: DuadicPair) -> DuadicCodes:
    """Build C_e = Re, C_f = Rf, D_e = R(1-f) and D_f = R(1-e) and verify them.

    C_e is the pair's one elimination.  The axioms DuadicPair checks make e,
    f and Ghat orthogonal idempotents with sum 1, and mu maps Re onto Rf, so
    R = Re + Rf + F Ghat is direct with dim Re = k = (n-1)/2: any k
    independent translates of e span Re, and k + 4 of them are eliminated
    (all n only when their rank falls short; `code_from_ideal`).  The other codes keep the
    systematic form they are derived in.  mu is a semilinear bijection of R
    with mu(g e) = f mu(g), so C_f = mu(C_e), its k rows mapped; 1 - f = e +
    Ghat with e Ghat = 0, so D_e = C_e + span(Ghat) and D_f = C_f +
    span(Ghat), one row added.  A derived code X of the idempotent a lies in
    Ra (x a = x for its rows, checked), and the dimensions checked below are
    the ideals', which make C_e = Re and X = Ra."""
    field, group = pair.field, pair.group
    n = group.order
    one = AlgebraElement.one(field, group)
    c_e = code_from_ideal(pair.e, (n - 1) // 2)
    c_f = _mu_image(c_e, pair.mu, pair.f)
    d_e = _plus_vector(c_e, pair.ghat.vec, one - pair.f)
    d_f = _plus_vector(c_f, pair.ghat.vec, one - pair.e)
    expected = {
        "dim C_e": (c_e.k, (n - 1) // 2),
        "dim C_f": (c_f.k, (n - 1) // 2),
        "dim D_e": (d_e.k, (n + 1) // 2),
        "dim D_f": (d_f.k, (n + 1) // 2),
    }
    bad = [f"{name}: {got} != {want}" for name, (got, want) in expected.items() if got != want]
    if bad:
        raise VerificationError("; ".join(bad))
    return DuadicCodes(pair, c_e, c_f, d_e, d_f)


@dataclass(frozen=True)
class DualityReport:
    """Which inversion-duality case applies, the verified equalities, and
    the duals of C_e and D_e they give."""

    case: str  # "i" (mu_-1 swaps e and f), "ii" (mu_-1 fixes them), or "mixed"
    equalities: tuple[tuple[str, bool], ...]
    verified: bool
    c_e_perp: LinearCode
    d_e_perp: LinearCode


def classify_duality(pair: DuadicPair, codes: DuadicCodes | None = None) -> DualityReport:
    """Check the dual identities C_e-perp = D_e (case i) / D_f (case ii).

    For a central idempotent a, (Ra)-perp = R(1 - mu_-1(a)) = mu_-1(R(1 - a)).
    When mu_-1 swaps e and f (case i) or fixes them (case ii) the duals are
    codes already built.  Otherwise ("mixed") C_e-perp = mu_-1(D_f) and
    D_e-perp = mu_-1(C_f), each a built code's rows mapped.
    Each identity is checked once by `check_dual` (VerificationError if it
    fails); D_e-perp = C_e in case i and = C_f in case ii follow from the
    C_e and C_f identities by taking duals.
    """
    if codes is None:
        codes = duadic_codes(pair)
    c_e, c_f, d_e, d_f = codes.c_e, codes.c_f, codes.d_e, codes.d_f
    if pair.swapped_by_mu_minus1:
        case, c_e_perp, d_e_perp = "i", d_e, c_e
        checks = {"C_e-perp = D_e": (c_e, d_e), "C_f-perp = D_f": (c_f, d_f)}
    elif pair.fixed_by_mu_minus1:
        case, c_e_perp, d_e_perp = "ii", d_f, c_f
        checks = {"C_e-perp = D_f": (c_e, d_f), "C_f-perp = D_e": (c_f, d_e)}
    else:
        mu1 = builtin_mu_minus1(pair.group)
        m1f = apply_antiauto(mu1, pair.f)
        case = "mixed"
        c_e_perp = _mu_image(d_f, mu1, m1f + pair.ghat)  # mu_-1(1 - e) = mu_-1(f) + Ghat
        d_e_perp = _mu_image(c_f, mu1, m1f)
        checks = {"C_e-perp = R(1 - mu_-1(e))": (c_e, c_e_perp)}
        check_dual(d_e_perp, d_e)  # the C_f identity, mapped by mu_-1
    for code, other in checks.values():
        check_dual(code, other)
    return DualityReport(case, tuple((name, True) for name in checks), True, c_e_perp, d_e_perp)


def odd_like_bound(pair: DuadicPair) -> tuple[str, int]:
    """The applicable odd-like weight bound and the smallest weight meeting it.

    The square bound d^2 >= n holds for every splitting; the sharpened bound
    d^2 - d + 1 >= n applies when the splitting is the inversion map itself.
    """
    n = pair.group.order
    if pair.mu.is_inversion_for(pair.field):
        d = 1
        while d * d - d + 1 < n:
            d += 1
        return "sharpened", d
    d = 1
    while d * d < n:
        d += 1
    return "square", d


def product_duadic(pair1: DuadicPair, pair2: DuadicPair) -> DuadicPair:
    """Duadic pair on G1 x G2 with e = e1 x 1 + Ghat1 x e2, f = f1 x 1 + Ghat1 x f2
    and mu = mu1 x mu2; a x b has a_g1 b_g2 at id g1 * n2 + g2, and e is the
    e1 + e2 - e1 e2 - f1 e2 of the embedded factors as Ghat1 = 1 - e1 - f1.
    The witnesses, members of Re or Rf kept as degeneracy evidence, are u x 1
    for u in (e1, f1, *pair1.witnesses): f1 x 1 kills Re and e1 x 1 kills Rf
    but send 1 x u to f1 x u and e1 x u, so no nonzero 1 x u lies in either.
    """
    if pair1.field != pair2.field:
        raise ValueError("pairs live over different fields")
    field = pair1.field
    product = group_product(pair1.group, pair2.group)
    one2 = AlgebraElement.one(field, pair2.group)

    def tensor(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(field, product, field.vmul(a.vec[:, None], b.vec[None]).reshape(-1))

    e = tensor(pair1.e, one2) + tensor(pair1.ghat, pair2.e)
    f = tensor(pair1.f, one2) + tensor(pair1.ghat, pair2.f)
    mu = product_antiauto(pair1.mu, pair2.mu, product)
    witnesses = dict.fromkeys(tensor(u, one2) for u in (pair1.e, pair1.f, *pair1.witnesses))
    return DuadicPair(field, product, e, f, mu, witnesses=tuple(witnesses))
