"""CSS stabilizer codes from nested classical codes, with exact set-difference
distances when enumerable and tagged lower bounds otherwise.  `analyze_pair`
decides which numbers of a pair are exact, and enumerates only those; the
enumerators only enforce the cap.  A report that enumerates nothing builds
no code: the matrix identities run when a code is built, in `verify
structure` and in the tests."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import _linalg
from .algebra import AlgebraElement
from .codes import (
    DEFAULT_ENUM_CAP,
    LinearCode,
    difference_min_weight,
    dual,
    odd_like_min_weight,
    subcode_check,
    weight_distribution,
)
from .duadic import DuadicCodes, DuadicPair, DualityReport, classify_duality
from .duadic import construct_pairs, duadic_codes, duality_case, odd_like_bound
from .errors import EnumerationCapError
from .gf import FiniteField, as_int
from .groups import Antiautomorphism, Group


@dataclass(frozen=True)
class DistanceRecord:
    """A distance value with its exactness tag and how it was obtained."""

    value: int
    exact: bool
    provenance: str

    def __post_init__(self):
        as_int(self.value, "distance", lo=0)

    def tag(self) -> str:
        return "exact" if self.exact else "lower-bound"

    def __str__(self) -> str:
        return f"{self.value} ({self.tag()}, {self.provenance})"


class CssCode:
    """An [[n, k, d]]_q stabilizer code built from classical codes C inside D.

    X-stabilizers are the generators of C, Z-stabilizers those of D-perp.
    C inside D is checked on build (ValueError otherwise).  The duals
    dual_c = C-perp and dual_d = D-perp are trusted as given, the way a
    `Group` trusts its table: `css_build` computes them, and `analyze_pair`
    passes those `classify_duality` verified.  So the two stabilizer sets
    are orthogonal with no product of their own.
    """

    def __init__(
        self,
        code_c: LinearCode,
        code_d: LinearCode,
        dual_c: LinearCode,
        dual_d: LinearCode,
        distance: DistanceRecord | None = None,
        witnesses: tuple = (),
    ):
        if code_c.field != code_d.field or code_c.n != code_d.n:
            raise ValueError("C and D live in different spaces")
        if not subcode_check(code_c, code_d):
            raise ValueError("CSS construction needs C contained in D")
        self.field = code_c.field
        self.code_c = code_c
        self.code_d = code_d
        self.dual_c = dual_c
        self.dual_d = dual_d
        self.n = code_c.n
        self.k = code_d.k - code_c.k
        self.x_stabilizers = code_c.gen
        self.z_stabilizers = dual_d.gen
        self.distance = distance
        self.witnesses = tuple(witnesses)

    def params(self) -> str:
        return _params(self.n, self.k, self.field.q, self.distance)

    def __repr__(self) -> str:
        return f"CssCode({self.params()})"


def _params(n: int, k: int, q: int, distance: DistanceRecord | None) -> str:
    d = "?" if distance is None else str(distance.value) if distance.exact else f">={distance.value}"
    return f"[[{n},{k},{d}]]_{q}"


def css_build(
    code_c: LinearCode,
    code_d: LinearCode,
    distance: DistanceRecord | None = None,
    witnesses: tuple = (),
) -> CssCode:
    """The CSS code of any nested codes C inside D, with both duals computed
    (one `dual` when D-perp = C, since then C-perp = D)."""
    dual_d = dual(code_d)
    dual_c = code_d if dual_d == code_c else dual(code_c)
    return CssCode(code_c, code_d, dual_c, dual_d, distance=distance, witnesses=witnesses)


def css_distance(code: CssCode, cap: int = DEFAULT_ENUM_CAP) -> DistanceRecord:
    """Exact d = min weight over (D \\ C) union (C-perp \\ D-perp).

    When D-perp = C, as in duality case i, then C-perp = D too: the two
    differences coincide and only one enumeration runs.  EnumerationCapError
    when the differences' total exceeds the cap.
    """
    if code.k == 0:
        raise ValueError("k = 0 code has no logical operators to weigh")
    q, n, c, d = code.field.q, code.n, code.code_c, code.code_d
    collapsed = code.dual_d == c
    total = q**d.k - q**c.k
    if not collapsed:
        total += q ** (n - c.k) - q ** (n - d.k)
    if total > as_int(cap, "cap", lo=1):
        raise EnumerationCapError(f"distance enumeration of {total} words exceeds cap {cap}")
    best, _ = difference_min_weight(c, d, cap)
    if not collapsed:
        best = min(best, difference_min_weight(code.dual_d, code.dual_c, cap)[0])
    return DistanceRecord(best, True, "coset-enumeration")


def quantum_duadic(
    field: FiniteField,
    group: Group,
    mu: Antiautomorphism,
    cap: int = DEFAULT_ENUM_CAP,
) -> CssCode:
    """End-to-end pipeline: splitting check, canonical pair, duadic codes,
    CSS code on (C_e, D_e) with an exact or bound-tagged distance."""
    return analyze_pair(construct_pairs(mu, field, group)[0], cap).css


@dataclass(frozen=True)
class SideEvidence:
    """Sub-distance codewords found on one stabilizer side."""

    side: str  # "C" (X-stabilizer code) or "D-perp" (Z-stabilizer code)
    exact: bool
    counts: tuple[tuple[int, int], ...]  # (weight, number of words), weights < d


@dataclass(frozen=True)
class DegeneracyReport:
    degenerate: bool
    distance: DistanceRecord
    sides: tuple[SideEvidence, ...]


def degeneracy_report(code: CssCode, cap: int = DEFAULT_ENUM_CAP) -> DegeneracyReport:
    """Find codewords of C and D-perp below the code distance.

    Such words are stabilizer-equivalent to the identity, so errors matching
    them need no correction.  A side of q^dim <= cap words is enumerated and
    its counts are exact; otherwise the group translates of the witness
    words that the side contains give lower-bound evidence.
    """
    if code.distance is None:
        raise ValueError("code has no distance record; run css_distance first")
    d, field = code.distance.value, code.field
    sides = []
    for name, side_code in (("C", code.code_c), ("D-perp", code.dual_d)):
        if field.q**side_code.k <= as_int(cap, "cap", lo=1):
            dist = weight_distribution(side_code, cap)
            counts = tuple((w, int(dist[w])) for w in range(1, min(d, len(dist))) if dist[w])
            sides.append(SideEvidence(name, True, counts))
        else:  # a translate t is a codeword iff t = t[pivots] gen: one product for all n of them
            gen, pivots = side_code.gen, side_code.pivots
            members = lambda w, t: t[(_linalg.matmul(field, t[:, pivots], gen) == t).all(axis=1)]
            sides.append(_witness_side(name, code.witnesses, d, members))
    return DegeneracyReport(any(s.counts for s in sides), code.distance, tuple(sides))


def _witness_side(name: str, witnesses: tuple, d: int, members) -> SideEvidence:
    """Lower-bound evidence of one side: the distinct words that
    members(w, translates) keeps of the group translates of each witness w
    of weight below d, counted by weight."""
    found: dict[int, set[bytes]] = {}
    for w in witnesses:
        wt = w.weight()
        if 0 < wt < d:
            found.setdefault(wt, set()).update(row.tobytes() for row in members(w, w.vec[w.group.left_translation]))
    return SideEvidence(name, False, tuple((wt, len(tr)) for wt, tr in sorted(found.items()) if tr))


@dataclass
class PairAnalysis:
    """Everything reported for one duadic pair.  The codes behind it,
    `codes`, `duality` with its checked duals and `css` on (C_e, D_e), are
    built where a distance is enumerated, and elsewhere on first read,
    through the checks of `duadic_codes` and `classify_duality`."""

    pair: DuadicPair
    case: str  # `duality_case`: "i", "ii" or "mixed"
    equalities: tuple[str, ...]  # the names of that case's dual identities
    bound: tuple[str, int]  # (bound type, smallest weight meeting it)
    odd_like: tuple[DistanceRecord, DistanceRecord]  # odd-like minimum weights of D_e, D_f
    degeneracy: DegeneracyReport  # its distance record is the CSS code's

    @cached_property
    def codes(self) -> DuadicCodes:
        return duadic_codes(self.pair)

    @cached_property
    def duality(self) -> DualityReport:
        return classify_duality(self.pair, self.codes)

    @cached_property
    def css(self) -> CssCode:
        codes, duality = self.codes, self.duality
        return CssCode(
            codes.c_e, codes.d_e, duality.c_e_perp, duality.d_e_perp, self.degeneracy.distance, self.pair.witnesses
        )

    def params(self) -> str:
        """`css.params()`, read without building the code: k = 1."""
        return _params(self.pair.group.order, 1, self.pair.field.q, self.degeneracy.distance)


def analyze_pair(pair: DuadicPair, cap: int = DEFAULT_ENUM_CAP) -> PairAnalysis:
    """Codes, duality, odd-like and CSS distances, and degeneracy of one pair.

    Each number is exact when its enumeration fits in cap words and the
    odd-like bound of the pair otherwise.  The three rules are decided here,
    from k = (n-1)/2 and the duality case, and an enumerator runs only for
    an exact number: each degeneracy side has q^k words (where q^k > cap no
    code is built), D_e \\ C_e has (q-1) q^k, and the CSS total counts that
    difference twice outside case i, where C-perp \\ D-perp is D_e \\ C_e.
    """
    bound_type, bound_d = odd_like_bound(pair)
    fallback = DistanceRecord(bound_d, False, f"odd-like-{bound_type}-bound")
    case, names = duality_case(pair)
    group, q, cap = pair.group, pair.field.q, as_int(cap, "cap", lo=1)
    words = q ** (group.order // 2)
    sides_exact, odd_exact = words <= cap, (q - 1) * words <= cap
    css_exact = (q - 1) * words * (1 if case == "i" else 2) <= cap
    if not sides_exact:
        # a witness w lies in the ideal Ra of a central idempotent a iff w a = w
        # (w = r a gives w a = r a^2), and then so does each translate g w; C = Re,
        # and D-perp = R mu_-1(f) since D_e = R(1 - f) and mu_-1 fixes 1
        m1f = AlgebraElement(pair.field, group, pair.f.vec[group.inverse])  # mu_-1(f), as in `_pair_axioms`
        sides = tuple(
            _witness_side(name, pair.witnesses, bound_d, lambda w, t, a=a: t if w * a == w else t[:0])
            for name, a in (("C", pair.e), ("D-perp", m1f))
        )
        degeneracy = DegeneracyReport(any(s.counts for s in sides), fallback, sides)
        return PairAnalysis(pair, case, names, (bound_type, bound_d), (fallback, fallback), degeneracy)
    codes = duadic_codes(pair)
    duality = classify_duality(pair, codes)
    odd_like = (fallback, fallback)
    if odd_exact:
        odd_like = tuple(DistanceRecord(odd_like_min_weight(codes, s, cap)[0], True, "coset-enumeration") for s in "ef")
    css = CssCode(codes.c_e, codes.d_e, duality.c_e_perp, duality.d_e_perp, witnesses=pair.witnesses)
    css.distance = css_distance(css, cap) if css_exact else fallback
    analysis = PairAnalysis(pair, case, names, (bound_type, bound_d), odd_like, degeneracy_report(css, cap=cap))
    analysis.codes, analysis.duality, analysis.css = codes, duality, css  # those its distances were enumerated on
    return analysis
