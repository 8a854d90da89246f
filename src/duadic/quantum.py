"""CSS stabilizer codes from nested classical codes, with exact set-difference
distances when enumerable and tagged lower bounds otherwise.  A report that enumerates
nothing builds no code (`analyze_pair`): its dimensions and `verified` rest
on the idempotent identities, and the matrix identities run when a code is
built, and in `verify structure` and the tests."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def css_distance(
    code: CssCode, cap: int = DEFAULT_ENUM_CAP, fallback: DistanceRecord | None = None
) -> DistanceRecord:
    """Exact d = min weight over (D \\ C) union (C-perp \\ D-perp).

    When D-perp = C, as in duality case i, then C-perp = D too: the two
    differences coincide and only one enumeration runs.  Above the cap on
    both differences' total the supplied fallback bound is returned; with no
    fallback the cap is a hard error.
    """
    if code.k == 0:
        raise ValueError("k = 0 code has no logical operators to weigh")
    q, n, c, d = code.field.q, code.n, code.code_c, code.code_d
    collapsed = code.dual_d == c
    total = q**d.k - q**c.k
    if not collapsed:
        total += q ** (n - c.k) - q ** (n - d.k)
    if total > as_int(cap, "cap", lo=1):
        if fallback is not None:
            return fallback
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
    them need no correction.  Counts are exact when the side is enumerable;
    otherwise witness words (and their group translates, for ideal-generated
    codes) give lower-bound evidence.
    """
    if code.distance is None:
        raise ValueError("code has no distance record; run css_distance first")
    d = code.distance.value
    sides = []
    for name, side_code in (("C", code.code_c), ("D-perp", code.dual_d)):
        try:
            dist = weight_distribution(side_code, cap)
        except EnumerationCapError:
            sides.append(_witness_side(name, code.witnesses, d, lambda w: side_code.contains(w.vec)))
        else:
            counts = tuple((w, int(dist[w])) for w in range(1, min(d, len(dist))) if dist[w])
            sides.append(SideEvidence(name, True, counts))
    return DegeneracyReport(any(s.counts for s in sides), code.distance, tuple(sides))


def _witness_side(name: str, witnesses: tuple, d: int, contains) -> SideEvidence:
    """Lower-bound evidence of one side: the witnesses of weight below d
    that contains() admits, counted with their group translates."""
    found: dict[int, set[bytes]] = {}
    for w in witnesses:
        wt = w.weight()
        if 0 < wt < d and contains(w):
            found.setdefault(wt, set()).update(row.tobytes() for row in w.vec[w.group.left_translation])
    return SideEvidence(name, False, tuple((wt, len(tr)) for wt, tr in sorted(found.items())))


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

    Each distance is exact when its enumeration fits in cap words and the
    odd-like bound of the pair otherwise.  With k = (n-1)/2, D_e \\ C_e has
    (q-1) q^k words, the CSS total counts it twice outside case i, and each
    degeneracy side has q^k words, so where q^k > cap no code is built.
    """
    bound_type, bound_d = odd_like_bound(pair)
    fallback = DistanceRecord(bound_d, False, f"odd-like-{bound_type}-bound")
    case, names = duality_case(pair)
    group = pair.group
    if pair.field.q ** (group.order // 2) > as_int(cap, "cap", lo=1):
        # a witness w lies in the ideal Ra of a central idempotent a iff w a = w
        # (w = r a gives w a = r a^2); C = Re, and D-perp = R mu_-1(f) since
        # D_e = R(1 - f) and mu_-1 fixes 1
        m1f = AlgebraElement(pair.field, group, pair.f.vec[group.inverse])  # mu_-1(f), as in `_pair_axioms`
        sides = tuple(
            _witness_side(name, pair.witnesses, bound_d, lambda w, a=a: w * a == w)
            for name, a in (("C", pair.e), ("D-perp", m1f))
        )
        degeneracy = DegeneracyReport(any(s.counts for s in sides), fallback, sides)
        return PairAnalysis(pair, case, names, (bound_type, bound_d), (fallback, fallback), degeneracy)
    codes = duadic_codes(pair)
    duality = classify_duality(pair, codes)
    odd_like = []
    for side in "ef":
        try:
            d, _ = odd_like_min_weight(codes, side, cap)
        except EnumerationCapError:
            odd_like.append(fallback)
        else:
            odd_like.append(DistanceRecord(d, True, "coset-enumeration"))
    css = CssCode(codes.c_e, codes.d_e, duality.c_e_perp, duality.d_e_perp, witnesses=pair.witnesses)
    css.distance = css_distance(css, cap=cap, fallback=fallback)
    analysis = PairAnalysis(pair, case, names, (bound_type, bound_d), tuple(odd_like), degeneracy_report(css, cap=cap))
    analysis.codes, analysis.duality, analysis.css = codes, duality, css  # those its distances were enumerated on
    return analysis
