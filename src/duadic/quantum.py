"""The CSS stabilizer code of a duadic pair, with exact set-difference
distances when enumerable and tagged lower bounds otherwise.  `analyze_pair`
decides which numbers are exact and runs the enumerators for those alone;
the enumerators only enforce the cap.  A report that enumerates nothing
builds no code, and none builds its `CssCode`: `PairAnalysis.css` does, on
first read, in `verify structure`, `--emit-matrices` and the tests."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import AlgebraElement
from .codes import (
    DEFAULT_ENUM_CAP,
    LinearCode,
    difference_min_weight,
    odd_like_min_weight,
    subcode_check,
    weight_distribution,
)
from .duadic import DuadicCodes, DuadicPair, DualityReport, classify_duality
from .duadic import duadic_codes, duality_case, odd_like_bound
from .gf import as_int


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
    `Group` trusts its table (`dual(c)`, `dual(d)` for any nested codes;
    `PairAnalysis.css` passes those `classify_duality` verified), so the
    stabilizer sets are orthogonal with no product of their own.
    """

    def __init__(
        self,
        code_c: LinearCode,
        code_d: LinearCode,
        dual_c: LinearCode,
        dual_d: LinearCode,
        distance: DistanceRecord | None = None,
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

    def params(self) -> str:
        return _params(self.n, self.k, self.field.q, self.distance)

    def __repr__(self) -> str:
        return f"CssCode({self.params()})"


def _params(n: int, k: int, q: int, distance: DistanceRecord | None) -> str:
    d = "?" if distance is None else str(distance.value) if distance.exact else f">={distance.value}"
    return f"[[{n},{k},{d}]]_{q}"


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


def _witness_side(name: str, witnesses: tuple, d: int, a: AlgebraElement) -> SideEvidence:
    """Lower-bound evidence of the side R a, a central idempotent: the distinct
    translates g w of each witness w of weight below d in R a, by weight.  w
    lies in R a iff w a = w (w = r a gives w a = r a^2), and then so does g w."""
    found: dict[int, set[bytes]] = {}
    for w in witnesses:
        wt = w.weight()
        if 0 < wt < d and w * a == w:
            found.setdefault(wt, set()).update(row.tobytes() for row in w.vec[w.group.left_translation])
    return SideEvidence(name, False, tuple((wt, len(tr)) for wt, tr in sorted(found.items())))


@dataclass
class PairAnalysis:
    """Everything reported for one duadic pair.  The codes behind it,
    `codes` and `duality` with its checked duals, are built where a number
    is enumerated, and elsewhere on first read, through the checks of
    `duadic_codes` and `classify_duality`; `css` on first read only."""

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
        return CssCode(codes.c_e, codes.d_e, duality.c_e_perp, duality.d_e_perp, self.degeneracy.distance)

    def params(self) -> str:
        """`css.params()`, read without building the code: k = 1."""
        return _params(self.pair.group.order, 1, self.pair.field.q, self.degeneracy.distance)


def analyze_pair(pair: DuadicPair, cap: int = DEFAULT_ENUM_CAP) -> PairAnalysis:
    """Codes, duality, odd-like and CSS distances, and degeneracy of one pair.

    Each number is exact when its enumeration fits in cap words and the
    odd-like bound of the pair otherwise.  The three rules are decided here,
    from k = (n-1)/2 and the duality case, and an enumerator runs only for
    an exact number: each degeneracy side, C_e and D_e-perp, has q^k words
    (where q^k > cap no code is built), D_e \\ C_e has (q-1) q^k, and the CSS
    distance adds C_e-perp \\ D_e-perp of as many words outside case i; in
    case i, D_e-perp = C_e and C_e-perp = D_e, so the two are one set.
    """
    bound_type, bound_d = odd_like_bound(pair)
    fallback = DistanceRecord(bound_d, False, f"odd-like-{bound_type}-bound")
    case, names = duality_case(pair)
    group, q, cap = pair.group, pair.field.q, as_int(cap, "cap", lo=1)
    words = q ** (group.order // 2)
    sides_exact, odd_exact = words <= cap, (q - 1) * words <= cap
    css_exact = (q - 1) * words * (1 if case == "i" else 2) <= cap
    if not sides_exact:
        # C = Re, and D-perp = R mu_-1(f) since D_e = R(1 - f) and mu_-1 fixes 1
        m1f = AlgebraElement(pair.field, group, pair.f.vec[group.inverse])  # mu_-1(f), as in `_pair_axioms`
        sides = tuple(_witness_side(name, pair.witnesses, bound_d, a) for name, a in (("C", pair.e), ("D-perp", m1f)))
        degeneracy = DegeneracyReport(any(s.counts for s in sides), fallback, sides)
        return PairAnalysis(pair, case, names, (bound_type, bound_d), (fallback, fallback), degeneracy)
    codes = duadic_codes(pair)
    duality = classify_duality(pair, codes)
    odd_like, distance = (fallback, fallback), fallback
    if odd_exact:
        odd_like = tuple(DistanceRecord(odd_like_min_weight(codes, s, cap)[0], True, "coset-enumeration") for s in "ef")
    if css_exact:
        differences = [(codes.c_e, codes.d_e)] + ([] if case == "i" else [(duality.d_e_perp, duality.c_e_perp)])
        best = min(difference_min_weight(small, big, cap)[0] for small, big in differences)
        distance = DistanceRecord(best, True, "coset-enumeration")
    dists = (("C", weight_distribution(codes.c_e, cap)), ("D-perp", weight_distribution(duality.d_e_perp, cap)))
    d = distance.value
    sides = tuple(SideEvidence(name, True, tuple((w, int(a[w])) for w in range(1, min(d, len(a))) if a[w])) for name, a in dists)
    degeneracy = DegeneracyReport(any(s.counts for s in sides), distance, sides)
    analysis = PairAnalysis(pair, case, names, (bound_type, bound_d), odd_like, degeneracy)
    analysis.codes, analysis.duality = codes, duality  # those its distances were enumerated on
    return analysis
