"""Request pools of the three workloads and the seeded draw of a run's requests.

A request is a CLI argument list for `duadic.cli.main`.  Pools are built from
number theory alone (orders, gcds, cyclotomic cosets), never by running the
program, so the pool of a workload is the same at every commit.  The Cayley
tables some requests name are written by `write_cayley_files` before timing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# relative to the checkout root, so that the group spec (and therefore the
# JSON report) is the same in every checkout
CAYLEY_DIR = ".bench_out/cayley"

EXACT_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)
BOUND_QS = (2, 3, 4, 5, 7)
SCAN_QS = "2,3,4,5,7,8,9"
EXACT_MIN_WORDS, EXACT_MAX_WORDS = 1 << 10, 1 << 22
EXACT_MAX_N = 43  # 2^((n+1)/2) <= 2^22
BOUND_MIN_WORDS = 1 << 24
BOUND_MAX_N = 263
ENUMERATE_ALL_MAX_PAIRS = 1 << 8
# (p, r): the metacyclic groups Z_p : Z_r of the construct-bound pool
BOUND_METACYCLIC = ((19, 3), (31, 3), (37, 3), (73, 3), (43, 7))
EXACT_METACYCLIC = ((7, 3),)
SCAN_CYCLIC_MAX_N = 199
# p <= 13: the scans of 17x17 and 19x19 take 6 and 9 s each, half a run's
# budget, which would leave too few requests for the latency percentiles
SCAN_PXP_PRIMES = (3, 5, 7, 11, 13)


@dataclass(frozen=True)
class Request:
    """One closed-loop request: a CLI argument list."""

    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def ord_mod(q: int, n: int) -> int:
    """Multiplicative order of q modulo n (gcd(q, n) = 1, n > 1)."""
    k, x = 1, q % n
    while x != 1:
        x = x * q % n
        k += 1
    return k


def inversion_splits(n: int, q: int) -> bool:
    """mu_-1 splits F_q[G] for |G| = n odd iff ord_n(q) is odd."""
    return n % 2 == 1 and math.gcd(n, q) == 1 and ord_mod(q, n) % 2 == 1


def cyclotomic_coset_count(n: int, q: int) -> int:
    """Number of q-cyclotomic cosets of Z_n, the zero coset included."""
    seen = [False] * n
    count = 0
    for s in range(n):
        if not seen[s]:
            count += 1
            x = s
            while not seen[x]:
                seen[x] = True
                x = x * q % n
    return count


def metacyclic_root(p: int, r: int) -> int:
    """Smallest s with multiplicative order exactly r modulo the prime p."""
    for s in range(2, p):
        if ord_mod(s, p) == r:
            return s
    raise ValueError(f"no element of order {r} modulo {p}")


def metacyclic_cayley_text(p: int, r: int) -> str:
    """Cayley table of Z_p : Z_r = <a, b | a^p, b^r, b^-1 a b = a^s>.

    Element a^i b^j has id r*i + j, so id 0 is the identity; the product is
    (a^i1 b^j1)(a^i2 b^j2) = a^(i1 + i2 s^j1) b^(j1 + j2).
    """
    s = metacyclic_root(p, r)
    n = p * r
    lines = [str(n)]
    for i1 in range(p):
        for j1 in range(r):
            row = []
            scale = pow(s, j1, p)
            for i2 in range(p):
                for j2 in range(r):
                    row.append(str(r * ((i1 + i2 * scale) % p) + (j1 + j2) % r))
            lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def cayley_path(p: int, r: int) -> str:
    return f"{CAYLEY_DIR}/z{p}_z{r}.cayley"


def write_cayley_files(root: Path) -> None:
    """Write every Cayley table the pools name, below root."""
    (root / CAYLEY_DIR).mkdir(parents=True, exist_ok=True)
    for p, r in EXACT_METACYCLIC + BOUND_METACYCLIC:
        (root / cayley_path(p, r)).write_text(metacyclic_cayley_text(p, r), encoding="utf-8")


def _construct(group: str, q: int, mu: str, *extra: str) -> Request:
    return Request(("construct", "--group", group, "--q", str(q), "--mu", mu, *extra, "--json"))


def _exact_size_ok(n: int, q: int) -> bool:
    return EXACT_MIN_WORDS <= q ** ((n + 1) // 2) <= EXACT_MAX_WORDS


def pool_construct_exact() -> list[Request]:
    """Splitting cells with q^((n+1)/2) in [2^10, 2^22]: every distance is exact."""
    pool = []
    for n in range(3, EXACT_MAX_N + 1, 2):
        for q in EXACT_QS:
            if inversion_splits(n, q) and _exact_size_ok(n, q):
                pool.append(_construct(str(n), q, "mu-1"))
    for p in (3, 5):
        for q in EXACT_QS:
            if math.gcd(p, q) == 1 and swap_splits(p, q) and _exact_size_ok(p * p, q):
                pool.append(_construct(f"{p}x{p}", q, "swap"))
    for p, r in EXACT_METACYCLIC:
        pool.append(_construct("@" + cayley_path(p, r), 4, "mu-1"))
    return pool


def swap_splits(p: int, q: int) -> bool:
    """The swap map on Z_p x Z_p splits F_q[G] iff ord_p(q) is even.

    Checked against the library's splitting test for p <= 7 with every prime
    power q <= 32 and for p in {11, 13} with q <= 9 (the pools only use
    p in {3, 5}).
    """
    return math.gcd(p, q) == 1 and ord_mod(q, p) % 2 == 0


def pool_construct_bound() -> list[Request]:
    """Splitting cells with q^((n-1)/2) > 2^24: every distance is a tagged bound."""
    pool = []
    for n in range(3, BOUND_MAX_N + 1, 2):
        for q in BOUND_QS:
            if inversion_splits(n, q) and q ** ((n - 1) // 2) > BOUND_MIN_WORDS:
                pool.append(_construct(str(n), q, "mu-1"))
                halves = (cyclotomic_coset_count(n, q) - 1) // 2
                if 2 <= halves and 2 ** (halves - 1) <= ENUMERATE_ALL_MAX_PAIRS:
                    pool.append(_construct(str(n), q, "mu-1", "--enumerate-all"))
    for p, r in BOUND_METACYCLIC:
        n = p * r
        for q in BOUND_QS:
            if inversion_splits(n, q) and q ** ((n - 1) // 2) > BOUND_MIN_WORDS:
                pool.append(_construct("@" + cayley_path(p, r), q, "mu-1"))
    pool.append(_construct("3x3,3x3", 2, "swap", "--product"))
    return pool


def _scan(family: str, flag: str, value: int, mu: str) -> Request:
    return Request(("scan", "--family", family, flag, str(value), "--q", SCAN_QS, "--mu", mu, "--json"))


def pool_scan() -> list[Request]:
    """One scan per group over SCAN_QS."""
    cyclic = [_scan("cyclic", "--n", n, "mu-1") for n in range(3, SCAN_CYCLIC_MAX_N + 1, 2)]
    return cyclic + [_scan("pxp", "--p", p, "swap") for p in SCAN_PXP_PRIMES]


POOLS = {
    "construct-exact": pool_construct_exact,
    "construct-bound": pool_construct_bound,
    "scan": pool_scan,
}


# the costliest requests, as many as fit in this share of the budget, are in
# every run, so that a single costly request never decides a run's
# throughput, tail latency or peak memory by its absence
CERTAIN_SHARE = 0.3
PASSES = 3


def draw(workload: str, seed: int, costs: dict[str, float], budget_s: float) -> list[list[Request]]:
    """The run's passes: ordered request lists drawn from the pool by seed.

    `costs` maps a request key to its reference latency, and the draw fills
    `budget_s` reference seconds.  The costliest requests are always drawn,
    as many as fit in CERTAIN_SHARE of the budget.  The rest are sorted by
    cost and cut into as many blocks of equal size (to within one) as fill
    the budget at their mean cost, and one request is drawn from each
    block, so every run has nearly the same mix of cheap and costly
    requests and seeds differ only among requests of similar cost.  A pool
    cheaper than the budget is drawn whole and served in several rounds.
    Each round is split into passes of similar cost; a pass runs in its own
    interpreter and never repeats a request.
    """
    rng = random.Random(f"{workload}/{seed}")
    pool = POOLS[workload]()
    rest = sorted(pool, key=lambda r: (costs[r.key], r.key))
    certain: list[Request] = []
    while rest and sum(costs[r.key] for r in certain + rest[-1:]) <= CERTAIN_SHARE * budget_s:
        certain.append(rest.pop())
    total = sum(costs[r.key] for r in pool)
    spare = budget_s - sum(costs[r.key] for r in certain)
    rest_cost = sum(costs[r.key] for r in rest)
    if spare >= rest_cost:
        chosen, rounds = certain + rest, max(1, round(budget_s / total))
    else:
        count = max(1, round(len(rest) * spare / rest_cost))
        edges = [round(i * len(rest) / count) for i in range(count + 1)]
        chosen = certain + [rng.choice(rest[a:b]) for a, b in zip(edges, edges[1:])]
        rounds = 1
    per_round = math.ceil(PASSES / rounds)
    passes = []
    for _ in range(rounds):
        order = rng.sample(chosen, len(chosen))
        split: list[list[Request]] = [[] for _ in range(per_round)]
        load = [0.0] * per_round
        for r in order:
            i = load.index(min(load))
            split[i].append(r)
            load[i] += costs[r.key]
        passes.extend(p for p in split if p)
    return passes
