"""Reference summaries of CLI outputs and the checker that compares against them.

A summary keeps what the checker compares: the exit code, existence verdicts,
pair count, dimensions, duality, tagged distances, and degeneracy counts.
The reference (`reference.json`) holds one summary per pool request, recorded
from the seed commit, with a digest of the full `--json` output and the
request's latency on the recording machine.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

DISTANCE_NAMES = ("odd_like_d_e", "odd_like_d_f", "quantum_d")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(argv, code: int, stdout: str) -> dict:
    """The comparable facts of one request's exit code and `--json` output."""
    out = {"exit": code}
    if code != 0:
        return out
    reports = json.loads(stdout)
    if argv[0] == "scan":
        out["cells"] = {f"{r['group']}|{r['q']}|{r['mu']}": r["existence"] for r in reports}
        return out
    (r,) = reports
    distances = {d["name"]: [d["value"], d["exact"]] for d in r["distances"]}
    distances["quantum_d"] = [r["quantum"]["d"], r["quantum"]["exact"]]
    out.update(
        existence=r["existence"],
        pairs=len(r["pairs"]),
        dims=r["dims"],
        duality=r["duality"],
        nk=[r["quantum"]["n"], r["quantum"]["k"]],
        distances=distances,
        degeneracy=[[s["side"], s["exact"], s["counts"]] for s in r["degeneracy"]["sides"]],
    )
    return out


def odd_like_bound(n: int, mu: str) -> int:
    """Smallest d meeting the odd-like bound: d^2 - d + 1 >= n for the
    inversion splitting, d^2 >= n for any other."""
    if mu == "mu-1":
        return next(d for d in range(1, n + 1) if d * d - d + 1 >= n)
    return math.isqrt(n - 1) + 1


def _distance_problems(name: str, ref, got) -> list[str]:
    (rv, rexact), (gv, gexact) = ref, got
    if rexact and gexact and rv != gv:
        return [f"{name}: exact {gv} != reference exact {rv}"]
    if gexact and not rexact and gv < rv:
        return [f"{name}: exact {gv} below the reference bound {rv}"]
    if rexact and not gexact and gv > rv:
        return [f"{name}: bound {gv} above the reference exact {rv}"]
    return []


def compare(argv, ref: dict, got: dict) -> list[str]:
    """Reasons the request failed against its reference; empty when it passed.

    Exactness may change in either direction; only values that both runs
    claim exact must agree, and an exact value may not contradict a bound.
    """
    if got["exit"] != ref["exit"]:
        return [f"exit code {got['exit']} != reference {ref['exit']}"]
    if ref["exit"] != 0:
        return []
    if argv[0] == "scan":
        problems = []
        for cell, existence in ref["cells"].items():
            if cell not in got["cells"]:
                problems.append(f"scan cell {cell} missing")
            elif got["cells"][cell] != existence:
                problems.append(f"scan cell {cell}: {got['cells'][cell]} != {existence}")
        return problems
    problems = [
        f"{key}: {got[key]} != reference {ref[key]}"
        for key in ("existence", "pairs", "dims", "duality", "nk")
        if got[key] != ref[key]
    ]
    for name in DISTANCE_NAMES:
        problems += _distance_problems(name, ref["distances"][name], got["distances"][name])
    if ref["distances"]["quantum_d"][1] and got["distances"]["quantum_d"][1]:
        for rside, gside in zip(ref["degeneracy"], got["degeneracy"]):
            if rside[1] and gside[1] and rside != gside:
                problems.append(f"degeneracy {gside[0]}: {gside[2]} != reference {rside[2]}")
    mu = argv[argv.index("--mu") + 1]
    bound = odd_like_bound(got["nk"][0], mu)
    for name in ("odd_like_d_e", "odd_like_d_f"):
        value, exact = got["distances"][name]
        if exact and value < bound:
            problems.append(f"{name}: exact {value} below the odd-like bound {bound}")
    return problems


def distance_tags(summary: dict) -> list[bool]:
    """Exactness tags of the three distances a construct reports."""
    if "distances" not in summary:
        return []
    return [summary["distances"][name][1] for name in DISTANCE_NAMES]


def cells_answered(argv, summary: dict) -> int:
    if summary["exit"] != 0:
        return 0
    return len(summary["cells"]) if argv[0] == "scan" else 1


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
