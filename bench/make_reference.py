"""Record the reference every run checks against: `python3 bench/make_reference.py`.

Serves every request of every pool SWEEPS times, each sweep in one fresh
interpreter per workload and in its own shuffled order, and writes
`bench/reference.json`: per request the summary the checker compares, a
digest of the full `--json` output and the median latency over the sweeps,
which the seeded draw uses to group requests of similar cost.  A request
whose output differs between sweeps stops the recording.  Run it only on
the commit whose behaviour is the reference.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time

import check
import pools
import run

SWEEPS = 3


def main() -> int:
    pools.write_cayley_files(run.ROOT)
    run.setup_probe()
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT, capture_output=True, text=True
    ).stdout.strip()
    entries, latencies = {}, {}
    for sweep in range(SWEEPS):
        for workload, build in pools.POOLS.items():
            requests = build()
            random.Random(f"reference/{workload}/{sweep}").shuffle(requests)
            _, answers, final = run.run_pass(requests, deadline=time.perf_counter() + 3600)
            if final is None:
                print(f"{workload}: worker failed", file=sys.stderr)
                return 1
            for req, res in zip(requests, answers):
                if res["error"] is not None:
                    print(f"{req.key}: raised {res['error']}", file=sys.stderr)
                    return 1
                entry = {
                    "workload": workload,
                    "summary": check.summarize(req.argv, res["exit"], res["stdout"]),
                    "stdout_sha256": check.digest(res["stdout"]),
                }
                if entries.setdefault(req.key, entry) != entry:
                    print(f"{req.key}: output differs between sweeps", file=sys.stderr)
                    return 1
                latencies.setdefault(req.key, []).append(res["latency_s"])
            print(f"sweep {sweep}, {workload}: {len(requests)} requests in {final['serving_s']:.1f} s")
    for key, entry in entries.items():
        entry["latency_s"] = round(statistics.median(latencies[key]), 4)
    record = {"commit": commit or None, "machine": run.machine_facts(), "requests": entries}
    check.REFERENCE_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
