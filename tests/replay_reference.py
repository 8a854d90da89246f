"""Replay every request recorded in `bench/reference.json` and compare outputs.

Run from anywhere with `src` importable:

    PYTHONPATH=src python tests/replay_reference.py

`tests/test_replay_reference.py` runs the same replay (`replay`) in tier 1.

The Cayley tables the requests name are written into a temporary directory,
which is the working directory while the requests run, so the checkout is
never written to.  Every request is served through `duadic.cli.main` in this
one interpreter.  The script prints one line per request whose exit code or
sha256 digest of the `--json` output differs from the recorded one (or that
raises), then one line per benchmark workload with the time its requests
took, then the five slowest requests with their times, and exits 1 if
there is any mismatch, else 0.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def replay() -> tuple[list[str], dict[str, float], dict[str, str]]:
    """Serve every recorded request through `duadic.cli.main` and compare.

    Returns one line per mismatch (or raising request), the time of every
    recorded request in seconds, and the workload of each (`"no workload"`
    for one no pool draws)."""
    sys.path.insert(0, str(BENCH))
    try:
        import pools
    finally:
        sys.path.remove(str(BENCH))
    from duadic.cli import main as cli_main

    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["requests"]
    in_pool = {r.key: name for name, pool in pools.POOLS.items() for r in pool()}
    workload_of = {key: in_pool.get(key, "no workload") for key in reference}
    took = {}  # request -> its time
    bad = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        pools.write_cayley_files(Path(root))
        os.chdir(root)
        try:
            for key in sorted(reference):
                want = reference[key]
                out = io.StringIO()
                begun = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = cli_main(key.split(" "))
                except Exception as exc:  # a raising request is a mismatch, listed with the rest
                    bad.append(f"{key}: raised {type(exc).__name__}: {exc}")
                    continue
                finally:
                    took[key] = time.perf_counter() - begun
                digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
                if code != want["summary"]["exit"]:
                    bad.append(f"{key}: exit {code}, recorded {want['summary']['exit']}")
                elif digest != want["stdout_sha256"]:
                    bad.append(f"{key}: output digest {digest[:12]}, recorded {want['stdout_sha256'][:12]}")
        finally:
            os.chdir(here)
    return bad, took, workload_of


def main() -> int:
    start = time.perf_counter()
    bad, took, workload_of = replay()
    spent = collections.defaultdict(list)  # workload -> its request times
    for key, seconds in took.items():
        spent[workload_of[key]].append(seconds)
    for line in bad:
        print(line)
    for workload, times in sorted(spent.items()):
        print(f"{workload}: {len(times)} requests in {sum(times):.2f} s")
    for key in sorted(took, key=took.get, reverse=True)[:5]:
        print(f"slow: {took[key] * 1e3:.0f} ms {key}")
    print(f"{len(took) - len(bad)}/{len(took)} requests match in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
