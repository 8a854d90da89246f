"""Closed-loop benchmark of the duadic CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the checkout root.  The seed draws the run's requests from the
workload's pool (see pools.py); each pass serves its requests in a fresh
interpreter through `duadic.cli.main`, one at a time.  Every output is
checked against the reference recorded from the seed commit.  With
`--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
serves the first pass untraced and then traced and reports the per-layer
metrics.  Each metric is printed as `name value unit`, the last line is one
JSON object, and the full result with machine facts goes to
`.bench_out/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import pools  # noqa: E402
from layers import PER_LAYER  # noqa: E402

OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# setup samples per run: one per pass, the rest from probes spread between
# the passes so that they see the same machine conditions as the requests
SETUP_SAMPLES = 15
# share of --seconds filled with requests (at reference speed); the rest is
# left for interpreter setup, setup probes and checking
BUDGET_SHARE = 0.85
# the whole run, passes and checks included, stays well inside 180 s
DEADLINE_S = 150.0
TAIL_BEYOND = 10
# grid points of the Beta density behind the Harrell-Davis weights
HD_GRID = 20000


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    # one hash order for every pass, so set iteration does the same work
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Pass:
    """One worker interpreter: its setup time, then one list of requests."""

    def __init__(self, trace_path: Path | None = None):
        cmd = [sys.executable, str(HERE / "worker.py")]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=worker_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if ready.strip() != "ready":
            self.close()
            raise RuntimeError("worker failed to import duadic.cli")

    def serve(self, requests, deadline: float) -> tuple[list[dict | None], dict | None]:
        """Closed loop: send each request once the previous answer arrived.

        Returns the answers (None where none came) and the pass's closing
        record; a worker still busy at the deadline is killed.
        """
        watchdog = threading.Timer(max(deadline - time.perf_counter(), 0.0), self.proc.kill)
        watchdog.start()
        answers: list[dict | None] = []
        try:
            for req in requests + [None]:
                self.proc.stdin.write((json.dumps(list(req.argv)) if req else "") + "\n")
                self.proc.stdin.flush()
                line = self.proc.stdout.readline()
                answers.append(json.loads(line) if line else None)
        except (BrokenPipeError, OSError):
            pass
        finally:
            watchdog.cancel()
            self.close()
        final = answers.pop() if len(answers) == len(requests) + 1 else None
        return answers + [None] * (len(requests) - len(answers)), final

    def close(self) -> None:
        """End the worker (end of input lets it finish) and wait for it."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_pass(requests, deadline: float, trace_path: Path | None = None):
    """(setup seconds, answers, closing record) of one fresh pass."""
    p = Pass(trace_path)
    return (p.setup_s, *p.serve(requests, deadline))


def setup_probe() -> float:
    p = Pass()
    p.close()
    return p.setup_s


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


class Tally:
    """Checked results of every request served in the run."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.cells = 0
        self.latencies: list[float] = []
        self.served: list[tuple[str, float | None]] = []
        self.distance_tags: list[bool] = []
        self.summaries: list[dict | None] = []
        self.problems: list[str] = []

    def add(self, requests, answers: list[dict | None]) -> None:
        for req, res in zip(requests, answers):
            self.attempted += 1
            summary, problems = self._check(req, res)
            if summary is not None:
                self.latencies.append(res["latency_s"])
            self.served.append((req.key, res["latency_s"] if res else None))
            if problems:
                self.failed += 1
                self.problems += [f"{req.key}: {p}" for p in problems]
            else:
                self.cells += check.cells_answered(req.argv, summary)
                self.distance_tags += check.distance_tags(summary)
            self.summaries.append(summary)

    def _check(self, req, res) -> tuple[dict | None, list[str]]:
        if res is None:
            return None, ["no answer (timeout or worker exit)"]
        if res["error"] is not None:
            return None, [f"raised {res['error']}"]
        try:
            got = check.summarize(req.argv, res["exit"], res["stdout"])
        except (ValueError, KeyError, TypeError) as exc:
            return None, [f"unreadable output: {exc!r}"]
        return got, check.compare(req.argv, self.reference[req.key]["summary"], got)

    @property
    def exact_share(self) -> float:
        tags = self.distance_tags
        return sum(tags) / len(tags) if tags else 0.0

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (0 < p < 1).

    A mean of the order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    probability of each interval [(i-1)/n, i/n].  Every sample near the
    quantile contributes, so the estimate moves less than the single order
    statistic when the run's mix of requests or their timings vary a little.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = (np.arange(HD_GRID) + 0.5) / HD_GRID
    log_density = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_density - log_density.max()))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.arange(HD_GRID + 1) / HD_GRID, cdf))
    return float(weights @ x)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it:
    (value, percentile, samples beyond).  With too few samples for that, the
    largest latency, with none beyond."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return max(latencies), 100.0, 0
    p = (n - TAIL_BEYOND) / n
    return quantile(latencies, p), 100.0 * p, TAIL_BEYOND


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def end_to_end(workload: str, passes, tally: Tally, deadline: float) -> tuple[dict, dict]:
    setups, serving, rss = [], 0.0, []
    probes = max(SETUP_SAMPLES - len(passes), 0)
    for i, requests in enumerate(passes):
        for _ in range(probes * (i + 1) // len(passes) - probes * i // len(passes)):
            setups.append(setup_probe())
        if time.perf_counter() > deadline:
            tally.add(requests, [None] * len(requests))
            continue
        setup_s, answers, final = run_pass(requests, deadline)
        setups.append(setup_s)
        tally.add(requests, answers)
        if final:
            serving += final["serving_s"]
            rss.append(final["peak_rss_mb"])
    latencies = tally.latencies or [0.0]
    tail_ms, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cells_per_s": (tally.cells / serving if serving else 0.0, "1/s"),
        "latency_p50_ms": (1e3 * quantile(latencies, 0.5), "ms"),
        "latency_tail_ms": (1e3 * tail_ms, "ms"),
        "peak_rss_mb": (max(rss) if rss else 0.0, "MB"),
    }
    notes = {
        "latency_tail_percentile": pct,
        "latency_tail_samples_beyond": beyond,
        "latency_samples": len(latencies),
        "distinct_requests": len({r.key for p in passes for r in p}),
        "setup_samples": len(setups),
        "passes": len(passes),
        "exact_share": tally.exact_share if workload != "scan" else None,
        "fail_share": tally.fail_share,
    }
    return metrics, notes


def passes_per_pair(requests, summaries, words_by_request: dict[int, float]) -> float:
    """Enumerated words over q^dim(D_e) summed over the requests that
    enumerated: one pass over D_e per pair would give 1."""
    words, pair_words = 0.0, 0
    for rid, (req, summary) in enumerate(zip(requests, summaries)):
        if words_by_request.get(rid) and summary and "dims" in summary:
            words += words_by_request[rid]
            pair_words += int(req.argv[req.argv.index("--q") + 1]) ** summary["dims"]["d_e"]
    return words / pair_words if pair_words else 0.0


def traced(workload: str, seed: int, requests, tally: Tally, deadline: float) -> tuple[dict, dict]:
    _, answers, plain = run_pass(requests, deadline)
    tally.add(requests, answers)
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{workload}-seed{seed}.npz"
    _, answers, final = run_pass(requests, deadline, trace_path)
    tally.add(requests, answers)
    spans = final["spans"] if final else {"metrics": {}, "enum_words_by_request": {}, "span_count": 0}
    layer = dict(spans["metrics"])
    words = {int(k): v for k, v in spans["enum_words_by_request"].items()}
    layer["codes.enum.passes_per_pair"] = passes_per_pair(requests, tally.summaries[-len(requests) :], words)
    if plain and final:
        layer["trace.overhead_share"] = (final["serving_s"] - plain["serving_s"]) / plain["serving_s"]
    layer["exact_share"] = tally.exact_share
    layer["fail_share"] = tally.fail_share
    metrics = {name: (layer.get(name, 0.0), unit) for name, (unit, _) in PER_LAYER.items()}
    notes = {
        "requests": len(requests),
        "spans": spans["span_count"],
        "spans_file": str(trace_path.relative_to(ROOT)),
        "untraced_serving_s": plain["serving_s"] if plain else None,
        "traced_serving_s": final["serving_s"] if final else None,
    }
    return metrics, notes


def machine_facts() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_vars": {var: worker_env()[var] for var in THREAD_VARS},
    }


def last_overhead_share(workload: str) -> float | None:
    """The trace overhead most recently measured for this workload here."""
    found = sorted((OUT / "results").glob(f"{workload}-seed*-trace1.json"), key=lambda p: p.stat().st_mtime)
    if not found:
        return None
    with open(found[-1], encoding="utf-8") as fh:
        return json.load(fh)["metrics"]["trace.overhead_share"]["value"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(pools.POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "duadic" / "cli.py").is_file():
        print(f"bench: no duadic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    reference = check.load_reference()["requests"]
    costs = {key: entry["latency_s"] for key, entry in reference.items()}
    passes = pools.draw(args.workload, args.seed, costs, BUDGET_SHARE * args.seconds)
    pools.write_cayley_files(ROOT)
    setup_probe()  # compiles bytecode; not a sample
    tally = Tally(reference)
    if args.trace:
        metrics, notes = traced(args.workload, args.seed, passes[0], tally, deadline)
    else:
        metrics, notes = end_to_end(args.workload, passes, tally, deadline)
    facts = machine_facts()
    facts["trace.overhead_share"] = (
        metrics["trace.overhead_share"][0] if args.trace else last_overhead_share(args.workload)
    )
    for problem in tally.problems:
        print(f"FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in {**notes, **facts}.items():
        print(f"# {name}: {value}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, notes=notes,
                  machine=facts, wall_s=time.perf_counter() - start, served=tally.served)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
