"""One pass of the closed-loop client, in a fresh interpreter.

Run from the checkout root with `src` on PYTHONPATH.  The worker imports
`duadic.cli` and prints `ready`.  It then reads one request per line (a JSON
argument list), serves it through `duadic.cli.main` in this process, and
answers with one JSON line (exit code, output, latency) before it reads the
next request.  An empty line ends the pass: the last answer holds the
pass's serving time, its peak resident set and, with `--trace PATH`, the
span statistics (the spans themselves go to PATH).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time


def serve_one(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # a raising request is a failed request
        code, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    return {"exit": code, "stdout": out.getvalue(), "error": error, "latency_s": latency}


def main() -> None:
    cli = importlib.import_module("duadic.cli")
    print("ready", flush=True)
    trace_path = sys.argv[sys.argv.index("--trace") + 1] if "--trace" in sys.argv else None
    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    begin = end = None
    rid = 0
    for line in sys.stdin:
        if not line.strip():
            break
        if tracer is not None:
            tracer.request_id = rid
        now = time.perf_counter()
        begin = now if begin is None else begin
        answer = serve_one(cli, json.loads(line))
        end = time.perf_counter()
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()
        rid += 1
    final = {
        "serving_s": end - begin if begin is not None else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        from layers import span_summary

        final["spans"] = span_summary(tracer)
        tracer.save(trace_path)
    sys.stdout.write(json.dumps(final) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
