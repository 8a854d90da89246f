"""Replay every pinned report, the requests recorded in `bench/reference.json`
and the lines of `tests/pins.txt` (whose head gives their format):

    PYTHONPATH=src python tests/replay_reference.py

prints one line per pin whose exit code, stdout digest or stderr differs from
the pinned one (or that raises or times out), the time of each benchmark
workload and of `tests/pins.txt` and the five slowest pins, and exits 1 on
any mismatch, else 0.  `tests/test_replay_reference.py` runs the same
replays (`check`) in tier 1, one test per pin.  Pins run in temporary
directories, never the checkout.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import resource
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import duadic.cli

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
PINS = TESTS / "pins.txt"


@dataclasses.dataclass(frozen=True)
class Pin:
    argv: tuple[str, ...]
    exit: int
    sha256: str | None  # of stdout; None leaves stdout unchecked
    stderr: str | None = None  # the whole stderr, trailing newlines dropped
    limit: int | None = None  # address space in KB
    timeout: float | None = None  # seconds
    files: Path | None = None  # a directory copied into the working directory
    cyclic: tuple[str, int] | None = None  # (file, n): the Cayley table of Z_n written there

    def __str__(self) -> str:
        return " ".join(self.argv)


def read_pins(path: Path = PINS) -> list[Pin]:
    """The pins of a list in the format of `tests/pins.txt`; `files` is
    relative to the list's directory."""
    pins = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not (words := shlex.split(line, comments=True)):
            continue
        code, digest, *argv = words
        opt = {}
        while argv and argv[0].partition("=")[0] in ("stderr", "limit", "timeout", "files", "cyclic"):
            name, _, value = argv.pop(0).partition("=")
            opt[name] = value
        name, _, n = opt.get("cyclic", "").partition(":")
        pins.append(Pin(
            tuple(argv), int(code), None if digest == "-" else digest, opt.get("stderr"),
            int(opt["limit"]) if "limit" in opt else None,
            float(opt["timeout"]) if "timeout" in opt else None,
            path.parent / opt["files"] if "files" in opt else None,
            (name, int(n)) if name else None,
        ))
    return pins


def _recorded() -> dict:
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["requests"]


def reference_pins() -> list[Pin]:
    """Every request recorded in `bench/reference.json`; the `@file` groups
    they name are the ones `write_bench_cayley_files` writes."""
    return [Pin(tuple(key.split(" ")), want["summary"]["exit"], want["stdout_sha256"]) for key, want in sorted(_recorded().items())]


def write_bench_cayley_files(root: Path) -> None:
    sys.path.insert(0, str(BENCH))
    try:
        import pools
    finally:
        sys.path.remove(str(BENCH))
    pools.write_cayley_files(root)


def _serve(pin: Pin, cwd: Path) -> tuple[int, bytes, str]:
    """Exit code, stdout and stderr: through `duadic.cli.main` in process, or
    as `python -m duadic` in a process that limits its own address space as
    `ulimit -v` would, when the pin has a limit or a timeout."""
    if pin.limit is None and pin.timeout is None:
        out, err = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = duadic.cli.main(list(pin.argv))
        finally:
            os.chdir(here)
        return code, out.getvalue().encode("utf-8"), err.getvalue()
    src = str(Path(duadic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    limit = None if pin.limit is None else (pin.limit * 1024,) * 2
    done = subprocess.run(
        [sys.executable, "-m", "duadic", *pin.argv], cwd=cwd, env=env, capture_output=True, timeout=pin.timeout,
        preexec_fn=limit and functools.partial(resource.setrlimit, resource.RLIMIT_AS, limit),
    )
    return done.returncode, done.stdout, done.stderr.decode("utf-8", "replace")


def _mismatch(pin: Pin, code: int, out: bytes, err: str) -> str | None:
    err = err.rstrip("\n")
    digest = hashlib.sha256(out).hexdigest()
    if code != pin.exit:
        return f"exit {code}, pinned {pin.exit}" + (f": {err.splitlines()[-1]}" if err else "")
    if pin.sha256 is not None and digest != pin.sha256:
        return f"output digest {digest[:12]}, pinned {pin.sha256[:12]}"
    if pin.stderr is not None and err != pin.stderr:
        return f"stderr {err!r}, pinned {pin.stderr!r}"
    return None


def check(pin: Pin, shared: Path, own: Path) -> str | None:
    """Serve one pin and compare: None if it holds, else why not (a raising
    or timed-out pin is a mismatch too).  A pin with files runs in `own`, a
    directory not yet made; the others run in `shared`."""
    try:
        cwd = shared
        if pin.files is not None or pin.cyclic is not None:
            cwd = own
            if pin.files is not None:
                shutil.copytree(pin.files, cwd)
            else:
                cwd.mkdir()
        if pin.cyclic is not None:
            name, n = pin.cyclic
            ids = [str(j) for j in range(n)]
            (cwd / name).write_text(f"{n}\n" + "".join(" ".join(ids[j:] + ids[:j]) + "\n" for j in range(n)))
        return _mismatch(pin, *_serve(pin, cwd))
    except subprocess.TimeoutExpired:
        return f"no exit within {pin.timeout:g} s"
    except Exception as exc:  # a raising pin is a mismatch, listed with the rest
        return f"raised {type(exc).__name__}: {exc}"


def replay(pins: list[Pin], setup=None) -> tuple[list[str], dict[Pin, float]]:
    """`check` every pin, those without files in one shared directory into
    which `setup(dir)` writes first.  Returns one line per mismatch, each
    starting with its pin's arguments, and each pin's time in seconds."""
    took = {}
    bad = []
    with tempfile.TemporaryDirectory() as root:
        shared = Path(root) / "shared"
        shared.mkdir()
        if setup is not None:
            setup(shared)
        for i, pin in enumerate(pins):
            begun = time.perf_counter()
            found = check(pin, shared, Path(root) / str(i))
            took[pin] = time.perf_counter() - begun
            if found is not None:
                bad.append(f"{pin}: {found}")
    return bad, took


def main() -> int:
    start = time.perf_counter()
    bad, took = replay(reference_pins(), setup=write_bench_cayley_files)
    bad_listed, took_listed = replay(read_pins())
    workload = {key: want["workload"] for key, want in _recorded().items()}
    spent = collections.defaultdict(list)  # workload -> its pins' times
    for pin, seconds in took.items():
        spent[workload[str(pin)]].append(seconds)
    spent["tests/pins.txt"] = list(took_listed.values())
    for line in bad + bad_listed:
        print(line)
    for workload, times in sorted(spent.items()):
        print(f"{workload}: {len(times)} pins in {sum(times):.2f} s")
    for pin, seconds in sorted({**took, **took_listed}.items(), key=lambda item: -item[1])[:5]:
        print(f"slow: {seconds * 1e3:.0f} ms {pin}")
    print(f"{len(took) - len(bad)}/{len(took)} recorded requests and {len(took_listed) - len(bad_listed)}/"
          f"{len(took_listed)} listed pins match in {time.perf_counter() - start:.1f} s")
    return 1 if bad or bad_listed else 0


if __name__ == "__main__":
    sys.exit(main())
