"""List the lines of `src/duadic` that no test executes.

Run from the repository root with `src` importable; extra arguments go to
pytest (default: the whole suite, quietly):

    PYTHONPATH=src python tests/line_trace.py
    PYTHONPATH=src python tests/line_trace.py tests/test_cli.py

The suite runs in this interpreter under `sys.settrace` (standard library
only, no coverage package), which makes it several times slower: the full
suite takes minutes, and timing bounds in the tests may fail under it.  A
line counts as executable when its module's compiled code maps bytecode to
it; it counts as executed when a trace event names it.  Lines that only run
in a child process (`subprocess` tests of the entry point) count as not
executed.  The script prints one line per module, `path: a-b, c, ...`, then
the totals, and exits with pytest's exit code.  It is not a test module, so
pytest does not collect it.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "duadic"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled module or any code object nested
    in it maps bytecode to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as text: [3, 4, 5, 9] is "3-5, 9"."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename in hit:
            hit[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if not any(hit.values()):
        print(f"no line of {PACKAGE} ran: is src importable?", file=sys.stderr)
        return 1
    root = PACKAGE.parents[1]
    missed_total = lines_total = 0
    for name, path in files.items():
        lines = executable_lines(path)
        missed = sorted(lines - hit[name])
        lines_total += len(lines)
        missed_total += len(missed)
        if missed:
            print(f"{path.relative_to(root)}: {ranges(missed)}")
    print(f"{missed_total} of {lines_total} executable lines not executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
