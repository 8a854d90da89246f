"""Every pinned report, replayed: the requests recorded in
`bench/reference.json` and the lines of `tests/pins.txt`.  The exit code,
the sha256 digest of the `--json` output and any pinned stderr must match,
so a change that moves any report byte fails tier 1.  `replay_reference.py`
runs the same replays as a command and prints the time of each benchmark
workload and of the list."""

from __future__ import annotations

import hashlib

import pytest

from duadic.cli import main
from replay_reference import check, read_pins, reference_pins, replay, write_bench_cayley_files

RECORDED = reference_pins()
LISTED = read_pins()


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    """A directory holding the Cayley files the recorded requests name."""
    root = tmp_path_factory.mktemp("bench")
    write_bench_cayley_files(root)
    return root


def test_every_recorded_request_and_listed_pin_is_collected():
    assert len(RECORDED) >= 355 and len(LISTED) >= 31


@pytest.mark.parametrize("pin", RECORDED, ids=str)
def test_recorded_request_replays_byte_for_byte(pin, bench_dir, tmp_path):
    assert check(pin, bench_dir, tmp_path / "own") is None


@pytest.mark.parametrize("pin", LISTED, ids=str)
def test_listed_pin_replays_byte_for_byte(pin, tmp_path):
    assert check(pin, tmp_path, tmp_path / "own") is None


def test_a_pin_that_fails_is_a_mismatch_that_names_it(tmp_path, capsys):
    assert main(["scan", "--n", "3-7", "--q", "2", "--json"]) == 0
    good = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    (tmp_path / "empty").mkdir()
    cases = [  # (pin, the start of its mismatch line, or None for a pin that holds)
        (f"0 {good} scan --n 3-7 --q 2 --json", None),
        (f"0 {good} limit=2000000 timeout=60 scan --n 3-7 --q 2 --json", None),
        (f"0 {'0' * 64} scan --n 3-9 --q 2 --json", "output digest "),
        ("2 - scan --n 3-11 --q 2 --json", "exit 0, pinned 2"),
        ('1 - "stderr=duadic: error: not this" scan --n 3-13 --q 2,x --json', 'stderr "duadic: error: --q expects'),
        ("0 - limit=20000 scan --n 3-15 --q 2 --json", "exit 1, pinned 0: "),  # numpy cannot load
        ("0 - timeout=0.01 scan --n 3-17 --q 2 --json", "no exit within 0.01 s"),
        ("0 - files=empty construct --group @t.cayley --q 2 --mu mu-1 --json", "exit 1, pinned 0: duadic: error: "),
        ("0 - files=gone scan --n 3-19 --q 2 --json", "raised FileNotFoundError"),
    ]
    (tmp_path / "pins.txt").write_text("".join(line + "\n" for line, _ in cases), encoding="utf-8")
    pins = read_pins(tmp_path / "pins.txt")
    bad, took = replay(pins)
    assert len(took) == len(cases)
    want = [f"{pin}: {start}" for pin, (_, start) in zip(pins, cases) if start]
    assert len(bad) == len(want)
    for line, start in zip(bad, want):
        assert line.startswith(start), line
