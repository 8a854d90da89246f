"""Every request recorded in `bench/reference.json`, replayed in process
through `duadic.cli.main`: the exit code and the sha256 digest of the
`--json` output must match the recorded ones, so a change that moves any
report byte fails tier 1.  `replay_reference.py` runs the same replay as a
command and prints the time of each benchmark workload."""

from __future__ import annotations

from replay_reference import replay


def test_every_recorded_request_replays_byte_for_byte():
    bad, took, _ = replay()
    assert len(took) >= 355 and bad == []
