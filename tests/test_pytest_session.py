"""The test session itself: a failing hypothesis test is reported as a
failure, and the tests after it still run."""

from __future__ import annotations

import os
from pathlib import Path

pytest_plugins = ["pytester"]

TESTS = Path(__file__).resolve().parent


def test_a_failing_hypothesis_test_does_not_stop_the_session(pytester, monkeypatch):
    # a fresh interpreter with this directory's conftest as a plugin, under
    # the warning filters of pyproject.toml
    path = [str(TESTS), str(TESTS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, path)))
    pytester.makepyprojecttoml(
        """
        [tool.pytest.ini_options]
        filterwarnings = ["error::RuntimeWarning", "error::DeprecationWarning"]
        """
    )
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "conftest", "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
