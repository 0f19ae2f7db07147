"""The repo's pytest settings let a session outlive a failing test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRATCH = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(n):
    assert n < 0


def test_a_plain_test():
    pass
'''


def test_a_failing_property_test_leaves_the_rest_of_the_session_running(tmp_path):
    # Hypothesis's failure report runs inside pytest's report hook, where a
    # warning turned into an error ends the session with an INTERNALERROR
    (tmp_path / "test_scratch.py").write_text(_SCRATCH)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_scratch.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), done.stdout
