"""tools/digest.py runs on this tree and prints its four sha256 lines."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_digest_prints_four_sha256_lines():
    done = subprocess.run([sys.executable, "tools/digest.py", "src"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4, done.stdout
    assert all(re.fullmatch("[0-9a-f]{64}", line) for line in lines), done.stdout
