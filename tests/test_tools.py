"""Smoke test of the measuring tools: they still run on this tree.

``tools/fill_timing.py`` times this tree's fill against a revision exported
with ``git archive``, so the test needs a git checkout with a HEAD commit.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                           "--quiet", "HEAD"], capture_output=True)
    return done.returncode == 0


@pytest.mark.skipif(not _git_checkout(), reason="not a git checkout")
def test_fill_timing_runs_on_both_sides():
    done = subprocess.run(
        [sys.executable, "tools/fill_timing.py", "--base", "HEAD", "--sizes",
         "3,5", "--runs", "1", "--batch", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    # n, base, this, ratio, batched, gain, then the plan build columns
    assert [row[0] for row in rows] == ["3", "5"]
    assert all(len(row) == 9 for row in rows)
