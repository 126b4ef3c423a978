"""The package as a user meets it: its modules import alone, and the
README's examples run."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter, from the repository root, with
    ``src`` first on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_reading_and_fusing_trees_does_not_load_numpy():
    proc = run_python(
        "import sys\n"
        "import headspan.trees, headspan.treebank, headspan.fuse\n"
        "import headspan.division, headspan.evaluate\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_readme_examples_run():
    readme = (ROOT / "README.md").read_text("utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) >= 2
    proc = run_python("\n".join(blocks))
    assert proc.returncode == 0, proc.stderr
