"""The package as a user meets it: its modules import alone, and the
README's examples run and name only options the command line has."""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from headspan.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text("utf-8")


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
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    assert len(blocks) >= 2
    proc = run_python("\n".join(blocks))
    assert proc.returncode == 0, proc.stderr


def options(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of ``parser`` and of its subcommands."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= options(sub)
    return found


def test_readme_names_only_options_the_parser_has():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README))
    # pip's, in the install line
    named.discard("--no-build-isolation")
    assert len(named) > 20
    assert named - options(build_parser()) == set()


def test_readme_commands_parse():
    blocks = re.findall(r"^```\n(.*?)^```$", README, re.M | re.S)
    lines = [line for block in blocks
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("headspan ")]
    assert len(lines) >= 5
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
