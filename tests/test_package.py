"""The package as a user meets it: its modules import alone, and the
README's examples run and name only options the command line has and
functions the package has."""

import argparse
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import headspan
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


# every module but the entry point, which runs the command line on import
MODULES = [importlib.import_module(f"headspan.{m.name}")
           for m in pkgutil.iter_modules(headspan.__path__)
           if m.name != "__main__"]


def has_path(owner, names: list[str]) -> bool:
    for name in names:
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    return True


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an attribute of a ``headspan`` module, a
    module (``linear.decode_many``) included, or of the package when it
    starts with ``headspan``."""
    first, *rest = dotted.split(".")
    if first == "headspan":
        return has_path(headspan, rest)
    return any(has_path(m, [first, *rest]) for m in [headspan, *MODULES])


def test_readme_names_only_functions_the_package_has():
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.M | re.S)
    dotted = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", prose)
    called = re.findall(r"`([A-Za-z_][\w.]*)\([^`]*\)`", prose)
    names = set(dotted) | set(called)
    assert len(names) >= 17
    assert [name for name in sorted(names) if not resolves(name)] == []
