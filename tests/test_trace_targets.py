"""The traced benchmark run can still wrap every layer it names.

``perfbench/spans.py`` replaces functions by name on the modules that call
them (``headspan.cli.decode_joint``, ``headspan.linear.decode_joint_mixed``
and so on). Unbinding one of those names in ``src/`` would break
``perfbench/run.py --trace 1`` and nothing else, so these checks keep the
list honest.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def bound(owner, attr):
    return vars(owner)[attr]


def test_every_traced_name_is_bound_where_it_is_wrapped():
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in spans.TARGETS
               if attr not in vars(owner)]
    assert missing == []


def test_installed_wraps_then_restores_every_original():
    before = [bound(owner, attr) for owner, attr, _, _ in spans.TARGETS]
    with spans.Tracer().installed():
        during = [bound(owner, attr) for owner, attr, _, _ in spans.TARGETS]
        assert all(a is not b for a, b in zip(before, during))
    after = [bound(owner, attr) for owner, attr, _, _ in spans.TARGETS]
    assert all(a is b for a, b in zip(before, after))
