"""No function in the package calls itself, directly or through others.

Trees and charts are walked with explicit stacks (``trees.fold`` and
``trees.iter_nodes``), so input depth and sentence length cannot exhaust
the Python stack. This test reads every module's source and fails on any
call cycle among the functions of one module, so that new recursion does
not creep back in unnoticed.

Calls are resolved by name, per module:

* ``f(...)`` goes to the function ``f`` visible from the caller: one
  nested in it or in an enclosing function, else a module-level one;
* ``self.m(...)`` and ``cls.m(...)`` go to method ``m`` of the caller's
  class;
* ``x.m(...)`` on any other plain name ``x`` (not an imported module) goes
  to the caller itself when the caller is a method named ``m``: a node
  asking its child for the same thing.
"""

import ast
import pathlib

import pytest

from headspan.trees import (
    ConstituentTree,
    ConstNode,
    HpsgTree,
    Token,
    make_const_node,
    make_node,
    preterminal,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "headspan"

# recursion that stays shallow by construction, with the reason
ALLOWED = {
    "decode._enumerate_derivations.ders":
        "depth at most the sentence length, which brute force caps at "
        "BRUTE_FORCE_CAP (8) tokens",
    "synth.random_tree.grow":
        "test data; depth at most the requested sentence length",
    "synth._Builder.noun_phrase":
        "test data; the grammar's depth argument stops nesting at two "
        "phrases below the first noun phrase",
    "synth._Builder.prep_phrase":
        "test data; calls noun_phrase one level deeper, same bound",
}


class _Function:
    def __init__(self, node, parent, cls):
        self.node = node
        self.parent = parent        # enclosing _Function, or None
        self.cls = cls              # qualname of the enclosing class
        self.nested = {}            # name -> qualname of nested functions


def _functions(tree: ast.Module, module: str) -> dict[str, _Function]:
    found: dict[str, _Function] = {}
    stack = [(tree, module, None, None)]
    while stack:
        node, prefix, parent, cls = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}"
                fn = _Function(child, parent, cls)
                found[qual] = fn
                if parent is not None:
                    parent.nested[child.name] = qual
                stack.append((child, qual, fn, None))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}.{child.name}", parent,
                              f"{prefix}.{child.name}"))
            else:
                stack.append((child, prefix, parent, cls))
    return found


def _own_calls(fn: _Function):
    """Calls in the function's body, not in functions nested in it."""
    stack = list(ast.iter_child_nodes(fn.node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node.func
        stack.extend(ast.iter_child_nodes(node))


def call_graph(source: str, module: str) -> dict[str, set[str]]:
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    functions = _functions(tree, module)
    top = {fn.node.name: q for q, fn in functions.items()
           if fn.parent is None and fn.cls is None}
    graph: dict[str, set[str]] = {}
    for qual, fn in functions.items():
        edges = graph.setdefault(qual, set())
        for func in _own_calls(fn):
            if isinstance(func, ast.Name):
                scope = fn
                while scope is not None and func.id not in scope.nested:
                    scope = scope.parent
                target = (scope.nested[func.id] if scope is not None
                          else top.get(func.id))
            elif (isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name)):
                owner = func.value.id
                if owner in ("self", "cls") and fn.cls is not None:
                    target = f"{fn.cls}.{func.attr}"
                elif (owner not in imported and fn.cls is not None
                      and func.attr == fn.node.name):
                    target = qual
                else:
                    target = None
            else:
                target = None
            if target in functions:
                edges.add(target)
    return graph


def recursive_functions(graph: dict[str, set[str]]) -> set[str]:
    """Functions from which some call path leads back to themselves."""
    out = set()
    for start in graph:
        seen, stack = set(), list(graph[start])
        while stack:
            node = stack.pop()
            if node == start:
                out.add(start)
                break
            if node not in seen:
                seen.add(node)
                stack.extend(graph[node])
    return out


def package_recursion() -> set[str]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        graph = call_graph(path.read_text(encoding="utf-8"), path.stem)
        found |= recursive_functions(graph)
    return found


def test_no_recursion_outside_the_allowed_list():
    found = package_recursion()
    assert sorted(found - set(ALLOWED)) == []
    # an entry that no longer recurses is dropped from the list
    assert sorted(set(ALLOWED) - found) == []


@pytest.mark.parametrize("source, expected", [
    ("def f(n):\n    return f(n - 1)\n", {"m.f"}),
    ("def a():\n    b()\ndef b():\n    a()\n", {"m.a", "m.b"}),
    ("def outer():\n    def inner():\n        inner()\n    inner()\n",
     {"m.outer.inner"}),
    ("class N:\n    def walk(self):\n        for c in self.kids:\n"
     "            c.walk()\n", {"m.N.walk"}),
    ("class N:\n    def a(self):\n        self.b()\n"
     "    def b(self):\n        self.a()\n", {"m.N.a", "m.N.b"}),
    ("import pickle\nclass M:\n    def load(self, fh):\n"
     "        return pickle.load(fh)\n", set()),
    ("def f(xs):\n    return xs.copy()\ndef copy():\n    return f([])\n",
     set()),
])
def test_guard_finds_each_kind_of_cycle(source, expected):
    assert recursive_functions(call_graph(source, "m")) == expected


def _chain(depth: int, bottom: str, heads: bool):
    """One token under ``depth`` unary phrases, the lowest labelled
    ``bottom``, as a head-annotated or a plain constituent tree."""
    tokens = [Token(index=1, form="w", pos="T")]
    if heads:
        node = preterminal(1, "T")
        for level in range(depth):
            node = make_node(bottom if level == 0 else "X", [node], 1)
        return HpsgTree(tokens=tokens, root=node)
    node = ConstNode(label="T", start=1, end=1)
    for level in range(depth):
        node = make_const_node(bottom if level == 0 else "X", [node])
    return ConstituentTree(tokens=tokens, root=node)


@pytest.mark.parametrize("heads", [False, True], ids=["const", "hpsg"])
def test_deep_trees_compare_and_print(heads):
    # the guard above reads source and cannot see methods that dataclass
    # generates; the tree and node classes replace the recursive ones
    a, b = _chain(3000, "Y", heads), _chain(3000, "Y", heads)
    other = _chain(3000, "Z", heads)   # differs 3000 levels down only
    assert a == b and a.root == b.root
    assert a != other and a.root != other.root
    assert len(repr(a)) < 200 and len(repr(a.root)) < 100
