"""Dependency tree validation: linear in the sentence, same refusals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headspan.errors import StructureError
from headspan.trees import DependencyTree, Token


class CountingHeads(list):
    """A heads list that counts the items read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def dependency_tree(heads):
    tokens = [Token(i, f"w{i}", "T") for i in range(1, len(heads))]
    return DependencyTree(tokens=tokens, heads=heads)


def walk_to_root(heads):
    """The cycle message of the per-token walk that validation once made:
    every token walked up to the root with a fresh set, O(n x depth)."""
    for i in range(1, len(heads)):
        seen = set()
        j = i
        while j != 0:
            if j in seen:
                return f"cycle through token {i}"
            seen.add(j)
            j = heads[j]
    return None


def test_a_deep_chain_reads_each_head_a_bounded_number_of_times():
    # token i hangs on token i + 1 and the last is the root: a chain 2000
    # deep, where a walk from every token reads about n^2 / 2 heads
    n = 2000
    heads = CountingHeads([0, *range(2, n + 1), 0])
    dependency_tree(heads).validate()
    assert heads.reads <= 4 * n


@st.composite
def single_rooted_heads(draw):
    """Heads of 2 to 12 tokens with one root and no self-loop, so that a
    cycle is the only fault left to find; most have one."""
    n = draw(st.integers(2, 12))
    root = draw(st.integers(1, n))
    heads = [0]
    for i in range(1, n + 1):
        heads.append(0 if i == root else draw(
            st.integers(1, n).filter(lambda h, i=i: h != i)))
    return heads


@settings(max_examples=300, derandomize=True, deadline=None)
@given(single_rooted_heads())
def test_cycles_are_refused_as_the_per_token_walk_refused_them(heads):
    want = walk_to_root(heads)
    if want is None:
        dependency_tree(heads).validate()
    else:
        with pytest.raises(StructureError) as err:
            dependency_tree(heads).validate()
        assert str(err.value) == want
