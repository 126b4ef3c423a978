"""Joint constituent and dependency parsing over head-annotated trees.

The package couples the two classical syntactic views of a sentence: each
phrase carries both a category and the index of its head token, dependency
arcs fall out of the tree by reading off each child whose head differs from
its parent's, and a single dynamic program decodes both views at once.

Names are imported from the modules that define them: ``headspan.decode``,
``headspan.treebank``, ``headspan.linear`` and so on.
"""

__version__ = "0.1.0"
