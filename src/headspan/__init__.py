"""Joint constituent and dependency parsing over head-annotated trees.

The package couples the two classical syntactic views of a sentence: each
phrase carries both a category and the index of its head token, dependency
arcs fall out of the tree by reading off each child whose head differs from
its parent's, and a single dynamic program decodes both views at once.
"""

__version__ = "0.1.0"

from .decode import (
    BRUTE_FORCE_CAP,
    JointChart,
    brute_force,
    decode_division,
    decode_eisner,
    decode_joint,
    decode_table,
    fill_joint_chart,
    max_projective_score,
)
from .division import binarize_head_outward, from_division, to_division
from .errors import (
    AlignmentError,
    HeadspanError,
    ScoreFileError,
    SizeGuardError,
    StructureError,
    TreebankError,
)
from .evaluate import (
    DEFAULT_PUNCT,
    EvalReport,
    attachment_scores,
    bracket_f1,
)
from .fuse import (
    HeadAuditReport,
    external_heads,
    fuse,
    heads_of_spans,
    project_constituents,
    project_dependencies,
    validate,
)
from .linear import (
    LinearModel,
    TrainConfig,
    decode_with_model,
    train_linear,
)
from .scoring import (
    CategoryVocab,
    ScoreTable,
    oracle_scores,
    parts_score,
    read_scores,
    tree_parts,
    tree_score,
    write_scores,
)
from .trees import (
    EMPTY,
    HEAD_PREFIX,
    SPLIT,
    ConstNode,
    ConstituentTree,
    DependencyTree,
    HpsgNode,
    HpsgTree,
    Token,
)
from .treebank import (
    pair_treebanks,
    read_bracketed,
    read_conll,
    read_hpsg,
    write_bracketed,
    write_conll,
    write_hpsg,
)

__all__ = [
    "AlignmentError",
    "BRUTE_FORCE_CAP",
    "CategoryVocab",
    "ConstNode",
    "ConstituentTree",
    "DEFAULT_PUNCT",
    "DependencyTree",
    "EMPTY",
    "EvalReport",
    "HEAD_PREFIX",
    "HeadAuditReport",
    "HeadspanError",
    "HpsgNode",
    "HpsgTree",
    "JointChart",
    "LinearModel",
    "SPLIT",
    "ScoreFileError",
    "ScoreTable",
    "SizeGuardError",
    "StructureError",
    "Token",
    "TrainConfig",
    "TreebankError",
    "attachment_scores",
    "binarize_head_outward",
    "bracket_f1",
    "brute_force",
    "decode_division",
    "decode_eisner",
    "decode_joint",
    "decode_table",
    "decode_with_model",
    "external_heads",
    "fill_joint_chart",
    "from_division",
    "fuse",
    "heads_of_spans",
    "max_projective_score",
    "oracle_scores",
    "pair_treebanks",
    "parts_score",
    "project_constituents",
    "project_dependencies",
    "read_bracketed",
    "read_conll",
    "read_hpsg",
    "read_scores",
    "to_division",
    "train_linear",
    "tree_parts",
    "tree_score",
    "validate",
    "write_bracketed",
    "write_conll",
    "write_hpsg",
    "write_scores",
]
