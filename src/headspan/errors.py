"""Exception types shared across the package."""


class HeadspanError(Exception):
    """Base class for all package errors."""


class TreebankError(HeadspanError):
    """Malformed treebank input (brackets, CoNLL or head-annotated trees).

    Carries the 1-based line number of the offending input when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class AlignmentError(HeadspanError):
    """Constituent and dependency files disagree (count, length or forms)."""


class ScoreFileError(HeadspanError):
    """Malformed score file, or a score table with a non-finite score."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class StructureError(HeadspanError):
    """A tree violates a structural contract (spans, heads, categories)."""


class SizeGuardError(HeadspanError):
    """Refusal to run an exhaustive routine above its size guard."""


class ModelFileError(HeadspanError):
    """A file that is not a saved model, or one that names foreign code."""
