"""Exception hierarchy shared by all qcpg_kit modules.

Every error raised on a documented failure path derives from
:class:`QcpgError`. Each class declares the CLI's exit code for it as
``exit_code``: 5 (unsatisfiable data constraint) unless it overrides it
with 3 (spawn failure), 4 (malformed input or protocol violation) or 6
(no feasible offset).
"""

from __future__ import annotations


class QcpgError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 5


def raise_first_failure(results: list) -> list:
    """The results of a batch that fails per item; its first failure is raised."""
    for item in results:
        if isinstance(item, QcpgError):
            raise item
    return results


# --- bracketed-tree parsing ------------------------------------------------

class TreeSyntaxError(QcpgError):
    """Malformed bracketed tree text; ``offset`` is a UTF-8 byte offset."""

    exit_code = 4

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnbalancedParens(TreeSyntaxError):
    pass


class EmptyLabel(TreeSyntaxError):
    pass


class TrailingInput(TreeSyntaxError):
    pass


# --- external subprocess adapters ------------------------------------------

class SpawnFailure(QcpgError):
    """The external command could not be started."""

    exit_code = 3


class ProtocolError(QcpgError):
    """An external process violated the line protocol."""

    exit_code = 4

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


# --- values and encodings ---------------------------------------------------

class NonFiniteValue(QcpgError):
    """A score or raw input was NaN or infinite."""


class MalformedControlPrefix(QcpgError):
    """Text does not begin with three well-formed control tokens."""

    exit_code = 4


# --- dataset ingestion ------------------------------------------------------

class MalformedRecord(QcpgError):
    exit_code = 4

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class TreeLengthMismatch(MalformedRecord):
    """A record's tree list and sentence list differ in length."""


class InsufficientData(QcpgError):
    """The corpus cannot satisfy the requested split quotas."""

    def __init__(self, message: str, achievable: tuple[int, int, int]):
        super().__init__(f"{message}; achievable (train, dev, test) pair counts: {achievable}")
        self.achievable = achievable


# --- reference predictor ----------------------------------------------------

class DegenerateDesign(QcpgError):
    """The regression design matrix cannot be solved as posed."""


class EmptyEvalSet(QcpgError):
    pass


class ModelFormatError(QcpgError):
    """A model file is missing the expected format tag or fields."""

    exit_code = 4


# --- generation and selection -----------------------------------------------

class EmptyContext(QcpgError):
    """An oracle generator has no usable candidate in its cluster."""


class MissingTree(QcpgError):
    """A sentence has no bracketed parse, so tree metrics cannot run."""


class AllGenerationsFailed(QcpgError):
    pass


class MissingZeroPoint(QcpgError):
    """The offset grid or result lacks the (0, 0, 0) reference point."""


class NoFeasibleOffset(QcpgError):
    """No grid offset satisfies the semantic-similarity constraint."""

    exit_code = 6

    def __init__(self, message: str, max_sem: float):
        super().__init__(f"{message}; maximum attainable semantic score: {max_sem:.4f}")
        self.max_sem = max_sem


# --- evaluation ---------------------------------------------------------------

class LengthMismatch(QcpgError):
    pass


class AllTied(QcpgError):
    """Kendall's tau is undefined because one ranking is entirely tied."""
