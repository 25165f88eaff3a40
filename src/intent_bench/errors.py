"""Typed errors raised across the package.

Every error carries a short machine-parsable name (the class name) so the CLI
can map failures to one-line diagnostics.
"""


class IntentBenchError(Exception):
    """Base class for all package errors."""


# --- dataset ingestion / segmentation ---

class MissingColumn(IntentBenchError):
    pass


class NonMonotonicTimestamp(IntentBenchError):
    def __init__(self, row: int, message: str = ""):
        self.row = row
        super().__init__(message or f"timestamp decreases at file row {row}")


class NonNumericValue(IntentBenchError):
    def __init__(self, row: int, message: str = ""):
        self.row = row
        super().__init__(message or f"non-numeric or non-finite value at file row {row}")


class RowWidthMismatch(IntentBenchError):
    pass


class EmptyWindow(IntentBenchError):
    def __init__(self, source_hit: int, message: str = ""):
        self.source_hit = source_hit
        super().__init__(message or f"fewer than 2 samples between hits {source_hit} and {source_hit + 1}")


class OutOfRange(IntentBenchError):
    pass


class InvalidConfig(IntentBenchError):
    pass


# --- feature extraction / scaling / assembly ---

class DegenerateWindow(IntentBenchError):
    pass


class ConstantWindow(IntentBenchError):
    def __init__(self, kind, message: str = ""):
        self.kind = kind
        super().__init__(message or f"{kind} undefined on a constant window (zero second moment)")


class EmptyMatrix(IntentBenchError):
    pass


class ColumnMismatch(IntentBenchError):
    pass


class MissingPart(IntentBenchError):
    def __init__(self, setup, part: str):
        self.setup = setup
        self.part = part
        super().__init__(f"setup {setup} requires missing part '{part}'")


class RowCountMismatch(IntentBenchError):
    pass


# --- numeric kernel / models ---

class ShapeMismatch(IntentBenchError):
    pass


class BadTarget(IntentBenchError):
    pass


class SequenceTooShort(IntentBenchError):
    pass


class NotEnoughNeighbors(IntentBenchError):
    pass


class EmptyTrainingSet(IntentBenchError):
    pass


# --- pipeline / reporting ---

class TooFewRows(IntentBenchError):
    pass


class LengthMismatch(IntentBenchError):
    pass


class IncompleteTable(IntentBenchError):
    pass


class IoError(IntentBenchError):
    pass
