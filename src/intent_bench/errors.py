"""Typed errors raised across the package.

Each class names what a user has to fix; the message says where. The CLI
prints a failure as `error[<class name>]: <message>` and exits 2. Every class
takes only a message, so an error raised in a worker process pickles back to
the caller with its type and message.
"""


class IntentBenchError(Exception):
    """Base class for all package errors."""


class InvalidConfig(IntentBenchError):
    """A setting is out of range, unknown or unparsable."""


class DataError(IntentBenchError):
    """A dataset file or record is malformed: a column, row, value, hit or window."""


class IoError(IntentBenchError):
    """A path cannot be read or written, or a `run.json` is malformed or not the output of a run of this version."""


class TooFewRows(IntentBenchError):
    """There is too little data: too few rows, participants, neighbours or time steps."""


class BadArgument(IntentBenchError):
    """A function was called with arguments that do not fit: a shape, width, count, label or missing part."""
