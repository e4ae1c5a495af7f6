"""Exception types shared across the package, and the numeric-fault rule."""

from contextlib import contextmanager

import numpy as np


class CharqaError(Exception):
    """Base class for all charqa errors."""


class ConfigError(CharqaError):
    """Invalid configuration value; message names the offending field."""


class FieldTypeError(ConfigError, TypeError):
    """A JSON value not of its field's type; a TypeError too, for the record readers."""


class FieldRangeError(ConfigError, ValueError):
    """A number outside its field's range; a ValueError too, for the record readers."""


class CorpusParseError(CharqaError):
    """Malformed corpus line."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ClipError(CharqaError, ValueError):
    """A clip with a number outside its field's range or fields that
    disagree; the message names the clip. A ValueError too, for the record reader."""


class SchemaVersionError(CharqaError):
    """Corpus line carries an unsupported schema_version."""


class EmptyCastError(CharqaError):
    """No speaker survived the principal-character filters."""


class ShapeError(CharqaError):
    """Array shapes do not match the declared contract."""


class EmptyInputError(CharqaError):
    """An operation that needs a non-empty sequence received an empty one."""


class NonFiniteLossError(CharqaError):
    """A loss evaluated to inf/nan (e.g. KL against an unsmoothed target)."""


class VocabError(CharqaError):
    """A vocabulary that gives a token more than one embedding row."""


class CheckpointError(CharqaError):
    """A checkpoint file is not an npz archive with a charqa meta record."""


class NumericFaultError(CharqaError):
    """A computation overflowed, divided by zero or made an invalid value."""


@contextmanager
def numeric_faults():
    """Run the body under the package's numeric-fault rule, as a context
    manager or a decorator: overflow, division by zero and invalid values
    are faults of the inputs or settings and raise NumericFaultError.
    Underflow stays ignored, since masked attention relies on exp
    underflowing to 0."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as e:
        raise NumericFaultError(f"numeric fault ({e})") from None
