"""Exception hierarchy shared across the package, and the one way every
saved artifact is read: `read_json`, `expect_format` and `malformed`.

The CLI maps these onto exit codes: usage problems exit 1, data problems
exit 2, anything else that escapes exits 3.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path


class PashtextError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(PashtextError):
    """Bad invocation: unknown command, malformed flag, invalid override."""


class InvalidHyperparameterError(UsageError):
    """A hyperparameter value violates its documented constraints."""


class DataError(PashtextError):
    """Bad input data: malformed corpus, invariant violation, bad dimensions."""


class TrainingError(PashtextError):
    """Training could not produce a valid model."""


class TrainingDivergedError(TrainingError):
    """Loss or an update became non-finite; training aborted."""

    def __init__(self, epoch: int, detail: str = "non-finite loss"):
        self.epoch = epoch
        super().__init__(f"training diverged at epoch {epoch}: {detail}")


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def read_json(path, what: str):
    """The JSON document in the file `path`, which holds a `what`; a file that
    cannot be read, is not UTF-8, is not JSON (Python's `json` module would
    accept `NaN`, `Infinity` and `-Infinity`; this refuses them) or nests too
    deeply to parse is a DataError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text, parse_constant=_refuse_constant)
    except (OSError, ValueError, RecursionError) as exc:  # decode errors are ValueErrors
        raise DataError(f"cannot read {what} {path}: {exc}") from None


def expect_format(document, name: str, version: int) -> None:
    """Refuse `document` unless it is a JSON object tagged with the format
    `name` and the version `version`."""
    if not isinstance(document, dict) or document.get("format") != name:
        raise DataError(f"not a {name} document")
    if document.get("version") != version:
        raise DataError(f"unsupported {name} version {document.get('version')!r}")


@contextmanager
def malformed(what: str):
    """Turn the lookup and conversion errors raised while reading `what`
    (a missing key, a value of the wrong type, shape or size) into a DataError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise DataError(f"malformed {what}: {type(exc).__name__}: {exc}") from None
