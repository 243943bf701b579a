"""Exception hierarchy shared across the package, the one way every saved
artifact is read (`read_json`, `expect_format` and `malformed`) and the one
way every output file is written (`write_output`).

The CLI maps these onto exit codes: usage problems exit 1, data problems
exit 2, anything else that escapes exits 3.
"""

from __future__ import annotations

import json
import os
import stat
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
    `name` and the version `version`, an integer: `true` and `1.0` are not 1."""
    if not isinstance(document, dict) or document.get("format") != name:
        raise DataError(f"not a {name} document")
    if type(document.get("version")) is not int or document.get("version") != version:
        raise DataError(f"unsupported {name} version {document.get('version')!r}")


@contextmanager
def malformed(what: str):
    """Turn the lookup and conversion errors raised while reading `what`
    (a missing key, a value of the wrong type, shape or size) into a DataError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise DataError(f"malformed {what}: {type(exc).__name__}: {exc}") from None


def write_output(path, text: str) -> None:
    """Write `text` as UTF-8 to the file `path`, creating its directory.

    An existing file is rewritten in place: opened without `O_TRUNC`,
    overwritten, then cut at the end of the new bytes, so it keeps its inode,
    its links and its mode.  Truncating an existing file to zero on open, or
    renaming a new file over it, makes ext4 flush its data (`auto_da_alloc`),
    which stalled each such write by 40-60 ms on a VM disk.  Like a
    truncating write this is not atomic: a run killed mid-write can leave new
    bytes in front of old ones.  A target that is not a regular file, such as
    `/dev/null` or a pipe, is only written to.  The text is encoded before the
    file is opened, so one that UTF-8 cannot encode (a lone surrogate) is a
    DataError that leaves the file as it was.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(data)
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate()
