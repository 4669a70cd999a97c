"""Semantic exception hierarchy for the toolkit.

Every error raised deliberately by this package derives from
:class:`FairplugError`, so callers can distinguish toolkit failures from
programming errors.  The command-line layer maps these onto process exit
codes (see :mod:`fairplug.cli`):

* :class:`ValidationError` -- a caller violated an operation's contract
  (bad parameter range, wrong arity, inconsistent shapes).  Exit code 2.
* :class:`DataError` -- input data could not be ingested or is unusable
  (missing columns, unmappable values, empty files).  Exit code 3.
* :class:`DegenerateDataError` -- data was structurally fine but
  statistically degenerate (a class or group entirely absent), so a
  required empirical quantity is undefined.  Exit code 3.
* :class:`NumericError` -- a numeric procedure failed (non-finite
  objective, diverging iteration).  Exit code 4.

A text input that is not UTF-8 is a :class:`DataError` from
:func:`undecodable`, which names the line of the first bad byte.
"""

from __future__ import annotations

from pathlib import Path


class FairplugError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(FairplugError, ValueError):
    """An argument or configuration violates an operation's contract."""


class DataError(FairplugError):
    """Input data could not be read or mapped as declared."""


class DegenerateDataError(DataError):
    """An empirical quantity is undefined on the given data.

    Raised when a label class, sensitive group, or (label, group) cell
    required by a conditional rate or prior is empty, or when an
    empirical prior hits 0 or 1 exactly -- situations the underlying
    theory excludes by assumption.
    """


class NumericError(FairplugError, ArithmeticError):
    """A numeric routine produced non-finite values or failed to proceed."""


def undecodable(path: Path, exc: UnicodeDecodeError, raw=None) -> DataError:
    """A decode failure as a :class:`DataError` naming the first bad byte's line.

    ``raw`` is the whole file when the caller holds it and ``exc`` came
    from decoding all of it; otherwise the file is read and decoded again.
    """
    if raw is None:
        raw = path.read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        else:
            return DataError(f"{path}: not UTF-8 text: {exc}")
    head = bytes(raw[: exc.start])
    line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return DataError(f"{path}:{line}: not UTF-8 text: {exc}")
