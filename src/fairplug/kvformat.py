"""Flat ``key = value`` text records.

One declarative format is used everywhere a small amount of structured
text needs to live on disk: schema files, run configs, synthetic
distributions, prepared-data metadata and run manifests.  The format is
deliberately primitive:

* one ``key = value`` pair per line, split on the first ``=``;
* keys and values are stripped of surrounding whitespace;
* blank lines and lines starting with ``#`` are ignored;
* a key may appear only once.

Values are strings; callers convert.  Floats should be written with
:func:`format_float` so that reading them back reproduces the exact
IEEE-754 double.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from pathlib import Path

from .errors import DataError, undecodable

__all__ = [
    "read_kv",
    "parse_kv",
    "write_kv",
    "format_float",
    "format_float_vector",
    "parse_float_vector",
]


def _parse_lines(lines: Iterable[str], source: str) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise DataError(f"{source}:{lineno}: empty key")
        pairs.append((key, value.strip()))
    return pairs


def read_kv(path: str | Path, digest=None) -> dict[str, str]:
    """Read a key=value file into a dict; duplicate keys are an error.

    A file that cannot be read, or is not UTF-8, is a :class:`DataError`.
    The file is read once, so a named pipe such as ``<(...)`` works, and
    the error for it names the line of a bad byte too.  ``digest``, a
    :mod:`hashlib` object, is fed the bytes that are parsed.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if digest is not None:
        digest.update(raw)
    return parse_kv(raw, path)


def parse_kv(raw: bytes, path: Path) -> dict[str, str]:
    """:func:`read_kv` of the bytes ``raw`` already read from ``path``."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise undecodable(path, exc, raw) from exc
    pairs = _parse_lines(text.splitlines(), str(path))
    out: dict[str, str] = {}
    for key, value in pairs:
        if key in out:
            raise DataError(f"{path}: duplicate key {key!r}")
        out[key] = value
    return out


def write_kv(path: str | Path, items: Mapping[str, str] | Iterable[tuple[str, str]]) -> None:
    """Write pairs as ``key = value`` lines (insertion order preserved)."""
    if isinstance(items, Mapping):
        items = items.items()
    lines = [f"{key} = {value}" for key, value in items]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def format_float(x: float) -> str:
    """Render a float so that ``float()`` reads back the identical double."""
    return repr(float(x))


def format_float_vector(values) -> str:
    """Render a 1-D float sequence as a space-separated full-precision list."""
    return " ".join(format_float(v) for v in values)


def parse_float_vector(text: str) -> list[float]:
    """Inverse of :func:`format_float_vector`."""
    if not text.strip():
        return []
    try:
        return [float(tok) for tok in text.split()]
    except ValueError as exc:
        raise DataError(f"bad float vector: {text!r}") from exc
