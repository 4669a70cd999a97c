"""CSV ingestion, norm-bounding preprocessing, and split generation.

Loading is schema-driven: a flat text schema names the feature columns
(numeric or categorical), the label and sensitive columns with their
positive values, and the missing-value markers; a column it does not
name is never read, and a key it does not know is an error.
Categorical features are one-hot encoded with category order fixed by
first appearance, so identical file bytes always produce an identical
dataset.  Rows with missing values in any used column are dropped and
counted.  The loader reads the file once, into one byte buffer that
is checked to be UTF-8 and hashed, past one leading byte-order mark.
A file with no quote, NUL or lone carriage return is cut into cells by
one vectorized scan for commas and newlines; any other file, or one
with a ragged or blank line, is read by ``csv.reader``.  Both hand each
used column to one coder as byte offsets, which gives every cell the
int32 code of its stripped value by sorting keys mixed from its bytes
and checking the ties word for word, so the loader holds the bytes,
one code per used cell and the distinct values -- never a string per
cell, and no Python step per cell on the vectorized path.  Errors name the physical line a record starts on.

The privacy pipeline needs every joint feature-label row inside the
unit ball.  The transform that achieves it -- per-feature
standardization, a global rescale putting the largest training row at
norm sqrt(1 - C^2), and labels remapped to +-C -- is fitted on the
training split only; applying it to held-out rows never reads their
statistics, and any row that lands outside the cap is radially clipped
(counted, never silent: held-out rows, or a training row that rounding
puts just over it).  Each split, training or held-out, is gathered from
the dataset once, into one buffer that is mapped in place (and, for a
training split, fitted there first) and that the mapped split owns.  The
gather reads the dataset's feature matrix a block of about 1 MiB of rows
at a time; a loaded prepared directory's matrix stays in
``features.npy``, and each gather copies its blocks out of the file, so
no whole copy of the matrix is ever held.  The fits read a training
split's buffer where it lies, so no fit copies its rows.
Squares for the scale and the norms exist one block of rows at a time,
in one reused buffer of about 2^17 elements; the column sums carry
their running total from block to block in numpy's own summation
order, so every statistic, mapped row and clip decision is what
whole-array numpy expressions give, bit for bit.

Split generation is unstratified: each repeat draws an independent
permutation from its derived seed and cuts it 70:20:10.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
import operator
import os
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .core import Dataset, _FeatureFile, _file_stat, _row_blocks
from .errors import DataError, DegenerateDataError, ValidationError, undecodable
from .kvformat import format_float, parse_kv, read_kv, write_kv

__all__ = [
    "KIND_NUMERIC",
    "KIND_CATEGORICAL",
    "CsvSchema",
    "LoadReport",
    "DpTransform",
    "SPLIT_RATIOS",
    "SplitPlan",
    "PreparedData",
    "load_schema",
    "bundled_schema_path",
    "list_bundled_schemas",
    "load_csv_report",
    "fit_dp_transform",
    "apply_dp_transform",
    "make_splits",
    "save_prepared",
    "split_paths",
    "load_prepared",
]

log = logging.getLogger("fairplug.data")

KIND_NUMERIC = "numeric"
KIND_CATEGORICAL = "categorical"

DEFAULT_MISSING = frozenset({"", "?"})


@dataclass(frozen=True)
class CsvSchema:
    """Declarative description of a labeled CSV with a sensitive column.

    ``features`` is an ordered tuple of (column name, kind).  The
    positive-value sets map raw strings to +1; optional value sets
    enumerate every legal raw value, turning anything else into a hard
    error instead of a silent -1.
    """

    features: tuple[tuple[str, str], ...]
    label_column: str
    label_positive: frozenset[str]
    sensitive_column: str
    sensitive_positive: frozenset[str]
    label_values: frozenset[str] | None = None
    sensitive_values: frozenset[str] | None = None
    missing_values: frozenset[str] = DEFAULT_MISSING

    def __post_init__(self) -> None:
        if not self.features:
            raise ValidationError("schema must name at least one feature column")
        names = [name for name, _ in self.features]
        if len(set(names)) != len(names):
            raise ValidationError("feature column names must be unique")
        for name, kind in self.features:
            if kind not in (KIND_NUMERIC, KIND_CATEGORICAL):
                raise ValidationError(f"column {name!r} has unknown kind {kind!r}")
        if self.label_column == self.sensitive_column:
            raise ValidationError("label and sensitive columns must be distinct")
        for special in (self.label_column, self.sensitive_column):
            if special in names:
                raise ValidationError(f"{special!r} cannot be both special and a feature")
        if not self.label_positive or not self.sensitive_positive:
            raise ValidationError("positive-value sets must be nonempty")

    @property
    def used_columns(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.features) + (
            self.label_column,
            self.sensitive_column,
        )


@dataclass(frozen=True)
class LoadReport:
    """What the loader did: row accounting, the encoded layout and the bytes it read.

    ``sha256`` is the hex digest of the file's bytes as they were loaded.
    """

    rows_read: int
    rows_dropped: int
    feature_width: int
    sha256: str
    categorical_levels: dict[str, tuple[str, ...]] = field(default_factory=dict)


def _split_values(raw: str) -> frozenset[str]:
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


def load_schema(path: str | Path, digest=None) -> CsvSchema:
    """Read a schema record (see the bundled files for the key layout).

    Every key is read or rejected: a key the layout does not name (a
    misspelt one, or a ``feature.N`` after a gap in the numbering) is a
    :class:`DataError` naming the key and the file.  ``digest`` is
    :func:`~fairplug.kvformat.read_kv`'s: it is fed the bytes parsed.
    """
    record = read_kv(path, digest)
    features: list[tuple[str, str]] = []
    index = 0
    while f"feature.{index}" in record:
        entry = record.pop(f"feature.{index}")
        if ":" not in entry:
            raise DataError(f"{path}: feature.{index} must look like name:kind, got {entry!r}")
        name, kind = entry.rsplit(":", 1)
        features.append((name.strip(), kind.strip()))
        index += 1
    if not features:
        raise DataError(f"{path}: schema has no feature.N entries")
    try:
        label_column = record.pop("label_column").strip()
        label_positive = _split_values(record.pop("label_positive"))
        sensitive_column = record.pop("sensitive_column").strip()
        sensitive_positive = _split_values(record.pop("sensitive_positive"))
    except KeyError as exc:
        raise DataError(f"{path}: missing schema field {exc}") from exc
    label_values = (
        _split_values(record.pop("label_values")) if "label_values" in record else None
    )
    sensitive_values = (
        _split_values(record.pop("sensitive_values")) if "sensitive_values" in record else None
    )
    missing = (
        frozenset(part.strip() for part in record.pop("missing_values").split(","))
        if "missing_values" in record
        else DEFAULT_MISSING
    )
    if record:
        raise DataError(f"{path}: unknown schema key {next(iter(record))!r}")
    return CsvSchema(
        features=tuple(features),
        label_column=label_column,
        label_positive=label_positive,
        sensitive_column=sensitive_column,
        sensitive_positive=sensitive_positive,
        label_values=label_values,
        sensitive_values=sensitive_values,
        missing_values=missing,
    )


def list_bundled_schemas() -> tuple[str, ...]:
    """Names of the schema files shipped inside the package."""
    root = resources.files("fairplug") / "schemas"
    return tuple(sorted(entry.name[: -len(".kv")] for entry in root.iterdir() if entry.name.endswith(".kv")))


def bundled_schema_path(name: str) -> Path:
    """Filesystem path of a bundled schema (e.g. 'german_gender')."""
    candidate = resources.files("fairplug") / "schemas" / f"{name}.kv"
    path = Path(str(candidate))
    if not path.is_file():
        raise DataError(
            f"no bundled schema named {name!r}; available: {', '.join(list_bundled_schemas())}"
        )
    return path


def _records(handle, path) -> Iterator[tuple[int, list[str]]]:
    """``(physical line, cells)`` for each record ``csv.reader`` reads from ``handle``.

    ``handle`` is a ``newline=""`` text file; a record is numbered by the
    line it starts on, which a quoted cell spanning lines moves for the
    records after it.  csv's own errors become :class:`DataError` naming
    ``path`` and the line of the record csv was reading.
    """
    reader = csv.reader(handle)
    start = 1
    try:
        for cells in reader:
            yield start, cells
            start = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(f"{path}:{start}: {exc}") from exc


#: Zero bytes kept after a buffer's cells, so that every 8-byte load that
#: starts in a cell, and a newline put after an unterminated last line,
#: stay inside the buffer.
_SPARE = 16
_BOM = b"\xef\xbb\xbf"
#: Bytes of text per step of the UTF-8 check and of the separator scan.
_SCAN_BLOCK = 1 << 20
_NEWLINE, _RETURN, _COMMA = b"\n"[0], b"\r"[0], b","[0]
#: Bytes at a cell's ends that ``str.strip`` may remove: the ASCII blanks
#: (\t \n \v \f \r, \x1c-\x1f and space), and every byte of a multi-byte
#: character, since some of those are blanks.
_EDGE = np.zeros(256, dtype=bool)
_EDGE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_EDGE[0x80:] = True
#: ``_LOW_BYTES[k]`` keeps the first k bytes of a little-endian 8-byte load.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
#: Odd multiplier that mixes a cell's words into its sort key.
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _anonymous(size: int):
    """``size`` zero bytes in an anonymous memory mapping of their own.

    The byte buffer and the separator index are the loader's largest
    transients.  Outside the heap, their pages go back to the system when
    they are freed; on the heap, which the command keeps mapped once
    freed (``cli._keep_freed_pages``), they would leave holes that the
    feature matrix and later stages lay out around.
    """
    import mmap  # only ingest maps memory, so importing the package does not load it

    return mmap.mmap(-1, max(size, 1))


def _read_csv(path: Path):
    """The file's bytes followed by ``_SPARE`` zero bytes, where its text starts, and its size.

    The bytes are in an anonymous mapping (:func:`_anonymous`).  The text
    starts after one leading UTF-8 byte-order mark, if there is one.  The
    whole file is checked to be UTF-8 here, once.  A pipe, or a file that
    grew, holds more than its size said; that rest is read too.
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        raw = _anonymous(os.fstat(handle.fileno()).st_size + _SPARE)
        size = handle.readinto(memoryview(raw)[:-_SPARE])
        rest = handle.read()
    if rest:
        grown = _anonymous(size + len(rest) + _SPARE)
        grown[:size] = raw[:size]
        grown[size : size + len(rest)] = rest
        raw, size = grown, size + len(rest)
    _check_utf8(path, raw, size)
    return raw, len(_BOM) if raw[: len(_BOM)] == _BOM else 0, size


class _InPlace(io.RawIOBase):
    """A binary stream that reads the bytes of ``view`` in place (``io.BytesIO`` copies them)."""

    def __init__(self, view: memoryview) -> None:
        super().__init__()
        self._view, self._at = view, 0

    def readable(self) -> bool:
        return True

    def readinto(self, target) -> int:
        count = min(len(target), len(self._view) - self._at)
        target[:count] = self._view[self._at : self._at + count]
        self._at += count
        return count


def _check_utf8(path: Path, raw, size: int) -> None:
    """Raise :func:`undecodable` unless ``raw[:size]`` is UTF-8.

    ASCII text needs no decoding.  Other text is decoded in place
    (:class:`_InPlace`), ``_SCAN_BLOCK`` characters at a time, so no
    copy or string is larger than a block; on an error, the text is
    decoded once more from its start, which places the error in the file.
    """
    if np.frombuffer(raw, dtype=np.uint8, count=size).max(initial=0) < 0x80:
        return
    view = memoryview(raw)[:size]
    try:
        with io.TextIOWrapper(_InPlace(view), encoding="utf-8", newline="") as text:
            while text.read(_SCAN_BLOCK):
                pass
    except UnicodeDecodeError:
        try:
            str(view, "utf-8")
        except UnicodeDecodeError as exc:
            raise undecodable(path, exc, raw) from exc
        raise


def _column_indices(path: Path, schema: CsvSchema, header: list[str]) -> list[int]:
    """The header position of each used column; every one must appear exactly once."""
    header = [cell.strip() for cell in header]
    indices: list[int] = []
    for column in schema.used_columns:
        if column not in header:
            raise DataError(f"{path}: required column {column!r} is missing")
        if header.count(column) > 1:
            raise DataError(f"{path}: column {column!r} appears more than once in the header")
        indices.append(header.index(column))
    return indices


def _strip(buffer: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The bounds of each cell ``buffer[starts[i]:ends[i]]`` after ``str.strip()``.

    Only a cell with a blank or non-ASCII byte at an end can change; each
    such cell is decoded and stripped by ``str.strip`` itself.  The input
    arrays are returned as they are if there is none.
    """
    edge = np.flatnonzero((_EDGE[buffer[starts]] | _EDGE[buffer[ends - 1]]) & (starts < ends))
    if not edge.size:
        return starts, ends
    starts, ends = starts.copy(), ends.copy()
    view = buffer.data
    for i in edge.tolist():
        rest = str(view[starts[i] : ends[i]], "utf-8").lstrip()
        starts[i] = ends[i] - len(rest.encode())
        ends[i] = starts[i] + len(rest.rstrip().encode())
    return starts, ends


def _words(loads: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """``(reach, words)`` for each 8-byte offset into the cells, in turn.

    ``words`` holds the little-endian 8-byte loads at the offset
    (``loads`` is the overlapping view of the buffer) of the cells that
    ``reach`` selects, masked to the cell: zero past its end.  ``reach``
    selects every cell while at least half of them extend past the
    offset, and then only those that do, so the words of a column cost
    at most two steps per 8 bytes of its text and one per cell, however
    long its longest cell is.
    """
    reach, offset = slice(None), 0
    while True:
        rest = lengths[reach] - offset
        longer = rest > 8
        at = starts[reach] + offset
        words = loads[np.minimum(at, len(loads) - 1, out=at)]
        words &= _LOW_BYTES[np.maximum(np.minimum(rest, 8, out=rest), 0, out=rest)]
        yield reach, words
        count = np.count_nonzero(longer)
        if not count:
            return
        if isinstance(reach, np.ndarray):
            reach = reach[longer]
        elif 2 * count < len(rest):
            reach = np.flatnonzero(longer)
        offset += 8


def _code(buffer: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Int32 codes of the cells ``buffer[starts[i]:ends[i]]`` and their distinct values.

    Codes number the ``str.strip``ped values in order of first
    appearance, and ``values[code]`` is the value: what one dict from
    value to code, filled cell by cell, would give.  ``buffer`` holds
    UTF-8 and at least 8 bytes after the last cell.  After the strip
    (:func:`_strip`), each cell's length and masked 8-byte words
    (:func:`_words`) are mixed into one key per cell, and the keys are
    sorted.  Every cell is then checked word for word against the first
    cell of its key (:func:`_ties_hold`); if two values share a key, the
    keys collided, and the column is coded by a dict of its cells' bytes
    instead (:func:`_code_exactly`), so no two values ever share a code.
    Only the distinct values are decoded, one Python step each.
    """
    starts, ends = _strip(buffer, starts, ends)
    n = len(starts)
    if not n:
        return np.zeros(0, dtype=np.int32), []
    lengths = ends - starts
    # the 8 bytes from every offset, as one overlapping little-endian view
    loads = np.ndarray((len(buffer) - 7,), dtype="<u8", buffer=buffer, strides=(1,))
    words = list(_words(loads, starts, lengths))
    key = lengths.astype(np.uint64)
    for reach, word in words:
        mixed = key[reach]
        mixed ^= word
        mixed *= _MIX
        mixed ^= mixed >> np.uint64(29)
        key[reach] = mixed
    order = np.argsort(key)
    key = key[order]
    new = np.ones(n, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    group = np.empty(n, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    first = np.minimum.reduceat(order, np.flatnonzero(new))  # each key's first cell
    if not _ties_hold(words, lengths, first[group]):
        return _code_exactly(buffer, starts, ends)
    rank = np.argsort(first)
    code_of = np.empty(len(first), dtype=np.int32)
    code_of[rank] = np.arange(len(first), dtype=np.int32)
    view = buffer.data
    heads = first[rank]
    values = [
        str(view[start:end], "utf-8")
        for start, end in zip(starts[heads].tolist(), ends[heads].tolist())
    ]
    return code_of[group], values


def _ties_hold(words: list, lengths: np.ndarray, head: np.ndarray) -> bool:
    """Whether every cell holds the same bytes as cell ``head[i]``, by the cells' :func:`_words`."""
    if not np.array_equal(lengths[head], lengths):
        return False
    for reach, word in words:
        # a cell and its head have one length, so both reach an offset or
        # neither does; an index ``reach`` is ascending
        at = head[reach]
        if isinstance(reach, np.ndarray):
            at = np.searchsorted(reach, at)
        if not np.array_equal(word[at], word):
            return False
    return True


def _code_exactly(buffer: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """What :func:`_code` gives for stripped cells, from one dict of their bytes."""
    view = buffer.data
    index: dict[bytes, int] = {}
    codes = np.fromiter(
        (
            index.setdefault(bytes(view[start:end]), len(index))
            for start, end in zip(starts.tolist(), ends.tolist())
        ),
        dtype=np.int32,
        count=len(starts),
    )
    return codes, [str(value, "utf-8") for value in index]


def _separators(buffer: np.ndarray, begin: int, end: int) -> tuple[np.ndarray, int, int]:
    """Offsets of the commas and newlines in ``buffer[begin:end]``, with the newline and \\r counts.

    The text is scanned ``_SCAN_BLOCK`` bytes at a time, so no mask is
    longer than a block.  The offsets are int32 when the buffer allows
    and end in an anonymous mapping (:func:`_anonymous`).
    """
    dtype = np.int32 if len(buffer) < 2**31 else np.int64
    pieces, newlines, returns = [], 0, 0
    for start in range(begin, end, _SCAN_BLOCK):
        block = buffer[start : min(start + _SCAN_BLOCK, end)]
        mask = block == _NEWLINE
        newlines += int(np.count_nonzero(mask))
        returns += int(np.count_nonzero(block == _RETURN))
        mask |= block == _COMMA
        pieces.append(np.flatnonzero(mask).astype(dtype) + start)
    count = sum(map(len, pieces))
    seps = np.frombuffer(_anonymous(count * np.dtype(dtype).itemsize), dtype=dtype, count=count)
    np.concatenate(pieces, out=seps)
    return seps, newlines, returns


def _scan_columns(path: Path, schema: CsvSchema, raw, begin: int, size: int):
    """Codes, values, lines and blank mask of the used columns, or None for ``csv.reader``.

    Serves a file with no quote, NUL or lone carriage return, where a
    record is a line: :func:`_separators` finds every comma and newline
    (a ``\\r`` before a newline ends the last cell), and each used
    column's cell bounds are two strided views of that index.  A file
    with a line that does not hold as many cells as the header (a ragged
    or blank one), a line longer than ``csv.field_size_limit()`` bytes, or
    a row whose used cells are all blank returns None, so ``csv.reader`` reads
    it whole and is the only source of row-level errors.  An
    unterminated last line is ended with a newline in a spare byte.
    """
    if size == begin or raw.find(b'"', begin, size) >= 0 or raw.find(b"\0", begin, size) >= 0:
        return None
    end = size
    if raw[end - 1] != _NEWLINE:
        raw[end] = _NEWLINE
        end += 1
    buffer = np.frombuffer(raw, dtype=np.uint8)
    seps, lines, returns = _separators(buffer, begin, end)
    width = raw[begin : raw.find(b"\n", begin, end)].count(b",") + 1
    newlines = seps[width - 1 :: width]
    if len(seps) != lines * width or not np.all(buffer[newlines] == _NEWLINE):
        return None
    if returns != np.count_nonzero(buffer[newlines - 1] == _RETURN):
        return None
    # no cell is longer than its line
    if np.diff(newlines, prepend=begin - 1).max() > csv.field_size_limit():
        return None
    header = str(memoryview(raw)[begin : newlines[0]], "utf-8").removesuffix("\r")
    indices = _column_indices(path, schema, header.split(","))
    seps = seps.reshape(lines, width)
    codes, values = [], []
    for index in indices:
        starts = (seps[1:, index - 1] if index else seps[:-1, -1]) + 1
        ends = seps[1:, index]
        if index == width - 1:
            ends = ends - (buffer[ends - 1] == _RETURN)
        column, distinct = _code(buffer, starts, ends)
        codes.append(column)
        values.append(distinct)
    blank = np.logical_and.reduce(
        [column == (distinct.index("") if "" in distinct else -1)
         for column, distinct in zip(codes, values)]
    )
    if blank.any():
        return None
    return codes, values, np.arange(2, lines + 1), blank


#: Full-width records whose used cells ``csv.reader`` hands over as strings
#: before they are encoded, a column at a time, into the byte runs.
_CHUNK_RECORDS = 1024


def _reader_columns(path: Path, schema: CsvSchema, raw, begin: int, size: int):
    """Codes, values, lines and blank mask of the used columns, records cut by ``csv.reader``.

    The used cells of full-width records are gathered ``_CHUNK_RECORDS``
    records at a time; then each column's cells are joined, each ended
    by a NUL, and UTF-8 encoded onto that column's byte run, and one scan
    for the NULs gives their ends.  Each column is coded from its run
    once the records are read.  A record that is not full width must be
    blank; one that is not raises, after any unmappable value in the
    rows before it.
    """
    text = _InPlace(memoryview(raw)[begin:size])
    with io.TextIOWrapper(text, encoding="utf-8", newline="") as handle:
        records = _records(handle, path)
        try:
            _, header = next(records)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        indices = _column_indices(path, schema, header)
        width, used = len(header), operator.itemgetter(*indices)
        runs = [bytearray() for _ in indices]
        bounds: list[list[np.ndarray]] = [[] for _ in indices]
        pending: list[str] = []
        lines, blank = array("q"), bytearray()

        def encode() -> None:
            for j, (run, ends) in enumerate(zip(runs, bounds)):
                cells = pending[j :: len(indices)]
                data = "\0".join(cells).encode() + b"\0"
                nul = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 0)
                if len(nul) != len(cells):  # a cell holds a NUL: count its bytes
                    nul = np.cumsum([len(cell.encode()) + 1 for cell in cells], dtype=np.int64) - 1
                ends.append(nul + len(run))
                run += data
            pending.clear()

        def finish():
            encode()
            codes, values = [], []
            for run, chunks in zip(runs, bounds):
                ends = np.concatenate(chunks)
                starts = np.concatenate(([0], ends[:-1] + 1))[: len(ends)]
                run.extend(bytes(_SPARE))
                column, distinct = _code(np.frombuffer(run, dtype=np.uint8), starts, ends)
                codes.append(column)
                values.append(distinct)
            rows = np.frombuffer(lines, dtype=np.int64)
            return codes, values, rows, np.frombuffer(blank, dtype=bool)

        for line, record in records:
            if len(record) == width:
                pending.extend(used(record))
                lines.append(line)
                # a blank record has a blank first used cell: test the whole record only then
                blank.append(not record[indices[0]].strip() and not "".join(record).strip())
                if len(pending) >= _CHUNK_RECORDS * len(indices):
                    encode()
            elif "".join(record).strip():
                _check_rows(path, schema, *finish())
                raise DataError(f"{path}:{line}: expected {width} cells, got {len(record)}")
    return finish()


def _encode_columns(path: Path, schema: CsvSchema):
    """Codes, values, start lines and blank mask of the used columns, and the file's SHA-256.

    One code array and one value list per used column (features in
    schema order, then label, then sensitive), both tokenizers' output
    alike.  The file's bytes and the separator index are gone when this
    returns.
    """
    raw, begin, size = _read_csv(path)
    digest = hashlib.sha256(memoryview(raw)[:size]).hexdigest()
    encoded = _scan_columns(path, schema, raw, begin, size)
    if encoded is None:
        encoded = _reader_columns(path, schema, raw, begin, size)
    return (*encoded, digest)


def _flags(values: list[str], test) -> np.ndarray:
    """``test(value)`` for every code's value, as a boolean lookup table."""
    return np.fromiter(map(test, values), dtype=bool, count=len(values))


def load_csv_report(path: str | Path, schema: CsvSchema) -> tuple[Dataset, LoadReport]:
    """Load and encode a headered CSV; also return the load accounting.

    The file is read once into one byte buffer, checked to be UTF-8 and
    hashed; one leading byte-order mark is skipped.  A file with no
    quote, NUL or lone carriage return and with every line as wide as
    the header is cut into cells by one vectorized scan
    (:func:`_scan_columns`); any other file goes to ``csv.reader``
    through :func:`_records` (:func:`_reader_columns`).  Both hand each
    used column to :func:`_code` as byte offsets, which gives every cell
    the int32 code of its stripped value with no Python step per cell.
    Everything else runs once per distinct value or as a gather over
    the codes: blank-row and missing-value tests, label and sensitive
    signs and legality, ``float`` parsing, and the renumbering of
    categorical levels by first appearance among kept rows.  The byte
    buffer is freed before the feature matrix is allocated.  The report
    carries the SHA-256 of the file's bytes.

    Errors name ``path:line`` with the physical line a record starts on.
    Row-level errors (ragged row, unmappable label or sensitive value)
    come in file order, then "no usable rows", then the first
    non-numeric or non-finite value of the first such column in schema
    order.  A file
    that is not UTF-8, or that csv cannot parse, is a :class:`DataError`.
    """
    path = Path(path)
    codes, values, lines, blank, digest = _encode_columns(path, schema)
    kept = _check_rows(path, schema, codes, values, lines, blank)
    n = int(np.count_nonzero(kept))
    rows_read = len(kept) - int(np.count_nonzero(blank))
    rows_dropped = rows_read - n
    if not n:
        raise DegenerateDataError(f"{path}: no usable rows after cleaning")
    if n < len(kept):
        codes = [column[kept] for column in codes]
        lines = lines[kept]

    # Per column, a table indexed by code: each distinct numeric value's
    # float, or each categorical code's level by first appearance among
    # the kept rows.  The tables fix the width; then every cell is a gather.
    lookups = []
    for (name, kind), distinct, column in zip(schema.features, values, codes):
        if kind == KIND_NUMERIC:
            lookups.append((name, _parse_numeric(path, name, distinct, column, lines), None))
            continue
        first = np.full(len(distinct), n)
        np.minimum.at(first, column, np.arange(n))
        order = np.argsort(first)[: np.count_nonzero(first < n)]
        remap = np.zeros(len(distinct), dtype=np.intp)
        remap[order] = np.arange(len(order))
        lookups.append((name, remap, tuple(distinct[code] for code in order)))
    feature_width = sum(1 if levels is None else len(levels) for _, _, levels in lookups)
    features = np.zeros((n, feature_width))
    rows = np.arange(n)
    categorical_levels: dict[str, tuple[str, ...]] = {}
    start = 0
    for (name, lookup, levels), column in zip(lookups, codes):
        if levels is None:
            features[:, start] = lookup[column]
            start += 1
        else:
            features[rows, start + lookup[column]] = 1.0
            categorical_levels[name] = levels
            start += len(levels)
    signs = []
    for distinct, column, positive in zip(
        values[-2:], codes[-2:], (schema.label_positive, schema.sensitive_positive)
    ):
        signs.append(np.where(_flags(distinct, positive.__contains__), 1.0, -1.0)[column])
    # arrays nothing else refers to: the dataset takes them over uncopied
    dataset = Dataset._adopt(features, signs[0], signs[1])
    report = LoadReport(
        rows_read=rows_read,
        rows_dropped=rows_dropped,
        feature_width=feature_width,
        sha256=digest,
        categorical_levels=categorical_levels,
    )
    log.info(
        "loaded %s: %d rows read, %d dropped, feature width %d",
        path,
        rows_read,
        rows_dropped,
        feature_width,
    )
    return dataset, report


def _check_rows(path: Path, schema: CsvSchema, codes, values, lines, blank) -> np.ndarray:
    """The mask of kept rows: not blank and no missing marker in a used cell.

    Raises for the first kept row whose label, then sensitive, value is
    outside the schema's declared value set.
    """
    missing = blank.copy()
    for column, distinct in zip(codes, values):
        missing |= _flags(distinct, schema.missing_values.__contains__)[column]
    kept = ~missing
    failure = None
    for distinct, column, (name, positive, legal) in zip(
        values[-2:],
        codes[-2:],
        (
            (schema.label_column, schema.label_positive, schema.label_values),
            (schema.sensitive_column, schema.sensitive_positive, schema.sensitive_values),
        ),
    ):
        if legal is None:
            continue
        unmappable = _flags(distinct, lambda value: value not in positive and value not in legal)
        bad = np.flatnonzero(unmappable[column] & kept)
        # the label column goes first, so on one row its value is named
        if bad.size and (failure is None or bad[0] < failure[0]):
            failure = (int(bad[0]), distinct[column[bad[0]]], name)
    if failure is not None:
        row, value, name = failure
        raise DataError(f"{path}:{lines[row]}: unmappable value {value!r} in column {name!r}")
    return kept


def _parse_numeric(path: Path, name: str, values: list[str], column, lines) -> np.ndarray:
    """The float of each code's value, each distinct value parsed once.

    Raises for the first row of ``column`` whose value ``float`` rejects or
    reads as a non-finite number (``nan``, ``inf``, ``1e999``), naming
    that row's line in ``lines``.
    """
    floats = np.empty(len(values))
    errors: dict[int, str] = {}
    for code, value in enumerate(values):
        try:
            floats[code] = float(value)
        except ValueError as exc:
            errors[code] = f"a non-numeric value: {exc}"
            continue
        if not np.isfinite(floats[code]):
            errors[code] = f"a non-finite value {value!r}"
    if errors:
        rejected = np.flatnonzero(np.isin(column, list(errors)))
        if rejected.size:
            row = int(rejected[0])
            raise DataError(f"{path}:{lines[row]}: column {name!r} has {errors[int(column[row])]}")
    return floats


@dataclass(frozen=True, eq=False)
class DpTransform:
    """Train-fitted map onto the unit joint-norm ball.

    ``shift``/``scale`` standardize features; ``global_scale`` puts the
    largest training row at ``radius_cap`` = sqrt(1 - C^2); labels
    become +-C.  Held-out rows beyond the cap are radially clipped.
    """

    shift: np.ndarray
    scale: np.ndarray
    global_scale: float
    label_magnitude: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "label_magnitude", _check_c(self.label_magnitude))
        shift = np.array(self.shift, dtype=float)
        scale = np.array(self.scale, dtype=float)
        if shift.ndim != 1 or shift.shape != scale.shape:
            raise ValidationError("shift and scale must be matching vectors")
        if not (np.all(np.isfinite(shift)) and np.all(np.isfinite(scale))):
            raise ValidationError("shift and scale must be finite")
        if not np.all(scale > 0):
            raise ValidationError("scale entries must be positive")
        global_scale = float(self.global_scale)
        if not (np.isfinite(global_scale) and global_scale > 0):
            raise ValidationError(f"global_scale must be positive, got {global_scale}")
        object.__setattr__(self, "global_scale", global_scale)
        shift.setflags(write=False)
        scale.setflags(write=False)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "scale", scale)

    @property
    def radius_cap(self) -> float:
        """The feature-norm cap sqrt(1 - C^2) that leaves room for a +-C label."""
        return _radius_cap(self.label_magnitude)


def _check_c(c: float) -> float:
    c = float(c)
    if not (np.isfinite(c) and 0.0 < c < 1.0):
        raise ValidationError(f"label magnitude C must lie in (0, 1), got {c}")
    return c


def _radius_cap(c: float) -> float:
    return float(np.sqrt(1.0 - c * c))


#: Elements of the one reused buffer a squares pass fills; a pass squares
#: ``_SQUARES_BLOCK // width`` rows at a time, so no split-sized squares exist.
_SQUARES_BLOCK = 1 << 17


def _block_rows(x: np.ndarray) -> int:
    return max(1, _SQUARES_BLOCK // x.shape[1])


def _column_square_sums(x: np.ndarray) -> np.ndarray:
    """``(x * x).sum(axis=0)`` bit for bit, squaring one block of rows at a time.

    numpy sums axis 0 of a C-ordered ``(n, k >= 2)`` array one row after
    another, so carrying the running sum as the first row of the block
    buffer continues that order across blocks exactly (``0 + s == s``
    for the first block's squares, which are nonnegative).  At k = 1 the
    column is one contiguous vector that numpy sums pairwise, which the
    carry would not reproduce; its squares are one n-vector, so that
    width is summed whole.
    """
    n, k = x.shape
    if k == 1:
        return (x * x).sum(axis=0)
    rows = _block_rows(x)
    buffer = np.zeros((min(rows, n) + 1, k))
    for start in range(0, n, rows):
        block = x[start : start + rows]
        np.multiply(block, block, out=buffer[1 : len(block) + 1])
        buffer[0] = buffer[: len(block) + 1].sum(axis=0)
    return buffer[0].copy()


def _row_norms(x: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each block of ``x``'s rows, as a view, with its rows' norms.

    The norms are ``np.sqrt((block * block).sum(axis=1))``: numpy reduces
    each row on its own, so a block's norms are those of the whole array.
    The squares and the norms go into two buffers reused for every block,
    and each block's norms are overwritten by the next block's.
    """
    rows = _block_rows(x)
    squares = np.empty((min(rows, x.shape[0]), x.shape[1]))
    norms = np.empty(len(squares))
    for start in range(0, x.shape[0], rows):
        block = x[start : start + rows]
        size = len(block)
        np.multiply(block, block, out=squares[:size])
        np.sqrt(squares[:size].sum(axis=1, out=norms[:size]), out=norms[:size])
        yield block, norms[:size]


def _bound_rows(x: np.ndarray, transform: DpTransform, role: str) -> None:
    """Scale the standardized rows ``x`` by ``global_scale`` and clip them to the cap, in place.

    Both roles run this step: ``*= global_scale``, then the radial clip
    of rows over the cap, counted in the log as ``role`` rows.  A row
    whose squares overflow is divided by its largest entry before its
    norm is taken again, so it lands on the cap in its own direction, not
    at the origin; rows with finite norms keep their bits.  Non-finite
    rows stay non-finite for the dataset check to reject, with numpy's
    warnings on the way silenced.
    """
    cap = transform.radius_cap
    clipped = 0
    with np.errstate(over="ignore", invalid="ignore"):
        x *= transform.global_scale
        for block, norms in _row_norms(x):
            huge = np.isinf(norms)
            if huge.any():
                rows = block[huge]
                rows /= np.abs(rows).max(axis=1, keepdims=True)
                block[huge] = rows
                norms[huge] = np.sqrt((rows * rows).sum(axis=1))
            over = norms > cap
            if over.any():
                block[over] *= (cap / norms[over])[:, None]
                clipped += int(np.count_nonzero(over))
    if clipped:
        log.info("radially clipped %d %s rows to the norm cap", clipped, role)


def _gather(dataset: Dataset, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``dataset.features[index]`` written into ``out``, one block of the matrix's rows at a time.

    Every split is a gather like this, whether the matrix is in memory or
    file-backed (:func:`fairplug.core._row_blocks`), so a file-backed
    matrix is read a block at a time and never through its mapping.  The
    rows a block holds are one run of the sorted index.  A sorted index,
    as every split's is, is its own sorted order, so a block's rows go
    straight to one run of ``out``; an unsorted one is sorted once, and
    each row is written to its own position.
    """
    order = None if np.all(index[:-1] <= index[1:]) else np.argsort(index, kind="stable")
    ordered = index if order is None else index[order]
    for start, block in _row_blocks(dataset.features, dataset._source):
        lo, hi = np.searchsorted(ordered, (start, start + len(block)))
        # ``_row_index`` has checked the index, so "clip" only skips numpy's
        # bounds check; with the default mode numpy gathers through a
        # temporary before it writes ``out``.
        rows = ordered[lo:hi] - start
        if order is None:
            np.take(block, rows, axis=0, mode="clip", out=out[lo:hi])
        else:
            out[order[lo:hi]] = np.take(block, rows, axis=0, mode="clip")
    return out


def _labels(dataset: Dataset, index: np.ndarray, c: float) -> np.ndarray:
    """The +-C labels of ``dataset``'s rows at ``index``."""
    labels = np.sign(dataset.labels[index])
    labels *= c
    return labels


def fit_dp_transform(dataset: Dataset, rows, c: float = 0.5) -> tuple[DpTransform, Dataset]:
    """Fit the norm-bounding map on the training rows and map them through it.

    ``rows`` indexes the training split's rows of ``dataset``.  They are
    gathered once (:func:`_gather`: a block of the feature matrix's rows
    at a time, read from ``features.npy`` for a loaded dataset), into one
    C-ordered ``(n, k)`` float64 buffer, as :func:`apply_dp_transform`
    gathers the held-out rows, and every step runs there: the mean,
    ``-= shift``, the column sums of squares, ``/= scale``, the largest
    row norm (which fixes ``global_scale``), ``*= global_scale`` and the
    radial clip of any row that rounding puts over the cap.  The mapped
    split's features are that buffer, which the fits read where it lies
    (:func:`fairplug.cpe.fit`).  Squares exist only a block of rows at a
    time (:func:`_row_norms`, :func:`_column_square_sums`), and no raw
    copy of the split is built.

    The statistics are those of ``np.mean`` and ``np.std`` on the
    gathered rows bit for bit: the scale is the square root of the
    column sums of squares of the centered rows over n, summed in
    numpy's order.  Features so large that their squares overflow give a
    non-finite scale, which :class:`DpTransform` rejects; numpy's
    overflow warnings on the way there are silenced so that the
    rejection is what surfaces.
    """
    c = _check_c(c)
    index = dataset._row_index(rows)
    x = _gather(dataset, index, np.empty((index.size, dataset.dim)))
    with np.errstate(over="ignore", invalid="ignore"):
        shift = x.mean(axis=0)
        x -= shift
        scale = np.sqrt(_column_square_sums(x) / index.size)
        scale = np.where(scale > 0, scale, 1.0)
        x /= scale
        max_norm = float(np.max([norms.max() for _, norms in _row_norms(x)]))
    global_scale = _radius_cap(c) / max_norm if max_norm > 0 else 1.0
    transform = DpTransform(shift=shift, scale=scale, global_scale=global_scale, label_magnitude=c)
    _bound_rows(x, transform, "training")
    return transform, Dataset._adopt(x, _labels(dataset, index, c), dataset.sensitive[index], c)


def apply_dp_transform(transform: DpTransform, dataset: Dataset, rows) -> Dataset:
    """Map held-out rows through a train-fitted transform.

    ``rows`` indexes the held-out split's rows of ``dataset``, checked
    as :func:`fit_dp_transform` checks its rows.  They are gathered once
    as that function gathers its rows (:func:`_gather`), into one buffer
    that is standardized in place and that the result adopts, so no raw
    copy of the split is built; the global scale, the
    radial clip (counted in the log as held-out rows) and the +-C labels
    are those of the fit's rows.  The result is checked (a non-finite
    row is a ValidationError, and numpy's overflow warnings on the way
    to one are silenced) and owns its arrays.
    """
    index = dataset._row_index(rows)
    z = _gather(dataset, index, np.empty((index.size, dataset.dim)))
    with np.errstate(over="ignore", invalid="ignore"):
        z -= transform.shift
        z /= transform.scale
    _bound_rows(z, transform, "held-out")
    c = transform.label_magnitude
    return Dataset._adopt(z, _labels(dataset, index, c), dataset.sensitive[index], c)


#: Train, validation and test fractions of every split.
SPLIT_RATIOS = (0.70, 0.20, 0.10)


@dataclass(frozen=True)
class SplitPlan:
    """Repeated 70:20:10 partitions driven by one master seed."""

    n_repeats: int = 20
    master_seed: int = 0

    def __post_init__(self) -> None:
        if int(self.n_repeats) < 1:
            raise ValidationError("n_repeats must be at least 1")
        object.__setattr__(self, "n_repeats", int(self.n_repeats))
        object.__setattr__(self, "master_seed", int(self.master_seed))


def make_splits(
    dataset: Dataset, plan: SplitPlan
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Independent unstratified partitions, one per repeat.

    Sizes are round(r_train * n), round(r_val * n), remainder; indices
    within each role are sorted.  Identical repeats (possible only for
    tiny n) are logged as a warning, not rejected.
    """

    n = dataset.n
    n_train = int(round(SPLIT_RATIOS[0] * n))
    n_val = int(round(SPLIT_RATIOS[1] * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise DegenerateDataError(
            f"n={n} is too small for a {SPLIT_RATIOS} split: sizes "
            f"({n_train}, {n_val}, {n_test})"
        )
    triples = []
    seen: dict[bytes, int] = {}
    for repeat in range(plan.n_repeats):
        rng = np.random.default_rng((plan.master_seed, repeat))
        order = rng.permutation(n)
        triple = (
            np.sort(order[:n_train]),
            np.sort(order[n_train : n_train + n_val]),
            np.sort(order[n_train + n_val :]),
        )
        key = triple[0].tobytes()
        if key in seen:
            log.warning("split repeat %d duplicates repeat %d", repeat, seen[key])
        seen[key] = repeat
        triples.append(triple)
    return triples


@dataclass(frozen=True, eq=False)
class PreparedData:
    """A prepared-directory bundle: encoded data, split plan, metadata.

    ``digests`` maps each file :func:`load_prepared` read to the SHA-256
    of the bytes it read.
    """

    dataset: Dataset
    splits: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    meta: dict[str, str]
    digests: dict[str, str] = field(default_factory=dict)


_ROLE_TRAIN, _ROLE_VAL, _ROLE_TEST = 0, 1, 2


def save_prepared(
    out_dir: str | Path,
    dataset: Dataset,
    splits: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    meta: dict[str, object],
) -> None:
    """Write the prepared-dataset directory layout.

    Arrays go to .npy files; split membership is one int8 role vector
    per repeat (``split_NN.npy``, values 0 train / 1 val / 2 test);
    metadata is a flat text record.  All outputs are byte-deterministic
    for identical inputs.  A loaded dataset cannot be saved over the
    ``features.npy`` its features are mapped from: truncating that file
    would pull the pages from under the mapping while it is read.
    """

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    features_path = out / "features.npy"
    source = dataset._source
    if source is not None and features_path.exists() and features_path.samefile(source.path):
        raise ValidationError(f"{features_path} holds the features being saved; save elsewhere")
    np.save(features_path, dataset.features)
    np.save(out / "labels.npy", dataset.labels)
    np.save(out / "sensitive.npy", dataset.sensitive)
    for repeat, (train_idx, val_idx, test_idx) in enumerate(splits):
        roles = np.full(dataset.n, -1, dtype=np.int8)
        roles[train_idx] = _ROLE_TRAIN
        roles[val_idx] = _ROLE_VAL
        roles[test_idx] = _ROLE_TEST
        if np.any(roles < 0):
            raise ValidationError(f"split {repeat} must partition every row")
        np.save(out / f"split_{repeat:02d}.npy", roles)
    items = [("label_scale", format_float(dataset.label_scale))]
    items.extend((key, str(value)) for key, value in sorted(meta.items()))
    write_kv(out / "meta.kv", items)


def split_paths(in_dir: str | Path) -> list[Path]:
    """The ``split_NN.npy`` files of a prepared directory, in split order.

    Files are ordered by their integer index, so ``split_100`` follows
    ``split_99``; a name whose index is not an integer is rejected.
    """

    indexed = [(path.stem[len("split_"):], path) for path in Path(in_dir).glob("split_*.npy")]
    bad = sorted(path.name for index, path in indexed if not index.isdecimal())
    if bad:
        raise DataError(f"{in_dir}: split files without an integer index: {bad}")
    return [path for _, path in sorted(indexed, key=lambda item: int(item[0]))]


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read prepared directory file {path}: {exc}") from exc


def _load_array(path: Path):
    """One ``.npy`` file of a prepared directory, as a real numeric array, and its bytes' SHA-256."""
    raw = _read_bytes(path)
    try:
        array = np.lib.format.read_array(io.BytesIO(raw), allow_pickle=False)
    except ValueError as exc:  # not .npy, truncated, or an object array
        raise DataError(f"{path}: not a numeric .npy array: {exc}") from exc
    if array.dtype.kind not in "biuf":
        raise DataError(f"{path}: not a numeric .npy array: dtype {array.dtype}")
    return array, hashlib.sha256(raw)


def _map_features(path: Path):
    """``features.npy`` as a read-only ``np.memmap``, its :class:`_FeatureFile` and its header's SHA-256.

    Only the header is read here; the dataset's check reads the rows
    (:func:`fairplug.core._row_blocks`) and completes the digest.  A
    file whose rows are not a nonempty C-ordered float64 matrix is read
    whole by :func:`_load_array`, with its whole digest and no source.
    """
    try:
        features = np.lib.format.open_memmap(path, mode="r")
        # any shape but 2-D is left for the dataset to reject
        if features.dtype == np.float64 and features.flags.c_contiguous and features.size:
            with open(path, "rb") as handle:
                source = _FeatureFile(path, features.offset, _file_stat(handle))
                return features, hashlib.sha256(handle.read(source.offset)), source
    except OSError as exc:
        raise DataError(f"cannot read prepared directory file {path}: {exc}") from exc
    except ValueError as exc:  # not .npy, truncated, or an object array
        raise DataError(f"{path}: not a numeric .npy array: {exc}") from exc
    return (*_load_array(path), None)


def load_prepared(in_dir: str | Path) -> PreparedData:
    """Read a prepared-dataset directory, keeping its feature matrix in the file.

    Everything is checked before it is returned, so a malformed
    directory is a :class:`DataError` naming the file before any split
    is used: an array that is not numeric ``.npy``, a ``label_scale``
    that is not a number, a ``dp_norm_c`` that is not a number in
    (0, 1), arrays a :class:`Dataset` rejects, a role outside {0, 1, 2}
    or a split with no train or no test row.  The dataset's features are
    a read-only ``np.memmap`` of ``features.npy`` whose pages are never
    read: its finiteness check and every split's gather copy the rows
    out a block at a time, and each of those passes is a
    :class:`DataError` if the file was rewritten after this load.  A
    ``features.npy`` that is not a nonempty C-ordered float64 matrix (an
    int-typed file, Fortran order, zero width) is read into memory and
    converted to float, as are ``labels.npy``, ``sensitive.npy`` and the
    role vectors.  :attr:`PreparedData.digests` holds the SHA-256 of the
    bytes read from each file, in the passes that checked them.
    """
    root = Path(in_dir)
    hashes = {}
    features, hashes["features.npy"], source = _map_features(root / "features.npy")
    (labels, hashes["labels.npy"]), (sensitive, hashes["sensitive.npy"]) = (
        _load_array(root / f"{name}.npy") for name in ("labels", "sensitive")
    )
    split_files = split_paths(root)
    if not split_files:
        raise DataError(f"{root}: no split_NN.npy files found")
    role_rows = []
    for path in split_files:
        row, hashes[path.name] = _load_array(path)
        role_rows.append(row)
    meta_raw = _read_bytes(root / "meta.kv")
    meta = parse_kv(meta_raw, root / "meta.kv")
    hashes["meta.kv"] = hashlib.sha256(meta_raw)
    scale_text = meta.pop("label_scale", "1.0")
    try:
        label_scale = float(scale_text)
    except ValueError:
        raise DataError(f"{root / 'meta.kv'}: label_scale {scale_text!r} is not a number") from None
    norm_text = meta.get("dp_norm_c")
    if norm_text is not None:
        try:
            _check_c(norm_text)
        except ValueError:
            raise DataError(
                f"{root / 'meta.kv'}: dp_norm_c {norm_text!r} is not a norm cap in (0, 1)"
            ) from None
    try:
        dataset = Dataset._adopt(
            features, labels, sensitive, label_scale, source, hashes["features.npy"]
        )
    except ValidationError as exc:
        raise DataError(f"{root}: prepared arrays are not a dataset: {exc}") from exc
    splits = []
    for path, row in zip(split_files, role_rows):
        if row.shape != (dataset.n,):
            raise DataError(f"{path}: role vector shape {row.shape} does not match the data")
        roles = [np.flatnonzero(row == role) for role in (_ROLE_TRAIN, _ROLE_VAL, _ROLE_TEST)]
        if sum(part.size for part in roles) != dataset.n:
            raise DataError(f"{path}: roles must be 0 (train), 1 (val) or 2 (test)")
        if roles[0].size == 0 or roles[2].size == 0:
            raise DataError(f"{path}: a split needs at least one train and one test row")
        splits.append(tuple(roles))
    digests = {name: digest.hexdigest() for name, digest in hashes.items()}
    return PreparedData(dataset=dataset, splits=splits, meta=meta, digests=digests)
