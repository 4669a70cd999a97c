"""CSV ingestion, norm-bounding preprocessing, and split generation.

Loading is schema-driven: a flat text schema names the feature columns
(numeric or categorical), the label and sensitive columns with their
positive values, and the missing-value markers; a column it does not
name is never read, and a key it does not know is an error.
Categorical features are one-hot encoded with category order fixed by
first appearance, so identical file bytes always produce an identical
dataset.  Rows with missing values in any used column are dropped and
counted.  The loader reads the file once, through ``csv.reader``.
Cells are encoded a chunk of rows at a time into one int32 code per
used cell, each column through a table of its distinct cells, so the
loader holds one chunk of cells, the codes and the distinct values --
never the table's strings.  Errors name the physical line a record
starts on.

The privacy pipeline needs every joint feature-label row inside the
unit ball.  The transform that achieves it -- per-feature
standardization, a global rescale putting the largest training row at
norm sqrt(1 - C^2), and labels remapped to +-C -- is fitted on the
training split only; applying it to held-out rows never reads their
statistics, and any row that lands outside the cap is radially clipped
(counted, never silent: held-out rows, or a training row that rounding
puts just over it).  Each split, training or held-out, is gathered from
the dataset once, into one buffer that is mapped in place (and, for a
training split, fitted there first) and that the mapped split owns.
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
import logging
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .core import Dataset
from .errors import DataError, DegenerateDataError, ValidationError, undecodable
from .kvformat import format_float, read_kv, write_kv

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
    """What the loader did: row accounting and the encoded layout."""

    rows_read: int
    rows_dropped: int
    feature_width: int
    categorical_levels: dict[str, tuple[str, ...]] = field(default_factory=dict)


def _split_values(raw: str) -> frozenset[str]:
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


def load_schema(path: str | Path) -> CsvSchema:
    """Read a schema record (see the bundled files for the key layout).

    Every key is read or rejected: a key the layout does not name (a
    misspelt one, or a ``feature.N`` after a gap in the numbering) is a
    :class:`DataError` naming the key and the file.
    """
    record = read_kv(path)
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


class _Codes(dict):
    """Raw cell -> code of its stripped value; codes in first-appearance order.

    Each distinct raw cell is stripped once; ``values[code]`` is the
    stripped value, so cells that differ only in surrounding blanks
    share a code.
    """

    def __init__(self) -> None:
        super().__init__()
        self.values: list[str] = []
        self.code_of: dict[str, int] = {}

    def __missing__(self, raw: str) -> int:
        value = raw.strip()
        if value not in self.code_of:
            self.code_of[value] = len(self.values)
            self.values.append(value)
        code = self[raw] = self.code_of[value]
        return code

    def flags(self, test) -> np.ndarray:
        """``test(value)`` for every code, as a boolean lookup table."""
        return np.fromiter(map(test, self.values), dtype=bool, count=len(self.values))


_CHUNK_RECORDS = 512


def load_csv_report(path: str | Path, schema: CsvSchema) -> tuple[Dataset, LoadReport]:
    """Load and encode a headered CSV; also return the load accounting.

    Records come from ``csv.reader`` through :func:`_records`.
    Full-width records are buffered ``_CHUNK_RECORDS`` at a time; each
    used column of a chunk is then encoded into int32 codes through a
    :class:`_Codes` table, one dict lookup per cell.
    Everything else runs once per distinct value or as a gather over
    the codes: blank-row and missing-value tests, label and sensitive
    signs and legality, ``float`` parsing, and the renumbering of
    categorical levels by first appearance among kept rows.  The loader
    never holds more of the table's strings than one chunk of cells; the
    rest is one int32 code per used cell and the distinct values.

    Errors name ``path:line`` with the physical line a record starts on.
    Row-level errors (ragged row, unmappable label or sensitive value)
    come in file order, then "no usable rows", then the first
    non-numeric value of the first such column in schema order.  A file
    that is not UTF-8, or that csv cannot parse, is a :class:`DataError`.
    """
    path = Path(path)
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    try:
        with handle:
            tables, codes, lines, blank = _encode_columns(path, schema, _records(handle, path))
    except UnicodeDecodeError as exc:
        raise undecodable(path, exc) from exc
    kept = _check_rows(path, schema, tables, codes, lines, blank)
    n = int(np.count_nonzero(kept))
    rows_read = len(kept) - int(np.count_nonzero(blank))
    rows_dropped = rows_read - n
    if not n:
        raise DegenerateDataError(f"{path}: no usable rows after cleaning")
    if n < len(kept):
        codes = [column[kept] for column in codes]

    # Per column, a table indexed by code: each distinct numeric value's
    # float, or each categorical code's level by first appearance among
    # the kept rows.  The tables fix the width; then every cell is a gather.
    lookups = []
    for (name, kind), table, column in zip(schema.features, tables, codes):
        if kind == KIND_NUMERIC:
            lookups.append((name, _parse_numeric(path, name, table, column), None))
            continue
        first = np.full(len(table.values), n)
        np.minimum.at(first, column, np.arange(n))
        order = np.argsort(first)[: np.count_nonzero(first < n)]
        remap = np.zeros(len(table.values), dtype=np.intp)
        remap[order] = np.arange(len(order))
        lookups.append((name, remap, tuple(table.values[code] for code in order)))
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
    for table, column, positive in zip(
        tables[-2:], codes[-2:], (schema.label_positive, schema.sensitive_positive)
    ):
        signs.append(np.where(table.flags(positive.__contains__), 1.0, -1.0)[column])
    # arrays nothing else refers to: the dataset takes them over uncopied
    dataset = Dataset._adopt(features, signs[0], signs[1])
    report = LoadReport(
        rows_read=rows_read,
        rows_dropped=rows_dropped,
        feature_width=feature_width,
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


def _encode_columns(path: Path, schema: CsvSchema, records):
    """Code tables, int32 codes and start lines of every full-width record.

    Returns one :class:`_Codes` table and one code array per used column
    (features in schema order, then label, then sensitive), the start
    line of each record and a mask of the blank ones.  A ragged record
    that is not blank raises, after any unmappable value in the rows
    before it.
    """
    try:
        _, header = next(records)
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None
    header = [cell.strip() for cell in header]
    indices: list[int] = []
    for column in schema.used_columns:
        if column not in header:
            raise DataError(f"{path}: required column {column!r} is missing")
        if header.count(column) > 1:
            raise DataError(f"{path}: column {column!r} appears more than once in the header")
        indices.append(header.index(column))
    width = len(header)
    tables = [_Codes() for _ in indices]
    columns = [array("i") for _ in indices]
    lines = array("q")
    blank_rows: list[int] = []
    flat: list[str] = []

    def flush() -> None:
        start = len(columns[0])
        for table, column, index in zip(tables, columns, indices):
            column.extend(map(table.__getitem__, flat[index::width]))
        if all("" in table.code_of for table in tables):
            # only a record whose used cells are all blank can be a blank record
            used_blank = np.logical_and.reduce(
                [
                    np.frombuffer(column[start:], dtype=np.intc) == table.code_of[""]
                    for table, column in zip(tables, columns)
                ]
            )
            for row in np.flatnonzero(used_blank).tolist():
                if not "".join(flat[row * width : (row + 1) * width]).strip():
                    blank_rows.append(start + row)
        flat.clear()

    def finish():
        flush()
        codes = [np.frombuffer(column, dtype=np.intc) for column in columns]
        blank = np.zeros(len(lines), dtype=bool)
        blank[blank_rows] = True
        return tables, codes, np.frombuffer(lines, dtype=np.int64), blank

    chunk = _CHUNK_RECORDS * width
    for line, cells in records:
        if len(cells) == width:
            flat += cells
            lines.append(line)
            if len(flat) >= chunk:
                flush()
        elif "".join(cells).strip():
            _check_rows(path, schema, *finish())
            raise DataError(f"{path}:{line}: expected {width} cells, got {len(cells)}")
    return finish()


def _check_rows(path: Path, schema: CsvSchema, tables, codes, lines, blank) -> np.ndarray:
    """The mask of kept rows: not blank and no missing marker in a used cell.

    Raises for the first kept row whose label, then sensitive, value is
    outside the schema's declared value set.
    """
    missing = blank.copy()
    for table, column in zip(tables, codes):
        missing |= table.flags(schema.missing_values.__contains__)[column]
    kept = ~missing
    failure = None
    for table, column, (name, positive, legal) in zip(
        tables[-2:],
        codes[-2:],
        (
            (schema.label_column, schema.label_positive, schema.label_values),
            (schema.sensitive_column, schema.sensitive_positive, schema.sensitive_values),
        ),
    ):
        if legal is None:
            continue
        unmappable = table.flags(lambda value: value not in positive and value not in legal)
        bad = np.flatnonzero(unmappable[column] & kept)
        # the label column goes first, so on one row its value is named
        if bad.size and (failure is None or bad[0] < failure[0]):
            failure = (int(bad[0]), table.values[column[bad[0]]], name)
    if failure is not None:
        row, value, name = failure
        raise DataError(f"{path}:{lines[row]}: unmappable value {value!r} in column {name!r}")
    return kept


def _parse_numeric(path: Path, name: str, table: _Codes, column: np.ndarray) -> np.ndarray:
    """The float of each code's value, each distinct value parsed once.

    Raises for the first row of ``column`` whose value ``float`` rejects.
    """
    values = np.empty(len(table.values))
    errors: dict[int, ValueError] = {}
    for code, value in enumerate(table.values):
        try:
            values[code] = float(value)
        except ValueError as exc:
            errors[code] = exc
    if errors:
        rejected = np.flatnonzero(np.isin(column, list(errors)))
        if rejected.size:
            exc = errors[int(column[rejected[0]])]
            raise DataError(f"{path}: column {name!r} has a non-numeric value: {exc}") from exc
    return values


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


def _bound_rows(
    x: np.ndarray, dataset: Dataset, index: np.ndarray, transform: DpTransform, role: str
) -> Dataset:
    """The standardized rows ``x`` of ``dataset`` at ``index``, scaled and clipped, as a split.

    Both roles end here: ``*= global_scale`` and the radial clip of rows
    over the cap (counted in the log as ``role`` rows) in place, +-C
    labels, and adoption of ``x``.  A row whose squares overflow is
    divided by its largest entry before its norm is taken again, so it
    lands on the cap in its own direction, not at the origin; rows with
    finite norms keep their bits.  Non-finite rows stay non-finite for
    the dataset check to reject, with numpy's warnings on the way silenced.
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
    c = transform.label_magnitude
    labels = np.sign(dataset.labels[index])
    labels *= c
    return Dataset._adopt(x, labels, dataset.sensitive[index], c)


def fit_dp_transform(dataset: Dataset, rows, c: float = 0.5) -> tuple[DpTransform, Dataset]:
    """Fit the norm-bounding map on the training rows and map them through it.

    ``rows`` indexes the training split's rows of ``dataset``; they are
    gathered once, into one float64 buffer that the mapped training
    :class:`Dataset` adopts, and every step runs in that buffer: the
    mean, ``-= shift``, the column sums of squares, ``/= scale``, the
    largest row norm (which fixes ``global_scale``), ``*= global_scale``
    and the radial clip of any row that rounding puts over the cap.
    Squares exist only a block of rows at a time (:func:`_row_norms`,
    :func:`_column_square_sums`), and no raw copy of the split is built.

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
    x = dataset.features[index]
    with np.errstate(over="ignore", invalid="ignore"):
        shift = x.mean(axis=0)
        x -= shift
        scale = np.sqrt(_column_square_sums(x) / x.shape[0])
        scale = np.where(scale > 0, scale, 1.0)
        x /= scale
        max_norm = float(np.max([norms.max() for _, norms in _row_norms(x)]))
    global_scale = _radius_cap(c) / max_norm if max_norm > 0 else 1.0
    transform = DpTransform(shift=shift, scale=scale, global_scale=global_scale, label_magnitude=c)
    return transform, _bound_rows(x, dataset, index, transform, "training")


def apply_dp_transform(transform: DpTransform, dataset: Dataset, rows) -> Dataset:
    """Map held-out rows through a train-fitted transform.

    ``rows`` indexes the held-out split's rows of ``dataset``, checked
    as :func:`fit_dp_transform` checks its rows.  They are gathered once,
    into one buffer that is standardized in place and that the result
    adopts, so no raw copy of the split is built; the global scale, the
    radial clip (counted in the log as held-out rows) and the +-C labels
    are those of the fit's rows.  The result is checked (a non-finite
    row is a ValidationError, and numpy's overflow warnings on the way
    to one are silenced) and owns its arrays.
    """
    index = dataset._row_index(rows)
    z = dataset.features[index]
    with np.errstate(over="ignore", invalid="ignore"):
        z -= transform.shift
        z /= transform.scale
    return _bound_rows(z, dataset, index, transform, "held-out")


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
    seen: dict[tuple, int] = {}
    for repeat in range(plan.n_repeats):
        rng = np.random.default_rng((plan.master_seed, repeat))
        order = rng.permutation(n)
        triple = (
            np.sort(order[:n_train]),
            np.sort(order[n_train : n_train + n_val]),
            np.sort(order[n_train + n_val :]),
        )
        key = tuple(triple[0].tolist())
        if key in seen:
            log.warning("split repeat %d duplicates repeat %d", repeat, seen[key])
        seen[key] = repeat
        triples.append(triple)
    return triples


@dataclass(frozen=True, eq=False)
class PreparedData:
    """A prepared-directory bundle: encoded data, split plan, metadata."""

    dataset: Dataset
    splits: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    meta: dict[str, str]


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
    for identical inputs.
    """

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "features.npy", dataset.features)
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


def _load_array(path: Path) -> np.ndarray:
    """One ``.npy`` file of a prepared directory, as a real numeric array."""
    try:
        with open(path, "rb") as handle:
            array = np.lib.format.read_array(handle, allow_pickle=False)
    except OSError as exc:
        raise DataError(f"cannot read prepared directory file {path}: {exc}") from exc
    except ValueError as exc:  # not .npy, truncated, or an object array
        raise DataError(f"{path}: not a numeric .npy array: {exc}") from exc
    if array.dtype.kind not in "biuf":
        raise DataError(f"{path}: not a numeric .npy array: dtype {array.dtype}")
    return array


def load_prepared(in_dir: str | Path) -> PreparedData:
    """Read a prepared-dataset directory back into memory.

    Everything is checked before it is returned, so a malformed
    directory is a :class:`DataError` naming the file before any split
    is used: an array that is not numeric ``.npy``, a ``label_scale``
    that is not a number, a ``dp_norm_c`` that is not a number in
    (0, 1), arrays a :class:`Dataset` rejects, a role outside {0, 1, 2}
    or a split with no train or no test row.  The dataset adopts the
    arrays read from ``features.npy``, ``labels.npy`` and
    ``sensitive.npy``: they are checked once and made read-only in place,
    not copied (an int-typed file is converted to float).
    """
    root = Path(in_dir)
    features, labels, sensitive = (
        _load_array(root / f"{name}.npy") for name in ("features", "labels", "sensitive")
    )
    split_files = split_paths(root)
    if not split_files:
        raise DataError(f"{root}: no split_NN.npy files found")
    role_rows = [_load_array(path) for path in split_files]
    meta = read_kv(root / "meta.kv")
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
        dataset = Dataset._adopt(features, labels, sensitive, label_scale)
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
    return PreparedData(dataset=dataset, splits=splits, meta=meta)
