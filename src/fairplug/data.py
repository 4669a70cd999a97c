"""CSV ingestion, norm-bounding preprocessing, and split generation.

Loading is schema-driven: a flat text schema names the feature columns
(numeric or categorical), the label and sensitive columns with their
positive values, columns to drop, and the missing-value markers.
Categorical features are one-hot encoded with category order fixed by
first appearance, so identical file bytes always produce an identical
dataset.  Rows with missing values in any used column are dropped and
counted.  The loader reads the file once and encodes each kept row as
it arrives, so it holds typed arrays of one number per used cell, never
the table's strings; errors name the physical line a record starts on.

The privacy pipeline needs every joint feature-label row inside the
unit ball.  The transform that achieves it -- per-feature
standardization, a global rescale putting the largest training row at
norm sqrt(1 - C^2), and labels remapped to +-C -- is fitted on the
training split only; applying it to held-out rows never reads their
statistics, and any held-out row that lands outside the cap is
radially clipped (counted, never silent).

Split generation is unstratified: each repeat draws an independent
permutation from its derived seed and cuts it 70:20:10.
"""

from __future__ import annotations

import csv
import logging
from array import array
from dataclasses import dataclass, field
from importlib import resources
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import Dataset
from .errors import DataError, DegenerateDataError, ValidationError
from .kvformat import format_float, read_kv, write_kv

__all__ = [
    "KIND_NUMERIC",
    "KIND_CATEGORICAL",
    "CsvSchema",
    "LoadReport",
    "DpTransform",
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
    drop_columns: frozenset[str] = frozenset()
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
    """Read a schema record (see the bundled files for the key layout)."""
    record = read_kv(path)
    features: list[tuple[str, str]] = []
    index = 0
    while f"feature.{index}" in record:
        entry = record[f"feature.{index}"]
        if ":" not in entry:
            raise DataError(f"{path}: feature.{index} must look like name:kind, got {entry!r}")
        name, kind = entry.rsplit(":", 1)
        features.append((name.strip(), kind.strip()))
        index += 1
    if not features:
        raise DataError(f"{path}: schema has no feature.N entries")
    try:
        label_column = record["label_column"].strip()
        label_positive = _split_values(record["label_positive"])
        sensitive_column = record["sensitive_column"].strip()
        sensitive_positive = _split_values(record["sensitive_positive"])
    except KeyError as exc:
        raise DataError(f"{path}: missing schema field {exc}") from exc
    label_values = (
        _split_values(record["label_values"]) if "label_values" in record else None
    )
    sensitive_values = (
        _split_values(record["sensitive_values"]) if "sensitive_values" in record else None
    )
    drop = _split_values(record.get("drop_columns", ""))
    missing = (
        frozenset(part.strip() for part in record["missing_values"].split(","))
        if "missing_values" in record
        else DEFAULT_MISSING
    )
    return CsvSchema(
        features=tuple(features),
        label_column=label_column,
        label_positive=label_positive,
        sensitive_column=sensitive_column,
        sensitive_positive=sensitive_positive,
        label_values=label_values,
        sensitive_values=sensitive_values,
        drop_columns=drop,
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


def _map_sign(
    value: str,
    positive: frozenset[str],
    legal: frozenset[str] | None,
    column: str,
    line: int,
    path,
) -> float:
    if value in positive:
        return 1.0
    if legal is not None and value not in legal:
        raise DataError(f"{path}:{line}: unmappable value {value!r} in column {column!r}")
    return -1.0


def load_csv_report(path: str | Path, schema: CsvSchema) -> tuple[Dataset, LoadReport]:
    """Load and encode a headered CSV; also return the load accounting.

    One pass encodes each kept row as the reader yields it: numeric
    cells become float64 array entries, categorical cells integer codes
    in first-appearance order, label and sensitive cells +-1.  The
    feature matrix is allocated once after the pass, so the loader never
    holds the table as Python strings -- only the reader's current row,
    one float64 or int64 per used cell and the level dictionaries.

    Errors name ``path:line`` with the physical line a record starts on.
    Row-level errors (ragged row, unmappable label or sensitive value)
    come in file order, then "no usable rows", then the first
    non-numeric value of the first such column in schema order.
    """
    path = Path(path)
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        indices: list[int] = []
        for column in schema.used_columns:
            if column not in header:
                raise DataError(f"{path}: required column {column!r} is missing")
            if header.count(column) > 1:
                raise DataError(f"{path}: column {column!r} appears more than once in the header")
            indices.append(header.index(column))
        used_cells = itemgetter(*indices)
        width = len(header)
        missing_values = schema.missing_values
        # per feature: an array of values, or a level-to-code dict and an array of codes
        encoded = [
            array("d") if kind == KIND_NUMERIC else ({}, array("q"))
            for _, kind in schema.features
        ]
        numeric = [(j, column) for j, column in enumerate(encoded) if isinstance(column, array)]
        categorical = [(j, *column) for j, column in enumerate(encoded) if isinstance(column, tuple)]
        failures: dict[int, ValueError] = {}
        labels = array("d")
        sensitive = array("d")
        rows_read = 0
        rows_dropped = 0
        next_line = reader.line_num + 1
        for row in reader:
            line, next_line = next_line, reader.line_num + 1
            if len(row) != width:
                if not "".join(row).strip():
                    continue
                raise DataError(f"{path}:{line}: expected {width} cells, got {len(row)}")
            cells = list(map(str.strip, used_cells(row)))
            if not any(cells) and not "".join(row).strip():
                continue
            rows_read += 1
            if not missing_values.isdisjoint(cells):
                rows_dropped += 1
                continue
            labels.append(
                _map_sign(
                    cells[-2],
                    schema.label_positive,
                    schema.label_values,
                    schema.label_column,
                    line,
                    path,
                )
            )
            sensitive.append(
                _map_sign(
                    cells[-1],
                    schema.sensitive_positive,
                    schema.sensitive_values,
                    schema.sensitive_column,
                    line,
                    path,
                )
            )
            for j, values in numeric:
                try:
                    values.append(float(cells[j]))
                except ValueError as exc:
                    failures.setdefault(j, exc)
            for j, seen, codes in categorical:
                codes.append(seen.setdefault(cells[j], len(seen)))
    n = len(labels)
    if not n:
        raise DegenerateDataError(f"{path}: no usable rows after cleaning")
    if failures:
        j = min(failures)
        name = schema.features[j][0]
        raise DataError(
            f"{path}: column {name!r} has a non-numeric value: {failures[j]}"
        ) from failures[j]

    levels: dict[str, tuple[str, ...]] = {}
    feature_width = len(numeric) + sum(len(seen) for _, seen, _ in categorical)
    features = np.zeros((n, feature_width))
    rows = np.arange(n)
    start = 0
    for (name, kind), column in zip(schema.features, encoded):
        if kind == KIND_NUMERIC:
            features[:, start] = np.frombuffer(column)
            start += 1
        else:
            seen, codes = column
            features[rows, start + np.frombuffer(codes, dtype=np.int64)] = 1.0
            levels[name] = tuple(seen)
            start += len(seen)
    dataset = Dataset(
        features=features, labels=np.frombuffer(labels), sensitive=np.frombuffer(sensitive)
    )
    report = LoadReport(
        rows_read=rows_read,
        rows_dropped=rows_dropped,
        feature_width=feature_width,
        categorical_levels=levels,
    )
    log.info(
        "loaded %s: %d rows read, %d dropped, feature width %d",
        path,
        rows_read,
        rows_dropped,
        feature_width,
    )
    return dataset, report


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
    radius_cap: float
    label_magnitude: float

    def __post_init__(self) -> None:
        shift = np.array(self.shift, dtype=float)
        scale = np.array(self.scale, dtype=float)
        if shift.ndim != 1 or shift.shape != scale.shape:
            raise ValidationError("shift and scale must be matching vectors")
        if not (np.all(np.isfinite(shift)) and np.all(np.isfinite(scale))):
            raise ValidationError("shift and scale must be finite")
        if not np.all(scale > 0):
            raise ValidationError("scale entries must be positive")
        for name in ("global_scale", "radius_cap", "label_magnitude"):
            value = float(getattr(self, name))
            if not (np.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)
        shift.setflags(write=False)
        scale.setflags(write=False)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "scale", scale)


def _check_c(c: float) -> float:
    c = float(c)
    if not (np.isfinite(c) and 0.0 < c < 1.0):
        raise ValidationError(f"label magnitude C must lie in (0, 1), got {c}")
    return c


def fit_dp_transform(train: Dataset, c: float = 0.5) -> DpTransform:
    """Fit the norm-bounding map on the training split's statistics."""
    c = _check_c(c)
    shift = train.features.mean(axis=0)
    scale = train.features.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    standardized = (train.features - shift) / scale
    max_norm = float(np.sqrt((standardized**2).sum(axis=1).max()))
    radius_cap = float(np.sqrt(1.0 - c * c))
    global_scale = radius_cap / max_norm if max_norm > 0 else 1.0
    return DpTransform(
        shift=shift,
        scale=scale,
        global_scale=global_scale,
        radius_cap=radius_cap,
        label_magnitude=c,
    )


def apply_dp_transform(transform: DpTransform, dataset: Dataset) -> Dataset:
    """Map any split through a train-fitted transform.

    Rows that land beyond the radius cap (possible only for rows the
    transform was not fitted on) are radially clipped and counted in
    the log.
    """

    z = (dataset.features - transform.shift) / transform.scale * transform.global_scale
    norms = np.sqrt((z**2).sum(axis=1))
    over = norms > transform.radius_cap
    if np.any(over):
        log.info("radially clipped %d held-out rows to the norm cap", int(over.sum()))
        z[over] *= (transform.radius_cap / norms[over])[:, None]
    labels = np.sign(dataset.labels) * transform.label_magnitude
    return Dataset(
        features=z,
        labels=labels,
        sensitive=dataset.sensitive,
        label_scale=transform.label_magnitude,
    )


@dataclass(frozen=True)
class SplitPlan:
    """Repeated 70:20:10 partitions driven by one master seed."""

    ratios: tuple[float, float, float] = (0.70, 0.20, 0.10)
    n_repeats: int = 20
    master_seed: int = 0

    def __post_init__(self) -> None:
        ratios = tuple(float(r) for r in self.ratios)
        if len(ratios) != 3 or any(r <= 0 for r in ratios):
            raise ValidationError("ratios must be three positive fractions")
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ValidationError(f"ratios must sum to 1, got {sum(ratios)}")
        object.__setattr__(self, "ratios", ratios)
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
    n_train = int(round(plan.ratios[0] * n))
    n_val = int(round(plan.ratios[1] * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise DegenerateDataError(
            f"n={n} is too small for a {plan.ratios} split: sizes "
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


def load_prepared(in_dir: str | Path) -> PreparedData:
    """Read a prepared-dataset directory back into memory."""
    root = Path(in_dir)
    try:
        features = np.load(root / "features.npy")
        labels = np.load(root / "labels.npy")
        sensitive = np.load(root / "sensitive.npy")
        split_files = split_paths(root)
        role_rows = [np.load(path) for path in split_files]
        meta = {k: v for k, v in read_kv(root / "meta.kv").items()}
    except OSError as exc:
        raise DataError(f"cannot read prepared directory {root}: {exc}") from exc
    if not role_rows:
        raise DataError(f"{root}: no split_NN.npy files found")
    label_scale = float(meta.pop("label_scale", "1.0"))
    dataset = Dataset(
        features=features, labels=labels, sensitive=sensitive, label_scale=label_scale
    )
    splits = []
    for path, row in zip(split_files, role_rows):
        if row.shape != (dataset.n,):
            raise DataError(f"{path}: role vector shape {row.shape} does not match the data")
        splits.append(
            (
                np.flatnonzero(row == _ROLE_TRAIN),
                np.flatnonzero(row == _ROLE_VAL),
                np.flatnonzero(row == _ROLE_TEST),
            )
        )
    return PreparedData(dataset=dataset, splits=splits, meta=meta)
