"""Grid-sweep experiment engine over (lam, c, c_bar) with split repeats.

For each split: preprocess with the train-fitted norm-bounding
transform, fit the two estimators once, privatize the sensitive-
attribute estimator once (when a finite privacy budget is given), and
then walk the whole parameter grid -- each grid point is pure
post-processing of the same fitted pair, so the sweep consumes exactly
one noise draw per split no matter how large the grid is.

The walk goes one lam slice at a time.  The estimator outputs on the
test split (:func:`fairplug.plugin.coordinates`), the estimated prior
and the group cells are computed and checked once per split.  Each
slice is an ``(n_c * n_c_bar, n_test)`` boolean array of predictions,
one row per cost point, filled by one unchecked
:func:`fairplug.plugin.setting_score` call per grid point; a slice
holds ``n_c * n_c_bar * n_test`` booleans (81 * 4,500 bytes, 0.36 MB,
on the default grid with a 4,500-row test split), and the full
``n_lam * n_c * n_c_bar * n_test`` array is never built.  From each
slice the sweep takes integer counts: true positives, true negatives
and predicted positives in the two fairness cells.

The result is one :class:`SweepTable` of equal-length columns, one row
per (split, grid point): ``split_id``, ``lam``, ``c``, ``c_bar`` and the
eight int64 :data:`COUNT_COLUMNS`, the four counts above and the split's
totals they are out of.  Balanced accuracy ``0.5 * (tp / n_pos + tn /
n_neg)``, the violation ``|pos_a / n_a - pos_b / n_b|`` and the
degenerate flag (an empty label class or cell: zero counts, NaN
metrics) are derived from the counts.  Ranges are checked over all rows
at once where a table enters: :func:`run_sweep`'s return and
:func:`read_records_csv`.  ``records.csv`` has 15 columns, ``split_id,
lambda, c, c_bar, bal_acc, violation, flags`` and then the counts; the
reader rejects the older seven-column header and any row whose metric
or flag text differs from what its counts give.

Each split's rows reduce to a lower envelope, the minimum violation per
balanced-accuracy bin of width 2.5% from 50%, binned exactly from the
counts in integers.  The trade-off curve is the envelopes' mean and
population standard deviation across splits, bin by bin.

The preprocessing runs regardless of the budget so private and
non-private sweeps see identical inputs and differ only in the noise.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from ._pool import map_tasks
from .core import FairnessParams
from .cpe import FitConfig
from .data import PreparedData, apply_dp_transform, fit_dp_transform
from .errors import DataError, ValidationError
from .kvformat import format_float
from .plugin import (
    DPAR_BLIND,
    EO_BLIND,
    SETTINGS,
    coordinates,
    fit_plugin,
    is_aware,
    is_eo,
    setting_score,
)
from .privacy import dp_plugin_pipeline

# Imported but not called here: perfbench's tracer wraps these names at
# ``fairplug.sweep.<name>``.
from .cpe import predict_proba  # noqa: F401
from .plugin import score_dpar_aware  # noqa: F401
from .plugin import score_dpar_blind  # noqa: F401
from .plugin import score_eo_aware  # noqa: F401
from .plugin import score_eo_blind  # noqa: F401

__all__ = [
    "GridRange",
    "SweepGrid",
    "SweepTable",
    "BinStat",
    "TradeoffCurve",
    "COUNT_COLUMNS",
    "FLAG_DEGENERATE",
    "default_grid",
    "run_sweep",
    "bin_min_violation",
    "aggregate_curves",
    "tradeoff_curve",
    "write_records_csv",
    "read_records_csv",
    "write_tradeoff_csv",
]

log = logging.getLogger("fairplug.sweep")

FLAG_DEGENERATE = "degenerate-test-cell"

DEFAULT_BIN_WIDTH = 0.025


@dataclass(frozen=True)
class GridRange:
    """Inclusive arithmetic range; the step must tile it exactly."""

    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        start, stop, step = (float(self.start), float(self.stop), float(self.step))
        if not all(np.isfinite(v) for v in (start, stop, step)):
            raise ValidationError("range endpoints and step must be finite")
        if step <= 0:
            raise ValidationError(f"step must be positive, got {step}")
        if stop < start:
            raise ValidationError(f"stop {stop} must not precede start {start}")
        count = (stop - start) / step
        if abs(count - round(count)) > 1e-6:
            raise ValidationError(
                f"step {step} does not tile [{start}, {stop}] to an inclusive grid"
            )
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "step", step)

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, int(round((self.stop - self.start) / self.step)) + 1)


@dataclass(frozen=True)
class SweepGrid:
    """The three parameter ranges traversed per split."""

    lam: GridRange = GridRange(-10.0, 10.0, 0.5)
    c: GridRange = GridRange(0.1, 0.9, 0.1)
    c_bar: GridRange = GridRange(0.1, 0.9, 0.1)

    @property
    def cardinality(self) -> int:
        return self.lam.values().size * self.c.values().size * self.c_bar.values().size


def default_grid() -> SweepGrid:
    """The protocol grid: 41 fairness strengths x 9 x 9 costs = 3321 points."""
    return SweepGrid()


#: Per grid point: true positives, true negatives and predicted positives
#: in the two fairness cells; then the split's totals they are out of.
COUNT_COLUMNS = ("tp", "tn", "pos_a", "pos_b", "n_pos", "n_neg", "n_a", "n_b")


def _ratio(numerator: np.ndarray, denominator: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``numerator / denominator`` where ``ok`` and NaN elsewhere, with no 0/0."""
    return np.divide(numerator, denominator, out=np.full(numerator.shape, np.nan), where=ok)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Sweep results as equal-length columns, one row per (split, grid point).

    ``split_id`` and the counts are int64, the grid coordinates float64;
    rows are grouped by split.
    """

    split_id: np.ndarray
    lam: np.ndarray
    c: np.ndarray
    c_bar: np.ndarray
    tp: np.ndarray
    tn: np.ndarray
    pos_a: np.ndarray
    pos_b: np.ndarray
    n_pos: np.ndarray
    n_neg: np.ndarray
    n_a: np.ndarray
    n_b: np.ndarray

    def __len__(self) -> int:
        return self.split_id.size

    @property
    def degenerate(self) -> np.ndarray:
        """Rows whose split has an empty label class or fairness cell."""
        return np.minimum.reduce([self.n_pos, self.n_neg, self.n_a, self.n_b]) == 0

    @property
    def bal_acc(self) -> np.ndarray:
        ok = ~self.degenerate
        return 0.5 * (_ratio(self.tp, self.n_pos, ok) + _ratio(self.tn, self.n_neg, ok))

    @property
    def violation(self) -> np.ndarray:
        ok = ~self.degenerate
        return np.abs(_ratio(self.pos_a, self.n_a, ok) - _ratio(self.pos_b, self.n_b, ok))

    def splits(self) -> list[SweepTable]:
        """One table per split, in row order."""
        starts = (np.flatnonzero(np.diff(self.split_id)) + 1).tolist()
        return [
            SweepTable(**{f.name: getattr(self, f.name)[a:b] for f in fields(self)})
            for a, b in zip([0, *starts], [*starts, len(self)])
        ]


def _check_table(table: SweepTable, source: str) -> None:
    """Counts within their totals and zero on degenerate rows, splits in order."""
    counts = np.stack([getattr(table, name) for name in COUNT_COLUMNS])
    hits, totals = counts[:4], counts[4:]
    step = np.diff(table.split_id)
    bad = (table.split_id < 0) | (counts < 0).any(axis=0) | (hits > totals).any(axis=0)
    bad |= table.degenerate & hits.any(axis=0)
    bad[1:] |= (step < 0) | ((step == 0) & np.diff(totals, axis=1).any(axis=0))
    if bad.any():
        raise DataError(f"{source}: record {int(np.argmax(bad))}: counts or split id out of range")


@dataclass(frozen=True)
class BinStat:
    bin_low: float
    mean: float
    std: float
    n_splits: int


@dataclass(frozen=True)
class TradeoffCurve:
    """Present bins only, each aligned to the 0.50 + k * width lattice."""

    bins: tuple[BinStat, ...]
    bin_width: float = DEFAULT_BIN_WIDTH

    def __post_init__(self) -> None:
        width = float(self.bin_width)
        if not (0.0 < width <= 0.5):
            raise ValidationError(f"bin_width must lie in (0, 0.5], got {width}")
        previous = -1.0
        for stat in self.bins:
            offset = (stat.bin_low - 0.5) / width
            if abs(offset - round(offset)) > 1e-9 or stat.bin_low < 0.5 - 1e-9:
                raise ValidationError(f"bin_low {stat.bin_low} is off the bin lattice")
            if stat.bin_low <= previous:
                raise ValidationError("bins must be sorted strictly increasing")
            previous = stat.bin_low
        object.__setattr__(self, "bin_width", width)


def _run_split(dataset, axes, setting, eps_p, config, seed, dp_c, task) -> np.ndarray:
    """One split's :data:`COUNT_COLUMNS`, an (8, grid points) int64 array."""
    split_id, (train_idx, _val_idx, test_idx) = task
    lam_values, c_values, c_bar_values = axes
    pipeline_seed = int(np.random.SeedSequence((seed, split_id)).generate_state(1)[0])
    train_raw = dataset.subset(train_idx)
    test_raw = dataset.subset(test_idx)
    transform = fit_dp_transform(train_raw, dp_c)
    train = apply_dp_transform(transform, train_raw)
    test = apply_dp_transform(transform, test_raw)
    base_params = FairnessParams(lam=0.0, c=0.5, c_bar=0.5)
    if math.isfinite(eps_p):
        rule_base = dp_plugin_pipeline(train, setting, base_params, config, eps_p, pipeline_seed)
    else:
        rule_base = fit_plugin(train, setting, base_params, config)

    label_pos = test.labels > 0
    label_neg = ~label_pos
    group_pos = test.sensitive > 0
    if is_eo(setting):
        cells = (label_pos & ~group_pos, label_pos & group_pos)
    else:
        cells = (~group_pos, group_pos)
    n_pos = int(np.count_nonzero(label_pos))
    n_neg = test.n - n_pos
    n_a, n_b = (int(np.count_nonzero(cell)) for cell in cells)
    # One row of a slice per (c, c_bar) point, c_bar varying fastest.
    points = [(c, c_bar) for c in c_values.tolist() for c_bar in c_bar_values.tolist()]
    counts = np.zeros((len(COUNT_COLUMNS), lam_values.size, len(points)), dtype=np.int64)
    counts[4:] = np.array([n_pos, n_neg, n_a, n_b]).reshape(4, 1, 1)
    if min(n_pos, n_neg, n_a, n_b) == 0:
        log.warning("split %d: degenerate test cell; flagging every grid point", split_id)
        return counts.reshape(len(COUNT_COLUMNS), -1)

    groups = test.sensitive if is_aware(setting) else None
    first, second = coordinates(rule_base, test.features, groups)
    pred_pos = np.empty((len(points), test.n), dtype=bool)
    for slice_id, lam in enumerate(lam_values):
        for row, (c, c_bar) in enumerate(points):
            scores = setting_score(setting, first, second, rule_base.pi_hat, lam, c, c_bar)
            np.greater(scores, 0.0, out=pred_pos[row])
        counts[:4, slice_id] = (
            np.count_nonzero(pred_pos & label_pos, axis=1),
            n_neg - np.count_nonzero(pred_pos & label_neg, axis=1),
            *(np.count_nonzero(pred_pos & cell, axis=1) for cell in cells),
        )
    return counts.reshape(len(COUNT_COLUMNS), -1)


def run_sweep(
    prepared: PreparedData,
    grid: SweepGrid,
    setting: str,
    eps_p: float,
    cpe_config: FitConfig,
    seed: int,
    *,
    dp_norm_c: float = 0.5,
    jobs: int = 1,
) -> SweepTable:
    """Traverse the grid on every split of a prepared dataset.

    ``eps_p`` is the per-split privacy budget; pass ``math.inf`` for a
    non-private sweep (the preprocessing still runs, so results stay
    comparable across budgets).  Finite budgets are limited to the
    blind settings.  Rows come back in canonical (split, lam, c, c_bar)
    order, bit-identical for a fixed seed.
    """

    if setting not in SETTINGS:
        raise ValidationError(f"unknown setting {setting!r}")
    eps_p = float(eps_p)
    if math.isnan(eps_p) or eps_p <= 0.0:
        raise ValidationError(f"eps_p must be positive (math.inf disables privacy), got {eps_p}")
    if math.isfinite(eps_p) and setting not in (EO_BLIND, DPAR_BLIND):
        raise ValidationError(
            f"a finite privacy budget supports the blind settings only, got {setting!r}"
        )
    if not isinstance(cpe_config, FitConfig):
        raise ValidationError("cpe_config must be a FitConfig")
    axes = (grid.lam.values(), grid.c.values(), grid.c_bar.values())
    # Each range is sorted, so its two ends bound every grid point.
    for end in (0, -1):
        FairnessParams(*(values[end] for values in axes))
    run = partial(
        _run_split, prepared.dataset, axes, setting, eps_p, cpe_config, int(seed), float(dp_norm_c)
    )
    per_split = map_tasks(run, list(enumerate(prepared.splits)), jobs)
    table = SweepTable(
        np.repeat(np.arange(len(per_split), dtype=np.int64), grid.cardinality),
        *(np.tile(axis.ravel(), len(per_split)) for axis in np.meshgrid(*axes, indexing="ij")),
        *np.concatenate([np.empty((len(COUNT_COLUMNS), 0), dtype=np.int64), *per_split], axis=1),
    )
    _check_table(table, "run_sweep")
    return table


def _bin_count(bin_width: float) -> int:
    count = 0.5 / bin_width
    if abs(count - round(count)) > 1e-9:
        raise ValidationError(f"bin width {bin_width} does not tile [0.5, 1.0]")
    return int(round(count))


def bin_min_violation(
    table: SweepTable, bin_width: float = DEFAULT_BIN_WIDTH
) -> dict[float, float]:
    """Per-bin minimum violation over one split's rows (lower envelope).

    Bin k is [0.5 + k*w, 0.5 + (k+1)*w), left-closed, and the top bin
    also takes 1.0.  It is found from the counts in integers: with
    ``A = n_pos*n_neg`` and ``N = tp*n_neg + tn*n_pos - A``, the balanced
    accuracy is ``0.5 + N/(2A)``, so ``k = min(n_bins*N // A, n_bins - 1)``,
    exact on every edge.  Rows below 0.5 balanced accuracy (``N < 0``) or
    flagged degenerate contribute nowhere.  Returns only the nonempty
    bins, keyed by bin_low.
    """

    n_bins = _bin_count(bin_width)
    area = table.n_pos * table.n_neg
    if n_bins * int(area.max(initial=0)) >= 2**63:
        raise ValidationError(f"counts are too large to bin in int64 at width {bin_width}")
    numerator = table.tp * table.n_neg + table.tn * table.n_pos - area
    kept = ~table.degenerate & (numerator >= 0)
    index = np.minimum(n_bins * numerator[kept] // area[kept], n_bins - 1)
    envelope = np.full(n_bins, np.inf)
    np.minimum.at(envelope, index, table.violation[kept])
    present = np.flatnonzero(np.bincount(index, minlength=n_bins)).tolist()
    return {0.5 + k * bin_width: float(envelope[k]) for k in present}


def aggregate_curves(
    per_split_curves: list[dict[float, float]], bin_width: float = DEFAULT_BIN_WIDTH
) -> TradeoffCurve:
    """Mean and population std of the per-split minima, bin by bin.

    A bin appears in the output when at least one split has it; its
    statistics run over exactly the splits contributing to it.
    """

    _bin_count(bin_width)
    all_bins = sorted({bin_low for curve in per_split_curves for bin_low in curve})
    stats = []
    for bin_low in all_bins:
        values = np.array([curve[bin_low] for curve in per_split_curves if bin_low in curve])
        stats.append(
            BinStat(
                bin_low=bin_low,
                mean=float(values.mean()),
                std=float(values.std(ddof=0)),
                n_splits=values.size,
            )
        )
    return TradeoffCurve(bins=tuple(stats), bin_width=bin_width)


def tradeoff_curve(table: SweepTable, bin_width: float = DEFAULT_BIN_WIDTH) -> TradeoffCurve:
    """Each split's lower envelope, aggregated across splits."""
    per_split = [bin_min_violation(part, bin_width) for part in table.splits()]
    return aggregate_curves(per_split, bin_width)


_RECORD_HEADER = (
    "split_id", "lambda", "c", "c_bar", "bal_acc", "violation", "flags", *COUNT_COLUMNS
)
_FLOAT_COLUMNS = ("lam", "c", "c_bar", "bal_acc", "violation")
# A flags field longer than the width is cut to the full width, so it can
# never be read as the shorter degenerate flag.
_RECORD_DTYPE = np.dtype(
    [("split_id", np.int64)]
    + [(name, np.float64) for name in _FLOAT_COLUMNS]
    + [("flags", "S32")]
    + [(name, np.int64) for name in COUNT_COLUMNS]
)


def _column_text(values: np.ndarray, fmt) -> list[str]:
    """``[fmt(v) for v in values]``, calling ``fmt`` once per distinct bit pattern."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([fmt(v) for v in distinct.view(values.dtype).tolist()], dtype=object)
    return text[inverse].tolist()


def write_records_csv(table: SweepTable, path: str | Path) -> None:
    """Write the 15-column records file, one split at a time, column by column."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(_RECORD_HEADER) + "\r\n")
        for part in table.splits():
            flags = np.where(part.degenerate, FLAG_DEGENERATE, "").tolist()
            columns = [
                _column_text(part.split_id, str),
                *(_column_text(getattr(part, name), format_float) for name in _FLOAT_COLUMNS),
                flags,
                *(_column_text(getattr(part, name), str) for name in COUNT_COLUMNS),
            ]
            handle.writelines(",".join(row) + "\r\n" for row in zip(*columns))


def read_records_csv(path: str | Path) -> SweepTable:
    """Inverse of :func:`write_records_csv`; rejects the old seven-column
    header and rows whose metric or flag text differs from their counts."""

    with open(path) as handle:
        header = tuple(handle.readline().rstrip("\n").split(","))
        if header == _RECORD_HEADER[:7]:
            raise DataError(f"{path}: seven-column records file without the counts; sweep again")
        if header != _RECORD_HEADER:
            raise DataError(f"{path}: unexpected records header {list(header)}")
        body = handle.tell()
        if not handle.read(1):
            raise DataError(f"{path} holds no sweep records")
        handle.seek(body)
        try:
            rows = np.loadtxt(handle, dtype=_RECORD_DTYPE, delimiter=",", ndmin=1)
        except ValueError as exc:
            raise DataError(f"{path}: malformed record row: {exc}") from exc
    table = SweepTable(*(rows[name] for name in ("split_id", "lam", "c", "c_bar", *COUNT_COLUMNS)))
    _check_table(table, str(path))
    degenerate = table.degenerate
    bad = rows["flags"] != np.where(degenerate, FLAG_DEGENERATE.encode(), b"")
    for name in ("bal_acc", "violation"):
        text, derived = rows[name], getattr(table, name)
        bad |= np.where(degenerate, ~np.isnan(text), text.view(np.int64) != derived.view(np.int64))
    if bad.any():
        message = "bal_acc, violation or flags disagrees with the counts"
        raise DataError(f"{path}: record {int(np.argmax(bad))}: {message}")
    return table


def write_tradeoff_csv(curve: TradeoffCurve, path: str | Path) -> None:
    """Write the aggregated curve: bin_low, mean, std, n."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin_low", "mean", "std", "n"])
        for stat in curve.bins:
            writer.writerow(
                [
                    format_float(stat.bin_low),
                    format_float(stat.mean),
                    format_float(stat.std),
                    stat.n_splits,
                ]
            )
