"""Grid-sweep experiment engine over (lam, c, c_bar) with split repeats.

For each split: preprocess with the train-fitted norm-bounding
transform, fit the two estimators once, privatize the sensitive-
attribute estimator once (when a finite privacy budget is given), and
then walk the whole parameter grid -- each grid point is pure
post-processing of the same fitted pair, so the sweep consumes exactly
one noise draw per split no matter how large the grid is.

The estimator outputs on the test split
(:func:`fairplug.plugin.coordinates`), the estimated prior and the group
cells are computed and checked once per split.  Every prediction is
``setting_score(...) > 0`` at one grid point and one row, and every
setting counts its grid from one layout: the test rows are sorted once
into four contiguous (label, group) blocks, by ``eta`` within a block.
The score is elementwise in the row, so the order moves no prediction.
Each grid point's predicted positives are taken per block, and the four
counts are sums of those block counts: the label blocks give the true
positives and true negatives, and the sensitive blocks (restricted to
Y = +1 for equal opportunity) the predicted positives in the two
fairness cells -- the counts the :mod:`fairplug.metrics` counters give
on the same predictions.  The block counts come from one of two paths:

* Blind settings walk the grid one lam slice at a time.  A slice is an
  ``(n_c * n_c_bar, n_test)`` float buffer of scores, one row per cost
  point, filled by one unchecked :func:`fairplug.plugin.setting_score`
  call per grid point and compared with 0 once; a slice holds 81 *
  4,500 doubles (2.9 MB) on the default grid with a 4,500-row test
  split, and the full grid-by-rows array is never built.  One integer
  ``np.add.reduceat`` pass per slice counts the blocks.
* Aware settings bisect every grid point in every block at once.  A
  block lies in one sensitive group, where the score is a fixed chain of
  IEEE operations on ``eta`` -- ``fl(fl(coef * eta) - c)`` for eo-aware,
  ``fl(fl(fl(eta - c) + lam c_bar) - lam 1{ybar = +1})`` for dpar-aware
  -- and each operation is monotone, so ``score > 0`` never turns false
  as ``eta`` grows.  Where the eo-aware group coefficient is <= 0,
  ``fl(coef * eta) <= 0 < c`` and no row is positive, which the same
  bisection finds.  So each grid point's positives in a block are the
  sorted rows from one boundary index on.  Each bisection round scores
  all grid points in all blocks with one
  :func:`~fairplug.plugin.setting_score` call at their midpoint rows,
  about ``log2(n_block)`` calls instead of one call on every row per
  grid point.

The result is one :class:`SweepTable` of equal-length columns, one row
per (split, grid point): ``split_id``, ``lam``, ``c``, ``c_bar`` and the
eight int64 :data:`COUNT_COLUMNS`, the four counts above and the split's
totals they are out of.  Balanced accuracy ``0.5 * (tp / n_pos + tn /
n_neg)`` and the violation ``|pos_a / n_a - pos_b / n_b|`` are the same
:class:`~fairplug.metrics.Counts` rates read back from the columns; a
split with an empty label class or cell is flagged degenerate, with zero
counts and NaN metrics.  A table holds each record once:
:func:`run_sweep` copies each split's counts into the table's
preallocated columns and drops that split's result, with no concatenated
copy, and :func:`read_records_csv` parses ``records.csv`` a fixed chunk
of lines at a time into the preallocated columns, so the reader's only
temporaries are one chunk's.  Ranges are checked where a table enters,
column by column over all its rows with row-sized booleans only.
``records.csv`` has 15 columns, ``split_id,
lambda, c, c_bar, bal_acc, violation, flags`` and then the counts; the
reader rejects the older seven-column header and any row whose metric
or flag text differs from what its counts give, checked chunk by chunk.

Each split's rows reduce to a lower envelope, the minimum violation per
balanced-accuracy bin of width 2.5% from 50%, binned exactly from the
counts in integers.  The trade-off curve is the envelopes' mean and
population standard deviation across splits, bin by bin.

The preprocessing runs regardless of the budget so private and
non-private sweeps see identical inputs and differ only in the noise.

``eps_p`` is a per-split budget.  A private sweep releases one
privatized sensitive-attribute estimator per split, so a row that lies
in the training sets of k splits is covered, by basic composition, at
k * eps_p.  The ``pos_a``, ``pos_b``, ``n_a`` and ``n_b`` counts, and the
violation read from them, come from the test split's raw sensitive
column and are not protected by the privacy guarantee.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import re
import warnings
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from ._pool import map_tasks
from .core import FairnessParams
from .cpe import FitConfig
from .data import PreparedData, _undecodable, apply_dp_transform, fit_dp_transform
from .errors import DataError, ValidationError
from .kvformat import format_float
from .metrics import Counts, violation
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
from .privacy import _add_worker_draws, dp_plugin_pipeline, noise_draw_count

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
        return (self.n_pos == 0) | (self.n_neg == 0) | (self.n_a == 0) | (self.n_b == 0)

    @property
    def bal_acc(self) -> np.ndarray:
        label = Counts(self.tp, self.n_neg - self.tn, self.n_pos, self.n_neg)
        return np.where(self.degenerate, np.nan, 0.5 * (label.tpr + label.tnr))

    @property
    def violation(self) -> np.ndarray:
        group = Counts(self.pos_b, self.pos_a, self.n_b, self.n_a)
        return np.where(self.degenerate, np.nan, violation(group))

    def splits(self) -> list[SweepTable]:
        """One table per split, in row order."""
        starts = (np.flatnonzero(np.diff(self.split_id)) + 1).tolist()
        return [
            SweepTable(**{f.name: getattr(self, f.name)[a:b] for f in fields(self)})
            for a, b in zip([0, *starts], [*starts, len(self)])
        ]


def _check_table(table: SweepTable, source: str) -> None:
    """Counts within their totals and zero on degenerate rows, splits in order.

    One column at a time, so the check holds row-sized booleans only.
    ``0 <= hit <= total`` also keeps every total nonnegative.
    """
    split_id = table.split_id
    bad = split_id < 0
    degenerate = table.degenerate
    for hit_name, total_name in zip(COUNT_COLUMNS[:4], COUNT_COLUMNS[4:]):
        hit, total = getattr(table, hit_name), getattr(table, total_name)
        bad |= (hit < 0) | (hit > total) | (degenerate & (hit != 0))
    # A split's rows are contiguous, in increasing split order, with one set of totals.
    same = split_id[1:] == split_id[:-1]
    bad[1:] |= split_id[1:] < split_id[:-1]
    for name in COUNT_COLUMNS[4:]:
        total = getattr(table, name)
        bad[1:] |= same & (total[1:] != total[:-1])
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


def _slice_positives(setting, first, second, pi, axes, edges):
    """Blind settings: predicted positives ``(grid points, 4)`` per block, one lam slice at a time.

    ``np.add.reduceat`` gives the element at an index, not 0, for an
    empty range, so only the nonempty blocks are reduced and an empty
    block counts 0.
    """

    lam_values, c_values, c_bar_values = axes
    nonempty = np.flatnonzero(np.diff(edges))
    # One row of a slice per (c, c_bar) point, c_bar varying fastest.
    points = [(c, c_bar) for c in c_values.tolist() for c_bar in c_bar_values.tolist()]
    scores = np.empty((len(points), first.size))
    positive = np.empty(scores.shape, dtype=bool)
    cells = np.zeros((lam_values.size, len(points), 4), dtype=np.int64)
    for slice_id, lam in enumerate(lam_values.tolist()):
        for row, (c, c_bar) in enumerate(points):
            scores[row] = setting_score(setting, first, second, pi, lam, c, c_bar)
        np.greater(scores, 0.0, out=positive)
        cells[slice_id][:, nonempty] = np.add.reduceat(
            positive, edges[nonempty], axis=1, dtype=np.int64
        )
    return cells.reshape(-1, 4)


def _bisect_positives(setting, first, second, pi, axes, edges):
    """Aware settings: predicted positives ``(grid points, 4)`` per block, by bisection.

    ``score > 0`` is monotone in ``eta`` within a block (see the module
    docstring), so a grid point predicts +1 on exactly the block's rows
    from its boundary index on.  Rows below ``lo`` score <= 0 and rows
    from ``hi`` on score > 0; once ``lo == hi`` a round leaves both
    unchanged, so an empty block stays at 0 whatever row its midpoint
    reads.
    """

    lam, c, c_bar = (axis.reshape(-1, 1) for axis in np.meshgrid(*axes, indexing="ij"))
    start, sizes = edges[:-1], np.diff(edges)
    lo = np.zeros((lam.size, 4), dtype=np.int64)
    hi = np.broadcast_to(sizes, lo.shape)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        rows = np.minimum(start + mid, first.size - 1)
        positive = setting_score(setting, first[rows], second[rows], pi, lam, c, c_bar) > 0.0
        hi = np.where(positive, mid, hi)
        lo = np.where(positive, lo, np.minimum(mid + 1, hi))
    return sizes - lo


def _count_grid(setting, first, second, pi, axes, label_pos, group_pos):
    """Hit counts ``(4, grid points)`` and the four totals of ``setting_score(...) > 0``.

    ``first, second`` are the test rows' :func:`coordinates`; see the
    module docstring for the block layout.
    """

    block = 2 * label_pos + group_pos  # (label, group): (-,-) 0, (-,+) 1, (+,-) 2, (+,+) 3
    order = np.lexsort((first, block))
    edges = np.searchsorted(block[order], np.arange(5))
    count = _bisect_positives if is_aware(setting) else _slice_positives
    positives = count(setting, first[order], second[order], pi, axes, edges)
    # Per block, named by label then group (a: -1, b: +1): predicted positives and rows.
    hit_neg_a, hit_neg_b, hit_pos_a, hit_pos_b = positives.T
    neg_a, neg_b, pos_a, pos_b = np.diff(edges).tolist()
    hits = [hit_pos_a + hit_pos_b, neg_a + neg_b - hit_neg_a - hit_neg_b]
    if is_eo(setting):
        # An EO cell holds the Y = +1 rows of its group.
        hits += [hit_pos_a, hit_pos_b]
        cell_sizes = (pos_a, pos_b)
    else:
        hits += [hit_neg_a + hit_pos_a, hit_neg_b + hit_pos_b]
        cell_sizes = (neg_a + pos_a, neg_b + pos_b)
    return np.stack(hits), (pos_a + pos_b, neg_a + neg_b, *cell_sizes)


def _run_split(
    dataset, axes, setting, eps_p, config, seed, dp_c, task
) -> tuple[np.ndarray, int]:
    """One split's :data:`COUNT_COLUMNS` and the noise draws it made.

    The counts are an (8, grid points) int64 array, counted by
    :func:`_count_grid` from ``setting_score(...) > 0`` on every test row.
    """

    split_id, (train_idx, _val_idx, test_idx) = task
    draws = noise_draw_count()
    pipeline_seed = int(np.random.SeedSequence((seed, split_id)).generate_state(1)[0])
    # Rebinding drops the raw subsets before the fits, the split's memory peak.
    train = dataset.subset(train_idx)
    transform = fit_dp_transform(train, dp_c)
    train = apply_dp_transform(transform, train)
    test = apply_dp_transform(transform, dataset.subset(test_idx))
    base_params = FairnessParams(lam=0.0, c=0.5, c_bar=0.5)
    if math.isfinite(eps_p):
        rule_base = dp_plugin_pipeline(train, setting, base_params, config, eps_p, pipeline_seed)
    else:
        rule_base = fit_plugin(train, setting, base_params, config)

    first, second = coordinates(
        rule_base, test.features, test.sensitive if is_aware(setting) else None
    )
    hits, sizes = _count_grid(
        setting, first, second, rule_base.pi_hat, axes, test.labels > 0, test.sensitive > 0
    )
    counts = np.empty((len(COUNT_COLUMNS), hits.shape[1]), dtype=np.int64)
    counts[:4] = hits
    counts[4:] = np.reshape(sizes, (4, 1))
    if min(sizes) == 0:
        log.warning("split %d: degenerate test cell; flagging every grid point", split_id)
        counts[:4] = 0
    return counts, noise_draw_count() - draws


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

    ``eps_p`` is the per-split privacy budget (see the module docstring
    for what a whole sweep releases); pass ``math.inf`` for a
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
    draws = noise_draw_count()
    results = map_tasks(run, list(enumerate(prepared.splits)), jobs)
    n_splits, n_points = len(results), grid.cardinality
    counts = np.empty((len(COUNT_COLUMNS), n_splits * n_points), dtype=np.int64)
    split_draws = 0
    for split_id, (split_counts, split_draw_count) in enumerate(results):
        counts[:, split_id * n_points : (split_id + 1) * n_points] = split_counts
        split_draws += split_draw_count
        results[split_id] = None  # each split's counts are held once, in the table
    # a draw made in a worker process raised only that worker's counter
    _add_worker_draws(split_draws - (noise_draw_count() - draws))
    table = SweepTable(
        np.repeat(np.arange(n_splits, dtype=np.int64), n_points),
        *(np.tile(axis.ravel(), n_splits) for axis in np.meshgrid(*axes, indexing="ij")),
        *counts,
    )
    _check_table(table, "run_sweep")
    return table


def _bin_count(bin_width: float) -> int:
    """How many bins of ``bin_width`` tile [0.5, 1.0]; any other width is rejected."""
    bin_width = float(bin_width)
    if not (math.isfinite(bin_width) and 0.0 < bin_width <= 0.5):
        raise ValidationError(f"bin width must lie in (0, 0.5], got {bin_width}")
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
    bins, keyed by bin_low, and allocates per nonempty bin, so a narrow
    width costs no more memory than a wide one.
    """

    n_bins = _bin_count(bin_width)
    area = table.n_pos * table.n_neg
    if n_bins * int(area.max(initial=0)) >= 2**63:
        raise ValidationError(f"counts are too large to bin in int64 at width {bin_width}")
    numerator = table.tp * table.n_neg + table.tn * table.n_pos - area
    kept = ~table.degenerate & (numerator >= 0)
    index = np.minimum(n_bins * numerator[kept] // area[kept], n_bins - 1)
    # Reduce over the occupied bins only, so memory follows the rows, not 1/width.
    present, slot = np.unique(index, return_inverse=True)
    envelope = np.full(present.size, np.inf)
    np.minimum.at(envelope, slot, table.violation[kept])
    return {0.5 + k * bin_width: v for k, v in zip(present.tolist(), envelope.tolist())}


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
_GRID_COLUMNS = ("lam", "c", "c_bar")
#: Lines of ``records.csv`` parsed per ``np.loadtxt`` call: one chunk's
#: text and 144-byte parsed rows are the reader's only temporaries.
_READ_CHUNK = 2048
_FLOAT_COLUMNS = (*_GRID_COLUMNS, "bal_acc", "violation")
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
    """Write the 15-column records file, one split at a time, column by column.

    The ``lambda,c,c_bar`` text is formatted once and reused for every
    following split whose three grid columns hold the same bits; a sweep's
    splits all share one grid, so the grid is formatted once per table.
    """
    grid_bits = grid_text = None
    with open(path, "w", newline="") as handle:
        handle.write(",".join(_RECORD_HEADER) + "\r\n")
        for part in table.splits():
            bits = [getattr(part, name).view(np.int64) for name in _GRID_COLUMNS]
            if grid_bits is None or not all(map(np.array_equal, bits, grid_bits)):
                grid_bits = bits
                grid_text = [
                    ",".join(point)
                    for point in zip(
                        *(_column_text(getattr(part, name), format_float)
                          for name in _GRID_COLUMNS)
                    )
                ]
            flags = np.where(part.degenerate, FLAG_DEGENERATE, "").tolist()
            columns = [
                _column_text(part.split_id, str),
                grid_text,
                *(_column_text(getattr(part, name), format_float)
                  for name in ("bal_acc", "violation")),
                flags,
                *(_column_text(getattr(part, name), str) for name in COUNT_COLUMNS),
            ]
            handle.writelines(map("{}\r\n".format, map(",".join, zip(*columns))))


def read_records_csv(path: str | Path) -> SweepTable:
    """Inverse of :func:`write_records_csv`; rejects the old seven-column
    header and rows whose metric or flag text differs from their counts.

    The file's lines are counted first and the table's columns allocated
    once.  Then ``np.loadtxt`` parses :data:`_READ_CHUNK` lines at a time,
    each chunk's fields are copied into place, and its ``bal_acc``,
    ``violation`` and ``flags`` text is compared with its counts.  Errors
    keep file-wide positions and this precedence: the first malformed row
    (by its line), then the first row of the whole table whose counts or
    split id are out of range, then the first row whose text disagrees
    (both by their 0-based record index).  A file that is not UTF-8 is a
    :class:`DataError` naming the line of its first bad byte.
    """

    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            return _read_records(handle, path)
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from exc


def _read_records(handle, path: Path) -> SweepTable:
    header = tuple(handle.readline().rstrip("\n").split(","))
    if header == _RECORD_HEADER[:7]:
        raise DataError(f"{path}: seven-column records file without the counts; sweep again")
    if header != _RECORD_HEADER:
        raise DataError(f"{path}: unexpected records header {list(header)}")
    n_lines = _count_lines(path) - 1
    if not n_lines:
        raise DataError(f"{path} holds no sweep records")
    columns = {f.name: np.empty(n_lines, _RECORD_DTYPE[f.name]) for f in fields(SweepTable)}
    filled = 0
    first_line = 2  # the header is line 1
    disagrees = None  # record index of the first row whose text disagrees
    while lines := list(itertools.islice(handle, _READ_CHUNK)):
        try:
            rows = np.loadtxt(lines, dtype=_RECORD_DTYPE, delimiter=",", ndmin=1)
        except ValueError as exc:
            raise _malformed(path, lines, first_line, exc) from exc
        # np.loadtxt skips blank and '#' lines, so a chunk may hold fewer records than lines.
        end = filled + rows.size
        for name, column in columns.items():
            column[filled:end] = rows[name]
        if disagrees is None:
            part = SweepTable(**{name: column[filled:end] for name, column in columns.items()})
            bad = _text_disagrees(part, rows)
            if bad.any():
                disagrees = filled + int(np.argmax(bad))
        filled = end
        first_line += len(lines)
    table = SweepTable(**{name: column[:filled] for name, column in columns.items()})
    _check_table(table, str(path))
    if disagrees is not None:
        message = "bal_acc, violation or flags disagrees with the counts"
        raise DataError(f"{path}: record {disagrees}: {message}")
    return table


def _count_lines(path: Path) -> int:
    """The lines of ``path`` as text mode splits them, at ``\\n``, ``\\r\\n`` or ``\\r``.

    Counted in the raw bytes, which costs a quarter of decoding the text.
    """
    lines, last = 0, b"\n"
    with open(path, "rb") as raw:
        for block in iter(partial(raw.read, 1 << 20), b""):
            lines += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
            lines -= last == b"\r" and block.startswith(b"\n")  # a \r\n cut between blocks
            last = block[-1:]
    return lines + (last not in (b"\n", b"\r"))  # a last line without its end


def _text_disagrees(part: SweepTable, rows: np.ndarray) -> np.ndarray:
    """Rows of ``part`` whose parsed metric or flag text differs from what the counts give."""
    degenerate = part.degenerate
    bad = rows["flags"] != np.where(degenerate, FLAG_DEGENERATE.encode(), b"")
    for name in ("bal_acc", "violation"):
        text, derived = rows[name], getattr(part, name)
        bad |= np.where(degenerate, ~np.isnan(text), text.view(np.int64) != derived.view(np.int64))
    return bad


def _malformed(path: Path, lines: list[str], first_line: int, exc: ValueError) -> DataError:
    """The first of ``lines`` that ``np.loadtxt`` rejects alone, by its line in the file.

    ``np.loadtxt`` numbers rows within its input, so that number is dropped.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a blank line holds no data
        for number, line in enumerate(lines, first_line):
            try:
                np.loadtxt([line], dtype=_RECORD_DTYPE, delimiter=",", ndmin=1)
            except ValueError as line_exc:
                detail = re.sub(r" at row \d+", "", str(line_exc))
                return DataError(f"{path}:{number}: malformed record row: {detail}")
    return DataError(f"{path}: malformed record row: {exc}")


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
