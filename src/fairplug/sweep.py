"""Grid-sweep experiment engine over (lam, c, c_bar) with split repeats.

For each split: preprocess with the train-fitted norm-bounding
transform, fit the two estimators once, privatize the sensitive-
attribute estimator once (when a finite privacy budget is given), and
then walk the whole parameter grid -- each grid point is pure
post-processing of the same fitted pair, so the sweep consumes exactly
one noise draw per split no matter how large the grid is.

A loaded prepared directory's feature matrix stays in ``features.npy``:
the dataset holds a mapping of the file that no pass reads, and each
split's gather copies the file's rows out a block of about 1 MiB at a
time (:func:`fairplug.data.fit_dp_transform`), so a sweep holds one
split's rows, never the whole matrix.  Each training split is gathered
once, into one buffer laid out as the
design of the setting's ``eta`` (:data:`fairplug.plugin.ESTIMATORS`):
``[x, a, 1]`` for the aware settings and ``[x, 1]`` for the blind ones.
Every fit reads that buffer, the private pipeline's included, except
eo-blind's sensitive-attribute fit on ``[x, y, 1]``, one column wider,
the one fit that copies its rows.

The estimator outputs on the test split
(:func:`fairplug.plugin.coordinates`), the estimated prior and the group
cells are computed and checked once per split.  Every prediction is
``setting_score(...) > 0`` at one grid point and one row, and every
setting counts its grid from one layout: the test rows are sorted once
into four contiguous (label, group) blocks, and the aware settings,
whose bisection needs it, also sort by ``eta`` within a block.  The
score is elementwise in the row, so the order moves no prediction.
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

The result is one :class:`SweepTable` that stores each field at the
level where it varies: the grid's ``lam``, ``c`` and ``c_bar`` once,
shared by every split; per split its id and the four totals ``n_pos,
n_neg, n_a, n_b``; and per record, one (split, grid point), only the four
int64 hits ``tp, tn, pos_a, pos_b`` -- 32 bytes a record.  Balanced
accuracy ``0.5 * (tp / n_pos + tn / n_neg)`` and the violation ``|pos_a /
n_a - pos_b / n_b|`` are the same :class:`~fairplug.metrics.Counts` rates
read back from the counts; a split with an empty label class or cell is
flagged degenerate, with zero hits and NaN metrics.  A table holds each
record once: :func:`run_sweep` copies each split's hits into the
preallocated table as :func:`~fairplug._pool.map_tasks` yields them, and
:func:`read_records_csv` parses ``records.csv`` a fixed chunk of lines at
a time straight into the table's hits, so the reader's only temporaries
are one chunk's.  Ranges are checked where a table enters.
``records.csv`` has 15 columns, ``split_id, lambda, c, c_bar, bal_acc,
violation, flags`` and then the counts, one line per record.  The reader
requires of every split what the layout holds: the first split fixes the
number of grid points and their bits, every later split repeats them
point by point, and every record of a split holds its first record's
totals.  It rejects the older seven-column header and any row whose
metric or flag text differs from what its counts give, checked chunk by
chunk.  Every error names the ``records.csv`` line it is about.

Each split's records reduce to a lower envelope, the minimum violation per
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

import itertools
import logging
import math
import re
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from ._pool import map_tasks
from .core import FairnessParams
from .cpe import ARITY_COLUMNS, FitConfig
from .data import PreparedData, apply_dp_transform, fit_dp_transform
from .errors import DataError, ValidationError, undecodable
from .kvformat import format_float
from .metrics import Counts, violation
from .plugin import (
    DPAR_BLIND,
    EO_BLIND,
    ESTIMATORS,
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
    """Sweep results, each field stored at the level where it varies.

    A record is one (split, grid point).  For S splits of P grid points:

    * ``lam``, ``c``, ``c_bar``: float64 ``(P,)``, the grid in canonical
      order (``c_bar`` fastest), shared by every split;
    * ``split_ids``: int64 ``(S,)``, increasing;
    * ``hits``: int64 ``(4, S, P)``, the counts ``tp, tn, pos_a, pos_b``
      of :data:`COUNT_COLUMNS`, each one C-contiguous ``(S, P)`` block;
    * ``totals``: int64 ``(S, 4)``, each split's ``n_pos, n_neg, n_a, n_b``.

    That is 32 bytes per record.  ``degenerate``, ``bal_acc`` and
    ``violation`` are ``(S, P)``, each split's totals broadcast over its
    grid points.
    """

    lam: np.ndarray
    c: np.ndarray
    c_bar: np.ndarray
    split_ids: np.ndarray
    hits: np.ndarray
    totals: np.ndarray

    def __len__(self) -> int:
        return self.hits[0].size

    def _totals(self) -> np.ndarray:
        """``totals`` as ``(4, S, 1)``, to broadcast against ``hits``."""
        return self.totals.T[:, :, None]

    @property
    def degenerate(self) -> np.ndarray:
        """Records whose split has an empty label class or fairness cell."""
        return np.broadcast_to(_degenerate(self._totals()), self.hits.shape[1:])

    @property
    def bal_acc(self) -> np.ndarray:
        return _balanced_accuracy(self.hits, self._totals())

    @property
    def violation(self) -> np.ndarray:
        return _violation(self.hits, self._totals())

    def splits(self) -> list[SweepTable]:
        """One table per split, in order: views with S = 1."""
        return [
            SweepTable(
                self.lam, self.c, self.c_bar, self.split_ids[s : s + 1],
                self.hits[:, s : s + 1], self.totals[s : s + 1],
            )
            for s in range(self.split_ids.size)
        ]


# The record functions below take ``hits`` (``tp, tn, pos_a, pos_b``) and
# ``totals`` (``n_pos, n_neg, n_a, n_b``) as four arrays each, all
# broadcasting together: a table's ``(S, P)`` blocks against its ``(S, 1)``
# totals, or a parsed chunk's ``(k,)`` columns against each other.


def _degenerate(totals) -> np.ndarray:
    """Where a label class or fairness cell is empty."""
    n_pos, n_neg, n_a, n_b = totals
    return (n_pos == 0) | (n_neg == 0) | (n_a == 0) | (n_b == 0)


def _balanced_accuracy(hits, totals) -> np.ndarray:
    """``0.5 * (TPR + TNR)``, NaN where degenerate."""
    label = Counts(hits[0], totals[1] - hits[1], totals[0], totals[1])
    return np.where(_degenerate(totals), np.nan, 0.5 * (label.tpr + label.tnr))


def _violation(hits, totals) -> np.ndarray:
    """``|pos_a / n_a - pos_b / n_b|``, NaN where degenerate."""
    group = Counts(hits[3], hits[2], totals[3], totals[2])
    return np.where(_degenerate(totals), np.nan, violation(group))


def _out_of_range(hits, totals) -> np.ndarray:
    """Records with a hit outside ``[0, total]``, or any hit where degenerate.

    ``0 <= hit <= total`` also keeps every total nonnegative.  Allocates
    booleans of the hits' shape only.
    """
    degenerate = _degenerate(totals)
    bad = np.zeros(np.shape(hits[0]), dtype=bool)
    for hit, total in zip(hits, totals):
        bad |= (hit < 0) | (hit > total) | (degenerate & (hit != 0))
    return bad


def _check_table(table: SweepTable, source: str) -> None:
    """Hits within their totals, and zero on degenerate splits.

    The layout itself holds one grid for every split, as many records in
    each split and one set of totals per split.  The check holds
    ``(S, P)`` booleans only.
    """
    bad = _out_of_range(table.hits, table._totals())
    if bad.any():
        raise DataError(f"{source}: record {int(np.argmax(bad))}: counts out of range")


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
    if is_aware(setting):
        # the bisection needs each block in eta order
        order, count = np.lexsort((first, block)), _bisect_positives
    else:
        order, count = np.argsort(block, kind="stable"), _slice_positives
    edges = np.searchsorted(block[order], np.arange(5))
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
) -> tuple[np.ndarray, tuple[int, int, int, int], int]:
    """One split's hits ``(4, grid points)``, its four totals and the noise draws it made.

    :func:`fit_dp_transform` gathers the training rows once (from
    ``features.npy`` a block at a time, for a loaded dataset), fits and
    maps them in that one buffer, and lays it out as the design of the
    setting's ``eta`` (the module docstring gives the layout by setting
    and the one eo-blind fit that copies);
    :func:`apply_dp_transform` gathers the test rows once and maps them
    in theirs, so no raw copy of either split is built.  The hits are
    counted by :func:`_count_grid` from ``setting_score(...) > 0`` on
    every test row, and are all 0 on a degenerate split.
    """

    split_id, (train_idx, _val_idx, test_idx) = task
    draws = noise_draw_count()
    pipeline_seed = int(np.random.SeedSequence((seed, split_id)).generate_state(1)[0])
    eta_column = ARITY_COLUMNS[ESTIMATORS[setting][0]]
    transform, train = fit_dp_transform(dataset, train_idx, dp_c, eta_column)
    test = apply_dp_transform(transform, dataset, test_idx)
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
    if min(sizes) == 0:
        log.warning("split %d: degenerate test cell; flagging every grid point", split_id)
        hits[:] = 0
    return hits, sizes, noise_draw_count() - draws


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
    blind settings.  Records come back in canonical (split, lam, c,
    c_bar) order, bit-identical for a fixed seed.  Each split's hits are
    copied into the preallocated table as they arrive, so no other
    split's result is held meanwhile.
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
    n_splits = len(prepared.splits)
    hits = np.empty((4, n_splits, grid.cardinality), dtype=np.int64)
    totals = np.empty((n_splits, 4), dtype=np.int64)
    draws = noise_draw_count()
    split_draws = 0
    results = map_tasks(run, enumerate(prepared.splits), jobs)
    for split_id, (split_hits, split_totals, split_draw_count) in enumerate(results):
        hits[:, split_id] = split_hits
        totals[split_id] = split_totals
        split_draws += split_draw_count
    # a draw made in a worker process raised only that worker's counter
    _add_worker_draws(split_draws - (noise_draw_count() - draws))
    table = SweepTable(
        *(axis.ravel() for axis in np.meshgrid(*axes, indexing="ij")),
        np.arange(n_splits, dtype=np.int64),
        hits,
        totals,
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
    """Per-bin minimum violation over one split's records (lower envelope).

    Bin k is [0.5 + k*w, 0.5 + (k+1)*w), left-closed, and the top bin
    also takes 1.0.  It is found from the counts in integers: with
    ``A = n_pos*n_neg`` and ``N = tp*n_neg + tn*n_pos - A``, the balanced
    accuracy is ``0.5 + N/(2A)``, so ``k = min(n_bins*N // A, n_bins - 1)``,
    exact on every edge.  Records below 0.5 balanced accuracy (``N < 0``)
    or flagged degenerate contribute nowhere.  Returns only the nonempty
    bins, keyed by bin_low, and allocates per nonempty bin, so a narrow
    width costs no more memory than a wide one.
    """

    n_bins = _bin_count(bin_width)
    (tp, tn), (n_pos, n_neg) = table.hits[:2], table._totals()[:2]
    area = n_pos * n_neg
    if n_bins * int(area.max(initial=0)) >= 2**63:
        raise ValidationError(f"counts are too large to bin in int64 at width {bin_width}")
    numerator = tp * n_neg + tn * n_pos - area
    kept = ~table.degenerate & (numerator >= 0)
    area = np.broadcast_to(area, kept.shape)[kept]
    index = np.minimum(n_bins * numerator[kept] // area, n_bins - 1)
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
#: Lines of ``records.csv`` parsed per ``np.loadtxt`` call: one chunk's
#: text and 144-byte parsed rows are the reader's only temporaries.
_READ_CHUNK = 2048
# The grid and the counts are subarray fields, so a chunk's grid is one
# (k, 3) view and its counts one (k, 8) view.  A flags field longer than
# the width is cut to the full width, so it can never be read as the
# shorter degenerate flag.
_RECORD_DTYPE = np.dtype(
    [
        ("split_id", np.int64),
        ("grid", np.float64, (3,)),
        ("bal_acc", np.float64),
        ("violation", np.float64),
        ("flags", "S32"),
        ("counts", np.int64, (len(COUNT_COLUMNS),)),
    ]
)


def _column_text(values: np.ndarray, fmt) -> list[str]:
    """``[fmt(v) for v in values]``, calling ``fmt`` once per distinct bit pattern."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([fmt(v) for v in distinct.view(values.dtype).tolist()], dtype=object)
    return text[inverse].tolist()


def write_records_csv(table: SweepTable, path: str | Path) -> None:
    """Write the 15-column records file, one ``write`` per split.

    The grid's ``lambda,c,c_bar`` text is formatted once per table, and
    each split's ``split_id,`` prefix and ``,n_pos,n_neg,n_a,n_b`` suffix
    once per split; only the fields that vary by record are joined per
    record.
    """
    axes_text = (_column_text(axis, format_float) for axis in (table.lam, table.c, table.c_bar))
    grid_text = [",".join(point) for point in zip(*axes_text)]
    with open(path, "w", newline="") as handle:
        handle.write(",".join(_RECORD_HEADER) + "\r\n")
        for part in table.splits():
            prefix = f"{int(part.split_ids[0])},"
            suffix = "".join(f",{total}" for total in part.totals[0].tolist()) + "\r\n"
            columns = [
                grid_text,
                _column_text(part.bal_acc[0], format_float),
                _column_text(part.violation[0], format_float),
                np.where(part.degenerate[0], FLAG_DEGENERATE, "").tolist(),
                *(_column_text(hit, str) for hit in part.hits[:, 0]),
            ]
            # Records joined by "suffix + prefix", so each line ends and begins once.
            records = (suffix + prefix).join(map(",".join, zip(*columns)))
            handle.write(prefix + records + suffix)


def read_records_csv(path: str | Path) -> SweepTable:
    """Inverse of :func:`write_records_csv`; rejects the old seven-column
    header, records off the layout of the first split, and rows whose
    metric or flag text differs from their counts.

    The file is opened once.  Its lines are counted through that handle,
    which is then rewound, so an input that cannot rewind (a named pipe,
    ``<(...)``) is a :class:`DataError` naming it before anything is
    parsed.  The table's hits are allocated once.  Then ``np.loadtxt``
    parses :data:`_READ_CHUNK` lines at a time,
    each chunk's hits are copied into place, its records are checked
    against the layout (:class:`_Layout`) and the ranges, and its
    ``bal_acc``, ``violation`` and ``flags`` text is compared with its
    counts.  Errors name ``path:line`` and keep this precedence: the
    first malformed row, then the first record whose counts or split id
    are out of range or that leaves its split's layout, then the first
    row whose text disagrees.  The checks find a record by its index; only
    on the way to an error is the handle rewound and read again to find
    that record's line (:func:`_record_line`), so blank lines, which
    ``np.loadtxt`` skips, do not shift it.  A file that is not UTF-8 is a
    :class:`DataError` naming the line of its first bad byte.
    """

    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            return _read_records(handle, path)
    except UnicodeDecodeError as exc:
        raise undecodable(path, exc) from exc


def _read_records(handle, path: Path) -> SweepTable:
    if not handle.seekable():
        raise DataError(f"{path}: records input cannot be rewound; give a regular file")
    n_lines = _count_lines(handle.buffer) - 1
    handle.seek(0)
    header = tuple(handle.readline().rstrip("\n").split(","))
    if header == _RECORD_HEADER[:7]:
        raise DataError(f"{path}: seven-column records file without the counts; sweep again")
    if header != _RECORD_HEADER:
        raise DataError(f"{path}: unexpected records header {list(header)}")
    hits = np.empty((4, n_lines), dtype=np.int64)
    layout = _Layout()
    filled = 0
    first_line = 2  # the header is line 1
    misplaced = None  # (record, reason) of the first record out of range or off the layout
    disagrees = None  # record index of the first row whose text disagrees
    while lines := list(itertools.islice(handle, _READ_CHUNK)):
        try:
            rows = np.loadtxt(lines, dtype=_RECORD_DTYPE, delimiter=",", ndmin=1, comments=None)
        except ValueError as exc:
            raise _malformed(path, lines, first_line, exc) from exc
        first_line += len(lines)
        del lines  # parsed: the checks and the next chunk's read go without its text
        # np.loadtxt skips blank lines, so a chunk may hold fewer records than lines.
        end = filled + rows.size
        hits[:, filled:end] = rows["counts"][:, :4].T
        if misplaced is None:
            misplaced = layout.check(rows, filled)
        if disagrees is None:
            bad = _text_disagrees(rows)
            if bad.any():
                disagrees = filled + int(np.argmax(bad))
        filled = end
        del rows  # and the next chunk is parsed without this one's rows
    if not filled:
        raise DataError(f"{path} holds no sweep records")
    if misplaced is not None:
        record, reason = misplaced
        raise DataError(f"{path}:{_record_line(handle, record)}: {reason}")
    short = layout.finish(filled)
    if short is not None:
        raise DataError(f"{path}: {short}")
    if disagrees is not None:
        message = "bal_acc, violation or flags disagrees with the counts"
        raise DataError(f"{path}:{_record_line(handle, disagrees)}: {message}")
    # A file with blank lines leaves the hits' tail unfilled; only then is the rest copied.
    hits = hits if filled == n_lines else np.ascontiguousarray(hits[:, :filled])
    lam, c, c_bar = np.ascontiguousarray(layout.grid.view(np.float64).T)
    split_ids = np.array(layout.split_ids, dtype=np.int64)
    return SweepTable(
        lam, c, c_bar, split_ids, hits.reshape(4, split_ids.size, -1), np.concatenate(layout.totals)
    )


class _Layout:
    """The layout the first split of a records file fixes for every later one.

    The first split ends at the first record with another split id; its
    record count is the grid's size P and its ``lambda, c, c_bar`` bits
    are the grid.  Record ``i`` is then point ``i % P`` of split ``i //
    P``: it holds that point's bits and its split's first record's split
    id and totals, and the split id changes exactly where ``i % P == 0``.
    :meth:`check` takes the records a chunk at a time.
    """

    def __init__(self) -> None:
        self.points: int | None = None  # P, once the first split has ended
        self.grid: list | np.ndarray = []  # the first split's grid bits, (P, 3) once P is known
        self.split_ids: list[int] = []  # per split, from its first record
        self.totals: list[np.ndarray] = []  # per chunk, its opening records' totals
        self.first_id = self.last_id = None  # split ids of the first and last records checked
        self.last_totals = None  # the totals of the last record's split, (1, 4)

    def check(self, rows: np.ndarray, start: int) -> tuple[int, str] | None:
        """The first of ``rows``, records ``start`` on, out of range or off the layout.

        Returns that record's file-wide index and the reason, or None.
        """
        if not rows.size:
            return None
        ids, counts = rows["split_id"], rows["counts"]
        totals, bits = counts[:, 4:], rows["grid"].view(np.int64)
        if self.first_id is None:
            self.first_id = self.last_id = int(ids[0])
            self.last_totals = totals[:1]
        previous = np.concatenate([[self.last_id], ids[:-1]])
        change = ids != previous
        if self.points is None:
            ends = np.flatnonzero(change)
            self.grid.append(bits[: ends[0] if ends.size else None].copy())
            if ends.size:
                self.points = start + int(ends[0])
                self.grid = np.concatenate(self.grid)
        index = np.arange(start, start + rows.size)
        point = index if self.points is None else index % self.points
        opens = point == 0  # the records that open a split
        # Each record's split's totals: its opening record's, in this chunk or carried into it.
        owner = np.maximum.accumulate(np.where(opens, np.arange(1, rows.size + 1), 0))
        split_totals = np.concatenate([self.last_totals, totals])[owner]
        out_of_range = _out_of_range(counts.T[:4], counts.T[4:]) | (ids < 0) | (ids < previous)
        uneven = change != opens
        uneven[index == 0] = False
        other_totals = (totals != split_totals).any(axis=1)
        off_grid = np.zeros(rows.size, dtype=bool)
        if self.points is not None:
            off_grid = (bits != self.grid[point]).any(axis=1)
        bad = out_of_range | uneven | other_totals | off_grid
        if not bad.any():
            self.split_ids += ids[opens].tolist()
            self.totals.append(totals[opens])
            self.last_id, self.last_totals = int(ids[-1]), split_totals[-1:]
            return None
        at = int(np.argmax(bad))
        if out_of_range[at]:
            reason = "counts or split id out of range"
        elif uneven[at] and change[at]:
            reason = self._uneven(previous[at], point[at])
        elif uneven[at]:
            reason = f"split {ids[at]} holds more records than split {self.first_id}'s {self.points}"
        elif other_totals[at]:
            reason = f"totals differ from those of split {ids[at]}'s first record"
        else:
            reason = f"grid point differs from point {point[at]} of split {self.first_id}"
        return start + at, reason

    def finish(self, records: int) -> str | None:
        """Close the layout after ``records`` records; a short last split is an error."""
        if self.points is None:
            self.points, self.grid = records, np.concatenate(self.grid)
        short = records % self.points
        return self._uneven(self.last_id, short) if short else None

    def _uneven(self, split_id: int, size: int) -> str:
        return f"split {split_id} holds {size} records, split {self.first_id} holds {self.points}"


def _count_lines(raw) -> int:
    """The lines of the binary file ``raw``, from where it stands, as text mode splits them.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``.  Counted in the raw
    bytes, which costs a quarter of decoding the text.  Each 1 MiB block
    is read into one reused buffer, so one block is held at a time; only
    its first ``size`` bytes are the block.
    """
    lines, last = 0, b"\n"
    block = bytearray(1 << 20)
    while size := raw.readinto(block):
        lines += (
            block.count(b"\n", 0, size)
            + block.count(b"\r", 0, size)
            - block.count(b"\r\n", 0, size)
        )
        lines -= last == b"\r" and block.startswith(b"\n")  # a \r\n cut between blocks
        last = block[size - 1 : size]
    return lines + (last not in (b"\n", b"\r"))  # a last line without its end


def _record_line(handle, record: int) -> int:
    """The line of the text file ``handle`` that holds record ``record`` (0-based), for an error.

    The handle is rewound.  Records are the lines after the header that
    are not blank, the lines ``np.loadtxt`` parses; lines are counted as
    text mode splits them.
    """
    handle.seek(0)
    next(handle)  # the header
    lines = (number for number, line in enumerate(handle, 2) if line != "\n")
    return next(itertools.islice(lines, record, None))


def _text_disagrees(rows: np.ndarray) -> np.ndarray:
    """Parsed rows whose metric or flag text differs from what their counts give."""
    hits, totals = rows["counts"].T[:4], rows["counts"].T[4:]
    degenerate = _degenerate(totals)
    bad = rows["flags"] != np.where(degenerate, FLAG_DEGENERATE.encode(), b"")
    for name, derived in (
        ("bal_acc", _balanced_accuracy(hits, totals)),
        ("violation", _violation(hits, totals)),
    ):
        text = rows[name]
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
                np.loadtxt([line], dtype=_RECORD_DTYPE, delimiter=",", ndmin=1, comments=None)
            except ValueError as line_exc:
                detail = re.sub(r" at row \d+", "", str(line_exc))
                return DataError(f"{path}:{number}: malformed record row: {detail}")
    return DataError(f"{path}: malformed record row: {exc}")
