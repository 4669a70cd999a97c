"""Grid sweep engine, envelope binning, and record/curve serialization."""

import math
import re
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_force_sweep_counts

from fairplug.core import Dataset, FairnessParams
from fairplug.cpe import FitConfig
from fairplug.data import PreparedData, SplitPlan, apply_dp_transform, fit_dp_transform, make_splits
from fairplug.errors import DataError, ValidationError
from fairplug.metrics import dpar_dbar_rates, empirical_rates, eo_dbar_rates, violation
from fairplug.plugin import (
    DPAR_AWARE,
    DPAR_BLIND,
    EO_AWARE,
    EO_BLIND,
    SETTINGS,
    criterion_for,
    fit_plugin,
    is_aware,
    is_eo,
    score,
    setting_score,
    with_params,
)
from fairplug.privacy import noise_draw_count
from fairplug.sweep import (
    _READ_CHUNK,
    COUNT_COLUMNS,
    FLAG_DEGENERATE,
    BinStat,
    GridRange,
    SweepGrid,
    SweepTable,
    TradeoffCurve,
    _check_table,
    _count_grid,
    _count_lines,
    aggregate_curves,
    bin_min_violation,
    default_grid,
    read_records_csv,
    run_sweep,
    write_records_csv,
    write_tradeoff_csv,
)

HEADER = "split_id,lambda,c,c_bar,bal_acc,violation,flags,tp,tn,pos_a,pos_b,n_pos,n_neg,n_a,n_b"


def small_grid():
    return SweepGrid(
        lam=GridRange(-1.0, 1.0, 1.0),
        c=GridRange(0.3, 0.7, 0.2),
        c_bar=GridRange(0.4, 0.6, 0.1),
    )


def prepared_data(n=200, seed=31, n_repeats=2):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, 2))
    labels = np.where(gen.random(n) < 1.0 / (1.0 + np.exp(-1.5 * x[:, 0])), 1.0, -1.0)
    sensitive = np.where(gen.random(n) < 1.0 / (1.0 + np.exp(-x[:, 1])), 1.0, -1.0)
    dataset = Dataset(x, labels, sensitive)
    splits = make_splits(dataset, SplitPlan(n_repeats=n_repeats, master_seed=seed))
    return PreparedData(dataset=dataset, splits=splits, meta={})


def table_of(rows):
    """A table of (split_id, lam, c, c_bar, tp, tn, pos_a, pos_b, n_pos, n_neg, n_a, n_b) rows."""
    columns = np.array(rows, dtype=float).reshape(-1, 12).T
    return SweepTable(
        columns[0].astype(np.int64), *columns[1:4], *columns[4:].astype(np.int64)
    )


def assert_tables_equal(a, b):
    for field in fields(SweepTable):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


class TestGridRange:
    def test_inclusive_values(self):
        assert GridRange(-1.0, 1.0, 0.5).values().tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert GridRange(0.5, 0.5, 0.1).values().tolist() == [0.5]

    def test_step_must_tile(self):
        with pytest.raises(ValidationError, match="tile"):
            GridRange(0.0, 1.0, 0.3)
        with pytest.raises(ValidationError, match="positive"):
            GridRange(0.0, 1.0, 0.0)
        with pytest.raises(ValidationError, match="precede"):
            GridRange(1.0, 0.0, 0.5)

    def test_default_grid_cardinality(self):
        grid = default_grid()
        assert grid.lam.values().size == 41
        assert grid.c.values().size == 9
        assert grid.c_bar.values().size == 9
        assert grid.cardinality == 3321


class TestSweepTable:
    def test_flagged_carries_nan(self):
        # split 0 is healthy; split 1 has an empty fairness cell
        table = table_of(
            [(0, 1.0, 0.5, 0.5, 3, 2, 2, 1, 4, 4, 4, 4), (1, 1.0, 0.5, 0.5, 0, 0, 0, 0, 4, 4, 0, 4)]
        )
        assert len(table) == 2
        with np.errstate(all="raise"):
            bal_acc, violation = table.bal_acc, table.violation
        assert table.degenerate.tolist() == [False, True]
        assert bal_acc[0] == 0.5 * (3 / 4 + 2 / 4) and violation[0] == abs(2 / 4 - 1 / 4)
        assert math.isnan(bal_acc[1]) and math.isnan(violation[1])

    def test_count_bounds(self, tmp_path):
        good = "0,1.0,0.5,0.5,0.625,0.25,,3,2,2,1,4,4,4,4"
        path = tmp_path / "records.csv"
        for first, second in (
            (good, "0,1.0,0.5,0.5,0.625,0.25,,5,2,2,1,4,4,4,4"),  # tp > n_pos
            (good, "0,1.0,0.5,0.5,0.625,0.25,,-1,2,2,1,4,4,4,4"),  # negative count
            (good, "1,1.0,0.5,0.5,nan,nan,degenerate-test-cell,1,0,0,0,4,4,0,4"),  # tp > 0
            (good, "0,1.0,0.5,0.5,0.625,0.25,,3,2,2,1,4,4,4,5"),  # n_b changes in a split
            (good, "-1,1.0,0.5,0.5,0.625,0.25,,3,2,2,1,4,4,4,4"),  # negative split id
            (good.replace("0,", "1,", 1), good),  # split ids decrease
        ):
            path.write_text(HEADER + "\n" + first + "\n" + second + "\n")
            with pytest.raises(DataError, match="record 1: counts or split id out of range"):
                read_records_csv(path)


def one_row_bin(n_pos, n_neg, tp, tn, bin_width=0.025):
    """The bin_low one healthy row lands in, or None below 0.5."""
    row = (0, 0.0, 0.5, 0.5, tp, tn, 0, 0, n_pos, n_neg, 1, 1)
    curve = bin_min_violation(table_of([row]), bin_width)
    assert len(curve) <= 1
    return next(iter(curve), None)


@st.composite
def count_rows(draw):
    """Random (n_pos, n_neg, tp, tn, n_bins); half of them on or next to a bin edge."""
    n_bins = draw(st.sampled_from([1, 2, 4, 20, 40]))
    n_pos = draw(st.integers(1, 200_000))
    n_neg = draw(st.integers(1, 200_000))
    tp = draw(st.integers(0, n_pos))
    if draw(st.booleans()):
        tn = draw(st.integers(0, n_neg))
    else:
        # the tn nearest the edge 0.5 + k/(2*n_bins), then moved by at most one
        k = draw(st.integers(0, n_bins))
        edge = n_neg * (1 + Fraction(k, n_bins) - Fraction(tp, n_pos))
        tn = min(max(round(edge) + draw(st.integers(-1, 1)), 0), n_neg)
    return n_pos, n_neg, tp, tn, n_bins


class TestBinning:
    def records_for(self, pairs):
        """One split's rows with the given (bal_acc, violation) at 100/100 labels, 10/10 cells."""
        rows = []
        for bal_acc, violation in pairs:
            correct = round(200 * bal_acc)
            tp = correct // 2
            hits = (tp, correct - tp, round(10 * violation), 0)
            rows.append((0, 0.0, 0.5, 0.5, *hits, 100, 100, 10, 10))
        return table_of(rows)

    def test_lower_envelope(self):
        records = self.records_for(
            [(0.51, 0.30), (0.52, 0.10), (0.61, 0.40), (0.49, 0.00), (1.00, 0.20)]
        )
        curve = bin_min_violation(records, bin_width=0.025)
        assert curve[0.5] == 0.10  # min of the two first-bin entries
        assert curve[0.6] == 0.40
        top = max(curve)
        assert top == pytest.approx(0.975)
        assert curve[top] == 0.20  # bal_acc = 1.0 joins the top bin
        assert 0.475 not in curve  # below-0.5 records contribute nowhere

    def test_edge_accuracies_bin_exactly(self):
        # 0.5 * (1/1 + 1/5) = 0.6 exactly on an edge: bin 0.6, not 0.575
        assert one_row_bin(1, 5, 1, 1) == 0.6
        assert one_row_bin(2, 2, 1, 1) == 0.5  # exactly 0.5 is kept
        assert one_row_bin(2, 2, 1, 0) is None

    def test_offset_just_below_an_edge(self):
        # 6.25e-10 bin widths, 1/(n_pos*n_neg), below the 0.975 edge: the
        # row belongs to the bin starting at 0.95.
        assert one_row_bin(40_001, 39_999, 39_001, 38_999) == 0.95

    @settings(max_examples=400, deadline=None)
    @given(count_rows())
    def test_integer_bins_match_fraction_reference(self, row):
        n_pos, n_neg, tp, tn, n_bins = row
        offset = (Fraction(tp, n_pos) + Fraction(tn, n_neg) - 1) * n_bins
        want = None if offset < 0 else 0.5 + min(math.floor(offset), n_bins - 1) * (0.5 / n_bins)
        assert one_row_bin(n_pos, n_neg, tp, tn, 0.5 / n_bins) == want

    def test_memory_follows_occupied_bins_not_width(self):
        # 2,000,000 bins; one array entry per bin took 30.5 MiB.
        table = table_of([(0, 0.0, 0.5, 0.5, 3, 2, 2, 1, 4, 4, 4, 4)])
        tracemalloc.start()
        try:
            curve = bin_min_violation(table, bin_width=2.5e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve == {0.5 + 500_000 * 2.5e-7: 0.25}
        assert peak < 2**20

    def test_flagged_records_skipped(self):
        table = table_of([(0, 0.0, 0.5, 0.5, 0, 0, 0, 0, 4, 0, 2, 2)])
        assert bin_min_violation(table) == {}

    def test_width_must_tile_upper_half(self):
        with pytest.raises(ValidationError, match="tile"):
            bin_min_violation(table_of([]), bin_width=0.03)

    @pytest.mark.parametrize("width", [0.0, -0.025, math.nan, math.inf, 0.6])
    def test_width_out_of_range(self, width):
        with pytest.raises(ValidationError, match="bin width must lie"):
            bin_min_violation(table_of([]), bin_width=width)

    def test_aggregate_mean_std_per_bin(self):
        curves = [{0.5: 0.2, 0.55: 0.4}, {0.5: 0.4}]
        curve = aggregate_curves(curves, bin_width=0.05)
        first, second = curve.bins
        assert first.bin_low == 0.5
        assert first.mean == pytest.approx(0.3)
        assert first.std == pytest.approx(0.1)
        assert first.n_splits == 2
        assert second.bin_low == 0.55
        assert second.n_splits == 1

    def test_curve_lattice_validation(self):
        with pytest.raises(ValidationError, match="lattice"):
            TradeoffCurve(bins=(BinStat(0.51, 0.1, 0.0, 1),), bin_width=0.025)
        with pytest.raises(ValidationError, match="sorted"):
            TradeoffCurve(
                bins=(BinStat(0.55, 0.1, 0.0, 1), BinStat(0.525, 0.1, 0.0, 1)),
                bin_width=0.025,
            )


class TestRunSweep:
    def test_record_count_and_order(self):
        prepared = prepared_data()
        table = run_sweep(
            prepared, small_grid(), DPAR_BLIND, math.inf, FitConfig(), seed=1
        )
        assert len(table) == 2 * small_grid().cardinality
        assert table.split_id.tolist() == [0] * 27 + [1] * 27
        assert table.lam[0] == -1.0 and table.lam[-1] == 1.0
        # canonical nesting: c_bar varies fastest
        assert table.c_bar[:3].tolist() == [0.4, 0.5, 0.6]
        assert table.c[:4].tolist() == [0.3, 0.3, 0.3, 0.5]

    def test_deterministic(self):
        prepared = prepared_data()
        a = run_sweep(prepared, small_grid(), EO_BLIND, 1.0, FitConfig(), seed=5)
        b = run_sweep(prepared, small_grid(), EO_BLIND, 1.0, FitConfig(), seed=5)
        assert_tables_equal(a, b)

    def test_parallel_matches_serial(self):
        prepared = prepared_data()
        kwargs = dict(
            grid=small_grid(), setting=DPAR_BLIND, eps_p=math.inf,
            cpe_config=FitConfig(), seed=2,
        )
        serial = run_sweep(prepared, jobs=1, **kwargs)
        assert_tables_equal(serial, run_sweep(prepared, jobs=2, **kwargs))

    def test_one_noise_draw_per_split(self):
        prepared = prepared_data(n_repeats=2)
        before = noise_draw_count()
        run_sweep(prepared, small_grid(), DPAR_BLIND, 1.0, FitConfig(), seed=3)
        assert noise_draw_count() - before == 2
        before = noise_draw_count()
        run_sweep(prepared, small_grid(), DPAR_BLIND, math.inf, FitConfig(), seed=3)
        assert noise_draw_count() - before == 0

    def test_noise_draws_in_worker_processes_are_counted(self):
        # Serial and two-process blind sweeps give the same records and draw counts.
        prepared = prepared_data(n_repeats=3)
        for eps_p, draws in ((1.0, 3), (math.inf, 0)):
            tables = []
            for jobs in (1, 2):
                before = noise_draw_count()
                tables.append(run_sweep(
                    prepared, small_grid(), DPAR_BLIND, eps_p, FitConfig(), seed=3, jobs=jobs
                ))
                assert noise_draw_count() - before == draws
            assert_tables_equal(*tables)

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_record_matches_manual_reconstruction(self, setting):
        """Grid points recomputed one at a time from the documented per-split recipe."""
        prepared = prepared_data()
        table = run_sweep(prepared, small_grid(), setting, math.inf, FitConfig(), seed=1)
        split = table.splits()[0]
        by_point = {point: i for i, point in enumerate(zip(split.lam, split.c, split.c_bar))}
        train_idx, _, test_idx = prepared.splits[0]
        transform = fit_dp_transform(prepared.dataset.subset(train_idx), 0.5)
        train = apply_dp_transform(transform, prepared.dataset.subset(train_idx))
        test = apply_dp_transform(transform, prepared.dataset.subset(test_idx))
        rule = fit_plugin(
            train, setting, FairnessParams(lam=0.0, c=0.5, c_bar=0.5), FitConfig()
        )
        y_bar = test.sensitive if is_aware(setting) else None
        for lam, c, c_bar in ((1.0, 0.5, 0.5), (-1.0, 0.3, 0.6), (0.0, 0.7, 0.4), (1.0, 0.7, 0.4)):
            target = by_point[(lam, c, c_bar)]
            point = with_params(rule, FairnessParams(lam=lam, c=c, c_bar=c_bar))
            preds = score(point, test.features, y_bar) > 0
            label_pos, group_pos = test.labels > 0, test.sensitive > 0
            label = empirical_rates(preds, label_pos)
            if is_eo(setting):
                group = eo_dbar_rates(preds, label_pos, group_pos)
            else:
                group = dpar_dbar_rates(preds, group_pos)
            # TNR as tn / n_neg; 1 - fpr can differ from it in the last bit.
            assert label.tnr == (label.n_neg - label.pos_in_neg) / label.n_neg
            assert split.bal_acc[target] == 0.5 * (label.tpr + label.tnr)
            assert split.violation[target] == violation(group)

    def test_degenerate_split_flags_whole_grid(self):
        # healthy train split, but every test row is in one sensitive group
        gen = np.random.default_rng(7)
        x = gen.normal(size=(100, 2))
        labels = np.where(gen.random(100) < 0.5, 1.0, -1.0)
        sensitive = np.where(gen.random(100) < 0.5, 1.0, -1.0)
        sensitive[90:] = 1.0
        dataset = Dataset(x, labels, sensitive)
        splits = [(np.arange(70), np.arange(70, 90), np.arange(90, 100))]
        prepared = PreparedData(dataset=dataset, splits=splits, meta={})
        table = run_sweep(
            prepared, small_grid(), EO_BLIND, math.inf, FitConfig(), seed=1
        )
        assert len(table) == small_grid().cardinality
        assert table.degenerate.all()
        assert np.isnan(table.bal_acc).all() and np.isnan(table.violation).all()
        assert not (table.tp.any() or table.tn.any() or table.pos_a.any() or table.pos_b.any())

    def test_argument_validation(self):
        prepared = prepared_data()
        config = FitConfig()
        with pytest.raises(ValidationError, match="unknown setting"):
            run_sweep(prepared, small_grid(), "blind", math.inf, config, seed=0)
        with pytest.raises(ValidationError, match="eps_p"):
            run_sweep(prepared, small_grid(), EO_BLIND, 0.0, config, seed=0)
        with pytest.raises(ValidationError, match="blind settings only"):
            run_sweep(prepared, small_grid(), DPAR_AWARE, 1.0, config, seed=0)
        with pytest.raises(ValidationError, match="FitConfig"):
            run_sweep(prepared, small_grid(), EO_BLIND, math.inf, None, seed=0)

    def test_aware_sweep_allowed_without_privacy(self):
        prepared = prepared_data()
        table = run_sweep(
            prepared, small_grid(), DPAR_AWARE, math.inf, FitConfig(), seed=4
        )
        assert len(table) == 2 * small_grid().cardinality
        assert not table.degenerate.any()


# At pi_hat = 0.5 both eo-aware group coefficients are exactly 0 at lam = +-1,
# c_bar = 0.5 and negative further out.
AWARE_GRID = SweepGrid(
    lam=GridRange(-4.0, 4.0, 1.0), c=GridRange(0.1, 0.9, 0.2), c_bar=GridRange(0.1, 0.9, 0.4)
)
COSTS = AWARE_GRID.c.values().tolist()
# An eta equal to a cost scores exactly 0 at lam = 0; repeated values tie.
AWARE_ROW = st.tuples(
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([-1.0, 1.0]),
    st.one_of(st.sampled_from([0.0, 1.0, *COSTS]), st.floats(0.0, 1.0)),
)


def aware_prepared(rows):
    """40 fixed training rows, half of them positive, then one test row per
    ``(group, label, eta)``; returns the data and the test rows' eta."""
    gen = np.random.default_rng(11)
    groups, labels, eta = (np.array(column) for column in zip(*rows))
    dataset = Dataset(
        np.vstack([gen.normal(size=(40, 2)), np.zeros((len(rows), 2))]),
        np.concatenate([np.tile([1.0, -1.0], 20), labels]),
        np.concatenate([np.repeat([1.0, -1.0], 20), groups]),
    )
    splits = [(np.arange(40), np.arange(0), np.arange(40, 40 + len(rows)))]
    return PreparedData(dataset=dataset, splits=splits, meta={}), eta


class TestAwareCountsMatchBruteForce:
    """The aware sweep's sorted-group counts against a row-by-row count of the same score."""

    @pytest.mark.parametrize("setting", [EO_AWARE, DPAR_AWARE])
    @settings(max_examples=60)
    @given(rows=st.lists(AWARE_ROW, min_size=1, max_size=16))
    @example(rows=[(1.0, 1.0, COSTS[2]), (1.0, -1.0, COSTS[2]), (-1.0, 1.0, COSTS[1]),
                   (-1.0, -1.0, COSTS[1]), (-1.0, 1.0, COSTS[1])])  # ties on thresholds
    @example(rows=[(-1.0, 1.0, COSTS[3]), (1.0, 1.0, 0.2), (1.0, -1.0, 0.8)])  # one-row group
    @example(rows=[(1.0, 1.0, COSTS[0]), (1.0, -1.0, 0.6)])  # empty group: degenerate
    def test_counts_equal_brute_force(self, setting, rows):
        prepared, eta = aware_prepared(rows)
        seen = {}

        def drawn_coordinates(rule, x, y_bar=None):
            seen["pi"] = rule.pi_hat
            return eta, np.asarray(y_bar, dtype=float)

        with mock.patch("fairplug.sweep.coordinates", drawn_coordinates):
            table = run_sweep(prepared, AWARE_GRID, setting, math.inf, FitConfig(), seed=0)
        assert setting == DPAR_AWARE or seen["pi"] == 0.5
        groups, labels = [row[0] for row in rows], [row[1] for row in rows]
        hits, totals = brute_force_sweep_counts(
            lambda u, v, lam, c, c_bar: setting_score(setting, u, v, seen["pi"], lam, c, c_bar),
            eta.tolist(),
            groups,
            labels,
            groups,
            zip(table.lam.tolist(), table.c.tolist(), table.c_bar.tolist()),
            criterion_for(setting),
        )
        expected = np.array(hits) if min(totals) > 0 else np.zeros((len(table), 4))
        assert np.array_equal(np.stack([table.tp, table.tn, table.pos_a, table.pos_b], 1), expected)
        for name, total in zip(("n_pos", "n_neg", "n_a", "n_b"), totals):
            assert (getattr(table, name) == total).all()


SLICE_AXES = (np.array([-2.0, 0.0, 1.5]), np.array([0.3, 0.5]), np.array([0.25, 0.5, 0.75]))


class TestSliceCounts:
    """Every setting's block counts against the metrics counters, one grid point at a time."""

    def counters(self, setting, first, second, pi, label_pos, group_pos):
        hits = []
        for lam in SLICE_AXES[0].tolist():
            for c in SLICE_AXES[1].tolist():
                for c_bar in SLICE_AXES[2].tolist():
                    pred = setting_score(setting, first, second, pi, lam, c, c_bar) > 0.0
                    label = empirical_rates(pred, label_pos)
                    if is_eo(setting):
                        group = eo_dbar_rates(pred, label_pos, group_pos)
                    else:
                        group = dpar_dbar_rates(pred, group_pos)
                    hits.append(
                        (label.pos_in_pos, label.n_neg - label.pos_in_neg,
                         group.pos_in_neg, group.pos_in_pos)
                    )
        return np.array(hits).T, (label.n_pos, label.n_neg, group.n_neg, group.n_pos)

    @pytest.mark.parametrize("setting", SETTINGS)
    @pytest.mark.parametrize("case", ["mixed", "empty block", "degenerate"])
    def test_counts_equal_metrics_counters(self, setting, case):
        gen = np.random.default_rng(17)
        first, second = gen.random(60), gen.random(60)
        # At lam = 0 every score is eta - c, exactly 0 on these rows: classified -1.
        first[:6], first[6:12] = 0.3, 0.5
        label_pos = gen.random(60) < 0.5
        group_pos = gen.random(60) < 0.5
        if case == "empty block":
            group_pos[~label_pos] = False  # no (Y = -1, group +1) rows
        if case == "degenerate":
            label_pos[:] = True
        if is_aware(setting):
            second = np.where(group_pos, 1.0, -1.0)
        assert (setting_score(setting, first, second, 0.4, 0.0, 0.3, 0.5) == 0.0).any()
        hits, sizes = _count_grid(
            setting, first, second, 0.4, SLICE_AXES, label_pos, group_pos
        )
        expected_hits, expected_sizes = self.counters(
            setting, first, second, 0.4, label_pos, group_pos
        )
        assert (min(sizes) == 0) == (case == "degenerate")
        assert tuple(sizes) == tuple(expected_sizes)
        assert hits.dtype == np.int64 and np.array_equal(hits, expected_hits)


class TestSerialization:
    def test_records_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        table = table_of(
            [
                (0, -1.0, 0.3, 0.4, 3, 2, 2, 1, 4, 4, 4, 4),
                (1, 0.5, 0.5, 0.5, 0, 0, 0, 0, 4, 4, 0, 4),
            ]
        )
        write_records_csv(table, path)
        assert path.read_bytes() == (
            HEADER + "\r\n"
            "0,-1.0,0.3,0.4,0.625,0.25,,3,2,2,1,4,4,4,4\r\n"
            "1,0.5,0.5,0.5,nan,nan," + FLAG_DEGENERATE + ",0,0,0,0,4,4,0,4\r\n"
        ).encode()
        assert_tables_equal(read_records_csv(path), table)

    def test_grid_text_follows_each_split(self, tmp_path):
        # Splits 0 and 1 share one grid; split 2's -0.0 equals 0.0 in value only.
        path = tmp_path / "records.csv"
        rows = [(split, lam, 0.5, 0.5, 1, 1, 1, 1, 2, 2, 2, 2)
                for split, lam in ((0, 0.0), (1, 0.0), (2, -0.0), (3, 0.0))]
        write_records_csv(table_of(rows), path)
        lines = path.read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == ["0.0", "0.0", "-0.0", "0.0"]

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("split,lambda\n")
        with pytest.raises(DataError, match="header"):
            read_records_csv(path)
        path.write_text("split_id,lambda,c,c_bar,bal_acc,violation,flags\n0,1.0,0.5,0.5,0.6,0.1,\n")
        with pytest.raises(DataError, match="seven-column records file without the counts"):
            read_records_csv(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(HEADER + "\n0,1.0,0.5\n")
        with pytest.raises(DataError, match="malformed"):
            read_records_csv(path)

    def test_hash_line_is_malformed_not_skipped(self, tmp_path):
        # a record whose line starts with '#' is a malformed row, not a comment
        path = tmp_path / "records.csv"
        row = "0,1.0,0.5,0.5,0.625,0.25,,3,2,2,1,4,4,4,4"
        path.write_text(HEADER + "\n" + row + "\n#" + row + "\n")
        with pytest.raises(DataError, match=r"records\.csv:3: malformed record row"):
            read_records_csv(path)

    def test_every_split_holds_as_many_rows_as_the_first(self, tmp_path):
        path = tmp_path / "records.csv"
        row = "{},1.0,0.5,0.5,0.625,0.25,,3,2,2,1,4,4,4,4"
        path.write_text(HEADER + "\n" + "\n".join(row.format(s) for s in (0, 0, 1, 2, 2)) + "\n")
        with pytest.raises(DataError, match="split 1 holds 1 records, split 0 holds 2"):
            read_records_csv(path)

    def test_metrics_must_match_counts(self, tmp_path):
        path = tmp_path / "records.csv"
        good = "0,1.0,0.5,0.5,0.625,0.25,,3,2,2,1,4,4,4,4"
        for row in (
            "0,1.0,0.5,0.5,0.6250000000000001,0.25,,3,2,2,1,4,4,4,4",
            "0,1.0,0.5,0.5,0.625,-0.0,,3,2,2,2,4,4,4,4",
            "0,1.0,0.5,0.5,0.625,0.25," + FLAG_DEGENERATE + ",3,2,2,1,4,4,4,4",
            "1,1.0,0.5,0.5,0.5,0.0,,0,0,0,0,4,4,0,4",
        ):
            path.write_text(HEADER + "\n" + good + "\n" + row + "\n")
            with pytest.raises(DataError, match="disagrees with the counts"):
                read_records_csv(path)

    @pytest.mark.parametrize(
        "text",
        [b"", b"a", b"a\n", b"a\r\n", b"a\rb", b"a\r", b"\r\n\r\n\n", b"a\r\rb\n\r",
         b"x" * (2**20 - 1) + b"\r\nb\r\n", b"x" * 2**20 + b"\nb"],
    )
    def test_line_count_matches_text_mode(self, tmp_path, text):
        # The last two put a line end on the counter's 1 MiB block boundary.
        path = tmp_path / "lines.txt"
        path.write_bytes(text)
        with open(path, encoding="utf-8") as handle:
            assert _count_lines(path) == len(list(handle))

    def test_any_line_end_round_trips(self, tmp_path):
        path = tmp_path / "records.csv"
        rows = ["0,1.0,0.5,0.5,0.625,0.25,,3,2,2,1,4,4,4,4", "0,1.0,0.5,0.5,0.5,0.0,,2,2,1,1,4,4,4,4"]
        path.write_text(HEADER + "\r" + rows[0] + "\n" + rows[1] + "\r" + rows[0], newline="")
        table = read_records_csv(path)
        assert table.tp.tolist() == [3, 2, 3]

    def test_tradeoff_csv(self, tmp_path):
        curve = aggregate_curves([{0.5: 0.25}, {0.5: 0.75, 0.55: 0.5}], bin_width=0.05)
        path = tmp_path / "curve.csv"
        write_tradeoff_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_low,mean,std,n"
        assert lines[1] == "0.5,0.5,0.25,2"
        assert lines[2] == "0.55,0.5,0.0,1"


N_SPLITS, N_POINTS = 16, default_grid().cardinality


def column_bytes(table):
    return sum(getattr(table, field.name).nbytes for field in fields(SweepTable))


@pytest.fixture(scope="module")
def large_records(tmp_path_factory):
    """A valid 16-split table on the default grid (53,136 rows), and its records file.

    Each split has random totals and hits within them; split 3 has an
    empty fairness cell, so its rows are degenerate with zero hits.
    """
    gen = np.random.default_rng(20)
    totals = gen.integers(1, 60, size=(N_SPLITS, 4))
    totals[3, 2] = 0
    totals = np.repeat(totals, N_POINTS, axis=0)
    hits = gen.integers(0, totals + 1)
    hits[3 * N_POINTS : 4 * N_POINTS] = 0
    grid = default_grid()
    axes = np.meshgrid(grid.lam.values(), grid.c.values(), grid.c_bar.values(), indexing="ij")
    table = SweepTable(
        np.repeat(np.arange(N_SPLITS, dtype=np.int64), N_POINTS),
        *(np.tile(axis.ravel(), N_SPLITS) for axis in axes),
        *np.ascontiguousarray(hits.T),
        *np.ascontiguousarray(totals.T),
    )
    path = tmp_path_factory.mktemp("large") / "records.csv"
    write_records_csv(table, path)
    return path, table


class TestLargeRecords:
    # A record in split 5, several chunks of lines into the file.
    RECORD = 5 * N_POINTS + 7

    def test_round_trip(self, large_records):
        path, table = large_records
        assert len(table) >= 50_000 and self.RECORD > 2 * _READ_CHUNK
        assert np.count_nonzero(table.degenerate) == N_POINTS
        assert_tables_equal(read_records_csv(path), table)

    def rewrite(self, large_records, tmp_path, edit):
        """A copy of the records file with ``edit`` applied to the cells of ``RECORD``."""
        lines = large_records[0].read_bytes().split(b"\r\n")
        cells = lines[self.RECORD + 1].split(b",")
        edit(cells)
        lines[self.RECORD + 1] = b",".join(cells)
        path = tmp_path / "records.csv"
        path.write_bytes(b"\r\n".join(lines))
        return path

    def test_count_error_names_its_record(self, large_records, tmp_path):
        n_pos = COUNT_COLUMNS.index("n_pos") + 7

        def tp_above_n_pos(cells):
            cells[7] = str(int(cells[n_pos]) + 1).encode()

        path = self.rewrite(large_records, tmp_path, tp_above_n_pos)
        with pytest.raises(DataError, match=f"record {self.RECORD}: counts or split id"):
            read_records_csv(path)

    def test_metric_text_error_names_its_record(self, large_records, tmp_path):
        def wrong_bal_acc(cells):
            cells[4] = b"1.5"

        path = self.rewrite(large_records, tmp_path, wrong_bal_acc)
        with pytest.raises(DataError, match=f"record {self.RECORD}: bal_acc, violation or flags"):
            read_records_csv(path)

    @pytest.mark.parametrize("cell", [b"x", b"0,1"])
    def test_malformed_row_names_its_line(self, large_records, tmp_path, cell):
        def malformed(cells):
            cells[0] = cell

        path = self.rewrite(large_records, tmp_path, malformed)
        with pytest.raises(DataError) as caught:
            read_records_csv(path)
        message = str(caught.value)
        assert message.startswith(f"{path}:{self.RECORD + 2}: malformed record row: ")
        assert " at row " not in message

    def test_undecodable_byte_names_its_line(self, large_records, tmp_path):
        def undecodable(cells):
            cells[6] = b"\xff"

        path = self.rewrite(large_records, tmp_path, undecodable)
        with pytest.raises(DataError, match=re.escape(f"{path}:{self.RECORD + 2}: not UTF-8")):
            read_records_csv(path)

    def test_reader_peak_is_within_one_and_a_half_tables(self, large_records):
        # Parsing the whole file into 15-field rows peaked at 2.7 tables.
        path, table = large_records
        tracemalloc.start()
        try:
            read = read_records_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(read) == len(table)
        assert peak <= 1.5 * column_bytes(table)

    def test_table_check_extra_is_within_half_a_table(self, large_records):
        # Stacking the eight count columns took 1.2 tables.
        table = large_records[1]
        tracemalloc.start()
        try:
            _check_table(table, "large")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * column_bytes(table)
