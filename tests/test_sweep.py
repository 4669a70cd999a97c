"""Grid sweep engine, envelope binning, and record/curve serialization."""

import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairplug.core import Dataset, FairnessParams
from fairplug.cpe import FitConfig
from fairplug.data import PreparedData, SplitPlan, apply_dp_transform, fit_dp_transform, make_splits
from fairplug.errors import DataError, ValidationError
from fairplug.metrics import dpar_dbar_rates, empirical_rates, eo_violation
from fairplug.plugin import (
    DPAR_AWARE,
    DPAR_BLIND,
    EO_BLIND,
    SETTINGS,
    classify,
    fit_plugin,
    is_aware,
    is_eo,
    with_params,
)
from fairplug.privacy import noise_draw_count
from fairplug.sweep import (
    FLAG_DEGENERATE,
    BinStat,
    GridRange,
    SweepGrid,
    SweepTable,
    TradeoffCurve,
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

    def test_flagged_records_skipped(self):
        table = table_of([(0, 0.0, 0.5, 0.5, 0, 0, 0, 0, 4, 0, 2, 2)])
        assert bin_min_violation(table) == {}

    def test_width_must_tile_upper_half(self):
        with pytest.raises(ValidationError, match="tile"):
            bin_min_violation(table_of([]), bin_width=0.03)

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
            preds = np.asarray(classify(point, test.features, y_bar), dtype=float)
            tpr = empirical_rates(preds, test.labels).tpr
            # TNR as tn / n_neg, the true-positive rate of the flipped
            # problem; 1 - fpr can differ from it in the last bit.
            tnr = empirical_rates(-preds, -test.labels).tpr
            if is_eo(setting):
                want_violation = eo_violation(preds, test.labels, test.sensitive)
            else:
                dbar = dpar_dbar_rates(preds, test.sensitive)
                want_violation = abs(dbar.tpr - dbar.fpr)
            assert split.bal_acc[target] == 0.5 * (tpr + tnr)
            assert split.violation[target] == want_violation

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

    def test_tradeoff_csv(self, tmp_path):
        curve = aggregate_curves([{0.5: 0.25}, {0.5: 0.75, 0.55: 0.5}], bin_width=0.05)
        path = tmp_path / "curve.csv"
        write_tradeoff_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_low,mean,std,n"
        assert lines[1] == "0.5,0.5,0.25,2"
        assert lines[2] == "0.55,0.5,0.0,1"
