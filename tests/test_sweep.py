"""Grid sweep engine, envelope binning, and record/curve serialization."""

import math

import numpy as np
import pytest

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
    SweepRecord,
    TradeoffCurve,
    aggregate_curves,
    bin_indices,
    bin_min_violation,
    default_grid,
    read_records_csv,
    run_sweep,
    write_records_csv,
    write_tradeoff_csv,
)


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


class TestSweepRecord:
    def test_flagged_carries_nan(self):
        record = SweepRecord(0, 1.0, 0.5, 0.5, math.nan, math.nan, flag=FLAG_DEGENERATE)
        assert not record.ok
        with pytest.raises(ValidationError, match="non-finite"):
            SweepRecord(0, 1.0, 0.5, 0.5, math.nan, 0.1)

    def test_metric_bounds(self):
        with pytest.raises(ValidationError, match="\\[0, 1\\]"):
            SweepRecord(0, 1.0, 0.5, 0.5, 1.2, 0.1)


class TestBinning:
    def records_for(self, pairs, split_id=0):
        return [
            SweepRecord(split_id, 0.0, 0.5, 0.5, bal_acc, violation)
            for bal_acc, violation in pairs
        ]

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
        """Every reachable (tp, tn) with n_pos, n_neg < 60 lands in its exact bin.

        The exact bin is floor(n_bins * (tp*n_neg + tn*n_pos - n_pos*n_neg)
        / (n_pos*n_neg)) in integers; the float balanced accuracy is formed
        as the sweep forms it.
        """
        n_bins = 20
        n_neg = np.concatenate([np.full(k + 1, k) for k in range(1, 60)])
        tn = np.concatenate([np.arange(k + 1) for k in range(1, 60)])
        checked = 0
        for n_pos in range(1, 60):
            tp = np.arange(n_pos + 1)[:, None]
            numerator = tp * n_neg + tn * n_pos - n_pos * n_neg
            keep = numerator >= 0
            exact = np.minimum(n_bins * numerator // (n_pos * n_neg), n_bins - 1)[keep]
            bal_acc = (0.5 * (tp / n_pos + tn / n_neg))[keep]
            assert np.array_equal(bin_indices(bal_acc, 0.5 / n_bins), exact)
            checked += exact.size
        assert checked > 1_600_000
        # 0.5 * (1/1 + 1/5) = 0.6 exactly on an edge: bin 0.6, not 0.575
        record = SweepRecord(0, 0.0, 0.5, 0.5, 0.5 * (1 / 1 + 1 / 5), 0.1)
        assert bin_min_violation([record]) == {0.6: 0.1}

    def test_flagged_records_skipped(self):
        records = [SweepRecord(0, 0.0, 0.5, 0.5, math.nan, math.nan, flag=FLAG_DEGENERATE)]
        assert bin_min_violation(records) == {}

    def test_width_must_tile_upper_half(self):
        with pytest.raises(ValidationError, match="tile"):
            bin_min_violation([], bin_width=0.03)

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
        records = run_sweep(
            prepared, small_grid(), DPAR_BLIND, math.inf, FitConfig(seed=0), seed=1
        )
        assert len(records) == 2 * small_grid().cardinality
        assert [r.split_id for r in records[:27]] == [0] * 27
        assert records[0].lam == -1.0 and records[-1].lam == 1.0
        # canonical nesting: c_bar varies fastest
        assert [r.c_bar for r in records[:3]] == [0.4, 0.5, 0.6]

    def test_deterministic(self):
        prepared = prepared_data()
        a = run_sweep(prepared, small_grid(), EO_BLIND, 1.0, FitConfig(seed=0), seed=5)
        b = run_sweep(prepared, small_grid(), EO_BLIND, 1.0, FitConfig(seed=0), seed=5)
        assert a == b

    def test_parallel_matches_serial(self):
        prepared = prepared_data()
        kwargs = dict(
            grid=small_grid(), setting=DPAR_BLIND, eps_p=math.inf,
            cpe_config=FitConfig(seed=0), seed=2,
        )
        assert run_sweep(prepared, jobs=1, **kwargs) == run_sweep(prepared, jobs=2, **kwargs)

    def test_one_noise_draw_per_split(self):
        prepared = prepared_data(n_repeats=2)
        before = noise_draw_count()
        run_sweep(prepared, small_grid(), DPAR_BLIND, 1.0, FitConfig(seed=0), seed=3)
        assert noise_draw_count() - before == 2
        before = noise_draw_count()
        run_sweep(prepared, small_grid(), DPAR_BLIND, math.inf, FitConfig(seed=0), seed=3)
        assert noise_draw_count() - before == 0

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_record_matches_manual_reconstruction(self, setting):
        """Grid points recomputed one at a time from the documented per-split recipe."""
        prepared = prepared_data()
        records = run_sweep(prepared, small_grid(), setting, math.inf, FitConfig(seed=0), seed=1)
        by_point = {(r.lam, r.c, r.c_bar): r for r in records if r.split_id == 0}
        train_idx, _, test_idx = prepared.splits[0]
        transform = fit_dp_transform(prepared.dataset.subset(train_idx), 0.5)
        train = apply_dp_transform(transform, prepared.dataset.subset(train_idx))
        test = apply_dp_transform(transform, prepared.dataset.subset(test_idx))
        rule = fit_plugin(
            train, setting, FairnessParams(lam=0.0, c=0.5, c_bar=0.5), FitConfig(seed=0)
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
            assert target.bal_acc == 0.5 * (tpr + tnr)
            assert target.violation == want_violation

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
        records = run_sweep(
            prepared, small_grid(), EO_BLIND, math.inf, FitConfig(seed=0), seed=1
        )
        assert len(records) == small_grid().cardinality
        assert all(r.flag == FLAG_DEGENERATE and not r.ok for r in records)
        assert all(math.isnan(r.bal_acc) for r in records)

    def test_argument_validation(self):
        prepared = prepared_data()
        config = FitConfig(seed=0)
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
        records = run_sweep(
            prepared, small_grid(), DPAR_AWARE, math.inf, FitConfig(seed=0), seed=4
        )
        assert len(records) == 2 * small_grid().cardinality
        assert all(r.ok for r in records)


class TestSerialization:
    def sample_records(self):
        return [
            SweepRecord(0, -1.0, 0.3, 0.4, 0.625, 0.25),
            SweepRecord(1, 0.5, 0.5, 0.5, math.nan, math.nan, flag=FLAG_DEGENERATE),
        ]

    def test_records_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        records = self.sample_records()
        write_records_csv(records, path)
        loaded = read_records_csv(path)
        assert loaded[0] == records[0]
        assert loaded[1].flag == FLAG_DEGENERATE
        assert math.isnan(loaded[1].bal_acc)
        header = path.read_text().splitlines()[0]
        assert header == "split_id,lambda,c,c_bar,bal_acc,violation,flags"

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("split,lambda\n")
        with pytest.raises(DataError, match="header"):
            read_records_csv(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            "split_id,lambda,c,c_bar,bal_acc,violation,flags\n0,1.0,0.5\n"
        )
        with pytest.raises(DataError, match="malformed"):
            read_records_csv(path)

    def test_tradeoff_csv(self, tmp_path):
        curve = aggregate_curves([{0.5: 0.25}, {0.5: 0.75, 0.55: 0.5}], bin_width=0.05)
        path = tmp_path / "curve.csv"
        write_tradeoff_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_low,mean,std,n"
        assert lines[1] == "0.5,0.5,0.25,2"
        assert lines[2] == "0.55,0.5,0.0,1"
