"""Grid sweep engine, envelope binning, and record/curve serialization."""

import logging
import math
import os
import re
import threading
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_force_sweep_counts

from fairplug import cpe as cpe_module
from fairplug import data as data_module
from fairplug import sweep as sweep_module
from fairplug.cli import _write_tradeoff_csv
from fairplug.core import Dataset, FairnessParams
from fairplug.cpe import ARITY_FEATURES_PLUS_SENSITIVE, FitConfig, fit_estimator
from fairplug.data import (
    PreparedData,
    SplitPlan,
    apply_dp_transform,
    fit_dp_transform,
    load_prepared,
    make_splits,
    save_prepared,
)
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
from fairplug.privacy import dp_plugin_pipeline, noise_draw_count
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
    """A table of (split_id, lam, c, c_bar, tp, tn, pos_a, pos_b, n_pos, n_neg, n_a, n_b) rows.

    Rows are grouped by split, and every split repeats the first split's
    grid and holds one set of totals.
    """
    rows = np.array(rows, dtype=float).reshape(-1, 12)
    n_points = np.count_nonzero(rows[:, 0] == rows[0, 0]) if len(rows) else 0
    splits = rows.reshape(-1 if n_points else 0, n_points, 12)
    assert (splits[:, :, 1:4] == splits[:1, :, 1:4]).all()
    assert (splits[:, :, 8:] == splits[:, :1, 8:]).all()
    first_records = splits[:, :1].reshape(-1, 12)
    lam, c, c_bar = splits[:1, :, 1:4].reshape(-1, 3).T.copy()
    return SweepTable(
        lam, c, c_bar,
        first_records[:, 0].astype(np.int64),
        np.ascontiguousarray(splits[:, :, 4:8].transpose(2, 0, 1), dtype=np.int64),
        first_records[:, 8:].astype(np.int64),
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
        assert table.degenerate.tolist() == [[False], [True]]
        assert bal_acc[0, 0] == 0.5 * (3 / 4 + 2 / 4) and violation[0, 0] == abs(2 / 4 - 1 / 4)
        assert math.isnan(bal_acc[1, 0]) and math.isnan(violation[1, 0])

    @pytest.mark.parametrize(
        "hits, totals",
        [((5, 2, 2, 1), (4, 4, 4, 4)), ((3, -1, 2, 1), (4, 4, 4, 4)), ((0, 0, 0, 1), (4, 4, 0, 4))],
        ids=["tp above n_pos", "negative tn", "a hit on a degenerate split"],
    )
    def test_table_check_names_the_first_record_out_of_range(self, hits, totals):
        good = (3, 2, 2, 1, 4, 4, 4, 4)
        rows = [(0, 0.0, 0.5, 0.5, *good), (0, 1.0, 0.5, 0.5, *good),
                (1, 0.0, 0.5, 0.5, *hits, *totals), (1, 1.0, 0.5, 0.5, 0, 0, 0, 0, *totals)]
        with pytest.raises(DataError, match="run_sweep: record 2: counts out of range"):
            _check_table(table_of(rows), "run_sweep")

    def test_count_bounds(self, tmp_path):
        good = "0,1.0,0.5,0.5,0.625,0.25,,3,2,2,1,4,4,4,4"
        path = tmp_path / "records.csv"
        for first, second in (
            (good, "0,1.0,0.5,0.5,0.625,0.25,,5,2,2,1,4,4,4,4"),  # tp > n_pos
            (good, "0,1.0,0.5,0.5,0.625,0.25,,-1,2,2,1,4,4,4,4"),  # negative count
            (good, "1,1.0,0.5,0.5,nan,nan,degenerate-test-cell,1,0,0,0,4,4,0,4"),  # tp > 0
            (good, "-1,1.0,0.5,0.5,0.625,0.25,,3,2,2,1,4,4,4,4"),  # negative split id
            (good.replace("0,", "1,", 1), good),  # split ids decrease
        ):
            path.write_text(HEADER + "\n" + first + "\n" + second + "\n")
            with pytest.raises(DataError, match=r"records\.csv:3: counts or split id out of range"):
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


def _mapping_rss_kb(path) -> list[int]:
    """The ``Rss`` in kB of each of this process's mappings of ``path``."""
    target = os.path.realpath(path)
    sizes, inside = [], False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            fields = line.split()
            if ":" not in fields[0]:  # a mapping's header line: address range first
                inside = fields[-1] == target
            elif inside and fields[0] == "Rss:":
                sizes.append(int(fields[1]))
    return sizes


class TestFileBackedSweep:
    def saved(self, tmp_path, n=4000):
        prepared = prepared_data(n=n)
        out = tmp_path / "prepared"
        save_prepared(out, prepared.dataset, prepared.splits, {})
        return out

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="reads Linux's smaps")
    def test_sweep_never_reads_the_feature_mapping(self, tmp_path):
        out = self.saved(tmp_path)
        prepared = load_prepared(out)
        table = run_sweep(prepared, small_grid(), DPAR_AWARE, math.inf, FitConfig(), seed=1)
        assert len(table) == 2 * small_grid().cardinality
        assert _mapping_rss_kb(out / "features.npy") == [0]

    def test_matches_the_in_memory_sweep(self, tmp_path):
        prepared = load_prepared(self.saved(tmp_path))
        for setting, eps_p in ((EO_BLIND, 1.0), (DPAR_AWARE, math.inf)):
            assert_tables_equal(
                run_sweep(prepared, small_grid(), setting, eps_p, FitConfig(), seed=2),
                run_sweep(prepared_data(n=4000), small_grid(), setting, eps_p, FitConfig(), seed=2),
            )

    def test_features_rewritten_after_the_load_are_a_data_error(self, tmp_path):
        out = self.saved(tmp_path)
        prepared = load_prepared(out)
        np.save(out / "features.npy", np.load(out / "features.npy")[:-1])
        with pytest.raises(DataError, match=re.escape(str(out / "features.npy"))):
            run_sweep(prepared, small_grid(), DPAR_BLIND, math.inf, FitConfig(), seed=1)


class TestRunSweep:
    def test_record_count_and_order(self):
        prepared = prepared_data()
        table = run_sweep(
            prepared, small_grid(), DPAR_BLIND, math.inf, FitConfig(), seed=1
        )
        assert len(table) == 2 * small_grid().cardinality
        assert table.split_ids.tolist() == [0, 1]
        assert table.hits.shape == (4, 2, 27) and table.totals.shape == (2, 4)
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
        transform, train = fit_dp_transform(prepared.dataset, train_idx, 0.5)
        test = apply_dp_transform(transform, prepared.dataset, test_idx)
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
            assert split.bal_acc[0, target] == 0.5 * (label.tpr + label.tnr)
            assert split.violation[0, target] == violation(group)

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
        assert not table.hits.any()

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


#: The design column each setting's training buffer carries, as the sweep lays it out.
DESIGN_COLUMN = {EO_AWARE: "sensitive", DPAR_AWARE: "sensitive", EO_BLIND: None, DPAR_BLIND: None}


class TestSharedDesign:
    """Each training split is gathered into the design its fits read."""

    @staticmethod
    def clipped_split(caplog, column):
        # Seed 5 puts one training row just over the cap by rounding, so the
        # split holds a radially clipped row; a 16-row step spreads it in 13 blocks.
        gen = np.random.default_rng(5)
        n = 400
        dataset = Dataset(
            gen.normal(size=(n, 6)),
            np.where(gen.random(n) < 0.5, 1.0, -1.0),
            np.where(gen.random(n) < 0.5, 1.0, -1.0),
        )
        with mock.patch.object(data_module, "_SPREAD_ROWS", 16), caplog.at_level(
            logging.INFO, logger="fairplug.data"
        ):
            _, train = fit_dp_transform(dataset, np.arange(0, n, 2), 0.5, column)
        assert "radially clipped 1 training rows" in caplog.text
        return train

    @pytest.mark.parametrize(
        ("setting", "eps_p"),
        [(setting, math.inf) for setting in SETTINGS] + [(EO_BLIND, 1.0), (DPAR_BLIND, 1.0)],
    )
    def test_fits_equal_fits_on_a_fresh_copy(self, caplog, setting, eps_p):
        train = self.clipped_split(caplog, DESIGN_COLUMN[setting])
        fresh = Dataset(train.features, train.labels, train.sensitive, train.label_scale)
        params = FairnessParams(lam=0.0, c=0.5, c_bar=0.5)
        rules = [
            fit_plugin(split, setting, params, FitConfig()) if math.isinf(eps_p)
            else dp_plugin_pipeline(split, setting, params, FitConfig(), eps_p, seed=9)
            for split in (train, fresh)
        ]
        for name in ("eta", "eta_bar"):
            shared, copied = (getattr(rule, name) for rule in rules)
            if copied is not None:
                assert np.array_equal(shared.weights, copied.weights)
        assert rules[0].pi_hat == rules[1].pi_hat

    @pytest.mark.parametrize(("setting", "eps_p", "copies"), [
        (EO_AWARE, math.inf, 0), (DPAR_AWARE, math.inf, 0), (DPAR_BLIND, math.inf, 0),
        (DPAR_BLIND, 1.0, 0), (EO_BLIND, math.inf, 1), (EO_BLIND, 1.0, 1),
    ])
    def test_only_the_eo_blind_eta_bar_fit_copies(self, setting, eps_p, copies):
        prepared = prepared_data()
        # In call order: each training split, then the designs its fits evaluate.
        events = []
        objective_and_grad = cpe_module._objective_and_grad

        def transform(*args):
            fitted, train = fit_dp_transform(*args)
            events.append(train)
            return fitted, train

        def objective(w, design, *rest):
            events.append(design)
            return objective_and_grad(w, design, *rest)

        with (
            mock.patch.object(cpe_module, "_design", wraps=cpe_module._design) as design,
            mock.patch.object(cpe_module, "_objective_and_grad", objective),
            mock.patch.object(sweep_module, "fit_dp_transform", transform),
        ):
            run_sweep(prepared, small_grid(), setting, eps_p, FitConfig(), seed=2)
        # eo-blind's sensitive-attribute fit copies into [x, y, 1], one
        # column wider than the [x, 1] split; every other fit reads the buffer
        widths = [call.args[0].shape[1] + len(call.args) for call in design.call_args_list]
        assert widths == [prepared.dataset.dim + 2] * copies * len(prepared.splits)
        splits = [i for i, event in enumerate(events) if isinstance(event, Dataset)]
        assert len(splits) == len(prepared.splits)
        for i in splits:
            # the first design after a split is its eta fit's
            assert np.shares_memory(events[i + 1], events[i].features)

    def test_aware_fit_reads_the_split_without_a_copy(self):
        gen = np.random.default_rng(3)
        n, k = 25_000, 50
        dataset = Dataset(
            gen.normal(size=(n, k)),
            np.where(gen.random(n) < 0.5, 1.0, -1.0),
            np.where(gen.random(n) < 0.5, 1.0, -1.0),
        )
        _, train = fit_dp_transform(dataset, np.arange(20_000), 0.5, "sensitive")
        design_bytes = 20_000 * (k + 2) * 8
        with mock.patch.object(
            cpe_module, "_objective_and_grad", wraps=cpe_module._objective_and_grad
        ) as objective:
            tracemalloc.start()
            try:
                fit_estimator(train, "labels", ARITY_FEATURES_PLUS_SENSITIVE, FitConfig())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        fitted = objective.call_args.args[1]
        assert fitted.shape == (20_000, k + 2)
        assert np.shares_memory(train.features, fitted)
        assert np.shares_memory(train.sensitive, fitted)
        assert peak < design_bytes / 2

    @pytest.mark.parametrize("column", [None, "sensitive"])
    def test_the_buffer_is_read_only(self, column):
        _, train = fit_dp_transform(prepared_data().dataset, np.arange(50), 0.5, column)
        buffer = train.features.base
        for target in (train.features, buffer):
            with pytest.raises(ValueError, match="read-only"):
                target[0, 0] = 0.0
        if column is not None:
            with pytest.raises(ValueError, match="read-only"):
                getattr(train, column)[0] = 1.0
        assert np.all(buffer[:, -1] == 1.0)


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
        assert np.array_equal(table.hits[:, 0].T, expected)
        assert table.totals.tolist() == [list(totals)]


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
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_records_that_cannot_be_rewound_are_a_data_error(self, tmp_path):
        # A reader that opened the file twice split a pipe's records between
        # its two handles, or waited for a writer that had gone; the read runs
        # in a thread, so such a reader fails the test instead of hanging it.
        table = run_sweep(prepared_data(), small_grid(), DPAR_BLIND, math.inf, FitConfig(), seed=1)
        write_records_csv(table, tmp_path / "records.csv")
        text = (tmp_path / "records.csv").read_bytes()
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        outcome = []

        def feed():
            try:
                with open(pipe, "wb") as handle:
                    handle.write(text)
            except BrokenPipeError:
                pass

        def read():
            try:
                outcome.append(read_records_csv(pipe))
            except DataError as exc:
                outcome.append(exc)

        threads = [threading.Thread(target=target, daemon=True) for target in (feed, read)]
        for thread in threads:
            thread.start()
        threads[1].join(timeout=10)
        # free either side still blocked in open() once the other has gone
        for flags in (os.O_RDONLY, os.O_WRONLY):
            try:
                os.close(os.open(pipe, flags | os.O_NONBLOCK))
            except OSError:  # no reader left to open the pipe for
                pass
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], DataError)
        assert str(outcome[0]) == f"{pipe}: records input cannot be rewound; give a regular file"

    def test_records_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        table = table_of(
            [
                (0, -1.0, 0.3, 0.4, 3, 2, 2, 1, 4, 4, 4, 4),
                (1, -1.0, 0.3, 0.4, 0, 0, 0, 0, 4, 4, 0, 4),
            ]
        )
        write_records_csv(table, path)
        assert path.read_bytes() == (
            HEADER + "\r\n"
            "0,-1.0,0.3,0.4,0.625,0.25,,3,2,2,1,4,4,4,4\r\n"
            "1,-1.0,0.3,0.4,nan,nan," + FLAG_DEGENERATE + ",0,0,0,0,4,4,0,4\r\n"
        ).encode()
        assert_tables_equal(read_records_csv(path), table)

    def test_every_split_repeats_the_first_splits_grid_bits(self, tmp_path):
        # Split 2's -0.0 equals split 0's 0.0 in value only.
        path = tmp_path / "records.csv"
        row = "{},{},0.5,0.5,0.5,0.0,,1,1,1,1,2,2,2,2"
        lines = [row.format(split, lam) for split, lam in ((0, "0.0"), (1, "0.0"), (2, "-0.0"))]
        path.write_text(HEADER + "\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"csv:4: grid point differs from point 0 of split 0"):
            read_records_csv(path)

    def test_a_record_off_the_grid_names_its_record(self, tmp_path):
        # Split 1's second record is at lam = 7.25, on no point of split 0's grid.
        path = tmp_path / "records.csv"
        row = "{},{},0.5,0.5,0.5,0.0,,1,1,1,1,2,2,2,2"
        lines = [row.format(split, lam) for split, lam in ((0, -1), (0, 1), (1, -1), (1, 7.25))]
        path.write_text(HEADER + "\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"csv:5: grid point differs from point 1 of split 0"):
            read_records_csv(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize(
        "defect, message",
        [((7.25, "0.5"), "grid point differs from point 1 of split 0"),
         (("1", "0.75"), "bal_acc, violation or flags disagrees with the counts")],
    )
    def test_blank_lines_do_not_shift_the_named_line(self, tmp_path, end, defect, message):
        # Records 0-3 sit on lines 2, 4, 5 and 8; lines 3, 6 and 7 are blank.
        path = tmp_path / "records.csv"
        row = "{},{},0.5,0.5,{},0.0,,1,1,1,1,2,2,2,2"
        lines = [row.format(split, lam, "0.5") for split, lam in ((0, -1), (0, 1), (1, -1))]
        lines.append(row.format(1, *defect))
        text = end.join([HEADER, lines[0], "", lines[1], lines[2], "", "", lines[3], ""])
        path.write_text(text, newline="")
        with pytest.raises(DataError, match=rf"records\.csv:8: {message}"):
            read_records_csv(path)

    @pytest.mark.parametrize("record", [1, 3])
    def test_every_record_holds_its_splits_totals(self, tmp_path, record):
        path = tmp_path / "records.csv"
        row = "{},{},0.5,0.5,0.625,0.25,,3,2,2,1,4,4,4,{}"
        lines = [row.format(i // 2, i % 2, 5 if i == record else 4) for i in range(4)]
        path.write_text(HEADER + "\n" + "\n".join(lines) + "\n")
        split = record // 2
        with pytest.raises(
            DataError,
            match=rf"records\.csv:{record + 2}: totals differ from those of split {split}'s first",
        ):
            read_records_csv(path)

    def test_a_split_longer_than_the_first_is_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        row = "{},1.0,0.5,0.5,0.625,0.25,,3,2,2,1,4,4,4,4"
        path.write_text(HEADER + "\n" + "\n".join(row.format(s) for s in (0, 1, 1)) + "\n")
        with pytest.raises(DataError, match=r"csv:4: split 1 holds more records than split 0's 1"):
            read_records_csv(path)

    def test_a_short_last_split_is_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        row = "{},1.0,0.5,0.5,0.625,0.25,,3,2,2,1,4,4,4,4"
        path.write_text(HEADER + "\n" + "\n".join(row.format(s) for s in (0, 0, 1)) + "\n")
        with pytest.raises(DataError, match="split 1 holds 1 records, split 0 holds 2"):
            read_records_csv(path)

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
         b"x" * (2**20 - 1) + b"\r\nb\r\n", b"x" * 2**20 + b"\nb",
         b"x" * (2**21 - 1) + b"\r\nb", b"\n" * (2**20 + 1), b"\r" * 2**20 + b"\nx"],
    )
    def test_line_count_matches_text_mode(self, tmp_path, text):
        # The files over 1 MiB put a line end on a 1 MiB block boundary (a
        # \r\n cut by the first or the second), or end in a short block
        # after a full one, whose line ends the reused buffer still holds.
        path = tmp_path / "lines.txt"
        path.write_bytes(text)
        with open(path, encoding="utf-8") as handle, open(path, "rb", buffering=0) as raw:
            assert _count_lines(raw) == len(list(handle))

    def test_any_line_end_round_trips(self, tmp_path):
        path = tmp_path / "records.csv"
        rows = ["0,1.0,0.5,0.5,0.625,0.25,,3,2,2,1,4,4,4,4", "0,1.0,0.5,0.5,0.5,0.0,,2,2,1,1,4,4,4,4"]
        path.write_text(HEADER + "\r" + rows[0] + "\n" + rows[1] + "\r" + rows[0], newline="")
        table = read_records_csv(path)
        assert table.hits[0].tolist() == [[3, 2, 3]]

    def test_tradeoff_csv(self, tmp_path):
        curve = aggregate_curves([{0.5: 0.25}, {0.5: 0.75, 0.55: 0.5}], bin_width=0.05)
        path = tmp_path / "curve.csv"
        _write_tradeoff_csv(curve, path)
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
    hits = gen.integers(0, totals.T[:, :, None] + 1, size=(4, N_SPLITS, N_POINTS))
    hits[:, 3] = 0
    grid = default_grid()
    axes = np.meshgrid(grid.lam.values(), grid.c.values(), grid.c_bar.values(), indexing="ij")
    table = SweepTable(
        *(axis.ravel() for axis in axes), np.arange(N_SPLITS, dtype=np.int64), hits, totals
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
        with pytest.raises(DataError, match=rf"records\.csv:{self.RECORD + 2}: counts or split id"):
            read_records_csv(path)

    def test_metric_text_error_names_its_record(self, large_records, tmp_path):
        def wrong_bal_acc(cells):
            cells[4] = b"1.5"

        path = self.rewrite(large_records, tmp_path, wrong_bal_acc)
        line = self.RECORD + 2
        with pytest.raises(DataError, match=rf"records\.csv:{line}: bal_acc, violation or flags"):
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
        # Parsing the whole file into 15-field rows peaked at 2.7 tables of the
        # earlier twelve-column layout, 96 bytes a record against 32 here.
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
        # Stacking the eight count columns took 1.2 twelve-column tables.
        table = large_records[1]
        tracemalloc.start()
        try:
            _check_table(table, "large")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * column_bytes(table)
