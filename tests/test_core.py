"""Domain-type validation and empirical base-rate statistics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairplug import core as core_module
from fairplug.core import Dataset, DistStats, FairnessParams, _all_finite, compute_dist_stats
from fairplug.data import apply_dp_transform, fit_dp_transform
from fairplug.errors import DegenerateDataError, ValidationError


def make_dataset(labels, sensitive, label_scale=1.0):
    n = len(labels)
    return Dataset(
        features=np.arange(2 * n, dtype=float).reshape(n, 2),
        labels=np.array(labels, dtype=float),
        sensitive=np.array(sensitive, dtype=float),
        label_scale=label_scale,
    )


class TestDataset:
    def test_valid_construction_is_readonly(self):
        ds = make_dataset([1, -1, 1], [1, 1, -1])
        assert ds.n == 3 and ds.dim == 2
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0

    def test_caller_writeable_arrays_are_copied(self):
        features = np.zeros((2, 2))
        labels = np.array([1.0, -1.0])
        sensitive = np.array([1.0, 1.0])
        ds = Dataset(features, labels, sensitive)
        features[0, 0] = 5.0
        labels[0] = -1.0
        sensitive[1] = -1.0
        assert ds.features.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert ds.labels.tolist() == [1.0, -1.0]
        assert ds.sensitive.tolist() == [1.0, 1.0]

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        base = np.zeros((2, 2))
        view = base[:]
        view.setflags(write=False)
        ds = Dataset(view, np.ones(2), np.ones(2))
        base[1, 1] = 7.0
        assert ds.features[1, 1] == 0.0

    def test_read_only_arrays_a_caller_owns_are_copied(self):
        features = np.zeros((2, 2))
        features.setflags(write=False)
        ds = Dataset(features, np.ones(2), np.ones(2))
        features.setflags(write=True)
        features[0, 0] = 5.0
        assert ds.features is not features and ds.features[0, 0] == 0.0

    def test_subset_arrays_are_read_only_and_its_own(self):
        # Rows gathered from a dataset (the held-out map) own read-only arrays.
        ds = make_dataset([1, -1, 1], [1, -1, 1])
        transform, _ = fit_dp_transform(ds, [0, 1, 2], 0.5)
        sub = apply_dp_transform(transform, ds, [0, 1, 2])
        for name in ("features", "labels", "sensitive"):
            column = getattr(sub, name)
            assert not column.flags.writeable
            assert not np.shares_memory(column, getattr(ds, name))
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_adopt_checks_and_freezes_in_place(self):
        arrays = [np.zeros((2, 2)), np.ones(2), np.ones(2)]
        ds = Dataset._adopt(*arrays)
        assert ds.features is arrays[0] and ds.labels is arrays[1] and ds.sensitive is arrays[2]
        assert not any(array.flags.writeable for array in arrays)
        assert ds.label_scale == 1.0
        with pytest.raises(ValidationError, match="sensitive"):
            Dataset._adopt(np.zeros((2, 2)), np.ones(2), np.zeros(2))

    def test_adopt_checks_labels_against_the_given_scale(self):
        arrays = [np.zeros((2, 2)), np.array([0.5, -0.5]), np.ones(2)]
        assert Dataset._adopt(*arrays, 0.5).label_scale == 0.5
        with pytest.raises(ValidationError, match="labels"):
            Dataset._adopt(*arrays)
        with pytest.raises(ValidationError, match="non-finite"):
            Dataset._adopt(np.full((2, 2), np.inf), arrays[1], arrays[2], 0.5)

    def test_adopt_checks_finiteness_with_no_cell_sized_temporary(self):
        n, width = 31_500, 50
        arrays = [np.zeros((n, width)), np.ones(n), np.ones(n)]
        tracemalloc.start()
        try:
            Dataset._adopt(*arrays)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a per-cell finiteness mask alone would take n * width bytes
        assert peak <= n * width / 8

    @pytest.mark.parametrize("row", [0, 7, 19], ids=["first block", "second block", "last row"])
    def test_all_finite_finds_a_non_finite_entry_in_any_block(self, monkeypatch, row):
        monkeypatch.setattr(core_module, "_BLOCK_BYTES", 7 * 3 * 8)  # blocks of 7 rows
        features = np.arange(60.0).reshape(20, 3)
        assert _all_finite(features)
        for value in (np.inf, -np.inf, np.nan):
            features[row, 1] = value
            assert not _all_finite(features)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="mismatch"):
            Dataset(np.zeros((3, 2)), np.ones(2), np.ones(3))

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(ValidationError, match="2-D"):
            Dataset(np.zeros(3), np.ones(3), np.ones(3))

    def test_nonfinite_features_rejected(self):
        feats = np.zeros((2, 2))
        feats[1, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            Dataset(feats, np.ones(2), np.ones(2))

    def test_labels_must_match_scale(self):
        with pytest.raises(ValidationError, match="labels"):
            make_dataset([1, 0.5], [1, -1])
        ds = make_dataset([0.5, -0.5], [1, -1], label_scale=0.5)
        assert ds.label_scale == 0.5

    def test_sensitive_must_be_signs_even_under_rescaled_labels(self):
        with pytest.raises(ValidationError, match="sensitive"):
            make_dataset([0.5, -0.5], [0.5, -0.5], label_scale=0.5)


class TestDistStats:
    def test_bounds_enforced(self):
        DistStats(0.5, 0.5, 0.5)
        DistStats(1.0, 1.0, 1.0)
        for bad in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValidationError):
                DistStats(bad, 0.5, 0.5)


class TestFairnessParams:
    def test_lam_any_finite_real(self):
        assert FairnessParams(-10.0, 0.5, 0.5).lam == -10.0
        with pytest.raises(ValidationError, match="lam"):
            FairnessParams(float("inf"), 0.5, 0.5)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_costs_strictly_interior(self, bad):
        with pytest.raises(ValidationError):
            FairnessParams(1.0, bad, 0.5)
        with pytest.raises(ValidationError):
            FairnessParams(1.0, 0.5, bad)


class TestComputeDistStats:
    def test_hand_counts(self):
        # 6 rows: 3 positive labels, of which 2 in the positive group.
        ds = make_dataset([1, 1, 1, -1, -1, -1], [1, 1, -1, 1, -1, -1])
        stats = compute_dist_stats(ds)
        assert stats.pi == pytest.approx(0.5)
        assert stats.pi_bar == pytest.approx(0.5)
        assert stats.beta == pytest.approx(2.0 / 3.0)

    def test_rescaled_labels_count_by_sign(self):
        ds = make_dataset([0.5, 0.5, -0.5, -0.5], [1, -1, 1, -1], label_scale=0.5)
        stats = compute_dist_stats(ds)
        assert stats.pi == pytest.approx(0.5)

    def test_absent_label_class_is_degenerate(self):
        with pytest.raises(DegenerateDataError, match="pi ="):
            compute_dist_stats(make_dataset([1, 1], [1, -1]))

    def test_absent_group_is_degenerate(self):
        with pytest.raises(DegenerateDataError, match="pi_bar"):
            compute_dist_stats(make_dataset([1, -1], [1, 1]))

    def test_empty_positive_group_cell_is_degenerate(self):
        ds = make_dataset([1, 1, -1, -1], [-1, -1, 1, -1])
        with pytest.raises(DegenerateDataError, match="beta"):
            compute_dist_stats(ds)

    def test_non_dataset_input_rejected(self):
        with pytest.raises(ValidationError, match="Dataset"):
            compute_dist_stats("rows")

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=4, max_size=40))
    def test_matches_direct_counting(self, pairs):
        labels = [1.0 if a else -1.0 for a, _ in pairs]
        groups = [1.0 if b else -1.0 for _, b in pairs]
        n_pos = sum(1 for v in labels if v > 0)
        n_grp = sum(1 for v in groups if v > 0)
        n_both = sum(1 for y, g in zip(labels, groups) if y > 0 and g > 0)
        ds = make_dataset(labels, groups)
        if n_pos in (0, len(pairs)) or n_grp in (0, len(pairs)) or n_both in (0, n_pos):
            with pytest.raises(DegenerateDataError):
                compute_dist_stats(ds)
        else:
            stats = compute_dist_stats(ds)
            assert stats.pi == pytest.approx(n_pos / len(pairs))
            assert stats.pi_bar == pytest.approx(n_grp / len(pairs))
            assert stats.beta == pytest.approx(n_both / n_pos)
