"""Output-perturbation privacy: calibration, draw audit, private pipeline."""

import logging

import numpy as np
import pytest

from fairplug.core import Dataset, FairnessParams
from fairplug.cpe import ARITY_FEATURES, FitConfig, LinearCpe, fit_eta
from fairplug.errors import DataError, ValidationError
from fairplug.plugin import DPAR_AWARE, DPAR_BLIND, EO_BLIND, classify, with_params
from fairplug.privacy import (
    PrivacyBudget,
    PrivatizedCpe,
    dp_plugin_pipeline,
    load_privatized,
    noise_draw_count,
    privatize,
    sample_noise,
    save_privatized,
    sensitivity_bound,
)

PARAMS = FairnessParams(lam=1.0, c=0.5, c_bar=0.5)


def bounded_dataset(n=400, seed=17, label_scale=0.5):
    """Rows whose joint feature-label norm stays below 1."""
    gen = np.random.default_rng(seed)
    x = gen.uniform(-0.4, 0.4, size=(n, 2))
    labels = np.where(gen.random(n) < 1.0 / (1.0 + np.exp(-4 * x[:, 0])), 1.0, -1.0)
    sensitive = np.where(gen.random(n) < 1.0 / (1.0 + np.exp(-4 * x[:, 1])), 1.0, -1.0)
    return Dataset(x, labels * label_scale, sensitive, label_scale=label_scale)


class TestGuaranteeAndBudget:
    def test_budget_rate_invariant(self):
        PrivacyBudget(eps_p=2.0, gamma=400 * 0.05 * 2.0 / 2.0, dim=3, n=400, lambda_reg=0.05)
        with pytest.raises(ValidationError, match="gamma must equal"):
            PrivacyBudget(eps_p=2.0, gamma=1.0, dim=3, n=400, lambda_reg=0.05)
        with pytest.raises(ValidationError, match="positive integers"):
            PrivacyBudget(eps_p=2.0, gamma=0.05, dim=0, n=400, lambda_reg=0.05)


def test_sensitivity_bound():
    assert sensitivity_bound(100, 0.05) == pytest.approx(2.0 / 5.0)
    with pytest.raises(ValidationError, match="lambda_reg"):
        sensitivity_bound(100, 0.0)


class TestSampleNoise:
    def test_deterministic_and_counted(self):
        before = noise_draw_count()
        a = sample_noise(3, 10.0, seed=5)
        b = sample_noise(3, 10.0, seed=5)
        assert noise_draw_count() == before + 2
        assert np.array_equal(a, b)
        assert a.shape == (3,)

    def test_mean_norm_tracks_dim_over_gamma(self):
        norms = [np.linalg.norm(sample_noise(3, 10.0, seed=s)) for s in range(2000)]
        assert np.mean(norms) == pytest.approx(0.3, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValidationError, match="dim"):
            sample_noise(0, 1.0, seed=0)
        with pytest.raises(ValidationError, match="gamma"):
            sample_noise(2, 0.0, seed=0)


class TestPrivatize:
    def fitted_model(self, lambda_reg=0.05):
        train = bounded_dataset()
        return fit_eta(train, FitConfig(lambda_reg=lambda_reg)), train.n

    def test_release_is_base_plus_noise(self):
        model, n = self.fitted_model()
        record = privatize(model, n, 0.05, eps_p=2.0, seed=3)
        assert np.array_equal(record.private.weights, model.weights + record.noise)
        assert record.budget.gamma == pytest.approx(n * 0.05 * 2.0 / 2.0)
        assert record.private.input_arity == model.input_arity

    def test_deterministic_per_seed(self):
        model, n = self.fitted_model()
        a = privatize(model, n, 0.05, eps_p=1.0, seed=9)
        b = privatize(model, n, 0.05, eps_p=1.0, seed=9)
        assert np.array_equal(a.noise, b.noise)

    def test_strength_must_match_fit(self):
        model, n = self.fitted_model(lambda_reg=0.05)
        with pytest.raises(ValidationError, match="fitted with"):
            privatize(model, n, 0.01, eps_p=1.0, seed=0)

    def test_unregularized_fit_rejected(self):
        model, n = self.fitted_model(lambda_reg=0.05)
        with pytest.raises(ValidationError, match="unbounded sensitivity"):
            privatize(model, n, 0.0, eps_p=1.0, seed=0)


class TestPipeline:
    def test_blind_settings_only(self):
        train = bounded_dataset()
        with pytest.raises(ValidationError, match="blind settings only"):
            dp_plugin_pipeline(train, DPAR_AWARE, PARAMS, FitConfig(), eps_p=1.0, seed=0)

    def test_intercept_regularization_required(self):
        train = bounded_dataset()
        with pytest.raises(ValidationError, match="intercept"):
            dp_plugin_pipeline(
                train,
                EO_BLIND,
                PARAMS,
                FitConfig(regularize_intercept=False),
                eps_p=1.0,
                seed=0,
            )

    def test_norm_bound_enforced_but_waivable(self, caplog):
        gen = np.random.default_rng(2)
        x = gen.uniform(-2.0, 2.0, size=(200, 2))
        labels = np.where(gen.random(200) < 0.5, 1.0, -1.0)
        sensitive = np.where(gen.random(200) < 0.5, 1.0, -1.0)
        big = Dataset(x, labels, sensitive)
        with pytest.raises(ValidationError, match="norm-bounding"):
            dp_plugin_pipeline(big, DPAR_BLIND, PARAMS, FitConfig(), eps_p=1.0, seed=0)
        with caplog.at_level(logging.WARNING, logger="fairplug.privacy"):
            rule = dp_plugin_pipeline(
                big, DPAR_BLIND, PARAMS, FitConfig(), eps_p=1.0, seed=0,
                require_norm_bound=False,
            )
        assert rule.privacy is not None
        assert any("norm-bound check skipped" in r.message for r in caplog.records)

    def test_one_draw_and_untouched_label_estimator(self):
        train = bounded_dataset()
        config = FitConfig(lambda_reg=0.05)
        before = noise_draw_count()
        rule = dp_plugin_pipeline(train, EO_BLIND, PARAMS, config, eps_p=1.0, seed=4)
        assert noise_draw_count() == before + 1
        # the label estimator never sees noise
        clean_eta = fit_eta(train, config)
        assert np.array_equal(rule.eta.weights, clean_eta.weights)
        # the sensitive estimator is base + noise, with the record attached
        record = rule.privacy
        assert record is not None
        assert np.array_equal(rule.eta_bar.weights, record.base.weights + record.noise)
        assert record.budget.eps_p == 1.0
        assert rule.positive_label == train.label_scale

    def test_reassembly_is_noise_free(self):
        train = bounded_dataset()
        rule = dp_plugin_pipeline(
            train, DPAR_BLIND, PARAMS, FitConfig(lambda_reg=0.05), eps_p=1.0, seed=4
        )
        before = noise_draw_count()
        grid = [
            with_params(rule, FairnessParams(lam=l, c=c, c_bar=0.5))
            for l in (-1.0, 0.0, 1.0)
            for c in (0.3, 0.5, 0.7)
        ]
        assert noise_draw_count() == before
        assert all(g.privacy is rule.privacy for g in grid)

    def test_huge_budget_recovers_non_private_decisions(self):
        train = bounded_dataset(n=600)
        config = FitConfig(lambda_reg=0.05)
        private = dp_plugin_pipeline(train, DPAR_BLIND, PARAMS, config, eps_p=1e9, seed=4)
        from fairplug.plugin import fit_plugin

        clean = fit_plugin(train, DPAR_BLIND, PARAMS, config)
        agree = np.mean(
            classify(private, train.features) == classify(clean, train.features)
        )
        assert agree >= 0.99


class TestPersistence:
    def test_round_trip(self, tmp_path):
        model = LinearCpe(
            weights=np.array([0.5, -0.25, 0.125]), lambda_reg=0.05, input_arity=ARITY_FEATURES
        )
        record = privatize(model, 300, 0.05, eps_p=2.0, seed=6)
        path = tmp_path / "private.kv"
        save_privatized(record, path)
        loaded = load_privatized(path)
        assert np.array_equal(loaded.base.weights, record.base.weights)
        assert np.array_equal(loaded.noise, record.noise)
        assert loaded.budget == record.budget
        assert loaded.seed == record.seed
        assert np.array_equal(loaded.private.weights, record.private.weights)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "broken.kv"
        path.write_text("arity = features-only\nlambda_reg = 0.05\n")
        with pytest.raises(DataError, match="missing privatized-estimator"):
            load_privatized(path)


def test_privatized_cpe_shape_checks():
    model = LinearCpe(
        weights=np.array([1.0, 0.0]), lambda_reg=0.05, input_arity=ARITY_FEATURES
    )
    budget = PrivacyBudget(eps_p=1.0, gamma=100 * 0.05 * 1.0 / 2.0, dim=2, n=100, lambda_reg=0.05)
    with pytest.raises(ValidationError, match="shape"):
        PrivatizedCpe(base=model, noise=np.zeros(3), budget=budget, seed=0)
    bad_budget = PrivacyBudget(
        eps_p=1.0, gamma=100 * 0.05 * 1.0 / 2.0, dim=3, n=100, lambda_reg=0.05
    )
    with pytest.raises(ValidationError, match="dim"):
        PrivatizedCpe(base=model, noise=np.zeros(2), budget=bad_budget, seed=0)
