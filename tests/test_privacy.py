"""Output-perturbation privacy: calibration, draw audit, private pipeline."""

import math

import numpy as np
import pytest

from fairplug.core import Dataset, FairnessParams
from fairplug.cpe import ARITY_FEATURES, FitConfig, LinearCpe, fit_eta, fit_eta_bar_eo
from fairplug.errors import NumericError, ValidationError
from fairplug.plugin import DPAR_AWARE, DPAR_BLIND, EO_BLIND, classify, with_params
from fairplug.privacy import (
    PrivacyBudget,
    PrivatizedCpe,
    dp_plugin_pipeline,
    noise_draw_count,
    privatize,
    sample_noise,
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


class TestAdversarialNeighbour:
    @pytest.mark.parametrize("lambda_reg", [1e-3, 0.05, 1.0])
    def test_one_flipped_sensitive_attribute_stays_within_sensitivity(self, lambda_reg):
        base = bounded_dataset(n=200)
        # Row 0 gets joint feature-label norm exactly 1, so its design row
        # [x, y, 1] has the largest possible norm, sqrt(2).
        features = base.features.copy()
        features[0] = np.sqrt(1.0 - 0.5**2) * np.array([0.6, 0.8])
        flipped = base.sensitive.copy()
        flipped[0] = -flipped[0]
        d = Dataset(features, base.labels, base.sensitive, label_scale=0.5)
        d_prime = Dataset(features, base.labels, flipped, label_scale=0.5)
        config = FitConfig(lambda_reg=lambda_reg, tolerance=1e-12)
        w, w_prime = fit_eta_bar_eo(d, config), fit_eta_bar_eo(d_prime, config)
        assert w.converged and w_prime.converged
        moved = float(np.linalg.norm(w.weights - w_prime.weights))
        certified = (w.grad_norm + w_prime.grad_norm) / lambda_reg
        assert moved <= math.sqrt(2.0) / (d.n * lambda_reg) + certified
        assert math.sqrt(2.0) / (d.n * lambda_reg) <= 2.0 / (d.n * lambda_reg)


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

    def test_unconverged_fit_rejected(self):
        train = bounded_dataset()
        config = FitConfig(max_iters=1, tolerance=1e-12)
        with pytest.raises(NumericError, match="above its tolerance"):
            dp_plugin_pipeline(train, EO_BLIND, PARAMS, config, eps_p=1.0, seed=0)

    def test_norm_bound_enforced(self):
        gen = np.random.default_rng(2)
        x = gen.uniform(-2.0, 2.0, size=(200, 2))
        labels = np.where(gen.random(200) < 0.5, 1.0, -1.0)
        sensitive = np.where(gen.random(200) < 0.5, 1.0, -1.0)
        big = Dataset(x, labels, sensitive)
        with pytest.raises(ValidationError, match="norm-bounding"):
            dp_plugin_pipeline(big, DPAR_BLIND, PARAMS, FitConfig(), eps_p=1.0, seed=0)

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

    def test_released_estimator_has_no_fit_record(self):
        # The noisy weights sit away from the fit, so the fit's certificate
        # belongs to the base estimator only.
        rule = dp_plugin_pipeline(
            bounded_dataset(), EO_BLIND, PARAMS, FitConfig(lambda_reg=0.05), eps_p=1.0, seed=4
        )
        released = rule.eta_bar
        assert released.converged is None
        assert released.grad_norm is None and released.n_iters is None
        assert rule.privacy.base.converged is True
        assert released.lambda_reg == rule.privacy.base.lambda_reg

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
