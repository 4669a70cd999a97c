"""Output-perturbation privacy: calibration, draw audit, private pipeline."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fairplug.core import Dataset, FairnessParams, compute_dist_stats
from fairplug.cpe import (
    ARITY_FEATURES,
    ARITY_FEATURES_PLUS_LABEL,
    FitConfig,
    LinearCpe,
    fit_estimator,
)
from fairplug.errors import DegenerateDataError, NumericError, ValidationError
from fairplug.plugin import DPAR_AWARE, DPAR_BLIND, EO_BLIND, fit_plugin, score, with_params
from fairplug.privacy import (
    PrivatizedCpe,
    _check_joint_norms,
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
        # gamma is derived from the record's inputs, so it cannot disagree
        # with them: n * lambda_reg * eps_p / 2 exactly, lambda_reg read
        # from the fit.
        model = LinearCpe(
            weights=np.array([0.5, -1.0, 0.25]), lambda_reg=0.05, input_arity=ARITY_FEATURES
        )
        record = PrivatizedCpe(model, np.zeros(3), eps_p=2.0, n=400, seed=0)
        assert record.gamma == 400 * 0.05 * 2.0 / 2
        with pytest.raises(ValidationError, match="eps_p"):
            PrivatizedCpe(model, np.zeros(3), eps_p=0.0, n=400, seed=0)
        with pytest.raises(ValidationError, match="n must be"):
            PrivatizedCpe(model, np.zeros(3), eps_p=2.0, n=0, seed=0)


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

    @pytest.mark.parametrize("dim", [3, 51])
    def test_radius_and_direction_follow_the_noise_law(self, dim):
        # The density exp(-gamma ||b||) has a Gamma(dim, scale 1/gamma)
        # radius and a uniform direction, whose squared coordinate is
        # Beta(1/2, (dim - 1)/2); the seeds are fixed, so the p-values are too.
        gamma = 4.0
        draws = np.array([sample_noise(dim, gamma, seed=(dim, s)) for s in range(2000)])
        radius = np.linalg.norm(draws, axis=1)
        assert stats.kstest(radius, stats.gamma(dim, scale=1 / gamma).cdf).pvalue > 0.01
        squared = (draws[:, 0] / radius) ** 2
        assert stats.kstest(squared, stats.beta(0.5, (dim - 1) / 2).cdf).pvalue > 0.01

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
        w, w_prime = (
            fit_estimator(split, "sensitive", ARITY_FEATURES_PLUS_LABEL, config)
            for split in (d, d_prime)
        )
        assert w.converged and w_prime.converged
        moved = float(np.linalg.norm(w.weights - w_prime.weights))
        certified = (w.grad_norm + w_prime.grad_norm) / lambda_reg
        assert moved <= math.sqrt(2.0) / (d.n * lambda_reg) + certified
        assert math.sqrt(2.0) / (d.n * lambda_reg) <= 2.0 / (d.n * lambda_reg)


class TestPrivatize:
    def fitted_model(self, lambda_reg=0.05):
        train = bounded_dataset()
        config = FitConfig(lambda_reg=lambda_reg)
        return fit_estimator(train, "labels", ARITY_FEATURES, config), train.n

    def test_release_is_base_plus_noise(self):
        model, n = self.fitted_model()
        record = privatize(model, n, eps_p=2.0, seed=3)
        assert np.array_equal(record.private.weights, model.weights + record.noise)
        assert record.gamma == n * model.lambda_reg * 2.0 / 2
        assert (record.n, record.eps_p, record.seed) == (n, 2.0, 3)
        assert record.noise.size == model.weights.size
        assert np.array_equal(record.noise, sample_noise(model.weights.size, record.gamma, 3))
        assert record.private.input_arity == model.input_arity

    def test_deterministic_per_seed(self):
        model, n = self.fitted_model()
        a = privatize(model, n, eps_p=1.0, seed=9)
        b = privatize(model, n, eps_p=1.0, seed=9)
        assert np.array_equal(a.noise, b.noise)

    def test_unregularized_fit_rejected(self):
        model, n = self.fitted_model(lambda_reg=0.0)
        assert model.lambda_reg == 0.0
        with pytest.raises(ValidationError, match="unbounded sensitivity"):
            privatize(model, n, eps_p=1.0, seed=0)

    @pytest.mark.parametrize(
        "case, error, match",
        [
            ("eps_p zero", ValidationError, "eps_p"),
            ("eps_p negative", ValidationError, "eps_p"),
            ("eps_p nan", ValidationError, "eps_p"),
            ("n zero", ValidationError, "n must be"),
            ("lambda zero", ValidationError, "unbounded sensitivity"),
            ("unconverged", NumericError, "above its tolerance"),
        ],
    )
    def test_rejected_call_draws_no_noise(self, case, error, match):
        train = bounded_dataset()
        config = {
            "lambda zero": FitConfig(lambda_reg=0.0),
            "unconverged": FitConfig(lambda_reg=0.05, max_iters=1, tolerance=1e-12),
        }.get(case, FitConfig(lambda_reg=0.05))
        model = fit_estimator(train, "labels", ARITY_FEATURES, config)
        n = 0 if case == "n zero" else train.n
        eps_p = {"eps_p zero": 0.0, "eps_p negative": -1.0, "eps_p nan": math.nan}.get(case, 1.0)
        before = noise_draw_count()
        with pytest.raises(error, match=match):
            privatize(model, n, eps_p=eps_p, seed=0)
        assert noise_draw_count() == before


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

    def test_norm_check_builds_no_design_sized_temporary(self):
        n, width = 20_000, 50
        x = np.random.default_rng(9).uniform(-1.0, 1.0, size=(n, width)) / (2 * np.sqrt(width))
        train = Dataset(x, np.full(n, 0.5), np.ones(n), label_scale=0.5)
        tracemalloc.start()
        try:
            _check_joint_norms(train)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a few row-length vectors, not the (n, width) matrix of squares
        assert peak <= 8 * n * 8

    def test_one_draw_and_untouched_label_estimator(self):
        train = bounded_dataset()
        config = FitConfig(lambda_reg=0.05)
        before = noise_draw_count()
        rule = dp_plugin_pipeline(train, EO_BLIND, PARAMS, config, eps_p=1.0, seed=4)
        assert noise_draw_count() == before + 1
        # the label estimator never sees noise
        clean_eta = fit_estimator(train, "labels", ARITY_FEATURES, config)
        assert np.array_equal(rule.eta.weights, clean_eta.weights)
        # the sensitive estimator is base + noise, with the record attached
        record = rule.privacy
        assert record is not None
        assert np.array_equal(rule.eta_bar.weights, record.base.weights + record.noise)
        assert record.eps_p == 1.0 and record.n == train.n
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
        clean = fit_plugin(train, DPAR_BLIND, PARAMS, config)
        agree = np.mean(
            (score(private, train.features) > 0) == (score(clean, train.features) > 0)
        )
        assert agree >= 0.99


class TestNeighbouringPair:
    """Whether a private fit releases does not depend on one sensitive value.

    The first member's 50 training rows all lie in group +1; the second
    flips one row to -1, so the pair are neighbours under the guarantee.
    """

    @staticmethod
    def pair():
        base = bounded_dataset(n=50, seed=3)
        one_group = Dataset(base.features, base.labels, np.ones(base.n), base.label_scale)
        flipped = one_group.sensitive.copy()
        flipped[0] = -1.0
        neighbour = Dataset(base.features, base.labels, flipped, base.label_scale)
        return one_group, neighbour

    @pytest.mark.parametrize("setting", [EO_BLIND, DPAR_BLIND])
    def test_both_members_release(self, setting):
        config = FitConfig(lambda_reg=0.05)
        for train in self.pair():
            before = noise_draw_count()
            rule = dp_plugin_pipeline(train, setting, PARAMS, config, eps_p=1.0, seed=4)
            assert noise_draw_count() == before + 1
            assert rule.privacy.base.converged is True

    @pytest.mark.parametrize("setting", [EO_BLIND, DPAR_BLIND])
    def test_non_private_fit_still_needs_both_groups(self, setting):
        one_group, _ = self.pair()
        with pytest.raises(DegenerateDataError):
            fit_plugin(one_group, setting, PARAMS, FitConfig(lambda_reg=0.05))

    def test_unregularized_fit_is_rejected_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted")

        monkeypatch.setattr("fairplug.privacy.fit_estimator", no_fit)
        for train in self.pair():
            with pytest.raises(ValidationError, match="unbounded sensitivity"):
                dp_plugin_pipeline(train, EO_BLIND, PARAMS, FitConfig(lambda_reg=0.0), 1.0, 4)

    def test_private_prior_is_compute_dist_stats_pi(self):
        train = bounded_dataset()
        rule = dp_plugin_pipeline(train, EO_BLIND, PARAMS, FitConfig(lambda_reg=0.05), 1.0, 4)
        assert rule.pi_hat == compute_dist_stats(train).pi


def test_privatized_cpe_shape_checks():
    model = LinearCpe(
        weights=np.array([1.0, 0.0]), lambda_reg=0.05, input_arity=ARITY_FEATURES
    )
    with pytest.raises(ValidationError, match="shape"):
        PrivatizedCpe(base=model, noise=np.zeros(3), eps_p=1.0, n=100, seed=0)
