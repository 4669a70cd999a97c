"""Synthetic distributions, exact rules, and the experiment estimators."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairplug.core import FairnessParams
from fairplug.cpe import ARITY_FEATURES_PLUS_LABEL, ARITY_FEATURES_PLUS_SENSITIVE, FitConfig
from fairplug.errors import DataError, ValidationError
from fairplug.plugin import (
    DPAR_AWARE,
    DPAR_BLIND,
    EO_AWARE,
    EO_BLIND,
    SETTINGS,
    PlugInRule,
    criterion_for,
    fit_plugin,
    is_aware,
    is_eo,
    score,
)
from fairplug.synthetic import (
    COMPLEXITY_TARGETS,
    DiscreteLaw,
    RegretCurve,
    RegretPoint,
    SyntheticDistribution,
    TruncatedGaussianLaw,
    UniformBoxLaw,
    bayes_classifier,
    consistency_curve,
    estimate_regret,
    estimate_sample_complexity,
    frontier,
    law_dim,
    load_distribution,
    population,
    population_counts,
    quadrature,
    reference_dpar,
    reference_eo,
    sample,
    sample_x,
    save_distribution,
    tradeoff_gap,
    true_stats,
    write_curve_csv,
)

import oracles
from oracles import sigmoid

PARAMS = FairnessParams(lam=1.0, c=0.5, c_bar=0.5)


def two_atom_dist(label_weight=0.0):
    law = DiscreteLaw(points=np.array([[0.0], [1.0]]), masses=np.array([0.4, 0.6]))
    return SyntheticDistribution(
        law=law,
        w_eta=np.array([1.5, -0.5]),
        w_eta_bar=np.array([-1.0, label_weight, 0.8]),
    )


class TestFeatureLaws:
    def test_uniform_box_validation(self):
        UniformBoxLaw(lows=np.array([0.0]), highs=np.array([1.0]))
        with pytest.raises(ValidationError, match="strictly below"):
            UniformBoxLaw(lows=np.array([1.0]), highs=np.array([1.0]))
        with pytest.raises(ValidationError, match="length"):
            UniformBoxLaw(lows=np.array([0.0, 0.0]), highs=np.array([1.0]))

    def test_gaussian_validation(self):
        TruncatedGaussianLaw(
            mean=np.zeros(2), std=np.ones(2), lows=-np.ones(2), highs=np.ones(2)
        )
        with pytest.raises(ValidationError, match="std"):
            TruncatedGaussianLaw(
                mean=np.zeros(1), std=np.zeros(1), lows=-np.ones(1), highs=np.ones(1)
            )
        with pytest.raises(ValidationError, match="mass"):
            TruncatedGaussianLaw(
                mean=np.zeros(1),
                std=np.array([0.01]),
                lows=np.array([5.0]),
                highs=np.array([6.0]),
            )

    def test_discrete_validation(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            DiscreteLaw(points=np.array([[0.0], [1.0]]), masses=np.array([0.5, 0.6]))
        with pytest.raises(ValidationError, match="strictly positive"):
            DiscreteLaw(points=np.array([[0.0], [1.0]]), masses=np.array([0.0, 1.0]))

    def test_law_dim(self):
        assert law_dim(UniformBoxLaw(np.zeros(3), np.ones(3))) == 3
        with pytest.raises(ValidationError, match="unknown feature law"):
            law_dim(object())


class TestSampleX:
    def test_uniform_stays_in_box(self):
        law = UniformBoxLaw(lows=np.array([-2.0, 0.0]), highs=np.array([-1.0, 3.0]))
        x = sample_x(law, 500, np.random.default_rng(0))
        assert x.shape == (500, 2)
        assert np.all(x >= law.lows) and np.all(x <= law.highs)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 3, 1000])
    def test_uniform_matches_generator_uniform_bit_for_bit(self, seed, dim, n):
        gen = np.random.default_rng(seed + dim)
        lows = gen.normal(size=dim) * 10.0
        law = UniformBoxLaw(lows=lows, highs=lows + gen.uniform(1e-3, 20.0, size=dim))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        x = sample_x(law, n, rng)
        assert x.tobytes() == oracles.uniform_box(ref_rng, law.lows, law.highs, n).tobytes()
        # both leave the generator at the same state
        assert rng.random() == ref_rng.random()

    def test_uniform_box_width_must_be_finite(self):
        with pytest.raises(ValidationError, match="width must be finite"):
            UniformBoxLaw(lows=np.array([-1e308]), highs=np.array([1e308]))

    def test_gaussian_respects_truncation(self):
        law = TruncatedGaussianLaw(
            mean=np.zeros(2), std=np.ones(2), lows=-np.ones(2) * 0.5, highs=np.ones(2) * 0.5
        )
        x = sample_x(law, 400, np.random.default_rng(1))
        assert np.all(np.abs(x) <= 0.5)

    def test_discrete_hits_atoms_only(self):
        law = DiscreteLaw(points=np.array([[0.0, 1.0], [2.0, 3.0]]), masses=np.array([0.3, 0.7]))
        x = sample_x(law, 200, np.random.default_rng(2))
        assert all(row.tolist() in ([0.0, 1.0], [2.0, 3.0]) for row in x)

    def test_positive_count_required(self):
        law = UniformBoxLaw(np.zeros(1), np.ones(1))
        with pytest.raises(ValidationError, match="positive"):
            sample_x(law, 0, np.random.default_rng(0))


class TestQuadrature:
    def test_discrete_is_exact(self):
        law = DiscreteLaw(points=np.array([[0.0], [2.0]]), masses=np.array([0.25, 0.75]))
        nodes, weights = quadrature(law)
        assert np.array_equal(nodes, law.points)
        assert np.array_equal(weights, law.masses)

    def test_uniform_moments(self):
        law = UniformBoxLaw(lows=np.array([1.0, -1.0]), highs=np.array([3.0, 1.0]))
        nodes, weights = quadrature(law)
        assert weights.sum() == pytest.approx(1.0)
        assert weights @ nodes[:, 0] == pytest.approx(2.0, abs=1e-10)
        assert weights @ nodes[:, 0] ** 2 == pytest.approx((27 - 1) / 6.0, abs=1e-10)

    def test_gaussian_symmetric_mean(self):
        law = TruncatedGaussianLaw(
            mean=np.array([0.3]), std=np.array([0.5]), lows=np.array([-0.7]), highs=np.array([1.3])
        )
        nodes, weights = quadrature(law)
        assert weights.sum() == pytest.approx(1.0)
        assert weights @ nodes[:, 0] == pytest.approx(0.3, abs=1e-8)


class TestSyntheticDistribution:
    def test_weight_lengths(self):
        law = UniformBoxLaw(np.zeros(2), np.ones(2))
        with pytest.raises(ValidationError, match="w_eta"):
            SyntheticDistribution(law=law, w_eta=np.zeros(2), w_eta_bar=np.zeros(4))
        with pytest.raises(ValidationError, match="w_eta_bar"):
            SyntheticDistribution(law=law, w_eta=np.zeros(3), w_eta_bar=np.zeros(3))

    def test_regression_values(self):
        dist = two_atom_dist(label_weight=0.7)
        assert dist.eta(np.array([1.0])) == pytest.approx(sigmoid(1.0))
        assert dist.eta_bar_eo(np.array([1.0]), 1.0) == pytest.approx(sigmoid(-1.0 + 0.7 + 0.8))
        assert dist.eta_bar_eo(np.array([1.0]), -1.0) == pytest.approx(sigmoid(-1.0 - 0.7 + 0.8))
        assert dist.label_weight == 0.7
        assert not dist.supports_dpar

    def test_dpar_weights_derived(self):
        dist = two_atom_dist(label_weight=0.0)
        assert dist.supports_dpar
        assert dist.w_eta_bar_dpar.tolist() == [-1.0, 0.8]
        assert dist.eta_bar_dpar(np.array([0.0])) == pytest.approx(sigmoid(0.8))

    def test_dpar_query_needs_structure(self):
        dist = two_atom_dist(label_weight=0.7)
        with pytest.raises(ValidationError, match="mixture"):
            dist.eta_bar_dpar(np.array([0.0]))


class TestSampleAndStats:
    def test_sample_shapes_and_signs(self):
        dist = reference_eo()
        ds = sample(dist, 300, 4)
        assert ds.features.shape == (300, 2)
        assert set(np.unique(ds.labels)) <= {-1.0, 1.0}
        assert set(np.unique(ds.sensitive)) <= {-1.0, 1.0}

    def test_sample_deterministic(self):
        dist = reference_dpar()
        a = sample(dist, 100, 9)
        b = sample(dist, 100, 9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.sensitive, b.sensitive)

    def test_true_stats_hand_computed(self):
        dist = two_atom_dist(label_weight=0.7)
        eta = [sigmoid(-0.5), sigmoid(1.0)]
        bar_plus = [sigmoid(0.7 + 0.8), sigmoid(-1.0 + 0.7 + 0.8)]
        bar_minus = [sigmoid(-0.7 + 0.8), sigmoid(-1.0 - 0.7 + 0.8)]
        masses = [0.4, 0.6]
        pi = sum(m * e for m, e in zip(masses, eta))
        joint = sum(m * e * b for m, e, b in zip(masses, eta, bar_plus))
        pi_bar = joint + sum(m * (1 - e) * b for m, e, b in zip(masses, eta, bar_minus))
        stats = true_stats(dist)
        assert stats.pi == pytest.approx(pi, abs=1e-14)
        assert stats.pi_bar == pytest.approx(pi_bar, abs=1e-14)
        assert stats.beta == pytest.approx(joint / pi, abs=1e-14)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.sampled_from(range(3)))
    @settings(max_examples=60)
    def test_labels_and_logits_match_masked_select_oracle(self, seed, n, which):
        # The third law saturates both regression functions at exactly 0 and
        # 1, so every label is decided by a probability at the edge.
        saturated = SyntheticDistribution(
            law=DiscreteLaw(points=np.array([[-1.0], [0.0], [1.0]]), masses=np.ones(3) / 3),
            w_eta=np.array([900.0, 0.0]),
            w_eta_bar=np.array([-900.0, 0.5, 0.0]),
        )
        dist = (reference_eo(), reference_dpar(), saturated)[which]
        got = sample(dist, n, seed)
        rng = np.random.default_rng(seed)
        x = sample_x(dist.law, n, rng)
        y, ybar = oracles.sample_labels(rng, x, dist.eta, dist.eta_bar_eo)
        assert got.labels.tobytes() == y.tobytes()
        assert got.sensitive.tobytes() == ybar.tobytes()
        w, w_bar = dist.w_eta, dist.w_eta_bar
        assert dist.eta(x).tobytes() == sigmoid(x @ w[:-1] + w[-1]).tobytes()
        logits = x @ w_bar[:-2] + y * w_bar[-2] + w_bar[-1]
        assert dist.eta_bar_eo(x, y).tobytes() == sigmoid(logits).tobytes()
        if dist.supports_dpar:
            w_dpar = dist.w_eta_bar_dpar
            assert dist.eta_bar_dpar(x).tobytes() == sigmoid(x @ w_dpar[:-1] + w_dpar[-1]).tobytes()

    def test_sampled_prior_matches_quadrature(self):
        dist = reference_eo()
        ds = sample(dist, 40000, 12)
        empirical = float(np.mean(ds.labels > 0))
        assert empirical == pytest.approx(true_stats(dist).pi, abs=0.01)


class TestBayesClassifier:
    def test_eo_blind_uses_true_weights(self):
        dist = reference_eo()
        rule = bayes_classifier(dist, EO_BLIND, PARAMS)
        assert np.array_equal(rule.eta.weights, dist.w_eta)
        assert np.array_equal(rule.eta_bar.weights, dist.w_eta_bar)
        assert rule.eta_bar.input_arity == ARITY_FEATURES_PLUS_LABEL
        assert rule.pi_hat == pytest.approx(true_stats(dist).pi)

    def test_true_pi_override(self):
        rule = bayes_classifier(reference_eo(), EO_BLIND, PARAMS, true_pi=0.41)
        assert rule.pi_hat == 0.41

    def test_aware_weights_have_zero_group_slot(self):
        dist = reference_dpar()
        rule = bayes_classifier(dist, DPAR_AWARE, PARAMS)
        assert rule.eta.input_arity == ARITY_FEATURES_PLUS_SENSITIVE
        assert rule.eta.weights.tolist() == [2.0, -1.5, 0.0, 0.3]
        assert rule.eta_bar is None

    def test_dpar_rules_need_independence_structure(self):
        dist = reference_eo()
        for setting in (DPAR_BLIND, DPAR_AWARE, EO_AWARE):
            with pytest.raises(ValidationError, match="mixture"):
                bayes_classifier(dist, setting, PARAMS)

    def test_neutral_rule_thresholds_eta(self):
        dist = two_atom_dist(label_weight=0.0)
        rule = bayes_classifier(
            dist, EO_BLIND, FairnessParams(lam=0.0, c=0.5, c_bar=0.5)
        )
        preds = score(rule, dist.law.points) > 0
        etas = np.array([sigmoid(-0.5), sigmoid(1.0)])
        assert preds.tolist() == (etas > 0.5).tolist()


class TestMeasureAndRegret:
    def test_boc_regret_is_exactly_zero(self):
        dist = reference_eo()
        boc = bayes_classifier(dist, EO_BLIND, PARAMS)
        assert estimate_regret(boc, population(dist, 2000), EO_BLIND, PARAMS) == 0.0

    def test_bad_rule_has_positive_regret(self):
        dist = reference_eo()
        # the exact rule for a far higher label cost predicts +1 almost nowhere
        timid = bayes_classifier(dist, EO_BLIND, FairnessParams(lam=1.0, c=0.99, c_bar=0.5))
        got = estimate_regret(timid, population(dist, 20000), EO_BLIND, PARAMS)
        assert got > 0.01

    def test_measure_deterministic(self):
        dist = reference_dpar()
        unfair = bayes_classifier(dist, DPAR_BLIND, FairnessParams(lam=0.0, c=0.5, c_bar=0.5))
        a = estimate_regret(unfair, population(dist, 4000), DPAR_BLIND, PARAMS)
        b = estimate_regret(unfair, population(dist, 4000), DPAR_BLIND, PARAMS)
        assert a == b != 0.0

    def test_masses_integrate_to_the_true_priors(self):
        for dist in (reference_eo(), reference_dpar(), two_atom_dist(0.7)):
            pop = population(dist, 10_000)
            _, weights = quadrature(dist.law, 10_000)
            assert np.allclose(pop.masses.sum(axis=0), weights, rtol=1e-14, atol=0.0)
            stats = true_stats(dist)
            pp, np_, pm, _ = pop.totals
            assert pp + pm == pytest.approx(stats.pi, abs=1e-14)
            assert pp + np_ == pytest.approx(stats.pi_bar, abs=1e-14)
            assert pp / (pp + pm) == pytest.approx(stats.beta, abs=1e-14)

    def test_blind_masses_match_hand_computed_rates(self):
        # two atoms, label-dependent group: a rule positive on the second atom only
        dist = two_atom_dist(label_weight=0.7)
        rule = bayes_classifier(dist, EO_BLIND, FairnessParams(lam=0.0, c=0.5, c_bar=0.5))
        label, eo, dpar = population_counts(population(dist, 1), rule)
        eta, plus, minus = sigmoid(1.0), sigmoid(-1.0 + 0.7 + 0.8), sigmoid(-1.0 - 0.7 + 0.8)
        pi = 0.4 * sigmoid(-0.5) + 0.6 * eta
        assert float(label.tpr) == pytest.approx(0.6 * eta / pi, abs=1e-15)
        assert float(label.fpr) == pytest.approx(0.6 * (1 - eta) / (1 - pi), abs=1e-15)
        joint_plus = 0.4 * sigmoid(-0.5) * sigmoid(0.7 + 0.8) + 0.6 * eta * plus
        assert float(eo.tpr) == pytest.approx(0.6 * eta * plus / joint_plus, abs=1e-15)
        group_plus = joint_plus + 0.4 * (1 - sigmoid(-0.5)) * sigmoid(-0.7 + 0.8)
        group_plus += 0.6 * (1 - eta) * minus
        assert float(dpar.n_pos) == pytest.approx(group_plus, abs=1e-15)
        assert float(dpar.tpr) == pytest.approx(
            0.6 * (eta * plus + (1 - eta) * minus) / group_plus, abs=1e-15
        )

    @pytest.mark.parametrize(
        "name, setting, lam",
        [
            ("reference-eo", EO_BLIND, 1.0),
            ("reference-dpar", DPAR_BLIND, 1.0),
            ("reference-dpar", EO_AWARE, 1.0),
            ("reference-dpar", DPAR_AWARE, 0.3),
        ],
    )
    def test_quadrature_regret_matches_a_million_draws(self, name, setting, lam):
        dist = reference_eo() if name == "reference-eo" else reference_dpar()
        params = FairnessParams(lam=lam, c=0.5, c_bar=0.5)
        stats = true_stats(dist)
        boc = bayes_classifier(dist, setting, params, true_pi=stats.pi)
        rule = fit_plugin(sample(dist, 256, (0, 9)), setting, params, FitConfig())
        got = estimate_regret(rule, population(dist, 50_000), setting, params, stats=stats)
        m = 1_000_000
        draw = sample(dist, m, (0, 77))
        group = draw.sensitive if is_aware(setting) else None
        terms = [
            oracles.per_draw_psi(
                score(r, draw.features, group) > 0, draw.labels, draw.sensitive,
                criterion_for(setting), lam, 0.5, 0.5, stats.pi, stats.pi_bar, stats.beta,
            )
            for r in (boc, rule)
        ]
        per_draw = terms[0] - terms[1]
        mean, se = float(per_draw.mean()), float(per_draw.std()) / math.sqrt(m)
        assert got > 1e-4  # a rule that differs from the exact one somewhere
        assert abs(got - mean) <= 3.0 * se

    @given(
        st.sampled_from([("eo", EO_BLIND)] + [("dpar", s) for s in SETTINGS]),
        st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
        st.floats(0.2, 0.9),
        st.floats(-2.0, 2.0),
        st.floats(0.1, 0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_rule_beats_the_exact_rule(self, case, noise, pi_hat, lam, c):
        # a fitted rule with perturbed weights, prior and parameters, against
        # the exact rule at parameters where every setting's rule is nontrivial
        name, setting = case
        dist, rule = _PERTURBED_BASE[case]
        noise = np.array(noise)
        eta = replace(rule.eta, weights=rule.eta.weights + noise[: rule.eta.weights.size])
        eta_bar = rule.eta_bar
        if eta_bar is not None:
            eta_bar = replace(eta_bar, weights=eta_bar.weights + noise[-eta_bar.weights.size :])
        perturbed = PlugInRule(
            setting=setting, params=FairnessParams(lam=lam, c=c, c_bar=0.5), eta=eta,
            eta_bar=eta_bar, pi_hat=pi_hat if is_eo(setting) else None,
        )
        pop = _SMALL_POPULATION[name]
        measured = FairnessParams(lam=0.3, c=0.5, c_bar=0.5)
        assert estimate_regret(perturbed, pop, setting, measured) >= -1e-9


def _fitted_base(dist, setting):
    return dist, fit_plugin(sample(dist, 200, 3), setting, PARAMS, FitConfig())


_PERTURBED_BASE = {
    ("eo", EO_BLIND): _fitted_base(reference_eo(), EO_BLIND),
    **{("dpar", s): _fitted_base(reference_dpar(), s) for s in SETTINGS},
}
_SMALL_POPULATION = {"eo": population(reference_eo(), 2500), "dpar": population(reference_dpar(), 2500)}


class TestConsistencyCurve:
    def test_parallel_matches_serial(self):
        dist = reference_eo()
        kwargs = dict(
            n_schedule=(64,), trials=4, m_eval=400, seed=6
        )
        serial = consistency_curve(dist, EO_BLIND, PARAMS, jobs=1, **kwargs)
        parallel = consistency_curve(dist, EO_BLIND, PARAMS, jobs=2, **kwargs)
        assert serial.points == parallel.points

    def test_schedule_validation(self):
        dist = reference_eo()
        with pytest.raises(ValidationError, match="positive sizes"):
            consistency_curve(dist, EO_BLIND, PARAMS, n_schedule=(), trials=1, m_eval=10, seed=0)
        with pytest.raises(ValidationError, match="trials"):
            consistency_curve(
                dist, EO_BLIND, PARAMS, n_schedule=(16,), trials=0, m_eval=10, seed=0
            )
        with pytest.raises(ValidationError, match="strictly increasing"):
            RegretCurve(
                points=(
                    RegretPoint(n=16, mean_regret=0.0, std_regret=0.0, trials=1),
                    RegretPoint(n=16, mean_regret=0.0, std_regret=0.0, trials=1),
                )
            )

    def test_hopeless_distribution_reports_data_error(self):
        law = UniformBoxLaw(np.zeros(1), np.ones(1))
        dist = SyntheticDistribution(
            law=law, w_eta=np.array([0.0, -40.0]), w_eta_bar=np.array([0.0, 0.0, 0.0])
        )
        with pytest.raises(DataError, match="non-degenerate"):
            consistency_curve(
                dist, EO_BLIND, PARAMS, n_schedule=(8,), trials=1, m_eval=50, seed=0
            )


class TestFrontierAndGap:
    def test_frontier_zero_at_neutral_strength(self):
        dist = reference_eo()
        assert frontier(dist, 0.0, PARAMS, 5000) == 0.0

    def test_frontier_positive_under_constraint(self):
        dist = reference_eo()
        value = frontier(dist, 1.0, PARAMS, 50000)
        assert value > 0.01

    def test_frontier_deterministic(self):
        dist = reference_eo()
        assert frontier(dist, 1.0, PARAMS, 3000) == frontier(dist, 1.0, PARAMS, 3000)

    def test_frontier_is_the_exact_rules_cost_integral(self):
        # E[(c - eta) (f_lam - 1{eta > c})] on the same nodes, written out
        dist = reference_eo()
        stats = true_stats(dist)
        nodes, weights = quadrature(dist.law, 20_000)
        boc = bayes_classifier(dist, EO_BLIND, PARAMS, true_pi=stats.pi)
        eta = dist.eta(nodes)
        integrand = (PARAMS.c - eta) * ((score(boc, nodes) > 0) - (eta > PARAMS.c).astype(float))
        assert frontier(dist, 1.0, PARAMS, 20_000) == pytest.approx(
            float(weights @ integrand), abs=1e-12
        )

    def test_tradeoff_gap_structure(self):
        dist = reference_eo()
        result = tradeoff_gap(dist, 1.0, PARAMS, n=256, trials=3, m_eval=2000, seed=4)
        assert result.n == 256 and result.trials == 3
        assert result.gap >= 0.0 and result.gap_std >= 0.0
        assert result.excess == pytest.approx(result.gap - result.frontier)
        assert result.frontier == frontier(dist, 1.0, PARAMS, 2000)

    def test_tradeoff_gap_validation(self):
        with pytest.raises(ValidationError, match="positive"):
            tradeoff_gap(reference_eo(), 1.0, PARAMS, n=0, trials=3, m_eval=100, seed=0)


class TestSampleComplexity:
    def test_easy_target_stops_at_start(self):
        result = estimate_sample_complexity(
            reference_eo(),
            target=(0.45, 0.45),
            delta=0.5,
            trials=2,
            seed=3,
            start=32,
            cap=128,
            m_check=400,
        )
        assert result.converged
        assert result.n == 32
        assert result.probes[0][0] == 32

    def test_impossible_target_hits_cap(self):
        result = estimate_sample_complexity(
            reference_eo(),
            target=(0.0005, 0.0005),
            delta=0.1,
            trials=2,
            seed=3,
            start=32,
            cap=64,
            m_check=400,
        )
        assert not result.converged
        assert result.n == 64
        assert [n for n, _ in result.probes] == [32, 64]

    def test_parallel_matches_serial(self):
        kwargs = dict(
            target=(0.05, 0.1), delta=0.2, trials=3, seed=4, start=32, cap=256, m_check=400
        )
        for which in ("eta", "eta_bar_eo"):
            serial = estimate_sample_complexity(reference_eo(), which=which, jobs=1, **kwargs)
            parallel = estimate_sample_complexity(reference_eo(), which=which, jobs=2, **kwargs)
            assert serial == parallel
            assert len(serial.probes) > 1

    def test_input_validation(self):
        dist = reference_eo()
        with pytest.raises(ValidationError, match="which"):
            estimate_sample_complexity(dist, (0.1, 0.1), 0.2, 1, 0, which="eta_hat")
        with pytest.raises(ValidationError, match="target"):
            estimate_sample_complexity(dist, (0.0, 0.1), 0.2, 1, 0)
        with pytest.raises(ValidationError, match="mixture"):
            estimate_sample_complexity(dist, (0.1, 0.1), 0.2, 1, 0, which="eta_bar_dpar")
        assert COMPLEXITY_TARGETS == ("eta", "eta_bar_eo", "eta_bar_dpar")


class TestReferenceDistributions:
    def test_eo_reference_shape(self):
        dist = reference_eo()
        assert dist.dim == 2
        assert not dist.supports_dpar
        stats = true_stats(dist)
        assert 0.0 < stats.pi < 1.0 and 0.0 < stats.beta < 1.0

    def test_dpar_reference_shape(self):
        dist = reference_dpar()
        assert dist.supports_dpar
        assert dist.w_eta_bar_dpar.tolist() == [-1.0, 1.4, 0.2]


class TestPersistence:
    def test_round_trip_uniform(self, tmp_path):
        dist = reference_eo()
        path = tmp_path / "dist.kv"
        save_distribution(dist, path)
        loaded = load_distribution(path)
        assert isinstance(loaded.law, UniformBoxLaw)
        assert np.array_equal(loaded.law.lows, dist.law.lows)
        assert np.array_equal(loaded.w_eta, dist.w_eta)
        assert np.array_equal(loaded.w_eta_bar, dist.w_eta_bar)

    def test_round_trip_gaussian(self, tmp_path):
        law = TruncatedGaussianLaw(
            mean=np.array([0.1, -0.2]),
            std=np.array([0.5, 1.5]),
            lows=np.array([-2.0, -3.0]),
            highs=np.array([2.0, 3.0]),
        )
        dist = SyntheticDistribution(
            law=law, w_eta=np.array([1.0, -1.0, 0.0]), w_eta_bar=np.array([0.5, 0.5, 0.0, 0.1])
        )
        path = tmp_path / "dist.kv"
        save_distribution(dist, path)
        loaded = load_distribution(path)
        assert isinstance(loaded.law, TruncatedGaussianLaw)
        assert np.array_equal(loaded.law.std, law.std)

    def test_round_trip_discrete(self, tmp_path):
        dist = two_atom_dist()
        path = tmp_path / "dist.kv"
        save_distribution(dist, path)
        loaded = load_distribution(path)
        assert isinstance(loaded.law, DiscreteLaw)
        assert np.array_equal(loaded.law.points, dist.law.points)
        assert np.array_equal(loaded.law.masses, dist.law.masses)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "broken.kv"
        path.write_text("law = uniform-box\nlows = 0\nhighs = 1\nw_eta = 1 0\n")
        with pytest.raises(DataError, match="missing distribution field"):
            load_distribution(path)

    def test_unknown_law_tag(self, tmp_path):
        path = tmp_path / "broken.kv"
        path.write_text("law = categorical\nw_eta = 1 0\nw_eta_bar = 1 0 0\n")
        with pytest.raises(DataError, match="unknown law tag"):
            load_distribution(path)


def test_write_curve_csv(tmp_path):
    curve = RegretCurve(
        points=(
            RegretPoint(n=16, mean_regret=0.25, std_regret=0.1, trials=5),
            RegretPoint(n=64, mean_regret=0.0625, std_regret=0.05, trials=5),
        ),
        resamples=1,
    )
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,mean,std,trials"
    assert lines[1] == "16,0.25,0.1,5"
    assert len(lines) == 3
