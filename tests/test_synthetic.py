"""Synthetic distributions, exact rules, and the experiment estimators."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairplug import synthetic
from fairplug.core import FairnessParams
from fairplug.cpe import (
    ARITY_FEATURES,
    ARITY_FEATURES_PLUS_LABEL,
    ARITY_FEATURES_PLUS_SENSITIVE,
    FitConfig,
    fit_estimator,
    predict_proba,
)
from fairplug.errors import DataError, ValidationError
from fairplug.plugin import (
    DPAR_AWARE,
    DPAR_BLIND,
    EO_AWARE,
    EO_BLIND,
    SETTINGS,
    PlugInRule,
    coordinates,
    criterion_for,
    fit_plugin,
    is_aware,
    is_eo,
    score,
)
from fairplug.synthetic import (
    COMPLEXITY_TARGETS,
    DiscreteLaw,
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
    tradeoff_gap,
    true_stats,
)

import oracles
from conftest import write_distribution
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
        nodes, weights = quadrature(law, 1)
        assert np.array_equal(nodes, law.points)
        assert np.array_equal(weights, law.masses)

    def test_uniform_moments(self):
        law = UniformBoxLaw(lows=np.array([1.0, -1.0]), highs=np.array([3.0, 1.0]))
        nodes, weights = quadrature(law, 10_000)
        assert weights.sum() == pytest.approx(1.0)
        assert weights @ nodes[:, 0] == pytest.approx(2.0, abs=1e-10)
        assert weights @ nodes[:, 0] ** 2 == pytest.approx((27 - 1) / 6.0, abs=1e-10)

    def test_gaussian_symmetric_mean(self):
        law = TruncatedGaussianLaw(
            mean=np.array([0.3]), std=np.array([0.5]), lows=np.array([-0.7]), highs=np.array([1.3])
        )
        nodes, weights = quadrature(law, 1000)
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
        x = np.array([1.0])
        assert predict_proba(dist.eta, x) == pytest.approx(sigmoid(1.0))
        assert predict_proba(dist.eta_bar, x, 1.0) == pytest.approx(sigmoid(-1.0 + 0.7 + 0.8))
        assert predict_proba(dist.eta_bar, x, -1.0) == pytest.approx(sigmoid(-1.0 - 0.7 + 0.8))
        assert dist.w_eta_bar[-2] == 0.7

    def test_true_models_are_unregularized_and_tagged(self):
        dist = two_atom_dist(label_weight=0.0)
        models = (dist.eta, dist.eta_bar, dist.require_eta_bar_dpar())
        arities = (ARITY_FEATURES, ARITY_FEATURES_PLUS_LABEL, ARITY_FEATURES)
        weights = ([1.5, -0.5], [-1.0, 0.0, 0.8], [-1.0, 0.8])
        for model, arity, w in zip(models, arities, weights):
            assert model.lambda_reg == 0.0 and model.input_arity == arity
            assert model.weights.tolist() == w

    def test_dpar_weights_derived(self):
        dist = two_atom_dist(label_weight=0.0)
        dpar = dist.require_eta_bar_dpar()
        assert dpar.weights.tolist() == [-1.0, 0.8]
        assert predict_proba(dpar, np.array([0.0])) == pytest.approx(sigmoid(0.8))

    def test_dpar_query_needs_structure(self):
        dist = two_atom_dist(label_weight=0.7)
        with pytest.raises(ValidationError, match="mixture"):
            dist.require_eta_bar_dpar()


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
        y, ybar = oracles.sample_labels(rng, x, dist)
        assert got.labels.tobytes() == y.tobytes()
        assert got.sensitive.tobytes() == ybar.tobytes()
        assert predict_proba(dist.eta, x).tobytes() == oracles.true_eta(dist, x).tobytes()
        eta_bar = predict_proba(dist.eta_bar, x, y)
        assert eta_bar.tobytes() == oracles.true_eta_bar(dist, x, y).tobytes()
        if dist.w_eta_bar[-2] == 0.0:
            w_dpar = np.delete(dist.w_eta_bar, -2)
            dpar = predict_proba(dist.require_eta_bar_dpar(), x)
            assert dpar.tobytes() == sigmoid(x @ w_dpar[:-1] + w_dpar[-1]).tobytes()

    @pytest.mark.parametrize("name", ["reference-eo", "reference-dpar", "5-d box"])
    def test_true_stats_is_the_weighted_sum_on_200k_nodes(self, name):
        # bit for bit the priors of a 200k-node quadrature, as the weighted
        # sums of the regression functions the oracle writes out
        if name == "5-d box":
            dist = SyntheticDistribution(
                law=UniformBoxLaw(-np.ones(5), np.ones(5)),
                w_eta=np.array([1.0, -0.5, 0.25, 0.8, -1.2, 0.1]),
                w_eta_bar=np.array([0.3, -0.7, 0.9, 0.2, -0.4, 0.6, -0.2]),
            )
        else:
            dist = reference_eo() if name == "reference-eo" else reference_dpar()
        nodes, weights = quadrature(dist.law, 200_000)
        expected = oracles.quadrature_priors(dist, nodes, weights)
        stats = true_stats(dist)
        assert (stats.pi, stats.pi_bar, stats.beta) == expected

    @pytest.mark.parametrize("budget", [1, 400, 20_000])
    def test_population_priors_are_integrated_on_its_own_nodes(self, budget):
        for dist in (reference_eo(), two_atom_dist(0.7)):
            pop = population(dist, budget)
            stats = pop.stats
            assert (stats.pi, stats.pi_bar, stats.beta) == oracles.quadrature_priors(
                dist, pop.nodes, pop.weights
            )

    def test_a_law_without_positive_labels_has_no_priors(self):
        dist = SyntheticDistribution(
            law=UniformBoxLaw(np.zeros(1), np.ones(1)),
            w_eta=np.array([0.0, -800.0]),
            w_eta_bar=np.array([0.0, 0.0, 0.0]),
        )
        with pytest.raises(ValidationError, match="pi"):
            population(dist, 100)

    def test_sampled_prior_matches_quadrature(self):
        dist = reference_eo()
        ds = sample(dist, 40000, 12)
        empirical = float(np.mean(ds.labels > 0))
        assert empirical == pytest.approx(true_stats(dist).pi, abs=0.01)


class TestBayesClassifier:
    def test_eo_blind_uses_true_weights(self):
        dist = reference_eo()
        rule = bayes_classifier(dist, EO_BLIND, PARAMS, true_stats(dist).pi)
        assert np.array_equal(rule.eta.weights, dist.w_eta)
        assert np.array_equal(rule.eta_bar.weights, dist.w_eta_bar)
        assert rule.eta_bar.input_arity == ARITY_FEATURES_PLUS_LABEL
        assert rule.pi_hat == pytest.approx(true_stats(dist).pi)

    def test_true_pi_override(self):
        rule = bayes_classifier(reference_eo(), EO_BLIND, PARAMS, true_pi=0.41)
        assert rule.pi_hat == 0.41

    def test_aware_weights_have_zero_group_slot(self):
        dist = reference_dpar()
        rule = bayes_classifier(dist, DPAR_AWARE, PARAMS, true_stats(dist).pi)
        assert rule.eta.input_arity == ARITY_FEATURES_PLUS_SENSITIVE
        assert rule.eta.weights.tolist() == [2.0, -1.5, 0.0, 0.3]
        assert rule.eta_bar is None

    def test_dpar_rules_need_independence_structure(self):
        dist = reference_eo()
        for setting in (DPAR_BLIND, DPAR_AWARE, EO_AWARE):
            with pytest.raises(ValidationError, match="mixture"):
                bayes_classifier(dist, setting, PARAMS, true_stats(dist).pi)

    def test_exact_eo_blind_rule_reads_the_populations_regression_bits(self):
        # 7 features on random atoms: the exact rule's coordinates at the
        # nodes are the eta and eta_bar(x, +1) the population's masses hold
        rng = np.random.default_rng(31)
        atoms = 300
        dist = SyntheticDistribution(
            law=DiscreteLaw(points=rng.normal(size=(atoms, 7)), masses=np.full(atoms, 1 / atoms)),
            w_eta=rng.normal(size=8),
            w_eta_bar=rng.normal(size=9),
        )
        pop = population(dist, atoms)
        rule = bayes_classifier(dist, EO_BLIND, PARAMS, true_pi=pop.stats.pi)
        eta, eta_bar = coordinates(rule, pop.nodes)
        label_pos = pop.weights * eta
        assert pop.masses[0].tobytes() == (label_pos * eta_bar).tobytes()
        assert pop.masses[2].tobytes() == (label_pos * (1.0 - eta_bar)).tobytes()

    def test_neutral_rule_thresholds_eta(self):
        dist = two_atom_dist(label_weight=0.0)
        rule = bayes_classifier(
            dist, EO_BLIND, FairnessParams(lam=0.0, c=0.5, c_bar=0.5), true_stats(dist).pi
        )
        preds = score(rule, dist.law.points) > 0
        etas = np.array([sigmoid(-0.5), sigmoid(1.0)])
        assert preds.tolist() == (etas > 0.5).tolist()


class TestMeasureAndRegret:
    def test_boc_regret_is_exactly_zero(self):
        dist = reference_eo()
        boc = bayes_classifier(dist, EO_BLIND, PARAMS, true_stats(dist).pi)
        assert estimate_regret(boc, population(dist, 2000), EO_BLIND, PARAMS) == 0.0

    def test_bad_rule_has_positive_regret(self):
        dist = reference_eo()
        # the exact rule for a far higher label cost predicts +1 almost nowhere
        timid = bayes_classifier(
            dist, EO_BLIND, FairnessParams(lam=1.0, c=0.99, c_bar=0.5), true_stats(dist).pi
        )
        got = estimate_regret(timid, population(dist, 20000), EO_BLIND, PARAMS)
        assert got > 0.01

    def test_measure_deterministic(self):
        dist = reference_dpar()
        unfair = bayes_classifier(
            dist, DPAR_BLIND, FairnessParams(lam=0.0, c=0.5, c_bar=0.5), true_stats(dist).pi
        )
        a = estimate_regret(unfair, population(dist, 4000), DPAR_BLIND, PARAMS)
        b = estimate_regret(unfair, population(dist, 4000), DPAR_BLIND, PARAMS)
        assert a == b != 0.0

    def test_masses_integrate_to_the_true_priors(self):
        for dist in (reference_eo(), reference_dpar(), two_atom_dist(0.7)):
            pop = population(dist, 10_000)
            _, weights = quadrature(dist.law, 10_000)
            assert np.allclose(pop.masses.sum(axis=0), weights, rtol=1e-14, atol=0.0)
            stats = pop.stats
            pp, np_, pm, _ = pop.totals
            assert pp + pm == pytest.approx(stats.pi, abs=1e-14)
            assert pp + np_ == pytest.approx(stats.pi_bar, abs=1e-14)
            assert pp / (pp + pm) == pytest.approx(stats.beta, abs=1e-14)

    def test_blind_masses_match_hand_computed_rates(self):
        # two atoms, label-dependent group: a rule positive on the second atom only
        dist = two_atom_dist(label_weight=0.7)
        rule = bayes_classifier(
            dist, EO_BLIND, FairnessParams(lam=0.0, c=0.5, c_bar=0.5), true_stats(dist).pi
        )
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
        pop = population(dist, 50_000)
        stats = pop.stats
        boc = bayes_classifier(dist, setting, params, true_pi=stats.pi)
        rule = fit_plugin(sample(dist, 256, (0, 9)), setting, params, FitConfig())
        got = estimate_regret(rule, pop, setting, params)
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
        pop = population(reference_eo(), 400)
        kwargs = dict(n_schedule=(64,), trials=4, seed=6)
        serial = consistency_curve(pop, EO_BLIND, PARAMS, jobs=1, **kwargs)
        parallel = consistency_curve(pop, EO_BLIND, PARAMS, jobs=2, **kwargs)
        assert serial.points == parallel.points

    def test_schedule_validation(self):
        pop = population(reference_eo(), 10)
        with pytest.raises(ValidationError, match="positive sizes"):
            consistency_curve(pop, EO_BLIND, PARAMS, n_schedule=(), trials=1, seed=0)
        with pytest.raises(ValidationError, match="trials"):
            consistency_curve(pop, EO_BLIND, PARAMS, n_schedule=(16,), trials=0, seed=0)
        with pytest.raises(ValidationError, match="strictly increasing"):
            consistency_curve(pop, EO_BLIND, PARAMS, n_schedule=(16, 16), trials=1, seed=0)

    def test_decreasing_schedule_is_rejected_before_any_fit(self, monkeypatch):
        pop = population(reference_eo(), 10)
        fits = []
        monkeypatch.setattr("fairplug.synthetic.fit_plugin", lambda *a, **k: fits.append(a))
        monkeypatch.setattr("fairplug.cpe.fit", lambda *a, **k: fits.append(a))
        with pytest.raises(ValidationError, match="strictly increasing"):
            consistency_curve(
                pop, EO_BLIND, PARAMS, n_schedule=(4096, 1024), trials=3, seed=0
            )
        assert fits == []

    def test_hopeless_distribution_reports_data_error(self):
        law = UniformBoxLaw(np.zeros(1), np.ones(1))
        dist = SyntheticDistribution(
            law=law, w_eta=np.array([0.0, -40.0]), w_eta_bar=np.array([0.0, 0.0, 0.0])
        )
        with pytest.raises(DataError, match="non-degenerate"):
            consistency_curve(
                population(dist, 50), EO_BLIND, PARAMS, n_schedule=(8,), trials=1, seed=0
            )


class TestFrontierAndGap:
    def test_frontier_zero_at_neutral_strength(self):
        assert frontier(population(reference_eo(), 5000), 0.0, PARAMS) == 0.0

    def test_frontier_positive_under_constraint(self):
        value = frontier(population(reference_eo(), 50000), 1.0, PARAMS)
        assert value > 0.01

    def test_frontier_deterministic(self):
        dist = reference_eo()
        assert frontier(population(dist, 3000), 1.0, PARAMS) == frontier(
            population(dist, 3000), 1.0, PARAMS
        )

    def test_frontier_is_the_exact_rules_cost_integral(self):
        # E[(c - eta) (f_lam - 1{eta > c})] on the same nodes, written out
        dist = reference_eo()
        pop = population(dist, 20_000)
        nodes, weights = pop.nodes, pop.weights
        boc = bayes_classifier(dist, EO_BLIND, PARAMS, true_pi=pop.stats.pi)
        eta = predict_proba(dist.eta, nodes)
        integrand = (PARAMS.c - eta) * ((score(boc, nodes) > 0) - (eta > PARAMS.c).astype(float))
        assert frontier(pop, 1.0, PARAMS) == pytest.approx(float(weights @ integrand), abs=1e-12)

    def test_tradeoff_gap_structure(self):
        pop = population(reference_eo(), 2000)
        result = tradeoff_gap(pop, 1.0, PARAMS, n=256, trials=3, seed=4)
        assert result.n == 256 and result.trials == 3
        assert result.gap >= 0.0 and result.gap_std >= 0.0
        assert result.excess == pytest.approx(result.gap - result.frontier)
        assert result.frontier == frontier(pop, 1.0, PARAMS)

    def test_tradeoff_gap_validation(self):
        with pytest.raises(ValidationError, match="positive"):
            tradeoff_gap(population(reference_eo(), 100), 1.0, PARAMS, n=0, trials=3, seed=0)


class TestSampleComplexity:
    def test_easy_target_stops_at_start(self):
        result = estimate_sample_complexity(
            population(reference_eo(), 400),
            target=(0.45, 0.45),
            delta=0.5,
            trials=2,
            seed=3,
            start=32,
            cap=128,
        )
        assert result.converged
        assert result.n == 32
        assert result.probes[0][0] == 32

    def test_impossible_target_hits_cap(self):
        result = estimate_sample_complexity(
            population(reference_eo(), 400),
            target=(0.0005, 0.0005),
            delta=0.1,
            trials=2,
            seed=3,
            start=32,
            cap=64,
        )
        assert not result.converged
        assert result.n == 64
        assert [n for n, _ in result.probes] == [32, 64]

    def test_bisection_probes_above_every_failed_size(self, monkeypatch):
        # Trials pass exactly from n = 70 on, and the doubling is clipped at
        # the cap: 8, 16, 32 and 64 fail, 100 passes, so the bracket is (64, 100].
        monkeypatch.setattr(
            synthetic, "_complexity_trial", lambda pop, which, n, *rest: 0.0 if n >= 70 else 1.0
        )
        result = estimate_sample_complexity(
            population(reference_eo(), 400), target=(0.05, 0.1), delta=0.1, trials=2, seed=0,
            start=8, cap=100,
        )
        probes = [n for n, _ in result.probes]
        failed = [n for n, fraction in result.probes if fraction < 1.0]
        assert probes[:5] == [8, 16, 32, 64, 100]
        for i, n in enumerate(probes):
            if n in failed:
                assert all(later > n for later in probes[i + 1 :])
        assert result.converged and 70 <= result.n <= max(failed) + 8

    def test_parallel_matches_serial(self):
        kwargs = dict(target=(0.05, 0.1), delta=0.2, trials=3, seed=4, start=32, cap=256)
        eo, dpar = population(reference_eo(), 400), population(reference_dpar(), 400)
        for pop, which in ((eo, "eta"), (eo, "eta_bar_eo"), (dpar, "eta_bar_dpar")):
            serial = estimate_sample_complexity(pop, which=which, jobs=1, **kwargs)
            parallel = estimate_sample_complexity(pop, which=which, jobs=2, **kwargs)
            assert serial == parallel
            assert len(serial.probes) > 1

    @pytest.mark.parametrize(
        "dist, which",
        [
            (reference_eo(), "eta"),
            (reference_eo(), "eta_bar_eo"),
            (reference_dpar(), "eta_bar_dpar"),
        ],
        ids=COMPLEXITY_TARGETS,
    )
    def test_tail_by_quadrature_matches_many_draws(self, dist, which):
        # the fit of trial 0 at n = 256, seed 4 (its first draw, seed parts
        # (seed, n, trial, 0, attempt)); its tail on 19,881 nodes against
        # the fraction of 400,000 fresh draws it misses by eps
        eps, draws = 0.05, 400_000
        pop = population(dist, 20_000)
        config = FitConfig(lambda_reg=0.1 / 16)
        checks = synthetic._accuracy_checks(pop, which)
        tail = synthetic._complexity_trial(pop, which, 256, 4, eps, config, checks, 0)
        target, arity = synthetic._COMPLEXITY_ESTIMATORS[which]
        model = fit_estimator(sample(dist, 256, (4, 256, 0, 0, 0)), target, arity, config)
        check = sample(dist, draws, 99)
        if which == "eta_bar_eo":
            inputs = np.hstack([check.features, check.labels[:, None]])
            truth = oracles.true_eta_bar(dist, check.features, check.labels)
        else:
            inputs = check.features
            true_model = dist.eta if which == "eta" else dist.require_eta_bar_dpar()
            truth = predict_proba(true_model, inputs)
        drawn = float(np.mean(np.abs(truth - predict_proba(model, inputs)) >= eps))
        assert 0.01 < tail < 0.99
        assert abs(tail - drawn) <= 4.0 * math.sqrt(tail * (1.0 - tail) / draws)

    def test_tail_reference_values(self):
        # reference-eo, eta, n = 256, eps 0.05, seed 4, trials 0-3, 19,881 nodes;
        # two million draws gave 0.2302, 0.0311, 0.3725 and 0.0685
        dist = reference_eo()
        pop = population(dist, 20_000)
        assert pop.nodes.shape[0] == 19_881
        checks = synthetic._accuracy_checks(pop, "eta")
        config = FitConfig(lambda_reg=0.1 / 16)
        tails = [
            synthetic._complexity_trial(pop, "eta", 256, 4, 0.05, config, checks, trial)
            for trial in range(4)
        ]
        assert tails == pytest.approx([0.2302, 0.0312, 0.3730, 0.0685], abs=2e-4)

    def test_input_validation(self):
        pop = population(reference_eo(), 400)
        with pytest.raises(ValidationError, match="which"):
            estimate_sample_complexity(pop, (0.1, 0.1), 0.2, 1, 0, which="eta_hat")
        with pytest.raises(ValidationError, match="target"):
            estimate_sample_complexity(pop, (0.0, 0.1), 0.2, 1, 0)
        with pytest.raises(ValidationError, match="mixture"):
            estimate_sample_complexity(pop, (0.1, 0.1), 0.2, 1, 0, which="eta_bar_dpar")
        assert COMPLEXITY_TARGETS == ("eta", "eta_bar_eo", "eta_bar_dpar")


class TestReferenceDistributions:
    def test_eo_reference_shape(self):
        dist = reference_eo()
        assert dist.law.dim == 2
        with pytest.raises(ValidationError, match="mixture"):
            dist.require_eta_bar_dpar()
        stats = true_stats(dist)
        assert 0.0 < stats.pi < 1.0 and 0.0 < stats.beta < 1.0

    def test_dpar_reference_shape(self):
        dist = reference_dpar()
        assert dist.require_eta_bar_dpar().weights.tolist() == [-1.0, 1.4, 0.2]


class TestPersistence:
    def test_round_trip_uniform(self, tmp_path):
        dist = reference_eo()
        path = tmp_path / "dist.kv"
        write_distribution(dist, path)
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
        write_distribution(dist, path)
        loaded = load_distribution(path)
        assert isinstance(loaded.law, TruncatedGaussianLaw)
        assert np.array_equal(loaded.law.std, law.std)

    def test_round_trip_discrete(self, tmp_path):
        dist = two_atom_dist()
        path = tmp_path / "dist.kv"
        write_distribution(dist, path)
        loaded = load_distribution(path)
        assert isinstance(loaded.law, DiscreteLaw)
        assert np.array_equal(loaded.law.points, dist.law.points)
        assert np.array_equal(loaded.law.masses, dist.law.masses)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "broken.kv"
        path.write_text("law = uniform-box\nlows = 0\nhighs = 1\nw_eta = 1 0\n")
        with pytest.raises(DataError, match="missing distribution field"):
            load_distribution(path)

    @pytest.mark.parametrize(
        "text, key",
        [
            # a gap in the numbering: point.3 is never read, the law would have two atoms
            ("law = discrete\npoint.0 = 0\npoint.1 = 1\npoint.3 = 3\nmasses = 0.5 0.5\n",
             "point.3"),
            ("law = discrete\npoint.0 = 0\npoint.1 = 1\nmasses = 0.5 0.5\nlows = 0\n", "lows"),
            ("law = uniform-box\nlows = 0\nhighs = 1\nw_eta_bar_dpar = 1 0\n", "w_eta_bar_dpar"),
        ],
        ids=["point gap", "stray lows", "derived field"],
    )
    def test_unread_key_is_a_data_error(self, tmp_path, text, key):
        path = tmp_path / "dist.kv"
        path.write_text(text + "w_eta = 1 0\nw_eta_bar = 1 0 0\n")
        with pytest.raises(DataError, match=f"{path}: unknown distribution key '{key}'"):
            load_distribution(path)

    @pytest.mark.parametrize(
        "text, key, message",
        [
            ("law = uniform-box\nlows = 0\nhighs = 1\nw_eta = 1 x\n", "w_eta",
             "bad float vector: '1 x'"),
            ("law = uniform-box\nlows = 0\nhighs = 1\nw_eta = 1 nan\n", "w_eta",
             "w_eta must be finite"),
            ("law = uniform-box\nlows = 0\nhighs = 1\nw_eta = 1 0 0\n", "w_eta",
             "w_eta must have length 2, got 3"),
            ("law = uniform-box\nlows = 1\nhighs = 0\nw_eta = 1 0\n", "law",
             "each low must be strictly below its high"),
            ("law = discrete\npoint.0 = 0 0\npoint.1 = 1\nmasses = 0.5 0.5\nw_eta = 1 0\n",
             "point.1", "point.1 must have length 2, got 1"),
        ],
        ids=["unparsable", "nan", "wrong length", "empty box", "ragged points"],
    )
    def test_bad_value_names_its_key(self, tmp_path, text, key, message):
        path = tmp_path / "dist.kv"
        path.write_text(text + "w_eta_bar = 1 0 0\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: {key}: {message}")):
            load_distribution(path)

    def test_unknown_law_tag(self, tmp_path):
        path = tmp_path / "broken.kv"
        path.write_text("law = categorical\nw_eta = 1 0\nw_eta_bar = 1 0 0\n")
        with pytest.raises(DataError, match="unknown law tag"):
            load_distribution(path)

