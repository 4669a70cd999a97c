"""The four plug-in decision rules: scores, thresholding, fitting, re-assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairplug.core import Dataset, FairnessParams, compute_dist_stats
from fairplug.cpe import (
    ARITIES,
    ARITY_FEATURES,
    ARITY_FEATURES_PLUS_LABEL,
    ARITY_FEATURES_PLUS_SENSITIVE,
    FitConfig,
    LinearCpe,
)
from fairplug.errors import ValidationError
from fairplug.plugin import (
    DPAR_AWARE,
    DPAR_BLIND,
    EO_AWARE,
    EO_BLIND,
    ESTIMATORS,
    SETTINGS,
    PlugInRule,
    _check_unit,
    coordinates,
    criterion_for,
    fit_plugin,
    is_aware,
    is_eo,
    score,
    score_dpar_aware,
    score_dpar_blind,
    score_eo_aware,
    score_eo_blind,
    setting_score,
    with_params,
)

PARAMS = FairnessParams(lam=0.8, c=0.3, c_bar=0.5)
P = (PARAMS.lam, PARAMS.c, PARAMS.c_bar)


def make_dataset(n=300, d=2, seed=5, label_scale=1.0):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, d))
    labels = np.where(gen.random(n) < 1.0 / (1.0 + np.exp(-x[:, 0])), 1.0, -1.0)
    sensitive = np.where(gen.random(n) < 0.5, 1.0, -1.0)
    return Dataset(x, labels * label_scale, sensitive, label_scale=label_scale)


def constant_cpe(arity, in_dim):
    """A model that outputs exactly 0.5 everywhere (all-zero weights)."""
    return LinearCpe(weights=np.zeros(in_dim + 1), lambda_reg=0.0, input_arity=arity)


class TestSettingTags:
    def test_partition(self):
        assert [is_aware(s) for s in SETTINGS] == [False, True, False, True]
        assert [is_eo(s) for s in SETTINGS] == [True, True, False, False]
        assert [criterion_for(s) for s in SETTINGS] == ["eo", "eo", "dpar", "dpar"]

    def test_unknown_setting(self):
        with pytest.raises(ValidationError, match="unknown setting"):
            is_aware("eo_blind")


class TestScoreFormulas:
    def test_eo_blind_hand_value(self):
        got = score_eo_blind(0.7, 0.6, 0.4, *P)
        assert isinstance(got, float)
        assert got == pytest.approx((1.0 - 2.0 * 0.1) * 0.7 - 0.3)

    def test_eo_aware_branches(self):
        minus = score_eo_aware(0.7, -1.0, 0.4, *P)
        plus = score_eo_aware(0.7, 1.0, 0.4, *P)
        assert minus == pytest.approx((1.0 + 2.0 * 0.5) * 0.7 - 0.3)
        assert plus == pytest.approx((1.0 - 2.0 * 0.5) * 0.7 - 0.3)

    def test_dpar_blind_hand_value(self):
        got = score_dpar_blind(0.7, 0.6, *P)
        assert got == pytest.approx(0.7 - (0.3 + 0.8 * 0.1))

    def test_dpar_aware_group_shift(self):
        minus = score_dpar_aware(0.7, -1.0, *P)
        plus = score_dpar_aware(0.7, 1.0, *P)
        assert minus - plus == pytest.approx(0.8)
        assert minus == pytest.approx(0.7 - 0.3 + 0.8 * 0.5)

    def test_arrays_broadcast(self):
        etas = np.array([0.2, 0.5, 0.9])
        got = score_dpar_blind(etas, np.array([0.5, 0.5, 0.5]), *P)
        assert got.shape == (3,)
        assert got == pytest.approx(etas - 0.3)
        # (k, 1) parameter columns against (n,) coordinates score k points at once
        lam, c, c_bar = (
            np.array(col)[:, None] for col in ([-1.0, 0.0, 2.0], [0.3, 0.5, 0.7], [0.5, 0.4, 0.6])
        )
        for setting in SETTINGS:
            second = np.array([-1.0, 1.0, 1.0]) if is_aware(setting) else np.array([0.1, 0.4, 0.8])
            grid = setting_score(setting, etas, second, 0.4, lam, c, c_bar)
            assert grid.shape == (3, 3)
            for k in range(3):
                point = setting_score(setting, etas, second, 0.4, lam[k, 0], c[k, 0], c_bar[k, 0])
                assert np.array_equal(grid[k], point)

    def test_probability_inputs_validated(self):
        # the formulas check nothing: the coordinate map checks what they
        # read, and the rule checks its prior
        blind = PlugInRule(
            setting=DPAR_BLIND,
            params=PARAMS,
            eta=constant_cpe(ARITY_FEATURES, 2),
            eta_bar=constant_cpe(ARITY_FEATURES, 2),
        )
        with pytest.raises(ValidationError, match="\\[0, 1\\]"):
            coordinates(blind, np.array([[np.nan, 0.0]]))
        with pytest.raises(ValidationError, match="pi"):
            PlugInRule(
                setting=EO_BLIND,
                params=PARAMS,
                eta=constant_cpe(ARITY_FEATURES, 2),
                eta_bar=constant_cpe(ARITY_FEATURES_PLUS_LABEL, 3),
                pi_hat=0.0,
            )
        aware = PlugInRule(
            setting=DPAR_AWARE, params=PARAMS, eta=constant_cpe(ARITY_FEATURES_PLUS_SENSITIVE, 3)
        )
        with pytest.raises(ValidationError, match="y_bar"):
            coordinates(aware, np.zeros((1, 2)), 0.3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5e-324, 1.0000000000000002])
    def test_unit_check_rejects_each_non_probability(self, bad):
        values = np.array([0.0, 0.5, 1.0, bad])
        with pytest.raises(ValidationError, match="\\[0, 1\\]"):
            _check_unit("eta_x", values)
        assert _check_unit("eta_x", values[:3]) is not None
        assert _check_unit("eta_x", np.empty(0)).size == 0

    @given(
        hnp.arrays(
            float,
            st.integers(1, 20),
            elements=st.floats(0.0, 1.0, allow_nan=False),
        ),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=50)
    def test_lambda_zero_collapses_to_eta_minus_c(self, etas, c):
        expected = etas - c
        groups = np.where(np.arange(etas.size) % 2 == 0, 1.0, -1.0)
        assert np.array_equal(score_eo_blind(etas, 0.9, 0.3, 0.0, c, 0.4), expected)
        assert np.array_equal(score_eo_aware(etas, groups, 0.3, 0.0, c, 0.4), expected)
        assert np.array_equal(score_dpar_blind(etas, 0.9, 0.0, c, 0.4), expected)
        assert np.array_equal(score_dpar_aware(etas, groups, 0.0, c, 0.4), expected)


class TestRuleValidation:
    def test_eo_requires_pi_hat(self):
        with pytest.raises(ValidationError, match="pi_hat"):
            PlugInRule(
                setting=EO_BLIND,
                params=PARAMS,
                eta=constant_cpe(ARITY_FEATURES, 2),
                eta_bar=constant_cpe(ARITY_FEATURES_PLUS_LABEL, 3),
            )

    def test_aware_forbids_eta_bar(self):
        with pytest.raises(ValidationError, match="absent"):
            PlugInRule(
                setting=DPAR_AWARE,
                params=PARAMS,
                eta=constant_cpe(ARITY_FEATURES_PLUS_SENSITIVE, 3),
                eta_bar=constant_cpe(ARITY_FEATURES, 2),
            )

    def test_arity_mismatches(self):
        with pytest.raises(ValidationError, match="arity"):
            PlugInRule(
                setting=DPAR_AWARE,
                params=PARAMS,
                eta=constant_cpe(ARITY_FEATURES, 2),
            )
        with pytest.raises(ValidationError, match="arity"):
            PlugInRule(
                setting=EO_BLIND,
                params=PARAMS,
                eta=constant_cpe(ARITY_FEATURES, 2),
                eta_bar=constant_cpe(ARITY_FEATURES, 2),
                pi_hat=0.5,
            )

    def test_blind_requires_eta_bar(self):
        with pytest.raises(ValidationError, match="eta_bar"):
            PlugInRule(
                setting=DPAR_BLIND, params=PARAMS, eta=constant_cpe(ARITY_FEATURES, 2)
            )

    def test_positive_label_must_be_positive(self):
        with pytest.raises(ValidationError, match="positive_label"):
            PlugInRule(
                setting=DPAR_BLIND,
                params=PARAMS,
                eta=constant_cpe(ARITY_FEATURES, 2),
                eta_bar=constant_cpe(ARITY_FEATURES, 2),
                positive_label=0.0,
            )


#: Input width of a model of each arity on two features.
WIDTH = {ARITY_FEATURES: 2, ARITY_FEATURES_PLUS_LABEL: 3, ARITY_FEATURES_PLUS_SENSITIVE: 3}
SLOTS = ("eta", "eta_bar")


class TestEstimatorTable:
    """Each slot of a rule is checked against its setting's entry in ESTIMATORS."""

    @staticmethod
    def rule(setting, **models):
        table = {
            slot: None if arity is None else constant_cpe(arity, WIDTH[arity])
            for slot, arity in zip(SLOTS, ESTIMATORS[setting])
        }
        return PlugInRule(setting=setting, params=PARAMS, pi_hat=0.5, **{**table, **models})

    def test_every_setting_has_an_entry(self):
        assert tuple(ESTIMATORS) == SETTINGS
        for setting, (eta, eta_bar) in ESTIMATORS.items():
            assert eta in ARITIES and (eta_bar is None) == is_aware(setting)

    @pytest.mark.parametrize("slot", SLOTS)
    @pytest.mark.parametrize("setting", SETTINGS)
    def test_each_slot_takes_only_its_entry(self, setting, slot):
        expected = dict(zip(SLOTS, ESTIMATORS[setting]))[slot]
        rule = self.rule(setting)
        assert getattr(getattr(rule, slot), "input_arity", None) == expected
        if expected is None:
            # an aware setting has no eta_bar, of any arity
            for arity in ARITIES:
                with pytest.raises(ValidationError, match=f"{slot} must be absent"):
                    self.rule(setting, **{slot: constant_cpe(arity, WIDTH[arity])})
            return
        with pytest.raises(ValidationError, match=f"requires {slot}, a LinearCpe"):
            self.rule(setting, **{slot: None})
        for arity in ARITIES:
            if arity != expected:
                with pytest.raises(
                    ValidationError, match=f"requires {slot} with arity '{expected}', got '{arity}'"
                ):
                    self.rule(setting, **{slot: constant_cpe(arity, WIDTH[arity])})


class TestScoreAndClassify:
    def neutral_rule(self):
        return PlugInRule(
            setting=DPAR_BLIND,
            params=FairnessParams(lam=0.0, c=0.5, c_bar=0.5),
            eta=constant_cpe(ARITY_FEATURES, 2),
            eta_bar=constant_cpe(ARITY_FEATURES, 2),
        )

    def test_exact_zero_score_classifies_negative(self):
        rule = self.neutral_rule()
        assert score(rule, np.zeros(2)) == 0.0
        assert not score(rule, np.zeros(2)) > 0

    def test_positive_score_classifies_positive(self):
        rule = self.neutral_rule()
        bumped = PlugInRule(
            setting=rule.setting,
            params=FairnessParams(lam=0.0, c=0.25, c_bar=0.5),
            eta=rule.eta,
            eta_bar=rule.eta_bar,
        )
        assert score(bumped, np.zeros(2)) > 0

    def test_vector_vs_matrix_shapes(self):
        rule = self.neutral_rule()
        single = score(rule, np.zeros(2))
        batch = score(rule, np.zeros((4, 2)))
        assert isinstance(single, float)
        assert batch.shape == (4,)
        assert (batch > 0).tolist() == [False, False, False, False]

    def test_group_argument_contract(self):
        blind = self.neutral_rule()
        with pytest.raises(ValidationError, match="does not accept"):
            score(blind, np.zeros(2), y_bar=1.0)
        aware = PlugInRule(
            setting=DPAR_AWARE,
            params=PARAMS,
            eta=constant_cpe(ARITY_FEATURES_PLUS_SENSITIVE, 3),
        )
        with pytest.raises(ValidationError, match="requires y_bar"):
            score(aware, np.zeros(2))
        scalar_group = score(aware, np.zeros((3, 2)), y_bar=1.0)
        per_row = score(aware, np.zeros((3, 2)), y_bar=np.array([1.0, 1.0, 1.0]))
        assert scalar_group == pytest.approx(per_row)

    def test_eo_blind_reads_eta_bar_at_stored_positive_label(self):
        # eta_bar responds only to its label input, so the stored encoding
        # is observable through the score.
        eta = constant_cpe(ARITY_FEATURES, 2)
        eta_bar = LinearCpe(
            weights=np.array([0.0, 0.0, 2.0, 0.0]),
            lambda_reg=0.0,
            input_arity=ARITY_FEATURES_PLUS_LABEL,
        )
        def rule_for(scale):
            return PlugInRule(
                setting=EO_BLIND,
                params=PARAMS,
                eta=eta,
                eta_bar=eta_bar,
                pi_hat=0.4,
                positive_label=scale,
            )
        for scale in (1.0, 0.25):
            expected_eta_bar = 1.0 / (1.0 + np.exp(-2.0 * scale))
            want = score_eo_blind(0.5, expected_eta_bar, 0.4, *P)
            assert score(rule_for(scale), np.zeros(2)) == pytest.approx(want, abs=1e-15)


@pytest.fixture(scope="module")
def train():
    return make_dataset()


class TestFitPlugin:
    def test_eo_blind_structure(self, train):
        rule = fit_plugin(train, EO_BLIND, PARAMS, FitConfig())
        assert rule.eta.input_arity == ARITY_FEATURES
        assert rule.eta_bar.input_arity == ARITY_FEATURES_PLUS_LABEL
        assert rule.pi_hat == pytest.approx(compute_dist_stats(train).pi)
        assert rule.positive_label == 1.0

    def test_eo_aware_structure(self, train):
        rule = fit_plugin(train, EO_AWARE, PARAMS, FitConfig())
        assert rule.eta.input_arity == ARITY_FEATURES_PLUS_SENSITIVE
        assert rule.eta_bar is None
        assert rule.pi_hat is not None

    def test_dpar_structures(self, train):
        blind = fit_plugin(train, DPAR_BLIND, PARAMS, FitConfig())
        aware = fit_plugin(train, DPAR_AWARE, PARAMS, FitConfig())
        assert blind.eta_bar.input_arity == ARITY_FEATURES
        assert blind.pi_hat is None
        assert aware.eta.input_arity == ARITY_FEATURES_PLUS_SENSITIVE
        assert aware.pi_hat is None

    def test_pi_override(self, train):
        rule = fit_plugin(train, EO_BLIND, PARAMS, FitConfig(), pi_override=0.37)
        assert rule.pi_hat == 0.37

    def test_predictions_are_signs(self, train):
        rule = fit_plugin(train, EO_BLIND, PARAMS, FitConfig())
        scores = score(rule, train.features)
        assert scores.shape == (train.n,) and np.all(np.isfinite(scores))
        preds = scores > 0
        assert preds.any() and not preds.all()

    def test_deterministic_given_seed(self, train):
        a = fit_plugin(train, DPAR_BLIND, PARAMS, FitConfig())
        b = fit_plugin(train, DPAR_BLIND, PARAMS, FitConfig())
        assert np.array_equal(a.eta.weights, b.eta.weights)
        assert np.array_equal(a.eta_bar.weights, b.eta_bar.weights)


class TestWithParams:
    def test_reuses_estimators(self):
        train = make_dataset(seed=6)
        rule = fit_plugin(train, EO_BLIND, PARAMS, FitConfig())
        new_params = FairnessParams(lam=-1.0, c=0.6, c_bar=0.2)
        swapped = with_params(rule, new_params)
        assert swapped.eta is rule.eta
        assert swapped.eta_bar is rule.eta_bar
        assert swapped.pi_hat == rule.pi_hat
        assert swapped.params == new_params
        assert rule.params == PARAMS  # original untouched

    def test_scores_reflect_new_params(self):
        train = make_dataset(seed=7)
        rule = fit_plugin(train, DPAR_AWARE, PARAMS, FitConfig())
        neutral = with_params(rule, FairnessParams(lam=0.0, c=0.5, c_bar=0.5))
        x = train.features[:5]
        groups = train.sensitive[:5]
        from fairplug.cpe import predict_proba

        eta = predict_proba(neutral.eta, np.hstack([x, groups[:, None]]))
        assert score(neutral, x, y_bar=groups) == pytest.approx(eta - 0.5)
