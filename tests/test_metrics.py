"""Rates, risks, fairness measures, and the trade-off objective."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairplug.core import DistStats, FairnessParams
from fairplug.errors import DegenerateDataError, ValidationError
from fairplug.metrics import (
    GroupRates,
    PerformanceInputs,
    balanced_csr,
    cost_sensitive_risk,
    disparate_impact,
    dpar_dbar_rates,
    empirical_rates,
    eo_dbar_rates,
    eo_violation,
    mean_difference,
    performance_measure,
    regret,
)

from oracles import exact_performance_measure, population_from_arrays


def signs(bits):
    return np.array([1.0 if b else -1.0 for b in bits])


class TestGroupRates:
    def test_complement_identities_enforced(self):
        GroupRates(tpr=0.7, tnr=0.4, fpr=0.6, fnr=0.3)
        with pytest.raises(ValidationError, match="tpr \\+ fnr"):
            GroupRates(tpr=0.7, tnr=0.4, fpr=0.6, fnr=0.4)
        with pytest.raises(ValidationError, match="out of"):
            GroupRates(tpr=1.2, tnr=1.0, fpr=0.0, fnr=-0.2)


class TestEmpiricalRates:
    def test_hand_counts(self):
        pred = signs([1, 1, 0, 0, 1, 0])
        truth = signs([1, 1, 1, 0, 0, 0])
        rates = empirical_rates(pred, truth)
        assert rates.tpr == pytest.approx(2.0 / 3.0)
        assert rates.fpr == pytest.approx(1.0 / 3.0)
        assert rates.fnr == pytest.approx(1.0 / 3.0)
        assert rates.tnr == pytest.approx(2.0 / 3.0)

    def test_single_truth_class_degenerate(self):
        with pytest.raises(DegenerateDataError, match="truth class"):
            empirical_rates(signs([1, 0]), signs([1, 1]))

    def test_zero_entries_rejected(self):
        with pytest.raises(ValidationError, match="non-zero"):
            empirical_rates(np.array([1.0, 0.0]), np.array([1.0, -1.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="mismatch"):
            empirical_rates(np.ones(3), np.ones(2))


class TestComparisonDistributions:
    def test_eo_restricts_to_positive_labels(self):
        pred = signs([1, 0, 1, 0])
        labels = signs([1, 1, 0, 0])
        sens = signs([1, 0, 1, 0])
        # among Y=+1 rows: pred = [+,-], group = [+,-] -> perfect separation
        rates = eo_dbar_rates(pred, labels, sens)
        assert rates.tpr == 1.0 and rates.fpr == 0.0

    def test_eo_needs_positive_rows_and_both_groups(self):
        with pytest.raises(DegenerateDataError, match="no positively labeled"):
            eo_dbar_rates(signs([1, 1]), signs([0, 0]), signs([1, 0]))
        with pytest.raises(DegenerateDataError):
            eo_dbar_rates(signs([1, 1]), signs([1, 1]), signs([1, 1]))

    def test_dpar_uses_all_rows(self):
        pred = signs([1, 0, 1, 0])
        sens = signs([1, 1, 0, 0])
        rates = dpar_dbar_rates(pred, sens)
        assert rates.tpr == pytest.approx(0.5)
        assert rates.fpr == pytest.approx(0.5)


class TestRisks:
    def test_cost_sensitive_risk_formula(self):
        rates = GroupRates(tpr=0.8, tnr=0.7, fpr=0.3, fnr=0.2)
        got = cost_sensitive_risk(rates, pi=0.4, c=0.25)
        assert got == pytest.approx(0.25 * 0.6 * 0.3 + 0.4 * 0.75 * 0.2)

    def test_balanced_csr_formula_and_flip_identity(self):
        rates = GroupRates(tpr=0.8, tnr=0.7, fpr=0.3, fnr=0.2)
        flipped = GroupRates(tpr=0.2, tnr=0.3, fpr=0.7, fnr=0.8)
        assert balanced_csr(rates, 0.25) == pytest.approx(0.25 * 0.3 + 0.75 * 0.2)
        assert balanced_csr(rates, 0.5) + balanced_csr(flipped, 0.5) == pytest.approx(1.0)

    def test_cost_bounds(self):
        rates = GroupRates(tpr=1.0, tnr=1.0, fpr=0.0, fnr=0.0)
        for bad in (0.0, 1.0):
            with pytest.raises(ValidationError):
                balanced_csr(rates, bad)
            with pytest.raises(ValidationError):
                cost_sensitive_risk(rates, 0.5, bad)
        with pytest.raises(ValidationError, match="pi"):
            cost_sensitive_risk(rates, 1.0, 0.5)


class TestFairnessMeasures:
    def test_hand_values(self):
        pred = signs([1, 1, 0, 1, 0, 0])
        sens = signs([1, 1, 1, 0, 0, 0])
        # group +1 rate = 2/3, group -1 rate = 1/3
        assert mean_difference(pred, sens) == pytest.approx(1 / 3 - 2 / 3)
        assert disparate_impact(pred, sens) == pytest.approx((1 / 3) / (2 / 3))

    def test_disparate_impact_zero_denominator(self):
        pred = signs([1, 0])
        sens = signs([0, 1])  # group +1 never predicted positive
        with pytest.raises(DegenerateDataError, match="undefined"):
            disparate_impact(pred, sens)
        assert mean_difference(pred, sens) == pytest.approx(1.0)

    def test_single_group_degenerate(self):
        with pytest.raises(DegenerateDataError, match="group"):
            mean_difference(signs([1, 0]), signs([1, 1]))

    def test_eo_violation_hand_value(self):
        pred = signs([1, 0, 1, 1, 0, 0])
        truth = signs([1, 1, 1, 1, 0, 0])
        sens = signs([1, 1, 0, 0, 1, 0])
        # Y=+1 & group+1: preds [1, 0] -> TPR 1/2; Y=+1 & group-1: [1, 1] -> 1
        assert eo_violation(pred, truth, sens) == pytest.approx(0.5)
        with pytest.raises(DegenerateDataError, match="cell"):
            eo_violation(signs([1]), signs([1]), signs([1]))

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=2, max_size=50))
    @settings(max_examples=60)
    def test_mean_difference_bounds_and_oracle(self, pairs):
        pred = signs([p for p, _ in pairs])
        sens = signs([s for _, s in pairs])
        n_plus = int(np.count_nonzero(sens > 0))
        if n_plus in (0, len(pairs)):
            with pytest.raises(DegenerateDataError):
                mean_difference(pred, sens)
            return
        got = mean_difference(pred, sens)
        assert -1.0 <= got <= 1.0
        exact = population_from_arrays(pred, sens).mean_difference()
        assert got == pytest.approx(float(exact), abs=1e-12)


class TestPerformanceMeasure:
    def setup_method(self):
        gen = np.random.default_rng(77)
        self.pred = signs(gen.random(60) < 0.5)
        self.labels = signs(gen.random(60) < 0.55)
        self.sens = signs(gen.random(60) < 0.45)

    def exact_stats(self):
        n = len(self.labels)
        pos = self.labels > 0
        return DistStats(
            pi=float(np.count_nonzero(pos)) / n,
            pi_bar=float(np.count_nonzero(self.sens > 0)) / n,
            beta=float(np.count_nonzero((self.sens > 0) & pos)) / np.count_nonzero(pos),
        )

    @pytest.mark.parametrize("criterion", ["eo", "dpar"])
    def test_matches_exact_fraction_oracle(self, criterion):
        params = FairnessParams(lam=1.7, c=0.3, c_bar=0.6)
        rates_d = empirical_rates(self.pred, self.labels)
        if criterion == "eo":
            rates_dbar = eo_dbar_rates(self.pred, self.labels, self.sens)
        else:
            rates_dbar = dpar_dbar_rates(self.pred, self.sens)
        inputs = PerformanceInputs(rates_d, rates_dbar, self.exact_stats(), params)
        got = performance_measure(inputs, criterion)
        want = exact_performance_measure(
            self.pred,
            self.labels,
            self.sens,
            criterion,
            Fraction(17, 10),
            Fraction(3, 10),
            Fraction(6, 10),
        )
        assert got == pytest.approx(float(want), abs=1e-12)

    def test_balanced_variant_drops_prior_weights(self):
        params = FairnessParams(lam=2.0, c=0.4, c_bar=0.25)
        rates_d = empirical_rates(self.pred, self.labels)
        rates_dbar = dpar_dbar_rates(self.pred, self.sens)
        inputs = PerformanceInputs(rates_d, rates_dbar, self.exact_stats(), params)
        balanced = performance_measure(inputs, "dpar", balanced_dbar=True)
        expected = -cost_sensitive_risk(rates_d, self.exact_stats().pi, 0.4) + 2.0 * (
            balanced_csr(rates_dbar, 0.25)
        )
        assert balanced == pytest.approx(expected, abs=1e-15)

    def test_unknown_criterion_rejected(self):
        rates = empirical_rates(self.pred, self.labels)
        inputs = PerformanceInputs(
            rates, rates, self.exact_stats(), FairnessParams(1.0, 0.5, 0.5)
        )
        with pytest.raises(ValidationError, match="criterion"):
            performance_measure(inputs, "equalized-odds")


class TestLemmaEquivalences:
    """Spot versions of the threshold equivalences (full sweep in acceptance)."""

    def test_mean_difference_csr_identity(self):
        gen = np.random.default_rng(13)
        pred = signs(gen.random(40) < 0.5)
        group = signs(gen.random(40) < 0.5)
        pop = population_from_arrays(pred, group)
        md = pop.mean_difference()
        for tau_num in (-5, 0, 5):
            tau = Fraction(tau_num, 10)
            kappa = (1 + tau) / 2
            assert (md >= tau) == (pop.cs_balanced(Fraction(1, 2)) >= kappa)

    def test_package_metrics_agree_with_fraction_route(self):
        gen = np.random.default_rng(14)
        pred = signs(gen.random(30) < 0.6)
        group = signs(gen.random(30) < 0.5)
        pop = population_from_arrays(pred, group)
        assert mean_difference(pred, group) == pytest.approx(
            float(pop.mean_difference()), abs=1e-12
        )
        di = pop.disparate_impact()
        assert di is not None
        assert disparate_impact(pred, group) == pytest.approx(float(di), abs=1e-12)


def test_regret_sign_convention():
    assert regret(measure_f=0.3, measure_opt=0.5) == pytest.approx(0.2)
    assert regret(0.5, 0.5) == 0.0
