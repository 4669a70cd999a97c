"""Confusion counts, rates, risks, fairness measures, and the trade-off objective."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairplug.core import DistStats, FairnessParams
from fairplug.errors import DegenerateDataError, ValidationError
from fairplug.metrics import (
    Counts,
    balanced_csr,
    cost_sensitive_risk,
    disparate_impact,
    dpar_dbar_rates,
    empirical_rates,
    eo_dbar_rates,
    mean_difference,
    performance_measure,
    violation,
)

from oracles import exact_performance_measure, population_from_arrays


def bools(bits):
    return np.array([bool(b) for b in bits], dtype=bool)


def signs(bits):
    return np.where(bools(bits), 1.0, -1.0)


class TestCounts:
    def test_complement_identities(self):
        rates = Counts(pos_in_pos=7, pos_in_neg=6, n_pos=10, n_neg=10)
        assert rates.tpr + rates.fnr == 1.0
        assert rates.tnr + rates.fpr == pytest.approx(1.0, abs=1e-15)


class TestEmpiricalRates:
    def test_hand_counts(self):
        pred = bools([1, 1, 0, 0, 1, 0])
        truth = bools([1, 1, 1, 0, 0, 0])
        rates = empirical_rates(pred, truth)
        assert (rates.pos_in_pos, rates.pos_in_neg, rates.n_pos, rates.n_neg) == (2, 1, 3, 3)
        assert rates.tpr == pytest.approx(2.0 / 3.0)
        assert rates.fpr == pytest.approx(1.0 / 3.0)
        assert rates.fnr == pytest.approx(1.0 / 3.0)
        assert rates.tnr == pytest.approx(2.0 / 3.0)

    def test_single_truth_class_degenerate(self):
        rates = empirical_rates(bools([1, 0]), bools([1, 1]))
        assert rates.tpr == 0.5 and math.isnan(rates.fpr) and math.isnan(rates.tnr)
        with pytest.raises(DegenerateDataError, match="truth class"):
            cost_sensitive_risk(rates, 0.5, 0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            empirical_rates(np.ones(3, dtype=bool), np.ones(2, dtype=bool))


class TestComparisonDistributions:
    def test_eo_restricts_to_positive_labels(self):
        pred = bools([1, 0, 1, 0])
        labels = bools([1, 1, 0, 0])
        sens = bools([1, 0, 1, 0])
        # among Y=+1 rows: pred = [+,-], group = [+,-] -> perfect separation
        rates = eo_dbar_rates(pred, labels, sens)
        assert (rates.n_pos, rates.n_neg) == (1, 1)
        assert rates.tpr == 1.0 and rates.fpr == 0.0

    def test_eo_needs_positive_rows_and_both_groups(self):
        no_positives = eo_dbar_rates(bools([1, 1]), bools([0, 0]), bools([1, 0]))
        assert (no_positives.n_pos, no_positives.n_neg) == (0, 0)
        one_group = eo_dbar_rates(bools([1, 1]), bools([1, 1]), bools([1, 1]))
        for rates in (no_positives, one_group):
            assert math.isnan(rates.fpr)
            with pytest.raises(DegenerateDataError):
                cost_sensitive_risk(rates, 0.5, 0.5)

    def test_dpar_uses_all_rows(self):
        pred = bools([1, 0, 1, 0])
        sens = bools([1, 1, 0, 0])
        rates = dpar_dbar_rates(pred, sens)
        assert rates.tpr == pytest.approx(0.5)
        assert rates.fpr == pytest.approx(0.5)


@st.composite
def count_problems(draw):
    """(k, n) predictions with labels and groups, empty classes included."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(0, 12))
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    preds = np.array([draw(flags) for _ in range(k)], dtype=bool).reshape(k, n)
    return preds, bools(draw(flags)), bools(draw(flags))


def assert_rates_match(rates, population):
    """Rates equal the oracle's Fractions, and are NaN exactly where a class is empty."""
    for name, total in (("tpr", rates.n_pos), ("fpr", rates.n_neg), ("tnr", rates.n_neg)):
        got = float(getattr(rates, name))
        if total == 0:
            assert math.isnan(got)
        elif name == "tnr":
            assert got == pytest.approx(float(1 - population.fpr), abs=1e-12)
        else:
            assert got == pytest.approx(float(getattr(population, name)), abs=1e-12)


class TestCountRoutine:
    @given(count_problems())
    @settings(max_examples=150)
    def test_batched_counts_match_rows_and_fraction_oracle(self, problem):
        preds, labels, groups = problem
        counters = {
            "label": (lambda p: empirical_rates(p, labels), labels, None),
            "eo": (lambda p: eo_dbar_rates(p, labels, groups), groups, labels),
            "dpar": (lambda p: dpar_dbar_rates(p, groups), groups, None),
        }
        for count, truth, rows in counters.values():
            batch = count(preds)
            keep = np.ones(labels.size, dtype=bool) if rows is None else rows
            for i, row in enumerate(preds):
                single = count(row)
                assert single.pos_in_pos == batch.pos_in_pos[i]
                assert single.pos_in_neg == batch.pos_in_neg[i]
                assert (single.n_pos, single.n_neg) == (batch.n_pos, batch.n_neg)
                assert single.n_pos == np.count_nonzero(truth & keep)
                assert single.n_neg == np.count_nonzero(~truth & keep)
                population = population_from_arrays(signs(row[keep]), signs(truth[keep]))
                assert_rates_match(single, population)
                for name in ("tpr", "fpr", "tnr"):
                    batched = getattr(batch, name)[i]
                    assert np.array_equal(batched, getattr(single, name), equal_nan=True)


class TestRisks:
    rates = Counts(pos_in_pos=8, pos_in_neg=3, n_pos=10, n_neg=10)

    def test_cost_sensitive_risk_formula(self):
        got = cost_sensitive_risk(self.rates, pi=0.4, c=0.25)
        assert got == pytest.approx(0.25 * 0.6 * 0.3 + 0.4 * 0.75 * 0.2)

    def test_balanced_csr_formula_and_flip_identity(self):
        flipped = Counts(pos_in_pos=2, pos_in_neg=7, n_pos=10, n_neg=10)
        assert balanced_csr(self.rates, 0.25) == pytest.approx(0.25 * 0.3 + 0.75 * 0.2)
        assert balanced_csr(self.rates, 0.5) + balanced_csr(flipped, 0.5) == pytest.approx(1.0)

    def test_empty_class_raises(self):
        empty = Counts(pos_in_pos=0, pos_in_neg=3, n_pos=0, n_neg=10)
        with pytest.raises(DegenerateDataError, match="truth class"):
            balanced_csr(empty, 0.5)


class TestFairnessMeasures:
    def test_hand_values(self):
        pred = bools([1, 1, 0, 1, 0, 0])
        sens = bools([1, 1, 1, 0, 0, 0])
        rates = dpar_dbar_rates(pred, sens)
        # group +1 rate = 2/3, group -1 rate = 1/3
        assert mean_difference(rates) == pytest.approx(1 / 3 - 2 / 3)
        assert disparate_impact(rates) == pytest.approx((1 / 3) / (2 / 3))
        assert violation(rates) == pytest.approx(1 / 3)

    def test_disparate_impact_zero_denominator(self):
        rates = dpar_dbar_rates(bools([1, 0]), bools([0, 1]))  # group +1 never positive
        with pytest.raises(DegenerateDataError, match="undefined"):
            disparate_impact(rates)
        assert mean_difference(rates) == pytest.approx(1.0)

    def test_single_group_degenerate(self):
        rates = dpar_dbar_rates(bools([1, 0]), bools([1, 1]))
        with pytest.raises(DegenerateDataError, match="truth class"):
            mean_difference(rates)
        with pytest.raises(DegenerateDataError, match="truth class"):
            disparate_impact(rates)
        assert math.isnan(violation(rates))

    def test_eo_violation_hand_value(self):
        pred = bools([1, 0, 1, 1, 0, 0])
        truth = bools([1, 1, 1, 1, 0, 0])
        sens = bools([1, 1, 0, 0, 1, 0])
        # Y=+1 & group+1: preds [1, 0] -> TPR 1/2; Y=+1 & group-1: [1, 1] -> 1
        assert violation(eo_dbar_rates(pred, truth, sens)) == pytest.approx(0.5)
        assert math.isnan(violation(eo_dbar_rates(bools([1]), bools([1]), bools([1]))))

    def test_violation_is_batched(self):
        pred = np.array([[1, 0, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0]], dtype=bool)
        truth = bools([1, 1, 1, 1, 0, 0])
        sens = bools([1, 1, 0, 0, 1, 0])
        got = violation(eo_dbar_rates(pred, truth, sens))
        assert got.tolist() == [0.5, 1.0]

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=2, max_size=50))
    @settings(max_examples=60)
    def test_mean_difference_bounds_and_oracle(self, pairs):
        pred = bools([p for p, _ in pairs])
        sens = bools([s for _, s in pairs])
        rates = dpar_dbar_rates(pred, sens)
        n_plus = int(np.count_nonzero(sens))
        if n_plus in (0, len(pairs)):
            with pytest.raises(DegenerateDataError):
                mean_difference(rates)
            return
        got = mean_difference(rates)
        assert -1.0 <= got <= 1.0
        exact = population_from_arrays(signs(pred), signs(sens)).mean_difference()
        assert got == pytest.approx(float(exact), abs=1e-12)


class TestPerformanceMeasure:
    def setup_method(self):
        gen = np.random.default_rng(77)
        self.pred = gen.random(60) < 0.5
        self.labels = gen.random(60) < 0.55
        self.sens = gen.random(60) < 0.45

    def exact_stats(self):
        n = len(self.labels)
        return DistStats(
            pi=float(np.count_nonzero(self.labels)) / n,
            pi_bar=float(np.count_nonzero(self.sens)) / n,
            beta=float(np.count_nonzero(self.sens & self.labels))
            / np.count_nonzero(self.labels),
        )

    @pytest.mark.parametrize("criterion", ["eo", "dpar"])
    def test_matches_exact_fraction_oracle(self, criterion):
        params = FairnessParams(lam=1.7, c=0.3, c_bar=0.6)
        rates_d = empirical_rates(self.pred, self.labels)
        if criterion == "eo":
            rates_dbar = eo_dbar_rates(self.pred, self.labels, self.sens)
        else:
            rates_dbar = dpar_dbar_rates(self.pred, self.sens)
        got = performance_measure(rates_d, rates_dbar, self.exact_stats(), params, criterion)
        want = exact_performance_measure(
            signs(self.pred),
            signs(self.labels),
            signs(self.sens),
            criterion,
            Fraction(17, 10),
            Fraction(3, 10),
            Fraction(6, 10),
        )
        assert got == pytest.approx(float(want), abs=1e-12)

    def test_unknown_criterion_rejected(self):
        rates = empirical_rates(self.pred, self.labels)
        with pytest.raises(ValidationError, match="criterion"):
            performance_measure(
                rates, rates, self.exact_stats(), FairnessParams(1.0, 0.5, 0.5), "equalized-odds"
            )


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
        pred = gen.random(30) < 0.6
        group = gen.random(30) < 0.5
        pop = population_from_arrays(signs(pred), signs(group))
        rates = dpar_dbar_rates(pred, group)
        assert mean_difference(rates) == pytest.approx(float(pop.mean_difference()), abs=1e-12)
        di = pop.disparate_impact()
        assert di is not None
        assert disparate_impact(rates) == pytest.approx(float(di), abs=1e-12)
