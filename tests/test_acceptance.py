"""The twelve acceptance gates, one test per criterion.

Each test prints one ``criterion NN PASS`` line on success (visible
with ``-rA``/``-s``; the ``-v`` test line itself is the per-criterion
pass/fail record).  Tolerances and sizes are stated inline next to the
assertions they govern.  Real-data criteria run on the surrogate
census-style CSV from ``conftest``; the qualitative large-data check in
criterion 11 is non-gating and activates only when ``FAIRPLUG_ADULT_CSV``
points at a local CSV with the expected columns.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

import oracles
from fairplug import data, metrics, plugin
from fairplug.core import FairnessParams
from fairplug.cpe import FitConfig, predict_proba
from fairplug.errors import DegenerateDataError
from fairplug.geometry import asymptote_x, estimate_margin_mass, margin_membership
from fairplug.plugin import (
    DPAR_BLIND,
    EO_BLIND,
    coordinates,
    fit_plugin,
    score,
    setting_score,
)
from fairplug.privacy import dp_plugin_pipeline, noise_draw_count, sample_noise
from fairplug.sweep import (
    aggregate_curves,
    bin_min_violation,
    default_grid,
    run_sweep,
    tradeoff_curve,
)
from fairplug.synthetic import (
    DiscreteLaw,
    SyntheticDistribution,
    bayes_classifier,
    consistency_curve,
    frontier,
    reference_eo,
    sample,
    sample_x,
    tradeoff_gap,
    true_stats,
)


def _report(number: int, text: str) -> None:
    print(f"criterion {number:02d} PASS: {text}")


@pytest.fixture(scope="module")
def german_dataset(german_csv):
    schema = data.load_schema(data.bundled_schema_path("german_gender"))
    dataset, _report_unused = data.load_csv_report(german_csv, schema)
    return dataset


@pytest.fixture(scope="module")
def german_prepared_single(german_dataset):
    splits = data.make_splits(german_dataset, data.SplitPlan(n_repeats=1, master_seed=0))
    return data.PreparedData(dataset=german_dataset, splits=splits, meta={})


@pytest.fixture(scope="module")
def german_prepared_twenty(german_dataset):
    splits = data.make_splits(german_dataset, data.SplitPlan(n_repeats=20, master_seed=0))
    return data.PreparedData(dataset=german_dataset, splits=splits, meta={})


# ---------------------------------------------------------------------------
# 1. asymptote golden values


def test_criterion_01_asymptote_golden_values():
    # captions give (lam, pi, c, c_bar)
    assert 3.01 <= asymptote_x(FairnessParams(0.4, 0.8, 0.9), 0.85) <= 3.03
    assert 0.6628 <= asymptote_x(FairnessParams(-3.6, 0.8, 0.9), 0.85) <= 0.6648
    _report(1, "asymptote x-coordinates match both golden captions")


# ---------------------------------------------------------------------------
# 2. optimal rule vs exhaustive labeling search on 4-atom distributions


_COMBOS = [
    (lam, c, c_bar)
    for lam in (-1.5, 0.6, 2.0)
    for c in (0.25, 0.5, 0.75)
    for c_bar in (0.3, 0.5, 0.7)
]


def _random_discrete_pair(rng: np.random.Generator, zero_label: bool):
    """A package distribution and its plain-math oracle twin."""

    atoms = rng.uniform(-2.0, 2.0, size=(4, 2))
    masses = rng.uniform(0.1, 0.4, size=4)
    masses = masses / masses.sum()
    w_eta = rng.uniform(-2.0, 2.0, size=3)
    feature_w = rng.uniform(-2.0, 2.0, size=2)
    label_w = 0.0 if zero_label else float(rng.uniform(0.5, 1.5)) * float(rng.choice([-1.0, 1.0]))
    intercept = float(rng.uniform(-1.0, 1.0))
    w_eta_bar = np.array([feature_w[0], feature_w[1], label_w, intercept])
    dist = SyntheticDistribution(DiscreteLaw(atoms, masses), w_eta, w_eta_bar)
    eta = tuple(oracles.sigmoid(float(atoms[i] @ w_eta[:2] + w_eta[2])) for i in range(4))
    eta_bar = tuple(
        (
            oracles.sigmoid(float(atoms[i] @ feature_w - label_w + intercept)),
            oracles.sigmoid(float(atoms[i] @ feature_w + label_w + intercept)),
        )
        for i in range(4)
    )
    inst = oracles.DiscreteInstance(
        atoms=tuple(map(tuple, atoms)),
        masses=tuple(float(m) for m in masses),
        eta=eta,
        eta_bar=eta_bar,
    )
    return dist, inst


def _check_dist_against_oracle(dist, inst, settings) -> bool:
    """True when every (setting, combo) matches; False = knife-edge, resample.

    Rejection gates: an atom score within 1e-6 of the tie point, or a
    brute-force optimum within 1e-9 of the runner-up, would make the
    argmax comparison meaningless, so such draws are discarded.
    """

    atoms = dist.law.points
    for setting in settings:
        aware = plugin.is_aware(setting)
        criterion = plugin.criterion_for(setting)
        for lam, c, c_bar in _COMBOS:
            rule = bayes_classifier(dist, setting, FairnessParams(lam, c, c_bar))
            if aware:
                minus = np.atleast_1d(score(rule, atoms, y_bar=-1.0))
                plus = np.atleast_1d(score(rule, atoms, y_bar=1.0))
                scores = np.concatenate([minus, plus])

                def predict_pkg(i, b, m=minus, p=plus):
                    return 1 if (m[i] if b < 0 else p[i]) > 0 else -1

            else:
                scores = np.atleast_1d(score(rule, atoms))

                def predict_pkg(i, b, s=scores):
                    return 1 if s[i] > 0 else -1

            if float(np.abs(scores).min()) < 1e-6:
                return False
            best, second, best_predict = oracles.brute_force_psi(
                inst, criterion, aware, lam, c, c_bar
            )
            if best - second < 1e-9:
                return False
            for i in range(4):
                for b in (-1, 1):
                    assert predict_pkg(i, b) == best_predict(i, b)
            achieved = oracles.exact_psi(inst, predict_pkg, criterion, lam, c, c_bar)
            assert achieved == pytest.approx(best, abs=1e-12)
    return True


def test_criterion_02_optimal_rule_matches_exhaustive_search():
    rng = np.random.default_rng(20260821)
    for zero_label, settings in (
        (True, plugin.SETTINGS),  # all four settings have exact closed forms
        (False, (EO_BLIND,)),  # label-dependent group attribute: blind EO only
    ):
        accepted = 0
        for _attempt in range(40):
            dist, inst = _random_discrete_pair(rng, zero_label)
            if _check_dist_against_oracle(dist, inst, settings):
                accepted += 1
                if accepted == 5:
                    break
        assert accepted == 5
    _report(2, "rule equals the brute-force argmax on 2x5 distributions x 27 combos")


# ---------------------------------------------------------------------------
# 3. regret shrinks along the sample-size schedule


def test_criterion_03_consistency_on_reference_distribution():
    curve = consistency_curve(
        reference_eo(),
        EO_BLIND,
        FairnessParams(1.0, 0.5, 0.5),
        (256, 16384),
        20,
        50_000,
        11,
    )
    small, large = curve.points
    assert large.mean_regret <= 0.02
    assert large.mean_regret <= 0.5 * small.mean_regret
    _report(
        3,
        f"mean regret {large.mean_regret:.4f} at n=16384 "
        f"(vs {small.mean_regret:.4f} at n=256)",
    )


# ---------------------------------------------------------------------------
# 4. lam = 0 reduces every setting to cost thresholding


def test_criterion_04_lambda_zero_reduces_to_cost_thresholding():
    dist = reference_eo()
    train = sample(dist, 3000, 5)
    config = FitConfig()
    points = sample_x(dist.law, 10_000, np.random.default_rng(6))
    groups = np.where(np.random.default_rng(7).random(10_000) < 0.5, 1.0, -1.0)
    c = 0.3
    params = FairnessParams(0.0, c, 0.6)
    for setting in plugin.SETTINGS:
        rule = fit_plugin(train, setting, params, config)
        if plugin.is_aware(setting):
            decided = score(rule, points, y_bar=groups) > 0
            inputs = np.hstack([points, groups[:, None]])
        else:
            decided = score(rule, points) > 0
            inputs = points
        eta_hat = np.atleast_1d(predict_proba(rule.eta, inputs))
        assert np.array_equal(decided, eta_hat > c)
    _report(4, "decisions equal eta-hat > c pointwise on 10^4 points, all settings")


# ---------------------------------------------------------------------------
# 5. square-intersection tests vs a dense-grid oracle


def _square_meets_boundary(setting, params, pi, center, eps) -> bool:
    """Margin membership of one (u, v) = (eta_bar, eta) center."""
    u, v = center
    return bool(margin_membership(setting, params, pi, ([v], [u]), eps)[0])


def test_criterion_05_square_tests_match_dense_oracle():
    rng = np.random.default_rng(404)

    for _ in range(1000):
        lam = float(rng.uniform(-4.0, 4.0))
        c = float(rng.uniform(0.05, 0.95))
        c_bar = float(rng.uniform(0.05, 0.95))
        center = (float(rng.uniform(-0.2, 1.2)), float(rng.uniform(-0.2, 1.2)))
        eps = float(rng.uniform(0.01, 0.45))
        params = FairnessParams(lam, c, c_bar)
        dense, _bound = oracles.dense_square_intersects(
            lambda u, v: oracles.line_value(lam, c, c_bar, u, v), center, eps
        )
        assert _square_meets_boundary(DPAR_BLIND, params, None, center, eps) == dense

    mismatches_within_resolution = []
    for _ in range(1000):
        lam = float(rng.uniform(-4.0, 4.0))
        pi = float(rng.uniform(0.15, 0.95))
        c = float(rng.uniform(0.05, 0.95))
        c_bar = float(rng.uniform(0.05, 0.95))
        center = (float(rng.uniform(-0.2, 1.2)), float(rng.uniform(-0.2, 1.2)))
        eps = float(rng.uniform(0.01, 0.45))
        params = FairnessParams(lam, c, c_bar)
        dense, bound = oracles.dense_square_intersects(
            lambda u, v: oracles.hyperbola_value(lam, pi, c, c_bar, u, v), center, eps
        )
        if _square_meets_boundary(EO_BLIND, params, pi, center, eps) != dense:
            corner_min = min(
                abs(oracles.hyperbola_value(lam, pi, c, c_bar, center[0] + du, center[1] + dv))
                for du in (-eps, eps)
                for dv in (-eps, eps)
            )
            mismatches_within_resolution.append(corner_min <= bound)
    assert len(mismatches_within_resolution) <= 1
    assert all(mismatches_within_resolution)
    _report(
        5,
        f"line test exact on 1000 instances; hyperbola mismatches: "
        f"{len(mismatches_within_resolution)}",
    )


# ---------------------------------------------------------------------------
# 6. margin mass of the flat boundary equals 2*eps


def test_criterion_06_margin_mass_matches_two_eps():
    flat = FairnessParams(0.0, 0.5, 0.5)

    m = 100_000
    u, v = np.random.default_rng((404, 0)).uniform(size=(2, m))
    weights = np.full(m, 1.0 / m)
    masses = []
    for eps in (0.01, 0.05, 0.1):
        mass = estimate_margin_mass((v, u), weights, EO_BLIND, flat, 0.85, eps)  # (eta, eta_bar)
        se = math.sqrt(mass * (1.0 - mass) / m)  # binomial standard error of the share
        assert abs(mass - 2.0 * eps) <= 3.0 * se
        masses.append(mass)
    assert masses[0] <= masses[1] <= masses[2]
    _report(6, f"masses {masses} within 3 SE of 0.02/0.10/0.20 and monotone")


# ---------------------------------------------------------------------------
# 7. noise radius follows the Gamma(dim, gamma) law


def test_criterion_07_noise_radius_follows_gamma_law():
    for dim, gamma in ((2, 5.0), (10, 50.0), (31, 500.0)):
        # one stream per case: default_rng returns a Generator unchanged, so
        # successive calls continue it instead of seeding 100,000 new ones
        rng = np.random.default_rng((909, dim))
        radii = np.array(
            [float(np.linalg.norm(sample_noise(dim, gamma, rng))) for _ in range(100_000)]
        )
        stat = scipy.stats.kstest(radii, "gamma", args=(dim, 0.0, 1.0 / gamma)).statistic
        assert stat <= 0.01
        expected = dim / gamma
        assert abs(float(radii.mean()) - expected) <= 0.02 * expected
    _report(7, "KS <= 0.01 and mean norm within 2% for all three (dim, gamma)")


# ---------------------------------------------------------------------------
# 8. privacy bookkeeping on a full default-grid sweep


def test_criterion_08_dp_sweep_budget_and_agreement(german_prepared_single):
    config = FitConfig()
    grid = default_grid()
    assert grid.cardinality == 3321

    before = noise_draw_count()
    table = run_sweep(german_prepared_single, grid, EO_BLIND, 1.0, config, 21)
    assert noise_draw_count() - before == 1  # one draw for the whole grid
    assert len(table) == 3321

    # near-infinite budget: decisions match the non-private route
    train_idx, _val_idx, test_idx = german_prepared_single.splits[0]
    train_raw = german_prepared_single.dataset.subset(train_idx)
    test_raw = german_prepared_single.dataset.subset(test_idx)
    transform = data.fit_dp_transform(train_raw, 0.5)
    train = data.apply_dp_transform(transform, train_raw)
    test = data.apply_dp_transform(transform, test_raw)
    base = FairnessParams(0.0, 0.5, 0.5)
    private = dp_plugin_pipeline(train, EO_BLIND, base, config, 1e9, 99)
    clean = fit_plugin(train, EO_BLIND, base, config)
    eta_p, bar_p = coordinates(private, test.features)
    eta_c, bar_c = coordinates(clean, test.features)
    c_col, c_bar_col = (
        v.reshape(-1, 1)
        for v in np.meshgrid(grid.c.values(), grid.c_bar.values(), indexing="ij")
    )
    agree = 0
    total = 0
    for lam in grid.lam.values():
        dec_p = setting_score(EO_BLIND, eta_p, bar_p, private.pi_hat, lam, c_col, c_bar_col) > 0
        dec_c = setting_score(EO_BLIND, eta_c, bar_c, clean.pi_hat, lam, c_col, c_bar_col) > 0
        agree += int((dec_p == dec_c).sum())
        total += dec_p.size
    assert agree / total >= 0.99
    _report(8, f"1 noise draw per sweep; 1e9-budget agreement {agree / total:.6f}")


# ---------------------------------------------------------------------------
# 9. frontier by quadrature vs a Monte-Carlo risk difference


def test_criterion_09_frontier_agrees_with_direct_risk_difference():
    dist = reference_eo()
    stats = true_stats(dist)
    m = 200_000
    c = 0.5
    for index, lam in enumerate((-2.0, -0.5, 0.0, 0.5, 2.0)):
        params = FairnessParams(lam, c, 0.5)
        value = frontier(dist, lam, params, m)
        if lam == 0.0:
            assert value == 0.0
            continue
        boc = bayes_classifier(dist, EO_BLIND, params, true_pi=stats.pi)
        eval_ds = sample(dist, m, (77, index))
        eta = np.asarray(dist.eta(eval_ds.features))
        f_lam = score(boc, eval_ds.features) > 0
        f_zero = eta > c
        pos = eval_ds.labels > 0
        # realized-label risk difference, per draw
        per_draw = np.where(
            pos,
            (1.0 - c) * ((~f_lam).astype(float) - (~f_zero).astype(float)),
            c * (f_lam.astype(float) - f_zero.astype(float)),
        )
        independent = float(per_draw.mean())
        se_independent = float(per_draw.std(ddof=0)) / math.sqrt(m)
        # the spread the frontier's integrand has on this draw (the bound's
        # second term, kept from when the frontier was itself a draw)
        integrand = (c - eta) * (f_lam.astype(float) - f_zero.astype(float))
        se_package = float(integrand.std(ddof=0)) / math.sqrt(m)
        combined = math.hypot(se_independent, se_package)
        assert abs(value - independent) <= 3.0 * combined
    _report(9, "frontier matches the label-route risk difference at all five lam")


# ---------------------------------------------------------------------------
# 10. finite-sample excess of the trade-off gap shrinks with n


def test_criterion_10_tradeoff_excess_shrinks():
    dist = reference_eo()
    params = FairnessParams(1.0, 0.5, 0.5)
    small = tradeoff_gap(dist, 1.0, params, 256, 20, 100_000, 13)
    large = tradeoff_gap(dist, 1.0, params, 16384, 20, 100_000, 13)
    assert abs(large.excess) <= 0.5 * abs(small.excess)
    _report(
        10,
        f"|excess| {abs(small.excess):.4f} at n=256 -> {abs(large.excess):.4f} at n=16384",
    )


# ---------------------------------------------------------------------------
# 11. end-to-end protocol conformance on census-style data


def _adult_qualitative_message(adult_csv: str) -> str:
    """Non-gating shape check of the private trade-off curve on Adult data."""

    schema = data.load_schema(data.bundled_schema_path("adult_gender"))
    dataset, _rep = data.load_csv_report(adult_csv, schema)
    splits = data.make_splits(dataset, data.SplitPlan(n_repeats=3, master_seed=0))
    prepared = data.PreparedData(dataset=dataset, splits=splits, meta={})
    table = run_sweep(prepared, default_grid(), EO_BLIND, 1.0, FitConfig(), 0)
    curve = tradeoff_curve(table, 0.025)
    upper = [b for b in curve.bins if b.bin_low >= 0.55]
    if len(upper) < 3:
        return "inconclusive: fewer than 3 bins above balanced accuracy 0.55"
    first_half = upper[: len(upper) // 2]
    second_half = upper[len(upper) // 2 :]
    lo = float(np.mean([b.mean for b in first_half]))
    hi = float(np.mean([b.mean for b in second_half]))
    direction = "increases" if hi > lo else "does NOT increase"
    return (
        f"violation {direction} with balanced accuracy in the upper range "
        f"({lo:.3f} -> {hi:.3f} across {len(upper)} bins)"
    )


def test_criterion_11_protocol_conformance_on_real_data(
    german_dataset, german_prepared_twenty
):
    prepared = german_prepared_twenty
    n = german_dataset.n
    n_train, n_val = round(0.70 * n), round(0.20 * n)
    assert len(prepared.splits) == 20
    for train_idx, val_idx, test_idx in prepared.splits:
        assert (len(train_idx), len(val_idx), len(test_idx)) == (
            n_train,
            n_val,
            n - n_train - n_val,
        )
        merged = np.concatenate([train_idx, val_idx, test_idx])
        assert np.array_equal(np.sort(merged), np.arange(n))
        transform = data.fit_dp_transform(german_dataset.subset(train_idx), 0.5)
        for part_idx in (train_idx, test_idx):
            part = data.apply_dp_transform(transform, german_dataset.subset(part_idx))
            joint = np.sqrt(np.sum(part.features**2, axis=1) + part.labels**2)
            assert np.all(joint <= 1.0 + 1e-9)

    grid = default_grid()
    table = run_sweep(prepared, grid, EO_BLIND, 1.0, FitConfig(), 0)
    parts = table.splits()
    assert [int(part.split_id[0]) for part in parts] == list(range(20))
    per_split_curves = []
    for part in parts:
        assert len(part) == grid.cardinality
        curve = bin_min_violation(part, 0.025)
        for bin_low in curve:
            steps = (bin_low - 0.5) / 0.025
            assert abs(steps - round(steps)) < 1e-9
            assert 0.5 <= bin_low < 1.0
        per_split_curves.append(curve)
    aggregated = aggregate_curves(per_split_curves, 0.025)
    assert aggregated.bins

    adult_csv = os.environ.get("FAIRPLUG_ADULT_CSV")
    if adult_csv is None:
        print("criterion 11 qualitative check skipped: FAIRPLUG_ADULT_CSV not set")
    else:
        try:
            print(f"criterion 11 qualitative check: {_adult_qualitative_message(adult_csv)}")
        except Exception as exc:  # non-gating by design
            print(f"criterion 11 qualitative check errored (non-gating): {exc}")
    _report(11, "20 splits at 70:20:10, unit joint norms, full grids, 2.5% bins")


# ---------------------------------------------------------------------------
# 12. approximate-fairness / balanced-risk equivalences, exhaustively


def test_criterion_12_fairness_equivalences_exhaustive():
    rng = np.random.default_rng(606)
    ratio_thresholds = (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(4, 5),
        Fraction(1),
        Fraction(2),
    )
    difference_thresholds = (
        Fraction(-1, 2),
        Fraction(-1, 5),
        Fraction(0),
        Fraction(3, 10),
        Fraction(4, 5),
    )
    for _ in range(5):
        counts = rng.integers(1, 10, size=(4, 2))  # per atom: group -1, group +1
        atom_of_row = []
        group_of_row = []
        for i in range(4):
            for group, column in ((-1, 0), (1, 1)):
                atom_of_row.extend([i] * int(counts[i, column]))
                group_of_row.extend([group] * int(counts[i, column]))
        atom_of_row = np.array(atom_of_row)
        sens = np.array(group_of_row)
        for signs in itertools.product((-1, 1), repeat=4):
            preds = np.array([signs[a] for a in atom_of_row])
            pop = oracles.population_from_arrays(preds, sens)
            rates = metrics.dpar_dbar_rates(preds > 0, sens > 0)
            md_exact = pop.mean_difference()
            di_exact = pop.disparate_impact()
            assert metrics.mean_difference(rates) == pytest.approx(float(md_exact), abs=1e-12)
            if di_exact is None:
                with pytest.raises(DegenerateDataError):
                    metrics.disparate_impact(rates)
            else:
                assert metrics.disparate_impact(rates) == pytest.approx(
                    float(di_exact), abs=1e-12
                )
                for tau in ratio_thresholds:
                    kappa = tau / (1 + tau)
                    cs_exact = pop.cs_balanced(1 - kappa)
                    assert (di_exact >= tau) == (cs_exact >= kappa)
                    assert metrics.balanced_csr(rates, float(1 - kappa)) == pytest.approx(
                        float(cs_exact), abs=1e-12
                    )
            cs_half_exact = pop.cs_balanced(Fraction(1, 2))
            for tau in difference_thresholds:
                assert (md_exact >= tau) == (cs_half_exact >= (1 + tau) / 2)
            assert metrics.balanced_csr(rates, 0.5) == pytest.approx(
                (1.0 + metrics.mean_difference(rates)) / 2.0, abs=1e-12
            )
    _report(12, "ratio and difference equivalences hold for all 16 rules x 5 x 5")
