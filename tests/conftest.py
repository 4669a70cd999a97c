"""Shared fixtures: deterministic RNGs and surrogate census-style CSVs."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fairplug import synthetic
from fairplug.kvformat import format_float_vector, write_kv

settings.register_profile(
    "fairplug",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fairplug")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260821)


_GERMAN_CATEGORICALS = {
    "checking_status": ["<0", "0<=X<200", ">=200", "no checking"],
    "credit_history": ["critical", "existing paid", "delayed", "all paid"],
    "purpose": ["radio/tv", "new car", "furniture", "education", "business"],
    "savings_status": ["<100", "100<=X<500", ">=1000", "no known savings"],
    "employment": ["<1", "1<=X<4", "4<=X<7", ">=7", "unemployed"],
    "other_parties": ["none", "guarantor", "co applicant"],
    "property_magnitude": ["real estate", "life insurance", "car", "no known property"],
    "other_payment_plans": ["none", "bank", "stores"],
    "housing": ["own", "rent", "for free"],
    "job": ["skilled", "unskilled resident", "high qualif", "unemp/unskilled non res"],
    "own_telephone": ["yes", "none"],
    "foreign_worker": ["yes", "no"],
}

_GERMAN_NUMERICS = {
    "duration": (4, 72),
    "credit_amount": (250, 18000),
    "installment_commitment": (1, 4),
    "residence_since": (1, 4),
    "age": (19, 75),
    "existing_credits": (1, 4),
    "num_dependents": (1, 2),
}


def write_distribution(dist: synthetic.SyntheticDistribution, path: Path) -> Path:
    """``dist`` as the key = value file ``simulate --dist`` reads."""
    law = dist.law
    if isinstance(law, synthetic.DiscreteLaw):
        tag = synthetic.LAW_DISCRETE
        fields = [*((f"point.{i}", row) for i, row in enumerate(law.points)), ("masses", law.masses)]
    elif isinstance(law, synthetic.UniformBoxLaw):
        tag, fields = synthetic.LAW_UNIFORM, [("lows", law.lows), ("highs", law.highs)]
    else:
        tag = synthetic.LAW_GAUSSIAN
        fields = [("mean", law.mean), ("std", law.std), ("lows", law.lows), ("highs", law.highs)]
    fields += [("w_eta", dist.w_eta), ("w_eta_bar", dist.w_eta_bar)]
    write_kv(path, [("law", tag), *((key, format_float_vector(v)) for key, v in fields)])
    return path


def make_german_surrogate(path: Path, n: int = 1000, seed: int = 11) -> Path:
    """A German-credit-shaped CSV: same columns as the bundled schema.

    Labels and the sensitive column are drawn from a logistic model of
    a few numeric columns so that downstream fits have real signal; the
    file is purely synthetic stand-in data.
    """

    gen = np.random.default_rng(seed)
    header = [
        "checking_status", "duration", "credit_history", "purpose", "credit_amount",
        "savings_status", "employment", "installment_commitment", "personal_status",
        "other_parties", "residence_since", "property_magnitude", "age",
        "other_payment_plans", "housing", "existing_credits", "job", "num_dependents",
        "own_telephone", "foreign_worker", "class", "sex", "age_group",
    ]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for _ in range(n):
            row = {}
            for name, levels in _GERMAN_CATEGORICALS.items():
                row[name] = levels[int(gen.integers(len(levels)))]
            for name, (low, high) in _GERMAN_NUMERICS.items():
                row[name] = str(int(gen.integers(low, high + 1)))
            row["personal_status"] = "ignored"
            sex = "male" if gen.random() < 0.65 else "female"
            row["sex"] = sex
            row["age_group"] = "old" if int(row["age"]) >= 30 else "young"
            z = (
                0.06 * (int(row["duration"]) - 20)
                - 0.00012 * (int(row["credit_amount"]) - 3000)
                + 0.03 * (int(row["age"]) - 35)
                + (0.55 if sex == "male" else -0.55)
            )
            good = gen.random() < 1.0 / (1.0 + np.exp(-z))
            row["class"] = "good" if good else "bad"
            writer.writerow([row[name] for name in header])
    return path


@pytest.fixture(scope="session")
def german_csv(tmp_path_factory) -> Path:
    return make_german_surrogate(tmp_path_factory.mktemp("german") / "german.csv")


@pytest.fixture(scope="session")
def tiny_csv(tmp_path_factory) -> Path:
    """A small two-numeric-one-categorical CSV with its own schema file."""

    root = tmp_path_factory.mktemp("tiny")
    gen = np.random.default_rng(5)
    with open(root / "tiny.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x1", "x2", "color", "outcome", "group"])
        for _ in range(240):
            x1, x2 = gen.normal(size=2)
            color = ["red", "blue", "green"][int(gen.integers(3))]
            group = "a" if gen.random() < 0.5 else "b"
            z = 1.3 * x1 - 0.7 * x2 + (0.6 if group == "a" else -0.6)
            outcome = "yes" if gen.random() < 1.0 / (1.0 + np.exp(-z)) else "no"
            writer.writerow([f"{x1:.5f}", f"{x2:.5f}", color, outcome, group])
    schema = root / "tiny_schema.kv"
    schema.write_text(
        "feature.0 = x1:numeric\n"
        "feature.1 = x2:numeric\n"
        "feature.2 = color:categorical\n"
        "label_column = outcome\n"
        "label_positive = yes\n"
        "sensitive_column = group\n"
        "sensitive_positive = a\n"
    )
    return root / "tiny.csv"


@pytest.fixture(scope="session")
def tiny_schema(tiny_csv) -> Path:
    return tiny_csv.parent / "tiny_schema.kv"
