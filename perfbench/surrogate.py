"""German-credit-shaped surrogate CSV, scalable to any row count.

The recipe (columns, levels, ranges and the logistic label model) is the
one the test suite's German surrogate uses, drawn column by column so
that 45,000 rows take well under a second.  The file matches the bundled
``german_gender`` schema.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

CATEGORICALS = {
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

NUMERICS = {
    "duration": (4, 72),
    "credit_amount": (250, 18000),
    "installment_commitment": (1, 4),
    "residence_since": (1, 4),
    "age": (19, 75),
    "existing_credits": (1, 4),
    "num_dependents": (1, 2),
}

HEADER = [
    "checking_status", "duration", "credit_history", "purpose", "credit_amount",
    "savings_status", "employment", "installment_commitment", "personal_status",
    "other_parties", "residence_since", "property_magnitude", "age",
    "other_payment_plans", "housing", "existing_credits", "job", "num_dependents",
    "own_telephone", "foreign_worker", "class", "sex", "age_group",
]


def write_german_csv(path: Path, n: int, seed: int) -> Path:
    """Write ``n`` synthetic rows drawn from ``seed``; same seed, same bytes.

    Labels follow a logistic model of duration, credit amount, age and
    sex, so downstream fits have real signal.
    """

    gen = np.random.default_rng(seed)
    columns: dict[str, np.ndarray] = {}
    for name, levels in CATEGORICALS.items():
        columns[name] = np.asarray(levels)[gen.integers(len(levels), size=n)]
    for name, (low, high) in NUMERICS.items():
        columns[name] = gen.integers(low, high + 1, size=n)
    male = gen.random(n) < 0.65
    z = (
        0.06 * (columns["duration"] - 20)
        - 0.00012 * (columns["credit_amount"] - 3000)
        + 0.03 * (columns["age"] - 35)
        + np.where(male, 0.55, -0.55)
    )
    good = gen.random(n) < 1.0 / (1.0 + np.exp(-z))
    columns["personal_status"] = np.full(n, "ignored")
    columns["sex"] = np.where(male, "male", "female")
    columns["age_group"] = np.where(columns["age"] >= 30, "old", "young")
    columns["class"] = np.where(good, "good", "bad")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER)
        writer.writerows(zip(*(columns[name].tolist() for name in HEADER)))
    return path
