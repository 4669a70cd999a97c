"""Fairness-aware cost-sensitive classification toolkit.

The package builds plug-in classification rules that trade
cost-sensitive accuracy against group-fairness violations (equal
opportunity or demographic parity, with or without access to the
sensitive attribute at prediction time), measures them, analyzes the
decision-boundary geometry behind their finite-sample behavior, trains
them under differential privacy, and ships a small experiment harness
plus CLI around all of it.

Nothing is re-exported here; import each name from its module:
:mod:`~fairplug.core` (datasets, distribution statistics, fairness
parameters), :mod:`~fairplug.cpe` (logistic class-probability
estimators), :mod:`~fairplug.plugin` (the four plug-in rules),
:mod:`~fairplug.metrics`, :mod:`~fairplug.geometry`,
:mod:`~fairplug.privacy`, :mod:`~fairplug.data` (CSV ingest,
preprocessing, splits), :mod:`~fairplug.sweep` (the parameter-grid
experiment), :mod:`~fairplug.synthetic` (the synthetic-distribution
harness), :mod:`~fairplug.errors` and :mod:`~fairplug.cli`.
"""

__version__ = "0.1.0"
