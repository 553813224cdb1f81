"""Seeded LAYER001: the serving boot loads a baseline method model."""

from repro.baselines import standard_methods

METHODS = standard_methods
