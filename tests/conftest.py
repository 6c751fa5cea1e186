"""Hypothesis runs derandomized, so every tier-1 run draws the same
examples; a failure reproduces from the printed falsifying example."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")
