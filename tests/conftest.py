"""Shared hypothesis settings: no per-example deadline (a solve on a small
host takes longer than the 200 ms default) and derandomized draws, so
every run tests the same examples."""

from hypothesis import settings

settings.register_profile("malab", deadline=None, derandomize=True)
settings.load_profile("malab")
