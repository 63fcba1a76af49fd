"""Hypothesis profiles. HYPOTHESIS_PROFILE=ci selects a derandomized run,
so a failure in CI reproduces on a rerun; without it, examples are drawn
at random as usual."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
