"""Hypothesis profiles for the test suite.

``ci`` derandomizes the property tests, so a CI run explores the same
examples every time and a failure reproduces; select it with
``pytest --hypothesis-profile=ci``. Without it, hypothesis draws fresh
examples on every run.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
