"""Hypothesis profiles for the CSL front-door fuzzers.

Tier-1 runs ``test_fuzz.py`` under hypothesis's default budget (100 examples
per property, derandomised by the tests themselves); ``make fuzz`` selects
the long budget with ``--hypothesis-profile=long``.
"""

from hypothesis import settings

settings.register_profile("long", max_examples=2000)
