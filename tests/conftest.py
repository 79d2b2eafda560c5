"""Test-wide settings.

Hypothesis runs derandomized, with examples drawn from a hash of each test,
so every run of the suite tries the same cases. No deadline: a slow example
on a loaded machine is not a failure. No example database, so a run reads
and writes no state between runs.
"""

from hypothesis import settings

settings.register_profile("otsolve", derandomize=True, deadline=None, database=None)
settings.load_profile("otsolve")
