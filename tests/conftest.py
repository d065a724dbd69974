"""Suite-wide hypothesis profiles.

Tier-1 must be deterministic, so the default ``ci`` profile derandomizes
every ``@given`` test: each run draws the same examples.  ``explore``
(``pytest --hypothesis-profile=explore``) draws fresh random examples on
every run instead; the nightly CI job runs every file that uses hypothesis
under it.  A test's own ``@settings(max_examples=...)`` applies under
either profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("explore", derandomize=False, deadline=None)
settings.load_profile("ci")
