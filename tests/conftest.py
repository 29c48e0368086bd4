"""Hypothesis profiles for the test suite.

On a CI machine Hypothesis loads its built-in `ci` profile, which
derandomizes: every run tries the same examples. `explore` is that profile
with fresh random examples, for a CI step that passes a new
`--hypothesis-seed` on each run, so that a failure names the seed that
reproduces it:

    pytest -q tests --hypothesis-profile=explore --hypothesis-seed=<seed>
"""

from hypothesis import settings

settings.register_profile("explore", settings.get_profile("ci"), derandomize=False)
