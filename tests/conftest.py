"""Settings shared by the property tests.

One hypothesis profile, loaded for the whole suite: draws are derandomized,
so a failing example reproduces on every run, and there is no deadline,
since exact arithmetic on a large draw can be slow.  Each test sets its own
max_examples.
"""

from hypothesis import settings

settings.register_profile("kodaira", deadline=None, derandomize=True)
settings.load_profile("kodaira")
