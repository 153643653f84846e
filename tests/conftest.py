"""Session-wide test settings.

Every hypothesis property test draws the same examples on every run: the
profile seeds the search from each test's own source and keeps no example
database between runs.  A test's own @settings still overrides the rest.
"""

from hypothesis import settings

settings.register_profile("anivex", derandomize=True, deadline=None, database=None)
settings.load_profile("anivex")
