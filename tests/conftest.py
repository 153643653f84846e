"""Session-wide test settings.

Every hypothesis property test draws the same examples on every run: the
profile seeds the search from each test's own source and keeps no example
database between runs.  A test's own @settings still overrides the rest.
"""

import errno

from hypothesis import settings

settings.register_profile("anivex", derandomize=True, deadline=None, database=None)
settings.load_profile("anivex")


class HalfWriter:
    """A file that writes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")
