"""Session setup shared by the test modules."""

from hypothesis.configuration import set_hypothesis_home_dir


def pytest_configure(config):
    # hypothesis caches the constants of local source files on disk while
    # collecting, even with database=None; keep that cache inside pytest's
    # own cache directory instead of a .hypothesis/ in the working tree
    cache = getattr(config, "cache", None)
    if cache is not None:
        set_hypothesis_home_dir(cache.mkdir("hypothesis"))
