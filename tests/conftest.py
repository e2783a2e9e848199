"""Shared test settings.

The hypothesis profile makes every property test draw the same examples on
every run and keep no example database, so the suite is reproducible.
Hypothesis still caches data under its storage directory, by default
.hypothesis/ in the working directory; the hooks below move that to a
temporary directory removed after the run, so the checkout stays clean.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile(
    "troplane",
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=100,
)
settings.load_profile("troplane")

_STORAGE = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    storage = tempfile.TemporaryDirectory(prefix="troplane-hypothesis-")
    config.stash[_STORAGE] = storage
    set_hypothesis_home_dir(storage.name)


def pytest_unconfigure(config):
    config.stash[_STORAGE].cleanup()
