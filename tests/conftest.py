"""Session setup shared by the test modules."""

import shutil
import tempfile

import pytest
from hypothesis import configuration

HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # hypothesis caches the constants it reads from local modules under its home directory,
    # ./.hypothesis by default, as it collects the tests, even with database=None: keep
    # that cache in a temporary directory, removed when the session ends
    config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="workfdr-hypothesis-")
    configuration.set_hypothesis_home_dir(config.stash[HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    configuration.set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)
