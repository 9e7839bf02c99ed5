import os

import numpy as np
import pytest
from hypothesis import settings

from keyforge.data import synth_corpus

settings.register_profile("default", max_examples=100, deadline=None)
# CI: the same examples on every run, so a property cannot pass on one push and fail on the next
settings.register_profile("ci", max_examples=100, deadline=None, derandomize=True)
settings.load_profile(os.environ.get("KEYFORGE_HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def small_corpus():
    """Shared 6-user corpus, big enough for pair sampling but fast to build."""
    return synth_corpus(6, 6, 11)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
