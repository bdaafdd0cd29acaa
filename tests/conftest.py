import numpy as np
import pytest

from baresim import laws


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(20240901)))


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class NoDrawLaw(laws.ScaledPoisson):
    """A law whose every draw fails the test."""

    def sample_tilted_block(self, *args, **kwargs):
        pytest.fail("a weight law was drawn from")
