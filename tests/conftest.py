import numpy as np
import pytest
from hypothesis import settings

# every run draws the same examples (derandomize also turns off the example
# database); `pytest --hypothesis-profile default` draws fresh ones
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_bloch(rng, rmax=0.99):
    """Random interior Bloch vector with |r| < rmax."""
    v = rng.normal(size=3)
    return v * (rng.uniform(0.0, rmax) / np.linalg.norm(v))


def random_density(rng, dim=2):
    """Random full-rank density matrix of the given dimension."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T + 1e-6 * np.eye(dim)
    return rho / np.trace(rho).real
