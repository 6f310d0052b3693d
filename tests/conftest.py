import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves via importorskip
    pass
else:
    # Deterministic property tests: fixed examples, no example database.
    settings.register_profile("geoconn", max_examples=30, deadline=None, derandomize=True, database=None)
    settings.load_profile("geoconn")

from geoconn import (
    make_ehresmann,
    make_heisenberg_algebroid,
    make_nijenhuis,
    make_poisson,
    make_subbundle_injection,
    make_subriemannian_heisenberg,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def ehresmann_case():
    return make_ehresmann()


@pytest.fixture(scope="session")
def subbundle_case():
    return make_subbundle_injection()


@pytest.fixture(scope="session")
def poisson_case():
    return make_poisson(coeffs=[[["0.1*x1", "0.2"], ["0", "0.1"]], [["0", "-0.2*x0"], ["0.1", "0"]]])


@pytest.fixture(scope="session")
def nijenhuis_case():
    return make_nijenhuis()


@pytest.fixture(scope="session")
def nijenhuis_constant_case():
    return make_nijenhuis(
        a_field=np.array([[1.0, 0.3], [0.2, 1.0]]),
        coeffs=[[["0.2*x1", "0.1"], ["0", "0.3*x0"]], [["0", "-0.1*x0"], ["0.15", "0.1*x1"]]],
    )


@pytest.fixture(scope="session")
def heisenberg_sr_case():
    return make_subriemannian_heisenberg()


@pytest.fixture(scope="session")
def heisenberg_lie_case():
    return make_heisenberg_algebroid()


def expm_series(mat: np.ndarray) -> np.ndarray:
    """Scaled-and-squared Taylor series exponential, independent of transport."""
    mat = np.asarray(mat, dtype=float)
    norm = np.linalg.norm(mat, np.inf)
    squarings = max(0, int(np.ceil(np.log2(norm))) + 2) if norm > 0 else 0
    small = mat / (2.0**squarings)
    out = np.eye(mat.shape[0])
    term = np.eye(mat.shape[0])
    for i in range(1, 30):
        term = term @ small / i
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out
