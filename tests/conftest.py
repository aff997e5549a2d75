import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from beqpt.bipartite import DensityMatrix
from beqpt.states import random_density_matrix

# Derandomized property tests draw the same examples on every run, and no
# deadline means a slow shared machine cannot fail them on wall time.
settings.register_profile("beqpt", derandomize=True, deadline=None)
settings.load_profile("beqpt")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_product_state(dA, dB, rng):
    """Pure product density matrix |a><a| kron |b><b|."""
    a = rng.standard_normal(dA) + 1j * rng.standard_normal(dA)
    b = rng.standard_normal(dB) + 1j * rng.standard_normal(dB)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    ket = np.kron(a, b)
    return DensityMatrix(np.outer(ket, ket.conj()), dA, dB)


def kraus_sum(ch, rho):
    """(E kron Id)(rho) as the Kraus sum sum_n (K_n kron Id) rho (K_n kron Id)^dag,
    built with np.kron: a reference that never forms the superoperator."""
    eye = np.eye(rho.dB)
    return sum(np.kron(k, eye) @ rho.mat @ np.kron(k, eye).conj().T for k in ch.kraus)


def random_separable_state(dA, dB, rng, terms=6):
    """Convex mixture of random pure product states."""
    weights = rng.random(terms)
    weights /= weights.sum()
    mat = sum(w * random_product_state(dA, dB, rng).mat for w in weights)
    return DensityMatrix(mat, dA, dB)


@st.composite
def drawn_states(draw, max_d=5, square=False, single=False):
    """Wishart state of random rank on C^dA kron C^dB, dA, dB in 2..max_d
    (dB = dA if ``square``, dB = 1 if ``single``)."""
    dA = draw(st.integers(2, max_d))
    dB = dA if square else 1 if single else draw(st.integers(2, max_d))
    rank = draw(st.integers(1, dA * dB))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_density_matrix(dA, dB, rng, rank=rank)
