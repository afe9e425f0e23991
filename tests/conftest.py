"""Shared fixtures and references: calibrated chains are cached per session, and
a dense eigensolve is the independent oracle for the Pfaffian ground state."""

import numpy as np
import pytest

from qetsim import chain
from qetsim.pauli import HermitianOperator


@pytest.fixture(scope="session")
def chains():
    """Memoized access to calibrated chains: chains(n, boundary) -> (spec, result)."""
    cache = {}

    def get(n_sites: int, boundary: str = "periodic"):
        key = (n_sites, boundary)
        if key not in cache:
            cache[key] = chain.calibrated_chain(n_sites, boundary=boundary)
        return cache[key]

    return get


def dense_ground(op: HermitianOperator) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and an eigenvector of op's dense matrix."""
    vals, vecs = np.linalg.eigh(op.dense())
    return float(vals[0]), vecs[:, 0]


def basis_state(n_sites: int, index: int = 0) -> np.ndarray:
    vec = np.zeros(1 << n_sites, dtype=np.complex128)
    vec[index] = 1.0
    return vec
