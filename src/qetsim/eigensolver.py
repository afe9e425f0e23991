"""Ground-state computation for Pauli-sum operators.

The solver is ARPACK's implicitly restarted Lanczos (`scipy.sparse.linalg.eigsh`)
on a matrix-free `LinearOperator`, which keeps a fixed, small set of state
vectors.  States are plain numpy vectors of length 2**n_sites in the basis
described in :mod:`qetsim.pauli`.  The matvec and the final residual reduce
states with `pauli.inner` and `pauli.norm`, never BLAS, so numpy's OpenBLAS
threads stay asleep while scipy's run ARPACK.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .pauli import HermitianOperator, inner, norm

MAX_APPLIES = 2000
GAP_TOL = 1e-8


@dataclass
class EigenResult:
    energy: float
    state: np.ndarray
    residual: float
    iterations: int
    degenerate: bool = False


class EigensolverError(RuntimeError):
    """Raised on non-convergence; carries the best eigenpair found so far.

    The message reads the residual from `best` when printed, so a caller that
    rescales `best` also rescales the message.
    """

    def __init__(self, reason: str, best: EigenResult):
        super().__init__(reason)
        self.best = best

    def __str__(self) -> str:
        return f"{self.args[0]} (best residual {self.best.residual:.3e})"


def normalize(vec: np.ndarray) -> np.ndarray:
    nrm = norm(vec)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return vec / nrm


def fix_phase(vec: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude amplitude real and positive."""
    k = int(np.argmax(np.abs(vec)))
    pivot = vec[k]
    if pivot == 0.0:
        return vec
    return vec * (abs(pivot) / pivot)


def ground_state(op: HermitianOperator, tol: float = 1e-10, seed: int = 0) -> EigenResult:
    """Lowest eigenpair of a Hermitian Pauli-sum operator on at least 2 sites.

    ARPACK computes the two lowest pairs from a seeded start vector, so runs
    are reproducible; the second gives the gap, and a gap below GAP_TOL
    sets `degenerate` and warns.  `tol` bounds the absolute residual
    ||op v - E v||: ARPACK's own tolerance is relative to |E| <= one_norm, so
    it gets tol / one_norm.  `iterations` counts the operator applications.
    After MAX_APPLIES of them, or when the residual ends at or above `tol`,
    EigensolverError carries the best pair seen (the lowest Rayleigh
    quotient, a variational bound).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    if op.n_sites < 2:
        raise ValueError("the two lowest eigenpairs need an operator on at least 2 sites")
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(op.dim)
    if not op.is_real:
        start = start + 1j * rng.standard_normal(op.dim)
    start = normalize(start)
    applies = 0
    best = EigenResult(np.inf, start, np.inf, 0)

    def matvec(x: np.ndarray) -> np.ndarray:
        nonlocal applies, best
        if applies == MAX_APPLIES:
            best.iterations = applies
            raise EigensolverError(f"Lanczos did not converge in {applies} "
                                   "operator applications", best)
        y = op.apply(x)
        applies += 1
        sq = float(inner(x, x).real)
        theta = float(inner(x, y).real) / sq
        if theta < best.energy:
            r = y - theta * x
            best = EigenResult(theta, fix_phase(x / np.sqrt(sq)), norm(r) / np.sqrt(sq), 0)
        return y

    lin = LinearOperator((op.dim, op.dim), matvec=matvec, dtype=start.dtype)
    # without `rng`, any random vector ARPACK asks for would come from OS entropy;
    # an operator with no terms has one_norm 0 and every vector as an eigenvector
    vals, vecs = eigsh(lin, k=2, which="SA", v0=start, tol=tol / (op.one_norm or 1.0),
                       maxiter=MAX_APPLIES, rng=rng)
    lo = int(np.argmin(vals))
    energy, gap = float(vals[lo]), float(abs(vals[1] - vals[0]))
    state = fix_phase(normalize(np.ascontiguousarray(vecs[:, lo])))
    residual = norm(op.apply(state) - energy * state)
    if gap < GAP_TOL:
        warnings.warn(f"near-degenerate ground space (gap {gap:.2e})")
    result = EigenResult(energy, state, residual, applies + 1, degenerate=gap < GAP_TOL)
    if residual >= tol:
        raise EigensolverError("ARPACK stopped short of the tolerance", result)
    return result
