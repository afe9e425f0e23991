"""Ground-state computation for Pauli-sum operators, plus state-vector utilities.

The solver is ARPACK's implicitly restarted Lanczos (`scipy.sparse.linalg.eigsh`)
on a matrix-free `LinearOperator`, which keeps a fixed, small set of state
vectors.  A dense eigensolve is both a small-system fallback and an
independent oracle for tests.  States are plain numpy vectors of length
2**n_sites in the basis described in :mod:`qetsim.pauli`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .pauli import HermitianOperator


@dataclass
class EigenResult:
    energy: float
    state: np.ndarray
    residual: float
    iterations: int
    degenerate: bool = False


class EigensolverError(RuntimeError):
    """Raised on non-convergence; carries the best eigenpair found so far."""

    def __init__(self, message: str, best: EigenResult):
        super().__init__(message)
        self.best = best


def normalize(vec: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(vec)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return vec / nrm


def basis_state(n_sites: int, index: int = 0) -> np.ndarray:
    vec = np.zeros(1 << n_sites, dtype=np.complex128)
    vec[index] = 1.0
    return vec


def random_state(n_sites: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(1 << n_sites) + 1j * rng.standard_normal(1 << n_sites)
    return normalize(vec)


def fix_phase(vec: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude amplitude real and positive."""
    k = int(np.argmax(np.abs(vec)))
    pivot = vec[k]
    if pivot == 0.0:
        return vec
    return vec * (abs(pivot) / pivot)


def expectation(state: np.ndarray, op: HermitianOperator, imag_tol: float = 1e-12) -> float:
    """Re <state|O|state> for a normalized state."""
    nrm = np.linalg.norm(state)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"state is not normalized (norm {nrm:.3e})")
    return op.expectation(state, imag_tol=imag_tol)


def energy_variance(state: np.ndarray, op: HermitianOperator) -> float:
    """<O^2> - <O>^2, an eigenstate witness (zero for exact eigenstates)."""
    hv = op.apply(state)
    return float(np.real(np.vdot(hv, hv)) - np.real(np.vdot(state, hv)) ** 2)


def ground_state(op: HermitianOperator, tol: float = 1e-10, max_iter: int = 2000,
                 seed: int = 0, method: str = "auto", gap_tol: float = 1e-8) -> EigenResult:
    """Lowest eigenpair of a Hermitian Pauli-sum operator.

    method: "lanczos" (ARPACK), "dense", or "auto" (Lanczos, falling back to a
    dense eigensolve for n_sites <= 10 if Lanczos fails to converge); a 1-site
    operator is always solved densely.  `max_iter` caps the operator
    applications, which `iterations` counts.  The start vector is seeded, so
    runs are reproducible.  A gap below `gap_tol` sets `degenerate` and warns.
    """
    if method not in ("auto", "lanczos", "dense"):
        raise ValueError(f"unknown method {method!r}")
    if method != "dense" and op.dim > 2:
        try:
            return _arpack_ground(op, tol, max_iter, seed, gap_tol)
        except EigensolverError:
            if method == "lanczos" or op.n_sites > 10:
                raise
    vals, vecs = np.linalg.eigh(op.dense())
    gap = float(vals[1] - vals[0]) if len(vals) > 1 else np.inf
    return _finish(op, float(vals[0]), vecs[:, 0], gap, gap_tol, iterations=0)


def _finish(op: HermitianOperator, energy: float, vec: np.ndarray, gap: float,
            gap_tol: float, iterations: int) -> EigenResult:
    state = fix_phase(normalize(np.ascontiguousarray(vec)))
    residual = float(np.linalg.norm(op.apply(state) - energy * state))
    if gap < gap_tol:
        warnings.warn(f"near-degenerate ground space (gap {gap:.2e})")
    return EigenResult(energy, state, residual, iterations, degenerate=gap < gap_tol)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum, not BLAS: numpy's OpenBLAS threads would wake and contend with scipy's
    return float(np.einsum("i,i", a.conj(), b).real)


def _arpack_ground(op: HermitianOperator, tol: float, max_iter: int, seed: int,
                   gap_tol: float) -> EigenResult:
    """The two lowest eigenpairs from `eigsh`; the second gives the gap.

    ARPACK's tolerance is relative to |lambda| <= one_norm, so it is scaled to
    an absolute residual below `tol`.  The matvec enforces `max_iter`, raising
    the lowest Rayleigh quotient seen (a variational bound) as the best pair.
    """
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(op.dim)
    if not op.is_real:
        start = start + 1j * rng.standard_normal(op.dim)
    start = normalize(start)
    applies = 0
    best = EigenResult(np.inf, start, np.inf, 0)

    def matvec(x: np.ndarray) -> np.ndarray:
        nonlocal applies, best
        if applies == max_iter:
            best.iterations = applies
            raise EigensolverError(f"Lanczos did not converge in {applies} operator "
                                   f"applications (best residual {best.residual:.3e})", best)
        y = op.apply(x)
        applies += 1
        sq = _dot(x, x)
        theta = _dot(x, y) / sq
        if theta < best.energy:
            r = y - theta * x
            best = EigenResult(theta, fix_phase(x / np.sqrt(sq)), np.sqrt(_dot(r, r) / sq), 0)
        return y

    lin = LinearOperator((op.dim, op.dim), matvec=matvec, dtype=start.dtype)
    # without `rng`, any random vector ARPACK asks for would come from OS entropy
    vals, vecs = eigsh(lin, k=2, which="SA", v0=start, tol=tol / max(1.0, op.one_norm),
                       maxiter=max_iter, rng=rng)
    lo = int(np.argmin(vals))
    result = _finish(op, float(vals[lo]), vecs[:, lo], float(abs(vals[1] - vals[0])),
                     gap_tol, iterations=applies + 1)
    if result.residual >= tol:
        raise EigensolverError(f"ARPACK stopped at residual {result.residual:.3e}", result)
    return result
