"""Ground-state computation for Pauli-sum operators, plus state-vector utilities.

The solver is Lanczos with full reorthogonalization (robustness over speed at
these sizes, <= ~20 qubits) and an explicit restart from the current Ritz
vector when the Krylov block hits its memory cap.  A dense eigensolve is
available both as a small-system fallback and as an independent oracle for
tests.  States are plain numpy vectors of length 2**n_sites in the basis
described in :mod:`qetsim.pauli`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

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
                 seed: int = 0, method: str = "auto", block_size: int = 220,
                 gap_tol: float = 1e-8) -> EigenResult:
    """Lowest eigenpair of a Hermitian Pauli-sum operator.

    method: "lanczos", "dense", or "auto" (Lanczos, falling back to a dense
    eigensolve for n_sites <= 10 if Lanczos fails to converge).  The start
    vector is drawn from a seeded generator so runs are reproducible.  A
    gap below `gap_tol` sets the `degenerate` flag and emits a warning.
    """
    if method not in ("auto", "lanczos", "dense"):
        raise ValueError(f"unknown method {method!r}")
    if method == "dense":
        return _dense_ground(op, tol, gap_tol)
    try:
        return _lanczos_ground(op, tol, max_iter, seed, block_size, gap_tol)
    except EigensolverError:
        if method == "auto" and op.n_sites <= 10:
            return _dense_ground(op, tol, gap_tol)
        raise


def _dense_ground(op: HermitianOperator, tol: float, gap_tol: float) -> EigenResult:
    mat = op.dense()
    vals, vecs = np.linalg.eigh(mat)
    state = fix_phase(normalize(np.ascontiguousarray(vecs[:, 0])))
    energy = float(vals[0])
    residual = float(np.linalg.norm(op.apply(state) - energy * state))
    degenerate = mat.shape[0] > 1 and float(vals[1] - vals[0]) < gap_tol
    if degenerate:
        warnings.warn(f"near-degenerate ground space (gap {vals[1] - vals[0]:.2e})")
    return EigenResult(energy, state, residual, iterations=0, degenerate=degenerate)


def _tridiag_lowest(alphas: np.ndarray, betas: np.ndarray):
    """(theta0, eig-vector s0, theta1 - theta0) of the tridiagonal projection."""
    if len(alphas) == 1:
        return float(alphas[0]), np.ones(1), np.inf
    vals, vecs = eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 1))
    return float(vals[0]), vecs[:, 0], float(vals[1] - vals[0])


def _start_vector(op: HermitianOperator, rng) -> np.ndarray:
    if op.is_real:
        return normalize(rng.standard_normal(op.dim))
    return normalize(rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim))


def _lanczos_ground(op: HermitianOperator, tol: float, max_iter: int, seed: int,
                    block_size: int, gap_tol: float) -> EigenResult:
    rng = np.random.default_rng(seed)
    v = _start_vector(op, rng)
    breakdown = 1e-13 * max(1.0, op.one_norm)
    applies = 0
    best = EigenResult(np.inf, v, np.inf, 0)

    while applies < max_iter:
        cap = max(2, min(block_size, op.dim, max_iter - applies))
        basis = np.empty((cap, op.dim), dtype=v.dtype)
        alphas = np.empty(cap)
        betas = np.empty(cap - 1)
        basis[0] = v
        k = 0
        while True:
            w = op.apply(basis[k])
            applies += 1
            alphas[k] = np.real(np.vdot(basis[k], w))
            w -= alphas[k] * basis[k]
            if k > 0:
                w -= betas[k - 1] * basis[k - 1]
            # full reorthogonalization, two passes
            for _ in range(2):
                w -= basis[: k + 1].T @ (basis[: k + 1].conj() @ w)
            beta = float(np.linalg.norm(w))
            if k < cap - 1:
                betas[k] = beta

            theta, s0, _ = _tridiag_lowest(alphas[: k + 1], betas[:k])
            res_est = beta * abs(s0[-1])
            terminal = k + 1 >= cap or applies >= max_iter or beta < breakdown
            if res_est < tol or terminal:
                state = normalize(s0 @ basis[: k + 1])
                residual = float(np.linalg.norm(op.apply(state) - theta * state))
                if residual < best.residual:
                    best = EigenResult(theta, state, residual, applies)
                if best.residual < tol or beta < breakdown:
                    degenerate, probe_applies = _degenerate_ground(
                        op, best.energy, best.state, gap_tol, rng, max_iter)
                    best.state = fix_phase(best.state)
                    best.iterations = applies + probe_applies
                    best.degenerate = degenerate
                    if degenerate:
                        warnings.warn("near-degenerate ground space")
                    return best
                if terminal:
                    break
            basis[k + 1] = w / beta
            k += 1
        v = best.state  # explicit restart from the best Ritz vector so far

    raise EigensolverError(
        f"Lanczos did not converge in {applies} iterations "
        f"(best residual {best.residual:.3e})",
        EigenResult(best.energy, fix_phase(best.state), best.residual, applies),
    )


def _degenerate_ground(op: HermitianOperator, energy: float, state: np.ndarray,
                       gap_tol: float, rng, max_iter: int) -> tuple[bool, int]:
    """Probe the orthogonal complement of the found eigenvector for the gap.

    A plain Krylov space holds one copy of each eigenspace, so exact
    multiplicity is invisible to the main sweep; a second deflated pass sees
    it.  The probe stops as soon as the residual bound certifies the second
    eigenvalue to be at least `gap_tol` above the ground energy (Ritz value
    minus residual is a lower bound on the nearest eigenvalue).
    """
    dim = op.dim
    scale = max(1.0, op.one_norm)
    cap = min(150, dim, max_iter)
    defl = state[np.newaxis, :]
    v = _start_vector(op, rng)
    v = normalize(v - defl.T @ (defl.conj() @ v))
    basis = np.empty((cap, dim), dtype=v.dtype)
    alphas = np.empty(cap)
    betas = np.empty(cap - 1)
    basis[0] = v
    applies = 0
    for k in range(cap):
        w = op.apply(basis[k])
        applies += 1
        alphas[k] = np.real(np.vdot(basis[k], w))
        w -= alphas[k] * basis[k]
        if k > 0:
            w -= betas[k - 1] * basis[k - 1]
        for _ in range(2):
            w -= basis[: k + 1].T @ (basis[: k + 1].conj() @ w)
            w -= defl.T @ (defl.conj() @ w)
        beta = float(np.linalg.norm(w))
        theta, s0, _ = _tridiag_lowest(alphas[: k + 1], betas[:k])
        res_est = beta * abs(s0[-1])
        if theta - res_est - energy > gap_tol:
            return False, applies          # certified clear of the tolerance
        if res_est < gap_tol or beta < 1e-13 * scale or k == cap - 1:
            return theta - energy < gap_tol, applies
        betas[k] = beta
        basis[k + 1] = w / beta
    return False, applies
