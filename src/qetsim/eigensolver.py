"""The critical Ising chain's exact ground state, built from its pairing matrix.

The Jordan-Wigner transform (Lieb, Schultz & Mattis, Ann. Phys. 16, 407
(1961)) turns the bare chain H = -J sum_n (sz_n + sx_n sx_{n+1}) into a
quadratic form in fermions c_n, with c_n^dag c_n = 1 on bit n of the basis
index (sz_n = -1).  At J = 1 its Bogoliubov-de Gennes matrix is
[[A, B], [-B, -A]], with A_nn = 2, A = -1 on each bond, and B = -1 above
the diagonal on each bond and +1 below it.  A periodic chain's ground state
has even fermion parity, where the fermions see an antiperiodic boundary:
its closing bond enters with the opposite sign.  The ground state is the
Gaussian state exp(sum_{i<j} G_ij c_i^dag c_j^dag)|0>, whose amplitude on
the occupied sites S is the Pfaffian of G restricted to S (Robledo, PRC 79,
021302 (2009)); an odd S has amplitude exactly 0.

A positive-energy BdG eigenvector (x_k, y_k) has phi_k = x_k + y_k and
psi_k = x_k - y_k with (A + B) phi_k = eps_k psi_k and
(A - B) psi_k = eps_k phi_k, so one SVD of the N x N matrix A + B gives
every eps_k and, with the rows X = (x_k), Y = (y_k), the pairing matrix
G = -X^-1 Y; E0 = -(1/2) sum_k eps_k.  With A + B = U diag(eps) V^T, the
orthogonal polar factor T = U V^T is the ground state's Majorana
covariance: <sz_n> = T[n, n] and <sx_n sx_{n+1}> = -T[n, n+1], and a
periodic chain's closing bond <sx_{N-1} sx_0> = +T[N-1, 0], the sign its
antiperiodic fermions give it.  The SVD stands in for an `eigh` of
the 2N x 2N matrix because LAPACK's divide-and-conquer `eigh` above 25 rows
wakes numpy's OpenBLAS thread pool, whose workers then spin through the
rest of the computation.  Nothing iterates, and no number depends on a seed.

States are plain numpy vectors of length 2**n_sites in the basis described
in :mod:`qetsim.pauli`, reduced with `pauli.norm`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, build_hamiltonian
from .pauli import norm

GAP_TOL = 1e-8
RESIDUAL_BOUND = 1e-10


@dataclass
class EigenResult:
    energy: float
    state: np.ndarray
    residual: float
    iterations: int
    degenerate: bool = False
    covariance: np.ndarray | None = None    # T = U V^T, N x N (see the module docstring)


def bdg_blocks(n_sites: int, periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """The blocks A and B of the chain's BdG matrix at J = 1, in the even-parity sector."""
    a = 2.0 * np.eye(n_sites)
    b = np.zeros((n_sites, n_sites))
    for n in range(n_sites if periodic else n_sites - 1):
        m = (n + 1) % n_sites
        sign = -1.0 if m == 0 else 1.0      # the closing bond, antiperiodic
        a[n, m] = a[m, n] = -sign
        b[n, m], b[m, n] = -sign, sign
    return a, b


def pfaffian_amplitudes(pairing: np.ndarray) -> np.ndarray:
    """Pf(G_S) for every site set S, at index sum_{n in S} 2**n; Pf of the empty set is 1.

    Expanding each Pfaffian along its highest site h gives
    Pf(G_S) = sum_{j in S, j < h} (-1)^{#(S between j and h)} G_jh Pf(G_{S - j - h}).
    So for h = 1 .. N-1 the sets whose highest site is h, amp[2**h : 2**(h+1)],
    are filled from the contiguous prefix amp[:2**h]; the term of site j reads
    both as (2**(h-1-j), 2, 2**j), axis 1 being site j.  Only even sets are
    nonzero, so the sign is also the parity of the sites below j, on axis 2,
    which the term walks one entry at a time while it is short.  That is one
    multiply into a work buffer and one add per term, about N 2**N flops.
    """
    n_sites = len(pairing)
    amp = np.zeros(1 << n_sites)
    amp[0] = 1.0
    # (-1)^popcount(m) for m < 2**(N-2), the most sites any term has below j
    parity = np.ones(1 << max(n_sites - 2, 0))
    for k in range(n_sites - 2):
        parity[1 << k:2 << k] = -parity[:1 << k]
    work = np.empty(parity.size)
    for h in range(1, n_sites):
        below, highest = amp[:1 << h], amp[1 << h:2 << h]
        for j in range(h):
            shape = (1 << (h - 1 - j), 2, 1 << j)
            src, dst = below.reshape(shape)[:, 0], highest.reshape(shape)[:, 1]
            if j < 4:
                for b in range(1 << j):
                    dst[:, b] += np.multiply(src[:, b], pairing[j, h] * parity[b],
                                             out=work[:shape[0]])
            else:
                dst += np.multiply(src, pairing[j, h] * parity[:1 << j],
                                   out=work[:1 << (h - 1)].reshape(shape[0], -1))
    return amp


def ground_state(spec: ChainSpec) -> EigenResult:
    """The exact ground state of `spec`'s chain, with E0 and the even-sector gap exact.

    The state is the Pfaffian state of the J = 1 pairing matrix, normalized,
    with its largest amplitude positive; it does not depend on J or on the
    offsets, which shift H by a multiple of I.  `energy` is J E0 minus the
    offsets' sum, as H has them.  `residual` is ||H g - E0 g|| from one
    application of the bare J = 1 Hamiltonian, times J; a residual above
    RESIDUAL_BOUND J raises RuntimeError.  `iterations` counts that one
    application.  The lowest even excitation costs the two smallest eps_k;
    a gap below GAP_TOL J sets `degenerate` and warns.  The odd sector's
    lowest level lies about 1.6 J/N above E0 on a periodic chain and 3 J/N
    on an open one, so it cannot close the gap unseen.  `covariance` is the
    polar factor T of A + B, from which `chain.calibrated_chain` reads
    every <sz_n> and <sx_n sx_{n+1}>.
    """
    n_sites = spec.n_sites
    a, b = bdg_blocks(n_sites, spec.boundary == "periodic")
    psi, eps, phi = np.linalg.svd(a + b)            # eps descending; rows phi_k, columns psi_k
    # X and Y up to the common factor 1/2, which G does not see
    pairing = -np.linalg.solve(phi + psi.T, phi - psi.T)
    e0 = -0.5 * float(np.sum(eps))
    gap = float(eps[-1] + eps[-2])
    state = pfaffian_amplitudes(pairing)
    state /= np.copysign(norm(state), state[np.argmax(np.abs(state))])
    h_g = build_hamiltonian(ChainSpec(n_sites, 1.0, spec.boundary)).apply(state)
    h_g -= e0 * state
    residual = spec.coupling * norm(h_g)
    if not residual <= RESIDUAL_BOUND * spec.coupling:
        raise RuntimeError(f"the Pfaffian ground state misses H g = E0 g by "
                           f"{residual:.3e} (bound {RESIDUAL_BOUND * spec.coupling:.1e})")
    if gap < GAP_TOL:
        warnings.warn(f"near-degenerate ground space (gap {gap:.2e} J)")
    return EigenResult(spec.coupling * e0 - float(np.sum(spec.epsilon)), state, residual, 1,
                       degenerate=gap < GAP_TOL, covariance=psi @ phi)
