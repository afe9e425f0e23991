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
G = -X^-1 Y; E0 = -(1/2) sum_k eps_k.  The SVD stands in for an `eigh` of
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


def fix_phase(vec: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude amplitude real and positive."""
    k = int(np.argmax(np.abs(vec)))
    pivot = vec[k]
    if pivot == 0.0:
        return vec
    return vec * (abs(pivot) / pivot)


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

    Expanding each Pfaffian along its lowest site i gives
    Pf(G_S) = sum_{j in S, j > i} (-1)^{#(S between i and j)} G_ij Pf(G_{S - i - j}),
    where S - i - j has no site at or below i.  So going from i = N-1 down to
    0, the sets whose lowest site is i, amp[1<<i :: 1<<(i+1)], are filled from
    the sets above i, amp[:: 1<<(i+1)]; in both views bit b of the position
    is site i+1+b.  The term of site j = i+1+k reads the view as
    (-1, 2, 2**k), so axis 1 is site j and axis 2 the sites between, whose
    count's parity is the sign vector's entry.  That is about N 2**N flops.
    """
    n_sites = len(pairing)
    amp = np.zeros(1 << n_sites)
    amp[0] = 1.0
    # (-1)^popcount(m) for m < 2**(N-2), the most sites any term has between i and j
    parity = np.ones(1 << max(n_sites - 2, 0))
    for k in range(n_sites - 2):
        parity[1 << k:2 << k] = -parity[:1 << k]
    for i in range(n_sites - 1, -1, -1):
        above = amp[::1 << (i + 1)]
        lowest = amp[1 << i::1 << (i + 1)]
        for k in range(n_sites - 1 - i):
            src = above.reshape(-1, 2, 1 << k)
            dst = lowest.reshape(-1, 2, 1 << k)
            dst[:, 1] += src[:, 0] * (pairing[i, i + 1 + k] * parity[:1 << k])
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
    on an open one, so it cannot close the gap unseen.
    """
    n_sites = spec.n_sites
    a, b = bdg_blocks(n_sites, spec.boundary == "periodic")
    psi, eps, phi = np.linalg.svd(a + b)            # eps descending; rows phi_k, columns psi_k
    # X and Y up to the common factor 1/2, which G does not see
    pairing = -np.linalg.solve(phi + psi.T, phi - psi.T)
    e0 = -0.5 * float(np.sum(eps))
    gap = float(eps[-1] + eps[-2])
    amp = pfaffian_amplitudes(pairing)
    state = fix_phase(amp / norm(amp))
    unit = ChainSpec(n_sites, 1.0, spec.boundary)
    residual = spec.coupling * norm(build_hamiltonian(unit).apply(state) - e0 * state)
    if not residual <= RESIDUAL_BOUND * spec.coupling:
        raise RuntimeError(f"the Pfaffian ground state misses H g = E0 g by "
                           f"{residual:.3e} (bound {RESIDUAL_BOUND * spec.coupling:.1e})")
    if gap < GAP_TOL:
        warnings.warn(f"near-degenerate ground space (gap {gap:.2e} J)")
    return EigenResult(spec.coupling * e0 - float(np.sum(spec.epsilon)), state, residual, 1,
                       degenerate=gap < GAP_TOL)
