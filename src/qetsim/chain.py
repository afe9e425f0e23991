"""Critical Ising chain as a site sum of energy density operators.

Each site carries a density operator

    T_n = -J sz_n - (J/2) sx_n (sx_{n+1} + sx_{n-1}) - eps_n

whose offset eps_n is tuned so that the ground state has exactly zero energy
density everywhere, <g|T_n|g> = 0.  The chain Hamiltonian is H = sum_n T_n;
after calibration it annihilates the ground state and is nonnegative.  On a
periodic chain translation invariance makes all eps_n equal; on an open chain
the offsets vary near the edges, so they are kept per-site.  Every <T_n> is
read from the ground state's N x N Majorana covariance (`energy_densities`),
never from its 2^N amplitudes: on this free-fermion chain the covariance is
the whole ground state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .pauli import HermitianOperator, PauliString, from_sites

if TYPE_CHECKING:
    from .eigensolver import EigenResult

BOUNDARIES = ("periodic", "open")
# Every coupling J in this range keeps each J-scaled number a normal float.
# The limits that remain are the calibration's: the 1e-15 J tolerance turns
# subnormal below about J = 2e-293, and the offsets' sum (about -1.3 N J)
# overflows near J = 7e306 at N = 20; the ends keep a margin from both.  The
# teleported energy (which never squares eta) and the cooling SDP (solved on
# C / ||C||) are scale-free.  Every command reproduces J times its J = 1
# numbers to 5e-11 relative at both ends, as it does at J = 1e-50 and 1e50.
COUPLING_RANGE = (1e-290, 1e300)


def check_coupling(coupling: float) -> None:
    """Raise ValueError unless the coupling J lies in COUPLING_RANGE (NaN does not)."""
    low, high = COUPLING_RANGE
    if not low <= coupling <= high:
        raise ValueError(f"coupling J must be positive and finite, in [{low:g}, {high:g}], "
                         f"not {coupling!r}")


@dataclass(frozen=True)
class ChainSpec:
    """Chain geometry, coupling, boundary condition, offsets, protocol sites."""

    n_sites: int
    coupling: float = 1.0
    boundary: str = "periodic"
    epsilon: tuple[float, ...] | None = None
    site_a: int = 0
    site_b: int = 1

    def __post_init__(self):
        if self.n_sites < 3:
            raise ValueError("need at least 3 sites")
        check_coupling(self.coupling)
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
        eps = self.epsilon
        if eps is None:
            eps = (0.0,) * self.n_sites
        else:
            eps = tuple(float(e) for e in eps)
            if len(eps) != self.n_sites:
                raise ValueError("epsilon must have one offset per site")
        object.__setattr__(self, "epsilon", eps)
        for name in ("site_a", "site_b"):
            site = getattr(self, name)
            if not 0 <= site < self.n_sites:
                raise ValueError(f"{name}={site} out of range")
        if self.site_a == self.site_b:
            raise ValueError("site_a and site_b must differ")

    def neighbors(self, n: int) -> tuple[int, ...]:
        """Sites coupled to n; an open-chain edge has a single neighbor."""
        if self.boundary == "periodic":
            return ((n - 1) % self.n_sites, (n + 1) % self.n_sites)
        return tuple(m for m in (n - 1, n + 1) if 0 <= m < self.n_sites)

    def with_epsilon(self, epsilon) -> "ChainSpec":
        return replace(self, epsilon=tuple(float(e) for e in epsilon))

    def with_sites(self, site_a: int, site_b: int) -> "ChainSpec":
        return replace(self, site_a=site_a, site_b=site_b)


def density_support(spec: ChainSpec, n: int) -> tuple[int, ...]:
    if not 0 <= n < spec.n_sites:
        raise ValueError(f"site {n} out of range")
    return tuple(sorted({n, *spec.neighbors(n)}))


def build_energy_density(spec: ChainSpec, n: int) -> HermitianOperator:
    """T_n = -J sz_n - (J/2) sx_n (sx_{n+1} + sx_{n-1}) - eps_n.

    Missing neighbors of an open-chain edge site drop their coupling term.
    """
    if not 0 <= n < spec.n_sites:
        raise ValueError(f"site {n} out of range")
    j = spec.coupling
    strings = [from_sites(spec.n_sites, -j, {n: "Z"})]
    for m in spec.neighbors(n):
        strings.append(from_sites(spec.n_sites, -j / 2.0, {n: "X", m: "X"}))
    strings.append(PauliString(-spec.epsilon[n], "I" * spec.n_sites))
    return HermitianOperator.from_strings(spec.n_sites, strings, drop_tol=1e-15 * j)


def build_hamiltonian(spec: ChainSpec) -> HermitianOperator:
    """H = sum_n T_n, canonicalized (each bond collects its two half-strength parts)."""
    strings = []
    for n in range(spec.n_sites):
        strings.extend(build_energy_density(spec, n).terms)
    return HermitianOperator.from_strings(spec.n_sites, strings, drop_tol=1e-15 * spec.coupling)


def energy_densities(spec: ChainSpec, covariance: np.ndarray) -> np.ndarray:
    """Every <T_n> of a pure Gaussian state, read from its Majorana covariance T.

    T is `EigenResult.covariance` (see :mod:`qetsim.eigensolver`), N^2
    numbers rather than 2^N amplitudes: <sz_n> = T[n, n],
    <sx_n sx_{n+1}> = -T[n, n+1] and, on a periodic chain, the closing
    bond's +T[N-1, 0]; an open chain has no closing bond.  A normalized pure
    state's T is orthogonal; any other raises ValueError.
    """
    n_sites = spec.n_sites
    t = np.asarray(covariance)
    if t.shape != (n_sites, n_sites) or not np.allclose(t @ t.T, np.eye(n_sites),
                                                        rtol=0.0, atol=1e-8):
        raise ValueError("covariance is not orthogonal, as a normalized pure state's is")
    xx = np.zeros(n_sites)      # xx[n] = <sx_n sx_{n+1 mod N}>; site n's bonds are xx[n], xx[n-1]
    xx[:-1] = -np.diagonal(t, 1)
    if spec.boundary == "periodic":
        xx[-1] = t[-1, 0]
    j = spec.coupling
    return -j * np.diagonal(t) - (j / 2.0) * (xx + np.roll(xx, 1)) - np.asarray(spec.epsilon)


def calibrate_epsilon(spec: ChainSpec, covariance: np.ndarray) -> np.ndarray:
    """Offsets eps_n = <g|(-J sz_n - (J/2) sx_n sx_{n+-1})|g> that zero every <T_n>.

    They are the bare chain's `energy_densities` of the ground state's
    covariance.  On a periodic chain each offset is the mean, as translation
    invariance makes them equal up to rounding.  The offsets are pure
    identity shifts, so they do not change g.
    """
    eps = energy_densities(spec.with_epsilon((0.0,) * spec.n_sites), covariance)
    return np.full(spec.n_sites, eps.mean()) if spec.boundary == "periodic" else eps


def calibrated_chain(n_sites: int, coupling: float = 1.0, boundary: str = "periodic",
                     site_a: int = 0, site_b: int = 1,
                     seed: int = 0) -> tuple[ChainSpec, EigenResult]:
    """Build the chain, take its exact ground state, and tune the offsets to its covariance.

    Returns the calibrated spec together with the ground-state result, whose
    residual is below 1e-10 J; the reported energy is the (near-zero)
    exact E0 of the calibrated H, J E0 minus the offsets' sum.  `seed` is
    accepted and ignored: the ground state is exact, so no number depends on it.
    """
    from .eigensolver import ground_state     # it builds on this module's ChainSpec and H
    spec = ChainSpec(n_sites, coupling, boundary, None, site_a, site_b)
    res = ground_state(spec)
    eps = calibrate_epsilon(spec, res.covariance)
    spec = spec.with_epsilon(eps)
    res.energy = res.energy - float(np.sum(eps))
    return spec, res


def local_density_spectrum(spec: ChainSpec, n: int) -> np.ndarray:
    """Eigenvalues of T_n on its 2- or 3-site support, in ascending order."""
    return np.linalg.eigvalsh(build_energy_density(spec, n).dense(sites=density_support(spec, n)))
