"""The three-step energy teleportation protocol on a calibrated chain.

Step (i): the sender projectively measures one Pauli component sigma_A of
its qubit, depositing energy E_A into the chain.  Step (ii): the outcome mu
travels to the receiver classically (implicit here: each outcome keeps its
own projector).  Step (iii): the receiver applies
V_B(mu) = cos(theta) I + i (-1)^mu sin(theta) sigma_B, choosing

    cos(2 theta) = xi / sqrt(xi^2 + eta^2),  sin(2 theta) = -eta / sqrt(xi^2 + eta^2)

with xi = <g|sigma_B H sigma_B|g> and eta = i <g|sigma_A [H, sigma_B]|g>,
which extracts E_B = (sqrt(xi^2 + eta^2) - xi) / 2 from the chain.  No time
evolution is applied between steps (the short-time regime is hard-coded).

Every number is a trace Tr(rho_S O) over the ground state's reduced density
matrix on a few sites S.  The measurement acts at A and the feedback at B,
and a term without a letter at the acting site commutes with every projector
and rotation there, so each step changes only the terms of the T_m at its
own site: the intermediate sites are not excited.  The sender is read from
rho on supp T_A, the sites within one of A, and each receiver from rho on A
and supp T_B, so no state of 2^N amplitudes is formed after the ground state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import eigensolver
from .chain import (ChainSpec, build_energy_density, build_hamiltonian, density_support,
                    energy_densities)
from .pauli import HermitianOperator, axis_operator, dense_matrix, split_by_support

AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
MAX_REDUCED_SITES = 4
CALIBRATION_BOUND = 1e-8        # the largest |<T_n>| / J a calibrated ground state may show
_OUTCOME_SIGNS = np.array([1.0, -1.0])[:, None, None]     # (-1)^mu, to scale stacked matrices

@dataclass(frozen=True)
class MeasurementSetup:
    """Bloch directions of the measured and feedback Pauli components."""

    axis_a: tuple[float, float, float] = AXES["x"]
    axis_b: tuple[float, float, float] = AXES["x"]

    def __post_init__(self):
        for name in ("axis_a", "axis_b"):
            vec = tuple(float(c) for c in getattr(self, name))
            if len(vec) != 3:
                raise ValueError(f"{name} must be a 3-vector")
            if not abs(math.sqrt(sum(c * c for c in vec)) - 1.0) <= 1e-12:   # NaN fails too
                raise ValueError(f"{name} must be unit length")
            object.__setattr__(self, name, vec)

    @classmethod
    def cardinal(cls, label_a: str, label_b: str) -> "MeasurementSetup":
        return cls(AXES[label_a], AXES[label_b])


@dataclass(frozen=True)
class ProtocolResult:
    e_a: float
    xi: float
    eta: float
    theta_star: float
    e_b: float
    trace_energy: float        # Tr[rho H] after feedback at theta_used
    theta_used: float
    teleportable: bool
    profiles: dict[str, tuple[float, ...]]


def measure(prepared: "PreparedGround", site: int, axis) -> tuple[float, tuple[float, ...]]:
    """Measure axis.sigma at `site`: E_A and the post-measurement profile.

    Outcome mu leaves P_mu|g>, with P_mu = (I + (-1)^mu sigma) / 2.  With
    change = sum_mu P_mu rho P_mu - rho on supp T_A, each T_m moves from its
    ground value by Tr(change T_m|A), T_m|A its terms with a letter at the
    site; the rest commute with both projectors.  E_A comes from the same rho
    by a second route: sum_mu P_mu H P_mu = H + sigma [H, sigma] / 2, so
    E_A = <H> + <sigma [H, sigma]> / 2, with <H> the ground profile's sum.
    """
    sites = density_support(prepared.spec, site)
    rho = prepared.reduced(sites)
    change = _outcome_blocks(prepared, axis, site, sites).sum(axis=0) - rho
    profile = _moved(prepared, prepared.ground_profile, change, site, sites)
    sigma = prepared.dense(prepared.sigma(axis, site), sites)
    # <sigma [H, sigma]> = Im <sigma i[H, sigma]>
    deposit = _trace(rho, sigma @ _bracket(prepared, axis, site, sites)).imag
    return sum(prepared.ground_profile) + 0.5 * float(deposit), profile


def optimal_theta(xi: float, eta: float) -> float:
    """Feedback angle minimizing the post-protocol energy, in (-pi/2, pi/2].

    Any nonzero pair fixes the angle, however small, so the result is
    scale-free in J; xi = eta = 0 teleports nothing at any angle and gives 0.
    """
    return 0.5 * math.atan2(-eta, xi) if (xi or eta) else 0.0


def teleported_energy(xi: float, eta: float) -> float:
    """E_B = (sqrt(xi^2 + eta^2) - xi) / 2, written to survive eta -> 0.

    eta / (hypot + xi) lies in [-1, 1], so no intermediate over- or underflows
    where E_B itself is a normal double.
    """
    if xi < 0.0:
        raise ValueError("xi must be nonnegative")
    return 0.5 * eta * (eta / (math.hypot(xi, eta) + xi)) if (xi or eta) else 0.0


def apply_feedback(blocks: np.ndarray, sigma_b: np.ndarray, theta: float) -> np.ndarray:
    """Rotate outcome mu's block rho_mu to V_B(mu) rho_mu V_B(mu)^dag.

    `blocks` stacks each outcome's unnormalized state P_mu rho P_mu on a few
    sites along its first axis, and `sigma_b` is sigma_B as a dense matrix
    on the same sites.  Both outcomes rotate in one pair of batched products.
    """
    v = (math.cos(theta) * np.eye(len(sigma_b))
         + 1j * math.sin(theta) * _OUTCOME_SIGNS * sigma_b)          # V_B(mu), stacked
    return v @ blocks @ v.conj().transpose(0, 2, 1)


def check_calibration(spec: ChainSpec, ground: np.ndarray) -> np.ndarray:
    """The ground profile <T_n>; raises ValueError unless every |<T_n>| <= CALIBRATION_BOUND J."""
    densities = energy_densities(spec, ground)
    worst = float(np.max(np.abs(densities)))
    if not worst <= CALIBRATION_BOUND * spec.coupling:    # a NaN density fails too
        raise ValueError(
            f"spec is not calibrated: max |<T_n>| = {worst:.3e}; "
            "take the spec from chain.calibrated_chain")
    return densities


class PreparedGround:
    """A calibrated chain's ground state, read through its reduced density matrices.

    Construction runs `check_calibration` and keeps the ground profile it
    returns and the calibrated H; it builds nothing else.  Everything the
    protocol reads is built on first use and memoized on this object, for as
    long as it lives and no longer: `reduced` per site set (supp T_A for the
    sender, A and supp T_B for a receiver), the correlation tensors per
    (site_a, site_b), the sender's measurement (E_A and the post-measurement
    profile) per (site_a, axis_a), and the few-site Pauli operators:
    T_m|site (each T_m built once), the terms of H at a site, and axis.sigma
    per (axis, site).  `dense` memoizes an operator's matrix on a site set
    by the operator's pattern there, so receivers whose sites see the same
    patterns share one matrix.  The projectors and i[H, sigma] are formed
    from these matrices where they are used, by a few small products.  A
    sweep over receivers thus checks and measures once and builds each
    operator and dense matrix once.  Its methods take sites, not a spec: a
    public function given one checks the spec's chain once, in
    `_resolve_ground`.  Memoized arrays are read-only, since every caller
    shares them.
    """

    def __init__(self, spec: ChainSpec, state: np.ndarray):
        self.state = np.asarray(state)
        self.ground_profile = tuple(float(t) for t in check_calibration(spec, self.state))
        self.spec = spec
        self.hamiltonian = build_hamiltonian(spec)
        self._memo: dict[tuple, object] = {}

    def _memoized(self, key: tuple, build):
        """build() on the first call with `key`, and the same object on every later one."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def reduced(self, sites) -> np.ndarray:
        """rho_S = Tr_(not S) |g><g| on at most MAX_REDUCED_SITES sites.

        Its basis is little-endian over the sorted sites, as in
        `HermitianOperator.dense(sites)`.  With g split into a (2^k, 2^(N-k))
        array by `split_by_support`, rho = g g^dag: one BLAS product, which
        numpy hands to dsyrk for a real state, so rho comes out exactly
        symmetric.  A complex state's zgemm leaves a defect of a few ulp
        between rho and rho^dag, which the Hermitian part removes; on a
        real rho it changes no bit.
        """
        key = _sites(sites)
        if len(key) > MAX_REDUCED_SITES:
            raise ValueError(f"{len(key)} sites exceed the {MAX_REDUCED_SITES} a reduced "
                             "density matrix may span")

        def build():
            amps = split_by_support(self.state, key, self.spec.n_sites)
            rho = amps @ amps.conj().T
            return _read_only(0.5 * (rho + rho.conj().T))

        return self._memoized(("reduced", key), build)

    def tensors(self, site_a: int, site_b: int) -> tuple[np.ndarray, np.ndarray]:
        """`correlation_tensors` of a sender at site_a and a receiver at site_b, computed once."""
        return self._memoized(("tensors", site_a, site_b), lambda: tuple(
            _read_only(m) for m in _tensors(self, site_a, site_b)))

    def measurement(self, site_a: int, axis_a) -> tuple[float, tuple[float, ...]]:
        """`measure` of axis_a at site_a: (E_A, post-measurement profile)."""
        return self._memoized(("measurement", site_a, _axis(axis_a)),
                              lambda: measure(self, site_a, axis_a))

    def density(self, m: int, site: int) -> HermitianOperator:
        """T_m|site, the terms of T_m with a letter at `site`; T_m itself is built once."""
        whole = self._memoized(("density", m), lambda: build_energy_density(self.spec, m))
        return self._memoized(("density", m, site), lambda: whole.acting_on(site))

    def acting_on(self, site: int) -> HermitianOperator:
        """The terms of H at `site`, the only part of H that can fail to commute there."""
        return self._memoized(("acting_on", site), lambda: self.hamiltonian.acting_on(site))

    def sigma(self, axis, site: int) -> HermitianOperator:
        """axis.sigma at `site`."""
        return self._memoized(("sigma", _axis(axis), site),
                              lambda: axis_operator(axis, site, self.spec.n_sites))

    def dense(self, op: HermitianOperator, sites: tuple[int, ...]) -> np.ndarray:
        """op.dense(sites), read-only and shared by every operator with the same pattern there.

        The key is `op.restricted(sites)`, the coefficients and letters on the
        sites in order, which fixes the matrix bit for bit.  On a periodic
        chain, whose offsets are all one float, the receivers three or more
        sites from A see the same sigma_B, H_B and T_m|B patterns on their
        sites, so they share those matrices.
        """
        pattern = op.restricted(sites)
        return self._memoized(("dense", len(sites), pattern),
                              lambda: _read_only(dense_matrix(pattern, len(sites))))


def _moved(prepared: PreparedGround, profile, change, site: int, sites) -> tuple[float, ...]:
    """`profile` with each T_m at `site` moved by Tr(change T_m|site), `change` on `sites`."""
    profile = list(profile)
    for m in density_support(prepared.spec, site):     # the T_m with a letter at the site
        profile[m] += float(_trace(change, prepared.dense(prepared.density(m, site), sites)).real)
    return tuple(profile)


def _sites(*groups) -> tuple[int, ...]:
    """The sorted union of site groups: the key and basis order of a reduced density matrix."""
    return tuple(sorted(set().union(*groups)))


def _trace(a: np.ndarray, b: np.ndarray):
    """Tr(a b) of two small square matrices."""
    return np.einsum("ab,ba->", a, b)


def _projectors(sigma: np.ndarray) -> np.ndarray:
    """The spectral projectors P_mu = (I + (-1)^mu sigma) / 2 of a Pauli component's matrix.

    They are stacked along the first axis, outcome mu at index mu.
    """
    return 0.5 * (np.eye(len(sigma)) + _OUTCOME_SIGNS * sigma)


def _bracket(prepared: PreparedGround, axis, site: int, sites: tuple[int, ...]) -> np.ndarray:
    """i[H, axis.sigma] at `site` as a matrix on `sites`: i(h sigma - sigma h).

    Only h, the terms of H at the site, fails to commute with sigma there.
    """
    h = prepared.dense(prepared.acting_on(site), sites)
    sigma = prepared.dense(prepared.sigma(axis, site), sites)
    return 1j * (h @ sigma - sigma @ h)


def _outcome_blocks(prepared: PreparedGround, axis, site: int, sites: tuple[int, ...]
                    ) -> np.ndarray:
    """Each outcome's unnormalized state P_mu rho P_mu on `sites`, which hold the measured site.

    The blocks are stacked along the first axis, as `_projectors` stacks P_mu.
    """
    p = _projectors(prepared.dense(prepared.sigma(axis, site), sites))
    return p @ prepared.reduced(sites) @ p


def _axis(axis) -> tuple[float, ...]:
    """An axis as a key: a tuple of floats, whatever sequence it came as."""
    return tuple(float(c) for c in axis)


def _chain_of(spec: ChainSpec) -> tuple:
    return spec.n_sites, spec.coupling, spec.boundary, spec.epsilon


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _resolve_ground(spec: ChainSpec, ground) -> PreparedGround:
    """`ground` as a PreparedGround: a state, an EigenResult, or one already prepared.

    The one check that a spec describes the prepared chain (N, J, boundary
    and offsets); its protocol sites are free.
    """
    if isinstance(ground, PreparedGround):
        if _chain_of(spec) != _chain_of(ground.spec):
            raise ValueError("spec describes a different chain (N, J, boundary or offsets) "
                             "than the prepared ground state")
        return ground
    if isinstance(ground, eigensolver.EigenResult):
        ground = ground.state
    return PreparedGround(spec, ground)


def closed_form_applies(sigma_a: HermitianOperator, sigma_b: HermitianOperator,
                        hamiltonian: HermitianOperator) -> bool:
    """Whether sigma_A commutes with [H, sigma_B], decided exactly in Pauli algebra.

    This is the condition for the closed-form energy identity, which asks
    sigma_A to commute with sigma_B [H, sigma_B]: the parties sit on
    different sites and sigma_B^2 = I, so [sigma_A, sigma_B C] =
    sigma_B [sigma_A, C] and the two conditions agree.  It also makes eta
    real.  Separation by two or more sites guarantees it; for adjacent
    sites it depends on the axes (a feedback axis of x keeps [H, sigma_B]
    on B's site alone).
    """
    return not sigma_a.commutator(hamiltonian.commutator(sigma_b)).terms


def run_protocol(spec: ChainSpec, setup: MeasurementSetup, ground,
                 theta: float | None = None) -> ProtocolResult:
    """Full measurement -> communication -> feedback pipeline with energy bookkeeping.

    `ground` is the calibrated chain's solved ground state: a state, an
    EigenResult, or a PreparedGround shared across calls.  `theta` overrides
    the optimal feedback angle (the reported theta_star is always the
    optimum).  Per-site <T_n> profiles are recorded for the ground state,
    after the measurement, and after the feedback.  The feedback is read from
    rho on A and supp T_B: with `change` its change of the outcome blocks
    there, each T_m moves by Tr(change T_m|B).  The trace energy takes a
    second route, E_A + Tr(change H_B), and the bookkeeping check compares
    the E_B it gives with the closed form.  Raises ValueError for a `theta`
    that is not finite.
    """
    if theta is not None and not math.isfinite(theta):
        raise ValueError(f"theta must be finite, not {theta!r}")
    prepared = _resolve_ground(spec, ground)
    sigma_b = prepared.sigma(setup.axis_b, spec.site_b)

    e_a, post_measurement = prepared.measurement(spec.site_a, setup.axis_a)
    profiles = {"ground": prepared.ground_profile, "post_measurement": post_measurement}

    xi_mat, eta_mat = prepared.tensors(spec.site_a, spec.site_b)
    a_vec, b_vec = np.asarray(setup.axis_a), np.asarray(setup.axis_b)
    xi = float(b_vec @ xi_mat @ b_vec)
    eta = float(a_vec @ eta_mat @ b_vec)
    teleportable = math.hypot(xi, eta) > 1e-14 * spec.coupling
    theta_star = optimal_theta(xi, eta)
    theta_used = theta_star if theta is None else float(theta)

    sites = _sites({spec.site_a}, density_support(spec, spec.site_b))
    before = _outcome_blocks(prepared, setup.axis_a, spec.site_a, sites)
    after = apply_feedback(before, prepared.dense(sigma_b, sites), theta_used)
    change = (after - before).sum(axis=0)
    profiles["post_feedback"] = _moved(prepared, post_measurement, change, spec.site_b, sites)
    h_b = prepared.dense(prepared.acting_on(spec.site_b), sites)
    trace_energy = e_a + float(_trace(change, h_b).real)
    e_b = e_a - trace_energy

    if theta is None and teleportable:
        closed = teleported_energy(xi, eta)
        if abs(e_b - closed) > 1e-8 * spec.coupling:
            sigma_a = prepared.sigma(setup.axis_a, spec.site_a)
            if closed_form_applies(sigma_a, sigma_b, prepared.hamiltonian):
                raise RuntimeError(
                    f"energy bookkeeping violated: simulated E_B {e_b:.12g} vs "
                    f"closed form {closed:.12g}")
            warnings.warn(
                "closed-form E_B does not apply: sender and receiver are close "
                "enough that sigma_A fails to commute with sigma_B [H, sigma_B]; "
                "reporting the simulated value")
    return ProtocolResult(e_a, xi, eta, theta_star, e_b, trace_energy, theta_used,
                          teleportable, profiles)


def correlation_tensors(spec: ChainSpec, ground) -> tuple[np.ndarray, np.ndarray]:
    """3x3 tensors reducing (xi, eta) at any axes to bilinear forms.

    xi(b) = b . Xi b and eta(a, b) = a . N b, where Xi is the symmetric part
    of <g|sigma^q_B H sigma^q'_B|g> and N[p,q] = Re i <g|sigma^p_A [H, sigma^q_B]|g>.
    Since sigma^q sigma^q' + sigma^q' sigma^q = 2 delta_qq',

        Xi[q,q'] = (<sigma^q_B [H, sigma^q'_B]> + <sigma^q'_B [H, sigma^q_B]>) / 2 + <H> delta_qq'

    for any state.  [H, sigma_B] holds only the terms of H at B, so both
    tensors are traces over rho on A and supp T_B, with <H> the ground
    profile's sum.  `ground` takes the same forms as in `run_protocol`; the
    tensors are read-only, as a PreparedGround memoizes them.
    """
    return _resolve_ground(spec, ground).tensors(spec.site_a, spec.site_b)


def _tensors(prepared: PreparedGround, site_a: int, site_b: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """`correlation_tensors` (Xi, N) of a sender at site_a and a receiver at site_b."""
    sites = _sites({site_a}, density_support(prepared.spec, site_b))
    # sigma^x, sigma^y, sigma^z at B, then at A, stacked
    sigmas = np.array([prepared.dense(prepared.sigma(AXES[q], site), sites)
                       for site in (site_b, site_a) for q in "xyz"])
    brackets = np.array([_bracket(prepared, AXES[q], site_b, sites) for q in "xyz"])
    # with C = i[H, sigma^q_B]: <sigma [H, sigma^q_B]> = Im <sigma C> and
    # i <sigma [H, sigma^q_B]> = Re <sigma C>; row p of `traces` is Tr(rho sigma_p C_q)
    traces = np.einsum("pab,qba->pq", prepared.reduced(sites) @ sigmas, brackets)
    at_b, at_a = traces[:3], traces[3:]
    xi_mat = 0.5 * (at_b.imag + at_b.imag.T) + sum(prepared.ground_profile) * np.eye(3)
    return xi_mat, at_a.real


def axis_sweep(spec: ChainSpec, ground) -> MeasurementSetup:
    """The cardinal axis pair in {x,y,z} x {x,y,z} with the largest E_B.

    A tie goes to the first maximal pair in x, y, z order, the sender's axis
    outer.  Parity and reality of the ground state make Xi diagonal and leave
    only N[y,x] = -N[x,y] nonzero, so no tilted pair beats the best cardinal
    one while Xi[x,x] <= Xi[y,y] and Xi[z,z] > 0 (see the README).  `ground`
    takes the same forms as in `run_protocol`.
    """
    xi_mat, eta_mat = correlation_tensors(spec, ground)
    p, q = max(np.ndindex(3, 3), key=lambda pq: teleported_energy(
        max(float(xi_mat[pq[1], pq[1]]), 0.0), float(eta_mat[pq])))
    return MeasurementSetup.cardinal("xyz"[p], "xyz"[q])
