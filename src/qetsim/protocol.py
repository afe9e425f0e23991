"""The three-step energy teleportation protocol on a calibrated chain.

Step (i): the sender projectively measures one Pauli component sigma_A of
its qubit, depositing energy E_A into the chain.  Step (ii): the outcome mu
travels to the receiver classically (implicit here: the post-measurement
state is stored as outcome-labelled branches).  Step (iii): the receiver
applies V_B(mu) = cos(theta) I + i (-1)^mu sin(theta) sigma_B, choosing

    cos(2 theta) = xi / sqrt(xi^2 + eta^2),  sin(2 theta) = -eta / sqrt(xi^2 + eta^2)

with xi = <g|sigma_B H sigma_B|g> and eta = i <g|sigma_A [H, sigma_B]|g>,
which extracts E_B = (sqrt(xi^2 + eta^2) - xi) / 2 from the chain.  No time
evolution is applied between steps (the short-time regime is hard-coded).

Mixed states never appear as dense density matrices: a measurement produces
two weighted pure branches and every later stage maps branches to branches.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import eigensolver
from .chain import ChainSpec, build_hamiltonian, energy_densities
from .pauli import HermitianOperator, axis_operator, inner, norm

AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}

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
class Branch:
    weight: float
    state: np.ndarray
    outcome: int


@dataclass(frozen=True)
class MixedEnsemble:
    """Mixed state as weighted, normalized, outcome-labelled pure branches."""

    branches: tuple[Branch, ...]

    def __post_init__(self):
        total = sum(b.weight for b in self.branches)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"branch weights sum to {total!r}, not 1")
        for b in self.branches:
            if b.weight < 0.0:
                raise ValueError("negative branch weight")
            if b.weight > 0.0 and abs(norm(b.state) - 1.0) > 1e-8:
                raise ValueError("branch state is not normalized")

    def energy(self, op: HermitianOperator) -> float:
        return sum(b.weight * op.expectation(b.state) for b in self.branches if b.weight > 0.0)


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


def projectors(axis, site: int, n_sites: int) -> tuple[HermitianOperator, HermitianOperator]:
    """Spectral projectors P_mu = (I + (-1)^mu axis.sigma) / 2 at one site."""
    sigma = axis_operator(axis, site, n_sites)
    half = HermitianOperator.identity(n_sites, 0.5)
    return half + 0.5 * sigma, half + (-0.5) * sigma


def measure(ground: np.ndarray, p_0: HermitianOperator, p_1: HermitianOperator,
            hamiltonian: HermitianOperator) -> tuple[MixedEnsemble, float]:
    """Project the ground state, returning the outcome ensemble and E_A.

    E_A = sum_mu <g|P_mu H P_mu|g> is the energy the measurement deposits;
    it is positive whenever the measured component fails to commute with H.
    A branch of weight below 1e-14 is kept with weight exactly zero.
    """
    branches = []
    e_a = 0.0
    total = 0.0
    for outcome, proj in enumerate((p_0, p_1)):
        vec = proj.apply(ground)
        weight = float(inner(vec, vec).real)
        if weight < 1e-14:
            branches.append(Branch(0.0, np.zeros_like(vec), outcome))
            continue
        state = vec / math.sqrt(weight)
        branches.append(Branch(weight, state, outcome))
        e_a += weight * hamiltonian.expectation(state)
        total += weight
    # projective completeness leaves total = 1 up to roundoff; rescale exactly
    branches = [Branch(b.weight / total if b.weight else 0.0, b.state, b.outcome)
                for b in branches]
    return MixedEnsemble(tuple(branches)), e_a


def optimal_theta(xi: float, eta: float) -> float:
    """Feedback angle minimizing the post-protocol energy, in (-pi/2, pi/2].

    Any nonzero pair fixes the angle, however small, so the result is
    scale-free in J; only xi = eta = 0 leaves it undefined.
    """
    if xi == 0.0 and eta == 0.0:
        warnings.warn("xi and eta both vanish; no energy can be teleported")
        return 0.0
    return 0.5 * math.atan2(-eta, xi)


def eq9_energy(e_a: float, xi: float, eta: float, theta: float) -> float:
    """Closed form for Tr[rho H] after feedback at angle theta."""
    return e_a + (eta / 2.0) * math.sin(2.0 * theta) + (xi / 2.0) * (1.0 - math.cos(2.0 * theta))


def teleported_energy(xi: float, eta: float) -> float:
    """E_B = (sqrt(xi^2 + eta^2) - xi) / 2, written to survive eta -> 0."""
    if xi < 0.0:
        raise ValueError("xi must be nonnegative")
    return 0.5 * eta * eta / (math.hypot(xi, eta) + xi) if (xi or eta) else 0.0


def apply_feedback(ensemble: MixedEnsemble, sigma_b: HermitianOperator,
                   theta: float) -> MixedEnsemble:
    """Rotate each branch by its outcome-conditioned unitary V_B(mu)."""
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    branches = []
    for b in ensemble.branches:
        if b.weight == 0.0:
            branches.append(b)
            continue
        phase = 1j * (-1.0) ** b.outcome * sin_t
        branches.append(Branch(b.weight, cos_t * b.state + phase * sigma_b.apply(b.state),
                               b.outcome))
    return MixedEnsemble(tuple(branches))


def _density_profile(spec: ChainSpec, states) -> tuple[float, ...]:
    """Per-site <T_n> averaged over weighted states [(weight, state), ...]."""
    profile = sum(w * energy_densities(spec, s) for w, s in states if w > 0.0)
    return tuple(float(t) for t in profile)


def check_calibration(spec: ChainSpec, ground: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """The ground profile <T_n>; raises ValueError unless every |<T_n>| <= tol J."""
    densities = energy_densities(spec, ground)
    worst = float(np.max(np.abs(densities)))
    if not worst <= tol * spec.coupling:    # a NaN density fails too
        raise ValueError(
            f"spec is not calibrated: max |<T_n>| = {worst:.3e}; "
            "run chain.calibrated_chain or chain.calibrate_epsilon first")
    return densities


class PreparedGround:
    """A calibrated chain's ground state with the work every receiver shares done once.

    Construction runs `check_calibration` and keeps the ground profile it
    returns, the calibrated H and H|g>.  The correlation tensors are memoized per
    (site_a, site_b) and the sender's measurement (ensemble, E_A and the
    post-measurement profile) per (site_a, axis_a), so a sweep over
    receivers checks and measures once.  Every use names a spec, which must
    describe the same chain (N, J, boundary and offsets); its protocol sites
    are free.  Memoized arrays are read-only, since every caller shares them.
    """

    def __init__(self, spec: ChainSpec, state: np.ndarray):
        self.state = np.asarray(state)
        self.ground_profile = tuple(float(t) for t in check_calibration(spec, self.state))
        self.spec = spec
        self.hamiltonian = build_hamiltonian(spec)
        self.h_ground = _read_only(self.hamiltonian.apply(self.state))
        self._tensors: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._measurements: dict[tuple, tuple[MixedEnsemble, float, tuple[float, ...]]] = {}

    def _require(self, spec: ChainSpec) -> None:
        """Raise ValueError unless `spec` differs from the prepared one only in its sites."""
        if _chain_of(spec) != _chain_of(self.spec):
            raise ValueError("spec describes a different chain (N, J, boundary or offsets) "
                             "than the prepared ground state")

    def tensors(self, spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
        """`correlation_tensors` at spec's sites, computed once per (site_a, site_b)."""
        self._require(spec)
        key = (spec.site_a, spec.site_b)
        if key not in self._tensors:
            self._tensors[key] = tuple(_read_only(m) for m in correlation_tensors(
                spec, self.state, self.hamiltonian, h_ground=self.h_ground))
        return self._tensors[key]

    def measurement(self, spec: ChainSpec, axis_a
                    ) -> tuple[MixedEnsemble, float, tuple[float, ...]]:
        """(ensemble, E_A, post-measurement profile) of measuring axis_a at spec.site_a."""
        self._require(spec)
        key = (spec.site_a, tuple(float(c) for c in axis_a))
        if key not in self._measurements:
            ensemble, e_a = measure(self.state, *projectors(axis_a, spec.site_a, spec.n_sites),
                                    self.hamiltonian)
            for b in ensemble.branches:
                _read_only(b.state)
            profile = _density_profile(spec, [(b.weight, b.state) for b in ensemble.branches])
            self._measurements[key] = (ensemble, e_a, profile)
        return self._measurements[key]


def _chain_of(spec: ChainSpec) -> tuple:
    return spec.n_sites, spec.coupling, spec.boundary, spec.epsilon


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _resolve_ground(spec: ChainSpec, ground) -> PreparedGround:
    """`ground` as a PreparedGround: a state, an EigenResult, or one already prepared."""
    if isinstance(ground, PreparedGround):
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
    after the measurement, and after the feedback.
    """
    prepared = _resolve_ground(spec, ground)
    hamiltonian = prepared.hamiltonian
    sigma_b = axis_operator(setup.axis_b, spec.site_b, spec.n_sites)

    ensemble, e_a, post_measurement = prepared.measurement(spec, setup.axis_a)
    profiles = {"ground": prepared.ground_profile, "post_measurement": post_measurement}

    xi_mat, eta_mat = prepared.tensors(spec)
    a_vec, b_vec = np.asarray(setup.axis_a), np.asarray(setup.axis_b)
    xi = float(b_vec @ xi_mat @ b_vec)
    eta = float(a_vec @ eta_mat @ b_vec)
    teleportable = math.hypot(xi, eta) > 1e-14 * spec.coupling
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        theta_star = optimal_theta(xi, eta)
    theta_used = theta_star if theta is None else float(theta)

    ensemble = apply_feedback(ensemble, sigma_b, theta_used)
    profiles["post_feedback"] = _density_profile(
        spec, [(b.weight, b.state) for b in ensemble.branches])
    trace_energy = ensemble.energy(hamiltonian)
    e_b = e_a - trace_energy

    if theta is None and teleportable:
        closed = teleported_energy(xi, eta)
        if abs(e_b - closed) > 1e-8 * spec.coupling:
            sigma_a = axis_operator(setup.axis_a, spec.site_a, spec.n_sites)
            if closed_form_applies(sigma_a, sigma_b, hamiltonian):
                raise RuntimeError(
                    f"energy bookkeeping violated: simulated E_B {e_b:.12g} vs "
                    f"closed form {closed:.12g}")
            warnings.warn(
                "closed-form E_B does not apply: sender and receiver are close "
                "enough that sigma_A fails to commute with sigma_B [H, sigma_B]; "
                "reporting the simulated value")
    return ProtocolResult(e_a, xi, eta, theta_star, e_b, trace_energy, theta_used,
                          teleportable, profiles)


@dataclass(frozen=True)
class SweepPoint:
    label: str
    axis_a: tuple[float, float, float]
    axis_b: tuple[float, float, float]
    xi: float
    eta: float
    e_b: float


@dataclass(frozen=True)
class AxisSweepResult:
    points: tuple[SweepPoint, ...]
    best: MeasurementSetup
    best_e_b: float


def correlation_tensors(spec: ChainSpec, ground: np.ndarray,
                        hamiltonian: HermitianOperator | None = None,
                        h_ground: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """3x3 tensors reducing (xi, eta) at any axes to bilinear forms.

    xi(b) = b . Xi b with Xi[q,q'] = Re <g|sigma^q_B H sigma^q'_B|g>, and
    eta(a, b) = a . N b with N[p,q] = Re i <g|sigma^p_A [H, sigma^q_B]|g>.

    An imaginary residue above 1e-10 ||H||_1 (the sum of |coefficients|)
    raises ValueError when it signals an operator bug: on a diagonal entry of
    Xi, which is an expectation of a Hermitian operator, and on an entry of N
    whose axes pass `closed_form_applies`, which makes i sigma^p_A
    [H, sigma^q_B] Hermitian.  Otherwise the residue is a contact term of
    adjacent parties and only the real part is kept.  `h_ground` may carry
    H|g> when the caller already holds it.
    """
    h = build_hamiltonian(spec) if hamiltonian is None else hamiltonian
    sigma_a = [axis_operator(AXES[p], spec.site_a, spec.n_sites) for p in "xyz"]
    sigma_b = [axis_operator(AXES[q], spec.site_b, spec.n_sites) for q in "xyz"]
    a_vecs = [s.apply(ground) for s in sigma_a]
    b_vecs = [s.apply(ground) for s in sigma_b]
    h_b_vecs = [h.apply(v) for v in b_vecs]
    hg = h.apply(ground) if h_ground is None else h_ground
    b_hg = [s.apply(hg) for s in sigma_b]

    limit = 1e-10 * h.one_norm
    xi_mat = np.empty((3, 3))
    eta_mat = np.empty((3, 3))
    for q in range(3):
        for qp in range(3):
            val = inner(b_vecs[q], h_b_vecs[qp])
            if q == qp and abs(val.imag) > limit:
                raise ValueError(f"imaginary residue {val.imag:g} in xi tensor")
            xi_mat[q, qp] = val.real
    for p in range(3):
        for q in range(3):
            val = 1j * (inner(a_vecs[p], h_b_vecs[q]) - inner(a_vecs[p], b_hg[q]))
            if abs(val.imag) > limit and closed_form_applies(sigma_a[p], sigma_b[q], h):
                raise ValueError(f"imaginary residue {val.imag:g} in eta tensor")
            eta_mat[p, q] = val.real
    # symmetrize: only the symmetric part of Xi enters xi(b)
    xi_mat = 0.5 * (xi_mat + xi_mat.T)
    return xi_mat, eta_mat


def axis_sweep(spec: ChainSpec, ground) -> AxisSweepResult:
    """E_B over the nine cardinal axis pairs {x,y,z} x {x,y,z}, and the best of them.

    Parity and reality of the ground state make Xi diagonal and leave only
    N[y,x] = -N[x,y] nonzero, so no tilted pair beats the best cardinal one
    while Xi[x,x] <= Xi[y,y] and Xi[z,z] > 0 (see the README).  `ground`
    takes the same forms as in `run_protocol`.
    """
    xi_mat, eta_mat = _resolve_ground(spec, ground).tensors(spec)
    points = []
    for p, label_a in enumerate("xyz"):
        for q, label_b in enumerate("xyz"):
            xi, eta = float(xi_mat[q, q]), float(eta_mat[p, q])
            points.append(SweepPoint(f"{label_a}|{label_b}", AXES[label_a], AXES[label_b],
                                     xi, eta, teleported_energy(max(xi, 0.0), eta)))
    best_point = max(points, key=lambda pt: pt.e_b)
    best = MeasurementSetup(best_point.axis_a, best_point.axis_b)
    return AxisSweepResult(tuple(points), best, best_point.e_b)
