"""Branch-state oracles: the full 2^N route that the package's reduced-density reads replace.

A mixed state here is a weighted list of outcome-labelled pure branches,
each a state of 2^N amplitudes pushed through every stage with
`HermitianOperator.apply`.  Nothing in `qetsim` calls this module; the tests
compare the package against it.  `branch_protocol` (on a memoizing
`BranchGround`) and `branch_gram` are the whole protocol and the cooling Gram
form on that route, and `correlation_check` and `density_eigenbasis_weights`
are the entanglement witnesses of the chain's ground state.  For the exact
ground state, `even_parity_sector` gives the dense even-sector matrix
without forming the 2^N one, and `bdg_pairing` and `pfaffian` rebuild the
pairing matrix and its Pfaffians by the textbook routes;
`lowest_site_amplitudes` fills every Pfaffian in the other expansion order,
and `term_diagonal` sums an `apply` group's diagonal term by term.  `distance`
and `one_norm` are small measures that only the tests use, and
`identity`, `add`, `scaled`, `support`, `is_real` and `projectors` the Pauli
arithmetic that builds the branch route's N-site projectors.  The routes the
package replaced with cheaper ones are kept as references:
`operator_densities` reads every <T_n> of a state as the T_n operators'
expectations and `state_offsets` the calibration offsets from the same
amplitudes, where the package reads both from the covariance;
`reduced_by_einsum` forms rho_S by einsum rather than one BLAS product,
`power_law_slope` refits the closed form's slope that the package keeps as a
constant, and `solve_choi_sdp` solves one cooling dual at a time, in the
units of its Gram form, where the package solves every row in lockstep on
C / ||C||; it also keeps the older read-out, which refuses a kernel whose
lstsq residual exceeds 1e-10 where the package completes the channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qetsim.analytics import eb_closed_form
from qetsim.chain import (
    ChainSpec,
    build_energy_density,
    build_hamiltonian,
    density_support,
)
from qetsim.cooling import _DUAL_BASIS, LocalChannel, OutcomeObjective
from qetsim.eigensolver import bdg_blocks
from qetsim.pauli import (
    HermitianOperator,
    PauliString,
    _masks,
    axis_operator,
    inner,
    norm,
    split_by_support,
)
from qetsim.protocol import (
    AXES,
    MeasurementSetup,
    ProtocolResult,
    closed_form_applies,
    optimal_theta,
)

ENV_DIM = 4          # Choi rank of a qubit channel is at most 4


def distance(spec: ChainSpec, m: int, n: int) -> int:
    """Separation |m - n| of two sites, circular on periodic chains."""
    d = abs(m - n)
    if spec.boundary == "periodic":
        d = min(d, spec.n_sites - d)
    return d


def one_norm(op: HermitianOperator) -> float:
    """||O||_1 = sum of |coefficient| over the operator's Pauli strings."""
    return float(sum(abs(t.coefficient) for t in op.terms))


def identity(n_sites: int, coefficient: float = 1.0) -> HermitianOperator:
    """coefficient times the identity on n_sites sites."""
    return HermitianOperator.from_strings(n_sites, [PauliString(coefficient, "I" * n_sites)],
                                          drop_tol=0.0)


def add(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """a + b, with identical patterns merged and exact cancellations dropped."""
    if a.n_sites != b.n_sites:
        raise ValueError("operator sizes differ")
    return HermitianOperator.from_strings(a.n_sites, a.terms + b.terms, drop_tol=0.0)


def scaled(op: HermitianOperator, scalar: float) -> HermitianOperator:
    """scalar times op."""
    return HermitianOperator.from_strings(
        op.n_sites, [PauliString(t.coefficient * scalar, t.letters) for t in op.terms], drop_tol=0.0)


def support(term: PauliString) -> tuple[int, ...]:
    """The sites where a string holds a letter other than I."""
    return tuple(n for n, c in enumerate(term.letters) if c != "I")


def is_real(op: HermitianOperator) -> bool:
    """True when the matrix is real: every coefficient times i**n_y is real."""
    return all((complex(t.coefficient) * 1j ** t.letters.count("Y")).imag == 0.0
               for t in op.terms)


def projectors(axis, site: int, n_sites: int) -> tuple[HermitianOperator, HermitianOperator]:
    """Spectral projectors P_mu = (I + (-1)^mu axis.sigma) / 2 at one site, on all N sites."""
    sigma = axis_operator(axis, site, n_sites)
    half = identity(n_sites, 0.5)
    return add(half, scaled(sigma, 0.5)), add(half, scaled(sigma, -0.5))


def expectation(op: HermitianOperator, vec: np.ndarray) -> float:
    """Re <vec|O|vec>; complains of an imaginary part above 1e-12 ||O||_1 (non-Hermitian)."""
    val = inner(vec, op.apply(vec))
    if abs(val.imag) > 1e-12 * one_norm(op):
        raise ValueError(f"expectation has imaginary part {val.imag:g}; operator is not Hermitian")
    return float(val.real)


def operator_densities(spec: ChainSpec, state: np.ndarray) -> np.ndarray:
    """Every <T_n> of a normalized state, as the expectation of the T_n operator."""
    return np.array([expectation(build_energy_density(spec, n), state)
                     for n in range(spec.n_sites)])


def apply_single_qubit(mat: np.ndarray, vec: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Apply an arbitrary 2x2 matrix to one site of a state vector."""
    mat = np.asarray(mat)
    if mat.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    dim = 1 << n_sites
    vec = np.asarray(vec)
    if vec.shape != (dim,):
        raise ValueError(f"state has shape {vec.shape}, expected ({dim},)")
    # index = hi * 2^(site+1) + b * 2^site + lo
    v3 = vec.reshape(1 << (n_sites - 1 - site), 2, 1 << site)
    out = np.einsum("ab,xby->xay", mat, v3)
    return out.reshape(dim)


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
        return sum(b.weight * expectation(op, b.state) for b in self.branches if b.weight > 0.0)


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
        e_a += weight * expectation(hamiltonian, state)
        total += weight
    # projective completeness leaves total = 1 up to roundoff; rescale exactly
    branches = [Branch(b.weight / total if b.weight else 0.0, b.state, b.outcome)
                for b in branches]
    return MixedEnsemble(tuple(branches)), e_a


def eq9_energy(e_a: float, xi: float, eta: float, theta: float) -> float:
    """Closed form for Tr[rho H] after feedback at angle theta."""
    return e_a + (eta / 2.0) * math.sin(2.0 * theta) + (xi / 2.0) * (1.0 - math.cos(2.0 * theta))


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


def density_profile(spec: ChainSpec, states) -> tuple[float, ...]:
    """Per-site <T_n> averaged over weighted states [(weight, state), ...]."""
    profile = sum(w * operator_densities(spec, s) for w, s in states if w > 0.0)
    return tuple(float(t) for t in profile)


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

    limit = 1e-10 * one_norm(h)
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


class BranchGround:
    """A ground state with H, H|g>, and the branch route's tensors and measurements memoized.

    The tensors are memoized per (site_a, site_b) and the measurement
    (ensemble, E_A and post-measurement profile) per (site_a, axis_a), so a
    sweep over receivers and axis pairs measures each sender axis once.
    """

    def __init__(self, spec: ChainSpec, state: np.ndarray):
        self.spec = spec
        self.state = np.asarray(state)
        self.ground_profile = density_profile(spec, [(1.0, self.state)])
        self.hamiltonian = build_hamiltonian(spec)
        self.h_ground = self.hamiltonian.apply(self.state)
        self._tensors: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._measurements: dict[tuple, tuple[MixedEnsemble, float, tuple[float, ...]]] = {}

    def tensors(self, spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
        key = (spec.site_a, spec.site_b)
        if key not in self._tensors:
            self._tensors[key] = correlation_tensors(spec, self.state, self.hamiltonian,
                                                     h_ground=self.h_ground)
        return self._tensors[key]

    def measurement(self, spec: ChainSpec, axis_a
                    ) -> tuple[MixedEnsemble, float, tuple[float, ...]]:
        key = (spec.site_a, tuple(float(c) for c in axis_a))
        if key not in self._measurements:
            ensemble, e_a = measure(self.state, *projectors(axis_a, spec.site_a, spec.n_sites),
                                    self.hamiltonian)
            profile = density_profile(spec, [(b.weight, b.state) for b in ensemble.branches])
            self._measurements[key] = (ensemble, e_a, profile)
        return self._measurements[key]


def branch_protocol(spec: ChainSpec, setup: MeasurementSetup, ground,
                    theta: float | None = None) -> ProtocolResult:
    """`protocol.run_protocol` on branch states, without its checks and warnings.

    `ground` is a state or a BranchGround of `spec`'s chain.
    """
    if not isinstance(ground, BranchGround):
        ground = BranchGround(spec, ground)
    ensemble, e_a, post_measurement = ground.measurement(spec, setup.axis_a)
    profiles = {"ground": ground.ground_profile, "post_measurement": post_measurement}
    xi_mat, eta_mat = ground.tensors(spec)
    a_vec, b_vec = np.asarray(setup.axis_a), np.asarray(setup.axis_b)
    xi = float(b_vec @ xi_mat @ b_vec)
    eta = float(a_vec @ eta_mat @ b_vec)
    theta_star = optimal_theta(xi, eta)
    theta_used = theta_star if theta is None else float(theta)
    sigma_b = axis_operator(setup.axis_b, spec.site_b, spec.n_sites)
    ensemble = apply_feedback(ensemble, sigma_b, theta_used)
    profiles["post_feedback"] = density_profile(
        spec, [(b.weight, b.state) for b in ensemble.branches])
    trace_energy = ensemble.energy(ground.hamiltonian)
    return ProtocolResult(e_a, xi, eta, theta_star, e_a - trace_energy, trace_energy,
                          theta_used, math.hypot(xi, eta) > 1e-14 * spec.coupling, profiles)


def branch_gram(weight: float, state: np.ndarray, site: int,
                hamiltonian: HermitianOperator) -> np.ndarray:
    """Per-outcome cooling Gram form w <psi| E_p^dag H E_q |psi>, hermitized, from 2^N units."""
    # unit p = k*2 + l is |k><l| at the site applied to the state
    units = np.array([apply_single_qubit(e.reshape(2, 2), state, site, hamiltonian.n_sites)
                      for e in np.eye(4, dtype=np.complex128)])
    h_units = np.array([hamiltonian.apply(u) for u in units])
    gram = np.einsum("pi,qi->pq", units.conj(), h_units)
    return weight * 0.5 * (gram + gram.conj().T)


def solve_choi_sdp(objective: OutcomeObjective, t: np.ndarray, max_evals: int
                    ) -> tuple[float, float, tuple[np.ndarray, ...]]:
    """Dual bound, primal energy and Kraus set of one outcome's Choi SDP, started at t.

    The log-barrier centre for weight mu maximizes 2 y0 + mu log det S(y); there
    J = mu S^-1 is primal feasible and Tr[S J] = 4 mu bounds the gap.  Damped Newton
    steps re-centre after each 20-fold cut of mu until 4 mu <= 1e-13 ||C||, for at
    most max_evals steps; the last S gives the bound and, on its kernel, the channel.
    """
    c = objective.gram
    scale = float(np.max(np.abs(np.linalg.eigvalsh(c)))) or 1.0
    y, mu = np.concatenate([[0.5 * objective(t) - scale], t]), scale   # lambda_min(S) = mu
    for _ in range(max_evals):
        w, v = np.linalg.eigh(c - np.tensordot(y, _DUAL_BASIS, axes=1))
        s_inv_a = np.einsum("pq,iqr->ipr", (v / w) @ v.conj().T, _DUAL_BASIS)
        trace = np.real(np.einsum("ipp->i", s_inv_a))
        hess = np.real(np.einsum("ipq,jqp->ij", s_inv_a, s_inv_a))
        while True:                       # cut mu while the point is still centred
            grad = np.array([2.0 / mu, 0.0, 0.0, 0.0]) - trace   # Tr Y = 2 y0
            step = np.linalg.solve(hess, grad)
            decrement = math.sqrt(max(float(grad @ step), 0.0))
            if decrement >= 0.1 or 4.0 * mu <= 1e-13 * scale:
                break
            mu *= 0.05
        if decrement < 0.1:
            break
        y = y + (step / (1.0 + decrement) if decrement > 0.25 else step)

    # J = K X K^dag on the kernel K of S (complementary slackness S J = 0), with
    # Tr_out(K X K^dag) = I_2 linear in X; its min-norm solution is Hermitian
    evals, evecs = np.linalg.eigh(c - np.tensordot(y, _DUAL_BASIS, axes=1))
    bound = 2.0 * float(y[0] + evals[0])  # Tr Y for Y = (y0 + lambda_min S) I + t.sigma
    kernel = evecs[:, evals - evals[0] <= 1e-6 * (evals[-1] - evals[0])]
    k3 = kernel.reshape(2, 2, -1)         # (output k, input l, kernel column)
    system = np.einsum("kli,kmj->lmij", k3, k3.conj()).reshape(4, -1)
    target = np.eye(2, dtype=np.complex128).ravel()
    x = np.linalg.lstsq(system, target, rcond=None)[0]
    choi = kernel @ x.reshape(kernel.shape[1], -1) @ kernel.conj().T
    weights, vecs = np.linalg.eigh(0.5 * (choi + choi.conj().T))
    if norm(system @ x - target) > 1e-10 or weights[0] < -1e-12:
        raise RuntimeError("no feasible Choi matrix on the dual kernel; the dual solve "
                           "did not reach the optimum")
    kraus = tuple((vecs * np.sqrt(np.clip(weights, 0.0, None))).T.reshape(-1, 2, 2))
    return bound, float(np.real(np.trace(c @ choi))), kraus


def identity_channel(outcomes=(0, 1)) -> LocalChannel:
    return LocalChannel({mu: (np.eye(2, dtype=np.complex128),) for mu in outcomes})


def random_channel(seed: int, outcomes=(0, 1)) -> LocalChannel:
    """Haar-style random channel: an independent Ginibre-QR isometry per outcome."""
    rng = np.random.default_rng(seed)
    kraus_sets = {}
    for mu in outcomes:
        g = rng.standard_normal((2 * ENV_DIM, 2)) + 1j * rng.standard_normal((2 * ENV_DIM, 2))
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r)
        kraus_sets[mu] = tuple((q * (np.abs(diag) / diag)).reshape(ENV_DIM, 2, 2))
    return LocalChannel(kraus_sets)


def apply_channel(ensemble: MixedEnsemble, channel: LocalChannel, site: int) -> MixedEnsemble:
    """Expand each branch through its outcome's Kraus set.

    A branch (w, psi, mu) becomes one branch per Kraus operator, weighted by
    w ||M psi||^2; completeness keeps the total weight at 1.  Branches below
    1e-14 are pruned.
    """
    n_sites = int(math.log2(len(ensemble.branches[0].state)))
    branches = []
    for b in ensemble.branches:
        if b.weight == 0.0:
            continue
        if b.outcome not in channel.kraus_sets:
            raise ValueError(f"channel has no Kraus set for outcome {b.outcome}")
        for m in channel.kraus_sets[b.outcome]:
            vec = apply_single_qubit(m, b.state, site, n_sites)
            nrm2 = float(inner(vec, vec).real)
            w = b.weight * nrm2
            if w < 1e-14:
                continue
            branches.append(Branch(w, vec / math.sqrt(nrm2), b.outcome))
    return MixedEnsemble(tuple(branches))


def channel_energy(ensemble: MixedEnsemble, channel: LocalChannel, site: int,
                   hamiltonian: HermitianOperator) -> float:
    """Tr[rho_c H] by direct branch expansion (the slow, independent route)."""
    return apply_channel(ensemble, channel, site).energy(hamiltonian)


@dataclass(frozen=True)
class CorrelationCheck:
    """Two-point function versus its factorized form, Eq.-style entanglement witness."""

    lhs: float          # <g| T_n O_m |g>
    rhs: float          # <g| T_n |g> <g| O_m |g>
    gap: float          # |lhs - rhs|


def density_eigenbasis_weights(spec: ChainSpec, n: int, state: np.ndarray):
    """Expand a state in the eigenbasis of T_n: (eigenvalues, weights).

    The weights are the total probability carried by each local eigenvector
    (summed over the environment), so sum(w) = 1 and sum(e * w) = <T_n>.
    """
    support = density_support(spec, n)
    mat = build_energy_density(spec, n).dense(sites=support)
    vals, vecs = np.linalg.eigh(mat)
    blocks = split_by_support(state, support, spec.n_sites)
    coeffs = np.einsum("ka,ke->ae", vecs.conj(), blocks)
    weights = np.sum(np.abs(coeffs) ** 2, axis=1)
    return vals, weights


def correlation_check(ground: np.ndarray, t_n: HermitianOperator,
                      o_m: HermitianOperator) -> CorrelationCheck:
    """Test the factorization <T_n O_m> = <T_n><O_m> (fails iff entangled).

    Only meaningful for disjoint supports, where T_n O_m is Hermitian and
    the two-point function is real.
    """
    supports = [sorted({s for t in op.terms for s in support(t)}) for op in (t_n, o_m)]
    if set(supports[0]) & set(supports[1]):
        raise ValueError(f"supports overlap: {supports[0]} and {supports[1]}")
    tv = t_n.apply(ground)
    ov = o_m.apply(ground)
    lhs = inner(tv, ov)
    if abs(lhs.imag) > 1e-10 * one_norm(t_n) * one_norm(o_m):
        raise ValueError(f"two-point function has imaginary part {lhs.imag:g}")
    rhs = float(inner(ground, tv).real * inner(ground, ov).real)
    return CorrelationCheck(float(lhs.real), rhs, abs(float(lhs.real) - rhs))


def even_parity_sector(op: HermitianOperator) -> HermitianOperator:
    """`op` on the even-parity states, prod_n sz_n = +1, as a Pauli sum on sites 0..N-2.

    An even-parity basis state is fixed by its first N-1 spins, and the last
    spin carries their parity.  So sz_{N-1} acts as sz_0 ... sz_{N-2}, and a
    flip of site N-1 only restores that parity: sx_{N-2} sx_{N-1} becomes
    sx_{N-2}.  With each string written as its coefficient times i**n_y X^x Z^z
    (Z acting first), this drops the last site's letter and, where that letter
    has a Z-bit, toggles the Z-bit of every other site.  A string with an odd
    number of flips leaves the sector and raises ValueError.
    """
    n_sites = op.n_sites - 1
    strings = []
    for term in op.terms:
        x, z, _ = _masks(term.letters)
        if x.bit_count() % 2:
            raise ValueError(f"{term.letters!r} does not conserve parity")
        if z >> n_sites & 1:
            z ^= (1 << n_sites) - 1
        letters = "".join("IXZY"[(x >> n & 1) + 2 * (z >> n & 1)] for n in range(n_sites))
        phase = 1j ** (term.letters.count("Y") - letters.count("Y"))
        strings.append(PauliString(term.coefficient * phase, letters))
    return HermitianOperator.from_strings(n_sites, strings)


def even_parity_indices(n_sites: int) -> np.ndarray:
    """The full-space index of each even-parity basis state, in `even_parity_sector`'s order.

    The first N-1 bits are the sector index, and bit N-1 carries their parity.
    """
    reduced = np.arange(1 << (n_sites - 1))
    return reduced + (np.bitwise_count(reduced).astype(np.int64) % 2 << (n_sites - 1))


def bdg_pairing(n_sites: int, periodic: bool) -> np.ndarray:
    """Pairing matrix G = -X^-1 Y from an `eigh` of the 2N x 2N BdG matrix.

    The rows (X, Y) are its positive-energy eigenvectors.
    """
    a, b = bdg_blocks(n_sites, periodic)
    vecs = np.linalg.eigh(np.block([[a, b], [-b, -a]]))[1]
    return -np.linalg.solve(vecs[:n_sites, n_sites:].T, vecs[n_sites:, n_sites:].T)


def pfaffian(mat: np.ndarray) -> float:
    """Pfaffian of an antisymmetric matrix by expansion along its first row (small sizes only)."""
    size = len(mat)
    if size == 0:
        return 1.0
    if size % 2:
        return 0.0
    total = 0.0
    for j in range(1, size):
        keep = [k for k in range(1, size) if k != j]
        total += (-1) ** (j + 1) * mat[0, j] * pfaffian(mat[np.ix_(keep, keep)])
    return total


def lowest_site_amplitudes(pairing: np.ndarray) -> np.ndarray:
    """Pf(G_S) for every site set S, expanding each Pfaffian along its lowest site i.

    Pf(G_S) = sum_{j in S, j > i} (-1)^{#(S between i and j)} G_ij Pf(G_{S - i - j}).
    Going from i = N-1 down to 0, the sets whose lowest site is i,
    amp[1<<i :: 1<<(i+1)], are filled from the sets above i,
    amp[:: 1<<(i+1)]; in both strided views bit b of the position is site
    i+1+b, and the term of site j = i+1+k reads them as (-1, 2, 2**k).
    """
    n_sites = len(pairing)
    amp = np.zeros(1 << n_sites)
    amp[0] = 1.0
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


def site_signs(n_sites: int, z_mask: int) -> np.ndarray:
    """(-1)**popcount(index & z_mask) with each index as N bits, broadcastable to (2,)*N."""
    signs = np.ones((1,) * n_sites)
    for n in range(n_sites):
        if z_mask >> n & 1:
            shape = [1] * n_sites
            shape[n_sites - 1 - n] = 2
            signs = signs * np.array([1.0, -1.0]).reshape(shape)
    return signs


def term_diagonal(n_sites: int, members) -> np.ndarray:
    """sum c (-1)**popcount(i & z) over (c, z) members and all 2**N indices i, term by term."""
    diag = np.zeros((2,) * n_sites, dtype=np.complex128)
    for c, z in members:
        diag += c * site_signs(n_sites, z)
    return diag.reshape(-1)


def power_law_slope(n_min: int = 20, n_max: int = 200) -> float:
    """Regression slope of ln E_B(n) versus ln n; approaches -9/2 for every J."""
    ns = np.arange(n_min, n_max + 1)
    log_eb = np.array([math.log(eb_closed_form(int(n))) for n in ns])
    return float(np.polyfit(np.log(ns.astype(float)), log_eb, 1)[0])


def state_offsets(spec: ChainSpec, ground: np.ndarray) -> np.ndarray:
    """Offsets eps_n = <g|(-J sz_n - (J/2) sx_n sx_{n+-1})|g> read from a state's amplitudes.

    `chain.calibrate_epsilon` reads them from the ground state's covariance
    instead; this route calibrates any normalized state, so that it reads as
    a ground state with every <T_n> = 0.  On a periodic chain each offset is
    the mean.
    """
    nrm = norm(ground)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"ground state is not normalized (norm {nrm:.3e})")
    eps = operator_densities(spec.with_epsilon((0.0,) * spec.n_sites), ground)
    return np.full(spec.n_sites, eps.mean()) if spec.boundary == "periodic" else eps


def reduced_by_einsum(state: np.ndarray, sites: tuple[int, ...], n_sites: int) -> np.ndarray:
    """rho_S[a, b] = sum_e g[a, e] g[b, e]^* by einsum's own loops, over sorted `sites`."""
    amps = split_by_support(state, tuple(sorted(sites)), n_sites)
    return np.einsum("ae,be->ab", amps, amps.conj())
