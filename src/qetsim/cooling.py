"""Minimum residual energy over the sender's local quantum channels.

After step (i) the sender holds outcome mu and may apply any trace-preserving
local channel {M(alpha, mu)} to the sender's qubit to pull the deposit back out;
outcome mu left the unnormalized state P|g> of its projector P.
Nonnegativity of the total energy forbids full recovery: the minimum of
Tr[rho_c H] over channels is the residual energy E_r, above the teleported E_B.

Tr[rho_c H] is linear in the channel's Choi matrix J = sum_alpha m_alpha m_alpha^dag,
where m_alpha = vec(M_alpha) has index k*2 + l (k the output, l the input):

    sum_alpha <g|P M_alpha^dag H M_alpha P|g> = Tr[C J],
    C[(i,j),(k,l)] = <g|P (|j><i| at A) H (|k><l| at A) P|g>,

so each outcome's minimum is the SDP min Tr[C J] over J >= 0 with
Tr_out J = I_2.  Its dual (Watrous, The Theory of Quantum Information, 2018,
ch. 1 and 3) maximizes Tr Y over Y = y0 I + t.sigma subject to
S = C - I_2 (x) Y >= 0.  Every feasible Y bounds the minimum from below (weak
duality), and that bound is the value reported.  The optimal channel lives on
the kernel of S (complementary slackness S J = 0); its energy minus the bound
is the duality gap, the one certificate of the value.  The outcomes decouple.

Every (outcome, start) pair is one row of a single barrier path: the rows take
their Newton steps in lockstep, one batched eigh and one batched solve per
step, and a row stops once it is centred at its last barrier weight.  Each
row's step reads only that row's S, so its iterates and step count are those
of solving it alone, to rounding; only the Python overhead per step is shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, density_support
from .protocol import MeasurementSetup, PreparedGround, _projectors, _resolve_ground, _trace


@dataclass
class LocalChannel:
    """Outcome-indexed single-qubit Kraus sets, complete per outcome."""

    kraus_sets: dict[int, tuple[np.ndarray, ...]]

    def __post_init__(self):
        defect = self.completeness_defect()
        if defect > 1e-10:
            raise ValueError(f"Kraus completeness violated (defect {defect:.3e})")

    def completeness_defect(self) -> float:
        worst = 0.0
        for ops in self.kraus_sets.values():
            acc = sum(m.conj().T @ m for m in ops)
            worst = max(worst, float(np.max(np.abs(acc - np.eye(2)))))
        return worst


# I_2 (x) sigma for sigma = 1, x, y, z: S = C - I_2 (x) Y = C - y.basis for Y = y0 I + t.sigma
_DUAL_BASIS = np.stack([np.kron(np.eye(2), s) for s in (
    np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))])
_DUAL_FLAT = _DUAL_BASIS.reshape(4, 16)


def _real_part_of_product(coefficients: np.ndarray) -> np.ndarray:
    """R with x.view(np.float64) @ R == Re(x @ coefficients) for complex rows x."""
    return np.stack([coefficients.real, -coefficients.imag], axis=1).reshape(
        -1, coefficients.shape[1])


# with A_i = _DUAL_BASIS[i] and any 4x4 M, read as real pairs: Re Tr(M A_i) is
# M.ravel() @ _TRACE[:, i] and Re Tr(M A_i M A_j) is (M (x) M).ravel() @ _HESSIAN[:, 4 i + j]
_TRACE = _real_part_of_product(_DUAL_BASIS.transpose(2, 1, 0).reshape(16, 4))
_HESSIAN = _real_part_of_product(
    np.einsum("iqr,jsp->pqrsij", _DUAL_BASIS, _DUAL_BASIS).reshape(256, 16))
# [k, ., ., a, ., .] = delta_ka: the output index k of the unit |k><l| at the sender
_UNIT_OUTPUTS = np.eye(2)[:, None, None, :, None, None]


class OutcomeObjective:
    """One outcome's cooling objective Tr[C J] over Choi matrices J, for its 4x4 Gram form C."""

    def __init__(self, gram: np.ndarray):
        self.gram = gram

    def __call__(self, t: np.ndarray) -> float:
        """Dual objective 2 lambda_min(C - I_2 (x) t.sigma): a lower bound for every t."""
        slack = self.gram - np.tensordot(t, _DUAL_BASIS[1:], axes=1)
        return 2.0 * float(np.linalg.eigvalsh(slack)[0])


def outcome_objectives(prepared: PreparedGround, spec: ChainSpec, axis_a
                       ) -> dict[int, OutcomeObjective]:
    """The objective of each outcome of measuring axis_a at spec.site_a, from rho on supp T_A.

    With P the outcome's projector and E_p = |k><l| at A (p = k*2 + l),
    C[p,q] = <g|P E_p^dag H E_q P|g>.  Only H_A, the terms of H at A, fails
    to commute with E_q P, and H|g> = E_0|g> turns the rest into E_0 - H_A:
    C[p,q] = <g|P E_p^dag [H_A, E_q P]|g> + E_0 <g|P E_p^dag E_q P|g>, wrong
    by at most ||P E_p^dag E_q P|| ||(H - E_0) g||.  An outcome of weight
    below 1e-14 gets no objective and no channel.
    """
    sites = density_support(spec, spec.site_a)
    rho = prepared.reduced(sites)
    sigma = prepared.dense(prepared.sigma(axis_a, spec.site_a), sites)
    h_a = prepared.dense(prepared.acting_on(spec.site_a), sites)
    shifted = h_a - sum(prepared.ground_profile) * np.eye(len(rho))       # H_A - E_0
    position = sites.index(spec.site_a)
    high, low = len(rho) >> (position + 1), 1 << position
    objectives = {}
    for outcome, p in enumerate(_projectors(sigma)):
        if _trace(rho, p).real < 1e-14:
            continue
        # E_q P for q = k*2 + l moves row (h, l, m) of P, read as (high, 2, low), to (h, k, m)
        units = (_UNIT_OUTPUTS * p.reshape(high, 2, low, -1).swapaxes(0, 1)[None, :, :, None]
                 ).reshape(4, len(rho), len(rho))
        moved = np.array([h_a @ u @ rho - u @ shifted @ rho for u in units])
        gram = np.einsum("pcb,qcb->pq", units.conj(), moved)     # Tr(units[p]^dag moved[q])
        objectives[outcome] = OutcomeObjective(0.5 * (gram + gram.conj().T))
    return objectives


def _barrier_path(grams: np.ndarray, y: np.ndarray, max_evals: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Final dual point and Newton step count of each row of `grams` (K, 4, 4), from y (K, 4).

    The log-barrier centre for weight mu maximizes 2 y0 + mu log det S(y); there
    J = mu S^-1 is primal feasible and Tr[S J] = 4 mu bounds the gap.  Damped Newton
    steps re-centre after each 20-fold cut of mu, from mu = 1, until 4 mu <= 1e-13
    (the rows are scaled to unit norm), for at most max_evals steps per row.  The
    rows step in lockstep, one batched eigh and one batched solve per step, and a
    row stops once it is centred at its last mu.  No row reads another row's
    numbers, so a row takes the steps it takes alone, to rounding.
    """
    final, steps = np.empty_like(y), np.full(len(y), max_evals)
    rows, point, weight = np.arange(len(y)), y, np.ones(len(y))       # the rows still moving
    for count in range(1, max_evals + 1):
        w, v = np.linalg.eigh(grams - (point @ _DUAL_FLAT).reshape(-1, 4, 4))
        s_inv = (v / w[:, None, :]) @ v.conj().swapaxes(1, 2)
        trace = s_inv.reshape(-1, 16).view(np.float64) @ _TRACE
        hess = ((s_inv[:, :, :, None, None] * s_inv[:, None, None]).reshape(-1, 256)
                .view(np.float64) @ _HESSIAN).reshape(-1, 4, 4)
        # the Newton step for the gradient (2 / mu) e_0 - trace is base + (2 / mu) lift
        rhs = np.zeros((len(rows), 4, 2))
        rhs[:, :, 0], rhs[:, 0, 1] = -trace, 1.0
        base, lift = np.linalg.solve(hess, rhs).transpose(2, 0, 1)
        while True:                       # cut mu while a row's point is still centred
            lead = 2.0 / weight                                 # Tr Y = 2 y0
            step = base + lead[:, None] * lift
            grad = -trace
            grad[:, 0] += lead
            decrement = np.sqrt(np.maximum((grad * step).sum(axis=1), 0.0))
            centred = (decrement < 0.1) & (4.0 * weight > 1e-13)
            if not centred.any():
                break
            weight = np.where(centred, 0.05 * weight, weight)
        moving = decrement >= 0.1
        if not moving.all():              # centred at its last mu: the row is solved
            final[rows[~moving]], steps[rows[~moving]] = point[~moving], count
            rows, grams, point, weight = rows[moving], grams[moving], point[moving], weight[moving]
            step, decrement = step[moving], decrement[moving]
            if not rows.size:
                return final, steps
        point = point + step / np.where(decrement > 0.25, 1.0 + decrement, 1.0)[:, None]
    final[rows] = point
    return final, steps


def _primal_channel(gram: np.ndarray, evals: np.ndarray, evecs: np.ndarray
                    ) -> tuple[float, tuple[np.ndarray, ...]]:
    """Energy and Kraus set of the channel on the kernel of S = C - I_2 (x) Y, from eigh(S).

    J = K X K^dag on the kernel K of S (complementary slackness S J = 0), with
    Tr_out(K X K^dag) = I_2 linear in X; its min-norm solution is Hermitian.
    J is then sandwiched by I_2 (x) M^-1/2, M = Tr_out J (each output block
    J_kk' becomes M^-1/2 J_kk' M^-1/2), so Tr_out J = I_2 holds to rounding
    whatever the solve's residual, and J stays PSD: the channel is exactly
    feasible and its energy a true upper bound.  Raises RuntimeError only if
    no channel lives on the kernel: M is not positive definite or J not PSD.
    """
    kernel = evecs[:, evals - evals[0] <= 1e-6 * (evals[-1] - evals[0])]
    k3 = kernel.reshape(2, 2, -1)         # (output k, input l, kernel column)
    system = np.einsum("kli,kmj->lmij", k3, k3.conj()).reshape(4, -1)
    target = np.eye(2, dtype=np.complex128).ravel()
    x = np.linalg.lstsq(system, target, rcond=None)[0]
    choi = kernel @ x.reshape(kernel.shape[1], -1) @ kernel.conj().T
    blocks = choi.reshape(2, 2, 2, 2).swapaxes(1, 2)      # J_kk' over the input
    m_w, m_v = np.linalg.eigh(blocks[0, 0] + blocks[1, 1])
    if m_w[0] > 0.0:                      # else no channel lives on the kernel
        root = (m_v / np.sqrt(m_w)) @ m_v.conj().T
        choi = (root @ blocks @ root).swapaxes(1, 2).reshape(4, 4)
    weights, vecs = np.linalg.eigh(0.5 * (choi + choi.conj().T))
    if m_w[0] <= 0.0 or weights[0] < -1e-12:
        raise RuntimeError("no feasible Choi matrix on the dual kernel; the dual solve "
                           "did not reach the optimum")
    kraus = tuple((vecs * np.sqrt(np.clip(weights, 0.0, None))).T.reshape(-1, 2, 2))
    return float(np.real(np.trace(gram @ choi))), kraus


def _solve_choi_sdps(rows: list[tuple[OutcomeObjective, np.ndarray]], max_evals: int
                     ) -> list[tuple[float, float, tuple[np.ndarray, ...]]]:
    """Dual bound, primal energy and Kraus set of each (objective, start t) row's Choi SDP.

    All rows share one `_barrier_path`, each on its C / ||C|| and started at
    y0 = objective(t) / 2 - ||C|| (so lambda_min(S) = ||C||), so that neither
    the stopping rule nor the barrier's numbers depend on the scale of C.  The
    last S of a row gives its bound and, on its kernel, its channel, also when
    the row ran out of steps; the bound and the primal energy are scaled back.
    """
    if not rows:
        return []
    scales = [float(np.max(np.abs(np.linalg.eigvalsh(objective.gram)))) or 1.0
              for objective, _ in rows]
    grams = np.array([objective.gram / scale for (objective, _), scale in zip(rows, scales)])
    starts = np.array([[0.5 * objective(t) / scale - 1.0, *(t / scale)]
                       for (objective, t), scale in zip(rows, scales)])
    y, _ = _barrier_path(grams, starts, max_evals)
    evals, evecs = np.linalg.eigh(grams - (y @ _DUAL_FLAT).reshape(-1, 4, 4))
    runs = []
    for gram, point, w, v, scale in zip(grams, y, evals, evecs, scales):
        primal, kraus = _primal_channel(gram, w, v)
        # the bound is Tr Y for Y = (y0 + lambda_min S) I + t.sigma
        runs.append((2.0 * float(point[0] + w[0]) * scale, primal * scale, kraus))
    return runs


@dataclass
class CoolingResult:
    e_r_numeric: float               # sum of the per-outcome dual bounds
    best_channel: LocalChannel       # primal channel on the dual kernel
    e_a: float
    per_outcome: tuple[float, ...]   # weighted per-outcome bounds summing to e_r
    duality_gap: float               # energy of best_channel minus e_r_numeric
    per_restart: tuple[float, ...]   # summed bound of each dual start


def _min_local_channel(objectives: dict[int, OutcomeObjective],
                       starts: np.ndarray = np.zeros((1, 3)), max_evals: int = 500
                       ) -> tuple[tuple[float, ...], tuple[float, ...], float, LocalChannel]:
    """Per-outcome bounds (best over the rows t of `starts`), per-start totals, gap, channel.

    Every (objective, t) pair is a row of one `_solve_choi_sdps`, solved in
    lockstep with the others; a row's results are those of its solo solve.
    """
    runs = _solve_choi_sdps([(objective, t) for objective in objectives.values() for t in starts],
                            max_evals)
    bounds, totals, gap, kraus_sets = [], np.zeros(len(starts)), 0.0, {}
    for index, outcome in enumerate(objectives):
        per_start = runs[index * len(starts):(index + 1) * len(starts)]
        totals += [run[0] for run in per_start]
        bound, primal, kraus_sets[outcome] = max(per_start, key=lambda run: run[0])
        bounds.append(bound)
        gap += primal - bound
    return tuple(bounds), tuple(totals.tolist()), gap, LocalChannel(kraus_sets)


def minimize_residual(spec: ChainSpec, setup: MeasurementSetup, ground, seed: int = 0,
                      restarts: int = 1, max_evals: int = 500) -> CoolingResult:
    """Minimize the post-measurement energy over the sender's local channels.

    The protocol stops after step (i); each measurement outcome is cooled by
    its own channel, solved exactly through the dual of its Choi SDP from t = 0
    and `restarts` - 1 starts drawn from `seed`, each for at most `max_evals`
    Newton steps; `per_restart` holds each start's total bound.  `ground` is
    the calibrated chain's solved ground state, in the forms
    `protocol.run_protocol` takes; a shared PreparedGround measures once for
    both.  Raises RuntimeError if the duality gap exceeds 1e-9 J.
    """
    if restarts < 1 or max_evals < 1:
        raise ValueError("restarts and max_evals must be at least 1")
    prepared = _resolve_ground(spec, ground)
    e_a, _ = prepared.measurement(spec.site_a, setup.axis_a)

    rng = np.random.default_rng(seed)
    starts = spec.coupling * np.vstack([np.zeros(3), rng.standard_normal((restarts - 1, 3))])
    per_outcome, per_restart, gap, channel = _min_local_channel(
        outcome_objectives(prepared, spec, setup.axis_a), starts, max_evals)
    if gap > 1e-9 * spec.coupling:
        raise RuntimeError(f"cooling duality gap {gap:.3e} exceeds 1e-9 J")
    return CoolingResult(sum(per_outcome), channel, e_a, per_outcome, gap, per_restart)
