"""Local cooling channels: completeness, decoupling, and the certified minimum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    apply_channel,
    channel_energy,
    identity_channel,
    measure,
    projectors,
    random_channel,
    solve_choi_sdp,
)

from qetsim import chain, cooling, protocol
from qetsim.chain import build_hamiltonian
from qetsim.cooling import LocalChannel, minimize_residual
from qetsim.protocol import MeasurementSetup


@pytest.fixture(scope="module")
def measured_chain():
    spec, res = chain.calibrated_chain(8)
    h = build_hamiltonian(spec)
    p0, p1 = projectors(protocol.AXES["y"], spec.site_a, 8)
    ensemble, e_a = measure(res.state, p0, p1, h)
    return spec, res, h, ensemble, e_a


def test_random_channels_complete_by_construction():
    worst = max(random_channel(seed).completeness_defect() for seed in range(1000))
    assert worst < 1e-12


def test_incomplete_kraus_set_rejected():
    half = np.eye(2) * 0.5
    with pytest.raises(ValueError, match="completeness"):
        LocalChannel({0: (half,), 1: (np.eye(2),)})


def test_identity_channel_leaves_ensemble_alone(measured_chain):
    spec, _, h, ensemble, e_a = measured_chain
    out = apply_channel(ensemble, identity_channel(), spec.site_a)
    assert len(out.branches) == len([b for b in ensemble.branches if b.weight > 0.0])
    assert channel_energy(ensemble, identity_channel(), spec.site_a, h) == pytest.approx(
        e_a, abs=1e-10)


def test_channel_preserves_total_weight(measured_chain):
    spec, _, _, ensemble, _ = measured_chain
    for seed in range(5):
        out = apply_channel(ensemble, random_channel(seed), spec.site_a)
        assert sum(b.weight for b in out.branches) == pytest.approx(1.0, abs=1e-12)
        for b in out.branches:
            assert np.linalg.norm(b.state) == pytest.approx(1.0, abs=1e-12)


def test_channel_requires_kraus_set_per_outcome(measured_chain):
    spec, _, _, ensemble, _ = measured_chain
    lopsided = LocalChannel({0: (np.eye(2, dtype=complex),)})
    with pytest.raises(ValueError, match="outcome"):
        apply_channel(ensemble, lopsided, spec.site_a)


def test_outcomes_decouple_additively(measured_chain):
    # the objective is linear in the per-outcome channels: patching outcome 0
    # and outcome 1 independently adds up exactly
    spec, _, h, ensemble, e_a = measured_chain
    ident = np.eye(2, dtype=complex)
    ch0 = random_channel(11).kraus_sets[0]
    ch1 = random_channel(12).kraus_sets[1]
    both = channel_energy(ensemble, LocalChannel({0: ch0, 1: ch1}), spec.site_a, h)
    only0 = channel_energy(ensemble, LocalChannel({0: ch0, 1: (ident,)}), spec.site_a, h)
    only1 = channel_energy(ensemble, LocalChannel({0: (ident,), 1: ch1}), spec.site_a, h)
    assert both == pytest.approx(only0 + only1 - e_a, abs=1e-10)


def gram_energy(objective, kraus) -> float:
    """One outcome's w <psi| sum_k K^dag H K |psi> from the objective's 4x4 Gram form."""
    vecs = np.stack(kraus).reshape(-1, 4)   # row-major vec of each Kraus operator
    return float(np.real(np.einsum("ap,pq,aq->", vecs.conj(), objective.gram, vecs)))


def y_objectives(spec, res):
    """The package's objectives for the y measurement, read from rho on supp T_A."""
    return cooling.outcome_objectives(protocol.PreparedGround(spec, res), spec,
                                      protocol.AXES["y"])


def test_gram_objective_matches_direct_route(measured_chain):
    spec, res, h, ensemble, _ = measured_chain
    objectives = y_objectives(spec, res)
    assert sorted(objectives) == [b.outcome for b in ensemble.branches if b.weight > 0.0]
    for seed in range(5):
        channel = random_channel(seed)
        fast = sum(gram_energy(obj, channel.kraus_sets[mu]) for mu, obj in objectives.items())
        slow = channel_energy(ensemble, channel, spec.site_a, h)
        assert fast == pytest.approx(slow, abs=1e-10)


def test_gram_objective_nonnegative(measured_chain):
    spec, res, _, _, _ = measured_chain
    objectives = y_objectives(spec, res)
    for seed in range(100):
        channel = random_channel(seed)
        assert all(gram_energy(obj, channel.kraus_sets[mu]) > -1e-12
                   for mu, obj in objectives.items())


def test_minimize_residual_bounds_and_consistency(measured_chain):
    spec, res, h, ensemble, e_a = measured_chain
    setup = MeasurementSetup.cardinal("y", "x")
    result = protocol.run_protocol(spec, setup, ground=res)
    cool = minimize_residual(spec, setup, seed=0, ground=res)

    assert cool.e_a == pytest.approx(e_a, abs=1e-10)
    assert cool.e_r_numeric >= result.e_b - 1e-8          # security bound
    assert cool.e_r_numeric <= cool.e_a + 1e-9            # identity channel is feasible
    assert cool.e_r_numeric >= -1e-9
    assert len(cool.per_outcome) == 2
    assert sum(cool.per_outcome) == pytest.approx(cool.e_r_numeric, abs=1e-12)

    # the reported channel really attains the reported energy (independent route)
    direct = channel_energy(ensemble, cool.best_channel, spec.site_a, h)
    assert direct == pytest.approx(cool.e_r_numeric, abs=1e-8)


def test_minimizer_dominates_random_sampling(measured_chain):
    spec, res, h, ensemble, _ = measured_chain
    setup = MeasurementSetup.cardinal("y", "x")
    cool = minimize_residual(spec, setup, seed=0, ground=res)
    sampled = min(channel_energy(ensemble, random_channel(seed), spec.site_a, h)
                  for seed in range(300))
    assert sampled >= cool.e_r_numeric - 1e-12


def test_primal_channel_certifies_the_bound(measured_chain):
    # the channel recovered from the dual kernel attains the reported lower bound
    spec, res, h, ensemble, _ = measured_chain
    cool = minimize_residual(spec, MeasurementSetup.cardinal("y", "x"), ground=res)
    direct = channel_energy(ensemble, cool.best_channel, spec.site_a, h)
    assert direct == pytest.approx(cool.e_r_numeric, abs=1e-10)
    assert cool.best_channel.completeness_defect() < 1e-12
    assert -1e-12 <= cool.duality_gap <= 1e-10 * spec.coupling


@pytest.mark.parametrize("n_sites, boundary, site_a, axis", [
    (10, "periodic", 0, (1.0, 0.0, 0.0)),
    (10, "periodic", 0, tuple(np.ones(3) / np.sqrt(3.0))),
    (10, "open", 4, (0.0, 1.0, 0.0)),
])
def test_duality_gap_off_the_periodic_y_case(chains, n_sites, boundary, site_a, axis):
    spec, res = chains(n_sites, boundary)
    spec = spec.with_sites(site_a, site_a + 1)
    cool = minimize_residual(spec, MeasurementSetup(axis, (1.0, 0.0, 0.0)), ground=res)
    assert -1e-12 <= cool.duality_gap <= 1e-10 * spec.coupling
    assert cool.e_r_numeric <= cool.e_a + 1e-9


@pytest.mark.parametrize("n_sites", [8, 12])
def test_open_chain_residual_law(chains, n_sites):
    # e_r = E_A - J for the y measurement holds off the ring too, at each sender site tried
    spec, res = chains(n_sites, "open")
    for site_a in (0, 1, n_sites // 2 - 1):
        cool = minimize_residual(spec.with_sites(site_a, site_a + 1),
                                 MeasurementSetup.cardinal("y", "x"), ground=res)
        assert cool.e_r_numeric == pytest.approx(cool.e_a - spec.coupling,
                                                 abs=1e-10 * spec.coupling)
        assert cool.duality_gap <= 1e-10 * spec.coupling


def test_minimum_stable_under_more_restarts(measured_chain):
    spec, res, _, _, _ = measured_chain
    setup = MeasurementSetup.cardinal("y", "x")
    few = minimize_residual(spec, setup, restarts=4, seed=0, ground=res)
    more = minimize_residual(spec, setup, restarts=8, seed=0, ground=res)
    assert more.e_r_numeric <= few.e_r_numeric + 1e-12
    assert abs(more.e_r_numeric - few.e_r_numeric) < 1e-6
    # the dual is concave: every start reaches the same bound
    assert len(more.per_restart) == 8
    assert max(abs(v - more.e_r_numeric) for v in more.per_restart) <= 1e-12


def test_dual_certifies_within_a_hundred_newton_steps(measured_chain):
    # about 60 barrier steps per outcome certify the bound; a handful do not,
    # and the solve says so instead of reporting an uncertified value
    spec, res, _, _, _ = measured_chain
    setup = MeasurementSetup.cardinal("y", "x")
    assert minimize_residual(spec, setup, ground=res, max_evals=100).duality_gap <= 1e-10
    for cap in (5, 35):
        with pytest.raises(RuntimeError, match="did not reach the optimum|duality gap"):
            minimize_residual(spec, setup, ground=res, max_evals=cap)
    with pytest.raises(ValueError, match="at least 1"):
        minimize_residual(spec, setup, ground=res, restarts=0)


def random_row(seed: int, magnitude: float = 1.0, reach: float = 1.0):
    """A random Hermitian 4x4 Gram form shifted to be positive semidefinite, and a start t."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    gram = 0.5 * (a + a.conj().T)
    gram = magnitude * (gram - np.linalg.eigvalsh(gram)[0] * np.eye(4))
    return cooling.OutcomeObjective(gram), reach * magnitude * rng.standard_normal(3)


def norm_of(objective) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(objective.gram))))


def step_counts(rows, max_evals: int = 500):
    """Newton steps each row of one lockstep barrier path takes, started as the solver starts it."""
    scales = [norm_of(objective) for objective, _ in rows]
    grams = np.array([objective.gram / s for (objective, _), s in zip(rows, scales)])
    starts = np.array([[0.5 * objective(t) / s - 1.0, *(t / s)]
                       for (objective, t), s in zip(rows, scales)])
    return cooling._barrier_path(grams, starts, max_evals)[1].tolist()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0), st.floats(0.0, 3.0)),
                min_size=1, max_size=6))
def test_lockstep_rows_match_their_solo_solves(cases):
    rows = [random_row(seed, 10.0 ** exponent, reach) for seed, exponent, reach in cases]
    batch = cooling._solve_choi_sdps(rows, 500)
    try:
        solo = [solve_choi_sdp(objective, t, 500) for objective, t in rows]
    except RuntimeError:
        # a row the oracle's residual test refuses is still certified by the batch
        for (objective, _), (bound, primal, _) in zip(rows, batch):
            assert abs(primal - bound) <= 1e-10 * norm_of(objective)
        return
    assert len(batch) == len(rows)
    for (objective, _), (bound, primal, kraus), (bound0, primal0, _) in zip(rows, batch, solo):
        scale = norm_of(objective)
        assert abs(bound - bound0) <= 1e-13 * scale
        # the kernel read-out fixes the primal energy to about 1e-11 ||C|| on either path
        assert abs(primal - primal0) <= 1e-11 * scale
        assert abs((primal - bound) - (primal0 - bound0)) <= 1e-11 * scale
        assert abs(primal - bound) <= 1e-10 * scale
        assert gram_energy(objective, kraus) == pytest.approx(primal, abs=1e-12 * scale)


def test_the_primal_channel_is_complete_to_rounding():
    # 300 random Grams in one batch: every channel is complete to rounding, so
    # its energy never sits below the bound it certifies
    rows = [random_row(seed) for seed in range(300)]
    for (objective, _), (bound, primal, kraus) in zip(rows, cooling._solve_choi_sdps(rows, 500)):
        assert primal - bound >= -1e-14 * norm_of(objective)
        assert LocalChannel({0: kraus}).completeness_defect() < 1e-14


@pytest.mark.parametrize("row", [(23243, 1.0, 0.0), (29247, 1e-2, 2.0)])
def test_a_kernel_the_residual_test_refused_is_certified(row):
    # the last S has a second eigenvalue near 1.5e-5 ||C||, above the 1e-6 kernel
    # threshold, so the one-column kernel's lstsq misses Tr_out J = I_2 by about
    # 2e-10, which the oracle refuses; completed by I_2 (x) M^-1/2, J certifies the bound
    objective, t = random_row(*row)
    (bound, primal, kraus), = cooling._solve_choi_sdps([(objective, t)], 500)
    assert -1e-14 * norm_of(objective) <= primal - bound <= 1e-12 * norm_of(objective)
    assert LocalChannel({0: kraus}).completeness_defect() < 1e-14
    with pytest.raises(RuntimeError, match="did not reach the optimum"):
        solve_choi_sdp(objective, t, 500)


FAST, SLOW = random_row(6, reach=0.0), random_row(7, reach=1e4)


def test_a_row_stops_once_centred():
    # a fast row beside a slow one takes its own steps and gives its solo result
    (fast,), (slow,) = step_counts([FAST]), step_counts([SLOW])
    assert fast < 25 < 50 < slow
    assert step_counts([FAST, SLOW]) == [fast, slow]
    (bound, primal, _), _ = cooling._solve_choi_sdps([FAST, SLOW], 500)
    (bound0, primal0, _), = cooling._solve_choi_sdps([FAST], 500)
    scale = norm_of(FAST[0])
    assert abs(bound - bound0) <= 1e-13 * scale and abs(primal - primal0) <= 1e-13 * scale


def test_the_step_cap_applies_per_row():
    (fast,) = step_counts([FAST])
    assert step_counts([FAST, SLOW], max_evals=fast + 10) == [fast, fast + 10]
    # six rows take over 250 steps in all, yet a cap of 100 certifies each of them
    rows = [random_row(seed) for seed in (7, 12, 13, 21, 27, 30)]
    assert sum(step_counts(rows)) > 250 and max(step_counts(rows)) < 100
    for (objective, t), (bound, primal, _) in zip(rows, cooling._solve_choi_sdps(rows, 100)):
        bound0, primal0, _ = solve_choi_sdp(objective, t, 100)
        assert abs(bound - bound0) <= 1e-13 * norm_of(objective)
        assert abs(primal - primal0) <= 1e-11 * norm_of(objective)
    # capped at 20 steps no row is certified, yet each reports its gap and a complete channel
    for (objective, _), (bound, primal, kraus) in zip(rows, cooling._solve_choi_sdps(rows, 20)):
        assert primal - bound > 1e-4 * norm_of(objective)
        assert LocalChannel({0: kraus}).completeness_defect() < 1e-14


def test_no_objectives_give_empty_results():
    assert cooling._solve_choi_sdps([], 500) == []
    bounds, totals, gap, channel = cooling._min_local_channel({}, np.zeros((3, 3)))
    assert bounds == () and totals == (0.0, 0.0, 0.0) and gap == 0.0
    assert channel.kraus_sets == {}


def test_four_restarts_solve_eight_rows_like_the_per_row_loop(measured_chain, monkeypatch):
    spec, res, _, _, _ = measured_chain
    setup = MeasurementSetup.cardinal("y", "x")
    batches = []
    barrier_path = cooling._barrier_path

    def recording(grams, y, max_evals):
        batches.append(len(grams))
        return barrier_path(grams, y, max_evals)

    monkeypatch.setattr(cooling, "_barrier_path", recording)
    cool = minimize_residual(spec, setup, restarts=4, seed=0, ground=res)
    assert batches == [8]
    # the per-row loop: every outcome from each start, totalled per start
    rng = np.random.default_rng(0)
    starts = spec.coupling * np.vstack([np.zeros(3), rng.standard_normal((3, 3))])
    objectives = y_objectives(spec, res)
    totals = [sum(solve_choi_sdp(objective, t, 500)[0] for objective in objectives.values())
              for t in starts]
    assert len(cool.per_restart) == 4
    assert max(abs(a - b) for a, b in zip(cool.per_restart, totals)) <= 1e-13 * spec.coupling


@pytest.mark.parametrize("factor", [1e150, 1e-150])
def test_the_dual_is_scale_free(measured_chain, factor):
    # the y|x Grams scaled by 1e+-150 give the unit-scale bounds, energies and gap, scaled
    spec, res, _, _, _ = measured_chain
    objectives = y_objectives(spec, res)
    scaled = {mu: cooling.OutcomeObjective(factor * obj.gram) for mu, obj in objectives.items()}
    bounds, _, gap, channel = cooling._min_local_channel(objectives)
    bounds_s, _, gap_s, channel_s = cooling._min_local_channel(scaled)
    for (mu, objective), bound, bound_s in zip(objectives.items(), bounds, bounds_s):
        assert np.isclose(bound_s / factor, bound, rtol=1e-14, atol=0.0)
        energy = gram_energy(objective, channel.kraus_sets[mu])
        energy_s = gram_energy(scaled[mu], channel_s.kraus_sets[mu]) / factor
        assert np.isclose(energy_s, energy, rtol=1e-14, atol=0.0)
    assert abs(gap_s / factor - gap) <= 1e-14 * sum(bounds)
