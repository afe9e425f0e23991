"""Measurement, feedback, energy bookkeeping, and the axis sweep."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import basis_state
from oracles import (
    Branch,
    MixedEnsemble,
    apply_feedback,
    distance,
    eq9_energy,
    expectation,
    measure,
    projectors,
    state_offsets,
)

from qetsim import chain, cooling, eigensolver, protocol
from qetsim.chain import build_energy_density, build_hamiltonian
from qetsim.pauli import HermitianOperator, axis_operator, single_site
from qetsim.protocol import (
    MeasurementSetup,
    axis_sweep,
    closed_form_applies,
    correlation_tensors,
    optimal_theta,
    run_protocol,
    teleported_energy,
)

XYZ = "xyz"


def sigma(axis_label, site, n_sites):
    return axis_operator(protocol.AXES[axis_label], site, n_sites)


def test_projectors_resolve_identity_and_square():
    rng = np.random.default_rng(0)
    p0, p1 = projectors((0.6, 0.0, 0.8), 2, 5)
    for _ in range(5):
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.max(np.abs(p0.apply(v) + p1.apply(v) - v)) < 1e-12
        assert np.max(np.abs(p0.apply(p0.apply(v)) - p0.apply(v))) < 1e-12
        assert np.max(np.abs(p0.apply(p1.apply(v)))) < 1e-12


def test_projectors_spectral_decomposition():
    rng = np.random.default_rng(1)
    axis = np.array([1.0, 2.0, -2.0]) / 3.0
    p0, p1 = projectors(tuple(axis), 1, 4)
    from qetsim.pauli import axis_operator
    sig = axis_operator(tuple(axis), 1, 4)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert np.max(np.abs(p0.apply(v) - p1.apply(v) - sig.apply(v))) < 1e-12


def test_projectors_z_axis_diagonal():
    p0, _ = projectors((0, 0, 1), 0, 3)
    v = basis_state(3, 0)       # bit 0 clear: sz = +1
    assert np.max(np.abs(p0.apply(v) - v)) < 1e-14
    w = basis_state(3, 1)       # bit 0 set: sz = -1
    assert np.max(np.abs(p0.apply(w))) < 1e-14


def test_projectors_reject_zero_axis():
    with pytest.raises(ValueError, match="zero"):
        projectors((0.0, 0.0, 0.0), 0, 3)


def test_measure_deposits_positive_energy(chains):
    spec, res = chains(10)
    h = build_hamiltonian(spec)
    for label in ("x", "y", "z"):
        p0, p1 = projectors(protocol.AXES[label], spec.site_a, 10)
        ensemble, e_a = measure(res.state, p0, p1, h)
        assert e_a > 0.01
        assert sum(b.weight for b in ensemble.branches) == pytest.approx(1.0, abs=1e-12)


def test_measure_commuting_axis_costs_nothing():
    # field-only Hamiltonian: measuring sz on its product ground state is free
    n = 6
    h = HermitianOperator.from_strings(n, [single_site(n, k, "Z", -1.0) for k in range(n)])
    ground = basis_state(n, 0)
    p0, p1 = projectors((0, 0, 1), 2, n)
    ensemble, e_a = measure(ground, p0, p1, h)
    # the deposited energy is e_a relative to the pre-measurement energy <H> = -n
    assert e_a - expectation(h, ground) == pytest.approx(0.0, abs=1e-12)
    weights = sorted(b.weight for b in ensemble.branches)
    assert weights == pytest.approx([0.0, 1.0], abs=1e-14)


def test_measured_energy_equals_density_profile_sum(chains):
    spec, res = chains(8)
    h = build_hamiltonian(spec)
    p0, p1 = projectors(protocol.AXES["y"], spec.site_a, 8)
    ensemble, e_a = measure(res.state, p0, p1, h)
    profile = 0.0
    for n in range(8):
        t_n = build_energy_density(spec, n)
        profile += sum(b.weight * expectation(t_n, b.state)
                       for b in ensemble.branches if b.weight > 0.0)
    assert profile == pytest.approx(e_a, abs=1e-10)


def test_xi_nonnegative_everywhere(chains):
    # xi(b) = b . Xi b >= 0 on every axis b, so Xi is positive semidefinite
    spec, res = chains(8)
    xi_mat, _ = correlation_tensors(spec, res.state)
    for q in range(3):
        assert xi_mat[q, q] >= -1e-12
    assert np.linalg.eigvalsh(xi_mat).min() >= -1e-12


def test_eta_vanishes_for_product_ground_state():
    # the chain's own H with its offsets calibrated on the all-up product state:
    # N[p,q] factorizes into <sigma^p_A> <[H, sigma^q_B]>, and one factor vanishes
    n = 6
    ground = basis_state(n, 0)
    spec = chain.ChainSpec(n, site_b=3)
    spec = spec.with_epsilon(state_offsets(spec, ground))
    _, eta_mat = correlation_tensors(spec, ground)
    assert np.max(np.abs(eta_mat)) < 1e-12


def test_axis_sweep_breaks_a_tie_toward_the_first_pair():
    # on the product state of the test above every pair teleports nothing, so
    # all nine tie and the sweep keeps the first in x, y, z order: x|x
    n = 6
    ground = basis_state(n, 0)
    spec = chain.ChainSpec(n, site_b=3)
    spec = spec.with_epsilon(state_offsets(spec, ground))
    assert set(cardinal_energies(spec, ground).values()) == {0.0}
    assert axis_sweep(spec, ground=ground) == MeasurementSetup.cardinal("x", "x")


def test_eta_matches_finite_difference_of_protocol_energy(chains):
    # d Tr[rho H] / d theta at theta = 0 equals eta
    spec, res = chains(10)
    spec = spec.with_sites(0, 3)
    setup = MeasurementSetup.cardinal("y", "x")
    h = 1e-4
    plus = run_protocol(spec, setup, theta=+h, ground=res)
    minus = run_protocol(spec, setup, theta=-h, ground=res)
    derivative = (plus.trace_energy - minus.trace_energy) / (2.0 * h)
    assert derivative == pytest.approx(plus.eta, abs=1e-6)


def test_optimal_theta_quoted_arithmetic():
    theta = optimal_theta(3.0, 4.0)
    assert math.cos(2 * theta) == pytest.approx(3.0 / 5.0, abs=1e-14)
    assert math.sin(2 * theta) == pytest.approx(-4.0 / 5.0, abs=1e-14)
    assert -math.pi / 2 < theta <= math.pi / 2
    assert optimal_theta(1.0, 0.0) == 0.0


def test_optimal_theta_is_scale_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert optimal_theta(3e-20, 4e-20) == optimal_theta(3.0, 4.0)


def test_optimal_theta_of_a_vanishing_pair_is_plus_zero_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi in (0.0, -0.0):
            for eta in (0.0, -0.0):
                theta = optimal_theta(xi, eta)
                assert theta == 0.0 and math.copysign(1.0, theta) == 1.0


def test_theta_star_minimizes_closed_form():
    xi, eta = 1.3, -0.4
    theta_star = optimal_theta(xi, eta)
    best = eq9_energy(2.0, xi, eta, theta_star)
    for theta in np.linspace(-math.pi / 2, math.pi / 2, 1000):
        assert best <= eq9_energy(2.0, xi, eta, float(theta)) + 1e-12
    assert 2.0 - best == pytest.approx(teleported_energy(xi, eta), abs=1e-12)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("xi, eta", [(1.0, 1.0), (1.3, -0.4), (0.0, 2.0), (2.0, 1e-3)])
def test_teleported_energy_is_scale_free(scale, xi, eta):
    # E_B is homogeneous of degree 1, so no intermediate may overflow or underflow
    assert teleported_energy(scale * xi, scale * eta) / scale == pytest.approx(
        teleported_energy(xi, eta), rel=1e-14)


def test_feedback_identity_at_zero_angle(chains):
    spec, res = chains(8)
    h = build_hamiltonian(spec)
    p0, p1 = projectors(protocol.AXES["y"], spec.site_a, 8)
    ensemble, e_a = measure(res.state, p0, p1, h)
    same = apply_feedback(ensemble, sigma("x", spec.site_b, 8), 0.0)
    for before, after in zip(ensemble.branches, same.branches):
        assert np.max(np.abs(before.state - after.state)) < 1e-14
    assert same.energy(h) == pytest.approx(e_a, abs=1e-10)


def test_feedback_half_pi_applies_sigma(chains):
    spec, res = chains(8)
    h = build_hamiltonian(spec)
    sig_b = sigma("x", spec.site_b, 8)
    p0, p1 = projectors(protocol.AXES["y"], spec.site_a, 8)
    ensemble, _ = measure(res.state, p0, p1, h)
    rotated = apply_feedback(ensemble, sig_b, math.pi / 2)
    for before, after in zip(ensemble.branches, rotated.branches):
        expected = 1j * (-1.0) ** before.outcome * sig_b.apply(before.state)
        assert np.max(np.abs(after.state - expected)) < 1e-12
        assert np.linalg.norm(after.state) == pytest.approx(1.0, abs=1e-12)


def test_feedback_preserves_norms_at_any_angle(chains):
    spec, res = chains(8)
    h = build_hamiltonian(spec)
    p0, p1 = projectors(protocol.AXES["y"], spec.site_a, 8)
    ensemble, _ = measure(res.state, p0, p1, h)
    for theta in (0.3, -1.1, 2.4):
        rotated = apply_feedback(ensemble, sigma("x", spec.site_b, 8), theta)
        for b in rotated.branches:
            assert np.linalg.norm(b.state) == pytest.approx(1.0, abs=1e-12)


def test_simulation_matches_closed_form_over_theta_grid(chains):
    # separated parties, so the identity is exact for every axis pair
    spec, res = chains(8)
    spec = spec.with_sites(0, 3)
    h = build_hamiltonian(spec)
    xi_mat, eta_mat = correlation_tensors(spec, res.state)
    for a in ("x", "y"):
        for b in ("x", "y"):
            p0, p1 = projectors(protocol.AXES[a], 0, 8)
            ensemble, e_a = measure(res.state, p0, p1, h)
            xi, eta = xi_mat[XYZ.index(b), XYZ.index(b)], eta_mat[XYZ.index(a), XYZ.index(b)]
            for theta in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
                rotated = apply_feedback(ensemble, sigma(b, 3, 8), float(theta))
                simulated = rotated.energy(h)
                assert simulated == pytest.approx(
                    eq9_energy(e_a, xi, eta, float(theta)), abs=1e-10)


def test_run_protocol_teleports_positive_energy(chains):
    spec, res = chains(10)
    result = run_protocol(spec, MeasurementSetup.cardinal("y", "x"), ground=res)
    assert result.teleportable
    assert result.e_b > 1e-3
    assert result.e_a >= result.e_b
    assert result.e_b == pytest.approx(
        teleported_energy(result.xi, result.eta), abs=1e-10)


def test_run_protocol_profiles_are_consistent(chains):
    spec, res = chains(10)
    result = run_protocol(spec, MeasurementSetup.cardinal("y", "x"), ground=res)
    assert abs(sum(result.profiles["ground"])) < 1e-12
    assert sum(result.profiles["post_measurement"]) == pytest.approx(result.e_a, abs=1e-10)
    assert sum(result.profiles["post_feedback"]) == pytest.approx(
        result.e_a - result.e_b, abs=1e-10)


def test_measurement_respects_causality(chains):
    # sites at circular distance >= 2 from the sender keep exactly zero density
    spec, res = chains(12)
    spec = spec.with_sites(0, 6)
    result = run_protocol(spec, MeasurementSetup.cardinal("y", "x"), ground=res)
    post = result.profiles["post_measurement"]
    for n in range(12):
        if distance(spec, n, 0) >= 2:
            assert abs(post[n]) < 1e-12


def test_feedback_is_local_to_receiver(chains):
    spec, res = chains(12)
    spec = spec.with_sites(0, 6)
    result = run_protocol(spec, MeasurementSetup.cardinal("y", "x"), ground=res)
    before = result.profiles["post_measurement"]
    after = result.profiles["post_feedback"]
    moved = 0.0
    for n in range(12):
        if distance(spec, n, 6) > 1:
            assert abs(after[n] - before[n]) < 1e-12
        else:
            moved += after[n] - before[n]
    # the receiver's neighborhood absorbs exactly -E_B
    assert moved == pytest.approx(-result.e_b, abs=1e-10)


def test_run_protocol_theta_override():
    spec, res = chain.calibrated_chain(8)
    result = run_protocol(spec, MeasurementSetup.cardinal("y", "x"), theta=0.0, ground=res)
    assert result.trace_energy == pytest.approx(result.e_a, abs=1e-12)
    assert result.e_b == pytest.approx(0.0, abs=1e-12)
    assert result.theta_used == 0.0
    assert result.theta_star != 0.0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            run_protocol(spec, MeasurementSetup.cardinal("y", "x"), theta=bad, ground=res)


def test_run_protocol_requires_calibration():
    spec = chain.ChainSpec(8)       # offsets left at zero
    res = eigensolver.ground_state(spec)
    with pytest.raises(ValueError, match="calibrated"):
        run_protocol(spec, MeasurementSetup(), ground=res)


def test_adjacent_incompatible_axes_fall_back_with_warning(chains):
    # adjacent parties with tilted axes: sigma_A fails to commute with
    # sigma_B [H, sigma_B], so the closed form picks up contact corrections
    spec, res = chains(8)
    s = 1.0 / math.sqrt(2.0)
    setup = MeasurementSetup((0.0, s, s), (s, s, 0.0))
    with pytest.warns(UserWarning, match="closed-form"):
        result = run_protocol(spec, setup, ground=res)
    assert result.e_a >= result.e_b - 1e-12


def cardinal_energies(spec, ground) -> dict[str, float]:
    """E_B of each of the nine cardinal pairs `a|b`, from the correlation tensors."""
    xi_mat, eta_mat = correlation_tensors(spec, ground)
    return {f"{a}|{b}": teleported_energy(max(float(xi_mat[q, q]), 0.0), float(eta_mat[p, q]))
            for p, a in enumerate(XYZ) for q, b in enumerate(XYZ)}


def test_axis_sweep_cardinal_table(chains):
    spec, res = chains(10)
    _, eta_mat = correlation_tensors(spec, res)
    e_b = cardinal_energies(spec, res)
    # eta = 0 forces e_b = 0
    for label in ("x|x", "z|x", "x|z", "z|z", "y|y", "z|y", "y|z"):
        p, q = (XYZ.index(c) for c in label.split("|"))
        assert abs(eta_mat[p, q]) < 1e-10
        assert e_b[label] == pytest.approx(0.0, abs=1e-12)
    assert e_b["y|x"] == max(e_b.values()) > e_b["x|x"]
    assert axis_sweep(spec, ground=res) == MeasurementSetup.cardinal("y", "x")


def test_axis_sweep_agrees_with_direct_xi_eta(chains):
    # direct state-vector evaluation of xi = <sigma_B H sigma_B> and
    # eta = Re i <sigma_A [H, sigma_B]>, at the swept y|x pair and at tilted
    # axes, where the tensors enter only through their bilinear forms
    spec, res = chains(10)
    h = build_hamiltonian(spec)
    g = res.state
    xi_mat, eta_mat = correlation_tensors(spec, g)

    def direct(axis_a, axis_b):
        sig_a = axis_operator(axis_a, spec.site_a, 10)
        sig_b = axis_operator(axis_b, spec.site_b, 10)
        bv, av = sig_b.apply(g), sig_a.apply(g)
        xi = np.vdot(bv, h.apply(bv)).real
        eta = (1j * (np.vdot(av, h.apply(bv)) - np.vdot(av, sig_b.apply(h.apply(g))))).real
        return xi, eta

    x, y = XYZ.index("x"), XYZ.index("y")
    xi, eta = direct(protocol.AXES["y"], protocol.AXES["x"])
    assert xi_mat[x, x] == pytest.approx(xi, abs=1e-10)
    assert eta_mat[y, x] == pytest.approx(eta, abs=1e-10)
    a_vec = np.array([1.0, 2.0, -2.0]) / 3.0
    b_vec = np.array([0.6, 0.0, 0.8])
    xi, eta = direct(tuple(a_vec), tuple(b_vec))
    assert b_vec @ xi_mat @ b_vec == pytest.approx(xi, abs=1e-10)
    assert a_vec @ eta_mat @ b_vec == pytest.approx(eta, abs=1e-10)


SELECTION_CASES = ([("periodic", n_sites, 0, n) for n_sites in (8, 10) for n in (1, 2, 3)]
                   + [("open", n_sites, a, b) for n_sites in (8, 10)
                      for a, b in ((0, 1), (0, 2), (0, 3), (2, 3), (2, 5))])


@pytest.mark.parametrize("boundary,n_sites,site_a,site_b", SELECTION_CASES)
def test_parity_and_reality_selection_rules(chains, boundary, n_sites, site_a, site_b):
    # H is real and commutes with prod sz, so the ground state is real and has
    # definite parity: Xi is diagonal and N[y,x] = -N[x,y] is all of N
    spec, res = chains(n_sites, boundary)
    spec = spec.with_sites(site_a, site_b)
    j = spec.coupling
    xi_mat, eta_mat = correlation_tensors(spec, res.state)
    x, y = XYZ.index("x"), XYZ.index("y")
    assert np.max(np.abs(xi_mat - np.diag(np.diag(xi_mat)))) <= 1e-12 * j
    others = eta_mat.copy()
    others[y, x] = others[x, y] = 0.0
    assert np.max(np.abs(others)) <= 1e-12 * j
    assert abs(eta_mat[y, x] + eta_mat[x, y]) <= 1e-12 * j
    assert xi_mat[x, x] == min(np.diag(xi_mat))
    # so cardinal y|x is optimal over both spheres: for any feedback axis b
    # the best sender axis lies along N b, and none of those beats y|x
    cardinal = teleported_energy(xi_mat[x, x], eta_mat[y, x])
    rng = np.random.default_rng(n_sites * 100 + site_a * 10 + site_b)
    for _ in range(200):
        b_vec = rng.standard_normal(3)
        b_vec /= np.linalg.norm(b_vec)
        eta = float(np.linalg.norm(eta_mat @ b_vec))
        assert teleported_energy(max(float(b_vec @ xi_mat @ b_vec), 0.0), eta) <= cardinal


def test_check_calibration_rejects_uncalibrated_and_nan_states(chains):
    spec, res = chains(8)
    protocol.check_calibration(spec, res.state)
    for bad_spec, state in ((spec.with_epsilon((0.0,) * 8), res.state),
                            (spec, np.full_like(res.state, np.nan))):
        with pytest.raises(ValueError, match="not calibrated"):
            protocol.check_calibration(bad_spec, state)


EDGE_CASES = [(n_sites, a, b) for n_sites in (8, 10)
              for a, b in ((1, 0), (3, 0), (n_sites - 2, n_sites - 1))]


@pytest.mark.parametrize("n_sites,site_a,site_b", EDGE_CASES)
def test_selection_rules_with_the_receiver_at_an_open_edge(chains, n_sites, site_a, site_b):
    # parity and reality still fix Xi and N, but at an edge receiver Xi[z,z]
    # undercuts Xi[x,x]; y|x stays optimal because Xi[x,x] <= Xi[y,y] and
    # Xi[z,z] > 0, and sampled feedback axes, each with its best sender axis
    # along N b, still lose to it
    spec, res = chains(n_sites, "open")
    spec = spec.with_sites(site_a, site_b)
    j = spec.coupling
    xi_mat, eta_mat = correlation_tensors(spec, res.state)
    x, y = XYZ.index("x"), XYZ.index("y")
    assert np.max(np.abs(xi_mat - np.diag(np.diag(xi_mat)))) <= 1e-12 * j
    others = eta_mat.copy()
    others[y, x] = others[x, y] = 0.0
    assert np.max(np.abs(others)) <= 1e-12 * j
    assert abs(eta_mat[y, x] + eta_mat[x, y]) <= 1e-12 * j
    z = XYZ.index("z")
    assert xi_mat[z, z] < xi_mat[x, x] <= xi_mat[y, y]
    assert xi_mat[z, z] > 0.0
    cardinal = teleported_energy(xi_mat[x, x], eta_mat[y, x])
    rng = np.random.default_rng(n_sites * 100 + site_a * 10 + site_b)
    for _ in range(2000):
        b_vec = rng.standard_normal(3)
        b_vec /= np.linalg.norm(b_vec)
        eta = float(np.linalg.norm(eta_mat @ b_vec))
        assert teleported_energy(max(float(b_vec @ xi_mat @ b_vec), 0.0), eta) <= cardinal


def test_prepared_ground_memoizes_per_sites_and_rejects_another_chain(chains, monkeypatch):
    spec, res = chains(8)
    prepared = protocol.PreparedGround(spec, res.state)
    far = spec.with_sites(0, 3)
    assert prepared.tensors(0, 3) is prepared.tensors(0, 3) is correlation_tensors(far, prepared)
    assert prepared.tensors(0, 3) is not prepared.tensors(0, 1)
    y_axis = MeasurementSetup.cardinal("y", "x").axis_a
    assert prepared.measurement(0, y_axis) is prepared.measurement(0, list(y_axis))
    assert prepared.measurement(2, y_axis) is not prepared.measurement(0, y_axis)
    # one rho_S per site set, in whatever order it is named, shared by every reader
    rho = prepared.reduced((4, 0, 2, 3))
    assert rho is prepared.reduced([0, 2, 3, 4]) and rho.shape == (16, 16)
    assert rho is not prepared.reduced((0, 2, 3))
    run_protocol(far, MeasurementSetup.cardinal("y", "x"), ground=prepared)
    assert prepared.reduced((0, 2, 3, 4)) is rho
    for shared in (*prepared.tensors(0, 3), rho):
        with pytest.raises(ValueError):
            shared[0] = 1.0
    with pytest.raises(ValueError, match="exceed"):
        prepared.reduced(range(7))
    eps = np.asarray(spec.epsilon)
    others = (dataclasses.replace(spec, coupling=2.0), dataclasses.replace(spec, boundary="open"),
              spec.with_epsilon(eps + 1e-3), chains(10)[0])
    uses = (lambda s: run_protocol(s, MeasurementSetup(), ground=prepared),
            lambda s: correlation_tensors(s, prepared), lambda s: axis_sweep(s, prepared),
            lambda s: cooling.minimize_residual(s, MeasurementSetup(), ground=prepared))
    for other in others:
        for use in uses:
            with pytest.raises(ValueError, match="different chain"):
                use(other)
    # each call compares its spec's chain with the prepared one once, two `_chain_of` reads
    chain_of, reads = protocol._chain_of, []
    monkeypatch.setattr(protocol, "_chain_of", lambda s: reads.append(s) or chain_of(s))
    for use in uses:
        reads.clear()
        use(spec.with_sites(2, 5))
        assert len(reads) == 2


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_closed_form_predicate_matches_dense_commutator(boundary):
    # the exact Pauli-algebra test against [sigma_A, [H, sigma_B]] as 64x64 matrices
    n = 6
    rng = np.random.default_rng(17)
    cardinal = [protocol.AXES[label] for label in XYZ]
    for site_a in range(n):
        for site_b in range(n):
            if site_a == site_b:
                continue
            spec = chain.ChainSpec(n, boundary=boundary, site_a=site_a, site_b=site_b,
                                   epsilon=tuple(rng.standard_normal(n)))
            h = build_hamiltonian(spec)
            h_dense = h.dense()
            tilted = [tuple(v / np.linalg.norm(v)) for v in rng.integers(-1, 2, (4, 3))
                      if v.any()]
            for axis_a, axis_b in zip(cardinal + tilted, cardinal[::-1] + tilted[::-1]):
                sig_a = axis_operator(axis_a, site_a, n)
                sig_b = axis_operator(axis_b, site_b, n)
                bracket = h_dense @ sig_b.dense() - sig_b.dense() @ h_dense
                nested = sig_a.dense() @ bracket - bracket @ sig_a.dense()
                assert closed_form_applies(sig_a, sig_b, h) == (np.linalg.norm(nested) < 1e-10)


def test_sweep_best_energy_is_attained_by_simulation(chains):
    spec, res = chains(10)
    result = run_protocol(spec, axis_sweep(spec, ground=res), ground=res)
    assert result.e_b == pytest.approx(max(cardinal_energies(spec, res).values()), abs=1e-10)


def test_measurement_setup_validation():
    with pytest.raises(ValueError, match="unit"):
        MeasurementSetup((1.0, 1.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="3-vector"):
        MeasurementSetup((1.0, 0.0), (1.0, 0.0, 0.0))
    for bad in ((math.nan, 0.0, 0.0), (math.inf, 1.0, 0.0), (math.nan, math.nan, math.nan)):
        with pytest.raises(ValueError, match="unit"):
            MeasurementSetup(bad, (1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="unit"):
            MeasurementSetup((1.0, 0.0, 0.0), bad)


def test_mixed_ensemble_validation():
    state = basis_state(2, 0)
    with pytest.raises(ValueError, match="sum"):
        MixedEnsemble((Branch(0.5, state, 0),))
    with pytest.raises(ValueError, match="normalized"):
        MixedEnsemble((Branch(1.0, 2.0 * state, 0),))
