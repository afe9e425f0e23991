"""Chain construction, calibration, local spectra, and the entanglement witness."""

import math
import warnings

import numpy as np
import oracles
import pytest
from conftest import basis_state
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    correlation_check,
    density_eigenbasis_weights,
    distance,
    even_parity_indices,
    even_parity_sector,
    expectation,
    one_norm,
    operator_densities,
    state_offsets,
)

from qetsim import chain, eigensolver
from qetsim.chain import (
    ChainSpec,
    build_energy_density,
    build_hamiltonian,
    calibrate_epsilon,
    calibrated_chain,
    energy_densities,
    local_density_spectrum,
)
from qetsim.pauli import HermitianOperator, PauliString, from_sites, single_site


def term_map(op):
    return {t.letters: t.coefficient for t in op.terms}


def test_interior_density_has_three_strings():
    spec = ChainSpec(6, coupling=1.0)
    t2 = build_energy_density(spec, 2)
    terms = term_map(t2)
    assert terms == pytest.approx({
        "IIZIII": -1.0,     # -J sz_2
        "IIXXII": -0.5,     # -(J/2) sx_2 sx_3
        "IXXIII": -0.5,     # -(J/2) sx_1 sx_2
    })


def test_density_scales_linearly_with_coupling():
    weak = term_map(build_energy_density(ChainSpec(5, coupling=1e-12), 2))
    strong = term_map(build_energy_density(ChainSpec(5, coupling=2.0), 2))
    assert set(weak) == set(strong)
    for letters, coeff in strong.items():
        assert weak[letters] == pytest.approx(coeff * 5e-13)
    # switching the coupling off kills the operator (offsets are zero here)
    assert one_norm(build_energy_density(ChainSpec(5, coupling=1e-12), 2)) < 3e-12


def test_open_chain_edge_drops_missing_neighbor():
    spec = ChainSpec(5, boundary="open")
    t0 = build_energy_density(spec, 0)
    assert term_map(t0) == pytest.approx({"ZIIII": -1.0, "XXIII": -0.5})
    t4 = build_energy_density(spec, 4)
    assert term_map(t4) == pytest.approx({"IIIIZ": -1.0, "IIIXX": -0.5})


def test_offset_enters_as_identity_term():
    spec = ChainSpec(4, epsilon=(0.25, 0.0, 0.0, 0.0))
    t0 = build_energy_density(spec, 0)
    assert term_map(t0)["IIII"] == pytest.approx(-0.25)


def test_out_of_range_site_rejected():
    spec = ChainSpec(4)
    with pytest.raises(ValueError, match="range"):
        build_energy_density(spec, 4)


def test_hamiltonian_equals_density_sum():
    spec = ChainSpec(6)
    total = sum(build_energy_density(spec, n).dense() for n in range(6))
    assert np.max(np.abs(build_hamiltonian(spec).dense() - total)) < 1e-13


def test_hamiltonian_n3_hand_expansion():
    # each bond assembles from two half-strength contributions
    spec = ChainSpec(3)
    assert term_map(build_hamiltonian(spec)) == pytest.approx({
        "ZII": -1.0, "IZI": -1.0, "IIZ": -1.0,
        "XXI": -1.0, "IXX": -1.0, "XIX": -1.0,
    })


def test_calibration_zeroes_every_density(chains):
    spec, res = chains(10)
    for n in range(spec.n_sites):
        assert abs(expectation(build_energy_density(spec, n), res.state)) < 1e-10


def test_calibration_uniform_on_periodic_chain(chains):
    spec, _ = chains(10)
    eps = np.array(spec.epsilon)
    assert np.max(np.abs(eps - eps[0])) < 1e-10


@pytest.mark.parametrize("n_sites", range(3, 21))
def test_periodic_offsets_are_exactly_equal(n_sites):
    # one offset, the mean of densities that differ only by rounding, so every
    # T_n has the same pattern; each <T_n>, read from T and from the state,
    # stays at rounding and the offsets still sum to E0 = -2J / sin(pi/2N),
    # each within a few ulp of E0 / N
    spec, res = calibrated_chain(n_sites)
    assert len(set(spec.epsilon)) == 1
    expected = -2.0 / (n_sites * math.sin(math.pi / (2 * n_sites)))
    assert abs(spec.epsilon[0] - expected) <= 8 * np.spacing(abs(expected))
    assert np.max(np.abs(energy_densities(spec, res.covariance))) < 1e-13
    assert np.max(np.abs(operator_densities(spec, res.state))) < 1e-13
    assert math.fsum(spec.epsilon) == pytest.approx(-2.0 / math.sin(math.pi / (2 * n_sites)),
                                                    abs=1e-13 * n_sites)


def test_calibrated_ground_energy_vanishes(chains):
    for n_sites in (8, 10):
        spec, res = chains(n_sites)
        assert abs(res.energy) < 1e-9
        assert abs(expectation(build_hamiltonian(spec), res.state)) < 1e-12


def test_degeneracy_flag_is_relative_to_the_coupling():
    # the even-sector gap at N = 8 is ~1.56 J, far from degenerate at any J
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, res = calibrated_chain(8, coupling=1e-13)
    assert res.degenerate is False


def test_epsilon_extrapolates_to_thermodynamic_value(chains):
    # per-site offset tends to -4/pi (the spec sheet quotes the magnitude 4/pi);
    # periodic-chain corrections scale as 1/N^2, so Richardson-extrapolate
    values = {n: chains(n)[0].epsilon[0] for n in (8, 10, 12)}
    n1, n2 = 8, 12
    extrapolated = (n2 ** 2 * values[n2] - n1 ** 2 * values[n1]) / (n2 ** 2 - n1 ** 2)
    target = -4.0 / math.pi
    assert abs(extrapolated - target) < 5e-4
    assert abs(values[12] - target) < abs(values[8] - target)


def test_open_chain_offsets_vary_near_edges():
    spec, res = calibrated_chain(8, boundary="open")
    eps = np.array(spec.epsilon)
    assert abs(eps[0] - eps[4]) > 1e-3
    for n in range(8):
        assert abs(expectation(build_energy_density(spec, n), res.state)) < 1e-10


@pytest.mark.parametrize("n_sites", range(3, 9))
@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
@pytest.mark.parametrize("coupling", (1.0, 0.37))
def test_even_parity_sector_is_the_dense_restriction(n_sites, boundary, coupling):
    spec, _ = calibrated_chain(n_sites, coupling, boundary)
    assert max(abs(e) for e in spec.epsilon) > 0.1 * coupling
    full = build_hamiltonian(spec).dense()
    even = even_parity_indices(n_sites)
    sector = even_parity_sector(build_hamiltonian(spec))
    assert sector.n_sites == n_sites - 1
    assert np.max(np.abs(sector.dense() - full[np.ix_(even, even)])) < 1e-13 * coupling


def test_even_parity_sector_keeps_the_phase_of_y_letters():
    # a Y on the last site toggles Z elsewhere (X -> Y, Y -> X with phases); each
    # string has an even number of X/Y letters, so the sum keeps parity
    op = HermitianOperator.from_strings(4, [
        PauliString(0.7, "XIIY"), PauliString(-1.3, "YZIY"), PauliString(0.4, "ZYXZ"),
        PauliString(0.9, "YYZI"), PauliString(-0.2, "IZZZ"),
    ])
    even = even_parity_indices(4)
    restricted = op.dense()[np.ix_(even, even)]
    assert np.max(np.abs(even_parity_sector(op).dense() - restricted)) < 1e-15


def test_even_parity_sector_rejects_a_parity_odd_string():
    op = HermitianOperator.from_strings(4, [single_site(4, 0, "X"),
                                            from_sites(4, 1.0, {1: "X", 2: "X"})])
    with pytest.raises(ValueError, match="parity"):
        even_parity_sector(op)


@pytest.mark.parametrize("n_sites", range(4, 11))
@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
def test_calibrated_chain_matches_the_full_space_solve(n_sites, boundary):
    spec, res = calibrated_chain(n_sites, boundary=boundary)
    j = spec.coupling
    full = build_hamiltonian(spec).dense()
    vals, vecs = np.linalg.eigh(full)
    assert abs(np.vdot(vecs[:, 0], res.state)) >= 1.0 - 1e-12
    odd = np.bitwise_count(np.arange(1 << n_sites)) % 2 == 1
    assert np.all(res.state[odd] == 0.0)
    residual = np.linalg.norm(full @ res.state - res.energy * res.state)
    assert abs(res.residual - residual) < 1e-13 * j
    # the odd sector stays gapped above E0, which `degenerate` relies on when it
    # reads only the second even level
    assert np.linalg.eigvalsh(full[np.ix_(odd, odd)])[0] - vals[0] >= 0.1 * j


@pytest.mark.parametrize("n_sites", range(3, 13))
@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
def test_solve_ground_is_scale_free_in_the_coupling(n_sites, boundary):
    # the ground state is built at J = 1: every coupling gets the same state and
    # one H application, and the energy and residual scale with J
    unit = eigensolver.ground_state(ChainSpec(n_sites, 1.0, boundary))
    for coupling in (1e-13, 1e-7, 1e6):
        res = eigensolver.ground_state(ChainSpec(n_sites, coupling, boundary))
        assert np.array_equal(res.state, unit.state)
        assert res.residual == pytest.approx(coupling * unit.residual, rel=1e-12)
        assert res.residual < 1e-10 * coupling
        assert res.energy == pytest.approx(coupling * unit.energy, rel=1e-12)
        assert res.iterations == unit.iterations == 1


def test_solve_ground_energy_includes_the_offsets():
    # H carries -eps_n per site, and the exact E0 is of the bare chain, so the
    # reported energy subtracts the offsets' sum
    spec = ChainSpec(8, 2.5, "open", epsilon=tuple(0.25 * n for n in range(8)))
    res = eigensolver.ground_state(spec)
    assert res.energy == pytest.approx(expectation(build_hamiltonian(spec), res.state), rel=1e-12)


def test_failed_residual_check_reports_the_residual_in_units_of_the_coupling(monkeypatch):
    # a state that misses H g = E0 g by more than the bound raises, and the
    # message quotes the residual and the bound in units of J
    unit = eigensolver.ground_state(ChainSpec(10)).residual
    monkeypatch.setattr(eigensolver, "RESIDUAL_BOUND", 1e-30)
    with pytest.raises(RuntimeError, match="misses H g = E0 g") as excinfo:
        eigensolver.ground_state(ChainSpec(10, 1e6))
    assert f"by {1e6 * unit:.3e} (bound 1.0e-24)" in str(excinfo.value)


def random_state(n_sites, rng, complex_):
    vec = rng.standard_normal(1 << n_sites)
    if complex_:
        vec = vec + 1j * rng.standard_normal(1 << n_sites)
    return vec / np.linalg.norm(vec)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 10), st.sampled_from(chain.BOUNDARIES), st.floats(0.1, 10.0), st.data())
def test_calibration_invariants(n_sites, boundary, coupling, data):
    # the T_n operators are the independent oracle: each has zero ground-state
    # expectation, and the offsets add up to the bare chain's ground energy
    site_a = data.draw(st.integers(0, n_sites - 1))
    site_b = data.draw(st.integers(0, n_sites - 1).filter(lambda b: b != site_a))
    spec, res = calibrated_chain(n_sites, coupling, boundary, site_a, site_b)
    assert np.max(np.abs(operator_densities(spec, res.state))) < 1e-10 * coupling
    bare = spec.with_epsilon((0.0,) * n_sites)
    e_0 = np.linalg.eigvalsh(build_hamiltonian(bare).dense())[0]
    assert math.fsum(spec.epsilon) == pytest.approx(e_0, abs=1e-10 * coupling)


def test_calibrate_epsilon_requires_normalized_state():
    # a normalized pure state's covariance is orthogonal
    spec = ChainSpec(4)
    for covariance in (np.ones((4, 4)), 1.01 * np.eye(4), np.eye(5)):
        with pytest.raises(ValueError, match="normalized"):
            calibrate_epsilon(spec, covariance)
    with pytest.raises(ValueError, match="normalized"):
        state_offsets(spec, np.ones(16))


@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
def test_covariance_offsets_match_the_offsets_read_from_the_state(boundary):
    # calibrated_chain reads <sz_n> and <sx_n sx_n+1> from the N x N covariance;
    # the oracle reads them from the 2^N amplitudes
    for n_sites in range(3, 15):
        for coupling in (1.0, 1e-7, 1e6):
            spec, res = calibrated_chain(n_sites, coupling, boundary)
            bare = spec.with_epsilon((0.0,) * n_sites)
            from_state = state_offsets(bare, res.state)
            assert np.max(np.abs(np.array(spec.epsilon) - from_state)) <= 1e-14 * coupling


def test_local_spectrum_negative_minimum(chains):
    spec, _ = chains(10)
    for n in range(spec.n_sites):
        assert local_density_spectrum(spec, n)[0] < -0.01


@pytest.mark.parametrize("coupling", [1.0, 1e-13, 1e6])
def test_local_spectrum_trace_identity(coupling):
    # Pauli terms are traceless, so the 8-dim trace is -8 eps_n at any coupling
    spec, _ = calibrated_chain(8, coupling=coupling)
    ls = local_density_spectrum(spec, 2)
    assert len(ls) == 8
    trace = sum(ls)
    assert trace == pytest.approx(-8.0 * spec.epsilon[2], abs=1e-10 * coupling)


def test_local_spectrum_edge_site_open_chain():
    spec, _ = calibrated_chain(6, boundary="open")
    ls = local_density_spectrum(spec, 0)
    assert len(ls) == 4
    trace = sum(ls)
    assert trace == pytest.approx(-4.0 * spec.epsilon[0], abs=1e-10)


def test_ground_state_in_density_eigenbasis(chains):
    spec, res = chains(10)
    vals, weights = density_eigenbasis_weights(spec, 4, res.state)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.dot(vals, weights)) < 1e-10        # <T_n> = sum e w = 0
    assert vals[0] < 0.0 and weights[0] > 0.0        # negative-density states populated


def test_correlation_gap_positive_for_entangled_ground_state():
    # sz is even under the chain's spin-flip symmetry, so its two-point
    # function with T_n survives; sx is odd and vanishes identically
    o_z = HermitianOperator.from_strings(10, [single_site(10, 7, "Z")])
    o_xx = HermitianOperator.from_strings(10, [from_sites(10, 1.0, {6: "X", 7: "X"})])
    o_x = HermitianOperator.from_strings(10, [single_site(10, 7, "X")])
    for coupling in (1.0, 1e-13, 1e6):
        spec, res = calibrated_chain(10, coupling=coupling)
        t3 = build_energy_density(spec, 3)
        # a global phase makes every two-point function complex in rounding; the
        # imaginary-part limit scales with the operators, so no J trips it
        state = res.state * np.exp(0.3j)
        assert correlation_check(state, t3, o_z).gap > 1e-6 * coupling
        assert correlation_check(state, t3, o_xx).gap > 1e-6 * coupling
        assert correlation_check(state, t3, o_x).gap < 1e-10 * coupling


@pytest.mark.parametrize("coupling", [1.0, 1e-13, 1e6])
def test_correlation_check_rejects_an_imaginary_part_at_any_coupling(coupling, monkeypatch):
    spec, res = calibrated_chain(10, coupling=coupling)
    t3 = build_energy_density(spec, 3)
    o_z = HermitianOperator.from_strings(10, [single_site(10, 7, "Z")])
    exact = oracles.inner
    # an imaginary part of 1e-3 of the two-point function, as a non-Hermitian product would give
    monkeypatch.setattr(oracles, "inner", lambda a, b: exact(a, b) * (1.0 + 1e-3j))
    with pytest.raises(ValueError, match="imaginary part"):
        correlation_check(res.state, t3, o_z)


def test_correlation_factorizes_for_product_state():
    # the J -> 0 ground state is the all-up product state; factorization is
    # exact for any product state and disjoint supports
    spec = ChainSpec(8)
    product = basis_state(8, 0)
    t3 = build_energy_density(spec, 3)
    for letter in "XZ":
        o_m = HermitianOperator.from_strings(8, [single_site(8, 6, letter)])
        assert correlation_check(product, t3, o_m).gap < 1e-12


def test_correlation_check_rejects_overlapping_supports(chains):
    spec, res = chains(8)
    t3 = build_energy_density(spec, 3)
    o_4 = HermitianOperator.from_strings(8, [single_site(8, 4, "Z")])
    with pytest.raises(ValueError, match="overlap"):
        correlation_check(res.state, t3, o_4)


def test_density_commutes_outside_support():
    spec = ChainSpec(8)
    t3 = build_energy_density(spec, 3)
    rng = np.random.default_rng(9)
    v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    for _ in range(5):
        pattern = ["I"] * 8
        for site in (0, 1, 6, 7):   # all outside {2, 3, 4}
            pattern[site] = "IXYZ"[rng.integers(0, 4)]
        other = HermitianOperator.from_strings(8, [PauliString(1.0, "".join(pattern))])
        comm = t3.apply(other.apply(v)) - other.apply(t3.apply(v))
        assert np.max(np.abs(comm)) < 1e-12


def test_no_spectrum_below_zero_from_seeded_probes(chains):
    # the calibrated H is nonnegative: its whole dense spectrum, and the energy
    # of seeded random states, stay above -1e-9 J
    spec, _ = chains(8)
    op = build_hamiltonian(spec)
    assert np.linalg.eigvalsh(op.dense())[0] > -1e-9
    for seed in (1, 2, 3):
        probe = random_state(8, np.random.default_rng(seed), complex_=True)
        assert expectation(op, probe) > -1e-9


def test_spec_validation():
    with pytest.raises(ValueError, match="3 sites"):
        ChainSpec(2)
    for coupling in (0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            ChainSpec(4, coupling=coupling)
    with pytest.raises(ValueError, match="boundary"):
        ChainSpec(4, boundary="twisted")
    with pytest.raises(ValueError, match="differ"):
        ChainSpec(4, site_a=1, site_b=1)
    with pytest.raises(ValueError, match="per site"):
        ChainSpec(4, epsilon=(0.0,))
    with pytest.raises(ValueError, match="out of range"):
        ChainSpec(4, site_a=0, site_b=5)


def test_circular_distance():
    spec = ChainSpec(10)
    assert distance(spec, 0, 9) == 1
    assert distance(spec, 0, 5) == 5
    assert distance(ChainSpec(10, boundary="open"), 0, 9) == 9
