"""The exact ground state: the Pfaffian construction against dense and textbook oracles."""

import math

import numpy as np
import pytest
from conftest import dense_ground
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    bdg_pairing,
    even_parity_indices,
    even_parity_sector,
    lowest_site_amplitudes,
    pfaffian,
)

from qetsim import chain, eigensolver
from qetsim.chain import ChainSpec, build_hamiltonian, calibrated_chain
from qetsim.eigensolver import ground_state, pfaffian_amplitudes
from qetsim.pauli import HermitianOperator


@pytest.mark.parametrize("n_sites", range(3, 13))
@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
def test_pfaffian_state_matches_dense_on_critical_chain(n_sites, boundary):
    # the dense oracle is the even-sector matrix, 2^(N-1) rows: H keeps parity,
    # so the residual of an even state is the sector's, and the lowest odd
    # level lies above E0 (test_calibrated_chain_matches_the_full_space_solve)
    even = even_parity_indices(n_sites)
    odd = np.ones(1 << n_sites, dtype=bool)
    odd[even] = False
    for coupling in (1e-13, 1.0, 1e6):
        spec = ChainSpec(n_sites, coupling, boundary)
        res = ground_state(spec)
        sector = even_parity_sector(build_hamiltonian(spec))
        energy, vec = dense_ground(sector)
        assert abs(np.vdot(vec, res.state[even])) >= 1.0 - 1e-13
        assert np.all(res.state[odd] == 0.0)
        assert abs(res.energy - energy) < 1e-12 * n_sites * coupling
        g = res.state[even]
        dense_residual = np.linalg.norm(sector.dense() @ g - res.energy * g)
        assert abs(res.residual - dense_residual) < 1e-13 * coupling


def test_lanczos_matches_dense_on_critical_chain(chains):
    # the full 2^N dense oracle of the calibrated chain, odd sector included,
    # with the bounds the iterative solver this construction replaced was held to
    spec, _ = chains(8)
    op = build_hamiltonian(spec)
    res = ground_state(spec)
    energy, state = dense_ground(op)
    assert abs(res.energy - energy) < 1e-10
    assert abs(np.vdot(res.state, state)) > 1.0 - 1e-9
    assert res.residual < 1e-10


def test_lanczos_matches_dense_on_random_operators():
    # seeded random chains: size, boundary, coupling and per-site offsets,
    # each against the full-space dense ground state
    rng = np.random.default_rng(0)
    for trial in range(3):
        n_sites = int(rng.integers(3, 9))
        coupling = float(rng.uniform(0.5, 2.0))
        spec = ChainSpec(n_sites, coupling, chain.BOUNDARIES[trial % len(chain.BOUNDARIES)],
                         epsilon=tuple(rng.standard_normal(n_sites)))
        res = ground_state(spec)
        energy, state = dense_ground(build_hamiltonian(spec))
        assert abs(res.energy - energy) < 1e-10
        assert abs(np.vdot(res.state, state)) > 1.0 - 1e-9


@pytest.mark.parametrize("n_sites", [3, 4, 5, 8, 13, 18, 20])
def test_exact_energy_is_the_closed_form(n_sites):
    # E0 = -(1/2) sum_k eps_k = -2J / sin(pi/2N) on a periodic chain
    for coupling in (1.0, 0.37):
        res = ground_state(ChainSpec(n_sites, coupling))
        assert res.energy == pytest.approx(-2.0 * coupling / math.sin(math.pi / (2 * n_sites)),
                                           rel=1e-14)


@pytest.mark.parametrize("n_sites", range(3, 11))
@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
def test_exact_gap_is_the_second_even_level(n_sites, boundary, monkeypatch):
    # the gap `degenerate` reads is eps_1 + eps_2: 8J sin(pi/2N) on a periodic
    # chain, and the dense second even level on both; GAP_TOL just above it
    # sets the flag and just below it does not
    spec = ChainSpec(n_sites, 1.0, boundary)
    levels = np.linalg.eigvalsh(even_parity_sector(build_hamiltonian(spec)).dense())
    gap = float(levels[1] - levels[0])
    if boundary == "periodic":
        assert gap == pytest.approx(8.0 * math.sin(math.pi / (2 * n_sites)), rel=1e-12)
    for factor, flagged in ((1.0 + 1e-12, True), (1.0 - 1e-12, False)):
        monkeypatch.setattr(eigensolver, "GAP_TOL", gap * factor)
        if flagged:
            with pytest.warns(UserWarning, match="degenerate"):
                res = ground_state(spec)
        else:
            res = ground_state(spec)
        assert res.degenerate is flagged


@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
@pytest.mark.parametrize("coupling", (1.0, 1e6))
def test_calibrated_offsets_sum_to_the_exact_energy(boundary, coupling):
    # sum_n eps_n = <g|H_bare|g>, read from the state, against E0 = -(1/2) sum eps_k
    for n_sites in (3, 8, 14):
        spec, _ = calibrated_chain(n_sites, coupling, boundary)
        e0 = ground_state(ChainSpec(n_sites, coupling, boundary)).energy
        assert abs(sum(spec.epsilon) - e0) <= 1e-12 * n_sites * coupling


@settings(max_examples=40, deadline=None)
@given(n_sites=st.integers(3, 12), boundary=st.sampled_from(chain.BOUNDARIES),
       data=st.data())
def test_amplitudes_are_pfaffians_of_the_bdg_pairing(n_sites, boundary, data):
    # the pairing matrix from an eigh of the 2N x 2N BdG matrix and a Pfaffian
    # by first-row expansion, against the state the package builds by SVD and
    # the highest-site fill; an odd site set has amplitude exactly 0
    state = ground_state(ChainSpec(n_sites, 1.0, boundary)).state
    pairing = bdg_pairing(n_sites, boundary == "periodic")
    for _ in range(4):
        index = data.draw(st.integers(0, (1 << n_sites) - 1))
        sites = [n for n in range(n_sites) if index >> n & 1]
        if len(sites) % 2:
            assert state[index] == 0.0
        else:
            assert state[index] / state[0] == pytest.approx(
                pfaffian(pairing[np.ix_(sites, sites)]), rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(n_sites=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_pfaffian_recursion_on_random_antisymmetric_matrices(n_sites, seed):
    upper = np.triu(np.random.default_rng(seed).standard_normal((n_sites, n_sites)), 1)
    pairing = upper - upper.T
    amp = pfaffian_amplitudes(pairing)
    for index in range(1 << n_sites):
        sites = [n for n in range(n_sites) if index >> n & 1]
        assert amp[index] == pytest.approx(pfaffian(pairing[np.ix_(sites, sites)]),
                                           rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n_sites", range(3, 19))
@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
def test_highest_site_fill_matches_the_lowest_site_recursion(n_sites, boundary):
    # every amplitude of the two expansion orders, on the chain's own pairing
    # matrix; the fill never writes a nonzero into an odd site set
    pairing = bdg_pairing(n_sites, boundary == "periodic")
    amp = pfaffian_amplitudes(pairing)
    reference = lowest_site_amplitudes(pairing)
    assert np.max(np.abs(amp - reference)) <= 1e-15 * np.max(np.abs(reference))
    odd = np.bitwise_count(np.arange(1 << n_sites)) % 2 == 1
    assert np.all(amp[odd] == 0.0)


@pytest.mark.parametrize("n_sites", [18, 20])
@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
def test_ground_residual_is_rounding_at_the_largest_sizes(n_sites, boundary):
    # ||H g - E0 g|| of the one apply, measured at 7.5e-15 to 1.3e-14 J
    assert ground_state(ChainSpec(n_sites, 1.0, boundary)).residual <= 2e-14


def test_ground_state_energy_zero_after_calibration(chains):
    spec, res = chains(10)
    assert abs(res.energy) < 1e-9
    assert res.residual < 1e-9


def test_energy_variance_witness(chains):
    spec, res = chains(8)
    hv = chain.build_hamiltonian(spec).apply(res.state)
    variance = np.vdot(hv, hv).real - np.vdot(res.state, hv).real ** 2   # <H^2> - <H>^2
    assert variance < (1e-9) ** 2


def test_deterministic_for_fixed_seed():
    # the construction draws nothing, so the accepted seed changes no bit
    first = calibrated_chain(5, seed=3)
    for seed in (3, 4):
        spec, res = calibrated_chain(5, seed=seed)
        assert spec == first[0]
        assert res.energy == first[1].energy
        assert np.array_equal(res.state, first[1].state)
        assert res.iterations == first[1].iterations


def test_phase_fixing_largest_amplitude_positive(chains):
    spec, res = chains(8)
    k = int(np.argmax(np.abs(res.state)))
    pivot = complex(res.state[k])
    assert pivot.real > 0.0
    assert abs(pivot.imag) < 1e-12


def test_degenerate_ground_space_flagged(monkeypatch):
    # the critical chain is never degenerate, so the flag is tested by moving
    # the threshold above its gap (~1.56 J at N = 8)
    assert ground_state(ChainSpec(8)).degenerate is False
    monkeypatch.setattr(eigensolver, "GAP_TOL", 2.0)
    with pytest.warns(UserWarning, match="degenerate"):
        res = ground_state(ChainSpec(8))
    assert res.degenerate
    assert res.residual < 1e-10


def test_exact_degeneracy_flagged_at_twelve_qubits(monkeypatch):
    # the flag reads the exact even gap eps_1 + eps_2 (~1.04 J at N = 12); with
    # GAP_TOL above it the state, energy and residual are bit-identical to the
    # unflagged ones, and reproducible
    plain = ground_state(ChainSpec(12))
    assert plain.degenerate is False
    monkeypatch.setattr(eigensolver, "GAP_TOL", 2.0)
    with pytest.warns(UserWarning, match="degenerate"):
        res = ground_state(ChainSpec(12))
    with pytest.warns(UserWarning, match="degenerate"):
        again = ground_state(ChainSpec(12))
    assert np.array_equal(res.state, again.state)
    assert np.array_equal(res.state, plain.state)
    assert res.degenerate
    assert res.iterations > 0
    assert res.energy == plain.energy == pytest.approx(-2.0 / math.sin(math.pi / 24), rel=1e-14)
    assert res.residual == plain.residual < 1e-10


def test_single_site_operator_is_rejected():
    # the construction needs a chain with bonds; fewer than 3 sites is refused
    for n_sites in (1, 2):
        with pytest.raises(ValueError, match="at least 3 sites"):
            ground_state(ChainSpec(n_sites, 0.5))


@pytest.mark.parametrize("scale", [1e-7, 1e6])
def test_absolute_tolerance_scales_with_the_operator(scale):
    # the residual bound is RESIDUAL_BOUND J, and the J = 1 construction is
    # scaled, so the check passes or fails alike at every coupling
    unit = ground_state(ChainSpec(10, 1.0))
    res = ground_state(ChainSpec(10, scale))
    assert res.residual == pytest.approx(scale * unit.residual, rel=1e-12)
    assert res.residual < eigensolver.RESIDUAL_BOUND * scale
    assert np.array_equal(res.state, unit.state)


def test_seeded_chain_solves_are_bit_identical():
    a = calibrated_chain(12, seed=5)[1]
    b = calibrated_chain(12, seed=5)[1]
    c = calibrated_chain(12, seed=6)[1]
    for other in (b, c):
        assert np.array_equal(a.state, other.state)
        assert a.energy == other.energy
        assert a.residual == other.residual
        assert a.iterations == other.iterations


def test_iterations_count_operator_applications(monkeypatch):
    calls = []
    original = HermitianOperator.apply

    def counting(self, vec):
        calls.append(len(vec))
        return original(self, vec)

    monkeypatch.setattr(HermitianOperator, "apply", counting)
    res = ground_state(ChainSpec(10))
    assert res.residual < 1e-10
    assert res.iterations == len(calls) == 1
    assert calls == [1 << 10]
