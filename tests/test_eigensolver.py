"""Eigensolver: ARPACK Lanczos against the dense oracle."""

import math
import warnings

import numpy as np
import pytest
from conftest import basis_state, dense_ground

from qetsim import chain, eigensolver
from qetsim.eigensolver import EigensolverError, ground_state
from qetsim.pauli import HermitianOperator, PauliString, single_site


def field_only(n_sites: int, j: float = 1.0) -> HermitianOperator:
    return HermitianOperator.from_strings(
        n_sites, [single_site(n_sites, n, "Z", -j) for n in range(n_sites)])


def test_diagonal_field_ground_state():
    op = field_only(6)
    res = ground_state(op)
    assert res.energy == pytest.approx(-6.0, abs=1e-10)
    overlap = abs(np.vdot(res.state, basis_state(6, 0)))
    assert overlap > 1.0 - 1e-9


def test_lanczos_matches_dense_on_critical_chain(chains):
    spec, _ = chains(8)
    op = chain.build_hamiltonian(spec)
    lan = ground_state(op, tol=1e-11)
    energy, state = dense_ground(op)
    assert abs(lan.energy - energy) < 1e-10
    assert abs(np.vdot(lan.state, state)) > 1.0 - 1e-9
    assert lan.residual < 1e-10


def test_lanczos_matches_dense_on_random_operators():
    rng = np.random.default_rng(0)
    for trial in range(3):
        strings = []
        for _ in range(10):
            pattern = "".join("IXYZ"[i] for i in rng.integers(0, 4, 6))
            strings.append(PauliString(float(rng.standard_normal()), pattern))
        op = HermitianOperator.from_strings(6, strings)
        with warnings.catch_warnings():
            # a random draw may legitimately be degenerate; that is not under test
            warnings.simplefilter("ignore", UserWarning)
            lan = ground_state(op, seed=trial)
        assert abs(lan.energy - dense_ground(op)[0]) < 1e-10


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
    op = field_only(5)
    a = ground_state(op, seed=3)
    b = ground_state(op, seed=3)
    assert a.energy == b.energy
    assert np.array_equal(a.state, b.state)
    assert a.iterations == b.iterations


def test_phase_fixing_largest_amplitude_positive(chains):
    spec, res = chains(8)
    k = int(np.argmax(np.abs(res.state)))
    pivot = complex(res.state[k])
    assert pivot.real > 0.0
    assert abs(pivot.imag) < 1e-12


def test_degenerate_ground_space_flagged():
    # -X_0 on three qubits: each eigenvalue is 4-fold degenerate
    op = HermitianOperator.from_strings(3, [single_site(3, 0, "X", -1.0)])
    with pytest.warns(UserWarning, match="degenerate"):
        res = ground_state(op)
    assert res.degenerate
    assert res.energy == pytest.approx(-1.0, abs=1e-10)


def test_exact_degeneracy_flagged_at_twelve_qubits():
    # -X_0 on 12 qubits: the ground space is 2048-fold degenerate, which a single
    # Krylov space cannot span; ARPACK's k=2 still sees the zero gap
    op = HermitianOperator.from_strings(12, [single_site(12, 0, "X", -1.0)])
    with pytest.warns(UserWarning, match="degenerate"):
        res = ground_state(op)
    with pytest.warns(UserWarning, match="degenerate"):
        again = ground_state(op)
    # reproducible even where the solve depends on how ARPACK restarts a closed space
    assert np.array_equal(res.state, again.state)
    assert res.degenerate
    assert res.iterations > 0
    assert res.energy == pytest.approx(-1.0, abs=1e-10)
    assert res.residual < 1e-10


def test_single_site_operator_is_rejected():
    # ARPACK's two lowest pairs need a dimension of at least 4
    op = HermitianOperator.from_strings(1, [single_site(1, 0, "X", -0.5)])
    with pytest.raises(ValueError, match="at least 2 sites"):
        ground_state(op)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="positive and finite"):
        ground_state(field_only(4), tol=tol)


@pytest.mark.parametrize("scale", [1e-7, 1e6])
def test_absolute_tolerance_scales_with_the_operator(scale):
    # ARPACK's tolerance is tol / one_norm, so scaling the operator and tol
    # together runs the unscaled iteration, also where one_norm is below 1
    def sector(j):
        return chain.even_parity_sector(chain.build_hamiltonian(chain.ChainSpec(10, j)))

    unit = ground_state(sector(1.0))
    res = ground_state(sector(scale), tol=1e-10 * scale)
    assert res.residual < 1e-10 * scale
    assert res.iterations == unit.iterations


def test_seeded_chain_solves_are_bit_identical():
    op = chain.build_hamiltonian(chain.ChainSpec(12))
    a = ground_state(op, seed=5)
    b = ground_state(op, seed=5)
    assert a.iterations > 0
    assert np.array_equal(a.state, b.state)
    assert a.energy == b.energy
    assert a.residual == b.residual
    assert a.iterations == b.iterations


def test_iterations_count_operator_applications(monkeypatch):
    op = chain.build_hamiltonian(chain.ChainSpec(10))
    calls = []
    original = HermitianOperator.apply

    def counting(self, vec):
        calls.append(len(vec))
        return original(self, vec)

    monkeypatch.setattr(HermitianOperator, "apply", counting)
    res = ground_state(op)
    assert res.residual < 1e-10
    assert res.iterations == len(calls) > 0
    calls.clear()
    monkeypatch.setattr(eigensolver, "MAX_APPLIES", 7)
    with pytest.raises(EigensolverError) as excinfo:
        ground_state(op)
    assert excinfo.value.best.iterations == len(calls) == 7


def test_nonconvergence_raises_with_best_so_far(monkeypatch):
    spec = chain.ChainSpec(8)
    op = chain.build_hamiltonian(spec)
    monkeypatch.setattr(eigensolver, "MAX_APPLIES", 3)
    with pytest.raises(EigensolverError) as excinfo:
        ground_state(op)
    best = excinfo.value.best
    assert best.iterations == 3
    assert np.isfinite(best.residual)
