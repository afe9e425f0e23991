"""Eigensolver: ARPACK Lanczos against the dense oracle, plus state utilities."""

import warnings

import numpy as np
import pytest

from qetsim import chain, eigensolver
from qetsim.eigensolver import (
    EigensolverError,
    basis_state,
    energy_variance,
    expectation,
    ground_state,
)
from qetsim.pauli import HermitianOperator, PauliString, single_site


def field_only(n_sites: int, j: float = 1.0) -> HermitianOperator:
    return HermitianOperator.from_strings(
        n_sites, [single_site(n_sites, n, "Z", -j) for n in range(n_sites)])


def test_diagonal_field_ground_state():
    op = field_only(6)
    res = ground_state(op, method="lanczos")
    assert res.energy == pytest.approx(-6.0, abs=1e-10)
    overlap = abs(np.vdot(res.state, basis_state(6, 0)))
    assert overlap > 1.0 - 1e-9


def test_lanczos_matches_dense_on_critical_chain(chains):
    spec, _ = chains(8)
    op = chain.build_hamiltonian(spec)
    lan = ground_state(op, method="lanczos", tol=1e-11)
    den = ground_state(op, method="dense")
    assert abs(lan.energy - den.energy) < 1e-10
    assert abs(np.vdot(lan.state, den.state)) > 1.0 - 1e-9
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
            lan = ground_state(op, method="lanczos", seed=trial)
            den = ground_state(op, method="dense")
        assert abs(lan.energy - den.energy) < 1e-10


def test_ground_state_energy_zero_after_calibration(chains):
    spec, res = chains(10)
    assert abs(res.energy) < 1e-9
    assert res.residual < 1e-9


def test_energy_variance_witness(chains):
    spec, res = chains(8)
    op = chain.build_hamiltonian(spec)
    assert energy_variance(res.state, op) < (1e-9) ** 2


def test_deterministic_for_fixed_seed():
    op = field_only(5)
    a = ground_state(op, seed=3, method="lanczos")
    b = ground_state(op, seed=3, method="lanczos")
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
        res = ground_state(op, method="lanczos")
    assert res.degenerate
    assert res.energy == pytest.approx(-1.0, abs=1e-10)


def test_exact_degeneracy_flagged_at_twelve_qubits():
    # -X_0 on 12 qubits: the ground space is 2048-fold degenerate, which a single
    # Krylov space cannot span; ARPACK's k=2 still sees the zero gap
    op = HermitianOperator.from_strings(12, [single_site(12, 0, "X", -1.0)])
    with pytest.warns(UserWarning, match="degenerate"):
        res = ground_state(op, method="lanczos")
    with pytest.warns(UserWarning, match="degenerate"):
        again = ground_state(op, method="lanczos")
    # reproducible even where the solve depends on how ARPACK restarts a closed space
    assert np.array_equal(res.state, again.state)
    assert res.degenerate
    assert res.iterations > 0           # sparse path
    assert res.energy == pytest.approx(-1.0, abs=1e-10)
    assert res.residual < 1e-10


def test_single_site_operator_solves_by_default():
    op = HermitianOperator.from_strings(1, [single_site(1, 0, "X", -0.5)])
    for method in ("auto", "lanczos"):
        res = ground_state(op, method=method)
        assert res.energy == pytest.approx(-0.5, abs=1e-14)
        assert res.residual < 1e-14
        assert not res.degenerate


def test_seeded_chain_solves_are_bit_identical():
    op = chain.build_hamiltonian(chain.ChainSpec(12))
    a = ground_state(op, seed=5, method="lanczos")
    b = ground_state(op, seed=5, method="lanczos")
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
    res = ground_state(op, method="lanczos")
    assert res.residual < 1e-10
    assert res.iterations == len(calls) > 0
    calls.clear()
    with pytest.raises(EigensolverError) as excinfo:
        ground_state(op, method="lanczos", max_iter=7)
    assert excinfo.value.best.iterations == len(calls) == 7


def test_nonconvergence_raises_with_best_so_far():
    spec = chain.ChainSpec(8)
    op = chain.build_hamiltonian(spec)
    with pytest.raises(EigensolverError) as excinfo:
        ground_state(op, method="lanczos", max_iter=3)
    best = excinfo.value.best
    assert best.iterations == 3
    assert np.isfinite(best.residual)


def test_auto_falls_back_to_dense_for_small_systems():
    spec = chain.ChainSpec(6)
    op = chain.build_hamiltonian(spec)
    res = ground_state(op, method="auto", max_iter=3)
    assert res.iterations == 0          # dense path
    assert res.residual < 1e-10


def test_expectation_identity_and_eigenstate():
    ident = HermitianOperator.identity(4, 2.5)
    v = eigensolver.random_state(4, seed=1)
    assert expectation(v, ident) == pytest.approx(2.5, abs=1e-12)
    z0 = HermitianOperator.from_strings(4, [single_site(4, 0, "Z", -1.0)])
    assert expectation(basis_state(4, 0), z0) == pytest.approx(-1.0, abs=1e-14)


def test_expectation_rejects_unnormalized_state():
    op = HermitianOperator.identity(3)
    with pytest.raises(ValueError, match="normalized"):
        expectation(np.ones(8), op)


def test_apply_wrapper_checks_dimensions():
    # The state utilities that apply an operator reject a state of the wrong length.
    op = HermitianOperator.identity(3)
    bad = np.full(4, 0.5)
    with pytest.raises(ValueError, match="shape"):
        expectation(bad, op)
    with pytest.raises(ValueError, match="shape"):
        energy_variance(bad, op)
