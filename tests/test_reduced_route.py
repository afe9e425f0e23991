"""The reduced-density route of `protocol` and `cooling` against the branch oracle.

Every number the package reports is a trace over the ground state's reduced
density matrix on a few sites.  `tests/oracles.py` keeps the route it
replaced, which pushes outcome branches of 2^N amplitudes through every
stage; the two must agree to 1e-12 J.
"""

import itertools
import math
import os
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    BranchGround,
    branch_gram,
    branch_protocol,
    measure,
    projectors,
    reduced_by_einsum,
)

from qetsim import chain, cli, cooling, protocol
from qetsim.chain import build_energy_density, build_hamiltonian, energy_densities
from qetsim.pauli import HermitianOperator, axis_operator
from qetsim.protocol import MeasurementSetup, PreparedGround, run_protocol

TOL = 1e-12      # J = 1 throughout
FIELDS = ("e_a", "xi", "eta", "theta_star", "e_b", "trace_energy", "theta_used")


def worst_gap(result, oracle) -> float:
    """Largest difference over the energies, angles and all three profiles."""
    gaps = [abs(getattr(result, f) - getattr(oracle, f)) for f in FIELDS]
    for stage, profile in oracle.profiles.items():
        gaps.extend(abs(a - b) for a, b in zip(result.profiles[stage], profile))
    return max(gaps)


def quiet_run(spec, setup, ground, theta=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # the adjacent-axes fallback
        return run_protocol(spec, setup, ground=ground, theta=theta)


def sender(n_sites: int, boundary: str) -> int:
    """Site 0 on a ring; on an open chain the edge for odd N and its neighbour for even N."""
    return 0 if boundary == "periodic" else (n_sites + 1) % 2


@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
@pytest.mark.parametrize("n_sites", range(3, 17))
def test_protocol_matches_the_branch_oracle(chains, n_sites, boundary):
    # every separation n = 1..N/2, adjacent parties included, and all nine
    # cardinal pairs at the optimal angle, plus y|x at a fixed one
    spec, res = chains(n_sites, boundary)
    prepared, oracle = PreparedGround(spec, res.state), BranchGround(spec, res.state)
    site_a = sender(n_sites, boundary)
    worst = 0.0
    for n in range(1, n_sites // 2 + 1):
        here = spec.with_sites(site_a, site_a + n)
        runs = [(MeasurementSetup.cardinal(a, b), None) for a in "xyz" for b in "xyz"]
        runs.append((MeasurementSetup.cardinal("y", "x"), 0.37))
        for setup, theta in runs:
            result = quiet_run(here, setup, prepared, theta)
            worst = max(worst, worst_gap(result, branch_protocol(here, setup, oracle, theta)))
    assert worst <= TOL


unit_axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.hypot(*v) > 0.1).map(lambda v: tuple(c / math.hypot(*v) for c in v))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.sampled_from(chain.BOUNDARIES), unit_axes, unit_axes, st.data())
def test_tilted_axes_match_the_branch_oracle(chains, n_sites, boundary, axis_a, axis_b, data):
    spec, res = chains(n_sites, boundary)
    site_a = data.draw(st.integers(0, n_sites - 1))
    site_b = data.draw(st.integers(0, n_sites - 1).filter(lambda b: b != site_a))
    spec = spec.with_sites(site_a, site_b)
    setup = MeasurementSetup(axis_a, axis_b)
    assert worst_gap(quiet_run(spec, setup, res), branch_protocol(spec, setup, res.state)) <= TOL


@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
@pytest.mark.parametrize("n_sites", [8, 12, 16])
def test_cooling_matches_the_branch_oracle(chains, n_sites, boundary):
    # the Gram forms from rho on supp T_A against 2^N unit states and H applies,
    # and the certified minimum each gives
    spec, res = chains(n_sites, boundary)
    spec = spec.with_sites(sender(n_sites, boundary), sender(n_sites, boundary) + 1)
    setup = MeasurementSetup.cardinal("y", "x")
    cool = cooling.minimize_residual(spec, setup, ground=res)
    objectives = cooling.outcome_objectives(PreparedGround(spec, res.state), spec, setup.axis_a)

    h = build_hamiltonian(spec)
    ensemble, e_a = measure(res.state, *projectors(setup.axis_a, spec.site_a, n_sites), h)
    grams = {b.outcome: branch_gram(b.weight, b.state, spec.site_a, h)
             for b in ensemble.branches if b.weight > 0.0}
    assert sorted(objectives) == sorted(grams)
    for mu, gram in grams.items():
        assert np.max(np.abs(objectives[mu].gram - gram)) <= TOL
    bounds, _, gap, _ = cooling._min_local_channel(
        {mu: cooling.OutcomeObjective(gram) for mu, gram in grams.items()})
    assert abs(cool.e_a - e_a) <= TOL
    assert abs(cool.e_r_numeric - sum(bounds)) <= TOL
    assert max(abs(a - b) for a, b in zip(cool.per_outcome, bounds)) <= TOL
    assert abs(cool.duality_gap - gap) <= TOL


@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
@pytest.mark.parametrize("n_sites", range(3, 13))
def test_outcome_blocks_match_the_n_site_projectors(chains, n_sites, boundary):
    # P_mu = (I +- sigma) / 2 from sigma's few-site matrix against the oracle's
    # N-site Pauli projectors restricted to the same sites, at every sender
    # site, on the site set the measurement reads and on a receiver's
    spec, res = chains(n_sites, boundary)
    prepared = PreparedGround(spec, res.state)
    rng = np.random.default_rng(n_sites)
    axes = [protocol.AXES["y"], *(tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(3, 3)))]
    for site in range(n_sites):
        measured = chain.density_support(spec, site)
        receiver = protocol._sites({site}, chain.density_support(spec, (site + 2) % n_sites))
        for sites in (measured, receiver):
            rho = prepared.reduced(sites)
            for axis in axes:
                blocks = protocol._outcome_blocks(prepared, axis, site, sites)
                for block, op in zip(blocks, projectors(axis, site, n_sites), strict=True):
                    p = op.dense(sites)
                    assert np.max(np.abs(block - p @ rho @ p)) <= 1e-15


@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
@pytest.mark.parametrize("n_sites", range(3, 9))
def test_the_density_terms_at_a_site_sum_to_the_terms_of_h_there(chains, n_sites, boundary):
    # in exact Pauli algebra: the T_m|s of the T_m with a letter at s add up to
    # H's terms at s, and every other T_m has none, so the profile shifts that
    # the measurement and the feedback read add up to their energy changes
    spec, res = chains(n_sites, boundary)
    prepared = PreparedGround(spec, res.state)
    for site in range(n_sites):
        touched = chain.density_support(spec, site)
        parts = [t for m in touched for t in prepared.density(m, site).terms]
        assert HermitianOperator.from_strings(n_sites, parts) == prepared.acting_on(site)
        assert prepared.acting_on(site) == build_hamiltonian(spec).acting_on(site)
        assert not any(prepared.density(m, site).terms
                       for m in range(n_sites) if m not in touched)


@pytest.mark.parametrize("argv, site_a, receivers", [
    pytest.param("teleport --sites 8 --axis-a 0.6,0,0.8 --axis-b 0,0.8,0.6", 0, [1],
                 id="teleport-adjacent-tilted"),
    pytest.param("teleport --sites 9 --bc open --site-a 4 --site-b 8 --axis-a 1,2,0.5 "
                 "--axis-b 0,1,1", 4, [8], id="teleport-open-edge-receiver-tilted"),
    pytest.param("teleport --sites 8 --bc open --site-b 1 --axis-a best", 0, [1],
                 id="teleport-open-edge-sender-adjacent"),
    pytest.param("sweep --sizes 8 --axis-a best", 0, [1, 2, 3, 4], id="sweep"),
    pytest.param("sweep --sizes 7 --bc open --axis-a 0,1,1 --axis-b 1,1,0", 0, [1, 2, 3],
                 id="sweep-open-tilted"),
    pytest.param("cool --sites 8 --axis-a y --axis-b x", 0, [1], id="cool"),
    pytest.param("cool --sites 8 --bc open --site-a 7 --site-b 6 --axis-a 1,2,0.5 "
                 "--axis-b 0,1,1", 7, [6], id="cool-open-edge-sender-tilted"),
    pytest.param("cool --sites 10 --bc open --site-a 4 --site-b 5 --axis-a 0,1,1", 4, [5],
                 id="cool-open-tilted"),
])
def test_each_party_is_read_from_one_reduced_density_matrix(monkeypatch, capsys, argv, site_a,
                                                            receivers):
    # the sender from rho on supp T_A and each receiver from rho on A and supp T_B,
    # on both boundaries, for adjacent and edge parties and tilted axes
    seen, chains_read, reduced = set(), set(), PreparedGround.reduced

    def recording(self, sites):
        seen.add(protocol._sites(sites))
        chains_read.add(self.spec)
        return reduced(self, sites)

    monkeypatch.setattr(PreparedGround, "reduced", recording)
    assert cli.main(argv.split()) == 0
    capsys.readouterr()
    (spec,) = chains_read
    assert seen == {chain.density_support(spec, site_a),
                    *(protocol._sites({site_a}, chain.density_support(spec, b))
                      for b in receivers)}
    assert max(map(len, seen)) <= 4


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 12), st.sampled_from(chain.BOUNDARIES), unit_axes, st.data())
def test_bracket_matches_the_pauli_commutator(chains, n_sites, boundary, axis, data):
    # i(h sigma - sigma h) from the few-site matrices against i[H_site, sigma]
    # formed in Pauli algebra and then made dense, on a site set that holds
    # the terms of H at the site and up to two more sites.  The Pauli route
    # takes one cardinal component at a time (the bracket is linear in the
    # axis): a whole tilted sigma with a component near 1e-16 would lose its
    # terms to `from_strings`' drop below 1e-15 of the largest coefficient
    spec, res = chains(n_sites, boundary)
    prepared = PreparedGround(spec, res.state)
    site = data.draw(st.integers(0, n_sites - 1))
    h = prepared.acting_on(site)
    held = {n for t in h.terms for n, letter in enumerate(t.letters) if letter != "I"}
    extra = data.draw(st.sets(st.integers(0, n_sites - 1), max_size=2))
    sites = protocol._sites(held, extra)
    exact = sum(a * h.commutator(axis_operator(protocol.AXES[q], site, n_sites)).dense(sites)
                for q, a in zip("xyz", axis) if a != 0.0)
    assert np.max(np.abs(protocol._bracket(prepared, axis, site, sites) - exact)) <= 1e-15


def test_given_a_prepared_ground_no_operator_is_applied(chains, monkeypatch):
    def refuse(self, vec):
        raise AssertionError("HermitianOperator.apply called")

    grounds = []
    for boundary in chain.BOUNDARIES:
        spec, res = chains(10, boundary)
        grounds.append(PreparedGround(spec, res.state))
    monkeypatch.setattr(HermitianOperator, "apply", refuse)
    for prepared in grounds:
        for site_a, site_b in ((0, 1), (2, 5), (4, 3)):
            spec = prepared.spec.with_sites(site_a, site_b)
            best = protocol.axis_sweep(spec, ground=prepared)
            for setup in (best, MeasurementSetup((0.6, 0.0, 0.8), (0.0, 0.8, 0.6))):
                quiet_run(spec, setup, prepared)
                cooling.minimize_residual(spec, setup, ground=prepared, restarts=2)


def test_a_prepared_ground_builds_each_operator_and_matrix_once(chains, monkeypatch):
    # a second pass over every receiver builds no operator and no dense matrix; the
    # T_m outside build_hamiltonian are built at most once each; and two
    # PreparedGrounds of one chain share no matrix, so no cache outlives its own
    built, computed, densities, matrices = [0], [0], Counter(), {}
    post_init, dense_matrix = HermitianOperator.__post_init__, protocol.dense_matrix
    energy_density = protocol.build_energy_density

    def counting_post_init(self):
        built[0] += 1
        post_init(self)

    def counting_dense_matrix(pattern, n_sites):
        computed[0] += 1
        return dense_matrix(pattern, n_sites)

    def counting_energy_density(spec, m):
        densities[m] += 1
        return energy_density(spec, m)

    def recording(method):
        def record(self, *args):
            mat = method(self, *args)
            matrices.setdefault(id(self), {})[id(mat)] = mat
            return mat
        return record

    monkeypatch.setattr(HermitianOperator, "__post_init__", counting_post_init)
    monkeypatch.setattr(protocol, "dense_matrix", counting_dense_matrix)
    monkeypatch.setattr(protocol, "build_energy_density", counting_energy_density)
    monkeypatch.setattr(PreparedGround, "dense", recording(PreparedGround.dense))

    def one_pass(prepared):
        for site_b in range(1, prepared.spec.n_sites):
            spec = prepared.spec.with_sites(0, site_b)
            quiet_run(spec, protocol.axis_sweep(spec, ground=prepared), prepared)

    for n_sites, boundary in ((12, "periodic"), (10, "open")):
        spec, res = chains(n_sites, boundary)
        first, second = (PreparedGround(spec, res.state) for _ in range(2))
        one_pass(first)
        assert built[0] > 0 and computed[0] > 0
        built[0] = computed[0] = 0
        one_pass(first)
        assert built[0] == computed[0] == 0
        assert max(densities.values()) == 1
        densities.clear()
        one_pass(second)
        assert computed[0] > 0 and max(densities.values()) == 1
        assert not set(matrices[id(first)]) & set(matrices[id(second)])
        assert not any(m.flags.writeable for group in matrices.values() for m in group.values())
        densities.clear()
        matrices.clear()


@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
def test_reduced_density_matrix_is_the_partial_trace(chains, boundary):
    # against |g><g| traced down as a dense 2^N x 2^N matrix, and every <T_n>
    # read from it against energy_densities
    spec, res = chains(8, boundary)
    prepared = PreparedGround(spec, res.state)
    full = np.outer(res.state, res.state.conj()).reshape((2,) * 16)
    for sites in ((0,), (2, 3), (7, 0, 1), (1, 3, 4, 6), (0, 2, 3, 4), (6, 7, 0, 1)):
        keep = sorted(sites)
        rest = [s for s in range(8) if s not in keep]
        # axis of site s is 7 - s for the ket and 15 - s for the bra
        letters = list(range(16))
        for s in rest:
            letters[15 - s] = letters[7 - s]
        ket = [7 - s for s in reversed(keep)]
        out = ket + [8 + k for k in ket]
        dim = 1 << len(keep)
        expected = np.einsum(full, letters, [letters[k] for k in out]).reshape(dim, dim)
        rho = prepared.reduced(sites)
        assert np.max(np.abs(rho - expected)) <= 1e-14
        assert abs(np.trace(rho) - 1.0) <= 1e-13
    densities = energy_densities(spec, res.state)
    for n in range(8):
        sites = chain.density_support(spec, n)
        t_n = build_energy_density(spec, n).dense(sites)
        assert abs(np.einsum("ab,ba->", prepared.reduced(sites), t_n) - densities[n]) <= TOL


@pytest.mark.parametrize("boundary", chain.BOUNDARIES)
@pytest.mark.parametrize("n_sites", range(3, 11))
def test_reduced_density_matrix_matches_the_einsum_oracle(chains, n_sites, boundary):
    # every site set of up to four sites, on the real ground state and on a
    # complex state calibrated to read as one; rho is exactly Hermitian, and
    # a fifth site is refused
    spec, res = chains(n_sites, boundary)
    rng = np.random.default_rng(n_sites)
    mixed = rng.standard_normal(1 << n_sites) + 1j * rng.standard_normal(1 << n_sites)
    mixed /= np.linalg.norm(mixed)
    bare = spec.with_epsilon((0.0,) * n_sites)
    for state, here in ((res.state, spec), (mixed, bare.with_epsilon(energy_densities(bare, mixed)))):
        prepared = PreparedGround(here, state)
        for k in range(1, min(n_sites, 4) + 1):
            for sites in itertools.combinations(range(n_sites), k):
                rho = prepared.reduced(sites)
                assert np.max(np.abs(rho - reduced_by_einsum(state, sites, n_sites))) <= 1e-15
                assert np.array_equal(rho, rho.conj().T)
        if n_sites >= 5:
            with pytest.raises(ValueError, match="5 sites exceed the 4 a reduced density"):
                prepared.reduced(range(5))


def test_reduced_density_matrices_leave_the_blas_pool_idle():
    # a BLAS call that wakes numpy's OpenBLAS pool leaves its workers spinning
    # through the elementwise work after it, which reads as CPU time near twice
    # the wall time on two threads; rho's product runs on the calling thread.
    # The workers also spin for up to about 0.1 s after they start, whatever
    # the process does, so the timed window opens after a pause.
    code = textwrap.dedent("""
        import time
        import numpy as np
        from qetsim import chain, protocol
        spec, res = chain.calibrated_chain(16)
        prepared = protocol.PreparedGround(spec, res.state)
        work = np.empty_like(res.state)
        # supp T_A of each sender and A and supp T_B of each receiver
        site_sets = ([(m, m + 1, m + 2) for m in range(14)]
                     + [(0, m - 1, m, m + 1) for m in range(2, 15)])
        time.sleep(0.5)
        wall, cpu = time.perf_counter(), time.process_time()
        for sites in site_sets:
            prepared.reduced(sites)
            for _ in range(5):
                np.multiply(res.state, 1.5, out=work)
                work += res.state
        print(len(site_sets), time.process_time() - cpu, time.perf_counter() - wall)
    """)
    src = Path(protocol.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    count, cpu, wall = proc.stdout.split()
    assert int(count) == 27
    assert float(cpu) <= 1.5 * float(wall)
