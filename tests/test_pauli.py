"""Pauli string and operator machinery against independent kron-built matrices."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    apply_single_qubit,
    expectation,
    identity,
    is_real,
    one_norm,
    scaled,
    support,
    term_diagonal,
)

from qetsim.pauli import (
    HermitianOperator,
    PauliString,
    _build_plan,
    _masks,
    axis_operator,
    dense_matrix,
    from_sites,
    inner,
    norm,
    single_site,
    split_by_support,
)
from qetsim.protocol import PreparedGround

I2 = np.eye(2)
PAULI = {
    "I": I2,
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def kron_matrix(term: PauliString) -> np.ndarray:
    """Independent dense reference: site 0 is the least significant bit."""
    mat = np.array([[1.0]])
    for letter in term.letters:
        mat = np.kron(PAULI[letter], mat)
    return term.coefficient * mat


def dense_reference(op: HermitianOperator) -> np.ndarray:
    return sum(kron_matrix(t) for t in op.terms)


def random_operator(n_sites: int, n_terms: int, rng) -> HermitianOperator:
    strings = []
    for _ in range(n_terms):
        pattern = "".join("IXYZ"[i] for i in rng.integers(0, 4, n_sites))
        strings.append(PauliString(float(rng.standard_normal()), pattern))
    return HermitianOperator.from_strings(n_sites, strings)


def test_single_qubit_letter_actions():
    x0 = HermitianOperator.from_strings(3, [single_site(3, 0, "X")])
    z0 = HermitianOperator.from_strings(3, [single_site(3, 0, "Z")])
    y0 = HermitianOperator.from_strings(3, [single_site(3, 0, "Y")])
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0  # |000>
    assert np.allclose(x0.apply(v)[1], 1.0)          # X flips bit 0
    assert np.allclose(z0.apply(v)[0], 1.0)          # Z leaves |0> alone
    assert np.allclose(y0.apply(v)[1], 1.0j)         # Y|0> = i|1>
    w = np.zeros(8, dtype=complex)
    w[1] = 1.0  # bit 0 set
    assert np.allclose(z0.apply(w)[1], -1.0)         # Z|1> = -|1>
    assert np.allclose(y0.apply(w)[0], -1.0j)        # Y|1> = -i|0>


def test_apply_matches_kron_dense():
    rng = np.random.default_rng(42)
    for _ in range(20):
        op = random_operator(5, 6, rng)
        ref = dense_reference(op)
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.max(np.abs(op.apply(v) - ref @ v)) < 1e-12
        assert np.max(np.abs(op.dense() - ref)) < 1e-12


def test_terms_sharing_an_x_mask_are_grouped():
    # X-mask 0b001 carries four terms (two with Y), X-mask 0 carries two
    complex_op = HermitianOperator.from_strings(3, [
        PauliString(0.7, "XII"), PauliString(-1.1, "XZI"), PauliString(0.4, "YII"),
        PauliString(1.3, "YZZ"), PauliString(-0.6, "IZI"), PauliString(0.25, "III")])
    # Y letters in pairs keep the matrix real: X-masks 0b001, 0b011 and 0
    real_op = HermitianOperator.from_strings(3, [
        PauliString(0.7, "XII"), PauliString(-1.1, "XZI"), PauliString(0.9, "XIZ"),
        PauliString(0.5, "YYI"), PauliString(-0.8, "XXZ"), PauliString(1.2, "XXI"),
        PauliString(-0.6, "IZI"), PauliString(0.25, "III")])
    assert not is_real(complex_op) and is_real(real_op)
    rng = np.random.default_rng(17)
    real_vec = rng.standard_normal(8)
    complex_vec = real_vec + 1j * rng.standard_normal(8)
    for op, n_groups in ((complex_op, 2), (real_op, 3)):
        ref = dense_reference(op)
        for v in (real_vec, complex_vec):
            assert np.max(np.abs(op.apply(v) - ref @ v)) < 1e-12
        assert len(_build_plan(op.n_sites, op.terms)[1]) == n_groups
    assert real_op.apply(real_vec).dtype == np.float64
    assert real_op.apply(complex_vec).dtype == np.complex128
    assert complex_op.apply(real_vec).dtype == np.complex128


def test_apply_on_a_single_site():
    op = HermitianOperator.from_strings(1, [PauliString(c, letter) for c, letter
                                            in zip((0.3, -0.7, 1.1, 0.5), "IXYZ")])
    ref = dense_reference(op)
    for v in (np.array([0.6, -0.8]), np.array([0.6, 0.8j])):
        assert np.max(np.abs(op.apply(v) - ref @ v)) < 1e-12


pauli_sums = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.floats(-2.0, 2.0, allow_nan=False),
                       st.text(alphabet="IXYZ", min_size=n, max_size=n)), max_size=10)))


@settings(max_examples=80, deadline=None)
@given(pauli_sums, st.integers(0, 2**32 - 1))
def test_apply_matches_kron_dense_on_random_sums(case, seed):
    n, terms = case
    strings = [PauliString(c, letters) for c, letters in terms]
    op = HermitianOperator.from_strings(n, strings)
    twin = HermitianOperator.from_strings(n, strings)
    before = (hash(op), repr(op))
    ref = dense_reference(op) if op.terms else np.zeros((1 << n, 1 << n))
    rng = np.random.default_rng(seed)
    for v in (rng.standard_normal(1 << n), rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)):
        assert np.max(np.abs(op.apply(v) - ref @ v)) < 1e-12 * max(1.0, one_norm(op))
    # applying leaves the operator as it was: equality, hashing and repr
    assert op == twin
    assert (hash(op), repr(op)) == before == (hash(twin), repr(twin))


# few coefficients, so that several X-mask groups share one and fold together
shared_coefficient_sums = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.sampled_from((-1.0, 0.5, 2.0)),
                       st.one_of(st.text(alphabet="IX", min_size=n, max_size=n),
                                 st.text(alphabet="IXYZ", min_size=n, max_size=n))),
             max_size=10),
    st.sampled_from((None, -1.0, 0.5, 2.0)),
    st.booleans()))


@settings(max_examples=120, deadline=None)
@given(shared_coefficient_sums, st.integers(0, 2**32 - 1))
def test_apply_folds_groups_that_share_a_coefficient(case, seed):
    n, terms, identity, odd_y = case
    strings = [PauliString(c, letters) for c, letters in terms]
    if identity is not None:        # an identity-only group
        strings.append(PauliString(identity, "I" * n))
    if odd_y:                       # one Y makes the operator non-real
        strings.append(single_site(n, n - 1, "Y", 0.5))
    op = HermitianOperator.from_strings(n, strings)
    ref = dense_reference(op) if op.terms else np.zeros((1 << n, 1 << n))
    rng = np.random.default_rng(seed)
    real_vec = rng.standard_normal(1 << n)
    for v in (real_vec, real_vec + 1j * rng.standard_normal(1 << n)):
        out = op.apply(v)
        assert np.max(np.abs(out - ref @ v)) < 1e-12 * max(1.0, one_norm(op))
        assert out.dtype == (np.float64 if is_real(op) and v.dtype == np.float64 else np.complex128)
    # every X-mask whose terms carry no Z-bit is one flip, folded under its coefficient
    plain = {}
    for term in op.terms:
        x, z, _ = _masks(term.letters)
        plain.setdefault(x, []).append((z, term.coefficient))
    plain = {x: members[0][1] for x, members in plain.items()
             if len(members) == 1 and members[0][0] == 0}
    _, diagonals, scalars = _build_plan(op.n_sites, op.terms)
    assert len(diagonals) + len(plain) == len({_masks(t.letters)[0] for t in op.terms})
    assert sorted(len(flips) for _, flips in scalars) == sorted(
        sum(c == d for c in plain.values()) for d in set(plain.values()))


# complex weights, multi-site Z strings and the identity among arbitrary strings
weighted_strings = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                          allow_infinity=False),
                       st.one_of(st.just("I" * n),
                                 st.text(alphabet="IZ", min_size=n, max_size=n),
                                 st.text(alphabet="IXYZ", min_size=n, max_size=n))),
             min_size=1, max_size=10)))


@settings(max_examples=120, deadline=None)
@given(weighted_strings)
def test_plan_diagonals_are_the_dense_matrix_entries(case):
    # X-mask x's group acts as M[i ^ x, i] = diag[i]; a diagonal of 2**t
    # entries repeats over the higher bits, and a scalar group is constant
    n, terms = case
    strings = [PauliString(c, letters) for c, letters in terms]
    mat = dense_matrix(terms, n)
    idx = np.arange(1 << n)
    bound = 1e-12 * max(1.0, sum(abs(c) for c, _ in terms))
    _, diagonals, scalars = _build_plan(n, strings)
    groups = list(diagonals) + [(flip, np.array([c])) for c, flips in scalars for flip in flips]
    masks = []
    for flip, diag in groups:
        x = sum(1 << (n - 1 - axis) for axis, s in enumerate(flip) if s.step == -1)
        masks.append(x)
        full = np.broadcast_to(diag, ((1 << n) // diag.size, diag.size)).reshape(-1)
        assert np.max(np.abs(full - mat[idx ^ x, idx])) <= bound
        members = [(s.coefficient * 1j ** s.letters.count("Y"), _masks(s.letters)[1])
                   for s in strings if _masks(s.letters)[0] == x]
        assert np.max(np.abs(full - term_diagonal(n, members))) <= bound
    assert sorted(masks) == sorted({_masks(s.letters)[0] for s in strings})


pauli_sum_pairs = st.integers(1, 4).flatmap(lambda n: st.tuples(*(
    st.lists(st.tuples(st.floats(-2.0, 2.0, allow_nan=False),
                       st.text(alphabet="IXYZ", min_size=n, max_size=n)), max_size=8)
    for _ in range(2))).map(lambda pair: (n, *pair)))


@settings(max_examples=120, deadline=None)
@given(pauli_sum_pairs)
def test_commutator_matches_dense_on_random_sums(case):
    n, terms_a, terms_b = case
    a = HermitianOperator.from_strings(n, [PauliString(c, letters) for c, letters in terms_a])
    b = HermitianOperator.from_strings(n, [PauliString(c, letters) for c, letters in terms_b])
    ref = 1j * (a.dense() @ b.dense() - b.dense() @ a.dense())
    assert np.max(np.abs(a.commutator(b).dense() - ref)) <= 1e-12


def test_commutator_of_single_letters():
    # i[X, Y] = i (2i Z) = -2 Z; a string commutes with itself and with
    # a string that differs from it on an even number of sites
    x, y, z = (HermitianOperator.from_strings(1, [PauliString(1.0, c)]) for c in "XYZ")
    assert x.commutator(y) == scaled(z, -2.0)
    assert not x.commutator(x).terms
    xx, yy = (HermitianOperator.from_strings(2, [PauliString(1.0, c * 2)]) for c in "XY")
    assert not xx.commutator(yy).terms
    with pytest.raises(ValueError, match="sizes"):
        x.commutator(xx)


def test_apply_is_linear():
    rng = np.random.default_rng(7)
    op = random_operator(6, 8, rng)
    for _ in range(10):
        u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        a, b = rng.standard_normal(2)
        lhs = op.apply(a * u + b * v)
        rhs = a * op.apply(u) + b * op.apply(v)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_self_adjointness_on_random_pairs():
    rng = np.random.default_rng(3)
    op = random_operator(6, 10, rng)
    scale = one_norm(op)
    for _ in range(10):
        u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        lhs = np.vdot(u, op.apply(v))
        rhs = np.vdot(op.apply(u), v)
        assert abs(lhs - rhs) < 1e-12 * scale * np.linalg.norm(u) * np.linalg.norm(v)


def test_canonicalization_merges_identical_patterns():
    a = PauliString(0.75, "XIZ")
    b = PauliString(0.25, "XIZ")
    op = HermitianOperator.from_strings(3, [a, b])
    assert len(op.terms) == 1
    assert op.terms[0].coefficient == pytest.approx(1.0)


def test_canonicalization_drops_cancelled_terms():
    a = PauliString(1.0, "XYI")
    b = PauliString(-1.0, "XYI")
    op = HermitianOperator.from_strings(3, [a, b])
    assert op.terms == ()
    assert np.allclose(op.apply(np.ones(8) / np.sqrt(8)), 0.0)


def test_non_real_combined_coefficient_rejected():
    with pytest.raises(ValueError, match="non-real"):
        HermitianOperator.from_strings(2, [PauliString(1.0j, "XI")])


def test_non_real_checks_are_relative_to_the_scale():
    # at 1e-13 an imaginary part as large as the real one is no rounding residue
    with pytest.raises(ValueError, match="non-real"):
        HermitianOperator.from_strings(2, [PauliString(1e-13 + 1e-13j, "XI")])
    not_hermitian = HermitianOperator(1, (PauliString(1e-13j, "X"),))
    with pytest.raises(ValueError, match="not Hermitian"):
        expectation(not_hermitian, np.ones(2) / np.sqrt(2))


def test_y_strings_are_hermitian():
    op = HermitianOperator.from_strings(3, [PauliString(0.5, "YYI"), PauliString(-1.5, "IYZ")])
    mat = op.dense()
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-14
    assert np.max(np.abs(mat - dense_reference(op))) < 1e-14


def test_dense_on_support_matches_kron():
    op = HermitianOperator.from_strings(5, [from_sites(5, 2.0, {1: "X", 3: "Z"}),
                                            from_sites(5, -0.5, {1: "Y"})])
    # reduced basis: bit 0 = site 1, bit 1 = site 3
    ref = 2.0 * np.kron(PAULI["Z"], PAULI["X"]) - 0.5 * np.kron(I2, PAULI["Y"])
    assert np.max(np.abs(op.dense(sites=(1, 3)) - ref)) < 1e-14


def test_dense_rejects_terms_outside_sites():
    op = HermitianOperator.from_strings(4, [from_sites(4, 1.0, {0: "X", 2: "X"})])
    with pytest.raises(ValueError, match="outside"):
        op.dense(sites=(0, 1))


chain_sums = st.integers(3, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.floats(-2.0, 2.0, allow_nan=False),
                       st.text(alphabet="IXYZ", min_size=n, max_size=n)), max_size=8)))


@settings(max_examples=150, deadline=None)
@given(chain_sums, st.data())
def test_dense_on_sites_is_the_operator_rebuilt_there(chains, case, data):
    # on a sorted site set holding every term's support, the matrix is the
    # kron reference of the strings rebuilt on those sites alone, entry for
    # entry, real or complex; PreparedGround's memoized copy is the same
    # matrix, read-only, and a term outside the sites raises on both routes
    n, terms = case
    op = HermitianOperator.from_strings(n, [PauliString(c, letters) for c, letters in terms])
    support_sites = {s for t in op.terms for s in support(t)}
    sites = tuple(sorted(support_sites | set(data.draw(st.sets(st.integers(0, n - 1))))))
    rebuilt = HermitianOperator(len(sites), tuple(
        PauliString(t.coefficient, "".join(t.letters[s] for s in sites)) for t in op.terms))
    expected = dense_reference(rebuilt) if op.terms else np.zeros((1 << len(sites),) * 2)
    mat = op.dense(sites)
    assert mat.dtype == (np.float64 if is_real(op) else np.complex128)
    assert np.array_equal(mat, expected)

    spec, res = chains(n)
    prepared = PreparedGround(spec, res.state)
    shared = prepared.dense(op, sites)
    assert shared.dtype == mat.dtype and np.array_equal(shared, mat)
    assert prepared.dense(op, sites) is shared and not shared.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        shared[0, 0] = 1.0
    if support_sites:
        dropped = data.draw(st.sampled_from(sorted(support_sites)))
        fewer = tuple(s for s in sites if s != dropped)
        for route in (op.dense, lambda s: prepared.dense(op, s)):
            with pytest.raises(ValueError, match="outside"):
                route(fewer)


def test_apply_single_qubit_matches_kron():
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    for site in range(4):
        ops = [I2] * 4
        ops[site] = mat
        full = np.array([[1.0]])
        for m in ops:
            full = np.kron(m, full)
        assert np.max(np.abs(apply_single_qubit(mat, v, site, 4) - full @ v)) < 1e-12


def test_split_by_support_preserves_expectations():
    rng = np.random.default_rng(5)
    op = HermitianOperator.from_strings(6, [from_sites(6, 1.3, {1: "X", 4: "Z"}),
                                            from_sites(6, 0.7, {4: "Y"})])
    sites = (1, 4)
    red = op.dense(sites=sites)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    v /= np.linalg.norm(v)
    blocks = split_by_support(v, sites, 6)
    via_blocks = np.einsum("pe,pq,qe->", blocks.conj(), red, blocks)
    assert abs(via_blocks - np.vdot(v, op.apply(v))) < 1e-12


def test_axis_operator_cardinal_directions():
    for letter, axis in (("X", (1, 0, 0)), ("Y", (0, 1, 0)), ("Z", (0, 0, 1))):
        op = axis_operator(axis, 1, 3)
        ref = HermitianOperator.from_strings(3, [single_site(3, 1, letter)])
        assert np.max(np.abs(op.dense() - ref.dense())) < 1e-14


def test_axis_operator_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        axis_operator((0.0, 0.0, 0.0), 0, 2)


def test_apply_rejects_wrong_dimension():
    for op in (HermitianOperator.from_strings(3, [single_site(3, 0, "Z")]),
               identity(3)):
        for bad in (np.zeros(4), np.zeros((8, 1))):
            with pytest.raises(ValueError, match="shape"):
                op.apply(bad)


def test_invalid_letter_rejected():
    with pytest.raises(ValueError, match="invalid"):
        PauliString(1.0, "XQZ")


@pytest.mark.parametrize("n_sites", range(4, 17))
def test_inner_and_norm_match_blas(n_sites):
    rng = np.random.default_rng(n_sites)
    dim = 1 << n_sites
    real_a, real_b = rng.standard_normal(dim), rng.standard_normal(dim)
    cplx_a = real_a + 1j * rng.standard_normal(dim)
    cplx_b = real_b + 1j * rng.standard_normal(dim)
    # a state's (2,)*N view against its flip on two axes, and the strided
    # quarter-length blocks of one bond that local_observables reads
    psi = cplx_a.reshape((2,) * n_sites)
    flipped = np.flip(psi, (0, n_sites - 1))
    bond = cplx_a.reshape(-1, 2, 2, 1 << (n_sites // 2))
    cases = [(real_a, real_b), (cplx_a, cplx_b), (real_a, cplx_b), (cplx_a, real_b),
             (psi, flipped), (bond[:, 0, 1], bond[:, 1, 0])]
    for a, b in cases:
        scale = np.linalg.norm(a) * np.linalg.norm(b)
        assert abs(inner(a, b) - np.vdot(a, b)) <= 1e-14 * scale
    for a in (real_a, cplx_a, psi):
        assert norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-14, abs=0.0)
    assert isinstance(norm(real_a), float)
    assert isinstance(inner(real_a, real_b), np.floating)


def test_inner_rejects_vectors_of_different_sizes():
    with pytest.raises(ValueError, match=r"shapes \(4,\) and \(8,\)"):
        inner(np.ones(4), np.ones(8))
    with pytest.raises(ValueError):
        inner(np.ones(1), np.ones(8))       # einsum alone would broadcast a length-1 vector
    with pytest.raises(ValueError):
        inner(np.ones(4), np.ones((2, 2)))  # a state and a reshaped copy are not paired


def test_no_blas_reductions_in_the_package():
    """State reductions in qetsim go through `pauli.inner`, never numpy's BLAS.

    A state-sized `np.vdot`, `np.inner` or `np.linalg.norm` wakes numpy's
    OpenBLAS thread pool, whose workers keep spinning after the call returns,
    which costs CPU time for no speed-up.  The results agree either way to
    rounding, so no functional test can see such a call come back; this one
    reads the source.
    """
    package = Path(__file__).parents[1] / "src" / "qetsim"
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text(encoding="utf-8")
        for name in ("np.vdot", "np.inner", "np.linalg.norm"):
            assert name not in text, f"{path.name} calls {name}; use qetsim.pauli.inner or norm"
