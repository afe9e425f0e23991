"""Weighted Pauli strings and Hermitian operators applied matrix-free to state vectors.

Basis convention used everywhere in this package: a state of N qubits is a
complex vector of length 2**N, and bit n of the basis index is the spin at
site n (little-endian).  Bit value 0 is the sigma^z eigenvalue +1.

A Pauli string is stored as a per-site letter pattern such as "IXZY".  For
application we encode the pattern as two bitmasks (X-type flips, Z-type
signs); a letter Y sets both bits and contributes one factor of i, so that
every string with a real coefficient is Hermitian.  Applying a string never
builds a matrix: X-bits permute amplitudes, Z-bits flip signs.

An operator is applied from a plan that `apply` builds on each call and does
not keep: operators are frozen and hold only their terms, and the package
applies each one once, to check a ground state's residual.  Terms that share
an X-mask are one group; the group's Z-masks, coefficients and factors of i
sum to a single diagonal over the basis (a scalar when no term in the group
has a Z-bit).  It is built in one fresh array by splitting the terms on
their highest Z-bit, so the chain's N single-site Z terms take O(2**N) work,
and it stops at that bit, above which it repeats.  Viewing a state as an
array of shape (2,)*N, with site n on axis N-1-n, flipping bit n is
reversing that axis.  X-mask 0's diagonal takes the product with `vec` in
place and is the output.  Scalar groups of coefficient +-1 add or subtract
their flipped `vec` straight into it, other scalar groups add theirs into
one accumulator per coefficient, scaled once, and any other diagonal adds
`diag * vec` through its flip.  For the Ising H - E0, whose N bonds all
carry -J = -1, that is one fresh 2**N array and N + 1 passes after the
diagonal.  A real state's flips read through its complex128 pair view, or
through its even and odd halves, where a plain reversed axis would make
numpy's inner loop short (`_flip_views`).  No index arrays are built.

Every whole-state reduction, an inner product or a norm, goes through
`inner` (or `norm`, built on it), never numpy's `vdot`, `inner` or
`linalg.norm`.  Such a BLAS call wakes numpy's OpenBLAS thread pool, whose
workers keep spinning after it returns, through work that calls no BLAS:
twenty BLAS dot products of 2**18 elements, interleaved with 1.8 s of
elementwise numpy, cost 3.5 s of CPU time on 2 vCPUs, against 1.8 s with
einsum.  `inner` is an einsum, which runs its own loops.  A rank-k product
with at most 16 rows is the exception: a reduced density matrix g g^dag of
the (2^k, 2^(N-k)) array from `split_by_support` is a dsyrk for a real
state, which OpenBLAS keeps on the calling thread.  Nine 4-site ones take
4.8 ms at N = 18 against 14.2 ms by einsum, and CPU time equalled wall
time at every N up to 20 on 2 vCPUs.  A complex state's zgemm, threaded on
six sites from N = 18 (CPU time 1.9 times wall time), is not on the three
and four sites the protocol reads (0.93 to 1.00 times, N = 16 to 20).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LETTERS = "IXYZ"


def inner(a: np.ndarray, b: np.ndarray):
    """<a|b> of two arrays of one shape, summed by einsum's own loops rather than BLAS."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"inner product of arrays of shapes {a.shape} and {b.shape}")
    axes = list(range(a.ndim))
    # ndarray.conj returns a real array itself, where np.conj would copy it
    return np.einsum(a.conj(), axes, b, axes, [])


def norm(a: np.ndarray) -> float:
    """||a|| = sqrt(Re <a|a>), without BLAS (see `inner`)."""
    return math.sqrt(float(inner(a, a).real))


def _letter_products() -> dict[tuple[str, str], tuple[complex, str]]:
    """Single-site products a * b = phase * c, keyed by (a, b)."""
    table = {(a, b): (1, b if a == "I" else a if b == "I" else "I")
             for a in LETTERS for b in LETTERS}
    for a, b, c in ("XYZ", "YZX", "ZXY"):
        table[a, b] = (1j, c)
        table[b, a] = (-1j, c)
    return table


_PRODUCT = _letter_products()


@dataclass(frozen=True)
class PauliString:
    """One term of an operator: coefficient times a tensor product of Pauli letters."""

    coefficient: complex
    letters: str

    def __post_init__(self):
        bad = set(self.letters) - set(LETTERS)
        if bad:
            raise ValueError(f"invalid Pauli letters {sorted(bad)} in {self.letters!r}")

    @property
    def n_sites(self) -> int:
        return len(self.letters)


def _masks(letters: str) -> tuple[int, int, int]:
    """(x_mask, z_mask, n_y) of a letter pattern: bit n set where site n flips or signs."""
    x = z = ny = 0
    for n, c in enumerate(letters):
        if c in "XY":
            x |= 1 << n
        if c in "ZY":
            z |= 1 << n
        if c == "Y":
            ny += 1
    return x, z, ny


def _z_diagonal(members, dtype, out=None) -> np.ndarray:
    """sum c (-1)**popcount(i & z) over the (c, z) members, for i < 2**t, bit t-1 the top Z-bit.

    With d_lo from the terms without bit t-1 and d_hi from the others with it
    cleared, each repeated to 2**(t-1) entries, it is [d_lo + d_hi, d_lo - d_hi].
    d_lo is built at the front of the result and repeated from there, so only
    d_hi, a few entries for the chain's single-site Z terms, takes an array
    of its own.  Given `out`, the result is its front 2**t entries.
    """
    top = max((z for _, z in members), default=0).bit_length()
    diag = np.empty(1 << top, dtype) if out is None else out[:1 << top]
    if top == 0:
        diag[0] = sum(c for c, _ in members)
        return diag
    bit = 1 << (top - 1)
    d_lo = _z_diagonal([(c, z) for c, z in members if not z & bit], dtype, diag)
    d_hi = _z_diagonal([(c, z ^ bit) for c, z in members if z & bit], dtype)
    rows = diag.reshape(-1, d_lo.size)
    rows[1:] = rows[0]
    rows = diag.reshape(2, -1, d_hi.size)
    rows[0] += d_hi
    rows[1] -= d_hi
    return diag


def _build_plan(terms) -> tuple[bool, tuple, tuple]:
    """(is_real, ((x_mask, diagonal), ...), ((coefficient, (x_mask, ...)), ...)).

    The second entry holds one pair per X-mask whose group has a Z-bit, its
    diagonal a fresh array from `_z_diagonal`, in increasing X-mask order, so
    X-mask 0 comes first; the third folds the X-masks with a scalar diagonal
    by that scalar.
    """
    groups: dict[int, list[tuple[complex, int]]] = {}
    for term in terms:
        x, z, n_y = _masks(term.letters)
        groups.setdefault(x, []).append((complex(term.coefficient) * (1j) ** n_y, z))
    is_real = all(c.imag == 0.0 for members in groups.values() for c, _ in members)
    diagonals = []
    scalars: dict[complex, list[int]] = {}
    for x, members in sorted(groups.items()):
        if is_real:
            members = [(c.real, z) for c, z in members]
        if all(z == 0 for _, z in members):
            scalars.setdefault(sum(c for c, _ in members), []).append(x)
            continue
        diagonals.append((x, _z_diagonal(members, np.float64 if is_real else np.complex128)))
    return is_real, tuple(diagonals), tuple((c, tuple(masks)) for c, masks in scalars.items())


def _reversed(x: int, n_axes: int) -> tuple:
    """The index of a (2,)*n_axes view, bit n on axis n_axes-1-n, that reverses X-mask x's axes."""
    return tuple(slice(None, None, -1) if x >> (n_axes - 1 - axis) & 1 else slice(None)
                 for axis in range(n_axes))


def _flip_views(x: int, dst: np.ndarray, src: np.ndarray) -> tuple:
    """Pairs (d, s) of views that tile `dst`, s reading `src` at d's indices XOR x.

    Both are contiguous arrays of length 2**N.  A reversed axis low in the
    index makes numpy's inner loop a few elements long, so two real arrays
    take other views.  Without bit 0, the complex128 view of the float pairs
    carries bit 0 inside each element (the bits 1-2 bond at N = 18: 0.78 ms
    to 0.27 ms).  With bit 0 but not bits 1 or 2, as on the closing bond,
    the even and odd halves read each other through a high flip (0.47 ms to
    0.35 ms).  Complex arrays, and the bonds on bits 0-1 and 0-2, are
    faster as they are.
    """
    n = dst.size.bit_length() - 1
    if dst.dtype == src.dtype == np.float64 and n:
        if not x & 1:
            d, s = (a.view(np.complex128).reshape((2,) * (n - 1)) for a in (dst, src))
            return ((d, s[_reversed(x >> 1, n - 1)]),)
        if not x & 0b110:
            d, s = (a.reshape((2,) * n) for a in (dst, src))
            flip = _reversed(x >> 1, n - 1)
            return ((d[..., 0], s[..., 1][flip]), (d[..., 1], s[..., 0][flip]))
    return ((dst.reshape((2,) * n), src.reshape((2,) * n)[_reversed(x, n)]),)


def dense_matrix(pattern, n_sites: int) -> np.ndarray:
    """The matrix of a pattern of (coefficient, letters) terms on n_sites sites.

    Each term is a signed permutation: column i holds its phase times
    (-1)**popcount(i & z_mask) in row i ^ x_mask, so every entry is an exact
    sum of +-phase values, added in the pattern's order by one unbuffered
    `np.add.at`.  float64 when no term has an odd number of Y letters,
    complex128 otherwise.
    """
    idx = np.arange(1 << n_sites)
    masks = [_masks(letters) for _, letters in pattern]
    phases = [complex(c) * (1j) ** n_y for (c, _), (_, _, n_y) in zip(pattern, masks)]
    is_real = all(phase.imag == 0.0 for phase in phases)
    x, z = np.array([m[:2] for m in masks], dtype=np.intp).reshape(-1, 2).T
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & z[:, None]) & 1)   # bitwise_count gives uint8
    values = np.array([p.real for p in phases] if is_real else phases)[:, None] * signs
    mat = np.zeros((idx.size, idx.size), np.float64 if is_real else np.complex128)
    np.add.at(mat.reshape(-1), ((idx ^ x[:, None]) << n_sites | idx).ravel(), values.ravel())
    return mat


def single_site(n_sites: int, site: int, letter: str, coefficient: complex = 1.0) -> PauliString:
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    pattern = ["I"] * n_sites
    pattern[site] = letter
    return PauliString(coefficient, "".join(pattern))


def from_sites(n_sites: int, coefficient: complex, ops: dict[int, str]) -> PauliString:
    """Pauli string with the given letter at each listed site, identity elsewhere."""
    pattern = ["I"] * n_sites
    for site, letter in ops.items():
        if not 0 <= site < n_sites:
            raise ValueError(f"site {site} out of range for {n_sites} sites")
        if pattern[site] != "I":
            raise ValueError(f"site {site} listed twice")
        pattern[site] = letter
    return PauliString(coefficient, "".join(pattern))


@dataclass(frozen=True)
class HermitianOperator:
    """Canonicalized sum of Pauli strings with real coefficients.

    Construct through :meth:`from_strings`, which merges identical letter
    patterns and checks that the combined coefficients are real (each Pauli
    string is itself Hermitian, so real weights are exactly the Hermiticity
    condition).
    """

    n_sites: int
    terms: tuple[PauliString, ...]

    def __post_init__(self):
        if any(term.n_sites != self.n_sites for term in self.terms):
            raise ValueError("term length does not match n_sites")

    @classmethod
    def from_strings(cls, n_sites: int, strings,
                     drop_tol: float | None = None) -> "HermitianOperator":
        """Canonicalize: merge identical patterns, require real sums, drop tiny terms."""
        acc: dict[str, complex] = {}
        for s in strings:
            if len(s.letters) != n_sites:
                raise ValueError("string length does not match n_sites")
            acc[s.letters] = acc.get(s.letters, 0.0) + complex(s.coefficient)
        scale = max((abs(c) for c in acc.values()), default=0.0)
        if drop_tol is None:
            drop_tol = 1e-15 * scale
        terms = []
        for letters in sorted(acc):
            c = acc[letters]
            if abs(c) <= drop_tol:
                continue
            if abs(c.imag) > 1e-12 * abs(c):
                raise ValueError(f"non-real coefficient {c} for pattern {letters!r}")
            terms.append(PauliString(c.real, letters))
        return cls(n_sites, tuple(terms))

    def acting_on(self, site: int) -> "HermitianOperator":
        """The terms with a letter at `site`: the only part that can fail to commute there."""
        terms = tuple(t for t in self.terms if t.letters[site] != "I")
        return HermitianOperator(self.n_sites, terms)

    def commutator(self, other: "HermitianOperator") -> "HermitianOperator":
        """i[A, B] as a canonical Pauli sum, built from exact string products.

        Strings P and Q commute exactly when P Q is Hermitian, i.e. when the
        site-by-site product phase is real; otherwise P Q = -Q P = +-i R and
        the pair contributes 2i a b P Q, a real multiple of the string R.
        :meth:`from_strings` merges repeated patterns and drops those that
        cancel, so the result has no terms exactly when A and B commute.
        """
        if other.n_sites != self.n_sites:
            raise ValueError("operator sizes differ")
        strings = []
        for p in self.terms:
            for q in other.terms:
                phase = 1
                letters = []
                for a, b in zip(p.letters, q.letters):
                    factor, c = _PRODUCT[a, b]
                    phase *= factor
                    letters.append(c)
                if phase.imag:
                    strings.append(PauliString(2j * phase * p.coefficient * q.coefficient,
                                               "".join(letters)))
        return HermitianOperator.from_strings(self.n_sites, strings)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """O @ vec without forming a matrix, from a plan built by `_build_plan` on each call.

        X-mask 0's diagonal is the output when it has 2**N entries of the
        output's dtype; a work array is allocated only for an accumulator
        beside it or a flipped diagonal (see the module docstring).  The
        output is float64 for a real operator and a real state, complex128
        otherwise.
        """
        size = 1 << self.n_sites
        vec = np.asarray(vec)
        if vec.shape != (size,):
            raise ValueError(f"state has shape {vec.shape}, expected ({size},)")
        vec = np.ascontiguousarray(vec)
        is_real, diagonals, scalars = _build_plan(self.terms)
        dtype = np.result_type(vec.dtype, np.float64 if is_real else np.complex128)
        out = work = None
        if diagonals and diagonals[0][0] == 0:
            (_, diag), diagonals = diagonals[0], diagonals[1:]
            # numpy copies an input that overlaps the output unless both are one view
            diag = diag.reshape(1, -1)
            own = diag.size == size and diag.dtype == dtype
            out = np.multiply(diag, vec.reshape(-1, diag.size),
                              out=diag if own else None).reshape(-1)
        for coefficient, masks in scalars:
            if out is not None and coefficient in (1, -1):
                ufunc = np.add if coefficient == 1 else np.subtract
                for x in masks:
                    for d, s in _flip_views(x, out, vec):
                        ufunc(d, s, out=d)
                continue
            if out is None:
                acc = out = np.empty(size, dtype)
            else:
                acc = work = np.empty(size, dtype) if work is None else work
            for k, x in enumerate(masks):
                for d, s in _flip_views(x, acc, vec):
                    if k:
                        d += s
                    else:
                        np.copyto(d, s)
            acc *= coefficient
            if acc is not out:
                out += acc
        for x, diag in diagonals:
            work = np.empty(size, dtype) if work is None else work
            np.multiply(diag, vec.reshape(-1, diag.size), out=work.reshape(-1, diag.size))
            if out is None:
                out = np.zeros(size, dtype)
            for d, s in _flip_views(x, out, work):
                d += s
        return np.zeros(size, dtype) if out is None else out

    def restricted(self, sites: tuple[int, ...]) -> tuple[tuple[float, str], ...]:
        """Each term's (coefficient, letters at `sites`): the operator's pattern on those sites.

        Raises ValueError when a term acts outside `sites`.  The pattern fixes
        the matrix on the sites, so operators at different sites that share it
        share their matrix (see `protocol.PreparedGround.dense`).
        """
        pattern = []
        for term in self.terms:
            letters = "".join(map(term.letters.__getitem__, sites))
            if len(letters) - letters.count("I") != self.n_sites - term.letters.count("I"):
                raise ValueError(f"term {term.letters!r} acts outside sites {tuple(sites)}")
            pattern.append((term.coefficient, letters))
        return tuple(pattern)

    def dense(self, sites: tuple[int, ...] | None = None) -> np.ndarray:
        """Dense matrix, optionally restricted to a sorted tuple of support sites.

        The restricted basis is little-endian over `sites`: bit j of the
        reduced index is the spin at sites[j].  Every term must act as the
        identity outside `sites`.  Nothing is memoized here: each call builds
        a fresh, writable matrix from `restricted(sites)` by `dense_matrix`.
        """
        sites = tuple(range(self.n_sites)) if sites is None else tuple(sites)
        return dense_matrix(self.restricted(sites), len(sites))


def axis_operator(axis, site: int, n_sites: int) -> HermitianOperator:
    """axis . sigma at one site: ax*X + ay*Y + az*Z for a real 3-vector axis."""
    ax, ay, az = (float(a) for a in axis)
    if ax == ay == az == 0.0:
        raise ValueError("axis vector is zero")
    strings = [single_site(n_sites, site, letter, a)
               for letter, a in zip("XYZ", (ax, ay, az)) if a != 0.0]
    return HermitianOperator.from_strings(n_sites, strings, drop_tol=0.0)


def split_by_support(vec: np.ndarray, sites: tuple[int, ...], n_sites: int) -> np.ndarray:
    """Reshape a state into (2^k, 2^(N-k)): support index x environment index.

    The support index is little-endian over `sites` in the given order, the
    same convention as :meth:`HermitianOperator.dense` with a `sites` tuple.
    """
    sites = tuple(sites)
    vec = np.asarray(vec).reshape((2,) * n_sites)
    env = [s for s in range(n_sites) if s not in sites]
    # C-order reshape puts site N-1 on axis 0, so axis for site s is N-1-s.
    order = [n_sites - 1 - s for s in reversed(sites)] + [n_sites - 1 - s for s in reversed(env)]
    return vec.transpose(order).reshape(1 << len(sites), 1 << len(env))
