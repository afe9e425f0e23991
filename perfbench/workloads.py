"""The benchmark's three workloads, each with an independent correctness gate.

A workload enters qetsim through its most stable public surface: the
library's `chain.calibrated_chain` for `ground` (the CLI would need the
`--large` flag at 18 sites) and `cli.main` for `sweep` and `cool`.  The
seed is the only input that varies between runs; it is passed on as
`seed=` or `--seed`.

Each gate checks an operation's output against something computed without
qetsim: a free-fermion closed form, or a table recorded from an earlier
commit.  A gate returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qetsim import chain, cli

REFERENCE_SWEEP = Path(__file__).with_name("reference_sweep.json")

# Coupling J and eigensolver tolerance of every workload (the library and CLI defaults).
COUPLING = 1.0
TOL = 1e-10


def free_fermion_ground_energy(n_sites: int, coupling: float = COUPLING) -> float:
    """Ground energy of the bare periodic critical chain, -2J / sin(pi / 2N)."""
    return -2.0 * coupling / math.sin(math.pi / (2 * n_sites))


def residual_energy_formula(n_sites: int, coupling: float = COUPLING) -> float:
    """Minimum residual energy at axes (y, x): 3J / (N sin(pi / 2N)) - J, i.e. E_A - J."""
    return 3.0 * coupling / (n_sites * math.sin(math.pi / (2 * n_sites))) - coupling


def _run_cli(argv: list[str]) -> tuple[int, dict | None]:
    """cli.main with stdout captured; returns (exit code, parsed JSON or None)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    try:
        doc = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        doc = None
    return code, doc


def _site_expectations(state: np.ndarray, n_sites: int):
    """<Z_n> and <X_n X_{n+1}> (periodic) by index arithmetic on the amplitudes."""
    idx = np.arange(state.size)
    prob = np.abs(state) ** 2
    z = np.array([prob @ (1 - 2 * ((idx >> n) & 1)) for n in range(n_sites)])
    xx = np.array([np.real(np.vdot(state, state[idx ^ ((1 << n) | (1 << ((n + 1) % n_sites)))]))
                   for n in range(n_sites)])
    return z, xx


def _hamiltonian_residual(state: np.ndarray, energy: float, epsilon, n_sites: int,
                          coupling: float) -> float:
    """||H g - E g|| for the calibrated periodic chain, built from bit flips and signs."""
    idx = np.arange(state.size)
    z_total = sum(1 - 2 * ((idx >> n) & 1) for n in range(n_sites))
    hg = (-coupling * z_total - float(np.sum(epsilon))) * state
    for n in range(n_sites):
        hg -= coupling * state[idx ^ ((1 << n) | (1 << ((n + 1) % n_sites)))]
    return float(np.linalg.norm(hg - energy * state))


@dataclass(frozen=True)
class Ground:
    """`chain.calibrated_chain(N, seed=s)` on a periodic chain."""

    n_sites: int = 18
    name: str = "ground"

    def prepare(self, seed: int) -> dict:
        return {"seed": seed, "e0": free_fermion_ground_energy(self.n_sites)}

    def run(self, inputs: dict):
        return chain.calibrated_chain(self.n_sites, seed=inputs["seed"])

    def check(self, inputs: dict, output) -> list[str]:
        spec, res = output
        n, j = self.n_sites, spec.coupling
        problems = []
        e0 = float(np.sum(spec.epsilon))
        if abs(e0 - inputs["e0"]) > 1e-9 * j:
            problems.append(f"sum(epsilon) = {e0!r}, free-fermion value {inputs['e0']!r}")
        z, xx = _site_expectations(res.state, n)
        t_n = -j * z - 0.5 * j * (xx + np.roll(xx, 1)) - np.asarray(spec.epsilon)
        worst = float(np.max(np.abs(t_n)))
        if worst >= 1e-10 * j:
            problems.append(f"max |<T_n>| = {worst:.3e} J")
        residual = _hamiltonian_residual(res.state, res.energy, spec.epsilon, n, j)
        if not residual < 10 * TOL:
            problems.append(f"eigen residual {residual:.3e} >= 10 tol")
        return problems


@dataclass(frozen=True)
class Sweep:
    """`qetsim sweep --sizes 14,16 --axis-a best`: E_B against separation."""

    sizes: tuple[int, ...] = (14, 16)
    name: str = "sweep"

    def prepare(self, seed: int) -> dict:
        argv = ["sweep", "--sizes", ",".join(str(n) for n in self.sizes),
                "--axis-a", "best", "--seed", str(seed)]
        reference = json.loads(REFERENCE_SWEEP.read_text(encoding="utf-8"))
        table = {(r["n"], r["distance"]): r["e_b"] for r in reference["rows"]
                 if r["n"] in self.sizes}
        return {"argv": argv, "reference": table}

    def run(self, inputs: dict):
        return _run_cli(inputs["argv"])

    def check(self, inputs: dict, output) -> list[str]:
        return check_sweep(output, inputs["reference"])


def check_sweep(output, reference: dict) -> list[str]:
    """Exit code 0, the command's own monotonicity check, and E_B(N, d) against the table.

    The tolerance, 1e-9 J + 1e-6 |E_B|, is far above the 6e-13 spread between
    seeds and far below the gap between neighbouring separations.
    """
    code, doc = output
    if doc is None:
        return [f"exit code {code}, output is not JSON"]
    problems = [] if code == 0 else [f"exit code {code}"]
    if doc.get("checks", {}).get("eb_decreasing_with_distance") is not True:
        problems.append("eb_decreasing_with_distance is not true")
    got = {(r["n"], r["distance"]): r["eb_numeric"] for r in doc.get("rows", [])}
    if set(got) != set(reference):
        problems.append(f"rows {sorted(got)} differ from the reference rows {sorted(reference)}")
    for key in sorted(set(got) & set(reference)):
        if abs(got[key] - reference[key]) > 1e-9 * COUPLING + 1e-6 * abs(reference[key]):
            problems.append(f"E_B{key} = {got[key]!r}, reference {reference[key]!r}")
    return problems


@dataclass(frozen=True)
class Cool:
    """`qetsim cool --sites N --axis-a y --axis-b x` with the default search."""

    n_sites: int = 12
    name: str = "cool"

    def prepare(self, seed: int) -> dict:
        argv = ["cool", "--sites", str(self.n_sites), "--axis-a", "y", "--axis-b", "x",
                "--seed", str(seed)]
        return {"argv": argv, "e_r": residual_energy_formula(self.n_sites)}

    def run(self, inputs: dict):
        return _run_cli(inputs["argv"])

    def check(self, inputs: dict, output) -> list[str]:
        return check_cool(output, inputs["e_r"])


def check_cool(output, e_r_expected: float) -> list[str]:
    """Exit code 0, e_r against 3J/(N sin(pi/2N)) - J to 1e-6 J, and E_B <= e_r <= E_A."""
    code, doc = output
    if doc is None:
        return [f"exit code {code}, output is not JSON"]
    problems = [] if code == 0 else [f"exit code {code}"]
    e_r, e_a, e_b = doc["e_r_numeric"], doc["e_a"], doc["e_b"]
    if abs(e_r - e_r_expected) > 1e-6 * COUPLING:
        problems.append(f"e_r_numeric = {e_r!r}, closed form {e_r_expected!r}")
    if not e_b - 1e-8 * COUPLING <= e_r <= e_a + 1e-9 * COUPLING:
        problems.append(f"E_B <= e_r <= E_A fails: {e_b!r}, {e_r!r}, {e_a!r}")
    return problems


WORKLOADS = {w.name: w for w in (Ground(), Sweep(), Cool())}
