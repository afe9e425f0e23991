"""Energy teleportation on critical Ising chains: simulator and closed-form checks."""

from .analytics import delta, eb_closed_form, residual_energy_analytic
from .chain import ChainSpec, build_energy_density, build_hamiltonian, calibrated_chain
from .cooling import CoolingResult, LocalChannel, minimize_residual
from .eigensolver import EigenResult
from .pauli import HermitianOperator, PauliString
from .protocol import MeasurementSetup, ProtocolResult, axis_sweep, run_protocol

__all__ = [
    "ChainSpec",
    "CoolingResult",
    "EigenResult",
    "HermitianOperator",
    "LocalChannel",
    "MeasurementSetup",
    "PauliString",
    "ProtocolResult",
    "axis_sweep",
    "build_energy_density",
    "build_hamiltonian",
    "calibrated_chain",
    "delta",
    "eb_closed_form",
    "minimize_residual",
    "residual_energy_analytic",
    "run_protocol",
]

__version__ = "0.1.0"
