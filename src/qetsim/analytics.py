"""Closed-form predictions for the critical chain, evaluated in the log domain.

The separation dependence of the teleported energy is governed by

    Delta(n) = (2/pi)^n 2^(2n(n-1)) h(n)^4 / ((4n^2 - 1) h(2n)),
    h(n)     = prod_{k=1}^{n-1} k^(n-k),

whose raw factors overflow doubles beyond n ~ 15, so all products are kept
as log-sums and exponentiated last.  The teleported energy for separation n
and the residual energy left behind by the sender's best local cooling are

    E_B(n) = (2J/pi) [sqrt(1 + (pi Delta(n) / 2)^2) - 1],
    E_r    = (6/pi - 1) J.

Since h(n) = G(n+1), the Barnes G-function, Delta decays as the power law

    Delta(n) = (1/4) e^(1/4) 2^(1/12) A^-3 n^(-9/4) [1 + 15/(64 n^2) + O(n^-4)]

with A the Glaisher-Kinkelin constant, hence E_B ~ n^(-9/2): criticality
turns the usual exponential decay into a power law.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import check_coupling

GLAISHER_KINKELIN = 1.2824271291006226
# regression slope of ln E_B(n) against ln n over n = 20..200; it approaches
# -9/2 and is the same for every J, so it is a constant (the tests refit it)
CLOSED_FORM_SLOPE = -4.500283578608237


def log_h(n: int) -> float:
    """ln h(n) = sum_{k=1}^{n-1} (n-k) ln k; zero for n = 1 (empty product)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0.0
    k = np.arange(1, n)
    return float(np.dot(n - k, np.log(k)))


def log_delta(n: int) -> float:
    """ln Delta(n), assembled from log-factors to dodge overflow.

    The log-sums of order n^2 ln n cancel to O(ln n), leaving an absolute
    error of at most 1e-14 n^2 (3e-14 at n = 10, 6e-11 at n = 200).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n * math.log(2.0 / math.pi) + 2.0 * n * (n - 1) * math.log(2.0)
            + 4.0 * log_h(n) - math.log(4.0 * n * n - 1.0) - log_h(2 * n))


def delta(n: int) -> float:
    """Delta(n), to a relative error of at most 1e-14 n^2 (see log_delta)."""
    return math.exp(log_delta(n))


def eb_closed_form(n: int, coupling: float = 1.0) -> float:
    """Teleported energy at separation n.

    Uses sqrt(1 + x^2) - 1 = x^2 / (sqrt(1 + x^2) + 1) so that tiny Delta
    (large n) loses nothing to cancellation.
    """
    check_coupling(coupling)
    x = 0.5 * math.pi * delta(n)
    return (2.0 * coupling / math.pi) * x * x / (math.sqrt(1.0 + x * x) + 1.0)


def delta_asymptotic(n: int) -> float:
    """Leading large-n form of Delta: (1/4) e^(1/4) 2^(1/12) A^-3 n^(-9/4)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    prefactor = 0.25 * math.exp(0.25) * 2.0 ** (1.0 / 12.0) / GLAISHER_KINKELIN ** 3
    return prefactor * float(n) ** -2.25


def residual_energy_analytic(coupling: float = 1.0) -> float:
    """E_r = (6/pi - 1) J, the energy the sender cannot locally withdraw."""
    check_coupling(coupling)
    return (6.0 / math.pi - 1.0) * coupling
