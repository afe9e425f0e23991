"""Closed-form quantities against exact-integer and high-precision oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from oracles import power_law_slope

from qetsim.analytics import (
    CLOSED_FORM_SLOPE,
    GLAISHER_KINKELIN,
    delta,
    delta_asymptotic,
    eb_closed_form,
    log_delta,
    log_h,
    residual_energy_analytic,
)

mp.mp.dps = 60


def h_exact(n: int) -> int:
    """prod_{k=1}^{n-1} k^(n-k) as an exact integer."""
    out = 1
    for k in range(1, n):
        out *= k ** (n - k)
    return out


def delta_highprec(n: int) -> mp.mpf:
    num = mp.mpf(2) ** (2 * n * (n - 1)) * mp.mpf(h_exact(n)) ** 4
    den = mp.mpf(4 * n * n - 1) * mp.mpf(h_exact(2 * n))
    return (mp.mpf(2) / mp.pi) ** n * num / den


def test_log_h_small_values():
    assert log_h(1) == 0.0                                   # empty product
    assert log_h(2) == pytest.approx(0.0, abs=1e-15)         # 1^1
    assert log_h(4) == pytest.approx(math.log(12.0), rel=1e-14)   # 1^3 2^2 3^1


def test_log_h_matches_big_integer_oracle():
    for n in (10, 30, 50):
        exact = float(mp.log(h_exact(n)))
        assert log_h(n) == pytest.approx(exact, rel=1e-12)


def test_log_h_rejects_invalid_argument():
    with pytest.raises(ValueError):
        log_h(0)
    with pytest.raises(ValueError):
        log_delta(0)


def test_delta_hand_values():
    assert delta(1) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-12)
    assert delta(2) == pytest.approx(16.0 / (45.0 * math.pi ** 2), rel=1e-12)


def test_delta_matches_high_precision_oracle():
    for n in range(1, 13):
        assert delta(n) == pytest.approx(float(delta_highprec(n)), rel=1e-12)


def test_delta_relative_error_bound_against_barnes_g():
    # Delta through h(n) = G(n+1); the log-sum cancellation costs at most 1e-14 n^2
    for n in (10, 50, 100, 200, 300):
        exact = ((mp.mpf(2) / mp.pi) ** n * mp.mpf(2) ** (2 * n * (n - 1))
                 * mp.barnesg(n + 1) ** 4 / ((4 * n * n - 1) * mp.barnesg(2 * n + 1)))
        assert abs(delta(n) / exact - 1) <= 1e-14 * n * n


def test_delta_strictly_decreasing():
    values = [delta(n) for n in range(1, 61)]
    assert all(a > b > 0.0 for a, b in zip(values, values[1:]))


def test_log_domain_survives_overflow_region():
    # raw factors overflow doubles around n ~ 16; the log route must not
    assert math.isfinite(log_delta(200))
    assert delta(200) < 1e-4


def test_eb_closed_form_hand_value():
    # pi/2 * Delta(1) = 1/3, so E_B = (2/pi)(sqrt(10)/3 - 1)
    expected = (2.0 / math.pi) * (math.sqrt(10.0) / 3.0 - 1.0)
    assert expected == pytest.approx(0.034436389025579124, rel=1e-12)
    assert eb_closed_form(1, 1.0) == pytest.approx(expected, rel=1e-12)


def test_eb_positive_and_vanishing_with_delta():
    values = [eb_closed_form(n) for n in range(1, 40)]
    assert all(v > 0.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert eb_closed_form(200) < 1e-11


def test_eb_cancellation_safe_for_tiny_delta():
    x = 0.5 * math.pi * delta(2000)
    naive_would_vanish = math.sqrt(1.0 + x * x) - 1.0
    assert naive_would_vanish == 0.0            # doubles lose it entirely
    assert eb_closed_form(2000) > 0.0


def test_power_law_doubling_ratio():
    # ln E_B(n) - ln E_B(2n) -> (9/2) ln 2
    target = 4.5 * math.log(2.0)
    gap_100 = math.log(eb_closed_form(100)) - math.log(eb_closed_form(200))
    assert gap_100 == pytest.approx(target, abs=1e-3)
    gap_50 = math.log(eb_closed_form(50)) - math.log(eb_closed_form(100))
    assert abs(gap_100 - target) < abs(gap_50 - target)


def test_power_law_regression_slope():
    assert power_law_slope() == pytest.approx(-4.5, abs=0.05)


def test_closed_form_slope_is_the_regression_slope():
    # the CLI reports the constant; refitting E_B(n) over n = 20..200 re-derives it
    assert abs(CLOSED_FORM_SLOPE - power_law_slope(20, 200)) <= 1e-12


def test_asymptotic_prefactor_printed_constant():
    # (1/4) e^(1/4) 2^(1/12) / A^3, checked against high-precision arithmetic
    expected = (mp.mpf(1) / 4 * mp.e ** mp.mpf("0.25")
                * mp.mpf(2) ** (mp.mpf(1) / 12) / mp.glaisher ** 3)
    assert float(expected) == 0.16125061212739428
    assert abs(delta_asymptotic(1) / expected - 1) <= 1e-14


def test_asymptotic_ratio_follows_15_over_64n2():
    # Delta(n) / asymptotic = 1 + 15/(64 n^2) + O(n^-4); past n ~ 200 the
    # rounding of delta itself exceeds K n^-4
    for n in range(1, 101):
        ratio = delta(n) / delta_asymptotic(n)
        assert abs(ratio - 1.0 - 15.0 / (64.0 * n * n)) <= 0.09 / n ** 4


def test_local_power_law_exponent_approaches_nine_quarters():
    # -d ln Delta / d ln n over (n, n+1) creeps up to 9/4
    def local_exponent(n):
        return -(log_delta(n + 1) - log_delta(n)) / (math.log(n + 1) - math.log(n))

    assert abs(local_exponent(100) - 2.25) < abs(local_exponent(10) - 2.25)
    assert local_exponent(200) == pytest.approx(2.25, abs=1e-2)


def test_glaisher_kinkelin_and_barnes_g():
    # h(n) = G(n+1), so c in the asymptotic form is exactly A
    assert GLAISHER_KINKELIN == float(mp.glaisher)
    for n in range(1, 41):
        assert abs(log_h(n) - float(mp.log(mp.barnesg(n + 1)))) <= 1e-12


def test_residual_energy_value_and_scaling():
    assert residual_energy_analytic(1.0) == pytest.approx(
        0.9098593171027440, rel=1e-12)
    assert residual_energy_analytic(2.5) == pytest.approx(
        2.5 * (6.0 / math.pi - 1.0), rel=1e-12)


def test_residual_energy_dominates_teleported_energy():
    e_r = residual_energy_analytic()
    assert all(e_r > eb_closed_form(n) for n in range(1, 101))


def test_coupling_must_be_positive():
    for coupling in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="coupling J must be positive"):
            eb_closed_form(1, coupling)
        with pytest.raises(ValueError, match="coupling J must be positive"):
            residual_energy_analytic(coupling)
