"""Convergence orders: each method's error against the exact oracle falls as
the power of the small parameter that perturbation theory predicts.

A ceiling on the error cannot see a method lose an order (at g = 0.02,
orders 3 and 2 differ by a factor of 50, yet both pass a 1e-2 ceiling), so
each order is fitted as the slope of log max|dE| against log g, or log
omega0, and held to +/-0.3.
"""

import numpy as np
import pytest

from resonancekit.methods import grid_sweep
from resonancekit.operators import TruncationConfig

ORDER_TOLERANCE = 0.3
# 1e3 times the rounding floor 1e-14*max(|E|, omega) at |E| <= 10: a fit
# through errors below it would measure rounding, not the method.
ERROR_FLOOR = 1e-10


def _errors(method, omega0, grid, n_max, n_levels):
    """|E_method - E_exact| over ``grid``, levels paired by rank: (g, level)."""
    trunc = TruncationConfig(n_max=n_max)
    exact = grid_sweep("exact", 1.0, omega0, grid, trunc, n_levels)
    other = grid_sweep(method, 1.0, omega0, grid, trunc, n_levels)
    assert exact.ok.all() and other.ok.all(), other.errors
    return np.abs(other.energies - exact.energies)


def _order(x, errors):
    """Slope of the least-squares line through (log x, log errors)."""
    assert np.min(errors) >= ERROR_FLOOR
    return np.polyfit(np.log(x), np.log(errors), 1)[0]


@pytest.mark.parametrize("method, order", [
    ("jc", 2.0), ("rt1", 2.0), ("rt2", 2.0), ("strong_rt", 2.0), ("strong_avg", 1.0),
    ("rt1_kam", 3.0), ("rt_full_kam", 3.0),
])
def test_weak_field_order_in_g(method, order):
    # omega0 = omega: the dressed ladders leave out the second-order shift
    # (order 2), strong_avg averages at first order, and one contact step
    # removes the second order (order 3).
    grid = np.geomspace(1e-3, 0.1, 21)
    errors = _errors(method, 1.0, grid, 60, 6).max(axis=1)
    assert _order(grid, errors) == pytest.approx(order, abs=ORDER_TOLERANCE)


@pytest.mark.parametrize("method", ["rt1_kam", "rt_full_kam"])
def test_contact_step_order_on_twelve_levels(method):
    # Up to g = 0.12, where the error of one step is still far above rounding.
    grid = np.linspace(0.02, 0.12, 11)
    errors = _errors(method, 1.0, grid, 120, 12).max(axis=1)
    assert _order(grid, errors) == pytest.approx(3.0, abs=ORDER_TOLERANCE)


@pytest.mark.parametrize("method", ["strong_avg", "strong_rt"])
@pytest.mark.parametrize("g", [0.3, 1.0, 2.0])
def test_strong_field_order_in_omega0(method, g):
    # The displaced-frame forms treat the atomic splitting at first order
    # for any coupling, so their error is of second order in omega0.
    omega0 = np.geomspace(1e-3, 0.1, 9)
    errors = [_errors(method, w0, [g], 120, 12).max() for w0 in omega0]
    assert _order(omega0, errors) == pytest.approx(2.0, abs=ORDER_TOLERANCE)


def test_jc_misses_the_ground_state_shift_on_every_low_level():
    # The error is g^2/(omega + omega0), the second-order shift of the
    # ground state that the rotating-wave approximation leaves out.
    g = 1e-3
    errors = _errors("jc", 1.0, [g], 60, 8)[0]
    np.testing.assert_allclose(errors / g**2, 0.5, rtol=1e-2)
