"""State-vector route against the closed forms, plus the derived quantities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bellswap.angles import RationalAngle
from bellswap.quantum import (
    BELL_OUTCOMES,
    SECTOR_OUTCOMES,
    closed_grid,
    expectation_bell,
    expectation_singlet,
    prob_closed,
    sector_probability,
    simulate,
    simulate_grid,
)


def test_simulate_normalized():
    table = simulate([0.3, 1.1, -0.4, 2.0])
    assert table.shape == (2, 2, 4)
    assert np.all(table >= 0)
    assert math.isclose(table.sum(), 1.0, abs_tol=1e-12)


def test_simulate_accepts_rational_angles():
    phis = [RationalAngle(k, 4) for k in (1, 0, 2, 3)]
    a = simulate(phis)
    b = simulate([p.radians for p in phis])
    assert np.allclose(a, b, atol=0, rtol=0)


@pytest.mark.parametrize(
    "phis",
    [
        (0.0, 0.0, 0.0, 0.0),
        (0.3, 1.1, -0.4, 2.0),
        (0.25, 0.5, 0.75, 1.0),
        (1.234, 0.0, 0.0, 5.678),
    ],
)
def test_two_routes_agree_single(phis):
    assert np.max(np.abs(simulate(phis) - prob_closed(phis))) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_two_routes_agree_on_grid(n):
    assert np.max(np.abs(simulate_grid(n) - closed_grid(n))) < 1e-12


def test_grid_matches_pointwise_simulation():
    n = 2
    grid = simulate_grid(n)
    for k in range(2 * n):
        phis = (math.pi * k / n, 0.0, math.pi / n, math.pi * 3 / n)
        assert np.allclose(grid[k, 0, 1, 3], simulate(phis), atol=1e-14)


def test_perfect_correlation_values_at_zero():
    table = prob_closed((0.0, 0.0, 0.0, 0.0))
    psi_minus = BELL_OUTCOMES.index("psi_minus")
    phi_plus = BELL_OUTCOMES.index("phi_plus")
    # opposite polarizations carry the weight in the psi_minus outcome
    assert math.isclose(table[0, 1, psi_minus], 0.125, abs_tol=1e-15)
    assert math.isclose(table[1, 0, psi_minus], 0.125, abs_tol=1e-15)
    assert table[0, 0, psi_minus] == pytest.approx(0.0, abs=1e-15)
    # equal polarizations carry it in phi_plus
    assert math.isclose(table[0, 0, phi_plus], 0.125, abs_tol=1e-15)
    assert table[0, 1, phi_plus] == pytest.approx(0.0, abs=1e-15)


def test_only_angle_differences_matter():
    # shifting the first pair of angles together leaves the table unchanged
    base = simulate((0.1, 0.7, 0.2, 1.5))
    shifted = simulate((0.1 + 0.9, 0.7 + 0.9, 0.2, 1.5))
    assert np.allclose(base, shifted, atol=1e-14)


@pytest.mark.parametrize("zeta", [0.0, 0.2, math.pi / 4, math.pi / 2, 1.3])
def test_expectation_bell_matches_singlet_form(zeta):
    table = simulate((zeta, 0.0, 0.0, 0.0))
    e = expectation_bell(table, "psi_minus")
    assert math.isclose(e, expectation_singlet(zeta), abs_tol=1e-12)
    assert math.isclose(
        expectation_bell(table, "phi_plus"), math.cos(2 * zeta), abs_tol=1e-12
    )


def test_expectation_other_sector():
    # the minus sector responds to the other angle combination
    zeta = 0.37
    table = simulate((0.0, 0.0, zeta, 0.0))
    # zeta_minus = -zeta here, cosine is even
    assert math.isclose(
        expectation_bell(table, "phi_minus"), math.cos(2 * zeta), abs_tol=1e-12
    )
    assert math.isclose(
        expectation_bell(table, "psi_plus"), -math.cos(2 * zeta), abs_tol=1e-12
    )


def test_expectation_singlet_accepts_rational():
    assert expectation_singlet(RationalAngle(0, 4)) == -1.0
    assert math.isclose(expectation_singlet(RationalAngle(2, 4)), 1.0, abs_tol=1e-15)
    assert math.isclose(expectation_singlet(RationalAngle(1, 4)), 0.0, abs_tol=1e-15)


@pytest.mark.parametrize("sector", [1, -1])
def test_sector_probability_half(sector):
    table = simulate((0.3, 1.1, -0.4, 2.0))
    assert math.isclose(sector_probability(table, sector), 0.5, abs_tol=1e-12)


def test_sector_outcomes_partition_bell_basis():
    named = [b for s in SECTOR_OUTCOMES.values() for b in s]
    assert sorted(named) == sorted(BELL_OUTCOMES)
