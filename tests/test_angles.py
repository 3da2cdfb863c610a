"""Grid angles and the signs the correlation law demands on them."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bellswap.angles import (
    GridError,
    RationalAngle,
    correlation_index,
    required_sign,
    sign_table,
)


def test_canonical_range():
    assert RationalAngle(9, 4).steps == 1
    assert RationalAngle(-1, 4).steps == 7
    assert RationalAngle(8, 4).steps == 0


def test_positive_resolution_required():
    with pytest.raises(GridError):
        RationalAngle(1, 0)
    with pytest.raises(GridError):
        RationalAngle(1, -3)


def test_value_equality_across_grids():
    assert RationalAngle(1, 2) == RationalAngle(2, 4)
    assert RationalAngle(1, 2) != RationalAngle(1, 4)
    assert hash(RationalAngle(1, 2)) == hash(RationalAngle(2, 4))
    assert RationalAngle(3, 4) != "3/4"


def test_radians_and_turns():
    a = RationalAngle(3, 4)
    assert math.isclose(a.radians, 3 * math.pi / 4)
    assert a.turns == 0.75


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_classify_matches_cosine(n):
    # +1 iff cos^2 is 1, -1 iff cos^2 is 0, within float tolerance
    for k in range(2 * n):
        sign = required_sign(k, n)
        cos2 = math.cos(math.pi * k / n) ** 2
        if sign == 1:
            assert math.isclose(cos2, 1.0, abs_tol=1e-12)
        elif sign == -1:
            assert math.isclose(cos2, 0.0, abs_tol=1e-12)
        else:
            assert 1e-12 < cos2 < 1 - 1e-12


def test_odd_grid_has_no_minus():
    for n in (1, 3, 5, 7):
        assert all(required_sign(k, n) != -1 for k in range(2 * n))


def test_required_sign():
    # on the pi/4 grid: 0 and pi demand +1, pi/2 and 3pi/2 demand -1
    assert [required_sign(k, 4) for k in range(8)] == [1, 0, -1, 0, 1, 0, -1, 0]
    assert required_sign(-2, 4) == required_sign(6, 4) == -1
    assert [required_sign(k, 1) for k in range(2)] == [1, 1]


@pytest.mark.parametrize("sector", [1, -1])
def test_correlation_index_formula(sector):
    n = 4
    expected = (3 - 1 + sector * (6 - 2)) % (2 * n)
    assert correlation_index(3, 1, 6, 2, sector, n) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("sector", [1, -1])
def test_sign_table_matches_pointwise(n, sector):
    table = sign_table(n, sector)
    m = 2 * n
    assert table.shape == (m, m, m, m)
    for k1 in range(m):
        for k2 in range(m):
            for k3 in range(m):
                for k4 in range(m):
                    z = correlation_index(k1, k2, k3, k4, sector, n)
                    want = required_sign(z, n)
                    assert table[k1, k2, k3, k4] == want


def test_sign_table_cached_and_readonly():
    t1 = sign_table(4, 1)
    t2 = sign_table(4, 1)
    assert t1 is t2
    with pytest.raises(ValueError):
        t1[0, 0, 0, 0] = 0


def test_sign_table_sector_balance():
    # on the default grid both sectors constrain the same number of tuples
    plus = sign_table(4, 1)
    minus = sign_table(4, -1)
    assert np.count_nonzero(plus) == np.count_nonzero(minus)
    assert (plus == 1).sum() == (plus == -1).sum() * 1  # n=4: both classes hit
    assert (plus == 1).sum() > 0 and (minus == -1).sum() > 0
