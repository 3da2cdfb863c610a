"""Exact analysis angles on the uniform grid {k*pi/n}.

All angles in the experiment live on a finite grid so that every derived
quantity stays exact. The grid with resolution n contains the 2n angles
0, pi/n, ..., (2n-1)pi/n; library code works with their integer step
indices, and :class:`RationalAngle` names one grid angle by its steps and
resolution, compared by exact value. The correlation law reads off the step
index: :func:`required_sign` gives the outcome product it demands at one
angle. Every grid table gathers one value per step index at each angle
tuple's :func:`correlation_index`: :func:`sign_table` the demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "UsageError",
    "GridError",
    "RationalAngle",
    "correlation_index",
    "required_sign",
    "sign_table",
]


class UsageError(ValueError):
    """An input the caller can correct; the CLI reports it and exits 2."""


class GridError(UsageError):
    """A grid resolution is invalid or not supported by the operation."""


@dataclass(frozen=True, eq=False)
class RationalAngle:
    """The angle steps*pi/denominator, canonical with steps in [0, 2*denominator)."""

    steps: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise GridError(f"grid resolution must be positive, got {self.denominator}")
        object.__setattr__(self, "steps", self.steps % (2 * self.denominator))

    @property
    def turns(self) -> Fraction:
        """Exact value in units of pi."""
        return Fraction(self.steps, self.denominator)

    @property
    def radians(self) -> float:
        return math.pi * self.steps / self.denominator

    # value semantics: 1 step on the pi/2 grid equals 2 steps on the pi/4 grid
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalAngle):
            return NotImplemented
        return self.turns == other.turns

    def __hash__(self) -> int:
        return hash(self.turns)

    def __repr__(self) -> str:
        return f"RationalAngle({self.steps}, {self.denominator})"


def required_sign(k: int, n: int) -> int:
    """Outcome product the correlation law demands at the grid angle k*pi/n.

    +1 where the angle is 0 mod pi, -1 where it is pi/2 mod pi, and 0 where
    the law is silent. Only the angle mod pi matters.
    """
    k = k % n
    if k == 0:
        return 1
    if 2 * k == n:
        return -1
    return 0


def correlation_index(k1: int, k2: int, k3: int, k4: int, sector: int, n: int) -> int:
    """Step index of the sector's correlation angle, reduced into [0, 2n)."""
    return (k1 - k2 + sector * (k3 - k4)) % (2 * n)


@lru_cache(maxsize=4)
def sign_table(n: int, sector: int) -> np.ndarray:
    """Required outcome product over all angle tuples: int8 array of shape (2n,)*4.

    Entry [k1, k2, k3, k4] is +1 where the sector's correlation angle is 0 mod pi,
    -1 where it is pi/2 mod pi, and 0 where the correlation law is silent.
    The array is read-only, cached for two grids with both sectors.
    """
    table = _build_sign_table(n, sector)
    table.flags.writeable = False
    return table


def _build_sign_table(n: int, sector: int) -> np.ndarray:
    """A fresh, writable ``sign_table(n, sector)`` that no cache keeps."""
    return _grid_table([required_sign(c, n) for c in range(2 * n)], sector, np.int8)


def _grid_table(by_index, sector: int, dtype) -> np.ndarray:
    """A fresh table of ``by_index`` at every tuple's correlation index.

    ``by_index`` holds one value per step of the 2n-angle grid. The int16
    index table keeps the build at 4 bytes per entry beside the result.
    """
    if sector not in (1, -1):
        raise ValueError(f"sector must be +1 or -1, got {sector}")
    m = len(by_index)
    index = correlation_index(*np.ix_(*[np.arange(m, dtype=np.int16)] * 4), sector, m // 2)
    return np.asarray(by_index, dtype=dtype)[index]
