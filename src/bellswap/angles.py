"""Exact analysis angles on the uniform grid {k*pi/n}.

All angles in the experiment live on a finite grid so that every derived
quantity stays exact. The grid with resolution n contains the 2n angles
0, pi/n, ..., (2n-1)pi/n; library code works with their integer step
indices, and :class:`RationalAngle` names one grid angle by its steps and
resolution, compared by exact value. The correlation law reads off the step
index: :func:`required_sign` gives the outcome product it demands at one
angle, :func:`sign_table` the demands over every angle tuple at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "GridError",
    "RationalAngle",
    "correlation_index",
    "required_sign",
    "sign_table",
]


class GridError(ValueError):
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


@lru_cache(maxsize=None)
def sign_table(n: int, sector: int) -> np.ndarray:
    """Required outcome product over all angle tuples: int8 array of shape (2n,)*4.

    Entry [k1, k2, k3, k4] is +1 where the sector's correlation angle is 0 mod pi,
    -1 where it is pi/2 mod pi, and 0 where the correlation law is silent.
    The array is cached and read-only.
    """
    table = _build_sign_table(n, sector)
    table.flags.writeable = False
    return table


def _build_sign_table(n: int, sector: int) -> np.ndarray:
    """A fresh, writable ``sign_table(n, sector)`` that no cache keeps."""
    if sector not in (1, -1):
        raise ValueError(f"sector must be +1 or -1, got {sector}")
    # int16 differences reduced in place keep the build at about 4 bytes
    # per entry: 2 for the angles, 1 for the table, 1 for a mask
    k = np.arange(2 * n, dtype=np.int16)
    reduced = (
        k[:, None, None, None]
        - k[None, :, None, None]
        + sector * (k[None, None, :, None] - k[None, None, None, :])
    )
    reduced %= n
    table = np.zeros(reduced.shape, dtype=np.int8)
    table[reduced == 0] = 1
    if n % 2 == 0:
        table[reduced == n // 2] = -1
    return table
