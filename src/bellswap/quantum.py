"""Quantum predictions for the two-source swapping experiment.

Two independent routes to the same numbers:

* :func:`simulate` carries the full four-photon state vector through the
  basis rotations and the joint Bell projection of the inner pair.
* :func:`prob_closed` evaluates the trigonometric closed forms directly.

Both return fourfold-coincidence probability tables with axes
(outer outcome 1, outer outcome 2, Bell outcome). Outcome index 0 is H,
1 is V; Bell outcomes are ordered as in :data:`BELL_OUTCOMES`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .angles import RationalAngle

__all__ = [
    "BELL_OUTCOMES",
    "SECTOR_OUTCOMES",
    "simulate",
    "simulate_grid",
    "prob_closed",
    "closed_grid",
    "expectation_singlet",
    "expectation_bell",
    "sector_probability",
]

BELL_OUTCOMES = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")

# the analyzer announces one of two sectors; each groups the Bell outcomes
# sharing a correlation angle
SECTOR_OUTCOMES = {1: ("phi_plus", "psi_minus"), -1: ("phi_minus", "psi_plus")}

_SQRT2 = math.sqrt(2.0)

# singlet amplitudes over (first photon, second photon), H=0, V=1
_SINGLET = np.array([[0.0, 1.0], [-1.0, 0.0]]) / _SQRT2

# Bell projector amplitudes over (photon, photon), ordered as BELL_OUTCOMES
_BELL = (
    np.array(
        [
            [[1.0, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, -1.0]],
            [[0.0, 1.0], [1.0, 0.0]],
            [[0.0, 1.0], [-1.0, 0.0]],
        ]
    )
    / _SQRT2
)


def _radians(phi: RationalAngle | float) -> float:
    if isinstance(phi, RationalAngle):
        return phi.radians
    return float(phi)


def _analyzer(theta: float) -> np.ndarray:
    """Change of basis that maps the analyzer eigenvectors at angle theta onto H/V."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def simulate(phis: Sequence[RationalAngle | float]) -> np.ndarray:
    """State-vector probabilities for one setting of the four analysis angles.

    The two sources each emit a singlet pair; every photon passes through its
    station's basis rotation; the outer photons are read out in H/V while the
    two inner photons are projected jointly onto the Bell basis. Returns the
    (2, 2, 4) table of fourfold probabilities.
    """
    t1, t2, t3, t4 = (_radians(p) for p in phis)
    pair12 = np.einsum(
        "ni,mj,ij->nm", _analyzer(t1), _analyzer(t2), _SINGLET, optimize=True
    )
    pair34 = np.einsum(
        "ni,mj,ij->nm", _analyzer(t3), _analyzer(t4), _SINGLET, optimize=True
    )
    amp = np.einsum("np,spq,qm->nms", pair12, _BELL, pair34, optimize=True)
    return amp**2


def simulate_grid(n: int) -> np.ndarray:
    """State-vector probabilities for every tuple on the pi/n grid.

    Returns shape (2n, 2n, 2n, 2n, 2, 2, 4) indexed by the four angle step
    indices followed by the outcome axes of :func:`simulate`. The two source
    pairs are contracted separately before the Bell projection, so the cost
    grows with the number of tuples rather than with tuples times the full
    sixteen-dimensional state.
    """
    m = 2 * n
    analyzers = np.stack([_analyzer(math.pi * k / n) for k in range(m)])
    pair = np.einsum("ani,bmj,ij->abnm", analyzers, analyzers, _SINGLET, optimize=True)
    amp = np.einsum("abnp,spq,cdqm->abcdnms", pair, _BELL, pair, optimize=True)
    return amp**2


def prob_closed(phis: Sequence[RationalAngle | float]) -> np.ndarray:
    """Closed-form probabilities for one setting, same layout as :func:`simulate`."""
    t1, t2, t3, t4 = (_radians(p) for p in phis)
    return _closed_from_zetas(
        np.asarray(t1 - t2 + t3 - t4), np.asarray(t1 - t2 - t3 + t4)
    )


def closed_grid(n: int) -> np.ndarray:
    """Closed-form probabilities for every tuple on the pi/n grid."""
    m = 2 * n
    theta = math.pi / n * np.arange(m)
    d12 = theta[:, None] - theta[None, :]
    d34 = theta[:, None] - theta[None, :]
    zp = d12[:, :, None, None] + d34[None, None, :, :]
    zm = d12[:, :, None, None] - d34[None, None, :, :]
    return _closed_from_zetas(zp, zm)


def _closed_from_zetas(zeta_plus: np.ndarray, zeta_minus: np.ndarray) -> np.ndarray:
    """Assemble the (..., 2, 2, 4) table from the two correlation angles."""
    out = np.empty(zeta_plus.shape + (2, 2, 4), dtype=float)
    for sector, zeta in ((1, zeta_plus), (-1, zeta_minus)):
        aligned = 0.125 * np.cos(zeta) ** 2
        crossed = 0.125 * np.sin(zeta) ** 2
        phi_idx = BELL_OUTCOMES.index(SECTOR_OUTCOMES[sector][0])
        psi_idx = BELL_OUTCOMES.index(SECTOR_OUTCOMES[sector][1])
        # the phi outcome of a sector correlates equal polarizations,
        # the psi outcome correlates opposite ones
        out[..., 0, 0, phi_idx] = aligned
        out[..., 1, 1, phi_idx] = aligned
        out[..., 0, 1, phi_idx] = crossed
        out[..., 1, 0, phi_idx] = crossed
        out[..., 0, 1, psi_idx] = aligned
        out[..., 1, 0, psi_idx] = aligned
        out[..., 0, 0, psi_idx] = crossed
        out[..., 1, 1, psi_idx] = crossed
    return out


def expectation_singlet(zeta: RationalAngle | float) -> float:
    """Outer-outcome correlation conditioned on the psi_minus Bell outcome."""
    return -math.cos(2.0 * _radians(zeta))


def expectation_bell(table: np.ndarray, bell: str) -> float:
    """Conditional correlation of the outer outcomes given one Bell outcome.

    Works on any (..., 2, 2, 4) probability table; leading axes broadcast.
    """
    s = BELL_OUTCOMES.index(bell)
    same = table[..., 0, 0, s] + table[..., 1, 1, s]
    diff = table[..., 0, 1, s] + table[..., 1, 0, s]
    total = same + diff
    return (same - diff) / total


def sector_probability(table: np.ndarray, sector: int) -> float:
    """Total probability that the analyzer announces the given sector."""
    idx = [BELL_OUTCOMES.index(name) for name in SECTOR_OUTCOMES[sector]]
    return table[..., idx].sum(axis=(-3, -2, -1))

