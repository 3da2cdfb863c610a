"""Robustness: the three conditions a serious local model must meet.

A model is robust when it reproduces the perfect correlations wherever all
three detectors fire, produces at least one detectable event at every angle
setting in every announcement sector it realizes, and contains no hidden
variable that never participates in any event. Each check either passes or
returns the lexicographically first witness (angle-major, then hidden
variables) so failures are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angles import sign_table
from .model import LhvModel, _products_at

__all__ = [
    "CorrelationWitness",
    "CountsWitness",
    "RelevanceWitness",
    "RobustnessReport",
    "required_tensor",
    "check_perfect_correlations",
    "check_counts_nonempty",
    "check_relevance",
    "is_robust",
]


@dataclass(frozen=True)
class CorrelationWitness:
    """One assignment whose outcome product defies the correlation law."""

    phis: tuple[int, int, int, int]
    l1: int
    l4: int | None
    expected: int
    found: int


@dataclass(frozen=True)
class CountsWitness:
    """An angle tuple at which one realized sector records no event at all."""

    phis: tuple[int, int, int, int]
    sector: int


@dataclass(frozen=True)
class RelevanceWitness:
    """A hidden variable that participates in no event anywhere."""

    side: int  # 1 for the first source, 4 for the second
    index: int


@dataclass(frozen=True)
class RobustnessReport:
    correlation_witness: CorrelationWitness | None
    counts_witness: CountsWitness | None
    relevance_witness: RelevanceWitness | None

    @property
    def perfect_correlations_ok(self) -> bool:
        return self.correlation_witness is None

    @property
    def counts_ok(self) -> bool:
        return self.counts_witness is None

    @property
    def relevance_ok(self) -> bool:
        return self.relevance_witness is None

    @property
    def is_robust(self) -> bool:
        return (
            self.perfect_correlations_ok and self.counts_ok and self.relevance_ok
        )


def required_tensor(model: LhvModel) -> np.ndarray:
    """Required outcome product per angle tuple and assignment, int8.

    Every assignment is judged against the correlation angle of its own
    announcement sector. Zero entries mean the law is silent there. The
    gate reads the law per sector instead; this whole table is the tests'
    reference oracle.
    """
    # one column per assignment, its own sector's table: stacking them is a
    # plain copy into C order, several times faster than np.where over int8
    tables = {s: sign_table(model.n, s) for s in (1, -1)}
    columns = [tables[s] for s in model.kappa.ravel().tolist()]
    return np.stack(columns, axis=-1).reshape(tables[1].shape + model.kappa.shape)


def _first_index(mask: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry in row-major order, as Python ints."""
    if not mask.any():
        return None
    flat = int(np.argmax(mask))  # first True in row-major order
    return tuple(int(i) for i in np.unravel_index(flat, mask.shape))


def check_perfect_correlations(
    model: LhvModel, minus_row: bool = True
) -> CorrelationWitness | None:
    """First assignment violating the correlation law, or None.

    With ``minus_row=False`` only the anticorrelation-free half of the law is
    enforced: tuples whose correlation angle demands product -1 are skipped.
    That restricted check is the precondition the factorization stage needs.

    Every assignment is judged against its own sector's correlation angle,
    weighted or not: the model's cached :attr:`LhvModel.law_signs` answer.
    No product tensor is built: the witness's products are gathered at its
    one angle tuple.
    """
    signs = model.law_signs  # refuses an oversized model before anything is allocated
    bad = np.zeros((model.steps,) * 4, dtype=bool)
    for sector, (has_pos, has_neg) in signs.items():
        table = sign_table(model.n, sector)
        bad |= (table == 1) & has_neg
        if minus_row:
            bad |= (table == -1) & has_pos
    phis = _first_index(bad)
    if phis is None:
        return None
    # the first bad assignment at that tuple, row-major over the hidden axes
    (products,) = _products_at(model, [phis])
    required = np.where(model.kappa.ravel() == 1, sign_table(model.n, 1)[phis],
                        sign_table(model.n, -1)[phis])
    found = products * required == -1
    if not minus_row:
        found &= required == 1
    first = int(np.argmax(found))
    l1, l4 = divmod(first, model.size4) if model.rho4 is not None else (first, None)
    return CorrelationWitness(
        phis=phis, l1=l1, l4=l4,
        expected=int(required[first]), found=int(products[first]),
    )


def check_counts_nonempty(
    model: LhvModel, require_both_sectors: bool = False
) -> CountsWitness | None:
    """First angle tuple at which a checked sector records no event, or None.

    By default only sectors the weight-carrying kappa map actually realizes
    are checked; ``require_both_sectors=True`` demands events in both.
    """
    sectors = (1, -1) if require_both_sectors else model.sectors
    for sector in sectors:
        signs = model.event_signs.get(sector)  # None: no weighted assignment announces it
        where = (0, 0, 0, 0) if signs is None else _first_index(~(signs[0] | signs[1]))
        if where is not None:
            return CountsWitness(phis=tuple(where), sector=sector)
    return None


def check_relevance(model: LhvModel) -> RelevanceWitness | None:
    """First hidden variable participating in no event, or None."""
    # products = a*f*d, so an assignment fires at some angle tuple exactly
    # when each factor has a nonzero there: that is the (L1, L4) firing
    # pattern; a single source's reads as (L, 1), so side 4 can only be
    # idle where side 1 already is
    first = (model.a != 0).any(axis=0).reshape((-1,) + (1,) * (model.kappa.ndim - 1))
    pairs = first & (model.analyzer != 0).any(axis=(0, 1)) & (model.d != 0).any(axis=0)
    pairs = pairs.reshape(model.size1, -1)
    idle = _first_index(~pairs.any(axis=1))
    if idle is not None:
        return RelevanceWitness(side=1, index=idle[0])
    idle = _first_index(~pairs.any(axis=0))
    if idle is not None:
        return RelevanceWitness(side=4, index=idle[0])
    return None


def is_robust(
    model: LhvModel,
    minus_row: bool = True,
    require_both_sectors: bool = False,
) -> RobustnessReport:
    """Run all three checks and bundle the verdicts."""
    return RobustnessReport(
        correlation_witness=check_perfect_correlations(model, minus_row=minus_row),
        counts_witness=check_counts_nonempty(
            model, require_both_sectors=require_both_sectors
        ),
        relevance_witness=check_relevance(model),
    )
