"""Model-level contradiction derivation for two-source models.

Given a model whose responses factor into per-angle and per-hidden-variable
signs, the derivation proceeds in three recorded stages: the product rule
(the four angle signs of every correlated tuple multiply to +1, witnessed by
a guaranteed event), the midpoint argument (equal-parity angles share one
sign, consecutive angles a fixed ratio), and the clash (an anticorrelated
tuple demands product -1, which the derived sign structure cannot deliver on
grids whose quarter turn is an even number of steps). A replay routine
re-executes every recorded step against the raw tables alone.

The same style of argument closes the single-source family at full detector
efficiency: per hidden value, the perfect-correlation constraints are parity
equations over the station signs, and one GF(2) solve per sector shows every
sign assignment violates one of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .angles import GridError, RationalAngle, _build_sign_table, _grid_table, sign_table
from .factorizer import (
    CounterexampleAlarm,
    Factorization,
    _least_parity_solution,
    _reject_single_source,
    factorize,
)
from .model import (
    LhvModel,
    _refuse_oversize,
    positive_weight_mask,
    product_tensor,
    realized_sectors,
)
from .quantum import expectation_singlet
from .robustness import RobustnessReport, _first_index

__all__ = [
    "ProductRule",
    "MidpointStep",
    "RatioStep",
    "DoubledGridNote",
    "ConstantSignReport",
    "MinusClash",
    "EClassReport",
    "DerivationTrace",
    "Verdict",
    "derive_product_rule",
    "derive_constant_a",
    "check_minus_clash",
    "predict_E_class",
    "run",
    "replay",
    "ReplayError",
    "SingleSourceCertificate",
    "single_source_contradiction",
]


# ---------------------------------------------------------------------------
# event bookkeeping shared by the derivation stages


def _unravel(code, steps: int) -> tuple[int, int, int, int]:
    """The four angle steps of a flat angle-tuple index, as Python ints."""
    return tuple(int(i) for i in np.unravel_index(code, (steps,) * 4))


def _midpoint_tuple(alpha: int, beta: int, gamma: int, sector: int):
    # correlation angle alpha + gamma - 2*beta = 0 in either sector
    if sector == 1:
        return (alpha, beta, gamma, beta)
    return (alpha, beta, beta, gamma)


def _ratio_tuple(k: int, m: int, sector: int):
    # correlation angle (k+1) - k - 1 = 0 in either sector
    if sector == 1:
        return ((k + 1) % m, k, 0, 1)
    return ((k + 1) % m, k, 1, 0)


# ---------------------------------------------------------------------------
# stage one: the product rule


@dataclass(frozen=True)
class ProductRule:
    """Every correlated tuple's four angle signs multiply to +1.

    ``events`` maps (sector, *angle steps) to the first weighted event
    proving the tuple is actually constrained by the model's counts;
    ``verified`` counts the tuples checked per sector. The derivation keeps
    those events as per-sector arrays and looks the tuples it cites up in
    them; the ``events`` dict is built from the arrays on first read, so a
    verdict that nobody inspects never builds it.
    """

    sectors: tuple[int, ...]
    verified: dict
    events: dict = field(init=False)
    # per sector: the correlated tuples as flat angle indices (ascending,
    # so row-major order) and the flat hidden index of each first event
    found: dict = field(compare=False, repr=False)
    steps: int = field(compare=False, repr=False)
    size4: int = field(compare=False, repr=False)

    def __getattr__(self, name):
        # reached only while ``events`` is unset: build it once, then it is
        # an ordinary instance attribute
        if name != "events":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        events: dict = {}
        for sector, (codes, first) in self.found.items():
            phis = np.unravel_index(codes, (self.steps,) * 4)
            l1, l4 = np.divmod(first, self.size4)
            keys = np.column_stack([np.full(len(codes), sector), *phis])
            events.update(zip(map(tuple, keys.tolist()),
                              zip(l1.tolist(), l4.tolist())))
        object.__setattr__(self, "events", events)
        return events

    def _lookup(self, sector: int, tuples: list) -> list:
        """``events[(sector,) + phis]`` for each phis in ``tuples``, without
        building ``events``; None where the rule records no event."""
        codes, first = self.found[sector]
        want = np.ravel_multi_index(np.array(tuples).T, (self.steps,) * 4)
        at = np.searchsorted(codes, want).clip(max=len(codes) - 1)
        hit = codes[at] == want
        l1, l4 = np.divmod(first[at], self.size4)
        return [(x, y) if ok else None
                for x, y, ok in zip(l1.tolist(), l4.tolist(), hit.tolist())]


def _angle_products(a: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """a[k1]*a[k2]*a[k3]*a[k4] at each flat angle-tuple index: the first
    and the last two angles are each one index into the pair products."""
    m = len(a)
    pairs = (a[:, None] * a[None, :]).reshape(-1)
    head, tail = np.divmod(codes, m * m)
    return np.take(pairs, head) * np.take(pairs, tail)


def derive_product_rule(fact: Factorization, model: LhvModel) -> ProductRule:
    _reject_single_source(model)
    sectors = realized_sectors(model)
    verified: dict = {}
    found: dict = {}
    a = fact.a
    for sector in sectors:
        events = model.sector_events[sector]
        codes = np.flatnonzero(sign_table(model.n, sector) == 1)
        # each correlated tuple's hidden flags; the first weighted event is
        # the first True, row-major over (lam1, lam4)
        hidden = np.take(events.reshape(-1, model.size1 * model.size4), codes, 0)
        first = hidden.argmax(axis=1)
        silent = ~hidden[np.arange(len(codes)), first]
        if silent.any():
            phis = _unravel(codes[np.argmax(silent)], model.steps)
            raise CounterexampleAlarm(
                f"correlated tuple {phis} in sector {sector:+d} has no"
                " weighted event although the counts check passed"
            )
        bad = np.flatnonzero(_angle_products(a, codes) != 1)
        if len(bad):
            phis = _unravel(codes[bad[0]], model.steps)
            raise CounterexampleAlarm(
                f"angle signs at correlated tuple {phis} in sector"
                f" {sector:+d} multiply to -1"
            )
        found[sector] = (codes, first)
        verified[sector] = len(codes)
    return ProductRule(
        sectors=sectors, verified=verified,
        found=found, steps=model.steps, size4=model.size4,
    )


# ---------------------------------------------------------------------------
# stage two: parity classes and the consecutive-angle ratio


@dataclass(frozen=True)
class MidpointStep:
    """a(alpha)*a(gamma) = +1 via the on-grid midpoint beta."""

    alpha: int
    beta: int
    gamma: int
    sector: int
    phis: tuple[int, int, int, int]
    event: tuple[int, int]


@dataclass(frozen=True)
class RatioStep:
    """a(k+1)*a(k) equals the shared ratio, via a correlated tuple."""

    k: int
    sector: int
    phis: tuple[int, int, int, int]
    event: tuple[int, int]
    value: int


@dataclass(frozen=True)
class DoubledGridNote:
    """The midpoint of a cross-parity pair exists only on the doubled grid.

    Recorded for documentation: the model defines no responses there, so on
    the grid itself the step forces nothing and is never used.
    """

    alpha: int
    gamma: int
    doubled_steps: int
    note: str


@dataclass(frozen=True)
class ConstantSignReport:
    sector: int
    even_value: int
    odd_value: int
    ratio: int
    constant: bool
    value: int | None
    midpoint_steps: tuple[MidpointStep, ...]
    ratio_steps: tuple[RatioStep, ...]
    doubled_notes: tuple[DoubledGridNote, ...]


def derive_constant_a(
    fact: Factorization,
    model: LhvModel,
    rule: ProductRule | None = None,
) -> ConstantSignReport:
    """Pin the per-angle sign structure from verified product-rule instances.

    Same-parity angle pairs share a sign: their on-grid midpoint yields a
    correlated tuple whose product collapses to a(alpha)*a(gamma). Across
    parities, consecutive angles keep a fixed ratio. On the grid itself that
    ratio can be -1 (an alternating assignment; the continuum argument would
    exclude it through off-grid midpoints, recorded here as documentation
    only), so the report states explicitly whether a is a single constant.
    """
    _reject_single_source(model)
    if rule is None:
        rule = derive_product_rule(fact, model)
    sector = rule.sectors[0]
    m = model.steps
    a = fact.a.tolist()
    triples = [(alpha, (alpha + gamma) // 2, gamma)
               for alpha in range(m) for gamma in range(alpha + 2, m, 2)]
    midpoints = [_midpoint_tuple(*triple, sector) for triple in triples]
    ratios = [_ratio_tuple(k, m, sector) for k in range(m)]
    events = iter(rule._lookup(sector, midpoints + ratios))

    def cited(phis):
        event = next(events)
        if event is None:
            raise KeyError((sector,) + phis)
        return event

    midpoint_steps = []
    for (alpha, beta, gamma), phis in zip(triples, midpoints):
        if a[alpha] * a[gamma] != 1:
            raise CounterexampleAlarm(
                f"equal-parity angles {alpha} and {gamma} carry opposite"
                " signs despite the verified product rule"
            )
        midpoint_steps.append(MidpointStep(
            alpha=alpha, beta=beta, gamma=gamma, sector=sector,
            phis=phis, event=cited(phis),
        ))

    ratio = a[1] * a[0]
    ratio_steps = []
    for k, phis in enumerate(ratios):
        value = a[(k + 1) % m] * a[k]
        if value != ratio:
            raise CounterexampleAlarm(
                f"consecutive-angle sign ratio at {k} differs from the"
                " shared ratio despite the verified product rule"
            )
        ratio_steps.append(RatioStep(
            k=k, sector=sector, phis=phis, event=cited(phis), value=value,
        ))

    doubled_notes = (DoubledGridNote(
        alpha=0, gamma=1, doubled_steps=1,
        note="the midpoint of angles 0 and 1 sits at half a grid step; only"
             " a doubled grid hosts that tuple and the model assigns no"
             " responses there",
    ),)
    constant = ratio == 1
    return ConstantSignReport(
        sector=sector,
        even_value=a[0],
        odd_value=a[1],
        ratio=ratio,
        constant=constant,
        value=a[0] if constant else None,
        midpoint_steps=tuple(midpoint_steps),
        ratio_steps=tuple(ratio_steps),
        doubled_notes=doubled_notes,
    )


# ---------------------------------------------------------------------------
# stage three: the anticorrelation clash


@dataclass(frozen=True)
class MinusClash:
    """An anticorrelated tuple whose guaranteed event cannot deliver -1."""

    phis: tuple[int, int, int, int]
    sector: int
    required: int
    derived: int
    event: tuple[int, int]


def check_minus_clash(fact: Factorization, model: LhvModel) -> MinusClash:
    """First anticorrelated tuple the derived sign structure fails.

    Raises GridError when the grid cannot force a clash: either it hosts no
    anticorrelated tuple at all (odd resolution), or every such tuple is
    satisfied by the alternating sign assignment (resolution 2 mod 4).
    """
    _reject_single_source(model)
    sector = realized_sectors(model)[0]
    codes = np.flatnonzero(sign_table(model.n, sector) == -1)
    if len(codes) == 0:
        raise GridError(
            f"grid resolution {model.n} hosts no anticorrelated tuple;"
            " the contradiction needs one"
        )
    products = _angle_products(fact.a, codes)
    bad = np.flatnonzero(products != -1)
    if len(bad) == 0:
        raise GridError(
            f"grid resolution {model.n} is too coarse to force the"
            " contradiction: every anticorrelated tuple is satisfied by the"
            " alternating sign assignment"
        )
    phis = _unravel(codes[bad[0]], model.steps)
    event = _first_index(model.sector_events[sector][phis])
    if event is None:
        raise CounterexampleAlarm(
            f"anticorrelated tuple {phis} in sector {sector:+d} has no"
            " weighted event although the counts check passed"
        )
    return MinusClash(
        phis=phis,
        sector=sector,
        required=-1,
        derived=int(products[bad[0]]),
        event=event,
    )


# ---------------------------------------------------------------------------
# the classical prediction against the quantum curve


@dataclass(frozen=True)
class EClassReport:
    """Classical expectation per tuple (+1 wherever defined) vs quantum."""

    sectors: tuple[int, ...]
    defined: dict
    e_class: dict
    e_quantum: dict
    all_plus_one: bool
    max_discrepancy: float


@lru_cache(maxsize=4)
def _singlet_table(n: int, sector: int) -> np.ndarray:
    """The quantum conditional expectation at every angle tuple of a sector.

    A gather of the singlet expectation per correlation index; read-only,
    cached for two grids with both sectors.
    """
    by_index = [expectation_singlet(RationalAngle(c, n)) for c in range(2 * n)]
    table = _grid_table(by_index, sector, np.float64)
    table.flags.writeable = False
    return table


def predict_E_class(fact: Factorization, model: LhvModel) -> EClassReport:
    """Conditional expectation of the outcome product at every angle tuple.

    For a factorized model the hidden-variable signs square away and every
    tuple with at least one weighted event predicts +1, regardless of the
    correlation angle; the quantum curve instead swings with it. The report
    carries both tables per realized sector and their largest gap.
    """
    _reject_single_source(model)
    sectors = realized_sectors(model)
    defined: dict = {}
    e_class: dict = {}
    e_quantum: dict = {}
    all_plus = True
    max_gap = 0.0
    for sector in sectors:
        has_pos, has_neg, table = model.event_signs[sector]
        if (has_pos & has_neg).any():
            raise CounterexampleAlarm(
                "a tuple mixes event products +1 and -1, impossible for a"
                " factorized model"
            )
        mask = has_pos | has_neg
        defined[sector] = mask
        e_class[sector] = table
        quantum = e_quantum[sector] = _singlet_table(model.n, sector)
        if has_neg.any():
            all_plus = False
        if mask.any():
            gap = table - quantum
            np.abs(gap, out=gap)  # in place: one float table, not two
            max_gap = max(max_gap, float(np.max(gap, where=mask, initial=0.0)))
    return EClassReport(
        sectors=sectors,
        defined=defined,
        e_class=e_class,
        e_quantum=e_quantum,
        all_plus_one=all_plus,
        max_discrepancy=max_gap,
    )


# ---------------------------------------------------------------------------
# the verdict


@dataclass(frozen=True)
class DerivationTrace:
    sector: int
    rule: ProductRule
    constant: ConstantSignReport
    clash: MinusClash
    expectation: EClassReport


@dataclass(frozen=True)
class Verdict:
    """Outcome of running the full derivation on one model.

    kind is one of:
      inconsistent -- the model factorizes and the recorded derivation ends
        in an anticorrelated tuple its sign structure cannot satisfy;
      not_robust -- a robustness condition failed (report carries the
        witness);
      alarm -- the model escapes the dichotomy the derivation is built on:
        either a consistency relation failed on a model that already passed
        the robustness gate (such models exist; the relation proofs need
        paired events that sparse detection legally withholds, and the
        witness carries the violated relation), or a recorded step hit a
        contradiction mid-derivation (the witness text carries the chain).
    """

    kind: str
    trace: DerivationTrace | None = None
    report: RobustnessReport | None = None
    witness: object | None = None


def _verdict_bytes(model: LhvModel) -> int:
    """Estimated peak bytes of ``run`` and then ``replay`` on one model.

    ``model.tensor_bytes`` covers the product tensor and its masks. Each
    realized sector adds 20 bytes per (2n)**4 entry (its cached float64
    singlet table, the float64 gap to it, the expectation, its mask and
    event scratch) and 64 per (2n)**3 (the product rule's tuple codes);
    128 KiB covers the rest. ``tracemalloc`` reads 27.0-27.9 of the 28
    bytes per entry this gives a 1x1 model at n = 12 to 20.
    """
    m = model.steps
    return (model.tensor_bytes + len(model.sectors) * (20 * m**4 + 64 * m**3)
            + 2**17)


def run(model: LhvModel) -> Verdict:
    """Factorize, derive, and clash; the full pipeline on one model."""
    _refuse_oversize(
        f"the verdict on {model._size_label} (product tensor and masks:"
        f" {model.tensor_bytes / 2**20:,.0f} MiB)",
        _verdict_bytes(model),
    )
    try:
        result = factorize(model)
        if result.status == "not_robust":
            return Verdict(kind="not_robust", report=result.robustness)
        if result.status == "consistency_violated":
            # The factorizer's robustness gate has already passed here, so
            # the model earns its events honestly yet cannot carry the
            # factorized sign form.
            return Verdict(kind="alarm", witness=result.witness)
        fact = result.factorization
        rule = derive_product_rule(fact, model)
        constant = derive_constant_a(fact, model, rule)
        clash = check_minus_clash(fact, model)
        expectation = predict_E_class(fact, model)
    except CounterexampleAlarm as exc:
        return Verdict(kind="alarm", witness=str(exc))
    trace = DerivationTrace(
        sector=constant.sector,
        rule=rule,
        constant=constant,
        clash=clash,
        expectation=expectation,
    )
    return Verdict(kind="inconsistent", trace=trace)


class ReplayError(ValueError):
    """A recorded derivation step does not hold against the raw tables."""


def replay(trace: DerivationTrace, model: LhvModel) -> bool:
    """Re-execute every recorded step against the raw tables alone.

    Checks that the stages agree on one sector, that each cited event
    carries weight, announces the step's sector, and yields the claimed
    outcome product, and that the expectation tables recompute for every
    sector the model realizes; no factorization is consulted. Raises
    ReplayError (a ValueError) on the first mismatch.
    """
    _reject_single_source(model)
    if not trace.sector == trace.constant.sector == trace.clash.sector:
        raise ReplayError(
            f"the stages disagree on the sector: trace {trace.sector:+d},"
            f" constant {trace.constant.sector:+d}, clash"
            f" {trace.clash.sector:+d}"
        )
    products = product_tensor(model)
    weight_ok = positive_weight_mask(model)

    def event_product(phis, sector, event):
        l1, l4 = event
        if model.kappa[l1, l4] != sector:
            raise ReplayError(f"cited event {event} is not in sector {sector:+d}")
        if not weight_ok[l1, l4]:
            raise ReplayError(f"cited event {event} carries no weight")
        value = int(products[phis + (l1, l4)])
        if value == 0:
            raise ReplayError(f"cited event {event} at {phis} is silent")
        return value

    for step in trace.constant.midpoint_steps + trace.constant.ratio_steps:
        if sign_table(model.n, step.sector)[step.phis] != 1:
            raise ReplayError(f"{step.phis} is not a correlated tuple")
        if event_product(step.phis, step.sector, step.event) != 1:
            raise ReplayError(f"event product at {step.phis} is not +1")

    clash = trace.clash
    if sign_table(model.n, clash.sector)[clash.phis] != -1:
        raise ReplayError(f"{clash.phis} is not an anticorrelated tuple")
    if event_product(clash.phis, clash.sector, clash.event) != clash.derived:
        raise ReplayError("the clash event's product differs from the trace")
    if clash.derived == clash.required:
        raise ReplayError("the recorded clash does not actually clash")

    sectors = realized_sectors(model)
    if tuple(trace.expectation.sectors) != sectors:
        raise ReplayError(
            f"the expectation covers sectors {tuple(trace.expectation.sectors)},"
            f" the model realizes {sectors}"
        )
    for sector in sectors:
        _, _, want = model.event_signs[sector]
        if not np.array_equal(want, trace.expectation.e_class.get(sector)):
            raise ReplayError("an expectation table does not replay")
    return True


# ---------------------------------------------------------------------------
# single-source closure at full efficiency


@dataclass(frozen=True)
class SingleSourceCertificate:
    """Refutation of every fully-efficient single-source assignment.

    A single-source model mixes per-hidden-value assignments, and at full
    efficiency each assignment must satisfy every perfect-correlation
    constraint of its own announcement sector; refuting every assignment in
    both sectors therefore refutes every model. ``survivors`` maps each
    sector to None or to one surviving (first station, last station) pair of
    sign vectors; ``contradicted`` counts the refuted pairs, all
    ``assignments_checked`` of them decided by the sector's GF(2) rank.
    """

    n: int
    assignments_checked: int
    contradicted: dict
    survivors: dict
    all_contradicted: bool
    narrative: tuple[str, ...]


def _contradiction_bytes(n: int) -> int:
    """Estimated peak bytes of ``single_source_contradiction(n)``.

    One sector's sign table lives at a time, built uncached: 4 bytes per
    (2n)**4 entry while it is built; then its pair codes and rows take under
    48 bytes per constrained tuple, at most 4(2n)**3 a sector; 64 KiB covers
    the rest. ``tracemalloc`` reads (2n)**4 plus 160-172 bytes per (2n)**3
    up to n = 24, and 4.00 bytes per entry from n = 28 to 36.
    """
    m = 2 * n
    return 4 * m**4 + 192 * m**3 + 2**16


def _station_rows(table: np.ndarray):
    """One sector's distinct parity rows over the station sign bits, lazily.

    With the forced analyzer, the tuple (t0, t1, t2, t3) asks the bits of
    first-station signs t0, t1 (bits 0..2n-1) and last-station signs t2, t3
    (bits 2n..4n-1) to XOR to 0 where the table demands +1 and to 1 where
    it demands -1. A row sees each station's angle pair unordered, so the
    tuples are deduplicated by their pair codes first.
    """
    m = table.shape[0]
    mm = m * m
    flat = table.reshape(mm, mm)
    k = np.arange(m)
    pair = (np.minimum.outer(k, k) * m + np.maximum.outer(k, k)).ravel()
    first, last = np.nonzero(flat)
    codes = np.unique((pair[first] * mm + pair[last]) * 2 + (flat[first, last] < 0))
    half = [(1 << p // m) ^ (1 << p % m) for p in range(mm)]
    return ((half[c // (2 * mm)] ^ (half[c // 2 % mm] << m), c & 1)
            for c in codes.tolist())


def single_source_contradiction(n: int) -> SingleSourceCertificate:
    """Close the single-source family at full efficiency on the pi/n grid.

    The analyzer table is not enumerated: at full efficiency every response
    is +-1 and the diagonal correlated tuples (b, b, g, g) force the
    analyzer sign at (b, g) to the product of the two station signs, the
    only candidate any assignment could use. Every constrained tuple is then
    one parity row over the 4n station sign bits, and one GF(2) solve per
    sector decides all pairs of station sign vectors at once: 2**(4n - rank)
    pairs survive, or none when the rows contradict. The witness is the
    least solution, first-station bits low, so the pair with the lowest
    last-station index that has a mate, and its lowest mate. Grids whose
    solve would exceed MAX_TABLE_BYTES raise SizeLimitError before anything
    is built.
    """
    _refuse_oversize(
        f"the single-source refutation on the pi/{n} grid",
        _contradiction_bytes(n),
    )
    m = 2 * n
    combos = 1 << m

    contradicted: dict = {}
    survivors: dict = {}
    for sector in (1, -1):
        table = _build_sign_table(n, sector)  # uncached, one sector at a time
        if not (table < 0).any():
            raise GridError(
                f"grid resolution {n} hosts no anticorrelated tuple;"
                " the contradiction needs one"
            )
        rank, least = _least_parity_solution(_station_rows(table))
        del table
        contradicted[sector] = combos * combos
        survivors[sector] = None
        if least is not None:
            contradicted[sector] -= 1 << 2 * m - rank
            signs = [1 - 2 * (least >> k & 1) for k in range(2 * m)]
            survivors[sector] = (np.array(signs[:m], dtype=np.int8),
                                 np.array(signs[m:], dtype=np.int8))

    all_contradicted = all(s is None for s in survivors.values())
    half = n // 2
    if half % 2 == 0:
        closing = (
            f"the anticorrelated tuple at a quarter turn demands r**{half}"
            " = -1, impossible for either sign of r because the exponent"
            " is even, so every assignment fails some constraint"
        )
    else:
        closing = (
            f"r = -1 satisfies r**{half} = -1, so alternating assignments"
            " survive; this grid is too coarse for the contradiction"
        )
    narrative = (
        "at full efficiency every station response is +1 or -1 and every"
        " hidden value produces an event at every tuple",
        "diagonal correlated tuples (b, b, g, g) force the analyzer sign at"
        " (b, g) to the product of the first station sign at b and the last"
        " station sign at g",
        "correlated tuples stepping both angles by one force a shared ratio"
        " r between consecutive signs at both stations, so every station"
        " sign vector is a constant times r**k",
        closing,
    )
    return SingleSourceCertificate(
        n=n,
        assignments_checked=2 * combos * combos,
        contradicted=contradicted,
        survivors=survivors,
        all_contradicted=all_contradicted,
        narrative=narrative,
    )
