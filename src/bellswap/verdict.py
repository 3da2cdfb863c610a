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
    _events_at,
    _read_only,
    _refuse_oversize,
    _refuse_product_tensor,
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


def _first_events(model: LhvModel, sector: int, tuples, required: int) -> list:
    """(lam1, lam4) of the first weighted event in ``sector``, row-major,
    at each angle tuple of an (N, 4) array, or None where there is none or
    the sector's sign table does not hold ``required`` there."""
    _, rows = _events_at(model, sector, tuples)
    at = tuple(np.asarray(tuples).T)
    rows &= (sign_table(model.n, sector)[at] == required)[:, None]
    first = rows.argmax(axis=1)
    hit = rows[np.arange(len(first)), first]
    l1, l4 = np.divmod(first, model.size4)
    return [(x, y) if ok else None
            for x, y, ok in zip(l1.tolist(), l4.tolist(), hit.tolist())]


# ---------------------------------------------------------------------------
# stage one: the product rule


@dataclass(frozen=True)
class ProductRule:
    """Every correlated tuple's four angle signs multiply to +1.

    ``events`` maps (sector, *angle steps) to the first weighted event
    proving the tuple is actually constrained by the model's counts;
    ``verified`` counts the tuples checked per sector. The rule keeps its
    model and finds first events only at the tuples the derivation cites;
    ``events`` is built on first read, so a verdict that nobody inspects
    never builds it.
    """

    sectors: tuple[int, ...]
    verified: dict
    events: dict = field(init=False)
    model: LhvModel = field(compare=False, repr=False)

    def __getattr__(self, name):
        # reached only while ``events`` is unset: build it once, then it is
        # an ordinary instance attribute
        if name != "events":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        events: dict = {}
        for sector in self.sectors:
            tuples = np.argwhere(sign_table(self.model.n, sector) == 1)
            for phis, event in zip(tuples.tolist(), self._lookup(sector, tuples)):
                if event is not None:
                    events[(sector, *phis)] = event
        object.__setattr__(self, "events", events)
        return events

    def _lookup(self, sector: int, tuples) -> list:
        """``events[(sector,) + phis]`` for each phis in ``tuples``, a list
        or an (N, 4) array, without building ``events``; None where the
        rule records no event."""
        return _first_events(self.model, sector, tuples, 1)


def derive_product_rule(fact: Factorization, model: LhvModel) -> ProductRule:
    """Check the product rule at every correlated tuple of each realized sector.

    The alarms name the first tuple, row-major, with no weighted event in the
    model's event signs, then the first whose angle-product entry is -1."""
    _reject_single_source(model)
    sectors = model.sectors
    verified: dict = {}
    for sector in sectors:
        correlated = sign_table(model.n, sector) == 1
        has_pos, has_neg, _ = model.event_signs[sector]
        phis = _first_index(correlated & ~(has_pos | has_neg))
        if phis is not None:
            raise CounterexampleAlarm(
                f"correlated tuple {phis} in sector {sector:+d} has no"
                " weighted event although the counts check passed"
            )
        phis = _first_index(correlated & (fact.angle_products != 1))
        if phis is not None:
            raise CounterexampleAlarm(
                f"angle signs at correlated tuple {phis} in sector"
                f" {sector:+d} multiply to -1"
            )
        verified[sector] = int(np.count_nonzero(correlated))
    return ProductRule(sectors=sectors, verified=verified, model=model)


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


@lru_cache(maxsize=4)
def _cited_tuples(m: int, sector: int):
    """The midpoint triples (alpha, beta, gamma) on a grid of ``m`` angles
    and the tuples ``derive_constant_a`` cites, midpoints then ratios, as a
    tuple and as an (N, 4) array; cached for two grids with both sectors."""
    triples = tuple((alpha, (alpha + gamma) // 2, gamma)
                    for alpha in range(m) for gamma in range(alpha + 2, m, 2))
    # correlation angles alpha + gamma - 2*beta and (k+1) - k - 1 vanish;
    # sector -1 takes the last two angles the other way round
    cited = [(alpha, beta, gamma, beta) for alpha, beta, gamma in triples]
    cited += [((k + 1) % m, k, 0, 1) for k in range(m)]
    if sector == -1:
        cited = [(p1, p2, p4, p3) for p1, p2, p3, p4 in cited]
    return triples, tuple(cited), _read_only(np.array(cited))


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
    triples, cited, cited_array = _cited_tuples(m, sector)
    events = rule._lookup(sector, cited_array)

    midpoint_steps = []
    for (alpha, beta, gamma), phis, event in zip(triples, cited, events):
        if a[alpha] * a[gamma] != 1:
            raise CounterexampleAlarm(
                f"equal-parity angles {alpha} and {gamma} carry opposite"
                " signs despite the verified product rule"
            )
        if event is None:
            raise KeyError((sector,) + phis)
        # positional arguments build a step a third faster than keywords
        midpoint_steps.append(MidpointStep(alpha, beta, gamma, sector, phis, event))

    ratio = a[1] * a[0]
    ratio_steps = []
    for k, phis, event in zip(range(m), cited[len(triples):], events[len(triples):]):
        value = a[(k + 1) % m] * a[k]
        if value != ratio:
            raise CounterexampleAlarm(
                f"consecutive-angle sign ratio at {k} differs from the"
                " shared ratio despite the verified product rule"
            )
        if event is None:
            raise KeyError((sector,) + phis)
        ratio_steps.append(RatioStep(k, sector, phis, event, value))

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
    """First anticorrelated tuple, row-major, whose entry in the
    factorization's angle-product table is not -1. Raises GridError when
    the grid cannot force a clash: either it hosts no anticorrelated tuple
    at all (odd resolution), or every such tuple is satisfied by the
    alternating sign assignment (resolution 2 mod 4).
    """
    _reject_single_source(model)
    sector = model.sectors[0]
    anticorrelated = sign_table(model.n, sector) == -1
    if not anticorrelated.any():
        raise GridError(
            f"grid resolution {model.n} hosts no anticorrelated tuple;"
            " the contradiction needs one"
        )
    products = fact.angle_products
    phis = _first_index(anticorrelated & (products != -1))
    if phis is None:
        raise GridError(
            f"grid resolution {model.n} is too coarse to force the"
            " contradiction: every anticorrelated tuple is satisfied by the"
            " alternating sign assignment"
        )
    event, = _first_events(model, sector, [phis], -1)
    if event is None:
        raise CounterexampleAlarm(
            f"anticorrelated tuple {phis} in sector {sector:+d} has no"
            " weighted event although the counts check passed"
        )
    return MinusClash(
        phis=phis,
        sector=sector,
        required=-1,
        derived=int(products[phis]),
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
    return _read_only(_grid_table(by_index, sector, np.float64))


def predict_E_class(fact: Factorization, model: LhvModel) -> EClassReport:
    """Conditional expectation of the outcome product at every angle tuple.

    For a factorized model the hidden-variable signs square away and every
    tuple with at least one weighted event predicts +1, regardless of the
    correlation angle; the quantum curve instead swings with it. The report
    carries both tables per realized sector and their largest gap.
    """
    _reject_single_source(model)
    sectors = model.sectors
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
        defined[sector] = has_pos | has_neg
        e_class[sector] = table
        quantum = e_quantum[sector] = _singlet_table(model.n, sector)
        all_plus = all_plus and not has_neg.any()
        # as |q| <= 1, |table - q| is 1 - q at a +1 and 1 + q at a -1, both
        # monotone in q after rounding: the extremes of q give the gap
        max_gap = max(max_gap,
                      1 - float(np.min(quantum, where=has_pos, initial=1.0)),
                      1 + float(np.max(quantum, where=has_neg, initial=-1.0)))
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

    ``model.tensor_bytes`` covers the gate's and the kernel's masks,
    conservatively: no product tensor is built. Each realized sector adds
    20 bytes per (2n)**4 entry (its cached float64 singlet table, the
    expectation, its masks and scratch) and 64 per (2n)**3; 128 KiB covers
    the rest. These still count a float64 gap table and tuple codes no
    longer built, so no refusal moved: ``tracemalloc`` reads about 16 of
    the 28 bytes per entry this gives a 1x1 model at n = 16 and 20.
    """
    m = model.steps
    return (model.tensor_bytes + len(model.sectors) * (20 * m**4 + 64 * m**3)
            + 2**17)


def run(model: LhvModel) -> Verdict:
    """Factorize, derive, and clash; the full pipeline on one model."""
    _refuse_oversize(
        lambda: f"the verdict on {model._size_label} (product tensor and masks:"
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

    Checks that the stages agree on one sector, that each cited tuple and
    event lies inside the tables, that each cited event carries weight,
    announces the step's sector, and yields the claimed outcome product,
    and that the expectation tables recompute for every sector the model
    realizes; no factorization is consulted. Raises ReplayError (a
    ValueError) on the first mismatch.
    """
    _reject_single_source(model)
    if not trace.sector == trace.constant.sector == trace.clash.sector:
        raise ReplayError(
            f"the stages disagree on the sector: trace {trace.sector:+d},"
            f" constant {trace.constant.sector:+d}, clash"
            f" {trace.clash.sector:+d}"
        )
    _refuse_product_tensor(model)  # an oversized model, before its trace is read
    weight_ok = model.weight_mask
    angles, (size1, size4) = frozenset(range(model.steps)), model.kappa.shape

    def event_product(phis, sector, event, required):
        # bounds first: numpy would wrap a negative index onto a valid cell
        l1, l4 = event
        if not angles.issuperset(phis):
            raise ReplayError(f"{phis} has an angle step outside [0, {model.steps})")
        if not (0 <= l1 < size1 and 0 <= l4 < size4):
            raise ReplayError(
                f"cited event {event} at {phis} is outside the hidden"
                f" values {model.kappa.shape}"
            )
        if sign_table(model.n, sector)[phis] != required:
            kind = "a correlated" if required == 1 else "an anticorrelated"
            raise ReplayError(f"{phis} is not {kind} tuple")
        if model.kappa[l1, l4] != sector:
            raise ReplayError(f"cited event {event} is not in sector {sector:+d}")
        if not weight_ok[l1, l4]:
            raise ReplayError(f"cited event {event} carries no weight")
        k1, k2, k3, k4 = phis
        value = (int(model.a[k1, l1]) * int(model.analyzer[k2, k3, l1, l4])
                 * int(model.d[k4, l4]))
        if value == 0:
            raise ReplayError(f"cited event {event} at {phis} is silent")
        return value

    for step in trace.constant.midpoint_steps + trace.constant.ratio_steps:
        if event_product(step.phis, step.sector, step.event, 1) != 1:
            raise ReplayError(f"event product at {step.phis} is not +1")

    clash = trace.clash
    if event_product(clash.phis, clash.sector, clash.event, -1) != clash.derived:
        raise ReplayError("the clash event's product differs from the trace")
    if clash.derived == clash.required:
        raise ReplayError("the recorded clash does not actually clash")

    sectors = model.sectors
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
        lambda: f"the single-source refutation on the pi/{n} grid",
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
