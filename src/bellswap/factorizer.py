"""Constructive sign factorization of two-source models.

The target form writes every response as a product of one sign per angle and
one sign per hidden variable: first station a(angle)*u(lam1), last station
a(angle)*v(lam4), analyzer a(angle2)*a(angle3)*u(lam1)*v(lam4), with the
detection pattern carried separately by the zeros of the tables.

``check_consistency`` scans the product relations any factorizable model must
satisfy. ``build_components`` splits the support into blocks that share no
nonzero cell. ``seed_component`` anchors one sign per block and propagates
the rest through the nonzero cells, recording every forced assignment.
``merge_components`` aligns the blocks' leftover global signs against the
correlated angle tuples. The whole pipeline is deterministic: the same model
always yields the same factorization and the same trace.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .angles import sign_table
from .model import (
    SINGLE_SOURCE,
    LhvModel,
    realized_sectors,
    selected_analyzer,
)
from .robustness import RobustnessReport, _first_index, is_robust

__all__ = [
    "FamilyError",
    "CounterexampleAlarm",
    "ConsistencyWitness",
    "Component",
    "ComponentAssignment",
    "Factorization",
    "FactorizeResult",
    "TraceStep",
    "check_consistency",
    "build_components",
    "seed_component",
    "merge_components",
    "factorize",
    "find_dangling_support",
]


class FamilyError(TypeError):
    """Operation defined only for models with two independent sources."""


class CounterexampleAlarm(RuntimeError):
    """A contradiction the theorem rules out for robust consistent models.

    If this ever fires on such a model, either the implementation or the
    theorem's premises are falsified; the message carries the conflicting
    chain so the case can be replayed.
    """


@dataclass(frozen=True)
class ConsistencyWitness:
    """First instantiation of a product relation that evaluates to -1."""

    relation: str
    indices: dict
    product: int


@dataclass(frozen=True)
class Component:
    """One block of the support graph, listed by member indices.

    ``constraints`` carries the block's parity constraints in build order,
    so seeding a block never rebuilds them; it is not part of the identity.
    """

    angles: tuple[int, ...]
    first_hidden: tuple[int, ...]
    last_hidden: tuple[int, ...]
    anchor: tuple[str, int]
    constraints: tuple[_Constraint, ...] = field(compare=False, repr=False)


@dataclass(frozen=True)
class TraceStep:
    kind: str  # seed | unit | elimination | flip
    target: tuple[str, int]
    value: int
    reason: str


@dataclass(frozen=True)
class ComponentAssignment:
    component: Component
    a: dict
    u: dict
    v: dict
    trace: tuple[TraceStep, ...]
    eliminated: int


@dataclass(frozen=True)
class Factorization:
    """Total sign tables reproducing every nonzero response exactly."""

    a: np.ndarray
    u: np.ndarray
    v: np.ndarray
    components: tuple[Component, ...]
    merged: tuple[bool, ...]
    trace: tuple[TraceStep, ...]


@dataclass(frozen=True)
class FactorizeResult:
    status: str  # ok | not_robust | consistency_violated
    factorization: Factorization | None = None
    robustness: RobustnessReport | None = None
    witness: ConsistencyWitness | None = None


def _reject_single_source(model: LhvModel) -> None:
    if model.family == SINGLE_SOURCE:
        raise FamilyError(
            "factorization into per-source signs applies to two independent"
            " sources only"
        )


# ---------------------------------------------------------------------------
# consistency relations


# The 8-index relations, as einsum operand subscripts over the indices
# alpha beta gamma delta = a b c d and lam1 lam1_alt lam4 lam4_alt = p q r s.
# A four-letter operand is the analyzer table, a three-letter one its
# equal-angle diagonal.
_EIGHT = "abcdpqrs"
_EIGHT_KEYS = ("alpha", "beta", "gamma", "delta",
               "lam1", "lam1_alt", "lam4", "lam4_alt")
_QUADS = (
    ("analyzer_triple", "abpr,acps,bcqr,dqs"),  # one cell through three others
    ("analyzer_pair_shift", "abpr,acps,dbqr,dcqs"),  # pairs sharing a shifted angle
    ("analyzer_diagonal", "cpr,dqs,abpr,abqs"),  # diagonals against a repeated cell
)
_TRIPLE_VARIANTS = (  # the triple with its primed hidden values moved
    ("analyzer_triple_alt1", "abpr,acqr,bcps,dqs"),
    ("analyzer_triple_alt2", "abpr,acps,bcqs,dqr"),
    ("analyzer_triple_alt3", "abpr,acqs,bcpr,dqs"),
)


def _contract(operands: str, output: str, full, diag, optimize=False):
    """One relation's einsum over the analyzer table and its diagonal."""
    tables = [full if len(op) == 4 else diag for op in operands.split(",")]
    return np.einsum(f"{operands}->{output}", *tables, optimize=optimize)


@functools.lru_cache(maxsize=None)
def _contraction_path(operands: str, shape: tuple[int, ...]) -> tuple:
    """Order of one relation's full contraction, chosen once per shape."""
    f = np.zeros(shape, dtype=np.int64)
    tables = [f if len(op) == 4 else f[0] for op in operands.split(",")]
    return tuple(np.einsum_path(f"{operands}->", *tables, optimize="optimal")[0])


def check_consistency(model: LhvModel, variants: bool = False) -> ConsistencyWitness | None:
    """Exhaustively scan the product relations; None means all hold.

    Every relation multiplies table entries whose hidden-variable and angle
    indices each appear an even number of times, so the product must be +1
    unless some factor is 0 (which makes the instance vacuous). The scan
    looks for product -1 and reports the first such instance in row-major
    order. The 4-index relations (across stations, within a station, the
    analyzer's symmetry) are scanned as full tensors. Each 8-index analyzer
    relation is counted, then located: since every factor is -1, 0 or +1,
    its number of -1 instances is (sum |t1 t2 t3 t4| - sum t1 t2 t3 t4)/2,
    and both sums are int64 einsum contractions (order chosen once per
    table shape) that never build the 8-index tensor. Only a relation with
    a nonzero count is materialized, to find its first -1. ``variants``
    additionally checks the three alternative placements of the primed
    hidden variables in the triple relation.
    """
    _reject_single_source(model)
    a, d = model.a, model.d
    f = selected_analyzer(model)

    # two angles, one hidden value per side, across both stations
    cross = (
        a[:, None, :, None] * a[None, :, :, None]
        * d[:, None, None, :] * d[None, :, None, :]
    )
    where = _first_index(cross == -1)
    if where is not None:
        keys = ("alpha", "beta", "lam1", "lam4")
        return ConsistencyWitness("cross_station_rectangle",
                                  dict(zip(keys, where)), -1)

    # rectangle within one station's table
    for name, table, lam_key in (
        ("first_station_rectangle", a, "lam1"),
        ("last_station_rectangle", d, "lam4"),
    ):
        rect = (
            table[:, None, :, None] * table[:, None, None, :]
            * table[None, :, :, None] * table[None, :, None, :]
        )
        where = _first_index(rect == -1)
        if where is not None:
            keys = ("alpha", "beta", lam_key, lam_key + "_alt")
            return ConsistencyWitness(name, dict(zip(keys, where)), -1)

    # analyzer table: symmetric in its two angle slots
    sym = f * f.transpose(1, 0, 2, 3)
    where = _first_index(sym == -1)
    if where is not None:
        keys = ("alpha", "beta", "lam1", "lam4")
        return ConsistencyWitness("analyzer_symmetry", dict(zip(keys, where)), -1)

    # 8-index relations: count the -1 instances, locate only a nonzero count
    fdiag = np.einsum("iikl->ikl", f)
    signed = (f.astype(np.int64), fdiag.astype(np.int64))
    unsigned = (np.abs(signed[0]), np.abs(signed[1]))
    for name, operands in _QUADS + (_TRIPLE_VARIANTS if variants else ()):
        path = _contraction_path(operands, f.shape)
        if (_contract(operands, "", *unsigned, optimize=path)
                == _contract(operands, "", *signed, optimize=path)):
            continue
        where = _first_index(_contract(operands, _EIGHT, f, fdiag) == -1)
        return ConsistencyWitness(name, dict(zip(_EIGHT_KEYS, where)), -1)
    return None


def find_dangling_support(model: LhvModel) -> dict | None:
    """First station response that no analyzer/partner pair can complete.

    Returns None when every nonzero first-station (or last-station) entry has
    at least one completing event partner; robust models never fail this.
    """
    _reject_single_source(model)
    f = selected_analyzer(model)
    # lam1 -> exists lam4 with analyzer and last-station support
    f_any = (f != 0).any(axis=(0, 1))  # (L1, L4)
    d_any = (model.d != 0).any(axis=0)  # (L4,)
    lam1_ok = (f_any & d_any[None, :]).any(axis=1)  # (L1,)
    bad = np.argwhere((model.a != 0) & ~lam1_ok[None, :])
    if len(bad):
        k, l1 = bad[0]
        return {"side": 1, "angle": int(k), "hidden": int(l1)}
    a_any = (model.a != 0).any(axis=0)  # (L1,)
    lam4_ok = (f_any & a_any[:, None]).any(axis=0)  # (L4,)
    bad = np.argwhere((model.d != 0) & ~lam4_ok[None, :])
    if len(bad):
        k, l4 = bad[0]
        return {"side": 4, "angle": int(k), "hidden": int(l4)}
    return None


# ---------------------------------------------------------------------------
# sign variables and parity constraints

_A_VAR, _U_VAR, _V_VAR = "a", "u", "v"


class _Constraint(NamedTuple):
    vars: tuple[int, ...]  # parity-reduced variable ids, ascending
    bit: int  # 0 for +1, 1 for -1
    kind: str
    cell: tuple[int, ...]  # the table indices ``where`` cites

    @property
    def where(self) -> str:
        return _WHERE[self.kind].format(*self.cell)


_RECTANGLE = "rectangle through angles ({0},{1}) and hidden ({2},{3})"
_WHERE = {
    "first_station_cell": "first station angle {0}, hidden {1}",
    "last_station_cell": "last station angle {0}, hidden {1}",
    "analyzer_cell": "analyzer angles ({0},{1}), hidden ({2},{3})",
    "first_station_bridge":
        "analyzer ({0},{1}) with last station {1} over hidden ({2},{3})",
    "last_station_bridge":
        "analyzer ({1},{0}) with first station {1} over hidden ({2},{3})",
    "first_station_fill": _RECTANGLE,
    "last_station_fill": _RECTANGLE,
}


def _var_layout(model: LhvModel):
    m = model.steps
    return m, m + model.size1, m + model.size1 + model.size4


def _var_name(model: LhvModel, var: int) -> tuple[str, int]:
    m, u_end, v_end = _var_layout(model)
    if var < m:
        return (_A_VAR, var)
    if var < u_end:
        return (_U_VAR, var - m)
    return (_V_VAR, var - u_end)


def _pair_constraints(kind, angle, hidden_var, sign, cell) -> list[_Constraint]:
    """Constraints on one angle sign times one hidden sign, in array order."""
    bits = (sign < 0).astype(np.int8).tolist()
    return list(map(_Constraint, zip(angle.tolist(), hidden_var.tolist()),
                    bits, repeat(kind), zip(*(c.tolist() for c in cell))))


def _first_partner(partner: np.ndarray, silent: np.ndarray):
    """Silent cells with a nonzero partner, and the first partner of each.

    ``partner[i, j]`` lists the candidate partners of cell (i, j) in
    row-major order; returns the silent cells that have one, in row-major
    order, with the flat position and value of the first.
    """
    live = partner != 0
    i, j = np.nonzero(silent & live.any(axis=2))
    pos = live[i, j].argmax(axis=1)
    return i, j, pos, partner[i, j, pos]


def _build_constraints(model: LhvModel) -> list[_Constraint]:
    u_base, v_base, _ = _var_layout(model)
    a, d = model.a, model.d
    f = selected_analyzer(model)
    m, size1, size4 = model.steps, model.size1, model.size4

    out = []
    for kind, table, base in (
        ("first_station_cell", a, u_base),
        ("last_station_cell", d, v_base),
    ):
        k, lam = np.nonzero(table)
        out += _pair_constraints(kind, k, base + lam, table[k, lam], (k, lam))
    # an analyzer cell's two angle signs cancel when the angles coincide
    cell = np.nonzero(f)
    k2, k3, l1, l4 = cell
    lo, hi = np.minimum(k2, k3).tolist(), np.maximum(k2, k3).tolist()
    us, vs = (u_base + l1).tolist(), (v_base + l4).tolist()
    out += map(
        _Constraint,
        [(x, y, u, v) if x != y else (u, v) for x, y, u, v in zip(lo, hi, us, vs)],
        (f[cell] < 0).astype(np.int8).tolist(),
        repeat("analyzer_cell"),
        zip(*(c.tolist() for c in cell)),
    )

    # bridges: a silent station entry whose sign is still pinned by an
    # analyzer cell together with the other station; partners of a silent
    # first-station (k, l1) are f[k, beta, l1, l4] * d[beta, l4] over
    # (beta, l4), of a silent last-station (k, l4) f[beta, k, l1, l4] *
    # a[beta, l1] over (beta, l1)
    k, l1, pos, sign = _first_partner(
        (f.transpose(0, 2, 1, 3) * d).reshape(m, size1, -1), a == 0
    )
    beta, l4 = np.divmod(pos, size4)
    out += _pair_constraints("first_station_bridge", k, u_base + l1, sign,
                             (k, beta, l1, l4))
    k, l4, pos, sign = _first_partner(
        (f.transpose(1, 3, 0, 2) * a).reshape(m, size4, -1), d == 0
    )
    beta, l1 = np.divmod(pos, size1)
    out += _pair_constraints("last_station_bridge", k, v_base + l4, sign,
                             (k, beta, l1, l4))

    # rectangle fills: three live cells of a station rectangle pin the fourth;
    # the partners of a silent (beta, lam_alt) are the (alpha, lam) with
    # alpha live at lam and lam_alt and beta live at lam (so alpha != beta
    # and lam != lam_alt)
    for table, base, kind in (
        (a, u_base, "first_station_fill"),
        (d, v_base, "last_station_fill"),
    ):
        live = table != 0
        size = table.shape[1]
        partner = live[None, None] & live[:, None, None, :] & live.T[None, :, :, None]
        beta, lam_alt, pos, _ = _first_partner(partner.reshape(m, size, -1), ~live)
        alpha, lam = np.divmod(pos, size)
        sign = table[alpha, lam] * table[beta, lam] * table[alpha, lam_alt]
        out += _pair_constraints(kind, beta, base + lam_alt, sign,
                                 (alpha, beta, lam, lam_alt))
    return out


# ---------------------------------------------------------------------------
# components


def build_components(model: LhvModel) -> tuple[Component, ...]:
    """Partition angles and hidden values into non-interacting blocks.

    Every nonzero cell links all the indices it touches; blocks are returned
    ordered by their smallest member, angles counted first. The parity
    constraints come from array kernels over each cell kind (built once,
    their ``where`` text formatted only when a trace step or an alarm cites
    it). Blocks are labelled on the distinct constraint var-sets: each
    variable takes the smallest variable its block reaches, found by
    squaring a boolean link matrix over the 2n + L1 + L4 variables.
    """
    _reject_single_source(model)
    m, u_end, v_end = _var_layout(model)
    constraints = _build_constraints(model)
    linked = np.eye(v_end, dtype=bool)
    var_sets = {c.vars for c in constraints}
    linked[[vs[0] for vs in var_sets for _ in vs],
           [var for vs in var_sets for var in vs]] = True
    linked |= linked.T
    while True:
        reach = linked @ linked
        if np.array_equal(reach, linked):
            break
        linked = reach
    label = linked.argmax(axis=1).tolist()  # smallest member of the block
    owned: dict[int, list[_Constraint]] = {}
    for constraint in constraints:
        owned.setdefault(label[constraint.vars[0]], []).append(constraint)
    components = []
    for root in sorted(set(label)):
        members = [var for var in range(v_end) if label[var] == root]
        components.append(Component(
            angles=tuple(v for v in members if v < m),
            first_hidden=tuple(v - m for v in members if m <= v < u_end),
            last_hidden=tuple(v - u_end for v in members if v >= u_end),
            anchor=_var_name(model, root),
            constraints=tuple(owned.get(root, ())),
        ))
    return tuple(components)


def seed_component(model: LhvModel, component: Component) -> ComponentAssignment:
    """Assign every sign in one block, anchored at its smallest member.

    Unit propagation over the block's cells comes first and is recorded step
    by step; if the support is too thin to finish that way, the leftover
    subsystem is solved by elimination (free signs default to +1).
    A contradiction raises CounterexampleAlarm.
    """
    _reject_single_source(model)
    m, v_base, _ = _var_layout(model)  # first-hidden variables start at m
    members = set(component.angles)
    members.update(m + i for i in component.first_hidden)
    members.update(v_base + i for i in component.last_hidden)
    constraints = component.constraints
    assignment: dict[int, int] = {}
    trace: list[TraceStep] = []

    kind, index = component.anchor
    anchor_var = {_A_VAR: index, _U_VAR: m + index, _V_VAR: v_base + index}[kind]
    assignment[anchor_var] = 0
    trace.append(TraceStep(
        kind="seed",
        target=component.anchor,
        value=1,
        reason="block anchor fixed to +1; all other signs are forced"
               " relative to it",
    ))

    by_var: dict[int, list[int]] = {}
    for i, c in enumerate(constraints):
        for var in c.vars:
            by_var.setdefault(var, []).append(i)
    unknown = [len(c.vars) - (anchor_var in c.vars) for c in constraints]
    queue = deque(i for i, count in enumerate(unknown) if count <= 1)
    seen_zero: set[int] = set()

    def settle(var: int, value: int, source: _Constraint) -> None:
        assignment[var] = value
        trace.append(TraceStep(
            kind="unit",
            target=_var_name(model, var),
            value=1 if value == 0 else -1,
            reason=f"{source.kind}: {source.where}",
        ))
        for j in by_var.get(var, ()):
            unknown[j] -= 1
            if unknown[j] <= 1:
                queue.append(j)

    while queue:
        i = queue.popleft()
        c = constraints[i]
        missing = [var for var in c.vars if var not in assignment]
        if not missing:
            if i in seen_zero:
                continue
            seen_zero.add(i)
            parity = c.bit
            for var in c.vars:
                parity ^= assignment[var]
            if parity:
                raise CounterexampleAlarm(
                    f"conflicting sign chain at {c.kind} ({c.where}):"
                    " the cell disagrees with the values already forced"
                )
            continue
        if len(missing) == 1:
            value = c.bit
            for var in c.vars:
                if var != missing[0]:
                    value ^= assignment[var]
            settle(missing[0], value, c)

    eliminated = 0
    leftovers = sorted(members - set(assignment))
    if leftovers:
        eliminated = _eliminate(model, constraints, assignment, leftovers, trace)

    a = {var: 1 - 2 * assignment[var] for var in members if var < m}
    u = {var - m: 1 - 2 * assignment[var] for var in members if m <= var < v_base}
    v = {var - v_base: 1 - 2 * assignment[var]
         for var in members if var >= v_base}
    return ComponentAssignment(
        component=component, a=a, u=u, v=v,
        trace=tuple(trace), eliminated=eliminated,
    )


def _eliminate(model, constraints, assignment, leftovers, trace) -> int:
    """Gaussian elimination over the block's not-yet-forced signs."""
    position = {var: i for i, var in enumerate(leftovers)}
    rows: list[tuple[int, int]] = []  # (mask over leftovers, rhs)
    for c in constraints:
        mask, rhs = 0, c.bit
        for var in c.vars:
            if var in assignment:
                rhs ^= assignment[var]
            else:
                mask |= 1 << position[var]
        # unit propagation already checked every fully assigned cell
        if mask:
            rows.append((mask, rhs))
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in rows:
        # each pivot row's highest bit is its pivot, so reducing from the
        # top down terminates with a mask whose top bit is fresh
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                break
            pmask, prhs = pivots[top]
            mask ^= pmask
            rhs ^= prhs
        if mask == 0:
            if rhs:
                raise CounterexampleAlarm(
                    "sign subsystem is unsatisfiable after elimination"
                )
            continue
        pivots[mask.bit_length() - 1] = (mask, rhs)
    values = {var: 0 for var in leftovers}  # free signs default to +1
    for pivot_bit in sorted(pivots):  # lower pivots feed higher rows
        pmask, prhs = pivots[pivot_bit]
        acc = prhs
        bits = pmask & ~(1 << pivot_bit)
        while bits:
            low = bits & -bits
            acc ^= values[leftovers[low.bit_length() - 1]]
            bits ^= low
        values[leftovers[pivot_bit]] = acc
    for var in leftovers:
        assignment[var] = values[var]
        trace.append(TraceStep(
            kind="elimination",
            target=_var_name(model, var),
            value=1 - 2 * values[var],
            reason="solved from the block's remaining cells by elimination",
        ))
    return len(leftovers)


def merge_components(
    model: LhvModel, assignments: tuple[ComponentAssignment, ...]
) -> Factorization:
    """Align block signs across correlated tuples and assemble the result.

    A correlated tuple can pin a block's sign only when an odd number of its
    four angles land in that block and the rest in already-aligned blocks;
    such a tuple demands a flip exactly when its four-angle sign product is
    -1. The flip (a, u, v of the block together) preserves every response.
    The first block is the reference frame; blocks never mixed with it by
    any correlated tuple keep their seed signs and are reported unmerged.
    """
    _reject_single_source(model)
    m = model.steps
    a = np.ones(m, dtype=np.int8)
    u = np.ones(model.size1, dtype=np.int8)
    v = np.ones(model.size4, dtype=np.int8)
    comp_of_angle = np.zeros(m, dtype=int)
    for ci, asg in enumerate(assignments):
        for k, s in asg.a.items():
            a[k] = s
            comp_of_angle[k] = ci
        for i, s in asg.u.items():
            u[i] = s
        for j, s in asg.v.items():
            v[j] = s

    trace = [step for asg in assignments for step in asg.trace]
    merged = [False] * len(assignments)
    if assignments:
        merged[0] = True

    sectors = realized_sectors(model) or (1,)
    correlated: list[np.ndarray] = []
    for sector in sectors:
        correlated.append(np.argwhere(sign_table(model.n, sector) == 1))

    progress = True
    while progress:
        progress = False
        for ci, asg in enumerate(assignments):
            if merged[ci]:
                continue
            demands: set[int] = set()
            merged_ids = [j for j, flag in enumerate(merged) if flag]
            for tuples in correlated:
                comps4 = comp_of_angle[tuples]  # (T, 4)
                in_this = comps4 == ci
                allowed = in_this | np.isin(comps4, merged_ids)
                usable = allowed.all(axis=1) & (in_this.sum(axis=1) % 2 == 1)
                if not usable.any():
                    continue
                products = a[tuples[usable]].prod(axis=1)
                demands.update(int(p) for p in np.unique(products))
            if not demands:
                continue
            if demands == {1, -1}:
                raise CounterexampleAlarm(
                    "block sign cannot satisfy all correlated tuples that mix"
                    f" it with aligned blocks (block {ci})"
                )
            if demands == {-1}:
                for k in asg.a:
                    a[k] = -a[k]
                for i in asg.u:
                    u[i] = -u[i]
                for j in asg.v:
                    v[j] = -v[j]
                trace.append(TraceStep(
                    kind="flip",
                    target=assignments[ci].component.anchor,
                    value=-1,
                    reason=f"block {ci} flipped so mixing correlated tuples"
                           " multiply to +1",
                ))
            merged[ci] = True
            progress = True

    factorization = Factorization(
        a=a, u=u, v=v,
        components=tuple(asg.component for asg in assignments),
        merged=tuple(merged),
        trace=tuple(trace),
    )
    _verify_products(model, factorization)
    return factorization


def _verify_products(model: LhvModel, fact: Factorization) -> None:
    """Every nonzero response must be reproduced exactly."""
    a, u, v = fact.a, fact.u, fact.v
    want_a = a[:, None] * u[None, :]
    want_d = a[:, None] * v[None, :]
    want_f = (a[:, None, None, None] * a[None, :, None, None]
              * u[None, None, :, None] * v[None, None, None, :])
    for name, table, want in (
        ("first station", model.a, want_a),
        ("last station", model.d, want_d),
        ("analyzer", selected_analyzer(model), want_f),
    ):
        where = _first_index((table != 0) & (table != want))
        if where is not None:
            raise CounterexampleAlarm(
                f"{name} response at {where} is not reproduced by the"
                " assembled signs"
            )


def factorize(model: LhvModel) -> FactorizeResult:
    """Full pipeline: robustness gate, consistency scan, seed, merge.

    The robustness gate enforces the correlated half of the sign law plus
    counts and relevance; those are exactly the properties the construction
    consumes. Inconsistent tables are reported with their witness; the
    construction itself raising CounterexampleAlarm means an input escaped
    both gates yet cannot factor, which the theorem forbids.
    """
    _reject_single_source(model)
    report = is_robust(model, minus_row=False)
    if not report.is_robust:
        return FactorizeResult(status="not_robust", robustness=report)
    dangling = find_dangling_support(model)
    if dangling is not None:
        raise CounterexampleAlarm(
            "a station response has no completing partner anywhere, which"
            f" counts and relevance are supposed to exclude: {dangling}"
        )
    witness = check_consistency(model)
    if witness is not None:
        return FactorizeResult(status="consistency_violated", witness=witness)
    components = build_components(model)
    assignments = tuple(seed_component(model, c) for c in components)
    factorization = merge_components(model, assignments)
    return FactorizeResult(status="ok", factorization=factorization)
