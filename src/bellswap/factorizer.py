"""Constructive sign factorization of two-source models.

The target form writes every response as a product of one sign per angle and
one sign per hidden variable: first station a(angle)*u(lam1), last station
a(angle)*v(lam4), analyzer a(angle2)*a(angle3)*u(lam1)*v(lam4), with the
detection pattern carried separately by the zeros of the tables.

``check_consistency`` scans the product relations any factorizable model must
satisfy, the rows of one einsum table over angle letters a-d and hidden
letters p, q (first source) and r, s (last source); each 8-index row is
summed by ``np.einsum`` over the signed int64 tables and over their absolute
values, and built out, after a size check, only when the two sums differ.
``factorize`` solves the signs by one traversal of the nonzero station cells
from a(0) = +1; signs that reproduce every response certify the model, since
then every relation is +1 or 0. Any other model is scanned, then, with no
witness, built by the construction below, which a certified result runs on
the first read of its blocks or trace.
``build_components`` turns every nonzero cell into a parity constraint, a
row of one int table built by array kernels, and splits the support into
blocks that share no nonzero cell.
``seed_component`` anchors one sign per block and propagates the rest
through the table's rows, recording every forced assignment.
``merge_components`` aligns the blocks' leftover global signs against the
correlated angle tuples. The whole pipeline is deterministic: the same model
always yields the same factorization and the same trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .angles import sign_table
from .model import (
    SINGLE_SOURCE,
    LhvModel,
    _read_only,
    _refuse_oversize,
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

    ``constraints`` carries the block's parity constraints as rows of an
    int table in build order, so seeding a block never rebuilds them;
    iterating it yields ``_Constraint`` tuples. It is not part of the
    identity.
    """

    angles: tuple[int, ...]
    first_hidden: tuple[int, ...]
    last_hidden: tuple[int, ...]
    anchor: tuple[str, int]
    constraints: _ConstraintTable = field(compare=False, repr=False)


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


_DERIVED = ("components", "merged", "trace")


@dataclass(frozen=True)
class Factorization:
    """Total sign tables reproducing every nonzero response exactly.

    A factorization ``factorize`` certified from the station cells holds
    its model instead of ``components``, ``merged`` and ``trace``: the first
    read of any of them runs the construction and sets all three. Fields
    passed to the constructor are kept as given.
    """

    a: np.ndarray
    u: np.ndarray
    v: np.ndarray
    components: tuple[Component, ...]
    merged: tuple[bool, ...]
    trace: tuple[TraceStep, ...]

    def __getattr__(self, name):
        # reached only while a certified factorization's fields are unset
        model = self.__dict__.get("_model")
        if name not in _DERIVED or model is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        built = _construct(model)
        if not all(np.array_equal(getattr(built, s), getattr(self, s)) for s in "auv"):
            raise RuntimeError("the construction's signs differ from the certified ones")
        for key in _DERIVED:
            object.__setattr__(self, key, getattr(built, key))
        del self.__dict__["_model"]
        return getattr(self, name)

    @cached_property
    def angle_products(self) -> np.ndarray:
        """a(k1)*a(k2)*a(k3)*a(k4) at every angle tuple, int8, built once."""
        pairs = np.multiply.outer(self.a, self.a)
        return _read_only(np.multiply.outer(pairs, pairs))


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


# The product relations in scan order: a name, einsum operands and output
# letters, which name the witness keys; see ``check_consistency``.
_RELATIONS = (
    ("cross_station_rectangle", "ap,bp,ar,br", "abpr"),
    ("first_station_rectangle", "ap,aq,bp,bq", "abpq"),
    ("last_station_rectangle", "ar,as,br,bs", "abrs"),
    ("analyzer_symmetry", "abpr,bapr", "abpr"),  # the two angle slots swap
    ("analyzer_triple", "abpr,acps,bcqr,dqs", "abcdpqrs"),  # one cell through three others
    ("analyzer_pair_shift", "abpr,acps,dbqr,dcqs", "abcdpqrs"),  # pairs sharing a shifted angle
    ("analyzer_diagonal", "cpr,dqs,abpr,abqs", "abcdpqrs"),  # diagonals against a repeated cell
)
_KEYS = dict(zip("abcdpqrs", ("alpha", "beta", "gamma", "delta",
                              "lam1", "lam1_alt", "lam4", "lam4_alt")))
# per row: name, einsum subscripts, operands, each operand's position in the
# tables (a, d, fdiag, f), witness keys
_SCAN = tuple(
    (name, f"{operands}->{output}", operands,
     tuple(int(t[1] in "rs") if len(t) == 2 else len(t) - 1
           for t in operands.split(",")),
     tuple(map(_KEYS.get, output)))
    for name, operands, output in _RELATIONS
)
# the 4-index rows are located directly, the 8-index rows counted first
_LOCATED, _COUNTED = _SCAN[:4], _SCAN[4:]


def _witness(row: tuple, tables: tuple) -> ConsistencyWitness | None:
    """A scan row's first -1 instance in row-major order, by one einsum."""
    name, subscripts, _, picks, keys = row
    where = _first_index(np.einsum(subscripts, *[tables[i] for i in picks]) == -1)
    return None if where is None else ConsistencyWitness(name, dict(zip(keys, where)), -1)


def check_consistency(model: LhvModel) -> ConsistencyWitness | None:
    """Exhaustively scan the product relations; None means all hold.

    Every relation multiplies table entries whose hidden-variable and angle
    indices each appear an even number of times, so the product must be +1
    unless some factor is 0 (which makes the instance vacuous). The scan
    looks for product -1 and reports the first such instance in row-major
    order. The relations are the rows of ``_RELATIONS``, in order. Their
    einsum letters a b c d are the angles alpha..delta and p q r s the
    hidden values lam1, lam1_alt, lam4, lam4_alt, which name the witness
    keys; an operand of four letters reads the analyzer, of three its
    equal-angle diagonal, of two the first station (p, q) or the last (r,
    s).

    The scan runs in two halves. The located rows, the three rectangles and
    the analyzer symmetry, are searched directly. The counted rows, the
    three 8-index relations, are counted first: since every factor is -1,
    0 or +1, a row's number of -1 instances is (sum |t1 t2 t3 t4| - sum t1
    t2 t3 t4)/2. Both sums are one ``np.einsum`` each over int64 tables,
    with ``optimize=True``, whose default memory limit keeps every
    intermediate within the size of the largest operand, so no 8-index
    tensor is built for them. Only a row whose two sums differ is
    materialized, by einsum, to find its first -1; one that would take more
    than MAX_TABLE_BYTES (two bytes per instance, (2n)^4 L1^2 L4^2
    instances) raises SizeLimitError before anything is allocated.
    ``factorize`` scans only models its station signs do not certify.
    """
    _reject_single_source(model)
    f = model.analyzer
    tables = model.a, model.d, np.einsum("iikl->ikl", f), f
    for row in _LOCATED:
        if (witness := _witness(row, tables)) is not None:
            return witness
    signed = [t.astype(np.int64) for t in tables]
    unsigned = [np.abs(t) for t in signed]
    for row in _COUNTED:
        name, _, operands, picks, _ = row
        sums = [np.einsum(f"{operands}->", *[t[i] for i in picks], optimize=True)
                for t in (signed, unsigned)]
        if sums[0] != sums[1]:
            # two bytes per instance: the int8 row and its -1 mask
            _refuse_oversize(lambda: f"the {name} row of a {'x'.join(map(str, f.shape))}"
                                     " analyzer table", 2 * f.size ** 2)
            return _witness(row, tables)
    return None


def find_dangling_support(model: LhvModel) -> dict | None:
    """First station response that no analyzer/partner pair can complete.

    Returns None when every nonzero first-station (or last-station) entry has
    at least one completing event partner. Relevance implies one for every
    nonzero station cell, so robust models never fail this: it is an
    internal alarm in ``factorize``, reached only past a waived gate.
    """
    _reject_single_source(model)
    f_any = (model.analyzer != 0).any(axis=(0, 1))  # (L1, L4)
    # each station in turn, with the analyzer's support indexed by
    # (own hidden value, other hidden value): a value is completed by a
    # partner with analyzer support and support at the other station
    for side, own, other, pairs in ((1, model.a, model.d, f_any),
                                    (4, model.d, model.a, f_any.T)):
        ok = (pairs & (other != 0).any(axis=0)).any(axis=1)
        bad = np.argwhere((own != 0) & ~ok)
        if len(bad):
            k, hidden = bad[0]
            return {"side": side, "angle": int(k), "hidden": int(hidden)}
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
_KINDS = tuple(_WHERE)  # a row's kind code indexes this

# columns of a constraint row; vars and cell are padded with -1 to width 4
_VARS, _COUNT, _BIT, _KIND, _CELL = slice(0, 4), 4, 5, 6, slice(7, 11)
_ROW_WIDTH = 11


def _row_constraint(row: list[int]) -> _Constraint:
    return _Constraint(tuple(row[:row[_COUNT]]), row[_BIT], _KINDS[row[_KIND]],
                       tuple(i for i in row[_CELL] if i >= 0))


class _ConstraintTable:
    """Parity constraints as the rows of one read-only int table.

    One row per constraint, in build order. Its columns: the parity-reduced
    var ids (ascending, padded with -1 to width 4), how many there are, the
    bit (0 for +1, 1 for -1), the kind's code in ``_KINDS`` and the table
    cell ``where`` cites (padded with -1 to width 4). Indexing or iterating
    yields ``_Constraint`` tuples, built only when asked for.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray) -> None:
        rows.flags.writeable = False
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> _Constraint:
        return _row_constraint(self.rows[i].tolist())

    def __iter__(self):
        return map(_row_constraint, self.rows.tolist())


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


def _kind_rows(kind: str, var_columns, sign, cell_columns) -> np.ndarray:
    """Table rows of one constraint kind, in array order."""
    rows = np.full((len(sign), _ROW_WIDTH), -1, dtype=np.int64)
    rows.T[:len(var_columns)] = var_columns
    rows[:, _COUNT] = len(var_columns)
    rows[:, _BIT] = sign < 0
    rows[:, _KIND] = _KINDS.index(kind)
    rows.T[_CELL.start:_CELL.start + len(cell_columns)] = cell_columns
    return rows


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


def _build_constraints(model: LhvModel) -> _ConstraintTable:
    u_base, v_base, _ = _var_layout(model)
    a, d = model.a, model.d
    f = model.analyzer
    m, size1, size4 = model.steps, model.size1, model.size4

    parts = []
    for kind, table, base in (
        ("first_station_cell", a, u_base),
        ("last_station_cell", d, v_base),
    ):
        k, lam = np.nonzero(table)
        parts.append(_kind_rows(kind, (k, base + lam), table[k, lam], (k, lam)))
    # an analyzer cell's two angle signs cancel when the angles coincide
    cell = np.nonzero(f)
    k2, k3, l1, l4 = cell
    rows = _kind_rows(
        "analyzer_cell",
        (np.minimum(k2, k3), np.maximum(k2, k3), u_base + l1, v_base + l4),
        f[cell], cell,
    )
    same = k2 == k3
    rows[same, :2] = rows[same, 2:4]
    rows[same, 2:4] = -1
    rows[same, _COUNT] = 2
    parts.append(rows)

    # bridges: a silent station entry whose sign is still pinned by an
    # analyzer cell together with the other station; partners of a silent
    # first-station (k, l1) are f[k, beta, l1, l4] * d[beta, l4] over
    # (beta, l4), of a silent last-station (k, l4) f[beta, k, l1, l4] *
    # a[beta, l1] over (beta, l1)
    k, l1, pos, sign = _first_partner(
        (f.transpose(0, 2, 1, 3) * d).reshape(m, size1, -1), a == 0
    )
    beta, l4 = np.divmod(pos, size4)
    parts.append(_kind_rows("first_station_bridge", (k, u_base + l1), sign,
                            (k, beta, l1, l4)))
    k, l4, pos, sign = _first_partner(
        (f.transpose(1, 3, 0, 2) * a).reshape(m, size4, -1), d == 0
    )
    beta, l1 = np.divmod(pos, size1)
    parts.append(_kind_rows("last_station_bridge", (k, v_base + l4), sign,
                            (k, beta, l1, l4)))

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
        parts.append(_kind_rows(kind, (beta, base + lam_alt), sign,
                                (alpha, beta, lam, lam_alt)))
    return _ConstraintTable(np.concatenate(parts))


# ---------------------------------------------------------------------------
# components


def build_components(model: LhvModel) -> tuple[Component, ...]:
    """Partition angles and hidden values into non-interacting blocks.

    Every nonzero cell links all the indices it touches; blocks are returned
    ordered by their smallest member, angles counted first. The parity
    constraints come from array kernels over each cell kind as one int
    table, a row per constraint (see ``_ConstraintTable``); no per-cell
    object is built. Blocks are labelled from the table's var columns:
    each variable takes the smallest variable its block reaches, found by
    squaring a boolean link matrix over the 2n + L1 + L4 variables. A row
    belongs to the block of its first var, and each block keeps all of its
    rows, in build order, as its own table.
    """
    _reject_single_source(model)
    m, u_end, v_end = _var_layout(model)
    table = _build_constraints(model)
    var_ids = table.rows[:, _VARS]
    # link each row's first var to all of its vars; the -1 pads land in an
    # extra last column, cut off
    linked = np.eye(v_end, v_end + 1, dtype=bool)
    linked[var_ids[:, :1], var_ids] = True
    linked = linked[:, :v_end]
    linked |= linked.T
    while True:
        reach = linked @ linked
        if np.array_equal(reach, linked):
            break
        linked = reach
    label = linked.argmax(axis=1)  # smallest member of the block
    roots = np.flatnonzero(label == np.arange(v_end))
    row_label = label[var_ids[:, 0]]
    order = np.argsort(row_label, kind="stable")
    bounds = np.searchsorted(row_label[order], roots, side="right")
    components = []
    start = 0
    for root, stop in zip(roots.tolist(), bounds.tolist()):
        members = np.flatnonzero(label == root).tolist()
        components.append(Component(
            angles=tuple(v for v in members if v < m),
            first_hidden=tuple(v - m for v in members if m <= v < u_end),
            last_hidden=tuple(v - u_end for v in members if v >= u_end),
            anchor=_var_name(model, root),
            constraints=_ConstraintTable(table.rows[order[start:stop]]),
        ))
        start = stop
    return tuple(components)


def _bitsets(masks: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as a Python int, bit i for column i."""
    packed = np.packbits(masks, axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _propagate(constraints: _ConstraintTable, anchor_var: int, v_end: int):
    """Unit propagation over a block's rows; yields (row, var, value).

    Only the anchor is assigned at the start (value 0). Row sets are Python
    ints, bit i for row i: per var the rows that hold it, the rows' unknown
    counts as three bit planes, and the rows whose bit and assigned values
    have odd parity. The FIFO queue holds row sets: first the rows with at
    most one unknown var, then, after each forced sign, the rows its var
    brought down to one or none. A set is popped row by row in row order: a
    row with one unknown var forces it to the row's parity, and a complete
    row with odd parity raises CounterexampleAlarm. Checking a complete row
    changes nothing, so those before the next forcing row (all of them when
    none is left) are checked at once and the lowest odd one raises; one met
    again in a later set was even when first checked and still is.
    """
    rows = constraints.rows
    var_ids = rows[:, _VARS]
    live = var_ids >= 0
    holds = np.zeros((v_end, len(rows)), dtype=bool)
    holds[var_ids[live], np.nonzero(live)[0]] = True
    held_by = _bitsets(holds)
    unknown = rows[:, _COUNT] - holds[anchor_var]
    c0, c1, c2 = _bitsets(np.stack([unknown & bit != 0 for bit in (1, 2, 4)]))
    (odd,) = _bitsets(rows[None, :, _BIT] == 1)
    assigned = {anchor_var}

    queue = deque([((1 << len(rows)) - 1) & ~(c1 | c2)])
    while queue:
        batch = queue.popleft()
        while batch:
            forcing = batch & c0 & ~(c1 | c2)
            low = forcing & -forcing
            if violated := batch & odd & ~(c0 | c1 | c2) & (low - 1):
                c = constraints[(violated & -violated).bit_length() - 1]
                raise CounterexampleAlarm(
                    f"conflicting sign chain at {c.kind} ({c.where}):"
                    " the cell disagrees with the values already forced"
                )
            if not low:
                break
            batch &= -2 * low  # this row and those before it are popped
            i = low.bit_length() - 1
            var = next(v for v in var_ids[i].tolist()
                       if v >= 0 and v not in assigned)
            value = odd >> i & 1
            yield i, var, value
            assigned.add(var)
            held = held_by[var]
            # subtract one from the counts of the rows holding var
            borrow = held & ~c0
            c0 ^= held
            c1, borrow = c1 ^ borrow, borrow & ~c1
            c2 ^= borrow
            if value:
                odd ^= held
            if queued := held & ~(c1 | c2):
                queue.append(queued)


def seed_component(model: LhvModel, component: Component) -> ComponentAssignment:
    """Assign every sign in one block, anchored at its smallest member.

    Unit propagation over the block's cells comes first and is recorded step
    by step; if the support is too thin to finish that way, the leftover
    subsystem is solved as one GF(2) system (``_eliminate``), free signs
    +1. A contradiction raises CounterexampleAlarm.

    The propagation (``_propagate``) walks the block's constraint table once,
    checking each fully assigned row where the row-by-row walk would pop it,
    so a conflict is named at the first violated row in that order. A row's
    ``where`` text is formatted only for the steps it forces and the row
    that raises.
    """
    _reject_single_source(model)
    m, v_base, v_end = _var_layout(model)  # first-hidden variables start at m
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

    for i, var, value in _propagate(constraints, anchor_var, v_end):
        assignment[var] = value
        source = constraints[i]
        trace.append(TraceStep(
            kind="unit",
            target=_var_name(model, var),
            value=1 if value == 0 else -1,
            reason=f"{source.kind}: {source.where}",
        ))

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
    """Solve the block's not-yet-forced signs by GF(2) elimination.

    Leftover i takes bit ``len(leftovers) - 1 - i``, so the least solution
    is the first in leftover order: each sign is +1 unless the signs before
    it force -1.
    """
    top = len(leftovers) - 1
    bit_of = {var: top - i for i, var in enumerate(leftovers)}
    rows = []
    for c in constraints:
        mask, rhs = 0, c.bit
        for var in c.vars:
            if var in assignment:
                rhs ^= assignment[var]
            else:
                mask |= 1 << bit_of[var]
        rows.append((mask, rhs))  # propagation left every complete row even
    _, least = _least_parity_solution(rows)
    if least is None:
        raise CounterexampleAlarm(
            "sign subsystem is unsatisfiable after elimination"
        )
    for var in leftovers:
        value = least >> bit_of[var] & 1
        assignment[var] = value
        trace.append(TraceStep(
            kind="elimination",
            target=_var_name(model, var),
            value=1 - 2 * value,
            reason="solved from the block's remaining cells by elimination",
        ))
    return len(leftovers)


def _least_parity_solution(rows) -> tuple[int, int | None]:
    """Rank and integer-least solution of a GF(2) system.

    Each row is a ``(mask, bit)`` pair of Python ints asking that the bits
    of x the mask selects XOR to ``bit``. The rows are kept in reduced
    echelon form with each pivot on its row's lowest set bit, so every other
    bit of a pivot row is free and higher; the smallest x sets every free
    bit to 0 and each pivot to its row's bit. Returns ``(rank, x)``, or
    ``(rank, None)`` when the rows contradict each other.
    """
    pivots: dict[int, list[int]] = {}  # pivot bit -> [mask, bit]
    pivot_bits = 0
    consistent = True
    for mask, bit in rows:
        hits = mask & pivot_bits
        while hits:  # a pivot row holds no other pivot, so one pass clears them
            low = hits & -hits
            hits ^= low
            pmask, pbit = pivots[low]
            mask ^= pmask
            bit ^= pbit
        if not mask:
            consistent &= not bit
            continue
        low = mask & -mask
        for row in pivots.values():
            if row[0] & low:
                row[0] ^= mask
                row[1] ^= bit
        pivots[low] = [mask, bit]
        pivot_bits |= low
    if not consistent:
        return len(pivots), None
    return len(pivots), sum(low for low, (_, bit) in pivots.items() if bit)


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
    A lone block is the reference frame itself and needs no tuple scan.
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
    merged = np.zeros(len(assignments), dtype=bool)
    merged[:1] = True

    # each sector's correlated tuples with the block of every angle, (T, 4)
    block_tables = []
    if len(assignments) > 1:  # a lone block is the reference frame itself
        for sector in model.sectors:
            tuples = np.argwhere(sign_table(model.n, sector) == 1)
            block_tables.append((tuples, comp_of_angle[tuples]))

    progress = bool(block_tables)
    while progress:
        progress = False
        for ci, asg in enumerate(assignments):
            if merged[ci]:
                continue
            demands: set[int] = set()
            for tuples, comps4 in block_tables:
                in_this = comps4 == ci
                allowed = in_this | merged[comps4]
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
        merged=tuple(merged.tolist()),
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
        ("analyzer", model.analyzer, want_f),
    ):
        where = _first_index((table != 0) & (table != want))
        if where is not None:
            raise CounterexampleAlarm(
                f"{name} response at {where} is not reproduced by the"
                " assembled signs"
            )


def _construct(model: LhvModel) -> Factorization:
    """The construction: components, then seed, then merge."""
    components = build_components(model)
    return merge_components(model, tuple(seed_component(model, c) for c in components))


def _station_signs(model: LhvModel) -> Factorization | None:
    """The signs the station cells force from a(0) = +1, or None.

    One traversal: a(k)*u(lam1) = a[k, lam1] and a(k)*v(lam4) = d[k, lam4]
    at every nonzero cell, each sign taken from the sum of its reached
    candidates. None when some sign is never reached, or its candidates
    cancel, or the signs fail ``_verify_products``. The result holds the
    model, not its blocks and trace.
    """
    table_a, table_d = model.a.astype(np.int64), model.d.astype(np.int64)
    a = np.zeros(model.steps, dtype=np.int64)
    a[0] = 1
    while True:
        u, v = np.sign(a @ table_a), np.sign(a @ table_d)
        grown = np.where(a != 0, a, np.sign(table_a @ u + table_d @ v))
        if np.array_equal(grown, a):
            break
        a = grown
    if not (a.all() and u.all() and v.all()):
        return None
    fact = object.__new__(Factorization)
    fact.__dict__.update(a=a.astype(np.int8), u=u.astype(np.int8),
                         v=v.astype(np.int8), _model=model)
    try:
        _verify_products(model, fact)
    except CounterexampleAlarm:
        return None
    return fact


def factorize(model: LhvModel) -> FactorizeResult:
    """Full pipeline: robustness gate, station signs, else scan and construct.

    The robustness gate enforces the correlated half of the sign law plus
    counts and relevance; those are exactly the properties the construction
    consumes. Inconsistent tables are reported with their witness; the
    construction itself raising CounterexampleAlarm means an input escaped
    both gates yet cannot factor, which the theorem forbids.

    Past the gate and ``find_dangling_support``, the station traversal
    (``_station_signs``) decides first. Signs that pass ``_verify_products``
    reproduce every nonzero response, so every relation is +1 or 0: they
    certify the model. They link every sign to a(0) through station cells,
    so the construction, run on the first read of ``components``, ``merged``
    or ``trace``, finds one block with these signs as its only solution.
    Any other model is scanned by ``check_consistency``, then constructed.
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
    fact = _station_signs(model)
    if fact is None:
        witness = check_consistency(model)
        if witness is not None:
            return FactorizeResult(status="consistency_violated", witness=witness)
        fact = _construct(model)
    return FactorizeResult(status="ok", factorization=fact)
