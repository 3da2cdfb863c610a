"""Hand-built model fixtures shared across test modules.

The composer mirrors the factorized product form independently of the
package's own generator so construct-then-recover tests have an oracle
that shares no code with the code under test.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from bellswap import factorizer, model as model_module, verdict
from bellswap.angles import required_sign, sign_table
from bellswap.factorizer import (
    ComponentAssignment,
    ConsistencyWitness,
    CounterexampleAlarm,
    FactorizeResult,
    TraceStep,
    _eliminate,
    _var_layout,
    _var_name,
    build_components,
    factorize,
)
from bellswap.model import (
    SINGLE_SOURCE,
    TWO_SOURCE,
    LhvModel,
    ModelFormatError,
    product_tensor,
    selected_analyzer,
)
from bellswap.robustness import (
    CorrelationWitness,
    CountsWitness,
    RelevanceWitness,
    _first_index,
    is_robust,
)
from bellswap.search import (
    SearchResult,
    _assemble_two_source,
    _ClassPack,
    _column_classes,
    _side_tuples,
    _sign_columns,
)


def checkerboard(size1: int, size4: int) -> np.ndarray:
    """Sector map alternating +1/-1 so each sector gets half the assignments."""
    i = np.arange(size1)[:, None]
    j = np.arange(size4)[None, :]
    return (1 - 2 * ((i + j) % 2)).astype(np.int8)


def compose_two_source(
    n=4,
    u=(1, -1),
    v=(1, 1),
    a=None,
    kappa=None,
    delta_a=None,
    delta_d=None,
    delta_f=None,
    n0=16,
):
    """Model built from the product form: responses are a*u, a*v, a*a*u*v.

    Detection masks default to full detection; kappa defaults to the
    balanced checkerboard.
    """
    m = 2 * n
    u = np.asarray(u, dtype=np.int8)
    v = np.asarray(v, dtype=np.int8)
    size1, size4 = len(u), len(v)
    a = np.ones(m, dtype=np.int8) if a is None else np.asarray(a, dtype=np.int8)
    if kappa is None:
        kappa = checkerboard(size1, size4)
    delta_a = np.ones((m, size1), np.int8) if delta_a is None else np.asarray(delta_a)
    delta_d = np.ones((m, size4), np.int8) if delta_d is None else np.asarray(delta_d)
    if delta_f is None:
        delta_f = np.ones((m, m, size1, size4), np.int8)
    else:
        delta_f = np.asarray(delta_f)
    table_a = a[:, None] * u[None, :] * delta_a
    table_d = a[:, None] * v[None, :] * delta_d
    table_f = (
        a[:, None, None, None]
        * a[None, :, None, None]
        * u[None, None, :, None]
        * v[None, None, None, :]
        * delta_f
    )
    return LhvModel(
        family="two_source",
        n=n,
        a=table_a,
        d=table_d,
        kappa=kappa,
        f_plus=table_f,
        f_minus=table_f,
        rho1=[Fraction(1, size1)] * size1,
        rho4=[Fraction(1, size4)] * size4,
        n0=n0,
    )


def demand_filled_analyzer(a, d, kappa, n):
    """Analyzer table pinned cell by cell from the correlation law.

    Each cell takes the unique sign its station supports demand, 0 when two
    demands disagree, +1 when nothing constrains it. Shares no code with
    the package's propagation.
    """
    m = 2 * n

    def required(c):
        c %= m
        if (2 * c) % n:
            return 0
        return 1 if c % n == 0 else -1

    size1, size4 = a.shape[1], d.shape[1]
    table = np.zeros((m, m, size1, size4), dtype=np.int8)
    for l1 in range(size1):
        for l4 in range(size4):
            s = int(kappa[l1, l4])
            for k2 in range(m):
                for k3 in range(m):
                    demands = set()
                    for k1 in range(m):
                        if not a[k1, l1]:
                            continue
                        for k4 in range(m):
                            if not d[k4, l4]:
                                continue
                            r = required(k1 - k2 + s * (k3 - k4))
                            if r:
                                demands.add(r * int(a[k1, l1]) * int(d[k4, l4]))
                    if len(demands) == 1:
                        table[k2, k3, l1, l4] = demands.pop()
                    elif not demands:
                        table[k2, k3, l1, l4] = 1
    return table


def parity_split_model(n=4):
    """Two λ per source, each firing only on its own angle parity.

    Every correlated tuple routes through exactly one parity-matched pair,
    so the full correlation law holds with events at every tuple, yet the
    analyzer table is antisymmetric across some cross-parity pairs.
    """
    m = 2 * n
    ih = np.array([(-1) ** (k // 2) for k in range(m)], dtype=np.int8)
    a = np.zeros((m, 2), dtype=np.int8)
    for k in range(m):
        a[k, k % 2] = ih[k]
    kappa = np.ones((2, 2), dtype=np.int8)
    f = demand_filled_analyzer(a, a, kappa, n)
    return LhvModel(
        family="two_source",
        n=n,
        a=a,
        d=a.copy(),
        kappa=kappa,
        f_plus=f,
        f_minus=f,
        rho1=[Fraction(1, 2)] * 2,
        rho4=[Fraction(1, 2)] * 2,
        n0=16,
    )


def both_sector_model(n=4):
    """Full-support stations, 50% analyzer, events in both sectors."""
    m = 2 * n
    ih = np.array([(-1) ** (k // 2) for k in range(m)], dtype=np.int8)
    a = np.zeros((m, 2), dtype=np.int8)
    for k in range(m):
        a[k, 0] = ih[k]
        a[k, 1] = ih[k] if k % 2 == 0 else -ih[k]
    kappa = np.array([[1, 1], [-1, -1]], dtype=np.int8)
    f = demand_filled_analyzer(a, a, kappa, n)
    return LhvModel(
        family="two_source",
        n=n,
        a=a,
        d=a.copy(),
        kappa=kappa,
        f_plus=f,
        f_minus=f,
        rho1=[Fraction(1, 2)] * 2,
        rho4=[Fraction(1, 2)] * 2,
        n0=16,
    )


def tables_model(a, d, f, n=2, kappa=None):
    """Wrap raw tables; uniform weights, one analyzer table for both sectors."""
    size1, size4 = a.shape[1], d.shape[1]
    if kappa is None:
        kappa = np.ones((size1, size4), dtype=np.int8)
    return LhvModel(
        family="two_source",
        n=n,
        a=a,
        d=d,
        kappa=kappa,
        f_plus=f,
        f_minus=f,
        rho1=[Fraction(1, size1)] * size1,
        rho4=[Fraction(1, size4)] * size4,
    )


def random_signs(rng, shape):
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=shape)


def random_mask(rng, shape, density):
    return (rng.random(shape) < density).astype(np.int8)


def factorized_tables(rng, m, size1, size4, density):
    """Station and analyzer tables in the factorized sign form, from random
    generator signs, each cell kept with probability ``density``."""
    gen_a, u, v = random_signs(rng, m), random_signs(rng, size1), random_signs(rng, size4)
    a = gen_a[:, None] * u[None, :] * random_mask(rng, (m, size1), density)
    d = gen_a[:, None] * v[None, :] * random_mask(rng, (m, size4), density)
    f = (gen_a[:, None, None, None] * gen_a[None, :, None, None]
         * u[None, None, :, None] * v[None, None, None, :]
         * random_mask(rng, (m, m, size1, size4), density))
    return a, d, f


@st.composite
def ternary_models(draw):
    """Sparse ternary tables at n=2 or 4 with 1-3 hidden values per source.

    Half the draws start from a factorized model (every relation holds)
    and plant sign flips in it; the other half are plain random tables.
    Silencing a station lets the scan reach the analyzer relations, and
    mirroring signs (a flip applied to both cells of an angle pair) lets it
    get past the symmetry check. Half the draws mute two or three angles:
    no station cell there and no analyzer cell joining a muted to a live
    angle, so unit propagation settles the live angles and leaves the muted
    ones to elimination, with the live cells already complete.
    """
    n = draw(st.sampled_from([2, 4]))
    size1 = draw(st.integers(1, 3))
    size4 = draw(st.integers(1, 3))
    density = draw(st.floats(0.05, 1.0))
    factorized = draw(st.booleans())
    flips = draw(st.integers(0, 3))
    silent_a, silent_d = draw(st.booleans()), draw(st.booleans())
    mirror = draw(st.booleans())
    muted = draw(st.sampled_from([0, 0, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = 2 * n
    if factorized:
        a, d, f = factorized_tables(rng, m, size1, size4, density)
    else:
        a, d, f = (random_signs(rng, shape) * random_mask(rng, shape, density)
                   for shape in ((m, size1), (m, size4), (m, m, size1, size4)))
    f = f.astype(np.int8)
    quiet = np.zeros(m, dtype=bool)
    quiet[rng.permutation(m)[:muted]] = True
    a[quiet] = 0
    d[quiet] = 0
    f[quiet[:, None] != quiet[None, :]] = 0
    if mirror:
        upper = np.triu(np.ones((m, m), dtype=bool))[:, :, None, None]
        mirrored = f.transpose(1, 0, 2, 3)
        f = np.where(upper | (mirrored == 0), f, np.abs(f) * mirrored)
    live = np.argwhere(f != 0)
    for row in rng.permutation(len(live))[:flips]:
        k2, k3, l1, l4 = live[row]
        f[k2, k3, l1, l4] *= -1
        if mirror and k2 != k3:
            f[k3, k2, l1, l4] *= -1
    if silent_a:
        a = np.zeros_like(a)
    if silent_d:
        d = np.zeros_like(d)
    return tables_model(a.astype(np.int8), d.astype(np.int8), f, n=n)


def dense_factorized_model(seed: int) -> LhvModel:
    """Dense factorized tables with up to two sign flips, drawn from a seed.

    n = 2 or 4, 1-3 hidden values per source and density 0.5-1.0; the 0-2
    flips land on live cells anywhere in the three tables. Dense stations
    let the station traversal reach every sign, so most unflipped draws are
    certified, where ``ternary_models`` rarely reaches that branch.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 4]))
    size1, size4 = rng.integers(1, 4, size=2)
    tables = factorized_tables(rng, 2 * n, size1, size4, rng.uniform(0.5, 1.0))
    live = [(table, tuple(cell)) for table in tables for cell in np.argwhere(table != 0)]
    for pick in rng.permutation(len(live))[:rng.integers(0, 3)]:
        table, cell = live[pick]
        table[cell] *= -1
    return tables_model(*tables, n=n)


def block_diagonal(a_signs, u=(1, 1), v=(1, 1), n=2):
    """Two disjoint blocks: angles [0, m/2) with hidden 0, the rest with 1."""
    m = 2 * n
    half = m // 2
    a_signs = np.asarray(a_signs, dtype=np.int8)
    block_of = (np.arange(m) >= half).astype(int)
    table_a = np.zeros((m, 2), dtype=np.int8)
    table_d = np.zeros((m, 2), dtype=np.int8)
    for k in range(m):
        table_a[k, block_of[k]] = a_signs[k] * u[block_of[k]]
        table_d[k, block_of[k]] = a_signs[k] * v[block_of[k]]
    table_f = np.zeros((m, m, 2, 2), dtype=np.int8)
    for k2 in range(m):
        for k3 in range(m):
            if block_of[k2] == block_of[k3]:
                b = block_of[k2]
                table_f[k2, k3, b, b] = a_signs[k2] * a_signs[k3] * u[b] * v[b]
    return tables_model(table_a, table_d, table_f, n=n)


def rebuild(model: LhvModel, **overrides) -> LhvModel:
    """Copy of a model with some tables replaced."""
    fields = dict(
        family=model.family,
        n=model.n,
        a=model.a,
        d=model.d,
        kappa=model.kappa,
        f_plus=model.f_plus,
        f_minus=model.f_minus,
        rho1=model.rho1,
        rho4=model.rho4,
        n0=model.n0,
    )
    fields.update(overrides)
    return LhvModel(**fields)


def _first_true(mask: np.ndarray):
    if not mask.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(mask)), mask.shape))


def materialized_consistency(model: LhvModel):
    """Oracle for ``check_consistency``: every relation as a full tensor.

    The scan as it stood before the count-then-locate kernels: each relation
    is built as one broadcast product over all of its indices and searched
    for its first -1 in row-major order.
    """
    a, d = model.a, model.d
    f = selected_analyzer(model)
    fdiag = np.einsum("iikl->ikl", f)

    cross = (
        a[:, None, :, None] * a[None, :, :, None]
        * d[:, None, None, :] * d[None, :, None, :]
    )
    where = _first_true(cross == -1)
    if where is not None:
        keys = ("alpha", "beta", "lam1", "lam4")
        return ConsistencyWitness("cross_station_rectangle",
                                  dict(zip(keys, where)), -1)

    for name, table, lam_key in (
        ("first_station_rectangle", a, "lam1"),
        ("last_station_rectangle", d, "lam4"),
    ):
        rect = (
            table[:, None, :, None] * table[:, None, None, :]
            * table[None, :, :, None] * table[None, :, None, :]
        )
        where = _first_true(rect == -1)
        if where is not None:
            keys = ("alpha", "beta", lam_key, lam_key + "_alt")
            return ConsistencyWitness(name, dict(zip(keys, where)), -1)

    sym = f * f.transpose(1, 0, 2, 3)
    where = _first_true(sym == -1)
    if where is not None:
        keys = ("alpha", "beta", "lam1", "lam4")
        return ConsistencyWitness("analyzer_symmetry", dict(zip(keys, where)), -1)

    eight_keys = ("alpha", "beta", "gamma", "delta",
                  "lam1", "lam1_alt", "lam4", "lam4_alt")
    ft = f.transpose(1, 0, 2, 3)
    base = f[:, :, None, None, :, None, :, None]
    quads = [
        ("analyzer_triple", base,
         f[:, None, :, None, :, None, None, :],
         f[None, :, :, None, None, :, :, None],
         fdiag[None, None, None, :, None, :, None, :]),
        ("analyzer_pair_shift", base,
         f[:, None, :, None, :, None, None, :],
         ft[None, :, None, :, None, :, :, None],
         ft[None, None, :, :, None, :, None, :]),
        ("analyzer_diagonal",
         fdiag[None, None, :, None, :, None, :, None],
         fdiag[None, None, None, :, None, :, None, :],
         base,
         f[:, :, None, None, None, :, None, :]),
    ]
    for name, t1, t2, t3, t4 in quads:
        where = _first_true((t1 * t2 * t3 * t4) == -1)
        if where is not None:
            return ConsistencyWitness(name, dict(zip(eight_keys, where)), -1)
    return None


def scan_then_construct(model: LhvModel) -> FactorizeResult:
    """Oracle for ``factorize``: the whole scan, then the construction.

    Every relation is scanned, by ``materialized_consistency``, before
    anything is built, with no station certificate: ``factorize`` must
    answer the same, since certified signs hold every relation. The gate
    and the dangling check are read off the ``factorizer`` module, so a test
    that waives the gate there waives it here too.
    """
    report = factorizer.is_robust(model, minus_row=False)
    if not report.is_robust:
        return FactorizeResult(status="not_robust", robustness=report)
    dangling = factorizer.find_dangling_support(model)
    if dangling is not None:
        raise CounterexampleAlarm(
            "a station response has no completing partner anywhere, which"
            f" counts and relevance are supposed to exclude: {dangling}"
        )
    witness = materialized_consistency(model)
    if witness is not None:
        return FactorizeResult(status="consistency_violated", witness=witness)
    components = factorizer.build_components(model)
    assignments = tuple(factorizer.seed_component(model, c) for c in components)
    return FactorizeResult(
        status="ok", factorization=factorizer.merge_components(model, assignments)
    )


def loop_constraints(model: LhvModel):
    """Oracle for the constraint table: the per-cell loops.

    The layer checked is ``factorizer._build_constraints``, whose rows
    ``build_components`` splits into blocks. Returns ``(vars, bit, kind,
    where)`` per constraint, in build order, as the constraint build
    produced them before it became array kernels.
    """
    m, size1 = model.steps, model.size1
    u_base, v_base = m, m + size1
    a, d = model.a, model.d
    f = selected_analyzer(model)
    out = []

    def add(raw_vars, negative, kind, where):
        parity = {}
        for var in raw_vars:
            parity[int(var)] = parity.get(int(var), 0) ^ 1
        reduced = tuple(sorted(var for var, odd in parity.items() if odd))
        out.append((reduced, int(negative), kind, where))

    for k, l1 in np.argwhere(a != 0):
        add((k, u_base + l1), a[k, l1] < 0, "first_station_cell",
            f"first station angle {k}, hidden {l1}")
    for k, l4 in np.argwhere(d != 0):
        add((k, v_base + l4), d[k, l4] < 0, "last_station_cell",
            f"last station angle {k}, hidden {l4}")
    for k2, k3, l1, l4 in np.argwhere(f != 0):
        add((k2, k3, u_base + l1, v_base + l4), f[k2, k3, l1, l4] < 0,
            "analyzer_cell", f"analyzer angles ({k2},{k3}), hidden ({l1},{l4})")
    for k, l1 in np.argwhere(a == 0):
        partner = f[k, :, l1, :] * d
        hit = np.argwhere(partner != 0)
        if len(hit):
            beta, l4 = hit[0]
            add((k, u_base + l1), partner[beta, l4] < 0, "first_station_bridge",
                f"analyzer ({k},{beta}) with last station {beta}"
                f" over hidden ({l1},{l4})")
    for k, l4 in np.argwhere(d == 0):
        partner = f[:, k, :, l4] * a
        hit = np.argwhere(partner != 0)
        if len(hit):
            beta, l1 = hit[0]
            add((k, v_base + l4), partner[beta, l1] < 0, "last_station_bridge",
                f"analyzer ({beta},{k}) with first station {beta}"
                f" over hidden ({l1},{l4})")
    for table, base, kind in (
        (a, u_base, "first_station_fill"),
        (d, v_base, "last_station_fill"),
    ):
        live = table != 0
        for beta, lam_alt in np.argwhere(table == 0):
            cand = live & live[beta, :][None, :] & live[:, lam_alt][:, None]
            picked = [(alpha, lam) for alpha, lam in np.argwhere(cand)
                      if alpha != beta and lam != lam_alt]
            if picked:
                alpha, lam = picked[0]
                prod = (int(table[alpha, lam]) * int(table[beta, lam])
                        * int(table[alpha, lam_alt]))
                add((beta, base + lam_alt), prod < 0, kind,
                    f"rectangle through angles ({alpha},{beta})"
                    f" and hidden ({lam},{lam_alt})")
    return out


def union_find_blocks(model: LhvModel, constraints):
    """Oracle for the block split: union-find over ``loop_constraints``.

    The layer checked is ``build_components``, which labels blocks by
    squaring a link matrix. Returns ``(members, anchor var, owned
    constraints)`` per block, ordered by smallest member.
    """
    total = model.steps + model.size1 + model.size4
    parent = list(range(total))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for reduced, _, _, _ in constraints:
        for var in reduced[1:]:
            rx, ry = find(reduced[0]), find(var)
            parent[max(rx, ry)] = min(rx, ry)
    blocks = {}
    for var in range(total):
        blocks.setdefault(find(var), []).append(var)
    owned = {root: [] for root in blocks}
    for constraint in constraints:
        owned[find(constraint[0][0])].append(constraint)
    return [(tuple(blocks[root]), root, owned[root]) for root in sorted(blocks)]


def assert_components_match(model: LhvModel, constraints) -> None:
    """``build_components`` against ``union_find_blocks`` over ``constraints``.

    Each block's members, anchor and ``(vars, bit, kind, where)`` rows in
    order, and that its rows are read-only.
    """
    m, size1 = model.steps, model.size1
    got = []
    for block in build_components(model):
        members = (block.angles + tuple(m + i for i in block.first_hidden)
                   + tuple(m + size1 + j for j in block.last_hidden))
        kind, index = block.anchor
        anchor = index + {"a": 0, "u": m, "v": m + size1}[kind]
        rows = [(c.vars, c.bit, c.kind, c.where) for c in block.constraints]
        got.append((members, anchor, rows))
        assert not block.constraints.rows.flags.writeable
    assert got == union_find_blocks(model, constraints)


def _family_coupling(sector: int, parity: int) -> int:
    # sign relating the two side-constant products when both blocks exist
    if parity == 0:
        return 1 if sector == 1 else -1
    return -1 if sector == 1 else 1


def _pair_not_dead(ea, oa, sea, soa, ed, od, sed, sod, sector, parity):
    """Oracle for the family fate: True where the family is alive or free.

    The general form, read from both columns' side masks and side
    constants; the class-space scan uses its closed form in column kinds.
    """
    if parity == 0:
        block1 = (ea != 0) & (ed != 0)
        block2 = (oa != 0) & (od != 0)
        lhs = sea * sed
        rhs = soa * sod
    else:
        block1 = (ea != 0) & (od != 0)
        block2 = (oa != 0) & (ed != 0)
        lhs = sea * sod
        rhs = soa * sed
    couple = lhs == _family_coupling(sector, parity) * rhs
    return ~(block1 & block2 & ~couple)


def _class_column(cls: tuple[int, int, int, int], m: int) -> np.ndarray:
    """Oracle for ``_ClassPack.column``: one class's column, bit by bit."""
    even_mask, odd_mask, sig_e, sig_o = cls
    col = np.zeros(m, dtype=np.int8)
    for bit in range(m // 2):
        if even_mask >> bit & 1:
            x = 2 * bit
            col[x] = sig_e * (-1) ** (x // 2)
        if odd_mask >> bit & 1:
            x = 2 * bit + 1
            col[x] = sig_o * (-1) ** ((x - 1) // 2)
    return col


def _spread_mask(even_mask: int, odd_mask: int) -> int:
    """Oracle for ``_ClassPack.supp``: 8-bit angle support from side masks."""
    out = 0
    for bit in range(4):
        if even_mask >> bit & 1:
            out |= 1 << (2 * bit)
        if odd_mask >> bit & 1:
            out |= 1 << (2 * bit + 1)
    return out


# every angle pair covered: all 8 byte rows of a uint64 cover full
FULL64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def fate_pack(classes):
    """The engine's ``_ClassPack`` plus the side data the general fate reads.

    Adds per-class arrays ``even``, ``odd``, ``sig_e``, ``sig_o``,
    ``two_sided`` and ``pa`` (the side-constant product), built from
    ``classes`` directly, and the uint64 ``factor`` the oracle's covers
    multiply by: a byte 1 at each supported angle's byte row, so a
    partner support times it places one copy of that support at each row.
    """
    pack = _ClassPack(classes)
    pack.even, pack.odd, pack.sig_e, pack.sig_o = (np.array(side) for side in zip(*classes))
    pack.two_sided = (pack.even != 0) & (pack.odd != 0)
    pack.pa = pack.sig_e * pack.sig_o
    r = np.arange(8, dtype=np.uint64)
    held = pack.supp[:, None].astype(np.uint64) >> r & np.uint64(1)
    pack.factor = np.bitwise_or.reduce(held << 8 * r, axis=1)
    return pack


def unmemoized_double_blocks(space):
    """Oracle for the class-space stream: every block decided on its own.

    The layer checked is ``search._pair_double_blocks``, which decides one
    block per first-station key and yields a sector map's blocks as one run.
    This is the per-block loop the search ran before it used that key. It
    yields the same ``(block, examined, hits, build)`` items as the run
    stream expanded block by block, and returns the same value.
    """
    n = space.denominator
    m = 2 * n
    classes = _column_classes(m, space.value_domain)
    pack = fate_pack(classes)
    a_idx = _side_tuples(len(classes), space.size1)
    d_idx = _side_tuples(len(classes), space.size4)
    full_mask = (1 << m) - 1
    patterns = 1 << (space.size1 * space.size4)
    total = patterns * len(a_idx)
    first, a_start = divmod(min(space.cursor, total), len(a_idx))

    for code in range(first, patterns):
        bits = [(code >> k) & 1 for k in range(space.size1 * space.size4)]
        kappa = np.array(
            [1 - 2 * b for b in bits], dtype=np.int8
        ).reshape(space.size1, space.size4)
        realized = sorted({int(v) for v in kappa.ravel()}, reverse=True)
        sector_cols1 = {
            s: [i for i in range(space.size1) if s in kappa[i, :]] for s in realized
        }
        sector_cols4 = {
            s: [j for j in range(space.size4) if s in kappa[:, j]] for s in realized
        }
        a_keep = np.ones(len(a_idx), dtype=bool)
        a_keep[:a_start] = False
        d_keep = np.ones(len(d_idx), dtype=bool)
        for s in realized:
            cols1 = sector_cols1[s]
            a_union = pack.supp[a_idx[:, cols1[0]]] | pack.supp[a_idx[:, cols1[-1]]]
            a_keep &= a_union == full_mask
            union = np.zeros(len(d_idx), dtype=np.uint16)
            for j in sector_cols4[s]:
                union |= pack.supp[d_idx[:, j]]
            d_keep &= union == full_mask
        a_start = 0
        rows = np.nonzero(d_keep)[0]
        d_cols = [d_idx[rows, j] for j in range(space.size4)]
        d_supp64 = [pack.supp[col].astype(np.uint64) for col in d_cols]
        trivial = np.ones(len(rows), dtype=bool)
        ok_cache = {}
        for j in range(space.size4):
            col = d_cols[j]
            for s in realized:
                for parity in (0, 1):
                    for pa in (1, -1):
                        ok_cache[(j, s, parity, pa)] = _pair_not_dead(
                            1, 1, 1, pa,
                            pack.even[col], pack.odd[col],
                            pack.sig_e[col], pack.sig_o[col],
                            s, parity,
                        )

        for a_pos in np.flatnonzero(a_keep).tolist():
            a_cols = a_idx[a_pos].tolist()
            cover = {key: np.zeros(len(rows), dtype=np.uint64) for key in
                     ((s, parity) for s in realized for parity in (0, 1))}
            relevant1 = [np.zeros(len(rows), dtype=bool) for _ in range(space.size1)]
            relevant4 = [np.zeros(len(rows), dtype=bool) for _ in range(space.size4)]
            for i, ci in enumerate(a_cols):
                factor = pack.factor[ci]
                for j in range(space.size4):
                    s = int(kappa[i, j])
                    rect = d_supp64[j] * factor
                    for parity in (0, 1):
                        if pack.two_sided[ci]:
                            ok = ok_cache[(j, s, parity, int(pack.pa[ci]))]
                            cover[(s, parity)] |= np.where(ok, rect, np.uint64(0))
                        else:
                            ok = trivial
                            cover[(s, parity)] |= rect
                        relevant1[i] |= ok
                        relevant4[j] |= ok
            keep = np.ones(len(rows), dtype=bool)
            for key in cover:
                keep &= cover[key] == FULL64
            for alive in relevant1:
                keep &= alive
            for alive in relevant4:
                keep &= alive

            def build(hit):
                a = np.stack([_class_column(classes[c], m) for c in a_cols], axis=1)
                d = np.stack(
                    [_class_column(classes[c], m) for c in d_idx[rows[hit]]], axis=1
                )
                return _assemble_two_source(a, d, kappa, n)

            yield code * len(a_idx) + a_pos, len(rows), np.flatnonzero(keep), build
    return total


def per_block_drive(space, blocks, stop_after, keep_limit) -> SearchResult:
    """Oracle for the run driver, ``search._drive``: books kept block by block.

    The driver as it stood before streams yielded runs of blocks, with no
    budget: it books the tallies and fills the keep list block by block.
    It is checked on the engine's own streams, expanded into blocks, so it
    tests the driver alone; the streams have their own oracles.

    ``blocks`` starts at ``space.cursor`` and yields ``(block, examined,
    hits, build)`` for each block that reaches an exact check, in the
    documented order; ``hits`` is a sequence of survivors and ``build(hit)``
    assembles one of them into a model, valid until the next block is
    drawn. The stream returns the number of blocks in the space.
    """
    result = SearchResult(family=space.family, cursor=space.cursor)
    while not result.truncated:
        try:
            block, examined, hits, build = next(blocks)
        except StopIteration as end:
            result.cursor = end.value
            result.completed = True
            break
        result.cursor = block + 1
        result.models_examined += examined
        result.robust_count += len(hits)
        for hit in hits[: max(keep_limit - len(result.robust_found), 0)]:
            model = build(hit)
            report = is_robust(model)
            if not report.is_robust:
                raise RuntimeError(
                    "search engine accepted a model the robustness module rejects; "
                    "this is a bug in the enumeration, not a finding"
                )
            if not result.robust_found:
                result.first_found, result.first_report = model, report
            result.robust_found.append(model)
            if space.family == TWO_SOURCE and factorize(model).status == "ok":
                result.consistent_found.append(model)
        if stop_after is not None and result.robust_count >= stop_after:
            result.truncated = True
    result.certifying = result.completed and space.cursor == 0
    return result


def tensor_single_blocks(space):
    """Oracle for the 1x1 scan: the int8 demand tensor of every block.

    The scan as it stood before it read demands from bit masks: each block
    multiplies out demands[d, x, k2, k3, y] for every second-station column
    and compares the tensor with +1 and -1. The same ``(block, examined,
    hits, build)`` items as the runs of the bit-mask scan, one block each,
    and the same return value.
    """
    n = space.denominator
    cols = _sign_columns(2 * n)
    count = cols.shape[0]
    sectors = (1, -1)
    first, a_start = divmod(min(space.cursor, len(sectors) * count), count)
    for s_index in range(first, len(sectors)):
        kappa = np.full((1, 1), sectors[s_index], dtype=np.int8)
        required = sign_table(n, sectors[s_index])
        for a_index in range(a_start, count):
            a_col = cols[a_index][:, None]
            base = required * a_col[:, :, None, None]
            scaled = base[None, :, :, :, :] * cols[:, None, None, None, :]
            has_plus = (scaled == 1).any(axis=(1, 4))
            has_minus = (scaled == -1).any(axis=(1, 4))
            clean = ~(has_plus & has_minus).any(axis=(1, 2))

            def build(d_index):
                return _assemble_two_source(a_col, cols[d_index][:, None], kappa, n)

            yield s_index * count + a_index, count, np.flatnonzero(clean), build
        a_start = 0
    return len(sectors) * count


def eager_product_rule(fact, model: LhvModel):
    """Oracle for ``derive_product_rule``: the events dict built eagerly.

    The stage as it stood before it kept its events as arrays: one dict
    entry per correlated tuple and sector, in row-major order, with the same
    alarms. Returns ``(sectors, verified, events)``.
    """
    sectors = model.sectors
    verified: dict = {}
    events_map: dict = {}
    a = fact.a
    for sector in sectors:
        events = broadcast_events(model, sector)
        plus = np.argwhere(sign_table(model.n, sector) == 1)
        at_plus = tuple(plus.T)
        silent = ~events.any(axis=(-2, -1))[at_plus]
        if silent.any():
            phis = tuple(plus[np.argmax(silent)].tolist())
            raise CounterexampleAlarm(
                f"correlated tuple {phis} in sector {sector:+d} has no"
                " weighted event although the counts check passed"
            )
        bad = np.flatnonzero(a[plus].prod(axis=1) != 1)
        if len(bad):
            phis = tuple(plus[bad[0]].tolist())
            raise CounterexampleAlarm(
                f"angle signs at correlated tuple {phis} in sector"
                f" {sector:+d} multiply to -1"
            )
        first = np.argmax(events.reshape(events.shape[:4] + (-1,)), axis=-1)[at_plus]
        l1, l4 = np.divmod(first, events.shape[-1])
        keys = np.column_stack([np.full(len(plus), sector), plus]).tolist()
        events_map.update(zip(map(tuple, keys), zip(l1.tolist(), l4.tolist())))
        verified[sector] = len(plus)
    return sectors, verified, events_map


def float_gap(model: LhvModel) -> float:
    """Oracle for ``EClassReport.max_discrepancy``: the largest |E - q|.

    The expectation stage as it stood before it read the extremes of the
    quantum table q: a float64 gap table per realized sector, its largest
    entry over the tuples some weighted event defines.
    """
    max_gap = 0.0
    for sector in model.sectors:
        has_pos, has_neg, table = model.event_signs[sector]
        mask = has_pos | has_neg
        if mask.any():
            gap = np.abs(table - verdict._singlet_table(model.n, sector))
            max_gap = max(max_gap, float(np.max(gap, where=mask, initial=0.0)))
    return max_gap


def queue_seed_component(model: LhvModel, component) -> ComponentAssignment:
    """Oracle for unit propagation: a queue that rescans each cell.

    The layer checked is ``seed_component`` with its ``_propagate`` walk
    over bit-set row counts. Here every queue pop lists the cell's unknown
    vars and recomputes its parity from the assignment, as the propagation
    did before it kept running counts. Same trace steps, assignments and
    alarm texts.
    """
    m, v_base, _ = _var_layout(model)
    members = set(component.angles)
    members.update(m + i for i in component.first_hidden)
    members.update(v_base + i for i in component.last_hidden)
    constraints = component.constraints
    assignment: dict = {}
    trace: list = []
    kind, index = component.anchor
    anchor_var = {"a": index, "u": m + index, "v": v_base + index}[kind]
    assignment[anchor_var] = 0
    trace.append(TraceStep(
        kind="seed",
        target=component.anchor,
        value=1,
        reason="block anchor fixed to +1; all other signs are forced"
               " relative to it",
    ))
    by_var: dict = {}
    for i, c in enumerate(constraints):
        for var in c.vars:
            by_var.setdefault(var, []).append(i)
    unknown = [len(c.vars) - (anchor_var in c.vars) for c in constraints]
    queue = deque(i for i, count in enumerate(unknown) if count <= 1)
    seen_zero: set = set()

    def settle(var, value, source):
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
    v = {var - v_base: 1 - 2 * assignment[var] for var in members if var >= v_base}
    return ComponentAssignment(
        component=component, a=a, u=u, v=v,
        trace=tuple(trace), eliminated=eliminated,
    )


def oracle_count(model: LhvModel, phis, sector: int) -> Fraction:
    """Oracle for ``event_count``: direct table lookups over every assignment.

    An independent re-implementation in exact rational arithmetic that
    shares no code path with the model module's event counting.
    """
    if sector not in (1, -1):
        raise ValueError(f"sector must be +1 or -1, got {sector}")
    k1, k2, k3, k4 = (int(p) % model.steps for p in phis)
    analyzer = model.f_plus if sector == 1 else model.f_minus
    total = Fraction(0)
    if model.family == SINGLE_SOURCE:
        for lam, weight in enumerate(model.rho1):
            if int(model.kappa[lam]) != sector:
                continue
            product = (
                int(model.a[k1, lam])
                * int(analyzer[k2, k3, lam])
                * int(model.d[k4, lam])
            )
            if product != 0:
                total += weight
    else:
        for l1, w1 in enumerate(model.rho1):
            for l4, w4 in enumerate(model.rho4):
                if int(model.kappa[l1, l4]) != sector:
                    continue
                product = (
                    int(model.a[k1, l1])
                    * int(analyzer[k2, k3, l1, l4])
                    * int(model.d[k4, l4])
                )
                if product != 0:
                    total += w1 * w4
    return Fraction(model.n0, 2) * total


def _lookup(model: LhvModel, phis, l1: int, l4: int | None):
    """Raw factors (first response, analyzer response, last response, sector)."""
    p1, p2, p3, p4 = phis
    if model.family == SINGLE_SOURCE:
        f = int(model.analyzer[p2, p3, l1])
        return int(model.a[p1, l1]), f, int(model.d[p4, l1]), int(model.kappa[l1])
    f = int(model.analyzer[p2, p3, l1, l4])
    return int(model.a[p1, l1]), f, int(model.d[p4, l4]), int(model.kappa[l1, l4])


def looped_expectation(model: LhvModel, phis, sector: int = 1,
                       analyzer_sign: int | None = -1) -> Fraction | None:
    """Oracle for ``classical_expectation``: one table lookup per assignment."""
    num = Fraction(0)
    den = Fraction(0)
    for l1, l4, w in model.assignments():
        first, analyzer, last, found = _lookup(model, phis, l1, l4)
        if found != sector:
            continue
        if analyzer_sign is not None and analyzer != analyzer_sign:
            continue
        product = first * analyzer * last
        num += w * product
        den += w * abs(product)
    if den == 0:
        return None
    return num / den


def looped_dangling(model: LhvModel) -> dict | None:
    """Oracle for ``find_dangling_support``: one loop over side, angle, value.

    Walks the first station, then the last, each angle by angle and hidden
    value by hidden value, and returns the first firing cell whose value no
    partner value completes: none with both an analyzer cell that fires in
    the pair's own sector table and a firing cell at the other station.
    """
    m = model.steps

    def analyzer_fires(l1: int, l4: int) -> bool:
        f = model.f_plus if model.kappa[l1, l4] == 1 else model.f_minus
        return any(f[k2, k3, l1, l4] != 0 for k2 in range(m) for k3 in range(m))

    def completed(side: int, hidden: int) -> bool:
        for partner in range(model.size4 if side == 1 else model.size1):
            l1, l4 = (hidden, partner) if side == 1 else (partner, hidden)
            other = model.d[:, l4] if side == 1 else model.a[:, l1]
            if analyzer_fires(l1, l4) and any(x != 0 for x in other):
                return True
        return False

    for side, table in ((1, model.a), (4, model.d)):
        for k in range(m):
            for hidden in range(table.shape[1]):
                if table[k, hidden] != 0 and not completed(side, hidden):
                    return {"side": side, "angle": k, "hidden": hidden}
    return None


def broadcast_products(model: LhvModel) -> np.ndarray:
    """Oracle for ``LhvModel.products``: one broadcast product of a, f, d."""
    f = selected_analyzer(model)
    if model.family == "single_source":
        return (model.a[:, None, None, None, :] * f[None, :, :, None, :]
                * model.d[None, None, None, :, :])
    return (model.a[:, None, None, None, :, None] * f[None, :, :, None, :, :]
            * model.d[None, None, None, :, None, :])


def broadcast_events(model: LhvModel, sector: int) -> np.ndarray:
    """Oracle for the weighted live events of a sector, as booleans over
    (angles..., hidden): all three devices fire in ``broadcast_products``,
    the assignment carries weight and kappa announces the sector."""
    return ((broadcast_products(model) != 0) & model.weight_mask
            & (model.kappa == sector))


def _hidden_axes(model: LhvModel):
    return (-1,) if model.family == "single_source" else (-2, -1)


def multi_axis_event_signs(model: LhvModel, sector: int):
    """Oracle for ``LhvModel.event_signs``: multi-axis ``.any``."""
    products = broadcast_products(model)
    events = broadcast_events(model, sector)
    has_pos = ((products == 1) & events).any(axis=_hidden_axes(model))
    has_neg = ((products == -1) & events).any(axis=_hidden_axes(model))
    table = np.zeros(has_pos.shape, dtype=np.int8)
    table[has_pos] = 1
    table[has_neg] = -1
    return has_pos, has_neg, table


def multi_axis_correlations(model: LhvModel, minus_row: bool = True):
    """Oracle for ``check_perfect_correlations``: masks from ``np.where``."""
    products = product_tensor(model)
    plus, minus = sign_table(model.n, 1), sign_table(model.n, -1)
    lam = (None,) * len(_hidden_axes(model))
    required = np.where(model.kappa == 1, plus[(...,) + lam],
                        minus[(...,) + lam])
    bad = (products != 0) & (required != 0) & (products != required)
    if not minus_row:
        bad &= required == 1
    where = _first_index(bad)
    if where is None:
        return None
    l4 = None if model.family == "single_source" else where[5]
    return CorrelationWitness(
        phis=tuple(where[:4]), l1=where[4], l4=l4,
        expected=int(required[where]), found=int(products[where]),
    )


def multi_axis_counts(model: LhvModel, require_both_sectors: bool = False):
    """Oracle for ``check_counts_nonempty``: multi-axis ``.any``."""
    sectors = (1, -1) if require_both_sectors else model.sectors
    for sector in sectors:
        covered = broadcast_events(model, sector).any(axis=_hidden_axes(model))
        where = _first_index(~covered)
        if where is not None:
            return CountsWitness(phis=tuple(where), sector=sector)
    return None


def multi_axis_relevance(model: LhvModel):
    """Oracle for ``check_relevance``: multi-axis ``.any`` on the products."""
    fires = product_tensor(model) != 0
    if model.family == "single_source":
        idle = _first_index(~fires.any(axis=(0, 1, 2, 3)))
        return None if idle is None else RelevanceWitness(side=1, index=idle[0])
    idle = _first_index(~fires.any(axis=(0, 1, 2, 3, 5)))
    if idle is not None:
        return RelevanceWitness(side=1, index=idle[0])
    idle = _first_index(~fires.any(axis=(0, 1, 2, 3, 4)))
    if idle is not None:
        return RelevanceWitness(side=4, index=idle[0])
    return None


def high_bit_eliminate(model, constraints, assignment, leftovers, trace) -> int:
    """Oracle for ``_eliminate``: Gaussian elimination with high-bit pivots.

    The elimination as it stood before the factorizer shared one GF(2)
    solver: leftovers on bits in order, each pivot on its row's highest
    bit, pivots settled from the lowest up with free signs +1. Same
    assignment, trace steps and alarm text.
    """
    position = {var: i for i, var in enumerate(leftovers)}
    rows: list[tuple[int, int]] = []  # (mask over leftovers, rhs)
    for c in constraints:
        mask, rhs = 0, c.bit
        for var in c.vars:
            if var in assignment:
                rhs ^= assignment[var]
            else:
                mask |= 1 << position[var]
        if mask:
            rows.append((mask, rhs))
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in rows:
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
    values = {var: 0 for var in leftovers}
    for pivot_bit in sorted(pivots):
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


def branching_solve_signs(sa: list[int], sd: list[int], n: int):
    """Oracle for ``search._solve_signs``: propagation with backtracking.

    The single-source sign solve as it stood before it became one GF(2)
    system: unit propagation to a fixpoint, then a branch on the first
    unknown station or partner sign in equation order, +1 first, undone
    from a snapshot when it fails. Returns the first solution's
    (station, partner, analyzer) dicts, or None.
    """
    m = 2 * n
    equations = []
    for a in sa:
        for dd in sd:
            for r in (0, 1):
                for t in range(m):
                    req = required_sign(a - dd - r + t, n)
                    if req:
                        equations.append((a, dd, (t, r), req))
    station: dict[int, int] = {sa[0]: 1}
    partner: dict[int, int] = {sd[0]: 1}
    analyzer: dict[tuple[int, int], int] = {}

    def propagate() -> bool:
        changed = True
        while changed:
            changed = False
            for a, dd, cell, req in equations:
                known = [station.get(a), partner.get(dd), analyzer.get(cell)]
                missing = known.count(None)
                if missing == 0:
                    if station[a] * partner[dd] * analyzer[cell] != req:
                        return False
                elif missing == 1:
                    value = req
                    for sign in known:
                        if sign is not None:
                            value *= sign
                    if known[0] is None:
                        station[a] = value
                    elif known[1] is None:
                        partner[dd] = value
                    else:
                        analyzer[cell] = value
                    changed = True
        return True

    def solve() -> bool:
        snapshot = (dict(station), dict(partner), dict(analyzer))

        def restore() -> None:
            for table, saved in zip((station, partner, analyzer), snapshot):
                table.clear()
                table.update(saved)

        if not propagate():
            restore()
            return False
        for a, dd, _, _ in equations:
            for table, var in ((station, a), (partner, dd)):
                if var in table:
                    continue
                for guess in (1, -1):
                    table[var] = guess
                    if solve():
                        return True
                    restore()
                    propagate()
                return False
        return True

    if not solve():
        return None
    return station, partner, analyzer


def looped_single_source(station, partner, analyzer, n) -> LhvModel:
    """Oracle for ``search._assemble_single_source``: the lattice cell by cell.

    The assembly as it stood before it gathered by shift: a loop over
    shifts, flavors and angles that reads each solved sign from its dict.
    """
    m = 2 * n
    size = 2 * m
    a = np.zeros((m, size), dtype=np.int8)
    d = np.zeros((m, size), dtype=np.int8)
    f = np.ones((m, m, size), dtype=np.int8)
    for shift in range(m):
        for flavor in (0, 1):
            lam = 2 * shift + flavor
            for k in range(m):
                offset = (k - shift) % m
                if offset in station:
                    a[k, lam] = station[offset]
                offset_d = (k - shift - flavor) % m
                if offset_d in partner:
                    d[k, lam] = partner[offset_d]
            for k2 in range(m):
                for k3 in range(m):
                    cell = ((k3 - k2) % m, flavor)
                    f[k2, k3, lam] = analyzer.get(cell, 1)
    return LhvModel(
        family=SINGLE_SOURCE,
        n=n,
        a=a,
        d=d,
        kappa=np.ones(size, dtype=np.int8),
        f_plus=f,
        f_minus=f,
        rho1=[Fraction(1, size)] * size,
        rho4=None,
        n0=2 * size,
    )


def signature_scan_contradiction(n: int) -> dict:
    """Oracle for ``single_source_contradiction``: the signature-table scan.

    The refutation as it stood before it solved each sector by GF(2) rank:
    one int8 signature row per station sign vector, first-station rows
    indexed by their bytes, every last-station row matched against them.
    Returns the certificate's ``assignments_checked``, ``contradicted``,
    ``survivors`` (the first pair in scan order) and ``all_contradicted``.
    """
    m = 2 * n
    combos = 1 << m
    bits = (np.arange(combos)[:, None] >> np.arange(m)[None, :]) & 1
    signs = (1 - 2 * bits).astype(np.int8)  # row i = one station assignment
    contradicted: dict = {}
    survivors: dict = {}
    for sector in (1, -1):
        table = sign_table(n, sector)
        plus = np.argwhere(table == 1)
        minus = np.argwhere(table == -1)
        first_sig = np.concatenate([
            signs[:, plus[:, 0]] * signs[:, plus[:, 1]],
            signs[:, minus[:, 0]] * signs[:, minus[:, 1]],
        ], axis=1)
        last_sig = np.concatenate([
            signs[:, plus[:, 2]] * signs[:, plus[:, 3]],
            -(signs[:, minus[:, 2]] * signs[:, minus[:, 3]]),
        ], axis=1)
        first_index: dict[bytes, list[int]] = {}
        for i in range(combos):
            first_index.setdefault(first_sig[i].tobytes(), []).append(i)
        surviving = 0
        witness = None
        for j in range(combos):
            mates = first_index.get(last_sig[j].tobytes())
            if not mates:
                continue
            surviving += len(mates)
            if witness is None:
                witness = (signs[mates[0]].copy(), signs[j].copy())
        contradicted[sector] = combos * combos - surviving
        survivors[sector] = witness
    return {
        "assignments_checked": 2 * combos * combos,
        "contradicted": contradicted,
        "survivors": survivors,
        "all_contradicted": all(s is None for s in survivors.values()),
    }


def indent_dumps(model: LhvModel) -> str:
    """Oracle for ``model.dumps``: the document through ``json.dumps(indent=1)``.

    The encoder as it stood before ``dumps`` wrote each table from a
    per-shape layout; its text is the fingerprint ``zoo --model`` prints.
    """
    doc = {
        "family": model.family,
        "n": model.n,
        "lambda1": model.size1,
        "lambda4": model.size4 if model.family == TWO_SOURCE else None,
        "A": model.a.tolist(),
        "D": model.d.tolist(),
        "kappa": model.kappa.tolist(),
        "F_plus_sector": model.f_plus.tolist(),
        "F_minus_sector": model.f_minus.tolist(),
        "rho1": [str(w) for w in model.rho1],
        "rho4": [str(w) for w in model.rho4] if model.rho4 is not None else None,
        "n0": model.n0,
    }
    return json.dumps(doc, indent=1)


def _holds_bool(values, depth: int) -> bool:
    """Whether a nested sequence, ``depth`` levels deep, holds a bool."""
    if depth == 0:
        return type(values) in (bool, np.bool_)
    return any(_holds_bool(value, depth - 1) for value in values)


def numpy_table(values, path: str, allow_zero: bool) -> np.ndarray:
    """Oracle for the model's table intake: ``np.array`` on the input, then
    a walk for bools (numpy reads them as 0/1), then the dtype and range
    checks, each refusal in the model's words."""
    try:
        arr = np.array(values)
    except ValueError as exc:  # a ragged nested list
        raise ModelFormatError(f"{path}: malformed table data: {exc}") from exc
    if arr.size:
        allowed = [-1, 0, 1] if allow_zero else [-1, 1]
        if arr.dtype.kind not in "iu" or (
            not isinstance(values, np.ndarray) and _holds_bool(values, arr.ndim)
        ):
            raise ModelFormatError(f"{path}: values must be integers in {allowed}")
        if arr.min() < -1 or arr.max() > 1 or not (allow_zero or arr.all()):
            raise ModelFormatError(f"{path}: values must lie in {allowed}")
    return arr.astype(np.int8, copy=False)


def weight_by_weight(values, path: str) -> tuple[Fraction, ...]:
    """Oracle for the model's weight intake: each weight parsed, checked and
    summed on its own."""
    def refuse(condition, where, message):
        if not condition:
            raise ModelFormatError(f"{where}: {message}")

    refuse(isinstance(values, (list, tuple)), path, "must be a list")
    refuse(len(values) >= 1, path, "at least one hidden-variable value required")
    out = []
    for i, v in enumerate(values):
        refuse(not isinstance(v, (bool, np.bool_, float, np.floating)), f"{path}[{i}]",
               f"not a rational number: {v!r}")
        try:
            w = Fraction(v)
        except (TypeError, ValueError, ZeroDivisionError):
            w = None
        refuse(w is not None, f"{path}[{i}]", f"not a rational number: {v!r}")
        refuse(w >= 0, f"{path}[{i}]", "weights must be nonnegative")
        out.append(w)
    refuse(sum(out, Fraction(0)) == 1, path, "weights must sum to exactly 1")
    return tuple(out)


@contextmanager
def oracle_intake():
    """``LhvModel`` and ``loads`` reading tables through :func:`numpy_table`
    and weights through :func:`weight_by_weight`; every other rule is the
    model's own, in its own order."""
    with mock.patch.object(model_module, "_sign_array", numpy_table), \
            mock.patch.object(model_module, "_weights", weight_by_weight):
        yield
