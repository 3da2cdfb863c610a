"""Brute-force oracles and exhaustive searches over finite model spaces.

Two families are searched. For two-source spaces the searcher enumerates
station tables and sector maps, derives the unique maximal analyzer table
each candidate admits, and keeps the candidates the robustness module
accepts. For single-source spaces it searches a shift-covariant family
whose members are pinned down by unit propagation over sign equations.

Soundness rests on two facts proved here and property-tested in the suite:

* Maximal analyzer. Given station tables and a sector map, the correlation
  law pins every analyzer cell to a single sign, forbids it (two demands
  disagree, so any valid table holds 0 there), or leaves it free. Filling
  demanded cells with their sign, forbidden cells with 0, and free cells
  with +1 yields a table whose support contains the support of every valid
  table, cell for cell. The correlation check holds for it by construction,
  and the counts and relevance checks are monotone in support, so the
  candidate admits a robust analyzer exactly when the maximal one is
  robust. The search therefore ranges over station tables only.

* Twisted-constancy classes (pi/4 grid, two hidden values per source).
  Writing each demand as i^t * [i^x A(x)] * [i^(-y) D(y)] in the plus
  sector, and as i^(-tau) * [i^x A(x)] * [i^y D(y)] in the minus sector,
  shows a station-pair's same-parity and cross-parity diagonal families
  are each satisfiable exactly when the twisted column restrictions are
  constant on every touched parity side and one product equation between
  the four side constants holds (only that equation's sign depends on the
  sector). A family with conflicting demands zeroes all its cells;
  a family nobody demands is filled at +1. Robustness of the maximal-table
  model thus depends on a column only through its per-parity support sets
  and side constants, and replacing a non-constant side by a constant one
  of the same support never shrinks the alive set, so the enumeration may
  restrict to twisted-constant columns without missing any support shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .angles import GridError, required_sign, sign_table
from .factorizer import factorize
from .model import SINGLE_SOURCE, TWO_SOURCE, LhvModel
from .robustness import RobustnessReport, is_robust

__all__ = [
    "SearchSpace",
    "SearchResult",
    "forced_analyzer",
    "oracle_count",
    "search_two_source",
    "search_single_source",
]

FULL64 = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class SearchSpace:
    """Finite candidate space with a documented enumeration order.

    Two-source spaces enumerate (sector map, station columns) in a fixed
    nested order: sector-map patterns by binary index, then first-station
    column tuples, then second-station column tuples, each side ordered by
    descending support size with ties broken by the packed class encoding.
    Single-source spaces enumerate support-set pairs by ascending total
    size, then packed mask value. ``cursor`` counts completed outer blocks
    (two-source: sector-map/first-station pairs; single-source: support
    pairs), so a rerun with the recorded cursor resumes exactly where the
    previous run stopped.
    """

    family: str
    denominator: int = 4
    size1: int = 1
    size4: int = 1
    value_domain: str = "ternary"
    cursor: int = 0

    def __post_init__(self) -> None:
        if self.family not in (TWO_SOURCE, SINGLE_SOURCE):
            raise ValueError(f"unknown family {self.family!r}")
        if self.denominator < 1:
            raise ValueError("denominator must be a positive integer")
        if self.value_domain not in ("ternary", "signs"):
            raise ValueError(f"unknown value domain {self.value_domain!r}")
        if self.family == TWO_SOURCE:
            if not (1 <= self.size1 <= 2 and 1 <= self.size4 <= 2):
                raise ValueError(
                    "two_source search supports one or two hidden values per side"
                )
        elif self.size1 != 4 * self.denominator:
            raise ValueError(
                "single_source search uses the shift lattice: "
                f"size1 must be {4 * self.denominator}"
            )
        if self.cursor < 0:
            raise ValueError("cursor must be nonnegative")


@dataclass
class SearchResult:
    """Outcome of one search run.

    ``robust_count`` tallies every candidate that passed the search
    predicate; ``robust_found`` stores the first ``keep_limit`` of them,
    and each stored model has been re-verified by the robustness module
    before being listed. ``consistent_found`` is the subset of the stored
    models that also factorizes cleanly. ``certifying`` is True only when
    the enumeration covered its whole space within budget and without
    truncation, in which case ``robust_count == 0`` certifies emptiness.
    """

    family: str
    models_examined: int = 0
    robust_count: int = 0
    robust_found: list[LhvModel] = field(default_factory=list)
    first_found: LhvModel | None = None
    first_report: RobustnessReport | None = None
    consistent_found: list[LhvModel] = field(default_factory=list)
    completed: bool = False
    certifying: bool = False
    truncated: bool = False
    cursor: int = 0
    elapsed_seconds: float = field(default=0.0, compare=False)
    notes: str = ""


def oracle_count(model: LhvModel, phis, sector: int) -> Fraction:
    """Sector event count by direct table lookups over every assignment.

    Independent re-implementation used to cross-check the model module's
    event counting; exact rational arithmetic, no shared code paths.
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


def forced_analyzer(a: np.ndarray, d: np.ndarray, kappa: np.ndarray, n: int) -> np.ndarray:
    """Maximal analyzer table for the given station tables and sector map.

    Each cell carries the unique sign the correlation law demands through
    it, 0 when two demands disagree, and +1 when nothing constrains it.
    """
    m = 2 * n
    size1, size4 = a.shape[1], d.shape[1]
    table = np.ones((m, m, size1, size4), dtype=np.int8)
    for l1 in range(size1):
        for l4 in range(size4):
            required = sign_table(n, int(kappa[l1, l4]))
            demands = (
                required
                * a[:, l1][:, None, None, None]
                * d[:, l4][None, None, None, :]
            )
            has_plus = (demands == 1).any(axis=(0, 3))
            has_minus = (demands == -1).any(axis=(0, 3))
            cell = np.ones((m, m), dtype=np.int8)
            cell[has_minus] = -1
            cell[has_plus & has_minus] = 0
            table[:, :, l1, l4] = cell
    return table


def _assemble_two_source(a: np.ndarray, d: np.ndarray, kappa: np.ndarray, n: int) -> LhvModel:
    analyzer = forced_analyzer(a, d, kappa, n)
    size1, size4 = a.shape[1], d.shape[1]
    return LhvModel(
        family=TWO_SOURCE,
        n=n,
        a=a,
        d=d,
        kappa=kappa,
        f_plus=analyzer,
        f_minus=analyzer,
        rho1=[Fraction(1, size1)] * size1,
        rho4=[Fraction(1, size4)] * size4,
        n0=4 * n,
    )


def _record_survivor(result: SearchResult, model: LhvModel, keep_limit: int) -> None:
    result.robust_count += 1
    if len(result.robust_found) >= keep_limit:
        return
    report = is_robust(model)
    if not report.is_robust:
        raise RuntimeError(
            "search engine accepted a model the robustness module rejects; "
            "this is a bug in the enumeration, not a finding"
        )
    result.robust_found.append(model)
    if result.first_found is None:
        result.first_found = model
        result.first_report = report
    if factorize(model).status == "ok":
        result.consistent_found.append(model)


# ---------------------------------------------------------------------------
# two-source, one hidden value per side: direct sign enumeration

def _sign_columns(m: int) -> np.ndarray:
    """All +-1 columns of length m with the first entry pinned to +1 (the gauge)."""
    free = m - 1
    bits = (np.arange(1 << free)[:, None] >> np.arange(free)[None, :]) & 1
    cols = 1 - 2 * bits.astype(np.int8)
    return np.concatenate([np.ones((cols.shape[0], 1), dtype=np.int8), cols], axis=1)


def _search_pair_single(space, budget, stop_after, keep_limit, started) -> SearchResult:
    """Exhaustive scan at one hidden value per side.

    The counts check forces full support on every table (the lone
    assignment must supply the event at every angle tuple), so the ternary
    domain reduces to the sign domain, and a sign candidate is robust
    exactly when its demand set is conflict-free: a conflict zeroes a cell
    and starves those tuples, while a conflict-free forced table has full
    support, satisfies the correlation law by construction, and makes
    every hidden value relevant.
    """
    n = space.denominator
    m = 2 * n
    result = SearchResult(family=TWO_SOURCE)
    cols = _sign_columns(m)
    count = cols.shape[0]
    block = 0
    for sector in (1, -1):
        required = sign_table(n, sector)
        for a_index in range(count):
            if block < space.cursor:
                block += 1
                continue
            if budget is not None and time.monotonic() - started > budget:
                result.cursor = block
                return result
            a_col = cols[a_index]
            # demands[x, k2, k3, y] for all candidate D columns at once
            base = required * a_col[:, None, None, None]
            scaled = base[None, :, :, :, :] * cols[:, None, None, None, :]
            has_plus = (scaled == 1).any(axis=(1, 4))
            has_minus = (scaled == -1).any(axis=(1, 4))
            clean = ~(has_plus & has_minus).any(axis=(1, 2))
            result.models_examined += count
            for d_index in np.nonzero(clean)[0]:
                if len(result.robust_found) < keep_limit:
                    a = a_col[:, None].copy()
                    d = cols[d_index][:, None].copy()
                    kappa = np.full((1, 1), sector, dtype=np.int8)
                    _record_survivor(
                        result, _assemble_two_source(a, d, kappa, n), keep_limit
                    )
                else:
                    result.robust_count += 1
                if stop_after is not None and result.robust_count >= stop_after:
                    result.truncated = True
                    result.cursor = block + 1
                    return result
            block += 1
    result.cursor = block
    result.completed = True
    result.certifying = not result.truncated
    return result


# ---------------------------------------------------------------------------
# two-source, two hidden values per side: twisted-constancy classes

def _column_classes(m: int, value_domain: str) -> list[tuple[int, int, int, int]]:
    """Canonical twisted-constant columns as (even_mask, odd_mask, sig_e, sig_o).

    Masks index the even and odd angle subsets; signs are the constants of
    the twisted restrictions. The per-column sign flip is quotiented by
    pinning the first nonempty side to +1. Ordered by descending support
    size, largest columns first.
    """
    classes = []
    for even_mask in range(16):
        for odd_mask in range(16):
            if even_mask == 0 and odd_mask == 0:
                continue  # an empty column can never be relevant
            if value_domain == "signs" and (even_mask != 15 or odd_mask != 15):
                continue
            # the first nonempty side is pinned to +1, so only an odd side
            # behind a nonempty even side carries a free sign
            sig_os = (1, -1) if even_mask and odd_mask else (1,)
            for sig_o in sig_os:
                classes.append((even_mask, odd_mask, 1, sig_o))

    def size(cls):
        return bin(cls[0]).count("1") + bin(cls[1]).count("1")

    classes.sort(key=lambda cls: (-size(cls), cls))
    return classes


def _class_column(cls: tuple[int, int, int, int], m: int) -> np.ndarray:
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


def _family_coupling(sector: int, parity: int) -> int:
    # sign relating the two side-constant products when both blocks exist
    if parity == 0:
        return 1 if sector == 1 else -1
    return -1 if sector == 1 else 1


def _spread_mask(even_mask: int, odd_mask: int) -> int:
    """8-bit angle support mask from 4-bit even and odd side masks."""
    out = 0
    for bit in range(4):
        if even_mask >> bit & 1:
            out |= 1 << (2 * bit)
        if odd_mask >> bit & 1:
            out |= 1 << (2 * bit + 1)
    return out


def _side_tuples(count, size):
    if size == 1:
        return [(c,) for c in range(count)]
    return [(c1, c2) for c1 in range(count) for c2 in range(count)]


class _ClassPack:
    """Struct-of-arrays view of the canonical column classes."""

    def __init__(self, classes):
        count = len(classes)
        self.even = np.zeros(count, dtype=np.int16)
        self.odd = np.zeros(count, dtype=np.int16)
        self.sig_e = np.zeros(count, dtype=np.int8)
        self.sig_o = np.zeros(count, dtype=np.int8)
        self.supp = np.zeros(count, dtype=np.uint16)
        # support rectangle by multiplication: the factor places one copy
        # of the partner support byte at each supported angle's byte row
        self.factor = np.zeros(count, dtype=np.uint64)
        self.two_sided = np.zeros(count, dtype=bool)
        self.pa = np.zeros(count, dtype=np.int8)
        for idx, (em, om, se, so) in enumerate(classes):
            self.even[idx] = em
            self.odd[idx] = om
            self.sig_e[idx] = se
            self.sig_o[idx] = so
            spread = _spread_mask(em, om)
            self.supp[idx] = spread
            self.factor[idx] = sum(1 << (8 * r) for r in range(8) if spread >> r & 1)
            self.two_sided[idx] = bool(em) and bool(om)
            self.pa[idx] = se * so


def _pair_not_dead(ea, oa, sea, soa, ed, od, sed, sod, sector, parity):
    """Vectorized family fate: True where the family is alive or free."""
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


def _search_pair_double(space, budget, stop_after, keep_limit, started) -> SearchResult:
    """Class-space scan for two hidden values on at least one side.

    Specific to the default pi/4 grid, where the correlation law is
    supported on even index differences and the twisted-constancy
    reduction applies. Candidates are pruned in bulk by two sound
    necessary conditions (each sector must reach every station angle on
    both sides); surviving rows get the exact family-fate evaluation, so
    ``models_examined`` tallies individually decided candidates only.
    """
    n = space.denominator
    if n != 4:
        raise GridError(
            "the class-space search is built for the pi/4 grid; "
            f"denominator {n} is not supported at this size"
        )
    m = 2 * n
    result = SearchResult(family=TWO_SOURCE)
    classes = _column_classes(m, space.value_domain)
    pack = _ClassPack(classes)
    a_tuples = _side_tuples(len(classes), space.size1)
    d_tuples = _side_tuples(len(classes), space.size4)
    d_idx = np.array(d_tuples, dtype=np.int32)
    full_mask = (1 << m) - 1
    supp = pack.supp.tolist()

    kappa_patterns = []
    for code in range(1 << (space.size1 * space.size4)):
        bits = [(code >> k) & 1 for k in range(space.size1 * space.size4)]
        kappa = np.array(
            [1 - 2 * b for b in bits], dtype=np.int8
        ).reshape(space.size1, space.size4)
        kappa_patterns.append(kappa)

    block = 0
    for kappa in kappa_patterns:
        realized = sorted({int(v) for v in kappa.ravel()}, reverse=True)
        sector_cols1 = {
            s: [i for i in range(space.size1) if s in kappa[i, :]] for s in realized
        }
        sector_cols4 = {
            s: [j for j in range(space.size4) if s in kappa[:, j]] for s in realized
        }
        # a sector owns one or two first-station columns (size1 <= 2), so
        # the first and the last of them cover its support union
        first_last = [(cols[0], cols[-1]) for cols in sector_cols1.values()]
        # bulk prune on the second station: every realized sector must be
        # able to reach each of its angles
        d_keep = np.ones(len(d_tuples), dtype=bool)
        for s in realized:
            union = np.zeros(len(d_tuples), dtype=np.uint16)
            for j in sector_cols4[s]:
                union |= pack.supp[d_idx[:, j]]
            d_keep &= union == full_mask
        rows = np.nonzero(d_keep)[0]
        d_cols = [d_idx[rows, j] for j in range(space.size4)]
        d_supp64 = [pack.supp[col].astype(np.uint64) for col in d_cols]
        trivial = np.ones(len(rows), dtype=bool)
        ok_cache: dict[tuple[int, int, int, int], np.ndarray] = {}
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

        for a_cols in a_tuples:
            if block < space.cursor:
                block += 1
                continue
            if budget is not None and time.monotonic() - started > budget:
                result.cursor = block
                return result
            block += 1
            # mirror prune on the first station
            if any(
                (supp[a_cols[i]] | supp[a_cols[j]]) != full_mask for i, j in first_last
            ):
                continue
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
                            # single-sided first column: no family can die
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
            result.models_examined += len(rows)
            hits = np.nonzero(keep)[0]
            for position, hit in enumerate(hits):
                if len(result.robust_found) >= keep_limit:
                    result.robust_count += len(hits) - position
                    break
                a = np.stack(
                    [_class_column(classes[c], m) for c in a_cols], axis=1
                )
                d = np.stack(
                    [_class_column(classes[c], m) for c in d_idx[rows[hit]]], axis=1
                )
                _record_survivor(
                    result, _assemble_two_source(a, d, kappa.copy(), n), keep_limit
                )
            if stop_after is not None and result.robust_count >= stop_after:
                result.truncated = True
                result.cursor = block
                return result
    result.cursor = block
    result.completed = True
    result.certifying = not result.truncated
    return result


def search_two_source(
    space: SearchSpace,
    budget_seconds: float | None = None,
    stop_after: int | None = None,
    keep_limit: int = 16,
) -> SearchResult:
    """Enumerate two-source candidates and return the robust survivors.

    ``robust_count`` tallies every survivor; the first ``keep_limit`` are
    stored, and each stored model is re-verified by the robustness module
    before being reported. ``stop_after`` ends the run once the tally
    reaches that many (deterministically: enumeration order does not
    depend on timing, and the tally always includes the whole block that
    crossed the threshold); ``budget_seconds`` bounds wall time and, when
    exceeded, yields a partial, non-certifying result whose cursor
    resumes the scan.
    """
    if space.family != TWO_SOURCE:
        raise ValueError("search_two_source requires a two_source space")
    started = time.monotonic()
    if space.size1 == 1 and space.size4 == 1:
        result = _search_pair_single(space, budget_seconds, stop_after, keep_limit, started)
    else:
        result = _search_pair_double(space, budget_seconds, stop_after, keep_limit, started)
    result.elapsed_seconds = time.monotonic() - started
    if not result.completed and not result.truncated:
        result.notes = "budget exhausted; partial result, not certifying"
    return result


# ---------------------------------------------------------------------------
# single-source: shift-covariant lattice with sign propagation

def _propagate_signs(sa: list[int], sd: list[int], n: int):
    """Solve the shift-reduced sign system by propagation with branching.

    Variables are the station patterns on their supports and the analyzer
    pattern over (offset, flavor); equations couple one of each through the
    required product. Returns (station, partner, analyzer) dicts or None.
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
                known = [
                    station.get(a), partner.get(dd), analyzer.get(cell)
                ]
                missing = known.count(None)
                if missing == 0:
                    if station[a] * partner[dd] * analyzer[cell] != req:
                        return False
                elif missing == 1:
                    value = req
                    if known[0] is not None:
                        value *= known[0]
                    if known[1] is not None:
                        value *= known[1]
                    if known[2] is not None:
                        value *= known[2]
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
        # branch on the first unknown station sign, then partner sign, in
        # equation order
        for a, dd, _, _ in equations:
            for table, var in ((station, a), (partner, dd)):
                if var in table:
                    continue
                for guess in (1, -1):
                    table[var] = guess
                    if solve():
                        return True
                    restore()
                    if not propagate():
                        raise RuntimeError("propagation diverged after restore")
                return False
        return True

    if not solve():
        return None
    return station, partner, analyzer


def _assemble_single_source(sa, sd, station, partner, analyzer, n) -> LhvModel:
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


def search_single_source(
    space: SearchSpace,
    efficiency_floor: float = 0.5,
    budget_seconds: float | None = None,
    stop_after: int | None = 1,
    keep_limit: int = 16,
) -> SearchResult:
    """Search the shift-covariant single-source family above a firing floor.

    The floor bounds the station detectors from below (firing fraction per
    angle); the analyzer always fires. Support pairs are enumerated by
    ascending total size, kept when they can put an event at every angle
    tuple, and handed to the sign propagation; each solution is assembled
    into a full model and re-verified before being reported.
    """
    if space.family != SINGLE_SOURCE:
        raise ValueError("search_single_source requires a single_source space")
    if not 0.0 <= efficiency_floor <= 1.0:
        raise ValueError("efficiency_floor must lie in [0, 1]")
    started = time.monotonic()
    n = space.denominator
    m = 2 * n
    result = SearchResult(family=SINGLE_SOURCE)
    minimum = max(int(np.ceil(efficiency_floor * m - 1e-9)), 1)

    masks = sorted(range(1, 1 << m), key=lambda v: (bin(v).count("1"), v))
    pairs = [
        (ma, md)
        for ma in masks
        if bin(ma).count("1") >= minimum
        for md in masks
        if bin(md).count("1") >= minimum
    ]
    pairs.sort(
        key=lambda p: (bin(p[0]).count("1") + bin(p[1]).count("1"), p)
    )
    block = 0
    for ma, md in pairs:
        if block < space.cursor:
            block += 1
            continue
        if budget_seconds is not None and time.monotonic() - started > budget_seconds:
            result.cursor = block
            result.notes = "budget exhausted; partial result, not certifying"
            result.elapsed_seconds = time.monotonic() - started
            return result
        block += 1
        sa = [x for x in range(m) if ma >> x & 1]
        sd = [x for x in range(m) if md >> x & 1]
        reachable = {
            (a - dd - r) % m for a in sa for dd in sd for r in (0, 1)
        }
        result.models_examined += 1
        if len(reachable) != m:
            continue
        solution = _propagate_signs(sa, sd, n)
        if solution is None:
            continue
        model = _assemble_single_source(sa, sd, *solution, n)
        report = is_robust(model)
        rate_a = min(
            float(np.count_nonzero(model.a[k, :])) / model.a.shape[1]
            for k in range(m)
        )
        rate_d = min(
            float(np.count_nonzero(model.d[k, :])) / model.d.shape[1]
            for k in range(m)
        )
        if not report.is_robust or rate_a < efficiency_floor or rate_d < efficiency_floor:
            continue
        result.robust_count += 1
        if len(result.robust_found) < keep_limit:
            result.robust_found.append(model)
        if result.first_found is None:
            result.first_found = model
            result.first_report = report
        if stop_after is not None and result.robust_count >= stop_after:
            result.truncated = True
            result.cursor = block
            result.elapsed_seconds = time.monotonic() - started
            return result
    result.cursor = block
    result.completed = True
    result.certifying = not result.truncated
    result.elapsed_seconds = time.monotonic() - started
    return result
