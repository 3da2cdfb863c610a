"""Brute-force oracles and exhaustive searches over finite model spaces.

Two families are searched. For two-source spaces the searcher enumerates
station tables and sector maps, derives the unique maximal analyzer table
each candidate admits, and keeps the candidates the robustness module
accepts. For single-source spaces it searches a shift-covariant family
whose members are pinned down by one GF(2) solve of their sign equations.

Soundness rests on three facts proved here and property-tested in the suite:

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
  constant on every touched parity side and, for two two-sided columns,
  k_a * k_d = c. A column's kind k is the product of its side constants
  (0 when single-sided); c is s for the same-parity family in sector s
  and -s for the cross-parity one. A family with conflicting demands
  zeroes all its cells; a family nobody demands is filled at +1.
  Robustness of the maximal-table model thus depends on a column only
  through its per-parity support sets and side constants, and replacing
  a non-constant side by a constant one of the same support never
  shrinks the alive set, so the enumeration may restrict to
  twisted-constant columns without missing any support shape. A pair's
  two families in one sector have opposite couplings, so one stays alive
  and relevance always holds: a candidate is decided by its cover alone.

* Block keys (class space). Under a fixed sector map the exact check
  reads a first-station column through its support and its kind only:
  kind 0 keeps every family it touches, kind +1 or -1 picks, for each
  second-station kind, the coupling whose family survives. Every byte of
  a cover is a copy of a partner's support byte, so byte r of a sector's
  cover is the OR, over the columns whose support holds angle r, of one
  per-row partner byte per column: the OR of the supports of its alive
  partners in that sector. It depends on the tuple only through the
  columns' kinds and through which columns support r. Tuples that agree
  on their kinds and on the set of these per-angle patterns therefore
  keep the same second-station rows, and each sector map decides one
  block per such key. A key is one uint16, below 144 for two hidden
  values (9 kind pairs x 16 pattern sets). The class tables and the key
  of every tuple are built once per value domain and tuple size, and
  each class's station column is a row of ``_ClassPack.column``, beside
  its support byte and kind.

Every scan streams runs of consecutive blocks to one driver, which books
tallies, ``stop_after`` and the keep list per run and checks the wall-clock
budget between runs. A run is one sector map for the class-space scan, a
chunk of first-station columns of one sector for the 1x1 scan, and one
block for the single-source search; ``cursor`` still counts blocks.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from typing import NamedTuple

import numpy as np

from .angles import GridError, UsageError, required_sign, sign_table
from .factorizer import _least_parity_solution, factorize
from .model import (
    SINGLE_SOURCE,
    TWO_SOURCE,
    LhvModel,
    _read_only,
    _refuse_oversize,
    _uniform_model,
)
from .robustness import RobustnessReport, is_robust

__all__ = [
    "SearchSpace",
    "SearchResult",
    "forced_analyzer",
    "oracle_count",
    "search_two_source",
    "search_single_source",
]

_TERNARY = np.array([-1, 0, 1])[:, None]
# an analyzer cell by its demands, indexed 2 * minus + plus: none and plus
# alone give +1, minus alone -1, and both 0
_CELL = np.array([1, 1, -1, 0], dtype=np.int8)


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
            raise UsageError(f"unknown family {self.family!r}")
        if not isinstance(self.denominator, int) or self.denominator < 1:
            raise UsageError("denominator must be a positive integer")
        if self.value_domain not in ("ternary", "signs"):
            raise UsageError(f"unknown value domain {self.value_domain!r}")
        if self.family == TWO_SOURCE:
            if not (1 <= self.size1 <= 2 and 1 <= self.size4 <= 2):
                raise UsageError(
                    "two_source search supports one or two hidden values per side"
                )
        elif self.size1 != 4 * self.denominator:
            raise UsageError(
                "single_source search uses the shift lattice: "
                f"size1 must be {4 * self.denominator}"
            )
        if self.cursor < 0:
            raise UsageError("cursor must be nonnegative")


@dataclass
class SearchResult:
    """Outcome of one search run; every family follows the same rules.

    ``models_examined`` tallies the candidates decided exactly and
    ``robust_count`` those that passed the search predicate.
    ``robust_found`` keeps the first ``keep_limit`` survivors in enumeration
    order; each is re-verified by the robustness module before it is kept,
    and a reject raises ``RuntimeError``. ``first_found`` and
    ``first_report`` are the first kept model and its report.
    ``consistent_found`` holds the kept models that also factorize cleanly;
    it stays empty for single-source runs, which the factorizer refuses.

    ``stop_after`` ends a search on a whole-block boundary: the tally includes
    every survivor of the block that reached it, ``truncated`` is set and
    ``cursor`` resumes at the next block. The budget is checked between
    runs of blocks: a run is one sector map for the class-space scan, a
    chunk of first-station columns for the 1x1 scan and one block for the
    single-source search, so a spent budget can overshoot by at most one
    run. It ends the search before the next run, with ``notes``
    set and ``cursor`` just past the last block booked.
    ``certifying`` is True only for a search that started at cursor 0 and
    covered the whole space, in which case ``robust_count == 0`` certifies
    emptiness; a resumed search never certifies, since it skipped blocks.
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


@lru_cache(maxsize=4)
def _demand_bits(n: int, sector: int) -> np.ndarray:
    """The sector's sign table as bit masks over k3, one layer per sign.

    Entry [1 + s, k1, k4, k2] packs, little-endian over its bytes, a bit
    for each k3 where the table requires the product s at (k1, k2, k3, k4).
    The s = 0 layer is empty: it is what a silent station selects. The
    array is read-only, cached for two grids with both sectors.
    """
    required = sign_table(n, sector).transpose(0, 3, 1, 2)
    layers = np.stack([required == -1, np.zeros(required.shape, bool), required == 1])
    return _read_only(np.packbits(layers, axis=-1, bitorder="little"))


def _or_selected(table: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """OR over j of table[1 + signs[j, ...], j]: the layers a sign row picks.

    The picked layers are gathered with j leading, so the reduce ORs whole
    contiguous layers into one another.
    """
    j = np.arange(len(signs)).reshape((-1,) + (1,) * (signs.ndim - 1))
    return np.bitwise_or.reduce(table[1 + signs, j], axis=0)


def _demand_masks(table: np.ndarray, a_cols: np.ndarray, d_cols: np.ndarray):
    """The signs the correlation law demands of the analyzer at (k2, k3).

    ``table`` is ``_demand_bits(n, sector)``, ``a_cols`` a batch [c, k1] of
    first-station columns and ``d_cols`` rows [d, k4] of second-station
    columns, over {-1, 0, +1}. A demand at (k1, k2, k3, k4) is required *
    a[k1] * d[k4], so it is s exactly where the table requires s * a[k1] *
    d[k4]; a 0 entry selects the empty layer and adds no demand. Returns
    ``(has_plus, has_minus)``, masks [d, c, k2, byte] packed over k3 like
    the table. The largest temporary is the layers picked for one of
    them, [k4, d, c, k2, byte].
    """
    # [1 + t, k4, c, k2]: the cells where some k1 has required * a[k1] = t
    by_k4 = _or_selected(table, a_cols.T[:, None] * _TERNARY)
    by_k4 = np.ascontiguousarray(by_k4.swapaxes(1, 2))
    return _or_selected(by_k4, d_cols.T), _or_selected(by_k4, -d_cols.T)


def forced_analyzer(a: np.ndarray, d: np.ndarray, kappa: np.ndarray, n: int) -> np.ndarray:
    """Maximal analyzer table for the given station tables and sector map.

    Each cell carries the unique sign the correlation law demands through
    it, 0 when two demands disagree, and +1 when nothing constrains it.
    One ``_demand_masks`` call per sector ``kappa`` announces covers every
    hidden pair at once, and each pair takes the cells of its own sector.
    """
    m = 2 * n
    table = np.empty((m, m) + kappa.shape, dtype=np.int8)
    for sector in set(kappa.ravel().tolist()):
        plus, minus = (
            np.unpackbits(mask, axis=-1, count=m, bitorder="little")
            for mask in _demand_masks(_demand_bits(n, sector), a.T, d.T)
        )
        # [l4, l1, k2, k3] to [k2, k3, l1, l4]
        cell = _CELL[minus << 1 | plus].transpose(2, 3, 1, 0)
        np.copyto(table, cell, where=kappa == sector)
    return table


def _assemble_two_source(a: np.ndarray, d: np.ndarray, kappa: np.ndarray, n: int) -> LhvModel:
    """The candidate's model with its maximal analyzer table in both sectors."""
    return _uniform_model(n, a, d, kappa, forced_analyzer(a, d, kappa, n))


def _drive(space, runs, budget, stop_after, keep_limit) -> SearchResult:
    """Run one enumerator's stream of block runs and keep all of the run's books.

    ``runs`` starts at ``space.cursor`` and yields ``(blocks, examined,
    tally, hits_of, build)`` for each run of consecutive blocks that reach
    an exact check, in the documented order: ``blocks`` holds the block
    numbers, each block examined ``examined`` candidates, and ``tally[i]``
    counts the survivors of blocks 0..i of the run. ``hits_of(i)`` is the
    sequence of block i's survivors and ``build(i, hit)`` assembles one of
    them into a model, both valid until the next run is drawn. The stream
    returns the number of blocks in the space. The books are kept per run
    and the budget is checked between runs.
    """
    if stop_after is not None and stop_after < 1:
        raise UsageError("stop_after must be a positive integer")
    if budget is not None and not (math.isfinite(budget) and budget >= 0):
        raise UsageError("budget_seconds must be a finite nonnegative number")
    started = time.monotonic()

    def spent() -> float:
        return time.monotonic() - started

    result = SearchResult(family=space.family, cursor=space.cursor)
    while not result.truncated:
        if budget is not None and spent() > budget:
            result.notes = "budget exhausted; partial result, not certifying"
            break
        try:
            blocks, examined, tally, hits_of, build = next(runs)
        except StopIteration as end:
            result.cursor = end.value
            result.completed = True
            break
        booked = len(blocks)
        if stop_after is not None and result.robust_count + int(tally[-1]) >= stop_after:
            # stop on the block whose survivors reach the tally
            booked = int(np.searchsorted(tally, stop_after - result.robust_count)) + 1
            result.truncated = True
        found = int(tally[booked - 1])
        result.cursor = int(blocks[booked - 1]) + 1
        result.models_examined += examined * booked
        result.robust_count += found
        if not found or len(result.robust_found) >= keep_limit:
            continue
        for i in np.flatnonzero(np.diff(tally[:booked], prepend=0)).tolist():
            room = keep_limit - len(result.robust_found)
            if room <= 0:
                break
            for hit in hits_of(i)[:room]:
                model = build(i, hit)
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
    result.certifying = result.completed and space.cursor == 0
    result.elapsed_seconds = spent()
    return result


# ---------------------------------------------------------------------------
# two-source, one hidden value per side: direct sign enumeration

def _sign_columns(m: int) -> np.ndarray:
    """All +-1 columns of length m with the first entry pinned to +1 (the gauge)."""
    free = m - 1
    bits = (np.arange(1 << free)[:, None] >> np.arange(free)[None, :]) & 1
    cols = 1 - 2 * bits.astype(np.int8)
    return np.concatenate([np.ones((cols.shape[0], 1), dtype=np.int8), cols], axis=1)


# bytes of demand layers one run of the 1x1 scan may pick at once
_CHUNK_BYTES = 128 * 1024


def _scan_chunk(n: int) -> int:
    """First-station columns per run of the 1x1 scan on the pi/n grid.

    As many as keep the layers picked for every second-station column,
    [k4, d, c, k2, byte], within ``_CHUNK_BYTES``: a sector's whole
    column set up to n = 3, 16 columns at n = 4, and one from n = 5 on.
    """
    m = 2 * n
    count = 2 ** (m - 1)
    per_column = count * m * m * -(-m // 8)
    return min(max(_CHUNK_BYTES // per_column, 1), count)


def _single_scan_bytes(n: int) -> int:
    """Estimated peak bytes of the 1x1 scan on the pi/n grid: one run's
    picked layers and the masks beside them, and the sign tables built once.
    """
    m = 2 * n
    count, width = 2 ** (m - 1), -(-m // 8)
    # per run of c columns: the layers picked for every second-station
    # column, [k4, d, c, k2, byte], and about 16 bytes per (k4, d) and
    # column beside them (an intp copy of the picking signs, the signs'
    # int8 temporaries, and the reduced masks of this run and the last);
    # once: the sign table's int64 build and its bit layers
    return _scan_chunk(n) * count * m * (m * width + 16) + 32 * m**4


def _pair_single_blocks(space):
    """Exhaustive scan at one hidden value per side.

    The counts check forces full support on every table (the lone
    assignment must supply the event at every angle tuple), so the ternary
    domain reduces to the sign domain. With full-support stations every
    (k1, k4) pair the sign table speaks at demands a sign of cell (k2, k3),
    and a sign candidate is robust exactly when no cell is demanded both +
    and -: such a cell must hold 0, which starves the tuples through it,
    while a conflict-free forced table has full support, satisfies the
    correlation law by construction, and makes the lone hidden values
    relevant.

    A block is one sector and first-station column a; a run is a chunk of
    ``_scan_chunk(n)`` consecutive first-station columns of one sector.
    ``_demand_masks`` first ORs the sector's bit table over k1, as each a
    of the chunk selects it, into masks [1 + t, k4, a, k2] whose bit k3 is
    set where some k1 gives required * a[k1] = t. For every second-station
    column d at once it then ORs those over k4, picking t = d[k4] for
    has_plus and t = -d[k4] for has_minus: bit k3 of has_plus[d, a, k2] is
    set where some (k1, k4) demands +1 at (k2, k3). A candidate is clean
    when has_plus & has_minus is 0 in every byte.
    """
    n = space.denominator
    cols = _sign_columns(2 * n)
    count = cols.shape[0]
    chunk = _scan_chunk(n)
    sectors = (1, -1)
    first, a_start = divmod(min(space.cursor, len(sectors) * count), count)
    for s_index in range(first, len(sectors)):
        kappa = np.full((1, 1), sectors[s_index], dtype=np.int8)
        table = _demand_bits(n, sectors[s_index])
        for start in range(a_start, count, chunk):
            a_index = np.arange(start, min(start + chunk, count))
            has_plus, has_minus = _demand_masks(table, cols[a_index], cols)
            # clean[a, d]: no cell demanded both ways
            clean = ~(has_plus & has_minus).any(axis=(2, 3)).T
            tally = np.cumsum(clean.sum(axis=1))

            def hits_of(i):
                return np.flatnonzero(clean[i])

            def build(i, d_index):
                a_col = cols[a_index[i]][:, None]
                return _assemble_two_source(a_col, cols[d_index][:, None], kappa, n)

            yield s_index * count + a_index, count, tally, hits_of, build
        a_start = 0
    return len(sectors) * count


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

    classes.sort(key=lambda cls: (-cls[0].bit_count() - cls[1].bit_count(), cls))
    return classes


def _side_tuples(count, size) -> np.ndarray:
    """Every tuple of ``size`` class indices, row-major, one per row.

    Stored as int16 (there are 480 classes at most), since at 2x2 its
    int64 form would be the largest table the scan keeps.
    """
    return np.indices((count,) * size, dtype=np.int16).reshape(size, -1).T


class _ClassPack:
    """Struct-of-arrays view of the canonical column classes on 8 angles.

    ``column`` holds each class's int8 station column and ``supp`` its
    uint8 support mask, bit r for angle r. ``kind`` is 0 for a
    single-sided column, else sig_e * sig_o; a family of kinds k_a, k_d
    and coupling c stays alive iff k_a * k_d != -c. All three are
    read-only.
    """

    def __init__(self, classes):
        even, odd, sig_e, sig_o = np.array(classes, dtype=np.int64).T[:, :, None]
        # angle x is bit x // 2 of side x % 2, its constant twisted by (-1) ** (x // 2)
        x = np.arange(8)
        held = np.where(x % 2, odd, even) >> x // 2 & 1
        self.column = _read_only(
            (held * np.where(x % 2, sig_o, sig_e) * (-1) ** (x // 2)).astype(np.int8)
        )
        self.supp = _read_only((held << x).sum(axis=1).astype(np.uint8))
        self.kind = _read_only(
            (sig_e * sig_o * ((even > 0) & (odd > 0))).ravel().astype(np.int8)
        )


def _reach(supp, owned) -> np.ndarray:
    """Rows whose ``owned`` columns' supports together hold all 8 angles."""
    return reduce(operator.or_, compress(supp, owned)) == 0xFF


# tuples per chunk of the key build, so its uint16 temporaries stay at 32 KiB
_KEY_CHUNK = 1 << 14


def _block_keys(pack, tuples: np.ndarray) -> np.ndarray:
    """Decision key of each first-station tuple, one tuple per row.

    The exact check reads a first-station column only through its kind
    (0 single-sided, or the side-constant product +1 or -1) and,
    at each angle, through which columns support that angle. A key packs
    the kinds, as base-3 digits with the first column most significant
    (0, 1, 2 for kind 0, +1, -1), above the set of those per-angle
    patterns, bit p for the pattern whose bit i says column i holds the
    angle: ``kinds << 2**size | present``. Two tuples with equal keys keep
    the same second-station rows under any sector map. Keys are uint16,
    below 3**size << 2**size (144 at size 2), built in chunks of
    ``_KEY_CHUNK`` tuples.
    """
    size = tuples.shape[1]
    kind = (pack.kind % 3).astype(np.uint16)
    keys = np.empty(len(tuples), dtype=np.uint16)
    for start in range(0, len(tuples), _KEY_CHUNK):
        part = tuples[start:start + _KEY_CHUNK]
        kinds = np.zeros(len(part), dtype=np.uint16)
        for col in part.T:
            kinds = 3 * kinds + kind[col]
        supp = [pack.supp[col] for col in part.T]
        present = np.zeros(len(part), dtype=np.uint16)
        for r in range(8):
            pattern = np.zeros(len(part), dtype=np.uint8)
            for i, col in enumerate(supp):
                pattern |= (col >> r & 1) << i
            present |= np.left_shift(1, pattern, dtype=np.uint16)
        keys[start:start + len(part)] = kinds << (1 << size) | present
    return keys


class _ClassSide(NamedTuple):
    """One station's fixed class tables for a value domain and tuple size."""

    pack: _ClassPack
    # int16 [count**size, size]: the class of each column of each tuple
    tuples: np.ndarray
    # one uint8 support per tuple for each column position
    supp: tuple[np.ndarray, ...]
    # uint16: the ``_block_keys`` key of each tuple
    keys: np.ndarray


@lru_cache(maxsize=4)
def _class_side(value_domain: str, size: int) -> _ClassSide:
    """The class tables a station of ``size`` hidden values scans on pi/4.

    Built once per (value domain, size) and shared by both stations when
    their sizes agree; every array is read-only. The cache holds all four
    entries the scan can ask for; the 2-tuple ternary one is the largest,
    about 1.8 MB (the int16 tuples, two uint8 supports and the uint16 key
    per tuple), and the other three hold under 10 KB together.
    """
    pack = _ClassPack(_column_classes(8, value_domain))
    tuples = _read_only(_side_tuples(len(pack.kind), size))
    supp = tuple(_read_only(pack.supp[col]) for col in tuples.T)
    return _ClassSide(pack, tuples, supp, _read_only(_block_keys(pack, tuples)))


def _pair_double_blocks(space):
    """Class-space scan for two hidden values on at least one side.

    Specific to the default pi/4 grid, where the correlation law is
    supported on even index differences and the twisted-constancy
    reduction applies. Candidates are pruned in bulk by two sound
    necessary conditions (each sector must reach every station angle on
    both sides); surviving rows get the exact check, so ``models_examined``
    tallies individually decided candidates only.

    A candidate is decided by its covers: for each realized sector s and
    coupling c = +1 or -1 (one parity family each), the support rectangles
    of the pairs whose family stays alive, k_a * k_d != -c, must cover
    every angle pair. Relevance needs no test, since each pair keeps one
    of its two families. Every byte of a cover is a copy of some partner's
    support byte, so byte r of sector s's cover at coupling c is the OR,
    over the first-station columns whose support holds r, of their
    partner bytes: U[i, k, s, c] is the OR of the supports of the
    second-station columns that share sector s with first-station position
    i and stay alive beside kind k. A row is kept exactly when, for every
    per-angle member set of the block key, the members' U bytes OR to 0xFF
    at every (s, c).

    Per sector map, each second-station column's supports are masked once
    per coupling, the U bytes are built on demand (at most 2 x 3 x 2 x 2)
    and the full-byte flags memoized per (members, s, c). The verdict
    depends on the first-station tuple only through its block key, so
    each key is decided once, and every block with that key reuses the
    same read-only rows. A sector map's blocks are yielded as one run. The
    class tables and keys come from ``_class_side``.
    """
    n = space.denominator
    size1, size4 = space.size1, space.size4
    a_side = _class_side(space.value_domain, size1)
    d_side = _class_side(space.value_domain, size4)
    pack, a_idx, d_idx = a_side.pack, a_side.tuples, d_side.tuples
    patterns = 1 << (size1 * size4)
    total = patterns * len(a_idx)
    first, a_start = divmod(min(space.cursor, total), len(a_idx))
    width = 1 << size1
    # the kind of position i in a key's base-3 kinds, first column most significant
    kind_of = [[(0, 1, -1)[kinds // 3 ** (size1 - 1 - i) % 3] for i in range(size1)]
               for kinds in range(3 ** size1)]

    for code in range(first, patterns):
        bits = code >> np.arange(size1 * size4) & 1
        kappa = (1 - 2 * bits).astype(np.int8).reshape(size1, size4)
        realized = sorted({int(v) for v in kappa.ravel()}, reverse=True)
        # bulk prune on both stations: every realized sector must reach
        # each station angle through the columns it owns
        a_keep = np.ones(len(a_idx), dtype=bool)
        a_keep[:a_start] = False
        d_keep = np.ones(len(d_idx), dtype=bool)
        for s in realized:
            owned = kappa == s
            a_keep &= _reach(a_side.supp, owned.any(axis=1))
            d_keep &= _reach(d_side.supp, owned.any(axis=0))
        a_start = 0
        positions = np.flatnonzero(a_keep)
        if not len(positions):
            continue
        rows = np.flatnonzero(d_keep)
        # alive[j][t]: column j's support bytes on the rows where its family
        # stays alive beside a first column of kind k at coupling c, t = k * c
        alive = []
        for j in range(size4):
            supp = d_side.supp[j][rows]
            kind = pack.kind[d_idx[rows, j]]
            alive.append({0: supp, **{t: np.where(kind != -t, supp, 0) for t in (1, -1)}})
        partner_bytes = {}
        full = {}

        def partner(i, k, s, c):
            """U[i, k, s, c], built on first use."""
            if (i, k, s, c) not in partner_bytes:
                u = np.zeros(len(rows), dtype=np.uint8)
                for j in range(size4):
                    if kappa[i, j] == s:
                        u |= alive[j][k * c]
                partner_bytes[i, k, s, c] = u
            return partner_bytes[i, k, s, c]

        def covered(members, s, c):
            """Rows whose members' partner bytes OR to 0xFF, memoized."""
            if (members, s, c) not in full:
                u = np.zeros(len(rows), dtype=np.uint8)
                for i, k in members:
                    u = u | partner(i, k, s, c)
                full[members, s, c] = u == 0xFF
            return full[members, s, c]

        def decide(key):
            kinds, present = divmod(key, 1 << width)
            kind = kind_of[kinds]
            keep = np.ones(len(rows), dtype=bool)
            for pattern in range(width):
                if present >> pattern & 1:
                    members = tuple((i, kind[i]) for i in range(size1) if pattern >> i & 1)
                    for s in realized:
                        for c in (1, -1):
                            keep &= covered(members, s, c)
            return _read_only(np.flatnonzero(keep))

        keys = a_side.keys[positions]
        decided = [None] * (3 ** size1 << width)
        counts = np.zeros(len(decided), dtype=np.int64)
        for key in np.unique(keys).tolist():
            decided[key] = decide(key)
            counts[key] = len(decided[key])
        tally = np.cumsum(counts[keys])

        def hits_of(i):
            return decided[keys[i]]

        def build(i, hit):
            a = pack.column[a_idx[positions[i]]].T
            d = pack.column[d_idx[rows[hit]]].T
            return _assemble_two_source(a, d, kappa, n)

        yield code * len(a_idx) + positions, len(rows), tally, hits_of, build
    return total


def search_two_source(
    space: SearchSpace,
    budget_seconds: float | None = None,
    stop_after: int | None = None,
    keep_limit: int = 16,
) -> SearchResult:
    """Enumerate two-source candidates and return the robust survivors.

    The run follows the rules ``SearchResult`` states: the first
    ``keep_limit`` survivors are kept and re-verified, ``stop_after`` ends
    the run on a whole-block boundary once the tally reaches it (so the
    result does not depend on timing), ``budget_seconds`` bounds wall time
    and, when spent, yields a partial result whose cursor resumes the
    scan, and only a whole run from cursor 0 is certifying. The budget is
    checked between sector maps of the class-space scan and between
    chunks of first-station columns of the 1x1 scan, so it can overshoot
    by one of those.
    ``consistent_found`` lists the kept models that factorize cleanly.
    ``stop_after`` must be positive and ``budget_seconds`` finite and
    nonnegative. A grid whose per-run tables would exceed
    MAX_TABLE_BYTES raises SizeLimitError before the first block is drawn.
    """
    if space.family != TWO_SOURCE:
        raise UsageError("search_two_source requires a two_source space")
    if space.size1 == 1 and space.size4 == 1:
        _refuse_oversize(
            f"the 1x1 two-source scan on the pi/{space.denominator} grid",
            _single_scan_bytes(space.denominator),
        )
        blocks = _pair_single_blocks(space)
    elif space.denominator == 4:
        blocks = _pair_double_blocks(space)
    else:
        raise GridError(
            "the class-space search is built for the pi/4 grid; "
            f"denominator {space.denominator} is not supported at this size"
        )
    return _drive(space, blocks, budget_seconds, stop_after, keep_limit)


# ---------------------------------------------------------------------------
# single-source: shift-covariant lattice with one sign solve per support pair

def _solve_signs(sa: list[int], sd: list[int], n: int):
    """Solve the shift-reduced sign system as one GF(2) system.

    Variables are the station patterns on their supports and the analyzer
    pattern over (offset, flavor); equations couple one of each through the
    required product. Analyzer cell (t, r) takes bit 2t + r; above the cells
    lie the station and partner signs in the order the equations first name
    them (sa[0], then sd, then the rest of sa), the earliest highest. The
    least solution is then the first solution in that order, +1 before -1.
    Its first station and partner signs are +1, since flipping a whole
    station pattern together with the analyzer keeps every equation.
    Returns (station, partner, analyzer) dicts or None.
    """
    m = 2 * n
    order = [(0, sa[0]), *((1, dd) for dd in sd), *((0, a) for a in sa[1:])]
    top = 2 * m + len(order) - 1
    bit = {var: top - i for i, var in enumerate(order)}
    rows = []
    cells = set()
    for a in sa:
        for dd in sd:
            for r in (0, 1):
                for t in range(m):
                    req = required_sign(a - dd - r + t, n)
                    if req:
                        cells.add((t, r))
                        rows.append((
                            1 << bit[0, a] | 1 << bit[1, dd] | 1 << 2 * t + r,
                            req < 0,
                        ))
    _, least = _least_parity_solution(rows)
    if least is None:
        return None

    def sign(b: int) -> int:
        return 1 - 2 * (least >> b & 1)

    station = {a: sign(bit[0, a]) for a in sa}
    partner = {dd: sign(bit[1, dd]) for dd in sd}
    analyzer = {(t, r): sign(2 * t + r) for t, r in cells}
    return station, partner, analyzer


def _assemble_single_source(station, partner, analyzer, n) -> LhvModel:
    m = 2 * n
    size = 2 * m
    station_signs, partner_signs = np.zeros((2, m), dtype=np.int8)
    station_signs[list(station)] = list(station.values())
    partner_signs[list(partner)] = list(partner.values())
    cell_signs = np.ones((m, 2), dtype=np.int8)
    cell_signs[tuple(zip(*analyzer))] = list(analyzer.values())
    # hidden value 2 * shift + flavor reads each solved pattern shifted by
    # shift, and the partner's by one more step in flavor 1
    shift, flavor = np.divmod(np.arange(size), 2)
    k = np.arange(m)
    a = station_signs[(k[:, None] - shift) % m]
    d = partner_signs[(k[:, None] - shift - flavor) % m]
    f = cell_signs[((k - k[:, None]) % m)[:, :, None], flavor]
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


def _support_pairs(m: int, minimum: int, start: int = 0):
    """Support-mask pairs from block ``start`` on, in the documented order.

    Each mask covers at least ``minimum`` of the ``m`` angles; pairs come
    by ascending total size, then first mask, then second mask, and are
    generated one at a time rather than sorted up front.
    """
    by_size = [[] for _ in range(m + 1)]
    for mask in range(1, 1 << m):
        by_size[mask.bit_count()].append(mask)
    block = 0
    for total in range(2 * minimum, 2 * m + 1):
        for ma in range(1, 1 << m):
            size = ma.bit_count()
            if size < minimum or not minimum <= total - size <= m:
                continue
            partners = by_size[total - size]
            if block + len(partners) > start:
                for md in partners[max(start - block, 0):]:
                    yield ma, md
            block += len(partners)


def _single_source_blocks(space, efficiency_floor):
    """One block, and run, per support pair; a hit passes the search predicate.

    Pairs that can put an event at every angle tuple go to the sign solve;
    its solution is assembled into a full model and survives when it is
    robust and both stations fire at every angle at least at the floor
    rate.
    """
    n = space.denominator
    m = 2 * n
    minimum = max(int(np.ceil(efficiency_floor * m - 1e-9)), 1)
    total = sum(math.comb(m, k) for k in range(minimum, m + 1)) ** 2
    start = min(space.cursor, total)
    for block, (ma, md) in enumerate(_support_pairs(m, minimum, start), start):
        sa = [x for x in range(m) if ma >> x & 1]
        sd = [x for x in range(m) if md >> x & 1]
        reachable = {
            (a - dd - r) % m for a in sa for dd in sd for r in (0, 1)
        }
        solution = _solve_signs(sa, sd, n) if len(reachable) == m else None
        hits = ()
        if solution is not None:
            model = _assemble_single_source(*solution, n)
            rate = min(
                np.count_nonzero(table, axis=1).min() / table.shape[1]
                for table in (model.a, model.d)
            )
            if rate >= efficiency_floor and is_robust(model).is_robust:
                hits = (model,)
        yield (block,), 1, (len(hits),), lambda _: hits, lambda _, model: model
    return total


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
    tuple, and handed to the sign solve; each solution is assembled into a
    full model and tested. The run follows the rules
    ``SearchResult`` states (kept models re-verified, ``stop_after`` on a
    whole block, certifying only from cursor 0); ``consistent_found``
    stays empty. ``stop_after`` must be positive and ``budget_seconds``
    finite and nonnegative. A grid whose support-mask lists would exceed
    MAX_TABLE_BYTES raises SizeLimitError before the first block is drawn.
    """
    if space.family != SINGLE_SOURCE:
        raise UsageError("search_single_source requires a single_source space")
    if not 0.0 <= efficiency_floor <= 1.0:
        raise UsageError("efficiency_floor must lie in [0, 1]")
    # the first draw lists all 2**m support masks by size, about 42 bytes each
    m = 2 * space.denominator
    _refuse_oversize(
        f"the single-source search on the pi/{space.denominator} grid", 42 * 2**m
    )
    blocks = _single_source_blocks(space, efficiency_floor)
    return _drive(space, blocks, budget_seconds, stop_after, keep_limit)
