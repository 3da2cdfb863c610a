"""Search-engine tests: oracles, cross-validation, and census regressions."""

from __future__ import annotations

import functools
import hashlib
import itertools
import tracemalloc
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from bellswap.angles import GridError, sign_table
from bellswap.cli import run as cli_run
from bellswap.factorizer import factorize
from bellswap.model import (
    MAX_TABLE_BYTES,
    SINGLE_SOURCE,
    TWO_SOURCE,
    LhvModel,
    SizeLimitError,
    dumps,
    event_count,
)
from bellswap.robustness import RobustnessReport, check_perfect_correlations, is_robust
from bellswap.search import (
    SearchSpace,
    forced_analyzer,
    search_single_source,
    search_two_source,
)
from bellswap.search import (
    _assemble_single_source,
    _block_keys,
    _class_side,
    _ClassPack,
    _column_classes,
    _demand_bits,
    _pair_double_blocks,
    _pair_single_blocks,
    _side_tuples,
    _single_scan_bytes,
    _solve_signs,
    _support_pairs,
)
from helpers import (
    _class_column,
    _family_coupling,
    _pair_not_dead,
    _spread_mask,
    both_sector_model,
    branching_solve_signs,
    demand_filled_analyzer,
    fate_pack,
    looped_single_source,
    multi_axis_correlations,
    oracle_count,
    parity_split_model,
    per_block_drive,
    rebuild,
    tensor_single_blocks,
    unmemoized_double_blocks,
)


def two_source_space(**kwargs):
    defaults = dict(family=TWO_SOURCE, denominator=4, size1=1, size4=1)
    defaults.update(kwargs)
    return SearchSpace(**defaults)


def single_source_space(**kwargs):
    return SearchSpace(family=SINGLE_SOURCE, denominator=4, size1=16, **kwargs)


def assemble(a, d, kappa, n):
    a = np.asarray(a, dtype=np.int8)
    d = np.asarray(d, dtype=np.int8)
    kappa = np.asarray(kappa, dtype=np.int8)
    size1, size4 = a.shape[1], d.shape[1]
    return LhvModel(
        family=TWO_SOURCE,
        n=n,
        a=a,
        d=d,
        kappa=kappa,
        f_plus=forced_analyzer(a, d, kappa, n),
        f_minus=forced_analyzer(a, d, kappa, n),
        rho1=[Fraction(1, size1)] * size1,
        rho4=[Fraction(1, size4)] * size4,
        n0=4 * n,
    )


class TestSearchSpace:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="three_source"),
            dict(value_domain="complex"),
            dict(size1=3),
            dict(size4=0),
            dict(denominator=0),
            dict(cursor=-1),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            two_source_space(**kwargs)

    def test_single_source_size_must_match_lattice(self):
        with pytest.raises(ValueError):
            SearchSpace(family=SINGLE_SOURCE, denominator=4, size1=7)
        SearchSpace(family=SINGLE_SOURCE, denominator=4, size1=16)

    def test_wrong_family_routing(self):
        with pytest.raises(ValueError):
            search_two_source(SearchSpace(family=SINGLE_SOURCE, denominator=4, size1=16))
        with pytest.raises(ValueError):
            search_single_source(two_source_space())


def oracle_analyzer_cases():
    """(shape, n, seed, sectors) rows for the loop-built oracle comparison.

    Random 2x2 sector maps keep their ``n-seed`` ids. Every shape then
    meets every grid up to n = 4, the odd one included, under a map that
    announces both sectors and under one that announces only + or only -,
    so each sector's cells are checked where the other sector is unused.
    Those rows draw sparse columns: dense ones put demands of both signs
    on most cells, whose 0 then reads the same in either sector.
    """
    cases = [
        pytest.param((2, 2), n, seed, "random", id=f"{n}-{seed}")
        for n in (2, 4) for seed in range(8)
    ]
    for shape in ((1, 1), (1, 2), (2, 1), (2, 2)):
        label = f"{shape[0]}x{shape[1]}"
        for n in (2, 3, 4):
            cases += [
                pytest.param(shape, n, 300 + n, sectors, id=f"{label}-{n}-{sectors}")
                for sectors in ("plus", "minus")
            ]
            if shape != (1, 1):
                cases += [
                    pytest.param(shape, n, seed, "mixed", id=f"{label}-{n}-mixed-{seed}")
                    for seed in range(4)
                ]
    return cases


class TestForcedAnalyzer:
    """The maximal-table construction against an independent builder."""

    @pytest.mark.parametrize("shape, n, seed, sectors", oracle_analyzer_cases())
    def test_matches_loop_built_oracle(self, shape, n, seed, sectors):
        rng = np.random.default_rng(seed)
        m = 2 * n
        if sectors == "random":
            a = rng.integers(-1, 2, size=(m, shape[0])).astype(np.int8)
            d = rng.integers(-1, 2, size=(m, shape[1])).astype(np.int8)
        else:
            a, d = (
                rng.choice([-1, 0, 1], p=[0.15, 0.7, 0.15], size=(m, size)).astype(np.int8)
                for size in shape
            )
        kappa = (1 - 2 * rng.integers(0, 2, size=shape)).astype(np.int8)
        if sectors == "mixed":
            kappa.flat[-1] = -kappa.flat[0]
        elif sectors != "random":
            kappa[...] = 1 if sectors == "plus" else -1
        fast = forced_analyzer(a, d, kappa, n)
        slow = demand_filled_analyzer(a, d, kappa, n)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("seed", range(4))
    def test_demanded_cells_satisfy_the_correlation_law(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, m = 4, 8
        a = rng.integers(-1, 2, size=(m, 2)).astype(np.int8)
        d = rng.integers(-1, 2, size=(m, 2)).astype(np.int8)
        kappa = (1 - 2 * rng.integers(0, 2, size=(2, 2))).astype(np.int8)
        f = forced_analyzer(a, d, kappa, n)
        for l1 in range(2):
            for l4 in range(2):
                required = sign_table(n, int(kappa[l1, l4]))
                for _ in range(60):
                    k1, k2, k3, k4 = rng.integers(0, m, size=4)
                    product = (
                        int(a[k1, l1]) * int(f[k2, k3, l1, l4]) * int(d[k4, l4])
                    )
                    req = int(required[k1, k2, k3, k4])
                    if product != 0 and req != 0:
                        assert product == req

    @pytest.mark.parametrize("seed", range(6))
    def test_support_dominates_every_valid_table(self, seed):
        # degrade the maximal table into an arbitrary valid one: drop some
        # cells, flip free cells; robustness may only get worse
        rng = np.random.default_rng(200 + seed)
        n, m = 2, 4
        a = rng.integers(-1, 2, size=(m, 1)).astype(np.int8)
        d = rng.integers(-1, 2, size=(m, 1)).astype(np.int8)
        kappa = np.full((1, 1), rng.choice([1, -1]), dtype=np.int8)
        model = assemble(a, d, kappa, n)
        degraded_f = model.f_plus.copy()
        drop = rng.random(degraded_f.shape) < 0.3
        degraded_f[drop] = 0
        degraded = rebuild(model, f_plus=degraded_f, f_minus=degraded_f)
        if is_robust(degraded).is_robust:
            assert is_robust(model).is_robust


class TestTwistedClasses:
    def test_class_count_matches_the_gauge_quotient(self):
        # flipping a column's sign negates the constant of each nonempty
        # side; the classes hold exactly one of every flip pair
        for domain, count in (("ternary", 480), ("signs", 2)):
            classes = _column_classes(8, domain)
            flipped = {
                (e, o, -s_e if e else s_e, -s_o if o else s_o)
                for e, o, s_e, s_o in classes
            }
            assert len(classes) == len(set(classes)) == count
            assert not flipped & set(classes)

    def test_columns_realize_their_class_data(self):
        classes = _column_classes(8, "ternary")
        seen = set()
        for cls in classes:
            col = _class_column(cls, 8)
            seen.add(col.tobytes())
            even_mask, odd_mask, sig_e, sig_o = cls
            for bit in range(4):
                assert (col[2 * bit] != 0) == bool(even_mask >> bit & 1)
                assert (col[2 * bit + 1] != 0) == bool(odd_mask >> bit & 1)
            evens = [col[2 * b] * (-1) ** b for b in range(4) if even_mask >> b & 1]
            odds = [col[2 * b + 1] * (-1) ** b for b in range(4) if odd_mask >> b & 1]
            assert all(v == sig_e for v in evens)
            assert all(v == sig_o for v in odds)
        assert len(seen) == len(classes)

    @pytest.mark.parametrize("domain", ["ternary", "signs"])
    def test_pack_matches_the_bitwise_oracles(self, domain):
        classes = _column_classes(8, domain)
        pack = _ClassPack(classes)
        oracle = fate_pack(classes)
        assert pack.column.dtype == np.int8 and pack.column.shape == (len(classes), 8)
        assert not any(a.flags.writeable for a in (pack.column, pack.supp, pack.kind))
        for c, (even_mask, odd_mask, sig_e, sig_o) in enumerate(classes):
            spread = _spread_mask(even_mask, odd_mask)
            assert np.array_equal(pack.column[c], _class_column(classes[c], 8))
            assert pack.supp[c] == spread
            assert oracle.factor[c] == sum(1 << 8 * r for r in range(8) if spread >> r & 1)
            assert pack.kind[c] == (sig_e * sig_o if even_mask and odd_mask else 0)

    def test_one_sign_per_column_decides_every_family_fate(self):
        """The closed form of the fate over every class pair, sector and parity.

        The general fate equals k_a * k_d != -c, and the two parity
        families of a pair never both die in one sector, which is why the
        class-space scan tests no relevance.
        """
        classes = _column_classes(8, "ternary")
        pack = fate_pack(classes)
        sides = (pack.even, pack.odd, pack.sig_e, pack.sig_o)
        kind = pack.kind.astype(int)
        assert np.array_equal(kind, pack.two_sided * pack.pa)
        for s in (1, -1):
            kept = np.zeros((len(classes), len(classes)), dtype=int)
            for parity in (0, 1):
                fate = _pair_not_dead(
                    *(side[:, None] for side in sides),
                    *(side[None, :] for side in sides),
                    s, parity,
                )
                closed = kind[:, None] * kind[None, :] != -_family_coupling(s, parity)
                assert np.array_equal(fate, closed)
                kept += fate
            assert kept.min() >= 1

    @pytest.mark.parametrize("seed", range(30))
    def test_family_fate_predicts_robustness(self, seed):
        """The vectorized class predicate against the robustness module."""
        rng = np.random.default_rng(seed)
        classes = _column_classes(8, "ternary")
        picks = rng.integers(0, len(classes), size=4)
        a_cls = [classes[i] for i in picks[:2]]
        d_cls = [classes[i] for i in picks[2:]]
        kappa = (1 - 2 * rng.integers(0, 2, size=(2, 2))).astype(np.int8)
        predicted = class_predicate(a_cls, d_cls, kappa)
        model = assemble(
            np.stack([_class_column(c, 8) for c in a_cls], axis=1),
            np.stack([_class_column(c, 8) for c in d_cls], axis=1),
            kappa,
            4,
        )
        assert predicted == is_robust(model).is_robust

    def test_constant_replacement_never_loses_robustness(self):
        """The other half of the reduction, on perturbed census survivors.

        Flipping one sign on a side with two or more angles leaves that side
        not twisted-constant. Whenever the raw maximal-analyzer candidate
        is still robust, making the side constant again on the same support,
        with either constant, must keep it robust.
        """
        space = two_source_space(size1=2, size4=2)
        rng = np.random.default_rng(17)
        survivors = []
        # the sector maps that hold survivors; 0 and 15 hold nearly all
        for cursor in (0, 115200, *(code * 230400 for code in (3, 5, 6, 9, 10, 12)),
                       15 * 230400, 15 * 230400 + 115200):
            runs = _pair_double_blocks(replace(space, cursor=cursor))
            _, _, hits, build = next(item for item in blocks_of(runs) if len(item[2]))
            survivors.append(build(hits[int(rng.integers(len(hits)))]))
        tried = robust_raw = 0
        while tried < 300:
            model = survivors[int(rng.integers(len(survivors)))]
            tables = [model.a.copy(), model.d.copy()]
            station, col, parity = rng.integers(0, 2, size=3)
            side = [x for x in range(parity, 8, 2) if tables[station][x, col]]
            if len(side) < 2:
                continue
            tried += 1
            tables[station][rng.choice(side), col] *= -1
            if not is_robust(assemble(*tables, model.kappa, 4)).is_robust:
                continue
            robust_raw += 1
            for constant in (1, -1):
                for x in side:
                    tables[station][x, col] = constant * (-1) ** (x // 2)
                assert is_robust(assemble(*tables, model.kappa, 4)).is_robust
        assert robust_raw > 0

    @pytest.mark.parametrize(
        "builder, robust",
        [
            (parity_split_model, True),
            (both_sector_model, True),
            (None, False),  # full twisted columns under a checkerboard map
        ],
    )
    def test_known_families_agree_with_direct_verification(self, builder, robust):
        if builder is None:
            tilt = np.array([(-1) ** (k // 2) for k in range(8)], dtype=np.int8)
            a = np.stack([tilt, tilt], axis=1)
            kappa = np.array([[1, -1], [-1, 1]], dtype=np.int8)
            model = assemble(a, a.copy(), kappa, 4)
        else:
            model = builder()
        a_cls = [classify_column(model.a[:, i]) for i in range(2)]
        d_cls = [classify_column(model.d[:, j]) for j in range(2)]
        assert class_predicate(a_cls, d_cls, model.kappa) == robust
        assert is_robust(model).is_robust == robust


def classify_column(col):
    """Class tuple of a twisted-constant column; fails loudly otherwise."""
    even_mask = odd_mask = 0
    sig_e = sig_o = None
    for bit in range(4):
        value_e = int(col[2 * bit]) * (-1) ** bit
        value_o = int(col[2 * bit + 1]) * (-1) ** bit
        if value_e:
            even_mask |= 1 << bit
            assert sig_e in (None, value_e)
            sig_e = value_e
        if value_o:
            odd_mask |= 1 << bit
            assert sig_o in (None, value_o)
            sig_o = value_o
    return (even_mask, odd_mask, sig_e or 1, sig_o or 1)


def class_predicate(a_cls, d_cls, kappa):
    """Scalar transcription of the engine's per-candidate decision."""
    realized = sorted({int(v) for v in kappa.ravel()}, reverse=True)
    supports_a = [_spread_mask(c[0], c[1]) for c in a_cls]
    supports_d = [_spread_mask(c[0], c[1]) for c in d_cls]
    full64 = (1 << 64) - 1
    alive_a = [False, False]
    alive_d = [False, False]
    for s in realized:
        for parity in (0, 1):
            cover = 0
            for i, (ea, oa, sea, soa) in enumerate(a_cls):
                for j, (ed, od, sed, sod) in enumerate(d_cls):
                    if int(kappa[i, j]) != s:
                        continue
                    ok = bool(
                        _pair_not_dead(
                            ea, oa, sea, soa,
                            np.array([ed]), np.array([od]),
                            np.array([sed]), np.array([sod]),
                            s, parity,
                        )[0]
                    )
                    if ok:
                        rect = 0
                        for r in range(8):
                            if supports_a[i] >> r & 1:
                                rect |= supports_d[j] << (8 * r)
                        cover |= rect
                        alive_a[i] = True
                        alive_d[j] = True
            if cover != full64:
                return False
    return all(alive_a) and all(alive_d)


# recorded on the class-space scan before its tables were gathered from
# the class masks in one pass; the whole 2x2 stream hashes in about 0.3 s
STREAM_DIGESTS = {
    "2x2": (
        two_source_space(size1=2, size4=2),
        "783892363e4e1963e612634cf1e14b78383de761630304021c098332d527d66e",
    ),
    "1x2": (
        two_source_space(size4=2),
        "0be6ce9592687861395905e4484e67eb9d342554cf6799c391310a9df2bb3086",
    ),
    "2x1": (
        two_source_space(size1=2),
        "f731061a647d4240195b6d8332def43647286a06842884ca564695389f843c1b",
    ),
    "2x2 signs": (
        two_source_space(size1=2, size4=2, value_domain="signs"),
        "72cc0e594d0653397acff0895136755a04fdc05b30c317277204d5944bc776c8",
    ),
    "2x2 from map 10": (
        two_source_space(size1=2, size4=2, cursor=2304000),
        "32872163c17b470547259702de5cdacdbaa227c07a36229ed5040ee8c201d451",
    ),
    "2x2 from block 25597": (
        two_source_space(size1=2, size4=2, cursor=25597),
        "89792f6cd4ee8022e8429429b63f8bdf1a5a761a8ec316dec47c84abc89ce9d0",
    ),
    "1x2 from block 100": (
        two_source_space(size4=2, cursor=100),
        "b7a2aec43c31265e2bef6de732db142ec8cf8d249beac88bbfbca4ac5b0f93b9",
    ),
    # the resumed census streams the run driver is checked on
    "2x2 from mid-map 0": (
        two_source_space(size1=2, size4=2, cursor=115200),
        "9a3fff9850c9af1339d232b74a5c89c5628b9d0e172cd1d21d3e8ec4fde32893",
    ),
    "2x2 from map 5": (
        two_source_space(size1=2, size4=2, cursor=1152000),
        "9f51abb78c654703973e81c850d6a694cb18b235e86c02ac246d5516453b03ae",
    ),
}


def stream_digest(stream):
    """sha256 of a class-space run stream.

    It covers each run's blocks, examined count and tally, every block's
    hits, the model built from the run's first hit, and the stream's end
    value.
    """
    h = hashlib.sha256()
    for _ in hashed_runs(stream, h):
        pass
    return h.hexdigest()


def hashed_runs(stream, h):
    """Feed each run of ``stream`` to ``h`` as ``stream_digest`` hashes it,
    yielding after each run; the stream's end value is hashed last."""
    while True:
        try:
            blocks, examined, tally, hits_of, build = next(stream)
        except StopIteration as end:
            h.update(repr(end.value).encode())
            return
        h.update(repr((len(blocks), int(examined))).encode())
        h.update(np.asarray(blocks, np.int64).tobytes())
        h.update(np.asarray(tally, np.int64).tobytes())
        first = None
        for i in range(len(blocks)):
            hits = np.asarray(hits_of(i), np.int64)
            h.update(hits.tobytes())
            if first is None and len(hits):
                first = (i, hits[0])
        if first is not None:
            h.update(dumps(build(*first)).encode())
        yield


class TestBlockKeys:
    """A class-space block is decided once per first-station key and map."""

    def test_equal_keys_get_equal_verdicts(self):
        classes = _column_classes(8, "ternary")
        pack = _ClassPack(classes)
        rng = np.random.default_rng(3)
        robust_groups = 0
        for trial in range(16):
            if trial % 2:
                kappa = np.full((2, 2), rng.choice([1, -1]), dtype=np.int8)
            else:
                kappa = (1 - 2 * rng.integers(0, 2, size=(2, 2))).astype(np.int8)
            # the 18 classes first in order reach at least seven angles;
            # robust candidates are common among them, so a key that merged
            # tuples with different verdicts would show here
            d_cls = [classes[i] for i in rng.integers(0, 18, size=2)]
            pool = np.concatenate(
                [np.arange(18), rng.choice(np.arange(18, len(classes)), 6, replace=False)]
            )
            tuples = np.stack(np.meshgrid(pool, pool, indexing="ij"), axis=-1)
            tuples = tuples.reshape(-1, 2)
            verdicts = {}
            for key, pair in zip(_block_keys(pack, tuples).tolist(), tuples.tolist()):
                verdict = class_predicate([classes[c] for c in pair], d_cls, kappa)
                verdicts.setdefault(key, set()).add(verdict)
            assert all(len(seen) == 1 for seen in verdicts.values())
            robust_groups += sum(seen == {True} for seen in verdicts.values())
        assert robust_groups > 0

    @pytest.mark.parametrize(
        "space",
        [
            two_source_space(size4=2),
            two_source_space(size1=2),
            two_source_space(size1=2, size4=2, value_domain="signs"),
        ],
        ids=["1x2", "2x1", "2x2 signs"],
    )
    def test_stream_matches_the_unmemoized_oracle(self, space):
        assert drain(_pair_double_blocks(space)) == drain(unmemoized_double_blocks(space))

    def test_census_sample_matches_the_unmemoized_oracle(self):
        """A stride sample of the 2x2 census, whole-run and resumed."""
        space = two_source_space(size1=2, size4=2)
        blocks, _ = drain(_pair_double_blocks(space), build=False)
        assert len(blocks) == 161276
        # block 25597 is the last of sector map 0: resuming there crosses a map
        sample = blocks[::6451] + blocks[25597:25600]
        classes = _column_classes(8, "ternary")
        a_idx = _side_tuples(len(classes), 2)
        pack = _ClassPack(classes)
        block_numbers = np.array([item[0] for item in blocks])
        reused = 0
        for item in sample:
            resumed = replace(space, cursor=item[0])
            head, _ = drain(_pair_double_blocks(resumed), limit=3)
            assert head[0][:3] == item[:3]
            assert head == drain(unmemoized_double_blocks(resumed), limit=3)[0]
            code, a_pos = divmod(item[0], len(a_idx))
            earlier = block_numbers[
                (block_numbers >= code * len(a_idx)) & (block_numbers < item[0])
            ] % len(a_idx)
            keys = _block_keys(pack, a_idx[np.append(earlier, a_pos)])
            reused += bool(keys[-1] in keys[:-1])
        # most sampled blocks had their key decided earlier in the whole
        # run; a resume there decides it afresh, on a different block
        assert reused >= len(sample) // 2

    @pytest.mark.parametrize("name", STREAM_DIGESTS)
    def test_stream_digest_is_pinned(self, name):
        """Every block, count, tally and hit, and one model per sector map."""
        space, digest = STREAM_DIGESTS[name]
        assert stream_digest(_pair_double_blocks(space)) == digest

    def test_shared_class_tables_carry_nothing_between_streams(self):
        """Streams over other spaces, cursors and domains, drawn in turn.

        All five streams are open at once and advance one run each in
        turn, on class tables built fresh for the first of them; each
        still hashes to its pinned digest.
        """
        _class_side.cache_clear()
        names = ["2x2 signs", "2x2 from map 10", "1x2", "2x1", "2x2 signs"]
        hashes = [hashlib.sha256() for _ in names]
        open_runs = [hashed_runs(_pair_double_blocks(STREAM_DIGESTS[name][0]), h)
                     for name, h in zip(names, hashes)]
        while open_runs:
            # a stream leaves the turn once it has ended
            open_runs = [runs for runs in open_runs if next(runs, "ended") != "ended"]
        for name, h in zip(names, hashes):
            assert h.hexdigest() == STREAM_DIGESTS[name][1], name

    def test_class_table_cache_is_bounded_and_read_only(self):
        search_two_source(two_source_space(size4=2))  # numpy's lazy imports, once
        _class_side.cache_clear()
        tracemalloc.start()
        try:
            for space in (
                two_source_space(size4=2),
                two_source_space(size1=2),
                two_source_space(size1=2, size4=2),
                two_source_space(size1=2, size4=2, value_domain="signs"),
            ):
                search_two_source(space)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _class_side.cache_info().currsize <= 4
        for value_domain, size in itertools.product(("ternary", "signs"), (1, 2)):
            side = _class_side(value_domain, size)
            arrays = (side.pack.column, side.pack.supp, side.pack.kind,
                      side.tuples, *side.supp, side.keys)
            assert not any(array.flags.writeable for array in arrays)
        # the 2-tuple ternary entry holds 8 bytes per tuple: two int16
        # classes, two uint8 supports and the uint16 key, 1.76 MiB over
        # 480**2 tuples; the other entries, the sign tables of the kept
        # survivors' analyzers and Python's free lists fit in 256 KiB
        assert held <= 8 * 480**2 + 2**18


def blocks_of(stream):
    """The ``(block, examined, hits, build)`` items of a stream, one per block.

    A run ``(blocks, examined, tally, hits_of, build)`` is expanded into
    its blocks, the running tally checked against their hits; the items of
    the per-block oracles pass through. Returns the stream's end value.
    """
    while True:
        try:
            item = next(stream)
        except StopIteration as end:
            return end.value
        if len(item) == 4:
            yield item
            continue
        blocks, examined, tally, hits_of, build = item
        assert len(blocks) == len(tally) > 0
        found = 0
        for i, block in enumerate(blocks):
            hits = hits_of(i)
            found += len(hits)
            assert tally[i] == found
            yield int(block), examined, hits, functools.partial(build, i)


def drain(stream, limit=None, build=True):
    """Items of a block stream as plain data, and the stream's end value.

    Each item is ``(block, examined, hits)`` plus, with ``build``, the
    encodings of the models built from the block's first and last hit;
    runs are expanded by ``blocks_of``. A stream cut at ``limit`` items
    has end value None.
    """
    items = []
    blocks = blocks_of(stream)
    while len(items) != limit:
        try:
            block, examined, hits, make = next(blocks)
        except StopIteration as end:
            return items, end.value
        item = (block, examined, hits.tolist())
        if build and len(hits):
            item += (dumps(make(hits[0])), dumps(make(hits[-1])))
        items.append(item)
    return items, None


def plain_fields(result):
    """Every ``SearchResult`` field but ``elapsed_seconds``, models encoded."""

    def plain(value):
        if isinstance(value, LhvModel):
            return dumps(value)
        if isinstance(value, list):
            return [plain(item) for item in value]
        return value

    return {
        f.name: plain(getattr(result, f.name))
        for f in fields(result)
        if f.name != "elapsed_seconds"
    }


CENSUS = two_source_space(size1=2, size4=2)
SECTOR_MAP = 230400  # first-station tuples, and so blocks, per 2x2 sector map


class TestRunDriver:
    """The driver books runs of blocks as the per-block oracle books blocks.

    Both read the engine's own stream, which the stream tests check.
    """

    @pytest.mark.parametrize("space, kwargs", [
        (two_source_space(size4=2), {}),
        (two_source_space(size1=2), {}),
        (two_source_space(size1=2, size4=2, value_domain="signs"), {}),
        (CENSUS, {}),
        (CENSUS, dict(stop_after=1)),
        (CENSUS, dict(stop_after=3)),
        (CENSUS, dict(stop_after=5)),
        (CENSUS, dict(stop_after=17)),
        # every block of sector map 0 holds survivors; its tally is 204,768,
        # reached on its last block, and 102,385 falls inside block 41,421
        (CENSUS, dict(stop_after=204768)),
        (CENSUS, dict(stop_after=102385)),
        (CENSUS, dict(stop_after=5, keep_limit=0)),
        (CENSUS, dict(stop_after=5, keep_limit=1)),
        (CENSUS, dict(stop_after=17, keep_limit=16)),
        (CENSUS, dict(stop_after=17, keep_limit=40)),
        (replace(CENSUS, cursor=SECTOR_MAP // 2), dict(stop_after=5)),
        # sector map 5 onwards: survivors sit in a few scattered blocks per
        # map, so the keep list and the tally cross runs
        (replace(CENSUS, cursor=5 * SECTOR_MAP), dict(keep_limit=40)),
        (replace(CENSUS, cursor=5 * SECTOR_MAP), dict(stop_after=17)),
        # 1x1: each grid's two survivors lie one per sector, so one per run,
        # and the keep list crosses runs; at n = 2 a run is a sector's 8
        # blocks and the first survivor sits in block 5 of run 0
        (two_source_space(denominator=1), {}),
        (two_source_space(denominator=2), {}),
        (two_source_space(denominator=3), {}),
        (two_source_space(denominator=2), dict(stop_after=1)),
        (two_source_space(denominator=2), dict(keep_limit=0)),
        (two_source_space(denominator=2), dict(keep_limit=1)),
        (two_source_space(denominator=3, cursor=16), {}),
    ], ids=[
        "1x2", "2x1", "2x2 signs", "2x2",
        "stop_after=1", "stop_after=3", "stop_after=5", "stop_after=17",
        "stop_after on the last block of map 0", "stop_after mid-map",
        "keep_limit=0", "keep_limit=1", "keep_limit=16", "keep_limit=40",
        "cursor mid-map", "cursor on a map boundary, keep_limit=40",
        "cursor on a map boundary, stop_after=17",
        "1x1 n=1", "1x1 n=2", "1x1 n=3", "1x1 stop_after=1",
        "1x1 keep_limit=0", "1x1 keep_limit=1", "1x1 cursor mid-sector",
    ])
    def test_matches_the_per_block_oracle(self, space, kwargs):
        result = search_two_source(space, **kwargs)
        single = space.size1 == space.size4 == 1
        stream = _pair_single_blocks(space) if single else _pair_double_blocks(space)
        oracle = per_block_drive(
            space, blocks_of(stream),
            kwargs.get("stop_after"), kwargs.get("keep_limit", 16),
        )
        assert plain_fields(result) == plain_fields(oracle)
        assert result.robust_count > 0


class TestPairSearch:
    """One hidden value per side: the exhaustive sign-space engine."""

    def test_default_grid_is_certified_empty(self):
        result = search_two_source(two_source_space())
        assert result.robust_count == 0
        assert result.robust_found == []
        assert result.completed and result.certifying
        assert result.models_examined == 2 * 128 * 128

    def test_half_grid_has_alternating_survivors(self):
        result = search_two_source(two_source_space(denominator=2))
        assert result.robust_count == 2
        assert len(result.consistent_found) == 2
        for model in result.robust_found:
            assert is_robust(model).is_robust
            assert factorize(model).status == "ok"
            # both stations alternate with period two
            assert np.array_equal(model.a[:, 0], np.array([1, -1, 1, -1]))

    def test_degenerate_plus_only_grid_has_survivors(self):
        result = search_two_source(two_source_space(denominator=1))
        assert result.robust_count > 0
        assert result.completed

    @pytest.mark.parametrize("n, cursor", [(1, 0), (2, 0), (3, 0), (4, 0), (3, 16)],
                             ids=["1", "2", "3", "4", "3 from block 16"])
    def test_stream_matches_the_tensor_oracle(self, n, cursor):
        space = two_source_space(denominator=n, cursor=cursor)
        assert drain(_pair_single_blocks(space)) == drain(tensor_single_blocks(space))

    def test_n5_stride_matches_the_tensor_oracle(self):
        space = two_source_space(denominator=5)
        for block in range(0, 1024, 37):
            resumed = replace(space, cursor=block)
            head = drain(_pair_single_blocks(resumed), limit=1)
            assert head[0][0][0] == block
            assert head == drain(tensor_single_blocks(resumed), limit=1)

    def test_n4_stream_runs_chunks_of_consecutive_blocks(self):
        sign_table.cache_clear()
        _demand_bits.cache_clear()
        tracemalloc.start()
        try:
            items = list(_pair_single_blocks(two_source_space()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 1024
        covered = np.concatenate([blocks for blocks, *_ in items])
        assert len(items) < len(covered)
        assert np.array_equal(covered, np.arange(256))
        for _, _, tally, _, _ in items:
            assert np.all(np.diff(tally, prepend=0) >= 0)

    def test_bit_table_round_trips_the_sign_table(self):
        # every n the size guard lets through, and the first it refuses
        assert _single_scan_bytes(9) <= MAX_TABLE_BYTES < _single_scan_bytes(10)
        for n in range(1, 10):
            m = 2 * n
            for sector in (1, -1):
                bits = np.unpackbits(
                    _demand_bits(n, sector), axis=-1, count=m, bitorder="little"
                ).view(bool)
                required = sign_table(n, sector).transpose(0, 3, 1, 2)
                for s in (-1, 0, 1):
                    assert np.array_equal(bits[1 + s], (required == s) & (s != 0))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_size_estimate_bounds_the_measured_peak(self, n):
        sign_table.cache_clear()
        _demand_bits.cache_clear()
        tracemalloc.start()
        try:
            # up to three runs, fewer if the stream ends first
            runs = _pair_single_blocks(two_source_space(denominator=n))
            for _ in itertools.islice(runs, 3):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= _single_scan_bytes(n)

    def test_half_grid_matches_raw_ternary_enumeration(self):
        """Independent brute force over every raw column pair and sector."""
        survivors = set()
        values = [-1, 0, 1]
        columns = [
            np.array([w, x, y, z], dtype=np.int8)
            for w in values for x in values for y in values for z in values
        ]
        for sector in (1, -1):
            for a_col in columns:
                for d_col in columns:
                    if not a_col.any() or not d_col.any():
                        continue
                    model = assemble(
                        a_col[:, None], d_col[:, None],
                        np.full((1, 1), sector, dtype=np.int8), 2,
                    )
                    if is_robust(model).is_robust:
                        canon_a = a_col * (1 if a_col[0] >= 0 else -1)
                        canon_d = d_col * (1 if d_col[0] >= 0 else -1)
                        survivors.add(
                            (canon_a.tobytes(), canon_d.tobytes(), sector)
                        )
        result = search_two_source(two_source_space(denominator=2))
        found = {
            (m.a[:, 0].tobytes(), m.d[:, 0].tobytes(), int(m.kappa[0, 0]))
            for m in result.robust_found
        }
        assert survivors == found
        assert result.robust_count == len(survivors)


class TestClassSearch:
    """Two hidden values per side: the class-space engine."""

    def test_first_survivor_is_robust_but_not_factorizable(self):
        result = search_two_source(
            two_source_space(size1=2, size4=2), stop_after=1
        )
        assert result.truncated
        assert result.robust_count >= 1
        model = result.first_found
        assert result.first_report.is_robust
        assert is_robust(model).is_robust
        assert factorize(model).status == "consistency_violated"
        assert result.consistent_found == []

    def test_rejects_off_grid_denominator(self):
        with pytest.raises(GridError):
            search_two_source(two_source_space(denominator=2, size1=2, size4=2))

    def test_stop_after_is_deterministic(self):
        space = two_source_space(size1=2, size4=2)
        first = search_two_source(space, stop_after=1)
        second = search_two_source(space, stop_after=1)
        assert first.robust_count == second.robust_count
        assert first.cursor == second.cursor
        assert dumps(first.first_found) == dumps(second.first_found)

    @pytest.mark.parametrize("size1, size4", [(1, 2), (2, 1)])
    def test_mixed_sizes_have_sixteen_survivors(self, size1, size4):
        result = search_two_source(two_source_space(size1=size1, size4=size4))
        assert result.completed and result.certifying
        assert result.robust_count == 16
        for model in result.robust_found:
            assert is_robust(model).is_robust

    def test_cursor_resumption_partitions_the_census(self):
        space = two_source_space(size1=1, size4=2)
        head = search_two_source(space, stop_after=3)
        assert head.truncated and not head.completed
        tail = search_two_source(replace(space, cursor=head.cursor))
        assert tail.completed
        assert head.robust_count + tail.robust_count == 16

    def test_examined_tally_is_additive_across_resumption(self):
        space = two_source_space(size1=1, size4=2)
        whole = search_two_source(space)
        head = search_two_source(space, stop_after=3)
        tail = search_two_source(replace(space, cursor=head.cursor))
        assert head.models_examined + tail.models_examined == whole.models_examined

    def test_signs_domain_restricts_to_full_columns(self):
        signs = search_two_source(
            two_source_space(size1=2, size4=2, value_domain="signs")
        )
        assert signs.completed and signs.certifying
        assert signs.models_examined == 256
        assert signs.robust_count == 72
        for model in signs.robust_found:
            assert (model.a != 0).all() and (model.d != 0).all()
            assert is_robust(model).is_robust


# ---------------------------------------------------------------------------
# every SearchResult field (but elapsed_seconds) of a fixed set of runs

@dataclass(frozen=True)
class Pin:
    examined: int
    robust: int
    cursor: int
    flags: str  # the true ones among completed, certifying, truncated
    kept: str = ""  # sha256(dumps(model))[:16] of each kept model, in order
    consistent: tuple[int, ...] = ()  # keep-list positions of consistent_found


# A name in place of a space resumes from that row's cursor.
PINNED_RUNS = {
    "1x1 n=1": (two_source_space(denominator=1), {}),
    "1x1 n=2": (two_source_space(denominator=2), {}),
    "1x1 n=3": (two_source_space(denominator=3), {}),
    "1x1 n=4": (two_source_space(), {}),
    "1x1 n=5": (two_source_space(denominator=5), {}),
    "1x2": (two_source_space(size4=2), {}),
    "1x2 stop_after=3": (two_source_space(size4=2), dict(stop_after=3)),
    "1x2 resumed": ("1x2 stop_after=3", {}),
    "2x1": (two_source_space(size1=2), {}),
    "2x1 stop_after=3": (two_source_space(size1=2), dict(stop_after=3)),
    "2x1 resumed": ("2x1 stop_after=3", {}),
    "2x2 signs": (two_source_space(size1=2, size4=2, value_domain="signs"), {}),
    "2x2 stop_after=1": (two_source_space(size1=2, size4=2), dict(stop_after=1)),
    "2x2 stop_after=20": (two_source_space(size1=2, size4=2), dict(stop_after=20)),
    "2x2 resumed mid-map": (
        two_source_space(size1=2, size4=2, cursor=115200), dict(stop_after=5)
    ),
    # the benchmark's census slice: sector maps 10-15
    "2x2 from map 10": (two_source_space(size1=2, size4=2, cursor=2304000), {}),
    "1x1 resume past end": (two_source_space(cursor=1000), {}),
    "single floor=0.0": (single_source_space(), dict(efficiency_floor=0.0)),
    "single floor=0.5": (single_source_space(), dict(efficiency_floor=0.5)),
    "single floor=1.0": (single_source_space(), dict(efficiency_floor=1.0)),
}

# Recorded before the search engine got its single driver. The one
# deliberate change since: resumed rows no longer certify. The last three
# 2x2 rows were recorded before the driver booked runs of blocks.
PINS = {
    '1x1 n=1': Pin(
        8, 2, 4, 'completed certifying',
        kept="""
            c540b411e1f28deb e2e9b58bac073b01
        """,
        consistent=(0, 1),
    ),
    '1x1 n=2': Pin(
        128, 2, 16, 'completed certifying',
        kept="""
            7d4e2dc073bd77be e91a1f16475f6ebb
        """,
        consistent=(0, 1),
    ),
    '1x1 n=3': Pin(
        2048, 2, 64, 'completed certifying',
        kept="""
            f739aa8e89ceb8ac 4aad7a1d4f4075e5
        """,
        consistent=(0, 1),
    ),
    '1x1 n=4': Pin(
        32768, 0, 256, 'completed certifying',
    ),
    '1x1 n=5': Pin(
        524288, 2, 1024, 'completed certifying',
        kept="""
            df264f10d63221ff 33aef03dddd50ea1
        """,
        consistent=(0, 1),
    ),
    '1x2': Pin(
        102408, 16, 1920, 'completed certifying',
        kept="""
            d3978a09fb140fa3 74994cd0d1cb87cb 71c340392ef3daf6 5f5377491014ea79
            70b2a634694cd53d f935a62be3b0d421 b94e53539b8847a2 9e2e6bc255949ac1
            c7ee30c1b3bbcacc aa1146ba80f15a28 c791f71ba84fcbe5 8a1e6b08ff0abacc
            24d2cc804b5b2347 079f976ff0520330 2b513af36eb3ee81 1897b5e098e34b63
        """,
    ),
    '1x2 stop_after=3': Pin(
        25598, 4, 1, 'truncated',
        kept="""
            d3978a09fb140fa3 74994cd0d1cb87cb 71c340392ef3daf6 5f5377491014ea79
        """,
    ),
    '1x2 resumed': Pin(
        76810, 12, 1920, 'completed',
        kept="""
            70b2a634694cd53d f935a62be3b0d421 b94e53539b8847a2 9e2e6bc255949ac1
            c7ee30c1b3bbcacc aa1146ba80f15a28 c791f71ba84fcbe5 8a1e6b08ff0abacc
            24d2cc804b5b2347 079f976ff0520330 2b513af36eb3ee81 1897b5e098e34b63
        """,
    ),
    '2x1': Pin(
        102408, 16, 921600, 'completed certifying',
        kept="""
            fdea5417ed4a20e3 78ef79ac2f6b6264 244304300f0ffe5f e6d4384acc4a875e
            8a0153b362f31eb6 f6be0b1db7a32d91 f2bdf31fa5b0a0b5 5ed1fb6935f0efd7
            92f39a4fb44a31bd 6e75842612501b38 bab15b5fc3a9c490 c5d55b7aa89ff7f5
            aada918bad082bac b5bbf2776195c63a a015dadf4e5ddb74 5cab7970ac3b3809
        """,
    ),
    '2x1 stop_after=3': Pin(
        962, 4, 481, 'truncated',
        kept="""
            fdea5417ed4a20e3 78ef79ac2f6b6264 244304300f0ffe5f e6d4384acc4a875e
        """,
    ),
    '2x1 resumed': Pin(
        101446, 12, 921600, 'completed',
        kept="""
            8a0153b362f31eb6 f6be0b1db7a32d91 f2bdf31fa5b0a0b5 5ed1fb6935f0efd7
            92f39a4fb44a31bd 6e75842612501b38 bab15b5fc3a9c490 c5d55b7aa89ff7f5
            aada918bad082bac b5bbf2776195c63a a015dadf4e5ddb74 5cab7970ac3b3809
        """,
    ),
    '2x2 signs': Pin(
        256, 72, 64, 'completed certifying',
        kept="""
            cd5742d24a2b7b2d a0c1c92bd67c69e5 0f0e8fa01605d3da 04c4d56401c85531
            6c3c1d297b407fa1 7f76826ac645ec39 c4d547d710c3d3dd d03184a536a67ffd
            66d4871c177ae057 8c4fcb836343f596 c9735a6b3d45d12e 7fdc51f3d375b243
            31dfe861f52ca791 d6411c38695a0fd7 e30ad5a1c53b135e 548a86b6458eee7d
        """,
    ),
    '2x2 stop_after=1': Pin(
        25598, 4, 1, 'truncated',
        kept="""
            cd5742d24a2b7b2d a0c1c92bd67c69e5 3bcbd0f3d001aa11 67858cdba4ebe592
        """,
    ),
    '2x2 stop_after=20': Pin(
        51196, 25602, 2, 'truncated',
        kept="""
            cd5742d24a2b7b2d a0c1c92bd67c69e5 3bcbd0f3d001aa11 67858cdba4ebe592
            0f0e8fa01605d3da 04c4d56401c85531 5d60acb09ee494f2 e79884404ec35d62
            b434ce20f43178fa fd906ce204fe961a f5c993b8fd2a6710 5ec2adc8a012659e
            1d73728ec7f39fb5 f4c7e6215933b28e 33b3189272b03c4f bcdd2c851db271e0
        """,
    ),
    '2x2 resumed mid-map': Pin(
        51196, 8, 115202, 'truncated',
        kept="""
            7c934196a9200f9d da4bfa00e812cff8 fbe3d9d06383f694 118c8d7d70e4dc75
            ecdaf3332adfec98 777dd6b46f3f7f71 ca41a9a9836f5995 054df3d01d382dce
        """,
    ),
    '2x2 from map 10': Pin(
        658227188, 204800, 3686400, 'completed',
        kept="""
            7af19a52a5744a2b 3dcab9a5084d886c 83ab3a9590bc1012 a9b8036cc6053ea3
            da32cbfcb401bbc6 96e4ded966d2782f d282399b85eab7bd d212c08cb0f5baca
            c6a933f7b687393d 058bd1e8b2540353 f0b5496e18668296 cbf22f4bddcff1ef
            e0cd334db1ffe068 776e0f2f2df5d4d7 e70142df45032e8a c3d802ce053312a2
        """,
    ),
    '1x1 resume past end': Pin(
        0, 0, 256, 'completed',
    ),
    'single floor=0.0': Pin(
        715, 1, 715, 'truncated',
        kept="""
            62d607b79373eb26
        """,
    ),
    'single floor=0.5': Pin(
        21, 1, 21, 'truncated',
        kept="""
            295505bd1e713a80
        """,
    ),
    'single floor=1.0': Pin(
        1, 0, 1, 'completed certifying',
    ),
}


@functools.cache
def pinned_run(name):
    space, kwargs = PINNED_RUNS[name]
    if isinstance(space, str):
        space = replace(PINNED_RUNS[space][0], cursor=pinned_run(space).cursor)
    if space.family == SINGLE_SOURCE:
        return search_single_source(space, **kwargs)
    return search_two_source(space, **kwargs)


def digest(model):
    return hashlib.sha256(dumps(model).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", PINS)
def test_pinned_search_results(name):
    result = pinned_run(name)
    pin = PINS[name]
    family = SINGLE_SOURCE if name.startswith("single") else TWO_SOURCE
    assert result.family == family
    assert (result.models_examined, result.robust_count, result.cursor) == (
        pin.examined, pin.robust, pin.cursor
    )
    flags = {"completed", "certifying", "truncated"}
    assert {flag for flag in flags if getattr(result, flag)} == set(pin.flags.split())
    assert result.notes == ""
    kept = result.robust_found
    assert [digest(model) for model in kept] == pin.kept.split()
    assert result.first_found is (kept[0] if kept else None)
    assert result.first_report == (RobustnessReport(None, None, None) if kept else None)
    positions = [
        next(i for i, model in enumerate(kept) if model is found)
        for found in result.consistent_found
    ]
    assert tuple(positions) == pin.consistent


def test_full_two_by_two_census_totals():
    """README's census: the whole 2x2 space, certifying, with the 16 kept
    survivors robust and the gate's witnesses matching the oracle's."""
    result = search_two_source(two_source_space(size1=2, size4=2))
    assert (result.robust_count, result.models_examined) == (409648, 2628812784)
    assert result.completed and result.certifying
    assert len(result.robust_found) == 16
    for model in result.robust_found:
        assert is_robust(model).is_robust
        for minus_row in (False, True):
            assert (check_perfect_correlations(model, minus_row)
                    == multi_axis_correlations(model, minus_row))


class TestSingleSourceSearch:
    def test_half_floor_finds_a_witness(self):
        space = SearchSpace(family=SINGLE_SOURCE, denominator=4, size1=16)
        result = search_single_source(space, efficiency_floor=0.5)
        assert result.robust_count == 1 and result.truncated
        model = result.first_found
        assert model.family == SINGLE_SOURCE
        assert result.first_report.is_robust
        for k in range(model.steps):
            assert np.count_nonzero(model.a[k]) / model.a.shape[1] >= 0.5
            assert np.count_nonzero(model.d[k]) / model.d.shape[1] >= 0.5
        assert (model.f_plus != 0).all()

    def test_full_floor_exhausts_the_family(self):
        space = SearchSpace(family=SINGLE_SOURCE, denominator=4, size1=16)
        result = search_single_source(space, efficiency_floor=1.0)
        assert result.robust_count == 0
        assert result.completed and result.certifying
        assert result.models_examined == 1

    def test_zero_floor_reaches_sparser_supports(self):
        space = SearchSpace(family=SINGLE_SOURCE, denominator=4, size1=16)
        result = search_single_source(space, efficiency_floor=0.0)
        model = result.first_found
        rate = min(
            np.count_nonzero(model.a[k]) / model.a.shape[1]
            for k in range(model.steps)
        )
        assert 0 < rate < 0.5

    def test_found_model_is_deterministic(self):
        space = SearchSpace(family=SINGLE_SOURCE, denominator=4, size1=16)
        first = search_single_source(space, efficiency_floor=0.5)
        second = search_single_source(space, efficiency_floor=0.5)
        assert dumps(first.first_found) == dumps(second.first_found)
        assert first.models_examined == second.models_examined

    def test_floor_validation(self):
        space = SearchSpace(family=SINGLE_SOURCE, denominator=4, size1=16)
        with pytest.raises(ValueError):
            search_single_source(space, efficiency_floor=1.5)

    @pytest.mark.parametrize("n, stride, counts", [(2, 1, (225, 225)),
                                                   (4, 23, (2828, 622))])
    def test_sign_solve_matches_the_branching_oracle(self, n, stride, counts):
        m = 2 * n
        pairs = list(_support_pairs(m, 1))[::stride]
        solved = 0
        for ma, md in pairs:
            sa = [x for x in range(m) if ma >> x & 1]
            sd = [x for x in range(m) if md >> x & 1]
            expected = branching_solve_signs(sa, sd, n)
            assert _solve_signs(sa, sd, n) == expected, (ma, md)
            solved += expected is not None
        assert (len(pairs), solved) == counts

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_assembly_matches_the_looped_oracle(self, n):
        m = 2 * n
        rng = np.random.default_rng(n)
        solved = 0
        for ma, md in rng.integers(1, 1 << m, size=(100, 2)).tolist():
            sa = [x for x in range(m) if ma >> x & 1]
            sd = [x for x in range(m) if md >> x & 1]
            solution = _solve_signs(sa, sd, n)
            if solution is None:
                continue
            solved += 1
            assert dumps(_assemble_single_source(*solution, n)) == dumps(
                looped_single_source(*solution, n)
            ), (ma, md)
        assert solved >= 10


class TestOracleCount:
    def all_delta_one(self):
        m = 8
        return LhvModel(
            family=TWO_SOURCE,
            n=4,
            a=np.ones((m, 2), dtype=np.int8),
            d=np.ones((m, 2), dtype=np.int8),
            kappa=np.ones((2, 2), dtype=np.int8),
            f_plus=np.ones((m, m, 2, 2), dtype=np.int8),
            f_minus=np.ones((m, m, 2, 2), dtype=np.int8),
            rho1=[Fraction(1, 2)] * 2,
            rho4=[Fraction(1, 2)] * 2,
            n0=16,
        )

    def test_full_detection_gives_half_the_source_rate(self):
        model = self.all_delta_one()
        for phis in [(0, 0, 0, 0), (1, 2, 3, 4), (7, 7, 7, 7)]:
            assert oracle_count(model, phis, 1) == Fraction(8)
            assert oracle_count(model, phis, -1) == Fraction(0)

    @pytest.mark.parametrize(
        "builder", [parity_split_model, both_sector_model]
    )
    def test_agrees_exactly_with_the_model_module(self, builder):
        model = builder()
        rng = np.random.default_rng(5)
        for _ in range(25):
            phis = tuple(int(x) for x in rng.integers(0, model.steps, 4))
            for sector in (1, -1):
                assert oracle_count(model, phis, sector) == event_count(
                    model, phis, sector
                )

    def test_agrees_on_search_survivors(self):
        result = search_two_source(
            two_source_space(size1=2, size4=2), stop_after=1
        )
        single = search_single_source(
            SearchSpace(family=SINGLE_SOURCE, denominator=4, size1=16)
        )
        rng = np.random.default_rng(11)
        for model in [*result.robust_found[:3], single.first_found]:
            for _ in range(10):
                phis = tuple(int(x) for x in rng.integers(0, model.steps, 4))
                for sector in (1, -1):
                    assert oracle_count(model, phis, sector) == event_count(
                        model, phis, sector
                    )

    def test_rejects_bad_sector(self):
        with pytest.raises(ValueError):
            oracle_count(self.all_delta_one(), (0, 0, 0, 0), 0)


# ---------------------------------------------------------------------------
# the rules every enumerator shares through the one driver

# (search, space, kwargs) per enumerator: sign scan, class scan, single source;
# the sign scan at n = 5, where its 2 survivors lie among many runs (at
# n = 2 its whole space is two runs)
ENUMERATORS = {
    "pair_single": (search_two_source, two_source_space(denominator=5), {}),
    "pair_double": (search_two_source, two_source_space(size4=2), {}),
    "single_source": (search_single_source, single_source_space(), {}),
}


class TestResumedRuns:
    @pytest.mark.parametrize(
        "search, space, kwargs, cursor",
        [
            (search_two_source, two_source_space(denominator=2), {}, 16),
            # every one of the 16 robust models lies before block 1500
            (search_two_source, two_source_space(size4=2), {}, 1500),
            (search_single_source, single_source_space(), dict(efficiency_floor=1.0), 1),
        ],
        ids=list(ENUMERATORS),
    )
    def test_a_resumed_run_never_certifies(self, search, space, kwargs, cursor):
        whole = search(space, **kwargs)
        resumed = search(replace(space, cursor=cursor), **kwargs)
        assert whole.certifying
        assert resumed.completed and resumed.robust_count == 0
        assert not resumed.certifying


class TestSearchLimits:
    @pytest.mark.parametrize("name", ENUMERATORS)
    @pytest.mark.parametrize("stop_after", [0, -3])
    def test_stop_after_must_be_positive(self, name, stop_after):
        search, space, kwargs = ENUMERATORS[name]
        with pytest.raises(ValueError, match="stop_after"):
            search(space, stop_after=stop_after, **kwargs)

    @pytest.mark.parametrize("name", ENUMERATORS)
    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1.0])
    def test_budget_must_be_finite_and_nonnegative(self, name, budget):
        search, space, kwargs = ENUMERATORS[name]
        with pytest.raises(ValueError, match="budget_seconds"):
            search(space, budget_seconds=budget, **kwargs)

    @pytest.mark.parametrize("name", ENUMERATORS)
    def test_keep_limit_zero_keeps_nothing(self, name):
        search, space, kwargs = ENUMERATORS[name]
        result = search(space, keep_limit=0, **kwargs)
        assert result.robust_count > 0
        assert result.robust_found == [] and result.consistent_found == []
        assert result.first_found is None and result.first_report is None


def ticking_clock():
    """A monotonic clock that advances one second per reading."""
    return SimpleNamespace(monotonic=itertools.count().__next__)


class TestBudget:
    @pytest.mark.parametrize("name", ENUMERATORS)
    def test_spent_budget_resumes_to_the_whole_run(self, name, monkeypatch):
        search, space, kwargs = ENUMERATORS[name]
        whole = search(space, **kwargs)
        monkeypatch.setattr("bellswap.search.time", ticking_clock())
        head = search(space, budget_seconds=2, **kwargs)
        monkeypatch.undo()
        assert not head.completed and not head.truncated and not head.certifying
        assert head.notes == "budget exhausted; partial result, not certifying"
        assert 0 < head.cursor < whole.cursor
        tail = search(replace(space, cursor=head.cursor), **kwargs)
        assert tail.completed == whole.completed
        assert head.robust_count + tail.robust_count == whole.robust_count
        assert head.models_examined + tail.models_examined == whole.models_examined

    def test_spent_budget_at_n6_builds_no_pair_list(self, monkeypatch):
        space = SearchSpace(family=SINGLE_SOURCE, denominator=6, size1=24)
        monkeypatch.setattr("bellswap.search.time", ticking_clock())
        tracemalloc.start()
        try:
            result = search_single_source(space, budget_seconds=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.cursor == 0 and result.models_examined == 0
        assert not result.completed and not result.certifying
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("search, space, text", [
        # the first n past the limit; _single_scan_bytes derives the figure
        (search_two_source, two_source_space(denominator=10),
         "1x1 two-source scan on the pi/10 grid would take an estimated 765 MiB"),
        # every support mask listed by size: about 42 bytes each
        (search_single_source,
         SearchSpace(family=SINGLE_SOURCE, denominator=12, size1=48),
         "single-source search on the pi/12 grid would take an estimated 672 MiB"),
    ], ids=["two_source_1x1", "single_source"])
    def test_oversized_grid_is_refused_before_the_first_block(
        self, search, space, text, monkeypatch
    ):
        monkeypatch.setattr("bellswap.search.time", ticking_clock())
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=text):
                search(space, budget_seconds=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_oversized_search_is_a_usage_error(self, capsys):
        assert cli_run(["search", "--n", "10", "--budget", "0"]) == 2
        err = capsys.readouterr().err
        assert "1x1 two-source scan on the pi/10 grid" in err and "765 MiB" in err


def sorted_support_pairs(m, minimum):
    """The eager ordering the single-source search once built up front."""
    masks = sorted(range(1, 1 << m), key=lambda v: (bin(v).count("1"), v))
    pairs = [
        (ma, md)
        for ma in masks
        if bin(ma).count("1") >= minimum
        for md in masks
        if bin(md).count("1") >= minimum
    ]
    pairs.sort(key=lambda p: (bin(p[0]).count("1") + bin(p[1]).count("1"), p))
    return pairs


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("floor", [0.0, 0.5, 1.0])
def test_support_pairs_stream_in_the_sorted_order(n, floor):
    m = 2 * n
    minimum = max(int(np.ceil(floor * m - 1e-9)), 1)
    expected = sorted_support_pairs(m, minimum)
    assert list(_support_pairs(m, minimum)) == expected
    for start in (1, len(expected) // 3, len(expected) - 1, len(expected)):
        assert list(_support_pairs(m, minimum, start)) == expected[start:]
