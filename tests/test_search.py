"""Search-engine tests: oracles, cross-validation, and census regressions."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bellswap.angles import GridError, sign_table
from bellswap.factorizer import factorize
from bellswap.model import SINGLE_SOURCE, TWO_SOURCE, LhvModel, dumps, event_count
from bellswap.robustness import is_robust
from bellswap.search import (
    SearchSpace,
    forced_analyzer,
    oracle_count,
    search_single_source,
    search_two_source,
)
from bellswap.search import (
    _class_column,
    _column_classes,
    _pair_not_dead,
    _spread_mask,
)
from helpers import (
    both_sector_model,
    demand_filled_analyzer,
    parity_split_model,
    rebuild,
)


def two_source_space(**kwargs):
    defaults = dict(family=TWO_SOURCE, denominator=4, size1=1, size4=1)
    defaults.update(kwargs)
    return SearchSpace(**defaults)


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


class TestForcedAnalyzer:
    """The maximal-table construction against an independent builder."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_loop_built_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        m = 2 * n
        a = rng.integers(-1, 2, size=(m, 2)).astype(np.int8)
        d = rng.integers(-1, 2, size=(m, 2)).astype(np.int8)
        kappa = (1 - 2 * rng.integers(0, 2, size=(2, 2))).astype(np.int8)
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
