"""Model representation: validation, evaluation, counts, file round trip."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from bellswap.model import (
    EventOutcome,
    LhvModel,
    ModelFormatError,
    classical_expectation,
    dumps,
    event,
    event_count,
    load,
    loads,
    outcome_product,
    positive_weight_mask,
    product_tensor,
    realized_sectors,
    save,
    selected_analyzer,
)


def constant_two_source(n=2, l1=2, l4=2, a=1, d=1, f=1, kappa=1, n0=8):
    m = 2 * n
    return LhvModel(
        family="two_source",
        n=n,
        a=np.full((m, l1), a),
        d=np.full((m, l4), d),
        kappa=np.full((l1, l4), kappa),
        f_plus=np.full((m, m, l1, l4), f),
        f_minus=np.full((m, m, l1, l4), f),
        rho1=[Fraction(1, l1)] * l1,
        rho4=[Fraction(1, l4)] * l4,
        n0=n0,
    )


def random_two_source(seed, n=2, l1=2, l4=3):
    rng = random.Random(seed)
    m = 2 * n
    pick = lambda: rng.choice([-1, 0, 1])
    return LhvModel(
        family="two_source",
        n=n,
        a=np.array([[pick() for _ in range(l1)] for _ in range(m)]),
        d=np.array([[pick() for _ in range(l4)] for _ in range(m)]),
        kappa=np.array(
            [[rng.choice([-1, 1]) for _ in range(l4)] for _ in range(l1)]
        ),
        f_plus=np.array(
            [[[[pick() for _ in range(l4)] for _ in range(l1)] for _ in range(m)]
             for _ in range(m)]
        ),
        f_minus=np.array(
            [[[[pick() for _ in range(l4)] for _ in range(l1)] for _ in range(m)]
             for _ in range(m)]
        ),
        rho1=[Fraction(1, l1)] * l1,
        rho4=[Fraction(1, l4)] * l4,
        n0=4,
    )


def constant_single_source(n=2, size=3, a=1, d=1, f=1, kappa=1, n0=6):
    m = 2 * n
    return LhvModel(
        family="single_source",
        n=n,
        a=np.full((m, size), a),
        d=np.full((m, size), d),
        kappa=np.full((size,), kappa),
        f_plus=np.full((m, m, size), f),
        f_minus=np.full((m, m, size), f),
        rho1=[Fraction(1, size)] * size,
        rho4=None,
        n0=n0,
    )


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(ModelFormatError, match="family"):
            constant_two_source().__class__(
                **{**constant_two_source().__dict__, "family": "three_source"}
            )

    def test_table_value_out_of_range(self):
        m = constant_two_source()
        bad = np.array(m.a.tolist())
        bad[0, 0] = 2
        with pytest.raises(ModelFormatError, match="a"):
            LhvModel(
                family=m.family, n=m.n, a=bad, d=m.d, kappa=m.kappa,
                f_plus=m.f_plus, f_minus=m.f_minus,
                rho1=m.rho1, rho4=m.rho4, n0=m.n0,
            )

    def test_kappa_zero_rejected(self):
        m = constant_two_source()
        bad = np.array(m.kappa.tolist())
        bad[0, 0] = 0
        with pytest.raises(ModelFormatError, match="kappa"):
            LhvModel(
                family=m.family, n=m.n, a=m.a, d=m.d, kappa=bad,
                f_plus=m.f_plus, f_minus=m.f_minus,
                rho1=m.rho1, rho4=m.rho4, n0=m.n0,
            )

    def test_weights_must_sum_to_one(self):
        m = constant_two_source()
        with pytest.raises(ModelFormatError, match="rho1"):
            LhvModel(
                family=m.family, n=m.n, a=m.a, d=m.d, kappa=m.kappa,
                f_plus=m.f_plus, f_minus=m.f_minus,
                rho1=[Fraction(1, 3)] * 2, rho4=m.rho4, n0=m.n0,
            )

    def test_shape_mismatch_names_field(self):
        m = constant_two_source()
        with pytest.raises(ModelFormatError, match="F_plus_sector"):
            LhvModel(
                family=m.family, n=m.n, a=m.a, d=m.d, kappa=m.kappa,
                f_plus=m.f_plus[:-1], f_minus=m.f_minus,
                rho1=m.rho1, rho4=m.rho4, n0=m.n0,
            )

    def test_single_source_rejects_second_weight_vector(self):
        s = constant_single_source()
        with pytest.raises(ModelFormatError, match="rho4"):
            LhvModel(
                family=s.family, n=s.n, a=s.a, d=s.d, kappa=s.kappa,
                f_plus=s.f_plus, f_minus=s.f_minus,
                rho1=s.rho1, rho4=s.rho1, n0=s.n0,
            )

    def test_tables_are_frozen(self):
        m = constant_two_source()
        with pytest.raises(ValueError):
            m.a[0, 0] = 0

    def test_model_owns_its_tables(self):
        source = constant_two_source()
        base = np.ones((4, 3), dtype=np.int8)
        view = base[:, :2]
        model = dataclasses.replace(source, a=view)
        before = product_tensor(model).copy()
        base[0, 0] *= -1
        assert view.flags.writeable and base.flags.writeable
        assert np.array_equal(model.a, source.a)
        assert np.array_equal(product_tensor(model), before)
        assert np.array_equal(product_tensor(model), product_tensor(source))


class TestDerivedViews:
    @pytest.mark.parametrize("build", [constant_two_source, constant_single_source])
    def test_cached_and_read_only(self, build):
        model = build()
        for view in (selected_analyzer, product_tensor, positive_weight_mask):
            assert view(model) is view(model)
            assert not view(model).flags.writeable
        for sector, events in model.sector_events.items():
            assert not events.flags.writeable
            assert np.array_equal(
                events,
                (product_tensor(model) != 0)
                & positive_weight_mask(model)
                & (model.kappa == sector),
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_sectors_match_the_weighted_assignments(self, seed):
        model = random_two_source(seed, l1=3, l4=2)
        rng = random.Random(seed)
        rho1 = [Fraction(0)] * 3
        rho1[rng.randrange(3)] = Fraction(1)
        sparse = dataclasses.replace(model, rho1=rho1)
        for m in (model, sparse):
            seen = {
                int(m.kappa[l1, l4]) for l1, l4, w in m.assignments() if w > 0
            }
            assert realized_sectors(m) == tuple(s for s in (1, -1) if s in seen)


class TestDerivedDetectionFlags:
    # the detection indicator of every table is its absolute value and the
    # algebra |X| in {0,1}, X*|X| = X, X^2 = |X| holds entrywise
    @pytest.mark.parametrize("seed", range(5))
    def test_detection_algebra(self, seed):
        m = random_two_source(seed)
        for table in (m.a, m.d, m.f_plus, m.f_minus):
            delta = np.abs(table)
            assert set(np.unique(delta)) <= {0, 1}
            assert np.array_equal(table * delta, table)
            assert np.array_equal(table * table, delta)


class TestEvaluation:
    def test_outcome_product_signs(self):
        m = constant_two_source(a=1, d=1, f=-1)
        assert outcome_product(m, (0, 0, 0, 0), 0, 0) == -1

    def test_outcome_product_absorbing_zero(self):
        m = constant_two_source(a=0)
        assert outcome_product(m, (1, 2, 3, 0), 0, 1) == 0

    def test_constant_factorizable_product(self):
        m = constant_two_source(a=1, d=1, f=1)
        for phis in [(0, 0, 0, 0), (1, 2, 3, 0), (3, 3, 1, 2)]:
            assert outcome_product(m, phis, 1, 1) == 1

    def test_two_source_requires_both_indices(self):
        with pytest.raises(IndexError):
            outcome_product(constant_two_source(), (0, 0, 0, 0), 0)

    def test_single_source_shares_index(self):
        s = constant_single_source(f=-1)
        assert outcome_product(s, (0, 1, 2, 3), 2) == -1
        with pytest.raises(IndexError):
            outcome_product(s, (0, 1, 2, 3), 0, 1)

    def test_event_sector_flags(self):
        m = constant_two_source(kappa=-1)
        out = event(m, (0, 0, 0, 0), 0, 0)
        assert out == EventOutcome(product=1, in_plus_sector=False,
                                   in_minus_sector=True)
        silent = event(constant_two_source(a=0), (0, 0, 0, 0), 0, 0)
        assert silent.product == 0
        assert not silent.in_plus_sector and not silent.in_minus_sector


class TestCounts:
    def test_full_detection_count_is_half_nominal(self):
        m = constant_two_source(n0=10)
        for phis in [(0, 0, 0, 0), (1, 3, 2, 0)]:
            assert event_count(m, phis, 1) == Fraction(5)
            assert event_count(m, phis, -1) == 0

    def test_no_detections_no_counts(self):
        m = constant_two_source(a=0)
        assert event_count(m, (0, 0, 0, 0), 1) == 0

    def test_single_source_count(self):
        s = constant_single_source(n0=6)
        assert event_count(s, (2, 1, 0, 3), 1) == Fraction(3)

    @pytest.mark.parametrize("seed", range(4))
    def test_count_monotone_under_silencing(self, seed):
        m = random_two_source(seed)
        phis = (1, 0, 2, 3)
        before = event_count(m, phis, 1) + event_count(m, phis, -1)
        a = np.array(m.a.tolist())
        nz = np.argwhere(a != 0)
        if len(nz) == 0:
            return
        i, j = nz[0]
        a[i, j] = 0
        silenced = LhvModel(
            family=m.family, n=m.n, a=a, d=m.d, kappa=m.kappa,
            f_plus=m.f_plus, f_minus=m.f_minus,
            rho1=m.rho1, rho4=m.rho4, n0=m.n0,
        )
        after = event_count(silenced, phis, 1) + event_count(silenced, phis, -1)
        assert after <= before

    @pytest.mark.parametrize("seed", range(4))
    def test_count_invariant_under_relabeling(self, seed):
        m = random_two_source(seed, l1=3, l4=2)
        rng = random.Random(seed + 100)
        perm1 = list(range(3))
        perm4 = list(range(2))
        rng.shuffle(perm1)
        rng.shuffle(perm4)
        relabeled = LhvModel(
            family=m.family, n=m.n,
            a=m.a[:, perm1], d=m.d[:, perm4],
            kappa=m.kappa[np.ix_(perm1, perm4)],
            f_plus=m.f_plus[:, :, :, perm4][:, :, perm1, :],
            f_minus=m.f_minus[:, :, :, perm4][:, :, perm1, :],
            rho1=[m.rho1[i] for i in perm1],
            rho4=[m.rho4[i] for i in perm4],
            n0=m.n0,
        )
        for phis in [(0, 0, 0, 0), (1, 2, 3, 0), (2, 2, 1, 3)]:
            for sector in (1, -1):
                assert event_count(m, phis, sector) == event_count(
                    relabeled, phis, sector
                )


class TestClassicalExpectation:
    def test_unit_product_gives_plus_one(self):
        # a model whose nonzero products are all +1, with singlet-type
        # announcements available: A=+1, F=-1, D=-1
        m = constant_two_source(a=1, d=-1, f=-1)
        assert classical_expectation(m, (0, 1, 2, 3)) == 1

    def test_unconditioned_average(self):
        m = constant_two_source(f=1)
        assert classical_expectation(m, (0, 0, 0, 0), analyzer_sign=None) == 1

    def test_empty_condition_is_undefined(self):
        m = constant_two_source(f=1)
        # no announcement carries sign -1 anywhere
        assert classical_expectation(m, (0, 0, 0, 0), analyzer_sign=-1) is None

    def test_zero_average_is_not_undefined(self):
        m = constant_two_source(l1=2, l4=1)
        a = np.array(m.a.tolist())
        a[:, 1] = -1
        mixed = LhvModel(
            family=m.family, n=m.n, a=a, d=m.d, kappa=m.kappa,
            f_plus=m.f_plus, f_minus=m.f_minus,
            rho1=m.rho1, rho4=m.rho4, n0=m.n0,
        )
        value = classical_expectation(mixed, (0, 0, 0, 0), analyzer_sign=None)
        assert value == 0 and value is not None

    def test_empty_support_is_undefined(self):
        m = constant_two_source(a=0)
        assert classical_expectation(m, (0, 0, 0, 0), analyzer_sign=None) is None


class TestRealizedSectors:
    def test_constant_kappa(self):
        assert realized_sectors(constant_two_source(kappa=1)) == (1,)
        assert realized_sectors(constant_two_source(kappa=-1)) == (-1,)

    def test_mixed_kappa(self):
        m = constant_two_source()
        checker = np.array([[1, -1], [-1, 1]])
        mixed = LhvModel(
            family=m.family, n=m.n, a=m.a, d=m.d, kappa=checker,
            f_plus=m.f_plus, f_minus=m.f_minus,
            rho1=m.rho1, rho4=m.rho4, n0=m.n0,
        )
        assert realized_sectors(mixed) == (1, -1)

    def test_zero_weight_assignments_ignored(self):
        m = constant_two_source(l1=2, l4=2, kappa=1)
        k = np.array(m.kappa.tolist())
        k[1, :] = -1
        skewed = LhvModel(
            family=m.family, n=m.n, a=m.a, d=m.d, kappa=k,
            f_plus=m.f_plus, f_minus=m.f_minus,
            rho1=[Fraction(1), Fraction(0)], rho4=m.rho4, n0=m.n0,
        )
        assert realized_sectors(skewed) == (1,)


class TestFileFormat:
    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip_two_source(self, seed, tmp_path):
        m = random_two_source(seed)
        path = tmp_path / "model.json"
        save(m, path)
        back = load(path)
        assert back.family == m.family and back.n == m.n and back.n0 == m.n0
        for name in ("a", "d", "kappa", "f_plus", "f_minus"):
            assert np.array_equal(getattr(back, name), getattr(m, name))
        assert back.rho1 == m.rho1 and back.rho4 == m.rho4

    def test_round_trip_single_source(self, tmp_path):
        s = constant_single_source()
        path = tmp_path / "model.json"
        save(s, path)
        back = load(path)
        assert back.family == "single_source"
        assert back.rho4 is None
        assert np.array_equal(back.f_plus, s.f_plus)

    def test_missing_field(self):
        with pytest.raises(ModelFormatError, match="missing"):
            loads('{"family": "two_source"}')

    def test_not_json(self):
        with pytest.raises(ModelFormatError, match="JSON"):
            loads("not json at all")

    def test_declared_size_mismatch(self):
        text = dumps(constant_two_source())
        broken = text.replace('"lambda1": 2', '"lambda1": 3')
        with pytest.raises(ModelFormatError, match="lambda1"):
            loads(broken)

    def test_single_source_with_two_lambda_sets(self):
        text = dumps(constant_single_source())
        broken = text.replace('"lambda4": null', '"lambda4": 3')
        with pytest.raises(ModelFormatError, match="lambda4"):
            loads(broken)

    def test_bad_weight_string(self):
        text = dumps(constant_two_source())
        broken = text.replace('"1/2"', '"1/0"', 1)
        with pytest.raises(ModelFormatError, match="rho1"):
            loads(broken)

    def test_rational_weight_strings_survive(self):
        m = constant_two_source(l1=3, l4=2)
        rebuilt = LhvModel(
            family=m.family, n=m.n, a=np.full((4, 3), 1), d=m.d,
            kappa=np.full((3, 2), 1),
            f_plus=np.full((4, 4, 3, 2), 1), f_minus=np.full((4, 4, 3, 2), 1),
            rho1=[Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)],
            rho4=m.rho4, n0=m.n0,
        )
        assert loads(dumps(rebuilt)).rho1 == rebuilt.rho1
