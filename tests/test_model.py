"""Model representation: validation, evaluation, counts, file round trip."""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import random
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from bellswap import model as model_module
from bellswap.model import (
    LhvModel,
    ModelFormatError,
    _canonical_model,
    _events_at,
    _parsed_weights,
    _uniform_model,
    classical_expectation,
    dumps,
    event_count,
    load,
    loads,
    positive_weight_mask,
    product_tensor,
    realized_sectors,
    save,
    selected_analyzer,
)
from bellswap.zoo import by_uri, catalog, single_source_shift, synthetic_factorizable

from helpers import broadcast_events, broadcast_products, indent_dumps, oracle_intake
from test_golden import MODELS


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


@st.composite
def weight_vectors(draw, size):
    """Exact weights of ``size`` values, denominators up to seven digits."""
    parts = draw(st.lists(st.integers(0, 10**6), min_size=size, max_size=size))
    if not any(parts):
        parts[0] = 1
    return [Fraction(p, sum(parts)) for p in parts]


@st.composite
def file_models(draw):
    """Random models of either family, n 1-6, 1-4 values per hidden source."""
    family = draw(st.sampled_from(["two_source", "single_source"]))
    n = draw(st.integers(1, 6))
    size1 = draw(st.integers(1, 4))
    size4 = draw(st.integers(1, 4)) if family == "two_source" else size1
    hidden = (size1, size4) if family == "two_source" else (size1,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = 2 * n

    def table(shape):
        return rng.integers(-1, 2, size=shape, dtype=np.int8)

    return LhvModel(
        family=family,
        n=n,
        a=table((m, size1)),
        d=table((m, size4)),
        kappa=rng.choice(np.array([-1, 1], dtype=np.int8), size=hidden),
        f_plus=table((m, m) + hidden),
        f_minus=table((m, m) + hidden),
        rho1=draw(weight_vectors(size1)),
        rho4=draw(weight_vectors(size4)) if family == "two_source" else None,
        n0=draw(st.integers(0, 10**6)),
    )


def first_leaf_set(table: list, value) -> None:
    """Put ``value`` at index 0 of every axis of a nested-list table."""
    while isinstance(table[0], list):
        table = table[0]
    table[0] = value


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

    @pytest.mark.parametrize("family", ["two_source", "single_source"])
    @pytest.mark.parametrize("field, path", [
        ("a", "A"), ("d", "D"), ("kappa", "kappa"),
        ("f_plus", "F_plus_sector"), ("f_minus", "F_minus_sector"),
    ])
    def test_wrong_shape_names_its_table(self, family, field, path):
        m = constant_two_source() if family == "two_source" else constant_single_source()
        with pytest.raises(ModelFormatError, match=f"^{path}: expected shape"):
            dataclasses.replace(m, **{field: getattr(m, field)[:-1]})

    def test_single_source_rejects_second_weight_vector(self):
        s = constant_single_source()
        with pytest.raises(ModelFormatError, match="rho4"):
            LhvModel(
                family=s.family, n=s.n, a=s.a, d=s.d, kappa=s.kappa,
                f_plus=s.f_plus, f_minus=s.f_minus,
                rho1=s.rho1, rho4=s.rho1, n0=s.n0,
            )

    @pytest.mark.parametrize("field", ["n", "n0"])
    def test_boolean_is_not_an_integer(self, field):
        m = constant_two_source(n=1, l1=1, l4=1, n0=1)
        with pytest.raises(ModelFormatError, match=f"^{field}:"):
            dataclasses.replace(m, **{field: True})

    @pytest.mark.parametrize(
        "bad",
        [
            np.full((4, 2), 257, dtype=np.int64),  # int8 would wrap it to +1
            np.full((4, 2), 255, dtype=np.uint8),  # int8 would wrap it to -1
            np.full((4, 2), 0.9),  # int8 would truncate it to 0
            np.ones((4, 2), dtype=bool),
            [[1, 1], [1, 1], [1, 1], [True, 1]],
            [["1", "1"]] * 4,
        ],
        ids=["int64-257", "uint8-255", "float", "bool-array", "bool-in-list", "strings"],
    )
    def test_tables_take_only_sign_integers(self, bad):
        with pytest.raises(ModelFormatError, match="^A:"):
            dataclasses.replace(constant_two_source(), a=bad)

    @pytest.mark.parametrize(
        "good",
        [
            np.full((4, 2), -1, dtype=np.int64),
            np.ones((4, 2), dtype=np.uint8),
            np.zeros((4, 2), dtype=np.int16),
            [[1, 0], [-1, 1], [0, 0], [1, -1]],
        ],
        ids=["int64", "uint8", "int16", "list"],
    )
    def test_any_integer_dtype_is_taken_as_int8(self, good):
        model = dataclasses.replace(constant_two_source(), a=good)
        assert model.a.dtype == np.int8
        assert np.array_equal(model.a, np.array(good))

    def test_boolean_is_not_a_weight(self):
        for weights in ([True, False], [0.5, 0.5], [np.float64(0.5)] * 2):
            with pytest.raises(ModelFormatError, match=r"^rho1\[0\]: not a rational"):
                dataclasses.replace(constant_two_source(), rho1=weights)

    @pytest.mark.parametrize("field, value, path", [
        ("rho1", "1", "rho1"),
        ("rho4", 5, "rho4"),
        ("a", [[1, 1], [1, 1], [1, 1], [1]], "A"),
    ], ids=["string-rho1", "integer-rho4", "ragged-a"])
    def test_malformed_input_names_its_field(self, field, value, path):
        # a string is no weight vector though it iterates, an integer has
        # no length, and numpy refuses a ragged list with a ValueError
        with pytest.raises(ModelFormatError, match=f"^{path}: "):
            dataclasses.replace(constant_two_source(), **{field: value})

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


def _arrays(value):
    """Every array in a cached view: the view itself, or those inside its
    dict values and tuple items."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (dict, tuple)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _arrays(item)


class TestDerivedViews:
    @pytest.mark.parametrize("build", [constant_two_source, constant_single_source])
    def test_cached_and_read_only(self, build):
        model = build()
        for view in (selected_analyzer, product_tensor, positive_weight_mask):
            assert view(model) is view(model)
            assert not view(model).flags.writeable
        names = [name for name, attr in vars(LhvModel).items()
                 if isinstance(attr, functools.cached_property)]
        assert {"analyzer", "products", "event_signs"} <= set(names)
        for name in names:
            value = getattr(model, name)
            assert getattr(model, name) is value, name
            assert all(not array.flags.writeable for array in _arrays(value)), name

    @pytest.mark.parametrize("zero1, zero4", [
        ((0,), ()), ((), (2,)), ((1,), (0,)), ((0, 2), (1,)), ((), ()),
    ])
    def test_weight_mask_matches_the_assignment_weights(self, zero1, zero4):
        rho1 = [Fraction(0) if i in zero1 else Fraction(1) for i in range(3)]
        rho4 = [Fraction(0) if i in zero4 else Fraction(1) for i in range(3)]
        model = dataclasses.replace(
            random_two_source(0, l1=3, l4=3),
            rho1=[w / sum(rho1) for w in rho1], rho4=[w / sum(rho4) for w in rho4],
        )
        want = [w > 0 for _, _, w in model.assignments()]
        assert model.weight_mask.shape == (3, 3)
        assert model.weight_mask.ravel().tolist() == want

    def test_single_source_weight_mask_is_its_one_vector(self):
        model = dataclasses.replace(
            constant_single_source(size=3),
            rho1=[Fraction(1, 2), Fraction(0), Fraction(1, 2)],
        )
        assert model.weight_mask.tolist() == [True, False, True]
        assert model.weight_mask.tolist() == [w > 0 for _, _, w in model.assignments()]

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


class TestSectorEvents:
    # the gather at every tuple of the grid against the broadcast definition:
    # firing & the per-assignment mask, aligned on the trailing hidden axes;
    # both sectors weighted wherever there are two or more assignments, and a
    # zero weight on a source of three or more
    @pytest.mark.parametrize("hidden", [(1, 1), (1, 3), (2, 2), (3, 2), (2, 4), (4, 4),
                                        (1,), (2,), (5,)], ids=str)
    def test_matches_the_broadcast_definition(self, hidden):
        rng = np.random.default_rng(sum(hidden) * 10 + len(hidden))
        n = 3 if len(hidden) == 1 else 2
        m = 2 * n
        kappa = rng.choice(np.array([-1, 1], dtype=np.int8), size=hidden)
        kappa.flat[-2:] = (1, -1)[-kappa.size:]

        def ternary(shape):
            return rng.integers(-1, 2, size=shape).astype(np.int8)

        def weights(size):
            if size < 3:
                return [Fraction(1, size)] * size
            return [Fraction(0)] + [Fraction(1, size - 1)] * (size - 1)

        model = LhvModel(
            family="two_source" if len(hidden) == 2 else "single_source", n=n,
            a=ternary((m, hidden[0])), d=ternary((m, hidden[-1])), kappa=kappa,
            f_plus=ternary((m, m) + hidden), f_minus=ternary((m, m) + hidden),
            rho1=weights(hidden[0]), rho4=weights(hidden[1]) if len(hidden) == 2 else None,
        )
        tuples = np.indices((m,) * 4).reshape(4, -1).T  # row-major
        shape = (m**4, int(np.prod(hidden)))
        for sector in (1, -1):
            products, got = _events_at(model, sector, tuples)
            assert got.dtype == bool and got.shape == shape
            assert np.array_equal(got, broadcast_events(model, sector).reshape(shape))
            assert np.array_equal(products, broadcast_products(model).reshape(shape))
            if np.prod(hidden) > 1:
                assert got.any()


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
    # model.products[phis + hidden] is the threefold outcome product
    def test_product_signs(self):
        m = constant_two_source(a=1, d=1, f=-1)
        assert m.products[0, 0, 0, 0, 0, 0] == -1

    def test_product_absorbing_zero(self):
        m = constant_two_source(a=0)
        assert m.products[1, 2, 3, 0, 0, 1] == 0

    def test_constant_factorizable_product(self):
        m = constant_two_source(a=1, d=1, f=1)
        for phis in [(0, 0, 0, 0), (1, 2, 3, 0), (3, 3, 1, 2)]:
            assert m.products[phis + (1, 1)] == 1

    def test_two_source_requires_both_indices(self):
        m = constant_two_source(l1=2, l4=3)
        assert m.products.shape == (4, 4, 4, 4, 2, 3)

    def test_single_source_shares_index(self):
        s = constant_single_source(f=-1)
        assert s.products.shape == (4, 4, 4, 4, 3)
        assert s.products[0, 1, 2, 3, 2] == -1

    def test_event_sector_flags(self):
        m = constant_two_source(kappa=-1)
        assert m.products[0, 0, 0, 0, 0, 0] == 1
        assert event_count(m, (0, 0, 0, 0), -1) == Fraction(m.n0, 2)
        assert event_count(m, (0, 0, 0, 0), 1) == 0
        silent = constant_two_source(a=0)
        assert silent.products[0, 0, 0, 0, 0, 0] == 0
        for phis in np.indices((silent.steps,) * 4).reshape(4, -1).T.tolist():
            assert event_count(silent, phis, 1) == event_count(silent, phis, -1) == 0


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

    @pytest.mark.parametrize("high", [False, True], ids=["-1", "2n"])
    def test_angle_step_outside_the_grid_is_refused(self, high):
        model = synthetic_factorizable(1, density=0.7)
        phis = (model.steps if high else -1, 0, 0, 0)
        for call in (event_count, classical_expectation):
            with pytest.raises(ValueError, match=re.escape(str(phis))):
                call(model, phis, 1)
        assert "products" not in vars(model)  # refused before any table is read

    def test_a_tuple_of_three_steps_is_refused(self):
        model = constant_two_source()
        for call in (event_count, classical_expectation):
            with pytest.raises(ValueError, match="unpack"):
                call(model, (0, 0, 0), 1)


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

    @pytest.mark.parametrize("sign", [0, 2, "x"])
    def test_analyzer_sign_outside_the_signs_is_refused(self, sign):
        model = synthetic_factorizable(1, density=0.7)
        message = f"analyzer_sign must be +1, -1 or None, got {sign!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            classical_expectation(model, (0, 0, 0, 0), analyzer_sign=sign)


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


class TestUniformModel:
    # the asymmetric shapes tell a swapped rho1 and rho4 apart
    @pytest.mark.parametrize("hidden", [(1, 3), (3, 1), (2, 2), (3,)])
    def test_matches_the_explicit_model(self, hidden):
        n, m = 2, 4
        rng = np.random.default_rng(len(hidden) * 10 + hidden[0])
        a = rng.integers(-1, 2, (m, hidden[0]))
        d = rng.integers(-1, 2, (m, hidden[-1]))
        kappa = rng.choice([-1, 1], hidden)
        analyzer = rng.integers(-1, 2, (m, m) + hidden)
        model = _uniform_model(n, a, d, kappa, analyzer)
        explicit = LhvModel(
            family="two_source" if len(hidden) == 2 else "single_source",
            n=n,
            a=a,
            d=d,
            kappa=kappa,
            f_plus=analyzer,
            f_minus=analyzer,
            rho1=[Fraction(1, hidden[0])] * hidden[0],
            rho4=[Fraction(1, hidden[1])] * hidden[1] if len(hidden) == 2 else None,
            n0=4 * n,
        )
        assert dumps(model) == dumps(explicit)
        assert model.n0 == 4 * n
        assert np.array_equal(model.f_plus, model.f_minus)


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

    @pytest.mark.parametrize("family, changes, message", [
        ("two_source", {"A": [[1], [1, 1]]}, "A: malformed table data"),
        ("two_source", {"lambda4": None, "rho4": None},
         "rho4: two_source models carry a second weight vector"),
        ("single_source", {"lambda4": 1, "rho4": ["1"]},
         "rho4: single_source models carry one shared weight vector"),
        ("single_source", {"lambda4": 3}, "lambda4: declared size 3 for a null rho4"),
        ("two_source", {"rho1": "1/1"}, "rho1: must be a list"),
    ], ids=["ragged-table", "two-source-without-rho4", "single-source-with-rho4",
            "single-source-with-lambda4", "string-rho1"])
    def test_the_model_rules_read_the_same_from_a_file(self, family, changes, message):
        model = {"two_source": constant_two_source(n=1, l1=1, l4=1),
                 "single_source": constant_single_source(n=1, size=1)}[family]
        doc = {**json.loads(dumps(model)), **changes}
        with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}"):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("field", ["n", "n0", "lambda1", "lambda4"])
    def test_boolean_is_not_an_integer(self, field):
        # JSON true would otherwise pass as the integer 1
        doc = json.loads(dumps(constant_two_source(n=1, l1=1, l4=1, n0=1)))
        doc[field] = True
        with pytest.raises(ModelFormatError, match=f"^{field}:"):
            loads(json.dumps(doc))

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

    @pytest.mark.parametrize(
        "field", ["A", "D", "kappa", "F_plus_sector", "F_minus_sector"]
    )
    @pytest.mark.parametrize(
        "value", [300, -2, 0.5, 1.0, -1.7, True, False, "1", None],
        ids=repr,
    )
    def test_table_entries_must_be_sign_integers(self, field, value):
        doc = json.loads(dumps(constant_two_source()))
        first_leaf_set(doc[field], value)
        with pytest.raises(ModelFormatError, match=f"^{field}:"):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("field", ["rho1", "rho4"])
    def test_boolean_is_not_a_weight(self, field):
        # nor is a float: 0.5 would come in as its binary expansion
        for weights in ([True, 0], [0.5, 0.5]):
            doc = json.loads(dumps(constant_two_source()))
            doc[field] = weights
            with pytest.raises(ModelFormatError,
                               match=f"^{field}\\[0\\]: not a rational number"):
                loads(json.dumps(doc))

    @pytest.mark.parametrize("value", [[1], {"p": 1}, (1, [2]), "x", "1/0", ""],
                             ids=repr)
    def test_weight_that_names_no_rational(self, value):
        # unhashable values included: no lookup may fail before the check
        with pytest.raises(ModelFormatError, match=r"^rho1\[1\]: not a rational number"):
            dataclasses.replace(constant_two_source(), rho1=["1/2", value])

    def test_repeated_weight_texts_parse_alike(self):
        doc = json.loads(dumps(constant_two_source(l1=4)))
        doc["rho1"] = ["1/4", "1/4", " 1/4", "2/8"]
        assert loads(json.dumps(doc)).rho1 == (Fraction(1, 4),) * 4
        doc["rho1"] = ["1/4", "1/4", "1/4", "1/5"]
        with pytest.raises(ModelFormatError, match="^rho1: weights must sum to exactly 1"):
            loads(json.dumps(doc))

    def test_integer_and_fraction_weights_are_accepted(self):
        doc = json.loads(dumps(constant_two_source()))
        doc["rho1"], doc["rho4"] = [1, 0], ["1/3", "2/3"]
        model = loads(json.dumps(doc))
        assert model.rho1 == (1, 0)
        assert model.rho4 == (Fraction(1, 3), Fraction(2, 3))

    @pytest.mark.parametrize(
        "model", [random_two_source(1), constant_single_source()],
        ids=["two_source", "single_source"],
    )
    def test_loads_accepts_any_layout(self, model):
        text = dumps(model)
        doc = json.loads(text)
        layouts = [
            json.dumps(doc),
            json.dumps(doc, separators=(",", ":")),
            json.dumps(doc, indent=4),
            json.dumps(dict(reversed(doc.items())), indent="\t"),
            json.dumps(doc, sort_keys=True),
        ]
        for other in layouts:
            assert other != text
            back = loads(other)
            assert dumps(back) == text
            for name in ("a", "d", "kappa", "f_plus", "f_minus"):
                assert np.array_equal(getattr(back, name), getattr(model, name))
            assert (back.rho1, back.rho4, back.n0) == (model.rho1, model.rho4, model.n0)


_TABLES = ("A", "D", "kappa", "F_plus_sector", "F_minus_sector")
_FIELDS = {"family": "family", "n": "n", "n0": "n0", "rho1": "rho1", "rho4": "rho4",
           "a": "A", "d": "D", "kappa": "kappa", "f_plus": "F_plus_sector",
           "f_minus": "F_minus_sector"}
_BASE_DOCUMENTS = tuple(dumps(model) for model in (
    constant_two_source(n=1, l1=1, l4=2), random_two_source(0, n=1, l1=2, l4=1),
    constant_single_source(n=1, size=2),
))
_BAD_LEAVES = (True, False, 0.5, 1.0, -1.0, "1", None, 300, -2, 2, 10**30, -(10**30), 2**63,
               np.int64(1), np.int8(-1), np.bool_(True), np.float64(1.0), 1, 0, -1)
_NOT_ROWS = ([], {}, {"a": 1}, {1: 0, -1: 0}, "ab", "", 1, (1, -1))


def _nested(value, depth: int):
    for _ in range(depth):
        value = [value]
    return value


@st.composite
def _mangled_document(draw):
    """A valid small document with table entries, rows or depths changed at
    random places, and perhaps a bad family, ``n``, ``n0`` or weight too."""
    doc = json.loads(draw(st.sampled_from(_BASE_DOCUMENTS)))
    for _ in range(draw(st.integers(0, 2))):
        holder, key = doc, draw(st.sampled_from(_TABLES))
        while isinstance(holder[key], list) and holder[key] and draw(st.booleans()):
            holder, key = holder[key], draw(st.integers(0, len(holder[key]) - 1))
        node = holder[key]
        change = draw(st.sampled_from(["leaf", "not_row", "deeper", "longer", "shorter"]))
        if change == "leaf":
            holder[key] = draw(st.sampled_from(_BAD_LEAVES))
        elif change == "not_row":
            holder[key] = copy.deepcopy(draw(st.sampled_from(_NOT_ROWS)))
        elif change == "deeper":
            holder[key] = _nested(node, draw(st.sampled_from([1, 2, 63, 64, 65, 70])))
        elif isinstance(node, list) and change == "longer":
            node.append(copy.deepcopy(node[-1]) if node else 1)
        elif isinstance(node, list) and node:
            node.pop()
    for field, bad in (("family", ["three_source", 1]), ("n", [0, True, "4", 2.0]),
                       ("n0", [-1, None]),
                       ("rho1", [["1/2", "x"], [True, 0], [0.5, 0.5], ["1/3", "1/3"],
                                 ["-1/2", "3/2"], [], "1", [1, 0], ["1/2", "1/2"]]),
                       ("rho4", [None, ["1"], ["2", "-1"], ["1/2", "1/2"]])):
        if draw(st.integers(0, 2)) == 0:
            doc[field] = draw(st.sampled_from(bad))
    return doc


def _outcome(build):
    """What a constructor call gives: its error's type and text, or every
    table's dtype, shape and bytes with the other fields."""
    try:
        model = build()
    except Exception as exc:  # any refusal, to compare with the oracle's
        return type(exc).__name__, str(exc)
    tables = [(t.dtype.str, t.shape, t.tobytes()) for t in
              (model.a, model.d, model.kappa, model.f_plus, model.f_minus)]
    return tables, model.family, model.n, model.n0, model.rho1, model.rho4


_ROUTE_URIS = sorted(
    {f"zoo:{name}" for name in catalog() if name != "synthetic_factorizable"}
    | set(MODELS)
    | {f"zoo:synthetic_factorizable:seed={seed},density={density},kappa={kappa}"
       for seed, density, kappa in [(1, 0.5, "plus"), (2, 1.0, "minus"), (3, 0.7, "mixed")]}
    | {"zoo:evasive_nonrobust:n=6"}
)


class TestIntake:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_mangled_document())
    @example({**json.loads(_BASE_DOCUMENTS[1]), "rho1": ["-1/2", "3/2"]})
    @example({**json.loads(_BASE_DOCUMENTS[2]), "rho1": ["1/2", "1/3"]})
    @example({**json.loads(_BASE_DOCUMENTS[0]), "rho4": ["1/2", "1/0"]})
    def test_intake_matches_the_numpy_oracle(self, doc):
        def construct():
            return LhvModel(**{name: copy.deepcopy(doc[path]) for name, path in _FIELDS.items()})

        with oracle_intake():
            want = _outcome(construct)
        assert _outcome(construct) == want
        try:
            text = json.dumps(doc)
        except TypeError:  # a numpy leaf: no document carries one
            return
        with oracle_intake():
            want = _outcome(lambda: loads(text))
        assert _outcome(lambda: loads(text)) == want

    @pytest.mark.parametrize("uri", _ROUTE_URIS)
    def test_canonical_documents_are_read_from_their_text(self, uri, monkeypatch):
        # a document as dumps or save writes it is read from its text: its
        # tables reach the intake as the canonical reader's int8 arrays, and
        # one that reaches it as a nested list has lost the canonical reader
        sign_array = model_module._sign_array

        def arrays_only(values, path, allow_zero):
            assert isinstance(values, np.ndarray), f"{path} went through json.loads"
            return sign_array(values, path, allow_zero)

        text = dumps(by_uri(uri))
        monkeypatch.setattr(model_module, "_sign_array", arrays_only)
        for document in (text, text + "\n"):
            assert _canonical_model(document) is not None
            assert dumps(loads(document)) == text

    @pytest.mark.parametrize("uri", _ROUTE_URIS)
    def test_other_layouts_take_the_general_route(self, uri, monkeypatch):
        # any other layout is declined by the canonical reader and read
        # through json.loads: each table reaches the intake as a nested list
        # and each weight vector goes through the weight cache, and the
        # model is the one its canonical text gives
        text = dumps(by_uri(uri))
        doc = json.loads(text)
        want = _read(text)
        sign_array = model_module._sign_array
        tables, vectors = [], []

        def record_table(values, path, allow_zero):
            tables.append((path, type(values)))
            return sign_array(values, path, allow_zero)

        def record_weights(values):
            vectors.append(values)
            return _parsed_weights(values)

        monkeypatch.setattr(model_module, "_sign_array", record_table)
        monkeypatch.setattr(model_module, "_parsed_weights", record_weights)
        for form in (json.dumps(doc), json.dumps(doc, indent=4),
                     json.dumps(dict(reversed(doc.items())), indent=1)):
            assert _canonical_model(form) is None
            tables.clear()
            vectors.clear()
            assert _read(form) == want
            assert tables == [(path, list) for path in
                              ("A", "D", "kappa", "F_plus_sector", "F_minus_sector")]
            assert vectors == [tuple(doc[field]) for field in ("rho1", "rho4")
                               if doc[field] is not None]
            assert None not in map(_parsed_weights, vectors)

    def test_deeply_nested_document_is_refused(self):
        for text in ('{"A": ' + "[" * 5000 + "]" * 5000 + "}", "[" * 100_000):
            with pytest.raises(ModelFormatError, match="^document: nested too deeply"):
                loads(text)

    @pytest.mark.parametrize("depth", [65, 5000])
    def test_table_past_numpy_dimensions_is_malformed(self, depth):
        deep = _nested(1, depth)
        with pytest.raises(ModelFormatError, match="^A: malformed table data: "):
            dataclasses.replace(constant_two_source(), a=deep)
        doc = json.loads(dumps(constant_two_source()))
        doc["A"] = _nested(1, 65)
        with pytest.raises(ModelFormatError, match="^A: malformed table data: "):
            loads(json.dumps(doc))


def _read(document):
    """What ``loads`` gives for a document: its error's type and text, or
    the model as :func:`_outcome` sees it with the model's dumps."""
    try:
        model = loads(document)
    except Exception as exc:  # any refusal, to compare with the general route's
        return type(exc).__name__, str(exc)
    return _outcome(lambda: model), dumps(model)


def _read_generally(document):
    """:func:`_read` with the canonical reader switched off."""
    with mock.patch.object(model_module, "_canonical_model", lambda text: None):
        return _read(document)


# both families, every leaf value among them
_READER_BASES = (dumps(random_two_source(0, n=1, l1=2, l4=1)), dumps(single_source_shift(1)))
_LEAF_TOKENS = ("01", "-0", "+1", "2", "- 1")
_NOISE = ("-", "0", "1", "2", "9", " ", "\n", "\r", ",", "[", "]", '"', ":", "e", "\xe9",
          "\u2212", "\ufeff")


def _large_grid(text: str, lambda1: str) -> str:
    """The document declaring n = 500 and ``lambda1`` over its small tables:
    a list or string there, multiplied out, would take megabytes."""
    return re.sub(r'"lambda1": \d+', lambda _: lambda1, text.replace('"n": 1,', '"n": 500,'))


def _named_mutations(text: str) -> dict[str, str]:
    """A canonical document changed in each way the reader must hand on."""
    i, j = re.compile(r"-?\d").search(text, text.index('"A"')).span()
    minus, comma = text.index("-", i), text.index(",", j)
    out = {
        "leaf byte flipped": text[:j - 1] + chr(ord(text[j - 1]) ^ 1) + text[j:],
        "comma flipped to minus": text[:comma] + "-" + text[comma + 1:],
        "minus inserted": text[:i] + "-" + text[i:],
        "minus dropped": text[:minus] + text[minus + 1:],
        "CRLF line endings": text.replace("\n", "\r\n"),
        "two trailing newlines": text + "\n\n",
        "trailing space": text + " ",
        "BOM": "\ufeff" + text,
        "non-ASCII in a table": text[:i - 1] + "\xe9" + text[i:],
        "non-ASCII minus": text[:minus] + "\u2212" + text[minus + 1:],
        "truncated": text[:len(text) // 2],
        "closing brace dropped": text[:-1],
        "lambda1 disagrees": text.replace('"lambda1": 2', '"lambda1": 3'),
        "n is true": text.replace('"n": 1,', '"n": true,'),
        "n is 10**12": text.replace('"n": 1,', f'"n": {10**12},'),
        "lambda1 is a list": _large_grid(text, '"lambda1": [1, 2]'),
        "n is a string": text.replace('"n": 1,', '"n": "1111",'),
    }
    for token in _LEAF_TOKENS:
        out[f"leaf {token!r}"] = text[:i] + token + text[j:]
    return out


_NAMED_MUTATIONS = [
    pytest.param(mutated, id=f"{json.loads(text)['family']}-{name}")
    for text in _READER_BASES for name, mutated in _named_mutations(text).items()
]


@st.composite
def _mutated_text(draw):
    """A canonical document with one to three characters, or a leaf,
    replaced, inserted or dropped at random, perhaps truncated, perhaps
    with save's trailing newline."""
    text = draw(st.sampled_from(_READER_BASES))
    for _ in range(draw(st.integers(1, 3))):
        if not text:
            break
        i = draw(st.integers(0, len(text) - 1))
        change = draw(st.sampled_from(["replace", "insert", "drop", "leaf", "truncate"]))
        if change == "replace":
            text = text[:i] + draw(st.sampled_from(_NOISE)) + text[i + 1:]
        elif change == "insert":
            text = text[:i] + draw(st.sampled_from(_NOISE)) + text[i:]
        elif change == "drop":
            text = text[:i] + text[i + 1:]
        elif change == "leaf" and re.search(r"\d", text):
            leaves = list(re.finditer(r"-?\d", text))
            leaf = leaves[i % len(leaves)]
            token = draw(st.sampled_from(_LEAF_TOKENS + ("-1", "0", "1")))
            text = text[:leaf.start()] + token + text[leaf.end():]
        elif change == "truncate":
            text = text[:i]
    return text + draw(st.sampled_from(["", "\n"]))


class TestCanonicalReader:
    """The canonical reader against the general route forced on: the same
    model, or the same refusal, for any text."""

    @pytest.mark.parametrize("text", [
        pytest.param(document, id=f"{json.loads(text)['family']}{suffix!r}")
        for text in _READER_BASES for suffix, document in (("", text), ("\n", text + "\n"))
    ])
    def test_canonical_documents_are_read_as_before(self, text):
        assert _canonical_model(text) is not None
        assert _read(text) == _read_generally(text)

    @pytest.mark.parametrize("text", _NAMED_MUTATIONS)
    def test_named_mutations_read_as_before(self, text):
        assert _read(text) == _read_generally(text)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_mutated_text())
    def test_mutated_documents_read_as_before(self, text):
        assert _read(text) == _read_generally(text)

    def test_a_huge_declared_grid_allocates_nothing(self):
        # the leaf count is checked against the declared sizes first, and
        # sizes that are not integers are not multiplied out at all
        for huge in (mutated for text in _READER_BASES for mutated in (
            text.replace('"n": 1,', f'"n": {10**12},'),
            _large_grid(text, '"lambda1": [1, 2]'), _large_grid(text, '"lambda1": "12"'),
        )):
            tracemalloc.start()
            try:
                assert _canonical_model(huge) is None
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20
            assert _read(huge)[0] == "ModelFormatError"

    @pytest.mark.parametrize("kind", [bytes, bytearray])
    def test_bytes_take_the_general_route(self, kind):
        for text in _READER_BASES:
            for document in (text, text + "\n", json.dumps(json.loads(text)), text[:-1]):
                data = kind(document.encode())
                assert _canonical_model(data) is None
                assert _read(data) == _read_generally(data)
                if document != text[:-1]:
                    assert _read(data) == _read(document)


def _typed_base():
    """A valid n = 1 2x2 model whose tables are int8 arrays."""
    return synthetic_factorizable(0, n=1, density=0.6, kappa="mixed")


def _with_entry(table, index, value):
    out = np.array(table)
    out[index] = value
    return out


def _read_only_copy(table):
    out = np.array(table)
    out.flags.writeable = False
    return out


def _typed_inputs():
    """Field replacements that reach the typed route: int8 arrays out of
    range, empty, or in unusual layouts, arrays of other dtypes, and weight
    vectors of Fractions, refused or mixed with other kinds."""
    base = _typed_base()
    cases = {}
    for name in ("a", "d", "f_plus", "f_minus", "kappa"):
        table = getattr(base, name)
        for value in (2, -2, 127, -128):
            cases[f"{name}-holds-{value}"] = {name: _with_entry(table, 0, value)}
        cases[f"{name}-empty"] = {name: np.zeros((0,) + table.shape[1:], np.int8)}
        cases[f"{name}-fortran"] = {name: np.asfortranarray(table)}
        cases[f"{name}-strided"] = {name: np.repeat(table, 2, axis=0)[::2]}
        cases[f"{name}-read-only"] = {name: _read_only_copy(table)}
        cases[f"{name}-bool"] = {name: table != 0}
        cases[f"{name}-int64"] = {name: table.astype(np.int64)}
    cases["kappa-holds-0"] = {"kappa": _with_entry(base.kappa, (1, 0), 0)}
    half, third = Fraction(1, 2), Fraction(1, 3)
    for field in ("rho1", "rho4"):
        for label, weights in (
            ("negative", (Fraction(-1, 2), Fraction(3, 2))),
            ("short-sum", (third, third)),
            ("long-sum", (half, half, half)),
            ("with-bool", (half, True)),
            ("with-false", (Fraction(1), False)),
            ("with-float", (half, 0.5)),
            ("with-int", (Fraction(1), 0)),
            ("with-text", (half, "1/2")),
            ("list", [half, half]),
        ):
            cases[f"{field}-{label}"] = {field: weights}
    return cases


def _layout(build):
    """:func:`_outcome`, with each table's memory layout and writability."""
    try:
        model = build()
    except Exception as exc:  # any refusal, to compare with the oracle's
        return type(exc).__name__, str(exc)
    flags = [(t.flags.c_contiguous, t.flags.f_contiguous, t.flags.writeable) for t in
             (model.a, model.d, model.kappa, model.f_plus, model.f_minus)]
    return _outcome(lambda: model), flags


class TestTypedIntake:
    @pytest.mark.parametrize("case", sorted(_typed_inputs()))
    def test_typed_input_is_refused_or_taken_as_by_the_old_route(self, case):
        changes = _typed_inputs()[case]

        def construct():
            return dataclasses.replace(_typed_base(), **changes)

        with oracle_intake():
            want = _layout(construct)
        assert _layout(construct) == want

    def test_fraction_vectors_are_read_through_the_weight_cache(self):
        # the base's own weight vectors are tuples of Fractions; a list of
        # the same Fractions is a key the first replace already filled
        base = _typed_base()
        dataclasses.replace(base)
        hits = model_module._parsed_weights.cache_info().hits
        copy_ = dataclasses.replace(base, rho1=list(base.rho1))
        assert model_module._parsed_weights.cache_info().hits == hits + 2
        assert dumps(copy_) == dumps(base)

    def test_the_model_never_aliases_the_callers_array(self):
        base = _typed_base()
        tables = {name: np.array(getattr(base, name)) for name in
                  ("a", "d", "kappa", "f_plus", "f_minus")}
        model = dataclasses.replace(base, **tables)
        for name, table in tables.items():
            assert not np.shares_memory(getattr(model, name), table), name
            assert table.flags.writeable, name
            before = getattr(model, name).copy()
            table *= -1
            assert np.array_equal(getattr(model, name), before), name

    def test_a_fraction_vector_and_a_bool_vector_share_no_entry(self):
        # True == Fraction(1) and both hash to 1: a vector of bools must not
        # reach the cache a vector of Fractions filled
        base = constant_single_source(n=1, size=1)
        assert dataclasses.replace(base, rho1=(Fraction(1),)).rho1 == (Fraction(1),)
        for weights in ((True,), [True], (np.bool_(True),), (1.0,)):
            with oracle_intake():
                want = _outcome(lambda: dataclasses.replace(base, rho1=weights))
            got = _outcome(lambda: dataclasses.replace(base, rho1=weights))
            assert got == want
            assert got[0] == "ModelFormatError", weights


class TestEncoder:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(model=file_models())
    def test_dumps_matches_the_indent_encoder(self, model):
        text = dumps(model)
        assert text == indent_dumps(model)
        assert dumps(loads(text)) == text

    # the catalog at its defaults, and the golden URIs (seeded synthetic ones)
    @pytest.mark.parametrize(
        "uri",
        sorted(
            {f"zoo:{name}" for name in catalog() if name != "synthetic_factorizable"}
            | set(MODELS)
        ),
    )
    def test_catalog_and_golden_models(self, uri):
        model = by_uri(uri)
        assert dumps(model) == indent_dumps(model)
