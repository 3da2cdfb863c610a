"""Consistency scan, component split, sign seeding, merging, full pipeline."""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings

from bellswap import factorizer, zoo
from bellswap.factorizer import (
    ConsistencyWitness,
    CounterexampleAlarm,
    FamilyError,
    build_components,
    check_consistency,
    factorize,
    find_dangling_support,
    merge_components,
    seed_component,
)
from bellswap.model import LhvModel, SizeLimitError, selected_analyzer
from bellswap.robustness import RobustnessReport, check_relevance
from bellswap.search import SearchSpace, _pair_double_blocks, search_two_source

from helpers import (
    assert_components_match,
    block_diagonal,
    compose_two_source,
    loop_constraints,
    looped_dangling,
    materialized_consistency,
    rebuild,
    scan_then_construct,
    tables_model,
    ternary_models,
)


def random_signs(rng, size):
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=size)


def random_mask(rng, shape, density):
    return (rng.random(shape) < density).astype(np.int8)


def random_compose(seed, n=2, size1=2, size4=3, density=1.0):
    """Factorizable model with random generator signs and random detection."""
    rng = np.random.default_rng(seed)
    return compose_two_source(
        n=n,
        a=random_signs(rng, 2 * n),
        u=random_signs(rng, size1),
        v=random_signs(rng, size4),
        kappa=random_signs(rng, (size1, size4)),
        delta_a=random_mask(rng, (2 * n, size1), density),
        delta_d=random_mask(rng, (2 * n, size4), density),
        delta_f=random_mask(rng, (2 * n, 2 * n, size1, size4), density),
    )


def cells_model(a_cells, d_cells, f_cells, size1=2, size4=2, n=2):
    """Model whose three tables hold exactly the listed nonzero cells."""
    m = 2 * n
    a = np.zeros((m, size1), dtype=np.int8)
    d = np.zeros((m, size4), dtype=np.int8)
    f = np.zeros((m, m, size1, size4), dtype=np.int8)
    for table, cells in ((a, a_cells), (d, d_cells), (f, f_cells)):
        for index, sign in cells.items():
            table[index] = sign
    return tables_model(a, d, f, n=n)


def single_source_fixture():
    m, size = 4, 2
    ones = np.ones((m, size), dtype=np.int8)
    return LhvModel(
        family="single_source",
        n=2,
        a=ones.copy(),
        d=ones.copy(),
        kappa=np.ones(size, dtype=np.int8),
        f_plus=np.ones((m, m, size), dtype=np.int8),
        f_minus=np.ones((m, m, size), dtype=np.int8),
        rho1=[Fraction(1, size)] * size,
        rho4=None,
    )


class TestCheckConsistency:
    @pytest.mark.parametrize("seed", range(10))
    def test_factorized_models_pass(self, seed):
        model = random_compose(seed, density=0.5 + 0.05 * seed)
        assert check_consistency(model) is None

    def test_rejects_single_source(self):
        with pytest.raises(FamilyError):
            check_consistency(single_source_fixture())

    def test_cross_station_violation(self):
        a = np.ones((4, 1), dtype=np.int8)
        d = np.ones((4, 1), dtype=np.int8)
        d[1, 0] = -1
        f = np.ones((4, 4, 1, 1), dtype=np.int8)
        witness = check_consistency(tables_model(a, d, f))
        assert witness == ConsistencyWitness(
            "cross_station_rectangle",
            {"alpha": 0, "beta": 1, "lam1": 0, "lam4": 0},
            -1,
        )

    def test_first_station_rectangle_violation(self):
        a = np.ones((4, 2), dtype=np.int8)
        a[1, 1] = -1
        d = np.zeros((4, 2), dtype=np.int8)  # keeps the cross relation vacuous
        f = np.ones((4, 4, 2, 2), dtype=np.int8)
        witness = check_consistency(tables_model(a, d, f))
        assert witness.relation == "first_station_rectangle"
        assert witness.indices == {"alpha": 0, "beta": 1, "lam1": 0, "lam1_alt": 1}

    def test_last_station_rectangle_violation(self):
        a = np.zeros((4, 2), dtype=np.int8)
        d = np.ones((4, 2), dtype=np.int8)
        d[2, 0] = -1
        f = np.ones((4, 4, 2, 2), dtype=np.int8)
        witness = check_consistency(tables_model(a, d, f))
        assert witness.relation == "last_station_rectangle"
        assert witness.indices == {"alpha": 0, "beta": 2, "lam4": 0, "lam4_alt": 1}

    def test_analyzer_symmetry_violation(self):
        a = np.zeros((4, 1), dtype=np.int8)
        d = np.zeros((4, 1), dtype=np.int8)
        f = np.ones((4, 4, 1, 1), dtype=np.int8)
        f[1, 0, 0, 0] = -1
        witness = check_consistency(tables_model(a, d, f))
        assert witness.relation == "analyzer_symmetry"
        assert witness.indices == {"alpha": 0, "beta": 1, "lam1": 0, "lam4": 0}

    def test_analyzer_triple_violation(self):
        # symmetric in the angles but not a product over the hidden pair
        a = np.zeros((4, 2), dtype=np.int8)
        d = np.zeros((4, 2), dtype=np.int8)
        f = np.ones((4, 4, 2, 2), dtype=np.int8)
        f[:, :, 1, 1] = -1
        witness = check_consistency(tables_model(a, d, f))
        assert witness.relation == "analyzer_triple"
        assert witness.indices["lam1"] != witness.indices["lam1_alt"]

    def test_flipped_analyzer_cell_detected(self):
        model = random_compose(3, density=1.0)
        f = model.f_plus.copy()
        f[0, 0, 0, 0] = -f[0, 0, 0, 0]
        broken = rebuild(model, f_plus=f, f_minus=f)
        witness = check_consistency(broken)
        assert witness is not None
        assert witness.relation.startswith("analyzer")


    # minimal fixtures (silent stations, four analyzer cells) whose first
    # failing relation is the named one; witness indices as the
    # materialized scan reports them
    @pytest.mark.parametrize("relation, cells, indices", [
        ("analyzer_pair_shift",
         {(0, 1, 0, 0): -1, (0, 1, 1, 0): 1, (0, 2, 0, 1): -1, (0, 2, 1, 1): -1},
         (0, 1, 2, 0, 0, 1, 0, 1)),
        ("analyzer_diagonal",
         {(2, 0, 0, 1): 1, (2, 0, 1, 0): -1, (3, 3, 0, 1): 1, (3, 3, 1, 0): 1},
         (2, 0, 3, 3, 0, 1, 1, 0)),
    ])
    def test_relation_fixture_witness(self, relation, cells, indices):
        model = cells_model({}, {}, cells)
        keys = ("alpha", "beta", "gamma", "delta",
                "lam1", "lam1_alt", "lam4", "lam4_alt")
        witness = ConsistencyWitness(relation, dict(zip(keys, indices)), -1)
        assert check_consistency(model) == witness

    def test_an_oversized_counted_row_is_refused_before_allocating(self, monkeypatch):
        # at n=4 with 4x4 hidden values the row and its mask take 2 MiB
        monkeypatch.setattr("bellswap.model.MAX_TABLE_BYTES", 2**20)
        cells = {(0, 1, 0, 0): -1, (0, 1, 1, 0): 1, (0, 2, 0, 1): -1, (0, 2, 1, 1): -1}
        model = cells_model({}, {}, cells, size1=4, size4=4, n=4)
        with pytest.raises(SizeLimitError,
                           match="analyzer_pair_shift row of a 8x8x4x4 analyzer"
                                 " table would take an estimated 2 MiB"):
            check_consistency(model)
        consistent = {index: 1 for index in cells}
        assert check_consistency(cells_model({}, {}, consistent, size1=4, size4=4, n=4)) \
            is None

    def test_only_a_relation_with_a_minus_one_is_materialized(self, monkeypatch):
        # an einsum is named by its output, so a count is a full sum (""):
        # the diagonal, each 4-index row, then only an 8-index row with a -1
        calls = []
        einsum = np.einsum

        def einsum_spy(subscripts, *operands, **kwargs):
            calls.append(subscripts.split("->")[1])
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", einsum_spy)
        located = ["ikl", "abpr", "abpq", "abrs", "abpr"]
        assert check_consistency(random_compose(3)) is None
        assert calls == located + [""] * 6  # two sums per 8-index row
        calls.clear()
        cells = {(0, 1, 0, 0): -1, (0, 1, 1, 0): 1, (0, 2, 0, 1): -1, (0, 2, 1, 1): -1}
        model = cells_model({}, {}, cells)
        assert check_consistency(model).relation == "analyzer_pair_shift"
        assert calls == located + [""] * 4 + ["abcdpqrs"]

    def test_relations_run_in_the_oracle_order(self):
        # the order ``materialized_consistency`` scans; a model that breaks
        # several relations reports the first of them
        assert [row[0] for row in factorizer._RELATIONS] == [
            "cross_station_rectangle", "first_station_rectangle",
            "last_station_rectangle", "analyzer_symmetry", "analyzer_triple",
            "analyzer_pair_shift", "analyzer_diagonal",
        ]

    @settings(max_examples=150, deadline=None)
    @given(model=ternary_models())
    def test_witness_matches_materialized_scan(self, model):
        assert check_consistency(model) == materialized_consistency(model)

    def test_census_survivor_sample_matches_materialized_scan(self):
        # every 4,096th robust 2x2 census survivor, and the first of each
        # sector map; the ones that pass the located rows need a count
        sample, found = [], 0
        for _, _, tally, hits_of, build in _pair_double_blocks(
                SearchSpace(family="two_source", denominator=4, size1=2, size4=2)):
            total = int(tally[-1])
            picks = set(range(-found % 4096, total, 4096))
            if total:
                picks.add(0)
            for k in sorted(picks):
                i = int(np.searchsorted(tally, k, side="right"))
                sample.append(build(i, hits_of(i)[k - (tally[i - 1] if i else 0)]))
            found += total
        assert found == 409_648 and len(sample) == 107
        relations = []
        for model in sample:
            witness = check_consistency(model)
            assert witness is not None and witness == materialized_consistency(model)
            relations.append(witness.relation)
        assert relations.count("analyzer_triple") == 11


class TestDanglingSupport:
    def test_full_detection_has_none(self):
        assert find_dangling_support(random_compose(0)) is None

    def test_first_station_dangle(self):
        # analyzer support only over lam4=0, last station silent there
        delta_f = np.zeros((4, 4, 1, 2), dtype=np.int8)
        delta_f[:, :, :, 0] = 1
        delta_d = np.ones((4, 2), dtype=np.int8)
        delta_d[:, 0] = 0
        model = compose_two_source(
            n=2, u=(1,), v=(1, 1), delta_f=delta_f, delta_d=delta_d
        )
        assert find_dangling_support(model) == {"side": 1, "angle": 0, "hidden": 0}

    def test_last_station_dangle(self):
        # lam4=1 fires at the last station but the analyzer never pairs it
        delta_f = np.zeros((4, 4, 1, 2), dtype=np.int8)
        delta_f[:, :, :, 0] = 1
        model = compose_two_source(n=2, u=(1,), v=(1, 1), delta_f=delta_f)
        assert find_dangling_support(model) == {"side": 4, "angle": 0, "hidden": 1}

    def test_rejects_single_source(self):
        with pytest.raises(FamilyError):
            find_dangling_support(single_source_fixture())

    @settings(max_examples=150, deadline=None)
    @given(model=ternary_models())
    def test_relevant_models_have_no_dangling_support(self, model):
        # a relevant lam1 fires with some lam4 at all three devices, so that
        # lam4 has analyzer and last-station support (and symmetrically)
        # (about a fifth of these draws are relevant)
        if check_relevance(model) is None:
            assert find_dangling_support(model) is None

    @settings(max_examples=150, deadline=None)
    @given(model=ternary_models())
    # both stations dangle: the analyzer pairs only hidden values 0 and 0,
    # and the first station's answer comes first
    @example(model=cells_model({(0, 0): 1, (2, 1): 1}, {(0, 0): 1, (1, 1): 1},
                               {(0, 0, 0, 0): 1}))
    def test_matches_looped_oracle(self, model):
        assert find_dangling_support(model) == looped_dangling(model)


class TestBuildComponents:
    def test_full_detection_single_component(self):
        model = random_compose(1, n=2, size1=2, size4=3, density=1.0)
        components = build_components(model)
        assert len(components) == 1
        comp = components[0]
        assert comp.angles == tuple(range(4))
        assert comp.first_hidden == (0, 1)
        assert comp.last_hidden == (0, 1, 2)
        assert comp.anchor == ("a", 0)

    def test_block_diagonal_two_components(self):
        model = block_diagonal([1, 1, 1, 1])
        components = build_components(model)
        assert len(components) == 2
        assert components[0].angles == (0, 1)
        assert components[0].first_hidden == (0,)
        assert components[0].last_hidden == (0,)
        assert components[1].angles == (2, 3)
        assert components[1].anchor == ("a", 2)

    def test_unsupported_hidden_is_singleton(self):
        delta = np.ones((4, 2), dtype=np.int8)
        delta[:, 1] = 0
        delta_f = np.ones((4, 4, 2, 1), dtype=np.int8)
        delta_f[:, :, 1, :] = 0
        model = compose_two_source(
            n=2, u=(1, -1), v=(1,), delta_a=delta, delta_f=delta_f
        )
        components = build_components(model)
        assert len(components) == 2
        assert components[1].angles == ()
        assert components[1].first_hidden == (1,)
        assert components[1].anchor == ("u", 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reachability_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        m, size1, size4 = 4, 3, 2
        a = rng.integers(-1, 2, size=(m, size1)).astype(np.int8)
        d = rng.integers(-1, 2, size=(m, size4)).astype(np.int8)
        f = rng.integers(-1, 2, size=(m, m, size1, size4)).astype(np.int8)
        model = tables_model(a, d, f)

        # plain breadth-first search over nodes linked by nonzero cells
        nodes = m + size1 + size4
        edges = {node: set() for node in range(nodes)}

        def link(group):
            for x in group:
                for y in group:
                    if x != y:
                        edges[x].add(y)

        for k, l1 in np.argwhere(a != 0):
            link((k, m + l1))
        for k, l4 in np.argwhere(d != 0):
            link((k, m + size1 + l4))
        for k2, k3, l1, l4 in np.argwhere(f != 0):
            link((k2, k3, m + l1, m + size1 + l4))
        seen, count = set(), 0
        for start in range(nodes):
            if start in seen:
                continue
            count += 1
            stack = [start]
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(edges[node] - seen)
        assert len(build_components(model)) == count

    @settings(max_examples=150, deadline=None)
    @given(model=ternary_models())
    def test_matches_loop_and_union_find_oracles(self, model):
        constraints = loop_constraints(model)
        built = factorizer._build_constraints(model)
        assert [(c.vars, c.bit, c.kind, c.where) for c in built] == constraints
        assert_components_match(model, constraints)

    def test_rejects_single_source(self):
        with pytest.raises(FamilyError):
            build_components(single_source_fixture())


def recover(model):
    """Seed every component and merge; returns the factorization."""
    components = build_components(model)
    assignments = tuple(seed_component(model, c) for c in components)
    return merge_components(model, assignments)


def assert_products_exact(model, fact):
    a, u, v = fact.a, fact.u, fact.v
    support = model.a != 0
    assert np.array_equal(model.a[support], (a[:, None] * u[None, :])[support])
    support = model.d != 0
    assert np.array_equal(model.d[support], (a[:, None] * v[None, :])[support])
    f = selected_analyzer(model)
    want = (a[:, None, None, None] * a[None, :, None, None]
            * u[None, None, :, None] * v[None, None, None, :])
    support = f != 0
    assert np.array_equal(f[support], want[support])


class TestSeedComponent:
    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_up_to_component_flip(self, seed):
        density = 0.4 + 0.03 * seed
        rng = np.random.default_rng(seed)
        gen_a = random_signs(rng, 4)
        gen_u = random_signs(rng, 2)
        gen_v = random_signs(rng, 3)
        model = compose_two_source(
            n=2, a=gen_a, u=gen_u, v=gen_v,
            kappa=random_signs(rng, (2, 3)),
            delta_a=random_mask(rng, (4, 2), density),
            delta_d=random_mask(rng, (4, 3), density),
            delta_f=random_mask(rng, (4, 4, 2, 3), density),
        )
        for component in build_components(model):
            asg = seed_component(model, component)
            got = np.array(
                [asg.a[k] for k in component.angles]
                + [asg.u[i] for i in component.first_hidden]
                + [asg.v[j] for j in component.last_hidden]
            )
            want = np.array(
                [gen_a[k] for k in component.angles]
                + [gen_u[i] for i in component.first_hidden]
                + [gen_v[j] for j in component.last_hidden]
            )
            assert np.array_equal(got, want) or np.array_equal(got, -want)

    def test_single_analyzer_cell_component(self):
        f = np.zeros((4, 4, 1, 1), dtype=np.int8)
        f[0, 1, 0, 0] = -1
        model = tables_model(
            np.zeros((4, 1), dtype=np.int8), np.zeros((4, 1), dtype=np.int8), f
        )
        components = build_components(model)
        comp = components[0]
        assert comp.angles == (0, 1)
        asg = seed_component(model, comp)
        assert asg.a[0] * asg.a[1] * asg.u[0] * asg.v[0] == -1
        assert asg.eliminated > 0

    @settings(max_examples=200, deadline=None)
    @given(model=ternary_models())
    # propagation completes the analyzer cell at angles (0,0) and finds it
    # violated; the cell at (1,2) would leave two signs to elimination
    @example(model=cells_model({(0, 0): 1}, {(0, 0): 1},
                               {(0, 0, 0, 0): -1, (1, 2, 0, 0): 1},
                               size1=1, size4=1))
    def test_elimination_starts_from_checked_cells(self, model):
        """Every cell whose signs are all known when elimination starts holds.

        Unit propagation checks each cell once it is complete, so elimination
        never meets a violated fully assigned cell and need not look for one.
        """
        original = factorizer._eliminate

        def checked(model, constraints, assignment, leftovers, trace):
            for c in constraints:
                if all(var in assignment for var in c.vars):
                    parity = c.bit
                    for var in c.vars:
                        parity ^= assignment[var]
                    assert parity == 0, f"{c.kind} ({c.where})"
            return original(model, constraints, assignment, leftovers, trace)

        with mock.patch.object(factorizer, "_eliminate", checked):
            for component in build_components(model):
                try:
                    seed_component(model, component)
                except CounterexampleAlarm:
                    pass

    def test_counterfactual_cell_assigned(self):
        # the silent first-station cell still gets the generator's product
        rng = np.random.default_rng(7)
        gen_a = random_signs(rng, 4)
        gen_u = random_signs(rng, 2)
        delta_a = np.ones((4, 2), dtype=np.int8)
        delta_a[1, 1] = 0
        model = compose_two_source(n=2, a=gen_a, u=gen_u, v=(1, 1),
                                   delta_a=delta_a)
        (component,) = build_components(model)
        asg = seed_component(model, component)
        assert asg.a[1] * asg.u[1] == gen_a[1] * gen_u[1]

    def test_contradiction_raises_alarm(self):
        a = np.ones((4, 1), dtype=np.int8)
        d = np.ones((4, 1), dtype=np.int8)
        f = -np.ones((4, 4, 1, 1), dtype=np.int8)
        model = tables_model(a, d, f)
        (component,) = build_components(model)
        with pytest.raises(CounterexampleAlarm):
            seed_component(model, component)

    def test_trace_starts_with_seed(self):
        model = random_compose(2, density=1.0)
        (component,) = build_components(model)
        asg = seed_component(model, component)
        assert asg.trace[0].kind == "seed"
        assert asg.trace[0].target == component.anchor
        assert all(step.kind in {"seed", "unit", "elimination"}
                   for step in asg.trace)


class TestAlarmTexts:
    """CounterexampleAlarm messages, pinned word for word."""

    def first_alarm(self, model):
        with pytest.raises(CounterexampleAlarm) as caught:
            for component in build_components(model):
                seed_component(model, component)
        return str(caught.value)

    def test_seed_conflict_text(self):
        model = tables_model(np.ones((4, 1), dtype=np.int8),
                             np.ones((4, 1), dtype=np.int8),
                             -np.ones((4, 4, 1, 1), dtype=np.int8))
        assert self.first_alarm(model) == (
            "conflicting sign chain at analyzer_cell (analyzer angles (0,0),"
            " hidden (0,0)): the cell disagrees with the values already forced"
        )

    @pytest.mark.parametrize("a_cells, d_cells, f_cells, where", [
        ({(0, 0): 1, (0, 1): 1, (1, 0): -1, (1, 1): 1,
          (2, 0): 1, (2, 1): 1, (3, 0): -1, (3, 1): 1},
         {(1, 0): -1, (2, 1): -1},
         {(0, 2, 0, 1): -1, (0, 3, 0, 0): 1, (1, 1, 0, 0): -1},
         "first_station_cell (first station angle 1, hidden 1)"),
        ({},
         {(0, 0): 1, (0, 1): 1, (1, 0): -1, (1, 1): -1,
          (2, 0): -1, (2, 1): 1, (3, 0): -1, (3, 1): 1},
         {},
         "last_station_cell (last station angle 2, hidden 1)"),
        ({(3, 0): -1},
         {(0, 0): -1, (1, 1): -1, (2, 1): -1, (3, 1): 1},
         {(0, 1, 1, 0): 1, (0, 2, 0, 0): -1, (0, 3, 0, 1): -1, (1, 1, 1, 0): 1,
          (2, 0, 0, 1): -1, (2, 0, 1, 1): -1, (2, 3, 0, 1): -1, (3, 2, 1, 0): 1},
         "first_station_bridge (analyzer (2,3) with last station 3"
         " over hidden (0,1))"),
        ({(1, 0): -1, (1, 1): -1},
         {(0, 0): 1, (2, 0): -1},
         {(0, 2, 1, 0): -1, (1, 2, 0, 1): -1, (2, 0, 1, 0): -1, (2, 2, 1, 1): 1,
          (2, 3, 1, 0): 1, (3, 0, 0, 0): -1, (3, 0, 0, 1): -1, (3, 1, 0, 1): 1,
          (3, 1, 1, 1): -1},
         "last_station_bridge (analyzer (1,2) with first station 1"
         " over hidden (0,1))"),
        ({(0, 0): -1, (1, 0): -1, (1, 1): -1, (2, 0): 1, (3, 0): 1},
         {(0, 0): 1, (0, 1): 1, (1, 1): -1, (3, 0): 1, (3, 1): 1},
         {(0, 1, 1, 1): -1, (2, 0, 0, 0): 1, (3, 3, 0, 0): -1},
         "first_station_fill (rectangle through angles (1,0) and hidden (0,1))"),
        ({(1, 0): -1, (1, 1): -1},
         {(0, 1): -1, (1, 0): 1, (1, 1): 1, (2, 0): -1, (3, 0): -1, (3, 1): 1},
         {(0, 2, 0, 1): -1, (1, 0, 1, 0): -1, (1, 3, 1, 1): 1, (2, 3, 1, 1): 1,
          (3, 3, 1, 0): 1},
         "last_station_fill (rectangle through angles (1,0) and hidden (1,0))"),
    ])
    def test_seed_conflict_text_per_kind(self, a_cells, d_cells, f_cells, where):
        model = cells_model(a_cells, d_cells, f_cells)
        assert self.first_alarm(model) == (
            f"conflicting sign chain at {where}:"
            " the cell disagrees with the values already forced"
        )

    def test_elimination_conflict_text(self):
        # two cells over the same four signs demand opposite parities; no
        # single unknown is ever isolated, so elimination finds the clash
        model = cells_model({}, {}, {(0, 1, 0, 0): 1, (1, 0, 0, 0): -1},
                            size1=1, size4=1)
        assert self.first_alarm(model) == (
            "sign subsystem is unsatisfiable after elimination"
        )

    def test_merge_conflict_text(self):
        model = block_diagonal([1, 1, 1, -1])
        components = build_components(model)
        assignments = tuple(seed_component(model, c) for c in components)
        with pytest.raises(CounterexampleAlarm) as caught:
            merge_components(model, assignments)
        assert str(caught.value) == (
            "block sign cannot satisfy all correlated tuples that mix it with"
            " aligned blocks (block 1)"
        )


class TestMergeComponents:
    def test_single_component_reference_frame(self):
        model = random_compose(4, density=1.0)
        fact = recover(model)
        assert fact.merged == (True,)
        assert_products_exact(model, fact)

    def test_two_blocks_aligned(self):
        model = block_diagonal([1, 1, -1, -1], u=(1, -1), v=(-1, 1))
        fact = recover(model)
        assert fact.merged == (True, True)
        assert_products_exact(model, fact)
        # blocks with constant generator signs align to one global frame
        assert fact.a[0] * fact.a[2] == 1

    def test_mis_seeded_component_flipped_once(self):
        model = block_diagonal([1, 1, 1, 1])
        components = build_components(model)
        assignments = [seed_component(model, c) for c in components]
        reference = merge_components(model, tuple(assignments))
        bad = assignments[1]
        flipped = type(bad)(
            component=bad.component,
            a={k: -s for k, s in bad.a.items()},
            u={k: -s for k, s in bad.u.items()},
            v={k: -s for k, s in bad.v.items()},
            trace=bad.trace,
            eliminated=bad.eliminated,
        )
        fact = merge_components(model, (assignments[0], flipped))
        flips = [step for step in fact.trace if step.kind == "flip"]
        assert len(flips) == 1
        assert np.array_equal(fact.a, reference.a)
        assert np.array_equal(fact.u, reference.u)
        assert np.array_equal(fact.v, reference.v)

    def test_conflicting_block_signs_alarm(self):
        # generator signs vary inside the second block, so different mixing
        # tuples demand different flips and no single choice works
        model = block_diagonal([1, 1, 1, -1])
        components = build_components(model)
        assignments = tuple(seed_component(model, c) for c in components)
        with pytest.raises(CounterexampleAlarm):
            merge_components(model, assignments)

    def test_hidden_only_component_stays_unmerged(self):
        delta = np.ones((4, 2), dtype=np.int8)
        delta[:, 1] = 0
        delta_f = np.ones((4, 4, 2, 1), dtype=np.int8)
        delta_f[:, :, 1, :] = 0
        model = compose_two_source(
            n=2, u=(1, -1), v=(1,), delta_a=delta, delta_f=delta_f
        )
        fact = recover(model)
        assert fact.merged == (True, False)
        assert fact.u[1] == 1  # unconstrained sign keeps the seed default
        assert_products_exact(model, fact)


class TestFactorize:
    def test_constraints_built_once_per_factorize(self, monkeypatch):
        # waive the gate so the two-block fixture reaches seed and merge
        monkeypatch.setattr(
            factorizer, "is_robust",
            lambda model, minus_row: RobustnessReport(None, None, None),
        )
        calls = []
        build = factorizer._build_constraints
        monkeypatch.setattr(
            factorizer, "_build_constraints",
            lambda model: calls.append(model) or build(model),
        )
        model = block_diagonal([1, 1, -1, -1], u=(1, -1), v=(-1, 1))
        result = factorize(model)
        assert result.status == "ok"
        assert len(result.factorization.components) == 2
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_full_detection(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = 4
        base = 1 if seed % 2 else -1
        step = 1 if seed % 3 else -1  # constant or alternating angle signs
        gen_a = np.array([base * step**k for k in range(2 * n)], dtype=np.int8)
        gen_u = random_signs(rng, 2)
        gen_v = random_signs(rng, 2)
        model = compose_two_source(
            n=n, a=gen_a, u=gen_u, v=gen_v,
            kappa=random_signs(rng, (2, 2)),
        )
        result = factorize(model)
        assert result.status == "ok"
        fact = result.factorization
        assert_products_exact(model, fact)
        got = np.concatenate([fact.a, fact.u, fact.v])
        want = np.concatenate([gen_a, gen_u, gen_v])
        assert np.array_equal(got, want) or np.array_equal(got, -want)
        assert fact.merged == (True,)

    def test_not_robust_correlation(self):
        gen_a = np.ones(8, dtype=np.int8)
        gen_a[3] = -1  # not a geometric sign progression
        model = compose_two_source(n=4, a=gen_a, u=(1, 1), v=(1, 1))
        result = factorize(model)
        assert result.status == "not_robust"
        assert result.robustness.correlation_witness is not None

    def test_not_robust_counts(self):
        delta_f = np.zeros((8, 8, 1, 1), dtype=np.int8)
        delta_f[0, 0, 0, 0] = 1
        model = compose_two_source(n=4, u=(1,), v=(1,), delta_f=delta_f)
        result = factorize(model)
        assert result.status == "not_robust"
        assert result.robustness.counts_witness is not None

    def test_rejects_single_source(self):
        with pytest.raises(FamilyError):
            factorize(single_source_fixture())

    def test_deterministic(self):
        model = compose_two_source(n=4, u=(1, -1), v=(-1, 1))
        first = factorize(model)
        second = factorize(model)
        assert np.array_equal(first.factorization.a, second.factorization.a)
        assert np.array_equal(first.factorization.u, second.factorization.u)
        assert np.array_equal(first.factorization.v, second.factorization.v)
        assert first.factorization.trace == second.factorization.trace

    def test_silent_cell_partner_products_constant(self):
        # wherever the first station is silent but analyzer+partner fire,
        # that product is the same for every completion and matches a*u
        rng = np.random.default_rng(11)
        gen_a = np.ones(8, dtype=np.int8)
        gen_u = random_signs(rng, 2)
        gen_v = random_signs(rng, 2)
        delta_a = np.ones((8, 2), dtype=np.int8)
        delta_a[2, 1] = 0
        model = compose_two_source(n=4, a=gen_a, u=gen_u, v=gen_v,
                                   delta_a=delta_a)
        result = factorize(model)
        assert result.status == "ok"
        fact = result.factorization
        f = selected_analyzer(model)
        products = {
            int(f[2, beta, 1, l4] * model.d[beta, l4])
            for beta in range(8)
            for l4 in range(2)
            if f[2, beta, 1, l4] and model.d[beta, l4]
        }
        assert products == {int(fact.a[2] * fact.u[1])}


def waived_gate(model, minus_row):
    """``is_robust`` waived: every model reaches the scan and construction."""
    return RobustnessReport(None, None, None)


def outcome(pipeline, model):
    """A factorize pipeline's answer: the alarm's text, or status, witness,
    robustness report and signs with their blocks and trace."""
    try:
        result = pipeline(model)
    except CounterexampleAlarm as alarm:
        return "alarm", str(alarm)
    fact = result.factorization
    signs = fact and (fact.a.tolist(), fact.u.tolist(), fact.v.tolist(),
                      fact.components, fact.merged, fact.trace)
    return result.status, result.witness, result.robustness, signs


def assert_same_as_scan_first(model):
    """``factorize`` answers as the whole scan before the construction did;
    returns its answer. An ok model passes the public scan."""
    got = outcome(factorize, model)
    assert got == outcome(scan_then_construct, model)
    if got[0] == "ok":
        assert check_consistency(model) is None
    return got


def diagonal_flipped():
    """A factorizable model with one diagonal analyzer cell flipped: only
    the counted rows see it, since the symmetry row squares that cell."""
    model = random_compose(3, density=1.0)
    f = model.f_plus.copy()
    f[1, 1, 0, 2] *= -1
    return rebuild(model, f_plus=f, f_minus=f)


def census_survivors():
    """Robust 2x2 census survivors whose inconsistency only a counted row
    shows: the 99th and 100th kept from cursor 1,000,000."""
    space = SearchSpace(family="two_source", denominator=4, size1=2, size4=2,
                        cursor=1_000_000)
    return search_two_source(space, stop_after=100, keep_limit=100).robust_found[98:]


class TestFactorizeOrder:
    """The located rows, the construction, then the counted rows only if the
    construction raises: the same answers as the whole scan first."""

    @pytest.mark.parametrize("kappa", ["plus", "minus", "mixed"])
    @pytest.mark.parametrize("density", [0.4, 0.7, 1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_synthetic_models(self, monkeypatch, seed, density, kappa):
        model = zoo.synthetic_factorizable(seed, density=density, kappa=kappa)
        assert assert_same_as_scan_first(model)[0] == "ok"
        # one live analyzer cell and its mirror flipped, past a waived gate
        f = model.f_plus.copy()
        k2, k3, l4 = np.argwhere(f[:, :, 1] != 0)[seed]
        f[[k2, k3], [k3, k2], 1, l4] *= -1
        monkeypatch.setattr(factorizer, "is_robust", waived_gate)
        assert assert_same_as_scan_first(rebuild(model, f_plus=f, f_minus=f))[0] != "ok"

    @pytest.mark.parametrize("signs, status", [
        ([1, 1, -1, -1], "ok"),
        ([1, 1, 1, -1], "alarm"),  # the merge alarm stands: every relation holds
    ])
    def test_block_diagonal(self, monkeypatch, signs, status):
        monkeypatch.setattr(factorizer, "is_robust", waived_gate)
        model = block_diagonal(signs, u=(1, -1), v=(-1, 1))
        assert assert_same_as_scan_first(model)[0] == status

    @pytest.mark.parametrize("build", [
        lambda: cells_model({}, {}, {(0, 1, 0, 0): -1, (0, 1, 1, 0): 1,
                                     (0, 2, 0, 1): -1, (0, 2, 1, 1): -1}),
        diagonal_flipped,
    ], ids=["analyzer_pair_shift", "diagonal_flipped"])
    def test_only_a_counted_row_fails(self, monkeypatch, build):
        monkeypatch.setattr(factorizer, "is_robust", waived_gate)
        model = build()
        assert factorizer._located_witness(factorizer._scan_tables(model)) is None
        status, witness, _, _ = assert_same_as_scan_first(model)
        assert status == "consistency_violated"
        assert witness == check_consistency(model)
        assert witness.relation in {row[0] for row in factorizer._COUNTED}

    def test_census_survivors_refuted_only_by_a_counted_row(self, monkeypatch):
        # robust as they stand: the construction raises, then the triple
        # relation names the witness
        built = []
        build = factorizer.build_components
        monkeypatch.setattr(factorizer, "build_components",
                            lambda model: built.append(model) or build(model))
        survivors = census_survivors()
        assert len(survivors) == 2
        for model in survivors:
            status, witness, _, _ = assert_same_as_scan_first(model)
            assert (status, witness.relation) == ("consistency_violated", "analyzer_triple")
        assert len(built) == 4  # once per model by each pipeline

    @settings(max_examples=150, deadline=None)
    @given(model=ternary_models())
    def test_matches_scan_first_past_a_waived_gate(self, model):
        with mock.patch.object(factorizer, "is_robust", waived_gate):
            assert_same_as_scan_first(model)

    @pytest.mark.parametrize("model", [
        zoo.synthetic_factorizable(seed, n=n, density=density, kappa=kappa)
        for seed, n, density, kappa in ((1, 4, 1.0, "plus"), (2, 4, 0.5, "mixed"),
                                        (3, 6, 0.7, "minus"))
    ] + [block_diagonal([1, 1, -1, -1], u=(1, -1), v=(-1, 1))],
        ids=["n4", "n4_mixed", "n6", "block_diagonal"])
    def test_a_factorizable_model_never_counts(self, monkeypatch, model):
        monkeypatch.setattr(factorizer, "is_robust", waived_gate)

        def unreachable(*args):
            raise AssertionError("a counted row was scanned")

        monkeypatch.setattr(factorizer, "_counted_witness", unreachable)
        assert factorize(model).status == "ok"

    @pytest.mark.parametrize("build", [zoo.parity_split_robust, zoo.both_sector_robust])
    def test_a_located_witness_builds_nothing(self, monkeypatch, build):
        def unreachable(model):
            raise AssertionError("the construction ran")

        monkeypatch.setattr(factorizer, "build_components", unreachable)
        result = factorize(build(4))
        assert result.status == "consistency_violated"
        assert result.witness.relation in {row[0] for row in factorizer._LOCATED}
