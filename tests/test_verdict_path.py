"""The per-model verdict path against the code it replaced.

Each rewrite of the path has an oracle in ``helpers``: the eagerly built
product-rule events, unit propagation that rescans every cell, the
per-cell constraint loops with their union-find block split, the high-bit
elimination, the multi-axis reductions of the robustness gate, and the
per-assignment loops that counted events and averaged outcomes. Property
tests compare the two on random models; the rest pins the trace checks
``replay`` makes and the size guards that refuse oversized inputs before
allocating.
"""

from __future__ import annotations

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from bellswap import factorizer, model as model_module, search, verdict
from bellswap.angles import RationalAngle, correlation_index, sign_table
from bellswap.cli import run as cli_run
from bellswap.factorizer import (
    CounterexampleAlarm,
    build_components,
    check_consistency,
    factorize,
    merge_components,
    seed_component,
)
from bellswap.model import (
    MAX_TABLE_BYTES,
    LhvModel,
    SizeLimitError,
    _products_at,
    classical_expectation,
    dumps,
    event_count,
)
from bellswap.quantum import expectation_singlet
from bellswap.robustness import (
    check_counts_nonempty,
    check_perfect_correlations,
    check_relevance,
    is_robust,
)
from bellswap.zoo import by_uri, catalog, synthetic_factorizable

from helpers import (
    assert_components_match,
    block_diagonal,
    broadcast_products,
    compose_two_source,
    eager_product_rule,
    float_gap,
    high_bit_eliminate,
    loop_constraints,
    looped_expectation,
    multi_axis_correlations,
    multi_axis_counts,
    multi_axis_event_signs,
    multi_axis_relevance,
    oracle_count,
    queue_seed_component,
    rebuild,
    tables_model,
    ternary_models,
)
from test_golden import MODELS
from test_verdict import ALTERNATING_8

PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
SEED_PROPERTY = settings(PROPERTY, max_examples=120)


@st.composite
def synthetic_models(draw):
    """``synthetic_factorizable`` draws shaped like the benchmark batch."""
    return synthetic_factorizable(
        draw(st.integers(0, 2**16)),
        n=draw(st.sampled_from([2, 4, 6])),
        size1=draw(st.integers(1, 3)),
        size4=draw(st.integers(1, 3)),
        density=draw(st.sampled_from([0.4, 0.7, 1.0])),
        kappa=draw(st.sampled_from(["plus", "minus", "mixed"])),
    )


def _weights(draw, size):
    """Exact weights summing to 1, some of them zero."""
    raw = [draw(st.integers(0, 3)) for _ in range(size)]
    if not any(raw):
        raw[draw(st.integers(0, size - 1))] = 1
    return [Fraction(w, sum(raw)) for w in raw]


@st.composite
def gate_models(draw):
    """Random ternary tables of either family, mixed kappa, zero weights.

    One or two hidden values per side in half the draws, so the gate's
    reductions meet L1 = 1 and L4 = 1 shapes often.
    """
    family = draw(st.sampled_from(["two_source", "single_source"]))
    n = draw(st.sampled_from([2, 4]))
    m = 2 * n
    size1 = draw(st.integers(1, 3))
    size4 = draw(st.integers(1, 3))
    density = draw(st.floats(0.1, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def ternary(shape):
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=shape)
        return (signs * (rng.random(shape) < density)).astype(np.int8)

    hidden = (size1, size4) if family == "two_source" else (size1,)
    kappa = rng.choice(np.array([-1, 1], dtype=np.int8), size=hidden)
    return LhvModel(
        family=family,
        n=n,
        a=ternary((m, size1)),
        d=ternary((m, hidden[-1])),
        kappa=kappa,
        f_plus=ternary((m, m) + hidden),
        f_minus=ternary((m, m) + hidden),
        rho1=_weights(draw, size1),
        rho4=_weights(draw, size4) if family == "two_source" else None,
    )


def _outcome(call, *args):
    """A call's result, or the text of the CounterexampleAlarm it raised."""
    try:
        return call(*args)
    except CounterexampleAlarm as exc:
        return f"alarm: {exc}"


def _factorization(model):
    result = factorize(model)
    assert result.status == "ok"
    return result.factorization


# ---------------------------------------------------------------------------
# unit propagation: the int-table walk against per-pop rescans


def _assert_seeds_match(model):
    alarms = 0
    for component in build_components(model):
        got = _outcome(seed_component, model, component)
        want = _outcome(queue_seed_component, model, component)
        assert got == want
        alarms += isinstance(want, str)
    return alarms


def _second_forcing_row_conflicts():
    """A block whose alarm comes from a row forced complete mid-batch.

    Analyzer cells (0,0) and (1,1) at hidden (0,1) both force v1, with
    opposite parities, ahead of the bridge over analyzer (2,1), which is
    already complete and odd when their batch is popped: the alarm names
    cell (1,1), the row the walk reaches first.
    """
    d = np.zeros((4, 2), dtype=np.int8)
    d[[0, 1, 2], [0, 1, 0]] = -1, 1, 1
    f = np.zeros((4, 4, 1, 2), dtype=np.int8)
    f[[0, 0, 1, 2], [0, 1, 1, 1], 0, 1] = -1, -1, 1, -1
    return tables_model(np.zeros((4, 1), dtype=np.int8), d, f)


@SEED_PROPERTY
@given(model=ternary_models())
@example(model=_second_forcing_row_conflicts())
def test_seed_component_matches_rescanning_propagation(model):
    _assert_seeds_match(model)


@SEED_PROPERTY
@given(model=synthetic_models())
def test_seed_component_matches_on_factorizable_models(model):
    assert _assert_seeds_match(model) == 0


def test_seed_component_alarm_texts_match_on_conflicting_tables():
    # flipped analyzer cells in a product-form model: propagation meets a
    # cell whose parity disagrees with the signs already forced
    alarms = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        model = synthetic_factorizable(seed, n=2, density=0.7, kappa="mixed")
        f = model.f_plus.copy()
        live = np.argwhere(f != 0)
        for k2, k3, l1, l4 in live[rng.permutation(len(live))[:2]]:
            f[k2, k3, l1, l4] *= -1
        alarms += _assert_seeds_match(rebuild(model, f_plus=f, f_minus=f))
    assert alarms >= 10


# ---------------------------------------------------------------------------
# the factorizer on arrays: constraint rows in one int table, propagation
# that queues only forcing rows


@PROPERTY
@given(model=ternary_models())
def test_components_match_the_tuple_build_on_sparse_tables(model):
    assert_components_match(model, loop_constraints(model))


@PROPERTY
@given(model=synthetic_models())
def test_components_match_the_tuple_build_on_factorizable_models(model):
    assert_components_match(model, loop_constraints(model))


def test_conflict_seen_only_at_a_complete_row_raises():
    # anchor a0: the station cells (a0, u0) and (a0, v0) force u0 = v0 = +1
    # and (a1, u0) forces a1; the analyzer cell (u0, v0) demands u0 v0 = -1
    # but never forces, since its last unknown is settled by another row.
    # Nothing is left to eliminate, so only the check of complete rows can
    # see the conflict.
    stations = np.array([[1], [1], [0], [0]], dtype=np.int8)
    f = np.zeros((4, 4, 1, 1), dtype=np.int8)
    f[0, 0, 0, 0] = -1
    model = tables_model(stations, stations.copy(), f)
    component = build_components(model)[0]
    assert component.angles == (0, 1)
    text = (
        "alarm: conflicting sign chain at analyzer_cell (analyzer angles (0,0),"
        " hidden (0,0)): the cell disagrees with the values already forced"
    )
    assert _outcome(seed_component, model, component) == text
    assert _outcome(queue_seed_component, model, component) == text


def test_where_text_is_built_only_for_forcing_rows(monkeypatch):
    built = []
    row_constraint = factorizer._row_constraint
    monkeypatch.setattr(factorizer, "_row_constraint",
                        lambda row: built.append(row) or row_constraint(row))
    model = synthetic_factorizable(7, n=4, size1=2, size4=2)
    (component,) = build_components(model)
    assert built == [] and len(component.constraints) > 100
    asg = seed_component(model, component)
    assert asg.eliminated == 0
    assert len(built) == sum(step.kind == "unit" for step in asg.trace)


def test_merge_scans_correlated_tuples_only_across_blocks(monkeypatch):
    calls = []
    table = factorizer.sign_table
    monkeypatch.setattr(factorizer, "sign_table",
                        lambda n, sector: calls.append((n, sector)) or table(n, sector))
    lone = synthetic_factorizable(7)
    blocks = tuple(seed_component(lone, c) for c in build_components(lone))
    assert merge_components(lone, blocks).merged == (True,)
    assert calls == []
    model = block_diagonal([1, 1, -1, -1], u=(1, -1), v=(-1, 1))
    blocks = tuple(seed_component(model, c) for c in build_components(model))
    assert merge_components(model, blocks).merged == (True, True)
    assert calls == [(2, 1)]


# ---------------------------------------------------------------------------
# elimination on the shared GF(2) solver


@st.composite
def leftover_systems(draw):
    """Parity rows over the 12 signs of a 2x2 model at n = 4.

    Some signs are assigned, as propagation leaves them, and every row they
    complete is even. The rows agree with one planted solution, except that
    in half the draws some rows with a leftover sign get their bit flipped,
    which often makes the system contradict itself.
    """
    planted = draw(st.lists(st.integers(0, 1), min_size=12, max_size=12))
    assigned = draw(st.sets(st.integers(0, 11), max_size=8))
    assignment = {var: planted[var] for var in sorted(assigned)}
    noisy = draw(st.booleans())
    constraints = []
    for held, flip in draw(st.lists(st.tuples(
            st.sets(st.integers(0, 11), min_size=1, max_size=4), st.booleans()),
            max_size=14)):
        bit = sum(planted[var] for var in held) % 2
        if noisy and flip and not held <= assigned:
            bit ^= 1
        constraints.append(factorizer._Constraint(
            tuple(sorted(held)), bit, "analyzer_cell", (0, 0, 0, 0)))
    leftovers = sorted(set(range(12)) - assigned)
    return constraints, assignment, leftovers


def _elimination_outcome(eliminate, model, constraints, assignment, leftovers):
    assignment, trace = dict(assignment), []
    try:
        count = eliminate(model, constraints, assignment, leftovers, trace)
    except CounterexampleAlarm as alarm:
        return str(alarm)
    return count, assignment, trace


@settings(max_examples=300, deadline=None)
@given(system=leftover_systems())
def test_elimination_matches_the_high_bit_oracle(system):
    model = synthetic_factorizable(0, n=4, size1=2, size4=2)  # names 12 signs
    got = _elimination_outcome(factorizer._eliminate, model, *system)
    assert got == _elimination_outcome(high_bit_eliminate, model, *system)


# ---------------------------------------------------------------------------
# product-rule events: kept as arrays, rendered on first read


@PROPERTY
@given(model=synthetic_models())
def test_rendered_events_equal_the_eager_dict(model):
    fact = _factorization(model)
    rule = verdict.derive_product_rule(fact, model)
    sectors, verified, events = eager_product_rule(fact, model)
    assert (rule.sectors, rule.verified) == (sectors, verified)
    assert "events" not in vars(rule)
    assert list(rule.events.items()) == list(events.items())
    assert all(type(i) is int for key in rule.events for i in key)
    keys = list(events)[::37]
    for sector in rule.sectors:
        tuples = [key[1:] for key in keys if key[0] == sector]
        assert rule._lookup(sector, tuples) == [events[(sector,) + t] for t in tuples]


@PROPERTY
@given(model=synthetic_models(), flip=st.integers(0, 11))
def test_product_rule_alarm_texts_match_the_eager_stage(model, flip):
    fact = _factorization(model)
    a = fact.a.copy()
    a[flip % model.steps] *= -1
    tampered = dataclasses.replace(fact, a=a)
    got = _outcome(verdict.derive_product_rule, tampered, model)
    want = _outcome(eager_product_rule, tampered, model)
    assert isinstance(want, str) and got == want


def test_silent_tuple_alarm_matches_the_eager_stage():
    model = synthetic_factorizable(2, n=4, density=0.7, kappa="mixed")
    fact = _factorization(model)
    f = model.f_plus.copy()
    f[:, 3] = 0  # no event at any tuple whose analyzer angles end in 3
    silenced = rebuild(model, f_plus=f, f_minus=f)
    got = _outcome(verdict.derive_product_rule, fact, silenced)
    assert got == _outcome(eager_product_rule, fact, silenced)
    assert "has no weighted event" in got


def test_event_lookup_misses_where_the_dict_has_no_entry():
    model = synthetic_factorizable(1, density=0.7)
    rule = verdict.derive_product_rule(_factorization(model), model)
    # (0, 0, 0, 2) is anticorrelated, so neither form records an event
    assert rule._lookup(1, [(0, 0, 0, 2), (0, 0, 0, 0)]) == [None, (0, 0)]
    with pytest.raises(KeyError):
        rule.events[(1, 0, 0, 0, 2)]
    assert rule.events[(1, 0, 0, 0, 0)] == (0, 0)


def test_constant_stage_raises_key_error_for_a_missing_event():
    model = synthetic_factorizable(1, density=0.7)
    fact = _factorization(model)
    rule = verdict.derive_product_rule(fact, model)
    first_midpoint = (0, 1, 2, 1)  # alpha 0, gamma 2 in sector +1
    f = model.f_plus.copy()
    f[1, 2] = 0  # no event at any tuple whose analyzer angles are (1, 2)
    forged = dataclasses.replace(rule, model=rebuild(model, f_plus=f, f_minus=f))
    with pytest.raises(KeyError) as caught:
        verdict.derive_constant_a(fact, model, forged)
    assert caught.value.args == ((1,) + first_midpoint,)


@PROPERTY
@given(model=synthetic_models())
def test_max_discrepancy_equals_the_float_gap_table(model):
    report = verdict.predict_E_class(_factorization(model), model)
    assert report.max_discrepancy == float_gap(model)


def test_max_discrepancy_matches_the_gap_table_on_minus_one_expectations():
    model = compose_two_source(a=ALTERNATING_8)
    report = verdict.predict_E_class(_factorization(model), model)
    assert not report.all_plus_one
    assert report.max_discrepancy == float_gap(model) == 2.0


def test_run_and_replay_never_build_the_events_dict():
    model = synthetic_factorizable(5, n=6, density=0.7, kappa="mixed")
    result = verdict.run(model)
    assert result.kind == "inconsistent"
    assert verdict.replay(result.trace, model)
    rule = result.trace.rule
    assert "events" not in vars(rule)
    _, _, events = eager_product_rule(_factorization(model), model)
    assert rule.events == events
    assert vars(rule)["events"] is rule.events


def test_rule_equality_and_repr_see_the_events():
    model = synthetic_factorizable(3, density=0.4)
    fact = _factorization(model)
    first = verdict.derive_product_rule(fact, model)
    second = verdict.derive_product_rule(fact, model)
    assert first == second
    assert "events=" in repr(first)
    assert [f.name for f in dataclasses.fields(first) if f.compare] == [
        "sectors", "verified", "events",
    ]


# ---------------------------------------------------------------------------
# the product tensor, the robustness gate and the expectation table: long
# inner loops and fast hidden-axis reductions


def _gate_matches(model):
    assert np.array_equal(model.products, broadcast_products(model))
    m = model.steps
    for phis in ((0, 0, 0, 0), (1, 2, 3, 0), (m - 1, 0, m - 1, 1)):
        for sector in (1, -1):
            assert event_count(model, phis, sector) == oracle_count(
                model, phis, sector)
            for sign in (-1, 1, None):
                assert (classical_expectation(model, phis, sector, sign)
                        == looped_expectation(model, phis, sector, sign))
    assert check_relevance(model) == multi_axis_relevance(model)
    for both in (False, True):
        assert check_counts_nonempty(model, both) == multi_axis_counts(model, both)
    for minus_row in (False, True):
        assert (check_perfect_correlations(model, minus_row)
                == multi_axis_correlations(model, minus_row))
    assert tuple(model.event_signs) == model.sectors
    for sector, got in model.event_signs.items():
        want = multi_axis_event_signs(model, sector)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("uri", sorted(
    {f"zoo:{name}" for name in catalog() if name != "synthetic_factorizable"}
    | set(MODELS)))
def test_relevance_matches_multi_axis_on_every_zoo_model(uri):
    model = by_uri(uri)
    assert check_relevance(model) == multi_axis_relevance(model)


@PROPERTY
@given(model=gate_models())
def test_gate_witnesses_match_multi_axis_reductions(model):
    _gate_matches(model)


@PROPERTY
@given(model=ternary_models())
def test_gate_witnesses_match_on_sparse_tables(model):
    _gate_matches(model)


@PROPERTY
@given(model=synthetic_models())
def test_gate_witnesses_match_on_factorizable_models(model):
    _gate_matches(model)


@pytest.mark.parametrize("uri", [
    "zoo:single_source_shift",
    "zoo:single_source_efficient_50",
    "zoo:padded_irrelevant",
    "zoo:evasive_nonrobust",
])
def test_gate_witnesses_match_on_zoo_models(uri):
    _gate_matches(by_uri(uri))


@pytest.mark.parametrize("uri", [
    "zoo:single_source_shift",
    "zoo:padded_irrelevant",
    "zoo:synthetic_factorizable:seed=4,n=3,size1=2,size4=3,kappa=mixed",
])
def test_products_gathered_at_tuples_are_the_product_tensor_rows(uri):
    model = by_uri(uri)
    tuples = np.argwhere(np.ones((model.steps,) * 4, dtype=bool))
    want = broadcast_products(model).reshape(len(tuples), -1)
    assert np.array_equal(_products_at(model, tuples), want)


# ---------------------------------------------------------------------------
# replay checks the trace's sectors


@pytest.fixture(scope="module")
def mixed_run():
    model = synthetic_factorizable(5, density=0.7, kappa="mixed")
    result = verdict.run(model)
    assert result.kind == "inconsistent"
    return model, result.trace


def test_replay_rejects_an_emptied_expectation(mixed_run):
    model, trace = mixed_run
    emptied = dataclasses.replace(
        trace,
        expectation=dataclasses.replace(trace.expectation, sectors=(), e_class={}),
    )
    with pytest.raises(verdict.ReplayError, match="expectation covers sectors"):
        verdict.replay(emptied, model)


def test_replay_rejects_a_dropped_expectation_sector(mixed_run):
    model, trace = mixed_run
    assert trace.expectation.sectors == (1, -1)
    dropped = dataclasses.replace(
        trace, expectation=dataclasses.replace(trace.expectation, sectors=(1,))
    )
    with pytest.raises(verdict.ReplayError, match="expectation covers sectors"):
        verdict.replay(dropped, model)


def test_replay_rejects_a_missing_expectation_table(mixed_run):
    model, trace = mixed_run
    tables = {1: trace.expectation.e_class[1]}
    forged = dataclasses.replace(
        trace, expectation=dataclasses.replace(trace.expectation, e_class=tables)
    )
    with pytest.raises(verdict.ReplayError, match="does not replay"):
        verdict.replay(forged, model)


@pytest.mark.parametrize("stage", ["trace", "constant", "clash"])
def test_replay_rejects_disagreeing_stage_sectors(mixed_run, stage):
    model, trace = mixed_run
    other = -trace.sector
    if stage == "trace":
        forged = dataclasses.replace(trace, sector=other)
    else:
        part = dataclasses.replace(getattr(trace, stage), sector=other)
        forged = dataclasses.replace(trace, **{stage: part})
    with pytest.raises(verdict.ReplayError, match="disagree on the sector"):
        verdict.replay(forged, model)


def _forged_first_midpoint(trace, **changes):
    constant = trace.constant
    step = dataclasses.replace(constant.midpoint_steps[0], **changes)
    return dataclasses.replace(trace, constant=dataclasses.replace(
        constant, midpoint_steps=(step,) + constant.midpoint_steps[1:]))


def _wrapped_midpoint_event(model, trace):
    l1, l4 = trace.constant.midpoint_steps[0].event
    return _forged_first_midpoint(trace, event=(l1 - model.size1, l4 - model.size4))


def _wrapped_midpoint_phis(model, trace):
    p1, *rest = trace.constant.midpoint_steps[0].phis
    return _forged_first_midpoint(trace, phis=(p1 - model.steps, *rest))


def _wrapped_clash_event(model, trace):
    l1, l4 = trace.clash.event
    return dataclasses.replace(
        trace, clash=dataclasses.replace(trace.clash, event=(l1 - model.size1, l4)))


def _overflowing_midpoint_event(model, trace):
    l1, l4 = trace.constant.midpoint_steps[0].event
    return _forged_first_midpoint(trace, event=(l1 + model.size1, l4))


# a negative index would wrap onto a valid cell and replay True; one past the
# end would surface as numpy's IndexError rather than a ReplayError
@pytest.mark.parametrize("forge, match", [
    (_wrapped_midpoint_event, r"cited event \(-\d+, -\d+\) at .* outside the hidden"),
    (_wrapped_midpoint_phis, r"\(-\d+, .*\) has an angle step outside \[0, 8\)"),
    (_wrapped_clash_event, r"cited event \(-\d+, \d+\) at .* outside the hidden"),
    (_overflowing_midpoint_event, r"cited event \(\d+, \d+\) at .* outside the hidden"),
])
def test_replay_rejects_indices_outside_the_tables(forge, match):
    model = synthetic_factorizable(1, density=0.7)
    result = verdict.run(model)
    assert verdict.replay(result.trace, model)
    with pytest.raises(verdict.ReplayError, match=match):
        verdict.replay(forge(model, result.trace), model)


# ---------------------------------------------------------------------------
# size guards: estimate first, refuse before allocating


def _huge_model(n=40, size=8):
    m = 2 * n
    ones = np.ones((m, size), dtype=np.int8)
    table = np.ones((m, m, size, size), dtype=np.int8)
    return LhvModel(
        family="two_source", n=n, a=ones, d=ones,
        kappa=np.ones((size, size), dtype=np.int8),
        f_plus=table, f_minus=table,
        rho1=[Fraction(1, size)] * size, rho4=[Fraction(1, size)] * size,
    )


def test_tensor_estimate_counts_every_product_entry():
    model = synthetic_factorizable(0, n=6, size1=3, size4=2)
    assert model.tensor_bytes == 12**4 * 3 * 2 * 8
    assert model.tensor_bytes >= 8 * model.products.size
    single = by_uri("zoo:single_source_shift")
    assert single.tensor_bytes == single.steps**4 * single.size1 * 8


def _assert_refused_before_allocating(build, label, *calls):
    """Every call raises SizeLimitError naming the model, within 4 MiB."""
    tracemalloc.start()
    try:
        model = build()
        assert model.tensor_bytes > MAX_TABLE_BYTES
        for call in (lambda m: m.products, is_robust,
                     lambda m: event_count(m, (0, 0, 0, 0), 1),
                     lambda m: classical_expectation(m, (0, 0, 0, 0)), *calls):
            with pytest.raises(SizeLimitError) as caught:
                call(model)
            assert label in str(caught.value)
            assert f"{model.tensor_bytes / 2**20:,.0f} MiB" in str(caught.value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_oversized_model_is_refused_before_allocating():
    _assert_refused_before_allocating(
        _huge_model, "n=40 model with 8x8 hidden values", verdict.run)
    assert issubclass(SizeLimitError, ValueError)


def test_oversized_single_source_model_is_refused_before_allocating():
    def build(n=40, size=2):
        m = 2 * n
        ones = np.ones((m, size), dtype=np.int8)
        table = np.ones((m, m, size), dtype=np.int8)
        return LhvModel(
            family="single_source", n=n, a=ones, d=ones,
            kappa=np.ones(size, dtype=np.int8), f_plus=table, f_minus=table,
            rho1=[Fraction(1, size)] * size, rho4=None,
        )

    _assert_refused_before_allocating(build, "n=40 model with 2 hidden values")


def test_counts_check_is_refused_before_allocating():
    _assert_refused_before_allocating(
        _huge_model, "n=40 model with 8x8 hidden values", check_counts_nonempty,
        lambda m: check_perfect_correlations(m, minus_row=False))


def test_robustness_gate_peaks_below_one_product_tensor():
    """The gate reads per-sector masks and gathers its witness's products at
    one tuple: one int8 product tensor of this model would take 256 KiB."""
    is_robust(synthetic_factorizable(0, n=2, size1=1, size4=1))
    model = synthetic_factorizable(0, n=4, size1=8, size4=8)
    tracemalloc.start()
    try:
        is_robust(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < model.steps**4 * model.kappa.size


def test_no_stage_builds_the_product_tensor(monkeypatch):
    prop = vars(LhvModel)["products"]
    builds = []
    build = prop.func
    monkeypatch.setattr(prop, "func", lambda model: builds.append(model) or build(model))
    models = [by_uri(uri) for uri in (
        "zoo:synthetic_factorizable:seed=5,density=0.7,kappa=mixed",
        "zoo:evasive_nonrobust", "zoo:single_source_shift")]
    # a zero weight: the correlation law then reads kappa's own masks
    models.append(rebuild(models[0], rho1=[Fraction(1), Fraction(0)]))
    kinds = set()
    for model in models:
        for minus_row in (False, True):
            is_robust(model, minus_row=minus_row)
        event_count(model, (0, 1, 2, 3), 1)
        classical_expectation(model, (0, 1, 2, 3), 1, None)
        if model.family == "two_source":
            result = verdict.run(model)
            kinds.add(result.kind)
            if result.kind == "inconsistent":
                assert verdict.replay(result.trace, model)
    assert kinds >= {"inconsistent", "not_robust"}
    assert builds == []


def test_correlation_kernel_runs_once_per_zero_weight_model(monkeypatch):
    """The law's kappa masks are read once per model, cached beside the
    weighted ones: the gate then the verdict's second gate add no call."""
    calls = []
    kernel = model_module._event_kernel

    def counted(model, masks):
        calls.append(len(masks))
        return kernel(model, masks)

    monkeypatch.setattr(model_module, "_event_kernel", counted)
    base = by_uri("zoo:synthetic_factorizable:seed=5,density=0.7,kappa=mixed")
    model = rebuild(base, rho1=[Fraction(1), Fraction(0)])
    assert not model.weight_mask.all()
    for minus_row in (False, True):
        witness = check_perfect_correlations(model, minus_row=minus_row)
        assert witness == multi_axis_correlations(model, minus_row=minus_row)
    is_robust(model)
    verdict.run(model)
    assert calls == [2, 2]
    assert model.law_signs is model.law_signs


def test_first_count_and_expectation_gather_only_their_tuple():
    """With the product tensor built, neither call builds a whole-grid mask:
    each gathers its one tuple, a few KiB in all, where one whole-grid mask
    of this model takes 4 MiB."""
    model = synthetic_factorizable(0, n=16, size1=2, size4=2)
    model.products
    for call in (event_count, classical_expectation):
        tracemalloc.start()
        try:
            call(model, (1, 2, 3, 4), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, call.__name__


def test_oversized_model_file_is_a_usage_error(tmp_path, capsys):
    model = _huge_model(n=24, size=4)
    assert model.tensor_bytes > MAX_TABLE_BYTES
    path = tmp_path / "huge.json"
    path.write_text(dumps(model))
    assert cli_run(["check", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert "n=24 model with 4x4 hidden values" in err and "MiB" in err


def test_single_source_scan_estimate_and_refusal():
    assert verdict._contradiction_bytes(4) == 4 * 8**4 + 192 * 8**3 + 2**16
    assert verdict._contradiction_bytes(3) == 4 * 6**4 + 192 * 6**3 + 2**16
    assert verdict._contradiction_bytes(48) <= MAX_TABLE_BYTES
    tracemalloc.start()
    try:
        for n in (49, 50):
            with pytest.raises(SizeLimitError, match=f"pi/{n} grid.*MiB"):
                verdict.single_source_contradiction(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", [2, 4, 8])
def test_single_source_estimate_bounds_the_measured_peak(n):
    verdict.single_source_contradiction(2)  # numpy's lazy imports, once
    sign_table.cache_clear()
    tracemalloc.start()
    try:
        verdict.single_source_contradiction(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= verdict._contradiction_bytes(n)


def test_single_source_refutation_keeps_no_table_alive():
    # once first: numpy's lazy imports, and Python's free lists filled with
    # as many small objects as the call needs
    verdict.single_source_contradiction(8)
    sign_table.cache_clear()
    tracemalloc.start()
    try:
        verdict.single_source_contradiction(8)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held == 0
    assert sign_table.cache_info().currsize == 0


@pytest.mark.parametrize("n, size1, size4", [(16, 1, 1), (20, 1, 1), (8, 2, 2)])
def test_verdict_estimate_bounds_the_measured_peak(n, size1, size4):
    verdict.run(synthetic_factorizable(0, n=2, size1=1, size4=1))
    model = synthetic_factorizable(0, n=n, size1=size1, size4=size4, kappa="mixed")
    sign_table.cache_clear()
    verdict._singlet_table.cache_clear()
    tracemalloc.start()
    try:
        result = verdict.run(model)
        assert verdict.replay(result.trace, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= verdict._verdict_bytes(model)


@pytest.mark.parametrize("sector", [1, -1])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_singlet_table_matches_pointwise(n, sector):
    table = verdict._singlet_table(n, sector)
    assert table.shape == (2 * n,) * 4 and not table.flags.writeable
    for k in itertools.product(range(2 * n), repeat=4):
        zeta = RationalAngle(correlation_index(*k, sector, n), n)
        assert table[k] == expectation_singlet(zeta)


GRID_CACHES = (sign_table, search._demand_bits, verdict._singlet_table,
               verdict._cited_tuples)


def test_grid_caches_keep_the_last_two_grids():
    verdict.run(synthetic_factorizable(0, n=2, size1=1, size4=1))
    for cache in GRID_CACHES:
        cache.cache_clear()
    tracemalloc.start()
    try:
        for n in (8, 10, 12, 14):
            for kappa in ("plus", "minus"):
                model = synthetic_factorizable(0, n=n, size1=1, size4=1, kappa=kappa)
                result = verdict.run(model)
                assert verdict.replay(result.trace, model)
                search.forced_analyzer(model.a, model.d, model.kappa, n)
                del model, result
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(cache.cache_info().currsize <= 4 for cache in GRID_CACHES)
    # per grid and sector: the int8 sign table, the float64 singlet table
    # and the three bit layers over k3; 256 KiB covers the small caches.
    # Unbounded caches would hold all four grids, 3.3 MiB more.
    last_two = sum(2 * (9 * m**4 + 3 * m**3 * -(-m // 8)) for m in (24, 28))
    assert held <= last_two + 2**18


def test_robustness_gate_keeps_within_the_tensor_estimate():
    # one hidden value per source: the float32 event-sign sums, taken whole,
    # would need 14 bytes an entry against the estimate's 8
    model = synthetic_factorizable(0, n=16, size1=1, size4=1, kappa="mixed")
    sign_table(16, 1), sign_table(16, -1)
    tracemalloc.start()
    try:
        assert is_robust(model, minus_row=False).is_robust
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= model.tensor_bytes


def test_verdict_refuses_a_small_hidden_count_before_allocating():
    # the product tensor alone would pass; its singlet and expectation
    # tables would not
    assert verdict._verdict_bytes(_huge_model(n=32, size=1)) <= MAX_TABLE_BYTES
    tracemalloc.start()
    try:
        model = _huge_model(n=33, size=1)
        assert model.tensor_bytes <= MAX_TABLE_BYTES
        with pytest.raises(SizeLimitError,
                           match="verdict on an n=33 model with 1x1 hidden values"):
            verdict.run(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_consistency_counts_build_no_eight_index_row():
    # the 8-index row of this model would take (32 * 32 * 4 * 4) ** 2 bytes,
    # 256 MiB; its counts keep within the size of the largest operand
    model = synthetic_factorizable(0, n=16, size1=4, size4=4, density=0.6)
    model.analyzer  # the model's own cached table, outside the measurement
    tracemalloc.start()
    try:
        assert check_consistency(model) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_every_catalog_and_golden_model_is_under_the_limit():
    uris = [f"zoo:{name}" for name in catalog() if name != "synthetic_factorizable"]
    for uri in uris + list(MODELS):
        assert by_uri(uri).tensor_bytes <= MAX_TABLE_BYTES, uri
    assert verdict._contradiction_bytes(4) <= MAX_TABLE_BYTES
    # the largest batch shapes the benchmark draws
    for n, size in ((4, 4), (6, 2)):
        assert synthetic_factorizable(0, n=n, size1=size, size4=size).tensor_bytes \
            <= MAX_TABLE_BYTES
