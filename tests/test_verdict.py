"""Derivation pipeline: product rule, sign structure, clash, replay."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from bellswap import verdict
from bellswap.angles import GridError, sign_table
from bellswap.factorizer import (
    CounterexampleAlarm,
    Factorization,
    FamilyError,
    factorize,
)
from bellswap.model import LhvModel, product_tensor
from bellswap.robustness import is_robust
from helpers import (
    both_sector_model,
    compose_two_source,
    parity_split_model,
    rebuild,
    signature_scan_contradiction,
)

ALTERNATING_8 = [1, -1, 1, -1, 1, -1, 1, -1]


def factored(model):
    result = factorize(model)
    assert result.status == "ok"
    return result.factorization


def tampered_a(fact, flip):
    a = fact.a.copy()
    a[flip] = -a[flip]
    return Factorization(
        a=a, u=fact.u, v=fact.v,
        components=fact.components, merged=fact.merged, trace=fact.trace,
    )


def single_source_fixture(n=2, size=2):
    m = 2 * n
    ones2 = np.ones((m, size), dtype=np.int8)
    return LhvModel(
        family="single_source",
        n=n,
        a=ones2,
        d=ones2,
        kappa=np.ones(size, dtype=np.int8),
        f_plus=np.ones((m, m, size), dtype=np.int8),
        f_minus=np.ones((m, m, size), dtype=np.int8),
        rho1=[Fraction(1, size)] * size,
        rho4=None,
        n0=4,
    )


class TestDeriveProductRule:
    def test_counts_every_correlated_tuple(self):
        model = compose_two_source()
        rule = verdict.derive_product_rule(factored(model), model)
        assert rule.sectors == (1, -1)
        # 2n**3 correlated tuples per free triple times two index classes
        assert rule.verified == {1: 1024, -1: 1024}

    def test_identity_tuple_has_event(self):
        model = compose_two_source()
        rule = verdict.derive_product_rule(factored(model), model)
        assert (1, 0, 0, 0, 0) in rule.events
        assert (-1, 0, 0, 0, 0) in rule.events

    @pytest.mark.parametrize("alpha,beta", [(0, 0), (3, 1), (5, 7), (2, 6)])
    def test_closed_difference_instances_present(self, alpha, beta):
        # tuples of the shape (alpha-beta, alpha, beta, 0) are correlated
        model = compose_two_source()
        rule = verdict.derive_product_rule(factored(model), model)
        phis = ((alpha - beta) % 8, alpha, beta, 0)
        assert sign_table(4, 1)[phis] == 1
        assert (1,) + phis in rule.events

    def test_cited_events_have_raw_product_plus_one(self):
        model = compose_two_source()
        rule = verdict.derive_product_rule(factored(model), model)
        products = product_tensor(model)
        for (sector, *phis), (l1, l4) in list(rule.events.items())[::97]:
            assert model.kappa[l1, l4] == sector
            assert products[tuple(phis) + (l1, l4)] == 1

    def test_two_instances_compose(self):
        # chaining (k+1,k,0,1) and (k+2,k+1,0,1) pins a(k+2)*a(k) = +1
        model = compose_two_source(a=ALTERNATING_8)
        fact = factored(model)
        rule = verdict.derive_product_rule(fact, model)
        for k in range(6):
            first = fact.a[[k + 1, k, 0, 1]].prod()
            second = fact.a[[k + 2, k + 1, 0, 1]].prod()
            assert first == 1 and second == 1
            assert (1, k + 1, k, 0, 1) in rule.events
            assert fact.a[k + 2] * fact.a[k] == first * second

    def test_eventless_correlated_tuple_alarms(self):
        model = compose_two_source()
        fact = factored(model)
        dead_f = model.f_plus.copy()
        dead_f[0, 0] = 0
        broken = rebuild(model, f_plus=dead_f, f_minus=dead_f)
        with pytest.raises(CounterexampleAlarm, match="no.*weighted event"):
            verdict.derive_product_rule(fact, broken)

    def test_bad_angle_signs_alarm(self):
        model = compose_two_source()
        with pytest.raises(CounterexampleAlarm, match="multiply to -1"):
            verdict.derive_product_rule(tampered_a(factored(model), 0), model)

    def test_rejects_single_source(self):
        model = compose_two_source()
        with pytest.raises(FamilyError):
            verdict.derive_product_rule(factored(model), single_source_fixture())


class TestDeriveConstantA:
    def test_constant_model(self):
        model = compose_two_source()
        report = verdict.derive_constant_a(factored(model), model)
        assert report.sector == 1
        assert report.constant is True
        assert report.value == 1
        assert report.even_value == 1 and report.odd_value == 1
        assert report.ratio == 1
        assert len(report.midpoint_steps) == 12
        assert len(report.ratio_steps) == 8

    def test_alternating_model_not_constant(self):
        model = compose_two_source(a=ALTERNATING_8)
        report = verdict.derive_constant_a(factored(model), model)
        assert report.constant is False
        assert report.value is None
        assert report.ratio == -1
        assert {report.even_value, report.odd_value} == {1, -1}

    def test_negative_constant(self):
        model = compose_two_source(a=[-1] * 8)
        fact = factored(model)
        # the recovered generator is gauge-fixed; push it to the -1 gauge
        if fact.a[0] == 1:
            fact = Factorization(
                a=-fact.a, u=-fact.u, v=-fact.v,
                components=fact.components, merged=fact.merged, trace=fact.trace,
            )
        report = verdict.derive_constant_a(fact, model)
        assert report.constant is True
        assert report.value == -1

    def test_quarter_turn_midpoint_step(self):
        # angles 0 and pi/2 share their sign through the midpoint pi/4
        model = compose_two_source()
        report = verdict.derive_constant_a(factored(model), model)
        step = next(
            s for s in report.midpoint_steps if s.alpha == 0 and s.gamma == 2
        )
        assert step.beta == 1
        assert step.phis == (0, 1, 2, 1)

    def test_minus_sector_templates(self):
        kappa = np.full((2, 2), -1, dtype=np.int8)
        model = compose_two_source(kappa=kappa)
        report = verdict.derive_constant_a(factored(model), model)
        assert report.sector == -1
        step = report.midpoint_steps[0]
        assert step.phis == (step.alpha, step.beta, step.beta, step.gamma)
        ratio = report.ratio_steps[0]
        assert ratio.phis == (1, 0, 1, 0)

    def test_steps_cite_correlated_tuples_with_events(self):
        model = compose_two_source(a=ALTERNATING_8)
        report = verdict.derive_constant_a(factored(model), model)
        products = product_tensor(model)
        for step in report.midpoint_steps + report.ratio_steps:
            assert sign_table(model.n, step.sector)[step.phis] == 1
            l1, l4 = step.event
            assert model.kappa[l1, l4] == step.sector
            assert products[step.phis + (l1, l4)] == 1

    def test_doubled_grid_note_documents_half_step(self):
        model = compose_two_source()
        report = verdict.derive_constant_a(factored(model), model)
        (note,) = report.doubled_notes
        assert note.doubled_steps == 1
        assert "doubled" in note.note

    def test_parity_violation_alarms(self):
        model = compose_two_source()
        fact = factored(model)
        rule = verdict.derive_product_rule(fact, model)
        with pytest.raises(CounterexampleAlarm, match="equal-parity"):
            verdict.derive_constant_a(tampered_a(fact, 0), model, rule)

    def test_rejects_single_source(self):
        model = compose_two_source()
        with pytest.raises(FamilyError):
            verdict.derive_constant_a(factored(model), single_source_fixture())


class TestCheckMinusClash:
    def test_lexicographic_first_clash(self):
        model = compose_two_source()
        clash = verdict.check_minus_clash(factored(model), model)
        assert clash.phis == (0, 0, 0, 2)
        assert clash.sector == 1
        assert clash.required == -1
        assert clash.derived == 1
        assert clash.event == (0, 0)

    def test_quarter_turn_tuples_are_anticorrelated(self):
        table = sign_table(4, 1)
        assert table[2, 0, 0, 0] == -1
        assert table[0, 2, 0, 0] == -1
        assert (0, 0, 0, 2) < (0, 2, 0, 0) < (2, 0, 0, 0)

    def test_alternating_assignment_still_clashes_here(self):
        # anticorrelated tuples on this grid all have even index sums
        model = compose_two_source(a=ALTERNATING_8)
        clash = verdict.check_minus_clash(factored(model), model)
        assert clash.phis == (0, 0, 0, 2)
        assert clash.derived == 1

    def test_odd_grid_has_no_anticorrelated_tuple(self):
        model = compose_two_source(n=3, a=[1] * 6)
        with pytest.raises(GridError, match="no anticorrelated"):
            verdict.check_minus_clash(factored(model), model)

    def test_half_turn_grid_too_coarse_for_alternating(self):
        model = compose_two_source(n=2, a=[1, -1, 1, -1])
        with pytest.raises(GridError, match="too coarse"):
            verdict.check_minus_clash(factored(model), model)

    def test_half_turn_grid_still_catches_constant(self):
        model = compose_two_source(n=2)
        clash = verdict.check_minus_clash(factored(model), model)
        assert clash.phis == (0, 0, 0, 1)
        assert clash.derived == 1

    def test_event_is_weighted_and_in_sector(self):
        model = compose_two_source()
        clash = verdict.check_minus_clash(factored(model), model)
        l1, l4 = clash.event
        assert model.kappa[l1, l4] == clash.sector
        assert product_tensor(model)[clash.phis + (l1, l4)] == clash.derived

    def test_rejects_single_source(self):
        model = compose_two_source()
        with pytest.raises(FamilyError):
            verdict.check_minus_clash(factored(model), single_source_fixture())


class TestPredictEClass:
    def test_everything_defined_and_plus_one(self):
        model = compose_two_source()
        report = verdict.predict_E_class(factored(model), model)
        assert report.sectors == (1, -1)
        assert report.all_plus_one is True
        for sector in report.sectors:
            assert report.defined[sector].all()
            assert (report.e_class[sector] == 1).all()

    def test_quantum_gap_extremes(self):
        # aligned analyzers: classical +1 vs quantum -1; quarter turn: both +1
        model = compose_two_source()
        report = verdict.predict_E_class(factored(model), model)
        assert report.e_quantum[1][0, 0, 0, 0] == pytest.approx(-1.0)
        assert abs(report.e_class[1][0, 0, 0, 0] - report.e_quantum[1][0, 0, 0, 0]) == pytest.approx(2.0)
        assert report.e_quantum[1][1, 0, 0, 0] == pytest.approx(0.0, abs=1e-15)
        assert report.e_quantum[1][2, 0, 0, 0] == pytest.approx(1.0)
        assert report.max_discrepancy == pytest.approx(2.0)

    def test_sector_minus_curve_uses_its_own_combination(self):
        model = compose_two_source()
        report = verdict.predict_E_class(factored(model), model)
        # (1,0,1,0): zeta is 2 steps in sector +1 but 0 in sector -1
        assert report.e_quantum[1][1, 0, 1, 0] == pytest.approx(1.0)
        assert report.e_quantum[-1][1, 0, 1, 0] == pytest.approx(-1.0)

    def test_dead_cells_leave_tuples_undefined(self):
        model = compose_two_source()
        fact = factored(model)
        dead_f = model.f_plus.copy()
        dead_f[0, 0, 0, 0] = 0
        dead_f[0, 0, 1, 1] = 0
        broken = rebuild(model, f_plus=dead_f, f_minus=dead_f)
        report = verdict.predict_E_class(fact, broken)
        assert not report.defined[1][0, 0, 0, 0]
        assert report.defined[-1][0, 0, 0, 0]
        assert report.max_discrepancy == pytest.approx(2.0)

    def test_mixed_products_alarm(self):
        model = compose_two_source()
        fact = factored(model)
        warped = model.f_plus.copy()
        warped[0, 0, 0, 0] = -warped[0, 0, 0, 0]
        broken = rebuild(model, f_plus=warped)
        with pytest.raises(CounterexampleAlarm, match="mixes event products"):
            verdict.predict_E_class(fact, broken)

    def test_rejects_single_source(self):
        model = compose_two_source()
        with pytest.raises(FamilyError):
            verdict.predict_E_class(factored(model), single_source_fixture())


class TestRun:
    def test_product_tensor_built_once_per_model(self, monkeypatch):
        prop = vars(LhvModel)["products"]
        builds = []
        build = prop.func
        monkeypatch.setattr(
            prop, "func", lambda model: builds.append(model) or build(model)
        )
        model = compose_two_source()
        result = verdict.run(model)
        assert result.kind == "inconsistent"
        assert verdict.replay(result.trace, model)
        assert product_tensor(model) is product_tensor(model)
        assert len(builds) == 1

    def test_inconsistent_on_robust_factorizable_model(self):
        model = compose_two_source()
        result = verdict.run(model)
        assert result.kind == "inconsistent"
        assert result.report is None and result.witness is None
        trace = result.trace
        assert trace.sector == 1
        assert trace.clash.phis == (0, 0, 0, 2)
        assert trace.constant.constant is True
        assert trace.expectation.all_plus_one is True

    def test_inconsistent_on_alternating_model(self):
        result = verdict.run(compose_two_source(a=ALTERNATING_8))
        assert result.kind == "inconsistent"
        assert result.trace.constant.constant is False

    def test_not_robust_arm(self):
        model = compose_two_source()
        flipped = model.a.copy()
        flipped[0, 0] = -flipped[0, 0]
        result = verdict.run(rebuild(model, a=flipped))
        assert result.kind == "not_robust"
        assert result.report is not None
        assert not result.report.is_robust
        assert result.trace is None

    def test_alarm_arm(self, monkeypatch):
        model = compose_two_source()
        real = factorize(model)
        broken = dataclasses.replace(
            real, factorization=tampered_a(real.factorization, 0)
        )
        monkeypatch.setattr(verdict, "factorize", lambda m: broken)
        result = verdict.run(model)
        assert result.kind == "alarm"
        assert "multiply to -1" in result.witness

    @pytest.mark.parametrize(
        "builder, relation",
        [
            (parity_split_model, "analyzer_symmetry"),
            (both_sector_model, "cross_station_rectangle"),
        ],
    )
    def test_alarm_on_robust_unfactorizable_model(self, builder, relation):
        # These models pass every robustness check yet admit no factorized
        # sign form; the pipeline must flag them, not call them non-robust.
        model = builder()
        assert is_robust(model).is_robust
        result = verdict.run(model)
        assert result.kind == "alarm"
        assert result.report is None and result.trace is None
        assert result.witness.relation == relation
        assert result.witness.product == -1

    def test_grid_errors_propagate(self):
        with pytest.raises(GridError):
            verdict.run(compose_two_source(n=2, a=[1, -1, 1, -1]))

    def test_deterministic(self):
        first = verdict.run(compose_two_source())
        second = verdict.run(compose_two_source())
        assert first.trace.clash == second.trace.clash
        assert first.trace.rule.events == second.trace.rule.events
        assert first.trace.constant.midpoint_steps == second.trace.constant.midpoint_steps


class TestReplay:
    def test_replays_true_trace(self):
        model = compose_two_source()
        trace = verdict.run(model).trace
        assert verdict.replay(trace, model) is True

    def test_replays_alternating_trace(self):
        model = compose_two_source(a=ALTERNATING_8)
        trace = verdict.run(model).trace
        assert verdict.replay(trace, model) is True

    def test_detects_non_clashing_clash(self):
        model = compose_two_source()
        trace = verdict.run(model).trace
        forged = dataclasses.replace(
            trace, clash=dataclasses.replace(trace.clash, derived=-1)
        )
        with pytest.raises(ValueError, match="differs from the trace"):
            verdict.replay(forged, model)

    def test_mismatch_is_a_replay_error(self):
        model = compose_two_source()
        trace = verdict.run(model).trace
        forged = dataclasses.replace(
            trace, clash=dataclasses.replace(trace.clash, derived=-1)
        )
        with pytest.raises(verdict.ReplayError, match="differs from the trace"):
            verdict.replay(forged, model)
        assert issubclass(verdict.ReplayError, ValueError)

    def test_detects_wrong_tuple_class(self):
        model = compose_two_source()
        trace = verdict.run(model).trace
        bad_step = dataclasses.replace(
            trace.constant.midpoint_steps[0], phis=(0, 0, 0, 2)
        )
        forged = dataclasses.replace(
            trace,
            constant=dataclasses.replace(
                trace.constant,
                midpoint_steps=(bad_step,) + trace.constant.midpoint_steps[1:],
            ),
        )
        with pytest.raises(ValueError, match="not a correlated tuple"):
            verdict.replay(forged, model)

    def test_detects_sector_mismatched_event(self):
        model = compose_two_source()
        trace = verdict.run(model).trace
        bad_step = dataclasses.replace(
            trace.constant.midpoint_steps[0], event=(0, 1)
        )
        forged = dataclasses.replace(
            trace,
            constant=dataclasses.replace(
                trace.constant,
                midpoint_steps=(bad_step,) + trace.constant.midpoint_steps[1:],
            ),
        )
        with pytest.raises(ValueError, match="not in sector"):
            verdict.replay(forged, model)

    def test_detects_forged_expectation_table(self):
        model = compose_two_source()
        trace = verdict.run(model).trace
        tables = dict(trace.expectation.e_class)
        warped = tables[1].copy()
        warped[0, 0, 0, 0] = -1
        tables[1] = warped
        forged = dataclasses.replace(
            trace, expectation=dataclasses.replace(trace.expectation, e_class=tables)
        )
        with pytest.raises(ValueError, match="does not replay"):
            verdict.replay(forged, model)

    def test_detects_model_swap(self):
        model = compose_two_source()
        trace = verdict.run(model).trace
        other = rebuild(model, kappa=np.ones((2, 2), dtype=np.int8))
        with pytest.raises(ValueError):
            verdict.replay(trace, other)

    def test_rejects_single_source(self):
        model = compose_two_source()
        trace = verdict.run(model).trace
        with pytest.raises(FamilyError):
            verdict.replay(trace, single_source_fixture())


class TestSingleSourceContradiction:
    def test_quarter_grid_closed(self):
        cert = verdict.single_source_contradiction(4)
        assert cert.all_contradicted is True
        assert cert.survivors == {1: None, -1: None}
        assert cert.assignments_checked == 2 * 256 * 256
        assert cert.contradicted == {1: 65536, -1: 65536}
        assert any("fails some constraint" in line for line in cert.narrative)

    def test_half_grid_reports_survivor_honestly(self):
        cert = verdict.single_source_contradiction(2)
        assert cert.all_contradicted is False
        for sector in (1, -1):
            survivor = cert.survivors[sector]
            assert survivor is not None
            first, last = survivor
            table = sign_table(2, sector)
            for phis in np.argwhere(table == 1):
                t0, t1, t2, t3 = phis
                assert first[t0] * first[t1] * last[t2] * last[t3] == 1
            for phis in np.argwhere(table == -1):
                t0, t1, t2, t3 = phis
                assert first[t0] * first[t1] * last[t2] * last[t3] == -1
        assert any("too coarse" in line for line in cert.narrative)

    def test_odd_grid_raises(self):
        with pytest.raises(GridError, match="no anticorrelated"):
            verdict.single_source_contradiction(3)

    def test_survivor_counts_are_exhaustive(self):
        # brute-force oracle at the smallest even grid
        cert = verdict.single_source_contradiction(2)
        for sector in (1, -1):
            table = sign_table(2, sector)
            plus = np.argwhere(table == 1)
            minus = np.argwhere(table == -1)
            surviving = 0
            for i in range(16):
                first = np.array([1 - 2 * ((i >> b) & 1) for b in range(4)])
                for j in range(16):
                    last = np.array([1 - 2 * ((j >> b) & 1) for b in range(4)])
                    ok = all(
                        first[t0] * first[t1] * last[t2] * last[t3] == 1
                        for t0, t1, t2, t3 in plus
                    ) and all(
                        first[t0] * first[t1] * last[t2] * last[t3] == -1
                        for t0, t1, t2, t3 in minus
                    )
                    surviving += ok
            assert cert.contradicted[sector] == 256 - surviving
            assert surviving > 0

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_the_signature_scan_oracle(self, n):
        cert = verdict.single_source_contradiction(n)
        expected = signature_scan_contradiction(n)
        assert cert.n == n
        for name in ("assignments_checked", "contradicted", "all_contradicted"):
            assert getattr(cert, name) == expected[name], name
        assert cert.survivors.keys() == expected["survivors"].keys()
        for sector, witness in expected["survivors"].items():
            if witness is None:
                assert cert.survivors[sector] is None
                continue
            for got, want in zip(cert.survivors[sector], witness, strict=True):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(2, 17, 2))
    def test_the_narrative_claim_holds_on_every_even_grid(self, n):
        """n/2 even: every pair fails; n/2 odd: 4 pairs per sector survive."""
        cert = verdict.single_source_contradiction(n)
        pairs = 4 ** (2 * n)
        if n // 2 % 2 == 0:
            assert cert.all_contradicted
            assert cert.contradicted == {1: pairs, -1: pairs}
            assert any("fails some constraint" in line for line in cert.narrative)
            return
        assert not cert.all_contradicted
        assert any("too coarse" in line for line in cert.narrative)
        for sector in (1, -1):
            assert cert.contradicted[sector] == pairs - 4
            first, last = cert.survivors[sector]
            table = sign_table(n, sector)
            at = np.nonzero(table)
            t0, t1, t2, t3 = at
            assert (first[t0] * first[t1] * last[t2] * last[t3] == table[at]).all()
