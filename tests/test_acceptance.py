"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints as one pass/fail line under ``pytest -v``. Criterion 6 is
expected to fail on its two-hidden-value clause: the enumeration it mandates
does not come back empty, and the test reports the verified counterexamples
rather than weakening the assertion.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from bellswap.angles import RationalAngle
from bellswap.cli import run as cli_run
from bellswap.factorizer import (
    CounterexampleAlarm,
    check_consistency,
    factorize,
)
from bellswap.model import SINGLE_SOURCE, TWO_SOURCE, event_count
from bellswap.quantum import (
    closed_grid,
    expectation_bell,
    simulate,
    simulate_grid,
)
from bellswap.robustness import is_robust
from bellswap.search import (
    SearchSpace,
    search_single_source,
    search_two_source,
)
from bellswap.verdict import replay, run as run_verdict, single_source_contradiction
from bellswap.zoo import (
    all_delta_one,
    evasive_nonrobust,
    padded_irrelevant,
    single_source_shift,
    synthetic_factorizable,
    two_source_shell,
)
from helpers import oracle_count

GRID_STEPS = 8  # default grid: angles in multiples of pi/4
DENSITIES = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
PATTERNS = ["plus", "minus", "mixed"]


@pytest.fixture(scope="module")
def factorizable_batch():
    """The 1000 seeded product-form models shared by criteria 4, 5, and 6."""
    models = []
    results = []
    alarms = 0
    started = time.perf_counter()
    for seed in range(1000):
        model = synthetic_factorizable(seed, density=DENSITIES[seed % 7])
        models.append(model)
        try:
            results.append(factorize(model))
        except CounterexampleAlarm:
            alarms += 1
            results.append(None)
    elapsed = time.perf_counter() - started
    return SimpleNamespace(
        models=models, results=results, alarms=alarms, elapsed=elapsed
    )


def test_criterion_1_quantum_oracle_equivalence():
    """Simulator vs closed forms within 1e-12 over the full pi/8 grid, < 5 s."""
    started = time.perf_counter()
    sim = simulate_grid(8)
    closed = closed_grid(8)
    elapsed = time.perf_counter() - started
    delta = float(np.abs(sim - closed).max())
    assert delta < 1e-12, f"simulator and closed forms disagree by {delta}"
    total_err = float(np.abs(sim.sum(axis=(-3, -2, -1)) - 1).max())
    assert total_err < 1e-12, f"probabilities do not sum to 1: off by {total_err}"
    plus = sim[..., (0, 3)].sum(axis=(-3, -2, -1))
    plus_err = float(np.abs(plus - 0.5).max())
    assert plus_err < 1e-12, f"plus-sector subtotal is not 1/2: off by {plus_err}"
    assert elapsed < 5.0, f"grid evaluation took {elapsed:.2f}s"


def test_criterion_2_conditional_expectation_curve():
    """E(psi_minus) from the simulator equals -cos(2*zeta) at every grid zeta."""
    n = 4
    for k in range(2 * n):
        zeta = k * math.pi / n
        table = simulate([RationalAngle(j, n) for j in (k, 0, 0, 0)])
        value = expectation_bell(table, "psi_minus")
        assert abs(value - (-math.cos(2 * zeta))) < 1e-12, (
            f"E(psi_minus) at zeta={k}pi/{n} is {value}"
        )
    spots = {0: -1.0, 1: 0.0, 2: 1.0}  # zeta = 0, pi/4, pi/2
    for k, expected in spots.items():
        table = simulate([RationalAngle(j, n) for j in (k, 0, 0, 0)])
        assert abs(expectation_bell(table, "psi_minus") - expected) < 1e-12


def test_criterion_3_count_law_and_oracle_agreement():
    """Half the emissions at every tuple; fast and oracle counts agree exactly."""
    reference = all_delta_one()
    half = Fraction(reference.n0, 2)
    steps = reference.steps
    for k1 in range(steps):
        for k2 in range(steps):
            for k3 in range(steps):
                for k4 in range(steps):
                    phis = (k1, k2, k3, k4)
                    assert event_count(reference, phis, 1) == half, phis
    rng = random.Random(20240814)
    for index in range(100):
        model = synthetic_factorizable(
            1000 + index,
            density=DENSITIES[index % 7],
            kappa=PATTERNS[index % 3],
        )
        for _ in range(20):
            phis = tuple(rng.randrange(steps) for _ in range(4))
            for sector in (1, -1):
                fast = event_count(model, phis, sector)
                slow = oracle_count(model, phis, sector)
                assert fast == slow, (index, phis, sector, fast, slow)


def test_criterion_4_factorization_round_trip(factorizable_batch):
    """1000 seeded product models factorize with exact sign recovery, < 60 s."""
    batch = factorizable_batch
    assert batch.alarms == 0, f"{batch.alarms} contradiction alarms"
    bad = [i for i, r in enumerate(batch.results) if r is None or r.status != "ok"]
    assert not bad, f"factorization failed on seeds {bad[:10]}"
    for model, result in zip(batch.models, batch.results):
        fact = result.factorization
        a, u, v = fact.a, fact.u, fact.v
        rebuilt = (
            a[:, None] * u[None, :],
            a[:, None] * v[None, :],
            a[:, None, None, None]
            * a[None, :, None, None]
            * u[None, None, :, None]
            * v[None, None, None, :],
        )
        for table, image in zip((model.a, model.d, model.f_plus), rebuilt):
            mask = table != 0
            assert (table[mask] == image[mask]).all(), "sign recovery drifted"
    assert batch.elapsed < 60.0, f"round trip took {batch.elapsed:.1f}s"


def test_criterion_5_consistency_relation_suite(factorizable_batch):
    """All product relations hold on the batch; the shared-source shell fails one."""
    for model in factorizable_batch.models:
        witness = check_consistency(model)
        assert witness is None, witness
    shell = two_source_shell(single_source_shift())
    witness = check_consistency(shell)
    assert witness is not None, "shell unexpectedly satisfies every relation"
    assert witness.relation == "cross_station_rectangle"
    assert witness.indices == {"alpha": 0, "beta": 1, "lam1": 1, "lam4": 0}


def test_criterion_6_no_robust_model_at_desk_scale(factorizable_batch):
    """Exhaustive searches come back empty and every batch model ends inconsistent.

    The one-hidden-value space is certified empty and the verdict pipeline
    behaves exactly as stated. The two-hidden-value clause is asserted as
    stated and fails honestly: that space contains robust models, and the
    failure message carries the verified census.
    """
    failures: list[str] = []

    small = search_two_source(
        SearchSpace(family=TWO_SOURCE, denominator=4, size1=1, size4=1)
    )
    if small.robust_found or small.robust_count:
        failures.append(
            f"one-hidden-value space is not empty: {small.robust_count} robust"
        )
    if not small.certifying:
        failures.append("one-hidden-value enumeration did not complete")

    large = search_two_source(
        SearchSpace(family=TWO_SOURCE, denominator=4, size1=2, size4=2),
        budget_seconds=600.0,
    )
    if large.robust_count or large.robust_found:
        first = large.robust_found[0] if large.robust_found else None
        verified = first is not None and is_robust(first).is_robust
        status = factorize(first).status if first is not None else "n/a"
        failures.append(
            "two-hidden-value space is NOT empty: "
            f"{large.robust_count} robust models among "
            f"{large.models_examined} decided candidates "
            f"(complete enumeration: {large.certifying}); first example "
            f"re-verified robust by the independent checker: {verified}, "
            f"factorization status: {status}. The emptiness hypothesis is "
            "false for two hidden values per source."
        )
    elif not large.certifying:
        failures.append("two-hidden-value enumeration did not complete in budget")

    for index, (model, result) in enumerate(
        zip(factorizable_batch.models, factorizable_batch.results)
    ):
        if result is None or result.status != "ok":
            continue
        verdict = run_verdict(model)
        if verdict.kind != "inconsistent":
            failures.append(f"seed {index}: verdict {verdict.kind}")
            break
        clash = verdict.trace.clash
        if (clash.required, clash.derived) != (-1, 1):
            failures.append(f"seed {index}: clash {clash}")
            break
        if not replay(verdict.trace, model):
            failures.append(f"seed {index}: trace does not replay")
            break
        if not verdict.trace.expectation.all_plus_one:
            failures.append(f"seed {index}: factorized prediction is not all +1")
            break

    assert not failures, "\n".join(failures)


def test_criterion_7_single_source_gap():
    """Floor 0.5 yields a verified model; floor 1.0 is impossible two ways."""
    space = SearchSpace(family=SINGLE_SOURCE, denominator=4, size1=16)
    found = search_single_source(space, efficiency_floor=0.5)
    model = found.first_found
    assert model is not None, "no half-efficiency model found"
    report = is_robust(model)
    assert report.is_robust, report
    size = model.size1
    for table in (model.a, model.d):
        rate = min(np.count_nonzero(table[k]) / size for k in range(model.steps))
        assert rate >= 0.5, f"station rate {rate} below the floor"
    assert not np.count_nonzero(model.f_plus == 0), "analyzer must always fire"

    full = search_single_source(space, efficiency_floor=1.0)
    assert full.robust_count == 0 and full.certifying, (
        "full-efficiency search should certify emptiness"
    )
    certificate = single_source_contradiction(4)
    assert certificate.all_contradicted, certificate.narrative
    assert not any(certificate.survivors.values()), certificate.survivors


def test_criterion_8_robustness_diagnostics():
    """The evasive model fails counts with a tuple; padding is named by index."""
    evasive = evasive_nonrobust()
    report = is_robust(evasive)
    assert report.perfect_correlations_ok
    witness = report.counts_witness
    assert witness is not None and witness.phis == (0, 0, 0, 1)

    padded = padded_irrelevant()
    report = is_robust(padded)
    assert report.counts_ok and report.perfect_correlations_ok
    relevance = report.relevance_witness
    assert relevance is not None
    assert (relevance.side, relevance.index) == (1, 2), "must name the padded value"


CLI_RUNS = [
    ["quantum", "--phi", "2,1,1,2", "--n", "4"],
    ["quantum", "--phi", "1,0,3,2", "--sector", "-"],
    ["check", "--model", "zoo:evasive_nonrobust"],
    ["check", "--model", "zoo:parity_split_robust", "--require-both-sectors"],
    ["factorize", "--model", "zoo:synthetic_factorizable:seed=1"],
    ["factorize", "--model", "zoo:both_sector_robust"],
    ["verdict", "--model", "zoo:synthetic_factorizable:seed=1"],
    ["verdict", "--model", "zoo:padded_irrelevant"],
    ["search", "--family", "two_source", "--size1", "1", "--size4", "1"],
    ["search", "--family", "single_source", "--floor", "0.5"],
    ["zoo"],
    ["zoo", "--model", "zoo:single_source_efficient_50"],
    ["selftest"],
]


def test_criterion_9_deterministic_reports():
    """Every subcommand, run twice on catalog inputs, emits identical bytes."""
    for argv in CLI_RUNS:
        outputs = []
        codes = []
        for _ in range(2):
            buffer = io.StringIO()
            stderr = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(
                stderr
            ):
                codes.append(cli_run(list(argv)))
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1], f"nondeterministic report: {argv}"
        assert codes[0] == codes[1], f"nondeterministic exit code: {argv}"
        assert outputs[0], f"no report produced: {argv}"
