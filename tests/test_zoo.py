"""The model catalog: constructors, guarantees, and URI references."""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellswap.cli import run as cli_run
from bellswap.factorizer import check_consistency, factorize
from bellswap.model import (
    MAX_TABLE_BYTES,
    SINGLE_SOURCE,
    TWO_SOURCE,
    SizeLimitError,
    classical_expectation,
    dumps,
    event_count,
    loads,
    realized_sectors,
    save,
    selected_analyzer,
)
from bellswap import zoo as zoo_module
from bellswap.robustness import (
    RelevanceWitness,
    check_perfect_correlations,
    is_robust,
)
from bellswap.zoo import (
    ZooError,
    _kappa_pattern,
    _missing_slots,
    _repair_bytes,
    _repair_support,
    all_delta_one,
    both_sector_robust,
    by_uri,
    catalog,
    evasive_nonrobust,
    padded_irrelevant,
    parity_split_robust,
    resolve,
    single_source_efficient_50,
    single_source_shift,
    synthetic_factorizable,
    two_source_shell,
)

from helpers import broadcast_missing_slots, looped_repair_support

CATALOG_NAMES = (
    "all_delta_one",
    "synthetic_factorizable",
    "evasive_nonrobust",
    "padded_irrelevant",
    "parity_split_robust",
    "both_sector_robust",
    "single_source_shift",
    "single_source_efficient_50",
)

DEFAULT_URIS = tuple(
    f"zoo:{name}" + (":seed=0" if name == "synthetic_factorizable" else "")
    for name in CATALOG_NAMES
)


class TestAllDeltaOne:
    def test_every_tuple_counts_half_the_emissions(self):
        model = all_delta_one()
        for phis in ((0, 0, 0, 0), (0, 1, 2, 3), (7, 5, 3, 1), (2, 2, 2, 2)):
            assert event_count(model, phis, 1) == Fraction(model.n0, 2)
            assert event_count(model, phis, -1) == 0

    def test_only_the_plus_sector_is_realized(self):
        assert realized_sectors(all_delta_one()) == (1,)

    def test_factorizes_cleanly(self):
        result = factorize(all_delta_one())
        assert result.status == "ok"
        assert len(result.factorization.components) == 1

    def test_all_products_are_plus_one(self):
        model = all_delta_one()
        assert model.products[3, 1, 4, 2, 1, 0] == 1

    def test_rejects_bad_sizes(self):
        with pytest.raises(ZooError):
            all_delta_one(size1=0)

    @pytest.mark.parametrize("kwargs", [dict(n=True), dict(size1=True), dict(size4=False)])
    def test_rejects_bools(self, kwargs):
        with pytest.raises(ZooError):
            all_delta_one(**kwargs)


class TestSyntheticFactorizable:
    def test_same_seed_same_model(self):
        first = synthetic_factorizable(7, density=0.6)
        second = synthetic_factorizable(7, density=0.6)
        assert dumps(first) == dumps(second)

    def test_different_seeds_differ(self):
        assert dumps(synthetic_factorizable(0, density=0.6)) != dumps(
            synthetic_factorizable(1, density=0.6)
        )

    def test_full_density_detects_everywhere(self):
        model = synthetic_factorizable(3, density=1.0)
        for table in (model.a, model.d, model.f_plus):
            assert not np.count_nonzero(table == 0)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("density", [0.4, 0.6, 0.8, 1.0])
    def test_factorizes_at_realistic_densities(self, seed, density):
        model = synthetic_factorizable(seed, density=density)
        result = factorize(model)
        assert result.status == "ok"

    @pytest.mark.parametrize("seed", range(4))
    def test_recovered_signs_reproduce_every_response(self, seed):
        model = synthetic_factorizable(seed, density=0.5)
        fact = factorize(model).factorization
        a, u, v = fact.a, fact.u, fact.v
        rebuilt_a = a[:, None] * u[None, :]
        rebuilt_d = a[:, None] * v[None, :]
        rebuilt_f = (
            a[:, None, None, None]
            * a[None, :, None, None]
            * u[None, None, :, None]
            * v[None, None, None, :]
        )
        for table, rebuilt in (
            (model.a, rebuilt_a),
            (model.d, rebuilt_d),
            (model.f_plus, rebuilt_f),
        ):
            mask = table != 0
            assert (table[mask] == rebuilt[mask]).all()

    @pytest.mark.parametrize("pattern,expected", [
        ("plus", (1,)),
        ("minus", (-1,)),
        ("mixed", (1, -1)),
    ])
    def test_announcement_patterns_set_realized_sectors(self, pattern, expected):
        model = synthetic_factorizable(5, density=0.7, kappa=pattern)
        assert realized_sectors(model) == expected
        assert factorize(model).status == "ok"

    def test_repair_keeps_very_low_density_robust(self):
        model = synthetic_factorizable(11, density=0.05)
        assert is_robust(model, minus_row=False).is_robust
        result = factorize(model)
        assert result.status == "ok"
        assert len(result.factorization.components) == 1

    @pytest.mark.parametrize("kwargs", [
        dict(density=-0.1),
        dict(density=1.5),
        dict(kappa="checker"),
        dict(size1=0),
    ])
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ZooError):
            synthetic_factorizable(0, **kwargs)

    @pytest.mark.parametrize("seed, kwargs, message", [
        (0, dict(n=True), "grid resolution n must be a positive integer"),
        (0, dict(n=False), "grid resolution n must be a positive integer"),
        (0, dict(size1=True), "hidden-variable counts must be integers, got True and 2"),
        (0, dict(size4=np.bool_(True)),
         "hidden-variable counts must be integers, got 2 and np.True_"),
        (True, {}, "seed must be a nonnegative integer, got True"),
        (False, {}, "seed must be a nonnegative integer, got False"),
    ])
    def test_rejects_bools(self, seed, kwargs, message):
        # a bool is no count, grid or seed: refused before anything is drawn
        with pytest.raises(ZooError, match=f"^{message}$"):
            synthetic_factorizable(seed, **kwargs)

    @pytest.mark.parametrize("n, kappa, mib", [
        # two (2n)**4 bool masks whatever the announcement: n = 64 is the
        # first grid refused for every pattern
        (64, "plus", 514),
        (64, "mixed", 514),
    ])
    def test_oversized_grid_is_refused_before_drawing(self, n, kappa, mib):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=(
                f"support repair of an n={n} synthetic model would take an"
                f" estimated {mib} MiB"
            )):
                synthetic_factorizable(0, n=n, kappa=kappa)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_oversized_grid_is_a_usage_error(self, capsys):
        uri = "zoo:synthetic_factorizable:seed=0,n=150"
        assert cli_run(["check", "--model", uri]) == 2
        err = capsys.readouterr().err
        assert "n=150 synthetic model" in err and "15,475 MiB" in err

    @pytest.mark.parametrize("kappa", ["plus", "mixed"])
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_repair_estimate_bounds_the_measured_peak(self, n, kappa):
        # a mixed announcement repairs two sectors; the first sector's mask
        # must be gone before the second sector builds its own
        assert _repair_bytes(2 * 63) <= MAX_TABLE_BYTES < _repair_bytes(2 * 64)
        m = 2 * n
        rng = np.random.default_rng(n)
        da, dd = rng.random((2, m, 2)) < 0.05
        df = rng.random((m, m, 2, 2)) < 0.05
        kappa_table = _kappa_pattern(kappa, 2, 2)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            _repair_support(da, dd, df, kappa_table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= _repair_bytes(m)

    @pytest.mark.parametrize("kappa", ["plus", "mixed"])
    def test_repair_peak_keeps_within_the_draw_estimate(self, kappa):
        # the draw's refusal counts 10 bytes per analyzer entry; the
        # repair's hidden pairs and factor rows, chunked here into several
        # pieces a sector, must fit in it beside the masks they grow
        size = 300
        entries = 4 * size * size
        # even a mixed sector's pairs take more than one chunk
        assert size * size // 2 > zoo_module._ROW_BYTES // (10 * 4)
        rng = np.random.default_rng(size)
        da, dd = rng.random((2, 2, size)) < 0.3
        df = rng.random((2, 2, size, size)) < 0.3
        kappa_table = _kappa_pattern(kappa, size, size)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            _repair_support(da, dd, df, kappa_table)
            _, repair_peak = tracemalloc.get_traced_memory()
            del da, dd, df, kappa_table
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            synthetic_factorizable(0, n=1, size1=size, size4=size, density=0.3,
                                   kappa=kappa)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert repair_peak - before + entries <= 10 * entries
        assert peak - start <= 10 * entries

    def test_oversized_hidden_counts_are_refused_before_drawing(self):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=(
                "hidden-value draw of an n=1 synthetic model with 8000x8000"
                " hidden values would take an estimated 2,441 MiB"
            )):
                synthetic_factorizable(0, n=1, size1=8000, size4=8000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_oversized_hidden_counts_are_a_usage_error(self, capsys):
        uri = "zoo:synthetic_factorizable:seed=0,n=1,size1=8000,size4=8000"
        assert cli_run(["check", "--model", uri]) == 2
        err = capsys.readouterr().err
        assert "8000x8000 hidden values" in err and "2,441 MiB" in err


_COVER_DENSITIES = (0.0, 0.05, 0.3, 0.7, 1.0)


class TestSupportCover:
    @settings(max_examples=250, deadline=None)
    @given(
        n=st.sampled_from((1, 2, 3, 4, 6)),
        size1=st.integers(1, 4),
        size4=st.integers(1, 4),
        kappa=st.sampled_from(("plus", "minus", "mixed")),
        density=st.sampled_from(_COVER_DENSITIES),
        seed=st.integers(0, 2**32 - 1),
        silent=st.integers(-1, 3),
        row_bytes=st.sampled_from((zoo_module._ROW_BYTES, 1, 3000)),
    )
    @example(n=6, size1=4, size4=4, kappa="mixed", density=0.0, seed=0, silent=-1,
             row_bytes=zoo_module._ROW_BYTES)
    # a pair a chunk over several blocks of first-station angles
    @example(n=6, size1=4, size4=4, kappa="mixed", density=0.3, seed=0, silent=-1,
             row_bytes=1)
    @example(n=1, size1=1, size4=1, kappa="minus", density=1.0, seed=0, silent=-1,
             row_bytes=zoo_module._ROW_BYTES)
    # the only uncovered tuples lie in the first block of first-station angles
    @example(n=6, size1=1, size4=1, kappa="plus", density=1.0, seed=0, silent=0,
             row_bytes=zoo_module._ROW_BYTES)
    # a hidden value's repair completes a later value's event
    @example(n=1, size1=4, size4=2, kappa="plus", density=0.7, seed=4, silent=-1,
             row_bytes=zoo_module._ROW_BYTES)
    def test_cover_and_repair_match_the_broadcast_oracle(
        self, n, size1, size4, kappa, density, seed, silent, row_bytes
    ):
        # a small row budget splits a sector's pairs into chunks: one pair
        # each at 1 byte, a few at 3000
        m = 2 * n
        rng = np.random.default_rng(seed)
        da = rng.random((m, size1)) < density
        if 0 <= silent < m:  # a first-station angle that never fires
            da[silent] = False
        dd = rng.random((m, size4)) < density
        df = rng.random((m, m, size1, size4)) < density
        kappa_table = _kappa_pattern(kappa, size1, size4)
        masks = da, dd, df
        oracle = tuple(mask.copy() for mask in masks)
        with mock.patch.object(zoo_module, "_ROW_BYTES", row_bytes):
            for sector in (1, -1):
                pairs = np.argwhere(kappa_table == sector)
                if len(pairs):
                    got = _missing_slots(da, dd, df, *np.nonzero(kappa_table == sector))
                    want = broadcast_missing_slots(da, dd, df, pairs)
                    for name, g, w in zip(("a", "f", "d"), got, want):
                        assert g.dtype == bool and np.array_equal(g, w), name
            _repair_support(*masks, kappa_table)
        looped_repair_support(*oracle, kappa_table)
        for name, got, want in zip(("da", "dd", "df"), masks, oracle):
            assert np.array_equal(got, want), name


class TestEvasiveNonrobust:
    def test_silence_everywhere_else_fails_counts(self):
        report = is_robust(evasive_nonrobust())
        assert report.perfect_correlations_ok
        assert report.relevance_ok
        assert report.counts_witness is not None
        assert report.counts_witness.phis == (0, 0, 0, 1)
        assert report.counts_witness.sector == 1

    def test_the_one_supported_tuple_records_events(self):
        model = evasive_nonrobust()
        assert event_count(model, (0, 0, 0, 0), 1) == Fraction(model.n0, 2)

    def test_factorizer_turns_it_away(self):
        assert factorize(evasive_nonrobust()).status == "not_robust"


class TestPaddedIrrelevant:
    def test_only_relevance_fails(self):
        report = is_robust(padded_irrelevant())
        assert report.perfect_correlations_ok
        assert report.counts_ok
        assert report.relevance_witness == RelevanceWitness(side=1, index=2)

    def test_padded_value_never_fires(self):
        model = padded_irrelevant()
        assert not np.count_nonzero(model.a[:, 2])
        assert not np.count_nonzero(model.f_plus[:, :, 2, :])

    def test_factorizer_turns_it_away(self):
        assert factorize(padded_irrelevant()).status == "not_robust"


class TestRobustNonFactorizable:
    @pytest.mark.parametrize("build", [parity_split_robust, both_sector_robust])
    def test_fully_robust_yet_unfactorizable(self, build):
        model = build()
        assert is_robust(model).is_robust
        result = factorize(model)
        assert result.status == "consistency_violated"
        assert result.witness is not None

    def test_parity_split_announces_plus_only(self):
        assert realized_sectors(parity_split_robust()) == (1,)

    def test_both_sector_announces_in_both(self):
        assert realized_sectors(both_sector_robust()) == (1, -1)

    @pytest.mark.parametrize("build", [parity_split_robust, both_sector_robust])
    def test_deterministic(self, build):
        assert dumps(build()) == dumps(build())


class TestSingleSourceShift:
    def test_family_and_full_detection(self):
        model = single_source_shift()
        assert model.family == SINGLE_SOURCE
        for table in (model.a, model.d, model.f_plus):
            assert not np.count_nonzero(table == 0)

    def test_correlation_law_fails_despite_the_product_shape(self):
        model = single_source_shift()
        witness = check_perfect_correlations(model)
        assert witness is not None
        assert witness.phis == (0, 0, 0, 2)
        assert (witness.expected, witness.found) == (-1, 1)
        # an independent correlated tuple where the product comes out wrong
        assert model.products[3, 4, 5, 4, 0] == -1

    def test_counts_and_relevance_hold(self):
        report = is_robust(single_source_shift())
        assert report.counts_ok and report.relevance_ok

    def test_shell_exposes_the_cross_station_clash(self):
        shell = two_source_shell(single_source_shift())
        assert shell.family == TWO_SOURCE
        assert shell.size4 == 1
        witness = check_consistency(shell)
        assert witness is not None
        assert witness.relation == "cross_station_rectangle"
        assert witness.indices == {"alpha": 0, "beta": 1, "lam1": 1, "lam4": 0}

    def test_shell_rejects_two_source_models(self):
        with pytest.raises(ZooError):
            two_source_shell(all_delta_one())


class TestSingleSourceEfficient50:
    def test_fully_robust(self):
        assert is_robust(single_source_efficient_50()).is_robust

    def test_station_rates_are_exactly_half(self):
        model = single_source_efficient_50()
        size = model.size1
        for table in (model.a, model.d):
            rates = [
                np.count_nonzero(table[k]) / size for k in range(model.steps)
            ]
            assert min(rates) == 0.5
            assert max(rates) == 0.5

    def test_analyzer_always_fires(self):
        model = single_source_efficient_50()
        assert not np.count_nonzero(selected_analyzer(model) == 0)

    def test_correlated_tuples_average_plus_one(self):
        model = single_source_efficient_50()
        for phis in ((0, 0, 0, 0), (1, 1, 2, 2), (5, 3, 0, 2)):
            assert classical_expectation(
                model, phis, sector=1, analyzer_sign=None
            ) == 1

    def test_deterministic(self):
        assert dumps(single_source_efficient_50()) == dumps(
            single_source_efficient_50()
        )

    def test_cache_keeps_the_last_two_grids(self):
        single_source_efficient_50.cache_clear()
        first = weakref.ref(single_source_efficient_50(4))
        for n in (5, 6):
            single_source_efficient_50(n)
        gc.collect()
        assert single_source_efficient_50.cache_info().currsize <= 2
        assert first() is None


class TestCatalogAndUris:
    def test_catalog_lists_every_model_in_order(self):
        names = tuple(catalog())
        assert names == CATALOG_NAMES

    def test_catalog_summaries_are_nonempty(self):
        assert all(summary for summary in catalog().values())

    @pytest.mark.parametrize("uri", DEFAULT_URIS)
    def test_every_entry_builds_by_uri(self, uri):
        model = by_uri(uri)
        assert model.n == 4

    def test_uri_arguments_reach_the_constructor(self):
        direct = synthetic_factorizable(3, density=0.5, kappa="mixed")
        via_uri = by_uri("zoo:synthetic_factorizable:seed=3,density=0.5,kappa=mixed")
        assert dumps(direct) == dumps(via_uri)

    @pytest.mark.parametrize("uri", [
        "plain_name",
        "zoo:",
        "zoo:not_a_model",
        "zoo:all_delta_one:n",
        "zoo:all_delta_one:bogus=1",
        "zoo:all_delta_one:n=4,n=5",
    ])
    def test_bad_references_raise(self, uri):
        with pytest.raises(ZooError):
            by_uri(uri)

    def test_resolve_dispatches_uris_and_paths(self, tmp_path):
        model = evasive_nonrobust()
        path = tmp_path / "model.json"
        save(model, path)
        assert dumps(resolve(str(path))) == dumps(model)
        assert dumps(resolve("zoo:evasive_nonrobust")) == dumps(model)

    @pytest.mark.parametrize("uri", DEFAULT_URIS)
    def test_every_entry_survives_the_file_round_trip(self, uri):
        model = by_uri(uri)
        assert dumps(loads(dumps(model))) == dumps(model)


# ---------------------------------------------------------------------------
# pinned synthetic models
#
# ``zoo_digests.json`` holds the sha256 of ``dumps`` for a sweep of
# ``synthetic_factorizable`` arguments, so any change to the draw, the
# support repair or the intake that moves one byte of a model shows here.
# Regenerate it (only when a model change is intended) with::
#
#     PYTHONPATH=src python tests/test_zoo.py > tests/zoo_digests.json

DIGESTS = Path(__file__).with_name("zoo_digests.json")

SWEEP_SHAPES = ((1, 1, 1), (1, 3, 2), (2, 2, 2), (3, 1, 4), (4, 2, 2), (4, 4, 3), (6, 2, 2))


def synthetic_digests() -> dict[str, str]:
    out = {}
    for n, size1, size4 in SWEEP_SHAPES:
        for kappa in ("plus", "minus", "mixed"):
            for density in (0.0, 0.25, 0.7, 1.0):
                for seed in (0, 3, 11):
                    model = synthetic_factorizable(
                        seed, n=n, size1=size1, size4=size4, density=density, kappa=kappa
                    )
                    key = f"n={n},{size1}x{size4},{kappa},density={density},seed={seed}"
                    out[key] = hashlib.sha256(dumps(model).encode()).hexdigest()
    return out


def test_synthetic_models_match_their_pinned_digests():
    assert synthetic_digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    print(json.dumps(synthetic_digests(), indent=1))
