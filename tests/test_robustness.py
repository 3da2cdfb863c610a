"""The three robustness checks and their witnesses."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from helpers import compose_two_source, rebuild

from bellswap.angles import correlation_index, required_sign
from bellswap.model import LhvModel, product_tensor, realized_sectors
from bellswap.robustness import (
    CorrelationWitness,
    CountsWitness,
    RelevanceWitness,
    check_counts_nonempty,
    check_perfect_correlations,
    check_relevance,
    is_robust,
    required_tensor,
)


@pytest.fixture
def full_model():
    return compose_two_source()


class TestPerfectCorrelations:
    def test_correlated_half_passes(self, full_model):
        assert check_perfect_correlations(full_model, minus_row=False) is None

    def test_anticorrelated_half_fails_on_product_form(self, full_model):
        # constant sign pattern cannot produce the -1 the anticorrelation
        # tuples demand; the first such tuple on the pi/4 grid is (0,0,0,2)
        witness = check_perfect_correlations(full_model)
        assert witness == CorrelationWitness(
            phis=(0, 0, 0, 2), l1=0, l4=0, expected=-1, found=1
        )

    def test_single_flipped_entry_is_caught(self, full_model):
        a = np.array(full_model.a.tolist())
        a[0, 0] = -a[0, 0]
        broken = rebuild(full_model, a=a)
        witness = check_perfect_correlations(broken, minus_row=False)
        assert witness is not None
        assert witness.phis[0] == 0 and witness.l1 == 0
        assert witness.expected == 1 and witness.found == -1

    def test_empty_support_passes_vacuously(self, full_model):
        silent = rebuild(
            full_model,
            a=np.zeros_like(full_model.a),
            d=np.zeros_like(full_model.d),
        )
        assert check_perfect_correlations(silent) is None

    @pytest.mark.parametrize("seed", range(3))
    def test_invariant_under_relabeling(self, seed):
        rng = random.Random(seed)
        m = compose_two_source(u=(1, -1, 1), v=(-1, 1))
        perm1 = [0, 1, 2]
        rng.shuffle(perm1)
        relabeled = rebuild(
            m,
            a=m.a[:, perm1],
            kappa=m.kappa[perm1, :],
            f_plus=m.f_plus[:, :, perm1, :],
            f_minus=m.f_minus[:, :, perm1, :],
            rho1=[m.rho1[i] for i in perm1],
        )
        for minus_row in (True, False):
            assert (check_perfect_correlations(m, minus_row) is None) == (
                check_perfect_correlations(relabeled, minus_row) is None
            )

    def test_gauge_flip_preserves_verdicts(self, full_model):
        # flipping one lambda1's column in A and its analyzer slices leaves
        # every product unchanged
        a = np.array(full_model.a.tolist())
        fp = np.array(full_model.f_plus.tolist())
        fm = np.array(full_model.f_minus.tolist())
        a[:, 1] *= -1
        fp[:, :, 1, :] *= -1
        fm[:, :, 1, :] *= -1
        flipped = rebuild(full_model, a=a, f_plus=fp, f_minus=fm)
        assert np.array_equal(product_tensor(flipped), product_tensor(full_model))
        for fn in (check_perfect_correlations, check_counts_nonempty, check_relevance):
            assert fn(flipped) == fn(full_model)


class TestCounts:
    def test_full_detection_passes(self, full_model):
        assert check_counts_nonempty(full_model) is None

    def test_silent_model_fails_at_origin(self, full_model):
        silent = rebuild(full_model, a=np.zeros_like(full_model.a))
        assert check_counts_nonempty(silent) == CountsWitness(
            phis=(0, 0, 0, 0), sector=1
        )

    def test_dead_angle_row_fails_there(self, full_model):
        a = np.array(full_model.a.tolist())
        a[2, :] = 0
        gappy = rebuild(full_model, a=a)
        assert check_counts_nonempty(gappy) == CountsWitness(
            phis=(2, 0, 0, 0), sector=1
        )

    def test_unrealized_sector_not_required_by_default(self, full_model):
        one_sided = rebuild(full_model, kappa=np.ones_like(full_model.kappa))
        assert realized_sectors(one_sided) == (1,)
        assert check_counts_nonempty(one_sided) is None
        assert check_counts_nonempty(
            one_sided, require_both_sectors=True
        ) == CountsWitness(phis=(0, 0, 0, 0), sector=-1)

    def test_zero_weight_support_does_not_count(self, full_model):
        # the second source's first value carries all the weight; events that
        # exist only through the zero-weight value must not rescue counts
        d = np.array(full_model.d.tolist())
        d[:, 0] = 0
        lopsided = rebuild(
            full_model, d=d, rho4=[Fraction(1), Fraction(0)]
        )
        witness = check_counts_nonempty(lopsided)
        assert witness is not None and witness.phis == (0, 0, 0, 0)


class TestRelevance:
    def test_full_detection_passes(self, full_model):
        assert check_relevance(full_model) is None

    def test_padded_first_side(self, full_model):
        a = np.array(full_model.a.tolist())
        a[:, 1] = 0
        padded = rebuild(full_model, a=a)
        assert check_relevance(padded) == RelevanceWitness(side=1, index=1)

    def test_padded_second_side(self, full_model):
        d = np.array(full_model.d.tolist())
        d[:, 0] = 0
        padded = rebuild(full_model, d=d)
        assert check_relevance(padded) == RelevanceWitness(side=4, index=0)


class TestRequiredTensor:
    def test_matches_sector_of_each_assignment(self, full_model):
        req = required_tensor(full_model)
        n = full_model.n
        for k in [(0, 0, 0, 2), (1, 0, 3, 2), (3, 1, 0, 0)]:
            for l1 in range(2):
                for l4 in range(2):
                    sector = int(full_model.kappa[l1, l4])
                    z = correlation_index(*k, sector, n)
                    assert req[k + (l1, l4)] == required_sign(z, n)


class TestIsRobust:
    def test_report_composition(self, full_model):
        report = is_robust(full_model, minus_row=False)
        assert report.is_robust
        report = is_robust(full_model)
        assert not report.is_robust
        assert report.counts_ok and report.relevance_ok
        assert not report.perfect_correlations_ok

    def test_plus_tuples_carry_a_positive_event(self, full_model):
        # any model passing the restricted law has, at every correlated
        # tuple of a realized sector, at least one event with product +1
        assert is_robust(full_model, minus_row=False).is_robust
        products = product_tensor(full_model)
        req = required_tensor(full_model)
        plus_events = (products == 1) & (req == 1)
        demanded = (req == 1).any(axis=(-2, -1))
        satisfied = plus_events.any(axis=(-2, -1))
        assert np.array_equal(demanded & satisfied, demanded)
