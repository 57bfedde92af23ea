import itertools

import numpy as np
import pytest

from drsort import induction
from drsort.seeding import stream
from drsort.verify import phi_series, truncated_normal_oracle

# frozen from the series CDF oracle: (Phi(0.5) - Phi(0)) / (Phi(10) - Phi(0))
P1_MU0_SIGMA2_N20 = 0.3829249225480262


def appendix_b_spec(mu=0.0):
    return induction.TruncatedNormalSpec(mu=mu, sigma=2.0, n_destinations=20, volume=1200)


class TestTruncatedNormalProbs:
    def test_first_entry_matches_cdf_oracle_value(self):
        probs = induction.truncated_normal_probs(appendix_b_spec())
        assert probs[0] == pytest.approx(P1_MU0_SIGMA2_N20, abs=1e-9)

    def test_sums_to_one(self):
        probs = induction.truncated_normal_probs(appendix_b_spec())
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_left_shifted_mean_is_monotone_decreasing(self):
        probs = induction.truncated_normal_probs(appendix_b_spec(mu=-4.0))
        assert np.all(np.diff(probs) < 0)

    def test_far_tails_are_positive_and_monotone(self):
        left = induction.truncated_normal_probs(appendix_b_spec(mu=-4.0))
        right = induction.truncated_normal_probs(appendix_b_spec(mu=24.0))
        for probs in (left, right):
            assert np.all(probs > 0)
            assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(np.diff(right) > 0)
        # mirror images: bin i at mu=-4 is bin N+1-i at mu=N+4
        assert right[::-1] == pytest.approx(left, rel=1e-12)

    @pytest.mark.parametrize("mu,sigma,n", [(0.0, 2.0, 20), (-4.0, 2.0, 20), (4.0, 2.0, 20), (7.3, 1.2, 12)])
    def test_matches_series_oracle(self, mu, sigma, n):
        spec = induction.TruncatedNormalSpec(mu=mu, sigma=sigma, n_destinations=n, volume=5)
        probs = induction.truncated_normal_probs(spec)
        assert np.abs(probs - truncated_normal_oracle(mu, sigma, n)).max() < 1e-6

    def test_degenerate_denominator_raises(self):
        spec = induction.TruncatedNormalSpec(mu=1e6, sigma=0.5, n_destinations=5, volume=1)
        with pytest.raises(ValueError, match="mass entirely outside"):
            induction.truncated_normal_probs(spec)

    def test_partial_sums_telescope(self):
        spec = appendix_b_spec(mu=1.5)
        probs = induction.truncated_normal_probs(spec)
        edges = [(i - 1.5) / 2.0 for i in range(21)]
        cdf = [phi_series(z) for z in edges]
        den = cdf[-1] - cdf[0]
        for i in range(1, 21):
            assert probs[:i].sum() == pytest.approx((cdf[i] - cdf[0]) / den, abs=1e-9)

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ValueError):
            induction.TruncatedNormalSpec(mu=0, sigma=0.0, n_destinations=5, volume=1)


class TestMultinomialPmf:
    def test_two_category_half(self):
        spec = induction.MultinomialSpec(probs_vector=(0.5, 0.5), volume=2)
        assert induction.multinomial_pmf(spec, np.array([1, 1])) == pytest.approx(0.5, rel=1e-12)

    def test_degenerate_distribution(self):
        spec = induction.MultinomialSpec(probs_vector=(1.0, 0.0), volume=3)
        assert induction.multinomial_pmf(spec, np.array([3, 0])) == pytest.approx(1.0, rel=1e-12)
        assert induction.multinomial_pmf(spec, np.array([2, 1])) == 0.0

    def test_full_support_sums_to_one(self):
        spec = induction.MultinomialSpec(probs_vector=(0.2, 0.3, 0.5), volume=4)
        total = sum(
            induction.multinomial_pmf(spec, np.array(z))
            for z in itertools.product(range(5), repeat=3)
            if sum(z) == 4
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_support_violation_raises(self):
        spec = induction.MultinomialSpec(probs_vector=(0.5, 0.5), volume=4)
        with pytest.raises(ValueError, match="support violation"):
            induction.multinomial_pmf(spec, np.array([1, 1]))
        with pytest.raises(ValueError, match="support violation"):
            induction.multinomial_pmf(spec, np.array([2, 2, 0]))


class TestSampleInduction:
    def test_zero_volume(self):
        spec = induction.MultinomialSpec(probs_vector=(0.4, 0.6), volume=0)
        assert np.array_equal(induction.sample_induction(spec, stream(0, "t")), [0, 0])

    def test_degenerate_point_mass(self):
        spec = induction.MultinomialSpec(probs_vector=(1.0, 0.0, 0.0), volume=7)
        sample = induction.sample_induction(spec, stream(0, "t"))
        assert np.array_equal(sample, [7, 0, 0])

    def test_counts_sum_to_volume(self):
        rng = stream(3, "sums")
        spec = appendix_b_spec()
        for _ in range(50):
            assert induction.sample_induction(spec, rng).sum() == 1200

    def test_marginal_mean_of_first_destination(self):
        # mean of counts[0] over n samples ~ V*p1 within 3 standard errors
        spec = appendix_b_spec()
        rng = stream(7, "marginal")
        n_samples = 10_000
        total = 0
        for _ in range(n_samples):
            total += induction.sample_induction(spec, rng)[0]
        p1 = P1_MU0_SIGMA2_N20
        se = np.sqrt(1200 * p1 * (1 - p1) / n_samples)
        assert abs(total / n_samples - 1200 * p1) < 3 * se


class TestEstimateSaa:
    def test_single_sample_frequencies(self):
        est = induction.estimate_saa([np.array([3, 1, 0])])
        assert est.probs() == pytest.approx([0.75, 0.25, 0.0])
        assert est.volume == 4

    def test_pooled_frequencies(self):
        est = induction.estimate_saa([np.array([2, 2]), np.array([4, 0])])
        assert est.probs() == pytest.approx([0.75, 0.25])

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            induction.estimate_saa([])

    def test_mismatched_volumes_raise(self):
        with pytest.raises(ValueError, match="same total volume"):
            induction.estimate_saa([np.array([2, 2]), np.array([3, 0])])

    def test_convergence_to_true_distribution(self):
        true = induction.MultinomialSpec(probs_vector=(0.1, 0.25, 0.65), volume=40)
        rng = stream(11, "saa")
        samples = [induction.sample_induction(true, rng) for _ in range(5000)]
        est = induction.estimate_saa(samples)
        assert np.abs(est.probs() - true.probs()).max() < 0.01

    def test_idempotent_on_own_output(self):
        first = induction.MultinomialSpec(probs_vector=(0.3, 0.7), volume=30)
        rng = stream(13, "saa2")
        est = induction.estimate_saa([induction.sample_induction(first, rng) for _ in range(4000)])
        re_est = induction.estimate_saa([induction.sample_induction(est, rng) for _ in range(4000)])
        assert np.abs(re_est.probs() - est.probs()).max() < 0.03


class TestGroupSet:
    def test_appendix_b_composition(self):
        gs = induction.build_group_set("appendix-b")
        assert gs.size == 9
        assert [g.mu for g in gs.groups] == [-4, -3, -2, -1, 0, 1, 2, 3, 4]
        assert all(g.sigma == 2.0 and g.n_destinations == 20 and g.volume == 1200 for g in gs.groups)

    def test_appendix_b_groups_are_simplex_vectors(self):
        gs = induction.build_group_set("appendix-b")
        for g in range(gs.size):
            probs = gs.probs(g)
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_sampling_an_index_array_equals_one_draw_per_index(self):
        gs = induction.build_group_set("appendix-b")
        indices = np.array([2, 0, 8, 2, 5])
        batched_rng, scalar_rng = stream(3, "gs"), stream(3, "gs")
        rows = gs.sample(indices, batched_rng)
        assert rows.shape == (5, 20) and np.all(rows.sum(axis=1) == 1200)
        assert np.array_equal(rows, np.stack([gs.sample(g, scalar_rng) for g in indices]))
        assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state
        assert not gs.probs(4).flags.writeable

    def test_custom_single_group(self):
        spec = induction.MultinomialSpec(probs_vector=(1.0,), volume=5)
        gs = induction.build_group_set("custom", {"groups": [spec]})
        assert gs.size == 1

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown group set kind"):
            induction.build_group_set("nope")

    def test_mixed_volumes_rejected(self):
        a = induction.MultinomialSpec(probs_vector=(1.0,), volume=5)
        b = induction.MultinomialSpec(probs_vector=(1.0,), volume=6)
        with pytest.raises(ValueError, match="same volume"):
            induction.build_group_set("custom", {"groups": [a, b]})

    def test_json_round_trip(self):
        gs = induction.build_group_set("appendix-b")
        again = induction.group_set_from_json(induction.group_set_to_json(gs))
        assert again == gs
        custom = induction.build_group_set(
            "custom", {"groups": [induction.MultinomialSpec(probs_vector=(0.25, 0.75), volume=8)]}
        )
        assert induction.group_set_from_json(induction.group_set_to_json(custom)) == custom


class TestMixtureDistribution:
    def setup_method(self):
        self.gs = induction.build_group_set("appendix-b")

    def test_vertex_is_bitwise_copy(self):
        weights = np.zeros(9)
        weights[2] = 1.0
        mix = induction.mixture_distribution(self.gs, weights)
        direct = self.gs.probs(2)
        assert np.array_equal(mix, direct)
        mix[0] = 0.123  # returned copy must not alias the cached vector
        assert self.gs.probs(2)[0] == direct[0]

    def test_uniform_over_identical_groups(self):
        spec = induction.MultinomialSpec(probs_vector=(0.4, 0.6), volume=5)
        gs = induction.build_group_set("custom", {"groups": [spec, spec]})
        mix = induction.mixture_distribution(gs, np.array([0.5, 0.5]))
        assert mix == pytest.approx([0.4, 0.6], abs=1e-15)

    def test_two_group_convex_combination(self):
        a = induction.MultinomialSpec(probs_vector=(0.1, 0.9), volume=5)
        b = induction.MultinomialSpec(probs_vector=(0.7, 0.3), volume=5)
        gs = induction.build_group_set("custom", {"groups": [a, b]})
        mix = induction.mixture_distribution(gs, np.array([0.25, 0.75]))
        expected = [0.25 * 0.1 + 0.75 * 0.7, 0.25 * 0.9 + 0.75 * 0.3]
        assert mix == pytest.approx(expected, abs=1e-15)

    def test_rejects_non_simplex_weights(self):
        with pytest.raises(ValueError):
            induction.mixture_distribution(self.gs, np.full(9, 0.2))
        with pytest.raises(ValueError):
            induction.mixture_distribution(self.gs, np.array([1.0] + [0.0] * 7 + [-0.0001]))
