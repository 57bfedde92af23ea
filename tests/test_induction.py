import numpy as np
import pytest

from drsort import induction
from drsort.seeding import stream
from drsort.verify import phi_series, truncated_normal_oracle

# frozen from the series CDF oracle: (Phi(0.5) - Phi(0)) / (Phi(10) - Phi(0))
P1_MU0_SIGMA2_N20 = 0.3829249225480262


def appendix_b_spec(mu=0.0):
    return induction.TruncatedNormalSpec(mu=mu, sigma=2.0, n_destinations=20, volume=1200)


def custom_set(*specs):
    return induction.GroupSet(kind="custom", groups=specs)


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


class TestSampleInduction:
    """`GroupSet.sample`, the sampler every run draws inductions from, on one group."""

    def test_zero_volume(self):
        gs = custom_set(induction.MultinomialSpec(probs_vector=(0.4, 0.6), volume=0))
        assert np.array_equal(gs.sample(0, stream(0, "t")), [0, 0])

    def test_degenerate_point_mass(self):
        gs = custom_set(induction.MultinomialSpec(probs_vector=(1.0, 0.0, 0.0), volume=7))
        assert np.array_equal(gs.sample(0, stream(0, "t")), [7, 0, 0])

    def test_counts_sum_to_volume(self):
        rng = stream(3, "sums")
        gs = custom_set(appendix_b_spec())
        for _ in range(50):
            assert gs.sample(0, rng).sum() == 1200

    def test_marginal_mean_of_first_destination(self):
        # mean of counts[0] over n samples ~ V*p1 within 3 standard errors
        gs = custom_set(appendix_b_spec())
        n_samples = 10_000
        first = gs.sample(np.zeros(n_samples, dtype=int), stream(7, "marginal"))[:, 0]
        p1 = P1_MU0_SIGMA2_N20
        se = np.sqrt(1200 * p1 * (1 - p1) / n_samples)
        assert abs(first.mean() - 1200 * p1) < 3 * se


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

    @pytest.mark.parametrize("steps", [1, 10])
    def test_a_sized_draw_equals_the_repeated_index_draw(self, steps):
        zeros = induction.MultinomialSpec(probs_vector=(0.0, 0.2, 0.3, 0.3, 0.2, 0.0), volume=60)
        uniform = induction.MultinomialSpec(probs_vector=(1 / 6,) * 6, volume=60)
        for gs in (induction.build_group_set("appendix-b"), custom_set(zeros, uniform)):
            for g in range(gs.size):
                sized_rng, repeated_rng = stream(4, "gs", g), stream(4, "gs", g)
                rows = gs.sample(g, sized_rng, size=steps)
                assert rows.shape == (steps, gs.n_destinations)
                assert np.array_equal(rows, gs.sample(np.full(steps, g), repeated_rng))
                assert sized_rng.bit_generator.state == repeated_rng.bit_generator.state

    def test_custom_single_group(self):
        spec = induction.MultinomialSpec(probs_vector=(1.0,), volume=5)
        assert custom_set(spec).size == 1

    def test_unknown_kind_raises(self):
        for kind in ("nope", "custom"):
            with pytest.raises(ValueError, match="unknown group set kind"):
                induction.build_group_set(kind)

    def test_mixed_volumes_rejected(self):
        a = induction.MultinomialSpec(probs_vector=(1.0,), volume=5)
        b = induction.MultinomialSpec(probs_vector=(1.0,), volume=6)
        with pytest.raises(ValueError, match="same volume"):
            custom_set(a, b)
