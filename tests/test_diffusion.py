"""Noise schedule, forward process moments, and ancestral sampling."""

import numpy as np
import pytest

from sonomotion import diffusion as df
from sonomotion.errors import ContractError, ShapeError

SCHED_1000 = df.cosine_schedule(1000)


class TestCosineSchedule:
    def test_alpha_bar_zero_is_one(self):
        assert SCHED_1000.alpha_bars[0] == 1.0

    def test_alpha_bar_one_near_one(self):
        assert SCHED_1000.alpha_bars[1] >= 0.999

    def test_strictly_decreasing(self):
        assert np.all(np.diff(SCHED_1000.alpha_bars) < 0)

    def test_terminal_alpha_bar_small(self):
        assert SCHED_1000.alpha_bars[1000] < 1e-3

    def test_alphas_in_unit_interval(self):
        inner = SCHED_1000.alphas[1:]
        assert np.all(inner > 0) and np.all(inner < 1)

    def test_betas_clipped(self):
        assert SCHED_1000.betas.max() <= df.MAX_BETA + 1e-15

    def test_posterior_variance_zero_at_first_step(self):
        assert SCHED_1000.posterior_var[1] == 0.0

    def test_short_schedules_valid(self):
        for steps in (1, 4, 50):
            s = df.cosine_schedule(steps)
            assert s.alpha_bars.shape == (steps + 1,)


class TestQSample:
    def test_t0_returns_x0(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((4, 6))
        out = df.q_sample(x0, 0, rng.standard_normal(x0.shape), SCHED_1000)
        np.testing.assert_array_equal(out, x0)

    def test_zero_noise_scales_by_sqrt_alpha_bar(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((4, 6))
        t = 300
        out = df.q_sample(x0, t, np.zeros_like(x0), SCHED_1000)
        np.testing.assert_allclose(out, np.sqrt(SCHED_1000.alpha_bars[t]) * x0)

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(2)
        t = 400
        x0 = np.full((100_000, 3), 0.8)
        noise = rng.standard_normal(x0.shape)
        xt = df.q_sample(x0, t, noise, SCHED_1000)
        want_mean = np.sqrt(SCHED_1000.alpha_bars[t]) * 0.8
        want_std = np.sqrt(1 - SCHED_1000.alpha_bars[t])
        assert abs(xt.mean() - want_mean) / abs(want_mean) < 0.01
        assert abs(xt.std() - want_std) / want_std < 0.01

    def test_per_sample_t_array(self):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((3, 5))
        t = np.array([10, 500, 900])
        noise = np.zeros_like(x0)
        out = df.q_sample(x0, t, noise, SCHED_1000)
        for i, ti in enumerate(t):
            np.testing.assert_allclose(
                out[i], np.sqrt(SCHED_1000.alpha_bars[ti]) * x0[i])

    def test_out_of_range_t(self):
        x0 = np.zeros((2, 2))
        with pytest.raises(IndexError):
            df.q_sample(x0, 1001, np.zeros_like(x0), SCHED_1000)

    def test_noise_shape_mismatch(self):
        with pytest.raises(ShapeError):
            df.q_sample(np.zeros((2, 2)), 5, np.zeros((2, 3)), SCHED_1000)


class TestPSampleStep:
    def test_final_step_deterministic(self):
        rng = np.random.default_rng(4)
        x1 = rng.standard_normal((3, 4))
        x0h = rng.standard_normal((3, 4))
        a = df.p_sample_step(x1, 1, x0h, SCHED_1000,
                             rng.standard_normal(x1.shape))
        b = df.p_sample_step(x1, 1, x0h, SCHED_1000,
                             rng.standard_normal(x1.shape))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a, x0h)      # posterior collapses onto x0_hat

    def test_posterior_mean_recovers_scaled_x0(self):
        # exact x0_hat and noiseless x_t: the expected next state is
        # sqrt(alpha_bar_{t-1}) x0
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((2, 3))
        t = 700
        xt = df.q_sample(x0, t, np.zeros_like(x0), SCHED_1000)
        out = df.p_sample_step(xt, t, x0, SCHED_1000, noise=None)
        np.testing.assert_allclose(
            out, np.sqrt(SCHED_1000.alpha_bars[t - 1]) * x0, atol=1e-12)

    def test_noise_variance_matches_posterior(self):
        rng = np.random.default_rng(6)
        t = 500
        xt = np.zeros((200_000, 1))
        x0h = np.zeros_like(xt)
        out = df.p_sample_step(xt, t, x0h, SCHED_1000,
                               rng.standard_normal(xt.shape))
        var = out.var()
        want = SCHED_1000.posterior_var[t]
        assert abs(var - want) / want < 0.02

    def test_strided_step_matches_closed_form(self):
        """t -> t_prev skipping steps uses the posterior of that pair, with
        alpha = abar_t / abar_prev: its mean and its noise scale."""
        rng = np.random.default_rng(8)
        t, t_prev = 700, 650
        ab, ab_prev = SCHED_1000.alpha_bars[t], SCHED_1000.alpha_bars[t_prev]
        alpha = ab / ab_prev
        xt, x0h, noise = rng.standard_normal((3, 4, 5))
        mean = (np.sqrt(ab_prev) * (1.0 - alpha) * x0h
                + np.sqrt(alpha) * (1.0 - ab_prev) * xt) / (1.0 - ab)
        std = np.sqrt((1.0 - ab_prev) / (1.0 - ab) * (1.0 - alpha))
        assert std > 2.0 * np.sqrt(SCHED_1000.posterior_var[t])
        quiet = df.p_sample_step(xt, t, x0h, SCHED_1000, t_prev=t_prev)
        np.testing.assert_allclose(quiet, mean, rtol=1e-12, atol=1e-12)
        noisy = df.p_sample_step(xt, t, x0h, SCHED_1000, noise, t_prev=t_prev)
        np.testing.assert_allclose(noisy - quiet, std * noise, rtol=1e-12,
                                   atol=1e-12)

    @pytest.mark.parametrize("t_prev", [5, 6])
    def test_step_that_does_not_go_down_is_contract_error(self, t_prev):
        with pytest.raises(ContractError):
            df.p_sample_step(np.zeros(2), 5, np.zeros(2), SCHED_1000,
                             t_prev=t_prev)


class TestSampling:
    def test_stub_model_collapses_to_zero(self):
        sched = df.cosine_schedule(100)
        out = df.sample_array(lambda x, t: np.zeros_like(x), (8, 20), sched,
                              np.random.default_rng(7))
        assert np.abs(out.mean()) < 0.05

    def test_fixed_seed_bit_identical(self):
        sched = df.cosine_schedule(50)
        model = lambda x, t: x * 0.5
        a = df.sample_array(model, (4, 10), sched, np.random.default_rng(8))
        b = df.sample_array(model, (4, 10), sched, np.random.default_rng(8))
        assert np.array_equal(a, b)

    def test_oracle_denoiser_reconstructs(self):
        rng = np.random.default_rng(9)
        x_true = rng.standard_normal((6, 30))
        out = df.sample_array(lambda x, t: x_true, x_true.shape, SCHED_1000,
                              np.random.default_rng(10))
        rmse = np.sqrt(np.mean((out - x_true) ** 2))
        assert rmse < 0.05

    @pytest.mark.parametrize("count", [1000, 100, 4])
    def test_step_subsets_execute(self, count):
        rng = np.random.default_rng(11)
        x_true = rng.standard_normal((3, 12))
        subset = df.stride_subset(1000, count)
        assert len(subset) == count
        assert subset[0] == 1000 and subset[-1] == 1
        out = df.sample_array(lambda x, t: x_true, x_true.shape, SCHED_1000,
                              np.random.default_rng(12), subset)
        assert np.isfinite(out).all()
        assert np.sqrt(np.mean((out - x_true) ** 2)) < 0.05

    def test_invalid_subset_rejected(self):
        with pytest.raises(ContractError):
            df.sample_array(lambda x, t: x, (2, 2), SCHED_1000,
                            np.random.default_rng(0), step_subset=[5, 10])

    def test_model_shape_mismatch_rejected(self):
        sched = df.cosine_schedule(10)
        with pytest.raises(ShapeError):
            df.sample_array(lambda x, t: x[:, :1], (2, 4), sched,
                            np.random.default_rng(0))

    def test_sample_returns_motion_sequence(self):
        from sonomotion.denoiser import DenoiserConfig, MotionDenoiser, sample_motion
        from sonomotion.skeleton import MotionSequence
        rng = np.random.default_rng(13)
        cfg = DenoiserConfig(latent=16, heads=2, layers=1, audio_width=12,
                             max_frames=6)
        model = MotionDenoiser(cfg, rng)
        m = sample_motion(model, df.cosine_schedule(20), rng.standard_normal((6, 12)),
                          rng.standard_normal((6, 3)), 1, rng, fps=30.0)
        assert isinstance(m, MotionSequence)
        assert m.frames == 6 and m.fps == 30.0
