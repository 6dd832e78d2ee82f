"""Contrastive loss, extractor training, and the four metric oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from sonomotion import evalsuite as ev
from sonomotion.autodiff import Tensor
from sonomotion.errors import ContractError, NumericError, SamplingError
from sonomotion.gradcheck import check_scalar_fn


class TestContrastiveLoss:
    def test_matched_identical_zero(self):
        c = np.ones((3, 8))
        out = ev.contrastive_loss(c, c.copy(), np.zeros(3))
        assert out.item() < 1e-10

    def test_mismatch_beyond_margin_zero(self):
        c = np.zeros((1, 4))
        m = np.zeros((1, 4))
        m[0, 0] = 12.0                      # D = 12 > margin 10
        out = ev.contrastive_loss(c, m, np.ones(1), margin=10.0)
        assert out.item() == 0.0

    def test_mismatch_inside_margin(self):
        c = np.zeros((1, 4))
        m = np.zeros((1, 4))
        m[0, 0] = 4.0                       # D = 4 -> (10-4)^2 = 36
        out = ev.contrastive_loss(c, m, np.ones(1), margin=10.0)
        np.testing.assert_allclose(out.item(), 36.0, rtol=1e-9)

    def test_matched_pair_squared_distance(self):
        c = np.zeros((1, 4))
        m = np.zeros((1, 4))
        m[0, 1] = 3.0
        out = ev.contrastive_loss(c, m, np.zeros(1))
        np.testing.assert_allclose(out.item(), 9.0, rtol=1e-9)

    def test_gradcheck(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal((4, 6))
        m = rng.standard_normal((4, 6)) + 2.0
        y = np.array([0.0, 1.0, 0.0, 1.0])
        err = check_scalar_fn(
            lambda a, b: ev.contrastive_loss(a, b, y, margin=10.0), [c, m])
        assert err < 1e-4


class TestRPrecision:
    def test_perfect_features_top1(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((40, 8)) * 10
        out = ev.r_precision(feats, feats, pool_size=32, resamples=5,
                             rng=np.random.default_rng(2))
        assert out["top1"] == 1.0

    def test_random_features_chance_level(self):
        rng = np.random.default_rng(3)
        n, resamples = 250, 40        # 10_000 ranking trials
        cond = rng.standard_normal((n, 16))
        mot = rng.standard_normal((n, 16))
        out = ev.r_precision(cond, mot, pool_size=32, resamples=resamples,
                             rng=np.random.default_rng(4))
        assert abs(out["top1"] - 1.0 / 32.0) < 0.02

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        cond = rng.standard_normal((64, 8))
        mot = cond + rng.standard_normal((64, 8))
        out = ev.r_precision(cond, mot, resamples=10,
                             rng=np.random.default_rng(6))
        assert out["top1"] <= out["top2"] <= out["top3"]

    def test_pool_underflow(self):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((10, 4))
        with pytest.raises(SamplingError):
            ev.r_precision(feats, feats, pool_size=32)


class TestFid:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((500, 12))
        assert ev.fid(x, x) < 1e-6

    def test_symmetric(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((400, 6))
        y = rng.standard_normal((400, 6)) + 0.5
        assert abs(ev.fid(x, y) - ev.fid(y, x)) < 1e-9

    def test_mean_shift_closed_form(self):
        rng = np.random.default_rng(10)
        k, n, d = 8, 10_000, 1.5
        x = rng.standard_normal((n, k))
        y = rng.standard_normal((n, k))
        y[:, 0] += d
        got = ev.fid(x, y)
        assert abs(got - d * d) / (d * d) < 0.02

    def test_variance_scale_closed_form(self):
        # N(0, I) vs N(0, 4I): trace term gives k * (2 - 1)^2 = k
        rng = np.random.default_rng(11)
        k, n = 6, 20_000
        x = rng.standard_normal((n, k))
        y = 2.0 * rng.standard_normal((n, k))
        want = k * (2.0 - 1.0) ** 2
        got = ev.fid(x, y)
        assert abs(got - want) / want < 0.02

    def test_fewer_samples_than_dims_shrinks(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((5, 16))
        y = rng.standard_normal((5, 16))
        val = ev.fid(x, y)
        assert np.isfinite(val) and val >= 0

    def test_ridge_writes_nothing_to_stderr(self):
        """FID of two 3 x 16 sets takes its ridge silently. It runs in a fresh
        interpreter, where no test harness captures a log record."""
        script = ("import numpy as np\n"
                  "from sonomotion import evalsuite as ev\n"
                  "rng = np.random.default_rng(12)\n"
                  "print(ev.fid(rng.standard_normal((3, 16)),\n"
                  "             rng.standard_normal((3, 16))))\n")
        src = str(Path(ev.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0 and run.stderr == ""
        assert np.isfinite(float(run.stdout))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ContractError):
            ev.fid(np.zeros((1, 3)), np.zeros((5, 3)))


class TestDiversity:
    def test_identical_features_zero(self):
        feats = np.tile(np.arange(6.0), (200, 1))
        mean, ci = ev.diversity(feats, subset_size=64,
                                rng=np.random.default_rng(13))
        assert mean == 0.0

    def test_gaussian_chi_mean(self):
        # E||X - Y|| for X, Y ~ N(0, I_k) is 2 Gamma((k+1)/2) / Gamma(k/2)
        rng = np.random.default_rng(14)
        k = 24
        feats = rng.standard_normal((4000, k))
        want = 2.0 * np.exp(gammaln((k + 1) / 2) - gammaln(k / 2))
        got, _ = ev.diversity(feats, subset_size=64, resamples=50,
                              rng=np.random.default_rng(15))
        assert abs(got - want) / want < 0.03

    def test_translation_invariant(self):
        rng = np.random.default_rng(16)
        feats = rng.standard_normal((300, 10))
        a, _ = ev.diversity(feats, subset_size=32, rng=np.random.default_rng(17))
        b, _ = ev.diversity(feats + 100.0, subset_size=32,
                            rng=np.random.default_rng(17))
        np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_insufficient_samples(self):
        with pytest.raises(SamplingError):
            ev.diversity(np.zeros((10, 4)), subset_size=64)


class TestApd:
    def test_identical_sequences_zero(self):
        m = np.tile(np.arange(12.0).reshape(1, 4, 3), (5, 1, 1))
        assert ev.apd(m) == 0.0

    def test_two_sequence_closed_form(self):
        # constant per-frame offset d over L frames -> APD = d * sqrt(L)
        L, d = 9, 0.7
        a = np.zeros((L, 5))
        b = a.copy()
        b[:, 2] = d
        got = ev.apd(np.stack([a, b]))
        np.testing.assert_allclose(got, d * np.sqrt(L), rtol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(18)
        m = rng.standard_normal((6, 8, 10))
        base = ev.apd(m)
        perm = m[rng.permutation(6)]
        np.testing.assert_allclose(ev.apd(perm), base, rtol=1e-12)

    def test_scales_linearly(self):
        rng = np.random.default_rng(19)
        m = rng.standard_normal((4, 5, 6))
        np.testing.assert_allclose(ev.apd(3.0 * m), 3.0 * ev.apd(m), rtol=1e-12)

    def test_single_sequence_rejected(self):
        with pytest.raises(ContractError):
            ev.apd(np.zeros((1, 4, 3)))


def separable_samples(rng, n_per_class=8, frames=10, audio_width=24):
    """Paired condition/motion toy set: class identity is linearly decodable
    from both sides, so contrastive training has signal to separate on."""
    samples = []
    for cls in range(3):
        for _ in range(n_per_class):
            a = np.zeros((frames, audio_width))
            a[:, cls * 4:(cls + 1) * 4] = 1.0
            a += rng.standard_normal(a.shape) * 0.05
            x0 = np.zeros((frames, 300))
            x0[:, cls * 30:(cls + 1) * 30] = 1.0
            x0 += rng.standard_normal(x0.shape) * 0.05
            s = rng.standard_normal((frames, 3)) * 0.1
            samples.append((x0, a, s, cls))
    return samples


TINY_EXT = ev.ExtractorConfig(audio_width=24, hidden=16, gru_layers=1,
                              ae_latent=16, ae_layers=1, ae_heads=2,
                              max_frames=10)


class TestExtractor:
    def test_condition_input_width(self):
        rng = np.random.default_rng(20)
        model = ev.ExtractorModel(TINY_EXT, rng)
        a = rng.standard_normal((2, 10, 24))
        s = rng.standard_normal((2, 10, 3))
        cond = model.condition_input(a, s, np.array([0, 2]))
        assert cond.shape == (2, 10, TINY_EXT.hidden)

    def test_training_separates_matched_pairs(self):
        rng = np.random.default_rng(21)
        samples = separable_samples(rng)
        cfg = ev.ExtractorTrainConfig(epochs=60, batch_size=8, lr=3e-3, seed=0)
        events = []
        model, curves = ev.train_extractor(
            samples, TINY_EXT, cfg, log_fn=lambda e, msg: events.append(msg))
        # autoencoder reconstruction improves during the unfrozen phase
        rec = curves["reconstruction"]
        assert rec[cfg.freeze_epoch - 1] < rec[0]
        # freeze event logged at floor(2/3 * epochs)
        assert any(f"epoch={cfg.freeze_epoch} autoencoder_frozen=1" in m
                   for m in events)
        cond, mot = ev.extract_features(model, samples)
        matched = np.linalg.norm(cond - mot, axis=1)
        # mismatches roll by a whole class stride so every pair crosses classes
        mism = np.linalg.norm(cond - np.roll(mot, 8, axis=0), axis=1)
        assert (matched < mism).mean() >= 0.95

    def test_frozen_autoencoder_stops_moving(self, monkeypatch):
        """The autoencoder moves in every epoch before the freeze epoch and in
        none from it on, while both GRU encoders keep moving."""
        rng = np.random.default_rng(22)
        samples = separable_samples(rng, n_per_class=3)
        built, states = [], []
        real_model = ev.ExtractorModel

        def snapshot(model):
            states.append({part: {name: t.data.copy() for name, t in
                                  getattr(model, part).named_parameters()}
                           for part in ("autoencoder", "cond_gru", "motion_gru")})

        def build(*args):
            built.append(real_model(*args))
            snapshot(built[0])
            return built[0]

        def log_fn(epoch, msg):
            if "contrastive=" in msg:
                snapshot(built[0])

        monkeypatch.setattr(ev, "ExtractorModel", build)
        cfg = ev.ExtractorTrainConfig(epochs=6, batch_size=4, lr=1e-3, seed=0)
        ev.train_extractor(samples, TINY_EXT, cfg, log_fn=log_fn)
        assert len(built) == 1 and len(states) == cfg.epochs + 1
        assert cfg.freeze_epoch == 4

        def moved(part, epoch):
            before, after = states[epoch][part], states[epoch + 1][part]
            return any(not np.array_equal(before[k], after[k]) for k in before)

        for epoch in range(cfg.epochs):
            assert moved("autoencoder", epoch) == (epoch < cfg.freeze_epoch)
            assert moved("cond_gru", epoch) and moved("motion_gru", epoch)

    def test_extract_features_batch_matches_single_items(self):
        """One batched pass over N items gives the features of N one-item
        batches, up to the summation order of the batched products."""
        samples = separable_samples(np.random.default_rng(24), n_per_class=2)
        model = ev.ExtractorModel(TINY_EXT, np.random.default_rng(25))
        cond, mot = ev.extract_features(model, samples)
        assert cond.shape == mot.shape == (len(samples), TINY_EXT.hidden)
        for i, s in enumerate(samples):
            one_cond, one_mot = ev.extract_features(model, [s])
            np.testing.assert_allclose(cond[i], one_cond[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(mot[i], one_mot[0], rtol=0, atol=1e-12)

    def test_autoencoder_rejects_more_frames_than_max(self):
        """More frames than ``max_frames`` is a ContractError that names both
        counts, not a broadcast failure against the positional table."""
        model = ev.ExtractorModel(TINY_EXT, np.random.default_rng(26))
        x = Tensor(np.zeros((2, TINY_EXT.max_frames + 1, 300)))
        with pytest.raises(ContractError, match="11 frames exceed configured "
                                                "max 10"):
            model.autoencoder(x)

    def test_non_finite_term_names_itself(self, monkeypatch):
        samples = separable_samples(np.random.default_rng(23), n_per_class=2)
        monkeypatch.setattr(ev, "contrastive_loss",
                            lambda *args: Tensor(np.array(np.nan)))
        cfg = ev.ExtractorTrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=0)
        with pytest.raises(NumericError, match="loss term 'contrastive' is "
                                               "non-finite at epoch 0"):
            ev.train_extractor(samples, TINY_EXT, cfg)
