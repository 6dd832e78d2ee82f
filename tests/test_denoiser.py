"""Condition embedding, clean-sample prediction, and the training loop."""

import os

import numpy as np
import pytest

from sonomotion import autodiff as ad
from sonomotion import losses
from sonomotion.autodiff import Tape, Tensor
from sonomotion.denoiser import (DenoiserConfig, MotionDenoiser, TrainConfig,
                                 TrainSample, sample_motion, train_denoiser,
                                 write_model_card)
from sonomotion.diffusion import cosine_schedule, sample_array
from sonomotion.errors import ConfigError, ContractError, NumericError
from sonomotion.losses import LossWeights
from sonomotion.nn import EncoderBlock
from sonomotion.skeleton import SkeletonSpec

TINY = DenoiserConfig(latent=16, heads=2, layers=1, ff_mult=2,
                      audio_width=12, ssl_width=3, max_frames=6)


def tiny_inputs(rng, b=2, t=4):
    x = rng.standard_normal((b, t, TINY.motion_width))
    a = rng.standard_normal((b, t, TINY.audio_width))
    s = rng.standard_normal((b, t, TINY.ssl_width))
    g = rng.integers(0, 3, b)
    ts = rng.integers(1, 50, b)
    return x, ts, a, s, g


class TestEmbedConditions:
    def test_token_count_t_plus_2(self):
        rng = np.random.default_rng(0)
        model = MotionDenoiser(TINY, rng)
        _, ts, a, s, g = tiny_inputs(rng, b=3, t=5)
        tokens = model.embed_conditions(ts, a, s, g)
        assert tokens.shape == (3, 5 + 2, TINY.latent)

    def test_distinct_genres_distinct_tokens(self):
        rng = np.random.default_rng(1)
        model = MotionDenoiser(TINY, rng)
        _, ts, a, s, _ = tiny_inputs(rng, b=2, t=4)
        t0 = model.embed_conditions(ts, a, s, np.array([0, 0]))
        t1 = model.embed_conditions(ts, a, s, np.array([1, 1]))
        genre0, genre1 = t0.data[:, 1], t1.data[:, 1]
        assert np.abs(genre0 - genre1).max() > 1e-6
        np.testing.assert_array_equal(t0.data[:, 0], t1.data[:, 0])  # timestep

    def test_timestep_tokens_distinct(self):
        rng = np.random.default_rng(2)
        model = MotionDenoiser(TINY, rng)
        _, _, a, s, g = tiny_inputs(rng, b=2, t=4)
        tok = model.embed_conditions(np.array([0, 999]), a, s, g)
        u, v = tok.data[0, 0], tok.data[1, 0]
        cos = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        assert cos < 0.999


class TestPredictX0:
    def test_output_shape_full_scale_config(self):
        cfg = DenoiserConfig(latent=32, heads=4, layers=1, max_frames=240)
        rng = np.random.default_rng(4)
        model = MotionDenoiser(cfg, rng)
        t_frames = 240
        x = rng.standard_normal((t_frames, 300))
        a = rng.standard_normal((t_frames, 2272))
        s = rng.standard_normal((t_frames, 3))
        out = model.predict_x0(x, 17, a, s, 1)
        assert out.shape == (240, 300)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        model = MotionDenoiser(TINY, rng)
        x, ts, a, s, g = tiny_inputs(np.random.default_rng(6))
        o1 = model.predict_x0(x, ts, a, s, g)
        o2 = model.predict_x0(x, ts, a, s, g)
        assert np.array_equal(o1.data, o2.data)

    def test_permutation_sensitivity(self):
        rng = np.random.default_rng(7)
        model = MotionDenoiser(TINY, rng)
        x, ts, a, s, g = tiny_inputs(np.random.default_rng(8))
        base = model.predict_x0(x, ts, a, s, g).data
        swapped = x.copy()
        swapped[:, [0, 2]] = swapped[:, [2, 0]]
        out = model.predict_x0(swapped, ts, a, s, g).data
        assert np.abs(out[:, 0] - base[:, 0]).max() > 1e-8

    def test_shape_contract_errors(self):
        rng = np.random.default_rng(9)
        model = MotionDenoiser(TINY, rng)
        x, ts, a, s, g = tiny_inputs(np.random.default_rng(10))
        with pytest.raises(ContractError):
            model.predict_x0(x[..., :200], ts, a, s, g)
        with pytest.raises(ContractError):
            model.predict_x0(x, ts, a[..., :5], s, g)
        with pytest.raises(ContractError):
            model.predict_x0(x, ts, a, s, np.array([0, 5]))

    def test_gradcheck_through_model(self):
        rng = np.random.default_rng(11)
        model = MotionDenoiser(TINY, rng)
        irng = np.random.default_rng(12)
        x, ts, a, s, g = tiny_inputs(irng, b=1, t=3)
        w = irng.standard_normal((1, 3, 300))

        params = model.named_parameters()
        with Tape() as tape:
            out = model.predict_x0(x, ts, a, s, g)
            loss = ad.sum_(ad.mul(out, w))
            tape.backward(loss)

        def scalar():
            return float(np.sum(model.predict_x0(x, ts, a, s, g).data * w))

        check = {"time_proj.w": None, "blocks.0.attn.wq.w": None,
                 "blocks.0.ff.w1.b": None, "head.w": None,
                 "pos_emb": None, "genre_emb.table": None,
                 "cond_proj.w": None, "final_norm.gain": None}
        prng = np.random.default_rng(13)
        for name, tensor in params:
            if name not in check:
                continue
            flat = tensor.data.reshape(-1)
            gflat = tensor.grad.reshape(-1)
            for idx in prng.choice(flat.size, size=min(4, flat.size),
                                   replace=False):
                orig = flat[idx]
                step = 1e-5
                flat[idx] = orig + step
                hi = scalar()
                flat[idx] = orig - step
                lo = scalar()
                flat[idx] = orig
                num = (hi - lo) / (2 * step)
                # rel 1e-4 with an absolute floor for near-zero entries
                assert abs(gflat[idx] - num) < 1e-7 + 1e-4 * abs(num), \
                    f"{name}[{idx}]: {gflat[idx]} vs {num}"
            check[name] = True
        assert all(check.values()), f"missing parameters: {check}"

    def test_forward_finite_at_init(self):
        rng = np.random.default_rng(14)
        model = MotionDenoiser(TINY, rng)
        x, ts, a, s, g = tiny_inputs(np.random.default_rng(15))
        out = model.predict_x0(x * 10, ts, a * 10, s, g)
        assert np.isfinite(out.data).all()

    def test_nan_block_weight_names_the_layer(self):
        model = MotionDenoiser(TINY, np.random.default_rng(16))
        model.blocks[0].ff.w1.w.data[0, 0] = np.nan
        x, ts, a, s, g = tiny_inputs(np.random.default_rng(17))
        with pytest.raises(NumericError, match="transformer layer 0"):
            model.predict_x0(x, ts, a, s, g)

    @staticmethod
    def _full_rows_x0(model, x, t, a, s, g) -> Tensor:
        """Reference for predict_x0: every block computes all 2T + 2 rows, and
        the motion rows are sliced off before the head."""
        x, t, a, s, g, _ = model._coerce(x, t, a, s, g)
        tokens = ad.concat([model._time_token(t), model.encode_conditions(a, s, g),
                            model.motion_proj(Tensor(x))], axis=1)
        tokens = ad.add(tokens, model.pos_emb[:tokens.shape[1], :])
        for block in model.blocks:
            tokens = block(tokens)
        return model.head(model.final_norm(tokens[:, tokens.shape[1] - x.shape[1]:, :]))

    def test_encoder_block_tail_equals_last_rows(self):
        rng = np.random.default_rng(20)
        block = EncoderBlock(32, 4, 2, rng)
        x = Tensor(rng.standard_normal((3, 11, 32)))
        full = block(x).data
        for tail in (1, 4, 11):
            np.testing.assert_allclose(block(x, tail).data, full[:, -tail:],
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cfg, b, frames", [
        (DenoiserConfig(latent=64, heads=4, layers=2, max_frames=60), 8, 60),
        (DenoiserConfig(), 1, 240)], ids=["desk", "full"])
    def test_predict_x0_equals_full_rows_reference(self, cfg, b, frames):
        model = MotionDenoiser(cfg, np.random.default_rng(21))
        rng = np.random.default_rng(22)
        x = rng.standard_normal((b, frames, cfg.motion_width))
        a = rng.standard_normal((b, frames, cfg.audio_width))
        s = rng.standard_normal((b, frames, cfg.ssl_width))
        t, g = rng.integers(1, 1000, b), rng.integers(0, cfg.genre_vocab, b)
        want = self._full_rows_x0(model, x, t, a, s, g).data
        got = model.predict_x0(x, t, a, s, g).data
        assert got.shape == want.shape == (b, frames, cfg.motion_width)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    def test_tail_gradients_equal_full_rows_reference(self):
        """Parameter gradients of the five-term loss through the last block's
        motion rows equal those through the full-row reference, relative to
        the largest gradient entry (the key biases' exact gradient is zero, as
        softmax ignores a shift shared by a row's scores)."""
        model, tape, loss = self._desk_shape_step()
        tape.backward(loss)
        ref, tape, loss = self._desk_shape_step(self._full_rows_x0)
        tape.backward(loss)
        scale = max(np.abs(q.grad).max() for q in ref.parameters())
        for (name, p), (_, q) in zip(model.named_parameters(), ref.named_parameters()):
            np.testing.assert_allclose(p.grad, q.grad, rtol=0, atol=1e-10 * scale,
                                       err_msg=name)

    @staticmethod
    def _desk_shape_step(forward=MotionDenoiser.predict_x0):
        """Record one train step at B=2, T=16, latent 32 through ``forward``
        (model, x_t, t, a, s, g) -> x0_hat; returns the model, the tape and
        the total loss."""
        cfg = DenoiserConfig(latent=32, heads=4, layers=2, max_frames=16)
        model = MotionDenoiser(cfg, np.random.default_rng(18))
        rng = np.random.default_rng(19)
        x0 = rng.standard_normal((2, 16, 300)) * 0.3
        a, s = rng.standard_normal((2, 16, 2272)), rng.standard_normal((2, 16, 3))
        skel = SkeletonSpec.default()
        with Tape() as tape:
            pred = forward(model, x0, np.array([3, 9]), a, s, np.array([0, 2]))
            target = Tensor(x0)
            terms = {"data": losses.l_data(pred, target),
                     "geo": losses.l_geo(pred, target, skel),
                     "foot": losses.l_foot(pred, target, rng.random((2, 16, 2)) < 0.5),
                     "traj": losses.l_traj(pred, target),
                     "rot": losses.l_rot(pred, target)}
            loss, _ = losses.total_loss(terms, LossWeights(), 0)
        return model, tape, loss

    def test_desk_shape_train_step_tape_nodes(self):
        """One tape node per fused linear, attention and fk call: a train step
        at B=2, T=16, latent 32 records 118 nodes (305 before the fused ops).
        The last block's two row slices replace the slice before the head, and
        the time and genre tokens come out of their ops already (B, 1, d)."""
        _, tape, _ = self._desk_shape_step()
        assert len(tape) <= 118

    def test_backward_keeps_no_intermediate_gradients(self):
        """Only the leaves get ``.grad``; the parameter gradients match, bit
        for bit, a reverse sweep that keeps every node's output gradient."""
        model, tape, loss = self._desk_shape_step()
        kept = {id(loss): np.ones_like(loss.data)}
        for out, inputs, backward_fn in reversed(tape._nodes):
            g = kept.get(id(out))
            if g is None:
                continue
            for t, ig in zip(inputs, backward_fn(g)):
                if ig is not None and t.requires_grad:
                    acc = kept.get(id(t))
                    kept[id(t)] = ig if acc is None else acc + ig
        tape.backward(loss)
        assert all(out.grad is None for out, _, _ in tape._nodes)
        for name, p in model.named_parameters():
            want = kept.get(id(p), np.zeros_like(p.data))
            assert p.grad.tobytes() == want.tobytes(), name

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DenoiserConfig(latent=30, heads=4)
        for name in ("latent", "heads", "layers", "ff_mult", "max_frames"):
            with pytest.raises(ConfigError, match=name):
                DenoiserConfig(**{name: 0})


class TestTraining:
    def _samples(self, rng, n=2, frames=6):
        from sonomotion.skeleton import (forward_kinematics, matrix_to_sixd,
                                         rotation_z, compute_velocities)
        skel = SkeletonSpec.default()
        out = []
        for _ in range(n):
            yaw = rng.uniform(-0.3, 0.3, frames)
            rot = np.tile(np.eye(3), (frames, 25, 1, 1))
            rot[:, 0] = rotation_z(yaw)
            root = rng.standard_normal((frames, 3)) * 0.05
            root[:, 2] += 0.9
            p = forward_kinematics(skel, root, rot).reshape(frames, -1)
            x0 = np.concatenate([p, matrix_to_sixd(rot).reshape(frames, -1),
                                 compute_velocities(p, 30.0)], axis=1)
            a = rng.standard_normal((frames, TINY.audio_width))
            s = rng.standard_normal((frames, 3))
            out.append(TrainSample(x0, a, s, int(rng.integers(0, 3))))
        return out, skel

    def test_overfit_single_sample_loss_decreases(self):
        rng = np.random.default_rng(16)
        samples, skel = self._samples(rng, n=1)
        model = MotionDenoiser(TINY, np.random.default_rng(17))
        sched = cosine_schedule(10)
        cfg = TrainConfig(epochs=50, batch_size=1, lr=3e-3, seed=0)
        curves = train_denoiser(model, sched, samples, skel, cfg)
        total = np.asarray(curves["total"])
        # smoothed view: means of 10-epoch blocks must fall monotonically
        blocks = total.reshape(5, 10).mean(axis=1)
        assert np.all(np.diff(blocks) < 0)
        assert blocks[-1] < blocks[0] * 0.5

    def test_lambda_schedule_flips_in_curves_and_log(self, tmp_path):
        rng = np.random.default_rng(18)
        samples, skel = self._samples(rng, n=2)
        model = MotionDenoiser(TINY, np.random.default_rng(19))
        sched = cosine_schedule(10)
        epochs = 12
        cfg = TrainConfig(epochs=epochs, batch_size=2, lr=1e-3, seed=0,
                          out_dir=str(tmp_path))
        curves = train_denoiser(model, sched, samples, skel, cfg,
                                weights=LossWeights.with_schedule(epochs))
        bump = (5 * epochs) // 6
        lam = curves["lambda_traj"]
        assert lam[bump - 1] == 1.0 and lam[bump] == 3.0
        assert curves["lambda_rot"][bump] == 3.0
        log_lines = (tmp_path / "metrics.log").read_text().splitlines()
        assert "lambda_traj=1" in log_lines[bump - 1]
        assert "lambda_traj=3" in log_lines[bump]
        assert [tok.split("=")[0] for tok in log_lines[0].split(" ")] == [
            "epoch", "total", "data", "geo", "foot", "traj", "rot", "lambda_data",
            "lambda_geo", "lambda_foot", "lambda_traj", "lambda_rot"]
        assert (tmp_path / "model_card.txt").exists()
        assert (tmp_path / "checkpoint_final.snm").exists()

    def test_fixed_seed_identical_curves(self):
        rng = np.random.default_rng(20)
        samples, skel = self._samples(rng, n=2)
        sched = cosine_schedule(10)

        def run():
            model = MotionDenoiser(TINY, np.random.default_rng(21))
            cfg = TrainConfig(epochs=5, batch_size=2, lr=1e-3, seed=7)
            return train_denoiser(model, sched, samples, skel, cfg)["total"]

        assert run() == run()

    def test_checkpoint_every(self, tmp_path):
        rng = np.random.default_rng(22)
        samples, skel = self._samples(rng, n=2)
        model = MotionDenoiser(TINY, np.random.default_rng(23))
        sched = cosine_schedule(10)
        cfg = TrainConfig(epochs=4, batch_size=2, lr=1e-3, seed=0,
                          checkpoint_every=2, out_dir=str(tmp_path))
        train_denoiser(model, sched, samples, skel, cfg)
        assert (tmp_path / "checkpoint_000002.snm").exists()
        assert (tmp_path / "checkpoint_000004.snm").exists()

    def test_model_card_written_atomically(self, tmp_path, monkeypatch):
        """A failed rename leaves the old card and no temporary file."""
        path = tmp_path / "model_card.txt"
        write_model_card(path, TINY, TrainConfig(), "old")
        before = path.read_bytes()
        assert b"data_hash: old\n" in before

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            write_model_card(path, TINY, TrainConfig(), "new")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model_card.txt"]


class TestSampling:
    def test_conditions_encoded_once_per_sequence(self):
        model = MotionDenoiser(TINY, np.random.default_rng(30))
        irng = np.random.default_rng(31)
        a, s = irng.standard_normal((5, 12)), irng.standard_normal((5, 3))
        schedule = cosine_schedule(20)
        steps = [20, 14, 9, 4, 1]

        def model_fn(x, t):
            return model.predict_x0(x, t, a, s, 2).data

        want = sample_array(model_fn, (5, 300), schedule,
                            np.random.default_rng(32), steps)
        calls = []
        cond_proj = model.cond_proj
        model.cond_proj = lambda x: calls.append(1) or cond_proj(x)
        got = sample_motion(model, schedule, a, s, 2, np.random.default_rng(32),
                            steps, recompute_velocity=False)
        assert len(calls) == 1
        np.testing.assert_array_equal(got.p.reshape(5, -1), want[:, :75])
