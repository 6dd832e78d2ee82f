"""Encoder-only transformer that predicts clean motion from noisy motion.

Token layout:
    [timestep | genre | audio+ssl frame tokens (T) | motion tokens (T)]
so the sequence length is 2T + 2 and the prediction is read from the last T
output tokens. Each frame token projects that frame's audio features and
sound-source location together. The last block computes only those T motion
rows; their queries still attend over all 2T + 2 tokens.

Every model entry point takes batched (B, T, width) arrays, with one timestep
and one genre per item; only ``sample_motion`` takes one clip and adds the
batch axis itself. Training reads ``dataset.TrainSample`` records, stacked
once by ``dataset.stack_samples``.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Generator
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .audio import FEATURE_WIDTH
from .autodiff import Tensor
from .checkpoint import save_checkpoint, write_atomically
from .dataset import TrainSample, stack_samples
from .diffusion import NoiseSchedule, q_sample, sample_array
from .errors import ConfigError, ContractError, NumericError
from .losses import (FOOT_MODES, LossWeights, l_data, l_foot, l_geo, l_rot,
                     l_traj, target_positions, total_loss)
from .nn import (EncoderBlock, Embedding, LayerNorm, Linear, Module,
                 sinusoidal_embedding)
from .optim import AdamW, fit
from .skeleton import (FRAME_WIDTH, POS_SLICE, SSL_WIDTH, MotionSequence,
                       SkeletonSpec, compute_velocities, detect_foot_contacts,
                       disassemble_vector)


@dataclass
class DenoiserConfig:
    latent: int = 512
    heads: int = 8
    layers: int = 4
    ff_mult: int = 4
    motion_width: int = FRAME_WIDTH
    audio_width: int = FEATURE_WIDTH
    ssl_width: int = SSL_WIDTH
    genre_vocab: int = 3
    max_frames: int = 240

    def __post_init__(self):
        for name in ("latent", "heads", "layers", "ff_mult", "max_frames"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.latent % self.heads:
            raise ConfigError(f"latent {self.latent} not divisible by "
                              f"{self.heads} heads")


class MotionDenoiser(Module):
    """G(x_t, t; a, s, g) -> x0_hat.

    With ``rng=None`` the weights are allocated but not drawn, for a model a
    checkpoint is about to fill."""

    def __init__(self, config: DenoiserConfig, rng: np.random.Generator | None):
        d = config.latent
        self.config = config
        self.time_proj = Linear(d, d, rng)
        self.genre_emb = Embedding(config.genre_vocab, d, rng)
        self.cond_proj = Linear(config.audio_width + config.ssl_width, d, rng)
        self.motion_proj = Linear(config.motion_width, d, rng)
        shape = (2 * config.max_frames + 2, d)    # time, genre, T conds, T frames
        self.pos_emb = Tensor(np.empty(shape) if rng is None
                              else rng.uniform(-0.02, 0.02, shape), requires_grad=True)
        self.blocks = [EncoderBlock(d, config.heads, config.ff_mult, rng)
                       for _ in range(config.layers)]
        self.final_norm = LayerNorm(d)
        self.head = Linear(d, config.motion_width, rng)

    # -- condition handling -------------------------------------------------

    def _coerce(self, x, t, a, s, g):
        """Check batched (B, T, .) motion, audio and SSL arrays against the
        config; returns t and g as (B,) int arrays."""
        if not np.ndim(x) == np.ndim(a) == np.ndim(s) == 3:
            raise ContractError(
                f"inputs must be batched (B, T, width): motion {np.shape(x)}, "
                f"audio {np.shape(a)}, ssl {np.shape(s)}")
        t_arr = np.atleast_1d(np.asarray(t, dtype=np.int64))
        g_arr = np.atleast_1d(np.asarray(g, dtype=np.int64))
        b, frames, w = x.shape
        if w != self.config.motion_width:
            raise ContractError(f"motion width {w} != {self.config.motion_width}")
        if frames > self.config.max_frames:
            raise ContractError(
                f"{frames} frames exceed configured max {self.config.max_frames}")
        if a.shape != (b, frames, self.config.audio_width):
            raise ContractError(
                f"audio shape {a.shape} != {(b, frames, self.config.audio_width)}")
        if s.shape != (b, frames, self.config.ssl_width):
            raise ContractError(
                f"ssl shape {s.shape} != {(b, frames, self.config.ssl_width)}")
        if t_arr.shape != (b,) or g_arr.shape != (b,):
            raise ContractError("t and g must supply one value per batch item")
        if g_arr.min() < 0 or g_arr.max() >= self.config.genre_vocab:
            raise ContractError(f"genre ids must lie in 0..{self.config.genre_vocab - 1}")
        return t_arr, g_arr

    def embed_conditions(self, t, a, s, g) -> Tensor:
        """Condition token sequence: timestep, genre, then per-frame tokens."""
        x = np.zeros(np.shape(a)[:-1] + (self.config.motion_width,))
        t_arr, g_arr = self._coerce(x, t, a, s, g)
        return ad.concat([self._time_token(t_arr), self.encode_conditions(a, s, g_arr)],
                         axis=1)

    def _time_token(self, t_arr) -> Tensor:
        return self.time_proj(
            Tensor(sinusoidal_embedding(t_arr, self.config.latent)[:, None, :]))

    def encode_conditions(self, a, s, g) -> Tensor:
        """Genre and per-frame tokens of batched (B, T, .) audio and SSL: they do
        not depend on the timestep, so a sampler encodes them once per sequence."""
        g_tok = self.genre_emb(np.asarray(g)[:, None])
        frame_tok = self.cond_proj(Tensor(np.concatenate([a, s], axis=2)))
        return ad.concat([g_tok, frame_tok], axis=1)

    # -- forward -------------------------------------------------------------

    def predict_x0(self, x_t, t, a, s, g, *, cond: Tensor | None = None) -> Tensor:
        """x0_hat; ``cond`` may hold ``encode_conditions(a, s, g)`` to reuse."""
        t_arr, g_arr = self._coerce(x_t, t, a, s, g)
        frames = x_t.shape[1]
        if cond is None:
            cond = self.encode_conditions(a, s, g_arr)
        motion_tok = self.motion_proj(Tensor(x_t))
        tokens = ad.concat([self._time_token(t_arr), cond, motion_tok], axis=1)
        tokens = ad.add(tokens, self.pos_emb[:tokens.shape[1], :])
        last = len(self.blocks) - 1
        for i, block in enumerate(self.blocks):
            # the head reads only the motion rows, so the last block computes no others
            tokens = block(tokens, tail=frames if i == last else None)
            ad.check_finite(tokens.data, f"transformer layer {i}")
        out = self.head(self.final_norm(tokens))
        ad.check_finite(out.data, "the output head")
        return out


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    epochs: int = 2000
    batch_size: int = 8
    lr: float = 1e-4
    weight_decay: float = 0.0
    seed: int = 0
    checkpoint_every: int = 0           # 0 disables periodic checkpoints
    out_dir: str | None = None
    foot_mode: str = "magnitude"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not 0 < self.lr < np.inf:     # also rejects nan
            raise ConfigError("learning rate must be positive and finite")
        if not 0 <= self.weight_decay < np.inf:
            raise ConfigError("weight_decay must be >= 0 and finite")
        if self.seed < 0 or self.checkpoint_every < 0:
            raise ConfigError("seed and checkpoint_every must be >= 0")
        if self.foot_mode not in FOOT_MODES:
            raise ConfigError(f"foot_mode must be one of {', '.join(FOOT_MODES)}, "
                              f"got {self.foot_mode!r}")


def dataset_fingerprint(samples: list[TrainSample]) -> str:
    h = hashlib.sha256()
    for s in samples:
        for arr in (s.x0, s.audio, s.ssl):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(bytes([s.genre]))
    return h.hexdigest()[:16]


def write_model_card(path, config: DenoiserConfig, train_cfg: TrainConfig,
                     data_hash: str) -> None:
    lines = ["sonomotion denoiser model card",
             f"created: {time.strftime('%Y-%m-%d %H:%M:%S')}",
             f"data_hash: {data_hash}",
             "", "[model]"]
    lines += [f"{k} = {v}" for k, v in asdict(config).items()]
    lines += ["", "[training]"]
    lines += [f"{k} = {v}" for k, v in asdict(train_cfg).items()]
    text = "\n".join(lines) + "\n"
    write_atomically(path, lambda f: f.write(text.encode()))


def train_denoiser(model: MotionDenoiser, schedule: NoiseSchedule, samples,
                   skel: SkeletonSpec, train_cfg: TrainConfig,
                   weights: LossWeights | None = None, fps: float = 30.0,
                   log_fn=None) -> dict[str, list[float]]:
    """Standard x0-prediction training loop.

    Per step: draw a batch, sample per-item timesteps uniformly from
    1..steps, noise the clean motion, predict x0, apply the weighted loss,
    and take one AdamW step. Returns per-epoch curves for every term.
    """
    if not samples:
        raise ContractError("empty training set")
    if weights is None:
        weights = LossWeights.with_schedule(train_cfg.epochs)
    rng = np.random.default_rng(train_cfg.seed)
    opt = AdamW(model.parameters(), lr=train_cfg.lr,
                weight_decay=train_cfg.weight_decay)

    x0_all, audio_all, ssl_all, genre_all = stack_samples(samples)
    contact_all = np.stack([detect_foot_contacts(x0[:, POS_SLICE], fps, skel)
                            for x0 in x0_all])
    # the geometric term's targets are the same every epoch
    target_pos_all = target_positions(x0_all, skel)

    out_dir = Path(train_cfg.out_dir) if train_cfg.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_model_card(out_dir / "model_card.txt", model.config, train_cfg,
                         dataset_fingerprint(samples))

    def step(epoch, idx):
        x0 = x0_all[idx]
        t = rng.integers(1, schedule.steps + 1, size=idx.size)
        noise = rng.standard_normal(x0.shape)
        x_t = q_sample(x0, t, noise, schedule)
        pred = model.predict_x0(x_t, t, audio_all[idx], ssl_all[idx],
                                genre_all[idx])
        target = Tensor(x0)
        terms = {}
        # names read here, at call time: the benchmark's tracer wraps them
        for name, fn, extra in (
                ("data", l_data, ()),
                ("geo", l_geo, (skel, target_pos_all[idx])),
                ("foot", l_foot, (contact_all[idx], train_cfg.foot_mode)),
                ("traj", l_traj, ()),
                ("rot", l_rot, ())):
            try:
                terms[name] = fn(pred, target, *extra)
            except NumericError as e:
                raise NumericError(
                    f"loss term '{name}' failed at epoch {epoch}: {e}") from e
        terms["total"] = total_loss(terms, weights, epoch)[0]
        return terms["total"], terms

    keys = ("total", "data", "geo", "foot", "traj", "rot")

    def end_epoch(epoch, means):
        w = weights.at_epoch(epoch)
        line = " ".join([f"epoch={epoch}"]
                        + [f"{k}={means[k]:.6f}" for k in keys]
                        + [f"lambda_{k}={v:g}" for k, v in w.items()])
        if metrics_file:
            metrics_file.write(line + "\n")
            metrics_file.flush()
        if log_fn:
            log_fn(epoch, line)
        if (out_dir and train_cfg.checkpoint_every
                and (epoch + 1) % train_cfg.checkpoint_every == 0):
            save_checkpoint(out_dir / f"checkpoint_{epoch + 1:06d}.snm",
                            model.named_parameters())

    with (open(out_dir / "metrics.log", "w") if out_dir
          else nullcontext()) as metrics_file:
        curves = fit(opt, step, len(samples), train_cfg.batch_size,
                     train_cfg.epochs, rng, end_epoch)
        if out_dir:
            save_checkpoint(out_dir / "checkpoint_final.snm",
                            model.named_parameters())
    for k in ("traj", "rot"):
        curves[f"lambda_{k}"] = [weights.at_epoch(e)[k]
                                 for e in range(train_cfg.epochs)]
    return curves


def sample_motion(model: MotionDenoiser, schedule: NoiseSchedule,
                  audio: np.ndarray, ssl: np.ndarray, genre: int,
                  rng: np.random.Generator, steps=None, fps: float = 30.0,
                  recompute_velocity: bool = True
                  ) -> Generator[np.ndarray, None, MotionSequence]:
    """Draw one motion conditioned on one clip's (T, .) audio and SSL and its
    genre, as a batch of one, in ``steps`` reverse steps: a generator that
    yields after each step of ``sample_array`` and returns the
    ``MotionSequence`` (``diffusion.run_chain`` runs it to the end)."""
    audio, ssl, genre = audio[None], ssl[None], np.array([genre])
    cond = model.encode_conditions(audio, ssl, genre)

    def model_fn(x, t):
        return model.predict_x0(x, [t], audio, ssl, genre, cond=cond).data

    x = yield from sample_array(
        model_fn, (1, audio.shape[1], model.config.motion_width), schedule,
        rng, steps)
    m = disassemble_vector(x[0], fps)
    if recompute_velocity:
        m.v = compute_velocities(m.p, fps)
    return m
