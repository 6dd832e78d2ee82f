"""Evaluation stack: learned feature extractors and the four metrics.

The extractor couples a motion autoencoder (transformer encoder-decoder)
with two bidirectional GRU encoders: one embeds conditions (projected audio
concatenated with SSL and genre), the other embeds the autoencoder's
reconstruction of the motion. Matched condition/motion pairs are pulled
together and in-batch mismatches pushed apart by a margin contrastive loss;
the autoencoder trains on reconstruction and freezes for the final third of
the schedule.

The extractors take batched (B, T, width) arrays. Training and
``extract_features`` read lists of ``dataset.TrainSample`` records and stack
them once with ``dataset.stack_samples``; ``extract_features`` then encodes
all of them in one batched pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .audio import FEATURE_WIDTH
from .autodiff import Tensor
from .dataset import stack_samples
from .errors import ConfigError, ContractError, NumericError, SamplingError, ShapeError
from .nn import (BiGRUEncoder, DecoderBlock, EncoderBlock, LayerNorm, Linear,
                 Module)
from .optim import AdamW, fit
from .skeleton import FRAME_WIDTH, SSL_WIDTH

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# contrastive loss


def contrastive_loss(c: Tensor, m: Tensor, y, margin: float = 10.0) -> Tensor:
    """(1-y) D^2 + y max(0, margin - D)^2 with D = ||c - m||_2, mean over the
    rows of (B, width) features.

    y = 0 marks a matched pair, y = 1 a mismatched one.
    """
    c = c if isinstance(c, Tensor) else Tensor(c)
    m = m if isinstance(m, Tensor) else Tensor(m)
    if c.shape != m.shape:
        raise ShapeError(f"feature shapes differ: {c.shape} vs {m.shape}")
    y_arr = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y_arr.shape != (c.shape[0],):
        raise ShapeError(f"labels {y_arr.shape} != batch ({c.shape[0]},)")
    diff = ad.sub(c, m)
    d = ad.sqrt_(ad.add(ad.sum_(ad.mul(diff, diff), axis=-1), 1e-12))
    matched = ad.mul(ad.mul(d, d), 1.0 - y_arr)
    pushed = ad.relu(ad.sub(margin, d))
    mismatched = ad.mul(ad.mul(pushed, pushed), y_arr)
    return ad.mean(ad.add(matched, mismatched))


# ---------------------------------------------------------------------------
# extractor model


@dataclass
class ExtractorConfig:
    """Defaults are the desk-scale extractor that ``eval`` trains."""

    audio_width: int = FEATURE_WIDTH
    ssl_width: int = SSL_WIDTH
    hidden: int = 64
    gru_layers: int = 1
    ae_latent: int = 32
    ae_layers: int = 1
    ae_heads: int = 2
    max_frames: int = 240

    def __post_init__(self):
        if self.hidden <= self.ssl_width + 1:
            raise ConfigError("hidden width too small for the condition layout")
        for name in ("gru_layers", "ae_latent", "ae_layers", "ae_heads",
                     "max_frames"):
            if getattr(self, name) < 1:
                raise ConfigError(f"extractor {name} must be >= 1")
        if self.ae_latent % self.ae_heads:
            raise ConfigError(f"extractor ae_latent {self.ae_latent} not "
                              f"divisible by {self.ae_heads} ae_heads")


class MotionAutoencoder(Module):
    """Transformer encoder-decoder reconstructing (B, T, 300) sequences; its
    feed-forward layers are twice the latent width."""

    def __init__(self, cfg: ExtractorConfig, rng: np.random.Generator):
        d = cfg.ae_latent
        self.cfg = cfg
        self.in_proj = Linear(FRAME_WIDTH, d, rng)
        self.enc_pos = Tensor(rng.uniform(-0.02, 0.02, (cfg.max_frames, d)),
                              requires_grad=True)
        self.encoder = [EncoderBlock(d, cfg.ae_heads, 2, rng)
                        for _ in range(cfg.ae_layers)]
        self.queries = Tensor(rng.uniform(-0.02, 0.02, (cfg.max_frames, d)),
                              requires_grad=True)
        self.decoder = [DecoderBlock(d, cfg.ae_heads, 2, rng)
                        for _ in range(cfg.ae_layers)]
        self.final_norm = LayerNorm(d)
        self.out_proj = Linear(d, FRAME_WIDTH, rng)

    def __call__(self, x: Tensor) -> Tensor:
        b, t, _ = x.shape
        if t > self.cfg.max_frames:
            raise ContractError(
                f"{t} frames exceed configured max {self.cfg.max_frames}")
        h = ad.add(self.in_proj(x), self.enc_pos[:t, :])
        for block in self.encoder:
            h = block(h)
        q = ad.add(Tensor(np.zeros((b, t, self.cfg.ae_latent))),
                   self.queries[:t, :])
        for block in self.decoder:
            q = block(q, h)
        return self.out_proj(self.final_norm(q))


class ExtractorModel(Module):
    """Condition and motion feature extractors plus the motion autoencoder."""

    def __init__(self, cfg: ExtractorConfig, rng: np.random.Generator):
        self.cfg = cfg
        # the audio projection fills the condition vector up to SSL + genre
        self.audio_proj = Linear(cfg.audio_width, cfg.hidden - cfg.ssl_width - 1, rng)
        self.cond_gru = BiGRUEncoder(cfg.hidden, cfg.hidden, cfg.gru_layers,
                                     cfg.hidden, rng)
        self.motion_gru = BiGRUEncoder(FRAME_WIDTH, cfg.hidden,
                                       cfg.gru_layers, cfg.hidden, rng)
        self.autoencoder = MotionAutoencoder(cfg, rng)

    def condition_input(self, audio, ssl, genre) -> Tensor:
        """Per-frame [projected audio | ssl | genre scalar] of width ``hidden``
        for (B, T, .) audio and SSL and (B,) genres."""
        b, t, _ = audio.shape
        proj = self.audio_proj(Tensor(audio))
        g = np.asarray(genre, dtype=np.float64)
        g_col = np.broadcast_to(g[:, None, None], (b, t, 1))
        return ad.concat([proj, Tensor(ssl), Tensor(g_col)], axis=-1)

    def encode_condition(self, audio, ssl, genre) -> Tensor:
        return self.cond_gru(self.condition_input(audio, ssl, genre))

    def encode_motion(self, motion) -> Tensor:
        return self.motion_gru(self.autoencoder(Tensor(motion)))


@dataclass
class ExtractorTrainConfig:
    epochs: int = 40
    batch_size: int = 16
    lr: float = 5e-5
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("extractor epochs must be >= 1")
        if self.batch_size < 2:     # each contrastive pair needs two items
            raise ConfigError("extractor batch_size must be >= 2")
        if not 0 < self.lr < np.inf:     # also rejects nan
            raise ConfigError("extractor learning rate must be positive and finite")
        if self.seed < 0:
            raise ConfigError("extractor seed must be >= 0")

    @property
    def freeze_epoch(self) -> int:
        """The autoencoder trains for the first two thirds of the epochs."""
        return 2 * self.epochs // 3


def train_extractor(samples, cfg: ExtractorConfig,
                    train_cfg: ExtractorTrainConfig,
                    log_fn=None) -> tuple[ExtractorModel, dict[str, list[float]]]:
    """Joint contrastive + reconstruction training.

    ``samples`` is a list of ``TrainSample`` records (or tuples in their
    field order) of one length. Mismatched pairs are built in-batch, one per positive,
    by pairing each condition with the next item's motion. From the freeze
    epoch on, the reconstruction is detached, so the autoencoder gets no
    gradient and the optimizer leaves it as it is.
    """
    if len(samples) < 2:
        raise ContractError("extractor training needs at least 2 samples")
    rng = np.random.default_rng(train_cfg.seed)
    model = ExtractorModel(cfg, rng)
    opt = AdamW(model.parameters(), lr=train_cfg.lr)

    x0, audio, ssl, genre = stack_samples(samples)

    def step(epoch, idx):
        recon = model.autoencoder(Tensor(x0[idx]))
        if epoch >= train_cfg.freeze_epoch:
            recon = Tensor(recon.data)
        rec_loss = ad.mse(recon, Tensor(x0[idx]))
        cond = model.encode_condition(audio[idx], ssl[idx], genre[idx])
        mot = model.motion_gru(recon)
        mot_shift = ad.concat([mot[1:, :], mot[0:1, :]], axis=0)
        c_feats = ad.concat([cond, cond], axis=0)
        m_feats = ad.concat([mot, mot_shift], axis=0)
        y = np.concatenate([np.zeros(idx.size), np.ones(idx.size)])
        ctr_loss = contrastive_loss(c_feats, m_feats, y)
        return (ad.add(ctr_loss, rec_loss),
                {"contrastive": ctr_loss, "reconstruction": rec_loss})

    def end_epoch(epoch, means):
        if epoch == train_cfg.freeze_epoch:
            msg = f"epoch={epoch} autoencoder_frozen=1"
            log.info(msg)
            if log_fn:
                log_fn(epoch, msg)
        if log_fn:
            log_fn(epoch, f"epoch={epoch} contrastive={means['contrastive']:.6f} "
                          f"reconstruction={means['reconstruction']:.6f}")

    curves = fit(opt, step, len(samples), train_cfg.batch_size, train_cfg.epochs,
                 rng, end_epoch, min_batch=2)
    return model, curves


def extract_features(model: ExtractorModel, samples) -> tuple[np.ndarray, np.ndarray]:
    """Condition and motion features (N, hidden) of N same-length samples,
    in one batched pass."""
    x0, audio, ssl, genre = stack_samples(samples)
    return (model.encode_condition(audio, ssl, genre).data,
            model.encode_motion(x0).data)


# ---------------------------------------------------------------------------
# metrics


def _ci95(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / np.sqrt(values.size))


def r_precision(cond_feats: np.ndarray, motion_feats: np.ndarray,
                pool_size: int = 32, resamples: int = 20,
                rng: np.random.Generator | None = None) -> dict[str, float]:
    """Retrieval accuracy against (pool_size - 1) mismatched distractors.

    For every motion, its matched condition competes with randomly drawn
    mismatched conditions on Euclidean distance; top-k is the fraction of
    motions whose match ranks within the best k.
    """
    cond = np.asarray(cond_feats, dtype=np.float64)
    mot = np.asarray(motion_feats, dtype=np.float64)
    if cond.shape != mot.shape:
        raise ShapeError("condition/motion feature sets must align")
    n = cond.shape[0]
    if n < pool_size:
        raise SamplingError(f"need >= {pool_size} pairs, have {n}")
    rng = rng or np.random.default_rng(0)
    d = np.sqrt(np.maximum(
        np.sum(cond * cond, axis=1)[None, :]
        + np.sum(mot * mot, axis=1)[:, None]
        - 2.0 * mot @ cond.T, 0.0))          # d[i, j] = ||mot_i - cond_j||
    matched = np.diag(d)
    tops = {1: [], 2: [], 3: []}
    for _ in range(resamples):
        ranks = np.empty(n)
        for i in range(n):
            pool = rng.choice(n - 1, size=pool_size - 1, replace=False)
            pool = pool + (pool >= i)        # skip the matched column
            ranks[i] = 1 + np.sum(d[i, pool] < matched[i])
        for k in tops:
            tops[k].append(float(np.mean(ranks <= k)))
    out = {}
    for k in tops:
        arr = np.asarray(tops[k])
        out[f"top{k}"] = float(arr.mean())
        out[f"top{k}_ci"] = _ci95(arr)
    return out


def fid(real_feats: np.ndarray, gen_feats: np.ndarray) -> float:
    """Frechet distance between Gaussian fits of two feature sets."""
    x = np.asarray(real_feats, dtype=np.float64)
    y = np.asarray(gen_feats, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeError("feature sets must be 2-d with equal width")
    if x.shape[0] < 2 or y.shape[0] < 2:
        raise ContractError("need at least 2 samples per set")
    k = x.shape[1]
    mu_x, mu_y = x.mean(axis=0), y.mean(axis=0)
    cov_x = np.cov(x, rowvar=False).reshape(k, k)
    cov_y = np.cov(y, rowvar=False).reshape(k, k)
    if x.shape[0] <= k or y.shape[0] <= k:
        log.warning("fid: fewer samples than feature dims; applying ridge 1e-6")
        cov_x = cov_x + 1e-6 * np.eye(k)
        cov_y = cov_y + 1e-6 * np.eye(k)

    # tr sqrt(cov_x cov_y) via the symmetric product S cov_y S, S = cov_x^(1/2)
    w, q = np.linalg.eigh(cov_x)
    w = np.clip(w, 0.0, None)
    root_x = (q * np.sqrt(w)) @ q.T
    prod = root_x @ cov_y @ root_x
    ev = np.linalg.eigvalsh((prod + prod.T) / 2.0)
    if ev.min() < -1e-8:
        raise NumericError(f"fid: covariance product has eigenvalue {ev.min():.3e}")
    tr_sqrt = np.sum(np.sqrt(np.clip(ev, 0.0, None)))
    diff = mu_x - mu_y
    val = float(diff @ diff + np.trace(cov_x) + np.trace(cov_y) - 2.0 * tr_sqrt)
    return max(val, 0.0)


def diversity(gen_feats: np.ndarray, subset_size: int = 64, resamples: int = 20,
              rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Mean distance between two disjoint random subsets of generated features."""
    feats = np.asarray(gen_feats, dtype=np.float64)
    if feats.shape[0] < 2 * subset_size:
        raise SamplingError(
            f"need >= {2 * subset_size} features, have {feats.shape[0]}")
    rng = rng or np.random.default_rng(0)
    vals = []
    for _ in range(resamples):
        idx = rng.choice(feats.shape[0], size=2 * subset_size, replace=False)
        a, b = feats[idx[:subset_size]], feats[idx[subset_size:]]
        vals.append(float(np.mean(np.linalg.norm(a - b, axis=1))))
    arr = np.asarray(vals)
    return float(arr.mean()), _ci95(arr)


def apd(motions: np.ndarray) -> float:
    """Average pairwise distance over a set of motion sequences.

    motions: (N, T, D) per-frame state vectors. Per ordered pair the distance
    is sqrt(sum_t ||s_t^i - s_t^j||^2); the mean runs over all N(N-1) pairs.
    """
    m = np.asarray(motions, dtype=np.float64)
    if m.ndim != 3:
        raise ShapeError(f"motions must be (N, T, D), got {m.shape}")
    n = m.shape[0]
    if n < 2:
        raise ContractError("apd needs at least 2 sequences")
    total = 0.0
    for i in range(n):
        diff = m - m[i]
        total += np.sum(np.sqrt(np.sum(diff * diff, axis=(1, 2))))
    return total / (n * (n - 1))
