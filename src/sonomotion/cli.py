"""Command-line entry point: synth-data, features, train, sample, eval, gradcheck.

Configuration uses INI files (section.key = value) with environment-variable
overrides (SONOMOTION_<SECTION>_<KEY>) and command-line flags winning over
both. Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .audio import FeatureConfig, NormalizationStats, extract_binaural, read_wav
from .checkpoint import load_checkpoint
from .dataset import (DatasetManifest, fit_feature_stats, generate_dataset,
                      load_split, raw_features)
from .denoiser import DenoiserConfig, MotionDenoiser, TrainConfig, train_denoiser
from .diffusion import cosine_schedule, stride_subset
from .errors import (ConfigError, ContractError, DataError, NumericError,
                     ShapeError, SonomotionError)
from .evalsuite import (ExtractorConfig, ExtractorTrainConfig, MetricReport,
                        apd, diversity, extract_features, fid, r_precision,
                        train_extractor)
from .gradcheck import format_rows, run_primitive_suite
from .skeleton import (Genre, SkeletonSpec, SslTrack, assemble_vector,
                       load_motion, save_motion)
from .denoiser import sample_motion

ENV_PREFIX = "SONOMOTION"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


@dataclass
class RunConfig:
    """Flattened run configuration; sections map to field prefixes."""

    # [paths]
    dataset_root: str = "dataset"
    cache_dir: str = "cache"
    checkpoint_dir: str = "checkpoints"
    # [model]
    latent: int = 512
    heads: int = 8
    layers: int = 4
    ff_mult: int = 4
    max_frames: int = 240
    ssl_mode: str = "fused"
    # [schedule]
    diffusion_steps: int = 1000
    # [training]
    epochs: int = 2000
    batch_size: int = 8
    lr: float = 1e-4
    weight_decay: float = 0.0
    seed: int = 0
    checkpoint_every: int = 0
    foot_mode: str = "magnitude"
    # [features]
    sample_rate: int = 24000
    motion_fps: int = 30
    fft_size: int = 1024
    mel_bands: int = 128
    normalize: bool = True
    # [extractor]
    ext_hidden: int = 64
    ext_gru_layers: int = 1
    ext_ae_latent: int = 32
    ext_ae_layers: int = 1
    ext_ae_heads: int = 2
    ext_epochs: int = 40
    ext_batch_size: int = 16
    ext_lr: float = 5e-5

    SECTIONS = {
        "paths": ("dataset_root", "cache_dir", "checkpoint_dir"),
        "model": ("latent", "heads", "layers", "ff_mult", "max_frames",
                  "ssl_mode"),
        "schedule": ("diffusion_steps",),
        "training": ("epochs", "batch_size", "lr", "weight_decay", "seed",
                     "checkpoint_every", "foot_mode"),
        "features": ("sample_rate", "motion_fps", "fft_size", "mel_bands",
                     "normalize"),
        "extractor": ("ext_hidden", "ext_gru_layers", "ext_ae_latent",
                      "ext_ae_layers", "ext_ae_heads", "ext_epochs",
                      "ext_batch_size", "ext_lr"),
    }

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.ext_epochs < 1:
            raise ConfigError("epoch/batch settings must be >= 1")
        if self.lr <= 0 or self.ext_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if self.diffusion_steps < 1:
            raise ConfigError("diffusion_steps must be >= 1")

    @classmethod
    def _field_map(cls):
        return {f.name: f.type for f in fields(cls)}

    @classmethod
    def _coerce(cls, name: str, raw: str):
        kinds = cls._field_map()
        kind = kinds[name]
        if kind in (int, "int"):
            return int(raw)
        if kind in (float, "float"):
            return float(raw)
        if kind in (bool, "bool"):
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ConfigError(f"bad boolean for {name}: {raw!r}")
        return raw

    @classmethod
    def load(cls, path=None, env=None) -> "RunConfig":
        values: dict = {}
        known = {k: sec for sec, keys in cls.SECTIONS.items() for k in keys}
        if path is not None:
            parser = configparser.ConfigParser()
            read = parser.read(path)
            if not read:
                raise DataError(f"cannot read config file {path}")
            for section in parser.sections():
                if section not in cls.SECTIONS:
                    raise ConfigError(f"unknown config section [{section}]")
                for key, raw in parser.items(section):
                    if key not in cls.SECTIONS[section]:
                        raise ConfigError(
                            f"unknown key '{key}' in section [{section}]")
                    values[key] = cls._coerce(key, raw)
        env = os.environ if env is None else env
        for name, section in known.items():
            var = f"{ENV_PREFIX}_{section.upper()}_{name.upper()}"
            if var in env:
                values[name] = cls._coerce(name, env[var])
        return cls(**values)

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(sample_rate=self.sample_rate,
                             motion_fps=self.motion_fps,
                             fft_size=self.fft_size, mel_bands=self.mel_bands,
                             normalize=self.normalize)

    def denoiser_config(self) -> DenoiserConfig:
        return DenoiserConfig(latent=self.latent, heads=self.heads,
                              layers=self.layers, ff_mult=self.ff_mult,
                              max_frames=self.max_frames, ssl_mode=self.ssl_mode)

    def extractor_config(self) -> ExtractorConfig:
        return ExtractorConfig(hidden=self.ext_hidden,
                               gru_layers=self.ext_gru_layers,
                               ae_latent=self.ext_ae_latent,
                               ae_layers=self.ext_ae_layers,
                               ae_heads=self.ext_ae_heads,
                               max_frames=self.max_frames)


def _parse_ssl(raw: str, frames: int) -> np.ndarray:
    """Either "x,y,z" (static source) or a path to a JSON [[x,y,z], ...] track."""
    if "," in raw and not Path(raw).exists():
        parts = [float(v) for v in raw.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"--ssl expects 'x,y,z', got {raw!r}")
        return np.tile(parts, (frames, 1))
    try:
        track = np.asarray(json.loads(Path(raw).read_text()), dtype=np.float64)
    except (OSError, json.JSONDecodeError, ValueError) as e:
        raise DataError(f"cannot read SSL track {raw}: {e}") from e
    if track.ndim != 2 or track.shape[1] != 3:
        raise DataError(f"SSL track must be (T, 3), got {track.shape}")
    if track.shape[0] < frames:
        raise DataError(f"SSL track has {track.shape[0]} frames, need {frames}")
    return track[:frames]


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth_data(args, cfg: RunConfig) -> int:
    manifest = generate_dataset(args.out, count=args.count, seed=cfg.seed,
                                duration=args.duration, fps=cfg.motion_fps,
                                sample_rate=cfg.sample_rate)
    counts: dict[str, int] = {}
    for e in manifest.entries:
        counts[e.tag] = counts.get(e.tag, 0) + 1
    genre_counts: dict[str, int] = {}
    for e in manifest.entries:
        genre_counts[e.genre] = genre_counts.get(e.genre, 0) + 1
    print(f"wrote {len(manifest.entries)} samples to {args.out}")
    for tag in sorted(counts):
        print(f"  scenario {tag}: {counts[tag]}")
    for g in sorted(genre_counts):
        print(f"  genre {g}: {genre_counts[g]}")
    return EXIT_OK


def _featurize(job) -> None:
    audio_path, motion_path, feat_cfg, cache_dir = job
    raw_features(audio_path, load_motion(motion_path)[0], feat_cfg, cache_dir)


def cmd_features(args, cfg: RunConfig) -> int:
    manifest = DatasetManifest.load(args.manifest)
    feat_cfg = cfg.feature_config()
    cache_dir = Path(args.cache or cfg.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(*manifest.resolve(e), feat_cfg, cache_dir) for e in manifest.entries]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            list(pool.map(_featurize, jobs))
    else:
        list(map(_featurize, jobs))
    stats = fit_feature_stats(manifest, feat_cfg, cache_dir)
    stats.save(cache_dir / "norm_stats.npz")
    print(f"cached {len(jobs)} feature files in {cache_dir}")
    print(f"normalization statistics: {cache_dir / 'norm_stats.npz'}")
    return EXIT_OK


def _norm_stats(cfg: RunConfig) -> NormalizationStats | None:
    path = Path(cfg.cache_dir) / "norm_stats.npz"
    return NormalizationStats.load(path) if path.exists() else None


def _load_training_split(cfg: RunConfig, manifest_path, split="train"):
    cache_dir = Path(cfg.cache_dir)
    return load_split(DatasetManifest.load(manifest_path), split,
                      cfg.feature_config(),
                      cache_dir=cache_dir if cache_dir.exists() else None,
                      stats=_norm_stats(cfg))


def cmd_train(args, cfg: RunConfig) -> int:
    samples = _load_training_split(cfg, args.manifest)
    if not samples:
        raise DataError("training split is empty")
    frames = samples[0][0].shape[0]
    model_cfg = cfg.denoiser_config()
    if frames > model_cfg.max_frames:
        raise ConfigError(f"sequences have {frames} frames > model max_frames "
                          f"{model_cfg.max_frames}")
    rng = np.random.default_rng(cfg.seed)
    model = MotionDenoiser(model_cfg, rng)
    schedule = cosine_schedule(cfg.diffusion_steps)
    train_cfg = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size,
                            lr=cfg.lr, weight_decay=cfg.weight_decay,
                            seed=cfg.seed, checkpoint_every=cfg.checkpoint_every,
                            out_dir=args.out or cfg.checkpoint_dir,
                            foot_mode=cfg.foot_mode)
    skel = SkeletonSpec.default()
    verbose_every = max(1, cfg.epochs // 20)

    def log_fn(epoch, line):
        if epoch % verbose_every == 0 or epoch == cfg.epochs - 1:
            print(line)

    train_denoiser(model, schedule, samples, skel, train_cfg, log_fn=log_fn)
    print(f"checkpoints in {train_cfg.out_dir}")
    return EXIT_OK


def _restore_model(cfg: RunConfig, checkpoint_path) -> MotionDenoiser:
    state = load_checkpoint(checkpoint_path)
    model = MotionDenoiser(cfg.denoiser_config(), np.random.default_rng(cfg.seed))
    model.load_state(state)
    return model


def cmd_sample(args, cfg: RunConfig) -> int:
    model = _restore_model(cfg, args.checkpoint)
    feat_cfg = cfg.feature_config()
    clip = read_wav(args.audio)
    frames = args.frames or min(cfg.max_frames,
                                int(clip.duration * cfg.motion_fps))
    feats = extract_binaural(clip, feat_cfg, frames, stats=_norm_stats(cfg))
    ssl = _parse_ssl(args.ssl, frames)
    genre = Genre.parse(args.genre)
    schedule = cosine_schedule(cfg.diffusion_steps)
    subset = None
    if args.steps and args.steps != cfg.diffusion_steps:
        subset = stride_subset(cfg.diffusion_steps, args.steps)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    for i in range(args.count):
        motion = sample_motion(model, schedule, feats.values, ssl, int(genre),
                               rng, step_subset=subset, fps=cfg.motion_fps)
        path = out_dir / f"generated_{i:03d}.json"
        save_motion(path, motion, SslTrack(ssl, frame="local"), genre,
                    extras={"steps": args.steps or cfg.diffusion_steps,
                            "seed": cfg.seed})
        print(f"wrote {path}")
    return EXIT_OK


def cmd_eval(args, cfg: RunConfig) -> int:
    train_samples = _load_training_split(cfg, args.manifest)
    test_samples = _load_training_split(cfg, args.manifest, split="test")
    if len(test_samples) < 2:
        raise DataError("test split too small for evaluation")
    ext_cfg = cfg.extractor_config()
    ext_train = ExtractorTrainConfig(epochs=cfg.ext_epochs,
                                     batch_size=cfg.ext_batch_size,
                                     lr=cfg.ext_lr, seed=cfg.seed)
    extractor, _ = train_extractor(train_samples, ext_cfg, ext_train)

    if args.checkpoint:
        model = _restore_model(cfg, args.checkpoint)
        schedule = cosine_schedule(cfg.diffusion_steps)
        rng = np.random.default_rng(cfg.seed)
        gen_samples = []
        for x0, audio, ssl, genre in test_samples:
            motion = sample_motion(model, schedule, audio, ssl, genre, rng,
                                   fps=cfg.motion_fps, recompute_velocity=False)
            gen_samples.append((assemble_vector(motion), audio, ssl, genre))
    else:
        gen_samples = test_samples    # ground truth against itself

    pool = min(32, len(test_samples))
    cond_real, mot_real = extract_features(extractor, test_samples)
    cond_gen, mot_gen = extract_features(extractor, gen_samples)
    rng = np.random.default_rng(cfg.seed)
    rp = r_precision(cond_gen, mot_gen, pool_size=pool, rng=rng) \
        if len(test_samples) >= pool and pool >= 2 else \
        {f"top{k}": float("nan") for k in (1, 2, 3)} | \
        {f"top{k}_ci": 0.0 for k in (1, 2, 3)}
    fid_val = fid(mot_real, mot_gen)
    sd = min(64, len(gen_samples) // 2)
    div, div_ci = diversity(mot_gen, subset_size=max(sd, 1), rng=rng) \
        if sd >= 1 else (0.0, 0.0)
    motions = np.stack([s[0] for s in gen_samples])
    apd_val = apd(motions)
    report = MetricReport(rp["top1"], rp["top1_ci"], rp["top2"], rp["top2_ci"],
                          rp["top3"], rp["top3_ci"], fid_val, div, div_ci,
                          apd_val)
    Path(args.out).write_text(report.to_json())
    print(report.to_table())
    print(f"report: {args.out}")
    return EXIT_OK


def cmd_gradcheck(args, cfg: RunConfig) -> int:
    rows = run_primitive_suite(seed=cfg.seed)
    print(format_rows(rows))
    if all(r.passed for r in rows):
        return EXIT_OK
    return EXIT_NUMERIC


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sonomotion",
        description="Spatial-audio-driven motion generation toolkit")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--seed", type=int, help="override [training] seed")
    # a subcommand's own --seed must not reset the global one when absent
    seed_opts = {"type": int, "default": argparse.SUPPRESS,
                 "help": "default: the global --seed, else [training] seed"}
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth-data", help="generate a synthetic dataset")
    sp.add_argument("--count", type=int, default=16)
    sp.add_argument("--seed", **seed_opts)
    sp.add_argument("--duration", type=float, default=10.0)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("features", help="featurize a dataset into the cache")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--cache")
    sp.add_argument("--workers", type=int, default=1)

    sp = sub.add_parser("train", help="train the motion denoiser")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("sample", help="generate motion for an audio file")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--audio", required=True)
    sp.add_argument("--ssl", required=True,
                    help="'x,y,z' (character-local) or JSON track path")
    sp.add_argument("--genre", default="neutral",
                    choices=["dull", "neutral", "sensitive"])
    sp.add_argument("--steps", type=int)
    sp.add_argument("--frames", type=int)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", **seed_opts)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("eval", help="train extractors and compute metrics")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--checkpoint")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("gradcheck", help="finite-difference check every op")
    sp.add_argument("--seed", **seed_opts)
    return p


COMMANDS = {
    "synth-data": cmd_synth_data,
    "features": cmd_features,
    "train": cmd_train,
    "sample": cmd_sample,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
}


def _attach_ssl_value(argv: list[str]) -> list[str]:
    """Rewrite ``--ssl -0.5,2,1.2`` as ``--ssl=-0.5,2,1.2``: argparse reads a
    separate token that starts with '-' as an option, not as a value."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--ssl" and re.match(r"-[\d.]", tok):
            out[-1] = f"--ssl={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_ssl_value(sys.argv[1:] if argv is None else argv))
    try:
        cfg = RunConfig.load(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        return COMMANDS[args.command](args, cfg)
    except (ConfigError,) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ContractError, ShapeError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except SonomotionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
