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
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .audio import FeatureConfig, NormalizationStats, extract_binaural, read_wav
from .checkpoint import load_checkpoint, write_atomically
from .dataset import (DatasetManifest, FeatureSource, feature_source,
                      fit_feature_stats, generate_dataset, load_split,
                      read_features)
from .denoiser import (DenoiserConfig, MotionDenoiser, TrainConfig,
                       sample_motion, train_denoiser)
from .diffusion import cosine_schedule, stride_subset
from .errors import (ConfigError, ContractError, DataError, NumericError,
                     ShapeError, SonomotionError)
from .evalsuite import (ExtractorConfig, ExtractorTrainConfig, MetricReport,
                        apd, diversity, extract_features, fid, r_precision,
                        train_extractor)
from .gradcheck import format_rows, run_primitive_suite
from .skeleton import (Genre, SkeletonSpec, SslTrack, assemble_vector,
                       read_motion_header, save_motion)

ENV_PREFIX = "SONOMOTION"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


# (INI section, key) -> the fields it sets: a RunConfig field, or
# "component.field" for a field of one of its component configs. The field's
# dataclass declares the default, the type and the range check.
KEYS = {
    ("paths", "cache_dir"): ("cache_dir",),
    ("paths", "checkpoint_dir"): ("checkpoint_dir",),
    ("model", "latent"): ("model.latent",),
    ("model", "heads"): ("model.heads",),
    ("model", "layers"): ("model.layers",),
    ("model", "ff_mult"): ("model.ff_mult",),
    ("model", "max_frames"): ("model.max_frames", "extractor.max_frames"),
    ("schedule", "diffusion_steps"): ("diffusion_steps",),
    ("training", "epochs"): ("training.epochs",),
    ("training", "batch_size"): ("training.batch_size",),
    ("training", "lr"): ("training.lr",),
    ("training", "weight_decay"): ("training.weight_decay",),
    ("training", "seed"): ("training.seed", "extractor_training.seed"),
    ("training", "checkpoint_every"): ("training.checkpoint_every",),
    ("training", "foot_mode"): ("training.foot_mode",),
    ("features", "sample_rate"): ("features.sample_rate",),
    ("features", "motion_fps"): ("features.motion_fps",),
    ("features", "fft_size"): ("features.fft_size",),
    ("features", "mel_bands"): ("features.mel_bands",),
    ("features", "normalize"): ("features.normalize",),
    ("extractor", "ext_hidden"): ("extractor.hidden",),
    ("extractor", "ext_gru_layers"): ("extractor.gru_layers",),
    ("extractor", "ext_ae_latent"): ("extractor.ae_latent",),
    ("extractor", "ext_ae_layers"): ("extractor.ae_layers",),
    ("extractor", "ext_ae_heads"): ("extractor.ae_heads",),
    ("extractor", "ext_epochs"): ("extractor_training.epochs",),
    ("extractor", "ext_batch_size"): ("extractor_training.batch_size",),
    ("extractor", "ext_lr"): ("extractor_training.lr",),
}


def _parse(section: str, key: str, raw: str, kind: type):
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"[{section}] {key}: {raw!r} is not a valid "
                          f"{kind.__name__}") from None


@dataclass
class RunConfig:
    """One instance of each component config, plus the run values that belong
    to no component."""

    model: DenoiserConfig = field(default_factory=DenoiserConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    extractor_training: ExtractorTrainConfig = field(
        default_factory=ExtractorTrainConfig)
    cache_dir: str = "cache"
    checkpoint_dir: str = "checkpoints"
    diffusion_steps: int = 1000

    def __post_init__(self):
        if self.diffusion_steps < 1:
            raise ConfigError("diffusion_steps must be >= 1")

    @classmethod
    def load(cls, path=None, env=None) -> "RunConfig":
        """The defaults, overridden by the INI file at ``path`` and then by the
        ``SONOMOTION_<SECTION>_<KEY>`` variables of ``env`` (os.environ)."""
        raw: dict[tuple[str, str], str] = {}
        if path is not None:
            parser = configparser.ConfigParser()
            if not parser.read(path):
                raise DataError(f"cannot read config file {path}")
            for section in parser.sections():
                if section not in {s for s, _ in KEYS}:
                    raise ConfigError(f"unknown config section [{section}]")
                for key, value in parser.items(section):
                    if (section, key) not in KEYS:
                        raise ConfigError(
                            f"unknown key '{key}' in section [{section}]")
                    raw[section, key] = value
        env = os.environ if env is None else env
        for section, key in KEYS:
            var = f"{ENV_PREFIX}_{section.upper()}_{key.upper()}"
            if var in env:
                raw[section, key] = env[var]
        cfg = cls()
        changes: dict[str, dict] = {}
        for (section, key), value in raw.items():
            for target in KEYS[section, key]:
                owner, _, name = target.rpartition(".")
                kind = get_type_hints(type(getattr(cfg, owner) if owner else cfg))
                changes.setdefault(owner, {})[name] = _parse(section, key, value,
                                                             kind[name])
        own = changes.pop("", {})
        return replace(cfg, **own, **{owner: replace(getattr(cfg, owner), **kw)
                                      for owner, kw in changes.items()})


def _parse_ssl(raw: str, frames: int) -> np.ndarray:
    """Either "x,y,z" (static source) or a path to a JSON [[x,y,z], ...] track."""
    if "," in raw and not Path(raw).exists():
        try:
            parts = [float(v) for v in raw.split(",")]
        except ValueError:
            parts = []
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
    manifest = generate_dataset(args.out, count=args.count,
                                seed=cfg.training.seed, duration=args.duration,
                                fps=cfg.features.motion_fps,
                                sample_rate=cfg.features.sample_rate)
    counts = Counter(e.tag for e in manifest.entries)
    genre_counts = Counter(e.genre for e in manifest.entries)
    print(f"wrote {len(manifest.entries)} samples to {args.out}")
    for tag in sorted(counts):
        print(f"  scenario {tag}: {counts[tag]}")
    for g in sorted(genre_counts):
        print(f"  genre {g}: {genre_counts[g]}")
    return EXIT_OK


def _featurize(job) -> FeatureSource:
    audio_path, motion_path, feat_cfg, cache_dir = job
    source = feature_source(audio_path, *read_motion_header(motion_path),
                            feat_cfg, cache_dir)
    read_features(source, feat_cfg)
    return source


def cmd_features(args, cfg: RunConfig) -> int:
    manifest = DatasetManifest.load(args.manifest)
    cache_dir = Path(args.cache or cfg.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(*manifest.resolve(e), cfg.features, cache_dir)
            for e in manifest.entries]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            sources = list(pool.map(_featurize, jobs))
    else:
        sources = list(map(_featurize, jobs))
    train = [s for e, s in zip(manifest.entries, sources) if e.split == "train"]
    stats = fit_feature_stats(manifest, cfg.features, cache_dir, train)
    stats.save(cache_dir / "norm_stats.npz")
    print(f"cached {len(jobs)} feature files in {cache_dir}")
    print(f"normalization statistics: {cache_dir / 'norm_stats.npz'}")
    return EXIT_OK


def _norm_stats(cfg: RunConfig) -> NormalizationStats | None:
    path = Path(cfg.cache_dir) / "norm_stats.npz"
    return NormalizationStats.load(path) if path.exists() else None


def _load_training_split(cfg: RunConfig, manifest_path, split="train"):
    cache_dir = Path(cfg.cache_dir)
    return load_split(DatasetManifest.load(manifest_path), split, cfg.features,
                      cache_dir=cache_dir if cache_dir.exists() else None,
                      stats=_norm_stats(cfg))


def cmd_train(args, cfg: RunConfig) -> int:
    samples = _load_training_split(cfg, args.manifest)
    if not samples:
        raise DataError("training split is empty")
    frames = samples[0][0].shape[0]
    if frames > cfg.model.max_frames:
        raise ConfigError(f"sequences have {frames} frames > model max_frames "
                          f"{cfg.model.max_frames}")
    train_cfg = replace(cfg.training, out_dir=args.out or cfg.checkpoint_dir)
    model = MotionDenoiser(cfg.model, np.random.default_rng(train_cfg.seed))
    schedule = cosine_schedule(cfg.diffusion_steps)
    skel = SkeletonSpec.default()
    verbose_every = max(1, train_cfg.epochs // 20)

    def log_fn(epoch, line):
        if epoch % verbose_every == 0 or epoch == train_cfg.epochs - 1:
            print(line)

    train_denoiser(model, schedule, samples, skel, train_cfg, log_fn=log_fn)
    print(f"checkpoints in {train_cfg.out_dir}")
    return EXIT_OK


def _restore_model(cfg: RunConfig, checkpoint_path) -> MotionDenoiser:
    model = MotionDenoiser(cfg.model, None)     # every weight comes from the file
    load_checkpoint(checkpoint_path, model.named_parameters())
    return model


def cmd_sample(args, cfg: RunConfig) -> int:
    for flag in ("steps", "frames", "count"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {value}")
    if args.steps is not None and args.steps > cfg.diffusion_steps:
        raise ConfigError(f"--steps {args.steps} exceeds diffusion_steps "
                          f"{cfg.diffusion_steps}")
    if args.frames is not None and args.frames > cfg.model.max_frames:
        raise ConfigError(f"--frames {args.frames} exceeds max_frames "
                          f"{cfg.model.max_frames}")
    model = _restore_model(cfg, args.checkpoint)
    fps = cfg.features.motion_fps
    clip = read_wav(args.audio)
    frames = args.frames or min(cfg.model.max_frames, int(clip.duration * fps))
    covered = frames * clip.sample_rate // fps      # the audio the motion spans
    clip = replace(clip, left=clip.left[:covered], right=clip.right[:covered])
    feats = extract_binaural(clip, cfg.features, frames, stats=_norm_stats(cfg))
    ssl = _parse_ssl(args.ssl, frames)
    genre = Genre.parse(args.genre)
    schedule = cosine_schedule(cfg.diffusion_steps)
    subset = None
    if args.steps and args.steps != cfg.diffusion_steps:
        subset = stride_subset(cfg.diffusion_steps, args.steps)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg.training.seed
    rng = np.random.default_rng(seed)
    for i in range(args.count):
        motion = sample_motion(model, schedule, feats.values, ssl, int(genre),
                               rng, step_subset=subset, fps=fps)
        path = out_dir / f"generated_{i:03d}.json"
        save_motion(path, motion, SslTrack(ssl, frame="local"), genre,
                    extras={"steps": args.steps or cfg.diffusion_steps,
                            "seed": seed})
        print(f"wrote {path}")
    return EXIT_OK


def cmd_eval(args, cfg: RunConfig) -> int:
    train_samples = _load_training_split(cfg, args.manifest)
    test_samples = _load_training_split(cfg, args.manifest, split="test")
    if len(test_samples) < 2:
        raise DataError("test split too small for evaluation")
    extractor, _ = train_extractor(train_samples, cfg.extractor,
                                   cfg.extractor_training)

    if args.checkpoint:
        model = _restore_model(cfg, args.checkpoint)
        schedule = cosine_schedule(cfg.diffusion_steps)
        rng = np.random.default_rng(cfg.training.seed)
        gen_samples = []
        for x0, audio, ssl, genre in test_samples:
            motion = sample_motion(model, schedule, audio, ssl, genre, rng,
                                   fps=cfg.features.motion_fps,
                                   recompute_velocity=False)
            gen_samples.append((assemble_vector(motion), audio, ssl, genre))
    else:
        gen_samples = test_samples    # ground truth against itself

    cond_real, mot_real = extract_features(extractor, test_samples)
    cond_gen, mot_gen = extract_features(extractor, gen_samples)
    rng = np.random.default_rng(cfg.training.seed)
    # two or more test items: the pool and the diversity subset are >= 2 and 1
    rp = r_precision(cond_gen, mot_gen, pool_size=min(32, len(test_samples)),
                     rng=rng)
    fid_val = fid(mot_real, mot_gen)
    div, div_ci = diversity(mot_gen, subset_size=min(64, len(gen_samples) // 2),
                            rng=rng)
    motions = np.stack([s[0] for s in gen_samples])
    apd_val = apd(motions)
    report = MetricReport(rp["top1"], rp["top1_ci"], rp["top2"], rp["top2_ci"],
                          rp["top3"], rp["top3_ci"], fid_val, div, div_ci,
                          apd_val)
    write_atomically(args.out, lambda f: f.write(report.to_json().encode()))
    print(report.to_table())
    print(f"report: {args.out}")
    return EXIT_OK


def cmd_gradcheck(args, cfg: RunConfig) -> int:
    rows = run_primitive_suite(seed=cfg.training.seed)
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
    env = dict(os.environ)
    if args.seed is not None:   # the flag wins over the INI file and the env
        env[f"{ENV_PREFIX}_TRAINING_SEED"] = str(args.seed)
    try:
        cfg = RunConfig.load(args.config, env)
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
