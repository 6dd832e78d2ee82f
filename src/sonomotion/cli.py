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
import time
from collections import Counter
from concurrent.futures import (FIRST_EXCEPTION, ProcessPoolExecutor,
                                ThreadPoolExecutor, wait)
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .audio import FeatureConfig, NormalizationStats, extract_binaural, read_wav
from .checkpoint import load_checkpoint, write_atomically
from .dataset import (MIN_SPLIT_ITEMS, DatasetManifest, TrainSample,
                      clip_features, fit_feature_stats, generate_dataset,
                      load_split)
from .denoiser import (DenoiserConfig, MotionDenoiser, TrainConfig,
                       sample_motion, train_denoiser)
from .diffusion import cosine_schedule
from .errors import (ConfigError, ContractError, DataError, NumericError,
                     ShapeError, SonomotionError)
from .evalsuite import (ExtractorConfig, ExtractorTrainConfig, apd, diversity,
                        extract_features, fid, r_precision, train_extractor)
from .gradcheck import format_rows, run_primitive_suite
from .skeleton import (Genre, MotionSequence, SkeletonSpec, SslTrack,
                       assemble_vector, read_motion_header, save_motion)

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
        if len(parts) != 3 or not np.isfinite(parts).all():
            raise ConfigError(f"--ssl expects three finite numbers 'x,y,z', "
                              f"got {raw!r}")
        return np.tile(parts, (frames, 1))
    try:
        track = np.asarray(json.loads(Path(raw).read_text()), dtype=np.float64)
    except (OSError, json.JSONDecodeError, ValueError) as e:
        raise DataError(f"cannot read SSL track {raw}: {e}") from e
    if track.ndim != 2 or track.shape[1] != 3:
        raise DataError(f"SSL track must be (T, 3), got {track.shape}")
    if track.shape[0] < frames:
        raise DataError(f"SSL track has {track.shape[0]} frames, need {frames}")
    if not np.isfinite(track).all():
        raise DataError(f"SSL track {raw} holds non-finite positions")
    return track[:frames]


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth_data(args, cfg: RunConfig) -> int:
    if args.count < MIN_SPLIT_ITEMS:
        raise ConfigError(f"--count must be >= {MIN_SPLIT_ITEMS} for an 8:1:1 "
                          f"split, got {args.count}")
    if not args.duration >= 2.0:    # also rejects nan
        raise ConfigError(f"--duration must be >= 2 s, got {args.duration:g}")
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


def _featurize(job) -> tuple[Path, int]:
    """The cache file of one clip, filled on a miss, and its frame count."""
    audio_path, motion_path, feat_cfg, cache_dir = job
    values, path = clip_features(audio_path, *read_motion_header(motion_path),
                                 feat_cfg, cache_dir)
    return path, values.shape[0]


def cmd_features(args, cfg: RunConfig) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    manifest = DatasetManifest.load(args.manifest)
    cache_dir = Path(args.cache or cfg.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(*manifest.resolve(e), cfg.features, cache_dir)
            for e in manifest.entries]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            cached = list(pool.map(_featurize, jobs))
    else:
        cached = list(map(_featurize, jobs))
    first: dict[Path, tuple[str, int]] = {}     # a cache file holds one count
    for e, (path, frames) in zip(manifest.entries, cached):
        other, n = first.setdefault(path, (e.sample_id, frames))
        if n != frames:
            raise DataError(f"{other} ({n} frames) and {e.sample_id} ({frames} "
                            f"frames) share one WAV and so one feature cache file")
    stats = fit_feature_stats([path for e, (path, _) in zip(manifest.entries, cached)
                               if e.split == "train"])
    stats.save(cache_dir / "norm_stats.npz")
    print(f"cached {len(jobs)} feature files in {cache_dir}")
    print(f"normalization statistics: {cache_dir / 'norm_stats.npz'}")
    return EXIT_OK


def _norm_stats(cfg: RunConfig) -> NormalizationStats | None:
    """The statistics every command z-scores its features with: those of the
    cache dir, unless ``[features] normalize`` is off or there are none."""
    path = Path(cfg.cache_dir) / "norm_stats.npz"
    if not cfg.features.normalize or not path.exists():
        return None
    return NormalizationStats.load(path)


def _frame_count(counts, max_frames: int) -> int:
    """W = min(max_frames, every count): a command uses the first W frames of
    each clip it reads. Prints one line when W cuts a clip."""
    w, longest = min([max_frames, *counts]), max(counts, default=0)
    if w < longest:
        print(f"using the first {w} frames of each clip; the longest has {longest}")
    return w


def _load_splits(cfg: RunConfig, manifest_path, *splits) -> list[list[TrainSample]]:
    """The samples of each split, all cut to the one ``_frame_count`` of every
    sample loaded."""
    cache_dir = Path(cfg.cache_dir)
    manifest, stats = DatasetManifest.load(manifest_path), _norm_stats(cfg)
    loaded = [load_split(manifest, split, cfg.features,
                         cache_dir=cache_dir if cache_dir.exists() else None,
                         stats=stats) for split in splits]
    w = _frame_count([s.x0.shape[0] for samples in loaded for s in samples],
                     cfg.model.max_frames)
    return [[TrainSample(s.x0[:w], s.audio[:w], s.ssl[:w], s.genre)
             for s in samples] for samples in loaded]


def cmd_train(args, cfg: RunConfig) -> int:
    samples, = _load_splits(cfg, args.manifest, "train")
    if not samples:
        raise DataError("training split is empty")
    train_cfg = replace(cfg.training, out_dir=args.out or cfg.checkpoint_dir)
    model = MotionDenoiser(cfg.model, np.random.default_rng(train_cfg.seed))
    schedule = cosine_schedule(cfg.diffusion_steps)
    skel = SkeletonSpec.default()
    verbose_every = max(1, train_cfg.epochs // 20)

    def log_fn(epoch, line):
        if epoch % verbose_every == 0 or epoch == train_cfg.epochs - 1:
            print(line)

    train_denoiser(model, schedule, samples, skel, train_cfg,
                   fps=cfg.features.motion_fps, log_fn=log_fn)
    print(f"checkpoints in {train_cfg.out_dir}")
    return EXIT_OK


def _restore_model(cfg: RunConfig, checkpoint_path) -> MotionDenoiser:
    model = MotionDenoiser(cfg.model, None)     # every weight comes from the file
    load_checkpoint(checkpoint_path, model.named_parameters())
    return model


def _chain_workers(count: int) -> int:
    """Threads for ``count`` reverse chains: min(count, cores // BLAS threads),
    at least 1. OpenBLAS runs the first positive integer in
    OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS, else one thread per core."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    blas = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) > 0:
            blas = int(value)
            break
    return max(1, min(count, cores // blas))


def _sample_chains(model: MotionDenoiser, schedule, conditions, seed: int,
                   **kwargs) -> list[MotionSequence]:
    """One ``sample_motion`` per (audio, ssl, genre) of ``conditions``, in
    order, and one printed line of the chain count, the worker count and the
    ms per sequence.

    Chain i draws from generator i of ``SeedSequence(seed).spawn(K)``, so its
    motion depends on the seed and i alone, not on K or the worker count. The
    chains run on ``_chain_workers(K)`` threads: numpy releases the GIL in
    every GEMM and ufunc loop. A chain must never open a tape, because
    ``Tape._stack`` is shared by every thread of the process. When a chain
    raises, the chains not yet started are cancelled and the first failure in
    chain order is raised.
    """
    streams = np.random.SeedSequence(seed).spawn(len(conditions))
    workers = _chain_workers(len(conditions))
    start = time.perf_counter()
    pool = ThreadPoolExecutor(workers)
    try:
        futures = [pool.submit(sample_motion, model, schedule, audio, ssl, genre,
                               np.random.default_rng(stream), **kwargs)
                   for (audio, ssl, genre), stream in zip(conditions, streams)]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # the pool starts chains in order, so every cancelled chain comes after
    # the failed one: the first result that raises is that failure
    motions = [f.result() for f in futures]
    ms = 1e3 * (time.perf_counter() - start) / len(conditions)
    print(f"sampled {len(conditions)} chains, {workers} at a time: "
          f"{ms:.1f} ms per sequence")
    return motions


def cmd_sample(args, cfg: RunConfig) -> int:
    for flag in ("steps", "count"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {value}")
    if args.steps is not None and args.steps > cfg.diffusion_steps:
        raise ConfigError(f"--steps {args.steps} exceeds diffusion_steps "
                          f"{cfg.diffusion_steps}")
    if args.frames is not None and not 2 <= args.frames <= cfg.model.max_frames:
        raise ConfigError(f"--frames must lie in 2..{cfg.model.max_frames} "
                          f"(velocities need two frames), got {args.frames}")
    fps = cfg.features.motion_fps
    clip = read_wav(args.audio)
    clip_frames = clip.samples * fps // clip.sample_rate
    if clip_frames < 2:     # velocities need two frames
        raise DataError(f"{args.audio} spans {clip_frames} motion frames at "
                        f"{fps} fps; sampling needs at least 2")
    frames = args.frames or _frame_count([clip_frames], cfg.model.max_frames)
    ssl = _parse_ssl(args.ssl, frames)
    model = _restore_model(cfg, args.checkpoint)
    feats = extract_binaural(clip, cfg.features, frames).values
    stats = _norm_stats(cfg)
    if stats is not None:
        feats = stats.apply(feats)
    genre = Genre.parse(args.genre)
    schedule = cosine_schedule(cfg.diffusion_steps)
    seed = cfg.training.seed
    motions = _sample_chains(model, schedule, [(feats, ssl, int(genre))] * args.count,
                             seed, steps=args.steps, fps=fps)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, motion in enumerate(motions):
        path = out_dir / f"generated_{i:03d}.json"
        save_motion(path, motion, SslTrack(ssl, frame="local"), genre,
                    extras={"steps": args.steps or cfg.diffusion_steps,
                            "seed": seed})
        print(f"wrote {path}")
    return EXIT_OK


def _metric_table(report: dict) -> str:
    """The eval metrics as the lines ``eval`` prints."""
    rows = [(f"R-prec top{k}", f"{report[f'top{k}']:.3f} +- {report[f'top{k}_ci']:.3f}")
            for k in (1, 2, 3)]
    rows += [("FID", f"{report['fid']:.3f}"),
             ("Diversity", f"{report['diversity']:.3f} +- {report['diversity_ci']:.3f}"),
             ("APD", f"{report['apd']:.3f}")]
    return "\n".join(f"{name:<14} {value}" for name, value in rows)


def cmd_eval(args, cfg: RunConfig) -> int:
    train_samples, test_samples = _load_splits(cfg, args.manifest, "train", "test")
    if len(test_samples) < 2:
        raise DataError("test split too small for evaluation")
    extractor, _ = train_extractor(train_samples, cfg.extractor,
                                   cfg.extractor_training)
    # the generated motions share the test items' conditions
    cond, mot_real = extract_features(extractor, test_samples)

    if args.checkpoint:
        model = _restore_model(cfg, args.checkpoint)
        schedule = cosine_schedule(cfg.diffusion_steps)
        motions = _sample_chains(
            model, schedule, [(s.audio, s.ssl, s.genre) for s in test_samples],
            cfg.training.seed, fps=cfg.features.motion_fps,
            recompute_velocity=False)
        gen_x0 = np.stack([assemble_vector(m) for m in motions])
        mot_gen = extractor.encode_motion(gen_x0).data
    else:    # ground truth against itself
        gen_x0, mot_gen = np.stack([s.x0 for s in test_samples]), mot_real

    rng = np.random.default_rng(cfg.training.seed)
    # two or more test items: the pool and the diversity subset are >= 2 and 1
    # keys: top1, top1_ci, top2, top2_ci, top3, top3_ci, fid, diversity,
    # diversity_ci, apd
    report = r_precision(cond, mot_gen, pool_size=min(32, len(test_samples)),
                         rng=rng)
    report["fid"] = fid(mot_real, mot_gen)
    report["diversity"], report["diversity_ci"] = diversity(
        mot_gen, subset_size=min(64, len(test_samples) // 2), rng=rng)
    report["apd"] = apd(gen_x0)
    write_atomically(args.out,
                     lambda f: f.write(json.dumps(report, indent=2).encode()))
    print(_metric_table(report))
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
