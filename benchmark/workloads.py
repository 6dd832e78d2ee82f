"""The three benchmark workloads.

Each workload drives the program the way a user does, through
``sonomotion.cli.main`` in this process, on inputs made from the workload
seed. The seed reaches the program only through the subcommands' own
``--seed`` flags and the INI ``[training] seed``; the global ``--seed`` flag
is never passed, because ``synth-data`` and ``sample`` drop it.

A workload has a set-up (repeated; the median is ``setup_s``), a round of
timed operations (repeated for the run length), checks on each round's
outputs, and checks made once at the end of the run. The checks run after
all the timed work.
"""

from __future__ import annotations

import contextlib
import math
import shutil
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from sonomotion import audio, checkpoint, cli, dataset, denoiser, diffusion
from sonomotion import losses, skeleton
from sonomotion.autodiff import Tape, Tensor


class Ledger:
    """Attempted and failed operations (CLI calls, library calls, checks)."""

    def __init__(self, log_path: Path):
        self.log_path = log_path
        self.attempted = {"cli": 0, "call": 0, "check": 0}
        self.failed = {"cli": 0, "call": 0, "check": 0}
        self.messages: list[str] = []

    def _fail(self, kind: str, what: str, why: str) -> None:
        self.failed[kind] += 1
        self.messages.append(f"{kind} {what}: {why}")

    def cli(self, argv: list[str], tracer=None, span: str | None = None) -> float:
        """Run one subcommand; returns its wall time in seconds."""
        self.attempted["cli"] += 1
        span = span or "cli." + (argv[2] if argv[0] == "--config" else argv[0])
        scope = tracer.span(span) if tracer else contextlib.nullcontext()
        with open(self.log_path, "a") as log, contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            start = time.perf_counter()
            try:
                with scope:
                    code = cli.main(argv)
            except SystemExit as e:    # argparse rejects the command line
                code = e.code
            except Exception:          # an escaped traceback is a failed call
                code = "traceback: " + traceback.format_exc().splitlines()[-1]
            elapsed = time.perf_counter() - start
        if code != 0:
            self._fail("cli", " ".join(argv[:4]), f"exit {code}")
        return elapsed

    def call(self, what: str, fn, *args, tracer=None, span: str | None = None):
        """Run one library call the workload times itself; returns (result, s)."""
        self.attempted["call"] += 1
        scope = tracer.span(span) if tracer and span else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                result = fn(*args)
        except Exception as e:
            self._fail("call", what, f"{type(e).__name__}: {e}")
            result = None
        return result, time.perf_counter() - start

    def check(self, name: str, fn, *args):
        self.attempted["check"] += 1
        try:
            return fn(*args)
        except Exception as e:        # CheckFailed, or output missing/unreadable
            self._fail("check", name, f"{type(e).__name__}: {e}")
            return None

    @property
    def checks_failed(self) -> int:
        return self.failed["check"]


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _ini(path: Path, sections: dict[str, dict]) -> Path:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in values.items()]
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def _ssl_arg(rng: np.random.Generator) -> str:
    # "--ssl=x,y,z": a separate "-0.5,..." value would parse as an option
    az = rng.uniform(-np.pi, np.pi)
    dist = rng.uniform(1.5, 4.0)
    return f"--ssl={dist * np.sin(az):.4f},{-dist * np.cos(az):.4f},1.2"


class Workload:
    name = ""
    model_root: str | None = None     # root span whose predict_x0 calls are steps
    clips: dict[str, int] = {}        # clips per features run, by phase
    setups = 6                        # set-ups per run; setup_s is their median

    def __init__(self, ws: Path, seed: int, ledger: Ledger):
        self.ws = ws
        self.seed = seed
        self.ledger = ledger

    def setup_dir(self, k: int) -> Path:
        # each set-up starts empty and replaces the one before it; a seed
        # always makes the same files
        shutil.rmtree(self.ws / f"setup{k - 1}", ignore_errors=True)
        return _fresh(self.ws / f"setup{k}")

    def round_dir(self, i: int) -> Path:
        # kept until the checks, which run after every round
        return _fresh(self.ws / f"round{i}")

    def final_checks(self) -> None:
        pass


# ---------------------------------------------------------------------------


class DeskTrainEval(Workload):
    name = "desk-train-eval"
    model_root = "cli.train"
    setups = 2        # each set-up takes 3-4 s: one before the rounds, one after

    SCENES = 30
    DURATION = 2.0
    EPOCHS = 33
    BATCH = 8
    SAMPLES = 8

    def setup(self, k: int) -> None:
        d = self.setup_dir(k)
        self.ini = _ini(d / "run.ini", {
            "paths": {"cache_dir": d / "cache"},
            "model": {"latent": 64, "heads": 4, "layers": 2, "max_frames": 60},
            "schedule": {"diffusion_steps": 50},
            "training": {"epochs": self.EPOCHS, "batch_size": self.BATCH,
                         "lr": 0.001, "seed": self.seed},
            "extractor": {"ext_hidden": 16, "ext_gru_layers": 1,
                          "ext_ae_latent": 16, "ext_ae_layers": 1,
                          "ext_ae_heads": 2, "ext_epochs": 4,
                          "ext_batch_size": 8},
        })
        self.data = d / "data"
        self.cache = d / "cache"
        self.ledger.cli(["synth-data", "--count", str(self.SCENES), "--seed",
                         str(self.seed), "--duration", str(self.DURATION),
                         "--out", str(self.data)])
        self.ledger.cli(["--config", str(self.ini), "features", "--manifest",
                         str(self.data / "manifest.json"), "--cache",
                         str(self.cache), "--workers", "1"])

    def _entries(self, split: str) -> list:
        return dataset.DatasetManifest.load(
            self.data / "manifest.json").split_entries(split)

    def round(self, i: int, tracer=None) -> dict:
        r = self.round_dir(i)
        rng = np.random.default_rng(self.seed)
        test = self._entries("test")
        clip = test[int(rng.integers(len(test)))]
        self.last = r
        manifest = str(self.data / "manifest.json")
        cfg = ["--config", str(self.ini)]
        start = time.perf_counter()
        t_train = self.ledger.cli(cfg + ["train", "--manifest", manifest,
                                         "--out", str(r / "ckpt")], tracer)
        t_sample = self.ledger.cli(cfg + [
            "sample", "--checkpoint", str(r / "ckpt" / "checkpoint_final.snm"),
            "--audio", str(self.data / clip.audio), _ssl_arg(rng),
            "--genre", clip.genre, "--count", str(self.SAMPLES),
            "--seed", str(self.seed), "--out", str(r / "gen")], tracer)
        t_eval = self.ledger.cli(cfg + [
            "eval", "--manifest", manifest,
            "--checkpoint", str(r / "ckpt" / "checkpoint_final.snm"),
            "--out", str(r / "report.json")], tracer)
        round_s = time.perf_counter() - start
        steps = self.EPOCHS * math.ceil(len(self._entries("train")) / self.BATCH)
        return {"round_s": round_s, "stage": {
            "stage.train_steps_per_s": (steps / t_train, "steps/s"),
            "stage.sample_desk_ms_per_seq": (1e3 * t_sample / self.SAMPLES, "ms/seq"),
            "stage.eval_s": (t_eval, "s")}}

    def check_round(self, i: int, result: dict) -> None:
        r = self.ws / f"round{i}"
        self.ledger.check("loss decreases", checks.check_loss_log,
                          r / "ckpt" / "metrics.log")
        for k in range(self.SAMPLES):
            self.ledger.check("motion file", checks.check_motion_file,
                              r / "gen" / f"generated_{k:03d}.json", 60)
        self.ledger.check("report", checks.check_report, r / "report.json")

    def final_checks(self) -> None:
        lg = self.ledger
        lg.check("media lengths", checks.check_media_lengths, self.data,
                 self.DURATION, 24000, 30)
        lg.check("split counts", checks.check_split_counts,
                 self.data / "manifest.json")
        lg.check("cache hit", _check_cache_hit, self.data, self.cache, self.seed)
        train = lg.check("z-score", _check_zscore, self.data, self.cache)
        ckpt = self.last / "ckpt" / "checkpoint_final.snm"
        cfg = denoiser.DenoiserConfig(latent=64, heads=4, layers=2, max_frames=60)
        lg.check("reference forward (desk)", _check_reference, cfg, ckpt,
                 self.seed)
        lg.check("finite-difference gradient", _check_gradient, cfg, ckpt,
                 train, self.EPOCHS, self.seed)


class Prep10s(Workload):
    name = "prep-10s"

    SCENES = 30
    DURATION = 10.0
    LOADS = 3
    clips = {"cold": SCENES, "warm": SCENES}

    def setup(self, k: int) -> None:
        # a warm-up scene fills lazy state (imports, FFT plans) so that the
        # first timed round is not charged for it
        d = self.setup_dir(k)
        self.ini = _ini(d / "run.ini", {"paths": {"cache_dir": d / "cache"}})
        spec = dataset.SyntheticSceneSpec(duration=self.DURATION, seed=self.seed)
        scene = dataset.synthesize_pair(spec)
        audio.write_wav(d / "warmup.wav", scene.clip)
        audio.extract_binaural(audio.read_wav(d / "warmup.wav"),
                               audio.FeatureConfig(), spec.frames)

    def round(self, i: int, tracer=None) -> dict:
        r = self.round_dir(i)
        data, cache = r / "data", r / "cache"
        manifest = data / "manifest.json"
        features = ["--config", str(self.ini), "features", "--manifest",
                    str(manifest), "--cache", str(cache), "--workers", "1"]
        start = time.perf_counter()
        t_synth = self.ledger.cli(["synth-data", "--count", str(self.SCENES),
                                   "--seed", str(self.seed), "--duration",
                                   str(self.DURATION), "--out", str(data)], tracer)
        t_cold = self.ledger.cli(features, tracer, "cli.features.cold")
        after_cold = _listing(cache)
        t_warm = self.ledger.cli(features, tracer, "cli.features.warm")
        after_warm = _listing(cache)
        t_load, items = 0.0, 0
        for _ in range(self.LOADS):
            loaded, dt = self.ledger.call("load_split", _warm_load, manifest,
                                          cache, tracer=tracer,
                                          span="bench.load_split")
            t_load += dt
            items += len(loaded or ())
        round_s = time.perf_counter() - start
        return {"round_s": round_s, "listings": (after_cold, after_warm), "stage": {
            "stage.synth_scenes_per_s": (self.SCENES / t_synth, "scenes/s"),
            "stage.features_audio_s_per_s": (
                self.SCENES * self.DURATION / t_cold, "audio-s/s"),
            "stage.features_warm_s": (t_warm, "s"),
            "stage.cache_load_items_per_s": (items / t_load, "items/s")}}

    def check_round(self, i: int, result: dict) -> None:
        r = self.ws / f"round{i}"
        lg = self.ledger
        lg.check("media lengths", checks.check_media_lengths, r / "data",
                 self.DURATION, 24000, 30)
        lg.check("split counts", checks.check_split_counts,
                 r / "data" / "manifest.json")
        lg.check("RMS oracle", _check_rms_all, r / "data", r / "cache")
        lg.check("warm run hits every clip", _check_warm_listing,
                 *result["listings"], self.SCENES)
        lg.check("cache hit", _check_cache_hit, r / "data", r / "cache",
                 self.seed)
        lg.check("z-score", _check_zscore, r / "data", r / "cache")


class SampleFull(Workload):
    name = "sample-full"
    model_root = "cli.sample"

    DURATION = 8.0
    COUNT = 3
    STEPS = 10
    REQUESTS = 2      # one request is 15-20 s; two average the host's drift longer

    def setup(self, k: int) -> None:
        d = self.setup_dir(k)
        rng = np.random.default_rng(self.seed)
        model = denoiser.MotionDenoiser(denoiser.DenoiserConfig(), rng)
        self.ckpt = d / "full.snm"
        checkpoint.save_checkpoint(self.ckpt, model.named_parameters())
        spec = dataset.SyntheticSceneSpec(
            azimuth_deg=float(rng.uniform(-180, 180)),
            distance=float(rng.uniform(1.5, 4.0)),
            signal=dataset.SIGNALS[self.seed % len(dataset.SIGNALS)],
            program=dataset.PROGRAMS[self.seed % len(dataset.PROGRAMS)],
            duration=self.DURATION, seed=self.seed)
        self.clip = d / "clip.wav"
        audio.write_wav(self.clip, dataset.synthesize_pair(spec).clip)
        # cache_dir names a directory that does not exist: no stats are applied
        self.ini = _ini(d / "run.ini", {"paths": {"cache_dir": d / "no-cache"}})

    def round(self, i: int, tracer=None) -> dict:
        r = self.round_dir(i)
        rng = np.random.default_rng(self.seed)
        start = time.perf_counter()
        t = 0.0
        for q in range(self.REQUESTS):
            t += self.ledger.cli([
                "--config", str(self.ini), "sample", "--checkpoint",
                str(self.ckpt), "--audio", str(self.clip), _ssl_arg(rng),
                "--genre", ("dull", "neutral", "sensitive")[(self.seed + q) % 3],
                "--steps", str(self.STEPS), "--count", str(self.COUNT),
                "--seed", str(self.seed + q), "--out", str(r / f"gen{q}")], tracer)
        return {"round_s": time.perf_counter() - start, "stage": {
            "stage.sample_full_s_per_seq": (
                t / (self.REQUESTS * self.COUNT), "s/seq")}}

    def check_round(self, i: int, result: dict) -> None:
        frames = int(self.DURATION * 30)
        for q in range(self.REQUESTS):
            for k in range(self.COUNT):
                self.ledger.check(
                    "motion file", checks.check_motion_file,
                    self.ws / f"round{i}" / f"gen{q}" / f"generated_{k:03d}.json",
                    frames)

    def final_checks(self) -> None:
        self.ledger.check("clip length", _check_clip_length, self.clip,
                          self.DURATION)
        self.ledger.check("reference forward (full)", _check_reference,
                          denoiser.DenoiserConfig(), self.ckpt, self.seed)


WORKLOADS = {w.name: w for w in (DeskTrainEval, Prep10s, SampleFull)}
STAGE_METRICS = {
    "stage.train_steps_per_s": "steps/s",
    "stage.sample_desk_ms_per_seq": "ms/seq",
    "stage.eval_s": "s",
    "stage.synth_scenes_per_s": "scenes/s",
    "stage.features_audio_s_per_s": "audio-s/s",
    "stage.features_warm_s": "s",
    "stage.cache_load_items_per_s": "items/s",
    "stage.sample_full_s_per_seq": "s/seq",
}


# ---------------------------------------------------------------------------
# helpers behind the checks: they gather the program's outputs, the
# comparisons live in checks.py


def _warm_load(manifest_path: Path, cache: Path):
    """What train and eval do first: manifest, stats, warm load_split."""
    manifest = dataset.DatasetManifest.load(manifest_path)
    stats = audio.NormalizationStats.load(cache / "norm_stats.npz")
    return dataset.load_split(manifest, "train", audio.FeatureConfig(),
                              cache_dir=cache, stats=stats)


def _listing(cache: Path) -> dict:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in sorted(cache.glob("*.feat"))}


def _check_warm_listing(cold: dict, warm: dict, clips: int) -> None:
    checks.require(len(cold) == clips, f"{len(cold)} cache files for {clips} clips")
    checks.require(warm == cold, "the warm features run rewrote the cache")


def _cache_path(cache: Path, wav: Path) -> Path:
    key = audio.feature_cache_key(wav.read_bytes(), audio.FeatureConfig())
    return cache / f"{key}.feat"


def _check_rms_all(data: Path, cache: Path) -> None:
    hop = audio.FeatureConfig().hop_length
    for wav in sorted((data / "audio").glob("*.wav")):
        values, _, _ = checks.read_feature_cache(_cache_path(cache, wav))
        checks.check_rms_columns(wav, values, hop)


def _check_cache_hit(data: Path, cache: Path, seed: int) -> None:
    wavs = sorted((data / "audio").glob("*.wav"))
    wav = wavs[seed % len(wavs)]
    cached, _, _ = checks.read_feature_cache(_cache_path(cache, wav))
    fresh = audio.extract_binaural(audio.read_wav(wav), audio.FeatureConfig(),
                                   cached.shape[0]).values
    checks.check_cache_hit(cached, fresh)


def _check_zscore(data: Path, cache: Path):
    train = _warm_load(data / "manifest.json", cache)
    stats = audio.NormalizationStats.load(cache / "norm_stats.npz")
    values = np.concatenate([s[1] for s in train], axis=0)
    checks.check_zscore(values, stats.mean, stats.std)
    return train


def _check_clip_length(path: Path, duration: float) -> None:
    rate, data = checks.read_wav_samples(path)
    checks.require(data.shape == (round(duration * rate), 2),
                   f"{path}: {data.shape}, want {duration} s stereo")


def _restore(cfg, ckpt: Path):
    model = denoiser.MotionDenoiser(cfg, np.random.default_rng(0))
    model.load_state(checkpoint.load_checkpoint(ckpt))
    return model


def _check_reference(cfg, ckpt: Path, seed: int) -> float:
    """predict_x0 of the restored model against the numpy reference on a
    probe batch of two 8-frame items."""
    model = _restore(cfg, ckpt)
    params = checks.read_checkpoint(ckpt)
    rng = np.random.default_rng(seed)
    b, frames = 2, 8
    x = rng.standard_normal((b, frames, cfg.motion_width))
    a = rng.standard_normal((b, frames, cfg.audio_width))
    s = rng.standard_normal((b, frames, cfg.ssl_width))
    t = rng.integers(1, 50, size=b)
    g = rng.integers(0, cfg.genre_vocab, size=b)
    got = model.predict_x0(x, t, a, s, g).data
    return checks.check_reference_forward(
        got, checks.reference_predict_x0(params, cfg.heads, x, t, a, s, g))


def _check_gradient(cfg, ckpt: Path, train, epochs: int, seed: int) -> float:
    """Central differences of the five-term loss against Tape.backward on a
    two-item, 16-frame batch of the training split."""
    checks.require(train is not None and len(train) >= 2, "no training items")
    model = _restore(cfg, ckpt)
    rng = np.random.default_rng(seed)
    frames = 16
    items = train[:2]
    x0 = np.stack([item[0][:frames] for item in items])
    a = np.stack([item[1][:frames] for item in items])
    s = np.stack([item[2][:frames] for item in items])
    g = np.array([item[3] for item in items])
    skel = skeleton.SkeletonSpec.default()
    contacts = np.stack([skeleton.detect_foot_contacts(x[:, :75], 30.0, skel)
                         for x in x0])
    schedule = diffusion.cosine_schedule(50)
    t = rng.integers(1, 51, size=2)
    x_t = diffusion.q_sample(x0, t, rng.standard_normal(x0.shape), schedule)
    weights = losses.LossWeights.with_schedule(epochs)
    target = Tensor(x0)

    def loss():
        pred = model.predict_x0(x_t, t, a, s, g)
        terms = {"data": losses.l_data(pred, target),
                 "geo": losses.l_geo(pred, target, skel),
                 "foot": losses.l_foot(pred, target, contacts),
                 "traj": losses.l_traj(pred, target),
                 "rot": losses.l_rot(pred, target)}
        return losses.total_loss(terms, weights, 0)[0]

    with Tape() as tape:
        tape.backward(loss())
    entries = []
    for p in model.parameters():
        flat = np.abs(p.grad).reshape(-1)
        picks = {int(np.argmax(flat)), int(rng.integers(flat.size))}
        for k in picks:
            idx = np.unravel_index(k, p.data.shape)
            entries.append((p.data, idx, float(p.grad[idx])))
    return checks.check_gradient(lambda: loss().item(), entries)
