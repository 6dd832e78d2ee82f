"""End-to-end CLI: every subcommand through main() with a desk-scale config."""

import itertools
import json
import os
import shlex
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sonomotion import cli, dataset, denoiser, evalsuite
from sonomotion.checkpoint import load_checkpoint, save_checkpoint
from sonomotion.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, RunConfig,
                            main)
from sonomotion.audio import (AudioClip, FeatureConfig, NormalizationStats,
                              extract_binaural, feature_cache_key,
                              load_feature_cache, read_wav, write_wav)
from sonomotion.denoiser import DenoiserConfig, MotionDenoiser, TrainConfig
from sonomotion.errors import ConfigError, NumericError
from sonomotion.skeleton import load_motion, save_motion

TINY_CFG = """
[model]
latent = 16
heads = 2
layers = 1
max_frames = 60

[schedule]
diffusion_steps = 8

[training]
epochs = 3
batch_size = 4
lr = 0.001
seed = 0

[extractor]
ext_hidden = 8
ext_gru_layers = 1
ext_ae_latent = 8
ext_ae_heads = 2
ext_epochs = 3
ext_batch_size = 8
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    cfg_path = ws / "run.ini"
    cfg_path.write_text(TINY_CFG)
    data_dir = ws / "data"
    rc = main(["synth-data", "--count", "20", "--seed", "3",
               "--duration", "2.0", "--out", str(data_dir)])
    assert rc == EXIT_OK
    return ws, cfg_path, data_dir


def _fresh_checkpoint(cfg_path, path) -> Path:
    """An untrained model of the config at ``cfg_path``, saved at ``path``."""
    save_checkpoint(path, MotionDenoiser(RunConfig.load(cfg_path).model,
                                         np.random.default_rng(0))
                    .named_parameters())
    return path


def _record_sample_rows(monkeypatch) -> list:
    """The condition rows of every chain that ``sample`` runs."""
    seen = []
    real = cli.sample_motion

    def record(model, schedule, audio, *rest, **kw):
        seen.append(audio)
        return real(model, schedule, audio, *rest, **kw)

    monkeypatch.setattr(cli, "sample_motion", record)
    return seen


# (section, key) -> (the parent CLI's default, another valid value) for every
# key of cli.KEYS
KEY_VALUES = {
    ("paths", "cache_dir"): ("cache", "c2"),
    ("paths", "checkpoint_dir"): ("checkpoints", "k2"),
    ("model", "latent"): (512, 256),
    ("model", "heads"): (8, 4),
    ("model", "layers"): (4, 2),
    ("model", "ff_mult"): (4, 2),
    ("model", "max_frames"): (240, 120),
    ("schedule", "diffusion_steps"): (1000, 50),
    ("training", "epochs"): (2000, 7),
    ("training", "batch_size"): (8, 3),
    ("training", "lr"): (1e-4, 0.002),
    ("training", "weight_decay"): (0.0, 0.01),
    ("training", "seed"): (0, 5),
    ("training", "checkpoint_every"): (0, 2),
    ("training", "foot_mode"): ("magnitude", "zero"),
    ("features", "sample_rate"): (24000, 48000),
    ("features", "motion_fps"): (30, 60),
    ("features", "fft_size"): (1024, 2048),
    ("features", "mel_bands"): (128, 64),
    ("features", "normalize"): (True, False),
    ("extractor", "ext_hidden"): (64, 32),
    ("extractor", "ext_gru_layers"): (1, 2),
    ("extractor", "ext_ae_latent"): (32, 16),
    ("extractor", "ext_ae_layers"): (1, 2),
    ("extractor", "ext_ae_heads"): (2, 4),
    ("extractor", "ext_epochs"): (40, 5),
    ("extractor", "ext_batch_size"): (16, 4),
    ("extractor", "ext_lr"): (5e-5, 1e-3),
}


def _targets(cfg, section, key):
    """The values of every field the key sets."""
    out = []
    for target in cli.KEYS[section, key]:
        obj = cfg
        for part in target.split("."):
            obj = getattr(obj, part)
        out.append(obj)
    return out


class TestRunConfig:
    def test_defaults_load(self):
        cfg = RunConfig.load(None, env={})
        assert cfg.model == DenoiserConfig() and cfg.features == FeatureConfig()
        assert cfg.training == TrainConfig()
        ext = cfg.extractor
        assert (ext.hidden, ext.gru_layers, ext.ae_latent, ext.ae_layers,
                ext.ae_heads, ext.max_frames) == (64, 1, 32, 1, 2, 240)
        ext_train = cfg.extractor_training
        assert (ext_train.epochs, ext_train.batch_size, ext_train.lr,
                ext_train.seed) == (40, 16, 5e-5, 0)
        assert set(KEY_VALUES) == set(cli.KEYS)

    @pytest.mark.parametrize("section, key", sorted(KEY_VALUES))
    def test_key_default_ini_and_env(self, tmp_path, section, key):
        default, other = KEY_VALUES[section, key]
        for got in _targets(RunConfig.load(None, env={}), section, key):
            assert got == default and type(got) is type(default)
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\n{key} = {other}\n")
        env = {f"SONOMOTION_{section.upper()}_{key.upper()}": str(other)}
        for cfg in (RunConfig.load(ini, env={}), RunConfig.load(None, env=env)):
            for got in _targets(cfg, section, key):
                assert got == other and type(got) is type(other)

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nwidth = 3\n")
        with pytest.raises(ConfigError):
            RunConfig.load(bad)

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[cluster]\nnodes = 3\n")
        with pytest.raises(ConfigError):
            RunConfig.load(bad)

    def test_env_override(self, tmp_path):
        cfg = RunConfig.load(None, env={"SONOMOTION_TRAINING_EPOCHS": "7"})
        assert cfg.training.epochs == 7

    def test_range_validation(self, workspace, tmp_path, monkeypatch, capsys):
        """Each out-of-range value is a ConfigError from its component config:
        ``train`` exits 1 with one line and writes nothing."""
        ws, cfg_path, data_dir = workspace
        monkeypatch.chdir(tmp_path)
        for var, value in (("TRAINING_EPOCHS", "0"), ("TRAINING_LR", "-1.0"),
                           ("TRAINING_LR", "nan"), ("TRAINING_LR", "inf"),
                           ("TRAINING_WEIGHT_DECAY", "nan"),
                           ("TRAINING_WEIGHT_DECAY", "-0.1"),
                           ("TRAINING_SEED", "-1"),
                           ("TRAINING_CHECKPOINT_EVERY", "-2"),
                           ("TRAINING_FOOT_MODE", "bogus"),
                           ("EXTRACTOR_EXT_EPOCHS", "0"),
                           ("EXTRACTOR_EXT_LR", "0"),
                           ("EXTRACTOR_EXT_GRU_LAYERS", "0"),
                           ("EXTRACTOR_EXT_AE_LAYERS", "0"),
                           ("EXTRACTOR_EXT_AE_HEADS", "0"),
                           ("EXTRACTOR_EXT_AE_HEADS", "3"),
                           ("EXTRACTOR_EXT_AE_LATENT", "0"),
                           ("SCHEDULE_DIFFUSION_STEPS", "0"),
                           ("FEATURES_MOTION_FPS", "0")):
            env = {f"SONOMOTION_{var}": value}
            with pytest.raises(ConfigError):
                RunConfig.load(None, env=env)
            with monkeypatch.context() as m:
                m.setenv(*env.popitem())
                rc = main(["--config", str(cfg_path), "train", "--manifest",
                           str(data_dir / "manifest.json"), "--out", "out"])
            err = capsys.readouterr().err
            assert rc == EXIT_USAGE, (var, value)
            assert err.startswith("config error: ") and err.count("\n") == 1
            assert not list(tmp_path.iterdir()), (var, value)


class TestSynthData:
    def test_counts_and_balance(self, workspace):
        _, _, data_dir = workspace
        doc = json.loads((data_dir / "manifest.json").read_text())
        assert len(doc["entries"]) == 20
        genres = [e["genre"] for e in doc["entries"]]
        counts = {g: genres.count(g) for g in set(genres)}
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth-data", "--count", "10", "--seed", "5",
                         "--duration", "2.0", "--out", str(out)]) == EXIT_OK
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            fa = (a / rel).read_bytes()
            fb = (b / rel).read_bytes()
            assert fa == fb, f"{rel} differs between runs"


class TestFeaturesTrainSample:
    def test_full_pipeline(self, workspace):
        ws, cfg_path, data_dir = workspace
        manifest = str(data_dir / "manifest.json")
        cache = ws / "cache"
        ckpt = ws / "ckpt"

        import os
        old = os.getcwd()
        os.chdir(ws)
        try:
            rc = main(["--config", str(cfg_path), "features",
                       "--manifest", manifest, "--cache", str(cache),
                       "--workers", "2"])
            assert rc == EXIT_OK
            assert (cache / "norm_stats.npz").exists()
            assert len(list(cache.glob("*.feat"))) == 20

            rc = main(["--config", str(cfg_path), "train",
                       "--manifest", manifest, "--out", str(ckpt)])
            assert rc == EXIT_OK
            assert (ckpt / "checkpoint_final.snm").exists()
            assert (ckpt / "model_card.txt").exists()
            assert (ckpt / "metrics.log").exists()
        finally:
            os.chdir(old)

    def test_train_detects_contacts_at_motion_fps(self, workspace, tmp_path,
                                                  monkeypatch):
        ws, cfg_path, data_dir = workspace
        cfg = tmp_path / "fps25.ini"
        cfg.write_text(TINY_CFG + "\n[features]\nmotion_fps = 25\n")
        seen = []
        real = denoiser.detect_foot_contacts

        def record(p, fps, *rest):
            seen.append(fps)
            return real(p, fps, *rest)

        monkeypatch.setattr(denoiser, "detect_foot_contacts", record)
        monkeypatch.chdir(tmp_path)     # no cache: features at 25 fps
        rc = main(["--config", str(cfg), "train", "--manifest",
                   str(data_dir / "manifest.json"), "--out", str(tmp_path / "ckpt")])
        assert rc == EXIT_OK
        assert seen and set(seen) == {25}

    @pytest.mark.parametrize("steps", [8, 2])
    def test_sample_steps(self, workspace, tmp_path, steps):
        ws, cfg_path, data_dir = workspace
        ckpt = ws / "ckpt" / "checkpoint_final.snm"
        audio = next((data_dir / "audio").glob("*.wav"))
        out = tmp_path / f"gen{steps}"
        import os
        old = os.getcwd()
        os.chdir(ws)
        try:
            rc = main(["--config", str(cfg_path), "sample",
                       "--checkpoint", str(ckpt), "--audio", str(audio),
                       "--ssl", "0.5,-2.0,1.2", "--genre", "sensitive",
                       "--steps", str(steps), "--frames", "30",
                       "--out", str(out)])
        finally:
            os.chdir(old)
        assert rc == EXIT_OK
        files = list(out.glob("generated_*.json"))
        assert len(files) == 1
        motion, ssl, genre, extras = load_motion(files[0])
        assert motion.frames == 30
        assert np.isfinite(motion.p).all()
        assert extras["steps"] == steps

    def _sample(self, workspace, out, *flags, global_flags=()):
        ws, cfg_path, data_dir = workspace
        audio = next((data_dir / "audio").glob("*.wav"))
        rc = main(["--config", str(cfg_path), *global_flags, "sample",
                   "--checkpoint", str(ws / "ckpt" / "checkpoint_final.snm"),
                   "--audio", str(audio), "--steps", "2", "--frames", "30",
                   "--out", str(out), *flags])
        assert rc == EXIT_OK
        return (out / "generated_000.json").read_bytes()

    def test_sample_every_step_is_the_default(self, workspace, tmp_path):
        """``--steps`` equal to diffusion_steps (8 here) runs the same chain as
        no ``--steps``, so it writes the same bytes."""
        ws, cfg_path, data_dir = workspace
        audio = next((data_dir / "audio").glob("*.wav"))
        outputs = []
        for name, flags in (("all", ["--steps", "8"]), ("default", [])):
            rc = main(["--config", str(cfg_path), "sample", "--checkpoint",
                       str(ws / "ckpt" / "checkpoint_final.snm"),
                       "--audio", str(audio), "--ssl", "0,1,0", "--frames", "30",
                       "--out", str(tmp_path / name), *flags])
            assert rc == EXIT_OK
            outputs.append((tmp_path / name / "generated_000.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_sample_negative_ssl_coordinate(self, workspace, tmp_path):
        # a source on the character's right has a negative first coordinate
        spaced = self._sample(workspace, tmp_path / "a", "--ssl", "-0.5,2,1.2")
        joined = self._sample(workspace, tmp_path / "b", "--ssl=-0.5,2,1.2")
        assert spaced == joined
        _, ssl, _, _ = load_motion(tmp_path / "a" / "generated_000.json")
        np.testing.assert_array_equal(ssl.positions[0], [-0.5, 2.0, 1.2])

    def test_sample_global_seed(self, workspace, tmp_path):
        ssl = ("--ssl", "0.5,2,1.2")
        by_global = self._sample(workspace, tmp_path / "g", *ssl,
                                 global_flags=("--seed", "5"))
        by_own = self._sample(workspace, tmp_path / "o", *ssl, "--seed", "5")
        own_wins = self._sample(workspace, tmp_path / "w", *ssl, "--seed", "5",
                                global_flags=("--seed", "9"))
        assert by_global == by_own == own_wins
        assert load_motion(tmp_path / "g" / "generated_000.json")[3]["seed"] == 5

    @pytest.mark.parametrize("cached", [False, True])
    def test_sample_conditions_on_the_first_rows_of_the_whole_wav(
            self, workspace, tmp_path, monkeypatch, cached):
        """A 30 s WAV paired with a 2 s (60-frame) motion: ``sample`` under a
        max_frames of 60 conditions on the first 60 rows of the whole WAV's
        features, bit for bit the rows ``load_sample`` returns for the WAV:
        float32 values, with a cache dir and without one."""
        ws, _, data_dir = workspace
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        manifest = dataset.DatasetManifest.load(data / "manifest.json")
        entry = manifest.entries[0]
        wav = data / entry.audio
        clip = read_wav(wav)
        write_wav(wav, AudioClip(clip.sample_rate, np.tile(clip.left, 15),
                                 np.tile(clip.right, 15)))
        cache = tmp_path / "cache"
        if cached:
            cache.mkdir()
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(TINY_CFG + f"\n[paths]\ncache_dir = {cache}\n")
        seen = _record_sample_rows(monkeypatch)
        rc = main(["--config", str(cfg_path), "sample", "--checkpoint",
                   str(_fresh_checkpoint(cfg_path, tmp_path / "model.snm")),
                   "--audio", str(wav), "--ssl", "0,1,0", "--steps", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        whole = extract_binaural(read_wav(wav), FeatureConfig(),
                                 900).values.astype(np.float32)
        loaded = dataset.load_sample(manifest, entry, FeatureConfig(),
                                     cache_dir=cache if cached else None).audio
        assert loaded.shape == (60, 2272)
        np.testing.assert_array_equal(seen[0], loaded)
        np.testing.assert_array_equal(seen[0], whole[:60])

    @pytest.mark.parametrize("cached", [False, True])
    def test_sample_rows_equal_the_rows_train_gets(self, workspace, tmp_path,
                                                   monkeypatch, cached):
        """A 10 s (300-frame) clip in a split of 2 s clips, under a max_frames
        of 60: ``sample`` of its WAV conditions on the 60 rows that ``train``
        gets for it after ``_load_splits``' cut, bit for bit, without a cache
        dir and with one filled by ``features`` (whose statistics both
        apply)."""
        ws, _, data_dir = workspace
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        manifest_path = data / "manifest.json"
        entry = dataset.DatasetManifest.load(manifest_path).split_entries("train")[0]
        scene = dataset.synthesize_pair(dataset.SyntheticSceneSpec(
            duration=10.0, seed=1, signal="clicks"))
        write_wav(data / entry.audio, scene.clip)
        save_motion(data / entry.motion, scene.motion, scene.ssl, scene.genre,
                    extras=scene.meta)
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(TINY_CFG + f"\n[paths]\ncache_dir = {tmp_path / 'cache'}\n")
        if cached:
            assert main(["--config", str(cfg_path), "features", "--manifest",
                         str(manifest_path)]) == EXIT_OK
        train, = cli._load_splits(RunConfig.load(cfg_path), manifest_path, "train")
        seen = _record_sample_rows(monkeypatch)
        rc = main(["--config", str(cfg_path), "sample", "--checkpoint",
                   str(_fresh_checkpoint(cfg_path, tmp_path / "model.snm")),
                   "--audio", str(data / entry.audio), "--ssl", "0,1,0",
                   "--steps", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        assert train[0].audio.shape == (60, 2272)
        np.testing.assert_array_equal(seen[0], train[0].audio)

    @pytest.mark.parametrize("samples, frames", [
        (98_400, 123), (196_000, 245), (392_000, 490)])
    def test_sample_frames_count_whole_samples(self, workspace, tmp_path,
                                               samples, frames):
        """A clip of ``samples`` samples at 24 kHz spans samples * 30 // 24000
        motion frames: the float duration times the fps truncates these to
        one frame fewer."""
        ws, cfg_path, data_dir = workspace
        cfg_path = tmp_path / "long.ini"
        cfg_path.write_text(TINY_CFG.replace("max_frames = 60", "max_frames = 490"))
        ckpt = tmp_path / "model.snm"
        save_checkpoint(ckpt, MotionDenoiser(RunConfig.load(cfg_path).model,
                                             np.random.default_rng(0))
                        .named_parameters())
        clip = read_wav(next((data_dir / "audio").glob("*.wav")))
        reps = -(-samples // clip.samples)
        write_wav(tmp_path / "clip.wav", AudioClip(
            clip.sample_rate, np.tile(clip.left, reps)[:samples],
            np.tile(clip.right, reps)[:samples]))
        rc = main(["--config", str(cfg_path), "sample", "--checkpoint", str(ckpt),
                   "--audio", str(tmp_path / "clip.wav"), "--ssl", "0,1,0",
                   "--steps", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        assert load_motion(tmp_path / "o" / "generated_000.json")[0].frames == frames

    @pytest.mark.parametrize("normalize", [False, True])
    def test_sample_normalizes_only_when_configured(self, workspace, tmp_path,
                                                    monkeypatch, normalize):
        """``[features] normalize = false`` conditions ``sample`` on the raw
        features even when the cache dir holds statistics."""
        ws, _, data_dir = workspace
        cache = tmp_path / "cache"
        cache.mkdir()
        NormalizationStats(np.full(2272, 1.0), np.full(2272, 2.0)).save(
            cache / "norm_stats.npz")
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(TINY_CFG + f"\n[paths]\ncache_dir = {cache}\n"
                            f"\n[features]\nnormalize = {str(normalize).lower()}\n")
        ckpt = _fresh_checkpoint(cfg_path, tmp_path / "model.snm")
        seen = _record_sample_rows(monkeypatch)
        wav = next((data_dir / "audio").glob("*.wav"))
        rc = main(["--config", str(cfg_path), "sample", "--checkpoint", str(ckpt),
                   "--audio", str(wav), "--ssl", "0,1,0", "--steps", "1",
                   "--frames", "30", "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        raw = dataset.clip_features(wav, FeatureConfig(), cache)[0][:30]
        np.testing.assert_array_equal(seen[0], (raw - 1.0) / 2.0 if normalize
                                      else raw)

    def test_normalize_toggle_keeps_one_cache_file_per_clip(self, workspace,
                                                            tmp_path):
        """``[features] normalize`` is a run setting outside the cache key:
        after ``features`` fills the cache, loading the train split with
        normalize off and on hits every clip's file and writes no other."""
        _, _, data_dir = workspace
        manifest, cache = data_dir / "manifest.json", tmp_path / "cache"
        assert main(["features", "--manifest", str(manifest),
                     "--cache", str(cache)]) == EXIT_OK
        before = sorted(cache.iterdir())
        assert len([p for p in before if p.suffix == ".feat"]) == 20
        for normalize in ("false", "true"):
            cfg_path = tmp_path / f"{normalize}.ini"
            cfg_path.write_text(TINY_CFG + f"\n[paths]\ncache_dir = {cache}\n"
                                f"\n[features]\nnormalize = {normalize}\n")
            cli._load_splits(RunConfig.load(cfg_path, env={}), manifest, "train")
        assert sorted(cache.iterdir()) == before

    def test_entries_sharing_a_wav_share_one_cache_file(self, workspace,
                                                        tmp_path):
        """A 3 s WAV shared by a 60-frame and a 90-frame entry: ``features``
        exits 0 with the WAV's 90 rows in one cache file, and each entry loads
        its own first rows of that file."""
        ws, cfg_path, data_dir = workspace
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        manifest = dataset.DatasetManifest.load(data / "manifest.json")
        short, long = manifest.split_entries("train")[:2]
        scene = dataset.synthesize_pair(dataset.SyntheticSceneSpec(duration=3.0,
                                                                   seed=1))
        for e in (short, long):
            write_wav(data / e.audio, scene.clip)
        save_motion(data / long.motion, scene.motion, scene.ssl, scene.genre,
                    extras=scene.meta)
        cache = tmp_path / "cache"
        rc = main(["features", "--manifest", str(data / "manifest.json"),
                   "--cache", str(cache)])
        assert rc == EXIT_OK
        assert len(list(cache.glob("*.feat"))) == len(manifest.entries) - 1
        key = feature_cache_key((data / short.audio).read_bytes(), FeatureConfig())
        rows = load_feature_cache(cache / f"{key}.feat").values
        assert rows.shape[0] == 90
        for e, frames in ((short, 60), (long, 90)):
            np.testing.assert_array_equal(
                dataset.load_sample(manifest, e, FeatureConfig(), cache).audio,
                rows[:frames])
        assert (cache / "norm_stats.npz").exists()

    def test_sample_with_ssl_track_file(self, workspace, tmp_path):
        ws, cfg_path, data_dir = workspace
        ckpt = ws / "ckpt" / "checkpoint_final.snm"
        audio = next((data_dir / "audio").glob("*.wav"))
        track = tmp_path / "track.json"
        track.write_text(json.dumps([[0.1, -2.0, 1.2]] * 40))
        out = tmp_path / "gen_track"
        import os
        old = os.getcwd()
        os.chdir(ws)
        try:
            rc = main(["--config", str(cfg_path), "sample",
                       "--checkpoint", str(ckpt), "--audio", str(audio),
                       "--ssl", str(track), "--frames", "30",
                       "--out", str(out)])
        finally:
            os.chdir(old)
        assert rc == EXIT_OK
        assert len(list(out.glob("generated_*.json"))) == 1

    def test_eval_ground_truth_fid_near_zero(self, workspace, tmp_path,
                                             monkeypatch):
        ws, cfg_path, data_dir = workspace
        manifest = str(data_dir / "manifest.json")
        report_path = tmp_path / "report.json"
        encoded = _record_extractor_encodings(monkeypatch)
        import os
        old = os.getcwd()
        os.chdir(ws)
        try:
            rc = main(["--config", str(cfg_path), "eval",
                       "--manifest", manifest, "--out", str(report_path)])
        finally:
            os.chdir(old)
        assert rc == EXIT_OK
        doc = json.loads(report_path.read_text())
        assert doc["fid"] < 1e-6        # ground truth against itself
        assert doc["apd"] >= 0.0
        # one pass encodes the test items for both sides of the comparison
        assert (len(encoded["encode_condition"]),
                len(encoded["encode_motion"])) == (1, 1)

    def test_metric_report_serialization(self, workspace, tmp_path, monkeypatch,
                                         capsys):
        """``eval`` writes the metrics as indented JSON in a fixed key order
        and prints them as a table, then the report path."""
        ws, cfg_path, data_dir = workspace
        monkeypatch.chdir(ws)
        report_path = tmp_path / "report.json"
        rc = main(["--config", str(cfg_path), "eval", "--manifest",
                   str(data_dir / "manifest.json"), "--out", str(report_path)])
        assert rc == EXIT_OK
        text = report_path.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2)
        assert list(doc) == ["top1", "top1_ci", "top2", "top2_ci", "top3", "top3_ci",
                             "fid", "diversity", "diversity_ci", "apd"]
        assert capsys.readouterr().out.splitlines()[-7:] == [
            f"R-prec top1    {doc['top1']:.3f} +- {doc['top1_ci']:.3f}",
            f"R-prec top2    {doc['top2']:.3f} +- {doc['top2_ci']:.3f}",
            f"R-prec top3    {doc['top3']:.3f} +- {doc['top3_ci']:.3f}",
            f"FID            {doc['fid']:.3f}",
            f"Diversity      {doc['diversity']:.3f} +- {doc['diversity_ci']:.3f}",
            f"APD            {doc['apd']:.3f}",
            f"report: {report_path}"]

    def test_eval_with_checkpoint_generates(self, workspace, tmp_path,
                                            monkeypatch):
        ws, cfg_path, data_dir = workspace
        manifest = str(data_dir / "manifest.json")
        ckpt = ws / "ckpt" / "checkpoint_final.snm"
        report_path = tmp_path / "report_gen.json"
        encoded = _record_extractor_encodings(monkeypatch)
        import os
        old = os.getcwd()
        os.chdir(ws)
        try:
            rc = main(["--config", str(cfg_path), "eval",
                       "--manifest", manifest, "--checkpoint", str(ckpt),
                       "--out", str(report_path)])
        finally:
            os.chdir(old)
        assert rc == EXIT_OK
        doc = json.loads(report_path.read_text())
        assert np.isfinite(doc["fid"]) and doc["fid"] >= 0.0
        # the test conditions are encoded once, the generated motions apart
        assert (len(encoded["encode_condition"]),
                len(encoded["encode_motion"])) == (1, 2)
        model = encoded["model"]
        (audio, ssl, genre), cond = encoded["encode_condition"][0]
        (gen_x0,), mot_gen = encoded["encode_motion"][1]
        # a full pass over the generated samples gives the same bytes
        full_cond, full_mot = evalsuite.extract_features(
            model, list(zip(gen_x0, audio, ssl, genre)))
        assert np.array_equal(full_cond, cond) and np.array_equal(full_mot, mot_gen)


def _record_extractor_encodings(monkeypatch) -> dict:
    """Record the arguments and output of each ``encode_condition`` and
    ``encode_motion`` call on the extractor that ``eval`` trains, from the
    end of its training on; the model is stored under ``"model"``."""
    encoded = {"encode_condition": [], "encode_motion": []}
    train = cli.train_extractor

    def recording_train(*args, **kwargs):
        model, curves = train(*args, **kwargs)
        for name in ("encode_condition", "encode_motion"):
            def call(*a, _fn=getattr(model, name), _calls=encoded[name]):
                out = _fn(*a)
                _calls.append((a, out.data))
                return out
            setattr(model, name, call)
        encoded["model"] = model
        return model, curves

    monkeypatch.setattr(cli, "train_extractor", recording_train)
    return encoded


class TestSampleChains:
    """``sample`` and ``eval`` draw chain i from generator i of
    ``SeedSequence(seed).spawn(K)`` and run the chains on
    min(K, cores // BLAS threads) threads, at least 1."""

    @staticmethod
    def _host(monkeypatch, cores, blas=None, omp=None):
        """A host of ``cores`` cores with the given BLAS thread variables."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        for var, value in (("OPENBLAS_NUM_THREADS", blas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)

    @pytest.mark.parametrize("cores, blas, omp, count, want", [
        (2, "1", None, 3, 2),        # pinned below the core count
        (2, "2", None, 3, 1),
        (2, None, "1", 3, 2),        # OMP_NUM_THREADS when OpenBLAS's is unset
        (2, "0", "1", 3, 2),         # the first positive integer
        (2, "abc", None, 3, 1),      # unparsable: unset, so one per core
        (2, None, None, 3, 1),       # OpenBLAS's default: one per core
        (8, "2", None, 3, 3),        # never more than the chains
        (2, "1", None, 1, 1),
        (2, "4", None, 3, 1),        # at least 1
    ])
    def test_worker_rule(self, monkeypatch, cores, blas, omp, count, want):
        self._host(monkeypatch, cores, blas, omp)
        assert cli._chain_workers(count) == want

    def test_worker_rule_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert cli._chain_workers(3) == 2

    @pytest.fixture
    def model(self, workspace, tmp_path):
        ws, cfg_path, data_dir = workspace
        ckpt = tmp_path / "model.snm"
        save_checkpoint(ckpt, MotionDenoiser(RunConfig.load(cfg_path).model,
                                             np.random.default_rng(0))
                        .named_parameters())
        return ckpt

    def _sample(self, workspace, ckpt, out, count, capsys):
        ws, cfg_path, data_dir = workspace
        rc = main(["--config", str(cfg_path), "sample", "--checkpoint", str(ckpt),
                   "--audio", str(data_dir / "audio" / "sample_0000.wav"),
                   "--ssl", "0.5,2,1.2", "--steps", "3", "--frames", "30",
                   "--count", str(count), "--out", str(out)])
        captured = capsys.readouterr()
        return rc, captured.out.splitlines(), captured.err

    def test_bytes_independent_of_workers_and_count(self, workspace, model,
                                                    tmp_path, monkeypatch, capsys):
        """``--count 3`` writes the same files on one worker and on two, and
        ``--count 1`` writes the first of them."""
        outputs = {}
        for name, blas, count in (("one", "2", 3), ("two", "1", 3),
                                  ("single", "1", 1)):
            self._host(monkeypatch, 2, blas)
            rc, lines, err = self._sample(workspace, model, tmp_path / name,
                                          count, capsys)
            assert rc == EXIT_OK and err == ""
            workers = 1 if name != "two" else 2
            assert lines[0].startswith(f"sampled {count} chains, {workers} at a time: ")
            assert lines[0].endswith(" ms per sequence")
            assert lines[1:] == [f"wrote {tmp_path / name / f'generated_{i:03d}.json'}"
                                 for i in range(count)]
            outputs[name] = [p.read_bytes()
                             for p in sorted((tmp_path / name).glob("*.json"))]
        assert outputs["one"] == outputs["two"]
        assert len(set(outputs["two"])) == 3
        assert outputs["single"] == outputs["two"][:1]

    def test_unparsable_blas_threads_runs_one_worker(self, workspace, model,
                                                     tmp_path, monkeypatch, capsys):
        self._host(monkeypatch, 2, "abc")
        rc, lines, err = self._sample(workspace, model, tmp_path / "o", 2, capsys)
        assert rc == EXIT_OK and err == ""
        assert lines[0].startswith("sampled 2 chains, 1 at a time: ")

    def test_failed_chain_exits_3_and_writes_nothing(self, workspace, tmp_path,
                                                     monkeypatch, capsys):
        ws, cfg_path, data_dir = workspace
        model = MotionDenoiser(RunConfig.load(cfg_path).model,
                               np.random.default_rng(0))
        model.blocks[0].attn.wq.w.data[:] = np.nan
        ckpt = tmp_path / "model.snm"
        save_checkpoint(ckpt, model.named_parameters())
        self._host(monkeypatch, 2, "1")
        rc, lines, err = self._sample(workspace, ckpt, tmp_path / "o", 3, capsys)
        assert rc == EXIT_NUMERIC
        assert err.count("\n") == 1 and "transformer layer 0" in err
        assert "Traceback" not in err
        assert lines == []
        assert not list(tmp_path.rglob("generated_*.json"))

    def test_threads_share_chains_step_by_step(self, monkeypatch, capsys):
        """Three chains on two threads: chain 2 starts its first step before
        chain 0 starts its last, however fast chain 0's steps are."""
        self._host(monkeypatch, 2, "1")
        starts = []

        def chain(model, schedule, i, ssl, genre, rng, **kwargs):
            for k in range(4):
                starts.append((i, k))
                if i == 1:
                    time.sleep(0.02)
                yield
            return i

        monkeypatch.setattr(cli, "sample_motion", chain)
        motions = cli._sample_chains(None, None, [(i, None, 0) for i in range(3)],
                                     seed=0)
        assert motions == [0, 1, 2]
        assert capsys.readouterr().out.startswith("sampled 3 chains, 2 at a time: ")
        assert starts.index((2, 0)) < starts.index((0, 3))

    def test_many_chains_on_more_threads_than_cores(self, monkeypatch, capsys):
        """32 chains of 20 steps on 8 threads, switching threads as often as
        the interpreter can: each chain takes its steps in order and returns
        its own result, and the call ends within its time limit."""
        self._host(monkeypatch, 8, "1")
        steps = [[] for _ in range(32)]

        def chain(model, schedule, i, ssl, genre, rng, **kwargs):
            for k in range(20):
                steps[i].append(k)
                yield
            return i

        monkeypatch.setattr(cli, "sample_motion", chain)
        results = []
        runner = threading.Thread(daemon=True, target=lambda: results.append(
            cli._sample_chains(None, None, [(i, None, 0) for i in range(32)], 0)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert results == [list(range(32))]
        assert steps == [list(range(20))] * 32
        assert capsys.readouterr().out.startswith("sampled 32 chains, 8 at a time: ")

    def test_failed_step_stops_handing_out_steps(self, workspace, model, tmp_path,
                                                 monkeypatch, capsys):
        """Chain 1 raises at step 2 of 5 while another chain's step runs: exit
        3 with one line and no files, no step starts after the failure, and
        no thread outlives ``main``."""
        self._host(monkeypatch, 2, "1")
        events, ids = [], itertools.count()
        started = threading.Condition()

        def chain(*args, **kwargs):
            i = next(ids)
            for k in range(1, 6):
                with started:
                    events.append(("start", i, k))
                    started.notify_all()
                if (i, k) == (1, 2):
                    with started:       # fail once another chain's step runs
                        assert started.wait_for(lambda: events[-1][1] != 1, 5)
                        events.append(("fail", i, k))
                    raise NumericError("chain 1 diverged at step 2")
                time.sleep(0.05)
                yield

        monkeypatch.setattr(cli, "sample_motion", chain)
        threads = threading.active_count()
        rc, lines, err = self._sample(workspace, model, tmp_path / "o", 3, capsys)
        assert threading.active_count() == threads
        assert rc == EXIT_NUMERIC
        assert err == "numeric failure: chain 1 diverged at step 2\n"
        assert lines == []
        assert not list(tmp_path.rglob("generated_*.json"))
        failed = events.index(("fail", 1, 2))
        assert [e for e in events[failed:] if e[0] == "start"] == []

    def test_first_failure_in_chain_order_is_raised(self, monkeypatch, capsys):
        """Chains 2 and 0 each raise their own error at their second step,
        chain 2 first: the call raises chain 0's, prints nothing and leaves no
        thread running."""
        self._host(monkeypatch, 8, "1")
        started_0, failed_2 = threading.Event(), threading.Event()

        def chain(model, schedule, i, ssl, genre, rng, **kwargs):
            yield
            if i == 0:
                started_0.set()
                assert failed_2.wait(5)
                raise NumericError("chain 0 diverged")
            if i == 2:
                assert started_0.wait(5)
                try:
                    raise NumericError("chain 2 diverged")
                finally:
                    failed_2.set()
            yield
            return i

        monkeypatch.setattr(cli, "sample_motion", chain)
        threads = threading.active_count()
        with pytest.raises(NumericError, match="chain 0 diverged"):
            cli._sample_chains(None, None, [(i, None, 0) for i in range(3)], 0)
        assert failed_2.is_set()
        assert threading.active_count() == threads
        assert capsys.readouterr().out == ""

    def test_eval_report_independent_of_workers(self, workspace, model, tmp_path,
                                                monkeypatch, capsys):
        ws, cfg_path, data_dir = workspace
        monkeypatch.chdir(ws)
        reports = []
        for blas in ("2", "1"):
            self._host(monkeypatch, 2, blas)
            out = tmp_path / f"report{blas}.json"
            rc = main(["--config", str(cfg_path), "eval", "--manifest",
                       str(data_dir / "manifest.json"), "--checkpoint", str(model),
                       "--out", str(out)])
            assert rc == EXIT_OK
            lines = capsys.readouterr().out.splitlines()
            workers = 3 - int(blas)
            assert lines[-8].startswith(f"sampled 2 chains, {workers} at a time: ")
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestDeterminism:
    def test_pipeline_twice_gives_the_same_bytes(self, workspace, tmp_path,
                                                 monkeypatch):
        """features, train, sample and eval on the tiny workspace, run twice,
        each in its own directory, write the same files with the same bytes;
        only the ``created:`` line of ``model_card.txt`` may differ. Outputs
        are named relative to the run directory (the cache is the default
        ``cache``), because the model card records the output dir."""
        ws, cfg_path, data_dir = workspace
        manifest = str(data_dir / "manifest.json")
        ckpt = "ckpt/checkpoint_final.snm"
        runs = [tmp_path / "a", tmp_path / "b"]
        for run in runs:
            run.mkdir()
            monkeypatch.chdir(run)
            for argv in (
                    ["features", "--manifest", manifest],
                    ["train", "--manifest", manifest, "--out", "ckpt"],
                    ["sample", "--checkpoint", ckpt, "--count", "2",
                     "--audio", str(data_dir / "audio" / "sample_0000.wav"),
                     "--ssl", "0.5,-2.0,1.2", "--out", "gen"],
                    ["eval", "--manifest", manifest, "--checkpoint", ckpt,
                     "--out", "report.json"]):
                assert main(["--config", str(cfg_path), *argv]) == EXIT_OK, argv

        def listing(run):
            return sorted(p.relative_to(run) for p in run.rglob("*") if p.is_file())

        files = listing(runs[0])
        assert files == listing(runs[1])
        assert {"report.json", "norm_stats.npz", "checkpoint_final.snm",
                "metrics.log", "generated_001.json"} <= {p.name for p in files}
        for rel in files:
            a, b = ([line for line in (run / rel).read_bytes().splitlines(True)
                     if not (rel.name == "model_card.txt"
                             and line.startswith(b"created: "))]
                    for run in runs)
            assert a == b, f"{rel} differs between runs"


def _cut_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("using the first")]


def _readme_cli_steps() -> list[list[str]]:
    """The argv of each ``sonomotion`` command in the README's CLI block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("sonomotion ")]
    return [shlex.split(line)[1:] for line in lines]


class TestFrameCountRule:
    """``train``, ``eval`` and ``sample`` use the first W frames of every clip
    they read, W = min(max_frames, every clip's frame count), and print one
    line naming W and the longest count when W cuts a clip."""

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_mixed_frame_counts_use_the_shortest(self, workspace, tmp_path,
                                                 monkeypatch, capsys, command):
        """One 3 s (90-frame) clip in a split of 2 s (60-frame) clips, under a
        max_frames of 120: every item of every split is used at W = 60."""
        ws, _, data_dir = workspace
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(TINY_CFG.replace("max_frames = 60", "max_frames = 120"))
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        manifest = dataset.DatasetManifest.load(data / "manifest.json")
        entry = manifest.split_entries("train")[0]
        scene = dataset.synthesize_pair(dataset.SyntheticSceneSpec(duration=3.0,
                                                                   seed=1))
        write_wav(data / entry.audio, scene.clip)
        save_motion(data / entry.motion, scene.motion, scene.ssl, scene.genre,
                    extras=scene.meta)
        seen = {}

        def record(name, position):     # the frame count of each sample passed
            fn = getattr(cli, name)

            def call(*args, **kwargs):
                seen[name] = [s.x0.shape[0] for s in args[position]]
                return fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, call)

        record("train_denoiser", 2)
        record("train_extractor", 0)
        record("extract_features", 1)
        monkeypatch.chdir(tmp_path)         # no feature cache under the cwd
        rc = main(["--config", str(cfg_path), command, "--manifest",
                   str(data / "manifest.json"), "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        assert _cut_lines(capsys.readouterr().out) == [
            "using the first 60 frames of each clip; the longest has 90"]
        train_items = len(manifest.split_entries("train"))
        if command == "train":
            assert seen["train_denoiser"] == [60] * train_items
        else:
            assert seen["train_extractor"] == [60] * train_items
            assert seen["extract_features"] == [60] * len(
                manifest.split_entries("test"))

    def test_clips_longer_than_max_frames(self, workspace, tmp_path,
                                          monkeypatch, capsys):
        """2 s (60-frame) clips under max_frames = 30: train, sample and eval,
        with and without a checkpoint, exit 0 on 30-frame items and each
        prints the one cut line."""
        ws, _, data_dir = workspace
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(TINY_CFG.replace("max_frames = 60", "max_frames = 30"))
        manifest = str(data_dir / "manifest.json")
        monkeypatch.chdir(tmp_path)
        assert main(["features", "--manifest", manifest]) == EXIT_OK
        capsys.readouterr()
        ckpt = "ckpt/checkpoint_final.snm"
        for argv in (["train", "--manifest", manifest, "--out", "ckpt"],
                     ["sample", "--checkpoint", ckpt, "--ssl", "0,1,0",
                      "--audio", str(data_dir / "audio" / "sample_0000.wav"),
                      "--out", "gen"],
                     ["eval", "--manifest", manifest, "--out", "truth.json"],
                     ["eval", "--manifest", manifest, "--checkpoint", ckpt,
                      "--out", "report.json"]):
            assert main(["--config", str(cfg_path), *argv]) == EXIT_OK, argv
            assert _cut_lines(capsys.readouterr().out) == [
                "using the first 30 frames of each clip; the longest has 60"], argv
        assert load_motion(tmp_path / "gen" / "generated_000.json")[0].frames == 30
        for name in ("truth.json", "report.json"):
            assert np.isfinite(json.loads((tmp_path / name).read_text())["fid"])

    def test_readme_quick_start_runs(self, tmp_path, monkeypatch, capsys):
        """The README's CLI steps 1-5, in order, with ``--count 20`` (2 test
        items), 10 s clips (300 frames) and a desk-scale config that leaves
        max_frames at 240."""
        steps = _readme_cli_steps()
        commands = [argv[2] if argv[0] == "--config" else argv[0]
                    for argv in steps]
        assert commands == ["synth-data", "features", "train", "sample", "eval",
                            "gradcheck"]
        (tmp_path / "run.ini").write_text(TINY_CFG.replace("max_frames = 60\n", ""))
        monkeypatch.chdir(tmp_path)
        for command, argv in zip(commands[:5], steps):
            if command == "synth-data":
                argv[argv.index("--count") + 1] = "20"
            assert main(argv) == EXIT_OK, argv
            cut = _cut_lines(capsys.readouterr().out)
            assert cut == (["using the first 240 frames of each clip; the "
                            "longest has 300"]
                           if command in ("train", "sample", "eval") else []), argv
        generated = load_motion(tmp_path / "generated" / "generated_000.json")[0]
        assert generated.frames == 240
        assert np.isfinite(json.loads((tmp_path / "report.json").read_text())["fid"])


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--seed", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_global_seed(self, monkeypatch):
        seeds = []
        monkeypatch.setattr(cli, "run_primitive_suite",
                            lambda seed: seeds.append(seed) or [])
        assert main(["--seed", "5", "gradcheck"]) == EXIT_OK
        assert main(["--seed", "5", "gradcheck", "--seed", "7"]) == EXIT_OK
        assert main(["gradcheck"]) == EXIT_OK
        assert seeds == [5, 7, 0]


class TestSynthDataSeed:
    def test_global_seed(self, tmp_path):
        for argv, want in ((["--seed", "5", "synth-data"], 5),
                           (["--seed", "5", "synth-data", "--seed", "7"], 7)):
            out = tmp_path / str(want)
            assert main(argv + ["--count", "10", "--duration", "2.0",
                                "--out", str(out)]) == EXIT_OK
            assert json.loads((out / "manifest.json").read_text())["seed"] == want


class TestExitCodes:
    def test_truncated_feature_cache_is_data_error(self, workspace, tmp_path,
                                                   monkeypatch, capsys):
        ws, cfg_path, data_dir = workspace
        manifest = str(data_dir / "manifest.json")
        cache = tmp_path / "cache"
        assert main(["features", "--manifest", manifest,
                     "--cache", str(cache)]) == EXIT_OK
        for path in cache.glob("*.feat"):
            os.truncate(path, path.stat().st_size // 2)
        monkeypatch.setenv("SONOMOTION_PATHS_CACHE_DIR", str(cache))
        rc = main(["--config", str(cfg_path), "train", "--manifest", manifest,
                   "--out", str(tmp_path / "ckpt")])
        assert rc == EXIT_DATA
        assert "feature cache" in capsys.readouterr().err

    def test_damaged_motion_file_is_data_error(self, workspace, tmp_path,
                                               capsys):
        ws, cfg_path, data_dir = workspace
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        motion = sorted((data / "motion").glob("*.json"))[0]
        doc = json.loads(motion.read_text())
        doc["p"] = doc["p"][:len(doc["p"]) // 2]
        motion.write_text(json.dumps(doc))
        rc = main(["--config", str(cfg_path), "train", "--manifest",
                   str(data / "manifest.json"), "--out", str(tmp_path / "ckpt")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and motion.name in err

    def test_degenerate_rotation_names_clip_frame_and_joint(
            self, workspace, tmp_path, monkeypatch, capsys):
        """A zero 6D block in a training motion file exits 2 with one line
        naming the clip, its motion file and the block's frame and joint."""
        ws, cfg_path, data_dir = workspace
        monkeypatch.chdir(tmp_path)         # cache_dir "cache" is under tmp_path
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        entry = dataset.DatasetManifest.load(data / "manifest.json").split_entries(
            "train")[0]
        m, ssl, genre, extras = load_motion(data / entry.motion)
        m.r[3, 2 * 6:3 * 6] = 0.0                                # frame 3, joint 2
        save_motion(data / entry.motion, m, ssl, genre, extras)
        rc = main(["--config", str(cfg_path), "train", "--manifest",
                   str(data / "manifest.json"), "--out", str(tmp_path / "ckpt")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        for part in (entry.sample_id, Path(entry.motion).name, "block (3, 2)",
                     "(frame, joint)"):
            assert part in err

    @pytest.mark.parametrize("damage", ["drop-frames", "frames-0", "cut-p",
                                        "fps-0", "fps-nan", "fps-neg", "fps-inf"])
    def test_damaged_motion_header_fails_features(self, workspace, tmp_path,
                                                  capsys, damage):
        ws, cfg_path, data_dir = workspace
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        motion = sorted((data / "motion").glob("*.json"))[0]
        doc = json.loads(motion.read_text())
        if damage == "drop-frames":
            del doc["frames"]
        elif damage == "frames-0":
            doc["frames"] = 0
        elif damage.startswith("fps-"):
            doc["fps"] = {"fps-0": 0, "fps-nan": np.nan, "fps-neg": -30,
                          "fps-inf": np.inf}[damage]
        else:
            doc["p"] = doc["p"][:len(doc["p"]) // 2 // 4 * 4]
        motion.write_text(json.dumps(doc))
        rc = main(["features", "--manifest", str(data / "manifest.json"),
                   "--cache", str(tmp_path / "cache")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and motion.name in err

    @pytest.mark.parametrize("raw", ["a,b,c", "nan,0,1", "inf,0,1"])
    def test_non_numeric_static_ssl_is_usage_error(self, workspace, tmp_path,
                                                   capsys, raw):
        """A static source that is not three finite numbers exits 1: the
        model never sees it."""
        ws, cfg_path, data_dir = workspace
        ckpt = tmp_path / "model.snm"
        save_checkpoint(ckpt, MotionDenoiser(RunConfig.load(cfg_path).model,
                                             np.random.default_rng(0))
                        .named_parameters())
        rc = main(["--config", str(cfg_path), "sample", "--checkpoint", str(ckpt),
                   "--audio", str(next((data_dir / "audio").glob("*.wav"))),
                   "--ssl", raw, "--steps", "2", "--frames", "30",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"'{raw}'" in err

    def test_non_finite_ssl_track_is_data_error(self, workspace, tmp_path, capsys):
        ws, cfg_path, data_dir = workspace
        track = tmp_path / "track.json"
        track.write_text(json.dumps([[0.1, -2.0, 1.2]] * 29 + [[np.nan, 0, 1]]))
        ckpt = tmp_path / "model.snm"
        save_checkpoint(ckpt, MotionDenoiser(RunConfig.load(cfg_path).model,
                                             np.random.default_rng(0))
                        .named_parameters())
        rc = main(["--config", str(cfg_path), "sample", "--checkpoint", str(ckpt),
                   "--audio", str(next((data_dir / "audio").glob("*.wav"))),
                   "--ssl", str(track), "--steps", "2", "--frames", "30",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "track.json" in err and "non-finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("samples", [0, 500, 800])
    def test_audio_under_two_frames_is_data_error(self, workspace, tmp_path,
                                                  capsys, samples):
        """A WAV of under 2 motion frames (800 samples at 24 kHz is 1 frame at
        30 fps) exits 2 with one line naming it. The checkpoint does not
        exist: the clip is checked before the model is restored, and before
        the output dir is made."""
        ws, cfg_path, data_dir = workspace
        wav = tmp_path / "short.wav"
        write_wav(wav, AudioClip(24000, np.zeros(samples), np.zeros(samples)))
        rc = main(["--config", str(cfg_path), "sample", "--checkpoint",
                   str(tmp_path / "none.snm"), "--audio", str(wav),
                   "--ssl", "0,1,0", "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "short.wav" in err and "at least 2" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--frames", "-5"), ("--frames", "0"), ("--frames", "1"), ("--steps", "0"),
        ("--steps", "-3"), ("--steps", "50"), ("--count", "0"), ("--count", "-2"),
        ("--frames", "61"), ("synth-data --count", "5"),
        ("synth-data --duration", "1"), ("features --workers", "0"),
        ("features --workers", "-3")])
    def test_sample_flag_out_of_range_is_usage_error(self, workspace, tmp_path,
                                                     capsys, flag, value):
        """A flag named alone is a ``sample`` flag, else "command flag".
        ``sample``: --steps and --count must be >= 1, --steps at most
        diffusion_steps (8 here) and --frames in 2..max_frames (60).
        ``synth-data``: --count at least 10 (an 8:1:1 split) and --duration at
        least 2 s. ``features``: --workers at least 1. Each exits 1 with one
        line naming the flag, before it writes its output dir."""
        ws, cfg_path, data_dir = workspace
        command, _, flag = flag.rpartition(" ")
        out = tmp_path / "o"
        if command == "synth-data":
            argv = ["synth-data", "--count", "10", "--duration", "2", "--out", str(out)]
        elif command == "features":
            argv = ["features", "--manifest", str(data_dir / "manifest.json"),
                    "--cache", str(out)]
        else:
            ckpt = tmp_path / "model.snm"
            save_checkpoint(ckpt, MotionDenoiser(RunConfig.load(cfg_path).model,
                                                 np.random.default_rng(0))
                            .named_parameters())
            argv = ["sample", "--checkpoint", str(ckpt),
                    "--audio", str(next((data_dir / "audio").glob("*.wav"))),
                    "--ssl", "0,1,0", "--out", str(out),
                    "--steps", "2", "--frames", "30", "--count", "1"]
        # the flag comes last, so its value wins over the valid one above
        rc = main(["--config", str(cfg_path), *argv, flag, value])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "features"])
    def test_non_finite_wav_is_data_error(self, workspace, tmp_path, monkeypatch,
                                          capsys, command):
        """A float WAV with one infinite sample exits 2 with one line naming
        it, before any feature is computed, and writes no output file."""
        ws, cfg_path, data_dir = workspace
        monkeypatch.chdir(tmp_path)         # no feature cache under the cwd
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        manifest = dataset.DatasetManifest.load(data / "manifest.json")
        wav = data / manifest.entries[0].audio
        clip = read_wav(wav)
        clip.left[100] = np.inf
        write_wav(wav, clip)
        out = tmp_path / "o"
        if command == "sample":
            argv = ["sample", "--checkpoint",
                    str(_fresh_checkpoint(cfg_path, tmp_path / "model.snm")),
                    "--audio", str(wav), "--ssl", "0,1,0", "--steps", "1",
                    "--out", str(out)]
        else:
            argv = ["features", "--manifest", str(data / "manifest.json"),
                    "--cache", str(out)]
        assert main(["--config", str(cfg_path), *argv]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and wav.name in err and "non-finite" in err
        assert not out.exists() or not any(out.iterdir())

    @staticmethod
    def _run_on_cut_wav(workspace, tmp_path, monkeypatch, command, cut):
        """``command`` on a copy of the tiny dataset whose first WAV keeps
        only ``cut(its bytes)``: the exit code, that WAV and the output path."""
        ws, cfg_path, data_dir = workspace
        monkeypatch.chdir(tmp_path)         # no feature cache under the cwd
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        manifest = dataset.DatasetManifest.load(data / "manifest.json")
        wav = data / manifest.entries[0].audio
        wav.write_bytes(cut(wav.read_bytes()))
        out = tmp_path / "o"
        if command == "sample":
            argv = ["sample", "--checkpoint",
                    str(_fresh_checkpoint(cfg_path, tmp_path / "model.snm")),
                    "--audio", str(wav), "--ssl", "0,1,0", "--steps", "1",
                    "--out", str(out)]
        else:
            argv = ["features", "--manifest", str(data / "manifest.json"),
                    "--cache", str(out)]
        return main(["--config", str(cfg_path), *argv]), wav, out

    @pytest.mark.parametrize("cut", [30, 44])
    @pytest.mark.parametrize("command", ["sample", "features"])
    def test_wav_cut_inside_its_header_is_data_error(self, workspace, tmp_path,
                                                     monkeypatch, capsys,
                                                     command, cut):
        """A WAV cut inside its header exits 2 with one line naming it and
        writes no output file."""
        rc, wav, out = self._run_on_cut_wav(workspace, tmp_path, monkeypatch,
                                            command, lambda wav: wav[:cut])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and wav.name in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["sample", "features"])
    def test_wav_cut_inside_its_data_chunk_is_data_error(self, workspace, tmp_path,
                                                         monkeypatch, capsys,
                                                         recwarn, command):
        """A WAV cut on a frame boundary halfway through its data chunk exits
        2 with one line naming it, warns nothing and writes no output file."""
        def half_the_frames(wav):
            start = wav.index(b"data") + 8
            frames = (len(wav) - start) // 8    # two float32 channels a frame
            return wav[:start + frames // 2 * 8]

        rc, wav, out = self._run_on_cut_wav(workspace, tmp_path, monkeypatch,
                                            command, half_the_frames)
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and wav.name in err and "Reached EOF" in err
        assert not recwarn.list
        assert not out.exists() or not any(out.iterdir())

    def test_ssl_track_of_another_json_type_is_data_error(self, workspace,
                                                          tmp_path, capsys):
        """An SSL track file whose JSON is an object exits 2 with one line."""
        ws, cfg_path, data_dir = workspace
        track = tmp_path / "track.json"
        track.write_text(json.dumps({"a": 1}))
        rc = main(["--config", str(cfg_path), "sample", "--checkpoint",
                   str(_fresh_checkpoint(cfg_path, tmp_path / "model.snm")),
                   "--audio", str(next((data_dir / "audio").glob("*.wav"))),
                   "--ssl", str(track), "--steps", "1", "--frames", "30",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "track.json" in err
        assert not (tmp_path / "o").exists()

    def test_non_utf8_manifest_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b'{"format": "sonomotion-manifest\xff"}')
        cache = tmp_path / "cache"
        rc = main(["features", "--manifest", str(manifest), "--cache", str(cache)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(manifest) in err
        assert not cache.exists()

    @pytest.mark.parametrize("field, value", [
        ("root", 5), ("sample_id", 3), ("audio", 3), ("motion", None),
        ("genre", 1), ("tag", ["a"]), ("split", 0), ("meta", "x"),
        ("split", "trian"), ("split", ""), ("fps", "x"), ("fps", 0),
        ("fps", float("inf")), ("fps", True), ("seed", "x"), ("seed", -1),
        ("seed", 1.5), ("seed", False)])
    @pytest.mark.parametrize("command", ["features", "train"])
    def test_wrongly_typed_manifest_field_is_data_error(
            self, workspace, tmp_path, monkeypatch, capsys, command, field, value):
        """A manifest root, fps or seed, or an entry field, of the wrong JSON
        type or out of range exits 2 with one line naming the field, and no
        statistics are fitted. A misspelt split used to leave its clip out
        of training and of the statistics; its line names the entry."""
        ws, cfg_path, data_dir = workspace
        monkeypatch.chdir(tmp_path)         # cache_dir "cache" is under tmp_path
        doc = json.loads((data_dir / "manifest.json").read_text())
        doc["root"] = str(data_dir)
        if field in ("root", "fps", "seed"):
            doc[field] = value
        else:
            doc["entries"][0][field] = value
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        out = {"features": "--cache", "train": "--out"}[command]
        rc = main(["--config", str(cfg_path), command, "--manifest", str(manifest),
                   out, str(tmp_path / out.strip("-"))])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{field} is not" in err
        if field == "split" and isinstance(value, str):
            assert doc["entries"][0]["sample_id"] in err
        assert not (tmp_path / "cache" / "norm_stats.npz").exists()

    def test_restore_model_matches_load_state(self, workspace, tmp_path):
        """The restore target is allocated, not drawn, and sampled in float32:
        every parameter is bit-identical to loading the checkpoint into a
        seeded model and casting the value to float32."""
        ws, cfg_path, data_dir = workspace
        cfg = RunConfig.load(cfg_path)
        ckpt = tmp_path / "model.snm"
        save_checkpoint(ckpt, MotionDenoiser(cfg.model, np.random.default_rng(4))
                        .named_parameters())
        want = MotionDenoiser(cfg.model, np.random.default_rng(5))
        want.load_state(load_checkpoint(ckpt))
        got = cli._restore_model(cfg, ckpt)
        for (name, p), (_, q) in zip(got.named_parameters(), want.named_parameters()):
            want32 = q.data.astype(np.float32)
            assert p.data.dtype == np.float32 and p.data.shape == q.data.shape, name
            assert p.data.tobytes() == want32.tobytes(), name

    def test_restore_model_holds_less_than_the_float64_weights(self, tmp_path):
        """Each entry is cast to float32 as it is read, so restoring never
        holds as many bytes as the float64 weights: the float32 model, plus
        one float64 entry in flight, weighs less."""
        cfg = RunConfig(model=DenoiserConfig(latent=128, heads=4, layers=4,
                                             max_frames=60))
        ckpt = tmp_path / "model.snm"
        params = MotionDenoiser(cfg.model, np.random.default_rng(2)).named_parameters()
        save_checkpoint(ckpt, params)
        float64_bytes = sum(t.data.nbytes for _, t in params)
        del params
        tracemalloc.start()
        try:
            model = cli._restore_model(cfg, ckpt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert {t.data.dtype for t in model.parameters()} == {np.dtype(np.float32)}
        assert peak < float64_bytes, (peak, float64_bytes)

    def test_report_written_atomically(self, workspace, tmp_path, monkeypatch):
        """A failed rename leaves the old report.json and no temporary file."""
        ws, cfg_path, data_dir = workspace
        monkeypatch.chdir(tmp_path)         # no feature cache under the cwd
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").write_text("old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            main(["--config", str(cfg_path), "eval", "--manifest",
                  str(data_dir / "manifest.json"), "--out",
                  str(out / "report.json")])
        assert (out / "report.json").read_text() == "old"
        assert [p.name for p in out.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("command, target", [
        ("sample", "file"), ("train", "file"), ("features", "file"),
        ("synth-data", "file"), ("eval", "dir"), ("sample", "file/sub")])
    def test_unusable_output_path_is_one_line(self, workspace, tmp_path,
                                              monkeypatch, capsys, command,
                                              target):
        """An output dir that names a file (or lies under one), or an eval
        report that names a directory, is a config error before any work:
        no chain runs, no model or extractor trains and no scene is made."""
        ws, cfg_path, data_dir = workspace
        monkeypatch.chdir(tmp_path)         # no feature cache under the cwd
        (tmp_path / "file").write_text("x")
        (tmp_path / "dir").mkdir()
        out = str(tmp_path / target)
        work = []
        for name in ("sample_motion", "train_denoiser", "train_extractor",
                     "generate_dataset", "clip_features"):
            monkeypatch.setattr(cli, name, lambda *a, _n=name, **k: work.append(_n))
        manifest = str(data_dir / "manifest.json")
        ckpt = str(_fresh_checkpoint(cfg_path, tmp_path / "model.snm"))
        argv = {"sample": ["sample", "--checkpoint", ckpt, "--audio",
                           str(data_dir / "audio" / "sample_0000.wav"),
                           "--ssl", "0,1,0", "--out", out],
                "train": ["train", "--manifest", manifest, "--out", out],
                "features": ["features", "--manifest", manifest, "--cache", out],
                "synth-data": ["synth-data", "--out", out],
                "eval": ["eval", "--manifest", manifest, "--checkpoint", ckpt,
                         "--out", out]}[command]
        assert main(["--config", str(cfg_path), *argv]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert out in err
        assert work == []
        assert (tmp_path / "file").read_text() == "x"
        assert not any((tmp_path / "dir").iterdir())

    def test_missing_manifest_is_data_error(self, tmp_path):
        rc = main(["train", "--manifest", str(tmp_path / "none.json")])
        assert rc == EXIT_DATA

    def test_bad_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[training]\nepochs = 0\n")
        rc = main(["--config", str(bad), "gradcheck"])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("section, line", [
        ("training", "epochs = abc"), ("model", "heads = 0"),
        ("extractor", "ext_batch_size = 0"), ("extractor", "ext_batch_size = 1")])
    def test_bad_config_value_is_one_line(self, tmp_path, capsys, section, line):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[{section}]\n{line}\n")
        assert main(["--config", str(bad), "gradcheck"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        b"epochs = 3\n[training]\n", b"[training]\nepochs = 3\nepochs = 4\n",
        b"[training]\nepochs = 3\xff\n"],
        ids=["key-before-section", "key-set-twice", "non-utf8"])
    def test_unparsable_config_is_one_line(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(text)
        assert main(["--config", str(bad), "gradcheck"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(bad) in err and "Traceback" not in err

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        wav = tmp_path / "x.wav"
        from sonomotion.audio import AudioClip, write_wav
        write_wav(wav, AudioClip(24000, np.zeros(24000), np.zeros(24000)))
        rc = main(["sample", "--checkpoint", str(tmp_path / "no.snm"),
                   "--audio", str(wav), "--ssl", "0,1,0",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA

    def test_desk_checkpoint_under_full_scale_config(self, workspace, tmp_path,
                                                     capsys, monkeypatch):
        """The default config builds the full-scale model: restoring a desk
        checkpoint into it names the first mismatched parameter."""
        ws, cfg_path, data_dir = workspace
        monkeypatch.chdir(tmp_path)
        desk = MotionDenoiser(RunConfig.load(cfg_path).model,
                              np.random.default_rng(0)).named_parameters()
        ckpt = tmp_path / "desk.snm"
        save_checkpoint(ckpt, desk)
        full = MotionDenoiser(RunConfig().model, np.random.default_rng(0))
        first = next(name for (name, a), (_, b)
                     in zip(desk, full.named_parameters())
                     if a.data.shape != b.data.shape)
        del full
        rc = main(["sample", "--checkpoint", str(ckpt),
                   "--audio", str(next((data_dir / "audio").glob("*.wav"))),
                   "--ssl", "0,1,0", "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"parameter '{first}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("damage, want", [("nan", EXIT_NUMERIC),
                                              ("truncate", EXIT_DATA)])
    def test_damaged_checkpoint_exit_code(self, workspace, tmp_path, capsys,
                                          damage, want):
        ws, cfg_path, data_dir = workspace
        model = MotionDenoiser(RunConfig.load(cfg_path).model,
                               np.random.default_rng(0))
        if damage == "nan":
            model.blocks[0].attn.wq.w.data[:] = np.nan
        ckpt = tmp_path / "model.snm"
        save_checkpoint(ckpt, model.named_parameters())
        if damage == "truncate":
            os.truncate(ckpt, ckpt.stat().st_size - 9)
        rc = main(["--config", str(cfg_path), "sample", "--checkpoint", str(ckpt),
                   "--audio", str(next((data_dir / "audio").glob("*.wav"))),
                   "--ssl", "0,1,0", "--steps", "2", "--frames", "30",
                   "--out", str(tmp_path / "o")])
        assert rc == want
        err = capsys.readouterr().err
        assert ("transformer layer 0" if damage == "nan" else "truncated") in err


def test_cli_has_no_featurization_of_its_own():
    """Every command reads its feature rows through ``dataset.clip_features``:
    ``cli`` binds neither the extractor nor the WAV reader."""
    assert not hasattr(cli, "extract_binaural")
    assert not hasattr(cli, "read_wav")


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    """A reader that closes stdout before the command prints (``| true``)
    ends the command with exit code 1 and nothing on stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "sonomotion.cli", "synth-data", "--count", "10",
             "--duration", "2", "--out", str(tmp_path / "data")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                [src, os.environ.get("PYTHONPATH", "")])))
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (EXIT_USAGE, "")
    assert (tmp_path / "data" / "manifest.json").exists()


def test_import_leaves_out_resampling_modules():
    """``scipy.signal`` and ``scipy.spatial`` load only when a clip or a
    motion is off the native rate: importing the CLI leaves both out."""
    src = str(Path(cli.__file__).resolve().parents[1])
    script = ("import sys, sonomotion.cli\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.startswith(('scipy.signal', 'scipy.spatial'))))\n")
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])))
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
