"""End-to-end CLI: every subcommand through main() with a desk-scale config."""

import json
import os
import shutil

import numpy as np
import pytest

from sonomotion import cli
from sonomotion.checkpoint import load_checkpoint, save_checkpoint
from sonomotion.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, RunConfig,
                            main)
from sonomotion.audio import AudioClip, FeatureConfig, read_wav, write_wav
from sonomotion.denoiser import DenoiserConfig, MotionDenoiser, TrainConfig
from sonomotion.errors import ConfigError
from sonomotion.skeleton import load_motion

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

    def test_range_validation(self):
        for var, value in (("TRAINING_EPOCHS", "0"), ("TRAINING_LR", "-1.0"),
                           ("TRAINING_LR", "nan"), ("EXTRACTOR_EXT_EPOCHS", "0"),
                           ("EXTRACTOR_EXT_LR", "0"),
                           ("SCHEDULE_DIFFUSION_STEPS", "0"),
                           ("FEATURES_MOTION_FPS", "0")):
            with pytest.raises(ConfigError):
                RunConfig.load(None, env={f"SONOMOTION_{var}": value})


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

    def test_sample_reads_only_the_audio_its_motion_covers(self, workspace,
                                                           tmp_path):
        """A 30 s WAV gives the same file as that WAV cut to the 60 frames
        (2 s) that max_frames lets the motion cover."""
        ws, cfg_path, data_dir = workspace
        cfg = RunConfig.load(cfg_path)
        ckpt = tmp_path / "model.snm"
        save_checkpoint(ckpt, MotionDenoiser(cfg.model, np.random.default_rng(0))
                        .named_parameters())
        clip = read_wav(next((data_dir / "audio").glob("*.wav")))
        write_wav(tmp_path / "long.wav", AudioClip(
            clip.sample_rate, np.tile(clip.left, 15), np.tile(clip.right, 15)))
        covered = cfg.model.max_frames * clip.sample_rate // cfg.features.motion_fps
        write_wav(tmp_path / "cut.wav", AudioClip(
            clip.sample_rate, clip.left[:covered], clip.right[:covered]))
        outputs = []
        for name in ("long", "cut"):
            rc = main(["--config", str(cfg_path), "sample", "--checkpoint",
                       str(ckpt), "--audio", str(tmp_path / f"{name}.wav"),
                       "--ssl", "0,1,0", "--steps", "2",
                       "--out", str(tmp_path / name)])
            assert rc == EXIT_OK
            outputs.append((tmp_path / name / "generated_000.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["frames"] == cfg.model.max_frames

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

    def test_eval_ground_truth_fid_near_zero(self, workspace, tmp_path):
        ws, cfg_path, data_dir = workspace
        manifest = str(data_dir / "manifest.json")
        report_path = tmp_path / "report.json"
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

    def test_eval_with_checkpoint_generates(self, workspace, tmp_path):
        ws, cfg_path, data_dir = workspace
        manifest = str(data_dir / "manifest.json")
        ckpt = ws / "ckpt" / "checkpoint_final.snm"
        report_path = tmp_path / "report_gen.json"
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

    @pytest.mark.parametrize("damage", ["drop-frames", "frames-0", "cut-p"])
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
        else:
            doc["p"] = doc["p"][:len(doc["p"]) // 2 // 4 * 4]
        motion.write_text(json.dumps(doc))
        rc = main(["features", "--manifest", str(data / "manifest.json"),
                   "--cache", str(tmp_path / "cache")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and motion.name in err

    def test_non_numeric_static_ssl_is_usage_error(self, workspace, tmp_path,
                                                   capsys):
        ws, cfg_path, data_dir = workspace
        ckpt = tmp_path / "model.snm"
        save_checkpoint(ckpt, MotionDenoiser(RunConfig.load(cfg_path).model,
                                             np.random.default_rng(0))
                        .named_parameters())
        rc = main(["--config", str(cfg_path), "sample", "--checkpoint", str(ckpt),
                   "--audio", str(next((data_dir / "audio").glob("*.wav"))),
                   "--ssl", "a,b,c", "--steps", "2", "--frames", "30",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'a,b,c'" in err

    @pytest.mark.parametrize("flag, value", [
        ("--frames", "-5"), ("--frames", "0"), ("--steps", "0"), ("--steps", "-3"),
        ("--steps", "50"), ("--count", "0"), ("--count", "-2"),
        ("--frames", "61")])
    def test_sample_flag_out_of_range_is_usage_error(self, workspace, tmp_path,
                                                     capsys, flag, value):
        """--steps, --frames and --count must be >= 1, --steps at most
        diffusion_steps (8 here) and --frames at most max_frames (60): exit 1
        with one line naming the flag."""
        ws, cfg_path, data_dir = workspace
        ckpt = tmp_path / "model.snm"
        save_checkpoint(ckpt, MotionDenoiser(RunConfig.load(cfg_path).model,
                                             np.random.default_rng(0))
                        .named_parameters())
        flags = {"--steps": "2", "--frames": "30", "--count": "1", flag: value}
        rc = main(["--config", str(cfg_path), "sample", "--checkpoint", str(ckpt),
                   "--audio", str(next((data_dir / "audio").glob("*.wav"))),
                   "--ssl", "0,1,0", "--out", str(tmp_path / "o"),
                   *(tok for item in flags.items() for tok in item)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err
        assert not (tmp_path / "o").exists()

    def test_restore_model_matches_load_state(self, workspace, tmp_path):
        """The restore target is allocated, not drawn: every parameter is
        bit-identical to loading the checkpoint into a seeded model."""
        ws, cfg_path, data_dir = workspace
        cfg = RunConfig.load(cfg_path)
        ckpt = tmp_path / "model.snm"
        save_checkpoint(ckpt, MotionDenoiser(cfg.model, np.random.default_rng(4))
                        .named_parameters())
        want = MotionDenoiser(cfg.model, np.random.default_rng(5))
        want.load_state(load_checkpoint(ckpt))
        got = cli._restore_model(cfg, ckpt)
        for (name, p), (_, q) in zip(got.named_parameters(), want.named_parameters()):
            assert p.data.dtype == q.data.dtype and p.data.shape == q.data.shape, name
            assert p.data.tobytes() == q.data.tobytes(), name

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
        ("extractor", "ext_batch_size = 0")])
    def test_bad_config_value_is_one_line(self, tmp_path, capsys, section, line):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[{section}]\n{line}\n")
        assert main(["--config", str(bad), "gradcheck"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

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
