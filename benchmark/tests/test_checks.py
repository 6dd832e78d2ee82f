"""Each benchmark check passes on the program's output and fails on a
perturbed copy of it: a shifted parameter, a zeroed feature column, a wrong
split count, and so on.

Run from the repository root: ``python3 -m pytest benchmark/tests -q``.
"""

import json

import numpy as np
import pytest

import checks
import tracing
from checks import CheckFailed
from sonomotion import audio, autodiff, nn, skeleton
from sonomotion.autodiff import Tape, Tensor
from sonomotion.checkpoint import save_checkpoint
from sonomotion.dataset import (ManifestEntry, SyntheticSceneSpec,
                                build_manifest, generate_dataset,
                                synthesize_pair)
from sonomotion.denoiser import DenoiserConfig, MotionDenoiser
from sonomotion.losses import (LossWeights, l_data, l_foot, l_geo, l_rot,
                               l_traj, total_loss)

SKEL = skeleton.SkeletonSpec.default()


@pytest.fixture(scope="module")
def scene():
    return synthesize_pair(SyntheticSceneSpec(duration=2.0, seed=4,
                                              program="walk_toward"))


@pytest.fixture(scope="module")
def features(scene):
    return audio.extract_binaural(scene.clip, audio.FeatureConfig(),
                                  scene.motion.frames).values


def _probe(cfg, rng, b=2, frames=6):
    return (rng.standard_normal((b, frames, cfg.motion_width)),
            rng.integers(1, 50, size=b),
            rng.standard_normal((b, frames, cfg.audio_width)),
            rng.standard_normal((b, frames, cfg.ssl_width)),
            rng.integers(0, 3, size=b))


@pytest.mark.parametrize("layers", [1, 2])
def test_reference_forward(tmp_path, layers):
    cfg = DenoiserConfig(latent=16, heads=2, layers=layers, max_frames=8)
    model = MotionDenoiser(cfg, np.random.default_rng(1))
    save_checkpoint(tmp_path / "m.snm", model.named_parameters())
    params = checks.read_checkpoint(tmp_path / "m.snm")
    x, t, a, s, g = _probe(cfg, np.random.default_rng(2))
    got = model.predict_x0(x, t, a, s, g).data
    checks.check_reference_forward(
        got, checks.reference_predict_x0(params, cfg.heads, x, t, a, s, g))
    params["blocks.0.attn.wq.w"][3, 5] += 1e-3
    with pytest.raises(CheckFailed):
        checks.check_reference_forward(
            got, checks.reference_predict_x0(params, cfg.heads, x, t, a, s, g))


def test_gradient(scene):
    cfg = DenoiserConfig(latent=16, heads=2, layers=1, max_frames=8)
    model = MotionDenoiser(cfg, np.random.default_rng(3))
    norm, _ = skeleton.normalize_sequence(scene.motion, scene.ssl.positions)
    x0 = skeleton.assemble_vector(norm)[None, :8]
    rng = np.random.default_rng(5)
    x_t = x0 + 0.3 * rng.standard_normal(x0.shape)
    a = rng.standard_normal((1, 8, cfg.audio_width))
    s = rng.standard_normal((1, 8, 3))
    contacts = np.ones((1, 8, 2), dtype=bool)
    target = Tensor(x0)

    def loss():
        pred = model.predict_x0(x_t, [7], a, s, [1])
        terms = {"data": l_data(pred, target), "geo": l_geo(pred, target, SKEL),
                 "foot": l_foot(pred, target, contacts),
                 "traj": l_traj(pred, target), "rot": l_rot(pred, target)}
        return total_loss(terms, LossWeights(), 0)[0]

    with Tape() as tape:
        tape.backward(loss())
    entries = []
    for p in model.parameters():
        k = int(np.argmax(np.abs(p.grad)))
        idx = np.unravel_index(k, p.data.shape)
        entries.append((p.data, idx, float(p.grad[idx])))
    checks.check_gradient(lambda: loss().item(), entries)
    biggest = int(np.argmax([abs(e[2]) for e in entries]))
    arr, idx, g = entries[biggest]
    entries[biggest] = (arr, idx, g * 1.001)
    with pytest.raises(CheckFailed):
        checks.check_gradient(lambda: loss().item(), entries)


def test_rms_oracle(tmp_path, scene, features):
    wav = tmp_path / "clip.wav"
    audio.write_wav(wav, scene.clip)
    fresh = audio.extract_binaural(audio.read_wav(wav), audio.FeatureConfig(),
                                   scene.motion.frames).values.astype(np.float32)
    hop = audio.FeatureConfig().hop_length
    checks.check_rms_columns(wav, fresh, hop)
    for col in (checks.RMS_COL, checks.PER_EAR + checks.RMS_COL + 1):
        bad = fresh.copy()
        bad[:, col] = 0.0
        with pytest.raises(CheckFailed):
            checks.check_rms_columns(wav, bad, hop)


def test_split_counts(tmp_path):
    assert checks.largest_remainder(30) == [24, 3, 3]
    assert checks.largest_remainder(12) == [10, 1, 1]
    assert checks.largest_remainder(25) == [20, 3, 2]
    entries = [ManifestEntry(f"s{i}", "a.wav", "m.json", "neutral",
                             tag=("a", "b", "c")[i % 3]) for i in range(30)]
    manifest = build_manifest(".", entries, seed=2)
    manifest.save(tmp_path / "manifest.json")
    assert checks.check_split_counts(tmp_path / "manifest.json") == [24, 3, 3]
    doc = json.loads((tmp_path / "manifest.json").read_text())
    next(e for e in doc["entries"] if e["split"] == "train")["split"] = "test"
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(CheckFailed):
        checks.check_split_counts(tmp_path / "manifest.json")


def test_cache_hit(tmp_path, features):
    audio.save_feature_cache(tmp_path / "c.feat",
                             audio.AudioFeatureMatrix(features))
    cached, mean, std = checks.read_feature_cache(tmp_path / "c.feat")
    assert np.all(mean == 0.0) and np.all(std == 1.0)
    checks.check_cache_hit(cached, features)
    bad = cached.copy()
    bad[:, 40] = 0.0          # first CQ chroma bin of the left ear
    with pytest.raises(CheckFailed):
        checks.check_cache_hit(bad, features)


def test_zscore(features):
    rng = np.random.default_rng(6)
    mats = [features + 0.01 * rng.standard_normal(features.shape)
            for _ in range(3)]
    stats = audio.NormalizationStats.fit(mats)
    z = np.concatenate([stats.apply(m.astype(np.float32)) for m in mats])
    assert checks.check_zscore(z, stats.mean, stats.std) > 2000
    z[:, 100] = 0.0
    with pytest.raises(CheckFailed):
        checks.check_zscore(z, stats.mean, stats.std)


def test_motion_file(tmp_path, scene):
    m = scene.motion
    skeleton.save_motion(tmp_path / "m.json", m)
    checks.check_motion_file(tmp_path / "m.json", m.frames)
    with pytest.raises(CheckFailed):
        checks.check_motion_file(tmp_path / "m.json", m.frames + 1)
    bad = m.copy()
    bad.v[10, 4] += 1e-3
    skeleton.save_motion(tmp_path / "bad.json", bad)
    with pytest.raises(CheckFailed):
        checks.check_motion_file(tmp_path / "bad.json", m.frames)


def test_report(tmp_path):
    good = {"top1": 0.3, "top2": 0.5, "top3": 0.7, "fid": 2.0, "diversity": 1.5}
    (tmp_path / "r.json").write_text(json.dumps(good))
    checks.check_report(tmp_path / "r.json")
    for key, value in (("top1", 0.6), ("fid", -1.0), ("diversity", 0.0),
                       ("top3", 1.2)):
        (tmp_path / "r.json").write_text(json.dumps(good | {key: value}))
        with pytest.raises(CheckFailed):
            checks.check_report(tmp_path / "r.json")


def test_loss_log(tmp_path):
    log = tmp_path / "metrics.log"
    log.write_text("epoch=0 total=4.0 data=1\nepoch=1 total=2.5 data=1\n")
    assert checks.check_loss_log(log) == (4.0, 2.5)
    log.write_text("epoch=0 total=2.0 data=1\nepoch=1 total=2.5 data=1\n")
    with pytest.raises(CheckFailed):
        checks.check_loss_log(log)
    log.write_text("epoch=0 total=2.0 data=1\nepoch=1 total=nan data=1\n")
    with pytest.raises(CheckFailed):
        checks.check_loss_log(log)


def test_media_lengths(tmp_path, scene):
    generate_dataset(tmp_path, count=10, seed=1, duration=2.0)
    assert checks.check_media_lengths(tmp_path, 2.0, 24000, 30) == 10
    short = audio.AudioClip(24000, scene.clip.left[:-800],
                            scene.clip.right[:-800])
    audio.write_wav(tmp_path / "audio" / "sample_0003.wav", short)
    with pytest.raises(CheckFailed):
        checks.check_media_lengths(tmp_path, 2.0, 24000, 30)


def test_tracer_spans_and_restore():
    original, original_record = autodiff.matmul, vars(Tape)["record"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with tracer.span("cli.train"):
            with Tape() as tape:
                loss = autodiff.mse(Tensor(np.ones((4, 3))) @ w,
                                    Tensor(np.zeros((4, 2))))
                tape.backward(loss)
    finally:
        tracer.uninstall()
    assert autodiff.matmul is original and vars(Tape)["record"] is original_record
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.train"
    assert {"autodiff.matmul", "autodiff.mse", "autodiff.backward",
            "autodiff.bwd.matmul", "autodiff.bwd.mse"} <= set(names)
    st = tracing.SpanStats(tracer.spans)
    assert st.count("autodiff.bwd.matmul", "cli.train") == 1
    assert st.extras["autodiff.backward"] == [2]     # two taped nodes
    assert 0.0 <= st.self_time("autodiff.backward") <= st.incl("autodiff.backward")


def test_tracer_counts_cond_proj_calls():
    cfg = DenoiserConfig(latent=16, heads=2, layers=1, max_frames=8)
    init, call = vars(MotionDenoiser)["__init__"], vars(nn.Linear)["__call__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model = MotionDenoiser(cfg, np.random.default_rng(0))
        probe = _probe(cfg, np.random.default_rng(1))
        with tracer.span("cli.sample"):
            for _ in range(3):
                model.predict_x0(*probe)
            model.embed_conditions(*probe[1:])
    finally:
        tracer.uninstall()
    assert vars(MotionDenoiser)["__init__"] is init
    assert vars(nn.Linear)["__call__"] is call
    st = tracing.SpanStats(tracer.spans)
    # one projection per predict_x0 and one for embed_conditions; the
    # model's other Linears are not counted
    assert st.count("denoiser.cond_proj", "cli.sample") == 4
    assert st.count("denoiser.forward", "cli.sample") == 3
