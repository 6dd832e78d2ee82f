"""Synthetic scene oracle, manifest/splits, resampling, and sample loading."""

import json
import os
import shutil
import tracemalloc

import numpy as np
import pytest

from sonomotion import dataset as ds
from sonomotion.audio import FeatureConfig, NormalizationStats, load_feature_cache
from sonomotion.cli import EXIT_DATA, EXIT_OK, main
from sonomotion.errors import AlignmentError, ContractError, DataError
from sonomotion.skeleton import (SkeletonSpec, assemble_vector,
                                 compute_velocities, detect_foot_contacts,
                                 forward_kinematics, matrix_to_sixd,
                                 rotation_z, save_motion, sixd_to_matrix)

SKEL = SkeletonSpec.default()


class TestSceneSpec:
    def test_validation(self):
        with pytest.raises(ContractError):
            ds.SyntheticSceneSpec(duration=1.0)
        with pytest.raises(ContractError):
            ds.SyntheticSceneSpec(distance=0.2)
        with pytest.raises(ContractError):
            ds.SyntheticSceneSpec(signal="hum")
        with pytest.raises(ContractError):
            ds.SyntheticSceneSpec(program="moonwalk")


class TestGeneratorMotion:
    def test_fk_consistent_and_rotations_valid(self):
        for program in ds.PROGRAMS:
            spec = ds.SyntheticSceneSpec(azimuth_deg=30.0, program=program,
                                         duration=3.0, seed=1)
            scene = ds.synthesize_pair(spec, SKEL)
            m = scene.motion
            m.validate_rotations()
            fk = forward_kinematics(SKEL, m.root_positions(),
                                    m.rotation_matrices())
            assert np.abs(fk.reshape(m.frames, -1) - m.p).max() < 1e-9
            np.testing.assert_allclose(
                m.v, compute_velocities(m.p, m.fps), atol=1e-12)

    def test_left_source_louder_left_ear(self):
        spec = ds.SyntheticSceneSpec(azimuth_deg=90.0, distance=2.0,
                                     program="idle", duration=3.0, seed=2)
        scene = ds.synthesize_pair(spec, SKEL)
        rms_l = np.sqrt(np.mean(scene.clip.left ** 2))
        rms_r = np.sqrt(np.mean(scene.clip.right ** 2))
        assert rms_l > rms_r

    def test_right_source_louder_right_ear(self):
        spec = ds.SyntheticSceneSpec(azimuth_deg=-90.0, distance=2.0,
                                     program="idle", duration=3.0, seed=2)
        scene = ds.synthesize_pair(spec, SKEL)
        assert np.sqrt(np.mean(scene.clip.right ** 2)) > \
            np.sqrt(np.mean(scene.clip.left ** 2))

    @pytest.mark.parametrize("azimuth", [15.0, 45.0, 135.0, -15.0, -45.0, -135.0])
    def test_energy_ordering_follows_azimuth_sign(self, azimuth):
        spec = ds.SyntheticSceneSpec(azimuth_deg=azimuth, distance=2.0,
                                     program="idle", duration=2.5, seed=4)
        scene = ds.synthesize_pair(spec, SKEL)
        rms_l = np.sqrt(np.mean(scene.clip.left ** 2))
        rms_r = np.sqrt(np.mean(scene.clip.right ** 2))
        if azimuth > 0:
            assert rms_l > rms_r
        else:
            assert rms_r > rms_l

    def test_flee_increases_source_distance(self):
        spec = ds.SyntheticSceneSpec(azimuth_deg=170.0, distance=2.0,
                                     program="flee", genre="sensitive",
                                     duration=4.0, seed=3)
        scene = ds.synthesize_pair(spec, SKEL)
        roots = scene.motion.root_positions()
        src = scene.ssl.positions
        onset = int(scene.meta["onset_time"] * spec.fps)
        d_onset = np.linalg.norm(src[onset, :2] - roots[onset, :2])
        d_end = np.linalg.norm(src[-1, :2] - roots[-1, :2])
        assert d_end > d_onset + 0.3

    def test_walk_toward_decreases_source_distance(self):
        spec = ds.SyntheticSceneSpec(azimuth_deg=10.0, distance=3.0,
                                     program="walk_toward", genre="neutral",
                                     duration=4.0, seed=4)
        scene = ds.synthesize_pair(spec, SKEL)
        roots = scene.motion.root_positions()
        src = scene.ssl.positions
        d0 = np.linalg.norm(src[0, :2] - roots[0, :2])
        d1 = np.linalg.norm(src[-1, :2] - roots[-1, :2])
        assert d1 < d0 - 0.3

    def test_sensitive_reacts_earlier_and_larger_than_dull(self):
        kw = dict(azimuth_deg=15.0, distance=3.0, program="walk_toward",
                  duration=4.0, seed=5)
        dull = ds.synthesize_pair(
            ds.SyntheticSceneSpec(genre="dull", **kw), SKEL)
        sens = ds.synthesize_pair(
            ds.SyntheticSceneSpec(genre="sensitive", **kw), SKEL)

        def onset_time(scene):
            disp = np.linalg.norm(
                scene.motion.root_positions()[:, :2]
                - scene.motion.root_positions()[0, :2], axis=1)
            return np.argmax(disp > 0.05) / 30.0

        assert onset_time(sens) < onset_time(dull)
        disp = lambda s: np.linalg.norm(
            s.motion.root_positions()[-1, :2]
            - s.motion.root_positions()[0, :2])
        assert disp(sens) > disp(dull)

    def test_plant_schedule_matches_contact_detector(self):
        # straight-ahead walk: no turn-in-place skating ambiguity
        spec = ds.SyntheticSceneSpec(azimuth_deg=0.0, distance=3.5,
                                     program="walk_toward", genre="neutral",
                                     duration=4.0, seed=6)
        scene = ds.synthesize_pair(spec, SKEL)
        contacts = detect_foot_contacts(scene.motion.p, 30.0, SKEL)
        plants = np.array(scene.meta["plants"])
        assert (contacts == plants).all()
        # the gait actually alternates
        walking = plants[40:100]
        assert walking[:, 0].any() and (~walking[:, 0]).any()
        assert walking[:, 1].any() and (~walking[:, 1]).any()

    def test_cover_ears_crouches(self):
        spec = ds.SyntheticSceneSpec(azimuth_deg=0.0, program="cover_ears",
                                     genre="sensitive", duration=3.0, seed=7)
        scene = ds.synthesize_pair(spec, SKEL)
        z = scene.motion.root_positions()[:, 2]
        assert z[-1] < z[0] - 0.1

    def test_deterministic_per_seed(self):
        for program in ds.PROGRAMS:
            spec = ds.SyntheticSceneSpec(azimuth_deg=40.0, program=program,
                                         duration=2.5, seed=11)
            a = ds.synthesize_pair(spec, SKEL)
            b = ds.synthesize_pair(spec, SKEL)
            assert (assemble_vector(a.motion).tobytes()
                    == assemble_vector(b.motion).tobytes()), program
            assert np.array_equal(a.clip.left, b.clip.left)

    def test_leg_ik_pins_reachable_planted_toes(self):
        """FK of the batched two-bone solve puts each planted toe (z = 0) on
        its target wherever the hip-to-ankle distance is within the solver's
        reach, 0.3 to 0.995 of the leg length, with the knee bent forward."""
        rng = np.random.default_rng(23)
        n = 400
        yaws = rng.uniform(-np.pi, np.pi, n)
        roots = np.column_stack([rng.uniform(-2.0, 2.0, (n, 2)),
                                 rng.uniform(0.6, 0.95, n)])
        rz = rotation_z(yaws)
        reach = abs(SKEL.offsets[4, 2]) + abs(SKEL.offsets[7, 2])
        ik = ds._LegIK(SKEL)
        for side, (hip, knee, ankle, toe) in enumerate(((1, 4, 7, 10),
                                                        (2, 5, 8, 11))):
            local = np.column_stack([rng.uniform(-0.2, 0.2, n),
                                     rng.uniform(-0.4, 0.4, n), np.zeros(n)])
            target = roots * [1.0, 1.0, 0.0] + np.einsum("tij,tj->ti", rz, local)
            rot = np.tile(np.eye(3), (n, 25, 1, 1))
            rot[:, 0] = rz
            rot[:, [hip, knee, ankle]] = np.stack(
                ik.solve(side, roots, yaws, target), axis=1)
            pos = forward_kinematics(SKEL, roots, rot)
            hip_to_ankle = (target - rz @ SKEL.offsets[toe]
                            - roots - rz @ SKEL.offsets[hip])
            d = np.linalg.norm(hip_to_ankle, axis=-1)
            reachable = (d > 0.3 * reach) & (d < 0.995 * reach)
            assert reachable.sum() > n // 2
            assert np.abs(pos[:, toe] - target)[reachable].max() < 1e-9
            # the knee bends forward, toward -y in the root frame
            chord, bend = (np.einsum("tji,tj->ti", rz, pos[:, j] - pos[:, hip])
                           for j in (ankle, knee))
            chord /= np.linalg.norm(chord, axis=-1, keepdims=True)
            bend -= np.sum(bend * chord, axis=-1, keepdims=True) * chord
            assert (bend[:, 1] < 0.0).all()

    def test_active_frames_present(self):
        spec = ds.SyntheticSceneSpec(azimuth_deg=0.0, distance=2.0,
                                     program="idle", duration=3.0, seed=8)
        scene = ds.synthesize_pair(spec, SKEL)
        rms = np.sqrt(np.mean(scene.clip.left ** 2))
        assert rms > 0.01


class TestResampling:
    def _linear_track_motion(self, fps, frames):
        # root moves on an exact line; joints follow identity rotations
        rot = np.tile(np.eye(3), (frames, 25, 1, 1))
        t = np.arange(frames) / fps
        root = np.stack([0.3 * t, -0.5 * t, 0.9 + 0.0 * t], axis=1)
        p = forward_kinematics(SKEL, root, rot).reshape(frames, -1)
        r6 = matrix_to_sixd(rot).reshape(frames, -1)
        v = compute_velocities(p, fps)
        return ds.MotionSequence(fps, p, r6, v)

    def test_passthrough_at_target_rate(self):
        m = self._linear_track_motion(30.0, 20)
        out = ds.resample_motion(m, 30.0)
        assert out is m

    def test_120_to_30_fps_linear_track(self):
        m = self._linear_track_motion(120.0, 240)
        out = ds.resample_motion(m, 30.0)
        assert out.frames == 60                      # T/4
        t_out = np.arange(60) / 30.0
        want_root = np.stack([0.3 * t_out, -0.5 * t_out, 0.9 + 0 * t_out],
                             axis=1)
        np.testing.assert_allclose(out.root_positions(), want_root, atol=1e-9)
        # endpoint lies exactly on the source track
        np.testing.assert_allclose(out.root_positions()[-1],
                                   [0.3 * t_out[-1], -0.5 * t_out[-1], 0.9],
                                   atol=1e-12)

    def test_rotation_geodesic(self):
        frames = 9
        yaw_src = np.linspace(0.0, 0.8, frames)
        rot = np.tile(np.eye(3), (frames, 25, 1, 1))
        rot[:, 0] = rotation_z(yaw_src)
        root = np.zeros((frames, 3))
        p = forward_kinematics(SKEL, root, rot).reshape(frames, -1)
        m = ds.MotionSequence(60.0, p, matrix_to_sixd(rot).reshape(frames, -1),
                              compute_velocities(p, 60.0))
        out = ds.resample_motion(m, 30.0)
        got = sixd_to_matrix(out.r[:, :6])
        t_out = np.arange(out.frames) / 30.0
        want = rotation_z(0.8 / ((frames - 1) / 60.0) * t_out)
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestManifest:
    def test_generate_and_reload(self, tmp_path):
        manifest = ds.generate_dataset(tmp_path, count=12, seed=9,
                                       duration=2.0)
        loaded = ds.DatasetManifest.load(tmp_path / "manifest.json")
        assert len(loaded.entries) == 12
        splits = {s: len(loaded.split_entries(s)) for s in
                  ("train", "val", "test")}
        assert splits == {"train": 10, "val": 1, "test": 1}
        genres = [e.genre for e in loaded.entries]
        counts = {g: genres.count(g) for g in set(genres)}
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_manifest_and_motion_written_atomically(self, tmp_path,
                                                   monkeypatch):
        """A write that fails before the rename leaves the old file whole and
        no temporary file behind."""
        manifest = ds.build_manifest(".", [ds.ManifestEntry(
            f"s{i}", f"a{i}", f"m{i}", "dull") for i in range(10)], seed=1)
        spec = ds.SyntheticSceneSpec(duration=2.0, seed=3)
        motion = ds.synthesize_motion(spec, SKEL)[0]
        writers = {"manifest.json": manifest.save,
                   "motion.json": lambda p: save_motion(p, motion)}
        for name, write in writers.items():
            write(tmp_path / name)
        before = {name: (tmp_path / name).read_bytes() for name in writers}

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        manifest.seed = 2
        motion.p[:] += 1.0
        for name, write in writers.items():
            with pytest.raises(OSError):
                write(tmp_path / name)
            assert (tmp_path / name).read_bytes() == before[name]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)

    def test_missing_key_is_data_error(self, tmp_path):
        ds.build_manifest(".", [ds.ManifestEntry(
            f"s{i}", f"a{i}", f"m{i}", "dull") for i in range(10)],
            seed=1).save(tmp_path / "good.json")
        good = json.loads((tmp_path / "good.json").read_text())
        damaged = [{k: v for k, v in good.items() if k != key} for key in good]
        for key in good["entries"][0]:
            doc = json.loads(json.dumps(good))
            del doc["entries"][3][key]
            damaged.append(doc)
        doc = json.loads(json.dumps(good))
        doc["entries"][3]["extra"] = 1
        damaged.append(doc)
        path = tmp_path / "manifest.json"
        for doc in damaged:
            path.write_text(json.dumps(doc))
            with pytest.raises(DataError):
                ds.DatasetManifest.load(path)
        assert main(["features", "--manifest", str(path)]) == EXIT_DATA

    def test_hundred_samples_80_10_10(self):
        entries = [ds.ManifestEntry(f"s{i}", f"a{i}", f"m{i}", "dull",
                                    tag=f"t{i % 5}") for i in range(100)]
        ds.assign_splits(entries, seed=3)
        counts = {s: sum(e.split == s for e in entries)
                  for s in ("train", "val", "test")}
        assert counts == {"train": 80, "val": 10, "test": 10}

    def test_same_seed_same_split(self):
        def build():
            entries = [ds.ManifestEntry(f"s{i}", f"a{i}", f"m{i}", "dull",
                                        tag=f"t{i % 3}") for i in range(30)]
            ds.assign_splits(entries, seed=5)
            return [e.split for e in entries]

        assert build() == build()

    def test_disjoint_exhaustive(self):
        entries = [ds.ManifestEntry(f"s{i}", f"a{i}", f"m{i}", "dull",
                                    tag=f"t{i % 4}") for i in range(37)]
        ds.assign_splits(entries, seed=1)
        assert all(e.split in ("train", "val", "test") for e in entries)
        assert sum(e.split == "train" for e in entries) \
            + sum(e.split == "val" for e in entries) \
            + sum(e.split == "test" for e in entries) == 37

    def test_too_few_samples(self):
        entries = [ds.ManifestEntry(f"s{i}", "", "", "dull") for i in range(5)]
        with pytest.raises(ContractError):
            ds.assign_splits(entries, seed=0)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    manifest = ds.generate_dataset(root, count=10, seed=13, duration=2.0)
    return root, manifest


class TestLoadSample:
    def test_widths(self, small_dataset):
        _, manifest = small_dataset
        x0, a, s, g = ds.load_sample(manifest, manifest.entries[0],
                                     FeatureConfig())
        frames = x0.shape[0]
        assert x0.shape == (frames, 300)
        assert a.shape == (frames, 2272)
        assert s.shape == (frames, 3)
        assert g in (0, 1, 2)

    def test_normalized_start_pose(self, small_dataset):
        _, manifest = small_dataset
        x0, _, _, _ = ds.load_sample(manifest, manifest.entries[1],
                                     FeatureConfig())
        np.testing.assert_allclose(x0[0, :3], 0.0, atol=1e-9)
        rot0 = sixd_to_matrix(x0[0, 75:81])
        facing = rot0 @ np.array([0.0, -1.0, 0.0])
        np.testing.assert_allclose(facing[:2], [0, -1], atol=1e-9)

    def test_cache_roundtrip(self, small_dataset, tmp_path):
        root, manifest = small_dataset
        e = manifest.entries[2]
        first = ds.load_sample(manifest, e, FeatureConfig(),
                               cache_dir=tmp_path)
        second = ds.load_sample(manifest, e, FeatureConfig(),
                                cache_dir=tmp_path)
        np.testing.assert_array_equal(first[1], second[1])

    def test_stats_applied(self, small_dataset):
        _, manifest = small_dataset
        e = manifest.entries[0]
        cfg = FeatureConfig()
        raw = ds.load_sample(manifest, e, cfg)[1]
        stats = NormalizationStats(np.full(2272, 1.0), np.full(2272, 2.0))
        normed = ds.load_sample(manifest, e, cfg, stats=stats)[1]
        np.testing.assert_allclose(normed, (raw - 1.0) / 2.0, atol=1e-9)

    def test_fit_feature_stats(self, small_dataset, tmp_path):
        _, manifest = small_dataset
        stats = ds.fit_feature_stats(manifest, FeatureConfig(), tmp_path)
        assert stats.mean.shape == (2272,)
        assert (stats.std > 0).all()

    def test_fit_feature_stats_holds_under_three_clips(self, small_dataset,
                                                       tmp_path):
        """On a warm cache the fit's peak traced memory stays below three
        clips' float64 rows, whatever the number of train clips."""
        root, manifest = small_dataset
        six = ds.DatasetManifest(str(root), manifest.fps,
                                 manifest.split_entries("train")[:6],
                                 manifest.seed)
        cfg = FeatureConfig()
        ds.fit_feature_stats(six, cfg, tmp_path)
        tracemalloc.start()
        try:
            ds.fit_feature_stats(six, cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        clips = [load_feature_cache(p).values for p in tmp_path.glob("*.feat")]
        assert len(clips) == 6
        assert peak < 3 * max(c.nbytes for c in clips)

    def test_short_audio_alignment_error(self, small_dataset, tmp_path):
        root, manifest = small_dataset
        import shutil
        from scipy.io import wavfile
        e = manifest.entries[3]
        bad_root = tmp_path / "bad"
        shutil.copytree(root, bad_root)
        rate, data = wavfile.read(bad_root / e.audio)
        wavfile.write(bad_root / e.audio, rate, data[:rate // 4])
        bad_manifest = ds.DatasetManifest.load(bad_root / "manifest.json")
        bad_manifest.root = str(bad_root)
        with pytest.raises(AlignmentError) as err:
            ds.load_sample(bad_manifest, e, FeatureConfig())
        assert e.sample_id in str(err.value)

    def test_recorded_layout_loads_through_manifest(self, small_dataset,
                                                    tmp_path):
        """Recorded data uses the generator's layout: manifest.json beside
        audio/*.wav and motion/*.json."""
        root, _ = small_dataset
        loaded = ds.DatasetManifest.load(root / "manifest.json")
        assert len(loaded.entries) == 10
        from sonomotion.errors import DataError
        with pytest.raises(DataError):
            ds.DatasetManifest.load(tmp_path / "nowhere" / "manifest.json")

    def test_higher_fps_motion_resampled(self, small_dataset, tmp_path):
        root, manifest = small_dataset
        e = manifest.entries[4]
        m, ssl, genre, extras = ds.load_motion(
            ds.DatasetManifest.load(root / "manifest.json").resolve(e)[1])
        # upsample the on-disk motion to 60 FPS by frame doubling the times
        up = ds.resample_motion(m, 60.0)
        assert up.fps == 60.0
        import shutil
        alt_root = tmp_path / "fps60"
        shutil.copytree(root, alt_root)
        up_ssl = np.repeat(ssl.positions, 2, axis=0)[:up.frames]
        save_motion(alt_root / e.motion, up,
                    ds.SslTrack(up_ssl, frame="world"), genre, extras=extras)
        alt_manifest = ds.DatasetManifest.load(alt_root / "manifest.json")
        alt_manifest.root = str(alt_root)
        x0, a, s, g = ds.load_sample(alt_manifest, e, FeatureConfig())
        assert x0.shape[1] == 300
        assert a.shape[0] == x0.shape[0]


@pytest.fixture(scope="module")
def dataset_25fps(small_dataset, tmp_path_factory):
    """small_dataset with every motion file stored at 25 FPS."""
    root, _ = small_dataset
    alt = tmp_path_factory.mktemp("fps25") / "data"
    shutil.copytree(root, alt)
    manifest = ds.DatasetManifest.load(alt / "manifest.json")
    for e in manifest.entries:
        path = manifest.resolve(e)[1]
        m, ssl, genre, extras = ds.load_motion(path)
        m25, ssl25 = ds.resample_motion(m, 25.0, ssl.positions)
        save_motion(path, m25, ds.SslTrack(ssl25, frame="world"), genre,
                    extras=extras)
    return alt, manifest


class TestFeaturePipeline:
    def test_one_frame_count_for_25_fps_motion(self, dataset_25fps, tmp_path,
                                               monkeypatch):
        root, manifest = dataset_25fps
        # 60 frames at 30 FPS resample to 50 at 25 FPS; those span 49/25 s,
        # which holds 59 frames at the 30 FPS feature rate
        assert ds.load_motion(manifest.resolve(manifest.entries[0])[1])[0].frames == 50
        want = 59
        asked = []
        extract = ds.extract_binaural
        monkeypatch.setattr(ds, "extract_binaural", lambda clip, cfg, t:
                            asked.append(t) or extract(clip, cfg, t))
        cache = tmp_path / "cache"
        assert main(["features", "--manifest", str(root / "manifest.json"),
                     "--cache", str(cache)]) == EXIT_OK
        assert {load_feature_cache(p).frames for p in cache.glob("*.feat")} == {want}
        x0, a, _, _ = ds.load_sample(manifest, manifest.entries[0], FeatureConfig())
        assert x0.shape[0] == a.shape[0] == want
        ds.fit_feature_stats(manifest, FeatureConfig(), tmp_path / "fresh")
        assert set(asked) == {want}
        assert len(asked) == len(manifest.entries) + 1 \
            + len(manifest.split_entries("train"))

    def test_features_hashes_each_clip_once(self, small_dataset, tmp_path,
                                            monkeypatch):
        """``features`` hashes each WAV and reads each motion header once, and
        hands the train entries' sources to the fit; the statistics equal
        those of a fit that resolves the entries itself."""
        from sonomotion import cli
        root, manifest = small_dataset
        calls = {"key": 0, "header": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(ds, "feature_cache_key",
                            counted("key", ds.feature_cache_key))
        for module in (ds, cli):
            monkeypatch.setattr(module, "read_motion_header",
                                counted("header", module.read_motion_header))
        assert main(["features", "--manifest", str(root / "manifest.json"),
                     "--cache", str(tmp_path)]) == EXIT_OK
        n = len(manifest.entries)
        assert calls == {"key": n, "header": n}
        saved = NormalizationStats.load(tmp_path / "norm_stats.npz")
        fitted = ds.fit_feature_stats(manifest, FeatureConfig(), tmp_path)
        assert calls["key"] == n + len(manifest.split_entries("train"))
        assert saved.mean.tobytes() == fitted.mean.tobytes()
        assert saved.std.tobytes() == fitted.std.tobytes()

    def test_warm_cache_extracts_nothing(self, small_dataset, tmp_path,
                                         monkeypatch):
        root, manifest = small_dataset
        argv = ["features", "--manifest", str(root / "manifest.json"),
                "--cache", str(tmp_path)]
        assert main(argv) == EXIT_OK

        def fail(*args):
            raise AssertionError("extract_binaural called on a warm cache")

        monkeypatch.setattr(ds, "extract_binaural", fail)
        stats = ds.fit_feature_stats(manifest, FeatureConfig(), tmp_path)
        assert main(argv) == EXIT_OK
        # the statistics are the exact moments of the rows train loads
        rows = np.concatenate([
            ds.load_sample(manifest, e, FeatureConfig(), cache_dir=tmp_path)[1]
            for e in manifest.split_entries("train")])
        std = rows.std(axis=0)
        np.testing.assert_array_equal(stats.mean, rows.mean(axis=0))
        np.testing.assert_array_equal(stats.std, np.where(std < 1e-8, 1.0, std))
        saved = NormalizationStats.load(tmp_path / "norm_stats.npz")
        np.testing.assert_array_equal(saved.mean, stats.mean)
        np.testing.assert_array_equal(saved.std, stats.std)
