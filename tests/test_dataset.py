"""Synthetic scene oracle, manifest/splits, resampling, and sample loading."""

import json
import os
import shutil
import tracemalloc

import numpy as np
import pytest

from sonomotion import audio as au
from sonomotion import dataset as ds
from sonomotion import denoiser
from sonomotion.audio import (AudioClip, AudioFeatureMatrix, FeatureConfig,
                              NormalizationStats, extract_binaural,
                              load_feature_cache, read_wav, save_feature_cache,
                              write_wav)
from sonomotion.cli import EXIT_DATA, EXIT_OK, main
from sonomotion.errors import AlignmentError, ContractError, DataError
from sonomotion.skeleton import (SkeletonSpec, assemble_vector,
                                 axis_angle_to_matrix, compute_velocities,
                                 detect_foot_contacts, forward_kinematics,
                                 matrix_to_sixd, read_motion_header, rotation_z,
                                 save_motion, sixd_to_matrix)

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
            rot = m.rotation_matrices()
            np.testing.assert_allclose(np.swapaxes(rot, -1, -2) @ rot,
                                       np.broadcast_to(np.eye(3), rot.shape),
                                       rtol=0, atol=1e-6)
            fk = forward_kinematics(SKEL, m.root_positions(), rot)
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

    def test_rotation_geodesic_between_frames(self):
        """25 -> 30 fps puts output frames at fractional source positions.
        Every joint turns 0.8 rad per source frame about one tilted axis, so
        log(r0^T r1) is 0.8 * axis and the output at source position s is
        r_base exp(0.8 s axis)."""
        rng = np.random.default_rng(21)
        frames, axis = 6, np.array([0.3, -0.5, 0.8])   # only its direction counts
        base = axis_angle_to_matrix(rng.standard_normal((25, 3)),
                                    rng.uniform(0.0, np.pi, 25))
        rot = base @ axis_angle_to_matrix(axis, 0.8 * np.arange(frames))[:, None]
        p = forward_kinematics(SKEL, np.zeros((frames, 3)), rot).reshape(frames, -1)
        m = ds.MotionSequence(25.0, p, matrix_to_sixd(rot).reshape(frames, -1),
                              compute_velocities(p, 25.0))
        out = ds.resample_motion(m, 30.0)
        s = np.arange(out.frames) * 25.0 / 30.0
        assert out.frames == 7 and np.any(s % 1.0 > 0.1)
        got = sixd_to_matrix(out.r.reshape(out.frames, 25, 6))
        want = base @ axis_angle_to_matrix(axis, 0.8 * s)[:, None]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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

    def test_too_few_samples_writes_nothing(self, tmp_path):
        out = tmp_path / "ds"
        with pytest.raises(ContractError):
            ds.generate_dataset(out, count=5, seed=0, duration=2.0)
        assert not out.exists() or not any(p.is_file() for p in out.rglob("*"))


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    manifest = ds.generate_dataset(root, count=10, seed=13, duration=2.0)
    return root, manifest


def train_cache_files(manifest, cache_dir):
    """The train clips' cache files in manifest order, filled on a miss, as
    ``features`` gets them for the fit."""
    return [ds.clip_features(audio, *read_motion_header(motion), FeatureConfig(),
                             cache_dir)[1]
            for audio, motion in map(manifest.resolve,
                                     manifest.split_entries("train"))]


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

    def test_split_items_are_train_samples(self, small_dataset):
        """``load_split`` items are TrainSample records that index as (x0,
        audio, ssl, genre); ``stack_samples`` stacks each field."""
        _, manifest = small_dataset
        items = ds.load_split(manifest, "train", FeatureConfig())
        assert len(items) == 8
        for s in items:
            assert isinstance(s, ds.TrainSample)
            assert s[0] is s.x0 and s[1] is s.audio and s[2] is s.ssl
            assert s[3] == s.genre
        batch = ds.stack_samples(items)
        frames = items[0].x0.shape[0]
        assert batch.x0.shape == (8, frames, 300)
        assert batch.audio.shape == (8, frames, 2272)
        assert batch.ssl.shape == (8, frames, 3)
        assert batch.genre.dtype == np.int64
        for k in range(4):
            np.testing.assert_array_equal(batch[k], [s[k] for s in items])
        assert denoiser.TrainSample is ds.TrainSample

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

    def test_audio_past_the_motion_changes_no_feature(self, small_dataset,
                                                      tmp_path):
        """A WAV tiled to 30 s gives the features of the 2 s its motion spans."""
        root, _ = small_dataset
        shutil.copytree(root, tmp_path / "ds")
        manifest = ds.DatasetManifest.load(tmp_path / "ds" / "manifest.json")
        e = manifest.entries[0]
        before = ds.load_sample(manifest, e, FeatureConfig())[1]
        wav = manifest.resolve(e)[0]
        clip = read_wav(wav)
        write_wav(wav, AudioClip(clip.sample_rate, np.tile(clip.left, 15),
                                 np.tile(clip.right, 15)))
        assert read_wav(wav).duration > 29.0
        after = ds.load_sample(manifest, e, FeatureConfig())[1]
        np.testing.assert_array_equal(before, after)

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
        stats = ds.fit_feature_stats(train_cache_files(manifest, tmp_path))
        assert stats.mean.shape == (2272,)
        assert (stats.std > 0).all()
        with pytest.raises(DataError, match="training split is empty"):
            ds.fit_feature_stats([])

    def test_fit_feature_stats_holds_under_three_clips(self, small_dataset,
                                                       tmp_path):
        """The fit's peak traced memory stays below three clips' float64
        rows, whatever the number of train clips."""
        _, manifest = small_dataset
        six = train_cache_files(manifest, tmp_path)[:6]
        tracemalloc.start()
        try:
            ds.fit_feature_stats(six)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        clips = [load_feature_cache(p).values for p in six]
        assert len(set(six)) == 6
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
        assert set(asked) == {want}
        assert len(asked) == len(manifest.entries) + 1

    def test_features_hashes_each_clip_once(self, small_dataset, tmp_path,
                                            monkeypatch):
        """``features`` reads each WAV, hashes it and reads its motion header
        once per run. A cold run parses the bytes it read, a warm one parses
        nothing; the fit reads only the cache files."""
        from sonomotion import cli
        root, manifest = small_dataset
        calls = {"wav": 0, "parse": 0, "key": 0, "header": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def parse(path, blob=None):
            assert blob is not None, "the WAV was read twice"
            calls["parse"] += 1
            return read_wav(path, blob)

        read_bytes = ds.Path.read_bytes

        def read(path):
            calls["wav"] += path.suffix == ".wav"
            return read_bytes(path)

        monkeypatch.setattr(ds.Path, "read_bytes", read)
        monkeypatch.setattr(ds, "read_wav", parse)
        monkeypatch.setattr(ds, "feature_cache_key",
                            counted("key", ds.feature_cache_key))
        monkeypatch.setattr(cli, "read_motion_header",
                            counted("header", cli.read_motion_header))
        argv = ["features", "--manifest", str(root / "manifest.json"),
                "--cache", str(tmp_path)]
        n = len(manifest.entries)
        assert main(argv) == EXIT_OK
        assert calls == {"wav": n, "parse": n, "key": n, "header": n}
        assert main(argv) == EXIT_OK
        assert calls == {"wav": 2 * n, "parse": n, "key": 2 * n, "header": 2 * n}

    @pytest.mark.parametrize("first, then", [(60, 90), (90, 60)])
    def test_cache_file_serves_only_its_frame_count(self, tmp_path, first, then):
        """A cache file filled for one frame count is a miss for any other:
        the clip is extracted again and its file rewritten."""
        wav = tmp_path / "clip.wav"
        write_wav(wav, ds.synthesize_pair(
            ds.SyntheticSceneSpec(duration=3.0, seed=5)).clip)
        cfg = FeatureConfig()
        _, path = ds.clip_features(wav, first, 30.0, cfg, tmp_path)
        values, again = ds.clip_features(wav, then, 30.0, cfg, tmp_path)
        fresh = extract_binaural(read_wav(wav), cfg, then).values
        np.testing.assert_array_equal(values, fresh.astype(np.float32))
        assert again == path
        np.testing.assert_array_equal(load_feature_cache(path).values, values)

    def test_cache_of_older_feature_version_is_never_read(self, tmp_path,
                                                          monkeypatch):
        """A file stored under the key of an older FEATURE_VERSION is a miss:
        the clip is extracted again and cached under the current key."""
        wav = tmp_path / "clip.wav"
        write_wav(wav, ds.synthesize_pair(
            ds.SyntheticSceneSpec(duration=3.0, seed=5)).clip)
        cfg = FeatureConfig()
        with monkeypatch.context() as m:
            m.setattr(au, "FEATURE_VERSION", au.FEATURE_VERSION - 1)
            stale = tmp_path / f"{au.feature_cache_key(wav.read_bytes(), cfg)}.feat"
        save_feature_cache(stale, AudioFeatureMatrix(np.zeros((90, 2272))))
        values, path = ds.clip_features(wav, 90, 30.0, cfg, tmp_path)
        fresh = extract_binaural(read_wav(wav), cfg, 90).values
        np.testing.assert_array_equal(values, fresh.astype(np.float32))
        assert path != stale
        assert not load_feature_cache(stale).values.any()

    def test_warm_cache_extracts_nothing(self, small_dataset, tmp_path,
                                         monkeypatch):
        root, manifest = small_dataset
        argv = ["features", "--manifest", str(root / "manifest.json"),
                "--cache", str(tmp_path)]
        assert main(argv) == EXIT_OK

        def fail(*args):
            raise AssertionError("extract_binaural called on a warm cache")

        monkeypatch.setattr(ds, "extract_binaural", fail)
        stats = ds.fit_feature_stats(train_cache_files(manifest, tmp_path))
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
