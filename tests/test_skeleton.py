"""Skeleton, rotations, FK, packing, contacts, normalization, file formats."""

import json

import numpy as np
import pytest

from sonomotion import skeleton as sk
from sonomotion.errors import (ContractError, DataError,
                               DegenerateRotationError, LayoutError)


def random_rotations(rng, n):
    """Orthogonalized Gaussian matrices: the classic random-rotation oracle."""
    out = np.empty((n, 3, 3))
    for i in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        out[i] = q
    return out


def make_motion(rng, frames=12, fps=30.0):
    skel = sk.SkeletonSpec.default()
    yaw = rng.uniform(-0.5, 0.5, frames)
    rot = np.tile(np.eye(3), (frames, 25, 1, 1))
    rot[:, 0] = sk.rotation_z(yaw)
    root = np.cumsum(rng.standard_normal((frames, 3)) * 0.01, axis=0)
    root[:, 2] += 0.91
    p = sk.forward_kinematics(skel, root, rot).reshape(frames, -1)
    r6 = sk.matrix_to_sixd(rot).reshape(frames, -1)
    v = sk.compute_velocities(p, fps)
    return sk.MotionSequence(fps, p, r6, v), skel


class TestSixd:
    def test_identity_encode_decode(self):
        np.testing.assert_allclose(
            sk.sixd_to_matrix(np.array([1, 0, 0, 0, 1, 0.0])), np.eye(3))
        np.testing.assert_allclose(
            sk.matrix_to_sixd(np.eye(3)), [1, 0, 0, 0, 1, 0])

    def test_quarter_turn_about_z(self):
        got = sk.sixd_to_matrix(np.array([0, 1, 0, -1, 0, 0.0]))
        np.testing.assert_allclose(got, sk.rotation_z(np.pi / 2), atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        r6 = sk.matrix_to_sixd(random_rotations(rng, 5))
        np.testing.assert_allclose(sk.sixd_to_matrix(r6 * 5.0),
                                   sk.sixd_to_matrix(r6), atol=1e-12)

    def test_roundtrip_10k_random_rotations(self):
        rng = np.random.default_rng(1)
        rots = random_rotations(rng, 10_000)
        back = sk.sixd_to_matrix(sk.matrix_to_sixd(rots))
        assert np.abs(back - rots).max() < 1e-9

    def test_composition_roundtrip(self):
        rng = np.random.default_rng(2)
        r1, r2 = random_rotations(rng, 2)
        prod = r1 @ r2
        np.testing.assert_allclose(
            sk.sixd_to_matrix(sk.matrix_to_sixd(prod)), prod, atol=1e-12)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(DegenerateRotationError):
            sk.sixd_to_matrix(np.zeros(6))
        with pytest.raises(DegenerateRotationError):
            sk.sixd_to_matrix(np.array([1, 0, 0, 2, 0, 0.0]))   # parallel

    def test_non_orthonormal_matrix_rejected(self):
        with pytest.raises(ContractError):
            sk.matrix_to_sixd(np.eye(3) * 1.5)


class TestForwardKinematics:
    def test_identity_pose_accumulates_offsets(self):
        skel = sk.SkeletonSpec.default()
        rot = np.tile(np.eye(3), (skel.joint_count, 1, 1))
        pos = sk.forward_kinematics(skel, np.zeros(3), rot)
        expected = np.zeros((skel.joint_count, 3))
        for j in range(skel.joint_count):
            parent = skel.parents[j]
            expected[j] = skel.offsets[j] + (expected[parent] if parent >= 0 else 0)
        np.testing.assert_allclose(pos, expected, atol=1e-12)

    def test_three_joint_chain_hand_computed(self):
        # unit offsets along x, 90 degree z-rotation at the root:
        # both children rotate onto +y, tip lands at (0, 2, 0)
        skel = sk.SkeletonSpec(["a", "b", "c"], np.array([-1, 0, 1]),
                               np.array([[0, 0, 0], [1, 0, 0], [1, 0, 0.0]]),
                               left_foot=1, right_foot=2)
        rot = np.tile(np.eye(3), (3, 1, 1))
        rot[0] = sk.rotation_z(np.pi / 2)
        pos = sk.forward_kinematics(skel, np.zeros(3), rot)
        np.testing.assert_allclose(pos[1], [0, 1, 0], atol=1e-9)
        np.testing.assert_allclose(pos[2], [0, 2, 0], atol=1e-9)

    def test_rigid_equivariance(self):
        rng = np.random.default_rng(3)
        skel = sk.SkeletonSpec.default()
        rot = random_rotations(rng, skel.joint_count)
        q = random_rotations(rng, 1)[0]
        base = sk.forward_kinematics(skel, np.zeros(3), rot)
        rot_q = rot.copy()
        rot_q[0] = q @ rot[0]
        turned = sk.forward_kinematics(skel, np.zeros(3), rot_q)
        np.testing.assert_allclose(turned, base @ q.T, atol=1e-9)

    def test_batched_matches_per_frame(self):
        rng = np.random.default_rng(4)
        skel = sk.SkeletonSpec.default()
        rots = np.stack([random_rotations(rng, 25) for _ in range(4)])
        roots = rng.standard_normal((4, 3))
        batched = sk.forward_kinematics(skel, roots, rots)
        for t in range(4):
            single = sk.forward_kinematics(skel, roots[t], rots[t])
            np.testing.assert_allclose(batched[t], single, atol=1e-12)


class TestVelocities:
    def test_constant_positions_zero(self):
        p = np.ones((5, 6))
        np.testing.assert_array_equal(sk.compute_velocities(p, 30.0),
                                      np.zeros((5, 6)))

    def test_linear_motion_scaled_by_fps(self):
        p = np.arange(10.0)[:, None] * 0.1
        v = sk.compute_velocities(p, 30.0)
        np.testing.assert_allclose(v, np.full((10, 1), 3.0))

    def test_last_frame_duplicates(self):
        rng = np.random.default_rng(5)
        p = rng.standard_normal((7, 3))
        v = sk.compute_velocities(p, 30.0)
        np.testing.assert_array_equal(v[-1], v[-2])

    def test_too_short_raises(self):
        with pytest.raises(ContractError):
            sk.compute_velocities(np.ones((1, 3)), 30.0)


class TestPacking:
    def test_zero_motion_zero_vector(self):
        m = sk.MotionSequence(30.0, np.zeros((4, 75)),
                              np.zeros((4, 150)), np.zeros((4, 75)))
        x = sk.assemble_vector(m)
        assert x.shape == (4, 300)
        assert not x.any()

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(6)
        m, _ = make_motion(rng)
        x = sk.assemble_vector(m)
        back = sk.disassemble_vector(x, m.fps)
        assert np.array_equal(back.p, m.p)
        assert np.array_equal(back.r, m.r)
        assert np.array_equal(back.v, m.v)

    def test_width_is_300(self):
        rng = np.random.default_rng(7)
        m, _ = make_motion(rng)
        assert sk.assemble_vector(m).shape[1] == 300
        assert sk.FRAME_WIDTH == 300 and sk.JOINT_COUNT == 25

    def test_wrong_width_rejected(self):
        with pytest.raises(LayoutError):
            sk.disassemble_vector(np.zeros((4, 299)), 30.0)


class TestFootContacts:
    def test_stationary_on_ground_all_contact(self):
        rng = np.random.default_rng(8)
        m, skel = make_motion(rng, frames=2)
        frames = 10
        p = np.tile(m.p[0], (frames, 1))
        contacts = sk.detect_foot_contacts(p, 30.0, skel)
        assert contacts.all()

    def test_fast_feet_no_contact(self):
        rng = np.random.default_rng(9)
        m, skel = make_motion(rng, frames=2)
        frames = 10
        p = np.tile(m.p[0], (frames, 1)).reshape(frames, 25, 3)
        p[:, [10, 11], 0] += np.arange(frames)[:, None] * 0.1   # 3 m/s
        contacts = sk.detect_foot_contacts(p.reshape(frames, -1), 30.0, skel)
        assert not contacts.any()

    def test_height_threshold(self):
        rng = np.random.default_rng(10)
        m, skel = make_motion(rng, frames=2)
        frames = 10
        p = np.tile(m.p[0], (frames, 1)).reshape(frames, 25, 3)
        p[5:, 10, 2] += 0.10    # left foot hovers high but still
        contacts = sk.detect_foot_contacts(p.reshape(frames, -1), 30.0, skel)
        assert not contacts[6:, 0].any()
        assert contacts[:, 1].all()


class TestNormalize:
    def test_idempotent(self):
        rng = np.random.default_rng(11)
        m, _ = make_motion(rng)
        ssl = rng.standard_normal((m.frames, 3))
        n1, s1 = sk.normalize_sequence(m, ssl)
        # world SSL consistent with the already-normalized sequence: rebuild it
        rot = n1.rotation_matrices()[:, 0]
        ssl_world = np.einsum("tij,tj->ti", rot, s1.positions) + n1.p[:, :3]
        n2, s2 = sk.normalize_sequence(n1, ssl_world)
        assert np.abs(n2.p - n1.p).max() < 1e-9
        assert np.abs(n2.r - n1.r).max() < 1e-9
        assert np.abs(s2.positions - s1.positions).max() < 1e-9

    def test_source_ahead_maps_to_minus_y(self):
        rng = np.random.default_rng(12)
        m, _ = make_motion(rng, frames=5)
        rot0 = m.rotation_matrices()[0, 0]
        facing = rot0 @ np.array([0.0, -1.0, 0.0])
        ssl = m.p[:, :3] + 2.0 * facing
        _, local = sk.normalize_sequence(m, ssl)
        np.testing.assert_allclose(local.positions[0], [0, -2, 0], atol=1e-9)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(13)
        m, _ = make_motion(rng)
        ssl = rng.standard_normal((m.frames, 3))
        base_m, base_s = sk.normalize_sequence(m, ssl)

        # ground-preserving rigid motion: yaw + 3-D translation
        q = sk.rotation_z(rng.uniform(-np.pi, np.pi))
        d = rng.standard_normal(3) * 5.0
        pj = (m.joint_positions() @ q.T) + d
        vj = m.joint_velocities() @ q.T
        r = m.r.copy()
        r[:, :6] = sk.matrix_to_sixd(q @ m.rotation_matrices()[:, 0])
        m2 = sk.MotionSequence(m.fps, pj.reshape(m.frames, -1), r,
                               vj.reshape(m.frames, -1))
        ssl2 = ssl @ q.T + d
        got_m, got_s = sk.normalize_sequence(m2, ssl2)
        assert np.abs(got_m.p - base_m.p).max() < 1e-6
        assert np.abs(got_m.r - base_m.r).max() < 1e-6
        assert np.abs(got_s.positions - base_s.positions).max() < 1e-6


class TestMinimalRotation:
    def test_batched_matches_rodrigues_per_vector(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal((8, 3))
        b[1] = a[1]                        # parallel
        b[2] = -a[2]                       # antiparallel
        a[3], b[3] = [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]   # antiparallel on x
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        got = sk.minimal_rotation(a, b)
        assert got.shape == (8, 3, 3)
        for i in range(8):
            np.testing.assert_array_equal(sk.minimal_rotation(a[i], b[i]), got[i])
            np.testing.assert_allclose(got[i] @ a[i], b[i], atol=1e-12)
            axis = np.cross(a[i], b[i])
            s, c = np.linalg.norm(axis), a[i] @ b[i]
            if s < 1e-12 and c > 0:
                np.testing.assert_array_equal(got[i], np.eye(3))
            elif s < 1e-12:
                # a pi rotation about an axis perpendicular to a
                np.testing.assert_allclose(got[i], got[i].T, atol=1e-12)
                np.testing.assert_allclose(got[i] @ got[i], np.eye(3), atol=1e-12)
                assert abs(np.trace(got[i]) + 1.0) < 1e-12
                assert abs(np.linalg.det(got[i]) - 1.0) < 1e-12
            else:
                k = axis / s
                km = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]],
                               [-k[1], k[0], 0.0]])
                want = np.eye(3) + s * km + (1.0 - c) * km @ km
                np.testing.assert_allclose(got[i], want, atol=1e-12)

    def test_single_vector_broadcasts(self):
        rng = np.random.default_rng(17)
        b = rng.standard_normal((5, 3))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        down = np.array([0.0, 0.0, -1.0])
        np.testing.assert_array_equal(sk.minimal_rotation(down, b),
                                      sk.minimal_rotation(np.tile(down, (5, 1)), b))


class TestMotionFiles:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        m, _ = make_motion(rng)
        ssl = sk.SslTrack(rng.standard_normal((m.frames, 3)), frame="world")
        path = tmp_path / "m.json"
        sk.save_motion(path, m, ssl, sk.Genre.SENSITIVE, extras={"note": 1})
        m2, ssl2, genre, extras = sk.load_motion(path)
        np.testing.assert_array_equal(m2.p, m.p)
        np.testing.assert_array_equal(m2.r, m.r)
        np.testing.assert_array_equal(m2.v, m.v)
        np.testing.assert_array_equal(ssl2.positions, ssl.positions)
        assert genre is sk.Genre.SENSITIVE
        assert extras == {"note": 1}

    @pytest.mark.parametrize("damage", ["drop-fps", "drop-frames", "drop-p",
                                        "drop-r", "drop-v", "cut-p", "cut-r",
                                        "cut-v", "cut-ssl", "garble-p",
                                        "null-r", "frames-0", "fps-0", "fps-nan",
                                        "fps-neg", "fps-inf"])
    def test_damaged_file_is_data_error(self, tmp_path, damage):
        rng = np.random.default_rng(18)
        m, _ = make_motion(rng)
        path = tmp_path / "m.json"
        sk.save_motion(path, m, sk.SslTrack(rng.standard_normal((m.frames, 3))))
        doc = json.loads(path.read_text())
        kind, key = damage.split("-")
        if kind == "drop":
            del doc[key]
        elif kind == "cut":
            doc[key] = doc[key][:len(doc[key]) // 2 // 4 * 4]
        elif kind == "garble":
            doc[key] = "*" + doc[key][1:]
        elif kind == "null":
            doc[key] = None
        elif kind == "fps":     # json writes nan and inf as NaN and Infinity
            doc["fps"] = {"0": 0, "nan": np.nan, "neg": -30, "inf": np.inf}[key]
        else:
            doc["frames"] = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            sk.load_motion(path)
        if kind != "garble":    # right length: only load_motion decodes it
            with pytest.raises(DataError):
                sk.read_motion_header(path)

    def test_header_matches_decoded_motion(self, tmp_path):
        rng = np.random.default_rng(19)
        m, _ = make_motion(rng, frames=7, fps=25.0)
        path = tmp_path / "m.json"
        sk.save_motion(path, m, sk.SslTrack(rng.standard_normal((7, 3))))
        assert sk.read_motion_header(path) == (7, 25.0)

    def test_genre_parse(self):
        assert sk.Genre.parse("dull") is sk.Genre.DULL
        assert sk.Genre.parse(2) is sk.Genre.SENSITIVE
        with pytest.raises(ContractError):
            sk.Genre.parse("loud")
