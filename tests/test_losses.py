"""The five loss terms: values on worked examples, gradients, weighting."""

import numpy as np
import pytest

from sonomotion import losses as L
from sonomotion import skeleton as sk
from sonomotion.autodiff import Tape, Tensor
from sonomotion.errors import DegenerateRotationError, ShapeError
from sonomotion.gradcheck import check_scalar_fn

SKEL = sk.SkeletonSpec.default()


def valid_motion_vector(rng, frames=6):
    """A packed (T, 300) vector whose rotation blocks decode cleanly."""
    yaw = rng.uniform(-1, 1, frames)
    rot = np.tile(np.eye(3), (frames, 25, 1, 1))
    rot[:, 0] = sk.rotation_z(yaw)
    # small random joint perturbations
    for j in (1, 4, 16):
        axis = rng.standard_normal((frames, 3))
        rot[:, j] = sk.axis_angle_to_matrix(axis, rng.uniform(-0.3, 0.3, frames))
    root = rng.standard_normal((frames, 3)) * 0.2
    root[:, 2] += 0.9
    p = sk.forward_kinematics(SKEL, root, rot).reshape(frames, -1)
    r6 = sk.matrix_to_sixd(rot).reshape(frames, -1)
    v = sk.compute_velocities(p, 30.0)
    return np.concatenate([p, r6, v], axis=1)


class TestLData:
    def test_identical_zero(self):
        rng = np.random.default_rng(0)
        x = valid_motion_vector(rng)
        assert L.l_data(Tensor(x), Tensor(x)).item() == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        x = valid_motion_vector(rng)
        c = 0.37
        out = L.l_data(Tensor(x + c), Tensor(x)).item()
        np.testing.assert_allclose(out, c * c, rtol=1e-12)

    def test_alternating_perturbation_hits_delta_term(self):
        x = np.zeros((6, 300))
        pert = x.copy()
        pert[::2] += 0.5
        pert[1::2] -= 0.5
        base = np.mean(pert ** 2)                      # first term
        out = L.l_data(Tensor(pert), Tensor(x)).item()
        assert out > base                              # delta term adds more

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((4, 10)), rng.standard_normal((4, 10))
        err = check_scalar_fn(lambda p, t: L.l_data(p, t), [a, b])
        assert err < 1e-4


class TestLGeo:
    def test_identical_zero(self):
        rng = np.random.default_rng(3)
        x = valid_motion_vector(rng)
        assert L.l_geo(Tensor(x), Tensor(x), SKEL).item() < 1e-18

    def test_root_shift_propagates_to_every_joint(self):
        rng = np.random.default_rng(4)
        x = valid_motion_vector(rng)
        shifted = x.copy()
        shifted[:, 0] += 1.0       # root x in the p block = FK root input
        out = L.l_geo(Tensor(shifted), Tensor(x), SKEL).item()
        # every joint shifts by exactly (1,0,0): mean squared error = 1/3
        np.testing.assert_allclose(out, 1.0 / 3.0, rtol=1e-9)

    def test_joint_angle_error_moves_children(self):
        rng = np.random.default_rng(5)
        x = valid_motion_vector(rng)
        bent = x.copy()
        # perturb the left hip rotation block (joint 1)
        rot = sk.sixd_to_matrix(x[:, 75:225].reshape(-1, 25, 6))
        rot[:, 1] = rot[:, 1] @ sk.rotation_z(0.4)
        bent[:, 75:225] = sk.matrix_to_sixd(rot).reshape(x.shape[0], -1)
        out = L.l_geo(Tensor(bent), Tensor(x), SKEL).item()
        assert out > 1e-5

    def test_gradcheck_tiny(self):
        rng = np.random.default_rng(6)
        x = valid_motion_vector(rng, frames=2)
        pred = x + rng.standard_normal(x.shape) * 0.05
        err = check_scalar_fn(lambda p: L.l_geo(p, Tensor(x), SKEL), [pred])
        assert err < 1e-4

    def test_degenerate_rotations_counted_not_fatal(self):
        rng = np.random.default_rng(7)
        x = valid_motion_vector(rng, frames=2)
        broken = x.copy()
        broken[:, 75:81] = 0.0       # zero out the root rotation block
        before = L.degenerate_rotation_count()
        out = L.l_geo(Tensor(broken), Tensor(x), SKEL).item()
        assert np.isfinite(out)
        assert L.degenerate_rotation_count() > before

    def test_precomputed_target_positions_give_the_same_bits(self):
        """Positions computed once for a whole split, then indexed by a
        batch, give l_geo's value and gradient bit for bit."""
        rng = np.random.default_rng(10)
        split = np.stack([valid_motion_vector(rng) for _ in range(5)])
        idx = np.array([3, 0, 3])
        target = split[idx]
        pred = target + rng.standard_normal(target.shape) * 0.05
        pos_all = L.target_positions(split, SKEL)
        assert pos_all.shape == (5, 6, 75)
        runs = []
        for extra in ((), (pos_all[idx],)):
            p = Tensor(pred, requires_grad=True)
            with Tape() as tape:
                loss = L.l_geo(p, Tensor(target), SKEL, *extra)
                tape.backward(loss)
            runs.append((loss.data, p.grad))
        for without, with_pos in zip(*runs):
            np.testing.assert_array_equal(with_pos, without)
        with pytest.raises(ShapeError):
            L.l_geo(Tensor(pred), Tensor(target), SKEL, pos_all[:2])

    def test_degenerate_target_rotation_raises(self):
        rng = np.random.default_rng(11)
        x = valid_motion_vector(rng)
        x[2, 75:81] = 0.0
        with pytest.raises(DegenerateRotationError):
            L.target_positions(x, SKEL)


class TestLFoot:
    def test_identical_zero(self):
        rng = np.random.default_rng(8)
        x = valid_motion_vector(rng)
        contacts = np.ones((x.shape[0], 2), dtype=bool)
        assert L.l_foot(Tensor(x), Tensor(x), contacts).item() == 0.0

    def test_sliding_feet_unit_loss(self):
        frames = 5
        x = np.zeros((frames, 300))
        pred = x.copy()
        pred[:, L.FOOT_VEL_SLICE] = 0.0
        pred[:, 255] = 1.0           # left foot vx = 1 m/s
        pred[:, 258] = 1.0           # right foot vx = 1 m/s
        contacts = np.ones((frames, 2), dtype=bool)
        out = L.l_foot(Tensor(pred), Tensor(x), contacts).item()
        np.testing.assert_allclose(out, 1.0, rtol=1e-5)

    def test_airborne_clip_zero(self):
        rng = np.random.default_rng(9)
        x = valid_motion_vector(rng)
        pred = x + rng.standard_normal(x.shape)
        contacts = np.zeros((x.shape[0], 2), dtype=bool)
        assert L.l_foot(Tensor(pred), Tensor(x), contacts).item() == 0.0

    def test_zero_mode_penalizes_any_motion(self):
        frames = 4
        x = np.zeros((frames, 300))
        x[:, 255] = 0.5                     # ground truth feet moving too
        contacts = np.ones((frames, 2), dtype=bool)
        mag = L.l_foot(Tensor(x), Tensor(x), contacts, mode="magnitude").item()
        zero = L.l_foot(Tensor(x), Tensor(x), contacts, mode="zero").item()
        assert mag == 0.0 and zero > 0.0

    def test_gradcheck(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 300))
        pred = rng.standard_normal((3, 300))
        contacts = rng.uniform(size=(3, 2)) > 0.4
        if not contacts.any():
            contacts[0, 0] = True
        err = check_scalar_fn(
            lambda p: L.l_foot(p, Tensor(x), contacts), [pred])
        assert err < 1e-4


class TestTrajRot:
    def test_identical_zero(self):
        rng = np.random.default_rng(11)
        x = valid_motion_vector(rng)
        assert L.l_traj(Tensor(x), Tensor(x)).item() == 0.0
        assert L.l_rot(Tensor(x), Tensor(x)).item() == 0.0

    def test_root_offset_in_y(self):
        rng = np.random.default_rng(12)
        x = valid_motion_vector(rng)
        d = 0.83
        shifted = x.copy()
        shifted[:, 1] += d
        out = L.l_traj(Tensor(shifted), Tensor(x)).item()
        np.testing.assert_allclose(out, d * d / 3.0, rtol=1e-9)

    def test_disjoint_blocks(self):
        rng = np.random.default_rng(13)
        x = valid_motion_vector(rng)
        pert = x.copy()
        pert[:, 75 + 6:75 + 12] += 0.3     # one non-root rotation block
        assert L.l_traj(Tensor(pert), Tensor(x)).item() == 0.0
        assert L.l_rot(Tensor(pert), Tensor(x)).item() > 0.0

    def test_gradchecks(self):
        rng = np.random.default_rng(14)
        a, b = rng.standard_normal((3, 300)), rng.standard_normal((3, 300))
        assert check_scalar_fn(lambda p: L.l_traj(p, Tensor(b)), [a]) < 1e-4
        assert check_scalar_fn(lambda p: L.l_rot(p, Tensor(b)), [a]) < 1e-4


class TestTotalLoss:
    def _unit_terms(self):
        return {name: Tensor(1.0) for name in ("data", "geo", "foot", "traj",
                                               "rot")}

    def test_all_zero(self):
        terms = {name: Tensor(0.0) for name in ("data", "geo", "foot", "traj",
                                                "rot")}
        w = L.LossWeights.with_schedule(600)
        loss, _ = L.total_loss(terms, w, 0)
        assert loss.item() == 0.0

    def test_unit_terms_before_and_after_bump(self):
        w = L.LossWeights.with_schedule(600)
        assert w.bump_epoch == 500
        before, used0 = L.total_loss(self._unit_terms(), w, 499)
        after, used1 = L.total_loss(self._unit_terms(), w, 500)
        assert before.item() == 5.0
        assert after.item() == 9.0
        assert (used0["traj"], used0["rot"]) == (1.0, 1.0)
        assert (used1["traj"], used1["rot"]) == (3.0, 3.0)

    def test_bump_weights_are_1_1_1_3_3(self):
        w = L.LossWeights.with_schedule(6000)
        at = w.at_epoch(5000)
        assert [at[k] for k in ("data", "geo", "foot", "traj", "rot")] == \
            [1.0, 1.0, 1.0, 3.0, 3.0]

    def test_linear_in_each_term(self):
        w = L.LossWeights()
        terms = self._unit_terms()
        base, _ = L.total_loss(terms, w, 0)
        terms["geo"] = Tensor(3.0)
        bumped, _ = L.total_loss(terms, w, 0)
        assert bumped.item() - base.item() == 2.0
