"""Training loss terms: data, geometric, foot-contact, trajectory, rotation.

Every term is mean-squared, non-negative, and zero when the prediction
matches the target; each also penalizes the per-frame forward difference of
its quantity so predictions stay smooth across frames. The geometric term
runs differentiable forward kinematics on the predicted rotation blocks and
root track, so rotation errors are charged in meters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .skeleton import (JOINT_COUNT, ROT_SLICE, VEL_SLICE, SkeletonSpec,
                       forward_kinematics, sixd_to_matrix)

log = logging.getLogger(__name__)

_degenerate_rotation_count = 0

FOOT_MODES = ("magnitude", "zero")
# velocity-block columns of the default skeleton's two foot joints, which
# are adjacent (left, then right)
FOOT_VEL_SLICE = slice(VEL_SLICE.start + SkeletonSpec.left_foot * 3,
                       VEL_SLICE.start + (SkeletonSpec.right_foot + 1) * 3)


def degenerate_rotation_count() -> int:
    """Total near-degenerate 6D blocks orthogonalized inside l_geo so far."""
    return _degenerate_rotation_count


def _frame_diff(x: Tensor) -> Tensor:
    """Forward difference along the frame axis (second-to-last axis)."""
    return ad.sub(x[..., 1:, :], x[..., :-1, :])


def _check_pair(pred: Tensor, target: Tensor) -> None:
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} != target {target.shape}")


def _mse_with_diff(pred: Tensor, target: Tensor) -> Tensor:
    """MSE of the values plus MSE of their frame difference."""
    return ad.add(ad.mse(pred, target),
                  ad.mse(_frame_diff(pred), _frame_diff(target)))


def l_data(pred: Tensor, target: Tensor) -> Tensor:
    """MSE on the packed motion vector plus MSE on its frame difference."""
    _check_pair(pred, target)
    return _mse_with_diff(pred, target)


def l_traj(pred: Tensor, target: Tensor) -> Tensor:
    """Same structure as l_data restricted to the root position track."""
    _check_pair(pred, target)
    return _mse_with_diff(pred[..., 0:3], target[..., 0:3])


def l_rot(pred: Tensor, target: Tensor) -> Tensor:
    """Same structure as l_data restricted to the 150-wide rotation block."""
    _check_pair(pred, target)
    return _mse_with_diff(pred[..., ROT_SLICE], target[..., ROT_SLICE])


# ---------------------------------------------------------------------------
# differentiable kinematics for the geometric term


def rot6d_to_matrix_t(r6: Tensor) -> Tensor:
    """Taped 6D -> rotation decode; degenerate blocks are counted, not fatal."""
    global _degenerate_rotation_count
    a1, a2 = r6[..., 0:3], r6[..., 3:6]
    n1sq = ad.sum_(ad.mul(a1, a1), axis=-1, keepdims=True)
    bad = int(np.sum(n1sq.data < 1e-16))
    b1 = ad.div(a1, ad.sqrt_(ad.add(n1sq, 1e-12)))
    proj = ad.sum_(ad.mul(b1, a2), axis=-1, keepdims=True)
    u2 = ad.sub(a2, ad.mul(proj, b1))
    n2sq = ad.sum_(ad.mul(u2, u2), axis=-1, keepdims=True)
    bad += int(np.sum(n2sq.data < 1e-16))
    if bad:
        _degenerate_rotation_count += bad
        log.debug("orthogonalized %d degenerate 6D rotation blocks", bad)
    b2 = ad.div(u2, ad.sqrt_(ad.add(n2sq, 1e-12)))
    b3 = ad.cross(b1, b2)
    cols = [ad.reshape(b, b.shape + (1,)) for b in (b1, b2, b3)]
    return ad.concat(cols, axis=-1)


def l_geo(pred: Tensor, target: Tensor, skel: SkeletonSpec) -> Tensor:
    """Position + velocity MSE between FK of prediction and FK of target.

    The predicted side recovers global joint positions from its own root
    track and rotation blocks (not the packed p block, which l_data already
    supervises); the target side is constant, computed outside the tape.
    """
    _check_pair(pred, target)
    batch = pred.shape[:-1]
    root = pred[..., 0:3]
    r6 = ad.reshape(pred[..., ROT_SLICE], batch + (JOINT_COUNT, 6))
    rot = rot6d_to_matrix_t(r6)
    fk_pred = ad.fk(skel.parents, skel.offsets, root, rot)

    tgt = target.data
    tgt_rot = sixd_to_matrix(tgt[..., ROT_SLICE].reshape(batch + (JOINT_COUNT, 6)))
    fk_tgt = Tensor(forward_kinematics(skel, tgt[..., 0:3], tgt_rot)
                    .reshape(batch + (JOINT_COUNT * 3,)))

    return _mse_with_diff(ad.reshape(fk_pred, batch + (JOINT_COUNT * 3,)), fk_tgt)


def l_foot(pred: Tensor, target: Tensor, contacts: np.ndarray,
           mode: str = "magnitude") -> Tensor:
    """Foot-velocity inconsistency on ground-truth contact frames.

    contacts: boolean (..., T, 2) mask from the ground-truth motion.
    mode "magnitude" (default) penalizes the squared difference of foot
    speed magnitudes; mode "zero" penalizes predicted foot speed directly,
    pinning planted feet to the ground.
    """
    _check_pair(pred, target)
    if mode not in FOOT_MODES:
        raise ConfigError(f"unknown l_foot mode {mode!r}")
    contacts = np.asarray(contacts, dtype=bool)
    batch = pred.shape[:-1]
    if contacts.shape != batch + (2,):
        raise ShapeError(f"contact mask {contacts.shape} != {batch + (2,)}")
    total = float(contacts.sum())
    if total == 0.0:
        return Tensor(0.0)
    vp = ad.reshape(pred[..., FOOT_VEL_SLICE], batch + (2, 3))
    speed_p = ad.sqrt_(ad.add(ad.sum_(ad.mul(vp, vp), axis=-1), 1e-12))
    if mode == "magnitude":
        vt = target.data[..., FOOT_VEL_SLICE].reshape(batch + (2, 3))
        speed_t = Tensor(np.sqrt(np.sum(vt * vt, axis=-1) + 1e-12))
        err = ad.sub(speed_p, speed_t)
    else:
        err = speed_p
    masked = ad.mul(ad.mul(err, err), contacts.astype(np.float64))
    return ad.mul(ad.sum_(masked), 1.0 / total)


# ---------------------------------------------------------------------------
# weighting


@dataclass
class LossWeights:
    """Unit weight on every term; from ``bump_epoch`` on, the trajectory and
    rotation terms weigh 3."""

    bump_epoch: int | None = None

    @classmethod
    def with_schedule(cls, total_epochs: int) -> "LossWeights":
        """Default schedule: traj/rot weights triple at floor(5/6 * epochs)."""
        return cls(bump_epoch=(5 * total_epochs) // 6)

    def at_epoch(self, epoch: int) -> dict[str, float]:
        late = 3.0 if self.bump_epoch is not None and epoch >= self.bump_epoch else 1.0
        return {"data": 1.0, "geo": 1.0, "foot": 1.0, "traj": late, "rot": late}


def total_loss(terms: dict[str, Tensor], weights: LossWeights,
               epoch: int) -> tuple[Tensor, dict[str, float]]:
    """Weighted sum of the five terms; returns (loss, weights used)."""
    w = weights.at_epoch(epoch)
    missing = set(w) - set(terms)
    if missing:
        raise ShapeError(f"missing loss terms: {sorted(missing)}")
    loss = None
    for name, weight in w.items():
        contrib = ad.mul(terms[name], weight)
        loss = contrib if loss is None else ad.add(loss, contrib)
    return loss, w
