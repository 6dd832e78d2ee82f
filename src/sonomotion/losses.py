"""Training loss terms: data, geometric, foot-contact, trajectory, rotation.

Every term is mean-squared, non-negative, and zero when the prediction
matches the target; each also penalizes the per-frame forward difference of
its quantity so predictions stay smooth across frames. The geometric term
runs differentiable forward kinematics on the predicted rotation blocks and
root track, so rotation errors are charged in meters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .skeleton import (JOINT_COUNT, ROT_SLICE, VEL_SLICE, SkeletonSpec,
                       forward_kinematics, sixd_to_matrix)

_degenerate_rotation_count = 0

FOOT_MODES = ("magnitude", "zero")
# velocity-block columns of the default skeleton's two foot joints, which
# are adjacent (left, then right)
FOOT_VEL_SLICE = slice(VEL_SLICE.start + SkeletonSpec.left_foot * 3,
                       VEL_SLICE.start + (SkeletonSpec.right_foot + 1) * 3)


def degenerate_rotation_count() -> int:
    """Total near-degenerate 6D blocks orthogonalized inside l_geo so far."""
    return _degenerate_rotation_count


def _check_pair(pred: Tensor, target: Tensor) -> None:
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} != target {target.shape}")


def l_data(pred: Tensor, target: Tensor) -> Tensor:
    """MSE on the packed motion vector plus MSE on its frame difference."""
    _check_pair(pred, target)
    return ad.mse_with_diff(pred, target)


def l_traj(pred: Tensor, target: Tensor) -> Tensor:
    """Same structure as l_data restricted to the root position track."""
    _check_pair(pred, target)
    return ad.mse_with_diff(pred[..., 0:3], target[..., 0:3])


def l_rot(pred: Tensor, target: Tensor) -> Tensor:
    """Same structure as l_data restricted to the 150-wide rotation block."""
    _check_pair(pred, target)
    return ad.mse_with_diff(pred[..., ROT_SLICE], target[..., ROT_SLICE])


# ---------------------------------------------------------------------------
# differentiable kinematics for the geometric term


def target_positions(target: np.ndarray, skel: SkeletonSpec) -> np.ndarray:
    """(..., J * 3) global joint positions of packed (..., 300) motion: FK of
    its root track and strictly decoded rotation blocks, which raise
    DegenerateRotationError."""
    batch = target.shape[:-1]
    rot = sixd_to_matrix(target[..., ROT_SLICE].reshape(batch + (JOINT_COUNT, 6)))
    return (forward_kinematics(skel, target[..., 0:3], rot)
            .reshape(batch + (JOINT_COUNT * 3,)))


def l_geo(pred: Tensor, target: Tensor, skel: SkeletonSpec,
          target_pos: np.ndarray | None = None) -> Tensor:
    """Position + velocity MSE between FK of prediction and FK of target.

    The predicted side recovers global joint positions from its own root
    track and rotation blocks (not the packed p block, which l_data already
    supervises); its 6D decode counts degenerate blocks instead of failing.
    The target side is constant: ``target_positions(target.data, skel)``,
    which a caller that sees the same targets every epoch passes as
    ``target_pos``.
    """
    global _degenerate_rotation_count
    _check_pair(pred, target)
    batch = pred.shape[:-1]
    if target_pos is None:
        target_pos = target_positions(target.data, skel)
    elif target_pos.shape != batch + (JOINT_COUNT * 3,):
        raise ShapeError(f"target positions {target_pos.shape} != "
                         f"{batch + (JOINT_COUNT * 3,)}")
    root = pred[..., 0:3]
    rot, bad = ad.rot6d(ad.reshape(pred[..., ROT_SLICE], batch + (JOINT_COUNT, 6)))
    if bad:
        _degenerate_rotation_count += bad
    fk_pred = ad.fk(skel.parents, skel.offsets, root, rot)
    return ad.mse_with_diff(ad.reshape(fk_pred, batch + (JOINT_COUNT * 3,)),
                            Tensor(target_pos))


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
