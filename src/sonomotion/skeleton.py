"""Skeleton definition, 6D rotations, forward kinematics, motion packing.

Conventions used throughout the package: z is up, the ground is the x-y
plane, and a character with an identity root rotation faces the -y axis
(its left side is +x). Positions are meters, velocities meters/second.
"""

from __future__ import annotations

import base64
import enum
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .autodiff import fk
from .checkpoint import write_atomically
from .errors import (ContractError, DataError, DegenerateRotationError,
                     LayoutError, ShapeError)

JOINT_COUNT = 25
POS_WIDTH = JOINT_COUNT * 3        # 75
ROT_WIDTH = JOINT_COUNT * 6        # 150
VEL_WIDTH = JOINT_COUNT * 3        # 75
FRAME_WIDTH = POS_WIDTH + ROT_WIDTH + VEL_WIDTH  # 300
SSL_WIDTH = 3                      # one sound-source position per frame

POS_SLICE = slice(0, POS_WIDTH)
ROT_SLICE = slice(POS_WIDTH, POS_WIDTH + ROT_WIDTH)
VEL_SLICE = slice(POS_WIDTH + ROT_WIDTH, FRAME_WIDTH)
ROOT_POS_SLICE = slice(0, 3)

REST_FORWARD = np.array([0.0, -1.0, 0.0])


class Genre(enum.IntEnum):
    """Reaction-intensity class conditioning how strongly a character reacts."""

    DULL = 0
    NEUTRAL = 1
    SENSITIVE = 2

    @classmethod
    def parse(cls, name) -> "Genre":
        if isinstance(name, Genre):
            return name
        if isinstance(name, (int, np.integer)):
            return cls(int(name))
        try:
            return cls[str(name).upper()]
        except KeyError:
            raise ContractError(f"unknown genre {name!r}") from None

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass
class SkeletonSpec:
    """Joint hierarchy with rest offsets; topologically sorted, single root."""

    names: list[str]
    parents: np.ndarray          # (J,), root parent = -1
    offsets: np.ndarray          # (J, 3) meters
    left_foot: int = 10
    right_foot: int = 11
    root: int = 0

    def __post_init__(self):
        self.parents = np.asarray(self.parents, dtype=np.int64)
        self.offsets = np.asarray(self.offsets, dtype=np.float64)
        j = len(self.names)
        if self.parents.shape != (j,) or self.offsets.shape != (j, 3):
            raise ShapeError("skeleton arrays inconsistent with name count")
        if not np.all(np.isfinite(self.offsets)):
            raise ContractError("non-finite rest offsets")
        roots = np.flatnonzero(self.parents < 0)
        if roots.size != 1 or roots[0] != self.root:
            raise ContractError("skeleton must have exactly one root joint")
        for child in range(j):
            if 0 <= self.parents[child] and self.parents[child] >= child:
                raise ContractError("parents must precede children (topological order)")

    @property
    def joint_count(self) -> int:
        return len(self.names)

    @property
    def foot_joints(self) -> tuple[int, int]:
        return (self.left_foot, self.right_foot)

    @classmethod
    def default(cls) -> "SkeletonSpec":
        text = resources.files("sonomotion.data").joinpath(
            "skeleton25.txt").read_text()
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "SkeletonSpec":
        names, parents, offsets = [], [], []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 6:
                raise DataError(f"bad skeleton line: {line!r}")
            idx, name, parent = int(parts[0]), parts[1], int(parts[2])
            if idx != len(names):
                raise DataError(f"skeleton indices out of order at {line!r}")
            names.append(name)
            parents.append(parent)
            offsets.append([float(v) for v in parts[3:6]])
        spec = cls(names, np.array(parents), np.array(offsets))
        spec.left_foot = names.index("left_foot") if "left_foot" in names else 10
        spec.right_foot = names.index("right_foot") if "right_foot" in names else 11
        return spec


# ---------------------------------------------------------------------------
# rotation utilities


def _first_index(bad: np.ndarray) -> tuple[int, ...]:
    """Leading index of the first True entry of a (..., 1) mask."""
    return tuple(int(i) for i in np.argwhere(bad)[0, :-1])


def sixd_to_matrix(r6: np.ndarray) -> np.ndarray:
    """Decode (..., 6) into (..., 3, 3) rotation matrices.

    The two embedded 3-vectors become the first two columns after
    Gram-Schmidt; the third column is their cross product. A degenerate
    block raises DegenerateRotationError naming the leading index of the
    first one, (frame, joint) for a (T, J, 6) motion.
    """
    r6 = np.asarray(r6, dtype=np.float64)
    if r6.shape[-1] != 6:
        raise ShapeError(f"expected trailing dim 6, got {r6.shape}")
    a1, a2 = r6[..., 0:3], r6[..., 3:6]
    n1 = np.linalg.norm(a1, axis=-1, keepdims=True)
    if np.any(n1 < 1e-8):
        raise DegenerateRotationError(
            f"first 6D axis has near-zero norm in block {_first_index(n1 < 1e-8)}")
    b1 = a1 / n1
    u2 = a2 - np.sum(b1 * a2, axis=-1, keepdims=True) * b1
    n2 = np.linalg.norm(u2, axis=-1, keepdims=True)
    if np.any(n2 < 1e-8):
        raise DegenerateRotationError("6D axes are parallel or second axis is zero "
                                      f"in block {_first_index(n2 < 1e-8)}")
    b2 = u2 / n2
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=-1)


def matrix_to_sixd(rot: np.ndarray) -> np.ndarray:
    """Encode (..., 3, 3) rotations as their first two columns, (..., 6)."""
    rot = np.asarray(rot, dtype=np.float64)
    if rot.shape[-2:] != (3, 3):
        raise ShapeError(f"expected (..., 3, 3), got {rot.shape}")
    eye = np.eye(3)
    err = np.max(np.abs(np.swapaxes(rot, -1, -2) @ rot - eye))
    if err > 1e-6:
        raise ContractError(f"matrix not orthonormal within 1e-6 (err={err:.2e})")
    return np.concatenate([rot[..., :, 0], rot[..., :, 1]], axis=-1)


def rotation_z(angle) -> np.ndarray:
    """Rotation about +z by ``angle`` (radians); supports array angles."""
    angle = np.asarray(angle, dtype=np.float64)
    c, s = np.cos(angle), np.sin(angle)
    out = np.zeros(angle.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    return out


def axis_angle_to_matrix(axis: np.ndarray, angle) -> np.ndarray:
    """Rodrigues formula; axis (..., 3) need not be normalized."""
    axis = np.asarray(axis, dtype=np.float64)
    angle = np.asarray(angle, dtype=np.float64)
    n = np.linalg.norm(axis, axis=-1, keepdims=True)
    k = np.where(n > 1e-12, axis / np.maximum(n, 1e-12), 0.0)
    kx, ky, kz = k[..., 0], k[..., 1], k[..., 2]
    zero = np.zeros_like(kx)
    km = np.stack([
        np.stack([zero, -kz, ky], axis=-1),
        np.stack([kz, zero, -kx], axis=-1),
        np.stack([-ky, kx, zero], axis=-1),
    ], axis=-2)
    c = np.cos(angle)[..., None, None]
    s = np.sin(angle)[..., None, None]
    eye = np.broadcast_to(np.eye(3), km.shape)
    return eye * c + s * km + (1.0 - c) * (k[..., :, None] @ k[..., None, :])


def minimal_rotation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest rotations taking unit vectors a to unit vectors b, (..., 3, 3).

    a and b are (..., 3) and broadcast. Per element, parallel vectors give
    the identity and opposite ones a pi rotation about a perpendicular axis.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64),
                               np.asarray(b, dtype=np.float64))
    axis = np.cross(a, b)
    dot = np.clip(np.sum(a * b, axis=-1), -1.0, 1.0)
    n = np.linalg.norm(axis, axis=-1)
    out = axis_angle_to_matrix(axis, np.arctan2(n, dot))
    degenerate = n < 1e-12
    if np.any(degenerate):
        perp = np.cross(a, [1.0, 0.0, 0.0])
        near_x = np.linalg.norm(perp, axis=-1, keepdims=True) < 1e-8
        perp = np.where(near_x, np.cross(a, [0.0, 1.0, 0.0]), perp)
        flip = np.where((dot > 0)[..., None, None], np.eye(3),
                        axis_angle_to_matrix(perp, np.pi))
        out = np.where(degenerate[..., None, None], flip, out)
    return out


# ---------------------------------------------------------------------------
# kinematics


def forward_kinematics(skel: SkeletonSpec, root_translation: np.ndarray,
                       rotations: np.ndarray) -> np.ndarray:
    """Global joint positions from root translation + local rotations.

    root_translation: (..., 3); rotations: (..., J, 3, 3) local, in parent
    frames. Returns (..., J, 3). position(child) = position(parent) +
    globalRot(parent) @ offset(child); the root sits at root_translation.
    """
    return fk(skel.parents, skel.offsets, root_translation, rotations).data


def compute_velocities(p: np.ndarray, fps: float) -> np.ndarray:
    """Forward-difference velocities; the last frame repeats the previous one."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape[0] < 2:
        raise ContractError("need at least 2 frames to compute velocities")
    v = np.empty_like(p)
    v[:-1] = (p[1:] - p[:-1]) * fps
    v[-1] = v[-2]
    return v


# ---------------------------------------------------------------------------
# motion container and packing


@dataclass
class MotionSequence:
    """T frames of global positions, local 6D rotations, and velocities."""

    fps: float
    p: np.ndarray   # (T, 75)
    r: np.ndarray   # (T, 150)
    v: np.ndarray   # (T, 75)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        self.r = np.asarray(self.r, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        t = self.p.shape[0]
        if self.p.shape != (t, POS_WIDTH) or self.r.shape != (t, ROT_WIDTH) \
                or self.v.shape != (t, VEL_WIDTH):
            raise ShapeError(
                f"motion arrays inconsistent: p{self.p.shape} r{self.r.shape} "
                f"v{self.v.shape}")
        if self.fps <= 0:
            raise ContractError("fps must be positive")

    @property
    def frames(self) -> int:
        return self.p.shape[0]

    def joint_positions(self) -> np.ndarray:
        return self.p.reshape(self.frames, JOINT_COUNT, 3)

    def joint_velocities(self) -> np.ndarray:
        return self.v.reshape(self.frames, JOINT_COUNT, 3)

    def rotation_matrices(self) -> np.ndarray:
        return sixd_to_matrix(self.r.reshape(self.frames, JOINT_COUNT, 6))

    def root_positions(self) -> np.ndarray:
        return self.p[:, ROOT_POS_SLICE]

    def copy(self) -> "MotionSequence":
        return MotionSequence(self.fps, self.p.copy(), self.r.copy(), self.v.copy())


@dataclass
class SslTrack:
    """Per-frame 3-vector sound-source location."""

    positions: np.ndarray   # (T, 3)
    frame: str = "local"    # "local" (character space) or "world"

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ShapeError(f"SSL track must be (T, 3), got {self.positions.shape}")
        if self.frame not in ("local", "world"):
            raise ContractError(f"unknown SSL frame {self.frame!r}")

    def __len__(self) -> int:
        return self.positions.shape[0]


def assemble_vector(m: MotionSequence) -> np.ndarray:
    """Pack a motion into the (T, 300) layout [p | r | v]."""
    return np.concatenate([m.p, m.r, m.v], axis=1)


def disassemble_vector(x: np.ndarray, fps: float) -> MotionSequence:
    """Inverse of assemble_vector. Raw generative samples may carry rotation
    blocks that are not yet orthonormal, so none are validated here."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != FRAME_WIDTH:
        raise LayoutError(f"expected (T, {FRAME_WIDTH}), got {x.shape}")
    return MotionSequence(fps, x[:, POS_SLICE].copy(), x[:, ROT_SLICE].copy(),
                          x[:, VEL_SLICE].copy())


# ---------------------------------------------------------------------------
# contacts and normalization


def detect_foot_contacts(p: np.ndarray, fps: float, skel: SkeletonSpec) -> np.ndarray:
    """Boolean (T, 2) contact mask for (left_foot, right_foot).

    A foot is in contact when its speed is below 0.1 m/s and its height
    above the sequence's ground level is below 0.06 m.
    Ground level is estimated as the minimum foot height over the whole
    sequence, which keeps the detector meaningful after sequences are
    re-anchored to the origin by normalization.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 2 and p.shape[1] == POS_WIDTH:
        p = p.reshape(p.shape[0], JOINT_COUNT, 3)
    feet = p[:, list(skel.foot_joints), :]          # (T, 2, 3)
    vel = compute_velocities(feet.reshape(feet.shape[0], -1), fps)
    speed = np.linalg.norm(vel.reshape(-1, 2, 3), axis=-1)
    ground = feet[..., 2].min()
    height = feet[..., 2] - ground
    return (speed < 0.1) & (height < 0.06)


def normalize_sequence(m: MotionSequence,
                       ssl_world: np.ndarray | SslTrack) -> tuple[MotionSequence, SslTrack]:
    """Re-anchor frame 0 to the origin facing -y; SSL to per-frame local space.

    The applied transform is a yaw rotation plus translation, so ground-plane
    rigid placements of the same motion normalize to identical sequences.
    """
    if isinstance(ssl_world, SslTrack):
        ssl_world = ssl_world.positions
    ssl_world = np.asarray(ssl_world, dtype=np.float64)
    if ssl_world.shape != (m.frames, 3):
        raise ShapeError(f"SSL track shape {ssl_world.shape} != ({m.frames}, 3)")

    rot = m.rotation_matrices()                     # (T, J, 3, 3)
    root_rot = rot[:, 0]
    f = root_rot[0] @ REST_FORWARD                  # frame-0 facing, on the ground
    f[2] = 0.0
    norm = np.linalg.norm(f)
    if norm < 1e-8:
        raise ContractError("frame-0 facing direction is vertical; cannot normalize")
    phi = np.arctan2(f[1], f[0])
    q = rotation_z(-np.pi / 2.0 - phi)
    p0 = m.p[0, ROOT_POS_SLICE].copy()

    pj = m.joint_positions()
    p_new = (pj - p0) @ q.T
    v_new = m.joint_velocities() @ q.T
    root_new = q @ root_rot
    r_new = m.r.copy()
    r_new[:, 0:6] = matrix_to_sixd(root_new)

    out = MotionSequence(m.fps, p_new.reshape(m.frames, -1), r_new,
                         v_new.reshape(m.frames, -1))
    # local SSL is invariant to the global re-anchoring, so compute it from
    # the original data: s_local = R_root^T (s_world - p_root)
    rel = ssl_world - m.p[:, ROOT_POS_SLICE]
    s_local = np.einsum("tij,tj->ti", np.swapaxes(root_rot, -1, -2), rel)
    return out, SslTrack(s_local, frame="local")


# ---------------------------------------------------------------------------
# file formats


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode()


def _decode(blob: str, shape) -> np.ndarray:
    """Decode a base64 float64 block of ``shape``; ValueError or TypeError
    when it is not valid base64 or holds the wrong number of values."""
    arr = np.frombuffer(base64.b64decode(blob, validate=True), dtype="<f8")
    return arr.reshape(shape).astype(np.float64)


def save_motion(path, m: MotionSequence, ssl: SslTrack | None = None,
                genre: Genre | None = None, extras: dict | None = None) -> None:
    """Write a motion JSON file (header + base64 float64 blocks) that names
    the default skeleton's joints."""
    doc = {
        "format": "sonomotion-motion",
        "version": 1,
        "fps": m.fps,
        "joint_count": JOINT_COUNT,
        "frames": m.frames,
        "joint_names": SkeletonSpec.default().names,
        "genre": genre.label if genre is not None else None,
        "ssl_frame": ssl.frame if ssl is not None else None,
        "ssl": _encode(ssl.positions) if ssl is not None else None,
        "extras": extras or {},
        "p": _encode(m.p),
        "r": _encode(m.r),
        "v": _encode(m.v),
    }
    blob = json.dumps(doc).encode()
    write_atomically(path, lambda f: f.write(blob))


_BLOCK_WIDTHS = {"p": POS_WIDTH, "r": ROT_WIDTH, "v": VEL_WIDTH, "ssl": SSL_WIDTH}


def _read_checked(path) -> tuple[dict, int, float]:
    """A motion file's parsed document, frame count and fps. DataError unless
    it is a motion file with a finite ``fps`` > 0, ``frames`` >= 1 and
    ``p``/``r``/``v``, and every block present is a base64 string of the
    length its (frames, width) shape implies."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read motion file {path}: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != "sonomotion-motion":
        raise DataError(f"{path} is not a motion file")
    missing = [key for key in ("fps", "frames", "p", "r", "v") if key not in doc]
    if missing:
        raise DataError(f"motion file {path} lacks {', '.join(missing)}")
    try:
        t, fps = int(doc["frames"]), float(doc["fps"])
    except (TypeError, ValueError) as e:
        raise DataError(f"motion file {path}: bad header ({e})") from e
    if t < 1 or not 0 < fps < np.inf:      # also rejects a nan fps
        raise DataError(f"motion file {path}: bad header (frames = {t}, "
                        f"fps = {fps})")
    for name, width in _BLOCK_WIDTHS.items():
        blob = doc.get(name)
        if name == "ssl" and blob is None:
            continue
        want = 4 * -(-8 * t * width // 3)        # base64 of t*width float64
        if not isinstance(blob, str) or len(blob) != want:
            raise DataError(f"motion file {path}: {name} is not {want} base64 "
                            f"characters ({t} frames)")
    return doc, t, fps


def read_motion_header(path) -> tuple[int, float]:
    """(frames, fps) of a motion file, after the same checks of its header
    and block lengths that ``load_motion`` runs, without decoding a block."""
    return _read_checked(path)[1:]


def load_motion(path) -> tuple[MotionSequence, SslTrack | None, Genre | None, dict]:
    doc, t, fps = _read_checked(path)
    blocks = {}
    try:
        for name, width in _BLOCK_WIDTHS.items():
            if doc.get(name) is not None:
                blocks[name] = _decode(doc[name], (t, width))
    except (TypeError, ValueError) as e:
        raise DataError(f"motion file {path}: bad {name} ({e})") from e
    m = MotionSequence(fps, blocks["p"], blocks["r"], blocks["v"])
    ssl = None
    if "ssl" in blocks:
        ssl = SslTrack(blocks["ssl"], frame=doc.get("ssl_frame", "world"))
    genre = Genre.parse(doc["genre"]) if doc.get("genre") else None
    return m, ssl, genre, doc.get("extras", {})

