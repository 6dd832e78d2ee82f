"""Dataset manifest/IO, sample loading and the synthetic scene oracle.

The generator stands in for recorded capture data at desk scale: each scene
places a sound source around a character, renders what the character's two
ears hear (distance-squared gain falloff plus per-ear propagation delay),
and synthesizes an FK-consistent reaction motion (grounded stepping via
two-bone leg IK, reaction overlays, genre-scaled onset latency and
amplitude). Because the generator knows its own reaction program, onset
time, plant schedule, and intended displacement direction, it doubles as
the ground-truth oracle for the acceptance tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .audio import (AudioClip, FeatureConfig, NormalizationStats,
                    extract_binaural, feature_cache_key, first_rows,
                    load_feature_cache, read_wav, save_feature_cache, write_wav)
from .checkpoint import write_atomically
from .errors import ContractError, DataError, DegenerateRotationError
from .skeleton import (Genre, MotionSequence, SkeletonSpec, SslTrack,
                       assemble_vector, axis_angle_to_matrix,
                       compute_velocities, forward_kinematics, load_motion,
                       matrix_to_sixd, minimal_rotation, normalize_sequence,
                       rotation_z, save_motion, sixd_to_matrix)

SPEED_OF_SOUND = 343.0
HEAD_RADIUS = 0.0875
EAR_HEIGHT_OFFSET = 0.72          # ears sit this far above the pelvis
SOURCE_HEIGHT = 1.2
STANDING_ROOT_HEIGHT = 0.91

PROGRAMS = ("idle", "turn_toward", "walk_toward", "flee", "cover_ears")
SIGNALS = ("tone", "chirp", "noise", "clicks")

GENRE_LATENCY = {Genre.SENSITIVE: 0.2, Genre.NEUTRAL: 0.6, Genre.DULL: 1.5}
GENRE_AMPLITUDE = {Genre.SENSITIVE: 1.25, Genre.NEUTRAL: 1.0, Genre.DULL: 0.6}

_DOWN = np.array([0.0, 0.0, -1.0])


@dataclass
class SyntheticSceneSpec:
    azimuth_deg: float = 0.0          # 0 = straight ahead (-y), +90 = left (+x)
    distance: float = 2.5
    signal: str = "tone"
    program: str = "walk_toward"
    genre: Genre = Genre.NEUTRAL
    duration: float = 10.0
    seed: int = 0
    fps: int = 30
    sample_rate: int = 24000

    def __post_init__(self):
        self.genre = Genre.parse(self.genre)
        if self.duration < 2.0:
            raise ContractError("scene duration must be at least 2 s")
        if self.distance <= 0.3:
            raise ContractError("source distance must stay above 0.3 m")
        if self.signal not in SIGNALS:
            raise ContractError(f"unknown signal kind {self.signal!r}")
        if self.program not in PROGRAMS:
            raise ContractError(f"unknown reaction program {self.program!r}")

    @property
    def frames(self) -> int:
        return int(round(self.duration * self.fps))


@dataclass
class SynthesizedScene:
    clip: AudioClip
    motion: MotionSequence
    ssl: SslTrack                      # world frame
    genre: Genre
    meta: dict


# ---------------------------------------------------------------------------
# motion synthesis


def _yaw_facing(yaw):
    """Facing direction (x, y) for heading angle yaw (identity faces -y)."""
    return np.stack([np.sin(yaw), -np.cos(yaw)], axis=-1)


def _wrap_angle(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


class _LegIK:
    """Two-bone leg solver in the root frame; knees hinge toward -y."""

    def __init__(self, skel: SkeletonSpec):
        self.hip_off = {0: skel.offsets[1], 1: skel.offsets[2]}
        self.toe_off = {0: skel.offsets[10], 1: skel.offsets[11]}
        self.l1 = float(abs(skel.offsets[4][2]))
        self.l2 = float(abs(skel.offsets[7][2]))

    def solve(self, side: int, roots, yaws, toe_world):
        """Local (T, 3, 3) rotations (hip, knee, ankle) pinning each frame's
        toe at ``toe_world``; roots and toe_world are (T, 3), yaws (T,)."""
        rz = rotation_z(yaws)
        ankle_target = toe_world - rz @ self.toe_off[side]
        hip_world = roots + rz @ self.hip_off[side]
        t = np.einsum("tji,tj->ti", rz, ankle_target - hip_world)
        reach = self.l1 + self.l2
        t_norm = np.linalg.norm(t, axis=-1, keepdims=True)
        d = np.clip(t_norm, 0.3 * reach, 0.995 * reach)
        n = t / np.maximum(t_norm, 1e-9)
        cos_a = (self.l1 ** 2 + d ** 2 - self.l2 ** 2) / (2.0 * self.l1 * d)
        alpha = np.arccos(np.clip(cos_a, -1.0, 1.0))
        hinge = np.stack([n[:, 2], np.zeros(len(n)), -n[:, 0]], axis=-1)
        h_norm = np.linalg.norm(hinge, axis=-1, keepdims=True)
        hinge = np.where(h_norm < 1e-6, [-1.0, 0.0, 0.0],
                         hinge / np.maximum(h_norm, 1e-6))
        thigh = (n * np.cos(alpha) + np.cross(hinge, n) * np.sin(alpha)
                 + hinge * np.sum(hinge * n, axis=-1, keepdims=True)
                 * (1.0 - np.cos(alpha)))
        shin = n * d - self.l1 * thigh     # clamped-reach target minus thigh
        shin /= np.maximum(np.linalg.norm(shin, axis=-1, keepdims=True), 1e-9)
        r_hip = minimal_rotation(_DOWN, thigh)
        r_knee_glob = minimal_rotation(_DOWN, shin)
        r_knee = np.swapaxes(r_hip, -1, -2) @ r_knee_glob
        r_ankle = np.swapaxes(r_knee_glob, -1, -2)
        return r_hip, r_knee, r_ankle


class _FootPlanner:
    """Event-driven stepping: stance feet hold their world plant position,
    the swing foot travels to the next plant in a half-sine arc."""

    SWING_LIFT = 0.05
    STANCE_HALF_WIDTH = 0.11

    def __init__(self, root0, yaw0, dt):
        self.dt = dt
        self.pos = [self._nominal(root0, yaw0, 0), self._nominal(root0, yaw0, 1)]
        self.swing = [None, None]   # (elapsed, dur, from, to); None in stance

    def _nominal(self, root_xy, yaw, side):
        lat = self.STANCE_HALF_WIDTH if side == 0 else -self.STANCE_HALF_WIDTH
        off = rotation_z(yaw)[:2, :2] @ np.array([lat, 0.0])
        return np.array([root_xy[0] + off[0], root_xy[1] + off[1], 0.0])

    def step(self, root_xy, yaw, yaw_rate, speed, facing):
        moving = speed > 0.05
        turning = abs(yaw_rate) > 0.4 and not moving
        skating = [False, False]
        if turning:
            # feet pivot with the body; not plants
            for side in (0, 1):
                if self.swing[side] is None:
                    self.pos[side] = self._nominal(root_xy, yaw, side)
                    skating[side] = True
        if moving and self.swing == [None, None]:
            step_len = 0.25 + 0.2 * min(speed, 1.5)
            swing_dur = min(0.25, max(0.12, 0.6 * step_len / max(speed, 0.3)))
            # track the ankle (0.13 m behind the toe): it bounds leg reach
            prog = [float(np.dot((self.pos[s][:2] - root_xy), facing)) - 0.13
                    for s in (0, 1)]
            side = int(np.argmin(prog))     # the foot farthest behind
            if prog[side] < 0.02:
                target = self._nominal(root_xy, yaw, side)
                target[:2] += facing * (0.5 * step_len + speed * swing_dur)
                self.swing[side] = [0.0, swing_dur, self.pos[side].copy(), target]
        for side, st in enumerate(self.swing):
            if st is None:
                continue
            st[0] += self.dt
            u = st[0] / st[1]
            if u >= 1.0:
                self.pos[side] = st[3]      # a plant target lies at z = 0
                self.swing[side] = None
            else:
                # constant horizontal speed keeps every swing frame above
                # the contact detector's speed threshold
                p = st[2] + (st[3] - st[2]) * u
                p[2] = self.SWING_LIFT * np.sin(np.pi * u)
                self.pos[side] = p
        planted = [self.swing[s] is None and not skating[s] for s in (0, 1)]
        return [self.pos[0].copy(), self.pos[1].copy()], planted


def synthesize_motion(spec: SyntheticSceneSpec):
    """Procedural reaction motion of the default skeleton; returns
    (MotionSequence, ssl_world, meta)."""
    skel = SkeletonSpec.default()
    t_total = spec.frames
    dt = 1.0 / spec.fps
    latency = GENRE_LATENCY[spec.genre]
    amp = GENRE_AMPLITUDE[spec.genre]
    onset_frame = int(round(latency * spec.fps))
    az = np.deg2rad(spec.azimuth_deg)      # the source stands still
    src_xy = np.array([spec.distance * np.sin(az), -spec.distance * np.cos(az)])

    ik = _LegIK(skel)
    root_xy = np.zeros(2)
    yaw = 0.0
    speed = 0.0
    crouch = 0.0
    neck_yaw = 0.0
    arm_phase = 0.0
    arm_swing = 0.0
    raise_angle = 0.0

    planner = _FootPlanner(root_xy, yaw, dt)
    turn_rate = 3.5 * amp
    walk_speed = 0.9 * amp
    flee_speed = 1.5 * amp
    accel = 2.5 * max(amp, 0.4)

    roots = np.zeros((t_total, 3))
    yaws = np.zeros(t_total)
    feet = np.zeros((t_total, 2, 3))
    plants = np.zeros((t_total, 2), dtype=bool)
    neck_yaws = np.zeros(t_total)
    crouches = np.zeros(t_total)
    swings = np.zeros(t_total)
    raises = np.zeros(t_total)

    for i in range(t_total):
        reacting = i >= onset_frame
        to_src = src_xy - root_xy
        dist = float(np.linalg.norm(to_src))
        yaw_to_src = float(np.arctan2(to_src[0], -to_src[1]))

        yaw_target = yaw
        speed_target = 0.0
        crouch_target = 0.0
        raise_target = 0.0
        neck_target = 0.0
        if reacting:
            if spec.program in ("turn_toward", "walk_toward"):
                yaw_target = yaw_to_src
            elif spec.program == "flee":
                yaw_target = yaw_to_src + np.pi
            if spec.program == "walk_toward":
                aligned = abs(_wrap_angle(yaw_to_src - yaw)) < 0.35
                headroom = max(dist - 0.6, 0.0)
                speed_target = min(walk_speed, np.sqrt(2.0 * accel * headroom)) \
                    if aligned else 0.0
            elif spec.program == "flee":
                aligned = abs(_wrap_angle(yaw_target - yaw)) < 0.35
                speed_target = flee_speed if aligned else 0.0
            elif spec.program == "cover_ears":
                crouch_target = 0.22 * amp
                raise_target = 1.1 * amp
            if spec.program != "idle":
                neck_target = float(np.clip(_wrap_angle(yaw_to_src - yaw),
                                            -1.1, 1.1)) * 0.7

        err = _wrap_angle(yaw_target - yaw)
        yaw_step = float(np.clip(err, -turn_rate * dt, turn_rate * dt))
        yaw = yaw + yaw_step
        dspeed = np.clip(speed_target - speed, -2.0 * accel * dt, accel * dt)
        speed = max(0.0, speed + float(dspeed))
        # walking lowers the pelvis so the planted leg keeps its reach;
        # anticipate the commanded speed so the dip never lags the ramp
        crouch_target += 0.16 * min(max(speed, 0.8 * speed_target), 2.0) / 2.0
        crouch += (crouch_target - crouch) * min(1.0, dt / 0.12)
        raise_angle += (raise_target - raise_angle) * min(1.0, dt / 0.25)
        neck_yaw += (neck_target - neck_yaw) * min(1.0, dt / 0.2)

        facing = _yaw_facing(yaw)
        if speed > 0.0:
            root_xy = root_xy + facing * speed * dt
            step_len = 0.25 + 0.2 * min(speed, 1.5)
            arm_phase += speed * dt * np.pi / step_len
            arm_swing += (0.3 * min(speed, 1.2) * np.sin(arm_phase)
                          - arm_swing) * min(1.0, dt / 0.1)
        else:
            arm_swing += (0.0 - arm_swing) * min(1.0, dt / 0.2)
        if not reacting or spec.program == "idle":
            # gentle weight sway while idling
            sway = 0.008 * np.sin(2.0 * np.pi * 0.23 * i * dt)
            root_eff = root_xy + np.array([sway, 0.0])
        else:
            root_eff = root_xy

        foot_pos, planted = planner.step(root_xy, yaw, yaw_step / dt, speed,
                                         facing)
        roots[i] = [root_eff[0], root_eff[1], STANDING_ROOT_HEIGHT - crouch]
        yaws[i] = yaw
        feet[i] = foot_pos
        plants[i] = planted
        neck_yaws[i] = neck_yaw
        crouches[i] = crouch
        swings[i] = arm_swing
        raises[i] = raise_angle

    # assemble local rotations
    rot = np.tile(np.eye(3), (t_total, skel.joint_count, 1, 1))
    rot[:, 0] = rotation_z(yaws)
    lean = 0.9 * crouches
    rot[:, 3] = axis_angle_to_matrix(np.tile([1.0, 0, 0], (t_total, 1)), lean)
    rot[:, 6] = axis_angle_to_matrix(np.tile([1.0, 0, 0], (t_total, 1)), 0.5 * lean)
    rot[:, 12] = rotation_z(neck_yaws)
    rot[:, 15] = rotation_z(0.5 * neck_yaws)
    y_axis = np.tile([0.0, 1.0, 0.0], (t_total, 1))
    x_axis = np.tile([1.0, 0.0, 0.0], (t_total, 1))
    rot[:, 16] = axis_angle_to_matrix(y_axis, -raises) @ axis_angle_to_matrix(
        x_axis, swings)
    rot[:, 17] = axis_angle_to_matrix(y_axis, raises) @ axis_angle_to_matrix(
        x_axis, -swings)
    rot[:, 18] = axis_angle_to_matrix(y_axis, -0.8 * raises)
    rot[:, 19] = axis_angle_to_matrix(y_axis, 0.8 * raises)
    for side, joints in enumerate(([1, 4, 7], [2, 5, 8])):
        rot[:, joints] = np.stack(ik.solve(side, roots, yaws, feet[:, side]),
                                  axis=1)

    pos = forward_kinematics(skel, roots, rot)
    p = pos.reshape(t_total, -1)
    r6 = matrix_to_sixd(rot).reshape(t_total, -1)
    v = compute_velocities(p, spec.fps)
    motion = MotionSequence(spec.fps, p, r6, v)

    # align the plant schedule with the forward-difference velocity
    # convention: frame t counts as planted only if the foot also holds
    # through t+1 (the takeoff frame carries the swing velocity)
    plants[:-1] &= plants[1:]

    source = np.tile([*src_xy, SOURCE_HEIGHT], (t_total, 1))
    disp = roots[-1, :2] - roots[onset_frame, :2] if onset_frame < t_total \
        else np.zeros(2)
    meta = {
        "program": spec.program,
        "genre": spec.genre.label,
        "onset_time": latency,
        "amplitude": amp,
        "expected_direction": {"walk_toward": 1, "flee": -1}.get(spec.program, 0),
        "source_start": source[0].tolist(),
        "azimuth_deg": spec.azimuth_deg,
        "distance": spec.distance,
        "plants": plants.tolist(),
        "displacement": disp.tolist(),
    }
    return motion, source, meta


# ---------------------------------------------------------------------------
# audio synthesis


def _mono_signal(spec: SyntheticSceneSpec, rng: np.random.Generator) -> np.ndarray:
    n = int(round(spec.duration * spec.sample_rate))
    t = np.arange(n) / spec.sample_rate
    if spec.signal == "tone":
        f = rng.uniform(300.0, 900.0)
        sig = 0.45 * np.sin(2.0 * np.pi * f * t)
    elif spec.signal == "chirp":
        f0, f1 = 250.0, 1500.0
        phase = 2.0 * np.pi * (f0 * t + 0.5 * (f1 - f0) * t * t / spec.duration)
        sig = 0.45 * np.sin(phase)
    elif spec.signal == "noise":
        sig = 0.35 * rng.standard_normal(n)
        period, on = 0.8, 0.4
        env = ((t % period) < on).astype(np.float64)
        sig = sig * np.convolve(env, np.ones(256) / 256.0, mode="same")
    else:  # clicks
        rate = rng.uniform(1.5, 3.5)
        sig = np.zeros(n)
        click_len = int(0.008 * spec.sample_rate)
        ping = (np.sin(2.0 * np.pi * 1200.0 * np.arange(click_len) / spec.sample_rate)
                * np.exp(-np.arange(click_len) / (0.002 * spec.sample_rate)))
        step = int(spec.sample_rate / rate)
        for start in range(0, n - click_len, step):
            sig[start:start + click_len] += 0.9 * ping
    ramp = int(0.02 * spec.sample_rate)
    if ramp and n > 2 * ramp:
        win = np.ones(n)
        win[:ramp] = np.linspace(0.0, 1.0, ramp)
        win[-ramp:] = np.linspace(1.0, 0.0, ramp)
        sig = sig * win
    return sig


def render_binaural(mono: np.ndarray, roots: np.ndarray, yaws: np.ndarray,
                    source: np.ndarray, fps: int, sample_rate: int) -> AudioClip:
    """Distance-squared gain plus per-ear propagation delay rendering."""
    t_frames = roots.shape[0]
    ear_local = np.array([[HEAD_RADIUS, 0.0, EAR_HEIGHT_OFFSET],
                          [-HEAD_RADIUS, 0.0, EAR_HEIGHT_OFFSET]])
    rz = rotation_z(yaws)                      # (T, 3, 3)
    ears = roots[:, None, :] + np.einsum("tij,ej->tei", rz, ear_local)
    dist = np.linalg.norm(source[:, None, :] - ears, axis=2)   # (T, 2)
    gains = 1.0 / np.maximum(dist, 0.5) ** 2
    delays = dist / SPEED_OF_SOUND

    n = mono.shape[0]
    frame_times = np.arange(t_frames) / fps
    sample_times = np.arange(n) / sample_rate
    channels = []
    for ear in (0, 1):
        g = np.interp(sample_times, frame_times, gains[:, ear])
        d = np.interp(sample_times, frame_times, delays[:, ear])
        idx = np.arange(n) - d * sample_rate
        i0 = np.floor(idx).astype(np.int64)
        frac = idx - i0
        valid0 = (i0 >= 0) & (i0 < n)
        valid1 = (i0 + 1 >= 0) & (i0 + 1 < n)
        s0 = np.where(valid0, mono[np.clip(i0, 0, n - 1)], 0.0)
        s1 = np.where(valid1, mono[np.clip(i0 + 1, 0, n - 1)], 0.0)
        channels.append(g * ((1.0 - frac) * s0 + frac * s1))
    peak = max(np.abs(channels[0]).max(), np.abs(channels[1]).max(), 1e-12)
    if peak > 0.97:
        scale = 0.97 / peak
        channels = [c * scale for c in channels]
    return AudioClip(sample_rate, channels[0], channels[1])


def synthesize_pair(spec: SyntheticSceneSpec) -> SynthesizedScene:
    """Full paired sample: binaural clip, motion, world SSL, genre, oracle meta."""
    rng = np.random.default_rng(spec.seed)
    motion, source, meta = synthesize_motion(spec)
    mono = _mono_signal(spec, rng)
    roots = motion.root_positions()
    root_rot = sixd_to_matrix(motion.r[:, :6])
    yaws = np.arctan2(root_rot[:, 1, 0], root_rot[:, 0, 0])
    clip = render_binaural(mono, roots, yaws, source, spec.fps, spec.sample_rate)
    return SynthesizedScene(clip, motion, SslTrack(source, frame="world"),
                            spec.genre, meta)


# ---------------------------------------------------------------------------
# resampling


def resampled_frames(frames: int, fps_in: float, fps_out: float) -> int:
    """Frames of the grid k/fps_out inside a span of ``frames`` at fps_in."""
    if abs(fps_in - fps_out) < 1e-9:
        return frames
    return int(np.floor((frames - 1) * fps_out / fps_in)) + 1


def resample_motion(m: MotionSequence, target_fps: float,
                    ssl: np.ndarray | None = None):
    """Resample to target_fps: linear p/v, geodesic rotations.

    Output frame k sits at time k/target_fps; the output count is the largest
    grid that stays within the source span (no extrapolation). Already-on-rate
    input is returned unchanged.
    """
    if abs(m.fps - target_fps) < 1e-9:
        return (m, ssl) if ssl is not None else m
    # imported here: scipy.spatial adds ~8 MB of RSS that on-rate motion never uses
    from scipy.spatial.transform import Rotation
    t_src = m.frames
    n_out = resampled_frames(t_src, m.fps, target_fps)
    if n_out < 2:
        raise ContractError("resampled sequence would be shorter than 2 frames")
    src_idx = np.arange(n_out) * m.fps / target_fps
    i0 = np.minimum(np.floor(src_idx).astype(np.int64), t_src - 2)
    u = src_idx - i0

    def lerp(arr):
        return arr[i0] * (1.0 - u[:, None]) + arr[i0 + 1] * u[:, None]

    p_new = lerp(m.p)
    v_new = lerp(m.v)
    rot = m.rotation_matrices()
    r0, r1 = rot[i0], rot[i0 + 1]
    rel = np.swapaxes(r0, -1, -2) @ r1
    vec = Rotation.from_matrix(rel.reshape(-1, 3, 3)).as_rotvec().reshape(
        rel.shape[:-1])                               # (n, J, 3)
    ang = np.linalg.norm(vec, axis=-1) * u[:, None]
    r_new = r0 @ axis_angle_to_matrix(vec, ang)
    r6 = matrix_to_sixd(r_new).reshape(n_out, -1)
    out = MotionSequence(target_fps, p_new, r6, v_new)
    if ssl is not None:
        return out, lerp(np.asarray(ssl, dtype=np.float64))
    return out


# ---------------------------------------------------------------------------
# manifest


@dataclass
class ManifestEntry:
    sample_id: str
    audio: str
    motion: str
    genre: str
    tag: str = ""
    split: str = ""
    meta: dict = field(default_factory=dict)


def _require_keys(doc, keys: set[str], what: str) -> None:
    """DataError unless ``doc`` is a JSON object with exactly ``keys``."""
    if not isinstance(doc, dict):
        raise DataError(f"{what} is not a JSON object")
    if doc.keys() != keys:
        raise DataError(f"{what} has keys {sorted(doc)}, expected {sorted(keys)}")


@dataclass
class DatasetManifest:
    root: str
    fps: float
    entries: list[ManifestEntry]
    seed: int = 0

    def split_entries(self, split: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == split]

    def save(self, path) -> None:
        doc = {
            "format": "sonomotion-manifest",
            "version": 1,
            "root": self.root,
            "fps": self.fps,
            "seed": self.seed,
            "entries": [vars(e) for e in self.entries],
        }
        blob = json.dumps(doc, indent=1).encode()
        write_atomically(path, lambda f: f.write(blob))

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataError(f"cannot read manifest {path}: {e}") from e
        if not isinstance(doc, dict) or doc.get("format") != "sonomotion-manifest":
            raise DataError(f"{path} is not a dataset manifest")
        _require_keys(doc, {"format", "version", "root", "fps", "seed", "entries"},
                      f"manifest {path}")
        if doc["version"] != 1:
            raise DataError(f"manifest {path} has unknown version {doc['version']!r}")
        if not isinstance(doc["root"], str):
            raise DataError(f"manifest {path}: root is not a string")
        if not isinstance(doc["entries"], list):
            raise DataError(f"manifest {path}: entries is not a list")
        fps, seed = doc["fps"], doc["seed"]
        if (isinstance(fps, bool) or not isinstance(fps, (int, float))
                or not 0 < fps < np.inf):
            raise DataError(f"manifest {path}: fps is not a finite number > 0 "
                            f"({fps!r})")
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise DataError(f"manifest {path}: seed is not an integer >= 0 ({seed!r})")
        names = {f.name for f in fields(ManifestEntry)}
        for i, e in enumerate(doc["entries"]):
            what = f"manifest {path} entry {i}"
            _require_keys(e, names, what)
            for name in sorted(names - {"meta"}):
                if not isinstance(e[name], str):
                    raise DataError(f"{what}: {name} is not a string")
            if not isinstance(e["meta"], dict):
                raise DataError(f"{what}: meta is not a JSON object")
            if e["split"] not in SPLITS:
                raise DataError(f"{what} ({e['sample_id']}): split is not one of "
                                f"{', '.join(SPLITS)} ({e['split']!r})")
        entries = [ManifestEntry(**e) for e in doc["entries"]]
        root = Path(doc["root"])
        if not root.is_absolute():        # relative roots anchor at the file
            root = path.parent / root
        return cls(str(root), doc["fps"], entries, doc["seed"])

    def resolve(self, entry: ManifestEntry) -> tuple[Path, Path]:
        root = Path(self.root)
        return root / entry.audio, root / entry.motion


# the splits, their 8:1:1 shares, and the smallest dataset that leaves a val
# and a test item under them
SPLITS = ("train", "val", "test")
SPLIT_RATIOS = (0.8, 0.1, 0.1)
MIN_SPLIT_ITEMS = 10


def _largest_remainder(n: int) -> list[int]:
    ideal = [r * n for r in SPLIT_RATIOS]
    counts = [int(np.floor(x)) for x in ideal]
    rem = n - sum(counts)
    order = sorted(range(len(SPLIT_RATIOS)), key=lambda k: ideal[k] - counts[k],
                   reverse=True)
    for k in order[:rem]:
        counts[k] += 1
    return counts


def _check_split_size(count: int) -> None:
    if count < MIN_SPLIT_ITEMS:
        raise ContractError(f"need at least {MIN_SPLIT_ITEMS} samples for an "
                            f"8:1:1 split, got {count}")


def assign_splits(entries: list[ManifestEntry], seed: int) -> None:
    """Deterministic stratified 8:1:1 split with exact global counts.

    Each scenario tag is split by largest remainder first; a correction pass
    then moves shuffled items between splits until the global counts match
    the largest-remainder allocation of the full set.
    """
    _check_split_size(len(entries))
    rng = np.random.default_rng(seed)
    groups: dict[str, list[ManifestEntry]] = {}
    for e in entries:
        groups.setdefault(e.tag, []).append(e)
    for tag in sorted(groups):
        group = groups[tag]
        order = rng.permutation(len(group))
        counts = _largest_remainder(len(group))
        bounds = np.cumsum([0] + counts)
        for k, name in enumerate(SPLITS):
            for j in order[bounds[k]:bounds[k + 1]]:
                group[j].split = name

    targets = dict(zip(SPLITS, _largest_remainder(len(entries))))
    totals = {name: sum(1 for e in entries if e.split == name) for name in SPLITS}
    for _ in range(len(entries)):
        if totals == targets:
            break
        over = max(SPLITS, key=lambda nm: totals[nm] - targets[nm])
        under = min(SPLITS, key=lambda nm: totals[nm] - targets[nm])
        share = SPLIT_RATIOS[SPLITS.index(over)]
        donor = max(sorted(groups),
                    key=lambda tag: sum(e.split == over for e in groups[tag])
                    - share * len(groups[tag]))
        item = next(e for e in groups[donor] if e.split == over)
        item.split = under
        totals[over] -= 1
        totals[under] += 1


def build_manifest(root, entries: list[ManifestEntry], seed: int,
                   fps: float = 30.0) -> DatasetManifest:
    assign_splits(entries, seed)
    return DatasetManifest(str(root), fps, entries, seed)


# ---------------------------------------------------------------------------
# generation to disk


def generate_dataset(out_dir, count: int, seed: int, duration: float = 10.0,
                     fps: int = 30, sample_rate: int = 24000) -> DatasetManifest:
    """Write ``count`` synthetic paired samples plus a split manifest."""
    _check_split_size(count)
    out = Path(out_dir)
    (out / "audio").mkdir(parents=True, exist_ok=True)
    (out / "motion").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    entries = []
    genres = list(Genre)
    for i in range(count):
        spec = SyntheticSceneSpec(
            azimuth_deg=float(rng.uniform(-180.0, 180.0)),
            distance=float(rng.uniform(1.5, 4.0)),
            signal=SIGNALS[i % len(SIGNALS)],
            program=PROGRAMS[i % len(PROGRAMS)],
            genre=genres[i % len(genres)],       # round-robin keeps counts +-1
            duration=duration,
            seed=seed + i,
            fps=fps,
            sample_rate=sample_rate,
        )
        scene = synthesize_pair(spec)
        sample_id = f"sample_{i:04d}"
        audio_rel = f"audio/{sample_id}.wav"
        motion_rel = f"motion/{sample_id}.json"
        write_wav(out / audio_rel, scene.clip)
        meta = dict(scene.meta)
        save_motion(out / motion_rel, scene.motion, scene.ssl, scene.genre,
                    extras=meta)
        entries.append(ManifestEntry(sample_id, audio_rel, motion_rel,
                                     scene.genre.label, tag=spec.program,
                                     meta={"signal": spec.signal,
                                           "program": spec.program,
                                           "onset_time": meta["onset_time"],
                                           "expected_direction":
                                               meta["expected_direction"]}))
    # the stored root is relative so identical seeds give identical bytes
    manifest = build_manifest(".", entries, seed, fps=float(fps))
    manifest.save(out / "manifest.json")
    manifest.root = str(out)
    return manifest


# ---------------------------------------------------------------------------
# loading


def clip_features(audio_path, feat_config: FeatureConfig, cache_dir=None
                  ) -> tuple[np.ndarray, Path | None]:
    """A clip's one feature matrix, and the cache file it came from (None
    without ``cache_dir``): the raw (T, 2272) features of the whole WAV, T
    being the ``feat_config.motion_fps`` frames its samples span. Commands
    take their rows from it through ``audio.first_rows``.

    The WAV is read once. With ``cache_dir`` its bytes name the cache file,
    ``<feature_cache_key>.feat`` there, which serves every frame count; a
    missing file is a miss, which parses the same bytes, extracts and writes
    it. The rows are float32 values, as the file holds them, with a cache
    dir or without one."""
    try:
        audio_bytes = Path(audio_path).read_bytes()
    except OSError as e:
        raise DataError(f"missing audio {audio_path}") from e
    cache_path = None
    if cache_dir is not None:
        key = feature_cache_key(audio_bytes, feat_config)
        cache_path = Path(cache_dir) / f"{key}.feat"
        if cache_path.exists():
            return load_feature_cache(cache_path).values, cache_path
    clip = read_wav(audio_path, audio_bytes)
    # freed first: held through the extraction, the bytes made a cold
    # `features` run ~10 % slower (2-core x86-64, one OpenBLAS thread)
    del audio_bytes
    feats = extract_binaural(
        clip, feat_config, clip.samples * feat_config.motion_fps // clip.sample_rate)
    if cache_path is not None:
        save_feature_cache(cache_path, feats)
    return feats.values.astype(np.float32).astype(np.float64), cache_path


class TrainSample(NamedTuple):
    """One motion and its conditions on one frame grid."""

    x0: np.ndarray        # (T, 300) normalized motion vector
    audio: np.ndarray     # (T, 2272) binaural features
    ssl: np.ndarray       # (T, 3) character-local source position
    genre: int


def stack_samples(samples) -> TrainSample:
    """Same-length samples as one batch: (B, T, .) arrays and (B,) genres."""
    x0, audio, ssl, genre = zip(*samples)
    return TrainSample(np.stack(x0), np.stack(audio), np.stack(ssl),
                       np.array(genre, dtype=np.int64))


def load_sample(manifest: DatasetManifest, entry: ManifestEntry,
                feat_config: FeatureConfig, cache_dir=None,
                stats: NormalizationStats | None = None) -> TrainSample:
    """One entry's sample on the ``feat_config.motion_fps`` frame grid;
    ``stats``, when given, z-score the audio rows."""
    audio_path, motion_path = manifest.resolve(entry)
    motion, ssl, genre, _ = load_motion(motion_path)
    if ssl is None:
        raise DataError(f"{entry.sample_id}: motion file lacks an SSL track")
    if ssl.frame != "world":
        raise DataError(f"{entry.sample_id}: expected world-frame SSL on disk")
    try:
        motion, ssl_pos = resample_motion(motion, feat_config.motion_fps, ssl.positions)
        normalized, ssl_local = normalize_sequence(motion, ssl_pos)
    except DegenerateRotationError as e:
        raise DataError(f"{entry.sample_id} ({motion_path}): {e}, "
                        "as (frame, joint)") from e
    x0 = assemble_vector(normalized)
    values = first_rows(clip_features(audio_path, feat_config, cache_dir)[0],
                        motion.frames, audio_path)
    if stats is not None:
        values = stats.apply(values)
    return TrainSample(x0, values, ssl_local.positions,
                       int(Genre.parse(entry.genre)))


def load_split(manifest: DatasetManifest, split: str, feat_config: FeatureConfig,
               cache_dir=None, stats: NormalizationStats | None = None
               ) -> list[TrainSample]:
    return [load_sample(manifest, e, feat_config, cache_dir, stats)
            for e in manifest.split_entries(split)]


def fit_feature_stats(cached) -> NormalizationStats:
    """Per-column mean/std over the first ``frames`` raw rows of the cache
    file of each (path, frames) of the training clips in ``cached``, exactly
    the rows that ``load_split`` reads from them. The fit reads the files in
    two passes that each hold one clip."""
    if not cached:
        raise DataError("training split is empty; cannot fit feature statistics")
    return NormalizationStats.fit(cached, read=lambda item: first_rows(
        load_feature_cache(item[0]).values, item[1], item[0]))
