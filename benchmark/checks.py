"""Correctness checks computed apart from the program.

File readers, the reference forward pass, the central-difference gradient,
the RMS oracle and the split arithmetic here are written from the documented
formats and the method's definitions, not by calling the package's own code
for the quantity under test. Every check raises :class:`CheckFailed` with a
one-line reason. None compares against a stored copy of earlier output.
"""

from __future__ import annotations

import base64
import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.special import erf

# per-ear feature layout: mfcc 20 | delta 20 | cq chroma 12 | stft chroma 12 |
# onset 1 | tempogram 1068 | beats 1 | rms 1 | active 1
PER_EAR = 1136
RMS_COL = 20 + 20 + 12 + 12 + 1 + 1068 + 1
F32_EPS = 2.0 ** -24          # unit roundoff of float32 round-to-nearest


class CheckFailed(Exception):
    """A property of the program's output does not hold."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# file readers written from the documented layouts


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """SNMCKPT1 file: magic, u32 version, u32 count, then named f64 arrays."""
    blob = Path(path).read_bytes()
    require(blob[:8] == b"SNMCKPT1", f"{path}: bad checkpoint magic")
    _, count = struct.unpack_from("<II", blob, 8)
    off, out = 16, {}
    for _ in range(count):
        (n,) = struct.unpack_from("<H", blob, off)
        name = blob[off + 2:off + 2 + n].decode()
        off += 2 + n
        ndim = blob[off]
        shape = struct.unpack_from(f"<{ndim}I", blob, off + 1)
        off += 1 + 4 * ndim
        size = math.prod(shape)
        out[name] = np.frombuffer(blob, "<f8", size, off).reshape(shape).copy()
        off += 8 * size
    require(off == len(blob), f"{path}: {len(blob) - off} trailing bytes")
    return out


def read_feature_cache(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SNMFEAT1 file: magic, u32 version/T/width, f32 rows, f32 mean, f32 std."""
    blob = Path(path).read_bytes()
    require(blob[:8] == b"SNMFEAT1", f"{path}: bad feature cache magic")
    _, t, width = struct.unpack_from("<III", blob, 8)
    values = np.frombuffer(blob, "<f4", t * width, 20).reshape(t, width)
    tail = 20 + 4 * t * width
    mean = np.frombuffer(blob, "<f4", width, tail)
    std = np.frombuffer(blob, "<f4", width, tail + 4 * width)
    require(len(blob) == tail + 8 * width, f"{path}: wrong cache length")
    return values, mean, std


def read_motion(path) -> dict:
    """Motion JSON: header plus base64 little-endian float64 p/r/v blocks."""
    doc = json.loads(Path(path).read_text())
    t = int(doc["frames"])
    out = {"fps": float(doc["fps"]), "frames": t}
    for key, width in (("p", 75), ("r", 150), ("v", 75)):
        raw = np.frombuffer(base64.b64decode(doc[key]), "<f8")
        require(raw.size == t * width,
                f"{path}: block {key} holds {raw.size} values, want {t * width}")
        out[key] = raw.reshape(t, width)
    return out


def read_wav_samples(path) -> tuple[int, np.ndarray]:
    rate, data = wavfile.read(path)
    return int(rate), np.asarray(data, dtype=np.float64)


# ---------------------------------------------------------------------------
# model-level checks


def _layer_norm(x, gain, bias, eps=1e-8):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _timestep_code(t: np.ndarray, dim: int) -> np.ndarray:
    """sin/cos code with frequencies 10000^(-k/(half-1)), k = 0..half-1."""
    half = dim // 2
    k = np.arange(half) / max(half - 1, 1)
    ang = t.astype(np.float64)[:, None] * 10000.0 ** (-k)[None, :]
    code = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    return np.pad(code, ((0, 0), (0, dim % 2)))


def reference_predict_x0(params: dict[str, np.ndarray], heads: int,
                         x: np.ndarray, t: np.ndarray, audio: np.ndarray,
                         ssl: np.ndarray, genre: np.ndarray) -> np.ndarray:
    """Plain-numpy forward of the fused-SSL denoiser from its parameters.

    Tokens are [timestep | genre | per-frame audio+ssl | motion] plus learned
    positions, then pre-norm encoder blocks (attention, exact-GELU MLP), a
    final norm on the motion tokens and the output head.
    """
    P = params

    def lin(name, z):
        return z @ P[name + ".w"] + P[name + ".b"]

    b, frames, _ = x.shape
    d = P["time_proj.w"].shape[0]
    t_tok = lin("time_proj", _timestep_code(t, d))[:, None, :]
    g_tok = P["genre_emb.table"][genre][:, None, :]
    c_tok = lin("cond_proj", np.concatenate([audio, ssl], axis=2))
    m_tok = lin("motion_proj", x)
    h = np.concatenate([t_tok, g_tok, c_tok, m_tok], axis=1)
    n = h.shape[1]
    h = h + P["pos_emb"][:n]
    dh = d // heads
    layer = 0
    while f"blocks.{layer}.ln1.gain" in P:
        pre = f"blocks.{layer}."
        z = _layer_norm(h, P[pre + "ln1.gain"], P[pre + "ln1.bias"])
        q, k, v = (lin(pre + f"attn.w{c}", z).reshape(b, n, heads, dh)
                   .transpose(0, 2, 1, 3) for c in "qkv")
        s = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
        s = np.exp(s - s.max(axis=-1, keepdims=True))
        ctx = (s / s.sum(axis=-1, keepdims=True)) @ v
        h = h + lin(pre + "attn.wo", ctx.transpose(0, 2, 1, 3).reshape(b, n, d))
        z = _layer_norm(h, P[pre + "ln2.gain"], P[pre + "ln2.bias"])
        u = lin(pre + "ff.w1", z)
        h = h + lin(pre + "ff.w2", 0.5 * u * (1.0 + erf(u / math.sqrt(2.0))))
        layer += 1
    out = _layer_norm(h[:, n - frames:], P["final_norm.gain"], P["final_norm.bias"])
    return lin("head", out)


def check_reference_forward(program_out: np.ndarray, reference: np.ndarray,
                            tol: float = 1e-9) -> float:
    err = float(np.max(np.abs(program_out - reference)))
    scale = max(1.0, float(np.max(np.abs(reference))))
    require(err <= tol * scale,
            f"predict_x0 differs from the reference forward by {err:.3e}")
    return err


def central_difference(f, arr: np.ndarray, index: tuple, step: float) -> float:
    orig = arr[index]
    arr[index] = orig + step
    hi = f()
    arr[index] = orig - step
    lo = f()
    arr[index] = orig
    return (hi - lo) / (2.0 * step)


def check_gradient(f, entries: list[tuple[np.ndarray, tuple, float]],
                   step: float = 1e-6, tol: float = 1e-4) -> float:
    """Central differences of scalar ``f`` against taped gradients.

    ``entries`` holds (parameter array, index, taped gradient) triples; the
    error is max |numeric - taped| over the entries divided by the largest
    numeric magnitude, the relative measure of the package's gradcheck.
    """
    numeric = np.array([central_difference(f, arr, idx, step)
                        for arr, idx, _ in entries])
    taped = np.array([g for _, _, g in entries])
    err = float(np.max(np.abs(numeric - taped))
                / max(float(np.max(np.abs(numeric))), 1e-8))
    require(err <= tol, f"taped gradient off by {err:.2e} relative (> {tol:g})")
    return err


# ---------------------------------------------------------------------------
# output-file checks


def check_loss_log(path) -> tuple[float, float]:
    """metrics.log: final epoch total is finite and below the first epoch's."""
    totals = []
    for line in Path(path).read_text().splitlines():
        fields = dict(kv.split("=", 1) for kv in line.split())
        totals.append(float(fields["total"]))
    require(len(totals) >= 2, f"{path}: fewer than two epochs logged")
    require(all(math.isfinite(v) for v in totals), f"{path}: non-finite loss")
    require(totals[-1] < totals[0],
            f"{path}: final loss {totals[-1]:.4g} not below first {totals[0]:.4g}")
    return totals[0], totals[-1]


def check_motion_file(path, frames: int) -> None:
    """Requested frame count, finite blocks, v = forward difference of p * fps
    with the last frame repeated."""
    m = read_motion(path)
    require(m["frames"] == frames, f"{path}: {m['frames']} frames, want {frames}")
    for key in ("p", "r", "v"):
        require(bool(np.all(np.isfinite(m[key]))), f"{path}: non-finite {key}")
    want = np.empty_like(m["p"])
    want[:-1] = (m["p"][1:] - m["p"][:-1]) * m["fps"]
    want[-1] = want[-2]
    err = float(np.max(np.abs(m["v"] - want)))
    require(err <= 1e-9 * max(1.0, float(np.max(np.abs(want)))),
            f"{path}: velocities differ from position differences by {err:.3e}")


def check_report(path) -> dict:
    doc = json.loads(Path(path).read_text())
    tops = [doc["top1"], doc["top2"], doc["top3"]]
    require(all(0.0 <= v <= 1.0 for v in tops), f"{path}: top-k outside [0, 1]")
    require(tops[0] <= tops[1] <= tops[2], f"{path}: top1 <= top2 <= top3 fails")
    require(doc["fid"] >= 0.0, f"{path}: negative FID")
    require(doc["diversity"] > 0.0, f"{path}: diversity not positive")
    return doc


def check_media_lengths(data_dir, duration: float, sample_rate: int,
                        fps: int) -> int:
    """Every WAV has duration*rate samples and every motion duration*fps frames."""
    data_dir = Path(data_dir)
    wavs = sorted((data_dir / "audio").glob("*.wav"))
    motions = sorted((data_dir / "motion").glob("*.json"))
    require(len(wavs) == len(motions) > 0, f"{data_dir}: unpaired media files")
    for w in wavs:
        rate, data = read_wav_samples(w)
        require(rate == sample_rate and data.shape == (round(duration * rate), 2),
                f"{w}: {data.shape} at {rate} Hz, want {duration} s stereo")
    for mpath in motions:
        m = read_motion(mpath)
        require(m["frames"] == round(duration * fps),
                f"{mpath}: {m['frames']} frames, want {round(duration * fps)}")
    return len(wavs)


def hop_rms(x: np.ndarray, hop: int) -> np.ndarray:
    """RMS of each non-overlapping hop window, the last one zero-padded."""
    n = -(-x.size // hop)
    out = np.empty(n)
    for k in range(n):
        seg = x[k * hop:(k + 1) * hop]
        out[k] = math.sqrt(float(np.dot(seg, seg)) / hop)
    return out


def check_rms_columns(wav_path, features: np.ndarray, hop: int,
                      threshold: float = 0.01) -> None:
    """The RMS and active columns of both ears equal a per-hop RMS of the WAV."""
    _, data = read_wav_samples(wav_path)
    frames = features.shape[0]
    for ear in (0, 1):
        want = hop_rms(data[:, ear], hop)[:frames]
        got = features[:len(want), ear * PER_EAR + RMS_COL].astype(np.float64)
        err = np.abs(got - want)
        require(bool(np.all(err <= 4 * F32_EPS * np.abs(want) + 1e-12)),
                f"{wav_path}: ear {ear} RMS off by {err.max():.3e}")
        active = features[:len(want), ear * PER_EAR + RMS_COL + 1]
        decided = np.abs(want - threshold) > 1e-6
        require(bool(np.all((active[decided] == 1.0)
                            == (want[decided] > threshold))),
                f"{wav_path}: ear {ear} active flag disagrees with RMS")


def largest_remainder(n: int, shares=(Fraction(8, 10), Fraction(1, 10),
                                      Fraction(1, 10))) -> list[int]:
    """Floor of each exact share, remainder to the largest fractions first
    (earlier split first on a tie)."""
    ideal = [s * n for s in shares]
    counts = [math.floor(v) for v in ideal]
    order = sorted(range(len(shares)), key=lambda k: (-(ideal[k] - counts[k]), k))
    for k in order[:n - sum(counts)]:
        counts[k] += 1
    return counts


def check_split_counts(manifest_path) -> list[int]:
    doc = json.loads(Path(manifest_path).read_text())
    splits = [e["split"] for e in doc["entries"]]
    got = [splits.count(s) for s in ("train", "val", "test")]
    want = largest_remainder(len(splits))
    require(got == want, f"{manifest_path}: split counts {got}, want {want}")
    return got


def check_cache_hit(cached: np.ndarray, fresh: np.ndarray) -> None:
    """A cached row equals a fresh extraction to float32 rounding."""
    require(cached.shape == fresh.shape,
            f"cache holds {cached.shape}, fresh extraction {fresh.shape}")
    err = np.abs(cached.astype(np.float64) - fresh)
    bound = F32_EPS * np.abs(fresh) + 1e-37
    require(bool(np.all(err <= bound)),
            f"cache hit differs from a fresh extraction by {err.max():.3e}")


def check_zscore(values: np.ndarray, fitted_mean: np.ndarray,
                 fitted_std: np.ndarray, floor: float = 1e-8) -> int:
    """z-scored train features: mean ~ 0 and std ~ 1 on every column whose
    fitted std was not floored to 1. Returns the number of columns checked.

    The tolerance allows for the cache's float32 rounding of raw values,
    which perturbs a column's z-scores by up to eps32 * |raw| / std.
    """
    raw_over_std = np.abs(values + fitted_mean / fitted_std).max(axis=0)
    live = fitted_std != 1.0
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    slack = 1e-6 + 4 * F32_EPS * raw_over_std
    bad = live & ((np.abs(mean) > slack) | (np.abs(std - 1.0) > slack))
    require(not bad.any(), f"{int(bad.sum())} z-scored columns are off, e.g. "
                           f"column {int(np.argmax(bad))}: mean "
                           f"{mean[np.argmax(bad)]:.3e}, std {std[np.argmax(bad)]:.6f}")
    require(bool(np.all(fitted_std > floor)), "fitted std below the floor")
    return int(live.sum())
