"""Binaural DSP front-end producing the per-frame conditioning features.

Per ear the feature layout is
    MFCC 20 | MFCC delta 20 | CQ chroma 12 | STFT chroma 12 |
    onset strength 1 | tempogram 1068 | beats 1 | RMS 1 | active 1
for 1136 columns; left and right ears concatenate to 2272. Frames align
one-to-one with motion frames: hop = sample_rate / motion_fps.

Framing: spectral feature frame k covers samples [k*hop, k*hop + fft_size)
(zero-padded past the end); RMS/active use the non-overlapping hop window
[k*hop, (k+1)*hop) per their contract.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import struct
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.fft import dct
from scipy.io import wavfile

from .checkpoint import write_atomically
from .errors import ConfigError, ContractError, DataError, DurationError, ShapeError

MFCC_COUNT = 20
CHROMA_BINS = 12
TEMPOGRAM_BINS = 1068
PER_EAR_WIDTH = 2 * MFCC_COUNT + 2 * CHROMA_BINS + 1 + TEMPOGRAM_BINS + 1 + 1 + 1
FEATURE_WIDTH = 2 * PER_EAR_WIDTH

FEATURE_BLOCKS = [
    ("mfcc", MFCC_COUNT),
    ("mfcc_delta", MFCC_COUNT),
    ("cq_chroma", CHROMA_BINS),
    ("stft_chroma", CHROMA_BINS),
    ("onset", 1),
    ("tempogram", TEMPOGRAM_BINS),
    ("beats", 1),
    ("rms", 1),
    ("active", 1),
]
assert sum(w for _, w in FEATURE_BLOCKS) == PER_EAR_WIDTH == 1136


@dataclass
class AudioClip:
    """Two-channel audio in [-1, 1] floats."""

    sample_rate: int
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        self.left = np.asarray(self.left, dtype=np.float64).reshape(-1)
        self.right = np.asarray(self.right, dtype=np.float64).reshape(-1)
        if self.sample_rate <= 0:
            raise ContractError("sample_rate must be positive")
        if self.left.shape != self.right.shape:
            raise ShapeError("left/right channel lengths differ")

    @property
    def samples(self) -> int:
        return self.left.shape[0]

    @property
    def duration(self) -> float:
        return self.samples / self.sample_rate


@dataclass
class FeatureConfig:
    sample_rate: int = 24000
    motion_fps: int = 30
    fft_size: int = 1024
    mel_bands: int = 128
    mfcc_count: int = MFCC_COUNT
    chroma_bins: int = CHROMA_BINS
    tempogram_bins: int = TEMPOGRAM_BINS
    rms_threshold: float = 0.01
    tuning_hz: float = 440.0
    normalize: bool = True

    def __post_init__(self):
        if min(self.sample_rate, self.motion_fps, self.mel_bands) < 1:
            raise ConfigError("sample_rate, motion_fps and mel_bands must be >= 1")
        if self.fft_size <= 0 or self.fft_size & (self.fft_size - 1):
            raise ConfigError(f"fft_size must be a power of two, got {self.fft_size}")
        if self.sample_rate % self.motion_fps:
            raise ConfigError(
                f"sample_rate {self.sample_rate} not divisible by motion_fps "
                f"{self.motion_fps}; hop length must be an integer")
        if (self.mfcc_count, self.chroma_bins, self.tempogram_bins) != (
                MFCC_COUNT, CHROMA_BINS, TEMPOGRAM_BINS):
            raise ConfigError("feature block widths are fixed by the layout")

    @property
    def hop_length(self) -> int:
        return self.sample_rate // self.motion_fps

    def content_key(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class AudioFeatureMatrix:
    """(T, 2272) conditioning features, left-ear block then right-ear block."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != FEATURE_WIDTH:
            raise ShapeError(
                f"feature matrix must be (T, {FEATURE_WIDTH}), got {self.values.shape}")

    @property
    def frames(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# framing and spectra


def hann_window(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_count(samples: int, hop: int) -> int:
    return int(np.ceil(samples / hop))


def frame_signal(x: np.ndarray, fft_size: int, hop: int) -> np.ndarray:
    """(n_frames, fft_size) frames starting at k*hop, zero-padded at the end:
    a read-only strided view of one padded copy of ``x``."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    n = frame_count(x.size, hop)
    if n == 0:
        return np.zeros((0, fft_size))
    padded = np.zeros(max((n - 1) * hop + fft_size, x.size))
    padded[:x.size] = x
    return np.lib.stride_tricks.sliding_window_view(padded, fft_size)[::hop][:n]


def stft(x: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Complex (n_frames, fft/2 + 1) spectrogram with a Hann window."""
    frames = frame_signal(x, config.fft_size, config.hop_length)
    if frames.shape[0] == 0:
        return np.zeros((0, config.fft_size // 2 + 1), dtype=np.complex128)
    return np.fft.rfft(frames * hann_window(config.fft_size), axis=1)


# ---------------------------------------------------------------------------
# mel / MFCC


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def _mel_filterbank(sample_rate: int, fft_size: int, mel_bands: int) -> np.ndarray:
    """Triangular filters (mel_bands, fft/2+1) spanning 0 .. sample_rate/2;
    built once per (sample_rate, fft_size, mel_bands) and shared read-only."""
    freqs = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    edges = _mel_to_hz(np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2),
                                   mel_bands + 2))
    bank = np.zeros((mel_bands, freqs.size))
    for m in range(mel_bands):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        rise = (freqs - lo) / max(mid - lo, 1e-12)
        fall = (hi - freqs) / max(hi - mid, 1e-12)
        bank[m] = np.clip(np.minimum(rise, fall), 0.0, None)
    bank.flags.writeable = False
    return bank


@functools.lru_cache(maxsize=8)
def _mel_filterbank_csr(sample_rate: int, fft_size: int, mel_bands: int):
    return sparse.csr_matrix(_mel_filterbank(sample_rate, fft_size, mel_bands))


def log_mel_spectrogram(power: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """(T, mel_bands) log mel power of an STFT's (T, bins) power. The
    filterbank (1.5 % dense) is applied as a sparse product, whose sums run in
    one order under any BLAS thread count, as a dense product's do not."""
    bank = _mel_filterbank_csr(config.sample_rate, config.fft_size, config.mel_bands)
    mel = np.ascontiguousarray((bank @ power.T).T)
    return np.log(np.maximum(mel, 1e-10))


def _delta(coeffs: np.ndarray) -> np.ndarray:
    """Centered regression slope over 9 frames (edge-replicated)."""
    t = coeffs.shape[0]
    if t == 0:
        return coeffs.copy()
    offsets = np.arange(-4, 5)
    denom = float(np.sum(offsets ** 2))
    padded = np.pad(coeffs, ((4, 4), (0, 0)), mode="edge")
    out = np.zeros_like(coeffs)
    for k, n in enumerate(offsets):
        out += n * padded[k:k + t]
    return out / denom


def mfcc_with_delta(spec: np.ndarray, config: FeatureConfig,
                    logmel: np.ndarray | None = None) -> np.ndarray:
    """(T, 40): 20 cepstral coefficients and their 9-point regression deltas.
    ``logmel`` is the log-mel spectrogram of ``spec`` if the caller has it."""
    if logmel is None:
        logmel = log_mel_spectrogram(np.abs(spec) ** 2, config)
    cep = dct(logmel, type=2, norm="ortho", axis=1)[:, :config.mfcc_count]
    return np.concatenate([cep, _delta(cep)], axis=1)


# ---------------------------------------------------------------------------
# chroma


def _l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return np.where(norms > 0, x / np.maximum(norms, 1e-300), 0.0)


def _pitch_classes(freqs: np.ndarray, tuning_hz: float) -> np.ndarray:
    """Pitch class per frequency, class 0 = C (A4 = class 9)."""
    semis = 12.0 * np.log2(freqs / tuning_hz) + 69.0   # MIDI note numbers
    return np.mod(np.round(semis), 12).astype(np.int64)


@functools.lru_cache(maxsize=8)
def _bin_pitch_classes(sample_rate: int, fft_size: int, tuning_hz: float) -> np.ndarray:
    """Pitch class of each STFT bin's own frequency, -1 at or below 25 Hz;
    built once per (sample_rate, fft_size, tuning_hz) and shared read-only."""
    freqs = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    classes = np.full(freqs.size, -1, dtype=np.int8)
    classes[freqs > 25.0] = _pitch_classes(freqs[freqs > 25.0], tuning_hz)
    classes.flags.writeable = False
    return classes


def stft_chroma(power: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Fold an STFT's (T, bins) power into 12 pitch classes; rows
    L2-normalized.

    Bins inside a spectral peak's main lobe are folded at the peak's
    parabolically interpolated frequency, so window leakage stays in the
    class of the underlying partial.
    """
    if power.shape[0] == 0:
        return np.zeros((0, CHROMA_BINS))
    t, nbins = power.shape

    left, inner, right = power[:, :-2], power[:, 1:-1], power[:, 2:]
    rows, cols = np.nonzero((inner > left) & (inner >= right) & (inner > 1e-14))
    lo, mid, hi = left[rows, cols], inner[rows, cols], right[rows, cols]
    denom = lo - 2.0 * mid + hi
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(np.abs(denom) > 1e-14, 0.5 * (lo - hi) / denom, 0.0)
    cols += 1                                  # peak bins
    peak_hz = (cols + np.clip(delta, -0.5, 0.5)) * (config.sample_rate / config.fft_size)
    peak_class = np.full(cols.size, -1, dtype=np.int8)   # -1: no class
    valid = peak_hz > 25.0
    peak_class[valid] = _pitch_classes(peak_hz[valid], config.tuning_hz)

    # a bin keeps its own frequency's class unless a peak within two bins
    # reassigns it; of two such peaks the one further left wins
    classes = np.broadcast_to(
        _bin_pitch_classes(config.sample_rate, config.fft_size, config.tuning_hz),
        (t, nbins)).copy()
    for shift in (-2, -1, 0, 1, 2):
        dst = cols + shift
        keep = (dst >= 0) & (dst < nbins)
        classes[rows[keep], dst[keep]] = peak_class[keep]
    chroma = np.zeros((t, CHROMA_BINS))
    for c in range(CHROMA_BINS):
        chroma[:, c] = np.where(classes == c, power, 0.0).sum(axis=1)
    return _l2_normalize_rows(chroma)


@functools.lru_cache(maxsize=8)
def _cq_filters(sample_rate: int, fft_size: int, tuning_hz: float) -> np.ndarray:
    """(n_semitones, fft/2+1) Gaussian semitone filters, C2 (midi 36) up to
    just below Nyquist; built once per (sample_rate, fft_size, tuning_hz)
    and shared read-only."""
    freqs = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    midi_hi = int(np.floor(69 + 12 * np.log2((sample_rate / 2.0) / tuning_hz))) - 1
    logf = np.zeros(freqs.size)
    pos = freqs > 0
    logf[pos] = 69.0 + 12.0 * np.log2(freqs[pos] / tuning_hz)
    sigma = 0.3   # semitones; narrow enough that window leakage stays in-class
    bank = np.exp(-0.5 * ((logf - np.arange(36, midi_hi + 1)[:, None]) / sigma) ** 2)
    bank[:, ~pos] = 0.0
    bank.flags.writeable = False
    return bank


def cq_chroma(power: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Constant-Q-style chroma: Gaussian log-frequency filterbank over an
    STFT's (T, bins) power (one filter per semitone, constant width in log
    frequency), folded into 12 classes."""
    chroma = np.zeros((power.shape[0], CHROMA_BINS))
    for midi, weight in enumerate(
            _cq_filters(config.sample_rate, config.fft_size, config.tuning_hz), 36):
        chroma[:, midi % 12] += power @ weight
    return _l2_normalize_rows(chroma)


# ---------------------------------------------------------------------------
# rhythm


def onset_strength(logmel: np.ndarray) -> np.ndarray:
    """Half-wave-rectified mel spectral flux, one value per frame."""
    flux = np.zeros(logmel.shape[0])
    if logmel.shape[0] > 1:
        d = logmel[1:] - logmel[:-1]
        flux[1:] = np.maximum(d, 0.0).mean(axis=1)
    return flux


def tempogram(onset: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Per-frame local autocorrelation of onset strength.

    Each frame autocorrelates a window of ``tempogram_bins`` onset frames
    centered on it (zero-padded at the edges), yielding one column per lag
    0 .. tempogram_bins-1.

    Frames whose windows cover the same span of onset frames share one
    autocorrelation: linear autocorrelation is shift-invariant, so each
    distinct span is transformed once, at the first frame that covers it,
    and every frame of the group gets that row bit for bit. A clip of at
    most ``tempogram_bins - tempogram_bins // 2`` frames (534) has one span,
    so all its rows are equal; a clip of at least ``tempogram_bins`` frames
    has no shared span and one transform per frame.
    """
    t = onset.shape[0]
    win = config.tempogram_bins
    if t == 0:
        return np.zeros((0, win))
    half = win // 2
    padded = np.pad(onset, (half, win - half))
    windows = np.lib.stride_tricks.sliding_window_view(padded, win)[:t]
    start = np.arange(t) - half
    cover = np.stack([np.maximum(start, 0), np.minimum(start + win, t)], axis=1)
    _, first, inv = np.unique(cover, axis=0, return_index=True, return_inverse=True)
    return _autocorrelation(windows[first], win)[inv.reshape(-1)]


def _autocorrelation(x: np.ndarray, lags: int) -> np.ndarray:
    """Linear autocorrelation of the rows of ``x`` (at most ``lags`` long) at
    lags 0 .. lags-1, through one zero-padded FFT of a power-of-two length
    of at least 2 * lags."""
    n = 1 << (2 * lags - 1).bit_length()
    spec = np.abs(np.fft.rfft(x, n=n, axis=-1)) ** 2
    return np.fft.irfft(spec, n=n, axis=-1)[..., :lags]


def _dominant_lag(onset: np.ndarray) -> int:
    """Lag (frames) of the strongest global onset periodicity, or 0."""
    if onset.size < 4 or not np.any(onset > 0):
        return 0
    ac = _autocorrelation(onset, onset.size)
    if ac.size <= 2:
        return 0
    lag = int(np.argmax(ac[2:]) + 2)
    return lag if ac[lag] > 0 else 0


def beat_track(onset: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """One-hot beat frames from peak-picking a smoothed onset curve."""
    t = onset.shape[0]
    beats = np.zeros(t)
    if t < 3 or not np.any(onset > 0):
        return beats
    kernel = np.ones(5) / 5.0
    smooth = np.convolve(onset, kernel, mode="same")
    threshold = 0.1 * smooth.max()
    lag = _dominant_lag(onset)
    min_sep = max(2, lag // 2)
    last = -min_sep
    for i in range(1, t - 1):
        if (smooth[i] > threshold and smooth[i] >= smooth[i - 1]
                and smooth[i] > smooth[i + 1] and i - last >= min_sep):
            beats[i] = 1.0
            last = i
    return beats


def rhythm_features(spec: np.ndarray, config: FeatureConfig,
                    logmel: np.ndarray | None = None) -> np.ndarray:
    """(T, 1070) from an STFT: onset strength | tempogram lags | one-hot beats.
    ``logmel`` is the log-mel spectrogram of ``spec`` if the caller has it."""
    if logmel is None:
        logmel = log_mel_spectrogram(np.abs(spec) ** 2, config)
    onset = onset_strength(logmel)
    tg = tempogram(onset, config)
    beats = beat_track(onset, config)
    return np.concatenate([onset[:, None], tg, beats[:, None]], axis=1)


# ---------------------------------------------------------------------------
# energy


def energy_features(x: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """(T, 2): RMS over each hop window and the active flag (RMS > threshold)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    hop = config.hop_length
    n = frame_count(x.size, hop)
    padded = np.zeros(n * hop)
    padded[:x.size] = x
    frames = padded.reshape(n, hop)
    rms = np.sqrt(np.mean(frames * frames, axis=1))
    active = (rms > config.rms_threshold).astype(np.float64)
    return np.stack([rms, active], axis=1)


# ---------------------------------------------------------------------------
# full extraction


def extract_ear(x: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """(T, 1136) feature block for one channel, all from one STFT, its power
    and one log-mel spectrogram."""
    spec = stft(x, config)
    power = np.abs(spec) ** 2
    logmel = log_mel_spectrogram(power, config)
    parts = [
        mfcc_with_delta(spec, config, logmel),
        cq_chroma(power, config),
        stft_chroma(power, config),
        rhythm_features(spec, config, logmel),
        energy_features(x, config),
    ]
    out = np.concatenate(parts, axis=1)
    if out.shape[1] != PER_EAR_WIDTH:
        raise ShapeError(f"per-ear width {out.shape[1]} != {PER_EAR_WIDTH}")
    if not np.all(np.isfinite(out)):
        raise ContractError("non-finite audio features")
    return out


def extract_binaural(clip: AudioClip, config: FeatureConfig,
                     t_target: int) -> AudioFeatureMatrix:
    """Raw (T_target, 2272) features of only the audio the T_target motion
    frames span."""
    covered = t_target * clip.sample_rate // config.motion_fps
    left, right = clip.left[:covered], clip.right[:covered]
    if clip.sample_rate != config.sample_rate:
        left = resample_channel(left, clip.sample_rate, config.sample_rate)
        right = resample_channel(right, clip.sample_rate, config.sample_rate)
    n = frame_count(left.size, config.hop_length)
    if n < t_target - 1:
        raise DurationError(
            f"clip provides {n} feature frames but {t_target} motion frames "
            f"are required")
    feats = np.concatenate([extract_ear(left, config), extract_ear(right, config)],
                           axis=1)
    if feats.shape[0] < t_target:   # at most one frame short: replicate the edge
        pad = np.repeat(feats[-1:], t_target - feats.shape[0], axis=0)
        feats = np.concatenate([feats, pad], axis=0)
    return AudioFeatureMatrix(feats[:t_target])


def resample_channel(x: np.ndarray, sr_in: int, sr_out: int) -> np.ndarray:
    if sr_in == sr_out:
        return x
    # imported here: scipy.signal adds ~45 MB of RSS that on-rate clips never use
    from scipy.signal import resample_poly
    g = np.gcd(int(sr_in), int(sr_out))
    return resample_poly(x, sr_out // g, sr_in // g)


# ---------------------------------------------------------------------------
# normalization statistics


def _as_rows(f) -> np.ndarray:
    return np.asarray(getattr(f, "values", f), dtype=np.float64)


def _column_sums(blocks) -> tuple[np.ndarray | None, int]:
    """Column sums over the rows of every block, and the row count. The rows
    are added to one accumulator in order, as numpy's axis-0 reduction of
    the stacked rows adds them, and one block is held at a time."""
    acc, n = None, 0
    for x in blocks:
        n += x.shape[0]
        if acc is not None:
            x = np.concatenate([acc[None], x])
        acc = np.add.reduce(x, axis=0)
        del x                       # freed before the next block is made
    return acc, n


@dataclass
class NormalizationStats:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        self.std = np.asarray(self.std, dtype=np.float64).reshape(-1)
        if self.mean.shape != (FEATURE_WIDTH,) or self.std.shape != (FEATURE_WIDTH,):
            raise ShapeError("normalization stats must have width 2272")

    @classmethod
    def fit(cls, items, read=lambda item: item) -> "NormalizationStats":
        """Column mean and std over the rows of the feature matrix
        ``read(item)`` of every item, in two passes that each hold one matrix
        at a time: ``items`` is iterated twice, so it must be a list or
        another re-iterable object. The result is bit-identical to
        ``np.concatenate(...).mean(0)`` and ``.std(0)``.
        """
        def rows(item):
            return _as_rows(read(item))

        total, n = _column_sums(map(rows, items))
        if n == 0:
            raise ShapeError("no feature rows to fit normalization stats on")
        mean = total / n

        def squared_deviations(item):
            d = rows(item) - mean
            d *= d
            return d

        squares, _ = _column_sums(map(squared_deviations, items))
        std = np.sqrt(squares / n)
        std[std < 1e-8] = 1.0
        return cls(mean, std)

    def apply(self, feats: np.ndarray) -> np.ndarray:
        out = feats - self.mean
        out /= self.std
        return out

    def save(self, path) -> None:
        write_atomically(path, lambda f: np.savez(f, mean=self.mean, std=self.std))

    @classmethod
    def load(cls, path) -> "NormalizationStats":
        """A damaged file, a missing key or a wrong width raises DataError."""
        try:
            with np.load(path) as z:
                return cls(z["mean"], z["std"])
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile,
                ShapeError) as e:
            raise DataError(f"normalization stats {path} are unreadable: {e}") from e


# ---------------------------------------------------------------------------
# WAV I/O (RIFF PCM 16/24-bit and 32-bit float)


def read_wav(path, blob: bytes | None = None) -> AudioClip:
    """The clip in the WAV file ``path``. Given ``blob``, the file's bytes
    already read, it parses those and ``path`` only names the file."""
    try:
        rate, data = wavfile.read(path if blob is None else io.BytesIO(blob))
    except (OSError, ValueError) as e:
        raise DataError(f"cannot read WAV {path}: {e}") from e
    if data.ndim == 1:
        raise DataError(f"{path}: expected 2 channels, found mono")
    if data.shape[1] != 2:
        raise DataError(f"{path}: expected 2 channels, found {data.shape[1]}")
    if data.dtype == np.int16:
        scaled = data / 32768.0
    elif data.dtype == np.int32:
        scaled = data / 2147483648.0   # includes 24-bit PCM promoted to int32
    elif data.dtype in (np.float32, np.float64):
        scaled = data.astype(np.float64)
    elif data.dtype == np.uint8:
        scaled = (data.astype(np.float64) - 128.0) / 128.0
    else:
        raise DataError(f"{path}: unsupported WAV dtype {data.dtype}")
    return AudioClip(int(rate), scaled[:, 0], scaled[:, 1])


def write_wav(path, clip: AudioClip) -> None:
    """Write ``clip`` as a 2-channel float32 WAV."""
    data = np.stack([clip.left, clip.right], axis=1).astype(np.float32)
    write_atomically(path, lambda f: wavfile.write(f, clip.sample_rate, data))


# ---------------------------------------------------------------------------
# feature cache

CACHE_MAGIC = b"SNMFEAT1"
# Bumped whenever the features, and so the `.feat` bytes, of the same WAV and
# config change: a cache file written by an older version is then never found.
FEATURE_VERSION = 2


def feature_cache_key(audio_bytes: bytes, config: FeatureConfig) -> str:
    """The cache file name of the WAV bytes ``audio_bytes``: a hash of them,
    of ``config`` and of ``FEATURE_VERSION``."""
    h = hashlib.sha256()
    h.update(b"v%d\0" % FEATURE_VERSION)
    h.update(audio_bytes)
    h.update(config.content_key().encode())
    return h.hexdigest()[:32]


def save_feature_cache(path, feats: AudioFeatureMatrix) -> None:
    """Binary cache: magic, version, T, width, float32 rows, then an identity
    mean/std tail that the format keeps but nothing reads. The file appears
    whole or not at all: it is written beside its final name and renamed."""
    values = np.asarray(feats.values, dtype="<f4")

    def write(f):
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<III", 1, values.shape[0], values.shape[1]))
        f.write(values.tobytes())
        f.write(np.zeros(FEATURE_WIDTH, dtype="<f4").tobytes())   # mean
        f.write(np.ones(FEATURE_WIDTH, dtype="<f4").tobytes())    # std

    write_atomically(path, write)


def load_feature_cache(path) -> AudioFeatureMatrix:
    """The (T, 2272) rows of a cache file; a damaged file raises DataError."""
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read feature cache {path}: {e}") from e
    if len(blob) < 20 or blob[:8] != CACHE_MAGIC:
        raise DataError(f"{path} is not a feature cache file")
    version, t, width = struct.unpack_from("<III", blob, 8)
    if version != 1 or width != FEATURE_WIDTH:
        raise DataError(f"feature cache {path}: unsupported version {version} "
                        f"or width {width}")
    expected = 20 + 4 * t * width + 8 * width
    if len(blob) != expected:
        raise DataError(f"feature cache {path} is damaged ({len(blob)} bytes, "
                        f"{expected} expected); delete it to rebuild")
    values = np.frombuffer(blob, dtype="<f4", count=t * width, offset=20)
    return AudioFeatureMatrix(values.reshape(t, width))
