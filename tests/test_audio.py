"""DSP front-end against naive direct-DFT references and closed forms."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from sonomotion import audio as au
from sonomotion.errors import ConfigError, DataError, DurationError

CFG = au.FeatureConfig()
SR = CFG.sample_rate
# first column of each feature block within one ear's 1136 columns
START = dict(zip([name for name, _ in au.FEATURE_BLOCKS],
                 np.cumsum([0] + [width for _, width in au.FEATURE_BLOCKS])))


def sine(freq, duration=1.0, amp=0.5, sr=SR):
    t = np.arange(int(duration * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


def power(spec):
    """An STFT's power, the input of the chroma blocks."""
    return np.abs(spec) ** 2


def naive_dft_frame(frame):
    """Direct O(n^2) DFT of one windowed frame (the reference oracle)."""
    n = frame.size
    k = np.arange(n // 2 + 1)
    ang = -2j * np.pi * np.outer(k, np.arange(n)) / n
    return np.exp(ang) @ frame


class TestStft:
    def test_matches_naive_dft(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, SR)   # 1 s fixture
        spec = au.stft(x, CFG)
        frames = au.frame_signal(x, CFG.fft_size, CFG.hop_length)
        win = au.hann_window(CFG.fft_size)
        for k in (0, 7, 29):
            ref = naive_dft_frame(frames[k] * win)
            assert np.abs(spec[k] - ref).max() < 1e-6

    def test_sine_energy_concentrated_at_bin(self):
        bin_idx = 64
        freq = bin_idx * SR / CFG.fft_size
        spec = au.stft(sine(freq), CFG)
        power = np.abs(spec[5]) ** 2
        assert power[bin_idx - 2:bin_idx + 3].sum() / power.sum() > 0.95

    def test_zero_signal_zero_magnitudes(self):
        spec = au.stft(np.zeros(SR), CFG)
        assert spec.shape[0] == 30
        assert np.abs(spec).max() == 0.0

    def test_empty_signal_empty_matrix(self):
        spec = au.stft(np.zeros(0), CFG)
        assert spec.shape == (0, CFG.fft_size // 2 + 1)

    def test_parseval(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, SR)
        frames = au.frame_signal(x, CFG.fft_size, CFG.hop_length)
        win = au.hann_window(CFG.fft_size)
        spec = au.stft(x, CFG)
        k = 11
        windowed = frames[k] * win
        time_energy = np.sum(windowed ** 2)
        mag2 = np.abs(spec[k]) ** 2
        # rfft halves: double all bins except DC and (even n) Nyquist
        spec_energy = (2 * mag2.sum() - mag2[0] - mag2[-1]) / CFG.fft_size
        assert abs(time_energy - spec_energy) / time_energy < 1e-6

    def test_framing_deterministic(self):
        n = int(1.37 * SR)
        x = np.zeros(n)
        assert au.frame_count(n, CFG.hop_length) == int(np.ceil(n / CFG.hop_length))
        frames = au.frame_signal(x, CFG.fft_size, CFG.hop_length)
        assert frames.shape == (au.frame_count(n, CFG.hop_length), CFG.fft_size)


class TestMfcc:
    def test_silence_constant_coeffs_zero_deltas(self):
        spec = au.stft(np.zeros(SR), CFG)
        out = au.mfcc_with_delta(spec, CFG)
        assert out.shape == (30, 40)
        assert np.abs(out[:, :20] - out[0, :20]).max() < 1e-12
        assert np.abs(out[:, 20:]).max() < 1e-12

    def test_width_is_40(self):
        out = au.mfcc_with_delta(au.stft(sine(500), CFG), CFG)
        assert out.shape[1] == 40

    def test_delta_of_linear_ramp_is_slope(self):
        t = 40
        slope = 0.37
        coeffs = np.arange(t)[:, None] * slope * np.ones((1, 20))
        delta = au._delta(coeffs)
        interior = delta[4:-4]
        np.testing.assert_allclose(interior, slope, atol=1e-12)

    def test_mel_filterbank_spans_spectrum(self):
        bank = au._mel_filterbank(SR, CFG.fft_size, CFG.mel_bands)
        assert bank.shape == (CFG.mel_bands, CFG.fft_size // 2 + 1)
        coverage = bank.sum(axis=0)
        assert (coverage[1:-1] > 0).all()

    def test_mel_filterbank_built_once_per_shape(self):
        bank = au._mel_filterbank(SR, CFG.fft_size, CFG.mel_bands)
        assert au._mel_filterbank(SR, CFG.fft_size, CFG.mel_bands) is bank
        assert not bank.flags.writeable
        assert au._mel_filterbank(SR, CFG.fft_size, 64).shape[0] == 64


class TestChroma:
    @pytest.mark.parametrize("variant", [au.stft_chroma, au.cq_chroma])
    def test_a4_dominates(self, variant):
        ch = variant(power(au.stft(sine(440.0), CFG)), CFG)
        mid = ch[10]
        assert np.argmax(mid) == 9          # pitch class A
        assert mid[9] > 0.9

    @pytest.mark.parametrize("variant", [au.stft_chroma, au.cq_chroma])
    def test_octave_equivalence(self, variant):
        up = variant(power(au.stft(sine(880.0), CFG)), CFG)
        assert np.argmax(up[10]) == 9

    @pytest.mark.parametrize("variant", [au.stft_chroma, au.cq_chroma])
    def test_silence_zero_frames(self, variant):
        ch = variant(power(au.stft(np.zeros(SR), CFG)), CFG)
        assert not ch.any()

    def test_rows_l2_normalized(self):
        ch = au.stft_chroma(power(au.stft(sine(330.0) + sine(550.0), CFG)), CFG)
        norms = np.linalg.norm(ch, axis=1)
        np.testing.assert_allclose(norms[norms > 0], 1.0, atol=1e-9)

    def test_stft_chroma_matches_reference(self):
        """Classing only the peaks, with a per-config table for the other
        bins, leaves the chroma bit-identical to classing every bin from
        the frequency it is folded at."""
        rng = np.random.default_rng(3)
        specs = [rng.standard_normal((40, 513)) + 1j * rng.standard_normal((40, 513)),
                 rng.standard_normal((40, 513)) ** 5,
                 au.stft(sine(440.0) + sine(97.0, amp=0.1), CFG),
                 au.stft(click_train(2, duration=1.0) + rng.uniform(-.1, .1, SR), CFG)]
        for spec in specs:
            np.testing.assert_array_equal(au.stft_chroma(power(spec), CFG),
                                          reference_stft_chroma(spec, CFG))
        tuned = au.FeatureConfig(tuning_hz=431.5, fft_size=2048)
        spec = au.stft(rng.uniform(-.5, .5, SR), tuned)
        np.testing.assert_array_equal(au.stft_chroma(power(spec), tuned),
                                      reference_stft_chroma(spec, tuned))

    def test_extract_ear_chroma_blocks(self):
        x = sine(440.0)
        out = au.extract_ear(x, CFG)
        spec = au.stft(x, CFG)
        cq = slice(START["cq_chroma"], START["stft_chroma"])
        st = slice(START["stft_chroma"], START["onset"])
        assert out[:, cq].shape == out[:, st].shape == (30, 12)
        np.testing.assert_array_equal(out[:, cq], au.cq_chroma(power(spec), CFG))
        np.testing.assert_array_equal(out[:, st], au.stft_chroma(power(spec), CFG))


def reference_stft_chroma(spec, cfg):
    """``stft_chroma`` with every bin's pitch class computed from the
    frequency it is folded at (its own, or its peak's)."""
    power = np.abs(spec) ** 2
    t, nbins = power.shape
    inner = power[:, 1:-1]
    peak = np.zeros_like(power, dtype=bool)
    peak[:, 1:-1] = (inner > power[:, :-2]) & (inner >= power[:, 2:]) & (inner > 1e-14)
    denom = power[:, :-2] - 2.0 * inner + power[:, 2:]
    delta = np.zeros_like(power)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta[:, 1:-1] = np.where(np.abs(denom) > 1e-14,
                                  0.5 * (power[:, :-2] - power[:, 2:]) / denom, 0.0)
    peak_freq = (np.arange(nbins) + np.clip(delta, -0.5, 0.5)) * cfg.sample_rate / cfg.fft_size
    assigned = np.broadcast_to(np.arange(nbins) * cfg.sample_rate / cfg.fft_size,
                               (t, nbins)).copy()
    for shift in (-2, -1, 0, 1, 2):
        mask = np.roll(peak, shift, axis=1)
        if shift > 0:
            mask[:, :shift] = False
        elif shift < 0:
            mask[:, shift:] = False
        assigned = np.where(mask, np.roll(peak_freq, shift, axis=1), assigned)
    valid = assigned > 25.0
    classes = np.zeros((t, nbins), dtype=np.int64)
    semis = 12.0 * np.log2(assigned[valid] / cfg.tuning_hz) + 69.0
    classes[valid] = np.mod(np.round(semis), 12)
    chroma = np.zeros((t, 12))
    for c in range(12):
        chroma[:, c] = np.where(valid & (classes == c), power, 0.0).sum(axis=1)
    norms = np.linalg.norm(chroma, axis=1, keepdims=True)
    return np.where(norms > 0, chroma / np.maximum(norms, 1e-300), 0.0)


def per_frame_tempogram(onset, win=CFG.tempogram_bins):
    """One FFT autocorrelation of each frame's own centered window."""
    half = win // 2
    padded = np.concatenate([np.zeros(half), onset, np.zeros(win - half)])
    nfft = 1 << (2 * win - 1).bit_length()
    return np.array([
        np.fft.irfft(np.abs(np.fft.rfft(padded[k:k + win], n=nfft)) ** 2, n=nfft)[:win]
        for k in range(onset.size)])


def click_train(n_clicks, rate_hz=2.0, duration=10.0, sr=SR):
    x = np.zeros(int(duration * sr))
    length = int(0.005 * sr)
    ping = np.sin(2 * np.pi * 1000 * np.arange(length) / sr) * \
        np.exp(-np.arange(length) / (0.001 * sr))
    period = int(sr / rate_hz)
    for k in range(n_clicks):
        start = k * period
        x[start:start + length] += ping
    return x


class TestRhythm:
    def test_silence_all_zero(self):
        out = au.rhythm_features(au.stft(np.zeros(SR), CFG), CFG)
        assert out.shape == (30, 1070)
        assert not out.any()

    def test_click_train_tempogram_lag(self):
        x = click_train(20, rate_hz=2.0)
        out = au.rhythm_features(au.stft(x, CFG), CFG)
        tg = out[:, 1:1 + CFG.tempogram_bins]
        mid = tg[len(tg) // 2]
        lag = 1 + np.argmax(mid[1:])
        assert lag == 15                      # 0.5 s at 30 feature FPS

    @pytest.mark.parametrize("t", [2, 60, 300, 534, 600, 1200])
    def test_tempogram_matches_per_frame_reference(self, t):
        """Frames whose windows cover the same onset frames share one row.
        Up to 534 frames that is every frame; from 1068 frames no two
        windows cover the same span, and the rows are the reference's."""
        onset = np.random.default_rng(t).random(t)
        tg, ref = au.tempogram(onset, CFG), per_frame_tempogram(onset)
        if t <= CFG.tempogram_bins - CFG.tempogram_bins // 2:
            assert (tg == tg[0]).all()
        if t >= CFG.tempogram_bins:
            np.testing.assert_array_equal(tg, ref)
        assert (np.abs(tg - ref) <= 1e-12 * ref[:, :1]).all()

    def test_beat_count_ten_clicks(self):
        x = click_train(10, rate_hz=2.0, duration=10.0)
        out = au.rhythm_features(au.stft(x, CFG), CFG)
        beats = out[:, -1]
        assert abs(beats.sum() - 10) <= 1

    def test_onset_nonnegative(self):
        rng = np.random.default_rng(2)
        out = au.rhythm_features(au.stft(rng.uniform(-0.5, 0.5, SR), CFG), CFG)
        assert (out[:, 0] >= 0).all()


class TestEnergy:
    def test_constant_signal(self):
        x = np.full(SR, 0.5)
        out = au.energy_features(x, CFG)
        np.testing.assert_allclose(out[:, 0], 0.5, atol=1e-12)
        assert (out[:, 1] == 1.0).all()

    def test_sine_rms_closed_form(self):
        amp = 0.8
        out = au.energy_features(sine(440.0, amp=amp), CFG)
        interior = out[1:-1, 0]
        np.testing.assert_allclose(interior, amp / np.sqrt(2), rtol=0.01)

    def test_active_threshold_at_exactly_0p01(self):
        quiet = au.energy_features(np.full(SR, 0.005), CFG)
        assert (quiet[:, 1] == 0.0).all()
        loud = au.energy_features(np.full(SR, 0.011), CFG)
        assert (loud[:, 1] == 1.0).all()
        exact = au.energy_features(np.full(SR, 0.01), CFG)
        assert (exact[:, 1] == 0.0).all()     # strict inequality

    def test_hop_window_framing(self):
        x = np.zeros(3 * CFG.hop_length)
        x[CFG.hop_length:2 * CFG.hop_length] = 1.0
        out = au.energy_features(x, CFG)
        np.testing.assert_allclose(out[:, 0], [0.0, 1.0, 0.0], atol=1e-12)


class TestExtraction:
    def test_output_shape(self):
        clip = au.AudioClip(SR, sine(440, 1.5), sine(440, 1.5))
        feats = au.extract_binaural(clip, CFG, 30)
        assert feats.values.shape == (30, 2272)

    def test_layout_widths_sum(self):
        assert sum(w for _, w in au.FEATURE_BLOCKS) == 1136
        assert au.PER_EAR_WIDTH == 1136 and au.FEATURE_WIDTH == 2272

    def test_identical_channels_identical_halves(self):
        x = sine(523.0, 1.2, 0.4)
        clip = au.AudioClip(SR, x, x)
        feats = au.extract_binaural(clip, CFG, 30).values
        np.testing.assert_array_equal(feats[:, :1136], feats[:, 1136:])

    def test_attenuated_right_channel(self):
        x = sine(400.0, 1.2, 0.5)
        clip = au.AudioClip(SR, x, x * 0.1)   # right 20 dB down
        feats = au.extract_binaural(clip, CFG, 30).values
        rms_l = feats[:, START["rms"]]
        rms_r = feats[:, au.PER_EAR_WIDTH + START["rms"]]
        act_l = feats[:, START["active"]]
        assert (rms_l[act_l > 0] > rms_r[act_l > 0]).all()

    def test_finite_for_arbitrary_audio(self):
        rng = np.random.default_rng(3)
        x = np.clip(rng.standard_normal(SR) * 0.4, -1, 1)
        clip = au.AudioClip(SR, x, -x)
        feats = au.extract_binaural(clip, CFG, 30)
        assert np.isfinite(feats.values).all()

    def test_one_stft_per_ear(self, monkeypatch):
        calls = []
        stft = au.stft
        monkeypatch.setattr(au, "stft", lambda x, cfg: calls.append(1) or stft(x, cfg))
        x = sine(440.0, 1.2)
        au.extract_binaural(au.AudioClip(SR, x, x), CFG, 30)
        assert len(calls) == 2

    def test_one_log_mel_per_ear(self, monkeypatch):
        calls = []
        log_mel = au.log_mel_spectrogram
        monkeypatch.setattr(au, "log_mel_spectrogram",
                            lambda p, cfg: calls.append(1) or log_mel(p, cfg))
        x = sine(440.0, 1.2)
        au.extract_binaural(au.AudioClip(SR, x, x), CFG, 30)
        assert len(calls) == 2

    def test_short_clip_duration_error(self):
        clip = au.AudioClip(SR, sine(440, 0.2), sine(440, 0.2))
        with pytest.raises(DurationError):
            au.extract_binaural(clip, CFG, 30)

    def test_resampled_input_supported(self):
        x48 = sine(440.0, 1.1, 0.5, sr=48000)
        clip = au.AudioClip(48000, x48, x48)
        feats = au.extract_binaural(clip, CFG, 30)
        assert feats.values.shape == (30, 2272)

    def test_normalization_stats_roundtrip(self):
        rng = np.random.default_rng(4)
        mats = [au.AudioFeatureMatrix(rng.standard_normal((20, 2272)) * 3 + 1)
                for _ in range(3)]
        stats = au.NormalizationStats.fit(mats)
        z = stats.apply(np.concatenate([m.values for m in mats]))
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_normalization_stats_fit_is_bit_identical(self):
        """Clips of unequal length and a constant column: the two-pass fit
        gives numpy's mean and std of the stacked rows bit for bit."""
        rng = np.random.default_rng(8)
        mats = [rng.standard_normal((t, 2272)) * 3 + rng.standard_normal(2272)
                for t in (7, 31, 1, 12)]
        for m in mats:
            m[:, 9] = 0.3
        stats = au.NormalizationStats.fit(
            [au.AudioFeatureMatrix(m) for m in mats[:2]] + mats[2:])
        rows = np.concatenate(mats)
        std = rows.std(axis=0)
        assert std[9] < 1e-8 and stats.std[9] == 1.0
        assert stats.mean.tobytes() == rows.mean(axis=0).tobytes()
        assert stats.std.tobytes() == np.where(std < 1e-8, 1.0, std).tobytes()

    def test_normalization_stats_apply_is_bit_identical(self):
        rng = np.random.default_rng(9)
        stats = au.NormalizationStats(rng.standard_normal(2272),
                                      rng.uniform(0.5, 2.0, 2272))
        for feats in (rng.standard_normal((40, 2272)),
                      rng.standard_normal((40, 2272)).astype(np.float32)):
            kept = feats.copy()
            z = stats.apply(feats)
            assert z.dtype == np.float64
            np.testing.assert_array_equal(z, (feats - stats.mean) / stats.std)
            np.testing.assert_array_equal(feats, kept)

    def test_normalization_stats_damaged_file_is_data_error(self, tmp_path):
        path = tmp_path / "norm_stats.npz"
        au.NormalizationStats(np.zeros(2272), np.ones(2272)).save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["norm_stats.npz"]
        blob = path.read_bytes()
        bad = tmp_path / "bad.npz"
        for n in (0, 5, 10, 100, len(blob) // 2, len(blob) - 100, len(blob) - 5,
                  len(blob) - 1):
            bad.write_bytes(blob[:n])
            with pytest.raises(DataError):
                au.NormalizationStats.load(bad)
        for arrays in ({"mean": np.zeros(2272)}, {"std": np.ones(2272)},
                       {"mean": np.zeros(5), "std": np.ones(5)}):
            np.savez(bad, **arrays)
            with pytest.raises(DataError):
                au.NormalizationStats.load(bad)


class TestConfig:
    def test_hop_must_divide(self):
        with pytest.raises(ConfigError):
            au.FeatureConfig(sample_rate=24001)

    def test_fft_power_of_two(self):
        with pytest.raises(ConfigError):
            au.FeatureConfig(fft_size=1000)


class TestWavIO:
    def test_float32_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        clip = au.AudioClip(SR, rng.uniform(-0.9, 0.9, 1000),
                            rng.uniform(-0.9, 0.9, 1000))
        path = tmp_path / "x.wav"
        au.write_wav(path, clip)
        back = au.read_wav(path)
        assert back.sample_rate == SR
        np.testing.assert_allclose(back.left, clip.left, atol=1e-6)

    def test_int16_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        clip = au.AudioClip(SR, rng.uniform(-0.9, 0.9, 500),
                            rng.uniform(-0.9, 0.9, 500))
        path = tmp_path / "x16.wav"
        stereo = np.stack([clip.left, clip.right], axis=1)
        wavfile.write(path, SR, np.round(stereo * 32767).astype(np.int16))
        back = au.read_wav(path)
        np.testing.assert_allclose(back.left, clip.left, atol=1e-4)

    def test_written_atomically(self, tmp_path, monkeypatch):
        """The bytes scipy writes to a path; a failed rename leaves the old
        file and no temporary file."""
        rng = np.random.default_rng(7)
        clip = au.AudioClip(SR, rng.uniform(-0.9, 0.9, 300),
                            rng.uniform(-0.9, 0.9, 300))
        path = tmp_path / "x.wav"
        au.write_wav(path, clip)
        wavfile.write(tmp_path / "ref.wav", SR,
                      np.stack([clip.left, clip.right], 1).astype(np.float32))
        assert path.read_bytes() == (tmp_path / "ref.wav").read_bytes()
        (tmp_path / "ref.wav").unlink()
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            au.write_wav(path, au.AudioClip(SR, clip.right, clip.left))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.wav"]

    def test_24bit_pcm_readable(self, tmp_path):
        # hand-built 24-bit RIFF: value 0.5 in both channels
        import struct
        n, sr = 100, 24000
        frames = b""
        val = int(0.5 * (2 ** 23 - 1))
        sample = struct.pack("<i", val)[:3]
        for _ in range(n):
            frames += sample + sample
        data_size = len(frames)
        hdr = (b"RIFF" + struct.pack("<I", 36 + data_size) + b"WAVE"
               + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, sr, sr * 6, 6, 24)
               + b"data" + struct.pack("<I", data_size))
        path = tmp_path / "x24.wav"
        path.write_bytes(hdr + frames)
        clip = au.read_wav(path)
        assert clip.samples == n
        np.testing.assert_allclose(clip.left, 0.5, atol=1e-6)

    def test_mono_rejected(self, tmp_path):
        from scipy.io import wavfile
        path = tmp_path / "mono.wav"
        wavfile.write(path, SR, np.zeros(100, dtype=np.float32))
        with pytest.raises(DataError):
            au.read_wav(path)


class TestFeatureCache:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        feats = au.AudioFeatureMatrix(rng.standard_normal((12, 2272)))
        path = tmp_path / "f.feat"
        au.save_feature_cache(path, feats)
        loaded = au.load_feature_cache(path)
        np.testing.assert_array_equal(loaded.values,
                                      feats.values.astype(np.float32))
        assert [p.name for p in tmp_path.iterdir()] == ["f.feat"]
        tail = path.read_bytes()[-8 * 2272:]
        assert tail == (np.zeros(2272, "<f4").tobytes()
                        + np.ones(2272, "<f4").tobytes())

    def test_truncated_or_padded_file_is_data_error(self, tmp_path):
        path = tmp_path / "f.feat"
        au.save_feature_cache(path, au.AudioFeatureMatrix(np.ones((1, 2272))))
        full = path.stat().st_size
        with open(path, "ab") as f:
            f.write(b"\0")
        for n in [full + 1, *range(full - 1, -1, -1)]:
            os.truncate(path, n)
            with pytest.raises(DataError):
                au.load_feature_cache(path)

    def test_bytes_fixed_for_fixed_wav_and_config(self, tmp_path):
        """One WAV and config give one `.feat` file under one BLAS thread and
        under two. The pinned digest changes only with FEATURE_VERSION."""
        rng = np.random.default_rng(11)
        wav = tmp_path / "noise.wav"
        wavfile.write(wav, SR, rng.integers(-8000, 8000, (36000, 2),
                                            dtype=np.int16))
        script = ("import hashlib, sys\n"
                  "from sonomotion import audio as au\n"
                  "wav, feat = sys.argv[1:]\n"
                  "au.save_feature_cache(feat, au.extract_binaural(\n"
                  "    au.read_wav(wav), au.FeatureConfig(), 45))\n"
                  "print(hashlib.sha256(open(feat, 'rb').read()).hexdigest())\n")
        src = str(Path(au.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run(
                [sys.executable, "-c", script, str(wav), str(tmp_path / f"{threads}.feat")],
                env=env, capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            digests.add(run.stdout.strip())
        assert au.FEATURE_VERSION == 2
        assert digests == {"9efbbc67df77391d9974f290264efa96"
                           "be727457cb8d499d16768610b2345e67"}

    def test_cache_key_sensitive_to_audio_and_config(self):
        k1 = au.feature_cache_key(b"abc", CFG)
        k2 = au.feature_cache_key(b"abd", CFG)
        k3 = au.feature_cache_key(b"abc", au.FeatureConfig(mel_bands=64))
        assert k1 != k2 and k1 != k3

    def test_cache_key_changes_with_feature_version(self, monkeypatch):
        key = au.feature_cache_key(b"abc", CFG)
        monkeypatch.setattr(au, "FEATURE_VERSION", au.FEATURE_VERSION - 1)
        assert au.feature_cache_key(b"abc", CFG) != key
