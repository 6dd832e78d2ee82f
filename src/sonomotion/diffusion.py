"""Forward noising, cosine schedule, and clean-sample ancestral sampling.

The denoiser predicts the clean sample directly, so each reverse step forms
the diffusion posterior mean from (x_t, predicted x_0) and adds the
posterior noise. Index convention: schedule arrays run 0..steps with
alpha_bar[0] = 1 exactly; the reverse chain visits t = steps, ..., 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError

COSINE_OFFSET = 0.008
MAX_BETA = 0.999


@dataclass
class NoiseSchedule:
    """alpha / cumulative-alpha / posterior-variance tables, index 0..steps."""

    steps: int
    alphas: np.ndarray          # alphas[0] = 1 (unused by the chain)
    alpha_bars: np.ndarray      # alpha_bars[0] = 1, strictly decreasing
    betas: np.ndarray
    posterior_var: np.ndarray   # beta_tilde_t, zero at t in {0, 1}

    def __post_init__(self):
        n = self.steps + 1
        for name in ("alphas", "alpha_bars", "betas", "posterior_var"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (n,):
                raise ShapeError(f"{name} must have length {n}")
            setattr(self, name, arr)
        if self.alpha_bars[0] != 1.0:
            raise ContractError("alpha_bar[0] must be exactly 1")
        if np.any(np.diff(self.alpha_bars) >= 0):
            raise ContractError("alpha_bar must be strictly decreasing")
        inner = self.alphas[1:]
        if np.any(inner <= 0.0) or np.any(inner >= 1.0):
            raise ContractError("alphas must lie in (0, 1)")

    def check_range(self, t) -> None:
        t = np.asarray(t)
        if np.any(t < 0) or np.any(t > self.steps):
            raise IndexError(f"diffusion step out of range 0..{self.steps}")


def cosine_schedule(steps: int, offset: float = COSINE_OFFSET) -> NoiseSchedule:
    """Squared-cosine noise schedule with betas clipped to 0.999."""
    if steps < 1:
        raise ContractError("need at least one diffusion step")
    t = np.arange(steps + 1, dtype=np.float64)
    f = np.cos((t / steps + offset) / (1.0 + offset) * np.pi / 2.0) ** 2
    raw = f / f[0]
    betas = np.zeros(steps + 1)
    betas[1:] = np.clip(1.0 - raw[1:] / raw[:-1], 1e-12, MAX_BETA)
    alphas = 1.0 - betas
    alphas[0] = 1.0
    alpha_bars = np.cumprod(alphas)
    posterior = np.zeros(steps + 1)
    posterior[1:] = (1.0 - alpha_bars[:-1]) / (1.0 - alpha_bars[1:]) * betas[1:]
    return NoiseSchedule(steps, alphas, alpha_bars, betas, posterior)


def q_sample(x0: np.ndarray, t, noise: np.ndarray,
             schedule: NoiseSchedule) -> np.ndarray:
    """x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) noise.

    ``t`` may be a scalar or a per-sample integer array matching the leading
    axis of x0.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != x0.shape:
        raise ShapeError(f"noise shape {noise.shape} != x0 shape {x0.shape}")
    schedule.check_range(t)
    abar = schedule.alpha_bars[np.asarray(t)]
    if np.ndim(abar):
        abar = abar.reshape(abar.shape + (1,) * (x0.ndim - np.ndim(abar)))
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * noise


def p_sample_step(x_t: np.ndarray, t: int, x0_hat: np.ndarray,
                  schedule: NoiseSchedule, noise: np.ndarray | None = None,
                  t_prev: int | None = None) -> np.ndarray:
    """One ancestral reverse step t -> t_prev (default t - 1); deterministic
    when t_prev == 0.

    For strided sampling t_prev may skip steps; the posterior is recomputed
    for the pair using the effective alpha = abar_t / abar_prev.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    if x0_hat.shape != x_t.shape:
        raise ShapeError(f"x0_hat shape {x0_hat.shape} != x_t shape {x_t.shape}")
    if t_prev is None:
        t_prev = t - 1
    if not (0 <= t_prev < t <= schedule.steps):
        raise ContractError(f"invalid reverse step {t} -> {t_prev}")
    abar_t = schedule.alpha_bars[t]
    abar_prev = schedule.alpha_bars[t_prev]
    alpha_eff = abar_t / abar_prev
    beta_eff = 1.0 - alpha_eff
    denom = 1.0 - abar_t
    coef_x0 = np.sqrt(abar_prev) * beta_eff / denom
    coef_xt = np.sqrt(alpha_eff) * (1.0 - abar_prev) / denom
    var = (1.0 - abar_prev) / denom * beta_eff
    std = np.sqrt(max(var, 0.0))
    mean = coef_x0 * x0_hat + coef_xt * x_t
    if t_prev == 0 or std == 0.0 or noise is None:
        return mean
    return mean + std * np.asarray(noise, dtype=np.float64)


def stride_subset(steps: int, count: int) -> list[int]:
    """Evenly strided decreasing subsequence of 1..steps with ``count`` entries."""
    if not 1 <= count <= steps:
        raise ContractError(f"subset size {count} not in 1..{steps}")
    pts = np.linspace(steps, 1, count)
    subset = sorted({int(round(p)) for p in pts}, reverse=True)
    return subset


def sample_array(model_fn, shape: tuple[int, ...], schedule: NoiseSchedule,
                 rng: np.random.Generator,
                 step_subset: list[int] | None = None) -> np.ndarray:
    """Run the reverse chain from standard-normal x_T; returns the final x0.

    ``model_fn(x_t, t) -> x0_hat`` supplies the denoiser (conditions are
    closed over by the caller).
    """
    if step_subset is None:
        step_subset = list(range(schedule.steps, 0, -1))
    else:
        step_subset = [int(t) for t in step_subset]
        if not step_subset or not all(a > b for a, b in zip(step_subset,
                                                            step_subset[1:])):
            raise ContractError("step subset must be a decreasing sequence")
        if step_subset[0] > schedule.steps or step_subset[-1] < 1:
            raise ContractError("step subset must lie within 1..steps")
    x = rng.standard_normal(shape)
    for i, t in enumerate(step_subset):
        t_prev = step_subset[i + 1] if i + 1 < len(step_subset) else 0
        x0_hat = np.asarray(model_fn(x, t), dtype=np.float64)
        if x0_hat.shape != x.shape:
            raise ShapeError(
                f"denoiser returned {x0_hat.shape}, expected {x.shape}")
        noise = rng.standard_normal(shape) if t_prev > 0 else None
        x = p_sample_step(x, t, x0_hat, schedule, noise, t_prev=t_prev)
    return x

