"""Forward noising, cosine schedule, and clean-sample ancestral sampling.

The denoiser predicts the clean sample directly, so each reverse step forms
the diffusion posterior mean from (x_t, predicted x_0) and adds the
posterior noise, both from the schedule's one table, alpha_bars (index
0..steps, alpha_bar[0] = 1). ``sample_array`` is the one reverse chain; it
takes one step per ``next``, so a caller can interleave the steps of many
chains, and ``run_chain`` runs one to its end.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError

COSINE_OFFSET = 0.008
MAX_BETA = 0.999


@dataclass
class NoiseSchedule:
    """The cumulative-alpha table, index 0..steps. It starts at 1, falls
    strictly and stays above 0, so each step's alpha = abar_t / abar_{t-1}
    lies in (0, 1)."""

    steps: int
    alpha_bars: np.ndarray

    def __post_init__(self):
        self.alpha_bars = np.asarray(self.alpha_bars, dtype=np.float64)
        if self.alpha_bars.shape != (self.steps + 1,):
            raise ShapeError(f"alpha_bars must have length {self.steps + 1}")
        if self.alpha_bars[0] != 1.0:
            raise ContractError("alpha_bar[0] must be exactly 1")
        if not (np.all(np.diff(self.alpha_bars) < 0) and self.alpha_bars[-1] > 0):
            raise ContractError("alpha_bar must fall strictly and stay above 0")

    def check_range(self, t) -> None:
        t = np.asarray(t)
        if np.any(t < 0) or np.any(t > self.steps):
            raise IndexError(f"diffusion step out of range 0..{self.steps}")


def cosine_schedule(steps: int) -> NoiseSchedule:
    """Squared-cosine noise schedule; each step's beta is clipped to 0.999."""
    if steps < 1:
        raise ContractError("need at least one diffusion step")
    t = np.arange(steps + 1, dtype=np.float64)
    f = np.cos((t / steps + COSINE_OFFSET) / (1.0 + COSINE_OFFSET) * np.pi / 2.0) ** 2
    raw = f / f[0]
    alpha = np.ones(steps + 1)
    alpha[1:] = 1.0 - np.clip(1.0 - raw[1:] / raw[:-1], 1e-12, MAX_BETA)
    return NoiseSchedule(steps, np.cumprod(alpha))


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


def p_sample_step(x_t: np.ndarray, t: int, t_prev: int, x0_hat: np.ndarray,
                  schedule: NoiseSchedule,
                  noise: np.ndarray | None = None) -> np.ndarray:
    """One ancestral reverse step t -> t_prev; deterministic when t_prev == 0.

    t_prev may skip steps: the posterior is that of the pair, with the
    effective alpha = abar_t / abar_prev.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    if x0_hat.shape != x_t.shape:
        raise ShapeError(f"x0_hat shape {x0_hat.shape} != x_t shape {x_t.shape}")
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


def sample_array(model_fn, shape: tuple[int, ...], schedule: NoiseSchedule,
                 rng: np.random.Generator, steps: int | None = None
                 ) -> Generator[np.ndarray, None, np.ndarray]:
    """The reverse chain from standard-normal x_T in ``steps`` steps (default:
    every step), as a generator: each ``next`` takes one step and yields the
    new x, and the chain returns the final x0 (``run_chain`` runs it to the
    end). It visits the rounded points of ``linspace(schedule.steps, 1,
    steps)``, then 0.

    ``model_fn(x_t, t) -> x0_hat`` supplies the denoiser (conditions are
    closed over by the caller)."""
    steps = schedule.steps if steps is None else steps
    if not 1 <= steps <= schedule.steps:
        raise ContractError(f"step count {steps} not in 1..{schedule.steps}")
    visits = [int(round(p)) for p in np.linspace(schedule.steps, 1, steps)] + [0]
    x = rng.standard_normal(shape)
    for t, t_prev in zip(visits, visits[1:]):
        x0_hat = model_fn(x, t)     # p_sample_step checks its shape
        noise = rng.standard_normal(shape) if t_prev > 0 else None
        x = p_sample_step(x, t, t_prev, x0_hat, schedule, noise)
        del x0_hat, noise           # a waiting chain holds only x
        yield x
    return x


def run_chain(chain):
    """Step the generator ``chain`` to its end; returns what it returns."""
    try:
        while True:
            next(chain)
    except StopIteration as done:
        return done.value
