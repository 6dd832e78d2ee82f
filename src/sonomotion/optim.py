"""Adam with decoupled weight decay, the only optimizer this package needs."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ContractError


class AdamW:
    """Bias-corrected AdamW over a fixed parameter list, with one pair of
    moment accumulators per parameter."""

    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One update from each parameter's ``.grad``; a parameter without a
        gradient is left as it is."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ContractError(
                    f"grad shape {g.shape} does not match parameter shape {p.data.shape}"
                )
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update
