"""Adam with decoupled weight decay, the only optimizer this package needs,
and the minibatch loop both trainers run it in."""

from __future__ import annotations

import numpy as np

from .autodiff import Tape, Tensor
from .errors import ContractError, NumericError


class AdamW:
    """Bias-corrected AdamW over a fixed parameter list, with one pair of
    moment accumulators per parameter."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
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


def fit(opt: AdamW, step, n: int, batch_size: int, epochs: int,
        rng: np.random.Generator, end_epoch, min_batch: int = 1
        ) -> dict[str, list[float]]:
    """Minibatch training over ``n`` items; returns each term's per-epoch means.

    Each epoch cuts a permutation from ``rng`` into batches, skipping any of
    fewer than ``min_batch``. ``step(epoch, idx)`` runs under a tape and
    returns ``(loss, {name: term})``; a non-finite term raises NumericError.
    ``end_epoch(epoch, means)`` receives each epoch's means.
    """
    curves: dict[str, list[float]] = {}
    for epoch in range(epochs):
        order = rng.permutation(n)
        sums: dict[str, float] = {}
        steps = 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            if idx.size < min_batch:
                continue
            with Tape() as tape:
                loss, terms = step(epoch, idx)
                for name, term in terms.items():
                    if not np.isfinite(term.data):
                        raise NumericError(
                            f"loss term '{name}' is non-finite at epoch {epoch}")
                tape.backward(loss)
            opt.step()
            for name, term in terms.items():
                sums[name] = sums.get(name, 0.0) + term.item()
            steps += 1
        means = {name: total / steps for name, total in sums.items()}
        for name, mean in means.items():
            curves.setdefault(name, []).append(mean)
        end_epoch(epoch, means)
    return curves
