"""Adam with decoupled weight decay, the only optimizer this package needs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ContractError


@dataclass
class OptimizerState:
    """Per-parameter moment accumulators plus shared step bookkeeping."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    def init_moments(self, params) -> None:
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]


def adamw_step(params, grads, state: OptimizerState) -> None:
    """One bias-corrected AdamW update; mutates params and state in place."""
    if not state.m:
        state.init_moments(params)
    if len(grads) != len(params):
        raise ContractError(f"{len(grads)} grads for {len(params)} params")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ContractError(
                f"grad shape {g.shape} does not match parameter shape {p.data.shape}"
            )
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.weight_decay:
            update = update + state.weight_decay * p.data
        p.data -= state.lr * update


class AdamW:
    """Object wrapper pairing a fixed parameter list with an OptimizerState."""

    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.state = OptimizerState(lr=lr, beta1=betas[0], beta2=betas[1],
                                    eps=eps, weight_decay=weight_decay)
        self.state.init_moments(self.params)

    def step(self) -> None:
        adamw_step(self.params, [p.grad for p in self.params], self.state)
