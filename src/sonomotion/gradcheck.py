"""Finite-difference verification of every differentiable primitive.

Used both by the test suite and the ``gradcheck`` CLI subcommand. Each check
builds a scalar loss ``sum(op(inputs) * W)`` with a fixed random weighting so
all output elements contribute, runs the taped backward pass, and compares
against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor

STEP = 1e-5
TOL = 1e-4


def numeric_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of scalar f at x, elementwise."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        hi = f()
        flat[i] = orig - STEP
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * STEP)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.max(np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def check_scalar_fn(fn, arrays: list[np.ndarray]) -> float:
    """Max relative error across all inputs of a Tensor-valued scalar fn."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = fn(*tensors)
        tape.backward(loss)

    def eval_detached() -> float:
        # fresh constant tensors sharing the (possibly perturbed) buffers
        return fn(*[Tensor(t.data) for t in tensors]).item()

    worst = 0.0
    for t in tensors:
        numeric = numeric_gradient(eval_detached, t.data)
        worst = max(worst, max_rel_error(t.grad, numeric))
    return worst


@dataclass
class GradCheckRow:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def run_primitive_suite(seed: int = 0) -> list[GradCheckRow]:
    """Gradcheck every differentiable primitive on randomized small shapes."""
    rng = np.random.default_rng(seed)
    rows: list[GradCheckRow] = []

    def add_case(name, fn, arrays):
        err = check_scalar_fn(fn, arrays)
        rows.append(GradCheckRow(name, err, TOL))

    w1 = rng.standard_normal((3, 4))
    add_case("add", lambda a, b: ad.sum_(ad.mul(ad.add(a, b), w1)),
             [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))])
    add_case("add_broadcast", lambda a, b: ad.sum_(ad.mul(ad.add(a, b), w1)),
             [rng.standard_normal((3, 4)), rng.standard_normal((4,))])
    add_case("sub", lambda a, b: ad.sum_(ad.mul(ad.sub(a, b), w1)),
             [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))])
    add_case("mul", lambda a, b: ad.sum_(ad.mul(ad.mul(a, b), w1)),
             [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))])
    add_case("div", lambda a, b: ad.sum_(ad.mul(ad.div(a, b), w1)),
             [rng.standard_normal((3, 4)),
              rng.uniform(0.5, 2.0, (3, 4))])
    w2 = rng.standard_normal((2, 3, 5))
    add_case("matmul", lambda a, b: ad.sum_(ad.mul(ad.matmul(a, b), w2)),
             [rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4, 5))])
    add_case("matmul_broadcast", lambda a, b: ad.sum_(ad.mul(ad.matmul(a, b), w2)),
             [rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5))])
    w3 = rng.standard_normal((3, 7))
    add_case("concat", lambda a, b: ad.sum_(ad.mul(ad.concat([a, b], axis=1), w3)),
             [rng.standard_normal((3, 3)), rng.standard_normal((3, 4))])
    w4 = rng.standard_normal((2, 2))
    add_case("slice", lambda a: ad.sum_(ad.mul(a[1:3, 0:2], w4)),
             [rng.standard_normal((4, 3))])
    wr = rng.standard_normal((2, 6))
    add_case("reshape", lambda a: ad.sum_(ad.mul(ad.reshape(a, (2, 6)), wr)),
             [rng.standard_normal((3, 4))])
    wt = rng.standard_normal((4, 3))
    add_case("transpose", lambda a: ad.sum_(ad.mul(ad.transpose(a, (1, 0)), wt)),
             [rng.standard_normal((3, 4))])
    wm = rng.standard_normal((3,))
    add_case("mean_axis", lambda a: ad.sum_(ad.mul(ad.mean(a, axis=1), wm)),
             [rng.standard_normal((3, 4))])
    ws = rng.standard_normal((3, 1))
    add_case("sum_keepdims",
             lambda a: ad.sum_(ad.mul(ad.sum_(a, axis=-1, keepdims=True), ws)),
             [rng.standard_normal((3, 4))])
    add_case("layer_norm", lambda a: ad.sum_(ad.mul(ad.layer_norm(a), w1)),
             [rng.standard_normal((3, 4)) * 2.0 + 1.0])
    add_case("softmax", lambda a: ad.sum_(ad.mul(ad.softmax(a, axis=-1), w1)),
             [rng.standard_normal((3, 4))])
    add_case("relu", lambda a: ad.sum_(ad.mul(ad.relu(a), w1)),
             [rng.standard_normal((3, 4)) + 0.3])
    add_case("gelu", lambda a: ad.sum_(ad.mul(ad.gelu(a), w1)),
             [rng.standard_normal((3, 4))])
    add_case("tanh", lambda a: ad.sum_(ad.mul(ad.tanh_(a), w1)),
             [rng.standard_normal((3, 4))])
    add_case("sigmoid", lambda a: ad.sum_(ad.mul(ad.sigmoid(a), w1)),
             [rng.standard_normal((3, 4))])
    add_case("sqrt", lambda a: ad.sum_(ad.mul(ad.sqrt_(a), w1)),
             [rng.uniform(0.5, 2.0, (3, 4))])
    wc = rng.standard_normal((5, 3))
    add_case("cross", lambda a, b: ad.sum_(ad.mul(ad.cross(a, b), wc)),
             [rng.standard_normal((5, 3)), rng.standard_normal((5, 3))])
    idx = rng.integers(0, 6, size=(7,))
    we = rng.standard_normal((7, 4))
    add_case("embedding", lambda t: ad.sum_(ad.mul(ad.embedding(t, idx), we)),
             [rng.standard_normal((6, 4))])
    add_case("mse", lambda a, b: ad.mse(a, b),
             [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))])
    add_case("linear", lambda x, w, b: ad.sum_(ad.mul(ad.linear(x, w, b), w2)),
             [rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5)),
              rng.standard_normal((5,))])
    wa = rng.standard_normal((2, 3, 8))
    for name, tm in (("attention", 3), ("attention_cross", 5)):
        add_case(name, lambda q, k, v: ad.sum_(ad.mul(ad.attention(q, k, v, 2), wa)),
                 [rng.standard_normal((2, t, 8)) for t in (3, tm, tm)])
    parents, offsets = [-1, 0, 1, 0, 3], rng.standard_normal((5, 3))
    wk = rng.standard_normal((2, 5, 3))
    add_case("fk", lambda r, q: ad.sum_(ad.mul(ad.fk(parents, offsets, r, q), wk)),
             [rng.standard_normal((2, 3)), rng.standard_normal((2, 5, 3, 3))])
    wg = rng.standard_normal((2, 4, 3))
    for name, reverse in (("gru", False), ("gru_reverse", True)):
        add_case(name, lambda x, wx, bx, wh, bh: ad.sum_(
                     ad.mul(ad.gru(x, wx, bx, wh, bh, reverse), wg)),
                 [rng.standard_normal(s) for s in ((2, 4, 3), (3, 9), (9,), (3, 9), (9,))])
    w6 = rng.standard_normal((2, 4, 3, 3))
    add_case("rot6d", lambda a: ad.sum_(ad.mul(ad.rot6d(a)[0], w6)),
             [rng.standard_normal((2, 4, 6))])
    add_case("mse_with_diff", lambda a, b: ad.mse_with_diff(a, b),
             [rng.standard_normal((2, 4, 3)), rng.standard_normal((2, 4, 3))])
    return rows


def format_rows(rows: list[GradCheckRow]) -> str:
    lines = [f"{'op':<18} {'max rel err':>12}  result"]
    for r in rows:
        lines.append(f"{r.name:<18} {r.max_rel_error:>12.3e}  "
                     f"{'pass' if r.passed else 'FAIL'}")
    return "\n".join(lines)
