"""Layers built on the taped tensor ops: linear maps, attention, GRUs.

Initialization convention: linear weights uniform in +-sqrt(1/fan_in),
biases zero, everything drawn from an explicit numpy Generator so runs are
reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import check_shapes
from .errors import ConfigError


class Module:
    """Minimal parameter container with recursive discovery."""

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for name, val in vars(self).items():
            if isinstance(val, Tensor):
                if val.requires_grad:
                    out.append((prefix + name, val))
            elif isinstance(val, Module):
                out.extend(val.named_parameters(prefix + name + "."))
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(f"{prefix}{name}.{i}."))
                    elif isinstance(item, Tensor) and item.requires_grad:
                        out.append((f"{prefix}{name}.{i}", item))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def load_state(self, mapping: dict[str, np.ndarray]) -> None:
        """Replace every parameter from ``mapping``; a missing name or wrong
        shape raises ShapeError before any parameter changes."""
        params = self.named_parameters()
        check_shapes(params, {name: np.shape(v) for name, v in mapping.items()})
        for name, t in params:
            t.data = np.ascontiguousarray(mapping[name], dtype=np.float64)


def uniform_init(rng: np.random.Generator | None, shape, fan_in: int) -> Tensor:
    """Uniform in +-sqrt(1/fan_in); with no ``rng`` the values are left unset,
    in float32, for a model a checkpoint is about to fill for sampling."""
    if rng is None:
        return Tensor(np.empty(shape, np.float32), requires_grad=True)
    bound = np.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w = uniform_init(rng, (in_dim, out_dim), in_dim)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(ad.mul(ad.layer_norm(x), self.gain), self.bias)


class Embedding(Module):
    def __init__(self, vocab: int, dim: int, rng: np.random.Generator):
        self.table = uniform_init(rng, (vocab, dim), dim)

    def __call__(self, indices) -> Tensor:
        return ad.embedding(self.table, indices)


class Attention(Module):
    """Multi-head attention: queries from x, keys and values from ``memory``,
    or from x itself (self attention) when no memory is given."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads:
            raise ConfigError(f"latent dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def __call__(self, x: Tensor, memory: Tensor | None = None) -> Tensor:
        kv = x if memory is None else memory
        return self.wo(ad.attention(self.wq(x), self.wk(kv), self.wv(kv), self.heads))


# former names of the two attention flavours; benchmark/tracing.py looks them up
SelfAttention = CrossAttention = Attention


class FeedForward(Module):
    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.w1 = Linear(dim, hidden, rng)
        self.w2 = Linear(hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.w2(ad.gelu(self.w1(x)))


class EncoderBlock(Module):
    """Pre-norm residual block: x + attn(ln(x)), then x + ff(ln(x)).

    With ``tail`` only the last ``tail`` rows are computed: their queries
    still attend over every row, so they equal those rows of the full output.
    """

    def __init__(self, dim: int, heads: int, ff_mult: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(dim)
        self.attn = Attention(dim, heads, rng)
        self.ln2 = LayerNorm(dim)
        self.ff = FeedForward(dim, ff_mult * dim, rng)

    def __call__(self, x: Tensor, tail: int | None = None) -> Tensor:
        z = self.ln1(x)
        if tail is None:
            x = ad.add(x, self.attn(z))
        else:
            first = x.shape[1] - tail
            x = ad.add(x[:, first:], self.attn(z[:, first:], z))
        return ad.add(x, self.ff(self.ln2(x)))


class DecoderBlock(Module):
    """Pre-norm block with self-attention, cross-attention, feed-forward."""

    def __init__(self, dim: int, heads: int, ff_mult: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(dim)
        self.self_attn = Attention(dim, heads, rng)
        self.ln2 = LayerNorm(dim)
        self.cross_attn = Attention(dim, heads, rng)
        self.ln3 = LayerNorm(dim)
        self.ff = FeedForward(dim, ff_mult * dim, rng)

    def __call__(self, x: Tensor, memory: Tensor) -> Tensor:
        x = ad.add(x, self.self_attn(self.ln1(x)))
        x = ad.add(x, self.cross_attn(self.ln2(x), memory))
        return ad.add(x, self.ff(self.ln3(x)))


class GRULayer(Module):
    """Single-direction gated recurrent layer over (B, T, in) sequences: one
    (in, 3h) input and one (h, 3h) recurrent weight, gates [z | r | n]."""

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator):
        self.hidden = hidden
        # blocks drawn wz, uz, wr, ur, wn, un: a seed gives the weights of six
        # separate per-gate maps
        blocks = [uniform_init(rng, (d, hidden), d).data
                  for _ in range(3) for d in (in_dim, hidden)]
        self.wx = Tensor(np.concatenate(blocks[0::2], axis=1), requires_grad=True)
        self.bx = Tensor(np.zeros(3 * hidden), requires_grad=True)
        self.wh = Tensor(np.concatenate(blocks[1::2], axis=1), requires_grad=True)
        self.bh = Tensor(np.zeros(3 * hidden), requires_grad=True)

    def __call__(self, x: Tensor, reverse: bool = False):
        """Returns (outputs (B, T, h), final hidden (B, h)); the final hidden
        is frame 0's state when ``reverse``."""
        seq = ad.gru(x, self.wx, self.bx, self.wh, self.bh, reverse)
        return seq, seq[:, 0 if reverse else -1]


class BiGRUEncoder(Module):
    """Stacked bidirectional GRU; feature = linear(concat of final hiddens).

    The two directions of each layer are concatenated per frame and fed to
    the next layer; the extracted feature uses the top layer's forward and
    backward final hidden states.
    """

    def __init__(self, in_dim: int, hidden: int, layers: int, feature_width: int,
                 rng: np.random.Generator):
        self.fwd = []
        self.bwd = []
        d = in_dim
        for _ in range(layers):
            self.fwd.append(GRULayer(d, hidden, rng))
            self.bwd.append(GRULayer(d, hidden, rng))
            d = 2 * hidden
        self.out = Linear(2 * hidden, feature_width, rng)

    def __call__(self, x: Tensor) -> Tensor:
        h_f = h_b = None
        for f, b in zip(self.fwd, self.bwd):
            seq_f, h_f = f(x)
            seq_b, h_b = b(x, reverse=True)
            x = ad.concat([seq_f, seq_b], axis=-1)
        return self.out(ad.concat([h_f, h_b], axis=-1))


def sinusoidal_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Classic sin/cos position code for integer timesteps t (B,) -> (B, dim)."""
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = t[:, None] * freqs[None, :]
    emb = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    if dim % 2:
        emb = np.pad(emb, ((0, 0), (0, 1)))
    return emb
