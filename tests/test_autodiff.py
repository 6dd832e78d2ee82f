"""Tensor engine: forward semantics, taped backward, optimizer, checkpoints."""

import struct
import tracemalloc

import numpy as np
import pytest

from sonomotion import autodiff as ad
from sonomotion.autodiff import Tape, Tensor
from sonomotion.checkpoint import load_checkpoint, save_checkpoint
from sonomotion.errors import ContractError, DataError, NumericError, ShapeError
from sonomotion.gradcheck import (check_scalar_fn, numeric_gradient,
                                  run_primitive_suite)
from sonomotion.nn import GRULayer, Linear, Module
from sonomotion.optim import AdamW
from sonomotion.skeleton import SkeletonSpec


class TestForwardPrimitives:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3))
        out = ad.matmul(Tensor(np.eye(3)), Tensor(m))
        np.testing.assert_allclose(out.data, m)

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_softmax_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = ad.softmax(Tensor(rng.standard_normal((20, 7)) * 5), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(20), atol=1e-9)
        assert np.all(out.data >= 0)

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 16)) * 3.0 + 2.0
        out = ad.layer_norm(Tensor(x))
        mu = out.data.mean(axis=1)
        var = out.data.var(axis=1)
        assert np.abs(mu).max() <= 1e-9
        assert np.abs(var - 1.0).max() < 1e-6

    def test_nonfinite_forward_raises(self):
        with pytest.raises(NumericError):
            ad.div(Tensor([1.0]), Tensor([0.0]))

    def test_concat_and_slice_roundtrip(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
        cat = ad.concat([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_array_equal(cat.data[:, :3], a)
        np.testing.assert_array_equal(cat[:, 3:].data, b)

    def test_gelu_matches_erf_form(self):
        """GELU's normal CDF, ``ndtr(x)``, is the erf form
        0.5 (1 + erf(x / sqrt 2)) within 1e-15 over |x| <= 40."""
        from scipy.special import erf
        x = np.linspace(-40.0, 40.0, 200_001)
        reference = x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        scale = np.maximum(np.abs(x), 1.0)      # beyond |x| = 1, compare the CDF
        np.testing.assert_allclose(ad.gelu(Tensor(x)).data / scale,
                                   reference / scale, rtol=0, atol=1e-15)

    def test_embedding_lookup(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.embedding(table, np.array([2, 0, 2]))
        np.testing.assert_array_equal(out.data[0], [6, 7, 8])
        np.testing.assert_array_equal(out.data[1], [0, 1, 2])


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_(w)
            tape.backward(loss)
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_mse_scalar_analytic(self):
        c = 1.7
        w = Tensor(np.array(c), requires_grad=True)
        with Tape() as tape:
            loss = ad.mse(w, Tensor(np.array(0.0)))
            tape.backward(loss)
        np.testing.assert_allclose(w.grad, 2 * c)

    def test_two_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 4))
        target = rng.standard_normal((5, 2))
        w1 = rng.standard_normal((4, 8)) * 0.5
        w2 = rng.standard_normal((8, 2)) * 0.5

        def net(w1_t, w2_t):
            h = ad.tanh_(ad.matmul(Tensor(x), w1_t))
            return ad.mse(ad.matmul(h, w2_t), Tensor(target))

        err = check_scalar_fn(net, [w1, w2])
        assert err < 1e-4

    def test_off_path_tensor_gets_no_grad(self):
        used = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        unused.grad = np.ones(3)              # a stale gradient is cleared
        with Tape() as tape:
            _dead_end = ad.mul(unused, 2.0)   # on tape, not reaching the loss
            loss = ad.sum_(used)
            tape.backward(loss)
        np.testing.assert_array_equal(used.grad, np.ones(3))
        assert unused.grad is None

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = ad.mul(w, 2.0)
            with pytest.raises(ContractError):
                tape.backward(out)

    def test_backward_deterministic_bitwise(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 6))

        def run():
            w = Tensor(x.copy(), requires_grad=True)
            with Tape() as tape:
                h = ad.softmax(ad.matmul(w, w), axis=-1)
                loss = ad.mean(ad.mul(h, h))
                tape.backward(loss)
            return w.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_reused_tensor_accumulates(self):
        w = Tensor(np.array([3.0]), requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_(ad.mul(w, w))   # d(w^2)/dw = 2w
            tape.backward(loss)
        np.testing.assert_allclose(w.grad, [6.0])


class TestFusedOps:
    def test_linear_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(20)
        x, w, b = (rng.standard_normal(s) for s in ((2, 3, 4), (4, 5), (5,)))
        want = ad.add(ad.matmul(Tensor(x), Tensor(w)), Tensor(b)).data
        np.testing.assert_allclose(ad.linear(x, w, b).data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tm", [3, 5])     # self shape, then Tq != Tm
    def test_attention_matches_composed_ops(self, tm):
        rng = np.random.default_rng(21)
        heads, (b, tq, d) = 2, (2, 3, 8)
        q = rng.standard_normal((b, tq, d))
        k, v = rng.standard_normal((b, tm, d)), rng.standard_normal((b, tm, d))

        def split(z, t):
            return ad.transpose(ad.reshape(Tensor(z), (b, t, heads, d // heads)),
                                (0, 2, 1, 3))

        scores = ad.mul(ad.matmul(split(q, tq), ad.transpose(split(k, tm), (0, 1, 3, 2))),
                        1.0 / np.sqrt(d // heads))
        ctx = ad.matmul(ad.softmax(scores, axis=-1), split(v, tm))
        want = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, tq, d)).data
        got = ad.attention(q, k, v, heads).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_rot6d_matches_composed_decode(self):
        """Values and gradients of the fused decode within 1e-12 of the
        decode composed from taped primitives, degenerate blocks included."""
        rng = np.random.default_rng(24)
        r6 = rng.standard_normal((3, 4, 5, 6))
        r6[0, 0, 0, :3] = 0.0                        # |a1| = 0
        r6[1, 2, 3, 3:] = 2.5 * r6[1, 2, 3, :3]      # a2 parallel to a1
        wgt = rng.standard_normal((3, 4, 5, 3, 3))

        def composed(t):
            a1, a2 = t[..., 0:3], t[..., 3:6]
            n1sq = ad.sum_(ad.mul(a1, a1), axis=-1, keepdims=True)
            b1 = ad.div(a1, ad.sqrt_(ad.add(n1sq, 1e-12)))
            proj = ad.sum_(ad.mul(b1, a2), axis=-1, keepdims=True)
            u2 = ad.sub(a2, ad.mul(proj, b1))
            n2sq = ad.sum_(ad.mul(u2, u2), axis=-1, keepdims=True)
            b2 = ad.div(u2, ad.sqrt_(ad.add(n2sq, 1e-12)))
            cols = [ad.reshape(c, c.shape + (1,)) for c in (b1, b2, ad.cross(b1, b2))]
            return ad.concat(cols, axis=-1)

        results = []
        for decode in (composed, lambda t: ad.rot6d(t)[0]):
            t = Tensor(r6, requires_grad=True)
            with Tape() as tape:
                out = decode(t)
                tape.backward(ad.sum_(ad.mul(out, wgt)))
            results.append((out.data, t.grad))
        for want, got in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)))
        assert ad.rot6d(r6)[1] == 2

    def test_mse_with_diff_matches_composed_ops(self):
        """Value and both gradients within 1e-12 of mse of the values plus
        mse of the frame differences, composed from taped primitives."""
        rng = np.random.default_rng(26)
        a, b = rng.standard_normal((3, 7, 5)), rng.standard_normal((3, 7, 5))

        def composed(p, t):
            def step(z):
                return ad.sub(z[..., 1:, :], z[..., :-1, :])
            return ad.add(ad.mse(p, t), ad.mse(step(p), step(t)))

        results = []
        for loss_fn in (composed, ad.mse_with_diff):
            p, t = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
            with Tape() as tape:
                loss = loss_fn(p, t)
                tape.backward(loss)
            results.append((loss.data, p.grad, t.grad))
        for want, got in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)))
        rows = {r.name: r for r in run_primitive_suite(seed=0)}
        assert rows["mse_with_diff"].passed

    def test_rot6d_is_one_node_with_a_gradcheck_row(self):
        t = Tensor(np.random.default_rng(25).standard_normal((2, 6)),
                   requires_grad=True)
        with Tape() as tape:
            ad.rot6d(t)
        assert len(tape) == 1
        rows = {r.name: r for r in run_primitive_suite(seed=0)}
        assert rows["rot6d"].passed and rows["rot6d"].tolerance == 1e-4

    def test_constant_inputs_get_no_gradient(self):
        rng = np.random.default_rng(23)
        skel = SkeletonSpec.default()
        const = Tensor(rng.standard_normal((2, 3, 4)))
        w = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        b = Tensor(np.zeros(8), requires_grad=True)
        rot = Tensor(rng.standard_normal((2, skel.joint_count, 3, 3)), requires_grad=True)
        with Tape() as tape:
            h = ad.linear(const, w, b)
            ad.attention(h, Tensor(rng.standard_normal((2, 3, 8))), h, 2)
            ad.fk(skel.parents, skel.offsets, Tensor(np.zeros((2, 3))), rot)
            ad.matmul(const, w)
            ad.mse(h, Tensor(np.zeros((2, 3, 8))))
            ad.gru(const, *GRULayer(4, 3, rng).parameters())
        for out, inputs, bwd in tape._nodes:
            for t, g in zip(inputs, bwd(np.ones(out.shape))):
                assert (g is None) == (not t.requires_grad)


def _per_frame_gru(layer, x, reverse):
    """The GRU one frame at a time from the taped elementwise primitives,
    with the per-gate blocks cut from the layer's fused weights."""
    hd = layer.hidden
    wz, wr, wn = (layer.wx[:, i * hd:(i + 1) * hd] for i in range(3))
    bz, br, bn = (layer.bx[i * hd:(i + 1) * hd] for i in range(3))
    uz, ur, un = (layer.wh[:, i * hd:(i + 1) * hd] for i in range(3))
    cz, cr, cn = (layer.bh[i * hd:(i + 1) * hd] for i in range(3))
    b, t, _ = x.shape
    h = Tensor(np.zeros((b, hd)))
    outs = [None] * t
    for i in (range(t - 1, -1, -1) if reverse else range(t)):
        xt = x[:, i, :]
        z = ad.sigmoid(ad.add(ad.linear(xt, wz, bz), ad.linear(h, uz, cz)))
        r = ad.sigmoid(ad.add(ad.linear(xt, wr, br), ad.linear(h, ur, cr)))
        n = ad.tanh_(ad.add(ad.linear(xt, wn, bn), ad.mul(r, ad.linear(h, un, cn))))
        h = ad.add(ad.mul(ad.sub(1.0, z), n), ad.mul(z, h))
        outs[i] = ad.reshape(h, (b, 1, hd))
    return ad.concat(outs, axis=1), h


class TestGRU:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("frames", [1, 5])
    def test_fused_layer_matches_per_frame_formula(self, frames, reverse):
        rng = np.random.default_rng(24)
        layer = GRULayer(4, 3, rng)
        for p in (layer.bx, layer.bh):
            p.data = rng.standard_normal(p.shape)
        x_data = rng.standard_normal((2, frames, 4))
        w_seq, w_last = rng.standard_normal((2, frames, 3)), rng.standard_normal((2, 3))

        def run(fn):
            x = Tensor(x_data, requires_grad=True)
            with Tape() as tape:
                seq, last = fn(layer, x, reverse)
                tape.backward(ad.add(ad.sum_(ad.mul(seq, w_seq)),
                                     ad.sum_(ad.mul(last, w_last))))
            return [seq.data, last.data, x.grad] + [p.grad for p in layer.parameters()]

        got = run(lambda layer, x, reverse: layer(x, reverse))
        want = run(_per_frame_gru)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    def test_init_draws_the_former_per_gate_order(self):
        layer = GRULayer(5, 3, np.random.default_rng(25))
        rng = np.random.default_rng(25)
        wz, uz, wr, ur, wn, un = (Linear(d, 3, rng).w.data for d in (5, 3) * 3)
        np.testing.assert_array_equal(layer.wx.data, np.hstack([wz, wr, wn]))
        np.testing.assert_array_equal(layer.wh.data, np.hstack([uz, ur, un]))

    def test_one_call_records_two_tape_nodes(self):
        layer = GRULayer(4, 3, np.random.default_rng(26))
        x = Tensor(np.ones((2, 6, 4)), requires_grad=True)
        with Tape() as tape:
            layer(x, reverse=True)
        assert len(tape) <= 2

    def test_large_gate_inputs_stay_finite(self):
        layer = GRULayer(2, 3, np.random.default_rng(27))
        x = Tensor(np.array([[[1e4, -1e4], [-1e4, 1e4]]]), requires_grad=True)
        with np.errstate(all="raise"), Tape() as tape:
            seq, _ = layer(x)
            tape.backward(ad.sum_(seq))
        assert np.all(np.isfinite(seq.data)) and np.all(np.isfinite(layer.wx.grad))


def _clip_like(rng, items=2, frames=6, width=100, const=((10, 50), (60, 96))):
    """(items, frames, width) rows whose ``const`` column runs repeat frame
    0 of each item, as a clip's tempogram columns do."""
    x = rng.standard_normal((items, frames, width))
    for s, e in const:
        x[:, :, s:e] = x[:, :1, s:e]
    return x


def _columns(width, const):
    """The mask of the ``const`` column runs of ``width`` columns."""
    mask = np.zeros(width, dtype=bool)
    for s, e in const:
        mask[s:e] = True
    return mask


class TestSplitLinear:
    """``linear`` of a gradient-free input multiplies per-item constant
    columns once per item."""

    def _full(self, x, w, b):
        return (x.reshape(-1, w.shape[0]) @ w + b).reshape(x.shape[:-1] + b.shape)

    # a toy, then both ears' tempogram runs of a (B, T, 2275) condition input
    @pytest.mark.parametrize("items, frames, width, const", [
        (2, 6, 100, ((10, 50), (60, 96))),
        (3, 20, 2275, ((65, 1133), (1201, 2269)))])
    def test_close_to_full_projection(self, items, frames, width, const):
        rng = np.random.default_rng(30)
        x = _clip_like(rng, items, frames, width, const)
        w, b = rng.standard_normal((width, 16)), rng.standard_normal(16)
        np.testing.assert_array_equal(ad._constant_columns(x), _columns(width, const))
        want = self._full(x, w, b)
        np.testing.assert_allclose(ad.linear(x, w, b).data, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))

    def test_no_repeated_column_is_bit_identical(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((2, 6, 100))
        w, b = rng.standard_normal((100, 7)), rng.standard_normal(7)
        assert ad._constant_columns(x) is None
        np.testing.assert_array_equal(ad.linear(x, w, b).data, self._full(x, w, b))

    def test_one_repeating_item_takes_the_general_path(self):
        rng = np.random.default_rng(33)
        x = _clip_like(rng)
        x[1] = rng.standard_normal(x[1].shape)
        w, b = rng.standard_normal((100, 7)), rng.standard_normal(7)
        assert ad._constant_columns(x) is None
        np.testing.assert_array_equal(ad.linear(x, w, b).data, self._full(x, w, b))

    def test_columns_that_vary_after_frame_1_take_the_general_path(self):
        rng = np.random.default_rng(34)
        x = _clip_like(rng, frames=5)
        x[1, 4, 10:50] += 1.0
        x[0, 3, 60:96] += 1.0
        assert ad._constant_columns(x) is None

    def test_long_clip_features_take_the_general_path(self):
        """Past 534 frames a clip's tempogram rows vary, so its features
        project every frame."""
        from sonomotion.audio import FeatureConfig, extract_binaural
        from sonomotion.dataset import SyntheticSceneSpec, synthesize_pair
        scene = synthesize_pair(SyntheticSceneSpec(duration=18.2, seed=2))
        feats = extract_binaural(scene.clip, FeatureConfig(), 546).values[None]
        assert ad._constant_columns(feats) is None
        rng = np.random.default_rng(35)
        w, b = rng.standard_normal((feats.shape[-1], 4)), rng.standard_normal(4)
        np.testing.assert_array_equal(ad.linear(feats, w, b).data,
                                      self._full(feats, w, b))

    def test_gradients_through_the_split_path(self):
        rng = np.random.default_rng(36)
        x = _clip_like(rng, frames=3)
        wgt = rng.standard_normal((2, 3, 4))
        np.testing.assert_array_equal(ad._constant_columns(x),
                                      _columns(100, ((10, 50), (60, 96))))
        err = check_scalar_fn(lambda w, b: ad.sum_(ad.mul(ad.linear(x, w, b), wgt)),
                              [rng.standard_normal((100, 4)), rng.standard_normal(4)])
        assert err < 1e-4

    def test_scattered_constant_columns_split(self):
        """Constant columns need not be contiguous: every other column of 80
        takes the split path."""
        rng = np.random.default_rng(38)
        x = rng.standard_normal((3, 7, 80))
        x[:, :, ::2] = x[:, :1, ::2]
        w, b = rng.standard_normal((80, 9)), rng.standard_normal(9)
        np.testing.assert_array_equal(ad._constant_columns(x), np.arange(80) % 2 == 0)
        want = self._full(x, w, b)
        np.testing.assert_allclose(ad.linear(x, w, b).data, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))

    def test_every_column_constant(self):
        rng = np.random.default_rng(39)
        x = np.repeat(rng.standard_normal((2, 1, 40)), 4, axis=1)
        w, b = rng.standard_normal((40, 5)), rng.standard_normal(5)
        assert ad._constant_columns(x).all()
        want = self._full(x, w, b)
        np.testing.assert_allclose(ad.linear(x, w, b).data, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))
        g = rng.standard_normal((2, 4, 5))
        wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.sum_(ad.mul(ad.linear(x, wt, bt), g)))
        want_gw = x.reshape(-1, 40).T @ g.reshape(-1, 5)
        np.testing.assert_allclose(wt.grad, want_gw, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want_gw)))
        np.testing.assert_array_equal(bt.grad, g.reshape(-1, 5).sum(axis=0))

    def test_one_frame_or_a_gradient_input_never_splits(self, monkeypatch):
        def fail(*args):
            raise AssertionError("split path taken")

        monkeypatch.setattr(ad, "_constant_columns", fail)
        rng = np.random.default_rng(37)
        w, b = rng.standard_normal((100, 7)), rng.standard_normal(7)
        ad.linear(rng.standard_normal((3, 1, 100)), w, b)
        ad.linear(_clip_like(rng)[0], w, b)              # no item axis
        with Tape():
            ad.linear(Tensor(_clip_like(rng), requires_grad=True), w, b)


class TestGradcheckSuite:
    def test_every_primitive_passes(self):
        rows = run_primitive_suite(seed=0)
        failing = [r.name for r in rows if not r.passed]
        assert not failing, f"gradcheck failures: {failing}"

    def test_numeric_gradient_sane(self):
        x = np.array([2.0])
        g = numeric_gradient(lambda: float(x[0] ** 3), x)
        np.testing.assert_allclose(g, [12.0], rtol=1e-6)


class TestOptimizer:
    def test_zero_grad_zero_decay_no_change(self):
        p = Tensor(np.full(4, 1.5), requires_grad=True)
        p.grad = np.zeros(4)
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_array_equal(p.data, np.full(4, 1.5))

    def test_descends_quadratic(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([2.0])   # gradient of w^2 at w=1
        opt = AdamW([p], lr=0.1)
        opt.step()
        assert p.data[0] < 1.0

    def test_converges_on_convex_quadratic(self):
        rng = np.random.default_rng(5)
        target = rng.standard_normal(6)
        p = Tensor(np.zeros(6), requires_grad=True)
        opt = AdamW([p], lr=0.05)
        loss = None
        for _ in range(200):
            with Tape() as tape:
                loss = ad.mse(p, Tensor(target))
                tape.backward(loss)
            opt.step()
        assert loss.item() < 1e-6

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.ones(3), requires_grad=True)
        p.grad = np.ones(4)
        with pytest.raises(ContractError):
            AdamW([p], lr=0.1).step()

    def test_weight_decay_shrinks(self):
        p = Tensor(np.full(2, 2.0), requires_grad=True)
        p.grad = np.zeros(2)
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        opt.step()
        assert np.all(p.data < 2.0)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        named = [("layer.w", rng.standard_normal((3, 4))),
                 ("layer.b", rng.standard_normal(4)),
                 ("scalar", np.array(2.5))]
        path = tmp_path / "model.snm"
        save_checkpoint(path, named)
        loaded = load_checkpoint(path)
        assert set(loaded) == {"layer.w", "layer.b", "scalar"}
        for name, arr in named:
            np.testing.assert_array_equal(loaded[name], arr)

    def test_little_endian_on_disk(self, tmp_path):
        path = tmp_path / "m.snm"
        save_checkpoint(path, [("x", np.array([1.0]))])
        blob = path.read_bytes()
        assert blob[:8] == b"SNMCKPT1"
        assert np.frombuffer(blob[-8:], dtype="<f8")[0] == 1.0

    def test_truncation_at_every_offset_is_data_error(self, tmp_path):
        path = tmp_path / "m.snm"
        save_checkpoint(path, [("w", np.ones((2, 3))), ("name.b", np.zeros(4)),
                               ("s", np.array(1.5))])
        assert [p.name for p in tmp_path.iterdir()] == ["m.snm"]
        blob = path.read_bytes()
        cut = tmp_path / "cut.snm"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(DataError):
                load_checkpoint(cut)

    def test_module_state_roundtrip(self, tmp_path):
        net = _Net(3)
        path = tmp_path / "net.snm"
        save_checkpoint(path, net.named_parameters())
        net2 = _Net(4)
        net2.load_state(load_checkpoint(path))
        for (_, a), (_, b) in zip(net.named_parameters(), net2.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_save_writes_the_documented_bytes(self, tmp_path):
        """Header fields, then each entry's float64 values, byte for byte."""
        rng = np.random.default_rng(5)
        named = [("w", rng.standard_normal((3, 4))),
                 ("b.\u00e9", rng.standard_normal(4).astype(np.float32)),
                 ("t", rng.standard_normal((4, 3)).T),      # not contiguous
                 ("s", np.array(2.5)), ("e", np.zeros((0, 3)))]
        want = [b"SNMCKPT1", struct.pack("<II", 1, len(named))]
        for name, value in named:
            arr = np.ascontiguousarray(value, dtype=np.float64)
            raw = name.encode("utf-8")
            want += [struct.pack("<H", len(raw)), raw,
                     struct.pack("<B", arr.ndim),
                     struct.pack(f"<{arr.ndim}I", *arr.shape),
                     arr.astype("<f8").tobytes()]
        path = tmp_path / "m.snm"
        save_checkpoint(path, named)
        assert path.read_bytes() == b"".join(want)

    def test_restore_into_params_matches_load_state(self, tmp_path):
        path = tmp_path / "net.snm"
        save_checkpoint(path, [*_Net(3).named_parameters(),
                               ("unused", np.ones(3))])
        by_dict, streamed = _Net(4), _Net(4)
        by_dict.load_state(load_checkpoint(path))
        assert load_checkpoint(path, streamed.named_parameters()) is None
        for (_, a), (_, b) in zip(by_dict.named_parameters(),
                                  streamed.named_parameters()):
            assert a.data.dtype == b.data.dtype == np.float64
            assert a.data.flags.c_contiguous and b.data.flags.c_contiguous
            assert a.data.tobytes() == b.data.tobytes()

    def test_damaged_file_leaves_params_unchanged(self, tmp_path):
        """Every truncation and a duplicated name raise DataError before any
        parameter is replaced."""
        path = tmp_path / "net.snm"
        source = _Net(3)
        save_checkpoint(path, source.named_parameters())
        blob = path.read_bytes()
        damaged = [blob[:n] for n in range(len(blob))]
        save_checkpoint(path, [*source.named_parameters(),
                               ("fc1.w", source.fc1.w.data)])
        damaged.append(path.read_bytes())
        target = _Net(4)
        before = [t.data.tobytes() for t in target.parameters()]
        for data in damaged:
            path.write_bytes(data)
            with pytest.raises(DataError):
                load_checkpoint(path, target.named_parameters())
            assert [t.data.tobytes() for t in target.parameters()] == before
        with pytest.raises(DataError, match="duplicate entry 'fc1.w'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["shape", "missing"])
    def test_mismatch_is_shape_error_before_any_change(self, tmp_path, damage):
        """The last parameter is the bad one, so a check made entry by entry
        would already have replaced the others."""
        named = _Net(3).named_parameters()
        last, _ = named.pop()
        if damage == "shape":
            named.append((last, np.zeros(7)))
        path = tmp_path / "net.snm"
        save_checkpoint(path, named)
        for load in (lambda net: load_checkpoint(path, net.named_parameters()),
                     lambda net: net.load_state(load_checkpoint(path))):
            target = _Net(4)
            before = [t.data.tobytes() for t in target.parameters()]
            with pytest.raises(ShapeError, match=f"'{last}'"):
                load(target)
            assert [t.data.tobytes() for t in target.parameters()] == before

    def test_restore_holds_one_copy_of_the_weights(self, tmp_path):
        net = _Net(3, dims=(256,) * 9)
        path = tmp_path / "net.snm"
        save_checkpoint(path, net.named_parameters())
        params = net.parameters()
        total = sum(t.data.nbytes for t in params)
        largest = max(t.data.nbytes for t in params)
        tracemalloc.start()
        try:
            load_checkpoint(path, net.named_parameters())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < total + largest + 2**20


class _Net(Module):
    def __init__(self, seed, dims=(4, 5, 2)):
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(dims[0], dims[1], rng)
        self.rest = [Linear(a, b, rng) for a, b in zip(dims[1:], dims[2:])]
