"""Span tracing for the benchmark's traced round.

The tracer wraps the public functions of the sonomotion modules at the place
their callers look them up: the module globals of every sonomotion module
that binds the function (``cli`` imports ``extract_binaural`` by name, so the
copy in ``cli`` is wrapped too) and the class attributes of methods. The
wrappers exist only between ``install`` and ``uninstall``; nothing under
``src/`` changes.

Each wrapped call appends one span ``[name, start, end, parent, extra]`` to an
in-memory list; ``parent`` is the index of the enclosing span or -1. The list
is written out once, after the round. Backward time per taped op comes from
wrapping ``Tape.record``: the backward closure of each recorded node is
replaced by a timed one named after the op that recorded it. Calls of a
denoiser's condition projection (its ``cond_proj`` Linear) are spans of their
own, wherever they are made from.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict

AUTODIFF_OPS = ("add", "sub", "neg", "mul", "div", "matmul", "concat", "slice_",
                "reshape", "transpose", "sum_", "mean", "mse", "layer_norm",
                "softmax", "relu", "gelu", "tanh_", "sigmoid", "sqrt_", "cross",
                "embedding")
# the ops whose per-step figures are reported
REPORTED_OPS = ("matmul", "add", "mul", "div", "softmax", "gelu", "layer_norm",
                "slice_", "reshape", "transpose", "concat", "mse")

MODULES = ("audio", "autodiff", "checkpoint", "cli", "dataset", "denoiser",
           "diffusion", "evalsuite", "gradcheck", "losses", "nn", "optim",
           "skeleton")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# (module, attribute, span name, extra) where extra maps (args, result) to a
# number stored on the span.
FUNCTION_TARGETS = [
    *[("autodiff", op, f"autodiff.{op}", None) for op in AUTODIFF_OPS],
    ("losses", "l_data", "losses.l_data", None),
    ("losses", "l_geo", "losses.l_geo", None),
    ("losses", "l_foot", "losses.l_foot", None),
    ("losses", "l_traj", "losses.l_traj", None),
    ("losses", "l_rot", "losses.l_rot", None),
    ("losses", "total_loss", "losses.total_loss", None),
    ("denoiser", "train_denoiser", "denoiser.train", None),
    ("denoiser", "sample_motion", "denoiser.sample_motion", None),
    ("diffusion", "q_sample", "diffusion.q_sample", None),
    ("diffusion", "sample_array", "diffusion.sample_array", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save",
     lambda args, result: _file_size(args[0])),
    ("checkpoint", "load_checkpoint", "checkpoint.load",
     lambda args, result: _file_size(args[0])),
    ("skeleton", "save_motion", "skeleton.save_motion", None),
    ("skeleton", "load_motion", "skeleton.load_motion", None),
    ("skeleton", "normalize_sequence", "skeleton.normalize_sequence", None),
    ("skeleton", "forward_kinematics", "skeleton.forward_kinematics", None),
    ("audio", "stft", "audio.stft", None),
    ("audio", "mfcc_with_delta", "audio.mfcc_with_delta", None),
    ("audio", "cq_chroma", "audio.cq_chroma", None),
    ("audio", "stft_chroma", "audio.stft_chroma", None),
    ("audio", "rhythm_features", "audio.rhythm_features", None),
    ("audio", "energy_features", "audio.energy_features", None),
    ("audio", "extract_binaural", "audio.extract_binaural",
     lambda args, result: args[0].duration),
    ("audio", "read_wav", "audio.read_wav", None),
    ("audio", "write_wav", "audio.write_wav", None),
    ("audio", "feature_cache_key", "audio.cache_key", None),
    ("audio", "save_feature_cache", "audio.cache_save", None),
    ("audio", "load_feature_cache", "audio.cache_load", None),
    ("dataset", "synthesize_motion", "dataset.synthesize_motion", None),
    ("dataset", "render_binaural", "dataset.render_binaural", None),
    ("dataset", "load_sample", "dataset.load_sample", None),
    ("dataset", "load_split", "dataset.load_split", None),
    ("dataset", "fit_feature_stats", "dataset.fit_feature_stats", None),
    ("evalsuite", "train_extractor", "evalsuite.train_extractor", None),
    ("evalsuite", "extract_features", "evalsuite.extract_features", None),
    ("evalsuite", "r_precision", "evalsuite.r_precision", None),
    ("evalsuite", "fid", "evalsuite.fid", None),
    ("evalsuite", "diversity", "evalsuite.diversity", None),
    ("evalsuite", "apd", "evalsuite.apd", None),
]

# (module, class, method, span name, extra)
METHOD_TARGETS = [
    ("autodiff", "Tape", "backward", "autodiff.backward",
     lambda args, result: len(args[0])),
    ("nn", "SelfAttention", "__call__", "nn.attention", None),
    ("nn", "CrossAttention", "__call__", "nn.attention", None),
    ("nn", "FeedForward", "__call__", "nn.feedforward", None),
    ("nn", "LayerNorm", "__call__", "nn.layernorm", None),
    ("nn", "GRULayer", "__call__", "nn.gru", None),
    ("denoiser", "MotionDenoiser", "predict_x0", "denoiser.forward", None),
    ("optim", "AdamW", "step", "optim.step", None),
]


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cond_projs: list = []     # cond_proj of each denoiser built

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around one of its calls."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, extra=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if extra is not None:
                tracer.spans[idx][4] = extra(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib
        mods = {m: importlib.import_module(f"sonomotion.{m}") for m in MODULES}
        for mod_name, attr, name, extra in FUNCTION_TARGETS:
            original = getattr(mods[mod_name], attr)
            wrapped = self.wrap(original, name, extra)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        for mod_name, cls_name, method, name, extra in METHOD_TARGETS:
            cls = getattr(mods[mod_name], cls_name)
            original = cls.__dict__[method]
            wrapped = self.wrap(original, name, extra)
            for key, value in list(vars(cls).items()):
                if value is original:     # e.g. MotionDenoiser.__call__
                    self._set(cls, key, wrapped)
        tape_cls = mods["autodiff"].Tape
        self._set(tape_cls, "record", self._timed_record(tape_cls.record))
        self._trace_cond_proj(mods["denoiser"].MotionDenoiser, mods["nn"].Linear)

    def _trace_cond_proj(self, model_cls, linear_cls) -> None:
        """Span each call of a denoiser's ``cond_proj``: the denoisers built
        while installed register it, and ``Linear.__call__`` spans only the
        registered instances."""
        tracer = self
        init, call = model_cls.__init__, linear_cls.__call__
        traced_call = self.wrap(call, "denoiser.cond_proj")

        def __init__(model, *args, **kwargs):
            init(model, *args, **kwargs)
            proj = getattr(model, "cond_proj", None)
            if proj is not None:
                tracer._cond_projs.append(proj)

        def __call__(linear, x):
            if any(linear is p for p in tracer._cond_projs):
                return traced_call(linear, x)
            return call(linear, x)

        self._set(model_cls, "__init__", __init__)
        self._set(linear_cls, "__call__", __call__)

    def _timed_record(self, original_record):
        tracer = self

        def record(tape, out, inputs, backward_fn):
            op_span = tracer.spans[tracer._stack[-1]]
            op_span[4] = 1                    # this op call added a tape node
            name = "autodiff.bwd." + op_span[0].rsplit(".", 1)[-1]
            return original_record(tape, out, inputs,
                                   tracer.wrap(backward_fn, name))

        return record

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._cond_projs.clear()

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# per-layer figures derived from the spans


class SpanStats:
    """Counts, inclusive and self time per (root span, span name)."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.root = [0] * n
        child = [0.0] * n
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            self.root[i] = i if parent < 0 else self.root[parent]
            if parent >= 0:
                child[parent] += t1 - t0
        # (root name or "*", span name) -> [count, inclusive s, self s]
        self.by: dict[tuple[str, str], list] = {}
        self.extras = defaultdict(list)
        for i, (name, t0, t1, _, extra) in enumerate(spans):
            for key in ((spans[self.root[i]][0], name), ("*", name)):
                rec = self.by.setdefault(key, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += (t1 - t0) - child[i]
            if extra is not None:
                self.extras[name].append(extra)

    def count(self, name: str, root: str = "*") -> int:
        return self.by.get((root, name), (0, 0.0, 0.0))[0]

    def incl(self, name: str, root: str = "*") -> float:
        return self.by.get((root, name), (0, 0.0, 0.0))[1]

    def self_time(self, name: str, root: str = "*") -> float:
        return self.by.get((root, name), (0, 0.0, 0.0))[2]

    def mean_ms(self, name: str, root: str = "*") -> float:
        n = self.count(name, root)
        return 1e3 * self.incl(name, root) / n if n else 0.0

    def self_by_module(self) -> dict[str, float]:
        out = defaultdict(float)
        for (root, name), (_, _, self_s) in self.by.items():
            if root == "*":
                out[name.split(".", 1)[0]] += self_s
        return out

    def step_durations(self, root: str) -> list[float]:
        """Per optimizer step: from the step's q_sample start to AdamW.step end."""
        out, start = [], None
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            if self.spans[self.root[i]][0] != root:
                continue
            if name == "diffusion.q_sample":
                start = t0
            elif name == "optim.step" and start is not None:
                out.append(t1 - start)
                start = None
        return out

    def count_within(self, name: str, container: str) -> int:
        """Spans called ``name`` that run inside a span called ``container``."""
        windows = [(t0, t1) for (n, t0, t1, _, _) in self.spans if n == container]
        return sum(1 for (n, t0, _, _, _) in self.spans if n == name
                   and any(a <= t0 <= b for a, b in windows))


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[list], model_root: str | None,
                  clips: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced round, as {name: (value, unit)}.

    ``model_root`` names the root span whose predict_x0 calls define a model
    step (``cli.train`` for training, ``cli.sample`` for sampling); autodiff,
    nn, denoiser-forward and loss figures are per model step inside it.
    ``clips`` gives the clip count seen by each ``features`` root span.
    """
    st = SpanStats(spans)
    m: dict[str, tuple[float, str]] = {}
    root = model_root or "-"
    steps = st.count("denoiser.forward", root)

    for op in REPORTED_OPS:
        m[f"autodiff.fwd_ms.{op}"] = (
            1e3 * _div(st.self_time(f"autodiff.{op}", root), steps), "ms")
        m[f"autodiff.bwd_ms.{op}"] = (
            1e3 * _div(st.incl(f"autodiff.bwd.{op}", root), steps), "ms")
        m[f"autodiff.calls.{op}"] = (
            _div(st.count(f"autodiff.{op}", root), steps), "count")
    m["autodiff.backward_ms"] = (
        1e3 * _div(st.incl("autodiff.backward", root), steps), "ms")
    nodes = [s[4] for i, s in enumerate(spans) if s[0] == "autodiff.backward"
             and spans[st.root[i]][0] == root]
    m["autodiff.tape_nodes_per_step"] = (_div(sum(nodes), len(nodes)), "count")

    for key in ("attention", "feedforward", "layernorm"):
        m[f"nn.{key}_ms"] = (1e3 * _div(st.incl(f"nn.{key}", root), steps), "ms")
    m["nn.gru_ms"] = (1e3 * _div(st.incl("nn.gru", "cli.eval"),
                                 st.count("cli.eval")), "ms")

    m["denoiser.forward_ms"] = (st.mean_ms("denoiser.forward", root), "ms")
    step_times = st.step_durations("cli.train")
    m["denoiser.train_step_ms"] = (
        1e3 * _div(sum(step_times), len(step_times)), "ms")
    m["denoiser.cond_proj_calls_per_seq"] = (
        _div(st.count("denoiser.cond_proj", "cli.sample"),
             st.count("denoiser.sample_motion", "cli.sample")), "count")

    train_steps = st.count("optim.step", "cli.train")
    for term in ("l_data", "l_geo", "l_foot", "l_traj", "l_rot", "total_loss"):
        m[f"losses.{term}_ms"] = (
            1e3 * _div(st.incl(f"losses.{term}", "cli.train"), train_steps), "ms")
    op_names = {f"autodiff.{op}" for op in AUTODIFF_OPS}
    in_geo = [False] * len(spans)
    geo_nodes = 0
    for i, (name, _, _, parent, extra) in enumerate(spans):
        in_geo[i] = parent >= 0 and (spans[parent][0] == "losses.l_geo"
                                     or in_geo[parent])
        geo_nodes += in_geo[i] and extra == 1 and name in op_names
    m["losses.l_geo_tape_nodes_per_step"] = (_div(geo_nodes, train_steps), "count")

    m["optim.step_ms"] = (st.mean_ms("optim.step"), "ms")
    m["diffusion.q_sample_ms"] = (st.mean_ms("diffusion.q_sample"), "ms")
    chain = (st.incl("diffusion.sample_array", "cli.sample")
             - st.incl("denoiser.forward", "cli.sample"))
    m["diffusion.chain_overhead_ms_per_step"] = (
        1e3 * _div(chain, st.count("denoiser.forward", "cli.sample")), "ms")

    m["checkpoint.save_ms"] = (st.mean_ms("checkpoint.save"), "ms")
    m["checkpoint.load_ms"] = (st.mean_ms("checkpoint.load"), "ms")
    sizes = st.extras["checkpoint.save"] + st.extras["checkpoint.load"]
    m["checkpoint.bytes"] = (float(max(sizes, default=0)), "B")

    for fn in ("save_motion", "load_motion", "normalize_sequence",
               "forward_kinematics"):
        m[f"skeleton.{fn}_ms"] = (st.mean_ms(f"skeleton.{fn}"), "ms")

    audio_s = sum(st.extras["audio.extract_binaural"])
    for block in ("stft", "mfcc_with_delta", "cq_chroma", "stft_chroma",
                  "rhythm_features", "energy_features", "extract_binaural"):
        m[f"audio.{block}_ms_per_audio_s"] = (
            1e3 * _div(st.incl(f"audio.{block}"), audio_s), "ms/audio-s")
    m["audio.stft_calls_per_clip"] = (
        _div(st.count("audio.stft"), st.count("audio.extract_binaural")), "count")
    for phase in ("cold", "warm"):
        m[f"audio.extract_calls_per_clip.{phase}"] = (
            _div(st.count("audio.extract_binaural", f"cli.features.{phase}"),
                 clips.get(phase, 0)), "count")
    for fn in ("read_wav", "write_wav", "cache_key", "cache_save", "cache_load"):
        m[f"audio.{fn}_ms"] = (st.mean_ms(f"audio.{fn}"), "ms")
    misses = st.count("audio.cache_save")
    m["audio.cache_hits"] = (float(st.count("audio.cache_key") - misses), "count")
    m["audio.cache_misses"] = (float(misses), "count")

    for fn in ("synthesize_motion", "render_binaural", "load_sample",
               "fit_feature_stats"):
        m[f"dataset.{fn}_ms"] = (st.mean_ms(f"dataset.{fn}"), "ms")

    ext_steps = st.count_within("autodiff.backward", "evalsuite.train_extractor")
    m["evalsuite.extractor_step_ms"] = (
        1e3 * _div(st.incl("evalsuite.train_extractor"), ext_steps), "ms")
    m["evalsuite.extract_features_ms"] = (
        st.mean_ms("evalsuite.extract_features"), "ms")
    metric_s = sum(st.incl(f"evalsuite.{fn}")
                   for fn in ("r_precision", "fid", "diversity", "apd"))
    m["evalsuite.metrics_ms"] = (
        1e3 * _div(metric_s, st.count("cli.eval")), "ms")

    self_times = st.self_by_module()
    for mod in ("autodiff", "nn", "denoiser", "losses", "optim", "diffusion",
                "checkpoint", "skeleton", "audio", "dataset", "evalsuite"):
        m[f"self_ms.{mod}"] = (1e3 * self_times.get(mod, 0.0), "ms")
    # root spans are the benchmark's own: their self time is program code
    # outside every wrapped call
    m["self_ms.unwrapped"] = (1e3 * (self_times.get("cli", 0.0)
                                     + self_times.get("bench", 0.0)), "ms")
    m["trace.spans"] = (float(len(spans)), "count")
    return m
