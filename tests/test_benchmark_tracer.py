"""The benchmark's tracer finds every name it patches.

``benchmark/tracing.py`` wraps package functions and methods by looking them
up by name (``losses.l_data``, ``nn.SelfAttention.__call__``,
``AdamW.__dict__["step"]``, ``MotionDenoiser.cond_proj`` and others), so
deleting or renaming one of them breaks a traced benchmark run. The
benchmark's own tests are not collected with these, hence this guard.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    yield tracing
    sys.modules.pop("tracing", None)


def test_install_and_uninstall(tracing):
    from sonomotion import losses
    from sonomotion.optim import AdamW
    originals = (losses.l_data, AdamW.__dict__["step"])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert losses.l_data is not originals[0]
        assert AdamW.__dict__["step"] is not originals[1]
    finally:
        tracer.uninstall()
    assert (losses.l_data, AdamW.__dict__["step"]) == originals
