"""Contract between the engine and the benchmark's traced run.

``perfbench/tracing.py`` wraps engine functions by name and reads their
arguments; a renamed or bypassed function silently empties its per-layer
metrics, and a zero ``grad_params`` count breaks the duplicate-gradient
ratio. ``perfbench/run.py`` prints its result as JSON, so a metric that is
absent or not finite spoils that result line. This imports the harness
module unmodified and runs every method under its Tracer and DupCounter,
as ``perfbench/run.py --trace 1`` does.
"""

import json
import math
import sys
from pathlib import Path

import pytest

import fedguide.cli  # noqa: F401  (loaded before patching, as perfbench/run.py does)
from fedguide.federation import METHODS, run_training

from helpers import small_config

ROOT = Path(__file__).resolve().parents[1]
GUIDED_METHODS = ("fedl2g-l", "fedl2g-f")
sys.path.insert(0, str(ROOT / "perfbench"))
import tracing  # noqa: E402

# Per-layer metrics perfbench/run.py computes itself, outside Tracer.metrics().
RUN_PY_METRICS = {
    "nn.grad_params.dup_calls",
    "nn.grad_params.useful_ratio",
    "federation.run_round.p50_ms",
    "federation.save_checkpoint.ms",
    "federation.save_checkpoint.bytes",
    "federation.load_checkpoint.ms",
    "trace.overhead_ratio",
}

# Kernel calls of small_config(rounds=4) per method. The kernels share a
# private forward pass that must not call through a traced name: a count
# that moves shows that it does, or that the engine's kernel calls changed.
KERNEL_CALLS = {
    "fedl2g-l": {"grad_params": 78, "forward_batch": 36, "jvp_guided_batch": 20},
    "fedl2g-f": {"grad_params": 78, "forward_batch": 36, "jvp_guided_batch": 20},
    "fedproto": {"grad_params": 96, "forward_batch": 48, "jvp_guided_batch": 0},
    "feddistill": {"grad_params": 96, "forward_batch": 48, "jvp_guided_batch": 0},
    "local-only": {"grad_params": 96, "forward_batch": 48, "jvp_guided_batch": 0},
}

# rng.stream calls of small_config(rounds=4) by purpose, the same for every
# method: the one-off data, partition and participation draws go through
# the traced name, while the per-client streams come from precomputed
# words: the set-up's SPLIT and MODEL_INIT streams from one derivation per
# purpose, and the per-round EPOCH and BATCH (and NOISE) streams from the
# run's table. A count that moves shows that a draw was routed around the
# traced name, or back through it.
STREAM_CALLS = {
    "DATA": 1,
    "PARTITION": 1,
    "SPLIT": 0,
    "MODEL_INIT": 0,
    "PARTICIPATION": 4,
    "EPOCH": 0,
    "BATCH": 0,
}

# local_prototypes calls of small_config(rounds=4): one per group and round,
# five groups of six clients (clients 0 and 5 share an architecture).
PROTOTYPE_CALLS = {"fedproto": 20, "feddistill": 20}


@pytest.mark.parametrize("method", METHODS)
def test_traced_run_calls_every_traced_layer(method):
    cfg = small_config(method, rounds=4)
    tracer = tracing.Tracer()
    with tracing.Patch() as patch:
        tracer.install(patch)
        run_training(cfg)
    counter = tracing.DupCounter()
    with tracing.Patch() as patch:
        assert counter.install(patch)
        run_training(cfg)

    metrics = tracer.metrics()
    tracer.kernel_table()
    assert {f"{m}.{n}" for m, n in tracing.TRACED} <= set(tracer.wrapped)
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    absent = {m["name"] for m in declared} - RUN_PY_METRICS - set(metrics)
    assert not absent, f"declared per-layer metrics not produced: {sorted(absent)}"
    called = ["nn.grad_params", "nn.forward_batch", "nn.run_sgd_epoch", "metrics.evaluate"]
    if method in GUIDED_METHODS:
        called += ["nn.jvp_guided_batch", "guidance.guidance_gradient", "guidance.server_update"]
    for name in called:
        assert name in tracer.wrapped, name
        assert metrics[f"{name}.calls"] > 0, name
    calls = {k: metrics[f"nn.{k}.calls"] for k in KERNEL_CALLS[method]}
    assert calls == KERNEL_CALLS[method]
    streams = {k: metrics[f"rng.stream.{k}.calls"] for k in STREAM_CALLS}
    assert streams == STREAM_CALLS
    guide_init = 1 if method in GUIDED_METHODS else 0
    assert metrics["rng.stream.calls"] == sum(STREAM_CALLS.values()) + guide_init
    assert metrics["baselines.local_prototypes.calls"] == PROTOTYPE_CALLS.get(method, 0)
    # Both passes see the same gradient calls, and every epoch's SGD steps
    # reach the traced name inside its span: a bypassed kernel fails here
    # instead of ending the benchmark's traced run without its result.
    assert counter.calls == metrics["nn.grad_params.calls"]
    assert metrics["nn.grad_params.calls"] > metrics["nn.run_sgd_epoch.calls"]
    epochs = {i for i, span in enumerate(tracer.spans) if span[0] == "nn.run_sgd_epoch"}
    steps = [span for span in tracer.spans if span[0] == "nn.grad_params" and span[3] in epochs]
    assert {span[3] for span in steps} == epochs
