"""Per-layer instrumentation for the benchmark's traced run, applied from
outside the package.

Each public function listed in ``TRACED`` is replaced, in every loaded
fedguide module that binds it, by a wrapper recording a span: name, start,
end, parent span, operation id, round index and a few per-call details.
Spans stay in memory and are written out once the run ends. A layer's self
time is its span's duration minus the durations of its traced children.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

from fedguide import nn, rng

# (module, function) pairs the traced run wraps. A function a later version
# of the package no longer has is skipped, and its metrics are absent.
TRACED = (
    ("federation", "run_training"),
    ("federation", "build_clients"),
    ("federation", "build_server"),
    ("federation", "run_round"),
    ("federation", "sample_participants"),
    ("data", "generate_synthetic"),
    ("data", "partition_dirichlet"),
    ("data", "partition_pathological"),
    ("data", "split_client"),
    ("nn", "init_params"),
    ("nn", "grad_params"),
    ("nn", "jvp_guided_batch"),
    ("nn", "forward_batch"),
    ("nn", "run_sgd_epoch"),
    ("nn", "sgd_step"),
    ("nn", "total_loss"),
    ("guidance", "guidance_gradient"),
    ("guidance", "pseudo_train"),
    ("guidance", "local_train_epoch"),
    ("guidance", "server_update"),
    ("guidance", "init_guiding_vectors"),
    ("baselines", "local_prototypes"),
    ("baselines", "aggregate_prototypes"),
    ("metrics", "evaluate"),
    ("rng", "stream"),
    ("cli", "format_metrics_csv"),
)

KERNELS = ("nn.grad_params", "nn.jvp_guided_batch", "nn.forward_batch")
PARTITIONERS = ("data.partition_dirichlet", "data.partition_pathological")

# rng purpose tags reported separately; the other tags (guide init, noise)
# are drawn at most once per run in these workloads.
RNG_PURPOSES = ("DATA", "PARTITION", "SPLIT", "MODEL_INIT", "PARTICIPATION", "EPOCH", "BATCH")

_VARIANT = {widths: i for i, widths in enumerate(nn.DEFAULT_HIDDEN_FAMILY)}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


@functools.lru_cache(maxsize=None)
def _shape(spec) -> tuple[str, tuple[int, ...]]:
    """Variant label and multiply-accumulates per row of each affine block."""
    variant = _VARIANT.get(spec.hidden_widths)
    label = f"v{variant}" if variant is not None else "other"
    return label, tuple(fan_in * fan_out for fan_in, fan_out in nn.affine_dims(spec))


def kernel_mflop(kind: str, spec, rows: int, space: str | None = None) -> float:
    """Matrix-multiply MFLOP of one kernel call, computed from layer shapes.

    forward: 2 flops per multiply-accumulate. grad_params: the forward pass
    plus weight and input gradients, three times forward. jvp: value and
    tangent through each extractor block (6 per MAC), and in logit space the
    head's tangent only (4 per MAC). Elementwise work is not counted.
    """
    macs = _shape(spec)[1]
    if kind == "nn.forward_batch":
        flops = 2 * rows * sum(macs)
    elif kind == "nn.grad_params":
        flops = 6 * rows * sum(macs)
    else:
        flops = 6 * rows * sum(macs[:-1]) + (4 * rows * macs[-1] if space == "logit" else 0)
    return flops / 1e6


def _kernel_detail(name, args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    rows = len(_arg(args, kwargs, 2, "batch" if name == "nn.grad_params" else "inputs"))
    space = _arg(args, kwargs, 4, "space") if name == "nn.jvp_guided_batch" else None
    return _shape(spec)[0], rows, kernel_mflop(name, spec, rows, space)


# Per-call details a span keeps, by span name.
_DETAIL = {
    **{k: functools.partial(_kernel_detail, k) for k in KERNELS},
    "federation.run_round": lambda a, k: _arg(a, k, 0, "server").t + 1,
    "rng.stream": lambda a, k: a[1] if len(a) > 1 else None,
    "metrics.evaluate": lambda a, k: sum(
        len(data.test) + len(data.study) for _, _, data in _arg(a, k, 0, "clients")
    ),
    "guidance.server_update": lambda a, k: sum(
        g.uploaded_rows for g in _arg(a, k, 1, "grads")
    ),
}


class Patch:
    """Swaps functions for wrappers in every loaded fedguide module that binds
    them: consumers do ``from .nn import grad_params``, so replacing the
    defining module's attribute alone would miss their calls. Leaving the
    ``with`` block puts every original back."""

    def __init__(self):
        self._undo = []

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def wrap(self, module: str, name: str, make_wrapper) -> bool:
        original = getattr(sys.modules.get(f"fedguide.{module}"), name, None)
        if original is None:
            return False
        wrapper = functools.wraps(original)(make_wrapper(original))
        for key, mod in list(sys.modules.items()):
            if key == "fedguide" or key.startswith("fedguide."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))
        return True


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, op: int = 0):
        self.op = op
        self.round = 0
        self.spans: list = []
        self.wrapped: list[str] = []
        self._stack: list[int] = []
        self._epoch = time.perf_counter()

    def install(self, patch: Patch):
        for module, name in TRACED:
            span_name = f"{module}.{name}"
            if patch.wrap(module, name, functools.partial(self._wrapper, span_name)):
                self.wrapped.append(span_name)

    def _wrapper(self, name, fn):
        detail_of = _DETAIL.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            detail = detail_of(args, kwargs) if detail_of else None
            if name == "federation.run_round":
                self.round = detail
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, self.round, detail)

        return traced

    def write(self, path):
        """Write the spans as gzipped JSON lines, times in seconds since the
        tracer was created."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, start, end, parent, op, rnd, detail in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - self._epoch,
                            "end": end - self._epoch,
                            "parent": parent,
                            "op": op,
                            "round": rnd,
                            "detail": detail,
                        }
                    )
                    + "\n"
                )

    def kernel_table(self) -> list[tuple]:
        """Rows (kernel, variant, batch rows up to, calls, us per call,
        computed MFLOP/s), batch rows bucketed to the next power of two."""
        groups = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, *_, detail in self.spans:
            if name in KERNELS:
                variant, rows, mflop = detail
                group = groups[(name, variant, 1 << (rows - 1).bit_length())]
                group[0] += 1
                group[1] += end - start
                group[2] += mflop
        return [
            (*key, n, seconds * 1e6 / n, mflop / seconds)
            for key, (n, seconds, mflop) in sorted(groups.items())
        ]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every recorded span.

        For each wrapped function: calls, ms (inclusive), self_ms and
        us_per_call (inclusive). For the kernels also us_per_call per model
        variant, and computed rows and MFLOP. Functions never called report
        zero.
        """
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls = defaultdict(int)
        incl_s = defaultdict(float)
        self_s = defaultdict(float)
        details = defaultdict(list)
        for i, (name, start, end, _, _, _, detail) in enumerate(self.spans):
            calls[name] += 1
            incl_s[name] += end - start
            self_s[name] += end - start - child_s[i]
            if detail is not None:
                details[name].append((detail, end - start))

        out: dict[str, float] = {}
        for name in self.wrapped:
            n = calls[name]
            out[f"{name}.calls"] = n
            out[f"{name}.ms"] = incl_s[name] * 1e3
            out[f"{name}.self_ms"] = self_s[name] * 1e3
            out[f"{name}.us_per_call"] = incl_s[name] * 1e6 / n if n else 0.0

        kernels = [k for k in KERNELS if k in self.wrapped]
        if kernels:
            rows = mflop = seconds = 0.0
            for name in kernels:
                per_variant = defaultdict(lambda: [0, 0.0])
                for (variant, n_rows, call_mflop), dur in details[name]:
                    per_variant[variant][0] += 1
                    per_variant[variant][1] += dur
                    rows += n_rows
                    mflop += call_mflop
                for variant in (f"v{i}" for i in range(len(nn.DEFAULT_HIDDEN_FAMILY))):
                    n, dur = per_variant[variant]
                    out[f"{name}.{variant}.us_per_call"] = dur * 1e6 / n if n else 0.0
                seconds += incl_s[name]
            out["nn.kernel.rows"] = rows
            out["nn.kernel.mflop"] = mflop
            out["nn.kernel.mflop_per_s"] = mflop / seconds if seconds else 0.0

        if "metrics.evaluate" in self.wrapped:
            out["metrics.evaluate.samples"] = sum(d for d, _ in details["metrics.evaluate"])
        if "guidance.server_update" in self.wrapped:
            out["guidance.upload_rows"] = sum(d for d, _ in details["guidance.server_update"])
        partitioners = [p for p in PARTITIONERS if p in self.wrapped]
        if partitioners:
            out["data.partition.ms"] = sum(incl_s[p] for p in partitioners) * 1e3
        if "rng.stream" in self.wrapped:
            by_purpose = defaultdict(lambda: [0, 0.0])
            for purpose, dur in details["rng.stream"]:
                by_purpose[purpose][0] += 1
                by_purpose[purpose][1] += dur
            for label in RNG_PURPOSES:
                tag = getattr(rng, label, None)
                if tag is not None:
                    n, dur = by_purpose[tag]
                    out[f"rng.stream.{label}.calls"] = n
                    out[f"rng.stream.{label}.ms"] = dur * 1e3
            if partitioners and hasattr(rng, "PARTITION"):
                # Each partition attempt draws from its own PARTITION stream.
                out["data.partition.attempts"] = by_purpose[rng.PARTITION][0]
        return out


def _digest(values) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for value in values:
        if isinstance(value, np.ndarray):
            h.update(repr((value.shape, value.dtype.str)).encode())
            h.update(np.ascontiguousarray(value))
        else:
            h.update(repr(value).encode())
    return h.digest()


class DupCounter:
    """Counts grad_params calls whose spec, parameters, batch and loss config
    equal an earlier call in the same round.

    The key includes the parameters, which differ between clients, so a
    repeat within a round is a repeat within one client's work. Hashing the
    arguments is costly, so this runs in its own pass, not in the traced one.
    """

    def __init__(self):
        self.calls = 0
        self.dups = 0
        self._seen: set[bytes] = set()

    def install(self, patch: Patch) -> bool:
        return patch.wrap("federation", "run_round", self._round_scope) and patch.wrap(
            "nn", "grad_params", self._counted
        )

    def _round_scope(self, fn):
        def scoped(*args, **kwargs):
            self._seen.clear()
            return fn(*args, **kwargs)

        return scoped

    def _counted(self, fn):
        def counted(*args, **kwargs):
            params = _arg(args, kwargs, 1, "params")
            batch = _arg(args, kwargs, 2, "batch")
            cfg = _arg(args, kwargs, 3, "cfg")
            key = _digest(
                (
                    _arg(args, kwargs, 0, "spec"),
                    params.flat,
                    batch.inputs,
                    batch.labels,
                    *(getattr(cfg, f.name) for f in dataclasses.fields(cfg)),
                )
            )
            self.calls += 1
            if key in self._seen:
                self.dups += 1
            else:
                self._seen.add(key)
            return fn(*args, **kwargs)

        return counted
