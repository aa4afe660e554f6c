"""Dense-network kernel: forward pass, exact reverse-mode parameter
gradients, and forward-mode directional derivatives (Jacobian-vector
products), all in float64.

Every client model is a small MLP split into a feature extractor (hidden
layers plus a linear projection to the feature dimension) and a single
affine classifier head, matching the convention that extractors vary across
clients while head shape stays K -> C. Parameters live in one flat vector;
blocks are views into it, so unpacking is free and serialization trivial.
The block layout is a function of the spec alone (``_layout``), so a
``ModelParams`` carries only its vector.

The forward pass is written once (``_forward``). The three kernels all use
first-order derivatives only, so each runs that same pass: ``forward_batch``
returns its last two outputs, ``grad_params`` back-propagates through every
layer's output, and ``jvp_guided_batch`` pushes tangents through it, taking
each activation's derivative from the layer's output. A JVP at the params and
inputs of a gradient call takes that call's pass instead of running its own.

The functions here never mutate their inputs and write only into an
``out`` or ``layers_out`` the caller passes in, except ``run_sgd_epoch``,
which steps the parameter stack it is given in place. The block views of a
``ModelParams`` are built on its first use and cached on the object; it is
frozen, so they always address its own ``flat``. A gradient buffer is a
``ModelParams`` too, so its block views are bound once and reused by every
call that writes into it.

The gradient kernels are rank-polymorphic: given a stack of k clients of one
architecture (``params.flat`` (k, P), inputs (k, n, d), labels (k, n)) they
return k results, and slice j equals, bit for bit, the call on client j
alone. Each product is one stacked ``np.matmul`` over equal-shaped slices,
which computes every slice exactly as the unstacked 2-D product does; rows
of different sizes are never padded or concatenated, because a BLAS row
result can depend on the row count.

A gradient's zeros may carry either sign: each keeps the sign the sums and
products that made it give it, and none is made +0.0 afterwards. No output
reads the sign. A parameter is never -0.0 (init gives -b + 2b*u, at worst +0.0,
and x - y is -0.0 only when x is), so a step theta - eta * g is the same
for g = +-0; a squared norm drops the sign; and a sum into a zeroed buffer
turns -0.0 into +0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ContractViolation

ACTIVATIONS = ("relu", "tanh")

# The output a guide term targets: the logits or the extractor's features.
SPACES = ("logit", "feature")

# Hidden-width variants for the heterogeneous model family; client i gets
# variant i mod 5, so width and depth differ across clients while the
# feature dimension and head shape stay shared.
DEFAULT_HIDDEN_FAMILY = ((16,), (32,), (32, 16), (64, 32), (64, 32, 16))


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of one client model: extractor widths plus head shape."""

    input_dim: int
    hidden_widths: tuple[int, ...]
    feature_dim: int
    class_count: int
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1 or self.feature_dim < 1 or self.class_count < 1:
            raise ContractViolation("ModelSpec dimensions must be positive")
        if len(self.hidden_widths) < 1 or any(w < 1 for w in self.hidden_widths):
            raise ContractViolation("ModelSpec needs at least one hidden layer, widths >= 1")
        if self.activation not in ACTIVATIONS:
            raise ContractViolation(f"unknown activation {self.activation!r}")

    @property
    def depth(self) -> int:
        return len(self.hidden_widths)


def affine_dims(spec: ModelSpec) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of every affine block, extractor layers then head."""
    dims = [spec.input_dim, *spec.hidden_widths, spec.feature_dim]
    pairs = [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    pairs.append((spec.feature_dim, spec.class_count))
    return pairs


@lru_cache(maxsize=None)
def _layout(spec: ModelSpec) -> tuple[tuple[int, ...], int]:
    """Flat-vector offsets of each affine block and the extractor end index."""
    offsets = [0]
    for fan_in, fan_out in affine_dims(spec):
        offsets.append(offsets[-1] + fan_out * fan_in + fan_out)
    extractor_end = offsets[-2]  # everything before the head block
    return tuple(offsets), extractor_end


def param_count(spec: ModelSpec) -> int:
    return _layout(spec)[0][-1]


@dataclass(frozen=True)
class ModelParams:
    """Flat float64 parameter vector of one model, laid out by its spec.

    With ``offsets, extractor_end = _layout(spec)``,
    ``flat[offsets[i]:offsets[i+1]]`` is affine block i (weights row-major,
    then biases) and ``flat[:extractor_end]`` is exactly the extractor. A
    stack of k same-spec clients has ``flat`` of shape (k, P). Frozen, so
    ``flat`` is never rebound and the cached block views stay valid;
    updating ``flat`` in place shows through them.
    """

    flat: np.ndarray
    _views: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _prefixes: dict | None = field(default=None, init=False, repr=False, compare=False)

    def blocks(self, spec: "ModelSpec") -> list[tuple[np.ndarray, ...]]:
        """(W, W^T, b, b as a row) views of every affine block of ``flat``,
        built once per object (see _bound_views)."""
        views = self._views
        # Identity first: the spec objects of a run are shared, and the
        # dataclass __eq__ is slow.
        if views is None or (views[0] is not spec and views[0] != spec):
            views = (spec, _bound_views(spec, self.flat))
            object.__setattr__(self, "_views", views)
        return views[1]

    def prefix(self, rows: int) -> "ModelParams":
        """The first ``rows`` clients of a (k, P) stack, sharing its memory:
        the stack itself for all k, otherwise an object made on first use
        and kept, so its block views too are bound once."""
        if rows == self.flat.shape[0]:
            return self
        prefixes = self._prefixes
        if prefixes is None:
            prefixes = {}
            object.__setattr__(self, "_prefixes", prefixes)
        found = prefixes.get(rows)
        if found is None:
            found = prefixes[rows] = ModelParams(self.flat[:rows])
        return found


def init_params(spec: ModelSpec, rng: np.random.Generator) -> ModelParams:
    """Per-layer uniform init in +-sqrt(6/(fan_in+fan_out)).

    One ``rng.random`` call draws the whole vector, and each block is scaled
    in place to low + (high - low) * u, which is how numpy computes
    ``rng.uniform(low, high)``: the same draws and bits as one uniform call
    per block.
    """
    out = rng.random(param_count(spec))
    offsets, _ = _layout(spec)
    for (fan_in, fan_out), start, end in zip(affine_dims(spec), offsets, offsets[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        block = out[start:end]
        block *= bound - (-bound)
        block -= bound
    return ModelParams(out)


@lru_cache(maxsize=None)
def _block_slices(spec: ModelSpec) -> tuple[tuple[slice, tuple[int, int], slice], ...]:
    """(weight slice, weight shape, bias slice) of every affine block."""
    offsets, _ = _layout(spec)
    blocks = []
    for (fan_in, fan_out), off in zip(affine_dims(spec), offsets):
        w_end = off + fan_out * fan_in
        blocks.append((slice(off, w_end), (fan_out, fan_in), slice(w_end, w_end + fan_out)))
    return tuple(blocks)


def _affines(spec: ModelSpec, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (W, b) for every affine block of a flat vector with spec's layout,
    or of each row of a (k, P) stack: W (..., fan_out, fan_in), b (..., fan_out)."""
    lead = vec.shape[:-1]
    return [(vec[..., w].reshape(lead + shape), vec[..., b]) for w, shape, b in _block_slices(spec)]


def _bound_views(spec: ModelSpec, vec: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """_affines plus the views the products read: W^T (..., fan_in, fan_out)
    and b as a row (..., 1, fan_out)."""
    return [(w, _t(w), b, b[..., None, :]) for w, b in _affines(spec, vec)]


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack (of a lone matrix too)."""
    return a.swapaxes(-1, -2)


@dataclass
class MiniBatch:
    """One batch of inputs with integer labels, or a stack of k equal-sized
    batches, one per client of a group (see stack_batches)."""

    inputs: np.ndarray  # (n, input_dim), or (k, n, input_dim) stacked
    labels: np.ndarray  # (n,) ints, or (k, n) stacked
    # Set only on a batch cut from an epoch layout (see _layout_batch): its
    # _output_terms, derived and checked once for the whole epoch.
    _terms: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim not in (2, 3) or self.labels.ndim != self.inputs.ndim - 1:
            raise ContractViolation("MiniBatch expects 2-D inputs and 1-D labels, or stacks")
        if self.inputs.shape[:-1] != self.labels.shape:
            raise ContractViolation("MiniBatch inputs/labels length mismatch")
        if self.labels.size < 1:
            raise ContractViolation("MiniBatch must be nonempty")
        if self.labels.min() < 0:
            raise ContractViolation("MiniBatch labels must be nonnegative")

    def __len__(self) -> int:
        """Samples in a batch; batches (k) in a stack."""
        return self.inputs.shape[0]


def _layout_batch(layout: tuple, s: int, active: int) -> MiniBatch:
    """Step s's batch of the first ``active`` clients, cut from an epoch
    layout (xs, ys, terms) that run_sgd_epoch checked as a whole, so neither
    __post_init__ nor grad_params checks it again."""
    xs, ys, terms = layout
    batch = object.__new__(MiniBatch)
    batch.inputs, batch.labels = xs[s, :active], ys[s, :active]
    batch._terms = tuple(t if t is None else t[s, :active] for t in terms)
    return batch


def stack_batches(batches: Sequence[MiniBatch]) -> MiniBatch:
    """Equal-sized batches of a group's clients as one stacked batch."""
    return MiniBatch(np.stack([b.inputs for b in batches]), np.stack([b.labels for b in batches]))


def _forward(spec: ModelSpec, params: ModelParams, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's output on inputs ``x`` (already checked): ``x`` itself,
    each hidden activation, the features and the logits, so entry l is the
    input to affine block l. Each output is a fresh array written in place.
    """
    relu = spec.activation == "relu"
    outs = [x]
    for l, (_, wt, _, b_row) in enumerate(params.blocks(spec)):
        a = outs[-1] @ wt
        a += b_row
        if l < spec.depth:
            a = np.maximum(a, 0.0, out=a) if relu else np.tanh(a, out=a)
        outs.append(a)
    return outs


def forward_batch(
    spec: ModelSpec, params: ModelParams, inputs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run the model on a batch; returns (features (n,K), logits (n,C))."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ContractViolation(
            f"inputs have shape {x.shape}, spec expects (*, {spec.input_dim})"
        )
    *_, features, logits = _forward(spec, params, x)
    return features, logits


@dataclass(frozen=True)
class LossConfig:
    """Selects the per-sample training loss.

    The loss is ce(logits, y) when ``guide_vectors`` is None, otherwise
    ce + mse(guided_output, guide_vectors[y]) where the guided
    output is the logits (space "logit") or the features (space "feature").
    Samples whose class row is marked invalid in ``guide_valid`` contribute
    only their ce term.
    """

    guide_vectors: np.ndarray | None = None  # (C, M)
    guide_space: str = "logit"
    guide_valid: np.ndarray | None = None  # (C,) bool

    def __post_init__(self):
        if self.guide_space not in SPACES:
            raise ContractViolation(f"unknown guide space {self.guide_space!r}")


def _ce_rows(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return lse - shifted[np.arange(labels.shape[0]), labels]


def _check_labels(labels: np.ndarray, class_count: int):
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ContractViolation(f"labels out of range [0, {class_count})")


def total_loss(spec: ModelSpec, params: ModelParams, batch: MiniBatch, cfg: LossConfig) -> float:
    """Mean combined loss of ``cfg`` over the batch."""
    _check_labels(batch.labels, spec.class_count)
    features, logits = forward_batch(spec, params, batch.inputs)
    n = len(batch)
    loss = float(_ce_rows(logits, batch.labels).mean())
    if cfg.guide_vectors is not None:
        guided = logits if cfg.guide_space == "logit" else features
        targets = cfg.guide_vectors[batch.labels]
        if guided.shape[1] != targets.shape[1]:
            raise ContractViolation(
                f"guide vectors have dim {targets.shape[1]}, guided output {guided.shape[1]}"
            )
        per = ((guided - targets) ** 2).mean(axis=1)
        if cfg.guide_valid is not None:
            per = per * cfg.guide_valid[batch.labels]
        loss += float(per.sum()) / n
    return loss


def _output_terms(
    spec: ModelSpec, cfg: LossConfig, labels: np.ndarray, call_shape: tuple[int, ...]
) -> tuple[np.ndarray | None, ...]:
    """What grad_params' output-side gradient reads of the labels: the flat
    positions of the ce one-hot in a call's (..., n, C) logits, each sample's
    guide target, and its guide_valid entry as a (..., n, 1) column; None for
    a term ``cfg`` lacks. ``labels`` holds one call's labels, of
    ``call_shape``, or many calls' stacked on leading axes."""
    hot = labels + spec.class_count * np.arange(math.prod(call_shape)).reshape(call_shape)
    targets = valid = None
    if cfg.guide_vectors is not None:
        targets = cfg.guide_vectors[labels]
        dim = spec.class_count if cfg.guide_space == "logit" else spec.feature_dim
        if targets.shape[-1] != dim:
            raise ContractViolation(
                f"guide vectors have dim {targets.shape[-1]}, guided output {dim}"
            )
        if cfg.guide_valid is not None:
            valid = cfg.guide_valid[labels][..., None]
    return hot, targets, valid


def _check_stack(params: ModelParams, x: np.ndarray, spec: ModelSpec, what: str):
    """Inputs must be (n, d) for one client or (k, n, d) for a stack of k."""
    lead = params.flat.shape[:-1]
    if x.ndim != len(lead) + 2 or x.shape[:-2] != lead or x.shape[-1] != spec.input_dim:
        expected = ", ".join([*map(str, lead), "n", str(spec.input_dim)])
        raise ContractViolation(f"{what} have shape {x.shape}, expected ({expected})")


def grad_params(
    spec: ModelSpec,
    params: ModelParams,
    batch: MiniBatch,
    cfg: LossConfig,
    out: ModelParams | None = None,
    layers_out: list | None = None,
) -> np.ndarray:
    """Exact reverse-mode gradient of the mean combined loss over the batch.

    Returns a flat P-vector in the same layout as ``params.flat``; for a
    stack of k clients and k batches, the (k, P) stack of their gradients.
    ``out``, when given, is a ModelParams whose float64 ``flat`` is shaped
    like ``params.flat`` and does not overlap it; the gradient is written
    through its cached block views and ``out.flat`` is returned.
    ``layers_out``, when given, is a list that receives the forward pass's
    layer outputs except the logits (as _forward returns them, the last
    entry dropped), for a jvp_guided_batch at the same params and inputs.

    A batch cut from run_sgd_epoch's layout carries its labels' terms, and
    was checked with the rest of the epoch; any other batch is checked here.
    """
    x = batch.inputs
    terms = batch._terms
    if terms is None:
        _check_labels(batch.labels, spec.class_count)
        _check_stack(params, x, spec, "batch inputs")
        if out is not None and (
            out.flat.shape != params.flat.shape or out.flat.dtype != np.float64
        ):
            raise ContractViolation(
                f"out is {out.flat.dtype} {out.flat.shape}, expected float64 {params.flat.shape}"
            )
        terms = _output_terms(spec, cfg, batch.labels, batch.labels.shape)
    hot, targets, valid = terms
    if out is None:
        out = ModelParams(np.empty_like(params.flat))
    n = batch.labels.shape[-1]
    blocks = params.blocks(spec)
    depth = spec.depth
    relu = spec.activation == "relu"
    layer_inputs = _forward(spec, params, x)  # entry l is the input to block l
    features, logits = layer_inputs[depth + 1], layer_inputs[depth + 2]
    if layers_out is not None:
        layers_out[:] = layer_inputs[: depth + 2]  # the softmax overwrites the logits

    # Output-side gradients of the mean loss. The guide term reads the
    # logits before the softmax is written over them.
    d_guided = None
    if targets is not None:
        d_guided = (logits if cfg.guide_space == "logit" else features) - targets
        d_guided *= 2.0 / (d_guided.shape[-1] * n)
        if valid is not None:
            d_guided *= valid
    d_logits = logits  # fresh from _forward, so the softmax goes in place
    d_logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(d_logits, out=d_logits)
    d_logits /= np.add.reduce(d_logits, axis=-1, keepdims=True)
    d_logits.reshape(-1)[hot] -= 1.0  # a view: d_logits is contiguous
    d_logits /= n
    d_features_direct = None
    if d_guided is not None:
        if cfg.guide_space == "logit":
            d_logits += d_guided
        else:
            d_features_direct = d_guided

    # Each block's gradient is written straight into its view of ``out``;
    # the blocks tile the vector, so every entry is written once.
    g_blocks = out.blocks(spec)

    gw_h, _, gb_h, _ = g_blocks[depth + 1]
    np.matmul(_t(d_logits), features, out=gw_h)
    np.add.reduce(d_logits, axis=-2, out=gb_h)
    d_features = d_logits @ blocks[depth + 1][0]
    if d_features_direct is not None:
        d_features += d_features_direct

    gw_f, _, gb_f, _ = g_blocks[depth]
    np.matmul(_t(d_features), layer_inputs[depth], out=gw_f)
    np.add.reduce(d_features, axis=-2, out=gb_f)
    d_z = d_features @ blocks[depth][0]

    for l in range(depth - 1, -1, -1):
        # Activation derivative from the layer's output z: with relu,
        # z > 0 exactly where its pre-activation is; with tanh, 1 - z^2.
        z = layer_inputs[l + 1]
        d_z *= (z > 0.0) if relu else 1.0 - z * z
        gw, _, gb, _ = g_blocks[l]
        np.matmul(_t(d_z), layer_inputs[l], out=gw)
        np.add.reduce(d_z, axis=-2, out=gb)
        if l:  # the input gradient of block 0 is never read
            d_z = d_z @ blocks[l][0]

    return out.flat


def jvp_guided_batch(
    spec: ModelSpec,
    params: ModelParams,
    inputs: np.ndarray,
    direction: np.ndarray | ModelParams,
    space: str,
    layers: list | None = None,
) -> np.ndarray:
    """Per-sample directional derivative of the guided map along ``direction``.

    The guided map is the full network (space "logit") or the extractor alone
    (space "feature"). Tangents are pushed forward through the layer outputs
    of one forward pass, yielding J_g(x, params) @ direction for every row of
    ``inputs``.
    Head coordinates of ``direction`` are never read in feature space. For a
    stack of k clients, ``direction`` is (k, P), ``inputs`` (k, n, d), and the
    result (k, n, M).
    ``layers``, when given, are the layer outputs of a forward pass of
    ``params`` over these very ``inputs``, as ``grad_params(...,
    layers_out=)`` hands them out; they are used as is. A ``direction``
    given as a ModelParams (a gradient buffer, say) lends its bound block
    views; an array's are bound per call.
    """
    if space not in SPACES:
        raise ContractViolation(f"unknown guide space {space!r}")
    given = isinstance(direction, ModelParams)
    d_flat = direction.flat if given else np.asarray(direction, dtype=np.float64)
    if d_flat.shape != params.flat.shape:
        raise ContractViolation(
            f"direction has shape {d_flat.shape}, params {params.flat.shape}"
        )
    d_blocks = direction.blocks(spec) if given else _bound_views(spec, d_flat)
    x = np.asarray(inputs, dtype=np.float64)
    _check_stack(params, x, spec, "inputs")
    if layers is None:
        layers = _forward(spec, params, x)
    elif layers[0] is not x:
        raise ContractViolation("layers come from a forward pass over other inputs")
    relu = spec.activation == "relu"
    blocks = params.blocks(spec)
    if space == "feature":
        blocks = blocks[:-1]  # the extractor alone
    # The tangent of block l's output is dz @ W^T + z @ dW^T + db, with z
    # and dz the value and tangent of its input; the inputs' own tangent is
    # zero, so block 0 starts from z @ dW^T alone.
    dz = None
    for l, ((_, wt, _, _), (_, dwt, _, db_row)) in enumerate(
        zip(blocks, d_blocks)
    ):
        da = layers[l] @ dwt if dz is None else dz @ wt + layers[l] @ dwt
        da += db_row
        if l < spec.depth:
            # The activation's derivative from its output z, as grad_params
            # takes it (relu's subgradient at 0 is 0).
            z = layers[l + 1]
            da *= (z > 0.0) if relu else 1.0 - z * z
        dz = da
    return dz


def sgd_step(
    params: ModelParams, gradient: np.ndarray, eta_c: float, out: ModelParams | None = None
) -> ModelParams:
    """One SGD step; returns new params, never touching the input.

    ``out``, when given, is a ModelParams shaped like ``params`` that shares
    no memory with it (it may be ``gradient``'s own buffer); the step is
    written into it and it is returned.
    """
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != params.flat.shape:
        raise ContractViolation("gradient shape does not match params")
    if out is None:
        return ModelParams(params.flat - eta_c * gradient)
    if out.flat.shape != params.flat.shape:
        raise ContractViolation(f"out is {out.flat.shape}, expected {params.flat.shape}")
    np.multiply(gradient, eta_c, out=out.flat)
    np.subtract(params.flat, out.flat, out=out.flat)
    return out


def run_sgd_epoch(
    spec: ModelSpec,
    params: ModelParams,
    inputs: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    cfg: LossConfig,
    eta_c: float,
    batch_size: int,
    rngs: Sequence[np.random.Generator],
    grad: ModelParams | None = None,
) -> ModelParams:
    """One local epoch for each client of a same-spec stack, in lockstep,
    stepping the (k, P) stack ``params.flat`` in place; returns ``params``.

    Client j (row j) takes floor(n_j / batch_size) SGD steps on shuffled
    batches of its own samples (``inputs[j]``, ``labels[j]``, permuted by
    ``rngs[j]``) and drops the remainder. Clients come ordered by step
    count, most first, so those still stepping at step s are a prefix of the
    stack, and each step is one stacked gradient and one in-place update of
    that prefix. A client that takes no step keeps its row untouched.

    ``grad``, when given, is a float64 ModelParams of at least as many rows
    as clients that step, sharing no memory with ``params``; the gradients
    are written into it. The prefixes of both are taken with
    ``ModelParams.prefix``, so a caller that steps the same stack through
    the same buffer again binds no view.
    """
    steps = [x.shape[0] // batch_size for x in inputs]
    if params.flat.shape != (len(steps), param_count(spec)):
        raise ContractViolation(
            f"params are {params.flat.shape}, expected ({len(steps)}, {param_count(spec)})"
        )
    for j in range(1, len(steps)):
        if steps[j] > steps[j - 1]:
            raise ContractViolation(
                f"run_sgd_epoch needs clients ordered by step count, most first: client "
                f"{j} takes {steps[j]} steps after client {j - 1}'s {steps[j - 1]}"
            )
    stepping = sum(n > 0 for n in steps)  # a prefix of the clients
    for j in range(stepping):
        if inputs[j].ndim != 2 or inputs[j].shape[1] != spec.input_dim:
            raise ContractViolation(
                f"client {j}'s inputs have shape {inputs[j].shape}, "
                f"spec expects (*, {spec.input_dim})"
            )
    if grad is None:
        grad = ModelParams(np.empty((stepping, params.flat.shape[1])))
    elif (
        grad.flat.ndim != 2
        or grad.flat.shape[0] < stepping
        or grad.flat.shape[1] != params.flat.shape[1]
        or grad.flat.dtype != np.float64
    ):
        raise ContractViolation(
            f"grad is {grad.flat.dtype} {grad.flat.shape}, expected float64 "
            f"(>= {stepping}, {params.flat.shape[1]})"
        )
    if stepping == 0:
        return params
    # Every stepping client's batches laid out once, step-major: xs[s, j] is
    # client j's batch at step s, so the clients still stepping at step s
    # are the contiguous xs[s, :active] (entries past a client's last step
    # are never read). The labels are checked, and the terms grad_params
    # derives from them computed, once for the whole epoch.
    shape = (steps[0], stepping, batch_size)
    xs = np.empty(shape + (spec.input_dim,))
    ys = np.zeros(shape, dtype=np.int64)
    for j in range(stepping):
        used = rngs[j].permutation(inputs[j].shape[0])[: steps[j] * batch_size]
        xs[: steps[j], j] = inputs[j][used].reshape(steps[j], batch_size, -1)
        ys[: steps[j], j] = labels[j][used].reshape(steps[j], batch_size)
    _check_labels(ys, spec.class_count)
    layout = (xs, ys, _output_terms(spec, cfg, ys, shape[1:]))
    active = 0
    for s in range(steps[0]):
        if active == 0 or steps[active - 1] <= s:
            # The prefix still stepping shrank (or this is the first step).
            active = sum(n > s for n in steps)
            prefix, g_prefix = params.prefix(active), grad.prefix(active)
            theta, g = prefix.flat, g_prefix.flat
        grad_params(spec, prefix, _layout_batch(layout, s, active), cfg, out=g_prefix)
        g *= eta_c
        theta -= g
    return params


def family_spec(
    index: int,
    input_dim: int,
    feature_dim: int,
    class_count: int,
    activation: str = "relu",
) -> ModelSpec:
    """Model-family assignment rule: client i gets hidden variant i mod 5.
    The clients of one variant get one shared spec object."""
    variant = index % len(DEFAULT_HIDDEN_FAMILY)
    return _variant_spec(variant, input_dim, feature_dim, class_count, activation)


@lru_cache(maxsize=None)  # grows no faster than _layout's cache, keyed by these specs
def _variant_spec(
    variant: int, input_dim: int, feature_dim: int, class_count: int, activation: str
) -> ModelSpec:
    widths = DEFAULT_HIDDEN_FAMILY[variant]
    return ModelSpec(input_dim, widths, feature_dim, class_count, activation)
