"""Dense-network kernel: forward pass, exact reverse-mode parameter
gradients, and forward-mode directional derivatives (Jacobian-vector
products), all in float64.

Every client model is a small MLP split into a feature extractor (hidden
layers plus a linear projection to the feature dimension) and a single
affine classifier head, matching the convention that extractors vary across
clients while head shape stays K -> C. Parameters live in one flat vector;
blocks are views into it, so unpacking is free and serialization trivial.

All functions here are pure: they never mutate their inputs and are safe to
call from many threads at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractViolation

ACTIVATIONS = ("relu", "tanh")

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


def extractor_param_count(spec: ModelSpec) -> int:
    return _layout(spec)[1]


@dataclass
class ModelParams:
    """Flat float64 parameter vector plus the block layout that addresses it.

    ``flat[offsets[i]:offsets[i+1]]`` is affine block i (weights row-major,
    then biases); ``flat[:extractor_end]`` is exactly the extractor.
    """

    flat: np.ndarray
    offsets: tuple[int, ...]
    extractor_end: int

    @property
    def extractor_range(self) -> tuple[int, int]:
        return (0, self.extractor_end)

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), self.offsets, self.extractor_end)


def params_from_flat(spec: ModelSpec, flat: np.ndarray) -> ModelParams:
    """Wrap a flat vector as ModelParams, validating its length against spec."""
    offsets, extractor_end = _layout(spec)
    flat = np.asarray(flat, dtype=np.float64)
    if flat.ndim != 1 or flat.shape[0] != offsets[-1]:
        raise ContractViolation(
            f"parameter vector has length {flat.shape}, spec implies {offsets[-1]}"
        )
    return ModelParams(flat, offsets, extractor_end)


def init_params(spec: ModelSpec, rng: np.random.Generator) -> ModelParams:
    """Per-layer uniform init in +-sqrt(6/(fan_in+fan_out))."""
    chunks = []
    for fan_in, fan_out in affine_dims(spec):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-bound, bound, size=fan_out * fan_in + fan_out))
    return params_from_flat(spec, np.concatenate(chunks))


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
    """Views (W, b) for every affine block of a flat vector with spec's layout."""
    return [(vec[w].reshape(shape), vec[b]) for w, shape, b in _block_slices(spec)]


def _act(name: str, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(a, 0.0)
    return np.tanh(a)


def _act_deriv(name: str, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        # Subgradient at exactly 0 is defined as 0.
        return (a > 0.0).astype(np.float64)
    t = np.tanh(a)
    return 1.0 - t * t


@dataclass
class MiniBatch:
    """One batch of inputs with integer labels."""

    inputs: np.ndarray  # (n, input_dim)
    labels: np.ndarray  # (n,) ints

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ContractViolation("MiniBatch expects 2-D inputs and 1-D labels")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ContractViolation("MiniBatch inputs/labels length mismatch")
        if self.inputs.shape[0] < 1:
            raise ContractViolation("MiniBatch must be nonempty")
        if self.labels.size and self.labels.min() < 0:
            raise ContractViolation("MiniBatch labels must be nonnegative")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def forward_batch(
    spec: ModelSpec, params: ModelParams, inputs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run the model on a batch; returns (features (n,K), logits (n,C))."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ContractViolation(
            f"inputs have shape {x.shape}, spec expects (*, {spec.input_dim})"
        )
    blocks = _affines(spec, params.flat)
    z = x
    for w, b in blocks[: spec.depth]:
        z = _act(spec.activation, z @ w.T + b)
    w_f, b_f = blocks[spec.depth]
    features = z @ w_f.T + b_f
    w_h, b_h = blocks[spec.depth + 1]
    logits = features @ w_h.T + b_h
    return features, logits


def forward(
    spec: ModelSpec, params: ModelParams, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Single-input forward pass; returns (features (K,), logits (C,))."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ContractViolation("forward expects a single input vector")
    features, logits = forward_batch(spec, params, x[None, :])
    return features[0], logits[0]


def loss_ce(logits: np.ndarray, label: int) -> float:
    """Cross-entropy -log softmax(logits)[label], log-sum-exp stabilized."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= label < logits.shape[0]:
        raise ContractViolation(f"label {label} out of range for {logits.shape[0]} classes")
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[label])


def loss_mse(v_pred: np.ndarray, v_target: np.ndarray) -> float:
    """Mean of squared coordinate differences."""
    v_pred = np.asarray(v_pred, dtype=np.float64)
    v_target = np.asarray(v_target, dtype=np.float64)
    if v_pred.shape != v_target.shape:
        raise ContractViolation("loss_mse requires equal-length vectors")
    d = v_pred - v_target
    return float(np.mean(d * d))


@dataclass(frozen=True)
class LossConfig:
    """Selects the per-sample training loss.

    The loss is ce(logits, y) when ``guide_vectors`` is None, otherwise
    ce + guide_weight * mse(guided_output, guide_vectors[y]) where the guided
    output is the logits (space "logit") or the features (space "feature").
    Samples whose class row is marked invalid in ``guide_valid`` contribute
    only their ce term.
    """

    use_ce: bool = True
    guide_vectors: np.ndarray | None = None  # (C, M)
    guide_space: str = "logit"
    guide_weight: float = 1.0
    guide_valid: np.ndarray | None = None  # (C,) bool

    def __post_init__(self):
        if self.guide_space not in ("logit", "feature"):
            raise ContractViolation(f"unknown guide space {self.guide_space!r}")
        if not self.use_ce and self.guide_vectors is None:
            raise ContractViolation("LossConfig selects no loss term")


def _ce_rows(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return lse - shifted[np.arange(labels.shape[0]), labels]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _check_labels(labels: np.ndarray, class_count: int):
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ContractViolation(f"labels out of range [0, {class_count})")


def total_loss(spec: ModelSpec, params: ModelParams, batch: MiniBatch, cfg: LossConfig) -> float:
    """Mean combined loss of ``cfg`` over the batch."""
    _check_labels(batch.labels, spec.class_count)
    features, logits = forward_batch(spec, params, batch.inputs)
    n = len(batch)
    loss = 0.0
    if cfg.use_ce:
        loss += float(_ce_rows(logits, batch.labels).mean())
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
        loss += cfg.guide_weight * float(per.sum()) / n
    return loss


def grad_params(
    spec: ModelSpec, params: ModelParams, batch: MiniBatch, cfg: LossConfig
) -> np.ndarray:
    """Exact reverse-mode gradient of the mean combined loss over the batch.

    Returns a flat P-vector in the same layout as ``params.flat``.
    """
    _check_labels(batch.labels, spec.class_count)
    x = batch.inputs
    if x.shape[1] != spec.input_dim:
        raise ContractViolation(f"batch input dim {x.shape[1]} != spec {spec.input_dim}")
    n = len(batch)
    blocks = _affines(spec, params.flat)

    # Forward, caching pre-activations of hidden layers and all layer inputs.
    layer_inputs = [x]  # input to affine block l
    pre_acts = []
    z = x
    for w, b in blocks[: spec.depth]:
        a = z @ w.T + b
        pre_acts.append(a)
        z = _act(spec.activation, a)
        layer_inputs.append(z)
    w_f, b_f = blocks[spec.depth]
    features = z @ w_f.T + b_f
    w_h, b_h = blocks[spec.depth + 1]
    logits = features @ w_h.T + b_h

    # Output-side gradients of the mean loss.
    d_logits = np.zeros_like(logits)
    d_features_direct = np.zeros_like(features)
    if cfg.use_ce:
        probs = _softmax(logits)
        probs[np.arange(n), batch.labels] -= 1.0
        d_logits += probs / n
    if cfg.guide_vectors is not None:
        guided = logits if cfg.guide_space == "logit" else features
        targets = cfg.guide_vectors[batch.labels]
        if guided.shape[1] != targets.shape[1]:
            raise ContractViolation(
                f"guide vectors have dim {targets.shape[1]}, guided output {guided.shape[1]}"
            )
        m = targets.shape[1]
        d_guided = (2.0 * cfg.guide_weight / (m * n)) * (guided - targets)
        if cfg.guide_valid is not None:
            d_guided = d_guided * cfg.guide_valid[batch.labels][:, None]
        if cfg.guide_space == "logit":
            d_logits += d_guided
        else:
            d_features_direct += d_guided

    grad = np.zeros_like(params.flat)
    g_blocks = _affines(spec, grad)

    gw_h, gb_h = g_blocks[spec.depth + 1]
    gw_h += d_logits.T @ features
    gb_h += d_logits.sum(axis=0)
    d_features = d_logits @ w_h + d_features_direct

    gw_f, gb_f = g_blocks[spec.depth]
    gw_f += d_features.T @ layer_inputs[spec.depth]
    gb_f += d_features.sum(axis=0)
    d_z = d_features @ w_f

    for l in range(spec.depth - 1, -1, -1):
        d_a = d_z * _act_deriv(spec.activation, pre_acts[l])
        gw, gb = g_blocks[l]
        gw += d_a.T @ layer_inputs[l]
        gb += d_a.sum(axis=0)
        d_z = d_a @ blocks[l][0]

    return grad


def jvp_guided_batch(
    spec: ModelSpec,
    params: ModelParams,
    inputs: np.ndarray,
    direction: np.ndarray,
    space: str,
) -> np.ndarray:
    """Per-sample directional derivative of the guided map along ``direction``.

    The guided map is the full network (space "logit") or the extractor alone
    (space "feature"). Tangents propagate forward alongside the values, so
    one pass yields J_g(x, params) @ direction for every row of ``inputs``.
    Head coordinates of ``direction`` are never read in feature space.
    """
    if space not in ("logit", "feature"):
        raise ContractViolation(f"unknown guide space {space!r}")
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != params.flat.shape:
        raise ContractViolation(
            f"direction has shape {direction.shape}, params {params.flat.shape}"
        )
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ContractViolation(
            f"inputs have shape {x.shape}, spec expects (*, {spec.input_dim})"
        )
    blocks = _affines(spec, params.flat)
    d_blocks = _affines(spec, direction)

    z = x
    dz = np.zeros_like(x)
    for (w, b), (dw, db) in zip(blocks[: spec.depth], d_blocks[: spec.depth]):
        a = z @ w.T + b
        da = dz @ w.T + z @ dw.T + db
        dz = _act_deriv(spec.activation, a) * da
        z = _act(spec.activation, a)
    (w_f, b_f), (dw_f, db_f) = blocks[spec.depth], d_blocks[spec.depth]
    features = z @ w_f.T + b_f
    d_features = dz @ w_f.T + z @ dw_f.T + db_f
    if space == "feature":
        return d_features
    (w_h, b_h), (dw_h, db_h) = blocks[spec.depth + 1], d_blocks[spec.depth + 1]
    return d_features @ w_h.T + features @ dw_h.T + db_h


def jvp_guided_output(
    spec: ModelSpec,
    params: ModelParams,
    x: np.ndarray,
    direction: np.ndarray,
    space: str,
) -> np.ndarray:
    """Directional derivative of the guided map at a single input."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ContractViolation("jvp_guided_output expects a single input vector")
    return jvp_guided_batch(spec, params, x[None, :], direction, space)[0]


def sgd_step(params: ModelParams, gradient: np.ndarray, eta_c: float) -> ModelParams:
    """One SGD step; returns new params, never touching the input."""
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != params.flat.shape:
        raise ContractViolation("gradient shape does not match params")
    return ModelParams(params.flat - eta_c * gradient, params.offsets, params.extractor_end)


def run_sgd_epoch(
    spec: ModelSpec,
    params: ModelParams,
    inputs: np.ndarray,
    labels: np.ndarray,
    cfg: LossConfig,
    eta_c: float,
    batch_size: int,
    rng: np.random.Generator,
) -> ModelParams:
    """floor(n / batch_size) SGD steps on shuffled batches; drops the remainder."""
    n = inputs.shape[0]
    steps = n // batch_size
    if steps == 0:
        return params
    perm = rng.permutation(n)
    for s in range(steps):
        idx = perm[s * batch_size : (s + 1) * batch_size]
        batch = MiniBatch(inputs[idx], labels[idx])
        params = sgd_step(params, grad_params(spec, params, batch, cfg), eta_c)
    return params


def family_spec(
    index: int,
    input_dim: int,
    feature_dim: int,
    class_count: int,
    activation: str = "relu",
) -> ModelSpec:
    """Model-family assignment rule: client i gets hidden variant i mod 5."""
    widths = DEFAULT_HIDDEN_FAMILY[index % len(DEFAULT_HIDDEN_FAMILY)]
    return ModelSpec(input_dim, widths, feature_dim, class_count, activation)
