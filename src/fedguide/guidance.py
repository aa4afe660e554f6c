"""Learning-to-guide core: combined client loss, pseudo-train, the
closed-form guiding-vector gradient, and the server update.

Guiding vectors are one trainable M-vector per class, living either in logit
space (M = C) or in feature space (M = K). Clients never upload data-derived
statistics; they upload the exact gradient of their post-pseudo-train quiz
cross-entropy with respect to each guiding vector, which the server averages
and applies.

The gradient needs only first-order derivatives of the network. One SGD step
theta' = theta - eta_c * grad(ce + guide_mse) makes theta' an affine function
of each v^y, with d(theta')/d(v^y) = (2 eta_c / (M |B|)) * sum over batch
samples of class y of J_g(x', theta)^T, where J_g is the Jacobian of the
guided map at the pre-step parameters. Chaining with the quiz loss gradient
d at theta' turns each column contraction into one forward-mode JVP, so the
whole thing costs one reverse pass over the quiz plus one JVP pass over the
study batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .data import Dataset
from .errors import ContractViolation
from .nn import (
    SPACES,
    LossConfig,
    MiniBatch,
    ModelParams,
    ModelSpec,
    grad_params,
    jvp_guided_batch,
    run_sgd_epoch,
    sgd_step,
)


@dataclass
class GuidingVectorSet:
    """Global trainable per-class vectors, tagged with the space they guide."""

    vectors: np.ndarray  # (C, M)
    space: str
    version: int = 0

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ContractViolation("guiding vectors must be a C x M matrix")
        if self.space not in SPACES:
            raise ContractViolation(f"unknown space {self.space!r}")
        if self.space == "logit" and self.vectors.shape[1] != self.vectors.shape[0]:
            raise ContractViolation("logit-space vectors must satisfy M == C")
        if not np.isfinite(self.vectors).all():
            raise ContractViolation("guiding vectors must be finite")

    @property
    def class_count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class GuidanceGradient:
    """Per-class guiding-vector gradients plus the class-presence mask.

    Rows for classes absent from the study batch are exactly zero and are the
    rows a client does not upload.
    """

    per_class: np.ndarray  # (C, M)
    present: np.ndarray  # (C,) bool

    def __post_init__(self):
        self.per_class = np.asarray(self.per_class, dtype=np.float64)
        self.present = np.asarray(self.present, dtype=bool)
        if self.per_class.ndim != 2 or self.present.shape != (self.per_class.shape[0],):
            raise ContractViolation("GuidanceGradient shape mismatch")
        _check_absent_rows(self.per_class, self.present)

    @property
    def uploaded_rows(self) -> int:
        return int(self.present.sum())


def _check_absent_rows(per_class: np.ndarray, present: np.ndarray):
    """Rows (..., C, M) of the classes not ``present`` (..., C) must be zero."""
    if np.any(per_class[~present] != 0.0):
        raise ContractViolation("absent classes must carry exactly-zero rows")


def guided_loss_config(gset: GuidingVectorSet | None) -> LossConfig:
    """LossConfig for ce plus guidance toward ``gset`` (pure ce when None)."""
    if gset is None:
        return LossConfig(use_ce=True)
    return LossConfig(use_ce=True, guide_vectors=gset.vectors, guide_space=gset.space)


def local_train_epoch(
    spec: ModelSpec,
    params: ModelParams,
    study: Dataset,
    gset: GuidingVectorSet | None,
    eta_c: float,
    rng: np.random.Generator,
    batch_size: int = 10,
) -> ModelParams:
    """One client's epoch of SGD on its study set with the combined loss.

    Passing ``gset=None`` trains on pure cross-entropy (the local-only and
    diagnostic mode). Runs floor(|study| / batch_size) steps.
    """
    if len(study) == 0:
        raise ContractViolation("study set is empty")
    stack = ModelParams(params.flat[None].copy())
    run_sgd_epoch(
        spec,
        stack,
        [study.inputs],
        [study.labels],
        guided_loss_config(gset),
        eta_c,
        batch_size,
        [rng],
    )
    return ModelParams(stack.flat[0])


def pseudo_train(
    spec: ModelSpec,
    params: ModelParams,
    study_batch: MiniBatch,
    gset: GuidingVectorSet,
    eta_c: float,
    study_grad: np.ndarray | None = None,
    out: ModelParams | None = None,
) -> ModelParams:
    """One non-persisted SGD step on the combined loss; input params untouched.

    ``study_grad``, when given, is that loss's gradient at ``params`` over
    ``study_batch``, already computed by the caller; it is used as is. The
    step is written into ``out`` when given (see ``sgd_step``). Takes a
    stack of clients as ``grad_params`` does.
    """
    if study_grad is None:
        study_grad = grad_params(spec, params, study_batch, guided_loss_config(gset))
    return sgd_step(params, study_grad, eta_c, out=out)


# The quiz loss: plain cross-entropy.
_QUIZ_LOSS = LossConfig(use_ce=True)


def guidance_gradient(
    spec: ModelSpec,
    params: ModelParams,
    study_batch: MiniBatch,
    quiz: MiniBatch,
    gset: GuidingVectorSet,
    eta_c: float,
    study_grad: np.ndarray | None = None,
    study_layers: list | None = None,
    buffers: tuple[ModelParams, ModelParams] | None = None,
) -> GuidanceGradient | list[GuidanceGradient]:
    """Exact gradient of the mean quiz ce after pseudo-train w.r.t. each v^y.

    Stage 1 takes one reverse pass for the quiz ce gradient at the
    pseudo-trained parameters; stage 2 pushes that direction through the
    guided map's Jacobians at the pre-step parameters, one JVP per study-batch
    sample, summed per class. Classes absent from the study batch have no
    dependence path and get zero rows. ``study_grad`` is passed on to
    ``pseudo_train``, and ``study_layers`` (the layer outputs of
    ``study_grad``'s forward pass, from ``grad_params(..., layers_out=)``)
    to the JVP. ``buffers``, when given, are two ModelParams shaped like
    ``params``: the pseudo-trained parameters and the quiz gradient are
    written into them, and the JVP reads the gradient through the second's
    bound views. The first may hold ``study_grad``, which it overwrites.
    Given a stack of k clients (stacked params, study batches and quizzes),
    returns the list of their k gradients.
    """
    theta_out, direction_out = (None, None) if buffers is None else buffers
    theta_prime = pseudo_train(spec, params, study_batch, gset, eta_c, study_grad, out=theta_out)
    quiz_direction = grad_params(spec, theta_prime, quiz, _QUIZ_LOSS, out=direction_out)

    jvps = jvp_guided_batch(
        spec,
        params,
        study_batch.inputs,
        quiz_direction if direction_out is None else direction_out,
        gset.space,
        layers=study_layers,
    )
    labels = study_batch.labels
    scale = 2.0 * eta_c / (gset.dim * labels.shape[-1])
    if labels.ndim == 1:
        return _sum_per_class(jvps[None], labels[None], scale, gset)[0]
    return _sum_per_class(jvps, labels, scale, gset)


def _sum_per_class(
    jvps: np.ndarray, labels: np.ndarray, scale: float, gset: GuidingVectorSet
) -> list[GuidanceGradient]:
    """Each client's JVP rows (k, n, M) summed per study-batch class (k, n),
    times ``scale``: one scatter for the whole stack. ``np.add.at`` adds the
    rows of a class in index order, the order a sum over the selected rows
    takes, so the bits equal that sum's, except that a class whose rows are
    all -0.0 sums to +0.0 here. The absent rows of the whole stack are
    checked once, so each member's gradient is built unchecked."""
    k = labels.shape[0]
    rows = (np.arange(k)[:, None], labels)
    per_class = np.zeros((k, *gset.vectors.shape))
    np.add.at(per_class, rows, jvps)
    per_class *= scale
    present = np.zeros((k, gset.class_count), dtype=bool)
    present[rows] = True
    _check_absent_rows(per_class, present)
    grads = []
    for g, p in zip(per_class, present):
        grad = object.__new__(GuidanceGradient)
        grad.per_class, grad.present = g, p
        grads.append(grad)
    return grads


def server_update(
    gset: GuidingVectorSet,
    grads: list[GuidanceGradient],
    eta_s: float,
) -> GuidingVectorSet:
    """Average uploaded rows per class over the clients that have them, then
    take one gradient step. Classes no client reported stay untouched.

    The uploads are reduced as one (k, C, M) array, in client order. Absent
    rows are set to -0.0, which leaves any sum unchanged, sign of zero
    included, so each class's sum equals the sum of its present rows alone.
    """
    if not grads:
        raise ContractViolation("server_update needs at least one gradient")
    shape = gset.vectors.shape
    for g in grads:
        if g.per_class.shape != shape:
            raise ContractViolation(
                f"gradient shape {g.per_class.shape} does not match vectors {shape}"
            )
    rows = np.stack([g.per_class for g in grads])
    present = np.stack([g.present for g in grads])
    rows[~present] = -0.0
    counts = np.count_nonzero(present, axis=0)
    reported = counts > 0
    vectors = gset.vectors.copy()
    vectors[reported] -= eta_s * (rows.sum(axis=0)[reported] / counts[reported, None])
    return GuidingVectorSet(vectors, gset.space, gset.version + 1)


def init_guiding_vectors(
    class_count: int, dim: int, space: str, seed: int
) -> GuidingVectorSet:
    """Random initial vectors: 0.1 * standard normal, seeded."""
    if class_count < 1 or dim < 1:
        raise ContractViolation("class_count and dim must be >= 1")
    gen = rngmod.stream(seed, rngmod.GUIDE_INIT)
    return GuidingVectorSet(0.1 * gen.standard_normal((class_count, dim)), space, 0)


def add_privacy_noise(
    grad: GuidanceGradient, s: float, p: float, rng: np.random.Generator
) -> GuidanceGradient:
    """Perturb a fraction p of each present row's coordinates with N(0, s^2).

    The number of perturbed coordinates is round(p * M) per row; absent rows
    and the presence mask are untouched.
    """
    if s < 0 or not 0 <= p <= 1:
        raise ContractViolation("need s >= 0 and 0 <= p <= 1")
    m = grad.per_class.shape[1]
    k = int(round(p * m))
    if s == 0.0 or k == 0:
        return grad
    per_class = grad.per_class.copy()
    for y in np.nonzero(grad.present)[0]:
        coords = rng.choice(m, size=k, replace=False)
        per_class[y, coords] += rng.normal(0.0, s, size=k)
    return GuidanceGradient(per_class, grad.present.copy())
