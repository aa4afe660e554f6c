"""Evaluation, the study-set cross-entropy, communication-byte accounting and
convergence detection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ClientDataset
from .errors import ContractViolation
from . import nn
from .nn import ModelParams, ModelSpec, forward_batch

BYTES_PER_VALUE = 4  # transmitted reals and class indices priced as float32/int32


@dataclass
class RoundMetrics:
    """Everything recorded about one communication round."""

    round_index: int
    accuracy: float
    per_client_accuracy: np.ndarray
    mean_ce: float
    loss_increase: float
    upload_bytes: int
    download_bytes: int
    grad_norm_sq: float
    n_participants: int
    upload_rows: int
    wall_time: float = 0.0


@dataclass(frozen=True)
class ClientScore:
    """One client's evaluation, valid until its parameters next change; the
    caller that changes them drops the score (a client's data never
    changes)."""

    test_hits: int
    study_ce: float


def study_cross_entropies(
    logits: np.ndarray, labels: np.ndarray, bounds: Sequence[int]
) -> list[float]:
    """Mean cross-entropy of each member of a group over its study set, from
    the members' study logits and labels concatenated in member order,
    member j's rows at ``bounds[j]:bounds[j + 1]``. The labels must index
    the logits' columns; callers check them first.

    The per-row losses are one pass over every row; each member's figure is
    the mean of its own contiguous slice, equal to its own figure bit for
    bit.
    """
    ce = nn._ce_rows(logits, labels)
    return [float(ce[a:b].mean()) for a, b in zip(bounds[:-1], bounds[1:])]


def evaluate(
    clients: Sequence[tuple[ModelSpec, ModelParams, ClientDataset]],
    scores: list[ClientScore | None] | None = None,
    study_ce: Sequence[float | None] | None = None,
) -> tuple[float, np.ndarray, float]:
    """Test accuracy and study-set ce across clients.

    Returns (aggregate accuracy, per-client accuracies, mean study ce).
    Aggregate accuracy is sample-weighted: total correct over total test
    samples. The ce figure is the unweighted mean over clients of each
    client's mean study-set cross-entropy.

    ``scores``, when given, holds each client's last score, or None for a
    client not scored since its parameters last changed; the None entries
    are scored and filled in place, the others used as they are.
    ``study_ce``, when given, holds per client None or the study ce of its
    current params; a client scored without one gets it from a forward pass
    over its study set. A Dataset checks its labels against its own class
    count when it is built, so they are checked again only when that count
    exceeds the model's.
    """
    if scores is None:
        scores = [None] * len(clients)
    if study_ce is None:
        study_ce = [None] * len(clients)
    correct = 0
    total = 0
    per_client = np.zeros(len(clients))
    ce_values = np.zeros(len(clients))
    for i, (spec, params, data) in enumerate(clients):
        if len(data.test) == 0:
            raise ContractViolation(f"client {i} has an empty test set")
        score = scores[i]
        if score is None:
            _, logits = forward_batch(spec, params, data.test.inputs)
            hits = int(np.count_nonzero(logits.argmax(axis=1) == data.test.labels))
            ce = study_ce[i]
            if ce is None:
                study = data.study
                if len(study) == 0:
                    raise ContractViolation(f"client {i} has an empty study set")
                if study.class_count > spec.class_count:
                    nn._check_labels(study.labels, spec.class_count)
                _, logits = nn.forward_batch(spec, params, study.inputs)
                (ce,) = study_cross_entropies(logits, study.labels, (0, len(study)))
            score = scores[i] = ClientScore(hits, ce)
        per_client[i] = score.test_hits / len(data.test)
        correct += score.test_hits
        total += len(data.test)
        ce_values[i] = score.study_ce
    return correct / total, per_client, float(ce_values.mean())


def account_bytes(
    n_participants: int,
    upload_rows: int,
    class_count: int,
    vector_dim: int,
    method: str,
) -> tuple[int, int]:
    """Bytes moved in one round under the 4-bytes-per-value wire convention.

    Uploads carry only the rows present on each client: M values plus one
    class index per row. Downloads broadcast the full C x M payload to every
    participant. The formula is identical for all vector-sharing methods, so
    byte traces match across methods whenever the participation and
    class-presence traces match; local-only moves nothing.
    """
    if method == "local-only":
        return 0, 0
    upload = upload_rows * (vector_dim * BYTES_PER_VALUE + BYTES_PER_VALUE)
    download = n_participants * class_count * vector_dim * BYTES_PER_VALUE
    return upload, download


def convergence_round(
    accuracy_history: Sequence[float], window: int = 20, tol: float = 0.002
) -> int:
    """First 1-based round whose next-window max improves by < tol; the last
    round if that never happens."""
    n = len(accuracy_history)
    if n < window:
        raise ContractViolation(f"history length {n} is shorter than window {window}")
    acc = np.asarray(accuracy_history, dtype=np.float64)
    for t in range(window, n - window + 1):
        current = acc[t - window : t].max()
        upcoming = acc[t : t + window].max()
        if upcoming - current < tol:
            return t
    return n
