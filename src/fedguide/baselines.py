"""Prototype-based comparison methods sharing the federation harness.

fedproto shares per-class mean features, feddistill per-class mean logits;
both aggregate count-weighted on the server and guide local training through
the same mse term the guiding vectors use. local-only trains on pure
cross-entropy with zero communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import ContractViolation
from .nn import SPACES, LossConfig

@dataclass
class PrototypeSet:
    """Global per-class prototypes with the sample counts backing each row.

    Rows with count 0 are invalid and never enter the guiding loss.
    """

    vectors: np.ndarray  # (C, M)
    counts: np.ndarray  # (C,) int
    space: str

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.vectors.ndim != 2 or self.counts.shape != (self.vectors.shape[0],):
            raise ContractViolation("PrototypeSet shape mismatch")
        if self.space not in SPACES:
            raise ContractViolation(f"unknown space {self.space!r}")

    @property
    def valid(self) -> np.ndarray:
        return self.counts > 0


def empty_prototypes(class_count: int, dim: int, space: str) -> PrototypeSet:
    """All-invalid prototype set, the server state before any aggregation."""
    return PrototypeSet(
        np.zeros((class_count, dim)), np.zeros(class_count, dtype=np.int64), space
    )


@dataclass(frozen=True)
class StudyLayout:
    """Where a group's study rows sit in its members' outputs concatenated
    in member order, and in those rows gathered by class.

    Member j's rows are ``bounds[j]:bounds[j + 1]`` of the concatenation.
    ``order`` gathers them member by member, and within a member class by
    class, keeping each class's rows in their study order; ``segments``
    holds (j * C + class, start, end) of every run of rows it gathers.
    ``counts`` (k, C) is read-only.
    """

    bounds: tuple[int, ...]
    labels: np.ndarray
    order: np.ndarray
    segments: tuple[tuple[int, int, int], ...]
    counts: np.ndarray


def study_layout(studies: Sequence[Dataset]) -> StudyLayout:
    """The layout of a group's study sets, each non-empty, one class count."""
    if not studies:
        raise ContractViolation("study_layout needs at least one study set")
    C = studies[0].class_count
    for s in studies:
        if len(s) == 0:
            raise ContractViolation("study set is empty")
        if s.class_count != C:
            raise ContractViolation("study sets disagree on the class count")
    k = len(studies)
    labels = np.concatenate([s.labels for s in studies])
    bounds = np.cumsum([0] + [len(s) for s in studies])
    key = np.repeat(np.arange(k) * C, np.diff(bounds)) + labels
    counts = np.bincount(key, minlength=k * C)
    starts = np.cumsum(counts) - counts
    segments = tuple(
        (int(i), int(starts[i]), int(starts[i] + counts[i])) for i in np.flatnonzero(counts)
    )
    counts = counts.reshape(k, C)
    counts.flags.writeable = False
    return StudyLayout(
        tuple(int(b) for b in bounds), labels, np.argsort(key, kind="stable"), segments, counts
    )


def local_prototypes(
    layout: StudyLayout, outputs: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each group member's per-class mean of its guided outputs over its
    study samples, with the count backing each class row.

    ``outputs`` are the members' outputs in the guided space, concatenated
    as ``layout`` says. Each class row is the sum of one contiguous run of
    the gathered rows divided by its count, which is how ``mean(axis=0)``
    computes it, so it equals the mean over that class's rows of the
    member's own outputs bit for bit. Absent classes get zero rows with
    count 0.
    """
    if outputs.shape[0] != layout.labels.shape[0]:
        raise ContractViolation(
            f"{outputs.shape[0]} output rows for {layout.labels.shape[0]} study samples"
        )
    k, C = layout.counts.shape
    vectors = np.zeros((k, C, outputs.shape[1]))
    rows = vectors.reshape(k * C, -1)
    by_class = outputs[layout.order]
    for i, start, end in layout.segments:
        np.add.reduce(by_class[start:end], axis=0, out=rows[i])
    counts = layout.counts.reshape(-1, 1)
    np.divide(rows, counts, out=rows, where=counts > 0)
    return [(vectors[j], layout.counts[j]) for j in range(k)]


def aggregate_prototypes(
    locals_: Sequence[tuple[np.ndarray, np.ndarray]], space: str
) -> PrototypeSet:
    """Count-weighted per-class mean across clients; rows nobody backs are invalid."""
    if not locals_:
        raise ContractViolation("aggregate_prototypes needs at least one client")
    shape = locals_[0][0].shape
    for vectors, counts in locals_:
        if vectors.shape != shape or counts.shape != (shape[0],):
            raise ContractViolation("prototype shapes disagree across clients")
    total = np.zeros(shape)
    total_counts = np.zeros(shape[0], dtype=np.int64)
    for vectors, counts in locals_:
        total += counts[:, None] * vectors
        total_counts += counts
    out = np.zeros(shape)
    nonzero = total_counts > 0
    out[nonzero] = total[nonzero] / total_counts[nonzero, None]
    return PrototypeSet(out, total_counts, space)


def prototype_loss_config(pset: PrototypeSet) -> LossConfig:
    """LossConfig guiding toward prototypes, skipping invalid class rows."""
    return LossConfig(
        use_ce=True, guide_vectors=pset.vectors, guide_space=pset.space, guide_valid=pset.valid
    )
