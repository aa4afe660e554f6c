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

    @property
    def class_count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def empty_prototypes(class_count: int, dim: int, space: str) -> PrototypeSet:
    """All-invalid prototype set, the server state before any aggregation."""
    return PrototypeSet(
        np.zeros((class_count, dim)), np.zeros(class_count, dtype=np.int64), space
    )


def local_prototypes(
    study: Dataset, outputs: tuple[np.ndarray, np.ndarray], space: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class mean of the guided outputs over a client's study samples.

    ``outputs`` are the model's (features, logits) on ``study.inputs``, as
    ``forward_batch`` returns them. Absent classes get zero rows with count 0.
    """
    if len(study) == 0:
        raise ContractViolation("study set is empty")
    if space not in SPACES:
        raise ContractViolation(f"unknown space {space!r}")
    features, logits = outputs
    out = logits if space == "logit" else features
    if out.shape[0] != len(study):
        raise ContractViolation(f"{out.shape[0]} output rows for {len(study)} study samples")
    C = study.class_count
    vectors = np.zeros((C, out.shape[1]))
    counts = np.bincount(study.labels, minlength=C)
    for y in np.flatnonzero(counts):
        vectors[y] = out[study.labels == y].mean(axis=0)
    return vectors, counts


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
