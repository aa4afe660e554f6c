"""Deterministic desk-scale simulator for heterogeneous federated learning.

Clients hold architecturally different models and non-IID data, so parameter
averaging is impossible. Collaboration happens instead through compact
per-class vectors: either data-derived prototypes (fedproto, feddistill) or
trainable guiding vectors updated on the server from client quiz-set
feedback (fedl2g-l, fedl2g-f). Everything is float64, seeded, and pure, and
every random draw comes from a stream keyed by (seed, purpose, client, round),
so runs are bit-reproducible, do not depend on the order in which clients are
stepped, and resume exactly from a checkpoint.
"""

__version__ = "0.1.0"

from .errors import (
    CheckpointError,
    ConfigError,
    ContractViolation,
    DataFormatError,
    FedGuideError,
    PartitionError,
)
from .nn import LossConfig, MiniBatch, ModelParams, ModelSpec
from .data import ClientDataset, Dataset, PartitionPlan
from .guidance import GuidanceGradient, GuidingVectorSet
from .baselines import PrototypeSet
from .federation import ClientState, RunConfig, ServerState, TaskConfig
from .metrics import RoundMetrics

__all__ = [
    "CheckpointError",
    "ClientDataset",
    "ClientState",
    "ConfigError",
    "ContractViolation",
    "DataFormatError",
    "Dataset",
    "FedGuideError",
    "GuidanceGradient",
    "GuidingVectorSet",
    "LossConfig",
    "MiniBatch",
    "ModelParams",
    "ModelSpec",
    "PartitionError",
    "PartitionPlan",
    "PrototypeSet",
    "RoundMetrics",
    "RunConfig",
    "ServerState",
    "TaskConfig",
]
