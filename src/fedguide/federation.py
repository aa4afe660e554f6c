"""Round orchestration: participation sampling, warm-up, client work,
aggregation, server update, and checkpointing.

Each client's randomness comes from a private stream keyed by
(seed, purpose, client, round), so results do not depend on the order in
which a round's groups run, and a run resumed from a checkpoint repeats the
remaining rounds bit for bit; the server reduces uploads in ascending client
order at the end of the round.

Participants sharing an architecture and a study-batch size step together:
each kernel call of a round covers the whole group as one stack, and every
client's result equals, bit for bit, what it would compute alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng as rngmod
from .baselines import (
    PrototypeSet,
    aggregate_prototypes,
    empty_prototypes,
    local_prototypes,
    prototype_loss_config,
)
from .data import (
    ClientDataset,
    Dataset,
    generate_synthetic,
    load_delimited,
    partition_dirichlet,
    partition_pathological,
    split_client,
)
from .errors import CheckpointError, ConfigError, ContractViolation
from .guidance import (
    GuidanceGradient,
    GuidingVectorSet,
    add_privacy_noise,
    guidance_gradient,
    guided_loss_config,
    init_guiding_vectors,
    server_update,
)
from .metrics import ClientScore, RoundMetrics, account_bytes, evaluate, study_cross_entropy
from .nn import (
    ACTIVATIONS,
    LossConfig,
    MiniBatch,
    ModelParams,
    ModelSpec,
    family_spec,
    forward_batch,
    grad_params,
    init_params,
    param_count,
    params_from_flat,
    run_sgd_epoch,
    stack_batches,
    stack_params,
)

METHODS = ("fedl2g-l", "fedl2g-f", "fedproto", "feddistill", "local-only")
GUIDED_METHODS = ("fedl2g-l", "fedl2g-f")
PROTO_METHODS = ("fedproto", "feddistill")

# Space defaults for the server learning rate; scaled by RunConfig.eta_s_scale
# because the desk-scale vector dimensions are far below production ones.
DEFAULT_ETA_S = {"logit": 0.1, "feature": 100.0}


def method_space(method: str) -> str | None:
    if method in ("fedl2g-l", "feddistill"):
        return "logit"
    if method in ("fedl2g-f", "fedproto"):
        return "feature"
    return None


def _check_finite(config, *names: str):
    """Raise, naming the field, if a float option is nan or infinite; range
    checks alone let nan through (every comparison with it is false)."""
    for name in names:
        value = getattr(config, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name}: must be finite, got {value!r}")


@dataclass(frozen=True)
class TaskConfig:
    """Dataset source and partition scheme."""

    source: str = "synthetic"  # "synthetic" or a delimited-file path
    class_count: int = 10
    input_dim: int = 32
    samples_per_class: int = 200
    cluster_spread: float = 0.75
    partition: str = "dirichlet"  # or "pathological"
    beta: float = 0.1
    classes_per_client: int = 2
    test_fraction: float = 0.25

    def validate(self):
        _check_finite(self, "beta", "cluster_spread")
        if self.partition not in ("dirichlet", "pathological"):
            raise ConfigError(f"partition: unknown scheme {self.partition!r}")
        if self.partition == "dirichlet" and self.beta <= 0:
            raise ConfigError("beta: must be > 0")
        if self.partition == "pathological" and self.classes_per_client < 1:
            raise ConfigError("classes_per_client: must be >= 1")
        if self.source == "synthetic":
            if min(self.class_count, self.input_dim, self.samples_per_class) < 1:
                raise ConfigError("synthetic dataset dimensions must be positive")
            if self.cluster_spread < 0:
                raise ConfigError("cluster_spread: must be >= 0")
        if not 0 < self.test_fraction < 1:
            raise ConfigError("test_fraction: must be in (0, 1)")


@dataclass(frozen=True)
class RunConfig:
    """Everything one training run depends on (with the task embedded)."""

    method: str = "fedl2g-f"
    n_clients: int = 20
    rho: float = 1.0
    rounds: int = 200
    warmup: int = 50
    eta_c: float = 0.01
    eta_s: float | None = None  # None -> space default times eta_s_scale
    eta_s_scale: float = 1.0
    batch_size: int = 10
    quiz_size: int = 10
    seed: int = 1
    feature_dim: int = 32
    activation: str = "relu"
    noise_s: float = 0.0
    noise_p: float = 0.0
    # Has no effect: every round runs on one thread. Kept, validated and
    # reported because existing command lines and scripts still pass it.
    workers: int = 1
    eval_every: int = 1
    task: TaskConfig = field(default_factory=TaskConfig)

    def validate(self):
        _check_finite(self, "eta_c", "eta_s", "eta_s_scale", "noise_s")
        if self.method not in METHODS:
            raise ConfigError(f"method: unknown method {self.method!r}")
        if not 0 < self.rho <= 1:
            raise ConfigError("rho: must satisfy 0 < rho <= 1")
        if not 0 <= self.warmup < self.rounds:
            raise ConfigError("warmup: must satisfy 0 <= warmup < rounds")
        if self.eta_c <= 0:
            raise ConfigError("eta_c: must be > 0")
        if self.eta_s is not None and self.eta_s <= 0:
            raise ConfigError("eta_s: must be > 0")
        if self.eta_s_scale <= 0:
            raise ConfigError("eta_s_scale: must be > 0")
        if self.n_clients < 2:
            raise ConfigError("n_clients: must be >= 2")
        if self.batch_size < 1 or self.quiz_size < 1:
            raise ConfigError("batch_size and quiz_size must be >= 1")
        if self.noise_s < 0 or not 0 <= self.noise_p <= 1:
            raise ConfigError("noise: need s >= 0 and 0 <= p <= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation: unknown activation {self.activation!r}")
        if self.workers < 1:
            raise ConfigError("workers: must be >= 1")
        if self.eval_every < 1:
            raise ConfigError("eval_every: must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        self.task.validate()

    @property
    def space(self) -> str | None:
        return method_space(self.method)

    @property
    def vector_dim(self) -> int:
        space = self.space
        if space == "logit":
            return self.task.class_count
        return self.feature_dim

    @property
    def eta_s_effective(self) -> float:
        if self.eta_s is not None:
            return self.eta_s
        space = self.space
        if space is None:
            return 0.0
        return DEFAULT_ETA_S[space] * self.eta_s_scale


def config_digest(config: RunConfig, include_seed: bool = True) -> str:
    """Stable hash of the run configuration (execution details excluded)."""
    payload = asdict(config)
    payload.pop("workers")
    if not include_seed:
        payload.pop("seed")
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def task_digest(config: RunConfig) -> str:
    """Hash of the data/partition side only; methods sharing it are comparable."""
    payload = asdict(config.task)
    payload.update(
        n_clients=config.n_clients,
        rho=config.rho,
        rounds=config.rounds,
        batch_size=config.batch_size,
        quiz_size=config.quiz_size,
        feature_dim=config.feature_dim,
        activation=config.activation,
    )
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class ClientState:
    """One client's fixed architecture, current parameters, and local data,
    plus its last evaluation score (reused while ``params`` is unchanged)."""

    index: int
    spec: ModelSpec
    params: ModelParams
    data: ClientDataset
    score: ClientScore | None = None


@dataclass
class ServerState:
    """Server-side payload and round counter; a new one is built each round."""

    seed: int
    method: str
    t: int  # completed rounds
    payload: GuidingVectorSet | PrototypeSet | None
    min_ce: float = np.inf  # running minimum of mean study ce, for loss-increase


def build_dataset(config: RunConfig) -> Dataset:
    task = config.task
    if task.source == "synthetic":
        return generate_synthetic(
            task.class_count,
            task.input_dim,
            task.samples_per_class,
            task.cluster_spread,
            config.seed,
        )
    return load_delimited(task.source, task.input_dim, task.class_count)


def build_clients(config: RunConfig) -> list[ClientState]:
    """Materialize the federation: dataset, partition, splits, seeded models."""
    config.validate()
    ds = build_dataset(config)
    task = config.task
    min_per_client = 2 * config.quiz_size
    if task.partition == "dirichlet":
        plan = partition_dirichlet(
            ds, config.n_clients, task.beta, config.seed, min_per_client
        )
    else:
        plan = partition_pathological(
            ds, config.n_clients, task.classes_per_client, config.seed, min_per_client
        )
    clients = []
    for i, shard_idx in enumerate(plan.shards()):
        shard = ds.subset(shard_idx)
        data = split_client(shard, task.test_fraction, config.quiz_size, config.seed, i)
        spec = family_spec(
            i, task.input_dim, config.feature_dim, task.class_count, config.activation
        )
        params = init_params(spec, rngmod.stream(config.seed, rngmod.MODEL_INIT, i))
        clients.append(ClientState(i, spec, params, data))
    return clients


def build_server(config: RunConfig) -> ServerState:
    space = config.space
    if config.method in GUIDED_METHODS:
        payload = init_guiding_vectors(
            config.task.class_count, config.vector_dim, space, config.seed
        )
    elif config.method in PROTO_METHODS:
        payload = empty_prototypes(config.task.class_count, config.vector_dim, space)
    else:
        payload = None
    return ServerState(config.seed, config.method, 0, payload)


def sample_participants(server: ServerState, n_clients: int, rho: float) -> list[int]:
    """Uniform subset of size round(rho * N), at least 1, for the coming round."""
    k = min(n_clients, max(1, int(round(rho * n_clients))))
    gen = rngmod.stream(server.seed, rngmod.PARTICIPATION, server.t + 1)
    chosen = gen.choice(n_clients, size=k, replace=False)
    return sorted(int(i) for i in chosen)


@dataclass
class _ClientResult:
    index: int
    params: ModelParams
    upload: GuidanceGradient | tuple[np.ndarray, np.ndarray] | None
    grad_norm_sq: float
    # The new params' study ce, when the round's own study forward gave it.
    study_ce: float | None = None


def _loss_config(config: RunConfig, payload: GuidingVectorSet | PrototypeSet | None) -> LossConfig:
    """The local training loss of the method, toward this round's payload."""
    if config.method in PROTO_METHODS:
        return prototype_loss_config(payload)
    return guided_loss_config(payload)  # pure ce for local-only (no payload)


def _check_stackable(members: list[ClientState], round_index: int):
    """Raise, naming the client, if a member's study set or quiz does not fit
    its model's input: the group's stacked calls need equal shapes."""
    for c in members:
        for part in ("study", "quiz"):
            data = getattr(c.data, part)
            expected = (data.labels.shape[0], c.spec.input_dim)
            if data.inputs.shape != expected:
                raise ContractViolation(
                    f"client {c.index} failed in round {round_index}: {part} inputs have "
                    f"shape {data.inputs.shape}, expected {expected}"
                )


def _group_work(
    config: RunConfig,
    payload: GuidingVectorSet | PrototypeSet | None,
    members: list[ClientState],
    round_index: int,
) -> list[_ClientResult]:
    """All of one round's work for participants sharing a spec and a
    study-batch size: local epoch, telemetry gradient and upload, each step
    one stacked call over the group. Pure in its arguments."""
    seed = config.seed
    spec = members[0].spec
    # Most epoch steps first, the order run_sgd_epoch requires; the stack it
    # steps is then in member order and serves the calls below as is.
    members = sorted(members, key=lambda c: -(len(c.data.study) // config.batch_size))
    studies = [c.data.study for c in members]
    loss_cfg = _loss_config(config, payload)
    params = [c.params for c in members]
    if config.method not in GUIDED_METHODS or round_index > config.warmup:
        params, stacked = run_sgd_epoch(
            spec,
            params,
            [s.inputs for s in studies],
            [s.labels for s in studies],
            loss_cfg,
            config.eta_c,
            config.batch_size,
            [rngmod.stream(seed, rngmod.EPOCH, c.index, round_index) for c in members],
        )
    else:
        stacked = stack_params(params)
    # Each member draws its study batch from its own BATCH stream; the rows
    # are gathered straight into the group's stacked batch.
    n = min(config.batch_size, len(studies[0]))
    inputs = np.empty((len(members), n, spec.input_dim))
    labels = np.empty((len(members), n), dtype=np.int64)
    for j, (c, s) in enumerate(zip(members, studies)):
        idx = rngmod.stream(seed, rngmod.BATCH, c.index, round_index).choice(
            len(s), size=n, replace=False
        )
        inputs[j], labels[j] = s.inputs[idx], s.labels[idx]
    batch = MiniBatch(inputs, labels)
    study_layers = []  # g's forward pass, which the guidance JVP reuses
    g = grad_params(spec, stacked, batch, loss_cfg, layers_out=study_layers)

    study_ce = [None] * len(members)
    if config.method in GUIDED_METHODS:
        quiz = stack_batches([c.data.quiz for c in members])
        uploads = guidance_gradient(
            spec,
            stacked,
            batch,
            quiz,
            payload,
            config.eta_c,
            study_grad=g,
            study_layers=study_layers,
        )
        if config.noise_s > 0 and config.noise_p > 0:
            uploads = [
                add_privacy_noise(
                    u,
                    config.noise_s,
                    config.noise_p,
                    rngmod.stream(seed, rngmod.NOISE, c.index, round_index),
                )
                for c, u in zip(members, uploads)
            ]
    elif config.method in PROTO_METHODS:
        # One study forward per client serves its prototypes and its study
        # ce at evaluation. Only the ce is kept: holding every participant's
        # outputs to the end of the round raises the run's peak memory.
        uploads = []
        for j, (p, s) in enumerate(zip(params, studies)):
            outputs = forward_batch(spec, p, s.inputs)
            uploads.append(local_prototypes(s, outputs, config.space))
            study_ce[j] = study_cross_entropy(spec, p, s, outputs)
    else:  # local-only
        uploads = [None] * len(members)

    return [
        _ClientResult(c.index, p, u, float(g_c @ g_c), ce)
        for c, p, u, g_c, ce in zip(members, params, uploads, g, study_ce)
    ]


def run_round(
    server: ServerState,
    clients: list[ClientState],
    config: RunConfig,
    last: RoundMetrics | None = None,
) -> tuple[ServerState, RoundMetrics]:
    """Execute one communication round; mutates participants' params and
    clients' evaluation scores in place.

    ``last`` is the previous round's metrics: a round that skips evaluation
    (eval_every > 1) reports its accuracy and study ce again.
    """
    start = time.perf_counter()
    round_index = server.t + 1
    if round_index > config.rounds:
        raise ContractViolation("run_round called past the configured horizon")
    participants = sample_participants(server, config.n_clients, config.rho)
    # Stacked calls need equal shapes, so a group shares the spec and the
    # row counts of the sampled study batch and of the quiz; a study set
    # smaller than batch_size gives a smaller batch and its own group.
    groups: dict[tuple, list[ClientState]] = {}
    for i in participants:
        c = clients[i]
        key = (c.spec, min(config.batch_size, len(c.data.study)), len(c.data.quiz.labels))
        groups.setdefault(key, []).append(c)

    results: list[_ClientResult] = []
    for members in groups.values():
        _check_stackable(members, round_index)
        try:
            results += _group_work(config, server.payload, members, round_index)
        except Exception as exc:
            who = ", ".join(str(c.index) for c in members)
            label = "client" if len(members) == 1 else "clients"
            raise ContractViolation(f"{label} {who} failed in round {round_index}: {exc}") from exc
    results.sort(key=lambda r: r.index)

    study_ce = [None] * len(clients)
    for r in results:
        clients[r.index].params = r.params
        study_ce[r.index] = r.study_ce

    # Deterministic reduction in ascending client order.
    payload = server.payload
    upload_rows = 0
    if config.method in GUIDED_METHODS:
        grads = [r.upload for r in results]
        upload_rows = sum(g.uploaded_rows for g in grads)
        payload = server_update(payload, grads, config.eta_s_effective)
    elif config.method in PROTO_METHODS:
        locals_ = [r.upload for r in results]
        upload_rows = sum(int((c > 0).sum()) for _, c in locals_)
        payload = aggregate_prototypes(locals_, config.space)

    upload_bytes, download_bytes = account_bytes(
        len(participants),
        upload_rows,
        config.task.class_count,
        config.vector_dim if config.space else 0,
        config.method,
    )

    if round_index % config.eval_every == 0 or round_index == config.rounds or last is None:
        scores = [c.score for c in clients]
        accuracy, per_client, mean_ce = evaluate(
            [(c.spec, c.params, c.data) for c in clients], scores, study_ce
        )
        for c, score in zip(clients, scores):
            c.score = score
    else:
        accuracy, per_client, mean_ce = last.accuracy, last.per_client_accuracy, last.mean_ce

    # The rise above the running minimum; 0 on the first round (min_ce inf).
    inc = max(0.0, mean_ce - server.min_ce)
    new_min = min(server.min_ce, mean_ce)

    grad_norm_sq = float(np.mean([r.grad_norm_sq for r in results]))
    metrics = RoundMetrics(
        round_index=round_index,
        accuracy=accuracy,
        per_client_accuracy=per_client,
        mean_ce=mean_ce,
        loss_increase=inc,
        upload_bytes=upload_bytes,
        download_bytes=download_bytes,
        grad_norm_sq=grad_norm_sq,
        n_participants=len(participants),
        upload_rows=upload_rows,
        wall_time=time.perf_counter() - start,
    )
    new_server = ServerState(server.seed, server.method, round_index, payload, new_min)
    return new_server, metrics


@dataclass
class TrainingResult:
    config: RunConfig
    history: list[RoundMetrics]
    server: ServerState
    clients: list[ClientState]


def run_training(
    config: RunConfig,
    resume_from: str | None = None,
    checkpoint_at: int | None = None,
    checkpoint_path: str | None = None,
) -> TrainingResult:
    """Run rounds 1..T (or resume at a checkpoint's round) and collect metrics.

    With ``checkpoint_at``/``checkpoint_path`` set, a snapshot is written
    after that round completes. Resuming reproduces the remaining rounds
    bit-exactly because all randomness is keyed by (seed, client, round).
    """
    config.validate()
    clients = build_clients(config)
    if resume_from is not None:
        server = load_checkpoint(resume_from, config, clients)
    else:
        server = build_server(config)
    history: list[RoundMetrics] = []
    while server.t < config.rounds:
        server, metrics = run_round(server, clients, config, history[-1] if history else None)
        history.append(metrics)
        if checkpoint_at is not None and server.t == checkpoint_at:
            if checkpoint_path is None:
                raise ConfigError("checkpoint_path: required when checkpoint_at is set")
            save_checkpoint(checkpoint_path, config, server, clients)
    return TrainingResult(config, history, server, clients)


# ---------------------------------------------------------------------------
# Checkpoint format (version 1, all integers/floats little-endian):
#   magic "FGCK" | u32 version | u64 seed | u64 completed_rounds
#   f64 min_ce (inf when unset)
#   u16 digest_len | digest bytes (config digest, seed included)
#   u8 payload_kind (0 none, 1 guiding vectors, 2 prototypes)
#     kind 1: u64 version | u64 C | u64 M | C*M f64
#     kind 2: u64 C | u64 M | C u64 counts | C*M f64
#   u64 n_clients, then per client: u64 param_count | that many f64
# ---------------------------------------------------------------------------

_MAGIC = b"FGCK"
_CKPT_VERSION = 1


@contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing and move it into
    place with ``os.replace`` once the block completes. If the block raises,
    the temporary file is removed and ``path`` keeps its previous contents,
    so an interrupted write never leaves a half-written file that looks
    complete."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only when the block or the replace failed
            os.remove(tmp)


def save_checkpoint(
    path: str, config: RunConfig, server: ServerState, clients: list[ClientState]
):
    digest = config_digest(config).encode()
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQQd", _CKPT_VERSION, config.seed, server.t, server.min_ce))
        fh.write(struct.pack("<H", len(digest)))
        fh.write(digest)
        payload = server.payload
        if payload is None:
            fh.write(struct.pack("<B", 0))
        elif isinstance(payload, GuidingVectorSet):
            c, m = payload.vectors.shape
            fh.write(struct.pack("<BQQQ", 1, payload.version, c, m))
            fh.write(payload.vectors.astype("<f8").tobytes())
        else:
            c, m = payload.vectors.shape
            fh.write(struct.pack("<BQQ", 2, c, m))
            fh.write(payload.counts.astype("<u8").tobytes())
            fh.write(payload.vectors.astype("<f8").tobytes())
        fh.write(struct.pack("<Q", len(clients)))
        for client in clients:
            flat = client.params.flat
            fh.write(struct.pack("<Q", flat.shape[0]))
            fh.write(flat.astype("<f8").tobytes())


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError("checkpoint truncated")
    return data


def _check_header_field(path: str, field: str, found: int, expected: int):
    if found != expected:
        raise CheckpointError(f"{path}: header {field} is {found}, expected {expected}")


def load_checkpoint(path: str, config: RunConfig, clients: list[ClientState]) -> ServerState:
    """Restore server state and client params in place; returns the server.

    Every size in the file is checked against the config and the clients'
    specs before the data it sizes is read.
    """
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != _MAGIC:
            raise CheckpointError(f"{path}: bad magic")
        version, seed, t, min_ce = struct.unpack("<IQQd", _read_exact(fh, 28))
        if version != _CKPT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (digest_len,) = struct.unpack("<H", _read_exact(fh, 2))
        digest = _read_exact(fh, digest_len).decode()
        if digest != config_digest(config):
            raise CheckpointError(
                f"{path}: checkpoint was written by a different configuration"
            )
        if seed != config.seed:
            raise CheckpointError(f"{path}: seed mismatch")
        (kind,) = struct.unpack("<B", _read_exact(fh, 1))
        payload: GuidingVectorSet | PrototypeSet | None
        if kind == 0:
            payload = None
        elif kind == 1:
            gv_version, c, m = struct.unpack("<QQQ", _read_exact(fh, 24))
            _check_header_field(path, "C", c, config.task.class_count)
            _check_header_field(path, "M", m, config.vector_dim)
            vectors = np.frombuffer(_read_exact(fh, 8 * c * m), dtype="<f8").reshape(c, m)
            payload = GuidingVectorSet(vectors.copy(), method_space(config.method), gv_version)
        elif kind == 2:
            c, m = struct.unpack("<QQ", _read_exact(fh, 16))
            _check_header_field(path, "C", c, config.task.class_count)
            _check_header_field(path, "M", m, config.vector_dim)
            counts = np.frombuffer(_read_exact(fh, 8 * c), dtype="<u8").astype(np.int64)
            vectors = np.frombuffer(_read_exact(fh, 8 * c * m), dtype="<f8").reshape(c, m)
            payload = PrototypeSet(vectors.copy(), counts, method_space(config.method))
        else:
            raise CheckpointError(f"{path}: unknown payload kind {kind}")
        (n_clients,) = struct.unpack("<Q", _read_exact(fh, 8))
        _check_header_field(path, "n_clients", n_clients, len(clients))
        flats = []
        for client in clients:
            (p,) = struct.unpack("<Q", _read_exact(fh, 8))
            _check_header_field(
                path, f"param_count of client {client.index}", p, param_count(client.spec)
            )
            flats.append(np.frombuffer(_read_exact(fh, 8 * p), dtype="<f8").copy())
    for client, flat in zip(clients, flats):
        client.params = params_from_flat(client.spec, flat)
    return ServerState(seed, config.method, t, payload, min_ce)
