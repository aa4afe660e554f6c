"""Round orchestration: participation sampling, warm-up, client work,
aggregation, server update, and checkpointing.

Each client's randomness comes from a private stream keyed by
(seed, purpose, client, round), so results do not depend on the order in
which a round's groups run, and a run resumed from a checkpoint repeats the
remaining rounds bit for bit; the server reduces uploads in ascending client
order at the end of the round.

Participants sharing an architecture and a study-batch size step together:
each kernel call of a round covers the whole group as one stack, and every
client's result equals, bit for bit, what it would compute alone. Each
client keeps its parameters in a vector of its own, which its group gathers
into one stack for the round, and each group's fixed structure is a plan
built once and reused while its members stay the same.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import time
from collections import Counter
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
    study_layout,
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
from .metrics import ClientScore, RoundMetrics, account_bytes, evaluate, study_cross_entropies
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
    run_sgd_epoch,
    stack_batches,
)

# Space defaults for the server learning rate; scaled by RunConfig.eta_s_scale
# because the desk-scale vector dimensions are far below production ones.
DEFAULT_ETA_S = {"logit": 0.1, "feature": 100.0}


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
        if self.class_count < 1:
            raise ConfigError("class_count: must be >= 1")
        if self.partition == "pathological" and self.classes_per_client > self.class_count:
            raise ConfigError(
                f"classes_per_client: must be <= class_count = {self.class_count}, "
                f"got {self.classes_per_client}"
            )
        if self.input_dim < 1:
            raise ConfigError("input_dim: must be >= 1")
        if self.source == "synthetic":
            if self.samples_per_class < 1:
                raise ConfigError("samples_per_class: must be >= 1")
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
        if self.feature_dim < 1:
            raise ConfigError("feature_dim: must be >= 1")
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
        task = self.task
        if task.partition == "pathological" and (
            self.n_clients * task.classes_per_client < task.class_count
        ):
            raise ConfigError(
                f"classes_per_client: n_clients * classes_per_client = "
                f"{self.n_clients * task.classes_per_client} is below class_count = "
                f"{task.class_count}, which leaves some class unassigned"
            )

    @property
    def family(self) -> _Local:
        return _METHODS[self.method][0]

    @property
    def space(self) -> str | None:
        return _METHODS[self.method][1]

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
    """One client's fixed architecture, current parameters, and local data."""

    index: int
    spec: ModelSpec
    params: ModelParams
    data: ClientDataset


@dataclass
class ServerState:
    """Everything a checkpoint carries besides the clients' parameters, and
    nothing the config already says; a new one is built each round."""

    t: int  # completed rounds
    payload: GuidingVectorSet | PrototypeSet | None
    min_ce: float = np.inf  # running minimum of mean study ce, for loss-increase
    # The last evaluation, (accuracy, per-client accuracies, mean study ce),
    # which a round that skips evaluation reports again; None before round 1.
    evaluation: tuple[float, np.ndarray, float] | None = None


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
    splits = split_client(ds, plan, task.test_fraction, config.quiz_size, config.seed)
    inits = rngmod.client_streams(config.seed, rngmod.MODEL_INIT, config.n_clients)
    clients = []
    for i, (data, gen) in enumerate(zip(splits, inits)):
        spec = family_spec(
            i, task.input_dim, config.feature_dim, task.class_count, config.activation
        )
        clients.append(ClientState(i, spec, init_params(spec, gen), data))
    return clients


def build_server(config: RunConfig) -> ServerState:
    return ServerState(0, config.family.initial_payload(config))


def sample_participants(config: RunConfig, round_index: int) -> list[int]:
    """Uniform subset of size round(rho * N), at least 1, for round ``round_index``."""
    gen = rngmod.stream(config.seed, rngmod.PARTICIPATION, round_index)
    size = _participant_count(config.n_clients, config.rho)
    chosen = gen.choice(config.n_clients, size=size, replace=False)
    return sorted(int(i) for i in chosen)


def _participant_count(n_clients: int, rho: float) -> int:
    return min(n_clients, max(1, int(round(rho * n_clients))))


@dataclass
class _ClientResult:
    index: int
    upload: GuidanceGradient | tuple[np.ndarray, np.ndarray] | None
    grad_norm_sq: float
    # The new params' study ce, when the round's own study forward gave it.
    study_ce: float | None = None


class _Local:
    """local-only, and the other families' defaults: pure cross-entropy, no
    payload, no uploads, training from round 1. A family decides what its
    methods add to the local objective and how the server learns it."""

    kind, payload_type = 0, type(None)  # the checkpoint's payload kind and type
    trains_in_warmup = True

    def purposes(self, config: RunConfig) -> tuple[int, ...]:
        """Per-client, per-round stream purposes drawn besides EPOCH and BATCH."""
        return ()

    def initial_payload(self, config: RunConfig):
        return None

    def loss_config(self, payload) -> LossConfig:
        return guided_loss_config(payload)  # pure ce without a payload

    def plan(self, plan: _GroupPlan, plans: RoundPlans):
        """Add what the group's uploads need to its plan."""

    def uploads(self, config: RunConfig, payload, plan: _GroupPlan, round_index: int, g, layers):
        """Each member's upload, and its new params' study ce when known."""
        return [None] * len(plan.members), [None] * len(plan.members)

    def server_step(self, config: RunConfig, payload, uploads: list):
        """The next payload and the row count of the uploads (client order)."""
        return payload, 0


class _Guided(_Local):
    """fedl2g-l/-f: guiding vectors learned from uploaded quiz-loss gradients."""

    kind, payload_type = 1, GuidingVectorSet
    trains_in_warmup = False

    def purposes(self, config):
        return (rngmod.NOISE,) if config.noise_s > 0 and config.noise_p > 0 else ()

    def initial_payload(self, config):
        return init_guiding_vectors(
            config.task.class_count, config.vector_dim, config.space, config.seed
        )

    def plan(self, plan, plans):
        plan.direction = plans.view(2, *plan.stack.flat.shape)
        plan.quiz = stack_batches([c.data.quiz for c in plan.members])

    def uploads(self, config, payload, plan, round_index, g, layers):
        # Pseudo-train writes theta' over g, which nothing reads afterwards.
        uploads = guidance_gradient(
            plan.spec,
            plan.stack,
            plan.batch,
            plan.quiz,
            payload,
            config.eta_c,
            study_grad=g,
            study_layers=layers,
            buffers=(plan.grad, plan.direction),
        )
        if rngmod.NOISE in plan.streams.purposes:
            gens = plan.streams.generators(rngmod.NOISE, plan.member_indices, round_index)
            s, p = config.noise_s, config.noise_p
            uploads = [add_privacy_noise(u, s, p, gen) for u, gen in zip(uploads, gens)]
        return uploads, [None] * len(uploads)

    def server_step(self, config, payload, uploads):
        rows = sum(g.uploaded_rows for g in uploads)
        return server_update(payload, uploads, config.eta_s_effective), rows


class _Prototype(_Local):
    """fedproto/feddistill: count-weighted class means of features or logits."""

    kind, payload_type = 2, PrototypeSet

    def initial_payload(self, config):
        return empty_prototypes(config.task.class_count, config.vector_dim, config.space)

    def loss_config(self, payload):
        return prototype_loss_config(payload)

    def plan(self, plan, plans):
        plan.study = study_layout([c.data.study for c in plan.members])

    def uploads(self, config, payload, plan, round_index, g, layers):
        # One study forward per client; its prototypes and its study ce at
        # evaluation are then taken over the group's outputs at once.
        outputs = [forward_batch(plan.spec, c.params, c.data.study.inputs) for c in plan.members]
        logits = np.concatenate([l for _, l in outputs])
        guided = logits if config.space == "logit" else np.concatenate([f for f, _ in outputs])
        uploads = local_prototypes(plan.study, guided)
        return uploads, study_cross_entropies(logits, plan.study.labels, plan.study.bounds)

    def server_step(self, config, payload, uploads):
        rows = sum(int((c > 0).sum()) for _, c in uploads)
        return aggregate_prototypes(uploads, config.space), rows


_GUIDED, _PROTOTYPE = _Guided(), _Prototype()
# method -> (family, the space its payload lives in); METHODS keeps this order.
_METHODS = {
    "fedl2g-l": (_GUIDED, "logit"),
    "fedl2g-f": (_GUIDED, "feature"),
    "fedproto": (_PROTOTYPE, "feature"),
    "feddistill": (_PROTOTYPE, "logit"),
    "local-only": (_Local(), None),
}
METHODS = tuple(_METHODS)


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


class _GroupPlan:
    """What one group keeps across rounds while its members stay the same:
    the members in epoch order (most steps first, then by client index),
    the telemetry-batch buffers and scratch views, each bound once, what the
    method's family adds (the stacked quiz and a direction view, or the
    layout of the study sets), and the run's streams and score cache.
    """

    def __init__(self, plans: RoundPlans, members: list[ClientState], round_index: int):
        _check_stackable(members, round_index)
        config = plans.config
        self.streams = plans.streams
        self.scores = plans.scores
        self.indices = [c.index for c in members]
        # members come in client order, and the sort is stable
        members = sorted(members, key=lambda c: -(len(c.data.study) // config.batch_size))
        self.members = members
        self.member_indices = [c.index for c in members]
        self.spec = spec = members[0].spec
        k, p = len(members), param_count(spec)
        self.stack = plans.view(0, k, p)
        self.grad = plans.view(1, k, p)
        self.steps = [len(c.data.study) // config.batch_size for c in members]
        self.study_inputs = [c.data.study.inputs for c in members]
        self.study_labels = [c.data.study.labels for c in members]
        n = min(config.batch_size, len(members[0].data.study))
        self.batch = MiniBatch(np.empty((k, n, spec.input_dim)), np.zeros((k, n), np.int64))
        config.family.plan(self, plans)


class RoundPlans:
    """What a run keeps from round to round that a fresh object rebuilds
    without changing any output: the clients and config, the streams its
    clients draw from each round, the group plans, the scratch they share,
    and each client's last evaluation score.

    It assumes that only run_round writes its clients' parameters (a score
    stays cached until a round steps its client); run_training makes one
    after any checkpoint load. Stacked calls need equal shapes, so a group
    shares the spec and the row counts of the sampled study batch and of
    the quiz; a study set smaller than batch_size gives its own group.

    Scratch holds the (k, P) arrays a group needs only while its round
    runs, one buffer per region: 0, the members' parameters gathered into
    one stack; 1, the gradient (the epoch's, then the telemetry one, then
    the pseudo-trained parameters stepped from it); 2, the quiz gradient.
    Groups run one after another, so all plans share the buffers.
    """

    def __init__(self, clients: list[ClientState], config: RunConfig):
        self.clients = clients
        self.config = config
        purposes = [rngmod.EPOCH, rngmod.BATCH, *config.family.purposes(config)]
        self.streams = rngmod.RoundStreams(config.seed, purposes, len(clients), config.rounds)
        # Each client's score, None until evaluated and once it is stepped.
        self.scores: list[ClientScore | None] = [None] * len(clients)
        k = _participant_count(len(clients), config.rho)  # the largest group
        per_spec = Counter(c.spec for c in clients)
        self._scratch_size = max(min(n, k) * param_count(s) for s, n in per_spec.items())
        self._buffers: list[np.ndarray | None] = [None] * 3
        self._views: dict[tuple[int, int, int], ModelParams] = {}
        self._plans: dict[tuple, _GroupPlan] = {}
        self._participants: list[int] | None = None
        self._groups: list[_GroupPlan] = []

    def view(self, region: int, k: int, p: int) -> ModelParams:
        """The (k, p) view of a scratch region, each made once, so a rebuilt
        plan of a shape seen before reuses the block views bound on it."""
        found = self._views.get((region, k, p))
        if found is None:
            if self._buffers[region] is None:
                self._buffers[region] = np.empty(self._scratch_size)
            found = ModelParams(self._buffers[region][: k * p].reshape(k, p))
            self._views[region, k, p] = found
        return found

    def groups(self, participants: list[int], round_index: int) -> list[_GroupPlan]:
        """The plans of this round's groups: the last round's when the
        participants are the same, otherwise each key's plan, rebuilt if
        its members changed."""
        if participants == self._participants:
            return self._groups
        config = self.config
        grouped: dict[tuple, list[ClientState]] = {}
        for i in participants:
            c = self.clients[i]
            key = (c.spec, min(config.batch_size, len(c.data.study)), len(c.data.quiz.labels))
            grouped.setdefault(key, []).append(c)
        plans = []
        for key, members in grouped.items():
            plan = self._plans.get(key)
            if plan is None or plan.indices != [c.index for c in members]:
                plan = self._plans[key] = _GroupPlan(self, members, round_index)
            plans.append(plan)
        self._participants, self._groups = participants, plans
        return plans


@contextmanager
def _computing(plan: _GroupPlan, round_index: int, quantity: str):
    """Re-raise a failure of the block naming the group's clients, the
    round and the quantity they were computing."""
    try:
        yield
    except Exception as exc:
        who = ", ".join(map(str, plan.indices))
        label = "client" if len(plan.indices) == 1 else "clients"
        raise ContractViolation(
            f"{label} {who} failed in round {round_index} computing their {quantity}: {exc}"
        ) from exc


def _group_work(
    config: RunConfig,
    payload: GuidingVectorSet | PrototypeSet | None,
    plan: _GroupPlan,
    round_index: int,
) -> list[_ClientResult]:
    """All of one round's work for a group: local epoch, telemetry gradient
    and upload, each step one stacked call over the group. Steps the
    members' parameters in place and drops the cached scores of those it
    stepped."""
    spec, members, stack, streams = plan.spec, plan.members, plan.stack, plan.streams
    loss_cfg = config.family.loss_config(payload)
    np.stack([c.params.flat for c in members], out=stack.flat)
    if config.family.trains_in_warmup or round_index > config.warmup:
        with _computing(plan, round_index, "parameters (local epoch)"):
            run_sgd_epoch(
                spec,
                stack,
                plan.study_inputs,
                plan.study_labels,
                loss_cfg,
                config.eta_c,
                config.batch_size,
                streams.generators(rngmod.EPOCH, plan.member_indices, round_index),
                grad=plan.grad,
            )
            if plan.steps[0]:
                for c, row in zip(members, stack.flat):
                    c.params.flat[...] = row
        for i, steps in zip(plan.member_indices, plan.steps):
            if steps:
                plan.scores[i] = None

    with _computing(plan, round_index, "upload"):
        # Each member draws its study batch from its own BATCH stream; the
        # rows are gathered straight into the group's stacked batch.
        batch = plan.batch
        n = batch.labels.shape[1]
        batch_streams = streams.generators(rngmod.BATCH, plan.member_indices, round_index)
        for j, (c, gen) in enumerate(zip(members, batch_streams)):
            s = c.data.study
            idx = gen.choice(len(s), size=n, replace=False)
            batch.inputs[j], batch.labels[j] = s.inputs[idx], s.labels[idx]
        layers = []  # g's forward pass, which the guidance JVP reuses
        g = grad_params(spec, stack, batch, loss_cfg, out=plan.grad, layers_out=layers)
        grad_norm_sq = [float(g_c @ g_c) for g_c in g]
        uploads, study_ce = config.family.uploads(config, payload, plan, round_index, g, layers)

    return [
        _ClientResult(c.index, u, norm, ce)
        for c, u, norm, ce in zip(members, uploads, grad_norm_sq, study_ce)
    ]


def run_round(server: ServerState, plans: RoundPlans) -> tuple[ServerState, RoundMetrics]:
    """Execute one communication round of the run ``plans`` was made for;
    steps participants' parameters and brings the cached evaluation scores
    up to date, in place.

    A round that skips evaluation (eval_every > 1) reports the server's
    last evaluation again. The round runs under a floating-point state that
    raises on overflow, invalid operations and division by zero (not
    underflow), so the first non-finite value stops it with an error that
    names the round and where it arose: the clients and the quantity they
    were computing (their parameters in the local epoch, or their upload),
    the server update's payload, or the evaluation.
    """
    start = time.perf_counter()
    clients, config = plans.clients, plans.config
    round_index = server.t + 1
    if round_index > config.rounds:
        raise ContractViolation("run_round called past the configured horizon")
    participants = sample_participants(config, round_index)
    groups = plans.groups(participants, round_index)
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        results: list[_ClientResult] = []
        for plan in groups:
            results += _group_work(config, server.payload, plan, round_index)
        results.sort(key=lambda r: r.index)

        # Deterministic reduction in ascending client order.
        try:
            payload, upload_rows = config.family.server_step(
                config, server.payload, [r.upload for r in results]
            )
        except Exception as exc:
            raise ContractViolation(
                f"server update failed in round {round_index} computing the payload: {exc}"
            ) from exc

        upload_bytes, download_bytes = account_bytes(
            len(participants),
            upload_rows,
            config.task.class_count,
            config.vector_dim if config.space else 0,
            config.method,
        )

        evaluation = server.evaluation
        due = round_index % config.eval_every == 0 or round_index == config.rounds
        if due or evaluation is None:
            study_ce = [None] * len(clients)
            for r in results:
                study_ce[r.index] = r.study_ce
            try:
                evaluation = evaluate(
                    [(c.spec, c.params, c.data) for c in clients], plans.scores, study_ce
                )
            except Exception as exc:
                raise ContractViolation(
                    f"evaluation failed in round {round_index}: {exc}"
                ) from exc
        accuracy, per_client, mean_ce = evaluation

        grad_norm_sq = float(np.mean([r.grad_norm_sq for r in results]))

    # The rise above the running minimum; 0 on the first round (min_ce inf).
    inc = max(0.0, mean_ce - server.min_ce)
    new_min = min(server.min_ce, mean_ce)
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
    return ServerState(round_index, payload, new_min, evaluation), metrics


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
    after that round completes; a ``checkpoint_at`` the run never reaches
    is an error before the first round. Resuming reproduces the remaining
    rounds bit-exactly because all randomness is keyed by (seed, client,
    round) and the checkpoint carries the last evaluation.
    """
    config.validate()
    if checkpoint_at is not None and checkpoint_path is None:
        raise ConfigError("checkpoint_path: required when checkpoint_at is set")
    _check_checkpoint_at(checkpoint_at, 0, config.rounds)
    if checkpoint_at is not None:
        directory = os.path.dirname(checkpoint_path) or "."
        if not os.path.isdir(directory):
            raise ConfigError(f"checkpoint_path: directory {directory} does not exist")
    clients = build_clients(config)
    if resume_from is not None:
        server = load_checkpoint(resume_from, config, clients)
        _check_checkpoint_at(checkpoint_at, server.t, config.rounds)
    else:
        server = build_server(config)
    plans = RoundPlans(clients, config)
    history: list[RoundMetrics] = []
    while server.t < config.rounds:
        server, metrics = run_round(server, plans)
        history.append(metrics)
        if server.t == checkpoint_at:
            save_checkpoint(checkpoint_path, config, server, clients)
    return TrainingResult(config, history, server, clients)


def _check_checkpoint_at(at: int | None, t: int, rounds: int):
    """Raise unless round ``at``, when set, is one a run past round t reaches."""
    if at is not None and not t < at <= rounds:
        raise ConfigError(f"checkpoint_at: must satisfy {t} < checkpoint_at <= {rounds}, got {at}")


# ---------------------------------------------------------------------------
# Checkpoint format (version 2, all integers/floats little-endian):
#   magic "FGCK" | u32 version | u64 seed | u64 completed_rounds
#   f64 min_ce (inf when unset)
#   u16 digest_len | digest bytes (config digest, seed included)
#   u8 payload_kind (0 none, 1 guiding vectors, 2 prototypes)
#     kind 1: u64 version | u64 C | u64 M | C*M f64
#     kind 2: u64 C | u64 M | C u64 counts | C*M f64
#   u64 n_clients
#   u8 has_evaluation | f64 accuracy | f64 mean_ce | n_clients f64 per-client
#     accuracies (the last evaluation; all zero when has_evaluation is 0)
#   per client: u64 param_count | that many f64
# ---------------------------------------------------------------------------

_MAGIC = b"FGCK"
_CKPT_VERSION = 2


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
    payload, kind, expected = server.payload, config.family.kind, config.family.payload_type
    if not isinstance(payload, expected):
        raise ContractViolation(
            f"{config.method} checkpoints hold payload kind {kind} "
            f"({expected.__name__}), got a {type(payload).__name__}"
        )
    digest = config_digest(config).encode()
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQQd", _CKPT_VERSION, config.seed, server.t, server.min_ce))
        fh.write(struct.pack("<H", len(digest)))
        fh.write(digest)
        if kind == 0:
            fh.write(struct.pack("<B", 0))
        elif kind == 1:
            c, m = payload.vectors.shape
            fh.write(struct.pack("<BQQQ", 1, payload.version, c, m))
            fh.write(payload.vectors.astype("<f8").tobytes())
        else:
            c, m = payload.vectors.shape
            fh.write(struct.pack("<BQQ", 2, c, m))
            fh.write(payload.counts.astype("<u8").tobytes())
            fh.write(payload.vectors.astype("<f8").tobytes())
        fh.write(struct.pack("<Q", len(clients)))
        accuracy, per_client, mean_ce = server.evaluation or (0.0, np.zeros(len(clients)), 0.0)
        fh.write(struct.pack("<Bdd", server.evaluation is not None, accuracy, mean_ce))
        fh.write(per_client.astype("<f8").tobytes())
        for client in clients:
            flat = client.params.flat
            fh.write(struct.pack("<Q", flat.shape[0]))
            fh.write(flat.astype("<f8").tobytes())


def _read_exact(fh, path: str, n: int, section: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"{path}: checkpoint truncated in the {section}")
    return data


def _read_finite(fh, path: str, n: int, quantity: str) -> np.ndarray:
    """The next n f64 values, which must all be finite."""
    values = np.frombuffer(_read_exact(fh, path, 8 * n, quantity), dtype="<f8")
    if not np.isfinite(values).all():
        raise CheckpointError(f"{path}: non-finite value in the {quantity}")
    return values


def _check_header_field(path: str, field: str, found: int, expected: int):
    if found != expected:
        raise CheckpointError(f"{path}: header {field} is {found}, expected {expected}")


def load_checkpoint(path: str, config: RunConfig, clients: list[ClientState]) -> ServerState:
    """Restore server state and client params in place; returns the server.

    Every size in the file is checked against the config and the clients'
    specs before the data it sizes is read, every value is checked to be
    finite (min_ce may be inf, its unset value) and every count to fit an
    int64, and the whole file, which must end after the last client, is read
    before any client's parameters are written.
    """
    with open(path, "rb") as fh:
        if _read_exact(fh, path, 4, "header") != _MAGIC:
            raise CheckpointError(f"{path}: bad magic")
        version, seed, t, min_ce = struct.unpack("<IQQd", _read_exact(fh, path, 28, "header"))
        if version != _CKPT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        if not -math.inf < min_ce <= math.inf:
            raise CheckpointError(f"{path}: min_ce is {min_ce}, expected a number or inf")
        (digest_len,) = struct.unpack("<H", _read_exact(fh, path, 2, "header"))
        digest = config_digest(config).encode()
        _check_header_field(path, "digest_len", digest_len, len(digest))
        if _read_exact(fh, path, digest_len, "config digest") != digest:
            raise CheckpointError(
                f"{path}: checkpoint was written by a different configuration"
            )
        if seed != config.seed:
            raise CheckpointError(f"{path}: seed mismatch")
        (kind,) = struct.unpack("<B", _read_exact(fh, path, 1, "payload"))
        expected_kind = config.family.kind
        if kind != expected_kind:
            raise CheckpointError(
                f"{path}: payload kind {kind} does not match method {config.method}, "
                f"which holds kind {expected_kind}"
            )
        payload: GuidingVectorSet | PrototypeSet | None = None
        if kind == 1:
            gv_version, c, m = struct.unpack("<QQQ", _read_exact(fh, path, 24, "payload"))
            _check_header_field(path, "C", c, config.task.class_count)
            _check_header_field(path, "M", m, config.vector_dim)
            vectors = _read_finite(fh, path, c * m, "payload vectors").reshape(c, m)
            payload = GuidingVectorSet(vectors.copy(), config.space, gv_version)
        elif kind == 2:
            c, m = struct.unpack("<QQ", _read_exact(fh, path, 16, "payload"))
            _check_header_field(path, "C", c, config.task.class_count)
            _check_header_field(path, "M", m, config.vector_dim)
            counts = np.frombuffer(_read_exact(fh, path, 8 * c, "payload"), dtype="<u8")
            if (counts > np.iinfo(np.int64).max).any():
                raise CheckpointError(f"{path}: a prototype count is above 2**63 - 1")
            vectors = _read_finite(fh, path, c * m, "payload vectors").reshape(c, m)
            payload = PrototypeSet(vectors.copy(), counts.astype(np.int64), config.space)
        (n_clients,) = struct.unpack("<Q", _read_exact(fh, path, 8, "evaluation"))
        _check_header_field(path, "n_clients", n_clients, len(clients))
        (has_evaluation,) = struct.unpack("<B", _read_exact(fh, path, 1, "evaluation"))
        if has_evaluation > 1:
            raise CheckpointError(f"{path}: bad evaluation flag {has_evaluation}")
        # accuracy, mean ce, per-client accuracies; all zero when absent
        values = _read_finite(fh, path, 2 + n_clients, "evaluation")
        accuracy, mean_ce = float(values[0]), float(values[1])
        evaluation = (accuracy, values[2:].astype(np.float64), mean_ce) if has_evaluation else None
        flats = []
        for client in clients:
            section = f"parameters of client {client.index}"
            (p,) = struct.unpack("<Q", _read_exact(fh, path, 8, section))
            _check_header_field(
                path, f"param_count of client {client.index}", p, param_count(client.spec)
            )
            flats.append(_read_finite(fh, path, p, section))
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the last client")
    for client, flat in zip(clients, flats):
        client.params.flat[...] = flat
    return ServerState(t, payload, min_ce, evaluation)
