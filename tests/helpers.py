"""Shared test utilities: independent finite-difference oracles, random
problem instances, the small federated run configuration, a metric-file
reader and the vector-separability diagnostics of criterion 09. The oracles
only ever call forward/total_loss, never the gradient code they check."""

from __future__ import annotations

import numpy as np

from fedguide import nn, rng
from fedguide.cli import METRIC_HEADER
from fedguide.errors import ConfigError, ContractViolation
from fedguide.federation import RunConfig, TaskConfig, config_digest
from fedguide.guidance import GuidingVectorSet, pseudo_train
from fedguide.nn import LossConfig, MiniBatch, ModelParams, ModelSpec


SMALL_TASK = TaskConfig(
    class_count=6, input_dim=8, samples_per_class=60, cluster_spread=0.6, beta=1.0
)


def small_config(method="fedl2g-f", **kwargs) -> RunConfig:
    """A 6-client, 8-round run on a small synthetic task; seconds to train."""
    defaults = dict(
        method=method,
        n_clients=6,
        rounds=8,
        warmup=2,
        quiz_size=5,
        seed=3,
        feature_dim=8,
        task=SMALL_TASK,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def checkpoint_regions(cfg: RunConfig, clients, blob) -> dict[str, list[int]]:
    """Byte offsets of the values in a checkpoint of ``cfg``, by region:
    "min_ce", "counts" (the u64 prototype counts), "payload" (the f64
    payload vectors), "evaluation" (f64 accuracy, mean ce and per-client
    accuracies) and "params" (every client's f64 parameters); read from
    the format's layout, not from the loader."""
    kind_at = 4 + 28 + 2 + len(config_digest(cfg))
    kind = blob[kind_at]
    c, m = cfg.task.class_count, cfg.vector_dim
    at = kind_at + 1 + (0, 24, 16)[kind]
    counts = list(range(at, at + 8 * c, 8)) if kind == 2 else []
    at += 8 * len(counts)
    payload = list(range(at, at + 8 * c * m, 8)) if kind else []
    at += 8 * len(payload) + 8 + 1  # the client count and the evaluation flag
    evaluation = list(range(at, at + 8 * (2 + len(clients)), 8))
    at += 8 * len(evaluation)
    params = []
    for client in clients:
        p = nn.param_count(client.spec)
        params += range(at + 8, at + 8 + 8 * p, 8)
        at += 8 + 8 * p
    assert at == len(blob)
    return dict(min_ce=[24], counts=counts, payload=payload, evaluation=evaluation, params=params)


def client_prototypes(study, outputs, space):
    """Reference per-client prototypes: the per-class mean of the guided
    outputs over one client's study samples, one mask per class; absent
    classes get zero rows with count 0."""
    features, logits = outputs
    out = logits if space == "logit" else features
    C = study.class_count
    vectors = np.zeros((C, out.shape[1]))
    counts = np.bincount(study.labels, minlength=C)
    for y in np.flatnonzero(counts):
        vectors[y] = out[study.labels == y].mean(axis=0)
    return vectors, counts


def stack_params(params) -> ModelParams:
    """Same-spec clients' parameters as one (k, P) stack (a copy)."""
    return ModelParams(np.stack([p.flat for p in params]))


def fd_grad_params(
    spec: ModelSpec,
    params: ModelParams,
    batch: MiniBatch,
    cfg: LossConfig,
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of total_loss w.r.t. every parameter."""
    out = np.zeros_like(params.flat)
    for j in range(out.shape[0]):
        hi, lo = ModelParams(params.flat.copy()), ModelParams(params.flat.copy())
        hi.flat[j] += step
        lo.flat[j] -= step
        out[j] = (
            nn.total_loss(spec, hi, batch, cfg) - nn.total_loss(spec, lo, batch, cfg)
        ) / (2 * step)
    return out


def fd_jvp(
    spec: ModelSpec,
    params: ModelParams,
    inputs: np.ndarray,
    direction: np.ndarray,
    space: str,
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference directional derivative of the guided map."""
    hi = ModelParams(params.flat + step * direction)
    lo = ModelParams(params.flat - step * direction)
    f_hi, l_hi = nn.forward_batch(spec, hi, inputs)
    f_lo, l_lo = nn.forward_batch(spec, lo, inputs)
    if space == "feature":
        return (f_hi - f_lo) / (2 * step)
    return (l_hi - l_lo) / (2 * step)


def quiz_ce_after_pseudo(
    spec: ModelSpec,
    params: ModelParams,
    study_batch: MiniBatch,
    quiz: MiniBatch,
    gset: GuidingVectorSet,
    eta_c: float,
) -> float:
    """The composed map the guidance gradient differentiates: pseudo-train,
    then mean quiz cross-entropy."""
    theta_prime = pseudo_train(spec, params, study_batch, gset, eta_c)
    return nn.total_loss(spec, theta_prime, quiz, LossConfig(use_ce=True))


def fd_guidance_gradient(
    spec: ModelSpec,
    params: ModelParams,
    study_batch: MiniBatch,
    quiz: MiniBatch,
    gset: GuidingVectorSet,
    eta_c: float,
    step: float = 1e-5,
) -> np.ndarray:
    """Central differences of the composed map over every v^y coordinate."""
    C, M = gset.vectors.shape
    out = np.zeros((C, M))
    for y in range(C):
        for m in range(M):
            hi = GuidingVectorSet(gset.vectors.copy(), gset.space)
            hi.vectors[y, m] += step
            lo = GuidingVectorSet(gset.vectors.copy(), gset.space)
            lo.vectors[y, m] -= step
            out[y, m] = (
                quiz_ce_after_pseudo(spec, params, study_batch, quiz, hi, eta_c)
                - quiz_ce_after_pseudo(spec, params, study_batch, quiz, lo, eta_c)
            ) / (2 * step)
    return out


def rel_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Max absolute deviation normalized by the reference's largest entry."""
    scale = max(np.abs(reference).max(), 1e-12)
    return float(np.abs(analytic - reference).max() / scale)


def reference_init_params(spec: ModelSpec, gen: np.random.Generator) -> np.ndarray:
    """init_params as first written: one ``uniform(-bound, bound)`` draw per
    affine block, bound = sqrt(6 / (fan_in + fan_out))."""
    out = np.empty(nn.param_count(spec))
    offsets, _ = nn._layout(spec)
    for (fan_in, fan_out), start, end in zip(nn.affine_dims(spec), offsets, offsets[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        out[start:end] = gen.uniform(-bound, bound, size=end - start)
    return out


def random_instance(seed: int, class_count: int = 3, feature_dim: int = 5, smooth: bool = True):
    """Seeded tiny net (< 500 params) with a batch; tanh keeps it smooth for
    finite differences."""
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 4))
    widths = tuple(int(rng.integers(3, 9)) for _ in range(depth))
    spec = ModelSpec(4, widths, feature_dim, class_count, "tanh" if smooth else "relu")
    assert nn.param_count(spec) <= 500
    params = nn.init_params(spec, rng)
    n = int(rng.integers(3, 9))
    batch = MiniBatch(rng.standard_normal((n, 4)), rng.integers(0, class_count, n))
    return spec, params, batch, rng


def reference_largest_remainder(shares, total):
    """One row's largest-remainder counts as first written: floors, then one
    more to each of the largest fractional parts by a lexsort on (-fraction,
    index). The partition and split references round with it, not with the
    code under test."""
    raw = shares * total
    counts = np.floor(raw).astype(np.int64)
    remainder = total - counts.sum()
    if remainder > 0:
        order = np.lexsort((np.arange(shares.shape[0]), -(raw - counts)))
        counts[order[:remainder]] += 1
    return counts


def reference_dirichlet(ds, n_clients, beta, seed, min_per_client, max_retries):
    """partition_dirichlet as first written: every draw builds its whole
    assignment, one slice write per client. Returns the accepted assignment
    (None if every draw was rejected) and the best rejected draw's smallest
    client."""
    best = 0
    for attempt in range(max_retries):
        gen = rng.stream(seed, rng.PARTITION, attempt)
        assignment = np.empty(len(ds), dtype=np.int64)
        for y in range(ds.class_count):
            idx = np.nonzero(ds.labels == y)[0]
            gen.shuffle(idx)
            shares = gen.dirichlet(np.full(n_clients, beta))
            counts = reference_largest_remainder(shares, idx.shape[0])
            start = 0
            for client, c in enumerate(counts):
                assignment[idx[start : start + c]] = client
                start += c
        smallest = int(np.bincount(assignment, minlength=n_clients).min())
        if smallest >= min_per_client:
            return assignment, best
        best = max(best, smallest)
    return None, best


def reference_pathological(ds, n_clients, cpc, seed, min_per_client, max_retries):
    """partition_pathological as first written: every draw that gives each
    holder a sample builds its whole assignment, one slice write per
    client. Returns the accepted assignment (None if every draw was
    rejected) and the best rejected draw's smallest client."""
    C = ds.class_count
    best = 0
    for attempt in range(max_retries):
        gen = rng.stream(seed, rng.PARTITION, attempt)
        usage = np.zeros(C, dtype=np.int64)
        client_classes = []
        for _ in range(n_clients):
            tiebreak = gen.permutation(C)
            order = np.lexsort((tiebreak, usage))
            chosen = order[:cpc]
            usage[chosen] += 1
            client_classes.append(np.sort(chosen))
        assignment = np.empty(len(ds), dtype=np.int64)
        ok = True
        for y in range(C):
            holders = np.array([i for i in range(n_clients) if y in client_classes[i]])
            idx = np.nonzero(ds.labels == y)[0]
            gen.shuffle(idx)
            k = holders.shape[0]
            if idx.shape[0] < k:
                ok = False
                break
            shares = gen.dirichlet(np.ones(k))
            counts = reference_largest_remainder(shares, idx.shape[0] - k) + 1
            start = 0
            for client, c in zip(holders, counts):
                assignment[idx[start : start + c]] = client
                start += c
        if ok:
            smallest = int(np.bincount(assignment, minlength=n_clients).min())
            if smallest >= min_per_client:
                return assignment, best
            best = max(best, smallest)
    return None, best


def plan_shards(plan):
    """Every client's sample indices, ascending, one mask per client."""
    return [np.flatnonzero(plan.assignment == i) for i in range(plan.n_clients)]


def reference_split(ds_i, test_fraction, quiz_size, seed, client_index):
    """split_client as first written, on one client's shard: np.unique
    counts, a per-class mask loop for the quiz and np.setdiff1d for the
    study set. Returns the study, quiz and test sets as Datasets."""
    gen = rng.stream(seed, rng.SPLIT, client_index)
    perm = gen.permutation(len(ds_i))
    test_n = max(1, int(len(ds_i) * test_fraction))
    test_idx, train_idx = perm[:test_n], perm[test_n:]
    train_labels = ds_i.labels[train_idx]
    classes, class_counts = np.unique(train_labels, return_counts=True)
    quotas = reference_largest_remainder(class_counts / class_counts.sum(), quiz_size)
    quiz_idx = np.concatenate(
        [train_idx[train_labels == y][:q] for y, q in zip(classes, quotas)]
    )
    study_idx = np.setdiff1d(train_idx, quiz_idx)
    return ds_i.subset(study_idx), ds_i.subset(quiz_idx), ds_i.subset(test_idx)


def read_metrics_csv(path: str) -> dict[str, np.ndarray]:
    """Parse a metric file back into named columns."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != METRIC_HEADER:
            raise ConfigError(f"{path}: unexpected metric header {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    names = METRIC_HEADER.split(",")
    cols = {name: np.array([float(r[j]) for r in rows]) for j, name in enumerate(names)}
    cols["round"] = cols["round"].astype(np.int64)
    cols["upload_bytes"] = cols["upload_bytes"].astype(np.int64)
    cols["download_bytes"] = cols["download_bytes"].astype(np.int64)
    return cols


def separability_stats(vectors_or_set) -> tuple[float, float]:
    """Min and mean pairwise Euclidean distance over the valid class rows.

    Accepts a raw (C, M) matrix, a guiding-vector set, or a prototype set
    (whose count-0 rows are skipped). Needs at least two valid rows.
    """
    counts = getattr(vectors_or_set, "counts", None)
    vectors = getattr(vectors_or_set, "vectors", vectors_or_set)
    vectors = np.asarray(vectors, dtype=np.float64)
    if counts is not None:
        vectors = vectors[np.asarray(counts) > 0]
    if vectors.ndim != 2 or vectors.shape[0] < 2:
        raise ContractViolation("separability_stats needs at least 2 valid rows")
    diffs = vectors[:, None, :] - vectors[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    iu = np.triu_indices(vectors.shape[0], k=1)
    pairwise = dist[iu]
    return float(pairwise.min()), float(pairwise.mean())


def mean_row_norm(vectors_or_set) -> float:
    """Mean Euclidean norm of the valid rows; used to normalize separability."""
    counts = getattr(vectors_or_set, "counts", None)
    vectors = getattr(vectors_or_set, "vectors", vectors_or_set)
    vectors = np.asarray(vectors, dtype=np.float64)
    if counts is not None:
        vectors = vectors[np.asarray(counts) > 0]
    return float(np.linalg.norm(vectors, axis=1).mean())
