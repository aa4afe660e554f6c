"""Dataset generation/ingestion, non-IID partitioning, and client splits.

Two heterogeneity schemes are provided: per-class Dirichlet shares and a
pathological scheme that caps the distinct classes per client. Each client's
shard is then split into a held-out test set, a tiny fixed-size quiz batch
that is never trained on, and the remaining study set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import ContractViolation, DataFormatError, PartitionError
from .nn import MiniBatch


@dataclass
class Dataset:
    """A labelled pool of samples."""

    inputs: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,)
    class_count: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ContractViolation("Dataset expects 2-D inputs and 1-D labels")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ContractViolation("Dataset inputs/labels length mismatch")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ContractViolation(f"labels out of range [0, {self.class_count})")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        """The samples at ``idx`` (a 1-D index array or mask), not checked
        again: a cut of a checked dataset has its dtypes, its ranks and its
        labels' range."""
        cut = object.__new__(Dataset)
        cut.inputs, cut.labels = self.inputs[idx], self.labels[idx]
        cut.class_count = self.class_count
        return cut


@dataclass
class PartitionPlan:
    """Sample-to-client assignment produced by one of the partitioners."""

    assignment: np.ndarray  # (n,) client index
    n_clients: int

    def client_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_clients)


@dataclass
class ClientDataset:
    """One client's study set, quiz batch, and test set."""

    study: Dataset
    quiz: MiniBatch
    test: Dataset


def generate_synthetic(
    class_count: int,
    input_dim: int,
    samples_per_class: int,
    cluster_spread: float,
    seed: int,
) -> Dataset:
    """Class-conditional Gaussian clusters around unit-norm mean directions."""
    if min(class_count, input_dim, samples_per_class) < 1 or cluster_spread < 0:
        raise ContractViolation("generate_synthetic arguments must be positive")
    gen = rngmod.stream(seed, rngmod.DATA)
    means = gen.standard_normal((class_count, input_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    # Built in place, the pool's only full-size array: the noise, scaled, plus
    # each class's mean on its block of rows (the labels run class by class).
    # Element for element this is means[labels] + cluster_spread * noise.
    inputs = gen.standard_normal((class_count * samples_per_class, input_dim))
    inputs *= cluster_spread
    class_blocks = inputs.reshape(class_count, samples_per_class, input_dim)  # a view
    class_blocks += means[:, None, :]
    labels = np.repeat(np.arange(class_count), samples_per_class)
    return Dataset(inputs, labels, class_count)


def load_delimited(path: str, input_dim: int, class_count: int) -> Dataset:
    """Load a headerless comma-delimited file, each row ``input_dim`` finite
    floats then one integer label; row order preserved."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read: {exc}") from exc
    rows: list[list[float]] = []
    labels: list[int] = []
    row_lines: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != input_dim + 1:
            raise DataFormatError(
                f"{path}: line {lineno}: expected {input_dim + 1} fields, got {len(parts)}"
            )
        try:
            rows.append([float(v) for v in parts[:-1]])
            label = int(parts[-1])
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {lineno}: {exc}") from exc
        if not 0 <= label < class_count:
            raise DataFormatError(
                f"{path}: line {lineno}: label {label} outside [0, {class_count})"
            )
        labels.append(label)
        row_lines.append(lineno)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    inputs = np.array(rows)
    finite = np.isfinite(inputs)
    if not finite.all():
        row, field = np.argwhere(~finite)[0]
        raise DataFormatError(
            f"{path}: line {row_lines[row]}: field {field + 1} is {inputs[row, field]}, "
            "not a finite number"
        )
    return Dataset(inputs, np.array(labels), class_count)


def _largest_remainder(shares: np.ndarray, total: int | np.ndarray) -> np.ndarray:
    """Integer counts summing to ``total`` with proportions ``shares``.

    An (r, n) stack of shares takes r totals, and each row gets the counts a
    one-row call gives it. What the floors leave over goes one each to the
    largest fractional parts; a stable sort keeps equal parts in index
    order, so ties go to the lower index and the result is deterministic.
    """
    raw = shares * (np.asarray(total)[:, None] if shares.ndim == 2 else total)
    floors = np.floor(raw)
    counts = floors.astype(np.int64)
    remainder = total - counts.sum(axis=-1)
    if shares.ndim == 2:
        order = np.argsort(floors - raw, axis=1, kind="stable")
        rows, ranks = np.nonzero(np.arange(shares.shape[1]) < remainder[:, None])
        counts[rows, order[rows, ranks]] += 1
    elif remainder > 0:
        order = np.argsort(floors - raw, kind="stable")
        counts[order[:remainder]] += 1
    return counts


def _exhausted(
    scheme: str, attempts: int, n_clients: int, min_per_client: int, best: int, levers: str
) -> PartitionError:
    """The error for a partitioner that used up its redraws, saying what to change."""
    return PartitionError(
        f"{scheme} partition failed after {attempts} redraws: every draw left some "
        f"of the N={n_clients} clients below min_per_client={min_per_client} samples "
        f"(the best draw's smallest client had {best}). Try {levers}, or a smaller "
        f"n_clients or quiz_size (a run needs 2 * quiz_size samples per client)."
    )


def _assignment(
    members: list[np.ndarray], orders: list[np.ndarray], counts: np.ndarray
) -> np.ndarray:
    """The sample-to-client assignment of an accepted draw: class y's members,
    taken in ``orders[y]``, go to the clients in index order, ``counts[y, i]``
    of them to client i."""
    n_classes, n_clients = counts.shape
    idx = np.concatenate([m[order] for m, order in zip(members, orders)])
    owners = np.tile(np.arange(n_clients), n_classes)
    assignment = np.empty(idx.shape[0], dtype=np.int64)
    assignment[idx] = np.repeat(owners, counts.ravel())
    return assignment


def partition_dirichlet(
    ds: Dataset,
    n_clients: int,
    beta: float,
    seed: int,
    min_per_client: int = 20,
    max_retries: int = 1000,
) -> PartitionPlan:
    """Assign each class's samples by Dirichlet(beta) client shares.

    Redraws the whole plan (up to ``max_retries`` times) if any client ends
    up with fewer than ``min_per_client`` samples. Draw ``a`` comes from its
    own stream, so a plan does not depend on the cap it was found under.
    """
    if n_clients < 2:
        raise ContractViolation("partition_dirichlet needs at least 2 clients")
    if beta <= 0:
        raise ContractViolation("beta must be > 0")
    scheme = f"dirichlet(beta={beta})"
    members = [np.nonzero(ds.labels == y)[0] for y in range(ds.class_count)]
    class_sizes = np.array([m.shape[0] for m in members])
    alpha = np.full(n_clients, beta)
    shares = np.empty((ds.class_count, n_clients))
    best = 0
    for attempt in range(max_retries):
        # Class by class, an order of its members (permuting their positions
        # makes the same draws as permuting them), then its client shares.
        # The draw is judged on its (C, N) counts; only an accepted one
        # builds its assignment.
        gen = rngmod.stream(seed, rngmod.PARTITION, attempt)
        orders = []
        for y, size in enumerate(class_sizes):
            orders.append(gen.permutation(size))
            shares[y] = gen.dirichlet(alpha)
        counts = _largest_remainder(shares, class_sizes)
        smallest = int(counts.sum(axis=0).min())
        if smallest >= min_per_client:
            return PartitionPlan(_assignment(members, orders, counts), n_clients)
        best = max(best, smallest)
    raise _exhausted(
        scheme, max_retries, n_clients, min_per_client, best, "a larger beta or samples_per_class"
    )


def partition_pathological(
    ds: Dataset,
    n_clients: int,
    classes_per_client: int,
    seed: int,
    min_per_client: int = 20,
    max_retries: int = 100,
) -> PartitionPlan:
    """Give each client exactly ``classes_per_client`` classes, unequal shards.

    Class-to-client assignment greedily picks the least-used classes so every
    class is covered; shard sizes within a class come from a symmetric
    Dirichlet draw over its assigned clients, with at least one sample each.
    As in partition_dirichlet, a draw is judged on its (C, N) counts and only
    an accepted one builds its assignment.
    """
    C = ds.class_count
    if classes_per_client > C:
        raise ContractViolation("classes_per_client exceeds class count")
    if n_clients * classes_per_client < C:
        raise ContractViolation(
            "infeasible: N * classes_per_client < C leaves some class unassigned"
        )
    scheme = f"pathological(cpc={classes_per_client})"
    members = [np.nonzero(ds.labels == y)[0] for y in range(C)]
    best = 0
    for attempt in range(max_retries):
        gen = rngmod.stream(seed, rngmod.PARTITION, attempt)
        usage = np.zeros(C, dtype=np.int64)
        holds = np.zeros((C, n_clients), dtype=bool)  # holds[y, i]: client i has class y
        for i in range(n_clients):
            tiebreak = gen.permutation(C)
            chosen = np.lexsort((tiebreak, usage))[:classes_per_client]
            usage[chosen] += 1
            holds[chosen, i] = True

        orders = []
        counts = np.zeros((C, n_clients), dtype=np.int64)
        for y in range(C):
            holders = np.nonzero(holds[y])[0]
            size, k = members[y].shape[0], holders.shape[0]
            orders.append(gen.permutation(size))
            if size < k:
                break  # some holder of class y would get no sample
            shares = gen.dirichlet(np.ones(k))
            counts[y, holders] = _largest_remainder(shares, size - k) + 1
        else:
            smallest = int(counts.sum(axis=0).min())
            if smallest >= min_per_client:
                return PartitionPlan(_assignment(members, orders, counts), n_clients)
            best = max(best, smallest)
    raise _exhausted(
        scheme, max_retries, n_clients, min_per_client, best, "a larger samples_per_class"
    )


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for keys in [0, bound). A stable
    order is unique, so sorting keys below 2**16 as uint16, which numpy
    does by radix sort (about 20x faster than on int64), gives the same
    order."""
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def split_client(
    ds: Dataset,
    plan: PartitionPlan,
    test_fraction: float = 0.25,
    quiz_size: int = 10,
    seed: int = 0,
) -> list[ClientDataset]:
    """Split every client's shard of ``ds`` into disjoint test / quiz / study sets.

    Client i permutes its shard with its own SPLIT stream. Test takes the
    first floor(n * test_fraction) samples (at least 1); the quiz is a
    fixed-size batch whose per-class counts are the largest-remainder shares
    of the training part's class counts, each class's first members in the
    permuted order; study is everything else, in pool order. Drawing the
    quiz in the client's own class proportions makes the quiz loss, which
    the guidance is trained to lower, the client's own objective rather than
    a class-balanced one.

    The cuts, quotas and ranks of all clients are computed in one pass over
    the plan; each client's sets are then gathered from the pool, cuts of a
    checked pool that are not checked again (see Dataset.subset). A client
    too small to split raises, the lowest-index one first.
    """
    n_clients, C = plan.n_clients, ds.class_count
    sizes = plan.client_sizes()
    test_n = np.maximum(1, (sizes * test_fraction).astype(np.int64))
    train_n = sizes - test_n
    too_small = np.flatnonzero((sizes < quiz_size + 4) | (train_n < quiz_size + 1))
    if too_small.size:
        i = int(too_small[0])
        if sizes[i] < quiz_size + 4:
            raise PartitionError(
                f"client {i}: {sizes[i]} samples, need at least {quiz_size + 4}"
            )
        raise PartitionError(
            f"client {i}: only {train_n[i]} training samples "
            f"after the test split, need quiz_size + 1 = {quiz_size + 1}"
        )

    # ``order`` lists the shards back to back, each in ascending pool order,
    # and ``starts`` each position's shard start in it; adding a client's
    # permutation of its positions gives its shard's rows in permuted order.
    order = _stable_order(plan.assignment, n_clients)
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    gens = rngmod.client_streams(seed, rngmod.SPLIT, n_clients)
    perm = np.concatenate([gen.permutation(n) for gen, n in zip(gens, sizes)])
    rows = order[starts + perm]
    is_test = np.arange(rows.shape[0]) - starts < np.repeat(test_n, sizes)

    # Each client's training rows are already shuffled, so each class's first
    # members are a random draw. A stable sort by (client, class) lists them
    # client by client, class by class, each in shuffled order; a member's
    # rank in its class picks it for the quiz. An absent class has share 0
    # and never gets a quota: what the floors leave is less than the number
    # of positive fractional parts.
    train_rows = rows[~is_test]
    key = np.repeat(np.arange(n_clients) * C, train_n) + ds.labels[train_rows]
    counts = np.bincount(key, minlength=n_clients * C)
    quotas = _largest_remainder(
        counts.reshape(n_clients, C) / train_n[:, None], np.full(n_clients, quiz_size)
    ).ravel()
    by_key = _stable_order(key, n_clients * C)
    sorted_key = key[by_key]
    rank = np.arange(key.shape[0]) - (np.cumsum(counts) - counts)[sorted_key]
    quiz_rows = train_rows[by_key[rank < quotas[sorted_key]]].reshape(n_clients, quiz_size)
    in_study = np.zeros(len(ds), dtype=bool)  # training rows not in a quiz
    in_study[train_rows] = True
    in_study[quiz_rows] = False
    study_rows = order[in_study[order]]

    studies = np.split(study_rows, np.cumsum(train_n - quiz_size)[:-1])
    tests = np.split(rows[is_test], np.cumsum(test_n)[:-1])
    return [
        ClientDataset(ds.subset(study), _quiz_batch(ds, quiz), ds.subset(test))
        for study, quiz, test in zip(studies, quiz_rows, tests)
    ]


def _quiz_batch(ds: Dataset, rows: np.ndarray) -> MiniBatch:
    """The samples at ``rows`` as a MiniBatch, cut from the checked pool like
    Dataset.subset, so not checked again."""
    batch = object.__new__(MiniBatch)
    batch.inputs, batch.labels, batch._terms = ds.inputs[rows], ds.labels[rows], None
    return batch
