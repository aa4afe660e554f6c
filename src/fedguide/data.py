"""Dataset generation/ingestion, non-IID partitioning, and client splits.

Two heterogeneity schemes are provided: per-class Dirichlet shares and a
pathological scheme that caps the distinct classes per client. Each client's
shard is then split into a held-out test set, a tiny fixed-size quiz batch
that is never trained on, and the remaining study set.

Partitioning and splitting read only the labels. So a federation's pool is
held once, written in the order the split lists the clients' sets, and
each client's sets are views of it; a synthetic pool's inputs are drawn
straight into that order (see SyntheticPool).
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

    def reordered(self, order: np.ndarray) -> "Dataset":
        """The pool with row ``order[k]`` at row k, a copy."""
        return Dataset(self.inputs[order], self.labels[order], self.class_count)


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


# Rows of noise a synthetic pool draws at a time. Drawing in blocks gives
# the bits of one draw, and no pool-order copy of the noise exists.
_DRAW_ROWS = 1024


@dataclass
class SyntheticPool:
    """generate_synthetic's pool before its inputs exist: the labels, class
    by class, which are all the partitioners and split_client read, and the
    parameters that draw the inputs."""

    class_count: int
    input_dim: int
    samples_per_class: int
    cluster_spread: float
    seed: int

    def __post_init__(self):
        if min(self.class_count, self.input_dim, self.samples_per_class) < 1 or (
            self.cluster_spread < 0
        ):
            raise ContractViolation("generate_synthetic arguments must be positive")
        self.labels = np.repeat(np.arange(self.class_count), self.samples_per_class)

    def __len__(self) -> int:
        return self.labels.shape[0]

    def reordered(self, order: np.ndarray) -> Dataset:
        """The pool with row ``order[k]`` at row k, ``order`` a permutation
        of the rows. The noise is drawn in pool order, a block of rows at a
        time; each block is scaled, gets its rows' class means added
        (element for element, means[labels] + cluster_spread * noise) and
        is written to its rows' places."""
        gen = rngmod.stream(self.seed, rngmod.DATA)
        means = gen.standard_normal((self.class_count, self.input_dim))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        n = len(self)
        places = np.empty(n, dtype=np.int64)
        places[order] = np.arange(n)
        inputs = np.empty((n, self.input_dim))
        for start in range(0, n, _DRAW_ROWS):
            rows = slice(start, min(start + _DRAW_ROWS, n))
            block = gen.standard_normal((rows.stop - start, self.input_dim))
            block *= self.cluster_spread
            block += means[self.labels[rows]]
            inputs[places[rows]] = block
        return Dataset(inputs, self.labels[order], self.class_count)


def generate_synthetic(
    class_count: int,
    input_dim: int,
    samples_per_class: int,
    cluster_spread: float,
    seed: int,
) -> Dataset:
    """Class-conditional Gaussian clusters around unit-norm mean directions,
    in pool order: the labels run class by class."""
    pool = SyntheticPool(class_count, input_dim, samples_per_class, cluster_spread, seed)
    return pool.reordered(np.arange(len(pool)))


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
    ds: Dataset | SyntheticPool,
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
    ds: Dataset | SyntheticPool,
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
    # Every class goes to some client, so every draw would leave a holder of
    # an empty class without a sample.
    empty = [y for y in range(C) if members[y].shape[0] == 0]
    if empty:
        raise PartitionError(
            f"{scheme} partition cannot be built: the pool has no samples of class "
            f"{', '.join(map(str, empty))} (class_count={C}), and every class goes to "
            f"some client. Give every class a sample, or use a dirichlet partition."
        )
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
    ds: Dataset | SyntheticPool,
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

    The split reads only the labels. The pool is then written once, in
    split order (every client's study set, then every quiz, then every
    test set, each part client by client), and each client's sets are
    contiguous views of it, not checked again: a cut of a checked pool has
    its dtypes, its ranks and its labels' range. A client too small to
    split raises, the lowest-index one first.
    """
    rows, sizes = _split_rows(ds, plan, test_fraction, quiz_size, seed)
    pool = ds.reordered(rows)
    bounds = [0, *np.cumsum(sizes).tolist()]
    parts = [(pool.inputs[a:b], pool.labels[a:b]) for a, b in zip(bounds, bounds[1:])]
    n, C = plan.n_clients, ds.class_count
    return [
        ClientDataset(
            _view(Dataset, *parts[i], class_count=C),
            _view(MiniBatch, *parts[n + i], _terms=None),
            _view(Dataset, *parts[2 * n + i], class_count=C),
        )
        for i in range(n)
    ]


def _view(cls, inputs: np.ndarray, labels: np.ndarray, **fields):
    """A Dataset or MiniBatch on a cut of a checked pool, not checked again."""
    cut = object.__new__(cls)
    cut.inputs, cut.labels = inputs, labels
    cut.__dict__.update(fields)
    return cut


def _split_rows(
    ds: Dataset | SyntheticPool,
    plan: PartitionPlan,
    test_fraction: float,
    quiz_size: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """split_client's rows of ``ds`` in split order, and the sizes of the
    3N sets they hold in turn: the study sets, the quizzes, the test sets.
    The cuts, quotas and ranks of all clients are computed in one pass over
    the plan."""
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
    quiz_rows = train_rows[by_key[rank < quotas[sorted_key]]]
    in_study = np.zeros(len(ds), dtype=bool)  # training rows not in a quiz
    in_study[train_rows] = True
    in_study[quiz_rows] = False
    split_rows = np.concatenate((order[in_study[order]], quiz_rows, rows[is_test]))
    quiz_n = np.full(n_clients, quiz_size)
    return split_rows, np.concatenate((train_n - quiz_size, quiz_n, test_n))
