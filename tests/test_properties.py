"""Property tests for the invariant every stacked-kernel speed-up rests on:
a slice of a stacked call equals the unstacked call on that client, bit for
bit, at any shape, and an epoch stepped in place on rows of a larger array
equals each client stepped alone. Then the set-up and persistence
contracts: client splits, partitions, checkpoints and option precedence.
Examples are drawn deterministically (``derandomize=True``) and their
number is fixed, so the suite stays repeatable and bounded."""

import json
import os
import re
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fedguide import cli, data, nn
from fedguide.data import (
    Dataset,
    PartitionPlan,
    partition_dirichlet,
    partition_pathological,
    split_client,
)
from fedguide.errors import CheckpointError, PartitionError
from fedguide.federation import (
    METHODS,
    ServerState,
    build_clients,
    build_server,
    load_checkpoint,
    run_training,
    save_checkpoint,
)
from fedguide.nn import LossConfig, MiniBatch, ModelParams, ModelSpec
from fedguide.rng import stream

from helpers import (
    checkpoint_regions,
    plan_shards,
    reference_dirichlet,
    reference_pathological,
    reference_split,
    small_config,
    stack_params,
)

SETTINGS = settings(
    derandomize=True,
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def problems(draw):
    """A random architecture, k clients of it, their batches, a loss and a
    guide space; everything numeric comes from one drawn seed."""
    widths = tuple(draw(st.lists(st.integers(1, 64), min_size=1, max_size=3)))
    spec = ModelSpec(
        draw(st.integers(1, 16)),
        widths,
        draw(st.integers(1, 16)),
        draw(st.integers(2, 10)),
        draw(st.sampled_from(nn.ACTIVATIONS)),
    )
    k, n = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    space = draw(st.sampled_from(nn.SPACES))
    guided = draw(st.booleans())
    use_ce = draw(st.booleans()) or not guided
    masked = guided and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = spec.class_count if space == "logit" else spec.feature_dim
    cfg = LossConfig(
        use_ce=use_ce,
        guide_vectors=rng.standard_normal((spec.class_count, dim)) if guided else None,
        guide_space=space,
        guide_valid=rng.random(spec.class_count) < 0.5 if masked else None,
    )
    clients = [nn.init_params(spec, rng) for _ in range(k)]
    inputs = rng.standard_normal((k, n, spec.input_dim))
    labels = rng.integers(0, spec.class_count, (k, n))
    return spec, cfg, space, clients, inputs, labels, rng


@SETTINGS
@given(problems())
def test_stacked_grad_params_slices_equal_unstacked_calls(problem):
    spec, cfg, _, clients, inputs, labels, _ = problem
    stacked = nn.grad_params(spec, stack_params(clients), MiniBatch(inputs, labels), cfg)
    for j, p in enumerate(clients):
        alone = nn.grad_params(spec, p, MiniBatch(inputs[j], labels[j]), cfg)
        assert stacked[j].tobytes() == alone.tobytes(), j


@SETTINGS
@given(problems())
def test_stacked_jvp_slices_equal_unstacked_calls_with_and_without_layers(problem):
    spec, cfg, space, clients, inputs, labels, rng = problem
    params = stack_params(clients)
    batch = MiniBatch(inputs, labels)
    direction = ModelParams(rng.standard_normal(params.flat.shape))
    layers = []
    nn.grad_params(spec, params, batch, cfg, layers_out=layers)
    own = nn.jvp_guided_batch(spec, params, batch.inputs, direction.flat, space)
    given_layers = nn.jvp_guided_batch(spec, params, batch.inputs, direction, space, layers=layers)
    assert given_layers.tobytes() == own.tobytes()
    for j, p in enumerate(clients):
        alone = nn.jvp_guided_batch(spec, p, inputs[j], direction.flat[j], space)
        assert own[j].tobytes() == alone.tobytes(), j


@SETTINGS
@given(problems(), st.integers(1, 8), st.integers(0, 3), st.lists(st.integers(1, 40), min_size=8))
def test_epoch_in_place_on_a_row_slice_equals_each_client_alone(problem, batch_size, offset, sizes):
    spec, cfg, _, clients, _, _, rng = problem
    k = len(clients)
    # most steps first, as a lockstep epoch needs
    sizes = sorted(sizes[:k], key=lambda n: -(n // batch_size))
    data = [
        (rng.standard_normal((n, spec.input_dim)), rng.integers(0, spec.class_count, n))
        for n in sizes
    ]
    # the clients' rows inside a larger array, with other rows on both sides
    rows = rng.standard_normal((offset + k + 2, nn.param_count(spec)))
    rows[offset : offset + k] = [p.flat for p in clients]
    before = rows.copy()
    stack = ModelParams(rows[offset : offset + k])
    nn.run_sgd_epoch(
        spec,
        stack,
        [x for x, _ in data],
        [y for _, y in data],
        cfg,
        0.05,
        batch_size,
        [stream(7, 6, j) for j in range(k)],
    )
    assert np.shares_memory(stack.flat, rows)
    for j, (p, (x, y)) in enumerate(zip(clients, data)):
        alone = nn.run_sgd_epoch(
            spec, stack_params([p]), [x], [y], cfg, 0.05, batch_size, [stream(7, 6, j)]
        )
        assert rows[offset + j].tobytes() == alone.flat[0].tobytes(), j
    outside = np.r_[0:offset, offset + k : len(rows)]
    assert rows[outside].tobytes() == before[outside].tobytes()


def largest_remainder_reference(counts: list[int], total: int) -> list[int]:
    """Shares of ``total`` in proportion to ``counts``: floors first, then one
    more to each of the largest fractional parts, ties to the lower index."""
    whole = sum(counts)
    raw = [c * total / whole for c in counts]
    out = [int(np.floor(r)) for r in raw]
    by_fraction = sorted(range(len(raw)), key=lambda i: (-(raw[i] - out[i]), i))
    for i in by_fraction[: total - sum(out)]:
        out[i] += 1
    return out


SETUP_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


@SETUP_SETTINGS
@given(
    st.integers(14, 120),
    st.integers(2, 8),
    st.integers(1, 10),
    st.sampled_from([0.1, 0.25, 0.5]),
    st.integers(0, 2**16),
)
def test_split_is_disjoint_covers_the_shard_and_quizzes_in_proportion(
    n, class_count, quiz_size, test_fraction, seed
):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, class_count, n)
    inputs = np.arange(n, dtype=np.float64)[:, None]  # each row carries its index
    try:
        (split,) = split_client(
            Dataset(inputs, labels, class_count),
            PartitionPlan(np.zeros(n, dtype=np.int64), 1),
            test_fraction,
            quiz_size,
            seed,
        )
    except PartitionError:
        assert n - max(1, int(n * test_fraction)) < quiz_size + 1
        return
    parts = [split.study.inputs[:, 0], split.quiz.inputs[:, 0], split.test.inputs[:, 0]]
    ids = np.concatenate(parts).astype(np.int64)
    assert sorted(ids) == list(range(n))
    for part, part_labels in zip(parts, [split.study.labels, split.quiz.labels, split.test.labels]):
        assert np.array_equal(labels[part.astype(np.int64)], part_labels)
    assert len(split.test) == max(1, int(n * test_fraction))
    train = np.bincount(np.concatenate([split.study.labels, split.quiz.labels]), minlength=class_count)
    present = [y for y in range(class_count) if train[y]]
    expected = largest_remainder_reference([int(train[y]) for y in present], quiz_size)
    quiz = np.bincount(split.quiz.labels, minlength=class_count)
    assert [int(quiz[y]) for y in present] == expected


def _split_error(sizes, test_fraction, quiz_size):
    """The message of the lowest-index client too small to split, or None."""
    for i, n in enumerate(sizes):
        if n < quiz_size + 4:
            return f"client {i}: {n} samples, need at least {quiz_size + 4}"
        train = n - max(1, int(n * test_fraction))
        if train < quiz_size + 1:
            return (
                f"client {i}: only {train} training samples after the test split, "
                f"need quiz_size + 1 = {quiz_size + 1}"
            )
    return None


@SETUP_SETTINGS
@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=6),
    st.integers(1, 8),
    st.integers(1, 10),
    st.sampled_from([0.1, 0.25, 0.5, 0.9]),
    st.integers(0, 2**16),
)
def test_split_of_every_client_equals_the_one_client_reference(
    class_sizes, n_clients, quiz_size, test_fraction, seed
):
    # Classes of drawn sizes shuffled through the pool, and an assignment
    # from drawn client shares, so that some clients are too small to split.
    gen = np.random.default_rng(seed)
    labels = gen.permutation(np.repeat(np.arange(len(class_sizes)), class_sizes))
    ds = Dataset(gen.standard_normal((labels.shape[0], 3)), labels, len(class_sizes))
    shares = gen.dirichlet(np.ones(n_clients))
    plan = PartitionPlan(gen.choice(n_clients, labels.shape[0], p=shares), n_clients)
    error = _split_error(plan.client_sizes(), test_fraction, quiz_size)
    if error is not None:
        with pytest.raises(PartitionError) as exc:
            split_client(ds, plan, test_fraction, quiz_size, seed)
        assert str(exc.value) == error
        return
    splits = split_client(ds, plan, test_fraction, quiz_size, seed)
    assert len(splits) == n_clients
    for i, (got, shard) in enumerate(zip(splits, plan_shards(plan))):
        expected = reference_split(ds.subset(shard), test_fraction, quiz_size, seed, i)
        for part, want in zip([got.study, got.quiz, got.test], expected):
            assert part.inputs.tobytes() == want.inputs.tobytes(), i
            assert part.labels.tobytes() == want.labels.tobytes(), i


@SETUP_SETTINGS
@given(
    st.sampled_from(["dirichlet", "pathological"]),
    st.integers(2, 10),
    st.integers(2, 6),
    st.integers(5, 40),
    st.integers(0, 60),
    st.integers(0, 2**16),
)
def test_partition_meets_its_minimum_or_raises(scheme, n_clients, class_count, per_class, minimum, seed):
    labels = np.repeat(np.arange(class_count), per_class)
    ds = Dataset(np.zeros((labels.shape[0], 1)), labels, class_count)
    try:
        if scheme == "dirichlet":
            plan = partition_dirichlet(ds, n_clients, 0.5, seed, minimum, max_retries=5)
        else:
            cpc = min(class_count, 2)
            if n_clients * cpc < class_count:
                return
            plan = partition_pathological(ds, n_clients, cpc, seed, minimum, max_retries=5)
    except PartitionError as exc:
        assert f"min_per_client={minimum}" in str(exc)
        return
    sizes = plan.client_sizes()
    assert sizes.sum() == len(ds) and sizes.min() >= minimum
    assert sorted(np.concatenate(plan_shards(plan))) == list(range(len(ds)))


@st.composite
def share_stacks(draw):
    """An (r, n) stack of share rows and r totals. A row rounded to tenths
    and renormalised has exactly tied fractional parts; small Dirichlet
    concentrations and the rounding give zero shares; totals include 0."""
    r, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shares = rng.dirichlet(np.full(n, draw(st.sampled_from([0.05, 1.0, 20.0]))), size=r)
    for i in range(r):
        if draw(st.booleans()):
            tenths = np.round(shares[i], 1)
            shares[i] = tenths / tenths.sum() if tenths.sum() else tenths
    totals = draw(st.lists(st.just(0) | st.integers(0, 500), min_size=r, max_size=r))
    return shares, np.array(totals)


@SETUP_SETTINGS
@given(share_stacks())
def test_stacked_largest_remainder_rows_equal_one_row_calls(stack):
    shares, totals = stack
    counts = data._largest_remainder(shares, totals)
    assert counts.shape == shares.shape and counts.dtype == np.int64
    for row, total, got in zip(shares, totals, counts):
        assert got.tobytes() == data._largest_remainder(row, int(total)).tobytes()


@SETUP_SETTINGS
@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=6),
    st.integers(2, 12),
    st.sampled_from([0.05, 0.1, 0.5, 2.0]),
    st.integers(0, 30),
    st.integers(1, 5),
    st.integers(0, 2**16),
)
def test_dirichlet_partition_equals_the_reference(
    class_sizes, n_clients, beta, minimum, retries, seed
):
    # Classes of drawn sizes, their samples shuffled through the pool.
    labels = np.random.default_rng(seed).permutation(
        np.repeat(np.arange(len(class_sizes)), class_sizes)
    )
    ds = Dataset(np.zeros((labels.shape[0], 1)), labels, len(class_sizes))
    expected, best = reference_dirichlet(ds, n_clients, beta, seed, minimum, retries)
    if expected is None:
        exhausted = rf"after {retries} redraws.*smallest client had {best}\)"
        with pytest.raises(PartitionError, match=exhausted):
            partition_dirichlet(ds, n_clients, beta, seed, minimum, max_retries=retries)
    else:
        plan = partition_dirichlet(ds, n_clients, beta, seed, minimum, max_retries=retries)
        assert plan.assignment.tobytes() == expected.tobytes()


@SETUP_SETTINGS
@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=6),
    st.integers(2, 12),
    st.integers(1, 6),
    st.integers(0, 30),
    st.integers(1, 5),
    st.integers(0, 2**16),
)
def test_pathological_partition_equals_the_reference(
    class_sizes, n_clients, classes_per_client, minimum, retries, seed
):
    cpc = min(classes_per_client, len(class_sizes))
    assume(n_clients * cpc >= len(class_sizes))
    # Classes of drawn sizes (an empty one leaves its holders no sample),
    # their samples shuffled through the pool.
    labels = np.random.default_rng(seed).permutation(
        np.repeat(np.arange(len(class_sizes)), class_sizes)
    )
    ds = Dataset(np.zeros((labels.shape[0], 1)), labels, len(class_sizes))
    expected, best = reference_pathological(ds, n_clients, cpc, seed, minimum, retries)
    if expected is None:
        exhausted = rf"after {retries} redraws.*smallest client had {best}\)"
        with pytest.raises(PartitionError, match=exhausted):
            partition_pathological(ds, n_clients, cpc, seed, minimum, max_retries=retries)
    else:
        plan = partition_pathological(ds, n_clients, cpc, seed, minimum, max_retries=retries)
        assert plan.assignment.tobytes() == expected.tobytes()


CHECKPOINT_CONFIG = small_config("fedproto", rounds=3)


@pytest.fixture(scope="module")
def checkpoint_bytes():
    """A checkpoint of a short fedproto run, which has a payload of each
    section (counts and vectors) and every client's parameters."""
    result = run_training(CHECKPOINT_CONFIG)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ckpt")
        save_checkpoint(path, CHECKPOINT_CONFIG, result.server, result.clients)
        with open(path, "rb") as fh:
            return fh.read()


@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_truncated_checkpoint_raises_checkpoint_error(checkpoint_bytes, data):
    cut = data.draw(st.integers(0, len(checkpoint_bytes) - 1))
    clients = build_clients(CHECKPOINT_CONFIG)
    before = [c.params.flat.copy() for c in clients]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ckpt")
        with open(path, "wb") as fh:
            fh.write(checkpoint_bytes[:cut])
        message = re.escape(f"{path}: checkpoint truncated in the ")
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path, CHECKPOINT_CONFIG, clients)
    assert all(np.array_equal(c.params.flat, b) for c, b in zip(clients, before))


@pytest.fixture(scope="module")
def method_checkpoints():
    """Per method: the config, a checkpoint of a short run (its last round
    evaluated), and the offsets of its f64 payload, evaluation and
    parameter values."""
    out = {}
    with tempfile.TemporaryDirectory() as d:
        for method in METHODS:
            cfg = small_config(method, rounds=3)
            result = run_training(cfg)
            path = os.path.join(d, method)
            save_checkpoint(path, cfg, result.server, result.clients)
            with open(path, "rb") as fh:
                blob = fh.read()
            regions = checkpoint_regions(cfg, result.clients, blob)
            out[method] = cfg, blob, [regions[r] for r in ("payload", "evaluation", "params")]
    return out


@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_non_finite_checkpoint_value_raises_checkpoint_error(method_checkpoints, data):
    cfg, blob, regions = method_checkpoints[data.draw(st.sampled_from(METHODS))]
    region = data.draw(st.sampled_from([r for r in regions if r]))
    offset = data.draw(st.sampled_from(region))
    forged = bytearray(blob)
    struct.pack_into("<d", forged, offset, data.draw(st.sampled_from([np.nan, np.inf, -np.inf])))
    clients = build_clients(cfg)
    before = [c.params.flat.copy() for c in clients]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ckpt")
        with open(path, "wb") as fh:
            fh.write(bytes(forged))
        with pytest.raises(CheckpointError, match="non-finite value"):
            load_checkpoint(path, cfg, clients)
    assert all(np.array_equal(c.params.flat, b) for c, b in zip(clients, before))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(
    st.sampled_from(["fedl2g-l", "fedl2g-f", "fedproto", "feddistill", "local-only"]),
    st.integers(0, 2**64 - 1),
    st.integers(0, 8),
    st.one_of(st.just(np.inf), st.floats(0, 10)),
    st.one_of(st.none(), st.tuples(st.floats(0, 1), st.floats(0, 10))),
)
def test_checkpoint_round_trips(method, seed, t, min_ce, evaluation):
    cfg = small_config(method, seed=seed % 50, rounds=8)
    clients = build_clients(cfg)
    rng = np.random.default_rng(seed)
    for c in clients:
        c.params.flat[...] = rng.standard_normal(c.params.flat.shape)
    payload = build_server(cfg).payload
    if payload is not None:
        payload.vectors[...] = rng.standard_normal(payload.vectors.shape)
        if hasattr(payload, "counts"):
            payload.counts[...] = rng.integers(0, 5, payload.counts.shape)
    if evaluation is not None:  # (accuracy, per-client accuracies, mean study ce)
        evaluation = (evaluation[0], rng.random(cfg.n_clients), evaluation[1])
    server = ServerState(t, payload, min_ce, evaluation)
    restored = build_clients(cfg)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ckpt")
        save_checkpoint(path, cfg, server, clients)
        loaded = load_checkpoint(path, cfg, restored)
    assert (loaded.t, loaded.min_ce) == (t, min_ce)
    if evaluation is None:
        assert loaded.evaluation is None
    else:
        (a, per, ce), (loaded_a, loaded_per, loaded_ce) = evaluation, loaded.evaluation
        assert (loaded_a, loaded_ce) == (a, ce)
        assert loaded_per.tobytes() == per.tobytes()
    assert all(a.params.flat.tobytes() == b.params.flat.tobytes() for a, b in zip(clients, restored))
    if payload is None:
        assert loaded.payload is None
    else:
        assert loaded.payload.vectors.tobytes() == payload.vectors.tobytes()
        assert getattr(loaded.payload, "version", 0) == getattr(payload, "version", 0)
        assert np.array_equal(getattr(loaded.payload, "counts", 0), getattr(payload, "counts", 0))


# Per option: the winning value, the value every lower source gets, and
# how to read the result. The winner differs from the default, so a result
# equal to it shows that the winning source, and no other, was read.
PRECEDENCE = {
    "method": ("fedproto", "feddistill", lambda e: e.run.method),
    "clients": ("10", "12", lambda e: e.run.n_clients),
    "rho": ("0.5", "0.25", lambda e: e.run.rho),
    "rounds": ("100", "120", lambda e: e.run.rounds),
    "warmup": ("10", "20", lambda e: e.run.warmup),
    "eta_c": ("0.05", "0.02", lambda e: e.run.eta_c),
    "eta_s": ("0.5", "0.25", lambda e: e.run.eta_s),
    "eta_s_scale": ("0.25", "2", lambda e: e.run.eta_s_scale),
    "batch_size": ("20", "30", lambda e: e.run.batch_size),
    "quiz_size": ("5", "6", lambda e: e.run.quiz_size),
    "feature_dim": ("16", "8", lambda e: e.run.feature_dim),
    "activation": ("tanh", "relu", lambda e: e.run.activation),
    "workers": ("3", "2", lambda e: e.run.workers),
    "eval_every": ("5", "2", lambda e: e.run.eval_every),
    "partition": (
        "pathological:3",
        "dirichlet:0.5",
        lambda e: (e.run.task.partition, e.run.task.classes_per_client, e.run.task.beta),
    ),
    "noise": ("0.05:0.2", "0.1:0.3", lambda e: (e.run.noise_s, e.run.noise_p)),
    "seed": ("4,5", "7", lambda e: e.seeds),
    "out": ("here", "there", lambda e: e.out_dir),
    "data": ("a.csv", "b.csv", lambda e: e.run.task.source),
    "class_count": ("5", "8", lambda e: e.run.task.class_count),
    "input_dim": ("16", "8", lambda e: e.run.task.input_dim),
    "samples_per_class": ("100", "150", lambda e: e.run.task.samples_per_class),
    "cluster_spread": ("0.5", "0.25", lambda e: e.run.task.cluster_spread),
    "test_fraction": ("0.3", "0.4", lambda e: e.run.task.test_fraction),
}
SOURCES = ("file", "env", "flag")  # by increasing precedence


def _parse(sources: dict[str, dict[str, str]]) -> cli.ExperimentConfig:
    argv = [a for k, v in sources["flag"].items() for a in ("--" + k.replace("_", "-"), v)]
    env = {cli.ENV_PREFIX + k.upper(): v for k, v in sources["env"].items()}
    clean = {k: v for k, v in os.environ.items() if not k.startswith(cli.ENV_PREFIX)}
    with tempfile.TemporaryDirectory() as d, mock.patch.dict(os.environ, {**clean, **env}, clear=True):
        if sources["file"]:
            path = os.path.join(d, "cfg.json")
            with open(path, "w") as fh:
                json.dump(sources["file"], fh)
            argv = ["--config", path] + argv
        return cli.parse_config(argv)


def test_precedence_table_covers_every_option():
    assert set(PRECEDENCE) == set(cli._OPTIONS)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.fixed_dictionaries({k: st.sets(st.sampled_from(SOURCES)) for k in PRECEDENCE}))
def test_option_precedence_is_default_file_env_flag(present):
    sources = {s: {} for s in SOURCES}
    for key, given_in in present.items():
        winner, loser, _ = PRECEDENCE[key]
        for source in given_in:
            sources[source][key] = loser
        if given_in:
            sources[max(given_in, key=SOURCES.index)][key] = winner
    parsed = _parse(sources)
    default = _parse({s: {} for s in SOURCES})
    only_winner = {s: {} for s in SOURCES}
    for key, given_in in present.items():
        winner, _, read = PRECEDENCE[key]
        if given_in:
            only_winner["flag"][key] = winner
            assert read(parsed) != read(default), key
    expected = _parse(only_winner)
    for key, (_, _, read) in PRECEDENCE.items():
        assert read(parsed) == read(expected), key
