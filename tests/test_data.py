"""Data pipeline tests: synthetic generation, delimited ingestion, the two
partitioners, and client splits."""

import numpy as np
import pytest

from fedguide import data, federation, nn, rng
from fedguide.errors import ContractViolation, DataFormatError, PartitionError
from fedguide.federation import RunConfig

from helpers import (
    plan_shards,
    reference_dirichlet,
    reference_largest_remainder,
    reference_pathological,
    reference_split,
)


def small_pool(seed=0, c=4, n_per=60):
    return data.generate_synthetic(c, 6, n_per, 0.5, seed)


def test_synthetic_basic_shape_and_labels():
    ds = data.generate_synthetic(2, 5, 1, 0.3, 0)
    assert len(ds) == 2
    assert set(ds.labels.tolist()) == {0, 1}


def test_synthetic_deterministic():
    a = data.generate_synthetic(3, 4, 10, 0.7, 42)
    b = data.generate_synthetic(3, 4, 10, 0.7, 42)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_zero_spread_collapses_clusters():
    ds = data.generate_synthetic(3, 4, 5, 0.0, 1)
    for y in range(3):
        rows = ds.inputs[ds.labels == y]
        assert np.allclose(rows, rows[0])
        assert np.linalg.norm(rows[0]) == pytest.approx(1.0, abs=1e-12)


def test_load_delimited_roundtrip(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("1.0,2.0,0\n-0.5,0.25,1\n3.5,4.5,2\n", encoding="utf-8")
    ds = data.load_delimited(str(path), 2, 3)
    assert len(ds) == 3
    assert ds.labels.tolist() == [0, 1, 2]
    assert ds.inputs[1].tolist() == [-0.5, 0.25]


def test_load_delimited_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataFormatError):
        data.load_delimited(str(path), 2, 3)


def test_load_delimited_label_out_of_range_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,0\n1.0,2.0,3\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 2"):
        data.load_delimited(str(path), 2, 3)


def test_load_delimited_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,x,0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 1"):
        data.load_delimited(str(path), 2, 3)


def test_load_delimited_unreadable_path_is_a_data_format_error(tmp_path):
    for path in (tmp_path / "missing.csv", tmp_path):  # absent, and a directory
        with pytest.raises(DataFormatError, match="cannot read") as exc:
            data.load_delimited(str(path), 2, 3)
        assert str(path) in str(exc.value)
    binary = tmp_path / "latin1.csv"
    binary.write_bytes(b"1.0,2.0,0\n\xff,1.0,1\n")
    with pytest.raises(DataFormatError, match="cannot read"):
        data.load_delimited(str(binary), 2, 3)


def test_load_delimited_non_finite_value_names_path_and_line(tmp_path):
    path = tmp_path / "bad.csv"
    for rows, line in [("nan,inf,0\n", 1), ("1.0,2.0,0\n\n1.0,-inf,1\n", 3),
                       ("1.0,2.0,0\n1e999,2.0,1\n", 2)]:
        path.write_text(rows, encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"line {line}: .*not a finite number") as exc:
            data.load_delimited(str(path), 2, 3)
        assert str(path) in str(exc.value)


def test_load_delimited_wrong_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="expected 3 fields"):
        data.load_delimited(str(path), 2, 3)


def test_dirichlet_conserves_samples():
    ds = small_pool()
    plan = data.partition_dirichlet(ds, 3, 0.5, seed=1, min_per_client=14)
    assert plan.assignment.shape == (len(ds),)
    assert plan.client_sizes().sum() == len(ds)
    # per-class counts conserved exactly
    for y in range(ds.class_count):
        assert (ds.labels == y).sum() == sum(
            (ds.labels[shard] == y).sum() for shard in plan_shards(plan)
        )


def test_dirichlet_deterministic():
    ds = small_pool()
    a = data.partition_dirichlet(ds, 4, 0.3, seed=9, min_per_client=10)
    b = data.partition_dirichlet(ds, 4, 0.3, seed=9, min_per_client=10)
    assert np.array_equal(a.assignment, b.assignment)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_dirichlet_huge_beta_near_uniform(seed):
    # law-of-large-numbers check: beta -> inf gives each client ~1/N per class
    ds = data.generate_synthetic(4, 4, 400, 0.5, seed)
    n_clients = 4
    plan = data.partition_dirichlet(ds, n_clients, 1e6, seed=seed, min_per_client=10)
    for y in range(4):
        labels = ds.labels[np.concatenate(plan_shards(plan))]
        for shard in plan_shards(plan):
            count = (ds.labels[shard] == y).sum()
            share = count / (ds.labels == y).sum()
            assert abs(share - 1 / n_clients) <= 0.2 / n_clients


def test_dirichlet_redraw_exhaustion_errors():
    ds = small_pool(n_per=8)  # 32 samples over 4 clients cannot give 30 each
    with pytest.raises(PartitionError, match="redraws"):
        data.partition_dirichlet(ds, 4, 0.1, seed=0, min_per_client=30, max_retries=5)


def test_partition_errors_say_what_to_change():
    ds = small_pool(n_per=8)
    with pytest.raises(PartitionError) as exc:
        data.partition_dirichlet(ds, 4, 0.1, seed=0, min_per_client=30, max_retries=5)
    message = str(exc.value)
    for part in ("after 5 redraws", "N=4", "min_per_client=30", "smallest client had",
                 "larger beta or samples_per_class", "smaller n_clients or quiz_size"):
        assert part in message
    best = int(message.split("smallest client had ")[1].split(")")[0])
    assert 0 <= best < 30
    with pytest.raises(PartitionError) as exc:
        data.partition_pathological(ds, 2, 2, seed=0, min_per_client=30, max_retries=3)
    message = str(exc.value)
    for part in ("after 3 redraws", "N=2", "min_per_client=30", "smallest client had",
                 "larger samples_per_class", "smaller n_clients or quiz_size"):
        assert part in message


@pytest.mark.parametrize("seed", [5, 63, 1102])
def test_default_task_builds_on_seeds_that_needed_over_100_redraws(seed):
    ds = federation.build_dataset(RunConfig(seed=seed))
    with pytest.raises(PartitionError):
        data.partition_dirichlet(ds, 20, 0.1, seed, 20, max_retries=100)
    clients = federation.build_clients(RunConfig(seed=seed))
    assert min(len(c.data.study) + len(c.data.quiz) + len(c.data.test) for c in clients) >= 20


def test_raising_the_redraw_cap_keeps_every_plan_found_under_the_old_one():
    ds = federation.build_dataset(RunConfig(seed=1))
    for seed in [s for s in range(1, 22) if s != 5]:  # 20 seeds that build under 100
        old = data.partition_dirichlet(ds, 20, 0.1, seed, 20, max_retries=100)
        new = data.partition_dirichlet(ds, 20, 0.1, seed, 20)
        assert old.assignment.tobytes() == new.assignment.tobytes()


def test_dirichlet_rejects_bad_args():
    ds = small_pool()
    with pytest.raises(ContractViolation):
        data.partition_dirichlet(ds, 1, 0.5, seed=0)
    with pytest.raises(ContractViolation):
        data.partition_dirichlet(ds, 3, 0.0, seed=0)


def test_pathological_class_inventories():
    ds = small_pool(c=4)
    plan = data.partition_pathological(ds, 2, 2, seed=3, min_per_client=10)
    seen = set()
    for shard in plan_shards(plan):
        inventory = set(ds.labels[shard].tolist())
        assert len(inventory) == 2
        seen |= inventory
    assert seen == {0, 1, 2, 3}


def test_pathological_full_inventory_degenerate():
    ds = small_pool(c=3)
    plan = data.partition_pathological(ds, 3, 3, seed=5, min_per_client=10)
    for shard in plan_shards(plan):
        assert set(ds.labels[shard].tolist()) == {0, 1, 2}


def test_pathological_partition_property():
    ds = small_pool(c=5, n_per=40)
    plan = data.partition_pathological(ds, 4, 3, seed=7, min_per_client=10)
    all_idx = np.concatenate(plan_shards(plan))
    assert sorted(all_idx.tolist()) == list(range(len(ds)))  # union, no duplicates


def test_pathological_infeasible_rejected():
    ds = small_pool(c=4)
    with pytest.raises(ContractViolation):
        data.partition_pathological(ds, 2, 5, seed=0)  # cpc > C
    with pytest.raises(ContractViolation):
        data.partition_pathological(ds, 2, 1, seed=0)  # N*cpc < C


def test_pathological_deterministic():
    ds = small_pool(c=6, n_per=50)
    a = data.partition_pathological(ds, 5, 2, seed=11, min_per_client=10)
    b = data.partition_pathological(ds, 5, 2, seed=11, min_per_client=10)
    assert np.array_equal(a.assignment, b.assignment)


def one_client_split(ds, **kwargs):
    """split_client on a plan that gives the whole pool to one client."""
    plan = data.PartitionPlan(np.zeros(len(ds), dtype=np.int64), 1)
    (cd,) = data.split_client(ds, plan, **kwargs)
    return cd


def test_split_client_arithmetic():
    ds = small_pool(c=4, n_per=10)  # 40 samples
    cd = one_client_split(ds, test_fraction=0.25, quiz_size=10, seed=0)
    assert len(cd.test) == 10
    assert len(cd.quiz) == 10
    assert len(cd.study) == 20


@pytest.mark.parametrize("seed", range(8))
def test_split_client_disjoint_every_seed(seed):
    ds = small_pool(c=4, n_per=12)
    cd = one_client_split(ds, seed=seed)
    # rebuild index sets by matching rows (inputs are unique w.h.p.)
    def keys(mat):
        return {tuple(np.round(row, 9)) for row in mat}

    study, quiz, test = keys(cd.study.inputs), keys(cd.quiz.inputs), keys(cd.test.inputs)
    assert not (study & quiz)
    assert not (test & (study | quiz))
    assert len(study) + len(quiz) + len(test) == len(ds)


def test_split_client_quiz_stratified():
    ds = small_pool(c=4, n_per=12)
    cd = one_client_split(ds, quiz_size=10, seed=1)
    quiz_classes = set(cd.quiz.labels.tolist())
    assert len(quiz_classes) >= min(10, 4)


def test_split_client_tiny_quiz_supported():
    ds = small_pool(c=4, n_per=5)
    for quiz_size in (2, 5):
        cd = one_client_split(ds, quiz_size=quiz_size, seed=0)
        assert len(cd.quiz) == quiz_size
        assert len(set(cd.quiz.labels.tolist())) == min(quiz_size, 4)


def test_split_client_quiz_follows_training_class_proportions():
    # A 90/5/5 shard: the quiz must carry the training part's class mix.
    pool = data.generate_synthetic(3, 6, 90, 0.5, 0)
    keep = np.concatenate([np.arange(90), np.arange(90, 95), np.arange(180, 185)])
    ds = pool.subset(keep)
    for seed in range(4):
        cd = one_client_split(ds, quiz_size=10, seed=seed)
        train_labels = np.concatenate([cd.study.labels, cd.quiz.labels])
        train_counts = np.bincount(train_labels, minlength=3)
        expected = reference_largest_remainder(train_counts / train_counts.sum(), 10)
        assert np.bincount(cd.quiz.labels, minlength=3).tolist() == expected.tolist()
        assert np.bincount(cd.quiz.labels, minlength=3)[0] >= 8


def test_split_client_too_few_samples_names_client():
    ds = small_pool(c=2, n_per=75)  # clients 0-6 get 20 samples, client 7 only 10 < 10 + 4
    plan = data.PartitionPlan(np.repeat(np.arange(8), [20] * 7 + [10]), 8)
    with pytest.raises(PartitionError, match="client 7: 10 samples"):
        data.split_client(ds, plan, quiz_size=10, seed=0)


def test_split_client_raises_for_the_lowest_failing_client():
    # Client 1's 14 samples pass the size check, but half go to its test
    # split; client 2 fails the size check too, and the lower index wins.
    ds = small_pool(c=2, n_per=25)
    plan = data.PartitionPlan(np.repeat(np.arange(4), [24, 14, 9, 3]), 4)
    message = "client 1: only 7 training samples after the test split, need quiz_size + 1 = 11"
    with pytest.raises(PartitionError) as exc:
        data.split_client(ds, plan, test_fraction=0.5, quiz_size=10, seed=0)
    assert str(exc.value) == message


@pytest.mark.parametrize("partition", ["dirichlet", "pathological"])
def test_split_parts_are_contiguous_and_share_no_memory(partition):
    # The parts are cut unchecked, so their layout is pinned here: the
    # dtypes a checked Dataset or MiniBatch would convert to, C order, and
    # no memory shared with the pool (which may then be freed) or with any
    # other part.
    ds = small_pool(seed=2, c=4, n_per=60)
    if partition == "dirichlet":
        plan = data.partition_dirichlet(ds, 6, 0.5, seed=2)
    else:
        plan = data.partition_pathological(ds, 6, 2, seed=2)
    clients = data.split_client(ds, plan, quiz_size=5, seed=2)
    arrays = []
    for cd in clients:
        assert cd.study.class_count == cd.test.class_count == ds.class_count
        assert cd.quiz._terms is None
        for part in (cd.study, cd.quiz, cd.test):
            assert part.inputs.dtype == np.float64 and part.labels.dtype == np.int64
            assert part.inputs.ndim == 2 and part.labels.ndim == 1
            arrays += [part.inputs, part.labels]
    for a in arrays:
        assert a.flags.c_contiguous
        assert not np.shares_memory(a, ds.inputs) and not np.shares_memory(a, ds.labels)
    for j, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[j + 1 :])


@pytest.mark.parametrize("bound", [3, 2**16, 2**16 + 1])
def test_stable_order_equals_a_stable_argsort(bound):
    keys = np.random.default_rng(bound).integers(0, bound, 5000)
    keys[:3] = bound - 1  # the largest key, tied
    expected = np.argsort(keys, kind="stable")
    assert data._stable_order(keys, bound).tobytes() == expected.tobytes()


def test_dataset_rejects_bad_labels():
    with pytest.raises(ContractViolation):
        data.Dataset(np.zeros((2, 3)), np.array([0, 5]), 3)


# Reference copies of the set-up formulas as first written (array arithmetic
# over the whole pool, one slice write per client). The rewritten set-up must
# reproduce their bits: every dataset, partition and metric digest hangs on
# them. The partitioners', the split's and the rounding's copies are in
# helpers.py, shared with the property tests.


def _reference_synthetic(class_count, input_dim, samples_per_class, cluster_spread, seed):
    gen = rng.stream(seed, rng.DATA)
    means = gen.standard_normal((class_count, input_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    n = class_count * samples_per_class
    noise = gen.standard_normal((n, input_dim))
    labels = np.repeat(np.arange(class_count), samples_per_class)
    return means[labels] + cluster_spread * noise, labels


@pytest.mark.parametrize("spread", [0.0, 0.3, 0.75])
@pytest.mark.parametrize("shape", [(10, 32, 200), (10, 32, 2000), (3, 4, 5), (1, 1, 1), (7, 3, 11)])
def test_synthetic_equals_the_reference_formula_bitwise(shape, spread):
    for seed in (1, 5):
        ds = data.generate_synthetic(*shape, spread, seed)
        inputs, labels = _reference_synthetic(*shape, spread, seed)
        assert ds.inputs.tobytes() == inputs.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()


def _label_pool(class_count, samples_per_class):
    """A pool whose labels are laid out as generate_synthetic lays them out;
    the partitioners read nothing else."""
    labels = np.repeat(np.arange(class_count), samples_per_class)
    return data.Dataset(np.zeros((labels.shape[0], 1)), labels, class_count)


# (samples per class, N, the Dirichlet beta): the paper task, and wide-l's
# pool and client count. Dirichlet(0.1) never reaches 20 samples on every one
# of 100 clients, so the wide shape draws its Dirichlet plans at beta 0.3.
PARTITION_SHAPES = {"paper": (200, 20, 0.1), "wide-l": (2000, 100, 0.3)}


@pytest.mark.parametrize("shape", PARTITION_SHAPES)
def test_partitioners_equal_the_reference_loops_bitwise(shape):
    spc, n_clients, beta = PARTITION_SHAPES[shape]
    ds = _label_pool(10, spc)
    failures = 0
    for seed in range(1, 51):
        expected, _ = reference_dirichlet(ds, n_clients, beta, seed, 20, 100)
        if expected is None:
            failures += 1
            with pytest.raises(PartitionError):
                data.partition_dirichlet(ds, n_clients, beta, seed, 20, max_retries=100)
        else:
            plan = data.partition_dirichlet(ds, n_clients, beta, seed, 20, max_retries=100)
            assert plan.assignment.tobytes() == expected.tobytes()
        expected, _ = reference_pathological(ds, n_clients, 2, seed, 20, 100)
        plan = data.partition_pathological(ds, n_clients, 2, seed, 20)
        assert plan.assignment.tobytes() == expected.tobytes()
    assert failures <= 1  # paper seed 5 exhausts 100 redraws


# The two task shapes of the benchmark's workloads: the paper task, and
# wide-l's 100 clients with two classes each.
SPLIT_SHAPES = {
    "paper": dict(n_clients=20),
    "wide-l": dict(
        n_clients=100,
        task=federation.TaskConfig(
            partition="pathological", classes_per_client=2, samples_per_class=2000
        ),
    ),
}


@pytest.mark.parametrize("shape", SPLIT_SHAPES)
def test_client_shards_and_splits_equal_the_reference_bitwise(shape):
    for seed in range(1, 51):
        config = RunConfig(seed=seed, **SPLIT_SHAPES[shape])
        clients = federation.build_clients(config)
        ds = federation.build_dataset(config)
        task = config.task
        if task.partition == "dirichlet":
            plan = data.partition_dirichlet(ds, config.n_clients, task.beta, seed, 20)
        else:
            plan = data.partition_pathological(ds, config.n_clients, 2, seed, 20)
        for i, client in enumerate(clients):
            shard = ds.subset(np.nonzero(plan.assignment == i)[0])
            study, quiz, test = reference_split(shard, 0.25, 10, seed, i)
            got = client.data
            for part, expected in [(got.study, study), (got.quiz, quiz), (got.test, test)]:
                assert part.inputs.tobytes() == expected.inputs.tobytes(), (seed, i)
                assert part.labels.tobytes() == expected.labels.tobytes(), (seed, i)
            expected_params = nn.init_params(client.spec, rng.stream(seed, rng.MODEL_INIT, i))
            assert client.params.flat.tobytes() == expected_params.flat.tobytes()
