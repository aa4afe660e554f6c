"""Prototype-baseline tests: local prototypes, count-weighted aggregation,
the prototype-guided loss, and local-only rounds."""

import numpy as np
import pytest

from fedguide import nn
from fedguide.baselines import (
    PrototypeSet,
    aggregate_prototypes,
    empty_prototypes,
    local_prototypes,
    prototype_loss_config,
    study_layout,
)
from fedguide.data import Dataset
from fedguide.errors import ContractViolation
from fedguide.guidance import GuidingVectorSet, guided_loss_config
from fedguide.metrics import study_cross_entropies
from fedguide.nn import LossConfig, MiniBatch, ModelSpec
from fedguide.rng import stream

from helpers import client_prototypes, random_instance, stack_params


def baseline_client_loss(spec, params, batch, pset):
    """Mean ce + mse(guided output, g^y), skipping samples with invalid rows."""
    return nn.total_loss(spec, params, batch, prototype_loss_config(pset))


def make_study(seed, n=12, c=3, d=4):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, d)), rng.integers(0, c, n), c)


def one_client_prototypes(study, outputs, space):
    """local_prototypes of a one-member group."""
    features, logits = outputs
    [local] = local_prototypes(study_layout([study]), logits if space == "logit" else features)
    return local


def test_local_prototypes_single_sample_row():
    spec, params, batch, _ = random_instance(0)
    study = Dataset(batch.inputs[:1], np.array([1]), 3)
    features, logits = nn.forward_batch(spec, params, study.inputs)
    vectors, counts = one_client_prototypes(study, (features, logits), "feature")
    assert np.allclose(vectors[1], features[0])
    assert counts.tolist() == [0, 1, 0]
    assert np.array_equal(vectors[0], np.zeros(spec.feature_dim))


def test_local_prototypes_duplicates_collapse():
    spec, params, batch, _ = random_instance(1)
    one = Dataset(batch.inputs[:1], np.array([0]), 3)
    two = Dataset(np.tile(batch.inputs[:1], (2, 1)), np.array([0, 0]), 3)
    v1, c1 = one_client_prototypes(one, nn.forward_batch(spec, params, one.inputs), "logit")
    v2, c2 = one_client_prototypes(two, nn.forward_batch(spec, params, two.inputs), "logit")
    assert np.allclose(v1[0], v2[0])
    assert c1[0] == 1 and c2[0] == 2


def test_local_prototypes_rejects_outputs_of_other_rows():
    spec, params, batch, _ = random_instance(1)
    study = Dataset(batch.inputs[:2], np.array([0, 1]), 3)
    with pytest.raises(ContractViolation, match="output rows"):
        one_client_prototypes(study, nn.forward_batch(spec, params, batch.inputs[:3]), "feature")


@pytest.mark.parametrize("space", nn.SPACES)
def test_group_prototypes_and_study_ce_equal_each_client_alone(space):
    # members of unequal size: a single-sample class, a class only one
    # member has, a class no member has (class 4), and a one-row member
    spec, params, _, rng = random_instance(4, class_count=5)
    labels = [
        np.array([0, 1, 1, 0, 2, 0, 1, 1, 3]),
        np.array([3]),
        np.array([2, 2, 0, 1, 2, 2]),
    ]
    studies = [Dataset(rng.standard_normal((len(y), 4)), y, 5) for y in labels]
    outputs = [nn.forward_batch(spec, params, s.inputs) for s in studies]
    features, logits = (np.concatenate(part) for part in zip(*outputs))
    layout = study_layout(studies)
    group = local_prototypes(layout, logits if space == "logit" else features)
    ces = study_cross_entropies(logits, layout.labels, layout.bounds)
    for study, out, (vectors, counts), ce in zip(studies, outputs, group, ces):
        ref_vectors, ref_counts = client_prototypes(study, out, space)
        assert vectors.tobytes() == ref_vectors.tobytes()
        assert np.array_equal(counts, ref_counts)
        assert ce == float(nn._ce_rows(out[1], study.labels).mean())
    assert not any(counts[4] for _, counts in group)
    with pytest.raises(ValueError):
        layout.counts[0, 0] = 1  # shared by every round's uploads


def test_group_of_one_member_equals_it_alone():
    spec, params, _, _ = random_instance(5)
    study = make_study(6)
    out = nn.forward_batch(spec, params, study.inputs)
    vectors, counts = one_client_prototypes(study, out, "feature")
    ref_vectors, ref_counts = client_prototypes(study, out, "feature")
    assert vectors.tobytes() == ref_vectors.tobytes() and np.array_equal(counts, ref_counts)


def test_study_layout_rejects_an_empty_study_set():
    empty = Dataset(np.zeros((0, 4)), np.zeros(0, np.int64), 3)
    with pytest.raises(ContractViolation, match="study set is empty"):
        study_layout([make_study(1), empty])


def test_aggregate_single_client_identity():
    spec, params, _, _ = random_instance(2)
    study = make_study(3)
    local = one_client_prototypes(study, nn.forward_batch(spec, params, study.inputs), "feature")
    agg = aggregate_prototypes([local], "feature")
    assert np.allclose(agg.vectors[agg.valid], local[0][local[1] > 0])
    assert np.array_equal(agg.counts, local[1])


def test_aggregate_weighted_mean_by_hand():
    a = np.zeros((2, 3))
    b = np.zeros((2, 3))
    a[0] = 1.0
    b[0] = 5.0
    agg = aggregate_prototypes(
        [(a, np.array([1, 0])), (b, np.array([3, 0]))], "feature"
    )
    assert np.allclose(agg.vectors[0], (1 * 1.0 + 3 * 5.0) / 4)
    assert not agg.valid[1]


def test_aggregate_permutation_invariant():
    rng = np.random.default_rng(4)
    locals_ = [
        (rng.standard_normal((3, 4)), rng.integers(0, 5, 3)) for _ in range(4)
    ]
    agg1 = aggregate_prototypes(locals_, "feature")
    agg2 = aggregate_prototypes(list(reversed(locals_)), "feature")
    assert np.allclose(agg1.vectors, agg2.vectors)
    assert np.array_equal(agg1.counts, agg2.counts)


def test_aggregate_equal_counts_is_plain_mean():
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal((3, 4)) for _ in range(3)]
    locals_ = [(m, np.full(3, 7)) for m in mats]
    agg = aggregate_prototypes(locals_, "logit")
    assert np.allclose(agg.vectors, np.mean(mats, axis=0))


def test_baseline_loss_all_invalid_is_pure_ce():
    spec, params, batch, _ = random_instance(6)
    pset = empty_prototypes(3, spec.feature_dim, "feature")
    ce = nn.total_loss(spec, params, batch, LossConfig())
    assert baseline_client_loss(spec, params, batch, pset) == pytest.approx(ce, abs=1e-14)


def test_baseline_loss_matching_prototypes_is_pure_ce():
    spec, params, batch, _ = random_instance(7)
    single = MiniBatch(batch.inputs[:1], batch.labels[:1])
    features, _ = nn.forward_batch(spec, params, single.inputs)
    vectors = np.zeros((3, spec.feature_dim))
    vectors[int(single.labels[0])] = features[0]
    pset = PrototypeSet(vectors, np.array([1, 1, 1]), "feature")
    ce = nn.total_loss(spec, params, single, LossConfig())
    assert baseline_client_loss(spec, params, single, pset) == pytest.approx(ce, abs=1e-14)


def test_baseline_loss_equals_guided_loss_when_all_valid():
    spec, params, batch, rng = random_instance(8)
    vectors = 0.3 * rng.standard_normal((3, spec.feature_dim))
    pset = PrototypeSet(vectors, np.ones(3, dtype=int), "feature")
    gset = GuidingVectorSet(vectors, "feature")
    assert baseline_client_loss(spec, params, batch, pset) == pytest.approx(
        nn.total_loss(spec, params, batch, guided_loss_config(gset)), abs=1e-14
    )


def test_local_only_round_deterministic_and_trains():
    clients = []
    for i in range(3):
        spec = nn.family_spec(i, 4, 5, 3, "tanh")
        params = nn.init_params(spec, stream(0, 3, i))
        clients.append((spec, params, make_study(i, n=24)))

    def local_only_round(round_index):
        # one epoch of pure cross-entropy SGD per client; no communication
        return [
            nn.run_sgd_epoch(
                spec,
                stack_params([params]),
                [study.inputs],
                [study.labels],
                LossConfig(),
                0.05,
                10,
                [stream(0, 6, i, round_index)],
            ).flat[0]
            for i, (spec, params, study) in enumerate(clients)
        ]

    out1 = local_only_round(1)
    out2 = local_only_round(1)
    for p1, p2, (spec, before, _) in zip(out1, out2, clients):
        assert np.array_equal(p1, p2)
        assert not np.array_equal(p1, before.flat)


def test_prototype_set_shape_validation():
    with pytest.raises(ContractViolation):
        PrototypeSet(np.zeros((2, 3)), np.zeros(3, dtype=int), "feature")
    with pytest.raises(ContractViolation):
        aggregate_prototypes(
            [(np.zeros((2, 3)), np.zeros(2, dtype=int)), (np.zeros((2, 4)), np.zeros(2, dtype=int))],
            "feature",
        )
