"""Guidance-core tests: combined loss, local epoch, pseudo-train, the
guiding-vector gradient against its finite-difference oracle, the server
update, and the privacy-noise option."""

import numpy as np
import pytest

from fedguide import guidance, nn
from fedguide.data import Dataset
from fedguide.errors import ConfigError, ContractViolation
from fedguide.federation import RunConfig
from fedguide.guidance import (
    GuidanceGradient,
    GuidingVectorSet,
    add_privacy_noise,
    guidance_gradient,
    guided_loss_config,
    init_guiding_vectors,
    local_train_epoch,
    pseudo_train,
    server_update,
)
from fedguide.nn import LossConfig, MiniBatch, ModelParams, ModelSpec
from fedguide.rng import stream

from helpers import (
    fd_guidance_gradient,
    quiz_ce_after_pseudo,
    random_instance,
    rel_error,
    stack_params,
)


def make_instance(seed, space="feature", class_count=3, feature_dim=5):
    spec, params, batch, rng = random_instance(seed, class_count, feature_dim)
    m = class_count if space == "logit" else feature_dim
    gset = GuidingVectorSet(0.3 * rng.standard_normal((class_count, m)), space)
    quiz = MiniBatch(rng.standard_normal((4, 4)), rng.integers(0, class_count, 4))
    return spec, params, batch, quiz, gset, rng


def client_total_loss(spec, params, batch, gset):
    """Mean over the batch of ce(logits, y) + mse(guided_output, v^y)."""
    return nn.total_loss(spec, params, batch, guided_loss_config(gset))


def test_client_total_loss_reduces_to_ce_when_vectors_match_outputs():
    spec, params, batch, _, _, _ = make_instance(0)
    features, _ = nn.forward_batch(spec, params, batch.inputs)
    V = np.zeros((3, 5))
    for y in np.unique(batch.labels):
        # one representative per class so the mse term vanishes exactly
        V[y] = features[batch.labels == y][0]
    single = MiniBatch(batch.inputs[:1], batch.labels[:1])
    gset = GuidingVectorSet(V, "feature")
    ce = nn.total_loss(spec, params, single, LossConfig(use_ce=True))
    assert client_total_loss(spec, params, single, gset) == pytest.approx(ce, abs=1e-14)


def test_client_total_loss_composes_ce_and_mse_for_one_sample():
    spec, params, batch, _, gset, _ = make_instance(1)
    single = MiniBatch(batch.inputs[:1], batch.labels[:1])
    features, logits = nn.forward_batch(spec, params, single.inputs)
    y = int(single.labels[0])
    shifted = logits[0] - logits[0].max()
    ce = np.log(np.exp(shifted).sum()) - shifted[y]
    expected = ce + np.mean((features[0] - gset.vectors[y]) ** 2)
    assert client_total_loss(spec, params, single, gset) == pytest.approx(expected, rel=1e-12)


def test_client_total_loss_finite_on_random_inputs():
    for seed in range(5):
        spec, params, batch, _, gset, _ = make_instance(seed)
        assert np.isfinite(client_total_loss(spec, params, batch, gset))


def test_local_train_epoch_too_small_study_is_noop():
    spec, params, batch, _, gset, rng = make_instance(2)
    study = Dataset(batch.inputs[:3], batch.labels[:3], 3)
    out = local_train_epoch(spec, params, study, gset, 0.05, rng, batch_size=10)
    assert np.array_equal(out.flat, params.flat)


def test_local_train_epoch_zero_lr_is_noop():
    spec, params, batch, _, gset, rng = make_instance(3)
    study = Dataset(np.tile(batch.inputs, (3, 1)), np.tile(batch.labels, 3), 3)
    out = local_train_epoch(spec, params, study, gset, 0.0, rng, batch_size=4)
    assert np.array_equal(out.flat, params.flat)


def test_local_train_epoch_reduces_ce_on_separable_toy():
    # two linearly separable clusters, pure-ce diagnostic mode (no vectors)
    gen = stream(5, 0)
    x0 = gen.normal(0, 0.1, (30, 4)) + np.array([1.0, 1.0, 0, 0])
    x1 = gen.normal(0, 0.1, (30, 4)) + np.array([-1.0, -1.0, 0, 0])
    study = Dataset(np.vstack([x0, x1]), np.repeat([0, 1], 30), 2)
    spec = ModelSpec(4, (8,), 4, 2, "tanh")
    params = nn.init_params(spec, stream(5, 3, 0))
    all_batch = MiniBatch(study.inputs, study.labels)
    before = nn.total_loss(spec, params, all_batch, LossConfig(use_ce=True))
    out = local_train_epoch(spec, params, study, None, 0.1, stream(5, 6, 0), batch_size=10)
    after = nn.total_loss(spec, out, all_batch, LossConfig(use_ce=True))
    assert after < before


def test_pseudo_train_is_one_sgd_step_and_pure():
    spec, params, batch, _, gset, _ = make_instance(4)
    flat_before = params.flat.copy()
    eta_c = 0.05
    expected = nn.sgd_step(
        params,
        nn.grad_params(spec, params, batch, guidance.guided_loss_config(gset)),
        eta_c,
    )
    stepped = pseudo_train(spec, params, batch, gset, eta_c)
    assert np.array_equal(stepped.flat, expected.flat)
    assert np.array_equal(params.flat, flat_before)
    assert np.any(stepped.flat != params.flat)  # gradient nonzero here


def test_pseudo_train_zero_gradient_fixed_point():
    spec = ModelSpec(2, (2,), 2, 2, "relu")
    params = ModelParams(np.zeros(nn.param_count(spec)))
    # zero net, logits 0: mse target = logits makes combined gradient vanish
    # only if ce gradient also vanishes, so use an mse-only fixed point via
    # guide vectors equal to outputs and symmetric two-class batch.
    batch = MiniBatch(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0, 1]))
    gset = GuidingVectorSet(np.zeros((2, 2)), "logit")
    stepped = pseudo_train(spec, params, batch, gset, 0.5)
    # symmetric labels over identical inputs: ce gradients cancel, mse is 0
    assert np.allclose(stepped.flat, params.flat, atol=1e-15)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("space,feature_dim", [("logit", 5), ("feature", 8), ("feature", 3)])
def test_guidance_gradient_matches_oracle(seed, space, feature_dim):
    spec, params, batch, quiz, gset, _ = make_instance(seed + 100, space, 3, feature_dim)
    eta_c = 0.05
    pi = guidance_gradient(spec, params, batch, quiz, gset, eta_c)
    fd = fd_guidance_gradient(spec, params, batch, quiz, gset, eta_c)
    assert rel_error(pi.per_class, fd) <= 1e-5


@pytest.mark.parametrize("space", ["logit", "feature"])
def test_stacked_guidance_gradient_equals_each_client_alone(space):
    spec = nn.family_spec(2, 4, 5, 3)
    rng = stream(8, 0)
    gset = GuidingVectorSet(0.3 * rng.standard_normal((3, 3 if space == "logit" else 5)), space)
    params = [nn.init_params(spec, stream(8, 3, j)) for j in range(3)]
    batches = [MiniBatch(rng.standard_normal((6, 4)), rng.integers(0, 3, 6)) for _ in range(3)]
    quizzes = [MiniBatch(rng.standard_normal((4, 4)), rng.integers(0, 3, 4)) for _ in range(3)]
    stacked_params = stack_params(params)
    batch, quiz = nn.stack_batches(batches), nn.stack_batches(quizzes)
    stacked = guidance_gradient(spec, stacked_params, batch, quiz, gset, 0.05)
    for p, b, q, g in zip(params, batches, quizzes, stacked):
        alone = guidance_gradient(spec, p, b, q, gset, 0.05)
        assert g.per_class.tobytes() == alone.per_class.tobytes()
        assert np.array_equal(g.present, alone.present)


def _sum_per_class_one_client(jvps, labels, scale, class_count):
    """Reference: one client's JVP rows summed class by class."""
    per_class = np.zeros((class_count, jvps.shape[-1]))
    present = np.zeros(class_count, dtype=bool)
    for y in np.unique(labels):
        per_class[y] = scale * jvps[labels == y].sum(axis=0)
        present[y] = True
    return per_class, present


@pytest.mark.parametrize("k", [1, 2, 4])
def test_stacked_class_sums_equal_the_per_client_loop_bitwise(k):
    rng = stream(9, k)
    gset = GuidingVectorSet(np.zeros((10, 32)), "feature")
    jvps = rng.standard_normal((k, 10, 32))
    labels = rng.integers(0, 4, (k, 10))  # repeated classes; classes 4-9 absent
    labels[0, :3] = 9  # rows of one class spread over the batch
    labels[0, -1] = 9
    got = guidance._sum_per_class(jvps, labels, 0.037, gset)
    assert len(got) == k
    for g, j, y in zip(got, jvps, labels):
        per_class, present = _sum_per_class_one_client(j, y, 0.037, 10)
        assert g.per_class.tobytes() == per_class.tobytes()
        assert np.array_equal(g.present, present)


def test_guidance_gradient_absent_class_zero_row():
    spec, params, batch, quiz, gset, _ = make_instance(7)
    keep = batch.labels != 2
    if keep.all():  # ensure class 2 is actually absent
        keep[-1] = False
    batch = MiniBatch(batch.inputs[keep], batch.labels[keep])
    batch.labels[batch.labels == 2] = 0
    pi = guidance_gradient(spec, params, batch, quiz, gset, 0.05)
    assert not pi.present[2]
    assert np.array_equal(pi.per_class[2], np.zeros(gset.dim))


def test_guidance_gradient_eta_zero_gives_zero():
    spec, params, batch, quiz, gset, _ = make_instance(8)
    pi = guidance_gradient(spec, params, batch, quiz, gset, 0.0)
    assert np.array_equal(pi.per_class, np.zeros_like(pi.per_class))
    assert pi.present.any()  # presence reflects the batch, not the values


def test_stage_two_jvps_invariant_to_head_perturbation():
    # in feature space, head parameters may only reach the result through the
    # quiz direction; the study-batch Jacobians themselves must not move
    spec, params, batch, quiz, gset, rng = make_instance(9, "feature")
    direction = rng.standard_normal(params.flat.shape[0])
    perturbed = ModelParams(params.flat.copy())
    _, extractor_end = nn._layout(spec)
    perturbed.flat[extractor_end:] += rng.standard_normal(params.flat.shape[0] - extractor_end)
    jv = nn.jvp_guided_batch(spec, params, batch.inputs, direction, "feature")
    jv_pert = nn.jvp_guided_batch(spec, perturbed, batch.inputs, direction, "feature")
    assert np.array_equal(jv, jv_pert)


@pytest.mark.parametrize("space", ["logit", "feature"])
def test_one_server_update_descends_quiz_loss(space):
    # halving search from the default step: some step must strictly decrease
    # this client's post-pseudo-train quiz ce, since pi is the exact gradient
    spec, params, batch, quiz, gset, _ = make_instance(11, space)
    eta_c = 0.05
    before = quiz_ce_after_pseudo(spec, params, batch, quiz, gset, eta_c)
    pi = guidance_gradient(spec, params, batch, quiz, gset, eta_c)
    eta_s = 100.0 if space == "feature" else 0.1
    for _ in range(9):
        updated = server_update(gset, [pi], eta_s)
        after = quiz_ce_after_pseudo(spec, params, batch, quiz, updated, eta_c)
        if after < before:
            break
        eta_s /= 2
    assert after < before


def test_server_update_single_client_by_hand():
    gset = GuidingVectorSet(np.ones((3, 4)), "feature")
    per = np.zeros((3, 4))
    per[0] = 0.5
    pi = GuidanceGradient(per, np.array([True, False, False]))
    out = server_update(gset, [pi], eta_s=2.0)
    assert np.allclose(out.vectors[0], 1.0 - 2.0 * 0.5)
    assert np.array_equal(out.vectors[1:], np.ones((2, 4)))
    assert out.version == gset.version + 1


def test_server_update_two_equal_clients_match_one():
    gset = GuidingVectorSet(np.zeros((2, 3)), "feature")
    per = np.arange(6, dtype=float).reshape(2, 3)
    pi = GuidanceGradient(per, np.array([True, True]))
    one = server_update(gset, [pi], 0.7)
    two = server_update(gset, [pi, GuidanceGradient(per.copy(), np.array([True, True]))], 0.7)
    assert np.allclose(one.vectors, two.vectors)


def test_server_update_skips_classes_absent_everywhere():
    gset = GuidingVectorSet(np.full((2, 3), 5.0), "feature")
    pi = GuidanceGradient(np.zeros((2, 3)), np.array([False, False]))
    out = server_update(gset, [pi, pi], 1.0)
    assert np.array_equal(out.vectors, gset.vectors)


def test_server_update_zero_feedback_fixed_point():
    gset = init_guiding_vectors(4, 6, "feature", seed=3)
    zeros = [
        GuidanceGradient(np.zeros((4, 6)), np.array([True, True, False, True]))
        for _ in range(5)
    ]
    out = server_update(gset, zeros, 10.0)
    assert np.array_equal(out.vectors, gset.vectors)


def _server_update_reference(gset, grads, eta_s):
    """The per-class loop server_update once was: each reported class's rows
    summed in client order, divided by their count, one step per class."""
    vectors = gset.vectors.copy()
    for y in range(gset.class_count):
        rows = [g.per_class[y] for g in grads if g.present[y]]
        if rows:
            vectors[y] -= eta_s * (np.sum(rows, axis=0) / len(rows))
    return vectors


@pytest.mark.parametrize("seed", range(6))
def test_server_update_equals_the_per_class_loop_bitwise(seed):
    rng = stream(seed, 17)
    c, m = 7, 5
    vectors = rng.standard_normal((c, m))
    vectors[0, :2] = [0.0, -0.0]  # signed zeros must keep their sign
    gset = GuidingVectorSet(vectors, "feature", version=seed)
    k = 1 + seed
    present = rng.random((k, c)) < 0.5
    present[:, 6] = False  # a class no client reports
    present[:, 5] = np.arange(k) == k - 1  # reported by one client only
    present[:, 0] = True
    per_class = np.where(present[..., None], rng.standard_normal((k, c, m)), 0.0)
    per_class[:, 0, 2] = -0.0  # rows whose sum is an exact zero of either sign
    per_class[0, 0, 3], per_class[1:, 0, 3] = 0.0, -0.0
    grads = [GuidanceGradient(g, p) for g, p in zip(per_class, present)]
    out = server_update(gset, grads, 0.9)
    assert out.vectors.tobytes() == _server_update_reference(gset, grads, 0.9).tobytes()
    assert out.vectors[6].tobytes() == vectors[6].tobytes()
    assert out.version == seed + 1


def test_server_update_shape_mismatch_rejected():
    gset = GuidingVectorSet(np.zeros((2, 3)), "feature")
    bad = GuidanceGradient(np.zeros((2, 4)), np.array([True, True]))
    with pytest.raises(ContractViolation):
        server_update(gset, [bad], 1.0)


def test_init_guiding_vectors_seeded_shape_version():
    a = init_guiding_vectors(5, 7, "feature", seed=2)
    b = init_guiding_vectors(5, 7, "feature", seed=2)
    assert np.array_equal(a.vectors, b.vectors)
    assert a.vectors.shape == (5, 7)
    assert a.version == 0
    assert not np.array_equal(a.vectors, init_guiding_vectors(5, 7, "feature", seed=3).vectors)


def test_logit_space_requires_square_vectors():
    with pytest.raises(ContractViolation):
        GuidingVectorSet(np.zeros((3, 4)), "logit")


def test_guidance_gradient_enforces_zero_absent_rows():
    with pytest.raises(ContractViolation):
        GuidanceGradient(np.ones((2, 3)), np.array([True, False]))


def test_add_privacy_noise_identity_cases():
    per = np.ones((3, 4))
    pi = GuidanceGradient(per.copy(), np.array([True, True, True]))
    assert add_privacy_noise(pi, 0.0, 1.0, stream(0, 8)) is pi
    assert add_privacy_noise(pi, 0.5, 0.0, stream(0, 8)) is pi


def test_add_privacy_noise_preserves_mask_and_absent_rows():
    per = np.ones((3, 4))
    per[1] = 0.0
    pi = GuidanceGradient(per, np.array([True, False, True]))
    noised = add_privacy_noise(pi, 0.05, 1.0, stream(1, 8))
    assert np.array_equal(noised.present, pi.present)
    assert np.array_equal(noised.per_class[1], np.zeros(4))
    assert np.all(noised.per_class[0] != pi.per_class[0])  # every coordinate moved


def test_add_privacy_noise_expected_perturbation_energy():
    # Monte Carlo over seeds: with p=1 the added energy per row is M * s^2
    m, s = 6, 0.05
    per = np.zeros((1, m))
    pi = GuidanceGradient(per, np.array([True]))
    total = 0.0
    n_seeds = 1000
    for k in range(n_seeds):
        noised = add_privacy_noise(pi, s, 1.0, stream(k, 8))
        delta = noised.per_class - pi.per_class
        total += float((delta**2).sum())
    assert total / n_seeds == pytest.approx(m * s**2, rel=0.10)


def test_add_privacy_noise_fraction_of_coordinates():
    per = np.zeros((1, 10))
    pi = GuidanceGradient(per, np.array([True]))
    noised = add_privacy_noise(pi, 1.0, 0.2, stream(4, 8))
    assert int((noised.per_class[0] != 0).sum()) == 2


def test_guidance_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(method="fedl2g-l", eta_c=0.0, eta_s=1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(method="fedl2g-f", eta_c=0.1, eta_s=-1.0).validate()
    RunConfig(method="fedl2g-l", eta_c=0.01, eta_s=0.1).validate()
    # ce and the guide mse are weighted equally
    spec, params, batch, _, gset, _ = make_instance(2, space="logit")
    _, logits = nn.forward_batch(spec, params, batch.inputs)
    ce = nn.total_loss(spec, params, batch, LossConfig(use_ce=True))
    mse = float(((logits - gset.vectors[batch.labels]) ** 2).mean())
    total = nn.total_loss(spec, params, batch, guided_loss_config(gset))
    assert total == pytest.approx(ce + mse, rel=1e-12)
