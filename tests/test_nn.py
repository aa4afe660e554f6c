"""Kernel tests: forward examples, loss values, gradient and JVP oracles,
SGD purity, and determinism."""

import math

import numpy as np
import pytest

from fedguide import nn
from fedguide.errors import ContractViolation
from fedguide.nn import LossConfig, MiniBatch, ModelParams, ModelSpec
from fedguide.rng import stream

from helpers import (
    fd_grad_params,
    fd_jvp,
    random_instance,
    reference_init_params,
    rel_error,
    stack_params,
)


def zero_params(spec):
    return ModelParams(np.zeros(nn.param_count(spec)))


def test_forward_zero_weights_gives_bias_outputs():
    spec = ModelSpec(3, (4,), 5, 2, "relu")
    params = zero_params(spec)
    features, logits = nn.forward_batch(spec, params, np.array([[1.0, -2.0, 3.0]]))
    assert np.array_equal(features, np.zeros((1, 5)))
    assert np.array_equal(logits, np.zeros((1, 2)))


def test_forward_single_linear_layer_by_hand():
    # depth-1 net, input passes hidden identity-ish weights set manually:
    # pick weights so features = W_f * relu(W_1 x + b_1) is checkable by hand.
    spec = ModelSpec(2, (2,), 2, 2, "relu")
    params = zero_params(spec)
    blocks = nn._affines(spec, params.flat)
    blocks[0][0][:] = np.eye(2)  # hidden W = I, b = 0
    blocks[1][0][:] = np.eye(2)  # feature W = I
    blocks[2][0][:] = np.array([[2.0, 0.0], [0.0, 3.0]])  # head
    blocks[2][1][:] = np.array([0.5, -0.5])
    features, logits = nn.forward_batch(spec, params, np.array([[1.0, 0.0]]))
    assert np.allclose(features, [[1.0, 0.0]])
    assert np.allclose(logits, [[2.5, -0.5]])  # first weight column + bias


def test_forward_deterministic_bitwise():
    spec = ModelSpec(6, (8, 4), 5, 3, "tanh")
    params = nn.init_params(spec, stream(7, 3, 0))
    x = stream(7, 0).standard_normal((1, 6))
    f1, l1 = nn.forward_batch(spec, params, x)
    f2, l2 = nn.forward_batch(spec, params, x)
    assert np.array_equal(f1, f2) and np.array_equal(l1, l2)


def test_forward_rejects_dimension_mismatch():
    spec = ModelSpec(3, (4,), 5, 2, "relu")
    params = zero_params(spec)
    with pytest.raises(ContractViolation):
        nn.forward_batch(spec, params, np.zeros((1, 4)))


def head_bias_params(bias):
    """A one-sample problem whose logits are exactly ``bias``: all weights and
    the extractor's biases are 0, so the head's bias is the output."""
    spec = ModelSpec(2, (2,), 2, len(bias), "relu")
    params = zero_params(spec)
    nn._affines(spec, params.flat)[-1][1][:] = bias
    return spec, params, np.zeros((1, 2))


def ce_of(bias, label):
    spec, params, x = head_bias_params(bias)
    return nn.total_loss(spec, params, MiniBatch(x, [label]), LossConfig(use_ce=True))


def mse_of(pred, target):
    spec, params, x = head_bias_params(pred)
    cfg = LossConfig(use_ce=False, guide_vectors=np.array([target]), guide_space="logit")
    return nn.total_loss(spec, params, MiniBatch(x, [0]), cfg)


def test_loss_ce_uniform_logits():
    assert ce_of(np.zeros(4), 2) == pytest.approx(math.log(4.0), rel=1e-12)


def test_loss_ce_dominant_logit():
    # frozen from an independent calculator: log1p(2*exp(-10))
    assert ce_of(np.array([10.0, 0.0, 0.0]), 0) == pytest.approx(
        9.079573746724446e-05, rel=1e-10
    )


def test_loss_ce_wrong_class_exceeds_log_c():
    logits = np.array([50.0, 0.0, 0.0])
    assert ce_of(logits, 1) > math.log(3.0)


def test_loss_ce_label_range_checked():
    with pytest.raises(ContractViolation):
        ce_of(np.zeros(3), 3)


def test_loss_mse_by_hand():
    assert mse_of(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 0.5
    assert mse_of(np.array([2.0, -1.0]), np.array([2.0, -1.0])) == 0.0
    assert mse_of(np.array([3.0, -1.0]), np.array([1.0, 1.0])) == 4.0


def test_loss_mse_length_mismatch():
    spec, params, x = head_bias_params(np.zeros(2))
    cfg = LossConfig(use_ce=False, guide_vectors=np.zeros((1, 3)), guide_space="logit")
    with pytest.raises(ContractViolation):
        nn.total_loss(spec, params, MiniBatch(x, [0]), cfg)


def test_grad_zero_when_mse_target_already_met():
    spec = ModelSpec(3, (4,), 5, 2, "tanh")
    params = nn.init_params(spec, stream(3, 3, 0))
    x = stream(3, 0).standard_normal((2, 3))
    features, _ = nn.forward_batch(spec, params, x)
    # guide vectors equal to the model's own outputs, mse-only loss
    V = np.zeros((2, 5))
    labels = np.array([0, 1])
    V[labels] = features
    cfg = LossConfig(use_ce=False, guide_vectors=V, guide_space="feature")
    g = nn.grad_params(spec, params, MiniBatch(x, labels), cfg)
    assert np.array_equal(g, np.zeros_like(g))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("mode", ["ce", "combined-logit", "combined-feature"])
def test_grad_params_matches_finite_differences(seed, mode):
    spec, params, batch, rng = random_instance(seed)
    if mode == "ce":
        cfg = LossConfig(use_ce=True)
    else:
        space = mode.split("-")[1]
        m = spec.class_count if space == "logit" else spec.feature_dim
        cfg = LossConfig(
            use_ce=True,
            guide_vectors=0.4 * rng.standard_normal((spec.class_count, m)),
            guide_space=space,
        )
    g = nn.grad_params(spec, params, batch, cfg)
    fd = fd_grad_params(spec, params, batch, cfg)
    assert rel_error(g, fd) <= 1e-6


def test_grad_combined_equals_sum_of_parts():
    spec, params, batch, rng = random_instance(21)
    V = 0.4 * rng.standard_normal((spec.class_count, spec.feature_dim))
    ce_cfg = LossConfig(use_ce=True)
    mse_cfg = LossConfig(use_ce=False, guide_vectors=V, guide_space="feature")
    both_cfg = LossConfig(use_ce=True, guide_vectors=V, guide_space="feature")
    g_ce = nn.grad_params(spec, params, batch, ce_cfg)
    g_mse = nn.grad_params(spec, params, batch, mse_cfg)
    g_both = nn.grad_params(spec, params, batch, both_cfg)
    assert np.allclose(g_both, g_ce + g_mse, atol=1e-14)


def test_feature_space_mse_gradient_confined_to_extractor():
    spec, params, batch, rng = random_instance(22)
    V = 0.4 * rng.standard_normal((spec.class_count, spec.feature_dim))
    cfg = LossConfig(use_ce=False, guide_vectors=V, guide_space="feature")
    g = nn.grad_params(spec, params, batch, cfg)
    _, extractor_end = nn._layout(spec)
    assert np.array_equal(g[extractor_end:], np.zeros(len(g) - extractor_end))
    assert np.abs(g[:extractor_end]).max() > 0


def test_jvp_zero_direction():
    spec, params, batch, _ = random_instance(30)
    jv = nn.jvp_guided_batch(spec, params, batch.inputs, np.zeros_like(params.flat), "logit")
    assert np.array_equal(jv, np.zeros_like(jv))


def test_jvp_single_linear_layer_unit_direction():
    # For the head map logits = W_h f + b_h, a unit direction on W_h[i, j]
    # must produce x_j e_i with x the features.
    spec = ModelSpec(2, (2,), 2, 3, "relu")
    params = zero_params(spec)
    blocks = nn._affines(spec, params.flat)
    blocks[0][0][:] = np.eye(2)
    blocks[1][0][:] = np.eye(2)
    x = np.array([[2.0, 5.0]])
    features, _ = nn.forward_batch(spec, params, x)
    offsets, _ = nn._layout(spec)
    head_off = offsets[2]
    i, j = 1, 0
    direction = np.zeros_like(params.flat)
    direction[head_off + i * 2 + j] = 1.0
    jv = nn.jvp_guided_batch(spec, params, x, direction, "logit")
    expected = np.zeros((1, 3))
    expected[0, i] = features[0, j]
    assert np.allclose(jv, expected, atol=1e-14)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("space", ["logit", "feature"])
def test_jvp_matches_finite_differences(seed, space):
    spec, params, batch, rng = random_instance(seed + 50)
    direction = rng.standard_normal(params.flat.shape[0])
    jv = nn.jvp_guided_batch(spec, params, batch.inputs, direction, space)
    fd = fd_jvp(spec, params, batch.inputs, direction, space)
    assert rel_error(jv, fd) <= 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_jvp_linear_in_direction(seed):
    spec, params, batch, rng = random_instance(seed + 70)
    d1 = rng.standard_normal(params.flat.shape[0])
    d2 = rng.standard_normal(params.flat.shape[0])
    a, b = 0.7, -1.3
    lhs = nn.jvp_guided_batch(spec, params, batch.inputs, a * d1 + b * d2, "logit")
    rhs = a * nn.jvp_guided_batch(spec, params, batch.inputs, d1, "logit") + b * nn.jvp_guided_batch(
        spec, params, batch.inputs, d2, "logit"
    )
    assert np.abs(lhs - rhs).max() <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_jvp_feature_space_ignores_head_coordinates(seed):
    spec, params, batch, rng = random_instance(seed + 90)
    direction = rng.standard_normal(params.flat.shape[0])
    zeroed = direction.copy()
    zeroed[nn._layout(spec)[1] :] = 0.0
    jv_full = nn.jvp_guided_batch(spec, params, batch.inputs, direction, "feature")
    jv_zeroed = nn.jvp_guided_batch(spec, params, batch.inputs, zeroed, "feature")
    assert np.array_equal(jv_full, jv_zeroed)


def test_grad_and_jvp_deterministic_bitwise():
    spec, params, batch, rng = random_instance(99)
    cfg = LossConfig(use_ce=True)
    direction = rng.standard_normal(params.flat.shape[0])
    assert np.array_equal(
        nn.grad_params(spec, params, batch, cfg), nn.grad_params(spec, params, batch, cfg)
    )
    assert np.array_equal(
        nn.jvp_guided_batch(spec, params, batch.inputs, direction, "feature"),
        nn.jvp_guided_batch(spec, params, batch.inputs, direction, "feature"),
    )


def test_sgd_step_by_hand_and_purity():
    spec = ModelSpec(1, (1,), 1, 1, "relu")
    p = ModelParams(np.ones(nn.param_count(spec)))
    flat_before = p.flat.copy()
    g = np.zeros_like(p.flat)
    g[0], g[1] = 2.0, -2.0
    stepped = nn.sgd_step(p, g, 0.5)
    assert stepped.flat[0] == 0.0 and stepped.flat[1] == 2.0
    assert np.array_equal(p.flat, flat_before)  # input untouched
    assert np.array_equal(nn.sgd_step(p, np.zeros_like(g), 0.3).flat, p.flat)
    assert np.array_equal(nn.sgd_step(p, g, 0.0).flat, p.flat)


def test_relu_subgradient_at_zero_is_zero():
    # Hidden unit 0 has zero weights and bias, so its pre-activation is
    # exactly 0 on every sample; with a subgradient of 1 there, both kernels
    # would pass signal through it.
    spec = ModelSpec(3, (4,), 5, 2, "relu")
    params = nn.init_params(spec, stream(4, 3, 0))
    w0, b0 = nn._affines(spec, params.flat)[0]
    w0[0], b0[0] = 0.0, 0.0
    x = stream(4, 0).standard_normal((6, 3))
    g = nn.grad_params(spec, params, MiniBatch(x, np.arange(6) % 2), LossConfig())
    gw0, gb0 = nn._affines(spec, g)[0]
    assert not gw0[0].any() and gb0[0] == 0.0
    assert gw0[1:].any()
    direction = np.zeros_like(params.flat)
    dw0, db0 = nn._affines(spec, direction)[0]
    dw0[0], db0[0] = 1.0, 1.0  # moves only unit 0's pre-activation
    for space in ("logit", "feature"):
        jv = nn.jvp_guided_batch(spec, params, x, direction, space)
        assert not jv.any(), space


def test_param_layout_partitions_vector():
    spec = ModelSpec(5, (7, 3), 4, 6, "tanh")
    params = nn.init_params(spec, stream(11, 3, 0))
    offsets, extractor_end = nn._layout(spec)
    assert offsets[0] == 0
    assert offsets[-1] == params.flat.shape[0]
    assert 0 < extractor_end < params.flat.shape[0]
    # head block is exactly everything after the extractor
    head_size = spec.class_count * spec.feature_dim + spec.class_count
    assert params.flat.shape[0] - extractor_end == head_size


INIT_SPECS = [
    *(nn.family_spec(v, 32, 16, 10, a) for v in range(5) for a in nn.ACTIVATIONS),
    *(ModelSpec(1, (1,), 1, 1, a) for a in nn.ACTIVATIONS),
    ModelSpec(3, (7, 2), 1, 4),
]


@pytest.mark.parametrize("spec", INIT_SPECS, ids=lambda s: f"{s.hidden_widths}-{s.activation}")
def test_init_params_equals_the_per_block_reference_bitwise(spec):
    for s in range(50):
        gen, ref = stream(s, 3, 0), stream(s, 3, 0)
        expected = reference_init_params(spec, ref)
        assert nn.init_params(spec, gen).flat.tobytes() == expected.tobytes()
        assert gen.bit_generator.state == ref.bit_generator.state  # as many draws


def test_family_spec_assignment_rule():
    specs = [nn.family_spec(i, 32, 16, 10) for i in range(7)]
    assert specs[0].hidden_widths == specs[5].hidden_widths
    assert specs[1].hidden_widths == specs[6].hidden_widths
    assert len({s.hidden_widths for s in specs[:5]}) == 5
    assert all(s.feature_dim == 16 and s.class_count == 10 for s in specs)


def _guide_config(mode, spec, rng):
    """Loss configs of the engine's methods: ce, feature/logit guidance, and
    prototype-style guidance with invalid rows masked out."""
    if mode == "ce":
        return LossConfig(use_ce=True)
    space = "logit" if mode == "logit" else "feature"
    m = spec.class_count if space == "logit" else spec.feature_dim
    valid = np.arange(spec.class_count) % 3 != 0 if mode == "masked" else None
    return LossConfig(
        use_ce=True,
        guide_vectors=rng.standard_normal((spec.class_count, m)),
        guide_space=space,
        guide_valid=valid,
    )


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("mode", ["ce", "feature", "logit", "masked"])
@pytest.mark.parametrize("variant", range(len(nn.DEFAULT_HIDDEN_FAMILY)))
def test_stacked_kernels_equal_unstacked_bitwise(variant, mode, k):
    spec = nn.family_spec(variant, 32, 32, 10)
    rng = stream(variant, 11, k)
    cfg = _guide_config(mode, spec, rng)
    space = "logit" if mode in ("ce", "logit") else "feature"
    clients = [nn.init_params(spec, stream(variant, 3, j)) for j in range(k)]
    batches = [MiniBatch(rng.standard_normal((10, 32)), rng.integers(0, 10, 10)) for _ in range(k)]
    directions = rng.standard_normal((k, nn.param_count(spec)))
    stacked = stack_params(clients)
    batch = nn.stack_batches(batches)
    grads = nn.grad_params(spec, stacked, batch, cfg)
    jvps = nn.jvp_guided_batch(spec, stacked, batch.inputs, directions, space)
    assert grads.shape == (k, nn.param_count(spec))
    for j in range(k):
        assert grads[j].tobytes() == nn.grad_params(spec, clients[j], batches[j], cfg).tobytes()
        alone = nn.jvp_guided_batch(spec, clients[j], batches[j].inputs, directions[j], space)
        assert jvps[j].tobytes() == alone.tobytes()


def test_stacked_kernels_reject_mismatched_stacks():
    spec = nn.family_spec(0, 4, 3, 2)
    stacked = stack_params([nn.init_params(spec, stream(0, 3, j)) for j in range(2)])
    three = MiniBatch(np.zeros((3, 5, 4)), np.zeros((3, 5), dtype=int))
    with pytest.raises(ContractViolation, match=r"expected \(2, n, 4\)"):
        nn.grad_params(spec, stacked, three, LossConfig())
    with pytest.raises(ContractViolation, match=r"expected \(2, n, 4\)"):
        nn.jvp_guided_batch(spec, stacked, np.zeros((5, 4)), np.zeros_like(stacked.flat), "logit")


def _epoch_one_client_at_a_time(spec, params, inputs, labels, cfg, eta_c, batch_size, rng):
    """Reference loop: one client's epoch, one unstacked SGD step at a time."""
    steps = inputs.shape[0] // batch_size
    if steps == 0:
        return params
    perm = rng.permutation(inputs.shape[0])
    for s in range(steps):
        idx = perm[s * batch_size : (s + 1) * batch_size]
        g = nn.grad_params(spec, params, MiniBatch(inputs[idx], labels[idx]), cfg)
        params = nn.sgd_step(params, g, eta_c)
    return params


@pytest.mark.parametrize("mode", ["ce", "masked"])
def test_lockstep_epoch_equals_each_client_alone(mode):
    spec = nn.family_spec(3, 8, 6, 4)
    rng = stream(5, 12)
    cfg = _guide_config(mode, spec, rng)
    sizes = [70, 35, 13, 5]  # 7, 3, 1 and 0 steps of 10: most steps first
    params = [nn.init_params(spec, stream(5, 3, j)) for j in range(len(sizes))]
    inputs = [rng.standard_normal((n, 8)) for n in sizes]
    labels = [rng.integers(0, 4, n) for n in sizes]
    rngs = [stream(5, 6, j) for j in range(len(sizes))]

    stacked = stack_params(params)
    assert nn.run_sgd_epoch(spec, stacked, inputs, labels, cfg, 0.05, 10, rngs) is stacked
    assert stacked.flat[-1].tobytes() == params[-1].flat.tobytes()  # no step: row untouched
    for j in range(len(sizes)):
        expected = _epoch_one_client_at_a_time(
            spec, params[j], inputs[j], labels[j], cfg, 0.05, 10, stream(5, 6, j)
        )
        assert stacked.flat[j].tobytes() == expected.flat.tobytes(), j
        alone = nn.run_sgd_epoch(
            spec, stack_params([params[j]]), [inputs[j]], [labels[j]], cfg, 0.05, 10,
            [stream(5, 6, j)],
        )
        assert alone.flat[0].tobytes() == stacked.flat[j].tobytes(), j
    assert all(not np.array_equal(stacked.flat[j], p.flat) for j, p in enumerate(params[:-1]))


def test_epoch_rejects_clients_out_of_step_order():
    spec = nn.family_spec(3, 8, 6, 4)
    rng = stream(5, 12)
    sizes = [35, 70, 13]  # 3 steps, then 7: out of order
    params = [nn.init_params(spec, stream(5, 3, j)) for j in range(len(sizes))]
    inputs = [rng.standard_normal((n, 8)) for n in sizes]
    labels = [rng.integers(0, 4, n) for n in sizes]
    rngs = [stream(5, 6, j) for j in range(len(sizes))]
    with pytest.raises(ContractViolation, match="client 1 takes 7 steps after client 0's 3"):
        nn.run_sgd_epoch(spec, stack_params(params), inputs, labels, LossConfig(), 0.05, 10, rngs)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("mode", ["ce", "feature", "logit", "masked"])
@pytest.mark.parametrize("variant", range(len(nn.DEFAULT_HIDDEN_FAMILY)))
def test_grad_params_into_out_buffer_is_the_allocating_call(variant, mode, k):
    spec = nn.family_spec(variant, 32, 32, 10)
    rng = stream(variant, 13, k)
    cfg = _guide_config(mode, spec, rng)
    params = [nn.init_params(spec, stream(variant, 3, j)) for j in range(k)]
    batches = [MiniBatch(rng.standard_normal((10, 32)), rng.integers(0, 10, 10)) for _ in range(k)]
    for p, b in [(params[0], batches[0]), (stack_params(params), nn.stack_batches(batches))]:
        expected = nn.grad_params(spec, p, b, cfg)
        # stale contents must not leak through
        buf = ModelParams(np.full_like(p.flat, np.nan))
        got = nn.grad_params(spec, p, b, cfg, out=buf)
        assert got is buf.flat
        assert got.tobytes() == expected.tobytes()
        # a second call through the same buffer reuses its bound views
        views = buf.blocks(spec)
        assert nn.grad_params(spec, p, b, cfg, out=buf).tobytes() == expected.tobytes()
        assert buf.blocks(spec) is views


def test_grad_params_rejects_a_misshapen_out_buffer():
    spec, params, batch, _ = random_instance(4)
    with pytest.raises(ContractViolation, match="out is"):
        nn.grad_params(spec, params, batch, LossConfig(), out=ModelParams(np.zeros(3)))
    with pytest.raises(ContractViolation, match="out is"):
        nn.grad_params(
            spec,
            params,
            batch,
            LossConfig(),
            out=ModelParams(np.zeros_like(params.flat, dtype=np.float32)),
        )


def test_epoch_results_share_no_memory(monkeypatch):
    spec = nn.family_spec(1, 8, 6, 4)
    rng = stream(6, 12)
    sizes = [70, 50, 35, 12]  # most steps first
    params = [nn.init_params(spec, stream(6, 3, j)) for j in range(len(sizes))]
    inputs = [rng.standard_normal((n, 8)) for n in sizes]
    labels = [rng.integers(0, 4, n) for n in sizes]
    buffers = []
    original = nn.grad_params

    def recording(spec, params, batch, cfg, out=None):
        buffers.append((params.flat, out.flat))
        return original(spec, params, batch, cfg, out=out)

    monkeypatch.setattr(nn, "grad_params", recording)
    stacked = stack_params(params)
    grad = ModelParams(np.empty_like(stacked.flat))
    rngs = [stream(6, 6, j) for j in range(len(sizes))]
    nn.run_sgd_epoch(spec, stacked, inputs, labels, LossConfig(), 0.05, 10, rngs, grad=grad)
    assert len(buffers) == 7  # one call per step, through the module name
    # every step's parameters are a prefix of the stack, and its gradient a
    # prefix of the given buffer, which shares no memory with the stack
    for theta, g in buffers:
        assert np.shares_memory(theta, stacked.flat) and np.shares_memory(g, grad.flat)
        assert not np.shares_memory(theta, g)
    # without a buffer the epoch allocates its own, apart from the stack
    buffers.clear()
    nn.run_sgd_epoch(spec, stacked, inputs, labels, LossConfig(), 0.05, 10, rngs)
    assert all(not np.shares_memory(g, stacked.flat) for _, g in buffers)


def test_epoch_in_step_order_returns_the_stack_it_stepped(monkeypatch):
    spec = nn.family_spec(1, 8, 6, 4)
    rng = stream(6, 12)
    sizes = [70, 50, 35, 12]  # most steps first, as a round's group orders them
    params = [nn.init_params(spec, stream(6, 3, j)) for j in range(len(sizes))]
    inputs = [rng.standard_normal((n, 8)) for n in sizes]
    labels = [rng.integers(0, 4, n) for n in sizes]
    stepped = []
    original = nn.grad_params

    def recording(spec, params, batch, cfg, out=None):
        stepped.append(params.flat)
        return original(spec, params, batch, cfg, out=out)

    monkeypatch.setattr(nn, "grad_params", recording)
    rngs = [stream(6, 6, j) for j in range(len(sizes))]
    stacked = stack_params(params)
    out = nn.run_sgd_epoch(spec, stacked, inputs, labels, LossConfig(), 0.05, 10, rngs)
    assert out is stacked and stepped[0] is stacked.flat  # stepped in place, no copy
    assert all(np.shares_memory(theta, stacked.flat) for theta in stepped)


def test_cached_views_follow_in_place_updates():
    spec = nn.family_spec(2, 8, 6, 4)
    params = nn.init_params(spec, stream(8, 3, 0))
    x = stream(8, 0).standard_normal((5, 8))
    nn.forward_batch(spec, params, x)  # binds the views
    blocks = params.blocks(spec)
    assert params.blocks(spec) is blocks  # bound once per object
    for w, wt, b, b_row in blocks:
        for view in (w, wt, b, b_row):
            assert np.shares_memory(view, params.flat)
    params.flat[:] *= 0.5
    fresh = ModelParams(params.flat.copy())
    for got, expected in zip(params.blocks(spec), fresh.blocks(spec)):
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
    assert all(
        np.array_equal(a, b)
        for a, b in zip(nn.forward_batch(spec, params, x), nn.forward_batch(spec, fresh, x))
    )
    # an equal spec built apart reuses the views; a copy binds its own
    assert params.blocks(nn.family_spec(2, 8, 6, 4)) is blocks
    copy = ModelParams(params.flat.copy())
    assert not np.shares_memory(copy.blocks(spec)[0][0], params.flat)


def _jvp_reference(spec, params, inputs, direction, space):
    """Reference JVP: values and tangents side by side from an all-zero input
    tangent, each activation and its derivative computed from the
    pre-activation, with no in-place operation."""
    relu = spec.activation == "relu"
    blocks = nn._affines(spec, params.flat)
    d_blocks = nn._affines(spec, direction)
    z = inputs
    dz = np.zeros_like(inputs)
    for (w, b), (dw, db) in zip(blocks[: spec.depth], d_blocks[: spec.depth]):
        wt, dwt = w.swapaxes(-1, -2), dw.swapaxes(-1, -2)
        a = z @ wt + b[..., None, :]
        da = dz @ wt + z @ dwt + db[..., None, :]
        if relu:
            dz = (a > 0.0) * da
            z = np.maximum(a, 0.0)
        else:
            t = np.tanh(a)
            dz = (1.0 - t * t) * da
            z = np.tanh(a)
    (w_f, b_f), (dw_f, db_f) = blocks[spec.depth], d_blocks[spec.depth]
    features = z @ w_f.swapaxes(-1, -2) + b_f[..., None, :]
    d_features = dz @ w_f.swapaxes(-1, -2) + z @ dw_f.swapaxes(-1, -2) + db_f[..., None, :]
    if space == "feature":
        return d_features
    (w_h, _), (dw_h, db_h) = blocks[spec.depth + 1], d_blocks[spec.depth + 1]
    return d_features @ w_h.swapaxes(-1, -2) + features @ dw_h.swapaxes(-1, -2) + db_h[..., None, :]


@pytest.mark.parametrize("direction", ["random", "gradient"])
@pytest.mark.parametrize("k", [None, 3])
@pytest.mark.parametrize("space", ["logit", "feature"])
@pytest.mark.parametrize("activation", nn.ACTIVATIONS)
@pytest.mark.parametrize("variant", range(len(nn.DEFAULT_HIDDEN_FAMILY)))
def test_jvp_equals_the_reference_bitwise(variant, activation, space, k, direction):
    spec = nn.family_spec(variant, 32, 32, 10, activation)
    rng = stream(variant, 14, k or 1)
    count = k or 1
    clients = [nn.init_params(spec, stream(variant, 3, j)) for j in range(count)]
    inputs = rng.standard_normal((count, 10, 32))
    params = stack_params(clients)
    if direction == "random":
        directions = rng.standard_normal(params.flat.shape)
    else:  # the engine's direction: a quiz gradient, with exact zeros where relu units are dead
        quiz = MiniBatch(rng.standard_normal((count, 5, 32)), rng.integers(0, 10, (count, 5)))
        directions = nn.grad_params(spec, params, quiz, LossConfig())
    if k is None:
        params, inputs, directions = clients[0], inputs[0], directions[0]
    got = nn.jvp_guided_batch(spec, params, inputs, directions, space)
    assert got.tobytes() == _jvp_reference(spec, params, inputs, directions, space).tobytes()


def _epoch_through_checked_calls(spec, params, inputs, labels, cfg, eta_c, batch_size, rngs):
    """Reference lockstep epoch: at every step, the clients still stepping
    take one allocating grad_params call on a freshly built, fully checked
    stacked MiniBatch."""
    steps = [x.shape[0] // batch_size for x in inputs]
    flat = stack_params(params).flat
    perms = [rng.permutation(x.shape[0]) for rng, x, n in zip(rngs, inputs, steps) if n]
    for s in range(steps[0]):
        active = sum(n > s for n in steps)
        idx = [perm[s * batch_size : (s + 1) * batch_size] for perm in perms[:active]]
        batch = MiniBatch(
            np.stack([inputs[j][i] for j, i in enumerate(idx)]),
            np.stack([labels[j][i] for j, i in enumerate(idx)]),
        )
        g = nn.grad_params(spec, ModelParams(flat[:active].copy()), batch, cfg)
        flat[:active] -= eta_c * g
    return flat


@pytest.mark.parametrize("activation", nn.ACTIVATIONS)
@pytest.mark.parametrize("mode", ["ce", "feature", "logit", "masked"])
def test_prepared_epoch_equals_freshly_checked_calls_bitwise(mode, activation):
    spec = nn.family_spec(4, 8, 6, 5, activation)
    rng = stream(9, 12)
    cfg = _guide_config(mode, spec, rng)
    sizes = [70, 45, 35, 13, 5]  # 7, 4, 3, 1 and 0 steps of 10: the prefix shrinks
    params = [nn.init_params(spec, stream(9, 3, j)) for j in range(len(sizes))]
    inputs = [rng.standard_normal((n, 8)) for n in sizes]
    labels = [rng.integers(0, 5, n) for n in sizes]
    stacked = nn.run_sgd_epoch(
        spec,
        stack_params(params),
        inputs,
        labels,
        cfg,
        0.05,
        10,
        [stream(9, 6, j) for j in range(5)],
    )
    expected = _epoch_through_checked_calls(
        spec, params, inputs, labels, cfg, 0.05, 10, [stream(9, 6, j) for j in range(5)]
    )
    assert stacked.flat.tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("mode", ["ce", "feature", "logit", "masked"])
@pytest.mark.parametrize("activation", nn.ACTIVATIONS)
def test_epoch_is_blind_to_the_sign_of_gradient_zeros(activation, mode, k, monkeypatch):
    # grad_params leaves a zero's sign as the arithmetic gives it. An epoch
    # stepped through its gradients equals one stepped through the same
    # gradients with every zero made +0.0 (grad + 0.0), and one with every
    # zero made -0.0, because no parameter is ever -0.0.
    spec = nn.family_spec(4, 8, 6, 5, activation)
    rng = stream(16, k)
    cfg = _guide_config(mode, spec, rng)
    sizes = [70, 45, 35, 13][:k]
    params = stack_params([nn.init_params(spec, stream(16, 3, j)) for j in range(k)])
    inputs = [rng.standard_normal((n, 8)) for n in sizes]
    labels = [rng.integers(0, 5, n) for n in sizes]
    original = nn.grad_params
    zeros = []

    def epoch(sign):
        def signed_zeros(*args, **kwargs):
            grad = original(*args, **kwargs)
            zeros.append(int(np.count_nonzero(grad == 0.0)))
            grad[grad == 0.0] = sign * 0.0
            return grad

        monkeypatch.setattr(nn, "grad_params", original if sign is None else signed_zeros)
        rngs = [stream(16, 6, j) for j in range(k)]
        stack = ModelParams(params.flat.copy())
        return nn.run_sgd_epoch(spec, stack, inputs, labels, cfg, 0.05, 10, rngs).flat.tobytes()

    as_given = epoch(None)
    assert epoch(1.0) == as_given
    assert epoch(-1.0) == as_given
    if activation == "relu":  # units dead on a whole batch: exact zeros
        assert sum(zeros) > 0


def test_epoch_rejects_bad_labels_and_inputs_before_its_first_step(monkeypatch):
    spec = nn.family_spec(0, 8, 6, 4)
    rng = stream(10, 12)
    params = stack_params([nn.init_params(spec, stream(10, 3, j)) for j in range(2)])
    inputs = [rng.standard_normal((40, 8)), rng.standard_normal((20, 8))]
    labels = [rng.integers(0, 4, 40), rng.integers(0, 4, 20)]
    calls = []
    original = nn.grad_params

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(nn, "grad_params", recording)
    rngs = [stream(10, 6, j) for j in range(2)]
    bad_labels = [labels[0], np.where(np.arange(20) == 19, 4, labels[1])]
    with pytest.raises(ContractViolation, match=r"labels out of range \[0, 4\)"):
        nn.run_sgd_epoch(spec, params, inputs, bad_labels, LossConfig(), 0.05, 10, rngs)
    bad_inputs = [inputs[0], rng.standard_normal((20, 7))]
    with pytest.raises(ContractViolation, match=r"client 1's inputs have shape \(20, 7\)"):
        nn.run_sgd_epoch(spec, params, bad_inputs, labels, LossConfig(), 0.05, 10, rngs)
    assert calls == []
    nn.run_sgd_epoch(spec, params, inputs, labels, LossConfig(), 0.05, 10, rngs)
    assert len(calls) == 4


@pytest.mark.parametrize("activation", nn.ACTIVATIONS)
@pytest.mark.parametrize("space", nn.SPACES)
def test_jvp_given_the_gradient_forward_equals_its_own_forward(space, activation):
    spec = nn.family_spec(4, 32, 32, 10, activation)
    rng = stream(15, 1)
    params = stack_params([nn.init_params(spec, stream(15, 3, j)) for j in range(3)])
    batch = MiniBatch(rng.standard_normal((3, 10, 32)), rng.integers(0, 10, (3, 10)))
    cfg = _guide_config(space, spec, rng)
    layers = []
    g = nn.grad_params(spec, params, batch, cfg, layers_out=layers)
    assert g.tobytes() == nn.grad_params(spec, params, batch, cfg).tobytes()
    assert len(layers) == spec.depth + 2 and layers[0] is batch.inputs  # no logits
    direction = rng.standard_normal(params.flat.shape)
    own = nn.jvp_guided_batch(spec, params, batch.inputs, direction, space)
    given = nn.jvp_guided_batch(spec, params, batch.inputs, direction, space, layers=layers)
    assert given.tobytes() == own.tobytes()
    with pytest.raises(ContractViolation, match="other inputs"):
        nn.jvp_guided_batch(spec, params, batch.inputs.copy(), direction, space, layers=layers)
