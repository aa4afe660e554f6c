"""Property tests for the invariant every stacked-kernel speed-up rests on:
a slice of a stacked call equals the unstacked call on that client, bit for
bit, at any shape, and an epoch stepped in place on rows of a larger array
equals each client stepped alone. Examples are drawn deterministically
(``derandomize=True``) and their number is fixed, so the suite stays
repeatable and bounded."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedguide import nn
from fedguide.nn import LossConfig, MiniBatch, ModelParams, ModelSpec
from fedguide.rng import stream

from helpers import stack_params

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
