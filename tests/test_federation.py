"""Orchestration tests: participation sampling, warm-up freezing, schedule
independence, checkpoint round-trips, cached evaluation, and error
propagation."""

import dataclasses
import re
import struct

import numpy as np
import pytest

from fedguide import federation, metrics, nn, rng
from fedguide.cli import format_metrics_csv
from fedguide.errors import CheckpointError, ConfigError, ContractViolation
from fedguide.federation import (
    RoundPlans,
    build_clients,
    build_server,
    config_digest,
    load_checkpoint,
    run_round,
    save_checkpoint,
    run_training,
    sample_participants,
    task_digest,
)

from helpers import SMALL_TASK, checkpoint_regions, small_config


def metrics_tuple(m):
    return (
        m.round_index,
        m.accuracy,
        m.mean_ce,
        m.loss_increase,
        m.upload_bytes,
        m.download_bytes,
        m.grad_norm_sq,
        m.n_participants,
        m.upload_rows,
    )


def _plans(cfg):
    """One RoundPlans over freshly built clients, for stepping rounds."""
    return RoundPlans(build_clients(cfg), cfg)


def test_sample_participants_full_and_partial():
    cfg = small_config(n_clients=20)
    assert sample_participants(cfg, 1) == list(range(20))
    half = sample_participants(dataclasses.replace(cfg, rho=0.5), 1)
    assert len(half) == 10 == len(set(half))
    assert sample_participants(dataclasses.replace(cfg, rho=0.5), 1) == half  # same round


def test_sample_participants_changes_by_round():
    cfg = small_config(n_clients=20, rho=0.3)
    draws = {tuple(sample_participants(cfg, r)) for r in (1, 2)}
    assert len(draws) == 2


def test_local_only_round_no_uploads_no_server_payload():
    cfg = small_config("local-only", warmup=0)
    server2, m = run_round(build_server(cfg), _plans(cfg))
    assert server2.payload is None
    assert m.upload_bytes == 0 and m.download_bytes == 0 and m.upload_rows == 0
    assert server2.t == 1


@pytest.mark.parametrize("method", federation.METHODS)
def test_warmup_rounds_leave_params_bit_identical(method):
    # Only the guided methods hold their parameters through warm-up; the
    # others step them from round 1.
    cfg = small_config(method, warmup=2)
    frozen = method in ("fedl2g-l", "fedl2g-f")
    plans = _plans(cfg)
    clients = plans.clients
    server = build_server(cfg)
    for expected_round in (1, 2, 3):
        before = [c.params.flat.copy() for c in clients]
        payload_before = None if server.payload is None else server.payload.vectors.copy()
        server, _ = run_round(server, plans)
        assert server.t == expected_round
        unchanged = [np.array_equal(c.params.flat, b) for c, b in zip(clients, before)]
        if frozen and expected_round <= cfg.warmup:
            assert all(unchanged)
            assert not np.array_equal(server.payload.vectors, payload_before)  # vectors still learn
        else:
            assert not all(unchanged)


def test_no_warmup_trains_from_round_one():
    cfg = small_config(warmup=0)
    plans = _plans(cfg)
    before = [c.params.flat.copy() for c in plans.clients]
    run_round(build_server(cfg), plans)
    assert any(not np.array_equal(c.params.flat, b) for c, b in zip(plans.clients, before))


def test_non_participants_untouched():
    cfg = small_config(rho=0.5, warmup=0)
    plans = _plans(cfg)
    clients = plans.clients
    participants = sample_participants(cfg, 1)
    before = [c.params.flat.copy() for c in clients]
    run_round(build_server(cfg), plans)
    for i, (c, b) in enumerate(zip(clients, before)):
        if i not in participants:
            assert np.array_equal(c.params.flat, b)


@pytest.mark.parametrize("method", ["fedl2g-l", "fedl2g-f", "fedproto", "feddistill", "local-only"])
def test_worker_count_does_not_change_results(method):
    cfg1 = small_config(method, rounds=4, workers=1)
    cfg4 = small_config(method, rounds=4, workers=4)
    r1 = run_training(cfg1)
    r4 = run_training(cfg4)
    for m1, m4 in zip(r1.history, r4.history):
        assert metrics_tuple(m1) == metrics_tuple(m4)
    for c1, c4 in zip(r1.clients, r4.clients):
        assert np.array_equal(c1.params.flat, c4.params.flat)


def test_run_training_single_round_local_only():
    cfg = small_config("local-only", rounds=1, warmup=0)
    result = run_training(cfg)
    assert len(result.history) == 1
    assert 0.0 <= result.history[0].accuracy <= 1.0


def test_run_training_accuracy_history_in_range():
    result = run_training(small_config(rounds=6))
    assert len(result.history) == 6
    for m in result.history:
        assert 0.0 <= m.accuracy <= 1.0
        assert np.isfinite(m.mean_ce)
        assert m.loss_increase >= 0.0


def test_guide_version_tracks_round():
    cfg = small_config(rounds=5)
    result = run_training(cfg)
    assert result.server.payload.version == 5
    assert result.server.t == 5


@pytest.mark.parametrize("method", ["fedl2g-f", "fedproto", "local-only"])
def test_checkpoint_resume_reproduces_remaining_rounds(tmp_path, method):
    cfg = small_config(method, rounds=8)
    ckpt = str(tmp_path / f"{method}.ckpt")
    full = run_training(cfg, checkpoint_at=4, checkpoint_path=ckpt)
    resumed = run_training(cfg, resume_from=ckpt)
    assert len(resumed.history) == 4
    for m_full, m_res in zip(full.history[4:], resumed.history):
        assert metrics_tuple(m_full) == metrics_tuple(m_res)
    for c_full, c_res in zip(full.clients, resumed.clients):
        assert np.array_equal(c_full.params.flat, c_res.params.flat)
    if method != "local-only":
        assert np.array_equal(full.server.payload.vectors, resumed.server.payload.vectors)


def _no_set_up(*args, **kwargs):
    raise AssertionError("the run was set up")


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(checkpoint_at=4), "checkpoint_path: required when checkpoint_at is set"),
        (dict(checkpoint_at=0, checkpoint_path="x"), "checkpoint_at: must satisfy 0 < "),
        (dict(checkpoint_at=9, checkpoint_path="x"), "checkpoint_at: must satisfy 0 < "),
        (
            dict(checkpoint_at=4, checkpoint_path="no-such-directory/x.bin"),
            "checkpoint_path: directory no-such-directory does not exist",
        ),
    ],
)
def test_checkpoint_arguments_are_checked_before_set_up(monkeypatch, kwargs, message):
    monkeypatch.setattr(federation, "build_clients", _no_set_up)
    with pytest.raises(ConfigError, match="^" + message):
        run_training(small_config(rounds=8), **kwargs)


@pytest.mark.parametrize("at", [2, 4])
def test_checkpoint_at_or_before_the_resumed_round_is_an_error(tmp_path, monkeypatch, at):
    cfg = small_config(rounds=8)
    path, _ = _checkpoint_bytes(tmp_path, cfg, at=4)
    monkeypatch.setattr(federation, "run_round", _no_set_up)
    later = tmp_path / "later.ckpt"
    message = f"^checkpoint_at: must satisfy 4 < checkpoint_at <= 8, got {at}$"
    with pytest.raises(ConfigError, match=message):
        run_training(cfg, resume_from=str(path), checkpoint_at=at, checkpoint_path=str(later))
    assert not later.exists()


def test_checkpoint_rejects_wrong_config(tmp_path):
    cfg = small_config(rounds=8)
    ckpt = str(tmp_path / "a.ckpt")
    run_training(cfg, checkpoint_at=4, checkpoint_path=ckpt)
    other = small_config(rounds=8, eta_c=0.02)
    with pytest.raises(CheckpointError, match="written by a different configuration"):
        run_training(other, resume_from=ckpt)


class _FailingFlat:
    """A parameter vector whose serialization fails, as a full disk would."""

    shape = (3,)

    def astype(self, dtype):
        raise OSError("no space left on device")


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path):
    cfg = small_config(rounds=4)
    path, blob = _checkpoint_bytes(tmp_path, cfg)
    result = run_training(cfg)
    broken = dataclasses.replace(result.clients[-1])
    broken.params = nn.ModelParams(_FailingFlat())
    # the header and all but the last client are written before the failure
    with pytest.raises(OSError, match="no space left"):
        save_checkpoint(str(path), cfg, result.server, [*result.clients[:-1], broken])
    assert path.read_bytes() == bytes(blob)
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    load_checkpoint(str(path), cfg, build_clients(cfg))


def _checkpoint_bytes(tmp_path, cfg, at=2):
    path = tmp_path / "run.ckpt"
    run_training(cfg, checkpoint_at=at, checkpoint_path=str(path))
    return path, bytearray(path.read_bytes())


# magic | u32 version, u64 seed, u64 t, f64 min_ce | u16 len, digest
_DIGEST_AT = 4 + 28 + 2


def test_checkpoint_rejects_a_forged_digest_length_before_reading_the_digest(tmp_path):
    cfg = small_config(rounds=4)
    path, blob = _checkpoint_bytes(tmp_path, cfg)
    assert struct.unpack_from("<H", blob, _DIGEST_AT - 2)[0] == len(config_digest(cfg)) == 16
    struct.pack_into("<H", blob, _DIGEST_AT - 2, 65535)
    path.write_bytes(bytes(blob))
    message = f"^{re.escape(str(path))}: header digest_len is 65535, expected 16$"
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(str(path), cfg, build_clients(cfg))


def test_checkpoint_rejects_a_digest_that_is_not_text(tmp_path):
    cfg = small_config(rounds=4)
    path, blob = _checkpoint_bytes(tmp_path, cfg)
    blob[_DIGEST_AT] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="written by a different configuration"):
        load_checkpoint(str(path), cfg, build_clients(cfg))


@pytest.mark.parametrize(
    "cut, section",
    [
        (3, "header"),
        (_DIGEST_AT + 5, "config digest"),
        (_DIGEST_AT + 16, "payload"),
        (-1, "parameters of client 5"),
    ],
)
def test_truncated_checkpoint_error_names_the_path_and_the_section(tmp_path, cut, section):
    cfg = small_config(rounds=4)
    path, blob = _checkpoint_bytes(tmp_path, cfg)
    path.write_bytes(bytes(blob[:cut]))
    message = f"^{re.escape(str(path))}: checkpoint truncated in the {section}"
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(str(path), cfg, build_clients(cfg))


@pytest.mark.parametrize("extra", [b"x", b"xy", b"xyz"])
def test_checkpoint_rejects_bytes_after_the_last_client(tmp_path, extra):
    cfg = small_config("fedproto", rounds=4)
    path, blob = _checkpoint_bytes(tmp_path, cfg)
    path.write_bytes(bytes(blob) + extra)
    clients = build_clients(cfg)
    before = [c.params.flat.copy() for c in clients]
    message = f"^{re.escape(str(path))}: trailing bytes after the last client$"
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(str(path), cfg, clients)
    assert all(np.array_equal(c.params.flat, b) for c, b in zip(clients, before))


def test_checkpoint_rejects_forged_class_count_before_reading_payload(tmp_path):
    cfg = small_config(rounds=4)
    path, blob = _checkpoint_bytes(tmp_path, cfg)
    # magic | u32 version, u64 seed, u64 t, f64 min_ce | u16 len, digest | u8 kind | u64 version
    c_offset = 4 + 28 + 2 + len(config_digest(cfg)) + 1 + 8
    assert struct.unpack_from("<Q", blob, c_offset)[0] == cfg.task.class_count
    struct.pack_into("<Q", blob, c_offset, 2**60)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=f"header C is {2**60}, expected 6"):
        load_checkpoint(str(path), cfg, build_clients(cfg))


@pytest.mark.parametrize("method, kind", [("fedproto", 1), ("local-only", 2), ("fedl2g-f", 0)])
def test_checkpoint_rejects_a_payload_kind_the_method_does_not_hold(tmp_path, method, kind):
    cfg = small_config(method, rounds=4)
    path, blob = _checkpoint_bytes(tmp_path, cfg)
    kind_offset = 4 + 28 + 2 + len(config_digest(cfg))
    # cut after the kind byte: reading any payload data would report truncation
    path.write_bytes(bytes(blob[:kind_offset]) + bytes([kind]))
    match = f"payload kind {kind} does not match method {method}"
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(str(path), cfg, build_clients(cfg))


@pytest.mark.parametrize(
    "method, payload_method",
    [("fedproto", "fedl2g-f"), ("local-only", "fedl2g-l"), ("fedl2g-f", "local-only")],
)
def test_save_checkpoint_rejects_a_payload_the_method_does_not_hold(
    tmp_path, method, payload_method
):
    cfg = small_config(method, rounds=4)
    server = build_server(small_config(payload_method, rounds=4))
    with pytest.raises(ContractViolation, match=f"{method} checkpoints hold payload kind"):
        save_checkpoint(str(tmp_path / "run.ckpt"), cfg, server, build_clients(cfg))
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_rejects_wrong_param_count_and_leaves_clients_untouched(tmp_path):
    cfg = small_config(rounds=4)
    path, blob = _checkpoint_bytes(tmp_path, cfg)
    clients = build_clients(cfg)
    last = clients[-1]
    offset = len(blob) - 8 * nn.param_count(last.spec) - 8
    assert struct.unpack_from("<Q", blob, offset)[0] == nn.param_count(last.spec)
    struct.pack_into("<Q", blob, offset, nn.param_count(last.spec) + 1)
    path.write_bytes(bytes(blob))
    before = [c.params.flat.copy() for c in clients]
    with pytest.raises(CheckpointError, match=f"param_count of client {last.index}"):
        load_checkpoint(str(path), cfg, clients)
    # by value: the file is checked in full before any row is written
    assert all(np.array_equal(c.params.flat, b) for c, b in zip(clients, before))


@pytest.mark.parametrize(
    "method, region, index, value, message",
    [
        ("fedproto", "params", -1, np.nan, "non-finite value in the parameters of client 5"),
        ("fedl2g-l", "params", 0, -np.inf, "non-finite value in the parameters of client 0"),
        ("fedproto", "payload", 0, np.nan, "non-finite value in the payload vectors"),
        ("fedl2g-f", "payload", -1, np.nan, "non-finite value in the payload vectors"),
        ("fedproto", "counts", 2, 2**64 - 5, "a prototype count is above 2**63 - 1"),
        ("fedproto", "min_ce", 0, np.nan, "min_ce is nan, expected a number or inf"),
        ("fedl2g-f", "min_ce", 0, -np.inf, "min_ce is -inf, expected a number or inf"),
        ("local-only", "evaluation", 0, np.nan, "non-finite value in the evaluation"),
        ("fedproto", "evaluation", 1, np.inf, "non-finite value in the evaluation"),
        ("feddistill", "evaluation", -1, np.nan, "non-finite value in the evaluation"),
    ],
)
def test_checkpoint_rejects_a_non_finite_value_or_huge_count_and_leaves_clients_untouched(
    tmp_path, method, region, index, value, message
):
    # the evaluation's values are its accuracy, mean ce, per-client accuracies
    cfg = small_config(method, rounds=4)
    path, blob = _checkpoint_bytes(tmp_path, cfg)
    clients = build_clients(cfg)
    offset = checkpoint_regions(cfg, clients, blob)[region][index]
    struct.pack_into("<Q" if region == "counts" else "<d", blob, offset, value)
    path.write_bytes(bytes(blob))
    before = [c.params.flat.copy() for c in clients]
    with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_checkpoint(str(path), cfg, clients)
    assert all(np.array_equal(c.params.flat, b) for c, b in zip(clients, before))


def test_checkpoint_rejects_a_bad_evaluation_flag(tmp_path):
    cfg = small_config(rounds=4)
    path, blob = _checkpoint_bytes(tmp_path, cfg)
    clients = build_clients(cfg)
    params_bytes = sum(8 + 8 * nn.param_count(c.spec) for c in clients)
    offset = len(blob) - params_bytes - 8 * cfg.n_clients - 17
    assert blob[offset] == 1  # round 2 was evaluated
    blob[offset] = 2
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="bad evaluation flag 2"):
        load_checkpoint(str(path), cfg, clients)


def _train_checking_evaluation(cfg, clients, server):
    """Run rounds to the horizon as run_training does; after every round the
    reported evaluation must equal, bit for bit, an evaluation from scratch of
    the clients as they stood at the last evaluated round."""
    plans = RoundPlans(clients, cfg)
    fresh = None
    while server.t < cfg.rounds:
        server, m = run_round(server, plans)
        if fresh is None or m.round_index % cfg.eval_every == 0 or m.round_index == cfg.rounds:
            fresh = metrics.evaluate([(c.spec, c.params, c.data) for c in clients])
        assert m.accuracy == fresh[0], m.round_index
        assert m.per_client_accuracy.tobytes() == fresh[1].tobytes(), m.round_index
        assert m.mean_ce == fresh[2], m.round_index
    return server


@pytest.mark.parametrize(
    "method,overrides",
    [
        ("fedl2g-f", dict(rho=0.5, warmup=3)),
        ("fedl2g-l", dict(rho=0.5, eval_every=3)),
        ("fedproto", dict(rho=0.4, eval_every=2)),
        ("local-only", dict(rho=0.5)),
    ],
)
def test_cached_evaluation_equals_fresh_evaluation(method, overrides):
    cfg = small_config(method, **overrides)
    _train_checking_evaluation(cfg, build_clients(cfg), build_server(cfg))


def test_cached_evaluation_equals_fresh_evaluation_after_resume(tmp_path):
    cfg = small_config(rho=0.5, warmup=3)
    path, _ = _checkpoint_bytes(tmp_path, cfg, at=2)
    clients = build_clients(cfg)
    server = load_checkpoint(str(path), cfg, clients)
    assert server.t == 2
    _train_checking_evaluation(cfg, clients, server)


def test_evaluation_scores_only_clients_whose_params_changed(monkeypatch):
    scored = []

    def counting_forward(spec, params, inputs):
        scored.append(params.flat.copy())
        return nn.forward_batch(spec, params, inputs)

    monkeypatch.setattr(metrics, "forward_batch", counting_forward)
    cfg = small_config(rho=0.5, warmup=2, rounds=6)
    plans = _plans(cfg)
    clients = plans.clients
    server = build_server(cfg)
    last_scored = [None] * cfg.n_clients
    counts = []
    while server.t < cfg.rounds:
        scored.clear()
        server, _ = run_round(server, plans)
        # by value, in client order: the parameters of every client whose
        # values moved since its last score, and of no other
        changed = [
            c.params.flat
            for c, prev in zip(clients, last_scored)
            if prev is None or not np.array_equal(c.params.flat, prev)
        ]
        assert len(scored) == len(changed)
        assert all(np.array_equal(a, b) for a, b in zip(scored, changed))
        counts.append(len(scored))
        last_scored = [c.params.flat.copy() for c in clients]
    # all six at first, none in the warm-up round, then the three trained participants
    assert counts == [6, 0, 3, 3, 3, 3]


@pytest.mark.parametrize("method", ["fedproto", "feddistill"])
def test_prototype_round_forwards_each_study_set_once(monkeypatch, method):
    forwarded = []
    nn_forward = nn.forward_batch

    def counting_forward(spec, params, inputs):
        forwarded.append(id(inputs))
        return nn_forward(spec, params, inputs)

    for module in (nn, federation, metrics):
        monkeypatch.setattr(module, "forward_batch", counting_forward)
    cfg = small_config(method, rounds=3)  # rho 1: every client trains every round
    plans = _plans(cfg)
    clients = plans.clients
    server = build_server(cfg)
    # the study set for the prototypes and the study ce, the test set for hits
    expected = sorted(id(c.data.study.inputs) for c in clients)
    expected = sorted(expected + [id(c.data.test.inputs) for c in clients])
    while server.t < cfg.rounds:
        forwarded.clear()
        server, _ = run_round(server, plans)
        assert sorted(forwarded) == expected


def test_client_error_carries_index():
    cfg = small_config(rounds=1, warmup=0)
    plans = _plans(cfg)
    # corrupt one client's quiz inputs so its round work fails
    bad = plans.clients[3]
    bad.data.quiz.inputs = bad.data.quiz.inputs[:, :4]
    with pytest.raises(ContractViolation, match="client 3"):
        run_round(build_server(cfg), plans)


def test_bad_client_in_a_group_is_named_alone():
    cfg = small_config(rounds=1, warmup=0)
    plans = _plans(cfg)
    # client 5 shares variant 0 with client 0; only its quiz is corrupt
    bad = plans.clients[5]
    bad.data.quiz.inputs = bad.data.quiz.inputs[:, :4]
    with pytest.raises(ContractViolation, match=r"^client 5 failed in round 1: quiz inputs"):
        run_round(build_server(cfg), plans)


def test_error_in_a_stacked_call_names_every_client_of_the_group(monkeypatch):
    # clients 0 and 5 share variant 0 and a full study batch, so they step as one group
    def failing(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(federation, "guidance_gradient", failing)
    cfg = small_config(rounds=1, warmup=0)
    with pytest.raises(
        ContractViolation, match=r"clients 0, 5 failed in round 1 computing their upload: boom"
    ):
        run_round(build_server(cfg), _plans(cfg))


def test_config_validation_errors_name_fields():
    with pytest.raises(ConfigError, match="rho"):
        small_config(rho=0.0).validate()
    with pytest.raises(ConfigError, match="warmup"):
        small_config(warmup=8, rounds=8).validate()
    with pytest.raises(ConfigError, match="method"):
        small_config("fedavg").validate()
    with pytest.raises(ConfigError, match="eta_c"):
        small_config(eta_c=-1.0).validate()


def test_digests_distinguish_configs():
    a = small_config()
    assert config_digest(a) == config_digest(small_config())
    assert config_digest(a) != config_digest(small_config(eta_c=0.02))
    assert config_digest(a) == config_digest(small_config(workers=8))  # execution detail
    # task digest ignores the method, so method pairs stay comparable
    assert task_digest(small_config("fedproto")) == task_digest(small_config("fedl2g-f"))
    assert task_digest(a) != task_digest(small_config(task=dataclasses.replace(SMALL_TASK, beta=0.5)))


def test_eta_s_defaults_by_space():
    assert small_config("fedl2g-l").eta_s_effective == pytest.approx(0.1)
    assert small_config("fedl2g-f").eta_s_effective == pytest.approx(100.0)
    assert small_config("fedl2g-f", eta_s_scale=0.5).eta_s_effective == pytest.approx(50.0)
    assert small_config("fedl2g-f", eta_s=7.0, eta_s_scale=0.5).eta_s_effective == 7.0


@pytest.mark.parametrize("method", ["fedl2g-l", "fedl2g-f"])
def test_guided_group_round_runs_no_duplicate_forward_pass(monkeypatch, method):
    cfg = small_config(method, warmup=1)
    clients = build_clients(cfg)
    payload = build_server(cfg).payload
    members = [c for c in clients if c.spec == clients[0].spec]
    assert len(members) == 2 and all(len(c.data.study) >= cfg.batch_size for c in members)
    passes = []
    original = nn._forward

    def counting(spec, params, x):
        passes.append(x.shape)
        return original(spec, params, x)

    monkeypatch.setattr(nn, "_forward", counting)
    steps = max(len(c.data.study) for c in members) // cfg.batch_size
    [plan] = federation.RoundPlans(clients, cfg).groups([c.index for c in members], 1)
    for round_index, epoch_steps in [(1, 0), (2, steps)]:  # a warm-up round, then one that trains
        passes.clear()
        federation._group_work(cfg, payload, plan, round_index)
        # One pass per epoch step, the study gradient's (which the guidance
        # JVP reuses) and the quiz gradient's.
        assert len(passes) == epoch_steps + 2


@pytest.mark.parametrize("method", ["fedl2g-f", "fedproto", "local-only"])
def test_block_view_bindings_do_not_grow_with_rounds(monkeypatch, method):
    # With rho = 1 every group plan is reused, so after the first training
    # round no round binds a parameter or buffer view again.
    bindings = []
    original = nn._bound_views

    def counting(spec, vec):
        bindings.append(vec.shape)
        return original(spec, vec)

    monkeypatch.setattr(nn, "_bound_views", counting)
    counts = []
    for rounds in (4, 8):
        bindings.clear()
        run_training(small_config(method, rounds=rounds))
        counts.append(len(bindings))
    assert counts[0] == counts[1] > 0


def _outputs(history, clients, server):
    payload = server.payload
    return (
        format_metrics_csv(history),
        b"".join(c.params.flat.tobytes() for c in clients),
        None if payload is None else payload.vectors.tobytes(),
    )


NOISE = (("noise_s", 0.05), ("noise_p", 0.2))
# Every method, and the guided ones with privacy noise, whose streams then
# carry the NOISE purpose too.
REUSE_CASES = [(m, ()) for m in federation.METHODS] + [("fedl2g-f", NOISE), ("fedl2g-l", NOISE)]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "method,overrides",
    REUSE_CASES,
    ids=["-".join([m, *(f"{k}={v}" for k, v in o)]) for m, o in REUSE_CASES],
)
def test_reused_plans_equal_fresh_plans_and_a_resume_bitwise(tmp_path, method, overrides, seed):
    cfg = small_config(method, seed=seed, rho=0.5, eval_every=3, rounds=9, **dict(overrides))
    full = run_training(cfg)
    expected = _outputs(full.history, full.clients, full.server)
    # every round through plans of its own, none kept from the round before
    clients, server, history = build_clients(cfg), build_server(cfg), []
    while server.t < cfg.rounds:
        server, m = run_round(server, RoundPlans(clients, cfg))
        history.append(m)
    assert _outputs(history, clients, server) == expected
    # resumed after an evaluated round, after a skipped one, and before an
    # evaluated one: the first resumed round reports the checkpoint's evaluation
    for at in (3, 4, 5):
        ckpt = str(tmp_path / f"run{at}.ckpt")
        run_training(cfg, checkpoint_at=at, checkpoint_path=ckpt)
        resumed = run_training(cfg, resume_from=ckpt)
        got = _outputs(full.history[:at] + resumed.history, resumed.clients, resumed.server)
        assert got == expected, at


def test_clients_share_a_spec_per_architecture_and_own_their_parameters():
    cfg = small_config(n_clients=12)
    clients = build_clients(cfg)
    for c in clients:
        # one spec object per architecture
        assert all(d.spec is c.spec for d in clients if d.spec == c.spec)
        assert not any(
            np.shares_memory(c.params.flat, d.params.flat) for d in clients if d is not c
        )
        alone = nn.init_params(c.spec, rng.stream(cfg.seed, rng.MODEL_INIT, c.index))
        assert c.params.flat.tobytes() == alone.flat.tobytes()


def test_server_side_errors_name_the_round_and_the_server_update(monkeypatch):
    def overflowing(gset, grads, eta_s):
        return np.float64(1e308) * 10.0  # raises under the round's error state

    monkeypatch.setattr(federation, "server_update", overflowing)
    cfg = small_config(rounds=1, warmup=0)
    with pytest.raises(
        ContractViolation,
        match=r"^server update failed in round 1 computing the payload: overflow encountered",
    ):
        run_round(build_server(cfg), _plans(cfg))


def test_evaluation_errors_name_the_round_and_the_evaluation(monkeypatch):
    def overflowing(*args, **kwargs):
        return np.float64(1e308) * 10.0  # raises under the round's error state

    monkeypatch.setattr(federation, "evaluate", overflowing)
    cfg = small_config(rounds=1, warmup=0)
    with pytest.raises(
        ContractViolation, match=r"^evaluation failed in round 1: overflow encountered"
    ):
        run_round(build_server(cfg), _plans(cfg))


def test_error_in_the_local_epoch_names_the_clients_parameters(monkeypatch):
    def overflowing(*args, **kwargs):
        raise FloatingPointError("overflow encountered in matmul")

    monkeypatch.setattr(federation, "run_sgd_epoch", overflowing)
    cfg = small_config("fedproto", rounds=1, warmup=0)
    with pytest.raises(
        ContractViolation,
        match=r"^clients 0, 5 failed in round 1 computing their parameters \(local epoch\): "
        r"overflow encountered in matmul$",
    ):
        run_round(build_server(cfg), _plans(cfg))


def test_rebuilt_plan_of_a_seen_group_size_reuses_its_scratch_views():
    # under rho < 1 a key's members change from round to round; each time
    # its plan is rebuilt, and a size seen before binds no new views
    cfg = small_config(rho=0.5)
    plans = federation.RoundPlans(build_clients(cfg), cfg)
    [first] = plans.groups([0, 5], 1)
    [alone] = plans.groups([0], 2)
    [again] = plans.groups([0, 5], 3)
    assert again is not first and again.indices == first.indices
    assert again.grad is first.grad and again.direction is first.direction
    assert alone.grad is not first.grad
    assert alone.grad is plans.groups([5], 4)[0].grad
