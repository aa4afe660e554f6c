"""Acceptance criteria. Each test prints one pass/fail line (visible with
pytest -s) and asserts at the stated tolerance. The default-task fixtures in
conftest.py supply the shared 20-client, 200-round, 3-seed runs."""

import dataclasses
import os
import time

import numpy as np
import pytest

from fedguide import nn
from fedguide.cli import parse_config, run_experiment
from fedguide.federation import (
    RoundPlans,
    RunConfig,
    TaskConfig,
    build_clients,
    build_server,
    run_round,
    run_training,
)
from fedguide.guidance import GuidingVectorSet, guidance_gradient
from fedguide.metrics import account_bytes
from fedguide.nn import LossConfig, MiniBatch

from helpers import (
    fd_grad_params,
    fd_guidance_gradient,
    fd_jvp,
    mean_row_norm,
    random_instance,
    read_metrics_csv,
    rel_error,
    separability_stats,
)


def report(number: int, name: str, ok: bool, detail: str):
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def final_accuracies(runs):
    return np.array([r.history[-1].accuracy for r in runs])


def cumulative_increase(run):
    return float(sum(m.loss_increase for m in run.history))


def test_criterion_01_guidance_gradient_oracle():
    """Closed-form guiding-vector gradient vs finite differences of the full
    two-stage map, 100 seeded instances, both spaces, M in {3, 8}."""
    start = time.perf_counter()
    configs = [("logit", 3), ("feature", 3), ("feature", 8)]
    worst = 0.0
    for i in range(100):
        space, m_dim = configs[i % len(configs)]
        spec, params, batch, rng = random_instance(i, class_count=3, feature_dim=m_dim)
        m = 3 if space == "logit" else m_dim
        gset = GuidingVectorSet(0.3 * rng.standard_normal((3, m)), space)
        quiz = MiniBatch(rng.standard_normal((4, 4)), rng.integers(0, 3, 4))
        pi = guidance_gradient(spec, params, batch, quiz, gset, eta_c=0.05)
        fd = fd_guidance_gradient(spec, params, batch, quiz, gset, eta_c=0.05, step=1e-5)
        worst = max(worst, rel_error(pi.per_class, fd))
    elapsed = time.perf_counter() - start
    report(
        1,
        "guidance-gradient oracle",
        worst <= 1e-5 and elapsed < 30,
        f"max rel err {worst:.2e} (tol 1e-5), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_parameter_gradient_and_jvp_oracles():
    """grad_params and jvp_guided_batch vs central differences, 100 seeded
    instances each, rel err <= 1e-6."""
    start = time.perf_counter()
    worst_grad = 0.0
    for i in range(100):
        spec, params, batch, rng = random_instance(i + 1000)
        mode = i % 3
        if mode == 0:
            cfg = LossConfig()
        else:
            space = "logit" if mode == 1 else "feature"
            m = spec.class_count if space == "logit" else spec.feature_dim
            cfg = LossConfig(
                guide_vectors=0.4 * rng.standard_normal((spec.class_count, m)),
                guide_space=space,
            )
        g = nn.grad_params(spec, params, batch, cfg)
        worst_grad = max(worst_grad, rel_error(g, fd_grad_params(spec, params, batch, cfg)))
    worst_jvp = 0.0
    for i in range(100):
        spec, params, batch, rng = random_instance(i + 2000)
        space = "logit" if i % 2 == 0 else "feature"
        direction = rng.standard_normal(params.flat.shape[0])
        jv = nn.jvp_guided_batch(spec, params, batch.inputs, direction, space)
        worst_jvp = max(
            worst_jvp, rel_error(jv, fd_jvp(spec, params, batch.inputs, direction, space))
        )
    elapsed = time.perf_counter() - start
    report(
        2,
        "parameter-gradient and JVP oracles",
        worst_grad <= 1e-6 and worst_jvp <= 1e-6 and elapsed < 30,
        f"grad {worst_grad:.2e}, jvp {worst_jvp:.2e} (tol 1e-6), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_03_loss_increase_gap(fedl2g_f_runs, fedproto_runs):
    """Cumulative loss-increase of the guided run stays strictly below the
    prototype baseline on every seed, under 25% of it on average.

    The increase is a sum of non-negative rises above the running minimum, so
    it cannot go below zero: on a seed where fedproto's is zero, "strictly
    below" is unattainable and the guided run must match it at zero instead.
    The mean-ratio check applies whenever fedproto's mean is positive."""
    f_inc = np.array([cumulative_increase(r) for r in fedl2g_f_runs])
    p_inc = np.array([cumulative_increase(r) for r in fedproto_runs])
    strict = bool(np.all(np.where(p_inc > 0, f_inc < p_inc, f_inc == 0)))
    ratio = float(f_inc.mean() / p_inc.mean()) if p_inc.mean() > 0 else 0.0
    report(
        3,
        "loss-increase gap vs fedproto",
        strict and ratio < 0.25,
        f"fedl2g-f {np.round(f_inc, 5).tolist()} vs fedproto {np.round(p_inc, 5).tolist()}, "
        f"mean ratio {ratio:.3f} (< 0.25 when fedproto's mean is positive; "
        f"fedl2g-f must be 0 where fedproto is 0)",
    )


def test_criterion_04_accuracy_ordering(
    fedl2g_f_runs, fedl2g_l_runs, fedproto_runs, local_only_runs
):
    """Mean final accuracy: f >= l >= local-only and f >= fedproto within a
    0.5-point non-inferiority margin, and f beats local-only by >= 1 point."""
    f = final_accuracies(fedl2g_f_runs).mean()
    l = final_accuracies(fedl2g_l_runs).mean()
    local = final_accuracies(local_only_runs).mean()
    proto = final_accuracies(fedproto_runs).mean()
    margin = 0.005
    ok = (
        f >= l - margin
        and l >= local - margin
        and f >= proto - margin
        and f >= local + 0.01
    )
    report(
        4,
        "accuracy ordering",
        ok,
        f"f={f:.4f} l={l:.4f} proto={proto:.4f} local={local:.4f} "
        f"(need f>=l-0.005, l>=local-0.005, f>=proto-0.005, f>=local+0.01)",
    )


def test_criterion_05_communication_byte_equality(fedl2g_f_runs, fedl2g_l_runs):
    """Integer-exact byte equality between method pairs under identical
    partition/participation/class-presence traces."""
    # (a) Re-price the guided runs' actual traces under both methods of each
    # pair; the accounting must agree to the byte, every round.
    mismatches = 0
    for runs, twin in ((fedl2g_l_runs, "feddistill"), (fedl2g_f_runs, "fedproto")):
        for run in runs:
            c = run.config.task.class_count
            m = run.config.vector_dim
            for metric in run.history:
                own = account_bytes(
                    metric.n_participants, metric.upload_rows, c, m, run.config.method
                )
                other = account_bytes(metric.n_participants, metric.upload_rows, c, m, twin)
                if own != other or own != (metric.upload_bytes, metric.download_bytes):
                    mismatches += 1
    # (b) End-to-end: with the pseudo-train batch covering the whole study
    # set, batch presence equals study-set presence, so the traces coincide
    # by construction and the emitted byte columns must match exactly.
    task = TaskConfig(class_count=6, input_dim=8, samples_per_class=40, cluster_spread=1.0, beta=1.0)
    base = dict(
        n_clients=6, rounds=20, warmup=5, quiz_size=5, batch_size=10_000, seed=7,
        feature_dim=8, task=task,
    )
    pair_mismatch = []
    for a, b in (("fedl2g-l", "feddistill"), ("fedl2g-f", "fedproto")):
        run_a = run_training(RunConfig(method=a, **base))
        run_b = run_training(RunConfig(method=b, **base))
        for ma, mb in zip(run_a.history, run_b.history):
            if (ma.upload_bytes, ma.download_bytes) != (mb.upload_bytes, mb.download_bytes):
                pair_mismatch.append((a, b, ma.round_index))
    ok = mismatches == 0 and not pair_mismatch
    report(
        5,
        "communication byte equality",
        ok,
        f"re-priced trace mismatches: {mismatches}; end-to-end pair mismatches: {pair_mismatch}",
    )


def test_criterion_06_warmup_behavior(fedl2g_f_runs, fedl2g_f_nowarmup_runs):
    """No-warm-up and default warm-up runs both complete and land within 2
    accuracy points; warm-up rounds leave client parameters bit-unchanged."""
    warm = final_accuracies(fedl2g_f_runs)
    nowarm = final_accuracies(fedl2g_f_nowarmup_runs)
    gap = abs(warm.mean() - nowarm.mean())
    # bit-identical parameters through the default run's warm-up phase
    cfg = RunConfig(method="fedl2g-f", seed=1)
    clients = build_clients(cfg)
    plans = RoundPlans(clients, cfg)
    server = build_server(cfg)
    frozen = True
    for _ in range(cfg.warmup):
        before = [c.params.flat.copy() for c in clients]
        server, _ = run_round(server, plans)
        frozen = frozen and all(
            np.array_equal(c.params.flat, b) for c, b in zip(clients, before)
        )
    report(
        6,
        "warm-up behavior",
        gap <= 0.02 and frozen,
        f"T'=50 mean {warm.mean():.4f} vs T'=0 mean {nowarm.mean():.4f} "
        f"(gap {gap:.4f} <= 0.02); params frozen through warm-up: {frozen}",
    )


def test_criterion_07_convergence_trend(fedl2g_f_runs):
    """Mean squared total-loss gradient norm over the last quartile of rounds
    is below half of the first-quartile average, on every seed."""
    ratios = []
    for run in fedl2g_f_runs:
        gn = np.array([m.grad_norm_sq for m in run.history])
        q = len(gn) // 4
        ratios.append(float(gn[-q:].mean() / gn[:q].mean()))
    ok = all(r < 0.5 for r in ratios)
    report(
        7,
        "convergence trend",
        ok,
        f"last/first quartile ratios {np.round(ratios, 3).tolist()} (each < 0.5)",
    )


def test_criterion_08_determinism_and_checkpoint(tmp_path):
    """Worker count never changes emitted metric files; checkpoint-resume
    reproduces the remaining rounds bit-exactly."""
    flags = [
        "--method", "fedl2g-f", "--clients", "8", "--rounds", "30", "--warmup", "5",
        "--quiz-size", "5", "--class-count", "6", "--input-dim", "8",
        "--samples-per-class", "60", "--partition", "dirichlet:1.0",
        "--feature-dim", "8", "--seed", "11",
    ]
    out1 = str(tmp_path / "w1")
    out4 = str(tmp_path / "w4")
    s1 = run_experiment(parse_config(flags + ["--workers", "1", "--out", out1]))
    s4 = run_experiment(parse_config(flags + ["--workers", "4", "--out", out4]))
    with open(os.path.join(out1, s1["metric_files"][0]), "rb") as fh:
        bytes1 = fh.read()
    with open(os.path.join(out4, s4["metric_files"][0]), "rb") as fh:
        bytes4 = fh.read()
    files_identical = bytes1 == bytes4

    cfg = parse_config(flags).run_for_seed(11)
    ckpt = str(tmp_path / "mid.ckpt")
    full = run_training(cfg, checkpoint_at=15, checkpoint_path=ckpt)
    resumed = run_training(cfg, resume_from=ckpt)
    rounds_match = all(
        (a.round_index, a.accuracy, a.mean_ce, a.loss_increase, a.upload_bytes,
         a.download_bytes, a.grad_norm_sq)
        == (b.round_index, b.accuracy, b.mean_ce, b.loss_increase, b.upload_bytes,
            b.download_bytes, b.grad_norm_sq)
        for a, b in zip(full.history[15:], resumed.history)
    )
    params_match = all(
        np.array_equal(a.params.flat, b.params.flat)
        for a, b in zip(full.clients, resumed.clients)
    )
    ok = files_identical and rounds_match and params_match
    report(
        8,
        "determinism and checkpoint-resume",
        ok,
        f"1-vs-4-worker metric files identical: {files_identical}; "
        f"resumed rounds bit-exact: {rounds_match}; final params bit-exact: {params_match}",
    )


def test_criterion_09_separability(fedl2g_f_runs, fedproto_runs):
    """Normalized mean pairwise distance of trained guiding vectors exceeds
    that of the prototype baseline's global prototypes (3-seed mean)."""
    def normalized_mean_distance(payload):
        _, mean_dist = separability_stats(payload)
        return mean_dist / mean_row_norm(payload)

    f_sep = np.array([normalized_mean_distance(r.server.payload) for r in fedl2g_f_runs])
    p_sep = np.array([normalized_mean_distance(r.server.payload) for r in fedproto_runs])
    ok = f_sep.mean() > p_sep.mean()
    report(
        9,
        "separability diagnostic",
        ok,
        f"guiding vectors {f_sep.mean():.3f} vs prototypes {p_sep.mean():.3f} "
        f"(normalized mean pairwise distance)",
    )


def test_criterion_10_privacy_noise_robustness(fedl2g_f_runs, fedl2g_f_noise_runs):
    """Gaussian upload noise (s=0.05, p=0.2) costs at most 2 accuracy points
    on the 3-seed mean."""
    clean = final_accuracies(fedl2g_f_runs).mean()
    noisy = final_accuracies(fedl2g_f_noise_runs).mean()
    drop = clean - noisy
    report(
        10,
        "privacy-noise robustness",
        drop <= 0.02,
        f"clean {clean:.4f} vs noisy {noisy:.4f}, drop {drop:.4f} (<= 0.02)",
    )
