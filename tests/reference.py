"""A plain reference federation: one round after another, one client after
another, written from the README's description of a round with the
package's public functions only. It shares no group plan, stack, scratch
buffer or ``RoundStreams`` table with the engine, and it takes the set-up
from ``build_clients`` (which ``tests/test_data.py`` checks against its own
references). Every client's numbers must equal the engine's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedguide import rng
from fedguide.baselines import aggregate_prototypes, prototype_loss_config
from fedguide.federation import RunConfig, build_clients, build_server, sample_participants
from fedguide.guidance import (
    add_privacy_noise,
    guidance_gradient,
    guided_loss_config,
    server_update,
)
from fedguide.metrics import RoundMetrics, account_bytes, evaluate
from fedguide.nn import LossConfig, MiniBatch, ModelParams, forward_batch, grad_params

from helpers import client_prototypes

GUIDED = ("fedl2g-l", "fedl2g-f")
PROTOTYPE = ("fedproto", "feddistill")


@dataclass
class ReferenceResult:
    history: list[RoundMetrics]
    params: list[np.ndarray]  # every client's final parameters
    payload: object  # the final guiding vectors or prototypes, or None


def _loss_config(config: RunConfig, payload) -> LossConfig:
    if config.method in PROTOTYPE:
        return prototype_loss_config(payload)
    return guided_loss_config(payload)  # pure cross-entropy without a payload


def _epoch(config, spec, params, study, cfg, gen) -> ModelParams:
    """floor(|study| / batch_size) SGD steps on one shuffle of the study
    set, the remainder dropped; one unstacked gradient per step."""
    b = config.batch_size
    steps = len(study) // b
    if steps == 0:
        return params
    order = gen.permutation(len(study))
    for s in range(steps):
        rows = order[s * b : (s + 1) * b]
        g = grad_params(spec, params, MiniBatch(study.inputs[rows], study.labels[rows]), cfg)
        params = ModelParams(params.flat - config.eta_c * g)
    return params


def _client_round(config, client, params, payload, r):
    """One participant's round: its epoch (none for a guided method through
    the warm-up), its telemetry gradient on a fresh study batch, and its
    upload. Returns the new params, the upload and the gradient's squared
    norm."""
    i, spec, data = client.index, client.spec, client.data
    cfg = _loss_config(config, payload)
    if config.method not in GUIDED or r > config.warmup:
        gen = rng.stream(config.seed, rng.EPOCH, i, r)
        params = _epoch(config, spec, params, data.study, cfg, gen)
    n = min(config.batch_size, len(data.study))
    gen = rng.stream(config.seed, rng.BATCH, i, r)
    rows = gen.choice(len(data.study), size=n, replace=False)
    batch = MiniBatch(data.study.inputs[rows], data.study.labels[rows])
    g = grad_params(spec, params, batch, cfg)
    upload = None
    if config.method in GUIDED:
        upload = guidance_gradient(spec, params, batch, data.quiz, payload, config.eta_c)
        if config.noise_s > 0 and config.noise_p > 0:
            gen = rng.stream(config.seed, rng.NOISE, i, r)
            upload = add_privacy_noise(upload, config.noise_s, config.noise_p, gen)
    elif config.method in PROTOTYPE:
        outputs = forward_batch(spec, params, data.study.inputs)
        upload = client_prototypes(data.study, outputs, config.space)
    return params, upload, float(g @ g)


def reference_run(config: RunConfig, reverse: bool = False) -> ReferenceResult:
    """Rounds 1..T of ``config``. With ``reverse``, each round's participants
    run from the highest client index down; the server still reduces the
    uploads in ascending client order."""
    config.validate()
    clients = build_clients(config)
    params = [c.params for c in clients]
    payload = build_server(config).payload
    min_ce, evaluation, history = np.inf, None, []
    for r in range(1, config.rounds + 1):
        participants = sample_participants(config, r)
        uploads, norms = {}, {}
        for i in sorted(participants, reverse=reverse):
            step = _client_round(config, clients[i], params[i], payload, r)
            params[i], uploads[i], norms[i] = step
        in_order = [uploads[i] for i in participants]  # ascending client order

        rows = 0
        if config.method in GUIDED:
            rows = sum(u.uploaded_rows for u in in_order)
            payload = server_update(payload, in_order, config.eta_s_effective)
        elif config.method in PROTOTYPE:
            rows = sum(int((counts > 0).sum()) for _, counts in in_order)
            payload = aggregate_prototypes(in_order, config.space)
        upload_bytes, download_bytes = account_bytes(
            len(participants),
            rows,
            config.task.class_count,
            config.vector_dim if config.space else 0,
            config.method,
        )

        if evaluation is None or r % config.eval_every == 0 or r == config.rounds:
            evaluation = evaluate([(c.spec, p, c.data) for c, p in zip(clients, params)])
        accuracy, per_client, mean_ce = evaluation
        history.append(
            RoundMetrics(
                round_index=r,
                accuracy=accuracy,
                per_client_accuracy=per_client,
                mean_ce=mean_ce,
                loss_increase=max(0.0, mean_ce - min_ce),
                upload_bytes=upload_bytes,
                download_bytes=download_bytes,
                grad_norm_sq=float(np.mean([norms[i] for i in participants])),
                n_participants=len(participants),
                upload_rows=rows,
            )
        )
        min_ce = min(min_ce, mean_ce)
    return ReferenceResult(history, [p.flat for p in params], payload)
