"""Metrics tests: evaluation, the engine's loss-increase column, byte
accounting, convergence detection, and separability diagnostics."""

import numpy as np
import pytest

from fedguide import federation, nn
from fedguide.baselines import PrototypeSet
from fedguide.cli import format_metrics_csv
from fedguide.data import ClientDataset, Dataset
from fedguide.errors import ContractViolation
from fedguide.federation import run_training
from fedguide.guidance import GuidingVectorSet
from fedguide.metrics import account_bytes, convergence_round, evaluate
from fedguide.nn import MiniBatch, ModelSpec
from fedguide.rng import stream

from helpers import mean_row_norm, read_metrics_csv, separability_stats, small_config


def perfect_client(n_test=10, label=0):
    """A client whose zero-weight model predicts class `pred` for everything."""
    spec = ModelSpec(2, (2,), 2, 2, "relu")
    params = nn.ModelParams(np.zeros(nn.param_count(spec)))
    # bias the head so argmax is always `label`
    blocks = nn._affines(spec, params.flat)
    blocks[2][1][label] = 1.0
    inputs = np.zeros((n_test, 2))
    test = Dataset(inputs, np.full(n_test, label), 2)
    study = Dataset(inputs[:4], np.full(4, label), 2)
    quiz = MiniBatch(inputs[:2], np.full(2, label))
    return spec, params, ClientDataset(study, quiz, test)


def test_evaluate_all_correct():
    agg, per, ce = evaluate([perfect_client()])
    assert agg == 1.0
    assert per.tolist() == [1.0]
    assert np.isfinite(ce)


def test_evaluate_sample_weighted_mean():
    c1 = perfect_client(n_test=10, label=0)  # accuracy 1.0
    spec, params, data = perfect_client(n_test=30, label=0)
    # flip half of the second client's test labels so it scores 0.5
    labels = data.test.labels.copy()
    labels[:15] = 1
    data = ClientDataset(data.study, data.quiz, Dataset(data.test.inputs, labels, 2))
    agg, per, _ = evaluate([c1, (spec, params, data)])
    assert per.tolist() == [1.0, 0.5]
    assert agg == pytest.approx((10 * 1.0 + 30 * 0.5) / 40)


def test_evaluate_untrained_accuracy_near_chance():
    # binomial check: an untrained model on balanced classes scores ~1/C
    c, n = 4, 2400
    rng = np.random.default_rng(0)
    spec = ModelSpec(6, (8,), 5, c, "tanh")
    params = nn.init_params(spec, stream(123, 3, 0))
    inputs = rng.standard_normal((n, 6))
    labels = np.tile(np.arange(c), n // c)
    test = Dataset(inputs, labels, c)
    study = Dataset(inputs[:8], labels[:8], c)
    quiz = MiniBatch(inputs[:2], labels[:2])
    agg, _, _ = evaluate([(spec, params, ClientDataset(study, quiz, test))])
    p = 1 / c
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(agg - p) <= 3 * sigma


def test_evaluate_checks_the_study_set_it_scores():
    spec, params, data = perfect_client()
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, np.int64), 2)
    with pytest.raises(ContractViolation, match="study set is empty"):
        evaluate([(spec, params, ClientDataset(empty, data.quiz, data.test))])
    # class 2 is in range for the Dataset's 3 classes, not for the model's 2
    wide = Dataset(np.zeros((2, 2)), np.array([0, 2]), 3)
    with pytest.raises(ContractViolation, match=r"labels out of range \[0, 2\)"):
        evaluate([(spec, params, ClientDataset(wide, data.quiz, data.test))])
    # a study ce the round already computed is taken as it is
    _, _, ce = evaluate([(spec, params, ClientDataset(empty, data.quiz, data.test))], None, [0.25])
    assert ce == 0.25


def engine_loss_increase(monkeypatch, ce_history):
    """The engine's loss_increase column over a run whose evaluations report
    ``ce_history`` as the mean study ce, one entry per round."""
    scripted = iter(ce_history)
    monkeypatch.setattr(
        federation,
        "evaluate",
        lambda clients, scores, study_ce: (0.5, np.zeros(len(clients)), next(scripted)),
    )
    cfg = small_config("local-only", rounds=len(ce_history), warmup=0)
    return [m.loss_increase for m in run_training(cfg).history]


def running_min_rise(ce):
    """Reference: entry t is max(0, ce[t] - min(ce[:t])); the first is 0."""
    return [0.0] + [max(0.0, ce[t] - min(ce[:t])) for t in range(1, len(ce))]


def test_loss_increase_monotone_history_is_zero(monkeypatch):
    assert engine_loss_increase(monkeypatch, [3.0, 2.5, 2.0, 1.0]) == [0, 0, 0, 0]


def test_loss_increase_by_hand(monkeypatch):
    assert engine_loss_increase(monkeypatch, [1.0, 0.8, 0.9]) == [0.0, 0.0, pytest.approx(0.1)]
    assert engine_loss_increase(monkeypatch, [1.0, 1.2]) == [0.0, pytest.approx(0.2)]


def test_loss_increase_zero_iff_nonincreasing(monkeypatch):
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = rng.uniform(0.5, 2.0, 12)
        inc = engine_loss_increase(monkeypatch, h.tolist())
        nonincreasing = all(h[t] <= h[: t + 1].min() + 1e-15 for t in range(1, len(h)))
        assert (max(inc) == 0.0) == nonincreasing


@pytest.mark.parametrize("overrides", [{}, dict(rho=0.5, eval_every=3), dict(eta_c=0.5)])
@pytest.mark.parametrize("method", ["fedl2g-f", "fedproto"])
def test_loss_increase_column_is_the_rise_above_the_running_minimum(tmp_path, method, overrides):
    path = tmp_path / "metrics.csv"
    path.write_text(format_metrics_csv(run_training(small_config(method, **overrides)).history))
    cols = read_metrics_csv(str(path))
    assert cols["loss_increase"].tolist() == running_min_rise(cols["mean_ce"].tolist())
    if "eta_c" in overrides:
        # The study ce falls monotonically in the other runs; this step size
        # makes it rise, so the column is compared on nonzero entries too.
        assert cols["loss_increase"].max() > 0


def test_account_bytes_by_hand():
    up, down = account_bytes(1, 3, class_count=5, vector_dim=8, method="feddistill")
    assert up == 3 * (8 * 4 + 4) == 108
    assert down == 1 * 5 * 8 * 4


def test_account_bytes_local_only_zero():
    assert account_bytes(7, 99, 10, 32, "local-only") == (0, 0)


@pytest.mark.parametrize("pair", [("fedl2g-l", "feddistill"), ("fedl2g-f", "fedproto")])
def test_account_bytes_method_pairs_identical(pair):
    rng = np.random.default_rng(2)
    for _ in range(50):
        n_p = int(rng.integers(1, 21))
        rows = int(rng.integers(0, 100))
        c = int(rng.integers(2, 20))
        m = int(rng.integers(2, 64))
        assert account_bytes(n_p, rows, c, m, pair[0]) == account_bytes(n_p, rows, c, m, pair[1])


def test_convergence_round_constant_history():
    assert convergence_round([0.5] * 60, window=20, tol=0.002) == 20


def test_convergence_round_strictly_improving():
    h = [0.01 * t for t in range(60)]
    assert convergence_round(h, window=20, tol=0.002) == 60


def test_convergence_round_deterministic_and_short_history_rejected():
    h = list(np.random.default_rng(3).uniform(0, 1, 50))
    assert convergence_round(h) == convergence_round(h)
    with pytest.raises(ContractViolation):
        convergence_round([0.5] * 10, window=20)


def test_separability_identical_rows():
    m = np.ones((2, 4))
    assert separability_stats(m)[0] == 0.0


def test_separability_unit_vectors():
    m = np.eye(3)[:2]
    mn, mean = separability_stats(m)
    assert mn == pytest.approx(np.sqrt(2))
    assert mean == pytest.approx(np.sqrt(2))


def test_separability_permutation_invariant():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((5, 3))
    a = separability_stats(m)
    b = separability_stats(m[::-1])
    assert a == pytest.approx(b)


def test_separability_skips_invalid_prototype_rows():
    vectors = np.vstack([np.zeros(3), np.eye(3)[:2] * 2])
    pset = PrototypeSet(vectors, np.array([0, 4, 4]), "feature")
    mn, mean = separability_stats(pset)
    assert mn == pytest.approx(np.sqrt(8))
    with pytest.raises(ContractViolation):
        separability_stats(PrototypeSet(vectors, np.array([0, 4, 0]), "feature"))


def test_separability_accepts_guiding_vectors():
    gset = GuidingVectorSet(np.eye(3), "logit")
    mn, _ = separability_stats(gset)
    assert mn == pytest.approx(np.sqrt(2))
    assert mean_row_norm(gset) == pytest.approx(1.0)
