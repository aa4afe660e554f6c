"""Byte-identity gate: the metric CSV of a small run of every method, and
of each benchmark workload at seed 1, must not change under refactors or
speed-ups.

The small-run digests were recorded before the per-client evaluation cache
was added (the tanh and fedl2g-f noise cases before the group-array round
tail, the fedl2g-l noise case before clients got parameter vectors of their
own, the other methods' noise cases before the method families moved into
one table); the workload digests before the per-step dispatch trim. The
workloads cover what the small runs miss: the pathological partition, 100
clients at rho 0.1, batch 40, and study sets smaller than a batch. A
deliberate numeric change (a new loss, a different data split, another
reduction order) must re-record them and say why in CHANGES.md.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from fedguide.cli import format_metrics_csv
from fedguide.federation import run_training

from helpers import small_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (read only: the benchmark's own run configs)

# (method, small_config overrides) -> SHA-256 of format_metrics_csv(history)
GOLDEN = {
    ("fedl2g-l", ()): "cc0bebf49eb38ff17ef7979b8e536ed201bcafe3444794a922eb5c73468cdfdd",
    ("fedl2g-f", ()): "64b2c6335479c09de5ae6363b0aa3750c45f6383e38114c872afc70b01777af4",
    ("fedproto", ()): "706917773d10277ca8c1b3d0c87e686816c69c94155a6c3fdb86336785d5f607",
    ("feddistill", ()): "9aaa8d759dd9da392f7eeb049fcece1715799a739d91e067e6fdcd91b3a00591",
    ("local-only", ()): "066dbe4368712db44ec7a48d6d72ff7a8fb71b3443d50e960d5f56c659e9189f",
    ("fedl2g-l", (("rho", 0.5), ("eval_every", 3))): (
        "57b45d7bdf8ffdd3f4d8aaf9b04d5339ade617712b77598c6f684319b3f734e9"
    ),
    ("fedl2g-f", (("rho", 0.5), ("eval_every", 3))): (
        "bb9911dc542b3c8bd64136906f3eb64bf0c252c17abb856036ec0410797a7a6a"
    ),
    ("fedproto", (("rho", 0.5), ("eval_every", 3))): (
        "513eda14b27787e36d88c02c415720e4fd9496cb0c55ec2ce5a458f87e55d21b"
    ),
    ("feddistill", (("rho", 0.5), ("eval_every", 3))): (
        "f8246492d02a5e5cad488377501c89efd47b2c2dd573ce0988a74b83ab8b6bbe"
    ),
    ("local-only", (("rho", 0.5), ("eval_every", 3))): (
        "c69f61595c3ea6a57b808465a9d30df9b693234a2c72400543286efd87f8879f"
    ),
    # The kernel's tanh branch, and privacy noise on uploads built from
    # stacked class sums in both spaces: every other case is relu and
    # noise-free.
    ("fedl2g-l", (("activation", "tanh"),)): (
        "d4a6ea8baa09a4e4488e848de90cf3e3503230699596d462c142427a5b18b605"
    ),
    ("fedl2g-f", (("activation", "tanh"),)): (
        "87fcaeb554d53f6b587cff99b22605cd5ffeea3cc7af032a49ea300ce4cc5009"
    ),
    ("fedproto", (("activation", "tanh"),)): (
        "a60a054c5fd0fef8c372cc02a888f5520cbdef6ad3886b13173c328bbf083b7c"
    ),
    ("fedl2g-f", (("noise_s", 0.05), ("noise_p", 0.2))): (
        "5d9b8e8f01594bf805bfec1b2194d83074d7dd64c27d323b1da134f40d755a88"
    ),
    ("fedl2g-l", (("noise_s", 0.05), ("noise_p", 0.2))): (
        "40e873734221ba7d167594d229c1d449089fa793f028fd3347cd77d88deb3b97"
    ),
    # Privacy noise acts on guiding-vector uploads only: the other methods'
    # noisy runs equal their noise-free ones.
    ("fedproto", (("noise_s", 0.05), ("noise_p", 0.2))): (
        "706917773d10277ca8c1b3d0c87e686816c69c94155a6c3fdb86336785d5f607"
    ),
    ("feddistill", (("noise_s", 0.05), ("noise_p", 0.2))): (
        "9aaa8d759dd9da392f7eeb049fcece1715799a739d91e067e6fdcd91b3a00591"
    ),
    ("local-only", (("noise_s", 0.05), ("noise_p", 0.2))): (
        "066dbe4368712db44ec7a48d6d72ff7a8fb71b3443d50e960d5f56c659e9189f"
    ),
}


def _case_id(case) -> str:
    method, overrides = case
    return "-".join([method, *(f"{k}={v}" for k, v in overrides)])


@pytest.mark.parametrize("method,overrides", sorted(GOLDEN), ids=map(_case_id, sorted(GOLDEN)))
def test_metrics_csv_is_byte_identical(method, overrides):
    history = run_training(small_config(method, **dict(overrides))).history
    digest = hashlib.sha256(format_metrics_csv(history).encode()).hexdigest()
    assert digest == GOLDEN[(method, overrides)], (
        f"{method} {dict(overrides)}: the metric CSV changed. If the numeric change "
        "is deliberate, re-record the digests in tests/test_golden.py and log why "
        "in CHANGES.md."
    )


# workload -> SHA-256 of format_metrics_csv(history) of workloads.run_config(w, 1)
GOLDEN_WORKLOADS = {
    "paper-f": "1f68f541c91868555b1d75bbb436323fdbb2e483e231ee596485278ad00ebf5a",
    "paper-proto": "7f9cb98a27ec79ccff401398793484bac45ce2497bffd2f7b06a63df6cae945c",
    "wide-l": "12870d0d375324fccb9c96ebc5ed5d970cb746d94148cb599ac1158eba93c563",
}


@pytest.mark.parametrize("workload", sorted(GOLDEN_WORKLOADS))
def test_workload_metrics_csv_is_byte_identical(workload):
    history = run_training(workloads.run_config(workload, 1)).history
    digest = hashlib.sha256(format_metrics_csv(history).encode()).hexdigest()
    assert digest == GOLDEN_WORKLOADS[workload], (
        f"benchmark workload {workload} at seed 1: the metric CSV changed. If the "
        "numeric change is deliberate, re-record the digests in tests/test_golden.py "
        "and log why in CHANGES.md."
    )
