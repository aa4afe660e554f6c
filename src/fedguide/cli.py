"""Config-driven experiment runner: parses flags/files, executes seeded
sweeps, and emits per-round metric CSVs plus machine-readable summaries.

Precedence for every option: built-in default < config file (JSON) <
FEDGUIDE_* environment variable < command-line flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, FedGuideError
from .federation import (
    METHODS,
    RunConfig,
    TaskConfig,
    atomic_open,
    config_digest,
    run_training,
    task_digest,
)
from .metrics import RoundMetrics, convergence_round
from .nn import ACTIVATIONS

ENV_PREFIX = "FEDGUIDE_"

METRIC_HEADER = "round,accuracy,mean_ce,loss_increase,upload_bytes,download_bytes,grad_norm_sq"

SUMMARY_SCHEMA = "fedguide-summary-v1"

# Written into --out when a run fails; the next run into it removes it.
_FAILED_MARKER = "FAILED.txt"


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: one RunConfig template swept over seeds."""

    run: RunConfig
    seeds: tuple[int, ...]
    out_dir: str

    def run_for_seed(self, seed: int) -> RunConfig:
        return dataclasses.replace(self.run, seed=seed)


def _parse_partition(value) -> tuple[str, float | int]:
    scheme, _, param = str(value).partition(":")
    if scheme == "dirichlet":
        try:
            return "dirichlet", float(param) if param else 0.1
        except ValueError:
            raise ConfigError(f"partition: bad beta {param!r}") from None
    if scheme == "pathological":
        try:
            return "pathological", int(param) if param else 2
        except ValueError:
            raise ConfigError(f"partition: bad classes-per-client {param!r}") from None
    raise ConfigError(f"partition: unknown scheme {scheme!r}")


def _parse_noise(value) -> tuple[float, float]:
    s, _, p = str(value).partition(":")
    try:
        return float(s), float(p)
    except ValueError:
        raise ConfigError(f"noise: expected s:p, got {value!r}") from None


def _parse_int(value) -> int:
    """An integer option: a config file's 2.7 is an error, not 2."""
    if not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _parse_seeds(value) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in str(value).split(","))
    except ValueError:
        raise ConfigError(f"seed: expected S[,S...], got {value!r}") from None
    if min(seeds) < 0:
        raise ConfigError(f"seed: must be >= 0, got {value!r}")
    return seeds


class _Option(NamedTuple):
    parse: Callable[[object], object]
    field: str | None  # the RunConfig or TaskConfig field it sets
    help: str


# Every run option, declared once. Key "eta_s" is the flag --eta-s, the
# environment variable FEDGUIDE_ETA_S and the config-file key "eta_s".
# Options without a field are unpacked by parse_config itself.
_OPTIONS: dict[str, _Option] = {
    "method": _Option(str, "method", f"one of {', '.join(METHODS)}"),
    "clients": _Option(_parse_int, "n_clients", "number of clients N"),
    "rho": _Option(float, "rho", "share of clients sampled each round, in (0, 1]"),
    "rounds": _Option(_parse_int, "rounds", "communication rounds"),
    "warmup": _Option(
        _parse_int, "warmup", "rounds of guiding-vector training before local training"
    ),
    "eta_c": _Option(float, "eta_c", "client learning rate"),
    "eta_s": _Option(float, "eta_s", "server learning rate; default from the space"),
    "eta_s_scale": _Option(float, "eta_s_scale", "factor on the space's default server rate"),
    "batch_size": _Option(_parse_int, "batch_size", "study mini-batch size"),
    "quiz_size": _Option(_parse_int, "quiz_size", "quiz samples held out per client"),
    "feature_dim": _Option(_parse_int, "feature_dim", "feature dimension K of every model"),
    "activation": _Option(str, "activation", f"one of {', '.join(ACTIVATIONS)}"),
    "workers": _Option(_parse_int, "workers", "no effect: every round runs on one thread"),
    "eval_every": _Option(
        _parse_int, "eval_every", "evaluate every this many rounds, and at the last"
    ),
    "partition": _Option(_parse_partition, None, "dirichlet:BETA or pathological:CPC"),
    "noise": _Option(_parse_noise, None, "s:p Gaussian perturbation of uploads"),
    "seed": _Option(_parse_seeds, None, "seed or comma-separated seed list"),
    "out": _Option(str, None, "output directory"),
    "data": _Option(str, "source", "delimited dataset file; default synthetic"),
    "class_count": _Option(_parse_int, "class_count", "number of classes C"),
    "input_dim": _Option(_parse_int, "input_dim", "input dimension d"),
    "samples_per_class": _Option(_parse_int, "samples_per_class", "synthetic samples per class"),
    "cluster_spread": _Option(float, "cluster_spread", "std of each synthetic class cluster"),
    "test_fraction": _Option(float, "test_fraction", "share of client samples kept for test"),
}

_TASK_FIELDS = {f.name for f in dataclasses.fields(TaskConfig)}


def _load_json_object(path: str, what: str) -> dict:
    """A JSON file whose top level is an object; any failure is a ConfigError
    naming ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{what}: cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{what}: {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what}: {path}: top level must be a JSON object")
    return doc


def _run_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fedguide run",
        epilog="Each option KEY can also come from the environment variable FEDGUIDE_<KEY> "
        "or the config-file key KEY (e.g. --eta-s, FEDGUIDE_ETA_S, eta_s). Precedence: "
        "default < config file < environment < flag.",
    )
    p.add_argument("--config", help="JSON config file; flags override it")
    for key, option in _OPTIONS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=option.help)
    return p


def _collect_options(args: argparse.Namespace) -> dict:
    """Merge config file, environment, and flags by increasing precedence,
    then parse the values that won."""
    merged: dict = {}
    if args.config:
        file_cfg = _load_json_object(args.config, "config")
        for key in file_cfg:
            if key not in _OPTIONS:
                raise ConfigError(f"config: unknown key {key!r}")
        merged.update(file_cfg)
    for key in _OPTIONS:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            merged[key] = env
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    parsed = {}
    for key, value in merged.items():
        try:
            if isinstance(value, bool):  # a config file's true is no option's value
                raise TypeError
            parsed[key] = _OPTIONS[key].parse(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: cannot parse {value!r}") from None
    return parsed


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Parse run-command arguments into a fully validated ExperimentConfig."""
    opts = _collect_options(_run_arg_parser().parse_args(argv))
    task_kwargs: dict = {}
    run_kwargs: dict = {}
    for key, value in opts.items():
        field = _OPTIONS[key].field
        if field is not None:
            (task_kwargs if field in _TASK_FIELDS else run_kwargs)[field] = value
    if "partition" in opts:
        scheme, param = opts["partition"]
        task_kwargs["partition"] = scheme
        task_kwargs["beta" if scheme == "dirichlet" else "classes_per_client"] = param
    if "noise" in opts:
        run_kwargs["noise_s"], run_kwargs["noise_p"] = opts["noise"]
    run = RunConfig(task=TaskConfig(**task_kwargs), **run_kwargs)
    run.validate()
    return ExperimentConfig(run, opts.get("seed", (1,)), opts.get("out", "runs"))


def format_metrics_csv(history: list[RoundMetrics]) -> str:
    """Render the per-round metric table; floats use shortest-roundtrip repr."""
    lines = [METRIC_HEADER]
    for m in history:
        lines.append(
            f"{m.round_index},{m.accuracy!r},{m.mean_ce!r},{m.loss_increase!r},"
            f"{m.upload_bytes},{m.download_bytes},{m.grad_norm_sq!r}"
        )
    return "\n".join(lines) + "\n"


def _population_std(values: list[float]) -> float:
    return float(np.std(np.asarray(values)))


def build_summary(config: RunConfig, seeds, histories) -> dict:
    """Aggregate per-seed histories into the summary document."""
    finals = [h[-1].accuracy for h in histories]
    bests = [max(m.accuracy for m in h) for h in histories]
    conv = []
    for h in histories:
        acc = [m.accuracy for m in h]
        conv.append(convergence_round(acc) if len(acc) >= 20 else len(acc))
    uploads = [int(sum(m.upload_bytes for m in h)) for h in histories]
    downloads = [int(sum(m.download_bytes for m in h)) for h in histories]
    return {
        "schema": SUMMARY_SCHEMA,
        "method": config.method,
        "config": dataclasses.asdict(config),
        "config_digest": config_digest(config, include_seed=False),
        "task_digest": task_digest(config),
        "seeds": list(seeds),
        "final_accuracy": finals,
        "final_accuracy_mean": float(np.mean(finals)),
        "final_accuracy_std": _population_std(finals),
        "best_accuracy": bests,
        "best_accuracy_mean": float(np.mean(bests)),
        "best_accuracy_std": _population_std(bests),
        "convergence_rounds": conv,
        "upload_bytes_total": uploads,
        "download_bytes_total": downloads,
    }


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every seed, write metric files and the summary; returns the summary."""
    os.makedirs(config.out_dir, exist_ok=True)
    marker = os.path.join(config.out_dir, _FAILED_MARKER)
    if os.path.exists(marker):
        os.remove(marker)
    histories = []
    metric_files = []
    for i, seed in enumerate(config.seeds):
        result = run_training(config.run_for_seed(seed))
        histories.append(result.history)
        name = f"metrics_{config.run.method}_run{i:02d}_seed{seed}.csv"
        path = os.path.join(config.out_dir, name)
        with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(format_metrics_csv(result.history))
        metric_files.append(name)
    summary = build_summary(config.run, config.seeds, histories)
    summary["metric_files"] = metric_files
    summary_path = os.path.join(config.out_dir, f"summary_{config.run.method}.json")
    with atomic_open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


# The summary keys compare_runs reads.
_COMPARED_KEYS = (
    "method",
    "final_accuracy_mean",
    "final_accuracy_std",
    "convergence_rounds",
    "upload_bytes_total",
    "download_bytes_total",
)


def compare_runs(summaries: list[dict]) -> list[dict]:
    """Build comparison rows for summaries of the same task, best first."""
    if len(summaries) < 2:
        raise ConfigError("compare: need at least two summaries")
    digests = {s.get("task_digest") for s in summaries}
    if len(digests) != 1:
        raise ConfigError(
            f"compare: summaries come from different tasks (digests {sorted(digests)})"
        )
    rows = []
    for s in summaries:
        total_mb = [
            (u + d) / 1e6
            for u, d in zip(s["upload_bytes_total"], s["download_bytes_total"])
        ]
        rows.append(
            {
                "method": s["method"],
                "accuracy_mean": s["final_accuracy_mean"],
                "accuracy_std": s["final_accuracy_std"],
                "convergence_round_mean": float(np.mean(s["convergence_rounds"])),
                "total_mb_mean": float(np.mean(total_mb)),
            }
        )
    rows.sort(key=lambda r: -r["accuracy_mean"])
    return rows


def format_comparison(rows: list[dict]) -> str:
    header = f"{'method':<12} {'accuracy':<18} {'conv. round':<12} {'total MB':<10}"
    lines = [header, "-" * len(header)]
    for r in rows:
        acc = f"{100 * r['accuracy_mean']:.2f} +- {100 * r['accuracy_std']:.2f}"
        lines.append(
            f"{r['method']:<12} {acc:<18} {r['convergence_round_mean']:<12.1f} "
            f"{r['total_mb_mean']:<10.4f}"
        )
    return "\n".join(lines) + "\n"


def _cmd_run(argv: list[str]) -> int:
    config = parse_config(argv)
    try:
        summary = run_experiment(config)
    except FedGuideError as exc:
        marker = os.path.join(config.out_dir, _FAILED_MARKER)
        os.makedirs(config.out_dir, exist_ok=True)
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(f"run failed, outputs may be partial: {exc}\n")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"{summary['method']}: final accuracy "
        f"{100 * summary['final_accuracy_mean']:.2f} "
        f"+- {100 * summary['final_accuracy_std']:.2f} over seeds {summary['seeds']}"
    )
    return 0


def _cmd_compare(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="fedguide compare")
    p.add_argument("summaries", nargs="+", help="summary JSON files")
    p.add_argument("--out", help="write comparison.json/.txt into this directory")
    args = p.parse_args(argv)
    loaded = []
    for path in args.summaries:
        summary = _load_json_object(path, "compare")
        missing = [key for key in _COMPARED_KEYS if key not in summary]
        if missing:
            raise ConfigError(f"compare: {path}: summary lacks {', '.join(missing)}")
        loaded.append(summary)
    rows = compare_runs(loaded)
    text = format_comparison(rows)
    print(text, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with atomic_open(os.path.join(args.out, "comparison.json"), "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with atomic_open(os.path.join(args.out, "comparison.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: fedguide {run,compare} [options]   (see README)", file=sys.stderr)
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    try:
        if command == "run":
            return _cmd_run(rest)
        if command == "compare":
            return _cmd_compare(rest)
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 2
    except FedGuideError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
