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

ENV_PREFIX = "FEDGUIDE_"

METRIC_HEADER = "round,accuracy,mean_ce,loss_increase,upload_bytes,download_bytes,grad_norm_sq"

SUMMARY_SCHEMA = "fedguide-summary-v1"

# Config-file keys, their parsers, and the RunConfig/TaskConfig field they feed.
_OPTION_SPECS: dict[str, type | str] = {
    "method": str,
    "clients": int,
    "rho": float,
    "rounds": int,
    "warmup": int,
    "eta_c": float,
    "eta_s": float,
    "eta_s_scale": float,
    "batch_size": int,
    "quiz_size": int,
    "feature_dim": int,
    "activation": str,
    "workers": int,
    "eval_every": int,
    "partition": str,  # "dirichlet:BETA" or "pathological:CPC"
    "noise": str,  # "s:p"
    "seed": str,  # "S" or "S,S,..."
    "out": str,
    "data": str,  # delimited file path; omit for synthetic
    "class_count": int,
    "input_dim": int,
    "samples_per_class": int,
    "cluster_spread": float,
    "test_fraction": float,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: one RunConfig template swept over seeds."""

    run: RunConfig
    seeds: tuple[int, ...]
    out_dir: str

    def run_for_seed(self, seed: int) -> RunConfig:
        return dataclasses.replace(self.run, seed=seed)


def _parse_typed(key: str, value, kind) -> object:
    try:
        if kind is int:
            out = int(value)
        elif kind is float:
            out = float(value)
        else:
            out = str(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: cannot parse {value!r}") from None
    return out


def _parse_partition(value: str) -> tuple[str, float | int]:
    scheme, _, param = value.partition(":")
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


def _parse_noise(value: str) -> tuple[float, float]:
    s, _, p = value.partition(":")
    try:
        return float(s), float(p)
    except ValueError:
        raise ConfigError(f"noise: expected s:p, got {value!r}") from None


def _parse_seeds(value: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in str(value).split(","))
    except ValueError:
        raise ConfigError(f"seed: expected S[,S...], got {value!r}") from None
    if not seeds:
        raise ConfigError("seed: at least one seed required")
    return seeds


def _run_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fedguide run", add_help=True)
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--clients", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--rounds", type=int)
    p.add_argument("--warmup", type=int)
    p.add_argument("--eta-c", dest="eta_c", type=float)
    p.add_argument("--eta-s", dest="eta_s", type=float)
    p.add_argument("--eta-s-scale", dest="eta_s_scale", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--quiz-size", dest="quiz_size", type=int)
    p.add_argument("--feature-dim", dest="feature_dim", type=int)
    p.add_argument("--activation", choices=("relu", "tanh"))
    p.add_argument("--workers", type=int)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.add_argument("--partition", help="dirichlet:BETA or pathological:CPC")
    p.add_argument("--noise", help="s:p Gaussian perturbation of uploads")
    p.add_argument("--seed", help="seed or comma-separated seed list")
    p.add_argument("--out", help="output directory")
    p.add_argument("--data", help="delimited dataset file; default synthetic")
    p.add_argument("--class-count", dest="class_count", type=int)
    p.add_argument("--input-dim", dest="input_dim", type=int)
    p.add_argument("--samples-per-class", dest="samples_per_class", type=int)
    p.add_argument("--cluster-spread", dest="cluster_spread", type=float)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    return p


def _collect_options(args: argparse.Namespace) -> dict:
    """Merge config file, environment, and flags by increasing precedence."""
    merged: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config: top level must be a JSON object")
        for key, value in file_cfg.items():
            if key not in _OPTION_SPECS:
                raise ConfigError(f"config: unknown key {key!r}")
            merged[key] = _parse_typed(key, value, _OPTION_SPECS[key])
    for key, kind in _OPTION_SPECS.items():
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            merged[key] = _parse_typed(key, env, kind)
    for key in _OPTION_SPECS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Parse run-command arguments into a fully validated ExperimentConfig."""
    args = _run_arg_parser().parse_args(argv)
    opts = _collect_options(args)

    task_kwargs = {}
    if "data" in opts:
        task_kwargs["source"] = opts["data"]
    for key in ("class_count", "input_dim", "samples_per_class", "cluster_spread", "test_fraction"):
        if key in opts:
            task_kwargs[key] = opts[key]
    if "partition" in opts:
        scheme, param = _parse_partition(opts["partition"])
        task_kwargs["partition"] = scheme
        if scheme == "dirichlet":
            task_kwargs["beta"] = param
        else:
            task_kwargs["classes_per_client"] = param
    task = TaskConfig(**task_kwargs)

    run_kwargs: dict = {"task": task}
    rename = {"clients": "n_clients"}
    for key in (
        "method",
        "clients",
        "rho",
        "rounds",
        "warmup",
        "eta_c",
        "eta_s",
        "eta_s_scale",
        "batch_size",
        "quiz_size",
        "feature_dim",
        "activation",
        "workers",
        "eval_every",
    ):
        if key in opts:
            run_kwargs[rename.get(key, key)] = opts[key]
    if "noise" in opts:
        s, p = _parse_noise(opts["noise"])
        run_kwargs["noise_s"] = s
        run_kwargs["noise_p"] = p
    run = RunConfig(**run_kwargs)
    run.validate()

    seeds = _parse_seeds(opts["seed"]) if "seed" in opts else (1,)
    out_dir = opts.get("out", "runs")
    return ExperimentConfig(run, seeds, out_dir)


def format_metrics_csv(history: list[RoundMetrics]) -> str:
    """Render the per-round metric table; floats use shortest-roundtrip repr."""
    lines = [METRIC_HEADER]
    for m in history:
        lines.append(
            f"{m.round_index},{m.accuracy!r},{m.mean_ce!r},{m.loss_increase!r},"
            f"{m.upload_bytes},{m.download_bytes},{m.grad_norm_sq!r}"
        )
    return "\n".join(lines) + "\n"


def read_metrics_csv(path: str) -> dict[str, np.ndarray]:
    """Parse a metric file back into named columns."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != METRIC_HEADER:
            raise ConfigError(f"{path}: unexpected metric header {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    names = METRIC_HEADER.split(",")
    cols = {name: np.array([float(r[j]) for r in rows]) for j, name in enumerate(names)}
    cols["round"] = cols["round"].astype(np.int64)
    cols["upload_bytes"] = cols["upload_bytes"].astype(np.int64)
    cols["download_bytes"] = cols["download_bytes"].astype(np.int64)
    return cols


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
        marker = os.path.join(config.out_dir, "FAILED.txt")
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
        with open(path, encoding="utf-8") as fh:
            loaded.append(json.load(fh))
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
