#!/usr/bin/env python3
"""fedguide benchmark: single-seed training runs, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload paper-f --seed 1 --seconds 20 --trace 0

One operation is one training run through the public API,
``federation.run_training(config)`` then ``cli.format_metrics_csv(history)``.
Operations run back to back in this one process: a closed loop with one
caller, ``RunConfig.workers`` = 1 and BLAS pinned to one thread. The
invocation's RunConfig seeds come from ``--seed`` (``workloads.run_seeds``).

``--trace 0`` runs each of those seeds once and the first one again, then
repeats them in order until ``--seconds`` have passed, and reports the
end-to-end metrics declared in BENCHMARK.json. ``--trace 1`` runs the first
seed that trains untraced, traced (spans go to perfbench/out/), untraced
again, and once more counting duplicate ``grad_params`` calls, then makes a
checkpoint round-trip, and reports the per-layer metrics; it does a fixed
amount of work and ignores ``--seconds``.

Every operation's output is checked: no exception, one CSV row per round
with finite values, final accuracy above chance, and a byte-identical CSV
for every repeat of a seed. A check that fails makes the operation failed.
A seed whose partition cannot be drawn fails every time; it is never
skipped. The last line of standard output is the JSON result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must be set before numpy is first imported

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHECKPOINT_REPS = 5

sys.path.insert(0, str(ROOT / "src"))
try:
    import fedguide
    from fedguide import cli, federation
except ImportError as exc:
    sys.exit(f"perfbench: cannot import fedguide from {ROOT / 'src'}: {exc}")
if not Path(fedguide.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: fedguide was imported from {fedguide.__file__}, not {ROOT / 'src'}")

import numpy as np  # noqa: E402  (after the BLAS thread pin)

import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Op:
    seed: int
    run_s: float
    result: object
    csv: bytes


class Ledger:
    """Attempted and failed operations of one invocation, with the checks."""

    def __init__(self, workload: str):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._first_csv: dict[int, bytes] = {}
        expected = json.loads((HERE / "expected_csv_sha256.json").read_text())
        self._expected_seed = expected["seed"]
        self._expected_sha = expected["sha256"].get(workload)

    def attempt(self, label: str, config) -> Op | None:
        """Run one operation; return it, or None when it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = federation.run_training(config)
            csv = cli.format_metrics_csv(result.history).encode()
        except Exception as exc:  # a run that raises is a failed operation
            self.failed += 1
            print(
                f"{label:<9} seed={config.seed:<6} FAILED after "
                f"{time.perf_counter() - start:.3f} s: {type(exc).__name__}: {exc}"
            )
            if not isinstance(exc, fedguide.FedGuideError):
                traceback.print_exc()
            return None
        op = Op(config.seed, time.perf_counter() - start, result, csv)
        problems = self._check(config, op)
        sha = hashlib.sha256(csv).hexdigest()
        note = ""
        if config.seed == self._expected_seed:
            verdict = "match" if sha == self._expected_sha else "MISMATCH (outputs changed)"
            note = f" csv-sha256-vs-recorded={verdict}"
        status = "FAILED " + "; ".join(problems) if problems else "ok"
        print(f"{label:<9} seed={config.seed:<6} run_s={op.run_s:.4f} check={status}{note}")
        if problems:
            self.failed += 1
            self.correct = False
            return None
        return op

    def fail(self, label: str, reason: str):
        """Mark an already counted operation as failed by a later check."""
        print(f"{label:<9} FAILED check: {reason}")
        self.failed += 1
        self.correct = False

    def _check(self, config, op: Op) -> list[str]:
        problems = []
        rows = op.csv.decode().splitlines()[1:]
        if len(rows) != config.rounds:
            problems.append(f"{len(rows)} CSV rows for {config.rounds} rounds")
        try:
            if not all(math.isfinite(float(v)) for row in rows for v in row.split(",")):
                problems.append("non-finite value in CSV")
        except ValueError as exc:
            problems.append(f"unparseable CSV value: {exc}")
        chance = 1.0 / config.task.class_count
        final = op.result.history[-1].accuracy
        if not final > chance:
            problems.append(f"final accuracy {final} not above chance {chance}")
        if op.csv != self._first_csv.setdefault(op.seed, op.csv):
            problems.append("CSV differs from the first run of this seed")
        return problems


def environment(workload: str, seed: int, trace: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workers": workloads.run_config(workload, seed).workers,
        "workload": workload,
        "seed": seed,
        "run_seeds": workloads.run_seeds(seed),
        "trace": trace,
    }


def setup_time(config) -> float | None:
    """Seconds for build_clients plus build_server; None when set-up fails
    (an operation on that seed records the failure)."""
    start = time.perf_counter()
    try:
        federation.build_clients(config)
        federation.build_server(config)
    except Exception:  # reported by the operation that repeats this set-up
        return None
    return time.perf_counter() - start


def upper_percentile(values: list[float]) -> float:
    """The highest sample with at least ten samples above it (p95 of 200)."""
    return sorted(values)[len(values) - 11]


def end_to_end(workload: str, seed: int, seconds: float, ledger: Ledger) -> dict:
    seeds = workloads.run_seeds(seed)
    setup_seeds = workloads.run_seeds(seed, workloads.SETUP_SEEDS_PER_RUN)
    configs = {s: workloads.run_config(workload, s) for s in seeds}
    setup = {}
    runs = []  # only histories are kept, so memory does not grow with the count
    deadline = time.perf_counter() + seconds
    # Every seed once and the first seed again, so that every run checks a
    # repeat; then further passes while time remains. A slice of the set-up
    # timings precedes each of the first operations: timed in one burst, they
    # would sample the machine's speed in a single second.
    first_pass = len(seeds) + 1
    n = 0
    while n < first_pass or time.perf_counter() < deadline:
        if n < first_pass:
            for s in setup_seeds[n::first_pass]:
                seconds_taken = setup_time(workloads.run_config(workload, s))
                if seconds_taken is not None:
                    setup[s] = seconds_taken
        op = ledger.attempt("run", configs[seeds[n % len(seeds)]])
        if op is not None:
            runs.append((op.seed, op.run_s, op.result.history))
        n += 1
    failed = len(setup_seeds) - len(setup)
    print(f"set-up timed on {len(setup)} seeds; failed on {failed}")
    if not runs:
        sys.exit("perfbench: no operation succeeded, so no metric can be reported")

    def op_metrics(seed: int, run_s: float, history: list) -> dict:
        round_s = run_s - setup[seed]
        return {
            "run_s": run_s,
            "client_rounds_per_s": sum(m.n_participants for m in history) / round_s,
            "round_ms_p95": upper_percentile([m.wall_time for m in history]) * 1e3,
        }

    per_op = [op_metrics(*run) for run in runs]
    metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    # Outputs are deterministic per seed: average them over the distinct seeds.
    first = {}
    for seed, _, history in runs:
        first.setdefault(seed, history)
    metrics["final_accuracy"] = statistics.fmean(h[-1].accuracy for h in first.values())
    metrics["comm_mb"] = statistics.fmean(
        sum(m.upload_bytes + m.download_bytes for m in h) / 1e6 for h in first.values()
    )
    metrics["setup_s"] = statistics.median(setup.values())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"operations: {len(per_op)} succeeded over seeds {sorted(first)}; medians below")
    return metrics


def checkpoint_round_trip(config, result, ledger: Ledger) -> dict:
    """Save the final state, load it into freshly built clients, compare bits."""
    path = OUT / f"checkpoint-{config.seed}.bin"
    save_s, load_s = [], []
    fresh = federation.build_clients(config)
    try:
        for _ in range(CHECKPOINT_REPS):
            start = time.perf_counter()
            federation.save_checkpoint(str(path), config, result.server, result.clients)
            save_s.append(time.perf_counter() - start)
        size = path.stat().st_size
        for _ in range(CHECKPOINT_REPS):
            start = time.perf_counter()
            server = federation.load_checkpoint(str(path), config, fresh)
            load_s.append(time.perf_counter() - start)
    finally:
        path.unlink(missing_ok=True)

    def bits(server, clients):
        out = [repr((server.t, server.min_ce))]
        payload = server.payload
        if payload is not None:
            out.append(payload.vectors.tobytes())
            out.append(getattr(payload, "counts", np.zeros(0)).tobytes())
        return out + [c.params.flat.tobytes() for c in clients]

    equal = bits(server, fresh) == bits(result.server, result.clients)
    print(f"checkpoint round-trip: {size} bytes, bitwise {'equal' if equal else 'DIFFERENT'}")
    if not equal:
        ledger.fail("traced", "checkpoint round-trip changed the state")
    return {
        "federation.save_checkpoint.ms": statistics.median(save_s) * 1e3,
        "federation.load_checkpoint.ms": statistics.median(load_s) * 1e3,
        "federation.save_checkpoint.bytes": size,
    }


def per_layer(workload: str, seed: int, ledger: Ledger) -> dict:
    for s in workloads.run_seeds(seed):
        config = workloads.run_config(workload, s)
        base = ledger.attempt("untraced", config)
        if base is not None:
            break
    else:
        sys.exit("perfbench: no seed of this invocation trains, so nothing can be traced")

    tracer = tracing.Tracer(op=ledger.attempted + 1)
    with tracing.Patch() as patch:
        tracer.install(patch)
        traced = ledger.attempt("traced", config)
    missing = sorted({f"{m}.{n}" for m, n in tracing.TRACED} - set(tracer.wrapped))
    if missing:
        print(f"not in this version of the package, metrics absent: {', '.join(missing)}")
    # A second untraced run after the traced one, so the overhead ratio does
    # not charge first-run warm-up or slow drift of the machine to tracing.
    base_after = ledger.attempt("untraced", config)
    counter = tracing.DupCounter()
    with tracing.Patch() as patch:
        counting = counter.install(patch)
        dup_pass = ledger.attempt("dup-count", config)
    if traced is None or base_after is None or dup_pass is None:
        sys.exit("perfbench: a run of the traced invocation failed; see above")

    spans_path = OUT / f"trace-{workload}-seed{config.seed}.jsonl.gz"
    tracer.write(spans_path)
    print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    print("kernel                 variant  rows<=   calls  us/call  MFLOP/s (computed)")
    for kernel, variant, rows, calls, us, mflop_s in tracer.kernel_table():
        print(f"{kernel:<22} {variant:<7} {rows:>6} {calls:>7} {us:>8.1f} {mflop_s:>8.0f}")
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced.run_s / statistics.fmean(
        (base.run_s, base_after.run_s)
    )
    # The median round latency follows second-scale swings of machine speed
    # more than run_s does (quartile spread up to 0.27 of the median over ten
    # runs on two shared cores, above any end-to-end bound), so it is
    # reported here, without a bound.
    metrics["federation.run_round.p50_ms"] = statistics.fmean(
        statistics.median(m.wall_time for m in op.result.history) * 1e3
        for op in (base, base_after)
    )
    if counting:
        metrics["nn.grad_params.dup_calls"] = counter.dups
        metrics["nn.grad_params.useful_ratio"] = 1.0 - counter.dups / counter.calls
        print(f"grad_params: {counter.dups} of {counter.calls} calls repeat an earlier call")
    metrics.update(checkpoint_round_trip(config, traced.result, ledger))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args.workload, args.seed, args.trace)
    OUT.mkdir(exist_ok=True)
    ledger = Ledger(args.workload)
    if args.trace:
        measured = per_layer(args.workload, args.seed, ledger)
        wanted = declared["per_layer"]
    else:
        measured = end_to_end(args.workload, args.seed, args.seconds, ledger)
        wanted = declared["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<40} {measured[m['name']]:>16.6f} {m['unit']}")
        else:
            print(f"  {m['name']:<40} {'absent':>16}")
    print(f"operations attempted: {ledger.attempted}, failed: {ledger.failed}")
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, **result}, indent=1) + "\n")
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
