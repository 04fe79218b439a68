"""ctxgames benchmark: end-to-end and per-layer metrics of one workload.

    python3 bench/run_bench.py --workload noise_sweep --seed 0 --seconds 20 --trace 0

Run from a ctxgames checkout; it imports ctxgames from ./src and writes
only under ./.bench_out. The workload (see workloads.py and NOTES.md) is
repeated until --seconds of timed work have passed; every repetition's
outputs are checked afterwards, outside the timed region.

--trace 0 reports the end-to-end metrics: rounds_per_s (median over
repetitions), setup_s (median over fresh set-up processes) and
peak_rss_mb. --trace 1 alternates plain and traced repetitions and
reports per-layer self times from spans recorded around the calls into
each ctxgames module (tracing.py). Both print a table, write
.bench_out/results/, and end with one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = Path(workloads.OUT) / "results"
SETUP_RUNS = {"full": 15, "smoke": 1}
PROBE_HORIZON = 1000  # horizon of the run whose trace memory is measured

END_TO_END = {"rounds_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "game.loss_us": "us/round", "game.loss_calls": "calls/round",
    "learning.round_us": "us/round", "learning.round_calls": "calls/round",
    "harness.loop_us": "us/round",
    "prediction.predict_us": "us/round", "prediction.predict_calls": "calls/round",
    "prediction.ledger_us": "us/round", "prediction.contexts_us": "us/round",
    "metrics.run_us": "us/round",
    "harness.csv_us": "us/round", "harness.write_us": "us/round",
    "harness.config_us": "us/round", "game.resolve_us": "us/round",
    "harness.other_us": "us/round",
    "harness.output_bytes_per_round": "bytes/round",
    "harness.useful_round_ratio": "ratio",
    "harness.trace_bytes_per_round": "bytes/round",
    "harness.config_ms": "ms/cell", "game.resolve_ms": "ms/cell",
    "game.resolves_per_cell": "count/cell",
    "trace.total_us": "us/round", "trace.overhead_ratio": "ratio",
    "trace.unmeasured_layers": "count",
}


def _import_ctxgames():
    src = ROOT / "src"
    if not (src / "ctxgames" / "__init__.py").is_file():
        sys.exit(f"run_bench: no ctxgames sources under {src}; run from a ctxgames checkout")
    sys.path.insert(0, str(src))
    import ctxgames
    from ctxgames import harness
    return ctxgames, harness


# ---------------------------------------------------------------------------
# One repetition per workload, and its check
# ---------------------------------------------------------------------------

def _rep_sweep(harness, wl, tracer):
    harness.run_sweep(harness.parse_config(wl.configs[0]), threads=1)


def _rep_grid(harness, wl, tracer):
    results = []
    for config, seed in zip(wl.configs, wl.run_seeds):
        if tracer:
            tracer.new_cell()
        try:
            _, rm, trace = harness.run_single(harness.parse_config(config), seed, write_files=False)
            results.append((rm, trace))
        except Exception as exc:  # cells are independent: a failing cell is counted, not fatal
            results.append(exc)
    return results


def _rep_run(harness, wl, tracer):
    if tracer:
        tracer.new_cell()
    harness.run_command(harness.parse_config(wl.configs[0]))


REPS = {"noise_sweep": _rep_sweep, "suite_grid": _rep_grid, "long_markov": _rep_run}


def _checker(harness, wl):
    """check(outcome, expected digests, deep) -> (attempted, failures, digests)."""
    import checks
    parsed = [harness.parse_config(c) for c in wl.configs]
    specs = [c.resolve_game() for c in parsed]
    if wl.name == "suite_grid":
        cells = list(zip(parsed, specs, wl.run_seeds))
        return wl.cells, lambda outcome, *args: checks.check_grid(cells, outcome, *args)
    check = checks.check_sweep if wl.name == "noise_sweep" else checks.check_run
    out_dir = parsed[0].output
    ops = wl.cells + 1
    return ops, lambda outcome, *args: check(parsed[0], specs[0], out_dir, *args)


def _pinned(wl, seed, size):
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(BENCH / "digests.json") as fh:
        return json.load(fh).get(size, {}).get(wl.name)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def measure_setup(name, seed, size, runs) -> list:
    """Seconds from spawning a fresh interpreter to its "ready" line."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), size],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode} before it was ready")
    return times


def trace_bytes_per_round(harness, wl) -> float:
    """Memory a returned trace keeps per round: what dropping it frees."""
    config = dict(wl.configs[0])
    config.pop("sweep", None)
    config["horizon"] = min(config["horizon"], PROBE_HORIZON)
    parsed = harness.parse_config(config)
    gc.collect()
    tracemalloc.start()
    try:
        trace = harness.run_single(parsed, wl.run_seeds[0], write_files=False)[2]
        held = tracemalloc.get_traced_memory()[0]
        del trace
        gc.collect()
        return (held - tracemalloc.get_traced_memory()[0]) / parsed.horizon
    finally:
        tracemalloc.stop()


def _output_bytes(out_dir) -> int:
    if not os.path.isdir(out_dir):
        return 0
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def run_reps(harness, wl, seconds, tracer, expected, check, ops, probe=None):
    """Repeat the workload for `seconds` of timed work (alternating plain and
    traced repetitions when tracing) and check every repetition: in full
    until one passes, then byte for byte against it. `probe`, if given,
    runs after each repetition, outside the timed region."""
    out_dir = os.path.join(workloads.OUT, wl.name)
    plain, traced, failures = [], [], []
    attempted = 0
    reference = expected
    verified = False
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        shutil.rmtree(out_dir, ignore_errors=True)
        error = outcome = None
        with tracer if use_tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                outcome = REPS[wl.name](harness, wl, tracer if use_tracer else None)
            except Exception as exc:  # a failed repetition counts all its operations
                error = exc
            elapsed = time.perf_counter() - t0
        (traced if use_tracer else plain).append(elapsed)
        if error is None:
            try:
                n, fails, digests = check(outcome, reference, not verified)
            except Exception as exc:  # e.g. an output file that is missing
                n, fails, digests = ops, [f"outputs: {type(exc).__name__}: {exc}"] * ops, None
            if not verified and not fails:
                verified = True
                reference = reference or digests
        else:
            n, fails = ops, [f"repetition: {type(error).__name__}: {error}"] * ops
        attempted += n
        failures += fails
        if probe is not None:
            probe()
        if sum(plain) + sum(traced) >= seconds and (tracer is None or traced):
            return plain, traced, attempted, failures, _output_bytes(out_dir)


def layer_metrics(tracer, wl, plain, traced, output_bytes, trace_bytes) -> dict:
    seconds, calls = tracing.totals_by_name(tracer.names, tracer.self_times())
    rounds = wl.rounds * len(traced)
    cells = wl.cells * len(traced)
    us = {f"{name}_us": 1e6 * seconds.get(name, 0.0) / rounds for name, _, _ in tracer.wraps}
    total_us = 1e6 * sum(traced) / rounds
    round_calls = calls.get("learning.round", 0)
    values = dict(us)
    values.update({
        "game.loss_calls": calls.get("game.loss", 0) / rounds,
        "learning.round_calls": round_calls / rounds,
        "prediction.predict_calls": calls.get("prediction.predict", 0) / rounds,
        "harness.other_us": total_us - sum(us.values()),
        "harness.output_bytes_per_round": output_bytes / wl.rounds,
        "harness.useful_round_ratio": rounds / round_calls if round_calls else 0.0,
        "harness.trace_bytes_per_round": trace_bytes,
        "harness.config_ms": 1e3 * seconds.get("harness.config", 0.0) / cells,
        "game.resolve_ms": 1e3 * seconds.get("game.resolve", 0.0) / cells,
        "game.resolves_per_cell": calls.get("game.resolve", 0) / cells,
        "trace.total_us": total_us,
        "trace.overhead_ratio": (sum(traced) / len(traced)) / (sum(plain) / len(plain)),
        "trace.unmeasured_layers": len(tracer.unmeasured),
    })
    return values


def _quartiles(values) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="smoke: a tiny sizing for tests")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    ctxgames, harness = _import_ctxgames()
    import numpy as np

    wl = workloads.make(args.workload, args.seed, args.size)
    ops, check = _checker(harness, wl)
    tracer = tracing.Tracer() if args.trace else None
    # Set-up probes are spread over the run, one after each repetition, so
    # they see the same machine as the repetitions do.
    setup = []
    probe = None if args.trace else lambda: setup.extend(measure_setup(wl.name, args.seed, args.size, 1))
    plain, traced, attempted, failures, output_bytes = run_reps(
        harness, wl, args.seconds, tracer, _pinned(wl, args.seed, args.size), check, ops, probe)
    if not args.trace and len(setup) < SETUP_RUNS[args.size]:
        setup += measure_setup(wl.name, args.seed, args.size, SETUP_RUNS[args.size] - len(setup))

    rates = [wl.rounds / t for t in plain]
    if args.trace:
        values = layer_metrics(tracer, wl, plain, traced, output_bytes,
                               trace_bytes_per_round(harness, wl))
        units = PER_LAYER
    else:
        values = {
            "rounds_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    fail_ratio = len(failures) / attempted

    print(f"workload {wl.name}, seed {args.seed}, size {args.size}: {wl.shape}")
    print(f"  {wl.rounds} configured rounds per repetition; {len(plain)} plain"
          + (f" and {len(traced)} traced" if traced else "") + " repetitions")
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    if not args.trace:
        q1, _, q3 = _quartiles(rates)
        print(f"    rounds_per_s quartiles {q1:.6g} .. {q3:.6g} over {len(rates)} repetitions; "
              f"setup_s over {len(setup)} fresh processes")
    print(f"  {'fail_ratio':32s} {fail_ratio:14.6g} ratio ({len(failures)} of {attempted} operations)")
    if tracer is not None and tracer.unmeasured:
        print("  unmeasured layers (wrap target missing): " + ", ".join(tracer.unmeasured))
    for message in failures[:10]:
        print(f"  FAILED {message}", file=sys.stderr)

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-{args.size}-trace{args.trace}"
    if tracer is not None:
        tracer.write_csv(RESULTS / f"{stem}-spans.csv")
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({
            "workload": wl.name, "seed": args.seed, "size": args.size, "shape": wl.shape,
            "rounds_per_repetition": wl.rounds, "cells_per_repetition": wl.cells,
            "plain_seconds": plain, "traced_seconds": traced, "setup_seconds": setup,
            "metrics": metrics,
            "fail_ratio": fail_ratio, "failures": failures,
            "unmeasured_layers": tracer.unmeasured if tracer else [],
            "manifest": {"nproc": os.cpu_count(), "python": platform.python_version(),
                         "numpy": np.__version__, "ctxgames": ctxgames.__version__,
                         "platform": platform.platform()},
        }, fh, indent=1)

    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
