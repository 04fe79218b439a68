"""Correctness checks on one repetition's outputs, run outside the timed region.

An operation is one cell (one run), or the summary a sweep or run writes
next to its traces. Each check returns (operations attempted, one message
per failed operation, digests). A failed operation is a cell that raised,
or an output that is wrong:

- deep (the first repetition): stored losses must match a fresh
  `metrics.verify_trace`, sampled rounds must match
  `oracle.brute_expected_cost`, and mistake counts must match the trace;
- always: every digest must match `expected`, which is digests.json at the
  pinned seed and size and otherwise the first repetition's digests, so a
  later repetition is checked by being byte-identical to a verified one.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
from ctxgames.game import JointProfile, LossVector, MixedStrategy
from ctxgames.harness import summary_header, summary_row
from ctxgames.metrics import RoundRecord, verify_trace
from ctxgames.oracle import brute_expected_cost

CSV_TOL = 1e-9  # trace files store 12 significant digits
ORACLE_SAMPLES = 8


class CheckError(Exception):
    pass


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _fmt(value) -> str:
    """Summary cell formatting, as in the CSV files ctxgames writes."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % value
    return str(value)


def read_trace(path, num_players: int, num_actions: int) -> list:
    """RoundRecords from a trace_*.csv file, checking its round numbers
    and miss flags on the way."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    width = 2 + num_players * (3 + 2 * num_actions)
    records = []
    for t, line in enumerate(lines[1:]):
        cols = line.split(",")
        if len(cols) != width or int(cols[0]) != t + 1:
            raise CheckError(f"{os.path.basename(path)} row {t + 1}: malformed")
        z = int(cols[1])
        preds, strategies, losses = [], [], []
        for j in range(num_players):
            base = 2 + j * (3 + 2 * num_actions)
            pred = int(cols[base])
            if int(cols[base + 1]) != int(pred != z):
                raise CheckError(f"{os.path.basename(path)} row {t + 1}: miss flag wrong")
            preds.append(pred)
            strategies.append(MixedStrategy(np.array(cols[base + 2:base + 2 + num_actions], float)))
            losses.append(LossVector(np.array(cols[base + 2 + num_actions:base + 2 + 2 * num_actions], float)))
        records.append(RoundRecord(t, z, tuple(preds), JointProfile(tuple(strategies)), tuple(losses)))
    return records


def check_records(records, spec, horizon: int, tol: float) -> tuple:
    """Re-derive a trace's losses and cross-check sampled rounds against the
    brute-force oracle; returns the per-player mistake counts."""
    if len(records) != horizon:
        raise CheckError(f"trace has {len(records)} rounds, expected {horizon}")
    verify_trace(records, spec, tol=tol)
    for i in range(ORACLE_SAMPLES):
        r = records[i * horizon // ORACLE_SAMPLES]
        for j in range(spec.num_players):
            fast = float(np.dot(r.strategies[j].probs, r.losses[j].values))
            slow = brute_expected_cost(spec, j, r.strategies, r.realized_context)
            if abs(fast - slow) > tol:
                raise CheckError(f"round {r.round_index} player {j}: cost {fast!r} != oracle {slow!r}")
    return tuple(sum(r.predictions[j] != r.realized_context for r in records)
                 for j in range(spec.num_players))


def _digests(out_dir) -> dict:
    return {name: sha256_file(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))}


def _digest_problems(digests: dict, names, expected) -> list:
    if expected is None:
        return []
    return [f"{name}: digest {digests.get(name)} != {expected.get(name)}"
            for name in names if digests.get(name) != expected.get(name)]


def _read_summary(path, spec) -> tuple[list, list]:
    header = summary_header(spec.num_players, spec.num_contexts)
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[0] != ",".join(header):
        raise CheckError("summary.csv: header differs")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _mistakes(header, row, num_players) -> tuple:
    return tuple(int(row[header.index(f"mistakes_p{j}")]) for j in range(num_players))


def _op(failures: list, label: str, check) -> None:
    """Run one operation's check; any exception is that operation's failure."""
    try:
        problems = check()
    except Exception as exc:  # every error of a check counts as a failure
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        failures.append(f"{label}: " + "; ".join(problems))


def check_sweep(config, spec, out_dir, expected, deep) -> tuple[int, list, dict]:
    """Outputs of run_sweep: one operation per cell plus its summary."""
    cells = [(v, s) for v in config.sweep.values for s in config.seeds]
    digests = _digests(out_dir)
    header, rows = _read_summary(os.path.join(out_dir, "summary.csv"), spec)
    status = header.index("status")
    failures = []
    for n, (value, seed) in enumerate(cells):
        def cell(n=n, value=value, seed=seed):
            row = rows[n]
            if row[status] != "ok":
                return [f"status {row[status]}"]
            if (int(row[1]), float(row[header.index("sweep_value")])) != (seed, value):
                return ["summary row out of order"]
            name = f"trace_{row[0]}.csv"
            problems = _digest_problems(digests, [name], expected)
            if deep:
                records = read_trace(os.path.join(out_dir, name), spec.num_players, spec.num_actions)
                found = check_records(records, spec, config.horizon, CSV_TOL)
                if found != _mistakes(header, row, spec.num_players):
                    problems.append(f"mistakes {found} disagree with summary")
            return problems
        _op(failures, f"cell {n} (p={value}, seed={seed})", cell)

    def summary():
        aggregates = [r[status] for r in rows[len(cells):]]
        problems = []
        if aggregates != ["agg_mean", "agg_stderr"] * len(config.sweep.values):
            problems.append("summary.csv: aggregate rows missing")
        problems += _config_echo_problems(out_dir, config)
        if expected is not None and sorted(expected) != sorted(digests):
            problems.append(f"files {sorted(digests)} != {sorted(expected)}")
        return problems + _digest_problems(digests, ["summary.csv", "config_echo.json"], expected)
    _op(failures, "summary", summary)
    return len(cells) + 1, failures, digests


def check_run(config, spec, out_dir, expected, deep) -> tuple[int, list, dict]:
    """Outputs of run_command: the cell (trace and pilot trace) plus its summary."""
    digests = _digests(out_dir)
    header, rows = _read_summary(os.path.join(out_dir, "summary.csv"), spec)
    failures = []
    found = []

    def cell():
        run_id = rows[0][0]
        names = [f"trace_{run_id}.csv"] + ([f"trace_{run_id}_pilot.csv"] if config.eta == "rule" else [])
        for name in names if deep else ():
            records = read_trace(os.path.join(out_dir, name), spec.num_players, spec.num_actions)
            found.append(check_records(records, spec, config.horizon, CSV_TOL))
        return _digest_problems(digests, names, expected)
    _op(failures, "cell 0", cell)

    def summary():
        problems = []
        if len(rows) != 1 or rows[0][header.index("status")] != "ok":
            problems.append("summary.csv: expected one ok row")
        elif found and found[0] != _mistakes(header, rows[0], spec.num_players):
            problems.append(f"mistakes {found[0]} disagree with summary")
        problems += _config_echo_problems(out_dir, config)
        if expected is not None and sorted(expected) != sorted(digests):
            problems.append(f"files {sorted(digests)} != {sorted(expected)}")
        return problems + _digest_problems(digests, ["summary.csv", "config_echo.json"], expected)
    _op(failures, "summary", summary)
    return 2, failures, digests


def _config_echo_problems(out_dir, config) -> list:
    with open(os.path.join(out_dir, "config_echo.json")) as fh:
        echo = json.load(fh)
    return [] if echo.get("config") == config.raw else ["config_echo.json: config differs"]


def check_grid(cells, results, expected, deep) -> tuple[int, list, dict]:
    """In-memory results of parse_config + run_single: `cells` holds each
    cell's (config, spec, run seed), `results` its (run metrics, trace) or
    the exception it raised. A cell's digest covers its summary row and
    every stored prediction, strategy and loss."""
    failures = []
    digests = {}
    for n, ((config, spec, seed), item) in enumerate(zip(cells, results)):
        def cell(n=n, config=config, spec=spec, seed=seed, item=item):
            if isinstance(item, BaseException):
                raise item
            rm, trace = item
            problems = []
            if deep:
                found = check_records(trace, spec, config.horizon, 1e-12)
                if found != rm.mistakes:
                    problems.append(f"mistakes {found} != {rm.mistakes}")
            noise_p = max([p.p for p in config.predictors if p.kind == "noisy"], default=0.0)
            row = ",".join(_fmt(v) for v in summary_row(f"cell{n}", seed, rm, noise_p))
            digest = hashlib.sha256(row.encode())
            for r in trace:
                digest.update(repr((r.realized_context, r.predictions)).encode())
                for w, ell in zip(r.strategies.strategies, r.losses):
                    digest.update(w.probs.tobytes())
                    digest.update(ell.values.tobytes())
            digests[f"cell{n}"] = digest.hexdigest()
            return problems + _digest_problems(digests, [f"cell{n}"], expected)
        _op(failures, f"cell {n}", cell)
    return len(cells), failures, digests
