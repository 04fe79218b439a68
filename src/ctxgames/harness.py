"""End-to-end experiment runner.

Builds a game from a file, an inline definition, or a named generator,
drives the round loop (nature picks a context, predictors guess it,
players play routed strategies and update), and writes per-round traces
plus a per-run summary CSV. Sweeps repeat that over a noise or step-size
axis across seeds, cells fully independent.

All randomness is derived from (config, run seed): declared seeds in the
config act as salts that are mixed with the run seed, so the pair
(config digest, seed) determines every output byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .game import GameSpec, GameSpecError, game_from_dict, load_game_file
from .learning import play_routed
from .metrics import (
    MetricsError,
    RunMetrics,
    Trace,
    _as_arrays,
    _row_dots,
    compute_run_metrics,
    eta_rule,
)
from .prediction import (
    ContextProcessConfig,
    PredictionError,
    PredictorConfig,
    generate_contexts,
    predict_run,
)

SCHEMA_VERSION = 1
FLOAT_FMT = "%.12g"
CSV_BLOCK = 256  # trace rows formatted at a time, bounding the Python floats alive at once


class ConfigError(ValueError):
    """Invalid run configuration; messages carry the offending field path."""


def _mix64(*parts: int) -> int:
    """Stable 64-bit mix of integer parts (splitmix-style finalizer)."""
    h = 0x9E3779B97F4A7C15
    for part in parts:
        h ^= (part & 0xFFFFFFFFFFFFFFFF) + 0x9E3779B97F4A7C15 + ((h << 6) & 0xFFFFFFFFFFFFFFFF) + (h >> 2)
        h &= 0xFFFFFFFFFFFFFFFF
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
    return h


# ---------------------------------------------------------------------------
# Named game generators
# ---------------------------------------------------------------------------

def random_bilinear_game(seed: int, players: int = 2, actions: int = 3,
                         dim: int = 3, contexts: int = 2, margin: float = 0.95) -> GameSpec:
    """Dense random game: uniform features and context vectors, rescaled so
    the largest |<feature, context>| equals `margin` (< 1 keeps float
    headroom against the bounded-cost check)."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(-1.0, 1.0, size=(players, actions**players, dim))
    ctx = rng.uniform(-1.0, 1.0, size=(contexts, dim))
    peak = np.abs(features @ ctx.T).max()
    features *= margin / peak
    return GameSpec(players, actions, dim, features, ctx)


def zero_sum_game(actions: int = 2, scale: float = 0.9, seed=None) -> GameSpec:
    """Two-player zero-sum game with a single context.

    Without a seed, the payoff matrix is the K x K match/mismatch matrix
    (diagonal +1, off-diagonal -1/(K-1), times `scale`), whose unique
    equilibrium is uniform play for both players. With a seed, the matrix
    is uniform random in [-scale, scale].
    """
    if seed is None:
        matrix = np.full((actions, actions), -scale / (actions - 1))
        np.fill_diagonal(matrix, scale)
    else:
        matrix = np.random.default_rng(seed).uniform(-scale, scale, size=(actions, actions))
    features = np.stack([matrix, -matrix]).reshape(2, actions * actions, 1)
    return GameSpec(2, actions, 1, features, np.array([[1.0]]))


def opposed_contexts_game(actions: int = 3, scale: float = 0.9) -> GameSpec:
    """Two-player, two-context demo where the contexts invert each other's
    preferred action.

    Features are one-hot in each player's own action, so loss vectors are
    constant within a context; context 0 rewards action 0 and punishes
    action 1, context 1 does the opposite. Routing play through the wrong
    context's learner is therefore visibly costly while within-context
    variation stays exactly zero.
    """
    eye = np.eye(actions)  # joint action a * K + b: player 0 sees e_a, player 1 e_b
    features = np.stack([np.repeat(eye, actions, axis=0), np.tile(eye, (actions, 1))])
    z0 = np.zeros(actions)
    z0[0], z0[1] = -scale, scale
    return GameSpec(2, actions, actions, features, np.stack([z0, -z0]))


GENERATORS = {
    "random_bilinear": random_bilinear_game,
    "zero_sum_2p": zero_sum_game,
    "opposed_contexts": opposed_contexts_game,
}
# smallest value of each integer generator parameter
GENERATOR_MINIMUMS = {"players": 2, "actions": 2, "dim": 1, "contexts": 1}


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    axis: str  # "p" or "eta"
    values: tuple


@dataclass(frozen=True)
class RunConfig:
    game: dict
    horizon: int
    eta: object  # float or "rule"
    context_process: ContextProcessConfig
    predictors: tuple[PredictorConfig, ...]
    seeds: tuple[int, ...]
    output: str
    sweep: SweepConfig | None = None
    raw: dict = None

    def resolve_game(self) -> GameSpec:
        return _resolve_game(self.game)


def _resolve_game(source: dict) -> GameSpec:
    if "path" in source:
        return load_game_file(source["path"])
    if "inline" in source:
        return game_from_dict(source["inline"])
    if "generator" in source:
        name = _require(source["generator"], "name", "game.generator.")
        params = {k: v for k, v in source["generator"].items() if k != "name"}
        if name not in GENERATORS:
            raise ConfigError(f"game.generator.name: unknown generator {name!r}")
        for key, value in params.items():
            path = f"game.generator.{key}"
            if key in GENERATOR_MINIMUMS and _number(value, path, integer=True) < GENERATOR_MINIMUMS[key]:
                raise ConfigError(f"{path}: must be at least {GENERATOR_MINIMUMS[key]}, got {value}")
            if isinstance(value, bool):
                raise ConfigError(f"{path}: must be a number, got {value!r}")
        try:
            return GENERATORS[name](**params)
        except TypeError as exc:
            raise ConfigError(f"game.generator: {exc}") from exc
    raise ConfigError("game: must provide one of path, inline, generator")


def _require(data: dict, key: str, path: str):
    """data[key], where `path` (ending in ".") names the object `data`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path[:-1]}: must be an object, got {data!r}")
    if key not in data:
        raise ConfigError(f"{path}{key}: missing required field")
    return data[key]


def _number(value, path: str, integer: bool = False):
    """`value` if it is a JSON number (an integer when `integer`), never a bool."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(f"{path}: must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}")
    return value


def parse_config(data: dict) -> RunConfig:
    """Validate a raw config dict and normalize it into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config: must be a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")

    game = _require(data, "game", "")
    if not isinstance(game, dict):
        raise ConfigError("game: must be an object")

    horizon = _number(_require(data, "horizon", ""), "horizon", integer=True)
    if horizon < 1:
        raise ConfigError(f"horizon: must be a positive integer, got {horizon!r}")

    eta = data.get("eta", "rule")
    if eta != "rule":
        eta = float(_number(eta, "eta"))
        if not 0.0 < eta <= 1.0:
            raise ConfigError(f"eta: must be in (0, 1], got {eta}")

    process_raw = _require(data, "context_process", "")
    kind = _require(process_raw, "kind", "context_process.")
    seed = _number(process_raw.get("seed", 0), "context_process.seed", integer=True)
    try:
        process = ContextProcessConfig(
            kind=kind,
            transition=process_raw.get("transition", ()),
            sequence=process_raw.get("sequence", ()),
            seed=seed,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"context_process: {exc}") from exc

    predictors_raw = _require(data, "predictors", "")
    if isinstance(predictors_raw, dict):
        predictors_raw = [predictors_raw]
    if not isinstance(predictors_raw, list) or not predictors_raw:
        raise ConfigError("predictors: must list at least one predictor")
    predictors = []
    for i, entry in enumerate(predictors_raw):
        path = f"predictors[{i}]"
        kind = _require(entry, "kind", path + ".")
        p = float(_number(entry.get("p", 0.0), path + ".p"))
        seed = _number(entry.get("seed", 0), path + ".seed", integer=True)
        try:
            predictors.append(PredictorConfig(
                kind=kind, p=p, sequence=entry.get("sequence", ()), seed=seed,
                shared_stream=bool(entry.get("shared_stream", False)),
            ))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    seeds = data.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds: must be a nonempty list of integers")
    seeds = tuple(_number(s, f"seeds[{i}]", integer=True) for i, s in enumerate(seeds))

    sweep = None
    if data.get("sweep") is not None:
        sweep_raw = data["sweep"]
        axis = _require(sweep_raw, "axis", "sweep.")
        if axis not in ("p", "eta"):
            raise ConfigError(f"sweep.axis: must be 'p' or 'eta', got {axis!r}")
        values = _require(sweep_raw, "values", "sweep.")
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep.values: must be a nonempty list")
        sweep = SweepConfig(axis=axis, values=tuple(
            float(_number(v, f"sweep.values[{i}]")) for i, v in enumerate(values)))

    config = RunConfig(game=game, horizon=horizon, eta=eta, context_process=process,
                       predictors=tuple(predictors), seeds=seeds,
                       output=str(data.get("output", "out")), sweep=sweep, raw=data)
    _validate_against_game(config)
    return config


def _validate_against_game(config: RunConfig) -> None:
    try:
        spec = config.resolve_game()
    except GameSpecError as exc:
        raise ConfigError(f"game: {exc}") from exc
    predictors = _broadcast_predictors(config, spec)
    for i, pred in enumerate(predictors):
        try:
            pred.validate(spec.num_contexts, config.horizon)
        except PredictionError as exc:
            raise ConfigError(f"predictors[{i}]: {exc}") from exc
    try:
        config.context_process.validate(spec.num_contexts, config.horizon)
    except PredictionError as exc:
        raise ConfigError(f"context_process.{exc}") from exc


def _broadcast_predictors(config: RunConfig, spec: GameSpec) -> tuple:
    preds = config.predictors
    if len(preds) == 1 and spec.num_players > 1:
        return tuple(preds[0] for _ in range(spec.num_players))
    if len(preds) != spec.num_players:
        raise ConfigError(
            f"predictors: expected 1 or {spec.num_players} entries, got {len(preds)}"
        )
    return preds


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file: invalid JSON ({exc})") from exc
    return parse_config(data)


def canonical_config(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_digest(data: dict) -> str:
    # The output directory says where results land, not what the run is.
    semantic = {k: v for k, v in data.items() if k != "output"}
    return hashlib.sha256(canonical_config(semantic).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------

def _effective_predictor(pred: PredictorConfig, run_seed: int) -> PredictorConfig:
    """Mix the run seed into the predictor's declared stream salt."""
    if pred.kind != "noisy":
        return pred
    return replace(pred, seed=_mix64(run_seed, pred.seed, 0xA11CE))


def _effective_process(process: ContextProcessConfig, run_seed: int) -> ContextProcessConfig:
    if process.kind != "markov":
        return process
    return replace(process, seed=_mix64(run_seed, process.seed, 0xC0117E))


def simulate(spec: GameSpec, horizon: int, eta: float, contexts_seq, predictors) -> Trace:
    """Play one run: every round's predictions first, from the context
    sequence, then the round kernel on in-place learner state. The trace
    holds the kernel's arrays without copying them."""
    contexts = np.asarray(contexts_seq[:horizon], dtype=np.int64)
    predictions = predict_run(predictors, contexts, spec.num_contexts)
    return Trace(contexts, predictions, *play_routed(spec, eta, contexts, predictions))


def _pick_eta(config: RunConfig, spec: GameSpec, contexts_seq, predictors):
    """Explicit eta, or the two-pass rule: pilot at eta = 1, then apply the
    step-size rule to the measured mistake and variation totals. Returns
    (eta, pilot), pilot being the eta = 1 run's (trace, metrics) or None."""
    if config.eta != "rule":
        return float(config.eta), None
    pilot_trace = simulate(spec, config.horizon, 1.0, contexts_seq, predictors)
    pilot = compute_run_metrics(pilot_trace, 1.0, spec.num_contexts, config.horizon)
    mean_mistakes = float(np.mean(pilot.mistakes))
    mean_sum_var = float(np.mean([sum(v) for v in pilot.variation]))
    eta = eta_rule(spec.num_contexts, spec.num_actions, mean_mistakes, mean_sum_var)
    return eta, (pilot_trace, pilot)


def run_single(config: RunConfig, seed: int, out_dir=None, sweep_value=None,
               write_files: bool = True):
    """Execute one run; optionally write trace/config files.

    Returns (trace_path, RunMetrics, trace). trace_path is None when
    write_files is false.
    """
    spec = config.resolve_game()
    predictors = tuple(
        _effective_predictor(p, seed) for p in _broadcast_predictors(config, spec)
    )
    process = _effective_process(config.context_process, seed)
    contexts_seq = generate_contexts(process, spec.num_contexts, config.horizon)

    eta, pilot = _pick_eta(config, spec, contexts_seq, predictors)
    if pilot is not None and eta == 1.0:
        # The rule kept the pilot's own step size: a second pass would replay it.
        trace, run_metrics = pilot
    else:
        trace = simulate(spec, config.horizon, eta, contexts_seq, predictors)
        run_metrics = compute_run_metrics(trace, eta, spec.num_contexts, config.horizon)

    trace_path = None
    if write_files:
        out_dir = out_dir or config.output
        os.makedirs(out_dir, exist_ok=True)
        run_id = _run_id(config, seed, sweep_value)
        trace_path = os.path.join(out_dir, f"trace_{run_id}.csv")
        text = _trace_csv(trace, run_metrics)
        _write_atomic(trace_path, text)
        if pilot is not None:
            pilot_path = os.path.join(out_dir, f"trace_{run_id}_pilot.csv")
            _write_atomic(pilot_path, text if pilot[0] is trace else _trace_csv(*pilot))
    return trace_path, run_metrics, trace


def _run_id(config: RunConfig, seed: int, sweep_value=None) -> str:
    payload = dict(config.raw or {})
    if sweep_value is not None:
        payload = dict(payload, _sweep_value=sweep_value)
    return f"{config_digest(payload)}_s{seed}"


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    return str(value)


def _write_atomic(path: str, text: str) -> None:
    """Write through a temp file private to this process and thread, then
    rename it over `path`, so concurrent writers of one path never share
    a temp file and no temp file outlives the call."""
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _start_output(config: RunConfig, out_dir: str) -> None:
    """Create the output directory and write config_echo.json into it."""
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(
        os.path.join(out_dir, "config_echo.json"),
        json.dumps({"digest": config_digest(config.raw), "config": config.raw},
                   sort_keys=True, indent=2) + "\n",
    )


def _trace_csv(trace, run_metrics: RunMetrics) -> str:
    """Trace CSV text: one row per round, each made by one `%` on a
    prebuilt row format from a block of the run's columns stacked into
    float64 (counts and flags are exact in it). inst_regret is taken
    against the metric pass's per-context comparators."""
    contexts, predictions, strategies, losses = _as_arrays(trace)
    T, J, K = strategies.shape
    best = np.asarray(run_metrics.comparators)
    point_masses = np.eye(K)

    header = ["t", "Z"]
    columns = [np.arange(1, T + 1), contexts]
    for j in range(J):
        header += [f"zhat_p{j}", f"miss_p{j}", *(f"w_p{j}_a{k}" for k in range(K)),
                   *(f"l_p{j}_a{k}" for k in range(K)), f"inst_regret_p{j}"]
        inst = _row_dots(strategies[:, j] - point_masses[best[j, contexts]], losses[:, j])
        columns += [predictions[:, j], predictions[:, j] != contexts,
                    strategies[:, j], losses[:, j], inst]
    row = "%d,%d" + ",".join(["", "%d", "%d"] + [FLOAT_FMT] * (2 * K + 1)) * J

    blocks = [",".join(header)]
    for start in range(0, T, CSV_BLOCK):
        table = np.column_stack([c[start:start + CSV_BLOCK] for c in columns])
        blocks.append("\n".join([row % values for values in map(tuple, table.tolist())]))
    return "\n".join(blocks) + "\n"


def summary_header(num_players: int, num_contexts: int) -> list:
    cols = ["run_id", "seed", "players", "actions", "contexts", "horizon", "eta", "noise_p"]
    cols += [f"mistakes_p{j}" for j in range(num_players)]
    cols += [f"ctx_regret_p{j}" for j in range(num_players)]
    cols += [f"ext_regret_p{j}" for j in range(num_players)]
    for j in range(num_players):
        cols += [f"var_p{j}_z{z}" for z in range(num_contexts)]
    for j in range(num_players):
        cols += [f"term_a_p{j}", f"term_b_p{j}", f"term_c_p{j}",
                 f"bound_total_p{j}", f"bound_slack2_p{j}"]
    cols += ["total_bound_ok", "slack2_bound_ok", "cce_epsilon", "cce_bound_sum",
             "cce_bound_max", "sweep_value", "status"]
    return cols


def summary_row(run_id: str, seed, rm: RunMetrics, noise_p: float,
                sweep_value=None, status: str = "ok") -> list:
    row = [run_id, seed, rm.num_players, rm.num_actions, rm.num_contexts,
           rm.horizon, rm.eta, noise_p]
    row += list(rm.mistakes)
    row += list(rm.contextual_regret)
    row += list(rm.external_regret)
    for j in range(rm.num_players):
        row += list(rm.variation[j])
    for j in range(rm.num_players):
        b = rm.bounds[j]
        row += [b.term_a, b.term_b, b.term_c, b.total, b.total_slack2]
    row += [all(rm.total_bound_ok), all(rm.slack2_bound_ok),
            rm.cce_epsilon, rm.cce_bound_sum, rm.cce_bound_max,
            "" if sweep_value is None else sweep_value, status]
    return row


def _config_noise_p(predictors) -> float:
    """Largest noise level among the predictors (broadcasting repeats one
    entry, so the configured entries suffice)."""
    ps = [p.p for p in predictors if p.kind == "noisy"]
    return max(ps) if ps else 0.0


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def apply_sweep_value(config: RunConfig, value: float) -> RunConfig:
    """Cell config for one sweep value (noise p or step size eta)."""
    if config.sweep is None:
        raise ConfigError("sweep: no sweep axis configured")
    if config.sweep.axis == "eta":
        if not 0.0 < value <= 1.0:
            raise ConfigError(f"sweep.values: eta {value} outside (0, 1]")
        return replace(config, eta=float(value))
    if not any(p.kind == "noisy" for p in config.predictors):
        raise ConfigError("sweep.axis 'p' requires at least one noisy predictor")
    return replace(config, predictors=tuple(
        replace(p, p=float(value)) if p.kind == "noisy" else p for p in config.predictors))


def _sweep_cell(raw_config: dict, value: float, seed: int, out_dir: str):
    """Worker entry point; re-parses the config so cells pickle cleanly."""
    try:
        config = parse_config(raw_config)
        cell = apply_sweep_value(config, value) if config.sweep else config
        run_id = _run_id(cell, seed, sweep_value=value)
        _, rm, _ = run_single(cell, seed, out_dir=out_dir, sweep_value=value)
        noise_p = value if (config.sweep and config.sweep.axis == "p") \
            else _config_noise_p(cell.predictors)
        return value, seed, summary_row(run_id, seed, rm, noise_p, sweep_value=value), None
    except (ConfigError, MetricsError, GameSpecError, PredictionError,
            ValueError, OSError) as exc:
        return value, seed, None, f"{type(exc).__name__}: {exc}"


def run_sweep(config: RunConfig, threads: int = 1):
    """Run every (sweep value, seed) cell and write summary.csv.

    Returns (summary path, number of failed cells). Cells are independent;
    the summary writer is the single serialization point and rows keep the
    fixed (sweep value, seed) order regardless of completion order.
    """
    if config.sweep is None:
        raise ConfigError("sweep: config has no sweep axis")
    out_dir = config.output
    _start_output(config, out_dir)

    cells = [(value, seed) for value in config.sweep.values for seed in config.seeds]
    args = [(config.raw, value, seed, out_dir) for value, seed in cells]
    if threads > 1:
        # imported here: it pulls in logging, which serial runs never need
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_sweep_cell, *zip(*args)))
    else:
        outcomes = [_sweep_cell(*cell_args) for cell_args in args]
    results = {(value, seed): (row, error) for value, seed, row, error in outcomes}

    spec = config.resolve_game()
    header = summary_header(spec.num_players, spec.num_contexts)
    lines = [",".join(header)]
    failures = 0
    numeric_rows = {}
    for value, seed in cells:
        row, error = results[(value, seed)]
        if error is not None:
            failures += 1
            stub = ["failed", seed] + [""] * (len(header) - 4) + [value, f"error:{error}"]
            lines.append(",".join(_fmt(v) for v in stub))
            continue
        lines.append(",".join(_fmt(v) for v in row))
        numeric_rows.setdefault(value, []).append(row)

    # Per-value mean / stderr block over seeds, numeric columns only.
    for value in config.sweep.values:
        rows = numeric_rows.get(value, [])
        for stat in ("mean", "stderr") if rows else ():
            agg = [f"{stat}[{_fmt(value)}]", ""]
            for col in range(2, len(header) - 1):
                values = [r[col] for r in rows]
                if not all(isinstance(v, (bool, int, float, np.integer, np.floating)) for v in values):
                    agg.append("")
                    continue
                arr = np.asarray([float(v) for v in values])
                agg.append(arr.mean() if stat == "mean" else
                           arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0)
            lines.append(",".join(_fmt(v) for v in agg + [f"agg_{stat}"]))

    summary_path = os.path.join(out_dir, "summary.csv")
    _write_atomic(summary_path, "\n".join(lines) + "\n")
    return summary_path, failures


def run_command(config: RunConfig, seed=None, out_dir=None):
    """Single-run entry point used by the CLI run verb; also writes a
    one-row summary.csv next to the trace."""
    out_dir = out_dir or config.output
    _start_output(config, out_dir)
    seed = config.seeds[0] if seed is None else int(seed)
    trace_path, rm, _ = run_single(config, seed, out_dir=out_dir)
    run_id = _run_id(config, seed)
    header = summary_header(rm.num_players, rm.num_contexts)
    row = summary_row(run_id, seed, rm, _config_noise_p(config.predictors))
    text = ",".join(header) + "\n" + ",".join(_fmt(v) for v in row) + "\n"
    _write_atomic(os.path.join(out_dir, "summary.csv"), text)
    return trace_path, rm
