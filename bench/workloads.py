"""Workload generators for the ctxgames benchmark.

Each workload is a pure function of (seed, size): the seed only picks the
integer seeds inside the configs (run seeds, predictor and Markov stream
salts, game seeds), never a shape, so every seed does the same amount of
work. The configs are plain dicts, exactly what `parse_config` accepts.
This module does not import ctxgames.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Seeds whose output digests are pinned in digests.json.
DEFAULT_SEED = 0

OUT = ".bench_out"

# Per size: noise_sweep (run seeds, horizon), suite_grid horizon,
# long_markov horizon.
SIZES = {
    "full": {"sweep_seeds": 2, "sweep_horizon": 600, "grid_horizon": 200,
             "markov_horizon": 5000},
    "smoke": {"sweep_seeds": 1, "sweep_horizon": 20, "grid_horizon": 8,
              "markov_horizon": 40},
}

NOISE_VALUES = [0.0, 0.1, 0.3, 0.5, 0.7]
GRID = list(itertools.product((2, 3, 4), (1, 2, 3), (0.1, 0.5, 1.0), ("oracle", "noisy")))
OPPOSED = {"generator": {"name": "opposed_contexts", "actions": 3, "scale": 0.9}}


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple   # config dicts handed to parse_config, one per call
    run_seeds: tuple  # every run seed the workload uses, in cell order
    cells: int       # runs per repetition
    rounds: int      # configured rounds per repetition (cells x horizon)
    shape: str       # input shape, printed next to rounds_per_s

    @property
    def setup_config(self) -> dict:
        """The config parsed before the first round can run."""
        return self.configs[0]


def noise_sweep(seed: int, size: str = "full") -> Workload:
    """Shape of configs/noise_sweep.json: opposed-contexts game, J=2, K=3,
    m=2, cycle contexts, noisy predictor swept over p x run seeds."""
    s = SIZES[size]
    rng = random.Random(f"noise_sweep:{seed}")
    run_seeds = rng.sample(range(1, 2**31), s["sweep_seeds"])
    config = {
        "schema_version": 1,
        "game": OPPOSED,
        "horizon": s["sweep_horizon"],
        "eta": 0.5,
        "context_process": {"kind": "cycle"},
        "predictors": [{"kind": "noisy", "p": 0.0, "seed": rng.randrange(2**31)}],
        "seeds": run_seeds,
        "sweep": {"axis": "p", "values": NOISE_VALUES},
        "output": f"{OUT}/noise_sweep",
    }
    cells = len(NOISE_VALUES) * len(run_seeds)
    return Workload(
        "noise_sweep", (config,), tuple(run_seeds), cells, cells * s["sweep_horizon"],
        f"run_sweep threads=1, opposed_contexts J=2 K=3 m=2 cycle, noisy p in "
        f"{NOISE_VALUES} x {len(run_seeds)} seeds = {cells} cells x T={s['sweep_horizon']}",
    )


def suite_grid(seed: int, size: str = "full") -> Workload:
    """The acceptance suite200 grid, one cell per (K, m, eta, kind):
    random_bilinear J=2 d=3, cycle contexts, oracle or noisy p=0.3 (oracle
    when m=1, since p > 0 needs two contexts)."""
    horizon = SIZES[size]["grid_horizon"]
    rng = random.Random(f"suite_grid:{seed}")
    configs, run_seeds = [], []
    for K, m, eta, kind in GRID:
        if kind == "noisy" and m < 2:
            kind = "oracle"
        predictor = ({"kind": "oracle"} if kind == "oracle"
                     else {"kind": "noisy", "p": 0.3, "seed": rng.randrange(2**31)})
        run_seed = rng.randrange(1, 2**31)
        configs.append({
            "game": {"generator": {"name": "random_bilinear", "seed": rng.randrange(2**31),
                                   "players": 2, "actions": K, "dim": 3, "contexts": m}},
            "horizon": horizon,
            "eta": eta,
            "context_process": {"kind": "cycle"},
            "predictors": [predictor],
            "seeds": [run_seed],
            "output": f"{OUT}/suite_grid",
        })
        run_seeds.append(run_seed)
    return Workload(
        "suite_grid", tuple(configs), tuple(run_seeds), len(configs), len(configs) * horizon,
        f"parse_config + run_single(write_files=False), random_bilinear J=2 d=3 cycle, "
        f"K in 2..4 x m in 1..3 x eta in (0.1, 0.5, 1) x oracle|noisy p=0.3 = "
        f"{len(configs)} cells x T={horizon}",
    )


def long_markov(seed: int, size: str = "full") -> Workload:
    """Shape of configs/eta_rule_markov.json as one long run: opposed-contexts
    game, sticky two-state Markov contexts, majority + noisy p=0.2
    predictors, eta chosen by the two-pass rule."""
    horizon = SIZES[size]["markov_horizon"]
    rng = random.Random(f"long_markov:{seed}")
    run_seed = rng.randrange(1, 2**31)
    config = {
        "schema_version": 1,
        "game": OPPOSED,
        "horizon": horizon,
        "eta": "rule",
        "context_process": {"kind": "markov", "transition": [[0.9, 0.1], [0.1, 0.9]],
                            "seed": rng.randrange(2**31)},
        "predictors": [{"kind": "majority"},
                       {"kind": "noisy", "p": 0.2, "seed": rng.randrange(2**31)}],
        "seeds": [run_seed],
        "output": f"{OUT}/long_markov",
    }
    return Workload(
        "long_markov", (config,), (run_seed,), 1, horizon,
        f"run_command, opposed_contexts J=2 K=3 m=2 markov(0.9 stay), majority + noisy "
        f"p=0.2, eta=rule (pilot + final), 1 cell x T={horizon}",
    )


WORKLOADS = {f.__name__: f for f in (noise_sweep, suite_grid, long_markov)}


def make(name: str, seed: int, size: str = "full") -> Workload:
    return WORKLOADS[name](seed, size)
