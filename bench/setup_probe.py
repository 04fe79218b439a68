"""One set-up, in a fresh interpreter, for the setup_s metric.

Imports numpy and ctxgames, parses and validates the workload's set-up
config, resolves its game and generates the first cell's contexts, then
prints "ready". run_bench.py times this process from spawn to that line.

    python3 bench/setup_probe.py <workload> <seed> <size>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
from ctxgames import generate_contexts  # noqa: E402
from ctxgames.harness import parse_config  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    config = parse_config(workloads.make(name, seed, size).setup_config)
    spec = config.resolve_game()
    generate_contexts(config.context_process, spec.num_contexts, config.horizon)
    print("ready", flush=True)
