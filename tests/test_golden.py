"""Golden output digests.

Pins the sha256 of every `trace_*.csv` and `summary.csv` that `run` and
`sweep` write for a fixed (config, seed), over edge configurations and
the shipped configs with their horizons cut. The digests were taken from
the per-round object loop before the array kernel replaced it; they may
only change with a deliberate change to the output format, never to get
a refactor past this test.

    python tests/test_golden.py    # print the digests the current code writes

The pinned digests live in golden_digests.json.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from ctxgames.harness import parse_config, run_command, run_sweep

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

SCRIPT = [(t * 7 + t // 5) % 3 for t in range(120)]
GUESS = [(v + (t % 4 == 0)) % 3 for t, v in enumerate(SCRIPT)]


def _shipped(name: str, horizon: int) -> dict:
    data = json.loads((CONFIGS / name).read_text())
    data["horizon"] = horizon
    return data


def _bilinear(players=2, actions=3, contexts=2, seed=5) -> dict:
    return {"generator": {"name": "random_bilinear", "seed": seed, "players": players,
                          "actions": actions, "dim": 3, "contexts": contexts}}


CASES = {
    "three_players": {
        "game": _bilinear(players=3, actions=3, contexts=2),
        "horizon": 150, "eta": 0.5, "context_process": {"kind": "cycle"},
        "predictors": [{"kind": "noisy", "p": 0.3, "seed": 9}], "seeds": [4],
    },
    "one_context": {
        "game": _bilinear(actions=4, contexts=1, seed=8),
        "horizon": 150, "eta": 0.3, "context_process": {"kind": "cycle"},
        "predictors": [{"kind": "oracle"}], "seeds": [2],
    },
    "scripted_script": {
        "game": _bilinear(contexts=3, seed=13),
        "horizon": 120, "eta": 0.7,
        "context_process": {"kind": "script", "sequence": SCRIPT},
        "predictors": [{"kind": "scripted", "sequence": GUESS},
                       {"kind": "scripted", "sequence": SCRIPT}],
        "seeds": [3],
    },
    "majority_markov": {
        "game": _bilinear(actions=2, contexts=3, seed=21),
        "horizon": 200, "eta": 0.4,
        "context_process": {"kind": "markov", "seed": 6,
                            "transition": [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4]]},
        "predictors": [{"kind": "majority"}], "seeds": [7],
    },
    "shared_stream": {
        "game": _bilinear(players=3, actions=2, contexts=3, seed=34),
        "horizon": 150, "eta": 0.6, "context_process": {"kind": "cycle"},
        "predictors": [{"kind": "noisy", "p": 0.4, "seed": 2, "shared_stream": True},
                       {"kind": "noisy", "p": 0.4, "seed": 2, "shared_stream": True},
                       {"kind": "noisy", "p": 0.2, "seed": 5}],
        "seeds": [1],
    },
    "eta_rule": {  # the pilot picks eta ~ 0.82, so pilot and final traces differ
        "game": _bilinear(players=3, actions=3, contexts=2, seed=55),
        "horizon": 200, "eta": "rule", "context_process": {"kind": "cycle"},
        "predictors": [{"kind": "noisy", "p": 0.1, "seed": 1}], "seeds": [9],
    },
    "game_file_inline": {
        "game": {"inline": json.loads((CONFIGS / "opposed_contexts_game.json").read_text())},
        "horizon": 100, "eta": 0.5, "context_process": {"kind": "cycle"},
        "predictors": [{"kind": "oracle"}, {"kind": "noisy", "p": 0.5, "seed": 3}],
        "seeds": [5],
    },
    "noise_sweep.json": _shipped("noise_sweep.json", 100),
    "zero_sum_run.json": _shipped("zero_sum_run.json", 1000),
    "eta_rule_markov.json": _shipped("eta_rule_markov.json", 400),
}

GOLDEN = json.loads((Path(__file__).with_name("golden_digests.json")).read_text())


def _digests(name: str, out_dir: Path) -> dict:
    """Run one case into `out_dir` (cwd must be the repo root, which
    relative game paths in the shipped configs resolve against) and hash
    what it wrote."""
    config = parse_config(dict(CASES[name], output=str(out_dir)))
    if config.sweep is not None:
        run_sweep(config)
    else:
        run_command(config)
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
            for f in sorted(os.listdir(out_dir)) if f != "config_echo.json"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _digests(name, tmp_path / "out") == GOLDEN[name]


if __name__ == "__main__":
    import tempfile
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({name: _digests(name, Path(tmp) / name) for name in sorted(CASES)},
                         indent=4, sort_keys=True))
