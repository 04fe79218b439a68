"""Tests of the benchmark itself: span arithmetic, workload purity, the
correctness check, and smoke runs of the command.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in MANIFEST["workloads"]]


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def test_self_times_on_synthetic_tree():
    # root [0, 10] -> a [1, 4] -> d [2, 3]; root -> b [5, 9] -> c [6, 7]
    starts = [0.0, 1.0, 5.0, 6.0, 2.0]
    ends = [10.0, 4.0, 9.0, 7.0, 3.0]
    parents = [-1, 0, 0, 2, 1]
    got = tracing.self_times(starts, ends, parents)
    assert got == pytest.approx([3.0, 2.0, 3.0, 1.0, 1.0])
    assert sum(got) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    starts = [0.0, 1.0, 2.0, 8.0]
    ends = [10.0, 5.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    # children cover [1, 6] and [8, 10] of the root
    assert tracing.self_times(starts, ends, parents)[0] == pytest.approx(3.0)


def test_totals_by_name():
    seconds, calls = tracing.totals_by_name(["a", "b", "a"], [1.0, 2.0, 0.5])
    assert seconds == {"a": 1.5, "b": 2.0}
    assert calls == {"a": 2, "b": 1}


def test_tracer_nests_spans_restores_names_and_reports_missing_targets(monkeypatch):
    mod = types.ModuleType("bench_fake_target")
    exec("def inner():\n    return 1\n\ndef outer():\n    return inner() + 1\n", mod.__dict__)
    monkeypatch.setitem(sys.modules, "bench_fake_target", mod)
    original = mod.outer
    tracer = tracing.Tracer(
        wraps=[("x.outer", "bench_fake_target", "outer"),
               ("x.inner", "bench_fake_target", "inner"),
               ("x.gone", "bench_fake_target", "gone")],
        cell_wrap=("x.cell", "bench_fake_target", "cell"),
    )
    assert tracer.unmeasured == ["x.gone"]
    with tracer:
        tracer.new_cell()
        assert mod.outer() == 2
    assert mod.outer is original
    assert tracer.names == ["x.outer", "x.inner"]
    assert tracer.parents == [-1, 0]
    assert tracer.cells == [0, 0]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_workload_is_a_pure_function_of_its_seed(name):
    a, b, c = (workloads.make(name, s) for s in (5, 5, 6))
    assert json.dumps(a.configs, sort_keys=True) == json.dumps(b.configs, sort_keys=True)
    assert a == b
    assert a.run_seeds != c.run_seeds
    assert (a.cells, a.rounds, a.shape) == (c.cells, c.rounds, c.shape)


# ---------------------------------------------------------------------------
# Correctness check
# ---------------------------------------------------------------------------

def test_corrupted_trace_fails_only_its_cell(tmp_path, monkeypatch):
    import checks
    from ctxgames import harness
    monkeypatch.chdir(tmp_path)
    config = harness.parse_config(workloads.make("noise_sweep", 0, "smoke").configs[0])
    harness.run_sweep(config)
    spec = config.resolve_game()
    attempted, failures, digests = checks.check_sweep(config, spec, config.output, None, True)
    assert (attempted, failures) == (6, [])

    name = sorted(n for n in digests if n.startswith("trace_"))[2]
    path = Path(config.output) / name
    lines = path.read_text().splitlines()
    cols = lines[3].split(",")
    cols[-2] = "0.123"  # last loss entry of the last player
    lines[3] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    attempted, failures, _ = checks.check_sweep(config, spec, config.output, digests, True)
    assert attempted == 6 and len(failures) == 1
    assert failures[0].startswith("cell ") and "deviates" in failures[0]
    attempted, failures, _ = checks.check_sweep(config, spec, config.output, digests, False)
    assert attempted == 6 and len(failures) == 1
    assert failures[0].startswith("cell ") and "digest" in failures[0]


# ---------------------------------------------------------------------------
# The command
# ---------------------------------------------------------------------------

def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run_bench.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    proc = _run("--workload", name, "--seed", "0", "--seconds", "0.2",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        layers = sum(v for k, v in values.items() if k.endswith("_us") and k != "trace.total_us")
        assert layers == pytest.approx(values["trace.total_us"])
        assert (values["harness.csv_us"] == 0) == (name == "suite_grid")
        assert (values["harness.useful_round_ratio"] < 1) == (name == "long_markov")
        assert values["trace.unmeasured_layers"] == 0
    else:
        assert all(v > 0 for v in values.values())


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not os.path.exists(tmp_path / workloads.OUT)
