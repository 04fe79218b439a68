"""The array metrics and the trace CSV against the per-round loops they replaced.

The reference below is the record-by-record implementation that the
metrics and `_trace_csv` used before they ran on a run's arrays. Every
`RunMetrics` field and the CSV text must come out bit for bit the same,
on random simulated runs and on hand-built record lists. The `Trace`
returned by `simulate` is checked as the sequence of records it stands
for.
"""

import dataclasses

import numpy as np
import pytest

from ctxgames import harness
from ctxgames.game import MixedStrategy
from ctxgames.harness import FLOAT_FMT, _trace_csv, simulate
from ctxgames.metrics import (
    CCE_TOL,
    RoundRecord,
    RunMetrics,
    Trace,
    _cce_result,
    best_per_context_comparator,
    cce_epsilon,
    compute_run_metrics,
    contextual_regret,
    external_regret,
    rvu_bound,
    within_context_variation,
)
from ctxgames.prediction import PredictorConfig
from helpers import hand_trace, random_spec, random_trace

# ---------------------------------------------------------------------------
# Reference: the per-round loops, over a list of RoundRecords
# ---------------------------------------------------------------------------


def ref_losses_for(trace, player, context=None):
    rows = [r.losses[player].values for r in trace
            if context is None or r.realized_context == context]
    if not rows:
        return np.zeros((0, 0))
    return np.stack(rows)


def ref_comparator(trace, player, context):
    losses = ref_losses_for(trace, player, context)
    if losses.size == 0:
        return MixedStrategy.point_mass(0, trace[0].losses[player].num_actions)
    summed = losses.sum(axis=0)
    return MixedStrategy.point_mass(int(np.argmin(summed)), summed.shape[0])


def ref_contextual_regret(trace, player):
    total = 0.0
    contexts = sorted({r.realized_context for r in trace})
    comparators = {z: ref_comparator(trace, player, z) for z in contexts}
    for r in trace:
        ell = r.losses[player].values
        played = float(np.dot(r.strategies[player].probs, ell))
        total += played - float(np.dot(comparators[r.realized_context].probs, ell))
    return total


def ref_external_regret(trace, player):
    losses = ref_losses_for(trace, player)
    played = sum(float(np.dot(r.strategies[player].probs, r.losses[player].values))
                 for r in trace)
    return played - float(losses.sum(axis=0).min())


def ref_variation(trace, player, context):
    losses = ref_losses_for(trace, player, context)
    if losses.shape[0] <= 1:
        return 0.0
    return float(np.abs(np.diff(losses, axis=0)).max(axis=1).sum())


def ref_run_metrics(trace, eta, num_contexts, horizon):
    J = len(trace[0].strategies)
    K = trace[0].losses[0].num_actions
    mistakes = tuple(int(sum(1 for r in trace if r.predictions[j] != r.realized_context))
                     for j in range(J))
    variation = tuple(tuple(ref_variation(trace, j, z) for z in range(num_contexts))
                      for j in range(J))
    ctx = tuple(ref_contextual_regret(trace, j) for j in range(J))
    ext = tuple(ref_external_regret(trace, j) for j in range(J))
    bounds = tuple(rvu_bound(num_contexts, K, eta, mistakes[j], variation[j]) for j in range(J))
    cce = _cce_result(ctx, ext, horizon)
    return {
        "horizon": horizon, "num_players": J, "num_actions": K,
        "num_contexts": num_contexts, "eta": eta, "mistakes": mistakes,
        "contextual_regret": ctx, "external_regret": ext, "variation": variation,
        "bounds": bounds,
        "total_bound_ok": tuple(ctx[j] <= bounds[j].total + CCE_TOL for j in range(J)),
        "slack2_bound_ok": tuple(ctx[j] <= bounds[j].total_slack2 + CCE_TOL for j in range(J)),
        "cce_epsilon": cce.epsilon, "cce_bound_sum": cce.bound_sum,
        "cce_bound_max": cce.bound_max, "cce_sum_ok": cce.sum_ok,
        "average_strategies": tuple(
            tuple(np.mean([r.strategies[j].probs for r in trace], axis=0)) for j in range(J)),
        "comparators": tuple(
            tuple(int(np.argmax(ref_comparator(trace, j, z).probs)) for z in range(num_contexts))
            for j in range(J)),
    }


def ref_fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT % value


def ref_trace_csv(trace, num_contexts):
    J = len(trace[0].strategies)
    K = trace[0].losses[0].num_actions
    comparators = {z: [ref_comparator(trace, j, z) for j in range(J)]
                   for z in range(num_contexts)}
    header = ["t", "Z"]
    for j in range(J):
        header += [f"zhat_p{j}", f"miss_p{j}"]
        header += [f"w_p{j}_a{k}" for k in range(K)] + [f"l_p{j}_a{k}" for k in range(K)]
        header.append(f"inst_regret_p{j}")
    lines = [",".join(header)]
    for r in trace:
        row = [str(r.round_index + 1), str(r.realized_context)]
        for j in range(J):
            pred = r.predictions[j]
            row += [str(pred), "1" if pred != r.realized_context else "0"]
            row += [ref_fmt(x) for x in r.strategies[j].probs]
            row += [ref_fmt(x) for x in r.losses[j].values]
            comp = comparators[r.realized_context][j]
            row.append(ref_fmt(float(np.dot(r.strategies[j].probs - comp.probs,
                                            r.losses[j].values))))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------


def assert_metrics_bit_equal(got: RunMetrics, want: dict):
    for f in dataclasses.fields(RunMetrics):
        value = getattr(got, f.name)
        # repr tells -0.0 from 0.0 and np.float64 from float; == alone would not
        assert value == want[f.name] and repr(value) == repr(want[f.name]), f.name


def assert_trace_functions_bit_equal(trace, records, num_contexts):
    J = len(records[0].strategies)
    for j in range(J):
        assert repr(contextual_regret(trace, j)) == repr(ref_contextual_regret(records, j))
        assert repr(external_regret(trace, j)) == repr(ref_external_regret(records, j))
        for z in range(num_contexts + 1):  # one context beyond the game: empty
            got = best_per_context_comparator(trace, j, z).probs
            assert got.tobytes() == ref_comparator(records, j, z).probs.tobytes()
            assert repr(within_context_variation(trace, j, z)) == repr(ref_variation(records, j, z))
    want = _cce_result([ref_contextual_regret(records, j) for j in range(J)],
                       [ref_external_regret(records, j) for j in range(J)], len(records))
    assert repr(cce_epsilon(trace)) == repr(want)


def random_run(seed):
    rng = np.random.default_rng(seed)
    J, K, m = int(rng.integers(2, 5)), int(rng.integers(2, 6)), int(rng.integers(1, 5))
    T = int(rng.integers(1, 301))
    spec = random_spec(rng, J, K, int(rng.integers(1, 4)), m)
    # every fourth run leaves the last context unrealized
    realized = m - 1 if m > 1 and seed % 4 == 0 else m
    contexts = rng.integers(realized, size=T)
    kinds = [PredictorConfig(kind="oracle"), PredictorConfig(kind="majority"),
             PredictorConfig(kind="scripted", sequence=rng.integers(m, size=T))]
    if m > 1:
        kinds.append(PredictorConfig(kind="noisy", p=0.3, seed=seed))
    predictors = [kinds[i] for i in rng.integers(len(kinds), size=J)]
    eta = float(rng.uniform(0.05, 1.0))
    return simulate(spec, T, eta, contexts, predictors), eta, m


@pytest.mark.parametrize("seed", range(40))
def test_array_metrics_and_csv_match_reference_on_simulated_runs(seed):
    trace, eta, m = random_run(seed)
    records = list(trace)
    rm = compute_run_metrics(trace, eta, m, len(trace))
    assert_metrics_bit_equal(rm, ref_run_metrics(records, eta, m, len(trace)))
    assert _trace_csv(trace, rm) == ref_trace_csv(records, m)
    if seed % 10 == 0:
        assert_trace_functions_bit_equal(trace, records, m)


def test_csv_blocks_join_seamlessly(monkeypatch):
    trace, eta, m = random_run(3)
    rm = compute_run_metrics(trace, eta, m, len(trace))
    monkeypatch.setattr(harness, "CSV_BLOCK", 7)  # many blocks and a partial last one
    assert len(trace) % 7 and _trace_csv(trace, rm) == ref_trace_csv(list(trace), m)


HAND_TRACES = {
    "opposed_pair": [
        (0, [[0.0, 1.0], [0.5, 0.5]], [[0.5, -0.5], [0.0, 0.0]]),
        (1, [[1.0, 0.0], [0.25, 0.75]], [[-0.5, 0.5], [-0.0, 0.3]]),
        (0, [[0.0, 1.0], [0.5, 0.5]], [[0.5, -0.5], [0.2, -0.2]]),
    ],
    "negative_regret": [
        (0, [[1.0, 0.0], [0.5, 0.5]], [[0.0, 1.0], [0.0, 1.0]]),
        (0, [[0.0, 1.0], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]),
    ],
    "ties": [(0, [[0.5, 0.5], [0.5, 0.5]], [[0.3, 0.3], [-0.1, -0.1]])] * 4,
}


@pytest.mark.parametrize("name", sorted(HAND_TRACES))
def test_array_metrics_and_csv_match_reference_on_hand_traces(name):
    records = hand_trace(HAND_TRACES[name])
    m = 3  # context 2 never occurs
    rm = compute_run_metrics(records, 0.5, m, len(records))
    assert_metrics_bit_equal(rm, ref_run_metrics(records, 0.5, m, len(records)))
    assert _trace_csv(records, rm) == ref_trace_csv(records, m)
    assert_trace_functions_bit_equal(records, records, m)


def test_array_metrics_match_reference_on_random_record_lists():
    rng = np.random.default_rng(77)
    for J, K, m, T in [(2, 3, 2, 40), (3, 2, 4, 25), (4, 5, 1, 30)]:
        records = random_trace(rng, J, K, m, T)
        rm = compute_run_metrics(records, 0.7, m, T)
        assert_metrics_bit_equal(rm, ref_run_metrics(records, 0.7, m, T))
        assert _trace_csv(records, rm) == ref_trace_csv(records, m)


def test_trace_is_a_read_only_sequence_of_records():
    trace, _, _ = random_run(5)
    T = len(trace)
    assert isinstance(trace, Trace) and T == trace.contexts.shape[0]
    assert trace[-1].round_index == T - 1 and trace[-T].round_index == 0
    for index in (T, -T - 1):
        with pytest.raises(IndexError):
            trace[index]
    records = list(trace)
    assert [r.round_index for r in records] == list(range(T))
    for array in (trace.contexts, trace.predictions, trace.strategies, trace.losses):
        assert not array.flags.writeable

    r = trace[T // 2]
    assert np.shares_memory(r.strategies[0].probs, trace.strategies)
    assert np.shares_memory(r.losses[-1].values, trace.losses)
    with pytest.raises(ValueError):
        r.losses[0].values[0] = 0.0
    by_hand = RoundRecord(r.round_index, r.realized_context,
                          [int(v) for v in trace.predictions[T // 2]], r.strategies, r.losses)
    assert type(r.realized_context) is int
    assert repr(r.predictions) == repr(by_hand.predictions)
    assert all(type(v) is int for v in r.predictions)
