"""Cross-checks of the round kernel against the per-round public API.

The reference loop plays a run one round at a time through `predict` and
`iso_grpo_round` on an immutable LearnerBank. The kernel (`simulate`:
`predict_run` then `play_routed`) must give the same predictions and the
same strategy and loss bytes on every round.
"""

import numpy as np
import pytest

from ctxgames.game import GameSpecError
from ctxgames.harness import simulate
from ctxgames.learning import LearnerBank, iso_grpo_round, play_routed
from ctxgames.metrics import compute_run_metrics
from ctxgames.prediction import (
    ContextProcessConfig,
    PredictorConfig,
    generate_contexts,
    predict,
    predict_run,
)
from helpers import random_spec


def reference_run(spec, eta, contexts, predictors):
    m = spec.num_contexts
    bank = LearnerBank.fresh(spec.num_players, m, spec.num_actions, eta)
    rounds = []
    for t, z in enumerate(contexts.tolist()):
        preds = [predict(p, j, t, z, contexts[:t], m) for j, p in enumerate(predictors)]
        profile, losses, bank = iso_grpo_round(bank, preds, z, spec)
        rounds.append((preds, profile, losses))
    return rounds


def noisy(p, seed, shared=False):
    return PredictorConfig(kind="noisy", p=p, seed=seed, shared_stream=shared)


ORACLE = PredictorConfig(kind="oracle")
MAJORITY = PredictorConfig(kind="majority")
HORIZON = 60

# (J, K, m, eta, context process, predictors; one entry is broadcast)
CASES = {
    "j2_oracle": (2, 3, 2, 0.5, "cycle", [ORACLE]),
    "j2_k9_noisy": (2, 9, 3, 0.7, "markov", [noisy(0.3, 11)]),
    "j2_m1": (2, 4, 1, 0.3, "cycle", [ORACLE, noisy(0.0, 2)]),
    "j2_majority_ties": (2, 2, 2, 1.0, "cycle", [MAJORITY, MAJORITY]),
    "j2_p0_p1": (2, 3, 3, 0.6, "markov", [noisy(0.0, 4), noisy(1.0, 4)]),
    "j3_mixed": (3, 3, 3, 0.4, "script", [noisy(0.5, 7), MAJORITY, "scripted"]),
    "j3_shared_stream": (3, 2, 3, 0.8, "cycle",
                         [noisy(0.4, 5, True), noisy(0.4, 5, True), noisy(0.9, 5, True)]),
    "j4_all_kinds": (4, 3, 2, 0.5, "markov", [ORACLE, noisy(0.35, 9), "scripted", MAJORITY]),
    "j4_p1": (4, 2, 3, 0.9, "cycle", [noisy(1.0, 3)]),
}


def _case(name):
    J, K, m, eta, process, predictors = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name))
    spec = random_spec(rng, J, K, 3, m)
    sequence = rng.integers(m, size=HORIZON).tolist()
    transition = rng.dirichlet(np.ones(m), size=m).tolist()
    contexts = generate_contexts(
        ContextProcessConfig(kind=process, transition=transition, sequence=sequence, seed=3),
        m, HORIZON)
    if len(predictors) == 1:
        predictors = predictors * J
    predictors = [PredictorConfig(kind="scripted", sequence=rng.integers(m, size=HORIZON))
                  if p == "scripted" else p for p in predictors]
    return spec, eta, contexts, predictors


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_reference_loop_bit_for_bit(name):
    spec, eta, contexts, predictors = _case(name)
    trace = simulate(spec, HORIZON, eta, contexts, predictors)
    reference = reference_run(spec, eta, contexts, predictors)
    assert len(trace) == len(reference) == HORIZON
    for t, (record, (preds, profile, losses)) in enumerate(zip(trace, reference)):
        assert record.round_index == t and record.realized_context == contexts[t]
        assert record.predictions == tuple(preds)
        for j in range(spec.num_players):
            assert record.strategies[j].probs.tobytes() == profile[j].probs.tobytes()
            assert record.losses[j].values.tobytes() == losses[j].values.tobytes()
    # the run's mistake counts against a recount of the per-round predictions
    rm = compute_run_metrics(trace, eta, spec.num_contexts, HORIZON)
    assert rm.mistakes == tuple(sum(preds[j] != contexts[t] for t, (preds, _, _) in enumerate(reference))
                                for j in range(spec.num_players))


def test_majority_ties_break_to_lowest_index():
    contexts = np.array([1, 0, 2, 2, 1, 0, 0])
    expected = [0, 1, 0, 0, 2, 1, 0]  # counts tied at t = 2, 3, 5 and 6
    got = predict_run([MAJORITY], contexts, 3)[:, 0].tolist()
    assert got == expected
    assert got == [predict(MAJORITY, 0, t, int(z), contexts[:t], 3) for t, z in enumerate(contexts)]


@pytest.mark.parametrize("m", [2, 3, 5])
def test_noisy_predictions_match_predict_per_round(m):
    # 3 values of m x 4 seeds x 2 streams x 4200 rounds > 10**5 triples
    rounds = 4200
    rng = np.random.default_rng(m)
    contexts = rng.integers(m, size=rounds)
    for seed in rng.integers(2**63, size=4).tolist():
        predictors = [noisy(0.5, seed), noisy(0.3, seed, shared=True)]
        got = predict_run(predictors, contexts, m)
        for j, config in enumerate(predictors):
            want = [predict(config, j, t, z, contexts[:t], m)
                    for t, z in enumerate(contexts.tolist())]
            assert got[:, j].tolist() == want


def test_kernel_checks_its_outputs_at_the_boundary():
    spec, _, contexts, predictors = _case("j2_oracle")
    preds = predict_run(predictors, contexts, spec.num_contexts)
    with pytest.raises(IndexError, match="prediction"):
        play_routed(spec, 0.5, contexts, np.where(preds == 1, 2, preds))
    with pytest.raises(IndexError, match="context"):
        play_routed(spec, 0.5, contexts - 1, preds)
    with pytest.raises(ValueError, match="eta"):
        play_routed(spec, 1.5, contexts, preds)
    # a game whose losses leave [-1, 1] (built without its own check)
    loud = object.__new__(type(spec))
    for field in ("num_players", "num_actions", "feature_dim"):
        object.__setattr__(loud, field, getattr(spec, field))
    object.__setattr__(loud, "features", spec.features * 5.0)
    object.__setattr__(loud, "contexts", spec.contexts)
    with pytest.raises(GameSpecError, match="outside"):
        play_routed(loud, 0.5, contexts, preds)
    strategies, losses = play_routed(spec, 0.5, contexts, preds)
    assert not strategies.flags.writeable and not losses.flags.writeable
