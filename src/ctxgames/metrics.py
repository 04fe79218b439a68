"""Regret, variation, bound, and equilibrium-gap computations over traces.

A trace is the list of per-round records a run produced. All quantities
here are pure functions of the trace: per-context comparators, contextual
and external regret, within-context variation, the three-term regret
bound with its step-size rule, and the coarse-correlated-equilibrium gap
of the time-averaged play.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .game import GameSpec, JointProfile, LossVector, MixedStrategy
from .game import loss_vector as game_loss_vector

CCE_TOL = 1e-9


class MetricsError(ValueError):
    """Raised on malformed traces or violated metric preconditions."""


@dataclass(frozen=True)
class RoundRecord:
    """Everything one round contributes to the trace."""

    round_index: int
    realized_context: int
    predictions: tuple[int, ...]
    strategies: JointProfile
    losses: tuple[LossVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "predictions", tuple(int(v) for v in self.predictions))
        object.__setattr__(self, "losses", tuple(self.losses))
        if len(self.predictions) != len(self.strategies) or len(self.losses) != len(self.strategies):
            raise MetricsError("predictions, strategies, and losses must cover the same players")


def records_from_arrays(contexts, predictions, strategies, losses) -> list:
    """The trace of a run held as arrays: contexts (T,), predictions (T, J),
    and read-only strategies and losses (T, J, K) that passed
    check_strategies and check_losses. Records hold views of those arrays,
    not copies."""
    records = []
    for t, (z, preds, w, ell) in enumerate(zip(contexts.tolist(), zip(*predictions.T.tolist()),
                                               strategies, losses)):
        records.append(RoundRecord(
            round_index=t,
            realized_context=z,
            predictions=preds,
            strategies=JointProfile(tuple(MixedStrategy.of_checked(row) for row in w)),
            losses=tuple(LossVector.of_checked(row) for row in ell),
        ))
    return records


@dataclass(frozen=True)
class BoundTerms:
    """The three-term regret bound, split out.

    term_a: per-context initialization, (log K / eta) * m.
    term_b: mistake charge, (2 / eta) * mistakes.
    term_c: within-context variation charge, eta * sum of variations.
    total composes the three exactly; total_slack2 doubles term_c, which is
    the form our hedge instantiation provably satisfies (its stability
    inequality is quadratic in loss differences, and each difference is at
    most 2, so the squared sum is at most twice the linear sum).
    """

    term_a: float
    term_b: float
    term_c: float
    total: float
    total_slack2: float


@dataclass(frozen=True)
class CceResult:
    per_player: tuple[float, ...]
    epsilon: float
    bound_sum: float
    bound_max: float
    sum_ok: bool


@dataclass(frozen=True)
class RunMetrics:
    """Summary quantities for one finished run."""

    horizon: int
    num_players: int
    num_actions: int
    num_contexts: int
    eta: float
    mistakes: tuple[int, ...]
    contextual_regret: tuple[float, ...]
    external_regret: tuple[float, ...]
    variation: tuple[tuple[float, ...], ...]  # [player][context]
    bounds: tuple[BoundTerms, ...]
    total_bound_ok: tuple[bool, ...]
    slack2_bound_ok: tuple[bool, ...]
    cce_epsilon: float
    cce_bound_sum: float
    cce_bound_max: float
    cce_sum_ok: bool
    average_strategies: tuple[tuple[float, ...], ...] = field(repr=False)


def _losses_for(trace, player, context=None) -> np.ndarray:
    rows = [
        r.losses[player].values
        for r in trace
        if context is None or r.realized_context == context
    ]
    if not rows:
        return np.zeros((0, 0))
    return np.stack(rows)


def best_per_context_comparator(trace, player: int, context: int) -> MixedStrategy:
    """Best fixed mixed strategy for one context's subsequence.

    The summed-loss objective is linear over the simplex, so a minimizing
    vertex exists: the point mass on the action with the smallest summed
    loss, ties to the lowest index. An empty subsequence maps to action 0
    (it contributes zero regret either way).
    """
    losses = _losses_for(trace, player, context)
    if losses.size == 0:
        num_actions = trace[0].losses[player].num_actions if trace else 2
        return MixedStrategy.point_mass(0, num_actions)
    summed = losses.sum(axis=0)
    return MixedStrategy.point_mass(int(np.argmin(summed)), summed.shape[0])


def contextual_regret(trace, player: int) -> float:
    """Realized cost minus the per-context comparators' cost, summed over
    the whole trace."""
    total = 0.0
    contexts = sorted({r.realized_context for r in trace})
    comparators = {z: best_per_context_comparator(trace, player, z) for z in contexts}
    for r in trace:
        ell = r.losses[player].values
        played = float(np.dot(r.strategies[player].probs, ell))
        total += played - float(np.dot(comparators[r.realized_context].probs, ell))
    return total


def external_regret(trace, player: int) -> float:
    """Regret against the best single action over the whole horizon."""
    losses = _losses_for(trace, player)
    if losses.size == 0:
        return 0.0
    played = sum(
        float(np.dot(r.strategies[player].probs, r.losses[player].values)) for r in trace
    )
    return played - float(losses.sum(axis=0).min())


def within_context_variation(trace, player: int, context: int) -> float:
    """Sum of sup-norm differences between consecutive loss vectors on one
    context's subsequence; 0 for subsequences of length <= 1."""
    losses = _losses_for(trace, player, context)
    if losses.shape[0] <= 1:
        return 0.0
    return float(np.abs(np.diff(losses, axis=0)).max(axis=1).sum())


def rvu_bound(num_contexts: int, num_actions: int, eta: float,
              mistakes: int, variations) -> BoundTerms:
    """Compose the three-term regret bound from its inputs.

    `variations` lists the per-context variation totals for one player;
    contexts never realized contribute 0 but still count in term_a.
    """
    if not 0.0 < eta <= 1.0:
        raise MetricsError(f"eta must be in (0, 1], got {eta}")
    term_a = (math.log(num_actions) / eta) * num_contexts
    term_b = (2.0 / eta) * mistakes
    term_c = eta * float(np.sum(variations))
    return BoundTerms(
        term_a=term_a,
        term_b=term_b,
        term_c=term_c,
        total=term_a + term_b + term_c,
        total_slack2=term_a + term_b + 2.0 * term_c,
    )


def eta_rule(num_contexts: int, num_actions: int, mistakes: float, sum_variation: float) -> float:
    """Step size sqrt((m log K + mistakes) / (sum_variation + 1)), clamped
    into [1e-6, 1]."""
    if mistakes < 0 or sum_variation < 0:
        raise MetricsError("mistake and variation inputs must be nonnegative")
    value = math.sqrt((num_contexts * math.log(num_actions) + mistakes) / (sum_variation + 1.0))
    return min(1.0, max(1e-6, value))


def cce_epsilon(trace) -> CceResult:
    """Equilibrium gap of the time-averaged play; see _cce_result."""
    if not trace:
        raise MetricsError("cce gap needs at least one round")
    J = len(trace[0].strategies)
    return _cce_result([contextual_regret(trace, j) for j in range(J)],
                       [external_regret(trace, j) for j in range(J)], len(trace))


def _cce_result(contextual, external, horizon: int) -> CceResult:
    """CCE gap and bounds from per-player contextual and external regrets.

    Per player: external regret over the whole horizon divided by T;
    epsilon is the max over players. Two aggregate bounds are computed
    from per-player contextual regrets: bound_sum is the sum form
    (1/T) * sum_j ctx_j, bound_max the max form. The per-context
    comparator is at least as good on every subsequence as any single
    fixed action, so per player ext_j <= ctx_j and hence
    epsilon <= bound_max always; that is asserted here. The sum form can
    dip below the max form when a player's realized regret is negative,
    so its satisfaction is recorded in sum_ok rather than enforced.
    """
    per_player = tuple(e / horizon for e in external)
    ctx = [c / horizon for c in contextual]
    epsilon = max(per_player)
    bound_sum = float(sum(ctx))
    bound_max = float(max(ctx))
    if epsilon > bound_max + CCE_TOL:
        raise MetricsError(
            f"cce epsilon {epsilon!r} exceeds per-player contextual-regret "
            f"bound {bound_max!r}; comparator dominance is broken"
        )
    return CceResult(per_player=per_player, epsilon=epsilon,
                     bound_sum=bound_sum, bound_max=bound_max,
                     sum_ok=epsilon <= bound_sum + CCE_TOL)


def compute_run_metrics(trace, eta: float, num_contexts: int, horizon: int) -> RunMetrics:
    """All summary metrics for one finished run.

    Rejects partial traces: the trace must cover exactly `horizon` rounds.
    """
    if len(trace) != horizon:
        raise MetricsError(f"trace has {len(trace)} rounds, configured horizon is {horizon}")
    J = len(trace[0].strategies)
    K = trace[0].losses[0].num_actions

    mistakes = tuple(
        int(sum(1 for r in trace if r.predictions[j] != r.realized_context)) for j in range(J)
    )
    variation = tuple(
        tuple(within_context_variation(trace, j, z) for z in range(num_contexts))
        for j in range(J)
    )
    ctx_regret = tuple(contextual_regret(trace, j) for j in range(J))
    ext_regret = tuple(external_regret(trace, j) for j in range(J))
    bounds = tuple(
        rvu_bound(num_contexts, K, eta, mistakes[j], variation[j]) for j in range(J)
    )
    cce = _cce_result(ctx_regret, ext_regret, horizon)
    avg = tuple(
        tuple(np.mean([r.strategies[j].probs for r in trace], axis=0)) for j in range(J)
    )
    return RunMetrics(
        horizon=horizon,
        num_players=J,
        num_actions=K,
        num_contexts=num_contexts,
        eta=eta,
        mistakes=mistakes,
        contextual_regret=ctx_regret,
        external_regret=ext_regret,
        variation=variation,
        bounds=bounds,
        total_bound_ok=tuple(ctx_regret[j] <= bounds[j].total + CCE_TOL for j in range(J)),
        slack2_bound_ok=tuple(ctx_regret[j] <= bounds[j].total_slack2 + CCE_TOL for j in range(J)),
        cce_epsilon=cce.epsilon,
        cce_bound_sum=cce.bound_sum,
        cce_bound_max=cce.bound_max,
        cce_sum_ok=cce.sum_ok,
        average_strategies=avg,
    )


def verify_trace(trace, spec: GameSpec, tol: float = 1e-12) -> None:
    """Recompute every stored loss vector from the stored strategies and
    realized context; raise if anything drifted beyond `tol`."""
    for r in trace:
        for j in range(spec.num_players):
            opponents = [r.strategies[i] for i in range(spec.num_players) if i != j]
            fresh = game_loss_vector(spec, j, opponents, r.realized_context)
            err = float(np.abs(fresh.values - r.losses[j].values).max())
            if err > tol:
                raise MetricsError(
                    f"round {r.round_index}, player {j}: stored loss deviates by {err!r}"
                )
