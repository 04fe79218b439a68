"""Regret, variation, bound, and equilibrium-gap computations over traces.

A trace is a run's rounds: a `Trace` over the run's arrays, or any list of
`RoundRecord`s. All quantities here are pure functions of the trace,
computed on its arrays: per-context comparators, contextual and external
regret, within-context variation, the three-term regret bound with its
step-size rule, and the coarse-correlated-equilibrium gap of the
time-averaged play.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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


class Trace(Sequence):
    """A run's rounds held as its arrays: realized contexts (T,),
    predictions (T, J), and strategies and losses (T, J, K) that passed
    check_strategies and check_losses. The arrays are made read-only.
    Indexing or iterating builds RoundRecords whose strategies and losses
    view the arrays' rows; nothing is kept per round."""

    __slots__ = ("contexts", "predictions", "strategies", "losses")

    def __init__(self, contexts, predictions, strategies, losses):
        for name, array in zip(self.__slots__, (contexts, predictions, strategies, losses)):
            array.setflags(write=False)
            setattr(self, name, array)

    def __len__(self) -> int:
        return self.contexts.shape[0]

    def __getitem__(self, t: int) -> RoundRecord:
        t = range(len(self))[t]  # negative indices count from the end; IndexError past it
        return RoundRecord(
            round_index=t,
            realized_context=int(self.contexts[t]),
            predictions=self.predictions[t].tolist(),
            strategies=JointProfile(tuple(map(MixedStrategy.of_checked, self.strategies[t]))),
            losses=tuple(map(LossVector.of_checked, self.losses[t])),
        )


def _as_arrays(trace) -> tuple:
    """(contexts, predictions, strategies, losses) of a trace: a Trace's
    own arrays, or stacked from a list of RoundRecords."""
    if isinstance(trace, Trace):
        return trace.contexts, trace.predictions, trace.strategies, trace.losses
    if not len(trace):
        raise MetricsError("trace has no rounds")
    return (np.array([r.realized_context for r in trace], dtype=np.int64),
            np.array([r.predictions for r in trace], dtype=np.int64),
            np.array([[w.probs for w in r.strategies.strategies] for r in trace]),
            np.array([[ell.values for ell in r.losses] for r in trace]))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows (last axis), each rounded as np.dot
    rounds one pair of vectors; einsum and (a * b).sum(-1) round some rows
    differently."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _left_sum(values: np.ndarray) -> float:
    """Float sum in index order, as a Python `total += v` loop makes it."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def _context_summary(losses: np.ndarray) -> tuple[int, float]:
    """Best fixed action and within-context variation of one (player,
    context) subsequence from a contiguous copy of its (n, K) losses.

    The summed-loss objective is linear over the simplex, so the point
    mass on the action with the smallest summed loss (ties to the lowest
    index) is a best fixed mixed strategy; an empty subsequence maps to
    action 0 (it contributes zero regret either way).
    """
    n = losses.shape[0]
    best = int(np.argmin(losses.sum(axis=0))) if n else 0
    variation = float(np.abs(np.diff(losses, axis=0)).max(axis=1).sum()) if n > 1 else 0.0
    return best, variation


def _regret_pass(contexts, strategies, losses, num_contexts: int) -> tuple:
    """(best actions (J, m), variations (J, m), contextual regrets,
    external regrets): everything the per-context comparators give."""
    J = losses.shape[1]
    best = np.zeros((J, num_contexts), dtype=np.int64)
    variation = np.zeros((J, num_contexts))
    for z in range(num_contexts):
        rows = contexts == z
        for j in range(J):
            best[j, z], variation[j, z] = _context_summary(losses[rows, j])
    contextual, external = [], []
    for j in range(J):
        ell = losses[:, j]
        played = _row_dots(strategies[:, j], ell)
        # a point-mass comparator's cost is exactly the loss entry it selects
        contextual.append(_left_sum(played - ell[np.arange(ell.shape[0]), best[j, contexts]]))
        # column sums over a contiguous copy, laid out as stacked rows are
        external.append(_left_sum(played) - float(np.ascontiguousarray(ell).sum(axis=0).min()))
    return best, variation, tuple(contextual), tuple(external)


def _trace_regrets(trace) -> tuple:
    """(contextual, external) regrets of every player of a trace."""
    contexts, _, strategies, losses = _as_arrays(trace)
    return _regret_pass(contexts, strategies, losses, int(contexts.max()) + 1)[2:]


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
    # best fixed action per [player][context], 0 where a context never
    # occurs: the comparators of contextual regret and of the trace CSV
    comparators: tuple[tuple[int, ...], ...] = field(repr=False)


def best_per_context_comparator(trace, player: int, context: int) -> MixedStrategy:
    """Best fixed mixed strategy for one context's subsequence (see
    _context_summary)."""
    contexts, _, _, losses = _as_arrays(trace)
    best, _ = _context_summary(losses[contexts == context, player])
    return MixedStrategy.point_mass(best, losses.shape[2])


def contextual_regret(trace, player: int) -> float:
    """Realized cost minus the per-context comparators' cost, summed over
    the whole trace."""
    return _trace_regrets(trace)[0][player]


def external_regret(trace, player: int) -> float:
    """Regret against the best single action over the whole horizon."""
    return _trace_regrets(trace)[1][player]


def within_context_variation(trace, player: int, context: int) -> float:
    """Sum of sup-norm differences between consecutive loss vectors on one
    context's subsequence; 0 for subsequences of length <= 1."""
    contexts, _, _, losses = _as_arrays(trace)
    return _context_summary(losses[contexts == context, player])[1]


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
    return _cce_result(*_trace_regrets(trace), len(trace))


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
    """All summary metrics for one finished run, in one pass over its arrays.

    Rejects partial traces: the trace must cover exactly `horizon` rounds.
    """
    contexts, predictions, strategies, losses = _as_arrays(trace)
    T, J, K = strategies.shape
    if T != horizon:
        raise MetricsError(f"trace has {T} rounds, configured horizon is {horizon}")

    mistakes = tuple((predictions != contexts[:, None]).sum(axis=0).tolist())
    best, variation, ctx_regret, ext_regret = _regret_pass(contexts, strategies, losses,
                                                           num_contexts)
    variation = tuple(map(tuple, variation.tolist()))
    bounds = tuple(
        rvu_bound(num_contexts, K, eta, mistakes[j], variation[j]) for j in range(J)
    )
    cce = _cce_result(ctx_regret, ext_regret, horizon)
    avg = tuple(tuple(np.ascontiguousarray(strategies[:, j]).mean(axis=0)) for j in range(J))
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
        comparators=tuple(map(tuple, best.tolist())),
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
