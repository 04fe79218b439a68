"""Per-context optimistic hedge learners with prediction-based routing.

Each player keeps one learner per context. A round routes *play* through
the learner of the predicted context and routes the *update* through the
learner of the realized context; every other learner is left untouched
(iso-grpo routing). Learner state is the cumulative loss plus a one-step
optimism hint, so the played distribution is

    probs[k]  proportional to  exp(-eta * (cum_loss[k] + hint[k]))

computed in log space. The hint is the last loss observed within the same
context (zero before the first update), which makes the update an
optimistic multiplicative-weights step whose stability cost is driven by
consecutive within-context loss differences.

`play_routed` plays a whole run on private (J, m, K) cumulative-loss and
hint arrays updated in place. `LearnerBank` with `current_distribution`,
`apply_update` and `iso_grpo_round` is the immutable per-round API over
the same two steps, `hedge_weights` and `route_update`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .game import (
    COST_BOUND_TOL,
    GameSpec,
    JointProfile,
    LossVector,
    MixedStrategy,
    check_losses,
    check_strategies,
    loss_contraction,
)
from .game import loss_vector as game_loss_vector


def _check_eta(eta: float) -> None:
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")


def hedge_weights(eta: float, cum_loss: np.ndarray, hint: np.ndarray) -> np.ndarray:
    """Optimistic-hedge distribution of one or more learners (actions on the
    last axis), in log space with max-subtraction so arbitrarily long
    horizons cannot overflow."""
    logits = -eta * (cum_loss + hint)
    logits = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=-1, keepdims=True)


def route_update(cum_loss: np.ndarray, hint: np.ndarray, players,
                 realized_context: int, losses: np.ndarray) -> None:
    """Feed losses to the realized context's learners of `players` (an
    index or a slice), in place: add them into the cumulative loss and
    reset the optimism hint to them."""
    cum_loss[players, realized_context] += losses
    hint[players, realized_context] = losses


@dataclass(frozen=True)
class ContextLearnerState:
    """Snapshot of one (player, context) learner."""

    cumulative_loss: np.ndarray
    optimism_hint: np.ndarray
    updates_applied: int


@dataclass(frozen=True)
class LearnerBank:
    """All (player, context) learner states for one run, plus the shared
    step size. Immutable: updates return a new bank."""

    eta: float
    cum_loss: np.ndarray = field(repr=False)  # (J, m, K)
    hint: np.ndarray = field(repr=False)      # (J, m, K)
    updates: np.ndarray = field(repr=False)   # (J, m) int64

    def __post_init__(self):
        _check_eta(self.eta)
        for name in ("cum_loss", "hint", "updates"):
            arr = getattr(self, name)
            arr.setflags(write=False)
        if self.cum_loss.shape != self.hint.shape or self.cum_loss.shape[:2] != self.updates.shape:
            raise ValueError("inconsistent bank array shapes")

    @staticmethod
    def fresh(num_players: int, num_contexts: int, num_actions: int, eta: float) -> "LearnerBank":
        return LearnerBank(
            eta=eta,
            cum_loss=np.zeros((num_players, num_contexts, num_actions)),
            hint=np.zeros((num_players, num_contexts, num_actions)),
            updates=np.zeros((num_players, num_contexts), dtype=np.int64),
        )

    @property
    def num_players(self) -> int:
        return self.cum_loss.shape[0]

    @property
    def num_contexts(self) -> int:
        return self.cum_loss.shape[1]

    @property
    def num_actions(self) -> int:
        return self.cum_loss.shape[2]

    def state(self, player: int, context: int) -> ContextLearnerState:
        self._check_indices(player, context)
        return ContextLearnerState(
            cumulative_loss=self.cum_loss[player, context].copy(),
            optimism_hint=self.hint[player, context].copy(),
            updates_applied=int(self.updates[player, context]),
        )

    def _check_indices(self, player: int, context: int) -> None:
        if not 0 <= player < self.num_players:
            raise IndexError(f"player {player} out of range [0, {self.num_players})")
        if not 0 <= context < self.num_contexts:
            raise IndexError(f"context {context} out of range [0, {self.num_contexts})")

    def to_snapshot(self) -> dict:
        """JSON-ready snapshot; floats round-trip exactly through repr."""
        return {"eta": self.eta, "states": [
            [{"cumulative_loss": list(self.cum_loss[j, z]), "hint": list(self.hint[j, z]),
              "updates": int(self.updates[j, z])} for z in range(self.num_contexts)]
            for j in range(self.num_players)]}

    @staticmethod
    def from_snapshot(data: dict) -> "LearnerBank":
        def column(name: str, dtype=np.float64) -> np.ndarray:
            return np.array([[cell[name] for cell in row] for row in data["states"]], dtype=dtype)
        return LearnerBank(eta=float(data["eta"]), cum_loss=column("cumulative_loss"),
                           hint=column("hint"), updates=column("updates", np.int64))


def current_distribution(bank: LearnerBank, player: int, context: int) -> MixedStrategy:
    """Optimistic-hedge distribution of one learner."""
    bank._check_indices(player, context)
    return MixedStrategy(hedge_weights(bank.eta, bank.cum_loss[player, context],
                                       bank.hint[player, context]))


def apply_update(bank: LearnerBank, player: int, realized_context: int, loss: LossVector) -> LearnerBank:
    """Feed one loss vector to the realized context's learner.

    Adds the loss into that learner's cumulative loss, resets its optimism
    hint to the just-observed loss, and bumps its update count. Every other
    (player, context) state is carried over bit-identically.
    """
    bank._check_indices(player, realized_context)
    values = loss.values
    if values.shape[0] != bank.num_actions:
        raise ValueError(f"loss has {values.shape[0]} entries, bank expects {bank.num_actions}")
    if np.any(np.abs(values) > 1.0 + COST_BOUND_TOL):
        raise ValueError(f"loss entries outside [-1, 1]: {values}")

    cum = bank.cum_loss.copy()
    hint = bank.hint.copy()
    updates = bank.updates.copy()
    route_update(cum, hint, player, realized_context, values)
    updates[player, realized_context] += 1
    return LearnerBank(eta=bank.eta, cum_loss=cum, hint=hint, updates=updates)


def iso_grpo_round(bank: LearnerBank, predictions, realized_context: int, spec: GameSpec):
    """One simultaneous round of routed play and updates for all players.

    Every player j plays the current distribution of the learner indexed
    by its *predicted* context (all reads against the pre-round bank),
    then the realized per-action losses are computed exactly from the
    opponents' just-selected strategies at the *realized* context, and all
    updates land in the realized context's learners.

    Returns (JointProfile, list[LossVector], updated bank).
    """
    J = spec.num_players
    if len(predictions) != J:
        raise ValueError(f"expected {J} predictions, got {len(predictions)}")
    if bank.num_players != J or bank.num_actions != spec.num_actions:
        raise ValueError("bank shape does not match game")

    strategies = [current_distribution(bank, j, predictions[j]) for j in range(J)]
    profile = JointProfile(tuple(strategies))

    losses = []
    for j in range(J):
        opponents = [strategies[i] for i in range(J) if i != j]
        losses.append(game_loss_vector(spec, j, opponents, realized_context))

    for j in range(J):
        bank = apply_update(bank, j, realized_context, losses[j])
    return profile, losses, bank


def play_routed(spec: GameSpec, eta: float, contexts: np.ndarray,
                predictions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every round of a run, on fresh learners: round t routes play through
    the learners of predictions[t] (shape (J,)) and updates those of
    contexts[t], exactly as a chain of `iso_grpo_round` calls would.

    Returns (strategies, losses), read-only (T, J, K) arrays, bit-identical
    to that chain's MixedStrategy and LossVector values. Their checks run
    once, over the whole run, when play is over.
    """
    _check_eta(eta)
    T, J = predictions.shape
    K, m = spec.num_actions, spec.num_contexts
    if J != spec.num_players or contexts.shape != (T,):
        raise ValueError(f"expected {T} contexts and {spec.num_players} predictions per round")
    for name, indices in (("context", contexts), ("prediction", predictions)):
        if indices.size and (indices.min() < 0 or indices.max() >= m):
            raise IndexError(f"{name} out of range [0, {m})")
    cum = np.zeros((J, m, K))
    hint = np.zeros_like(cum)
    contractions = [loss_contraction(spec, j) for j in range(J)]
    players = np.arange(J)
    strategies = np.empty((T, J, K))
    losses = np.empty((T, J, K))
    for t, (z, routed) in enumerate(zip(contexts.tolist(), predictions)):
        w = hedge_weights(eta, cum[players, routed], hint[players, routed])
        w = w / w.sum(axis=1, keepdims=True)  # MixedStrategy's renormalization
        strategies[t] = w
        context_vector = spec.contexts[z]
        ell = losses[t]
        for j, contract in enumerate(contractions):
            ell[j] = contract(w, context_vector)
        route_update(cum, hint, slice(None), z, ell)
    check_strategies(strategies)
    check_losses(losses)
    strategies.setflags(write=False)
    losses.setflags(write=False)
    return strategies, losses
