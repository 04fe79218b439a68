"""Latent-context bilinear games with exact expected losses.

A game couples per-player feature maps over joint actions with a finite set
of context vectors. The cost a player pays is the inner product of its
feature vector at the realized joint action with the active context vector,
so expected costs under independent mixed play are exact tensor
contractions, no sampling involved.

Joint actions are indexed lexicographically with player 0 as the most
significant digit; this ordering is part of the public contract (game
files store features flat in this order).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SIMPLEX_TOL = 1e-9
COST_BOUND_TOL = 1e-9


class GameSpecError(ValueError):
    """Raised when a game definition violates a structural invariant."""


def check_strategies(probs: np.ndarray) -> np.ndarray:
    """Reject probability vectors (last axis) that are non-finite, negative
    or do not sum to 1 within SIMPLEX_TOL; return their sums. The pass
    case makes no array of the input's size (NaN fails every comparison)."""
    totals = probs.sum(axis=-1)
    if probs.size and probs.min() >= 0.0 and np.abs(totals - 1.0).max() <= SIMPLEX_TOL:
        return totals
    if not np.all(np.isfinite(probs)):
        raise GameSpecError(f"strategy has non-finite entries: {probs}")
    if np.any(probs < 0.0):
        raise GameSpecError(f"strategy has negative entries: {probs}")
    if probs.size:
        worst = float(totals.flat[np.argmax(np.abs(totals - 1.0))])
        raise GameSpecError(f"strategy sums to {worst!r}, outside 1 +/- {SIMPLEX_TOL}")
    return totals


def check_losses(values: np.ndarray) -> None:
    """Reject loss entries that are non-finite or outside [-1, 1] by more
    than COST_BOUND_TOL, making no array of the input's size when they pass."""
    bound = 1.0 + COST_BOUND_TOL
    if not values.size or (values.min() >= -bound and values.max() <= bound):
        return
    if not np.all(np.isfinite(values)):
        raise GameSpecError(f"loss vector has non-finite entries: {values}")
    raise GameSpecError(f"loss entries outside [-1, 1]: max |entry| = {np.abs(values).max()!r}")


def _adopt(cls, name: str, array: np.ndarray):
    """Instance of a one-array frozen type around a read-only array that has
    already passed its bulk check: no copy, no renormalization."""
    obj = object.__new__(cls)
    object.__setattr__(obj, name, array)
    return obj


@dataclass(frozen=True)
class MixedStrategy:
    """Probability vector over one player's actions.

    Entries must be nonnegative and sum to 1 within 1e-9; small deviations
    are renormalized, anything worse is rejected.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise GameSpecError("strategy must be a nonempty 1-d vector")
        probs = probs / float(check_strategies(probs))
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @staticmethod
    def of_checked(probs: np.ndarray) -> "MixedStrategy":
        """Wrap a read-only row of strategies that passed check_strategies."""
        return _adopt(MixedStrategy, "probs", probs)

    @property
    def num_actions(self) -> int:
        return self.probs.shape[0]

    @staticmethod
    def uniform(num_actions: int) -> "MixedStrategy":
        return MixedStrategy(np.full(num_actions, 1.0 / num_actions))

    @staticmethod
    def point_mass(action: int, num_actions: int) -> "MixedStrategy":
        probs = np.zeros(num_actions)
        probs[action] = 1.0
        return MixedStrategy(probs)


@dataclass(frozen=True)
class JointProfile:
    """One MixedStrategy per player, read as the product distribution."""

    strategies: tuple[MixedStrategy, ...]

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))

    def __len__(self) -> int:
        return len(self.strategies)

    def __getitem__(self, player: int) -> MixedStrategy:
        return self.strategies[player]


@dataclass(frozen=True)
class LossVector:
    """Per-action expected losses for one player at one context.

    Entries live in [-1, 1] (up to float tolerance) whenever the game
    passed bounded-cost validation.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise GameSpecError("loss vector must be a nonempty 1-d vector")
        check_losses(values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @staticmethod
    def of_checked(values: np.ndarray) -> "LossVector":
        """Wrap a read-only row of losses that passed check_losses."""
        return _adopt(LossVector, "values", values)

    @property
    def num_actions(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class GameSpec:
    """Static definition of a latent-context bilinear game.

    features[j, a] is the feature vector of player j at joint action index
    a (lexicographic, player 0 most significant). contexts[z] is the z-th
    context vector. Construction enumerates every (player, joint action,
    context) triple and rejects the spec if any |<feature, context>| > 1.
    """

    num_players: int
    num_actions: int
    feature_dim: int
    features: np.ndarray = field(repr=False)  # (J, K**J, d)
    contexts: np.ndarray = field(repr=False)  # (m, d)

    def __post_init__(self):
        J, K, d = self.num_players, self.num_actions, self.feature_dim
        if J < 2:
            raise GameSpecError(f"need at least 2 players, got {J}")
        if K < 2:
            raise GameSpecError(f"need at least 2 actions per player, got {K}")
        if d < 1:
            raise GameSpecError(f"feature dimension must be >= 1, got {d}")

        features = np.asarray(self.features, dtype=np.float64)
        contexts = np.asarray(self.contexts, dtype=np.float64)
        if features.shape != (J, K**J, d):
            raise GameSpecError(
                f"features must have shape {(J, K**J, d)}, got {features.shape}"
            )
        if contexts.ndim != 2 or contexts.shape[0] < 1 or contexts.shape[1] != d:
            raise GameSpecError(
                f"contexts must have shape (m >= 1, {d}), got {contexts.shape}"
            )
        if not (np.all(np.isfinite(features)) and np.all(np.isfinite(contexts))):
            raise GameSpecError("features and contexts must be finite")

        # Bounded-cost check over all (j, a, z) triples, no clipping.
        products = features @ contexts.T  # (J, K**J, m)
        bad = np.argwhere(np.abs(products) > 1.0 + COST_BOUND_TOL)
        if bad.size:
            j, a, z = (int(v) for v in bad[0])
            raise GameSpecError(
                f"bounded-cost violation at player {j}, joint action {a} "
                f"{tuple(int(v) for v in np.unravel_index(a, (K,) * J))}, context {z}: "
                f"|<feature, context>| = {abs(products[j, a, z])!r} > 1"
            )

        features = features.copy()
        contexts = contexts.copy()
        features.setflags(write=False)
        contexts.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "contexts", contexts)

    @property
    def num_contexts(self) -> int:
        return self.contexts.shape[0]

    def joint_action_index(self, actions) -> int:
        """Lexicographic index of a joint action (player 0 most significant)."""
        if len(actions) != self.num_players:
            raise GameSpecError(f"expected {self.num_players} actions, got {len(actions)}")
        index = 0
        for a in actions:
            if not 0 <= a < self.num_actions:
                raise GameSpecError(f"action {a} out of range [0, {self.num_actions})")
            index = index * self.num_actions + a
        return index

    def feature_tensor(self, player: int) -> np.ndarray:
        """Features of `player` reshaped to one axis per player plus the
        feature axis: shape (K, ..., K, d)."""
        J, K, d = self.num_players, self.num_actions, self.feature_dim
        return self.features[player].reshape((K,) * J + (d,))

    def context_vector(self, context: int) -> np.ndarray:
        if not 0 <= context < self.num_contexts:
            raise GameSpecError(
                f"context {context} out of range [0, {self.num_contexts})"
            )
        return self.contexts[context]


def _check_player(spec: GameSpec, player: int) -> None:
    if not 0 <= player < spec.num_players:
        raise GameSpecError(f"player {player} out of range [0, {spec.num_players})")


def _check_opponents(spec: GameSpec, opponents) -> list[MixedStrategy]:
    opponents = list(opponents)
    if len(opponents) != spec.num_players - 1:
        raise GameSpecError(
            f"expected {spec.num_players - 1} opponent strategies, got {len(opponents)}"
        )
    for w in opponents:
        if w.num_actions != spec.num_actions:
            raise GameSpecError(
                f"opponent strategy has {w.num_actions} actions, game has {spec.num_actions}"
            )
    return opponents


def expected_feature_matrix(spec: GameSpec, player: int, opponents) -> np.ndarray:
    """Expected feature matrix of shape (d, K) under the opponents' play.

    Column k is the expectation of the player's feature vector when it
    plays action k, taken over the opponents' product distribution by
    exact enumeration of all K**(J-1) opponent joint actions.

    `opponents` supplies the other J-1 players' MixedStrategy values in
    player order (the player itself omitted).
    """
    _check_player(spec, player)
    opponents = _check_opponents(spec, opponents)

    # Move the player's own axis to the front, then contract each opponent
    # axis in order; what remains is (K, d).
    tensor = np.moveaxis(spec.feature_tensor(player), player, 0)
    for w in opponents:
        tensor = np.tensordot(tensor, w.probs, axes=([1], [0]))
    return tensor.T  # (d, K)


def loss_vector(spec: GameSpec, player: int, opponents, context: int) -> LossVector:
    """Per-action loss vector: the expected feature matrix applied to the
    context vector (entry k = <column k, context>)."""
    z = spec.context_vector(context)
    phi = expected_feature_matrix(spec, player, opponents)
    return LossVector(phi.T @ z)


def loss_contraction(spec: GameSpec, player: int):
    """`loss_vector` for one player, set up once per run.

    Returns f(strategies, context_vector) -> (K,) losses, where
    strategies is a (J, K) array of every player's play (the player's own
    row is ignored). It repeats the arithmetic of `loss_vector` bit for
    bit: the first opponent axis is contracted with the operand
    `np.tensordot` builds (for players >= 1 a strided view, which must not
    be made contiguous: `np.dot` rounds differently on a copy), and any
    further opponents go through `np.tensordot` itself.
    """
    _check_player(spec, player)
    J, K, d = spec.num_players, spec.num_actions, spec.feature_dim
    tensor = np.moveaxis(spec.feature_tensor(player), player, 0)
    first = tensor.transpose([0, *range(2, J + 1), 1]).reshape(-1, K)
    shape = (K,) * (J - 1) + (d,)
    lead, *rest = [i for i in range(J) if i != player]

    def losses(strategies: np.ndarray, context_vector: np.ndarray) -> np.ndarray:
        phi = np.dot(first, strategies[lead].reshape(K, 1)).reshape(shape)
        for i in rest:
            phi = np.tensordot(phi, strategies[i], axes=([1], [0]))
        return phi @ context_vector

    return losses


def expected_cost(spec: GameSpec, player: int, profile: JointProfile, context: int) -> float:
    """Expected cost of `player` under the full joint profile at `context`,
    by exact enumeration over all K**J joint actions."""
    _check_player(spec, player)
    if len(profile) != spec.num_players:
        raise GameSpecError(
            f"profile has {len(profile)} strategies, game has {spec.num_players} players"
        )
    z = spec.context_vector(context)
    tensor = spec.feature_tensor(player) @ z  # (K, ..., K)
    for w in profile.strategies:
        tensor = np.tensordot(tensor, w.probs, axes=([0], [0]))
    return float(tensor)


def game_to_dict(spec: GameSpec) -> dict:
    """Plain-dict form of a game, as stored in game files."""
    return {
        "players": spec.num_players,
        "actions": spec.num_actions,
        "dim": spec.feature_dim,
        "contexts": [list(row) for row in spec.contexts],
        "features": [list(spec.features[j].reshape(-1)) for j in range(spec.num_players)],
    }


def game_from_dict(data: dict) -> GameSpec:
    """Build a GameSpec from its file representation.

    Expects keys: players, actions, dim, contexts (list of length-d
    vectors) and features (one flat array per player, K**J * d floats in
    lexicographic joint-action order, feature dimension innermost).
    """
    for key in ("players", "actions", "dim", "contexts", "features"):
        if key not in data:
            raise GameSpecError(f"game file missing field '{key}'")
    J = int(data["players"])
    K = int(data["actions"])
    d = int(data["dim"])
    contexts = np.asarray(data["contexts"], dtype=np.float64)
    raw = data["features"]
    if len(raw) != J:
        raise GameSpecError(f"features must list {J} per-player arrays, got {len(raw)}")
    features = np.empty((J, K**J, d))
    for j, flat in enumerate(raw):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != K**J * d:
            raise GameSpecError(
                f"features[{j}] must hold {K**J * d} floats "
                f"(K**J * d, joint-action major), got {flat.size}"
            )
        features[j] = flat.reshape(K**J, d)
    return GameSpec(J, K, d, features, contexts)


def load_game_file(path) -> GameSpec:
    """Load a game from a JSON document, reporting the offending entry on
    bounded-cost violations."""
    with open(path) as fh:
        data = json.load(fh)
    return game_from_dict(data)
