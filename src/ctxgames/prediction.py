"""Context prediction, misprediction accounting, and context processes.

Predictors supply each player's per-round context guess. The noisy kind
corrupts the realized context with probability p, always to a uniformly
random *different* context, so p is exactly the per-round mistake
probability. Randomness is counter-based (Philox keyed by seed/player,
counter = round), which makes every draw a pure function of
(seed, player, round) regardless of execution order.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

PREDICTOR_KINDS = ("oracle", "noisy", "scripted", "majority")
CONTEXT_PROCESS_KINDS = ("cycle", "markov", "script")


class PredictionError(ValueError):
    """Raised on invalid predictor or context-process configuration."""


def _stream_key(seed: int, player_key: int) -> int:
    return (seed & _MASK64) | ((player_key & _MASK64) << 64)


def _round_rng(seed: int, player_key: int, round_index: int) -> np.random.Generator:
    key = _stream_key(seed, player_key)
    return np.random.Generator(np.random.Philox(key=key, counter=round_index << 128))


@dataclass(frozen=True)
class PredictorConfig:
    """How one player's predictions are produced.

    kind: oracle | noisy | scripted | majority. Majority (the most
    frequent realized context so far, ties to the lowest index) is the
    stand-in for a learned online predictor.
    p: corruption probability (noisy only).
    sequence: per-round context indices (scripted only).
    seed: stream seed (noisy only).
    shared_stream: noisy players draw from one shared stream instead of
        independent per-player streams.
    """

    kind: str
    p: float = 0.0
    sequence: tuple = ()
    seed: int = 0
    shared_stream: bool = False

    def __post_init__(self):
        if self.kind not in PREDICTOR_KINDS:
            raise PredictionError(f"unknown predictor kind {self.kind!r}")
        if self.kind == "noisy" and not 0.0 <= self.p <= 1.0:
            raise PredictionError(f"noise probability must be in [0, 1], got {self.p}")
        object.__setattr__(self, "sequence", tuple(int(v) for v in self.sequence))

    def validate(self, num_contexts: int, horizon: int) -> None:
        """Checks that need the game/run shape."""
        if self.kind == "noisy" and self.p > 0.0 and num_contexts < 2:
            raise PredictionError(
                "noisy predictor with p > 0 needs at least 2 contexts"
            )
        if self.kind == "scripted":
            if len(self.sequence) < horizon:
                raise PredictionError(
                    f"scripted sequence has {len(self.sequence)} entries, horizon is {horizon}"
                )
            for t, v in enumerate(self.sequence[:horizon]):
                if not 0 <= v < num_contexts:
                    raise PredictionError(f"scripted sequence[{t}] = {v} out of range")


def predict(config: PredictorConfig, player: int, round_index: int,
            realized_context: int, history, num_contexts: int) -> int:
    """Player's context prediction for one round.

    `history` holds the realized contexts of rounds 0..round_index-1 only;
    the realized_context argument is consulted by the oracle and noisy
    kinds alone (they corrupt the truth), never by scripted or majority.
    """
    if config.kind == "oracle":
        return realized_context
    if config.kind == "noisy":
        if config.p == 0.0:
            return realized_context
        if num_contexts < 2:
            raise PredictionError("noisy predictor with p > 0 needs at least 2 contexts")
        player_key = 0 if config.shared_stream else player + 1
        rng = _round_rng(config.seed, player_key, round_index)
        if rng.random() >= config.p:
            return realized_context
        other = int(rng.integers(num_contexts - 1))
        return other if other < realized_context else other + 1
    if config.kind == "scripted":
        return config.sequence[round_index]
    if config.kind == "majority":
        if round_index == 0 or not len(history):
            return 0
        counts = np.bincount(np.asarray(history[:round_index], dtype=np.int64))
        return int(np.argmax(counts))  # argmax ties break to lowest index
    raise PredictionError(f"unknown predictor kind {config.kind!r}")


def predict_run(predictors, contexts: np.ndarray, num_contexts: int) -> np.ndarray:
    """Every player's prediction for every round, as a (T, J) array.

    Round t of column j equals predict(predictors[j], j, t, contexts[t],
    contexts[:t], num_contexts): predictions depend on the context
    sequence alone, never on play, so a run's can all be made up front.
    """
    contexts = np.asarray(contexts, dtype=np.int64)
    out = np.empty((contexts.shape[0], len(predictors)), dtype=np.int64)
    for j, config in enumerate(predictors):
        config.validate(num_contexts, contexts.shape[0])
        if config.kind == "scripted":
            out[:, j] = config.sequence[:contexts.shape[0]]
        elif config.kind == "majority":
            out[:, j] = _majority(contexts, num_contexts)
        elif config.kind == "noisy" and config.p > 0.0:
            out[:, j] = _noisy(config, j, contexts, num_contexts)
        else:
            out[:, j] = contexts
    return out


def _majority(contexts: np.ndarray, num_contexts: int) -> list:
    """Most frequent context of rounds 0..t-1 for each round t, ties to the
    lowest index, from running counts."""
    counts = [0] * num_contexts
    best = 0
    out = [0]
    for z in contexts.tolist()[:-1]:
        counts[z] += 1
        if counts[z] > counts[best] or (counts[z] == counts[best] and z < best):
            best = z
        out.append(best)
    return out[:contexts.shape[0]]


def _noisy(config: PredictorConfig, player: int, contexts: np.ndarray, num_contexts: int) -> list:
    """Noisy predictions of one player from a single generator on its
    stream. Resetting the Philox counter to round << 128 before each
    round's draws gives the draws of _round_rng(seed, player_key, round),
    since Philox output is a pure function of (key, counter); the reset
    costs a fraction of building a new generator."""
    player_key = 0 if config.shared_stream else player + 1
    bits = np.random.Philox(key=_stream_key(config.seed, player_key))
    rng = np.random.Generator(bits)
    state = bits.state  # fresh: empty buffer, counter 0
    counter = state["state"]["counter"]  # four little-endian 64-bit words
    out = []
    for t, z in enumerate(contexts.tolist()):
        counter[2] = t  # round << 128, for round < 2**64
        bits.state = state
        if rng.random() >= config.p:
            out.append(z)
        else:
            other = int(rng.integers(num_contexts - 1))
            out.append(other if other < z else other + 1)
    return out


class MistakeLedger:
    """Per-round, per-player misprediction flags and counts.

    Single writer: each (round, player) cell is written exactly once.
    """

    def __init__(self, horizon: int, num_players: int):
        self.horizon = horizon
        self.num_players = num_players
        self.per_round_flags = np.zeros((horizon, num_players), dtype=bool)
        self.per_player_mistakes = np.zeros(num_players, dtype=np.int64)
        self._written = np.zeros((horizon, num_players), dtype=bool)


def record_and_count(ledger: MistakeLedger, round_index: int, player: int,
                     predicted: int, realized: int) -> MistakeLedger:
    """Record one prediction outcome; rejects double writes."""
    if not 0 <= round_index < ledger.horizon:
        raise PredictionError(f"round {round_index} outside horizon {ledger.horizon}")
    if not 0 <= player < ledger.num_players:
        raise PredictionError(f"player {player} out of range")
    if ledger._written[round_index, player]:
        raise PredictionError(f"cell (round {round_index}, player {player}) already written")
    ledger._written[round_index, player] = True
    flag = predicted != realized
    ledger.per_round_flags[round_index, player] = flag
    if flag:
        ledger.per_player_mistakes[player] += 1
    return ledger


@dataclass(frozen=True)
class ContextProcessConfig:
    """How nature's realized context sequence is produced.

    cycle: Z_t = t mod m. markov: seeded chain over m states started at
    state 0, rows of `transition` sum to 1 within 1e-9. script: explicit
    sequence.
    """

    kind: str
    transition: tuple = ()
    sequence: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CONTEXT_PROCESS_KINDS:
            raise PredictionError(f"unknown context process kind {self.kind!r}")
        object.__setattr__(self, "sequence", tuple(int(v) for v in self.sequence))
        object.__setattr__(
            self, "transition", tuple(tuple(float(x) for x in row) for row in self.transition)
        )

    def validate(self, num_contexts: int, horizon: int) -> None:
        """Checks that need the game/run shape; messages start with the
        offending field."""
        m = num_contexts
        if self.kind == "markov":
            matrix = np.asarray(self.transition, dtype=np.float64)
            if matrix.shape != (m, m):
                raise PredictionError(f"transition: must be {m}x{m}, got {matrix.shape}")
            if np.any(matrix < 0) or np.any(np.abs(matrix.sum(axis=1) - 1.0) > 1e-9):
                raise PredictionError(
                    "transition: rows must be nonnegative and sum to 1 within 1e-9"
                )
        if self.kind == "script":
            if len(self.sequence) < horizon:
                raise PredictionError(
                    f"sequence: has {len(self.sequence)} entries, horizon is {horizon}"
                )
            seq = np.asarray(self.sequence[:horizon], dtype=np.int64)
            if seq.size and (seq.min() < 0 or seq.max() >= m):
                raise PredictionError(f"sequence: entry out of range [0, {m})")


def generate_contexts(process: ContextProcessConfig, num_contexts: int, horizon: int) -> np.ndarray:
    """Realized context indices for rounds 0..horizon-1."""
    process.validate(num_contexts, horizon)
    m = num_contexts
    if process.kind == "cycle":
        return np.arange(horizon, dtype=np.int64) % m
    if process.kind == "script":
        return np.asarray(process.sequence[:horizon], dtype=np.int64)
    if process.kind == "markov":
        # One draw per round from one generator; the next state is the first
        # CDF entry above the draw, clamped to m - 1 against rounding.
        cdf = np.cumsum(np.asarray(process.transition, dtype=np.float64), axis=1).tolist()
        draws = _round_rng(process.seed, 0, 0).random(horizon).tolist()
        out = []
        state = 0
        for u in draws:
            out.append(state)
            state = min(bisect.bisect_right(cdf[state], u), m - 1)
        return np.array(out, dtype=np.int64)
    raise PredictionError(f"unknown context process kind {process.kind!r}")
