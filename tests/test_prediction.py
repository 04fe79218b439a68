import numpy as np
import pytest
from scipy import stats

from ctxgames.prediction import (
    ContextProcessConfig,
    MistakeLedger,
    PredictionError,
    PredictorConfig,
    _round_rng,
    generate_contexts,
    predict,
    record_and_count,
)


class TestOraclePredictor:
    def test_always_matches_realization(self):
        config = PredictorConfig(kind="oracle")
        rng = np.random.default_rng(0)
        seq = rng.integers(0, 3, size=200)
        for t, z in enumerate(seq):
            assert predict(config, 0, t, int(z), seq[:t], 3) == z


class TestNoisyPredictor:
    def test_full_corruption_always_other_context(self):
        config = PredictorConfig(kind="noisy", p=1.0, seed=3)
        for t in range(200):
            guess = predict(config, 0, t, 0, [], 2)
            assert guess == 1

    def test_empirical_rate_close_to_p(self):
        config = PredictorConfig(kind="noisy", p=0.3, seed=12)
        mistakes = 0
        T = 10_000
        for t in range(T):
            z = t % 3
            if predict(config, 0, t, z, [], 3) != z:
                mistakes += 1
        assert abs(mistakes / T - 0.3) <= 0.02

    def test_flags_pass_chi_square_gof(self):
        config = PredictorConfig(kind="noisy", p=0.2, seed=77)
        n = 100_000
        hits = sum(
            predict(config, 0, t, t % 4, [], 4) != t % 4 for t in range(n)
        )
        result = stats.chisquare([hits, n - hits], [0.2 * n, 0.8 * n])
        assert result.pvalue > 1e-3

    def test_corruption_uniform_over_other_contexts(self):
        config = PredictorConfig(kind="noisy", p=1.0, seed=5)
        counts = np.zeros(4, dtype=int)
        n = 30_000
        for t in range(n):
            counts[predict(config, 0, t, 1, [], 4)] += 1
        assert counts[1] == 0
        others = counts[[0, 2, 3]]
        assert stats.chisquare(others).pvalue > 1e-3

    def test_counter_based_draws_are_order_independent(self):
        config = PredictorConfig(kind="noisy", p=0.5, seed=9)
        forward = [predict(config, 0, t, 0, [], 3) for t in range(50)]
        backward = [predict(config, 0, t, 0, [], 3) for t in reversed(range(50))]
        assert forward == list(reversed(backward))

    def test_players_get_independent_streams(self):
        config = PredictorConfig(kind="noisy", p=0.5, seed=4)
        a = [predict(config, 0, t, 0, [], 2) for t in range(200)]
        b = [predict(config, 1, t, 0, [], 2) for t in range(200)]
        assert a != b

    def test_shared_stream_switch(self):
        config = PredictorConfig(kind="noisy", p=0.5, seed=4, shared_stream=True)
        a = [predict(config, 0, t, 0, [], 2) for t in range(200)]
        b = [predict(config, 1, t, 0, [], 2) for t in range(200)]
        assert a == b

    def test_single_context_with_noise_rejected(self):
        config = PredictorConfig(kind="noisy", p=0.5, seed=1)
        with pytest.raises(PredictionError):
            config.validate(num_contexts=1, horizon=10)
        with pytest.raises(PredictionError):
            predict(config, 0, 0, 0, [], 1)

    def test_bad_probability_rejected(self):
        with pytest.raises(PredictionError):
            PredictorConfig(kind="noisy", p=1.2)


class TestScriptedAndMajority:
    def test_scripted_follows_sequence_and_ignores_realization(self):
        config = PredictorConfig(kind="scripted", sequence=[2, 0, 1, 1])
        for t, want in enumerate([2, 0, 1, 1]):
            assert predict(config, 0, t, 0, [0] * t, 3) == want
            assert predict(config, 0, t, 99, [0] * t, 3) == want  # causality

    def test_scripted_too_short_rejected(self):
        config = PredictorConfig(kind="scripted", sequence=[0, 1])
        with pytest.raises(PredictionError):
            config.validate(num_contexts=2, horizon=3)

    def test_majority_mode_with_low_index_ties(self):
        config = PredictorConfig(kind="majority")
        assert predict(config, 0, 0, 1, [], 3) == 0      # first round
        assert predict(config, 0, 3, 2, [1, 2, 1], 3) == 1
        assert predict(config, 0, 2, 0, [2, 1], 3) == 1  # tie -> lowest index

    def test_majority_depends_only_on_history_prefix(self):
        config = PredictorConfig(kind="majority")
        history = [0, 1, 1, 2, 1]
        for realized in range(3):
            assert predict(config, 0, 5, realized, history, 3) == 1


class TestMistakeLedger:
    def test_counts_match_flags(self):
        ledger = MistakeLedger(horizon=4, num_players=2)
        outcomes = [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 2, 2), (1, 1, 1, 0)]
        for t, j, pred, real in outcomes:
            record_and_count(ledger, t, j, pred, real)
        for j in range(2):
            assert ledger.per_player_mistakes[j] == ledger.per_round_flags[:, j].sum()

    def test_recount_from_raw_trace(self):
        rng = np.random.default_rng(8)
        T, J, m = 50, 3, 4
        realized = rng.integers(0, m, size=T)
        predicted = rng.integers(0, m, size=(T, J))
        ledger = MistakeLedger(horizon=T, num_players=J)
        for t in range(T):
            for j in range(J):
                record_and_count(ledger, t, j, int(predicted[t, j]), int(realized[t]))
        for j in range(J):
            assert ledger.per_player_mistakes[j] == int((predicted[:, j] != realized).sum())

    def test_all_correct_and_single_mistake(self):
        ledger = MistakeLedger(horizon=3, num_players=3)
        for t in range(3):
            for j in range(3):
                record_and_count(ledger, t, j, 0, 0)
        assert list(ledger.per_player_mistakes) == [0, 0, 0]
        ledger2 = MistakeLedger(horizon=3, num_players=3)
        for t in range(3):
            for j in range(3):
                record_and_count(ledger2, t, j, 1 if (t, j) == (2, 1) else 0, 0)
        assert list(ledger2.per_player_mistakes) == [0, 1, 0]

    def test_double_write_rejected(self):
        ledger = MistakeLedger(horizon=2, num_players=1)
        record_and_count(ledger, 0, 0, 0, 0)
        with pytest.raises(PredictionError):
            record_and_count(ledger, 0, 0, 1, 0)

    def test_out_of_range_rejected(self):
        ledger = MistakeLedger(horizon=2, num_players=1)
        with pytest.raises(PredictionError):
            record_and_count(ledger, 2, 0, 0, 0)


class TestContextProcesses:
    def test_cycle(self):
        seq = generate_contexts(ContextProcessConfig(kind="cycle"), 3, 7)
        assert list(seq) == [0, 1, 2, 0, 1, 2, 0]

    def test_script_validation(self):
        process = ContextProcessConfig(kind="script", sequence=[0, 1, 0])
        assert list(generate_contexts(process, 2, 3)) == [0, 1, 0]
        with pytest.raises(PredictionError):
            generate_contexts(process, 2, 4)
        with pytest.raises(PredictionError):
            generate_contexts(ContextProcessConfig(kind="script", sequence=[0, 5]), 2, 2)

    def test_markov_seeded_and_valid(self):
        transition = ((0.9, 0.1), (0.2, 0.8))
        process = ContextProcessConfig(kind="markov", transition=transition, seed=5)
        a = generate_contexts(process, 2, 500)
        b = generate_contexts(process, 2, 500)
        assert np.array_equal(a, b)
        assert a[0] == 0
        assert set(np.unique(a)) <= {0, 1}
        # sticky chain: most transitions stay put
        stays = (a[1:] == a[:-1]).mean()
        assert stays > 0.6

    def test_markov_matches_per_round_searchsorted_loop(self):
        # the chain as it was once stepped: one rng.random() and one
        # np.searchsorted per round
        def stepped(process, m, horizon):
            cdf = np.cumsum(np.asarray(process.transition, dtype=np.float64), axis=1)
            rng = _round_rng(process.seed, 0, 0)
            out = np.empty(horizon, dtype=np.int64)
            state = 0
            for t in range(horizon):
                out[t] = state
                state = int(np.searchsorted(cdf[state], rng.random(), side="right"))
                state = min(state, m - 1)
            return out

        rng = np.random.default_rng(2024)
        for chain in range(30):
            m = 2 + chain % 4
            transition = rng.dirichlet(np.full(m, 0.7), size=m).tolist()
            process = ContextProcessConfig(kind="markov", transition=transition,
                                           seed=int(rng.integers(2**63)))
            horizon = 2000 + 50 * chain
            got = generate_contexts(process, m, horizon)
            assert got.dtype == np.int64
            assert got.tobytes() == stepped(process, m, horizon).tobytes()

    def test_markov_row_sum_validation(self):
        process = ContextProcessConfig(kind="markov", transition=((0.9, 0.2), (0.2, 0.8)))
        with pytest.raises(PredictionError):
            generate_contexts(process, 2, 10)

    def test_unknown_kinds_rejected(self):
        with pytest.raises(PredictionError):
            PredictorConfig(kind="psychic")
        with pytest.raises(PredictionError):
            ContextProcessConfig(kind="weather")
