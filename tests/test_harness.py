import json
import math
import sys
import threading

import numpy as np
import pytest

from ctxgames.cli import main as cli_main
from ctxgames.game import game_to_dict, loss_vector
from ctxgames.harness import (
    ConfigError,
    _write_atomic,
    apply_sweep_value,
    config_digest,
    opposed_contexts_game,
    parse_config,
    random_bilinear_game,
    run_single,
    run_sweep,
    zero_sum_game,
)
from ctxgames.metrics import verify_trace


def base_config(**overrides):
    data = {
        "schema_version": 1,
        "game": {"generator": {"name": "opposed_contexts", "actions": 3}},
        "horizon": 300,
        "eta": 0.5,
        "context_process": {"kind": "cycle"},
        "predictors": [{"kind": "noisy", "p": 0.2, "seed": 3}],
        "seeds": [1, 2],
        "output": "out",
    }
    data.update(overrides)
    return data


class TestGenerators:
    def test_random_bilinear_respects_cost_bound(self):
        for seed in range(5):
            spec = random_bilinear_game(seed, players=2, actions=4, dim=3, contexts=3)
            products = spec.features @ spec.contexts.T
            assert np.abs(products).max() <= 0.95 + 1e-12

    def test_zero_sum_costs_cancel(self):
        spec = zero_sum_game(actions=3, scale=0.9)
        assert np.allclose(spec.features[0] + spec.features[1], 0.0)

    def test_opposed_contexts_losses_constant_and_inverted(self):
        from ctxgames.game import MixedStrategy
        spec = opposed_contexts_game(actions=3, scale=0.9)
        rng = np.random.default_rng(0)
        for _ in range(5):
            w = MixedStrategy(np.diff(np.concatenate([[0], np.sort(rng.random(2)), [1]])))
            l0 = loss_vector(spec, 0, [w], 0).values
            l1 = loss_vector(spec, 0, [w], 1).values
            assert np.allclose(l0, [-0.9, 0.9, 0.0])
            assert np.allclose(l1, -l0)


class TestConfigParsing:
    def test_missing_horizon_reports_field(self):
        data = base_config()
        del data["horizon"]
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(data)

    def test_bad_eta(self):
        with pytest.raises(ConfigError, match="eta"):
            parse_config(base_config(eta=1.5))

    def test_bad_predictor_kind_reports_path(self):
        with pytest.raises(ConfigError, match=r"predictors\[0\]"):
            parse_config(base_config(predictors=[{"kind": "psychic"}]))

    def test_noisy_single_context_rejected(self):
        data = base_config(
            game={"generator": {"name": "zero_sum_2p", "actions": 2}},
            predictors=[{"kind": "noisy", "p": 0.2}],
        )
        with pytest.raises(ConfigError, match="contexts"):
            parse_config(data)

    def test_markov_rows_validated(self):
        data = base_config(context_process={
            "kind": "markov", "transition": [[0.9, 0.2], [0.5, 0.5]], "seed": 1,
        })
        with pytest.raises(ConfigError, match="transition"):
            parse_config(data)

    def test_sweep_axis_validated(self):
        with pytest.raises(ConfigError, match="sweep.axis"):
            parse_config(base_config(sweep={"axis": "gamma", "values": [1]}))

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(base_config(schema_version=99))

    def test_predictor_broadcast(self):
        config = parse_config(base_config())
        spec = config.resolve_game()
        assert spec.num_players == 2
        assert len(config.predictors) == 1  # broadcast happens at run time


class TestRunSingle:
    def test_same_seed_byte_identical_outputs(self, tmp_path):
        config = parse_config(base_config(output=str(tmp_path / "a")))
        path_a, _, _ = run_single(config, 7, out_dir=str(tmp_path / "a"))
        path_b, _, _ = run_single(config, 7, out_dir=str(tmp_path / "b"))
        a = open(path_a, "rb").read()
        b = open(path_b, "rb").read()
        assert a == b
        assert len(a.splitlines()) == 301  # header + one row per round

    def test_different_seeds_differ(self, tmp_path):
        config = parse_config(base_config())
        _, rm_a, _ = run_single(config, 1, write_files=False)
        _, rm_b, _ = run_single(config, 2, write_files=False)
        assert rm_a.mistakes != rm_b.mistakes

    def test_trace_self_consistent(self):
        config = parse_config(base_config(horizon=100))
        _, _, trace = run_single(config, 3, write_files=False)
        verify_trace(trace, config.resolve_game(), tol=1e-12)

    def test_matching_scripts_give_zero_mistakes(self):
        script = [0, 1] * 100
        config = parse_config(base_config(
            horizon=200,
            context_process={"kind": "script", "sequence": script},
            predictors=[{"kind": "scripted", "sequence": script}],
        ))
        _, rm, _ = run_single(config, 5, write_files=False)
        assert rm.mistakes == (0, 0)

    def test_single_context_oracle_bound_audit(self):
        config = parse_config(base_config(
            game={"generator": {"name": "random_bilinear", "seed": 42,
                                "players": 2, "actions": 3, "dim": 3, "contexts": 1}},
            horizon=1000,
            predictors=[{"kind": "oracle"}],
        ))
        _, rm, _ = run_single(config, 11, write_files=False)
        assert rm.mistakes == (0, 0)
        for j in range(2):
            bound = math.log(3) / rm.eta + 2 * rm.eta * sum(rm.variation[j])
            assert rm.contextual_regret[j] <= bound + 1e-9

    def test_eta_rule_two_pass_records_pilot(self, tmp_path):
        config = parse_config(base_config(eta="rule", horizon=150,
                                          output=str(tmp_path)))
        trace_path, rm, _ = run_single(config, 4, out_dir=str(tmp_path))
        assert 0 < rm.eta <= 1.0
        pilot = trace_path.replace(".csv", "_pilot.csv")
        import os
        assert os.path.exists(pilot)

    def test_majority_predictor_runs(self):
        config = parse_config(base_config(
            horizon=120, predictors=[{"kind": "majority"}, {"kind": "oracle"}]))
        _, rm, _ = run_single(config, 6, write_files=False)
        # cycle alternates contexts, majority is wrong roughly half the time
        assert rm.mistakes[0] > 30
        assert rm.mistakes[1] == 0


class TestSweeps:
    def test_noise_sweep_mistake_rates_track_p(self, tmp_path):
        config = parse_config(base_config(
            horizon=400,
            seeds=[1, 2, 3, 4, 5],
            sweep={"axis": "p", "values": [0.0, 0.5]},
            output=str(tmp_path),
        ))
        summary_path, failures = run_sweep(config)
        assert failures == 0
        rows = [line.split(",") for line in open(summary_path).read().splitlines()]
        header = rows[0]
        col_mistakes = header.index("mistakes_p0")
        col_sweep = header.index("sweep_value")
        by_value = {}
        for row in rows[1:]:
            if row[0].startswith(("mean", "stderr", "failed")):
                continue
            by_value.setdefault(float(row[col_sweep]), []).append(int(row[col_mistakes]))
        for value, mistakes in by_value.items():
            rate = np.mean(mistakes) / 400
            assert abs(rate - value) <= 0.02

    def test_eta_sweep_term_b_arithmetic(self, tmp_path):
        config = parse_config(base_config(
            horizon=200,
            seeds=[1, 2],
            sweep={"axis": "eta", "values": [0.1, 0.3, 1.0]},
            output=str(tmp_path),
        ))
        summary_path, failures = run_sweep(config)
        assert failures == 0
        rows = [line.split(",") for line in open(summary_path).read().splitlines()]
        header = rows[0]
        for row in rows[1:]:
            if row[0].startswith(("mean", "stderr")):
                continue
            eta = float(row[header.index("eta")])
            for j in range(2):
                mistakes = int(row[header.index(f"mistakes_p{j}")])
                term_b = float(row[header.index(f"term_b_p{j}")])
                # CSV floats carry 12 significant digits
                assert term_b == pytest.approx(2.0 * mistakes / eta, rel=1e-11)

    def test_cell_metrics_independent_of_sweep(self, tmp_path):
        config = parse_config(base_config(
            horizon=150, seeds=[9],
            sweep={"axis": "p", "values": [0.1, 0.4]},
            output=str(tmp_path),
        ))
        cell = apply_sweep_value(config, 0.4)
        _, rm_alone, _ = run_single(cell, 9, write_files=False)
        summary_path, _ = run_sweep(config)
        rows = [line.split(",") for line in open(summary_path).read().splitlines()]
        header = rows[0]
        target = [r for r in rows[1:]
                  if not r[0].startswith(("mean", "stderr"))
                  and r[header.index("sweep_value")] == "0.4"][0]
        assert int(target[header.index("mistakes_p0")]) == rm_alone.mistakes[0]
        got = float(target[header.index("ctx_regret_p0")])
        assert got == pytest.approx(rm_alone.contextual_regret[0], rel=1e-11)

    def test_failed_cells_recorded(self, tmp_path):
        config = parse_config(base_config(
            horizon=50, seeds=[1],
            sweep={"axis": "p", "values": [0.2, 1.5]},  # 1.5 is invalid
            output=str(tmp_path),
        ))
        summary_path, failures = run_sweep(config)
        assert failures == 1
        text = open(summary_path).read()
        assert "error:" in text

    def test_threaded_sweep_matches_serial(self, tmp_path):
        config_a = parse_config(base_config(
            horizon=100, seeds=[1, 2], sweep={"axis": "p", "values": [0.0, 0.3]},
            output=str(tmp_path / "serial")))
        config_b = parse_config(base_config(
            horizon=100, seeds=[1, 2], sweep={"axis": "p", "values": [0.0, 0.3]},
            output=str(tmp_path / "parallel")))
        path_a, _ = run_sweep(config_a, threads=1)
        path_b, _ = run_sweep(config_b, threads=2)
        assert open(path_a).read() == open(path_b).read()

    def test_config_echo_has_digest(self, tmp_path):
        config = parse_config(base_config(
            horizon=50, seeds=[1], sweep={"axis": "p", "values": [0.1]},
            output=str(tmp_path)))
        run_sweep(config)
        echo = json.loads(open(tmp_path / "config_echo.json").read())
        assert echo["digest"] == config_digest(config.raw)


class TestTraceCsv:
    def test_metrics_recomputable_from_trace_file(self, tmp_path):
        config = parse_config(base_config(horizon=300, output=str(tmp_path)))
        trace_path, rm, _ = run_single(config, 13, out_dir=str(tmp_path))
        rows = [line.split(",") for line in open(trace_path).read().splitlines()]
        header, body = rows[0], rows[1:]
        assert len(body) == 300
        K = rm.num_actions

        def cols(prefix):
            return [header.index(c) for c in header if c.startswith(prefix)]

        for j in range(2):
            w_cols = cols(f"w_p{j}_a")
            l_cols = cols(f"l_p{j}_a")
            z_col = header.index("Z")
            miss_col = header.index(f"miss_p{j}")
            inst_col = header.index(f"inst_regret_p{j}")

            assert sum(int(r[miss_col]) for r in body) == rm.mistakes[j]

            # rebuild per-context comparators from the stored loss vectors
            summed = {z: np.zeros(K) for z in range(rm.num_contexts)}
            for r in body:
                z = int(r[z_col])
                summed[z] += np.array([float(r[c]) for c in l_cols])
            comp = {z: int(np.argmin(summed[z])) for z in summed}

            regret = 0.0
            inst_total = 0.0
            for r in body:
                z = int(r[z_col])
                w = np.array([float(r[c]) for c in w_cols])
                ell = np.array([float(r[c]) for c in l_cols])
                regret += float(w @ ell) - float(ell[comp[z]])
                inst_total += float(r[inst_col])
            assert regret == pytest.approx(rm.contextual_regret[j], abs=1e-6)
            assert inst_total == pytest.approx(rm.contextual_regret[j], abs=1e-6)


class TestCli:
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(output=str(tmp_path / "out"), **overrides)))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        assert cli_main(["validate", "--config", self.write_config(tmp_path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_rejects_bad_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(base_config(eta=7)))
        assert cli_main(["validate", "--config", str(path)]) == 1

    def test_validate_rejects_bad_game_file(self, tmp_path):
        game = tmp_path / "game.json"
        game.write_text(json.dumps({
            "players": 2, "actions": 2, "dim": 1,
            "contexts": [[1.0]],
            "features": [[2.0, 0, 0, 0], [0, 0, 0, 0]],
        }))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(base_config(game={"path": str(game)})))
        assert cli_main(["validate", "--config", str(config)]) == 1

    def test_run_writes_outputs(self, tmp_path, capsys):
        code = cli_main(["run", "--config", self.write_config(tmp_path, horizon=80),
                         "--seed", "3"])
        assert code == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "summary.csv").exists()
        assert any(p.name.startswith("trace_") for p in out_dir.iterdir())

    def test_sweep_cli(self, tmp_path):
        path = self.write_config(
            tmp_path, horizon=60, seeds=[1],
            sweep={"axis": "p", "values": [0.0, 0.2]})
        assert cli_main(["sweep", "--config", path, "--threads", "1"]) == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_oracle_check_spot(self, capsys):
        assert cli_main(["oracle-check", "--trials", "5"]) == 0
        assert "oracle-check" in capsys.readouterr().out

    def test_missing_config_is_io_or_config_error(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "nope.json")]) == 3

    def test_inline_game_config(self, tmp_path):
        spec = random_bilinear_game(0, players=2, actions=2, dim=2, contexts=2)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(
            game={"inline": game_to_dict(spec)},
            horizon=40,
            output=str(tmp_path / "out"),
        )))
        assert cli_main(["run", "--config", str(path)]) == 0

    def test_sweep_with_failing_cell_exits_nonzero(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(
            horizon=40, seeds=[1],
            sweep={"axis": "p", "values": [0.1, 1.5]},
            output=str(tmp_path / "out"),
        )))
        assert cli_main(["sweep", "--config", str(path)]) == 2

    def test_hidden_verb_absent_from_usage(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        out = capsys.readouterr().out
        assert "oracle-check" not in out
        assert "validate" in out


# Malformed configs: each must exit 1 from both verbs with its field path on
# stderr, never a traceback (which would propagate out of cli_main here).
MALFORMED = {
    "horizon_bool": ({"horizon": True}, "horizon"),
    "eta_bool": ({"eta": True}, "eta"),
    "eta_string": ({"eta": "fast"}, "eta"),
    "schema_version_bool": ({"schema_version": True}, "schema_version"),
    "predictor_not_object": ({"predictors": [3]}, "predictors[0]"),
    "predictors_not_list": ({"predictors": 3}, "predictors"),
    "predictor_p_bool": ({"predictors": [{"kind": "noisy", "p": True}]}, "predictors[0].p"),
    "predictor_seed_string": ({"predictors": [{"kind": "noisy", "p": 0.1, "seed": "x"}]},
                              "predictors[0].seed"),
    "predictor_sequence_strings": ({"predictors": [{"kind": "scripted", "sequence": ["a"]}]},
                                   "predictors[0]"),
    "seed_string": ({"seeds": ["a"]}, "seeds[0]"),
    "seed_bool": ({"seeds": [True]}, "seeds[0]"),
    "seed_fraction": ({"seeds": [1.5]}, "seeds[0]"),
    "process_not_object": ({"context_process": "cycle"}, "context_process"),
    "process_seed_bool": ({"context_process": {"kind": "cycle", "seed": False}},
                          "context_process.seed"),
    "sweep_value_bool": ({"sweep": {"axis": "p", "values": [True]}}, "sweep.values[0]"),
    "sweep_not_object": ({"sweep": [0.1]}, "sweep"),
    "zero_sum_one_action": ({"game": {"generator": {"name": "zero_sum_2p", "actions": 1}},
                             "predictors": [{"kind": "oracle"}]}, "game.generator.actions"),
    "generator_players_bool": ({"game": {"generator": {"name": "random_bilinear", "seed": 1,
                                                       "players": True}}},
                               "game.generator.players"),
    "generator_scale_bool": ({"game": {"generator": {"name": "opposed_contexts",
                                                     "scale": True}}},
                             "game.generator.scale"),
    "generator_not_object": ({"game": {"generator": "zero_sum_2p"}}, "game.generator"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_config_exits_1_with_field_path(name, tmp_path, capsys):
    overrides, field = MALFORMED[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(output=str(tmp_path / "out"), **overrides)))
    errors = []
    for verb in ("validate", "run"):
        assert cli_main([verb, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: {field}:" in err and "Traceback" not in err
        errors.append(err)
    assert errors[0] == errors[1]
    assert not (tmp_path / "out").exists()


def test_no_temp_file_left_after_run_and_sweep(tmp_path):
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(base_config(eta="rule", horizon=40,
                                               output=str(tmp_path / "run"))))
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(base_config(
        horizon=40, seeds=[1, 1], sweep={"axis": "p", "values": [0.1, 0.1]},
        output=str(tmp_path / "sweep"))))
    assert cli_main(["run", "--config", str(run_path)]) == 0
    assert cli_main(["sweep", "--config", str(sweep_path)]) == 0
    names = [p.name for p in tmp_path.rglob("*")]
    assert any(n.endswith("_pilot.csv") for n in names)
    assert not [n for n in names if n.endswith(".tmp")]


def test_concurrent_writers_of_one_path_do_not_share_a_temp_file(tmp_path):
    target = str(tmp_path / "shared.csv")
    texts = [f"writer {i}\n" * 2000 for i in range(4)]
    errors = []

    def write(text):
        try:
            for _ in range(30):
                _write_atomic(target, text)
        except Exception as exc:  # collected: a shared temp file makes os.replace fail
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(t,)) for t in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-write included
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert open(target).read() in texts
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shared.csv"]
