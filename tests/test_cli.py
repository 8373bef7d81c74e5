"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        commands = set(sub.choices)
        assert commands == {
            "topology", "simulate", "evaluate", "fig6", "fig10",
            "fit-dbn", "trace", "config", "scenarios",
            "serve", "submit", "runs", "check", "ope",
        }

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_version_single_sourced(self):
        """setup.py must carry no literal version of its own."""
        import pathlib
        import re

        import repro

        setup_py = (pathlib.Path(__file__).parent.parent
                    / "setup.py").read_text()
        assert 'version="' not in setup_py
        init_py = (pathlib.Path(repro.__file__)).read_text()
        match = re.search(r'^__version__ = "([^"]+)"$', init_py, re.MULTILINE)
        assert match and match.group(1) == repro.__version__

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["topology", "--preset", "huge"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "magic"])


class TestScenarios:
    def test_lists_catalogue(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "inasim-paper-v1" in out
        assert "tiny-scripted-rush-v1" in out

    def test_tag_filter(self, capsys):
        assert main(["scenarios", "--tag", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "paper-destroy-opc-v1" in out
        assert "inasim-tiny-v1" not in out

    def test_unknown_tag_fails(self, capsys):
        assert main(["scenarios", "--tag", "no-such-tag"]) == 1

    def test_simulate_accepts_scenario(self, capsys):
        code = main([
            "simulate", "--scenario", "inasim-tiny-v1", "--policy", "noop",
            "--episodes", "1", "--max-steps", "10",
        ])
        assert code == 0
        assert "noop" in capsys.readouterr().out

    def test_simulate_num_envs_matches_single(self, capsys):
        argv = ["simulate", "--scenario", "inasim-tiny-v1", "--policy",
                "playbook", "--episodes", "2", "--max-steps", "20"]
        main(argv)
        single = capsys.readouterr().out.splitlines()[-1]
        main(argv + ["--num-envs", "2"])
        vec = capsys.readouterr().out.splitlines()[-1]
        assert single == vec  # identical metrics row

    def test_unknown_scenario_id_fails(self, capsys):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["simulate", "--scenario", "nope-v1", "--episodes", "1"])


class TestTopology:
    def test_prints_inventory(self, capsys):
        assert main(["topology", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "nodes: 6" in out
        assert "plcs: 4" in out
        assert "server-opc" in out

    def test_paper_preset_counts(self, capsys):
        main(["topology", "--preset", "paper"])
        out = capsys.readouterr().out
        assert "nodes: 33" in out
        assert "plcs: 50" in out


class TestSimulate:
    def test_noop_policy_runs(self, capsys):
        code = main([
            "simulate", "--preset", "tiny", "--policy", "noop",
            "--episodes", "1", "--max-steps", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Discounted Return" in out
        assert "noop" in out

    def test_verbose_prints_per_episode(self, capsys):
        main([
            "simulate", "--preset", "tiny", "--policy", "playbook",
            "--episodes", "2", "--max-steps", "15", "--verbose",
        ])
        out = capsys.readouterr().out
        assert out.count("seed=") == 2


class TestConfigCommand:
    def test_prints_valid_json(self, capsys):
        main(["config", "--preset", "tiny"])
        data = json.loads(capsys.readouterr().out)
        assert data["topology"]["plcs"] == 4

    def test_config_file_roundtrip(self, capsys, tmp_path):
        main(["config", "--preset", "tiny"])
        path = tmp_path / "c.json"
        path.write_text(capsys.readouterr().out)
        code = main([
            "simulate", "--config", str(path), "--policy", "noop",
            "--episodes", "1", "--max-steps", "10",
        ])
        assert code == 0

    def test_max_steps_caps_tmax(self, capsys):
        main(["config", "--preset", "tiny", "--max-steps", "50"])
        data = json.loads(capsys.readouterr().out)
        assert data["tmax"] == 50


class TestTrace:
    def test_writes_jsonl(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        code = main([
            "trace", "--preset", "tiny", "--policy", "random",
            "--max-steps", "15", "--out", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 16  # header + 15 steps
        assert "wrote 15-step trace" in capsys.readouterr().out


class TestFitDbn:
    def test_writes_tables(self, capsys, tmp_path):
        out_path = tmp_path / "tables.npz"
        code = main([
            "fit-dbn", "--preset", "tiny", "--episodes", "2",
            "--max-steps", "30", "--out", str(out_path),
        ])
        assert code == 0
        from repro.dbn import DBNTables

        tables = DBNTables.load(out_path)
        assert tables.transition.ndim == 4


@pytest.fixture(scope="module")
def dbn_file(tmp_path_factory):
    """Tables fitted once and passed to the experiment subcommands via
    --dbn, so they skip the fit-on-the-fly path."""
    path = tmp_path_factory.mktemp("cli") / "tables.npz"
    main(["fit-dbn", "--preset", "tiny", "--episodes", "2",
          "--max-steps", "30", "--out", str(path)])
    return str(path)


class TestExperimentCommands:
    def test_evaluate_prints_all_baselines(self, capsys, dbn_file):
        code = main([
            "evaluate", "--preset", "tiny", "--episodes", "1",
            "--max-steps", "20", "--dbn", dbn_file,
        ])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("DBN Expert", "Playbook", "Semi Random"):
            assert name in out

    def test_fig6_prints_both_panels(self, capsys, dbn_file):
        code = main([
            "fig6", "--preset", "tiny", "--episodes", "1",
            "--max-steps", "15", "--dbn", dbn_file,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "final_plcs_offline" in out
        assert "avg_nodes_compromised" in out

    def test_fig10_prints_both_attackers(self, capsys, dbn_file):
        code = main([
            "fig10", "--preset", "tiny", "--episodes", "1",
            "--max-steps", "15", "--dbn", dbn_file,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "APT1" in out and "APT2" in out

    def test_acso_policy_with_untrained_network(self, capsys, dbn_file):
        code = main([
            "simulate", "--preset", "tiny", "--policy", "acso",
            "--episodes", "1", "--max-steps", "10", "--dbn", dbn_file,
        ])
        assert code == 0
        assert "acso" in capsys.readouterr().out


class TestRunsCli:
    @pytest.fixture()
    def store_path(self, tmp_path):
        from repro.serve.store import RunStore

        path = tmp_path / "runs.sqlite"
        with RunStore(path) as store:
            rid = store.create_run(
                "evaluate", scenario_id="inasim-tiny-v1", policy="playbook",
                seed=7, episodes=2, tags=["cli-test"],
            )
            store.mark_running(rid)
            store.record_episode(rid, 0, {"steps": 5}, seed=7, wall_time=0.1)
            store.record_episode(rid, 1, {"steps": 5}, seed=8, wall_time=0.1)
            store.finish_run(rid, {"discounted_return": [1.0, 0.0]})
            # a row an older server recorded under a since-removed job kind
            legacy = store.create_run("selfplay",
                                      scenario_id="inasim-tiny-v1",
                                      policy="playbook", seed=1)
        return str(path), rid, legacy

    def test_runs_list(self, capsys, store_path):
        path, rid, legacy = store_path
        assert main(["runs", "list", "--db", path]) == 0
        out = capsys.readouterr().out
        assert rid in out and "cli-test" in out
        assert legacy in out and "selfplay" in out

    def test_runs_list_filters(self, capsys, store_path):
        path, rid, _ = store_path
        assert main(["runs", "list", "--db", path, "--status", "done"]) == 0
        out = capsys.readouterr().out
        assert rid in out and "queued" not in out
        # filter that matches nothing exits 1
        assert main(["runs", "list", "--db", path,
                     "--tag", "absent"]) == 1

    def test_runs_show(self, capsys, store_path):
        path, rid, legacy = store_path
        assert main(["runs", "show", rid, "--db", path]) == 0
        out = capsys.readouterr().out
        assert rid in out
        assert "episode records (2)" in out
        assert "discounted_return" in out
        assert main(["runs", "show", legacy, "--db", path]) == 0
        out = capsys.readouterr().out
        assert legacy in out and "selfplay" in out

    def test_runs_show_unknown_id(self, store_path):
        path, _, _ = store_path
        with pytest.raises(SystemExit):
            main(["runs", "show", "nope", "--db", path])

    def test_runs_missing_db(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["runs", "list", "--db", str(tmp_path / "absent.sqlite")])

    def test_submit_without_server_fails_cleanly(self):
        # port 1 is never listening; the client maps the socket error
        # to a friendly SystemExit instead of a traceback
        with pytest.raises(SystemExit):
            main(["submit", "--scenario", "inasim-tiny-v1",
                  "--port", "1", "--host", "127.0.0.1"])
