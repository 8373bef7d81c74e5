"""End-to-end OPE pipeline tests: estimator equivalence over the
columnar trace store, behaviour-support diagnostics, ratio-bootstrap
confidence intervals, the checkpoint-promotion gate (store, service,
HTTP), and the ``repro ope`` CLI verbs.

The pinned property throughout: estimates computed from an on-disk
trace are **bit-identical** to the same suite over the in-memory
episodes, and to scoring each episode alone — same floats, not
approximately equal floats.
"""

import json

import numpy as np
import pytest

import repro
from ope_hand_logs import NO_FIT, FixedPolicy, bandit_episode, hand_suite
from repro.cli import main as cli_main
from repro.config import tiny_network
from repro.rl import AttentionQNetwork, QNetConfig
from repro.serve import (
    PromotionError,
    RunStore,
    promote_checkpoint,
)
from repro.serve.promotion import report_lower_bound
from repro.validation import (
    BehaviorSupportError,
    StochasticQPolicy,
    TraceDataset,
    bootstrap_ratio_ci,
    collect_logged_episodes,
    effective_sample_size,
    episode_ope_stats,
    fitted_q_evaluation,
    run_ope_suite,
    write_episodes,
)
from repro.validation.fqe import episode_dr_value
from repro.validation.logging import q_batch
from repro.validation.suite import SUITE_METHODS

SMALL_QNET = QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                        encoder_layers=2, head_hidden=16)

FQE_OPTS = dict(iterations=2, epochs_per_iteration=1, batch_size=16,
                lr=3e-3, mc_epochs=2, seed=4, chunk_episodes=64)


@pytest.fixture()
def pipeline(tiny_tables, tmp_path):
    cfg = tiny_network(tmax=30)
    env = repro.make_env(cfg, seed=0)
    qnet = AttentionQNetwork(SMALL_QNET, seed=1)
    qnet.bind_topology(env.topology)
    behavior = StochasticQPolicy(qnet, tiny_tables, temperature=1.0,
                                 epsilon=0.3, seed=5)
    episodes = collect_logged_episodes(env, behavior, episodes=3, seed=0,
                                       max_steps=12)
    target = StochasticQPolicy(qnet, tiny_tables, temperature=0.25,
                               epsilon=0.1, seed=2)
    write_episodes(episodes, tmp_path / "trace", shard_rows=8)
    dataset = TraceDataset(tmp_path / "trace")

    def fresh_eval_net():
        net = AttentionQNetwork(SMALL_QNET, seed=9)
        net.bind_topology(env.topology)
        return net

    return episodes, dataset, target, fresh_eval_net


# ----------------------------------------------------------------------
# the acceptance criterion: disk == memory, bitwise
# ----------------------------------------------------------------------
class TestEstimatorEquivalence:
    def test_is_estimators_bit_identical_over_trace(self, pipeline):
        episodes, dataset, target, fresh_eval_net = pipeline
        for clip in (None, 10.0):
            memory, disk = (
                run_ope_suite(source, target, fresh_eval_net(), clip=clip,
                              n_boot=100, fqe_options=NO_FIT)
                for source in (episodes, dataset))
            for method in ("OIS", "WIS", "PDIS"):
                # exact, not approx: every field of the estimate
                assert disk[method] == memory[method]

    def test_fqe_and_dr_bit_identical_over_trace(self, pipeline):
        episodes, dataset, target, fresh_eval_net = pipeline
        fit_memory = fitted_q_evaluation(episodes, target, fresh_eval_net(),
                                         **FQE_OPTS)
        fit_disk = fitted_q_evaluation(dataset, target, fresh_eval_net(),
                                       **FQE_OPTS)
        assert fit_disk.value == fit_memory.value
        assert np.array_equal(fit_disk.start_values, fit_memory.start_values)
        assert fit_disk.losses == fit_memory.losses
        memory, disk = (
            run_ope_suite(source, target, fresh_eval_net(), clip=10.0,
                          n_boot=100, fqe_options=FQE_OPTS)
            for source in (episodes, dataset))
        assert disk["DR"] == memory["DR"]
        assert disk.to_json() == memory.to_json()

    def test_suite_over_trace_matches_standalone(self, pipeline):
        """The suite's prepared blocks against scoring each in-memory
        episode alone, with the reductions' own arithmetic."""
        episodes, dataset, target, fresh_eval_net = pipeline
        report = run_ope_suite(dataset, target, fresh_eval_net(), clip=10.0,
                               n_boot=100, fqe_options=FQE_OPTS)
        fqe = fitted_q_evaluation(episodes, target, fresh_eval_net(),
                                  **FQE_OPTS)
        probs = [target.action_probs_batch(ep.features, ep.masks)
                 for ep in episodes]
        stats = [episode_ope_stats(ep, p, clip=10.0)
                 for ep, p in zip(episodes, probs)]
        weights = np.array([s.weight for s in stats])
        returns = np.array([s.ret for s in stats])
        dr = np.array([
            episode_dr_value(ep, p, q_batch(fqe.qnet, ep.features), 10.0,
                             fqe.reward_scale)[0]
            for ep, p in zip(episodes, probs)])
        assert report["OIS"].estimate == float((weights * returns).mean())
        assert report["WIS"].estimate \
            == float((weights / weights.sum()) @ returns)
        assert report["PDIS"].estimate \
            == float(np.array([s.pdis for s in stats]).mean())
        assert report["FQE"].estimate == fqe.value
        assert report["DM"].estimate == fqe.value
        assert report["DR"].estimate == float(dr.mean())

    def test_chunk_size_is_pinned_but_source_is_not(self, pipeline):
        """``chunk_episodes`` is part of FQE's numerical recipe (the
        shuffle rng runs per chunk) — what must NOT matter is whether
        the chunks come from memory or from disk."""
        episodes, dataset, target, fresh_eval_net = pipeline
        opts = {**FQE_OPTS, "chunk_episodes": 1}
        memory = fitted_q_evaluation(episodes, target, fresh_eval_net(),
                                     **opts)
        disk = fitted_q_evaluation(dataset, target, fresh_eval_net(),
                                   **opts)
        assert disk.value == memory.value
        assert disk.losses == memory.losses

    def test_suite_report_shape(self, pipeline):
        _, dataset, target, fresh_eval_net = pipeline
        report = run_ope_suite(dataset, target, fresh_eval_net(), clip=10.0,
                               n_boot=50, fqe_options=FQE_OPTS)
        assert set(report.estimates) == set(SUITE_METHODS)
        assert report.transitions == dataset.num_transitions
        for method in SUITE_METHODS:
            est = report[method]
            assert est.lower <= est.estimate <= est.upper
        payload = json.loads(report.to_json())
        assert payload["estimates"]["DR"]["lower"] == report["DR"].lower
        assert payload["estimates"]["FQE"]["ess"] is None  # model-based


# ----------------------------------------------------------------------
# behaviour-support diagnostics
# ----------------------------------------------------------------------
class TestSupportDiagnostics:
    def test_zero_behavior_prob_names_episode_and_step(self):
        episodes = [bandit_episode(0, 0.5, 1.0, seed=7),
                    bandit_episode(1, 0.0, 1.0, seed=8)]
        with pytest.raises(BehaviorSupportError) as excinfo:
            hand_suite(episodes, FixedPolicy([0.5, 0.5]))
        message = str(excinfo.value)
        assert "episode 1" in message and "step 0" in message
        assert "behaviour probability is zero" in message

    def test_effective_sample_size_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="weight 1"):
            effective_sample_size(np.array([1.0, np.inf, 2.0]))
        with pytest.raises(ValueError, match="non-finite"):
            effective_sample_size(np.array([np.nan]))
        assert effective_sample_size(np.array([0.0, 0.0])) == 0.0


class TestBootstrapRatioCI:
    def test_point_estimate_is_self_normalized(self):
        weights = np.array([1.0, 3.0])
        values = np.array([2.0, 10.0])
        estimate, lower, upper = bootstrap_ratio_ci(weights, values,
                                                    n_boot=200, seed=0)
        assert estimate == pytest.approx(8.0)  # (1*2 + 3*10) / 4
        assert lower <= estimate <= upper

    def test_degenerate_weights_give_zero(self):
        estimate, lower, upper = bootstrap_ratio_ci(
            np.zeros(3), np.ones(3), n_boot=50, seed=0)
        assert (estimate, lower, upper) == (0.0, 0.0, 0.0)

    def test_interval_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = rng.normal(5.0, 1.0, size=20)
        large = rng.normal(5.0, 1.0, size=2000)
        _, lo_s, hi_s = bootstrap_ratio_ci(np.ones(20), small, seed=1)
        _, lo_l, hi_l = bootstrap_ratio_ci(np.ones(2000), large, seed=1)
        assert (hi_l - lo_l) < (hi_s - lo_s)


# ----------------------------------------------------------------------
# the promotion gate
# ----------------------------------------------------------------------
def seed_report(store, run_id, lower, *, estimator="DR"):
    store.create_run("ope-report", run_id=run_id)
    store.mark_running(run_id)
    store.finish_run(run_id, metrics={
        "estimates": {estimator: {"estimate": lower + 1.0, "lower": lower,
                                  "upper": lower + 2.0}},
        "episodes": 3,
    })


class TestPromotionGate:
    def test_promote_against_value_floor(self, tmp_path):
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            seed_report(store, "cand", lower=10.0)
            decision = promote_checkpoint(store, "cand", -5.0)
            assert decision["verdict"] == "promote"
            assert decision["baseline_run_id"] is None
            assert decision["candidate_lower"] == 10.0
            rows = store.promotions(candidate_run_id="cand")
            assert len(rows) == 1
            assert rows[0]["verdict"] == "promote"
            assert rows[0]["promotion_id"] == decision["promotion_id"]

    def test_hold_when_lower_bound_does_not_clear_margin(self, tmp_path):
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            seed_report(store, "cand", lower=10.0)
            seed_report(store, "base", lower=9.5)
            assert promote_checkpoint(store, "cand", "base")["verdict"] \
                == "promote"
            held = promote_checkpoint(store, "cand", "base", min_margin=1.0)
            assert held["verdict"] == "hold"
            assert held["baseline_lower"] == 9.5
            # append-only history: both decisions persist, newest first
            rows = store.promotions(candidate_run_id="cand")
            assert [r["verdict"] for r in rows] == ["hold", "promote"]

    def test_gate_compares_lower_bounds_not_estimates(self, tmp_path):
        """A high point estimate with a wide interval must not promote
        over a tighter baseline — the pessimistic-bound rule."""
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            store.create_run("ope-report", run_id="noisy")
            store.mark_running("noisy")
            store.finish_run("noisy", metrics={"estimates": {
                "DR": {"estimate": 100.0, "lower": 1.0, "upper": 199.0}}})
            seed_report(store, "steady", lower=5.0)
            assert promote_checkpoint(store, "noisy", "steady")["verdict"] \
                == "hold"

    def test_diagnostic_errors(self, tmp_path):
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            with pytest.raises(PromotionError, match="unknown run"):
                promote_checkpoint(store, "ghost", 0.0)
            run_id = store.create_run("evaluate")
            with pytest.raises(PromotionError, match="not an ope-report"):
                promote_checkpoint(store, run_id, 0.0)
            store.create_run("ope-report", run_id="queued-only")
            with pytest.raises(PromotionError, match="status"):
                promote_checkpoint(store, "queued-only", 0.0)
            seed_report(store, "cand", lower=1.0, estimator="WIS")
            with pytest.raises(PromotionError, match="no 'DR' estimate"):
                promote_checkpoint(store, "cand", 0.0)
            assert report_lower_bound(store, "cand", "WIS") == 1.0

    def test_service_promote_validates_payload(self, tmp_path):
        from repro.serve import EvalService, JobError

        service = EvalService(str(tmp_path / "runs.sqlite"))
        seed_report(service.store, "cand", lower=3.0)
        decision = service.promote({"run_id": "cand", "baseline": 0.0})
        assert decision["verdict"] == "promote"
        with pytest.raises(JobError, match="run_id"):
            service.promote({"baseline": 0.0})
        with pytest.raises(JobError, match="baseline"):
            service.promote({"run_id": "cand", "baseline": True})
        with pytest.raises(JobError, match="min_margin"):
            service.promote({"run_id": "cand", "baseline": 0.0,
                             "min_margin": "lots"})
        with pytest.raises(JobError, match="unknown run"):
            service.promote({"run_id": "ghost", "baseline": 0.0})
        service.store.close()

    def test_promotion_over_http(self, tmp_path):
        from test_serve_service import ServerHandle

        with ServerHandle(tmp_path / "runs.sqlite") as server:
            seed_report(server.service.store, "cand", lower=2.0)
            decision = server.client.promote("cand", 0.0)
            assert decision["verdict"] == "promote"
            held = server.client.promote("cand", 99.0, min_margin=1.0)
            assert held["verdict"] == "hold"
            rows = server.client.promotions(candidate="cand")
            assert [r["verdict"] for r in rows] == ["hold", "promote"]
            from repro.serve import ServeRequestError

            with pytest.raises(ServeRequestError):
                server.client.promote("ghost", 0.0)


# ----------------------------------------------------------------------
# the CLI verbs, end to end (the ope-smoke CI job's path)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestOPECli:
    def test_record_report_promote(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        db = tmp_path / "runs.sqlite"
        assert cli_main([
            "ope", "record", "--preset", "tiny", "--episodes", "2",
            "--max-steps", "6", "--num-envs", "2", "--seed", "1",
            "--out", str(trace),
        ]) in (0, None)
        assert (trace / "manifest.json").exists()

        report_json = tmp_path / "report.json"
        assert cli_main([
            "ope", "report", str(trace), "--n-boot", "50", "--clip", "10",
            "--fqe-iterations", "1", "--json", str(report_json),
            "--store", str(db), "--run-id", "cand",
        ]) in (0, None)
        report = json.loads(report_json.read_text())
        assert set(report["estimates"]) == set(SUITE_METHODS)
        capsys.readouterr()

        # the CI gate contract: promote -> exit 0, hold -> exit 1
        assert cli_main([
            "ope", "promote", "--store", str(db), "cand", "--",
            "-1000000",
        ]) in (0, None)
        with pytest.raises(SystemExit) as excinfo:
            raise SystemExit(cli_main([
                "ope", "promote", "--store", str(db), "cand", "--",
                "1000000",
            ]))
        assert excinfo.value.code == 1
        # unusable inputs exit 2, never 1: a gating job must be able to
        # tell an operator error from a hold verdict
        assert cli_main([
            "ope", "promote", "--store", str(db), "ghost", "--", "0",
        ]) == 2
        with RunStore(str(db)) as store:
            verdicts = [r["verdict"] for r in
                        store.promotions(candidate_run_id="cand")]
        assert verdicts == ["hold", "promote"]
