"""Tests for the adversarial package: parameter space, CEM best
response, the attacker -> scenario bridge, vectorized fitness,
self-play loop (scenario emission + population persistence), and
robustness matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.adversarial import (
    AttackerParameterSpace,
    AttackerPopulation,
    CrossEntropySearch,
    ParameterSpec,
    SelfPlayConfig,
    SelfPlayLoop,
    as_base_spec,
    attack_utility,
    evaluate_attackers_vec,
    format_matrix,
    load_population,
    make_defender_fitness_vec,
    robustness_matrix,
    save_population,
    scenario_for_attacker,
)
from repro.attacker import apt1, apt2
from repro.config import APTConfig, tiny_network
from repro.defenders import NoopPolicy, PlaybookPolicy, SemiRandomPolicy
from repro.eval.runner import evaluate_policy
from repro.scenarios.registry import REGISTRY


def _per_candidate(score):
    """A generation fitness scoring each candidate with ``score``."""
    return lambda apts: np.array([score(apt) for apt in apts])


class TestParameterSpec:
    def test_float_decode_endpoints(self):
        spec = ParameterSpec("cleanup_effectiveness", 0.1, 0.9)
        assert spec.decode(0.0) == pytest.approx(0.1)
        assert spec.decode(1.0) == pytest.approx(0.9)

    def test_int_decode_rounds(self):
        spec = ParameterSpec("lateral_threshold", 1, 6, kind="int")
        assert spec.decode(0.0) == 1
        assert spec.decode(1.0) == 6
        assert isinstance(spec.decode(0.5), int)

    def test_choice_decode_partitions_unit_interval(self):
        spec = ParameterSpec("objective", 0, 1, kind="choice",
                             choices=("disrupt", "destroy"))
        assert spec.decode(0.25) == "disrupt"
        assert spec.decode(0.75) == "destroy"
        assert spec.decode(1.0) == "destroy"  # boundary stays in range

    def test_decode_clips_out_of_box_inputs(self):
        spec = ParameterSpec("labor_rate", 1, 4, kind="int")
        assert spec.decode(-3.0) == 1
        assert spec.decode(7.0) == 4

    def test_encode_decode_roundtrip_float(self):
        spec = ParameterSpec("cleanup_effectiveness", 0.0, 1.0)
        for value in (0.0, 0.3, 0.77, 1.0):
            assert spec.decode(spec.encode(value)) == pytest.approx(value)

    def test_encode_decode_roundtrip_choice(self):
        spec = ParameterSpec("vector", 0, 1, kind="choice",
                             choices=("opc", "hmi"))
        for value in ("opc", "hmi"):
            assert spec.decode(spec.encode(value)) == value

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            ParameterSpec("x", 2.0, 1.0)

    def test_rejects_single_choice(self):
        with pytest.raises(ValueError):
            ParameterSpec("x", 0, 1, kind="choice", choices=("only",))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ParameterSpec("x", 0, 1, kind="bool")


class TestAttackerParameterSpace:
    def test_sample_produces_valid_config(self):
        space = AttackerParameterSpace()
        rng = np.random.default_rng(0)
        for _ in range(20):
            apt = space.sample(rng)
            assert isinstance(apt, APTConfig)
            assert 1 <= apt.lateral_threshold <= 6
            assert 0.05 <= apt.cleanup_effectiveness <= 0.95
            assert apt.objective in ("disrupt", "destroy")

    def test_base_fields_preserved(self):
        base = APTConfig(time_scale=8.0, reintrusion_hours=33)
        space = AttackerParameterSpace(base=base)
        apt = space.sample(np.random.default_rng(1))
        assert apt.time_scale == 8.0
        assert apt.reintrusion_hours == 33

    def test_encode_decode_roundtrip_on_paper_profiles(self):
        space = AttackerParameterSpace()
        for profile in (apt1(), apt2()):
            decoded = space.decode(space.encode(profile))
            assert decoded.lateral_threshold == profile.lateral_threshold
            assert decoded.plc_threshold_destroy == profile.plc_threshold_destroy
            assert decoded.objective == profile.objective
            assert decoded.vector == profile.vector

    def test_decode_rejects_wrong_dim(self):
        space = AttackerParameterSpace()
        with pytest.raises(ValueError):
            space.decode(np.zeros(space.dim + 1))

    def test_rejects_duplicate_names(self):
        spec = ParameterSpec("labor_rate", 1, 4, kind="int")
        with pytest.raises(ValueError):
            AttackerParameterSpace(specs=(spec, spec))

    @given(st.lists(st.floats(-2, 3), min_size=8, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_any_vector_decodes_to_valid_config(self, values):
        """Decoding never produces an APTConfig that fails validation
        (APTConfig.__post_init__ raises on out-of-range values)."""
        space = AttackerParameterSpace()
        apt = space.decode(space.clip(np.array(values)))
        assert isinstance(apt, APTConfig)


class TestCrossEntropySearch:
    def _quadratic_space(self):
        """Search space where fitness peaks at a known interior point."""
        return AttackerParameterSpace(
            specs=(
                ParameterSpec("cleanup_effectiveness", 0.0, 1.0),
                ParameterSpec("lateral_threshold", 1, 6, kind="int"),
            )
        )

    def test_converges_on_synthetic_quadratic(self):
        space = self._quadratic_space()
        target = 0.8

        def fitness(apt: APTConfig) -> float:
            return -((apt.cleanup_effectiveness - target) ** 2)

        search = CrossEntropySearch(space, _per_candidate(fitness),
                                    population=16, seed=0)
        result = search.run(iterations=12)
        assert result.best_config.cleanup_effectiveness == pytest.approx(
            target, abs=0.08
        )
        assert result.evaluations == 16 * 12

    def test_history_tracks_monotone_best(self):
        space = self._quadratic_space()
        search = CrossEntropySearch(
            space, _per_candidate(lambda apt: -apt.cleanup_effectiveness),
            population=8, seed=1,
        )
        result = search.run(iterations=5)
        best_series = [h[2] for h in result.history]
        assert best_series == sorted(best_series)

    def test_rejects_tiny_population(self):
        space = self._quadratic_space()
        with pytest.raises(ValueError):
            CrossEntropySearch(space, _per_candidate(lambda apt: 0.0),
                               population=1)

    def test_rejects_bad_elite_frac(self):
        space = self._quadratic_space()
        with pytest.raises(ValueError):
            CrossEntropySearch(space, _per_candidate(lambda apt: 0.0),
                               elite_frac=0.0)

    def test_batch_fitness_shape_validated(self):
        space = self._quadratic_space()
        search = CrossEntropySearch(
            space, lambda apts: np.zeros(len(apts) + 1), population=4, seed=0,
        )
        with pytest.raises(ValueError):
            search.run(iterations=1)

    def test_fixed_defender_fitness_runs(self):
        cfg = tiny_network(tmax=40)
        fitness = make_defender_fitness_vec(cfg, NoopPolicy(), episodes=1,
                                            max_steps=40)
        utilities = fitness([cfg.apt])
        assert utilities.shape == (1,)
        assert np.isfinite(utilities).all()

    def test_undefended_network_is_more_exploitable(self):
        """The attacker's utility against no defense must beat its
        utility against the playbook on identical seeds."""
        cfg = tiny_network(tmax=120)
        apt = cfg.apt
        noop = make_defender_fitness_vec(cfg, NoopPolicy(), episodes=2,
                                         max_steps=120)([apt])[0]
        playbook = make_defender_fitness_vec(cfg, PlaybookPolicy(), episodes=2,
                                             max_steps=120)([apt])[0]
        assert noop >= playbook


class TestAttackerPopulation:
    def test_uniform_weights_by_default(self):
        pop = AttackerPopulation([apt1(), apt2()])
        assert np.allclose(pop.probabilities, [0.5, 0.5])

    def test_add_extends(self):
        pop = AttackerPopulation([apt1()])
        pop.add(apt2(), weight=3.0)
        assert len(pop) == 2
        assert np.allclose(pop.probabilities, [0.25, 0.75])

    def test_sample_respects_weights(self):
        pop = AttackerPopulation([apt1(), apt2()], weights=[0.0, 1.0])
        rng = np.random.default_rng(0)
        assert all(pop.sample(rng) == apt2() for _ in range(10))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AttackerPopulation([])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            AttackerPopulation([apt1()], weights=[-1.0])

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            AttackerPopulation([apt1()], weights=[1.0, 2.0])


class TestRobustnessMatrix:
    def test_matrix_shape_and_metrics(self):
        cfg = tiny_network(tmax=30)
        matrix = robustness_matrix(
            cfg,
            defenders={"noop": NoopPolicy(), "random": SemiRandomPolicy(seed=0)},
            attackers={"APT1": apt1(time_scale=10.0),
                       "APT2": apt2(time_scale=10.0)},
            episodes=1,
            max_steps=30,
        )
        assert set(matrix) == {"noop", "random"}
        for row in matrix.values():
            assert set(row) == {"APT1", "APT2"}
            for agg in row.values():
                assert np.isfinite(agg.mean("discounted_return"))

    def test_format_matrix_contains_all_names(self):
        cfg = tiny_network(tmax=20)
        matrix = robustness_matrix(
            cfg, {"noop": NoopPolicy()}, {"APT1": apt1(time_scale=10.0)},
            episodes=1, max_steps=20,
        )
        text = format_matrix(matrix, metric="avg_it_cost")
        assert "noop" in text and "APT1" in text

    def test_identical_seeds_make_cells_comparable(self):
        """The same defender twice gives identical cells."""
        cfg = tiny_network(tmax=30)
        matrix = robustness_matrix(
            cfg,
            {"a": NoopPolicy(), "b": NoopPolicy()},
            {"APT1": apt1(time_scale=10.0)},
            episodes=2, max_steps=30,
        )
        assert (
            matrix["a"]["APT1"].mean("discounted_return")
            == matrix["b"]["APT1"].mean("discounted_return")
        )


class TestScenarioBridge:
    """APTConfig <-> ScenarioSpec bridge (the registry emission path)."""

    def test_as_base_spec_accepts_id_spec_and_config(self):
        from_id = as_base_spec("inasim-tiny-v1")
        assert from_id.scenario_id == "inasim-tiny-v1"
        spec = repro.get_scenario("inasim-tiny-v1")
        assert as_base_spec(spec) is spec
        from_config = as_base_spec(tiny_network(tmax=40))
        assert from_config.network == "tiny"
        assert from_config.horizon == 40

    def test_as_base_spec_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_base_spec(42)

    def test_config_bridge_rejects_custom_topology(self):
        from dataclasses import replace

        from repro.config import TopologyConfig

        cfg = replace(tiny_network(), topology=TopologyConfig(plcs=7))
        with pytest.raises(ValueError):
            as_base_spec(cfg)

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=8,
                    max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_bridged_spec_reconstructs_any_searched_attacker(self, values):
        """For every point of the search space, the emitted spec's
        build_config reproduces the APTConfig exactly."""
        cfg = tiny_network(tmax=30)
        space = AttackerParameterSpace(base=cfg.apt)
        apt = space.decode(np.array(values))
        spec = scenario_for_attacker(cfg, apt, "bridge-roundtrip")
        assert spec.build_config().apt == apt
        # and it survives JSON (the persistence path)
        from repro.scenarios import spec_from_json, spec_to_json

        assert spec_from_json(spec_to_json(spec)).build_config().apt == apt

    def test_sampled_pair_stays_sampled(self):
        cfg = tiny_network()
        spec = scenario_for_attacker(cfg, apt2(), "bridge-sampled",
                                     sample_qualitative=True)
        assert spec.objective is None and spec.vector is None
        assert spec.sample_qualitative
        assert spec.build_config().apt.lateral_threshold == 1

    def test_fitness_env_resolves_through_make(self):
        """The candidate env equals repro.make of the bridged spec."""
        cfg = tiny_network(tmax=30)
        apt = apt2(time_scale=10.0)
        spec = scenario_for_attacker(cfg, apt, "bridge-env")
        env = repro.make(spec)
        assert env.config.apt == apt
        assert env.scenario.scenario_id == "bridge-env"


class TestVectorizedFitness:
    def test_batch_matches_sequential_utilities(self):
        """The vectorized candidate fan-out is a wall-clock
        optimization, not a different experiment: utilities equal a
        one-candidate evaluation through ``repro.make`` exactly."""
        cfg = tiny_network(tmax=40)
        space = AttackerParameterSpace(base=cfg.apt)
        rng = np.random.default_rng(0)
        candidates = [space.sample(rng) for _ in range(3)]
        batch = make_defender_fitness_vec(cfg, PlaybookPolicy(), episodes=2,
                                          seed=5, max_steps=40)
        base = as_base_spec(cfg)
        sequential = np.array([
            attack_utility(evaluate_policy(
                repro.make(scenario_for_attacker(base, apt, "one")),
                PlaybookPolicy(), 2, seed=5, max_steps=40,
            )[0])
            for apt in candidates
        ])
        np.testing.assert_array_equal(batch(candidates), sequential)

    def test_batched_backend_matches_too(self):
        """The fan-out runs on the batched engine; the same candidate
        lanes on the sync oracle score the same utilities."""
        from repro.eval.runner import evaluate_policy_per_lane

        cfg = tiny_network(tmax=30)
        space = AttackerParameterSpace(base=cfg.apt)
        rng = np.random.default_rng(1)
        candidates = [space.sample(rng) for _ in range(2)]
        batched = make_defender_fitness_vec(cfg, NoopPolicy(), episodes=1,
                                            seed=2, max_steps=30)
        base = as_base_spec(cfg)
        specs = [scenario_for_attacker(base, apt, f"oracle-{i}")
                 for i, apt in enumerate(candidates)]
        with repro.make_vec_from_specs(specs, seed=2,
                                       backend="sync") as venv:
            per_lane = evaluate_policy_per_lane(venv, NoopPolicy(), 1,
                                                seed=2, max_steps=30)
        sync = np.array([attack_utility(agg) for agg, _ in per_lane])
        np.testing.assert_array_equal(batched(candidates), sync)

    def test_evaluate_attackers_vec_returns_per_attacker_aggregates(self):
        cfg = tiny_network(tmax=30)
        per_lane = evaluate_attackers_vec(
            cfg, [apt1(time_scale=10.0), apt2(time_scale=10.0)],
            NoopPolicy(), episodes=2, seed=0, max_steps=30,
        )
        assert len(per_lane) == 2
        for aggregate, episodes in per_lane:
            assert aggregate.episodes == 2
            assert len(episodes) == 2
            assert np.isfinite(aggregate.mean("discounted_return"))


def _tiny_loop(tiny_tables, run_name, **selfplay_overrides):
    from repro.defenders.acso import ACSOPolicy
    from repro.rl import (
        ACSOFeaturizer,
        AttentionQNetwork,
        DQNConfig,
        DQNTrainer,
        QNetConfig,
    )

    cfg = tiny_network(tmax=30)
    env = repro.make_env(cfg, seed=0)
    qnet = AttentionQNetwork(
        QNetConfig(d_model=8, n_heads=2, encoder_hidden=16, head_hidden=16),
        seed=0,
    )
    featurizer = ACSOFeaturizer(env.topology, tiny_tables)
    trainer = DQNTrainer(
        env, qnet, featurizer,
        DQNConfig(batch_size=8, warmup=8, update_every=4, buffer_size=500),
    )
    params = dict(
        rounds=1, train_episodes=1, train_max_steps=15,
        cem_iterations=1, cem_population=2, fitness_episodes=1,
        eval_episodes=1, eval_max_steps=15, run_name=run_name,
    )
    params.update(selfplay_overrides)
    return SelfPlayLoop(
        cfg, trainer, ACSOPolicy(qnet, tiny_tables),
        selfplay=SelfPlayConfig(**params),
    )


def _unregister_selfplay(run_name):
    for spec in repro.list_scenarios(tag="selfplay"):
        if spec.scenario_id.startswith(f"selfplay/{run_name}-"):
            REGISTRY.unregister(spec.scenario_id)


class TestSelfPlayLoop:
    def test_one_round_structure(self, tiny_tables):
        loop = _tiny_loop(tiny_tables, "t-structure")
        try:
            rounds = loop.run()
            assert len(rounds) == 1
            record = rounds[0]
            assert np.isfinite(record.best_response_utility)
            assert np.isfinite(record.population_utility)
            assert record.exploitability == pytest.approx(
                record.best_response_utility - record.population_utility
            )
            # the best response joined the population as a named spec
            assert len(loop.population) == 2
            emitted = loop.population.members[-1]
            assert emitted.scenario_id == record.best_response_id
            assert emitted is record.best_response_spec
            assert emitted.build_config().apt == record.best_response
        finally:
            _unregister_selfplay("t-structure")

    def test_emitted_scenario_registered_and_reproducible(self, tiny_tables):
        """The acceptance property: repro.make(<emitted id>) rebuilds
        the exact environment, so replaying the winning fitness
        evaluation reproduces the recorded utility."""
        loop = _tiny_loop(tiny_tables, "t-reproduce")
        try:
            record = loop.run_round()
            sid = record.best_response_id
            assert sid == "selfplay/t-reproduce-r1-br1"
            assert sid in REGISTRY
            spec = repro.get_scenario(sid)
            assert set(spec.tags) >= {"selfplay", "adversarial"}
            # verified in-round against the frozen defender
            assert record.verified_utility == record.best_response_utility
            # and independently, from scratch, through the registry
            from repro.eval import evaluate_policy

            env = repro.make(sid)
            aggregate, _ = evaluate_policy(
                env, loop.defender_policy, loop.selfplay.fitness_episodes,
                seed=record.fitness_seed,
                max_steps=loop.selfplay.eval_max_steps,
            )
            assert attack_utility(aggregate) == record.best_response_utility
        finally:
            _unregister_selfplay("t-reproduce")

    def test_population_registry_round_trip_identical_exploitability(
            self, tiny_tables, tmp_path):
        """A population survives save -> registry wipe -> load with
        bit-identical exploitability numbers."""
        loop = _tiny_loop(tiny_tables, "t-roundtrip")
        path = tmp_path / "population.json"
        try:
            loop.run()
            seed = loop.selfplay.seed + 12345
            before = loop._population_utility(seed)
            loop.save(path)
            # wipe the emitted ids; loading must restore them
            _unregister_selfplay("t-roundtrip")
            assert "selfplay/t-roundtrip-r1-br1" not in REGISTRY
            restored = load_population(path)
            assert "selfplay/t-roundtrip-r1-br1" in REGISTRY
            assert [m.scenario_id for m in restored.members] == [
                m.scenario_id for m in loop.population.members
            ]
            np.testing.assert_array_equal(restored.weights,
                                          loop.population.weights)
            loop.population = restored
            after = loop._population_utility(seed)
            assert before == after
        finally:
            _unregister_selfplay("t-roundtrip")

    def test_batched_backend_round(self, tiny_tables, monkeypatch):
        """A full oracle round runs its multi-lane vector envs on the
        batched engine, the ``make_vec_from_specs`` pick for them."""
        from repro.sim.batched_engine import BatchedVectorEnv

        built = []
        make = repro.make_vec_from_specs

        def recording(*args, **kwargs):
            venv = make(*args, **kwargs)
            built.append((type(venv), venv.num_envs))
            return venv

        monkeypatch.setattr(repro, "make_vec_from_specs", recording)
        loop = _tiny_loop(tiny_tables, "t-batched")
        try:
            record = loop.run_round()
            assert (BatchedVectorEnv, 1) not in built
            assert {cls for cls, n in built if n > 1} == {BatchedVectorEnv}
            assert np.isfinite(record.best_response_utility)
            assert record.verified_utility == record.best_response_utility
        finally:
            _unregister_selfplay("t-batched")

    def test_accepts_scenario_id_base(self, tiny_tables):
        loop = _tiny_loop(tiny_tables, "unused")
        trainer, policy = loop.trainer, loop.defender_policy
        loop2 = SelfPlayLoop(
            "inasim-tiny-v1", trainer, policy,
            selfplay=SelfPlayConfig(run_name="t-by-id"),
        )
        assert loop2.base_spec.scenario_id == "inasim-tiny-v1"
        assert loop2.population.members[0].scenario_id == \
            "selfplay/t-by-id-base"

    def test_initial_population_aptconfigs_are_bridged(self, tiny_tables):
        loop = _tiny_loop(tiny_tables, "unused2")
        pop = AttackerPopulation([apt1(), apt2()], weights=[1.0, 3.0])
        loop2 = SelfPlayLoop(
            tiny_network(tmax=30), loop.trainer, loop.defender_policy,
            selfplay=SelfPlayConfig(run_name="t-coerce"),
            initial_population=pop,
        )
        members = loop2.population.members
        assert [m.scenario_id for m in members] == [
            "selfplay/t-coerce-init0", "selfplay/t-coerce-init1"
        ]
        assert members[1].build_config().apt.lateral_threshold == 1
        np.testing.assert_array_equal(loop2.population.weights, [1.0, 3.0])

    def test_save_population_rejects_raw_members(self, tmp_path):
        pop = AttackerPopulation([apt1()])
        with pytest.raises(TypeError):
            save_population(tmp_path / "x.json", pop)

    def test_load_population_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not-a-population.json"
        path.write_text('{"scenarios": []}')
        with pytest.raises(ValueError):
            load_population(path)

    def test_attack_utility_sign(self):
        """Higher defender return means lower attacker utility."""

        class FakeAgg:
            def __init__(self, value):
                self.value = value

            def mean(self, metric):
                return self.value

        assert attack_utility(FakeAgg(2000.0)) < attack_utility(FakeAgg(1000.0))
