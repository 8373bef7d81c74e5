"""Tests for the random topology sampler and its config clamping."""

import numpy as np
import pytest

import repro
from repro.config import tiny_network
from repro.eval import run_episode


class TestTopologySampler:
    def test_samples_within_bounds(self):
        from repro.net.generator import TopologySampler

        sampler = TopologySampler()
        rng = np.random.default_rng(0)
        for _ in range(30):
            topo = sampler.sample(rng)
            assert 3 <= topo.l2_workstations <= 40
            assert 1 <= topo.l1_hmis <= 8
            assert 4 <= topo.plcs <= 80
            assert "opc" in topo.l2_servers

    def test_sampled_topologies_build(self):
        from repro.net.generator import TopologySampler
        from repro.net.topology import build_topology

        sampler = TopologySampler(max_workstations=8, max_plcs=10)
        rng = np.random.default_rng(1)
        for _ in range(5):
            topology = build_topology(sampler.sample(rng))
            assert topology.n_nodes > 0

    def test_rejects_bad_bounds(self):
        from repro.net.generator import TopologySampler

        with pytest.raises(ValueError):
            TopologySampler(min_workstations=10, max_workstations=5)
        with pytest.raises(ValueError):
            TopologySampler(min_plcs=0)

    def test_sample_configs_clamps_attacker(self):
        from repro.net.generator import TopologySampler, sample_configs

        base = tiny_network()
        configs = sample_configs(
            10, base, TopologySampler(max_workstations=5, max_plcs=6),
            seed=3,
        )
        assert len(configs) == 10
        for config in configs:
            assert config.apt.plc_threshold_destroy <= config.topology.plcs
            assert config.apt.hmi_threshold <= config.topology.l1_hmis

    def test_sample_configs_deterministic(self):
        from repro.net.generator import sample_configs

        base = tiny_network()
        assert sample_configs(4, base, seed=9) == sample_configs(4, base,
                                                                 seed=9)

    def test_sampled_config_episodes_run(self):
        from repro.net.generator import TopologySampler, sample_configs
        from repro.defenders import PlaybookPolicy

        base = tiny_network(tmax=30)
        configs = sample_configs(
            2, base, TopologySampler(max_workstations=6, max_plcs=8), seed=5
        )
        for config in configs:
            env = repro.make_env(config, seed=0)
            metrics = run_episode(env, PlaybookPolicy(), seed=0, max_steps=30)
            assert np.isfinite(metrics.discounted_return)
