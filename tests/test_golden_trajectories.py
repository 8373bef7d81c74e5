"""Golden-trajectory regression anchors for the simulation dynamics.

Every built-in scenario carries a committed digest of a seeded 32-step
playbook rollout (``tests/golden/*.json``): per-step rewards, done
flags, alert counts, action-mask hashes, and observation hashes. The
engine is load-bearing for the two vector engines (sync and batched),
so an optimization pass that changes the dynamics — not just code
shape — must fail loudly here, and an intentional
trajectory-distribution change must regenerate the fixtures
(``PYTHONPATH=src python tests/golden/regenerate.py``) and say so.

``tests/golden/acso/*.json`` pins the learned defender the same way: a
seeded rollout under an untrained seeded ACSO policy, digesting the
chosen actions, rewards and Q-vectors (see ``regenerate.py``).

``tests/golden/loops/*.json`` pins the library's episode loops: DQN
(epsilon-greedy, prioritized or uniform replay) and conv training,
evaluation, OPE logging, trace recording, DBN fitting and validation,
and demonstration collection.
"""

import importlib.util
import json
import pathlib

import pytest

import repro

# the regeneration script doubles as the digest library; tests/ is not
# a package, so load it by path
_spec = importlib.util.spec_from_file_location(
    "golden_regenerate",
    pathlib.Path(__file__).parent / "golden" / "regenerate.py",
)
_regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_regen)

GOLDEN_DIR = _regen.GOLDEN_DIR
STEPS = _regen.STEPS
fixture_path = _regen.fixture_path
rollout_digest = _regen.rollout_digest
acso_fixture_path = _regen.acso_fixture_path
acso_rollout_digest = _regen.acso_rollout_digest

BUILTIN_IDS = [spec.scenario_id for spec in repro.scenarios.BUILTIN_SCENARIOS]


def _load(scenario_id: str, path: pathlib.Path | None = None) -> dict:
    path = path or fixture_path(scenario_id)
    assert path.exists(), (
        f"missing golden fixture {path}; run "
        "`PYTHONPATH=src python tests/golden/regenerate.py`"
    )
    with open(path) as handle:
        return json.load(handle)


class TestGoldenCoverage:
    def test_every_builtin_scenario_has_a_fixture(self):
        assert len(BUILTIN_IDS) == 14  # the README catalogue
        missing = [sid for sid in BUILTIN_IDS
                   if not fixture_path(sid).exists()]
        assert not missing, f"missing golden fixtures for {missing}"

    def test_no_stale_fixtures(self):
        """Every committed fixture corresponds to a built-in scenario."""
        known = {fixture_path(sid).name for sid in BUILTIN_IDS}
        stale = [p.name for p in GOLDEN_DIR.glob("*.json")
                 if p.name not in known]
        assert not stale, f"stale golden fixtures: {stale}"


@pytest.mark.parametrize("scenario_id", BUILTIN_IDS)
def test_golden_trajectory(scenario_id):
    """Replaying the seeded rollout reproduces the committed digest.

    Comparisons are exact: rewards are deterministic floats given
    (config, seed), and JSON round-trips them via repr. A mismatch
    means the dynamics shifted — regenerate only if the shift is
    intentional.
    """
    golden = _load(scenario_id)
    fresh = rollout_digest(scenario_id, seed=golden["seed"],
                           steps=golden["steps"])

    assert fresh["rewards"] == golden["rewards"], (
        f"{scenario_id}: reward stream diverged from golden fixture"
    )
    assert fresh["dones"] == golden["dones"], (
        f"{scenario_id}: done flags diverged from golden fixture"
    )
    assert fresh["n_alerts"] == golden["n_alerts"], (
        f"{scenario_id}: alert stream diverged from golden fixture"
    )
    assert (fresh["action_mask_sha256_16"]
            == golden["action_mask_sha256_16"]), (
        f"{scenario_id}: action-mask stream diverged from golden fixture"
    )
    assert (fresh["observation_sha256_16"]
            == golden["observation_sha256_16"]), (
        f"{scenario_id}: observation stream diverged from golden fixture"
    )


def test_digest_is_seed_sensitive():
    """The fixture actually pins the seed: a different seed diverges
    (otherwise a broken reseed path could pass silently)."""
    golden = _load("inasim-tiny-v1")
    other = rollout_digest("inasim-tiny-v1", seed=golden["seed"] + 1,
                           steps=STEPS)
    assert other["observation_sha256_16"] != golden["observation_sha256_16"]


class TestAcsoGolden:
    """The seeded ACSO policy replays its committed digest exactly:
    same action indices, same rewards, same (rounded) Q-vectors."""

    def test_no_stale_fixtures(self):
        known = {acso_fixture_path(sid).name for sid in _regen.ACSO_SCENARIOS}
        found = {p.name for p in _regen.ACSO_DIR.glob("*.json")}
        assert found == known

    @pytest.mark.parametrize("scenario_id", _regen.ACSO_SCENARIOS)
    def test_acso_trajectory(self, scenario_id):
        golden = _load(scenario_id, acso_fixture_path(scenario_id))
        fresh = acso_rollout_digest(scenario_id, seed=golden["seed"],
                                    steps=golden["steps"])
        assert fresh["actions"] == golden["actions"], (
            f"{scenario_id}: ACSO action choices diverged from golden fixture"
        )
        assert fresh["rewards"] == golden["rewards"], (
            f"{scenario_id}: ACSO reward stream diverged from golden fixture"
        )
        assert fresh["dones"] == golden["dones"]
        assert fresh["q_sha256_16"] == golden["q_sha256_16"], (
            f"{scenario_id}: ACSO Q-vectors diverged from golden fixture"
        )


class TestLoopGolden:
    """Every episode loop replays its committed digest exactly: training
    statistics and final weights, evaluation metrics, logs and tables."""

    def test_no_stale_fixtures(self):
        known = {_regen.loop_fixture_path(cell).name
                 for cell in _regen.LOOP_CELLS}
        found = {p.name for p in _regen.LOOPS_DIR.glob("*.json")}
        assert found == known

    @pytest.mark.parametrize("cell", list(_regen.LOOP_CELLS))
    def test_loop(self, cell):
        golden = _load(cell, _regen.loop_fixture_path(cell))
        assert _regen.LOOP_CELLS[cell]() == golden, (
            f"{cell}: loop output diverged from golden fixture"
        )
