"""Deliberately-bad fixture: the episode driver importing the layers
built on it."""

from repro.eval.runner import evaluate_policy  # line 4
from repro.rl.dqn import valid_action_mask  # line 5
import repro.dbn.filter  # line 6
from repro.validation import collect_logged_episodes  # line 7
from repro.defenders import PlaybookPolicy  # line 8
from repro.sim.env import InasimEnv  # allowed: same layer
from repro.config import SimConfig  # allowed: below the simulation core


def drive(env: InasimEnv, config: SimConfig):
    return (evaluate_policy, valid_action_mask, repro.dbn.filter,
            collect_logged_episodes, PlaybookPolicy)
