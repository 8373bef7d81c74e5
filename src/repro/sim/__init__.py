"""INASIM: the ICS network attack simulator (paper Section 3.1 + appendix)."""

from repro.sim.apt_actions import (
    APT_ACTION_SPECS,
    APTActionRequest,
    APTActionType,
    APTKnowledge,
    APTView,
)
from repro.sim.engine import Simulation, StepResult
from repro.sim.env import InasimEnv
from repro.sim.events import EventQueue
from repro.sim.ids import IDSModule
from repro.sim.observations import Alert, AlertSource, Observation, ScanResult
from repro.sim.orchestrator import (
    DEFENDER_ACTION_SPECS,
    DefenderAction,
    DefenderActionType,
    enumerate_actions,
)
from repro.sim.batched_engine import BatchedVectorEnv
from repro.sim.reward import RewardModule
from repro.sim.state import NetworkState
from repro.sim.trace import EpisodeTrace, TraceStep, record_episode, verify_determinism
from repro.sim.vec_env import VecStep, VectorEnv

__all__ = [
    "APT_ACTION_SPECS",
    "APTActionRequest",
    "APTActionType",
    "APTKnowledge",
    "APTView",
    "Simulation",
    "StepResult",
    "InasimEnv",
    "EventQueue",
    "IDSModule",
    "Alert",
    "AlertSource",
    "Observation",
    "ScanResult",
    "DEFENDER_ACTION_SPECS",
    "DefenderAction",
    "DefenderActionType",
    "enumerate_actions",
    "RewardModule",
    "NetworkState",
    "EpisodeTrace",
    "TraceStep",
    "record_episode",
    "verify_determinism",
    "VecStep",
    "BatchedVectorEnv",
    "VectorEnv",
]
