"""Deep Q-learning stack for the ACSO agent (paper Section 4).

Components: prioritized n-step replay, the attention Q-network (Fig 5)
and the convolutional baseline (Table 7), potential-based reward
shaping (eq 6), the double-DQN trainer (eq 5), and large-margin
pretraining from expert demonstrations (appendix).
"""

from repro.rl.features import ACSOFeaturizer, FeatureSet, RawHistoryEncoder, stack_features
from repro.rl.qnetwork import AttentionQNetwork, ConvQNetwork, QNetConfig
from repro.rl.replay import (
    NStepAssembler,
    PrioritizedReplay,
    SumTree,
    Transition,
    UniformReplay,
)
from repro.rl.schedules import ExponentialDecay, LinearSchedule
from repro.rl.shaping import PotentialShaper
from repro.rl.dqn import DQNConfig, DQNTrainer
from repro.rl.pretrain import collect_demonstrations, pretrain

__all__ = [
    "ACSOFeaturizer",
    "FeatureSet",
    "RawHistoryEncoder",
    "stack_features",
    "AttentionQNetwork",
    "ConvQNetwork",
    "QNetConfig",
    "SumTree",
    "PrioritizedReplay",
    "UniformReplay",
    "NStepAssembler",
    "Transition",
    "ExponentialDecay",
    "LinearSchedule",
    "PotentialShaper",
    "DQNConfig",
    "DQNTrainer",
    "collect_demonstrations",
    "pretrain",
]
