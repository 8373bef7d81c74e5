"""The benchmark's per-layer trace hooks name attributes that exist.

``perfbench/workloads.py::trace_layers`` wraps each layer's entry point
by name (``--trace 1`` runs). A renamed or deleted entry point is only
reported on stderr and skipped, and its layer then silently reads zero.
Here every hook is resolved with a recorder that patches nothing.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from repro.nn import Tensor
from repro.rl import AttentionQNetwork

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class ResolvingRecorder:
    """Records each hook and whether ``getattr(owner, attr)`` resolves."""

    def __init__(self):
        self.hooks = []
        self.missing = []

    def wrap(self, owner, attr: str, name: str) -> bool:
        self.hooks.append((owner, attr, name))
        if getattr(owner, attr, None) is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr} "
                                f"({name})")
        return True


def test_every_trace_hook_resolves():
    recorder = ResolvingRecorder()
    _load_workloads().trace_layers(recorder, SimpleNamespace(env_cls=None))
    assert recorder.hooks
    assert recorder.missing == []


def test_q_forward_and_training_backward_are_hooked():
    """The attention Q forward and the one backward pass that every
    training loss runs are the entry points the Q-network layers time."""
    recorder = ResolvingRecorder()
    _load_workloads().trace_layers(recorder, SimpleNamespace(env_cls=None))
    hooked = {(owner, attr): name for owner, attr, name in recorder.hooks}
    assert hooked[(AttentionQNetwork, "forward")] == "qnet.forward"
    assert hooked[(Tensor, "backward")] == "qnet.backward"


def test_one_acso_decision_enters_each_hooked_layer_once(monkeypatch,
                                                         tiny_tables):
    """One ``ACSOPolicy.act`` on the paper network makes exactly one call
    to each entry point the per-layer trace wraps for ``acso-eval``, so
    the Q forward, featurizer, DBN filter and action mask layers keep
    measuring the code they name."""
    import repro
    import repro.defenders.acso as acso_module
    from repro.config import paper_network
    from repro.dbn.filter import DBNFilter
    from repro.rl import ACSOFeaturizer, QNetConfig

    hooks = {"AttentionQNetwork.forward": (AttentionQNetwork, "forward"),
             "ACSOFeaturizer.update": (ACSOFeaturizer, "update"),
             "DBNFilter.update": (DBNFilter, "update"),
             "acso.valid_action_mask": (acso_module, "valid_action_mask")}
    calls = dict.fromkeys(hooks, 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    env = repro.make_env(paper_network(tmax=20), seed=0)
    policy = acso_module.ACSOPolicy(AttentionQNetwork(QNetConfig(), seed=1),
                                    tiny_tables)
    obs = env.reset(seed=2)
    policy.reset(env)
    for name, (owner, attr) in hooks.items():
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    policy.act(obs)
    assert calls == dict.fromkeys(hooks, 1)
