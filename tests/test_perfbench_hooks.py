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
