"""Grad mode is per thread.

``no_grad`` turns graph construction off for the thread that enters it
and for no other. Threads are ordered by ``threading.Event``s, so each
interleaving below happens the same way on every run.
"""

import threading

import numpy as np

from repro.config import tiny_network
from repro.net import build_topology
from repro.nn import huber_loss, is_grad_enabled, no_grad
from repro.rl import AttentionQNetwork, QNetConfig
from repro.rl.features import GLOBAL_FEATURE_DIM, NODE_FEATURE_DIM, PLC_FEATURE_DIM

#: seconds any one thread waits for another before the test gives up
TIMEOUT = 30.0


def _run_threads(*targets):
    """Run each target on its own thread; re-raise the first error."""
    errors = []

    def guarded(target):
        try:
            target()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


def _wait(event: threading.Event) -> None:
    assert event.wait(TIMEOUT), "the other thread never got there"


def test_overlapping_blocks_on_two_threads():
    """A enters, B enters, A exits, B exits: B's block stays off after
    A's ends, and every thread reads grad on outside its blocks."""
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def thread_a():
        with no_grad():
            a_in.set()
            _wait(b_in)
            seen["A inside"] = is_grad_enabled()
        a_out.set()
        seen["A after"] = is_grad_enabled()

    def thread_b():
        _wait(a_in)
        with no_grad():
            b_in.set()
            _wait(a_out)
            seen["B inside, after A left"] = is_grad_enabled()
        seen["B after"] = is_grad_enabled()

    _run_threads(thread_a, thread_b)
    assert seen == {"A inside": False, "A after": True,
                    "B inside, after A left": False, "B after": True}
    assert is_grad_enabled()


def _training_step():
    """One Huber step's parameter gradients on a compact network."""
    topo = build_topology(tiny_network().topology)
    net = AttentionQNetwork(QNetConfig(d_model=16, n_heads=2, encoder_hidden=32,
                                       head_hidden=32), seed=3)
    net.bind_topology(topo)
    rng = np.random.default_rng(0)
    feats = (rng.normal(size=(4, topo.n_nodes, NODE_FEATURE_DIM)),
             rng.normal(size=(4, topo.n_plcs, PLC_FEATURE_DIM)),
             rng.normal(size=(4, GLOBAL_FEATURE_DIM)))
    loss = huber_loss(net.forward(*feats), rng.integers(net.n_actions, size=4),
                      rng.normal(size=4))
    loss.backward()
    return [p.grad.tobytes() for p in net.parameters()]


def test_training_step_while_another_thread_is_in_no_grad():
    """A training step on one thread builds its graph while another
    thread sits in ``no_grad``; its gradients equal a solo run's."""
    solo = _training_step()
    inside, trained = threading.Event(), threading.Event()
    seen = {}

    def inference():
        with no_grad():
            inside.set()
            _wait(trained)
            seen["inference"] = is_grad_enabled()

    def training():
        _wait(inside)
        try:
            seen["grads"] = _training_step()
        finally:
            trained.set()

    _run_threads(inference, training)
    assert seen["inference"] is False
    assert seen["grads"] == solo
    assert is_grad_enabled()
