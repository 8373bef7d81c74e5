"""Inference and training passes of one network on two threads.

A pass is chosen by ``forward``'s ``grad`` argument, not by a mode, so
untaped forwards on one thread cannot change what a training step on
another thread records. Threads are ordered by ``threading.Event``s, so
the interleaving below happens the same way on every run.
"""

import threading

import numpy as np

from repro.config import tiny_network
from repro.net import build_topology
from repro.nn import huber_loss
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


def _network():
    """A compact network on the tiny topology."""
    net = AttentionQNetwork(QNetConfig(d_model=16, n_heads=2, encoder_hidden=32,
                                       head_hidden=32), seed=3)
    return net.bind_topology(build_topology(tiny_network().topology))


def _features(net, batch, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(batch, net._n_nodes, NODE_FEATURE_DIM)),
            rng.normal(size=(batch, net._n_plcs, PLC_FEATURE_DIM)),
            rng.normal(size=(batch, GLOBAL_FEATURE_DIM)))


def _training_step(net, between=lambda: None):
    """One Huber step's parameter gradients; ``between()`` runs after
    the taped forward and before its backward."""
    rng = np.random.default_rng(0)
    q = net.forward(*_features(net, 4, seed=0), grad=True)
    between()
    loss = huber_loss(q, rng.integers(net.n_actions, size=4),
                      rng.normal(size=4))
    loss.backward()
    return [p.grad.tobytes() for p in net.parameters()]


def test_training_step_while_another_thread_runs_inference():
    """Thread A runs untaped forwards of the network B trains, before
    B's step and between B's taped forward and its backward. B's
    gradients equal a solo run's, and A's outputs equal the same
    forwards run alone."""
    solo = _training_step(_network())
    net = _network()
    # one state, a batch, and a batch of several row blocks
    batches = [_features(net, batch, seed=batch)
               for batch in (1, 3, 2 * net._block_rows + 1)]

    def infer():
        return [net.forward(*feats).data.tobytes() for feats in batches]

    alone = infer()
    started, taped, inferred = (threading.Event() for _ in range(3))
    seen = {}

    def inference():
        seen["before"] = infer()
        started.set()
        _wait(taped)
        seen["inside"] = infer()
        inferred.set()

    def training():
        _wait(started)

        def between():
            taped.set()
            _wait(inferred)

        try:
            seen["grads"] = _training_step(net, between)
        finally:
            taped.set()

    _run_threads(inference, training)
    assert seen["grads"] == solo
    assert seen["before"] == seen["inside"] == alone
