"""Host-speed calibration for the end-to-end metrics.

On a shared host, other tenants slow this process by up to 1.6x in
phases lasting from under a second to a minute, so the same request
takes 400 ms in one run and 550 ms in the next. The slowdown is a
property of the host, not of the program, and it slows any CPU work
run at the same moment. The benchmark therefore times a fixed kernel
between requests and around each set-up and divides by it: a
*calibrated* time is a wall time times ``REFERENCE_S / kernel time``
(for requests, the run's median request over its median kernel time),
the time it would take on a host where the kernel runs in
``REFERENCE_S``. A change to the program moves the wall time and not
the kernel's, so it moves the calibrated time by the same share.

The kernel has the two kinds of numpy work that dominate the requests:
dense algebra shaped like one attention block of the Q-network, and a
chain of small array operations that each allocate a temporary, as
autograd and the DBN filter do. Over six runs per workload spanning
calm and busy phases of the host, the raw median request time spread
by 39-54% (highest over lowest run); calibrated against this kernel,
by 4-11%. The algebra alone left 10-19%, and a kernel of interpreted
dict and list work 9-29%.
"""

from __future__ import annotations

import time

import numpy as np

#: about the kernel's fastest time on a 2-vCPU x86-64 container, so
#: calibrated times read as milliseconds on that host at its fastest
REFERENCE_S = 0.011

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((96, 64))
_W = _rng.standard_normal((64, 64)) * 0.1


def _kernel() -> float:
    x = _X
    for _ in range(80):
        h = np.maximum(x @ _W, 0.0)
        s = h @ h.T * 0.01
        e = np.exp(s - s.max(axis=1, keepdims=True))
        x = (e / e.sum(axis=1, keepdims=True)) @ h
    a = _X[:16, :16]
    for _ in range(400):
        d = np.tanh(a * 1.0001 + 0.5)
        a = (d.T @ d) * 0.01 + a * 0.99
    return float(x[0, 0] + a[0, 0])


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    began = time.perf_counter()
    _kernel()
    return time.perf_counter() - began


_kernel()  # first-call allocation is not host speed
