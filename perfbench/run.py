"""Benchmark entry point for the reproduction's three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload acso-eval --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's ``src/`` (pure Python, no
build step). One run sets the workload up, sends requests in a closed
loop for ``--seconds`` seconds, then checks the outputs. The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics (self time per request, measured by wrappers
installed around each layer's entry points) with ``--trace 1``.
Progress and problems go to stderr. Scratch files live under
``.perfbench_tmp/`` in the checkout and are removed on exit.

``calibrated_latency_ms`` is the median request time scaled by the
median time of a calibration kernel run between requests (see
calibration.py). The run and every process it starts are pinned to one
CPU, so the kernel and the work it calibrates share it.
Every request of a workload does the same work from the same starting
state (see workloads.py). The raw median and fastest request are
printed to stderr for reference.

``setup_s`` is the median of ``SETUP_REPEATS`` calibrated set-ups: the
one that serves the requests and spare ones, each run by
``setup_once.py`` in a fresh interpreter with a seed of its own (so no
set-up can reuse another's work through a process-level or seed-keyed
cache), spread evenly over the timed loop (their time does not count
against ``--seconds``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import REFERENCE_S, kernel_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: spare set-up ``k`` uses seed ``--seed + k * SPARE_SEED_STRIDE``
SPARE_SEED_STRIDE = 1_000_003
#: requests made even when one outlasts ``--seconds``
MIN_REQUESTS = 3

#: per-layer metrics: name -> (source, key). ``self`` is span self time
#: in ms per request, ``calls`` is span entries per request, ``rusage`` is this
#: process's kernel time (ms) or minor page faults per request.
#: ``unattributed_ms`` is request time outside every traced layer.
LAYER_METRICS = {
    "sim_step_ms": ("self", "sim.step"),
    "sim_reset_ms": ("self", "sim.reset"),
    "policy_reset_ms": ("self", "policy.reset"),
    "featurize_ms": ("self", "featurize"),
    "dbn_filter_ms": ("self", "dbn.filter"),
    "action_mask_ms": ("self", "action_mask"),
    "qnet_forward_ms": ("self", "qnet.forward"),
    "qnet_backward_ms": ("self", "qnet.backward"),
    "optimizer_ms": ("self", "optimizer"),
    "replay_ms": ("self", "replay"),
    "dqn_update_ms": ("self", "dqn.update"),
    "ope_decode_ms": ("self", "ope.decode"),
    "ope_propensity_ms": ("self", "ope.propensity"),
    "ope_is_ms": ("self", "ope.is_pass"),
    "ope_fqe_ms": ("self", "ope.fqe"),
    "ope_dr_ms": ("self", "ope.dr"),
    "ope_bootstrap_ms": ("self", "ope.bootstrap"),
    "store_ms": ("self", "store"),
    "unattributed_ms": ("self", "request"),
    "qnet_forward_calls": ("calls", "qnet.forward"),
    "kernel_ms": ("rusage", "ru_stime"),
    "minor_faults": ("rusage", "ru_minflt"),
}


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {SRC}: "
                         f"{exc}")
    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def _set_up(workload_cls, seed: int, scratch: Path):
    """A fresh workload, set up, and its calibrated set-up time in
    seconds."""
    workload = workload_cls(seed, scratch)
    scratch.mkdir(parents=True)
    try:
        kernel = kernel_seconds()
        began = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - began
        kernel = (kernel + kernel_seconds()) / 2
        return workload, seconds * REFERENCE_S / kernel
    except BaseException:
        workload.close()  # a partial set-up still holds resources
        raise


def _timed_loop(workload, seconds: float, recorder, spare_setup, spares: int):
    """Closed loop: one request at a time until ``seconds`` of requests
    have passed. ``spare_setup()`` is called ``spares`` times, evenly
    spread over the loop. The clock stops while it runs, while
    ``workload.prepare`` restores each request's starting state, and
    while the calibration kernel runs between requests."""
    if recorder is not None:
        before = resource.getrusage(resource.RUSAGE_SELF)
    latencies: list[float] = []
    kernels = [kernel_seconds()]
    failed = attempted = done = 0
    paused = 0.0
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start - paused

    while attempted < MIN_REQUESTS or elapsed() < seconds:
        if done < spares and elapsed() >= (done + 1) * seconds / (spares + 1):
            began = time.perf_counter()
            spare_setup()
            paused += time.perf_counter() - began
            done += 1
            continue
        began = time.perf_counter()
        workload.prepare(attempted)
        paused += time.perf_counter() - began
        began = time.perf_counter()
        if recorder is not None:
            recorder.enter()
        try:
            workload.request(attempted)
        except Exception:
            failed += 1
            traceback.print_exc()
        else:
            latencies.append(time.perf_counter() - began)
        finally:
            if recorder is not None:
                recorder.exit("request")
        attempted += 1
        began = time.perf_counter()
        kernels.append(kernel_seconds())
        paused += time.perf_counter() - began
    if recorder is not None:
        after = resource.getrusage(resource.RUSAGE_SELF)
        recorder.add("ru_stime", after.ru_stime - before.ru_stime)
        recorder.add("ru_minflt", after.ru_minflt - before.ru_minflt)
    measured = elapsed()
    for _ in range(done, spares):  # requests outlasted the schedule
        spare_setup()
    return latencies, kernels, attempted, failed, measured


def _calibrated(latencies: list[float], kernels: list[float]) -> float:
    """The median request in seconds on a host where the calibration
    kernel takes ``REFERENCE_S``: the run's median request time scaled
    by its median kernel time, both taken over the same stretch of
    time."""
    if not latencies:
        return 0.0
    return (statistics.median(latencies) * REFERENCE_S
            / statistics.median(kernels))


def _layer_metrics(recorder, attempted: int) -> dict:
    metrics = {}
    for name, (source, key) in LAYER_METRICS.items():
        if source == "calls":
            value, unit = recorder.calls.get(key, 0), "count"
        elif source == "rusage" and key == "ru_minflt":
            value, unit = recorder.extra.get(key, 0), "count"
        elif source == "rusage":
            value, unit = recorder.extra.get(key, 0.0) * 1e3, "ms"
        else:
            value, unit = recorder.self_seconds.get(key, 0.0) * 1e3, "ms"
        metrics[name] = {"value": value / attempted, "unit": unit}
    return metrics


def run(args, workload_cls) -> dict:
    # one CPU for this process and every process it starts (the spare
    # set-ups), so the calibration kernel measures the speed
    # of the CPU the calibrated work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from spans import SpanRecorder
    from workloads import trace_layers

    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    workload = None
    try:
        workload, seconds = _set_up(workload_cls, args.seed,
                                    scratch / "setup-0")
        setup_seconds = [seconds]

        def spare_setup() -> None:
            spare = len(setup_seconds)
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_once.py"),
                 "--workload", args.workload,
                 "--seed", str(args.seed + spare * SPARE_SEED_STRIDE),
                 "--scratch", str(scratch / f"setup-{spare}")],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
                check=True)
            setup_seconds.append(float(done.stdout.splitlines()[-1]))

        recorder = SpanRecorder() if args.trace else None
        if recorder is not None:
            trace_layers(recorder, workload)
        # a traced run reports no setup_s, so it makes no spare set-ups
        spares = 0 if args.trace else SETUP_REPEATS - 1
        latencies, kernels, attempted, failed, elapsed = _timed_loop(
            workload, args.seconds, recorder, spare_setup, spares)
        if recorder is not None:
            metrics = _layer_metrics(recorder, attempted)
        else:
            metrics = {
                "calibrated_latency_ms": {
                    "value": _calibrated(latencies, kernels) * 1e3,
                    "unit": "ms"},
                "setup_s": {"value": statistics.median(setup_seconds),
                            "unit": "s"},
            }
        if latencies:
            print(f"perfbench: {args.workload} seed {args.seed}: "
                  f"{attempted} requests in {elapsed:.2f}s; wall median "
                  f"{statistics.median(latencies) * 1e3:.1f} ms, fastest "
                  f"{min(latencies) * 1e3:.1f} ms; kernel median "
                  f"{statistics.median(kernels) * 1e3:.2f} ms; calibrated "
                  f"set-ups {[round(s, 3) for s in setup_seconds]} s",
                  file=sys.stderr)
        try:
            problems = workload.check() if latencies else ["no request done"]
        except Exception as exc:
            traceback.print_exc()
            problems = [f"output check raised {exc!r}"]
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return {"correct": not problems and failed == 0,
                "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only when no other run is using it
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    result = run(args, WORKLOADS[args.workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
