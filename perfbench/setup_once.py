"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_once.py --workload acso-eval --seed 7 --scratch DIR

``run.py`` starts this for its spare set-ups, so that no reported
set-up shares an interpreter, and with it any process-level cache, with
another. The workload is set up in ``DIR`` (which must not exist yet),
closed again and ``DIR`` removed. The last line of stdout is the set-up
time in seconds.
"""

from __future__ import annotations

import argparse
import shutil
from pathlib import Path

from run import _import_program, _set_up


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    try:
        workload, seconds = _set_up(WORKLOADS[args.workload], args.seed,
                                    args.scratch)
        workload.close()
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
