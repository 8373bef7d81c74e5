"""``repro check``: AST-based static enforcement of repro invariants.

The platform's reproducibility story rests on contracts that no type
checker sees: RNG streams must be injected, the on-disk trace store must
stay pickle-free, and the simulation core must not import the serving
layer. This package proves those contracts at lint time, before a
parity test has to catch them dynamically.

The analyzer itself uses only the stdlib (``ast`` + ``json``), but
importing it runs ``repro/__init__``, which needs the simulator's
import-time dependencies (numpy and networkx): the CI lint job installs
those two, and pytest for ``tests/test_analysis.py``.

Entry points:

* ``repro check`` (CLI verb) and ``python -m repro.analysis``;
* :func:`run_check` for tests and embedding.

See ``README.md`` ("Static analysis gates") for the rule catalog and
the suppression syntax.
"""

from repro.analysis.core import (
    AnalysisError,
    Finding,
    Project,
    Severity,
    SourceFile,
    Suppression,
)
from repro.analysis.policy import Policy, RuleConfig
from repro.analysis.runner import main, run_check

__all__ = [
    "AnalysisError",
    "Finding",
    "Policy",
    "Project",
    "RuleConfig",
    "Severity",
    "SourceFile",
    "Suppression",
    "main",
    "run_check",
]
