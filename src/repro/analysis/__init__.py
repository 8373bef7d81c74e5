"""``repro check``: AST-based static enforcement of repro invariants.

The platform's reproducibility story rests on contracts that no type
checker sees: RNG streams must be injected, the on-disk trace store must
stay pickle-free, and the simulation core must not import the serving
layer. This package proves those contracts at lint time, before a
parity test has to catch them dynamically.

The framework is deliberately stdlib-only (``ast`` + ``json``): it runs
in the CI lint job without installing the simulator's dependencies.

Entry points:

* ``repro check`` (CLI verb) and ``python -m repro.analysis``;
* :func:`run_check` for tests and embedding.

See ``README.md`` ("Static analysis gates") for the rule catalog,
suppression syntax, and baseline file format.
"""

from repro.analysis.baseline import Baseline, BaselineError
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
    "Baseline",
    "BaselineError",
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
