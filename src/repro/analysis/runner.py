"""The analysis driver behind ``repro check`` / ``python -m repro.analysis``.

Pipeline: build the project -> run every checker under the default
rule table -> drop findings covered by justified inline suppressions ->
report in the requested format. Exit status: 0 clean, 1 findings, 2
analyzer error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.core import (
    AnalysisError,
    Finding,
    Project,
    Severity,
    sort_findings,
)
from repro.analysis.policy import RULE_CATALOG, Policy
from repro.analysis.report import FORMATS, render

__all__ = ["run_check", "CheckResult", "main"]


@dataclass
class CheckResult:
    """Everything one analysis run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _default_root() -> Path:
    """The repro package directory (we analyze the installed source)."""
    return Path(__file__).resolve().parent.parent


def run_check(root: str | Path | None = None) -> CheckResult:
    """Run every checker over ``root`` and post-process suppressions."""
    project = Project(Path(root) if root is not None else _default_root())
    policy = Policy.default()
    raw: list[Finding] = []
    for checker_cls in ALL_CHECKERS:
        raw.extend(checker_cls().run(project, policy))
    result = CheckResult()
    for finding in sort_findings(raw):
        if project.has(finding.path):
            suppression = project.file(finding.path).suppression_for(finding)
            if suppression is not None:
                result.suppressed.append(
                    (finding, suppression.justification)
                )
                continue
        result.findings.append(finding)
    # malformed suppressions are findings themselves: a mute button
    # without a written reason is exactly what the syntax forbids
    for relpath in project.relpaths:
        if relpath not in project._files:
            continue  # never parsed -> no checker looked at it
        source = project.file(relpath)
        for line, text in source.malformed_suppressions:
            result.findings.append(
                Finding(
                    rule="suppression-syntax",
                    path=relpath,
                    line=line,
                    severity=Severity.ERROR,
                    message=(
                        "inline suppression has no justification: "
                        f"{text!r}"
                    ),
                    hint=(
                        "write '# repro: allow[rule-id] -- why this is "
                        "acceptable'"
                    ),
                )
            )
    result.findings = sort_findings(result.findings)
    return result


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=(
            "AST-based static enforcement of the repo's determinism "
            "and import-layering contracts."
        ),
    )
    parser.add_argument(
        "root", nargs="?", default=None,
        help="directory to analyze (default: the repro package source)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text",
        help="findings format (github emits PR annotations)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        width = max(len(rule) for rule in RULE_CATALOG)
        for rule, description in sorted(RULE_CATALOG.items()):
            print(f"{rule:<{width}}  {description}")
        return 0
    try:
        result = run_check(root=args.root or None)
    except AnalysisError as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2
    print(render(args.format, result.findings,
                 suppressed=len(result.suppressed)))
    return result.exit_code()
