"""The analysis driver behind ``repro check`` / ``python -m repro.analysis``.

Pipeline: load policy -> build the project -> run every enabled checker
-> drop findings covered by inline suppressions or the baseline ->
report in the requested format. Exit status: 0 clean, 1 findings, 2
analyzer/config error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.baseline import (
    PARKED_JUSTIFICATION,
    Baseline,
    BaselineError,
)
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

__all__ = ["run_check", "CheckResult", "main", "DEFAULT_BASELINE_NAME"]

DEFAULT_BASELINE_NAME = ".repro-check-baseline.json"


@dataclass
class CheckResult:
    """Everything one analysis run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, str]] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _default_root() -> Path:
    """The repro package directory (we analyze the installed source)."""
    return Path(__file__).resolve().parent.parent


def run_check(
    root: str | Path | None = None,
    policy: Policy | None = None,
    baseline: Baseline | None = None,
    checkers=ALL_CHECKERS,
) -> CheckResult:
    """Run every checker over ``root`` and post-process suppressions."""
    project = Project(Path(root) if root is not None else _default_root())
    policy = policy or Policy.default()
    baseline = baseline or Baseline.empty()
    raw: list[Finding] = []
    for checker_cls in checkers:
        raw.extend(checker_cls().run(project, policy))
    result = CheckResult()
    for finding in sort_findings(raw):
        if project.has(finding.path):
            source = project.file(finding.path)
            suppression = source.suppression_for(finding)
            if suppression is not None:
                result.suppressed.append(
                    (finding, suppression.justification)
                )
                continue
            if baseline.matches(finding, source.line_text(finding.line)):
                result.baselined.append(finding)
                continue
        result.findings.append(finding)
    # malformed suppressions are findings themselves: a mute button
    # without a written reason is exactly what the baseline forbids
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
    result.findings.extend(baseline.unused_findings())
    result.findings.extend(baseline.parked_findings())
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
        "--policy", default=None, metavar="FILE",
        help="JSON policy overrides, deep-merged over the defaults",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=(
            "baseline file of grandfathered findings "
            f"(default: {DEFAULT_BASELINE_NAME} next to the analyzed "
            "root, when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help=(
            "write the current findings to the baseline file (with "
            "placeholder justifications you must edit) and exit 0"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _resolve_baseline_path(args, root: Path) -> Path | None:
    if args.baseline:
        return Path(args.baseline)
    # walk up from the analyzed root so `repro check` inside src/repro
    # still finds the repo-level baseline
    for candidate in (root, *root.parents):
        path = candidate / DEFAULT_BASELINE_NAME
        if path.exists():
            return path
    if args.write_baseline:
        return Path.cwd() / DEFAULT_BASELINE_NAME
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        width = max(len(rule) for rule in RULE_CATALOG)
        for rule, description in sorted(RULE_CATALOG.items()):
            print(f"{rule:<{width}}  {description}")
        return 0
    root = Path(args.root) if args.root else _default_root()
    try:
        policy = Policy.load(args.policy) if args.policy else Policy.default()
        baseline_path = (
            None if args.no_baseline else _resolve_baseline_path(args, root)
        )
        baseline = (
            Baseline.load(baseline_path)
            if baseline_path is not None and baseline_path.exists()
            and not args.write_baseline
            else Baseline.empty()
        )
        result = run_check(root=root, policy=policy, baseline=baseline)
    except (AnalysisError, BaselineError) as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        project = Project(root)

        def line_of(finding: Finding) -> str:
            if project.has(finding.path):
                return project.file(finding.path).line_text(finding.line)
            return ""

        target = baseline_path or (Path.cwd() / DEFAULT_BASELINE_NAME)
        count = Baseline.write(
            target, result.findings, line_of,
            justification=PARKED_JUSTIFICATION,
        )
        print(f"wrote {count} baseline entr{'y' if count == 1 else 'ies'} "
              f"to {target} -- each is tagged {PARKED_JUSTIFICATION!r} and "
              "reported as a finding until its justification is edited")
        return 0
    print(render(args.format, result.findings,
                 suppressed=len(result.suppressed),
                 baselined=len(result.baselined)))
    return result.exit_code()
