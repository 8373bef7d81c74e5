"""Finding renderers: human text, machine JSON, GitHub annotations."""

from __future__ import annotations

import json

from repro.analysis.core import Finding, Severity

__all__ = ["render", "FORMATS"]

FORMATS = ("text", "json", "github")


def _render_text(findings: list[Finding], suppressed: int) -> str:
    lines = []
    for finding in findings:
        lines.append(
            f"{finding.location()}: {finding.severity.value} "
            f"[{finding.rule}] {finding.message}"
        )
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    summary = (
        f"repro check: {errors} error(s), {warnings} warning(s)"
    )
    if suppressed:
        summary += f" ({suppressed} suppressed inline)"
    lines.append(summary)
    return "\n".join(lines)


def _render_json(findings: list[Finding], suppressed: int) -> str:
    payload = {
        "findings": [f.to_dict() for f in findings],
        "errors": sum(1 for f in findings if f.severity is Severity.ERROR),
        "warnings": sum(
            1 for f in findings if f.severity is Severity.WARNING
        ),
        "suppressed": suppressed,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _render_github(findings: list[Finding], suppressed: int) -> str:
    """GitHub workflow commands: findings annotate the PR diff."""
    lines = []
    for finding in findings:
        level = (
            "error" if finding.severity is Severity.ERROR else "warning"
        )
        message = finding.message
        if finding.hint:
            message += f" -- {finding.hint}"
        # workflow-command payloads are single-line; escape per the spec
        message = (
            message.replace("%", "%25")
            .replace("\r", "%0D")
            .replace("\n", "%0A")
        )
        lines.append(
            f"::{level} file={finding.path},line={max(finding.line, 1)},"
            f"title=repro check [{finding.rule}]::{message}"
        )
    lines.append(_render_text(findings, suppressed).splitlines()[-1])
    return "\n".join(lines)


def render(fmt: str, findings: list[Finding], suppressed: int = 0) -> str:
    renderer = {
        "text": _render_text,
        "json": _render_json,
        "github": _render_github,
    }[fmt]
    return renderer(findings, suppressed)
