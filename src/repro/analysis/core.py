"""Core types for the static analyzer: findings, files, projects.

A :class:`Project` is a set of parsed source files rooted at a package
directory; checkers receive it together with a
:class:`~repro.analysis.policy.Policy` and return :class:`Finding`
records.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "AnalysisError",
    "Severity",
    "Finding",
    "Suppression",
    "SourceFile",
    "Project",
]


class AnalysisError(Exception):
    """The analyzer itself cannot proceed (bad config, unreadable tree)."""


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation, machine-readable.

    ``path`` is project-relative with forward slashes; ``line`` is
    1-based. ``hint`` says how to fix (or legitimately suppress) the
    finding, not merely what is wrong.
    """

    rule: str
    path: str
    line: int
    severity: Severity
    message: str
    hint: str = ""
    col: int = 0

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
            "message": self.message,
            "hint": self.hint,
        }


#: ``# repro: allow[rule-id] -- justification`` (the justification is
#: mandatory: a suppression without a recorded reason is itself an error)
_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[a-z0-9*,\- ]+)\]"
    r"(?:\s*--\s*(?P<why>.*\S))?"
)


@dataclass(frozen=True)
class Suppression:
    """An inline ``# repro: allow[...]`` comment."""

    line: int  # line the comment sits on
    rules: frozenset[str]  # rule ids, or {"*"}
    justification: str

    def covers(self, rule: str) -> bool:
        return "*" in self.rules or rule in self.rules


def scan_suppressions(lines: list[str]) -> tuple[dict[int, Suppression], list]:
    """All inline suppressions of a file, keyed by the line they guard.

    A trailing comment guards its own line; a standalone comment line
    guards the next line. Malformed suppressions (missing ``--``
    justification) are returned separately so the runner can report
    them instead of silently honouring them.
    """
    guards: dict[int, Suppression] = {}
    malformed: list[tuple[int, str]] = []
    for i, text in enumerate(lines, start=1):
        match = _ALLOW_RE.search(text)
        if match is None:
            continue
        why = match.group("why")
        if not why:
            malformed.append((i, text.strip()))
            continue
        rules = frozenset(
            r.strip() for r in match.group("rules").split(",") if r.strip()
        )
        supp = Suppression(line=i, rules=rules, justification=why)
        standalone = text.lstrip().startswith("#")
        guards[i + 1 if standalone else i] = supp
    return guards, malformed


class SourceFile:
    """One parsed python file: text, lines, AST, suppressions."""

    def __init__(self, path: Path, relpath: str):
        self.path = path
        self.relpath = relpath
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        try:
            self.tree = ast.parse(self.text, filename=str(path))
        except SyntaxError as exc:
            raise AnalysisError(
                f"{relpath}: cannot parse: {exc.msg} (line {exc.lineno})"
            ) from exc
        self.suppressions, self.malformed_suppressions = scan_suppressions(
            self.lines
        )

    def suppression_for(self, finding: Finding) -> Suppression | None:
        supp = self.suppressions.get(finding.line)
        if supp is not None and supp.covers(finding.rule):
            return supp
        return None


class Project:
    """A tree of source files under ``root``, loaded lazily.

    ``relpath`` keys use forward slashes relative to ``root`` -- the
    same shape the policy's jurisdiction globs are written in.
    """

    def __init__(self, root: Path, paths: list[Path] | None = None):
        self.root = Path(root).resolve()
        if not self.root.is_dir():
            raise AnalysisError(f"analysis root {root!r} is not a directory")
        if paths is None:
            paths = sorted(
                p for p in self.root.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        self._files: dict[str, SourceFile] = {}
        self._paths: dict[str, Path] = {}
        self.relpaths: list[str] = []
        for path in paths:
            rel = path.resolve().relative_to(self.root).as_posix()
            self.relpaths.append(rel)
            self._paths[rel] = path
        # findings must come out in a stable order regardless of how the
        # checkers iterate
        self.relpaths.sort()

    def file(self, relpath: str) -> SourceFile:
        if relpath not in self._paths:
            raise AnalysisError(f"no file {relpath!r} under {self.root}")
        if relpath not in self._files:
            self._files[relpath] = SourceFile(self._paths[relpath], relpath)
        return self._files[relpath]

    def has(self, relpath: str) -> bool:
        return relpath in self._paths

    def select(self, include: tuple[str, ...]) -> list[str]:
        """Relpaths matched by any include glob."""
        from fnmatch import fnmatch

        def matches(rel: str) -> bool:
            for pattern in include:
                if fnmatch(rel, pattern):
                    return True
                # "pkg/**" should also match direct children ("pkg/a.py"),
                # which fnmatch's "*" (no dir semantics) already allows,
                # and the bare package marker "pkg" should match the tree
                if pattern.endswith("/**") and fnmatch(
                    rel, pattern[:-3] + "/*"
                ):
                    return True
            return False

        return [rel for rel in self.relpaths if matches(rel)]


def sort_findings(findings: list[Finding]) -> list[Finding]:
    order = {Severity.ERROR: 0, Severity.WARNING: 1}
    return sorted(
        findings,
        key=lambda f: (f.path, f.line, f.col, order[f.severity], f.rule),
    )
