"""Forbidden-import policy: pickle bans and layering.

Two standing bans ship in the default policy:

* ``pickle``/``dill``/``cloudpickle`` (and ``marshal``/``shelve``)
  must stay out of the columnar OPE trace store -- a trace must be
  safe to read from any producer and portable across python versions;
* ``repro.sim`` must never import the layers built on it
  (``repro.serve``, ``eval``, ``rl``, ``dbn``, ``validation``,
  ``defenders``, ``adversarial``) -- the simulation core and its
  episode driver are the bottom layer, and every training, evaluation
  and serving loop depends on them, not the other way around.

Bans are configured as ``{"modules": [globs], "banned": [prefixes],
"reason": ...}`` records, so new layering edges are one policy entry.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, Project, Severity
from repro.analysis.policy import Policy

__all__ = ["ForbiddenImportsChecker"]


def _banned_by(name: str, prefixes: list[str]) -> str | None:
    for prefix in prefixes:
        if name == prefix or name.startswith(prefix + "."):
            return prefix
    return None


class ForbiddenImportsChecker:
    rules = ("forbidden-import",)

    def run(self, project: Project, policy: Policy) -> list[Finding]:
        if not policy.enabled("forbidden-imports"):
            return []
        config = policy.rule("forbidden-imports")
        findings: list[Finding] = []
        for ban in config.options.get("bans", []):
            modules = tuple(ban.get("modules", ("**",)))
            banned = list(ban.get("banned", ()))
            reason = ban.get("reason", "banned by policy")
            for relpath in project.select(modules, config.exclude):
                source = project.file(relpath)
                for node in ast.walk(source.tree):
                    names: list[str] = []
                    if isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom) and node.module \
                            and not node.level:
                        names = [node.module] + [
                            f"{node.module}.{alias.name}"
                            for alias in node.names
                        ]
                    for name in names:
                        hit = _banned_by(name, banned)
                        if hit is None:
                            continue
                        findings.append(
                            Finding(
                                rule="forbidden-import",
                                path=relpath,
                                line=node.lineno,
                                col=node.col_offset,
                                severity=Severity.ERROR,
                                message=(
                                    f"import of {hit!r} is forbidden here: "
                                    f"{reason}"
                                ),
                                hint=(
                                    "restructure the dependency, or record "
                                    "an inline '# repro: allow"
                                    "[forbidden-import] -- why' if the "
                                    "import is deliberate"
                                ),
                            )
                        )
                        break  # one finding per import statement per ban
        return findings
