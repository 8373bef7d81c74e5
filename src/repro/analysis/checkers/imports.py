"""Forbidden-import policy: pickle bans and layering.

Two standing bans ship in the default policy:

* ``pickle``/``dill``/``cloudpickle`` (and ``marshal``/``shelve``)
  must stay out of the columnar OPE trace store -- a trace must be
  safe to read from any producer and portable across python versions;
* ``repro.sim`` must never import the layers built on it
  (``repro.serve``, ``eval``, ``rl``, ``dbn``, ``validation``,
  ``defenders``) -- the simulation core and its
  episode driver are the bottom layer, and every training, evaluation
  and serving loop depends on them, not the other way around.

Bans are configured as ``{"modules": [globs], "banned": [prefixes],
"reason": ...}`` records, so new layering edges are one policy entry.
Relative imports are resolved against the analyzed root taken as the
``repro`` package, so ``from ..rl import dqn`` in ``sim/`` is
``repro.rl.dqn``.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, Project, Severity
from repro.analysis.policy import Policy

__all__ = ["ForbiddenImportsChecker"]


def _imported_names(node: ast.AST, relpath: str) -> list[str]:
    """Dotted names an import statement binds: the module and, for a
    ``from`` import, each ``module.name`` (a submodule or an attribute,
    the AST cannot tell)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module
    if node.level:
        package = ["repro", *relpath.split("/")[:-1]]
        if node.level > len(package):
            return []  # climbs above the analyzed root
        base = package[:len(package) - node.level + 1]
        module = ".".join(base + ([module] if module else []))
    return [module] + [f"{module}.{alias.name}" for alias in node.names]


def _banned_by(name: str, prefixes: list[str]) -> str | None:
    for prefix in prefixes:
        if name == prefix or name.startswith(prefix + "."):
            return prefix
    return None


class ForbiddenImportsChecker:
    rules = ("forbidden-import",)

    def run(self, project: Project, policy: Policy) -> list[Finding]:
        config = policy.rule("forbidden-import")
        findings: list[Finding] = []
        for ban in config.options.get("bans", []):
            modules = tuple(ban.get("modules", ("**",)))
            banned = list(ban.get("banned", ()))
            reason = ban.get("reason", "banned by policy")
            for relpath in project.select(modules):
                source = project.file(relpath)
                for node in ast.walk(source.tree):
                    for name in _imported_names(node, relpath):
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
