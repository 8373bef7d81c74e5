"""RNG discipline: randomness must be injected, never ambient.

Reproducible trajectories require every stochastic draw to come from a
``numpy.random.Generator`` that the caller seeded and passed in.
Inside the rule's jurisdiction (the simulation core and the policies
that act in it) this checker forbids:

* **module-state RNG** -- ``np.random.rand()`` / ``random.choice()``
  and friends mutate interpreter-global streams that any import can
  perturb (``rng-global-state``, error);
* **wall-clock / OS entropy** -- ``time.time()``, ``uuid.uuid4()``,
  ``os.urandom()``, ``secrets.*``: a replay cannot reproduce the value
  (``rng-wall-clock``, error);
* **unsanctioned generator factories** -- ``np.random.default_rng()``
  / ``RandomState()`` / ``random.Random()`` constructed outside
  ``utils/rng.py``: the stream's seed no longer flows through the
  single ``RngFactory`` root, so perturbing one component can shift
  another's stream (``rng-unsanctioned-factory``, warning).

Timing calls (``time.monotonic``, ``time.perf_counter``, ``sleep``)
are not entropy and stay legal.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, Project, Severity
from repro.analysis.policy import Policy

__all__ = ["RngDisciplineChecker"]

#: ``time`` attributes that read the wall clock (timing fns are fine)
_WALL_CLOCK_TIME = {"time", "time_ns"}
_WALL_CLOCK_UUID = {"uuid1", "uuid4"}
_WALL_CLOCK_OS = {"urandom", "getrandom"}

#: ``random`` module attributes that are factories, not module state
_RANDOM_FACTORIES = {"Random"}
#: ``random`` attributes drawing from OS entropy even when "seeded"
_RANDOM_OS = {"SystemRandom"}

_FACTORY_HINT = (
    "accept an np.random.Generator parameter, or build one through "
    "repro.utils.rng.ensure_rng / RngFactory so the seed flows from "
    "the single root"
)


def _import_map(tree: ast.Module) -> dict[str, str]:
    """name -> dotted path for every import binding in the module."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    names[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                names[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return names


def _dotted(node: ast.AST, names: dict[str, str]) -> str | None:
    """Resolve a call target to a dotted path via the import map."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = names.get(node.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


class RngDisciplineChecker:
    rules = ("rng-global-state", "rng-wall-clock", "rng-unsanctioned-factory")

    def run(self, project: Project, policy: Policy) -> list[Finding]:
        findings: list[Finding] = []
        self._juris = {
            rule: set(policy.jurisdiction(project, rule))
            for rule in self.rules
        }
        jurisdiction: set[str] = set()
        for per_rule in self._juris.values():
            jurisdiction.update(per_rule)
        if not jurisdiction:
            return findings
        state_cfg = policy.rule("rng-global-state")
        np_sanctioned = set(
            state_cfg.options.get("np_sanctioned", ("Generator",))
        )
        factory_cfg = policy.rule("rng-unsanctioned-factory")
        sanctioned_modules = set(
            factory_cfg.options.get("sanctioned_modules", ())
        )
        for relpath in sorted(jurisdiction):
            source = project.file(relpath)
            names = _import_map(source.tree)
            in_factory_module = relpath in sanctioned_modules
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ImportFrom):
                    findings.extend(
                        self._check_import(policy, relpath, node)
                    )
                if not isinstance(node, ast.Call):
                    continue
                dotted = _dotted(node.func, names)
                if dotted is None:
                    continue
                finding = self._classify(
                    policy, relpath, node, dotted,
                    np_sanctioned=np_sanctioned,
                    in_factory_module=in_factory_module,
                )
                if finding is not None:
                    findings.append(finding)
        return findings

    # ------------------------------------------------------------------
    def _check_import(self, policy: Policy, relpath: str,
                      node: ast.ImportFrom) -> list[Finding]:
        """``from numpy.random import rand`` smuggles module state in
        under a local name; flag the import itself."""
        if node.level or relpath not in self._juris["rng-global-state"]:
            return []
        out = []
        if node.module in ("numpy.random", "random"):
            factories = (
                {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                 "PCG64", "Philox", "RandomState"}
                if node.module == "numpy.random"
                else _RANDOM_FACTORIES | _RANDOM_OS
            )
            for alias in node.names:
                if alias.name in factories or alias.name == "*":
                    continue
                out.append(
                    Finding(
                        rule="rng-global-state",
                        path=relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        severity=Severity.ERROR,
                        message=(
                            f"'from {node.module} import {alias.name}' binds "
                            "a module-state RNG function"
                        ),
                        hint=(
                            "draw from an injected np.random.Generator "
                            "instead of the global stream"
                        ),
                    )
                )
        return out

    def _classify(self, policy: Policy, relpath: str, node: ast.Call,
                  dotted: str, np_sanctioned: set[str],
                  in_factory_module: bool) -> Finding | None:
        parts = dotted.split(".")
        # -- numpy.random.* ------------------------------------------------
        if len(parts) >= 2 and parts[0] == "numpy" and parts[1] == "random":
            if len(parts) == 2:
                return None  # bare np.random reference, not a call target
            fn = parts[2]
            if fn in ("default_rng", "RandomState"):
                return self._factory(policy, relpath, node, dotted,
                                     in_factory_module)
            if fn in np_sanctioned:
                return None
            return self._error(
                policy, "rng-global-state", relpath, node,
                f"np.random.{fn}() draws from numpy's interpreter-global "
                "stream",
                "draw from an injected np.random.Generator instead",
            )
        # -- stdlib random ------------------------------------------------
        if parts[0] == "random" and len(parts) >= 2:
            fn = parts[1]
            if fn in _RANDOM_FACTORIES:
                return self._factory(policy, relpath, node, dotted,
                                     in_factory_module)
            if fn in _RANDOM_OS:
                return self._error(
                    policy, "rng-wall-clock", relpath, node,
                    "random.SystemRandom draws OS entropy that a replay "
                    "cannot reproduce",
                    "use a seeded np.random.Generator",
                )
            return self._error(
                policy, "rng-global-state", relpath, node,
                f"random.{fn}() draws from the stdlib's interpreter-global "
                "stream",
                "draw from an injected np.random.Generator instead",
            )
        # -- wall-clock / OS entropy --------------------------------------
        if parts[0] == "time" and len(parts) >= 2 and (
            parts[1] in _WALL_CLOCK_TIME
        ):
            return self._error(
                policy, "rng-wall-clock", relpath, node,
                f"time.{parts[1]}() reads the wall clock inside "
                "deterministic code",
                "derive the value from injected state (step counter, "
                "seed schedule) or move it out of the sim core",
            )
        if parts[0] == "uuid" and len(parts) >= 2 and (
            parts[1] in _WALL_CLOCK_UUID
        ):
            return self._error(
                policy, "rng-wall-clock", relpath, node,
                f"uuid.{parts[1]}() mixes clock/OS entropy into an id",
                "derive ids from the seed schedule (e.g. RngFactory.child)",
            )
        if parts[0] == "os" and len(parts) >= 2 and (
            parts[1] in _WALL_CLOCK_OS
        ):
            return self._error(
                policy, "rng-wall-clock", relpath, node,
                f"os.{parts[1]}() is OS entropy; replays cannot reproduce it",
                "use a seeded np.random.Generator",
            )
        if parts[0] == "secrets":
            return self._error(
                policy, "rng-wall-clock", relpath, node,
                f"secrets.{parts[1] if len(parts) > 1 else '*'}() is OS "
                "entropy; replays cannot reproduce it",
                "use a seeded np.random.Generator",
            )
        return None

    def _factory(self, policy: Policy, relpath: str, node: ast.Call,
                 dotted: str, in_factory_module: bool) -> Finding | None:
        if in_factory_module:
            return None
        if relpath not in self._juris["rng-unsanctioned-factory"]:
            return None
        return Finding(
            rule="rng-unsanctioned-factory",
            path=relpath,
            line=node.lineno,
            col=node.col_offset,
            severity=Severity.WARNING,
            message=f"{dotted.replace('numpy.', 'np.')}() constructs a "
                    "generator outside the sanctioned factory module",
            hint=_FACTORY_HINT,
        )

    def _error(self, policy: Policy, rule: str, relpath: str,
               node: ast.Call, message: str, hint: str) -> Finding | None:
        if relpath not in self._juris[rule]:
            return None
        return Finding(
            rule=rule,
            path=relpath,
            line=node.lineno,
            col=node.col_offset,
            severity=Severity.ERROR,
            message=message,
            hint=hint,
        )
