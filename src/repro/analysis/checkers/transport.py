"""Transport schema completeness: every field makes it over the wire.

The process backend's binary wire format reconstructs ``Observation``
/ ``RewardBreakdown`` / step-info records field for field. The silent
failure mode is *adding* a field: nothing breaks locally, the encoder
simply never ships it (or raises :class:`EncodeError` at runtime, which
fails every step on that backend), and backend parity quietly degrades.
This checker makes that a lint failure.

Two contract kinds, configured per
:class:`~repro.analysis.policy.Policy`:

* ``dataclass`` -- the fields of a dataclass in the schema module must
  all be **read** in the transport module's encoder function and all be
  **supplied** to the dataclass constructor in the decoder function
  (positionally, by keyword, or via a ``*x[a:b]`` splat of statically
  known arity);
* ``info-keys`` -- the string keys of the producer's ``info`` dict
  literal (plus any ``info["k"] = ...`` follow-ups) must be a subset of
  the transport module's key-set constant, and the encoder/decoder must
  read/produce exactly that key set.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, Project, Severity
from repro.analysis.policy import Policy

__all__ = ["TransportSchemaChecker"]

_HINT = (
    "extend the wire format: encode the field in the encoder, rebuild "
    "it in the decoder, and bump the golden/parity fixtures"
)


def _find_class(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _find_function(tree: ast.Module, name: str) -> ast.FunctionDef | None:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
    return None


def _dataclass_fields(cls: ast.ClassDef) -> list[str]:
    """Annotated field names, in declaration order (ClassVar excluded)."""
    fields = []
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        annotation = ast.unparse(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        fields.append(stmt.target.id)
    return fields


def _attribute_reads(fn: ast.FunctionDef) -> set[str]:
    """Every ``<expr>.attr`` read inside the function."""
    return {
        node.attr
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
    }


def _splat_arity(arg: ast.Starred) -> int | None:
    """Arity of a ``*x[a:b]`` splat when a and b are constants."""
    value = arg.value
    if not isinstance(value, ast.Subscript):
        return None
    sl = value.slice
    if not isinstance(sl, ast.Slice) or sl.step is not None:
        return None
    if not (
        isinstance(sl.lower, ast.Constant)
        and isinstance(sl.upper, ast.Constant)
        and isinstance(sl.lower.value, int)
        and isinstance(sl.upper.value, int)
    ):
        return None
    return max(0, sl.upper.value - sl.lower.value)


def _constructor_coverage(
    fn: ast.FunctionDef, class_name: str, fields: list[str]
) -> tuple[set[str], bool] | None:
    """Fields covered by the best ``ClassName(...)`` call in ``fn``.

    Returns ``(covered, verifiable)``; ``None`` when no call is found.
    A call whose splat arity cannot be determined statically is
    unverifiable (reported as a warning, not a missing-field error).
    """
    best: tuple[set[str], bool] | None = None
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != class_name:
            continue
        covered: set[str] = set()
        positional = 0
        verifiable = True
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                arity = _splat_arity(arg)
                if arity is None:
                    verifiable = False
                else:
                    positional += arity
            else:
                positional += 1
        covered.update(fields[:positional])
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs: can't see inside
                verifiable = False
            else:
                covered.add(kw.arg)
        if best is None or len(covered) > len(best[0]):
            best = (covered, verifiable)
    return best


def _dict_keys_of(fn_or_tree: ast.AST, var_name: str) -> set[str] | None:
    """Constant string keys of ``var = { ... }`` plus ``var["k"] = ...``."""
    keys: set[str] = set()
    found = False
    for node in ast.walk(fn_or_tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets: list[ast.expr] = []
            for target in (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            ):
                # unpack `info["k"], pos = ...` style tuple targets
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                else:
                    targets.append(target)
            value = node.value
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == var_name
                    and isinstance(value, ast.Dict)
                ):
                    found = True
                    for key in value.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            keys.add(key.value)
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == var_name
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    keys.add(target.slice.value)
    return keys if found else None


def _subscript_reads(fn: ast.FunctionDef, var_name: str) -> set[str]:
    """``var["k"]`` and ``var.get("k")`` reads inside the function."""
    keys: set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == var_name
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            keys.add(node.slice.value)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == var_name
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            keys.add(node.args[0].value)
    return keys


def _frozenset_const(tree: ast.Module, name: str) -> tuple[set[str], int] | None:
    """The literal string elements of ``NAME = frozenset((...))``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            continue
        value = node.value
        elements: list[ast.expr] = []
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id == "frozenset" and value.args:
            inner = value.args[0]
            if isinstance(inner, (ast.Tuple, ast.List, ast.Set)):
                elements = inner.elts
        elif isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            elements = value.elts
        keys = {
            e.value for e in elements
            if isinstance(e, ast.Constant) and isinstance(e.value, str)
        }
        return keys, node.lineno
    return None


class TransportSchemaChecker:
    rules = ("transport-schema",)

    def run(self, project: Project, policy: Policy) -> list[Finding]:
        if not policy.enabled("transport-schema"):
            return []
        findings: list[Finding] = []
        contracts = policy.rule("transport-schema").options.get(
            "contracts", []
        )
        for contract in contracts:
            # contracts name concrete files; a project that doesn't
            # contain them (a fixture subtree) simply skips the contract
            needed = [contract.get("transport")]
            needed.append(contract.get("schema") or contract.get("producer"))
            if not all(project.has(p) for p in needed if p):
                continue
            if contract.get("kind") == "dataclass":
                findings.extend(self._check_dataclass(project, contract))
            elif contract.get("kind") == "info-keys":
                findings.extend(self._check_info_keys(project, contract))
        return findings

    # ------------------------------------------------------------------
    def _check_dataclass(self, project: Project, c: dict) -> list[Finding]:
        out: list[Finding] = []
        schema = project.file(c["schema"])
        transport = project.file(c["transport"])
        cls = _find_class(schema.tree, c["name"])
        if cls is None:
            return [self._broken(c, f"class {c['name']!r} not found in "
                                    f"{c['schema']}")]
        fields = _dataclass_fields(cls)
        encoder = _find_function(transport.tree, c["encoder"])
        decoder = _find_function(transport.tree, c["decoder"])
        if encoder is None or decoder is None:
            missing = c["encoder"] if encoder is None else c["decoder"]
            return [self._broken(c, f"codec function {missing!r} not found "
                                    f"in {c['transport']}")]
        reads = _attribute_reads(encoder)
        for field in fields:
            if field not in reads:
                out.append(
                    Finding(
                        rule="transport-schema",
                        path=c["transport"],
                        line=encoder.lineno,
                        severity=Severity.ERROR,
                        message=(
                            f"{c['name']}.{field} (declared at "
                            f"{c['schema']}:{cls.lineno}) is never read in "
                            f"{c['encoder']}(): the field is not encoded"
                        ),
                        hint=_HINT,
                    )
                )
        coverage = _constructor_coverage(decoder, c["name"], fields)
        if coverage is None:
            out.append(self._broken(
                c, f"{c['decoder']}() never constructs {c['name']}"
            ))
            return out
        covered, verifiable = coverage
        missing = [f for f in fields if f not in covered]
        if missing and verifiable:
            for field in missing:
                out.append(
                    Finding(
                        rule="transport-schema",
                        path=c["transport"],
                        line=decoder.lineno,
                        severity=Severity.ERROR,
                        message=(
                            f"{c['name']}.{field} is not supplied when "
                            f"{c['decoder']}() rebuilds {c['name']}: decoded "
                            "records silently take the field default"
                        ),
                        hint=_HINT,
                    )
                )
        elif missing:
            out.append(
                Finding(
                    rule="transport-schema",
                    path=c["transport"],
                    line=decoder.lineno,
                    severity=Severity.WARNING,
                    message=(
                        f"cannot statically verify that {c['decoder']}() "
                        f"supplies {c['name']} fields {missing}: the "
                        "constructor call uses a splat of unknown arity"
                    ),
                    hint="use an explicit-arity splat (x[a:b]) or keywords",
                )
            )
        return out

    def _check_info_keys(self, project: Project, c: dict) -> list[Finding]:
        out: list[Finding] = []
        producer = project.file(c["producer"])
        transport = project.file(c["transport"])
        produced = _dict_keys_of(producer.tree, c.get("producer_dict", "info"))
        if produced is None:
            return [self._broken(
                c, f"no dict literal {c.get('producer_dict', 'info')!r} "
                   f"found in {c['producer']}"
            )]
        const = _frozenset_const(transport.tree, c["keys_const"])
        if const is None:
            return [self._broken(
                c, f"key-set constant {c['keys_const']!r} not found in "
                   f"{c['transport']}"
            )]
        wire_keys, const_line = const
        wrapper_keys = set(c.get("wrapper_keys", ()))
        for key in sorted(produced - wire_keys):
            out.append(
                Finding(
                    rule="transport-schema",
                    path=c["transport"],
                    line=const_line,
                    severity=Severity.ERROR,
                    message=(
                        f"step-info key {key!r} produced by {c['producer']} "
                        f"is missing from {c['keys_const']}: the process "
                        "backend will reject every step info"
                    ),
                    hint=_HINT,
                )
            )
        encoder = _find_function(transport.tree, c["encoder"])
        decoder = _find_function(transport.tree, c["decoder"])
        for fn, verb in ((encoder, "read"), (decoder, "rebuilt")):
            if fn is None:
                continue
            if verb == "read":
                seen = _subscript_reads(fn, "info")
            else:
                seen = _dict_keys_of(fn, "info") or set()
            for key in sorted(wire_keys - seen - wrapper_keys
                              if verb == "rebuilt"
                              else wire_keys - seen):
                out.append(
                    Finding(
                        rule="transport-schema",
                        path=c["transport"],
                        line=fn.lineno,
                        severity=Severity.ERROR,
                        message=(
                            f"wire key {key!r} ({c['keys_const']}) is never "
                            f"{verb} in {fn.name}(): the codec and the key "
                            "set have drifted apart"
                        ),
                        hint=_HINT,
                    )
                )
        return out

    def _broken(self, c: dict, message: str) -> Finding:
        return Finding(
            rule="transport-schema",
            path=c.get("transport", "?"),
            line=1,
            severity=Severity.ERROR,
            message=f"transport contract is broken: {message}",
            hint="update the contract in the analysis policy",
        )
