"""``repro.nn`` has one autograd mechanism.

Differentiable computations are whole-module (or whole-network, or
whole-loss) graph nodes with hand-written backwards. The per-op graph
-- a Tensor with arithmetic operators -- lives only in the test suite
(``graph_oracle.py``), as the differential oracle.
"""

import ast
from pathlib import Path

import repro.nn

NN_DIR = Path(repro.nn.__file__).resolve().parent
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__matmul__", "__truediv__", "__rtruediv__",
             "__pow__", "__neg__", "__getitem__"}


def _defined_methods(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item.name, item.lineno
                elif isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name):
                            yield node.name, target.id, item.lineno


def test_no_operator_overloads_in_nn():
    found = [f"{path.name}:{line} {cls}.{name}"
             for path in sorted(NN_DIR.glob("*.py"))
             for cls, name, line in _defined_methods(path)
             if name in OPERATORS]
    assert found == []


def test_tensor_has_no_per_op_methods():
    for name in ("gather_rows", "log_softmax", "softmax", "reshape", "sum",
                 "concat", "stack"):
        assert not hasattr(repro.nn.Tensor, name), name
        assert not hasattr(repro.nn, name), name
