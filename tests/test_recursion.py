"""The functions in ``src/bes`` that call themselves, pinned by name.

Python's recursion limit turns every such function into a bound on the
input: a formula, chain or path nested past about a thousand levels raises
``RecursionError``.  This list names them, so a new recursive walker shows
up here, and a change that makes one iterative removes its line.
"""

import ast
from pathlib import Path

import bes

SRC = Path(bes.__file__).parent

RECURSIVE = [
    "core._gate_list.slot",
    "dag.PrunedBuilder.term",
    "gen._random_formula",
    "props._blocks",
]


def _calls_itself(func: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = node.func
            if not is_method and isinstance(callee, ast.Name) and callee.id == func.name:
                return True
            if (
                is_method
                and isinstance(callee, ast.Attribute)
                and callee.attr == func.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            ):
                return True
    return False


def _recursive_functions(path: Path) -> list[str]:
    found = []
    stack = [(ast.parse(path.read_text()), path.stem, False)]
    while stack:
        node, prefix, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if _calls_itself(child, in_class):
                    found.append(name)
                stack.append((child, name, False))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}.{child.name}", True))
            else:
                stack.append((child, prefix, in_class))
    return found


def test_recursive_functions_are_pinned():
    found = sorted(name for path in SRC.glob("*.py") for name in _recursive_functions(path))
    assert found == RECURSIVE


def test_the_scan_sees_each_kind_of_self_call(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def walk(f):\n    return walk(f.left)\n"
        "def outer(f):\n    def inner(g):\n        return inner(g)\n    return inner(f)\n"
        "class Builder:\n    def term(self, i):\n        return self.term(i - 1)\n"
        "    def other(self):\n        return term(1)\n"
        "def flat(xs):\n    return sorted(xs)\n"
    )
    found = sorted(_recursive_functions(path))
    assert found == ["sample.Builder.term", "sample.outer.inner", "sample.walk"]
