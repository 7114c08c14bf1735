"""Layout guard: ``src/`` holds one implementation per concern.

Per-node reference implementations are oracles, and oracles live in
``tests/oracles``.  The library defines no ``*_reference`` function and
never imports from the test tree, so no production path can branch
into an oracle.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _parsed_modules():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no modules under {SRC}"
    for path in paths:
        yield path.relative_to(SRC), ast.parse(path.read_text(), str(path))


def _is_tests_module(name):
    return name == "tests" or name.startswith("tests.")


def test_src_defines_no_reference_function():
    offenders = [
        f"{path}:{node.lineno} {node.name}"
        for path, tree in _parsed_modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith("_reference")
    ]
    assert offenders == []


def test_src_never_imports_tests():
    offenders = []
    for path, tree in _parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders.extend(f"{path}:{node.lineno} {name}"
                             for name in names if _is_tests_module(name))
    assert offenders == []
