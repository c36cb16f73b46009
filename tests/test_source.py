"""Source hygiene: no module imports a name it never uses, and the package
``__init__`` re-exports nothing."""

import ast
from pathlib import Path

import pytest

import driftlab

MODULES = sorted(Path(driftlab.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detector_flags_only_unread_names():
    src = "import math\nimport os.path\nfrom typing import Optional, Sequence\nx: Optional[int] = math.pi\n"
    assert unused_imports(src) == ["Sequence (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def bound_names(source: str) -> list[str]:
    """Names a module's top level binds, docstring aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            names.append(type(node).__name__)
    return names


def test_bound_names_sees_imports_definitions_and_statements():
    src = '"""doc"""\nimport a.b\nfrom c import d as e\nx = y = 1\ndef f(): pass\nif x: pass\n'
    assert bound_names(src) == ["a", "e", "x", "y", "f", "If"]


def test_package_init_binds_only_the_version():
    init = Path(driftlab.__file__).resolve()
    assert bound_names(init.read_text()) == ["__version__"]
