"""Source hygiene: no module imports a name it never uses, the package
``__init__`` re-exports nothing, ``cli`` builds through two config
builders only, every JSON path a ``ConfigError`` names is a key path of
the config schema, one function forks, and three classes are dataclasses."""

import ast
from pathlib import Path

import pytest

import driftlab
from driftlab.config import SCHEMA

PACKAGE = Path(driftlab.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


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


def config_builders(source: str) -> list[str]:
    """The ``build_*`` names a module imports from the package's ``config``."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "config"
        for alias in node.names
        if alias.name.startswith("build_")
    ]


def test_builder_detector_reads_relative_config_imports():
    src = "from .config import ConfigError, build_grid\nfrom config import build_rule\n" \
          "from .verifiers import build_x\nfrom .config import (\n    build_check_args,\n)\n"
    assert config_builders(src) == ["build_grid", "build_check_args"]


def test_cli_builds_each_check_through_one_builder():
    # a second builder call in cli would be a second copy of what
    # validate_document builds at load
    builders = config_builders((PACKAGE / "cli.py").read_text())
    assert set(builders) <= {"build_chain_config", "build_check_args"}, builders


def config_error_paths(source: str) -> list[tuple[str, int]]:
    """(path, line) of each string literal passed as a ``ConfigError``'s
    JSON path, the second positional argument or ``json_path=``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "ConfigError":
            for arg in node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "json_path"]:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    found.append((arg.value, arg.lineno))
    return found


def schema_key_paths(schema: dict, prefix: str = "") -> set[str]:
    """Dotted paths of every key the schema's objects declare."""
    paths = set()
    for name, sub in schema.get("properties", {}).items():
        paths |= {prefix + name} | schema_key_paths(sub, prefix + name + ".")
    return paths


def test_path_detectors_read_literals_and_declared_keys():
    src = 'ConfigError("m", "run.seed")\nConfigError("m")\nConfigError("m", json_path="verify")\n' \
          'ConfigError("m", path)\nValueError("m", "x")\n'
    assert config_error_paths(src) == [("run.seed", 1), ("verify", 3)]
    schema = {"properties": {"a": {"properties": {"b": {"type": "number"}}}, "c": {"items": {}}}}
    assert schema_key_paths(schema) == {"a", "a.b", "c"}


@pytest.mark.parametrize("name", ["config.py", "cli.py"])
def test_config_errors_name_schema_keys(name):
    known = schema_key_paths(SCHEMA)
    unknown = [f"{path} (line {line})" for path, line in config_error_paths((PACKAGE / name).read_text())
               if path not in known]
    assert unknown == []


def fork_sites(source: str) -> list[str]:
    """The functions that name ``os.fork`` (``<module>`` at top level), one
    entry per mention; ``from os import fork`` counts as a mention too."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr == "fork" and \
                isinstance(node.value, ast.Name) and node.value.id == "os":
            sites.append(where)
        if isinstance(node, ast.ImportFrom) and node.module == "os" and any(a.name == "fork" for a in node.names):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_fork_detector_names_the_enclosing_function():
    src = "import os\nfrom os import fork\ndef f():\n    def g():\n        return os.fork()\n    os.getpid()\n"
    assert fork_sites(src) == ["<module>", "g"]


def test_one_function_forks():
    # every worker process starts in simulator._fork_map, which reaps it
    sites = [f"{path.stem}.{site}" for path in MODULES for site in fork_sites(path.read_text())]
    assert sites == ["simulator._fork_map"]


def dataclass_names(source: str) -> list[str]:
    """The classes a module decorates with ``dataclass``, bare, called or
    as ``dataclasses.dataclass``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name == "dataclass":
                    found.append(node.name)
    return found


def test_dataclass_detector_reads_every_spelling():
    src = "import dataclasses\nfrom dataclasses import dataclass\n@dataclass\nclass A: pass\n" \
          "@dataclass(frozen=True)\nclass B: pass\n@dataclasses.dataclass(frozen=True)\nclass C: pass\n" \
          "@staticmethod\nclass D: pass\nclass E(tuple): pass\n"
    assert dataclass_names(src) == ["A", "B", "C"]


def test_three_classes_are_dataclasses():
    # building a dataclass costs about 1.3 ms of every start-up, against
    # 0.2 ms for a NamedTuple and 0.02 ms for a class with __slots__; a class
    # stays a dataclass only where something needs the dataclasses API
    found = sorted(f"{path.stem}.{name}" for path in MODULES for name in dataclass_names(path.read_text()))
    assert found == [
        "config.ChainConfig",  # tests derive variants of a config with dataclasses.replace
        "simulator.Trajectory",  # bench/spans.py reads its arrays through dataclasses.fields
        "targets.TargetModel",  # bench/spans.py copies it with dataclasses.replace
    ]
