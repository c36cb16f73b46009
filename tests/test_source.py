"""Source hygiene: no module imports a name it never uses, the package
``__init__`` re-exports nothing, ``cli`` builds through two config
builders only, every JSON path a ``ConfigError`` names is a key path of
the config schema, one function forks, one freezes the heap, the drift
certificates have one headroom rule and one slack rule and write no
tolerance inline, each document default is written once,
the weight variants are named only where weights are built and evaluated,
two classes are dataclasses, source code names every top-level function
and class and every method, no srwm step loop calls a generator, and the
verifiers draw from ``streams.substream``.

One rule covers the module ``__getattr__`` of ``cli`` (PEP 562): the
interpreter calls it, and it looks up ``verify_<check>`` by name for each
check of ``config.CHECK_NAMES``, so that hook and exactly those functions
count as reached although no code names them."""

import ast
from pathlib import Path

import pytest

import driftlab
from driftlab.config import CHECK_NAMES, SCHEMA

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


def attribute_sites(source: str, module: str, attr: str) -> list[str]:
    """The functions that name ``module.attr`` (``<module>`` at top level),
    one entry per mention; ``from module import attr`` counts as a mention
    too."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr == attr and \
                isinstance(node.value, ast.Name) and node.value.id == module:
            sites.append(where)
        if isinstance(node, ast.ImportFrom) and node.module == module and any(a.name == attr for a in node.names):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_fork_detector_names_the_enclosing_function():
    src = "import os\nfrom os import fork\ndef f():\n    def g():\n        return os.fork()\n    os.getpid()\n"
    assert attribute_sites(src, "os", "fork") == ["<module>", "g"]


def test_one_function_forks():
    # every worker process starts in simulator._fork_map, which reaps it
    sites = [f"{path.stem}.{site}" for path in MODULES for site in attribute_sites(path.read_text(), "os", "fork")]
    assert sites == ["simulator._fork_map"]


def test_one_function_freezes_the_heap():
    # cli.main registers gc.freeze to run at exit; a freeze anywhere else
    # would pin garbage in an in-process caller or in a forked worker
    sites = {f"{path.stem}.{site}" for path in MODULES for site in attribute_sites(path.read_text(), "gc", "freeze")}
    assert sites == {"cli.main"}


def name_sites(source: str, name: str) -> list[str]:
    """The functions that name the bare ``name`` (``<module>`` at top
    level), one entry per mention; importing it counts as a mention too."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Name) and node.id == name:
            sites.append(where)
        if isinstance(node, ast.ImportFrom) and any((a.asname or a.name) == name for a in node.names):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_name_detector_sees_reads_bindings_and_imports():
    src = "from k import TOL\nH = 1\ndef f(x=TOL):\n    def g():\n        return H * x\n    return k.H\n"
    assert name_sites(src, "TOL") == ["<module>", "f"]
    assert name_sites(src, "H") == ["<module>", "g"]


def test_drift_certificates_have_one_headroom_rule_and_one_slack_rule():
    # every fitted constant is frozen by verifiers._freeze, and every margin
    # is measured against verifiers._slack, which _row_passes calls: a
    # constant bumped elsewhere, or a slack added where another is
    # subtracted, names these constants outside those two functions
    source = (PACKAGE / "verifiers.py").read_text()
    assert set(name_sites(source, "HEADROOM")) == {"<module>", "_freeze"}
    assert set(name_sites(source, "_FREEZE_STEP")) == {"<module>", "_freeze"}
    assert set(name_sites(source, "MC_SE_FACTOR")) == {"<module>", "_slack"}
    # QUAD_TOL is also the tolerance of the kernel integrals and of the
    # scalar w_drift integral, not a slack
    assert set(name_sites(source, "QUAD_TOL")) == {"<module>", "_slack", "_acceptance_mass", "apply_kernel_to_function",
                                                    "_w_drift_lhs_quadrature"}


def float_sites(source: str, value: float, kinds: tuple = (float,)) -> list[str]:
    """The dotted class and function path around each float literal equal to
    ``value`` (``<module>`` at top level), one entry per literal; a default
    argument belongs to its function.  ``kinds`` are the literal types
    read: ``(int, float)`` reads ints as well."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        if isinstance(node, ast.Constant) and type(node.value) in kinds and node.value == value:
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_float_detector_sees_defaults_bodies_and_the_module():
    src = "A = 0.05\nclass C:\n    def f(self, g=0.05):\n        return 0.050 + 0.5 + 5e-2\n" \
          "def h():\n    return '0.05'\n"
    assert float_sites(src, 0.05) == ["<module>", "C.f", "C.f", "C.f"]
    src = "A = 700.0\ndef f(t):\n    return t < 700 or -t > 7e2 or t > -350.0 or '700'\n"
    assert float_sites(src, 700.0) == ["<module>", "f"]
    assert float_sites(src, 700.0, (int, float)) == ["<module>", "f", "f"]
    assert float_sites(src, 350.0) == ["f"]


def test_the_overflow_cut_off_is_written_once():
    # e**a is inf from a = kernels.EXP_CUTOFF on, in the proposal scale, V,
    # the weights, the drift rates, the kernel integrals and the load-time
    # bound on |theta|; a second literal of it, or of the half that
    # e**(-2 theta) would take, could drift from it
    found = [f"{path.stem}.{site}" for path in MODULES for value in (700.0, 350.0)
             for site in float_sites(path.read_text(), value, (int, float))]
    assert found == ["kernels.<module>"]


@pytest.mark.parametrize("value", [1.25, 1e-9, 1e-12, 1e-14, 1e-15])
def test_verifiers_write_no_tolerance_inline(value):
    # a check's factors, slacks and tolerances are named module constants,
    # next to QUAD_TOL, MC_SE_FACTOR and HEADROOM; a literal in a function
    # would be a side condition or slack that no reader of the module sees
    assert set(float_sites((PACKAGE / "verifiers.py").read_text(), value)) <= {"<module>"}


def defaults_written(source: str, names: tuple, key: str) -> list[tuple[str, str]]:
    """(site, default) of each default written for a document key: the
    default of a parameter or class field named in ``names`` (a bare name
    anywhere, ``Record.field`` in that class only; a None default marks an
    unset value and is no default), or the fallback of a ``.get(key,
    ...)``, with the default as ``ast.unparse`` gives it."""
    found = []

    def named(where, name):
        return name in names or f"{where}.{name}" in names

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args
            positional = zip(args[len(args) - len(node.args.defaults):], node.args.defaults)
            keyword = zip(node.args.kwonlyargs, node.args.kw_defaults)
            found.extend((where, ast.unparse(d)) for a, d in [*positional, *keyword]
                         if d is not None and named(where, a.arg) and ast.unparse(d) != "None")
        if isinstance(node, ast.ClassDef):
            found.extend((where, ast.unparse(item.value)) for item in node.body
                         if isinstance(item, ast.AnnAssign) and item.value is not None
                         and isinstance(item.target, ast.Name) and named(where, item.target.id))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get" \
                and len(node.args) == 2 and isinstance(node.args[0], ast.Constant) and node.args[0].value == key:
            found.append((where, ast.unparse(node.args[1])))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_exponent_detector_sees_parameters_fields_and_lookups():
    src = "class P:\n    eps: float = 0.5\n    def f(self, a, eps=E, *, w_eps=0.5, z=1, seed=None):\n" \
          "        return cfg.get('w_eps', E) + cfg.get('eps', 2)\nclass Q:\n    eps: float = 1.0\n    mode: str = 'W'\n"
    assert defaults_written(src, ("eps", "w_eps"), "w_eps") == [
        ("P", "0.5"), ("P.f", "E"), ("P.f", "0.5"), ("P.f", "E"), ("Q", "1.0")]
    assert defaults_written(src, ("P.eps", "Q.mode", "seed"), "mode") == [("P", "0.5"), ("Q", "'W'")]


# Each document key with a default: the names that default may be written
# under and the sites that write it.  A builder passes a key only when the
# document sets it (config._given), so the default is written in the record
# it builds, or in the builder when the record has none; a second copy could
# drift from it.
WRITTEN_ONCE = {
    # the drift checks run at DriftCoefficients.gamma_max
    "lyapunov.gamma_max": (("gamma_max",), [("lyapunov.DriftCoefficients", "0.05")]),
    # the weight a run records and the weight a scenario's inequalities are
    # stated in take one default exponent, lyapunov.AM_POLY_EPS
    "lyapunov.w_eps": (("w_eps", "eps"), [
        ("config.build_weight", "AM_POLY_EPS"),
        ("lyapunov.ParamLyapunov", "AM_POLY_EPS"),
        ("lyapunov.DriftCoefficients", "AM_POLY_EPS"),
    ]),
    "lyapunov.upsilon_v": (("upsilon_v",), [("lyapunov.CompoundSpec", "1.0")]),
    "lyapunov.upsilon_w": (("upsilon_w",), [("lyapunov.CompoundSpec", "1.0")]),
    "lyapunov.compound_mode": (("compound_mode", "CompoundSpec.mode"), [("lyapunov.CompoundSpec", "'W'")]),
    # build_coefficients hands a drift scenario the proposal's ridge; a
    # coefficient record built without a proposal takes the same named
    # default, kernels.EPS_RIDGE
    "proposal.eps_ridge": (("eps_ridge",), [
        ("kernels.ProposalSpec.__init__", "EPS_RIDGE"),
        ("lyapunov.DriftCoefficients", "EPS_RIDGE"),
    ]),
    "proposal.student_dof": (("student_dof",), [("kernels.ProposalSpec.__init__", "4.0")]),
    "schedule.c0": (("c0",), [("config.build_schedule", "1.0")]),
    "schedule.c1": (("c1",), [("adaptation.PolynomialSchedule", "0.0")]),
    "schedule.a": (("a",), [("adaptation.PolynomialSchedule", "1.0"), ("adaptation.KestenSchedule", "0.6")]),
    "run.record_stride": (("record_stride",), [("config.ChainConfig", "1")]),
    # build_check_args hands every drift check its center radius
    "verify.center_radius": (("center_radius",), [("config.build_check_args", "5.0")]),
    # the checks that cannot run by quadrature are rejected where the method
    # is read
    "verify.method": (("method",), [
        ("config.GridSpec", "METHOD_QUADRATURE"),
        ("config._check_quadrature", "METHOD_QUADRATURE"),
        ("config._check_bulk_edges", "METHOD_QUADRATURE"),
    ]),
    "verify.mc_n": (("mc_n",), [("config.GridSpec", "10000")]),
    "verify.seed": (("seed",), [("config.GridSpec", "2024")]),
}

# defaults whose literal appears nowhere else in the package, so no other
# spelling of them (a bare literal in a verifier, say) can hide
DISTINCT_LITERALS = {"lyapunov.gamma_max": 0.05, "verify.center_radius": 5.0}


@pytest.mark.parametrize("key", sorted(WRITTEN_ONCE))
def test_each_document_default_is_written_once(key):
    names, sites = WRITTEN_ONCE[key]
    found = [(f"{path.stem}.{site}", default) for path in MODULES
             for site, default in defaults_written(path.read_text(), names, key.rsplit(".", 1)[1])]
    assert found == sites
    if key in DISTINCT_LITERALS:
        literal = [f"{path.stem}.{site}" for path in MODULES
                   for site in float_sites(path.read_text(), DISTINCT_LITERALS[key])]
        assert literal == [site for site, _ in sites]


def test_no_stepsize_grid_is_left():
    # the deleted verify.gamma_grid had two default stepsizes of its own
    for path in MODULES + sorted((PACKAGE / "presets").glob("*.json")):
        assert "gamma_grid" not in path.read_text(), path.name


def test_the_am_poly_exponent_is_assigned_once():
    assigned = [path.stem for path in MODULES for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "AM_POLY_EPS" for t in node.targets)]
    assert assigned == ["lyapunov"]


@pytest.mark.parametrize("name", ["W_AM_POLY", "W_EXP_ABS", "W_ONE_PLUS_SQUARE"])
def test_weight_variants_are_named_only_where_weights_are_built_and_evaluated(name):
    # lyapunov.ParamLyapunov evaluates every form of every weight, and config
    # picks the run's; a module that branches on a variant holds a copy of
    # a weight's arithmetic
    assert {path.stem for path in MODULES if name_sites(path.read_text(), name)} == {"config", "lyapunov"}


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


def test_two_classes_are_dataclasses():
    # building a dataclass costs about 1.3 ms of every start-up, against
    # 0.2 ms for a NamedTuple and 0.02 ms for a class with __slots__; a class
    # stays a dataclass only where something needs the dataclasses API
    found = sorted(f"{path.stem}.{name}" for path in MODULES for name in dataclass_names(path.read_text()))
    assert found == [
        "config.ChainConfig",  # tests derive variants of a config with dataclasses.replace
        "targets.TargetModel",  # bench/spans.py copies it with dataclasses.replace
    ]


def unreferenced(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function and class of ``sources``
    (module name -> source) that no code names outside its own body, as a
    ``Name``, an ``Attribute`` or an imported name; comments and strings do
    not count."""
    defined, named = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, top.name))
                owner = top.name
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != owner:
                    named.add(name)
    return sorted(f"{module}.{name}" for module, name in defined if name not in named)


def test_reference_detector_reads_names_attributes_and_imports():
    sources = {
        "a": "import b\nfrom c import used_by_import\ndef f():\n    return g() + b.by_attribute\n"
             "def g(): pass\ndef recursive():\n    return recursive()\nclass Unused: pass\n",
        "b": '"""named in a docstring: only_in_text"""\n# only_in_text()\ndef by_attribute(): pass\n'
             "def only_in_text(): pass\n",
        "c": "def used_by_import(): pass\n",
    }
    assert unreferenced(sources) == ["a.Unused", "a.f", "a.recursive", "b.only_in_text"]


def test_every_top_level_definition_is_named_by_source():
    # what no command and no other function reaches is deleted, and its
    # tests call the owner; two helpers stay, because each states a lemma
    # that an acceptance criterion tests
    kept = {
        "lyapunov.check_det_inequality",  # criterion 9: the determinant inequality
        "verifiers.deficit_loglog_slope",  # criterion 5: the drift deficit's log-log slope
    }
    # the interpreter calls cli.__getattr__, which looks up each check's
    # verifier by its name (the module docstring's rule)
    looked_up = {"cli.__getattr__"} | {f"verifiers.verify_{check}" for check in CHECK_NAMES}
    assert unreferenced({path.stem: path.read_text() for path in MODULES}) == sorted(kept | looked_up)


def unreferenced_methods(sources: dict[str, str]) -> list[str]:
    """``module.Class.method`` of each method, dunders aside, of a top-level
    class of ``sources`` that no code reads as an attribute outside the
    method's own body.  A bare name does not count: a method is reached
    through an instance or its class, and a local of the same name is no
    call of it."""
    defined, read = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            parts = [(top, None)]
            if isinstance(top, ast.ClassDef):
                parts = [(node, node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None)
                         for node in top.body] + [(node, None) for node in top.bases + top.decorator_list]
                defined += [(module, top.name, name) for _, name in parts
                            if name is not None and not (name.startswith("__") and name.endswith("__"))]
            for part, owner in parts:
                read |= {node.attr for node in ast.walk(part) if isinstance(node, ast.Attribute) and node.attr != owner}
    return sorted(f"{module}.{cls}.{name}" for module, cls, name in defined if name not in read)


def test_method_detector_reads_attributes_only():
    src = "class C:\n    def __init__(self):\n        self.helper()\n    def helper(self): pass\n" \
          "    def recursive(self):\n        return self.recursive()\n    def b(self): pass\n" \
          "    def by_name(self): pass\ndef f(c):\n    b = by_name\n    return c.used(b)\n" \
          "class D:\n    def used(self): pass\n"
    assert unreferenced_methods({"a": src}) == ["a.C.b", "a.C.by_name", "a.C.recursive"]


def test_every_method_is_named_by_source():
    # a method that only tests call is deleted with its tests, as a
    # top-level definition is
    assert unreferenced_methods({path.stem: path.read_text() for path in MODULES}) == []


GENERATOR_METHODS = {"random", "standard_normal", "standard_t", "chisquare"}


def step_loop_draws(source: str) -> dict[str, tuple[int, list[str]]]:
    """For each top-level function named ``*_blocks``: how many ``for``
    loops it nests in another ``for`` (its step loops), and the generator
    calls those loops make.  A call counts when it names a method of
    GENERATOR_METHODS, or a local name bound to an expression that reads
    one or that calls ``_unit_draws``."""
    found = {}
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.endswith("_blocks")):
            continue
        aliases = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and any(
                (isinstance(n, ast.Attribute) and n.attr in GENERATOR_METHODS)
                or (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_unit_draws")
                for n in ast.walk(node.value)
            ):
                aliases |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        inner = [loop for outer in ast.walk(fn) if isinstance(outer, ast.For)
                 for loop in ast.walk(outer) if isinstance(loop, ast.For) and loop is not outer]
        calls = []
        for loop in inner:
            for node in ast.walk(loop):
                if isinstance(node, ast.Call):
                    f = node.func
                    if isinstance(f, ast.Attribute) and f.attr in GENERATOR_METHODS:
                        calls.append(f.attr)
                    elif isinstance(f, ast.Name) and f.id in aliases:
                        calls.append(f.id)
        found[fn.name] = (len(inner), calls)
    return found


def test_step_loop_detector_sees_methods_and_their_aliases():
    src = "def a_blocks(rng, s):\n    draw = rng.standard_t\n    unit = _unit_draws(s, rng)\n" \
          "    for b in range(2):\n        u = rng.random(4).tolist()\n        for i in u:\n" \
          "            draw(3)\n            unit(1)\n            s[0].chisquare(2)\n            rng.integers(2)\n" \
          "def b_blocks(rng):\n    for b in range(2):\n        rng.random()\n" \
          "def other(rng):\n    for b in range(2):\n        for i in b:\n            rng.random()\n"
    assert step_loop_draws(src) == {"a_blocks": (1, ["draw", "unit", "chisquare"]), "b_blocks": (0, [])}


def test_no_srwm_step_loop_calls_a_generator():
    # each srwm loop draws a block's values with one sized call per split
    # stream and its step loop only reads them
    found = step_loop_draws((PACKAGE / "simulator.py").read_text())
    assert sorted(found) == ["_generic_blocks", "_line_blocks"]
    assert all(loops == 1 for loops, _ in found.values())
    assert {name: calls for name, (_, calls) in found.items() if calls} == {}


def test_verifiers_draw_from_substreams():
    # the Monte Carlo checks keep one streams.substream per grid point,
    # whatever layout the simulator's split streams take
    tree = ast.parse((PACKAGE / "verifiers.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "streams"]
    assert [[a.name for a in node.names] for node in imports] == [["substream"]]
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "substream"]
    assert calls
