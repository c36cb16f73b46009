"""The config schema walker: keyword coverage, the two rules stricter than
JSON Schema, and a differential test against jsonschema as the reference."""
import copy
import json
import math
import random
import sys

import jsonschema
import pytest

import driftlab.cli as cli
from driftlab.cli import resolve_config_path, run_check
from driftlab.config import (
    CHECK_NAMES,
    ConfigError,
    SCHEMA,
    SCHEMA_KEYWORDS,
    _schema_errors,
    build_chain_config,
    load_config,
    validate_document,
)
from driftlab.verifiers import GridSpec
from test_config_cli import PRESET_NAMES, mv_run_doc, write_config


def subschemas(schema: dict):
    """``schema`` and every schema nested in it."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])
    for sub in schema.get("oneOf", []):
        yield from subschemas(sub)


def walker_errors(doc: dict) -> list[tuple[str, str]]:
    """(path, message) pairs in the order ``validate_document`` sorts them."""
    errors = sorted(_schema_errors(doc, SCHEMA), key=lambda e: e[0])
    return [(".".join(str(p) for p in path), message) for path, message in errors]


def reference_errors(validator, doc: dict) -> list[tuple[str, str]]:
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    return [(".".join(str(p) for p in e.absolute_path), e.message) for e in errors]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


REFERENCE = jsonschema.Draft202012Validator(SCHEMA)
# the reference with driftlab's two stricter rules: JSON integers only, finite numbers
STRICT_REFERENCE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many({
        "integer": lambda _, v: isinstance(v, int) and not isinstance(v, bool),
        "number": lambda _, v: _is_number(v) and abs(v) <= sys.float_info.max,
    }),
)(SCHEMA)


# ---------------------------------------------------------------------------
# keyword coverage


def test_walker_implements_exactly_the_keywords_the_schema_uses():
    used = set()
    for schema in subschemas(SCHEMA):
        used |= set(schema)
        assert schema.get("additionalProperties", False) is False
    assert used == SCHEMA_KEYWORDS


@pytest.mark.parametrize(
    "schema",
    [{"pattern": "^a"}, {"additionalProperties": {"type": "number"}}, {"type": "object", "const": 1}],
)
def test_walker_raises_on_a_keyword_it_does_not_implement(schema):
    with pytest.raises(NotImplementedError):
        list(_schema_errors({}, schema))


def test_walker_messages_keep_the_reference_wording():
    doc = {"run": {"kind": "toy", "horizon": 0, "seed": 1, "a": 1, "b": 2}, "verify": {}}
    assert walker_errors(doc) == [
        ("run", "Additional properties are not allowed ('a', 'b' were unexpected)"),
        ("run.horizon", "0 is less than the minimum of 1"),
        ("verify", "'checks' is a required property"),
    ]
    assert walker_errors({"output": {"directory": ""}}) == [("output.directory", "'' should be non-empty")]
    assert walker_errors({"run": {"kind": "toy", "horizon": 1, "seed": 0, "theta0": "x"}}) == [
        ("run.theta0", "'x' is not valid under any of the given schemas"),
    ]


def test_one_of_matches_the_reference_on_overlapping_branches():
    # the config's own oneOf branches differ in type, so none of its
    # documents is valid under two of them
    schema = {"oneOf": [{"type": "number", "minimum": 0}, {"type": "number", "maximum": 1}]}
    reference = jsonschema.Draft202012Validator(schema)
    for value in (-1, 0.5, 2, "x"):
        expected = [((), e.message) for e in reference.iter_errors(value)]
        assert list(_schema_errors(value, schema)) == expected


# ---------------------------------------------------------------------------
# integer keys take JSON integers only


def preset(name: str) -> dict:
    return json.loads(resolve_config_path(name).read_text())


@pytest.mark.parametrize(
    "name, section, key, value",
    [
        ("toy", "run", "horizon", 200.0),
        ("toy", "run", "record_stride", 2.0),
        ("toy", "run", "replicas", 2.0),
        ("toy", "run", "seed", 3.0),
        ("coerced", "verify", "seed", 3.0),
        ("coerced", "verify", "mc_n", 2000.0),
    ],
)
def test_integer_key_rejects_an_integral_float(tmp_path, name, section, key, value):
    # each of these loaded, then `run` died with a TypeError or ValueError
    doc = preset(name)
    doc[section][key] = value
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.json_path == f"{section}.{key}"
    assert str(exc.value).endswith(f"{value!r} is not of type 'integer'")
    assert REFERENCE.is_valid(doc)


def test_target_dim_rejects_an_integral_float():
    doc = preset("am-gaussian-1d")
    doc["target"]["params"]["dim"] = 1.0
    with pytest.raises(ConfigError) as exc:
        validate_document(doc)
    assert exc.value.json_path == "target.params.dim"
    assert "is not of type 'integer'" in str(exc.value)


# ---------------------------------------------------------------------------
# numbers are finite


@pytest.mark.parametrize(
    "name, where, literal, expected_path",
    [
        ("coerced", ("verify", "center_radius"), "Infinity", "verify.center_radius"),
        ("coerced", ("run", "recurrence", "r"), "Infinity", "run.recurrence.r"),
        ("coerced", ("run", "theta0"), "NaN", "run.theta0"),
        ("coerced", ("verify", "x_grid", 2), "NaN", "verify.x_grid.2"),
        ("coerced", ("verify", "x_grid", 2), "-Infinity", "verify.x_grid.2"),
        ("am-gaussian-1d", ("run", "theta0", "cov", 0, 0), "NaN", "run.theta0"),
        ("am-gaussian-1d", ("run", "theta0", "cov", 0, 0), "Infinity", "run.theta0"),
        # an integer literal beyond the float range: float() raised OverflowError
        pytest.param("coerced", ("run", "theta0"), "1" + "0" * 400, "run.theta0", id="huge-int-theta0"),
        pytest.param(
            "coerced", ("verify", "center_radius"), "1" + "0" * 400, "verify.center_radius",
            id="huge-int-center_radius",
        ),
    ],
)
def test_non_finite_number_rejected(tmp_path, name, where, literal, expected_path):
    # json.load reads these literals; they passed every bound check, so an
    # infinite center radius printed PASS and a NaN theta0 ran to divergence
    doc = preset(name)
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = "@@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace('"@@"', literal))
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.json_path == expected_path
    assert REFERENCE.is_valid(json.loads(path.read_text()))


# ---------------------------------------------------------------------------
# differential test: a seeded mutation corpus against the reference

CORPUS_SIZE = 3000

# values a mutation writes: every JSON type, bounds and their neighbours,
# integral floats, the non-finite floats json.load accepts and an integer
# beyond the float range
VALUES = [
    None, True, False, 0, 1, 2, -1, 999, 1000, 0.0, 0.5, 1.0, 2.0, -0.5, 0.44, 1e300, 200.0,
    math.nan, math.inf, -math.inf, 10**400, "", "x", "toy", "srwm", "am", "coerced", "gaussian",
    "monte_carlo", "quadrature", "compound_drift", "csv", [], [1.0], [0.0, "x"], [[1.0]],
    [[1.0, 0.0], [0.0, 1.0]], ["toy"], {}, {"mu": [0.0], "cov": [[1.0]]},
    {"mu": [0.0], "cov": [[math.nan]]}, {"m": 2.0, "r": 1.0},
]


def schema_names(schema: dict) -> list[str]:
    return sorted({name for sub in subschemas(schema) for name in sub.get("properties", {})})


NAMES = schema_names(SCHEMA) + ["bogus", "a"]


def locations(node, path=()):
    """Every (path, container) pair below ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,), node
            yield from locations(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield path + (i,), node
            yield from locations(value, path + (i,))


def mutate(doc: dict, rng: random.Random) -> dict:
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        spots = list(locations(doc))
        op = rng.choice(("replace", "replace", "delete", "add"))
        if op == "add" or not spots:
            dicts = [doc] + [c[p[-1]] for p, c in spots if isinstance(c[p[-1]], dict)]
            rng.choice(dicts)[rng.choice(NAMES)] = copy.deepcopy(rng.choice(VALUES))
            continue
        path, container = rng.choice(spots)
        if op == "delete":
            del container[path[-1]]
        else:
            container[path[-1]] = copy.deepcopy(rng.choice(VALUES))
    return doc


def corpus_bases() -> list[dict]:
    return [preset(name) for name in PRESET_NAMES] + [mv_run_doc("am"), mv_run_doc("coerced")]


def test_walker_matches_the_reference_on_a_mutation_corpus():
    rng = random.Random(20241018)
    bases = corpus_bases()
    tally = {"valid": 0, "invalid": 0, "stricter": 0}
    for n in range(CORPUS_SIZE):
        doc = mutate(bases[n % len(bases)], rng)
        walker = walker_errors(doc)
        strict = reference_errors(STRICT_REFERENCE, doc)
        assert walker[:1] == strict[:1], doc
        plain = reference_errors(REFERENCE, doc)
        if plain == strict:
            assert walker == plain, doc
            tally["invalid" if plain else "valid"] += 1
        else:
            # an integral float at an integer key or a non-finite number
            assert strict, doc
            tally["stricter"] += 1
    # the corpus reaches every verdict often enough to mean something
    assert min(tally.values()) >= CORPUS_SIZE // 50, tally


def test_every_accepted_mutant_builds(monkeypatch):
    # validate_document builds what `run` builds, so a document it accepts
    # cannot fail in a builder, or on an empty theta grid, after the
    # simulation has written its artifacts; the checks themselves are
    # replaced by stubs that keep their grids
    grids = []
    for name in ["verify_" + check for check in CHECK_NAMES]:
        monkeypatch.setattr(cli, name, lambda *args, **kw: grids.extend(a for a in args if isinstance(a, GridSpec)))
    rng = random.Random(20241018)
    bases = corpus_bases()
    accepted = built_checks = 0
    for n in range(CORPUS_SIZE):
        doc = mutate(bases[n % len(bases)], rng)
        try:
            validate_document(doc)
        except ConfigError:
            continue
        accepted += 1
        if "run" in doc:
            build_chain_config(doc)
        for check in doc.get("verify", {}).get("checks", ()):
            run_check(check, doc)
            built_checks += 1
    assert all(grid.theta_grid for grid in grids)
    # enough documents load, and enough of them list checks, to mean something
    assert accepted >= CORPUS_SIZE // 20 and built_checks >= CORPUS_SIZE // 50, (accepted, built_checks)
