"""Experiment configuration: JSON schema, validation, object builders, and
the chain config (``ChainConfig``, chain kinds ``CHAIN_SRWM`` and
``CHAIN_TOY``) that ``build_chain_config`` returns and the simulator runs.
It also owns the verify grid (``GridSpec``, ``METHOD_QUADRATURE`` and
``METHOD_MONTE_CARLO``) and ``_jsonable``, the JSON encoding of every
summary and report, so that loading a config never loads ``verifiers``.

A config document has up to eight sections (target, proposal, adaptation,
schedule, lyapunov, run, verify, output).  Each rule has one owner, and
``validate_document`` runs them all at load, each error naming its JSON path:

* ``SCHEMA`` owns the rules about one key: types, enums, bounds, required
  and unknown keys.  ``_schema_errors`` walks it, so loading needs no schema
  library, and no constructor repeats these rules.
* ``_check_rule_fit`` and ``_check_quadrature`` tie the adaptation rule and
  the verify method to the other sections.
* The builders, and the constructors they call, own what needs a built
  object: target parameters, the proposal against target and rule (and a
  ridge whose scaled value overflows), the first AM stepsize, a stepsize
  that rounds to 0 within the horizon, ``run.theta0`` and ``run.x0``, the
  scenario's exponents and ``gamma_max``, and (``build_check_args``, at
  load and in ``cli.run_check``) what each check needs, which no verifier
  re-checks.
  Every document is built at load, so one that loads builds.
"""
from __future__ import annotations

import dataclasses
import json
import math
import operator
import sys
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .adaptation import (
    RULE_AM,
    RULE_COERCED,
    RULE_FAST_COERCED,
    RULE_FIXED,
    RULE_TOY_MEAN,
    RULES,
    AdaptationRule,
    ConstantSchedule,
    KestenSchedule,
    PolynomialSchedule,
    Schedule,
    gamma_at,
)
from .kernels import (
    EXP_CUTOFF,
    FAMILY_STUDENT,
    FAMILY_UNIFORM,
    PARAM_AM_COVARIANCE,
    PARAM_SCALAR_LOG_SCALE,
    RW_SCALE,
    AMParam,
    ProposalSpec,
    proposal_covariance,
)
from .lyapunov import (
    AM_POLY_EPS,
    SCENARIO_AM_SUBEXP_1D,
    SCENARIO_AM_SUPEREXP,
    SCENARIO_COERCED,
    SCENARIO_FAST_COERCED,
    SCENARIOS,
    CompoundSpec,
    DriftCoefficients,
    ParamLyapunov,
    StateLyapunov,
    W_AM_POLY,
    W_EXP_ABS,
    W_ONE_PLUS_SQUARE,
    W_VARIANTS,
    scenario_coefficients,
)
from .targets import (
    BULK_ALPHA_MIN,
    BUILTIN_TARGETS,
    LEVEL_SEARCH_DOUBLINGS,
    TailKind,
    TargetModel,
    make_target,
)

CHAIN_SRWM = "srwm"
CHAIN_TOY = "toy"


# Stays a dataclass: tests derive variants of a config with dataclasses.replace.
@dataclasses.dataclass(frozen=True)
class ChainConfig:
    """Everything needed to reproduce one adaptive run."""

    kind: str
    rule: AdaptationRule
    schedule: Schedule
    theta0: float | AMParam
    x0: float | int | np.ndarray
    horizon: int
    seed: int
    recurrence_m: float
    recurrence_r: float
    target: Optional[object] = None
    proposal: Optional[ProposalSpec] = None
    record_stride: int = 1
    state_lyapunov: Optional[StateLyapunov] = None
    param_weight: ParamLyapunov = ParamLyapunov(W_ONE_PLUS_SQUARE)
    compound: CompoundSpec = CompoundSpec()

    def __post_init__(self):
        if self.kind == CHAIN_TOY:
            if self.rule.kind != RULE_TOY_MEAN:
                raise ValueError("toy chain requires the toy_mean rule")
            if self.x0 not in (0, 1):
                raise ValueError("toy chain state must start in {0, 1}")
        else:
            if self.rule.kind == RULE_TOY_MEAN:
                raise ValueError("toy_mean rule requires the toy chain")
            if self.rule.kind == RULE_AM:
                if not isinstance(self.theta0, AMParam):
                    raise ValueError("am rule requires an AMParam initial parameter")
                if self.proposal.parametrization != PARAM_AM_COVARIANCE:
                    raise ValueError("am rule requires the covariance parametrization")
                if self.theta0.mu.shape[0] != self.target.dim:
                    raise ValueError("am initial parameter must have the target's dimension")
            else:
                if isinstance(self.theta0, AMParam):
                    raise ValueError("scalar rules require a scalar initial parameter")
                if self.proposal.parametrization != PARAM_SCALAR_LOG_SCALE:
                    raise ValueError("scalar rules require the scalar log-scale parametrization")


CHECK_NAMES = (
    "toy",
    "fixed_theta_drift",
    "w_drift",
    "compound_drift",
    "acceptance_bounds",
    "decomposition",
)

METHOD_QUADRATURE = "quadrature"
METHOD_MONTE_CARLO = "monte_carlo"


class GridSpec(NamedTuple):
    """Evaluation grid plus estimation method for one verifier run."""

    x_grid: tuple
    theta_grid: tuple = ()
    method: str = METHOD_QUADRATURE
    mc_n: int = 10_000
    seed: int = 2024


def _jsonable(v):
    """``v`` as JSON values: non-finite floats as the strings "nan", "inf"
    and "-inf", numpy scalars and arrays as numbers and lists, anything
    else as its repr; the encoding of every summary and report."""
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if math.isfinite(f) else repr(f)
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_jsonable(u) for u in np.asarray(v).tolist()] if isinstance(v, np.ndarray) else [
            _jsonable(u) for u in v
        ]
    if isinstance(v, dict):
        return {k: _jsonable(u) for k, u in v.items()}
    if isinstance(v, (np.integer,)):
        return int(v)
    return repr(v)


class ConfigError(ValueError):
    """Invalid configuration; ``json_path`` points at the offending field."""

    def __init__(self, message: str, json_path: str = ""):
        super().__init__(message)
        self.json_path = json_path

    def __str__(self):
        base = super().__str__()
        return f"{self.json_path}: {base}" if self.json_path else base


_AM_PARAM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "mu": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "cov": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            "minItems": 1,
        },
    },
    "required": ["mu", "cov"],
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "target": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"type": "string", "enum": sorted(BUILTIN_TARGETS)},
                "params": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "dim": {"type": "integer", "minimum": 1},
                        "mean": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                        "cov": {
                            "type": "array",
                            "items": {"type": "array", "items": {"type": "number"}},
                            "minItems": 1,
                        },
                        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 2},
                        "var_right": {"type": "number", "exclusiveMinimum": 0},
                        "var_left": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
            },
        },
        "proposal": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family", "parametrization"],
            "properties": {
                "family": {"type": "string", "enum": ["gaussian", "student", "uniform"]},
                "parametrization": {
                    "type": "string",
                    "enum": [PARAM_AM_COVARIANCE, PARAM_SCALAR_LOG_SCALE],
                },
                "eps_ridge": {"type": "number", "exclusiveMinimum": 0},
                "student_dof": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "adaptation": {
            "type": "object",
            "additionalProperties": False,
            "required": ["rule"],
            "properties": {
                "rule": {"type": "string", "enum": sorted(RULES)},
                "alpha_star": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5},
            },
        },
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"type": "string", "enum": ["polynomial", "constant", "kesten"]},
                "c0": {"type": "number", "exclusiveMinimum": 0},
                "c1": {"type": "number", "minimum": 0},
                "a": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "gamma0": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
        },
        "lyapunov": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "eta": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "scenario": {"type": "string", "enum": sorted(SCENARIOS)},
                "iota": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "beta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "upsilon_v": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "upsilon_w": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "compound_mode": {"type": "string", "enum": ["W", "U"]},
                "weight": {"type": "string", "enum": sorted(W_VARIANTS)},
                "w_eps": {"type": "number", "exclusiveMinimum": 0},
                "gamma_max": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "run": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "horizon", "seed"],
            "properties": {
                "kind": {"type": "string", "enum": [CHAIN_SRWM, CHAIN_TOY]},
                "horizon": {"type": "integer", "minimum": 1},
                "replicas": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "theta0": {
                    "oneOf": [{"type": "number"}, _AM_PARAM_SCHEMA],
                },
                "x0": {
                    "oneOf": [
                        {"type": "number"},
                        {"type": "array", "items": {"type": "number"}, "minItems": 1},
                    ],
                },
                "recurrence": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["m", "r"],
                    "properties": {
                        "m": {"type": "number", "minimum": 1},
                        "r": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "record_stride": {"type": "integer", "minimum": 1},
            },
        },
        "verify": {
            "type": "object",
            "additionalProperties": False,
            "required": ["checks"],
            "properties": {
                "checks": {
                    "type": "array",
                    "items": {"type": "string", "enum": sorted(CHECK_NAMES)},
                    "minItems": 1,
                },
                "x_grid": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "tail_x_grid": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "theta_grid": {
                    "type": "array",
                    "items": {"oneOf": [{"type": "number"}, _AM_PARAM_SCHEMA]},
                    "minItems": 1,
                },
                "sigma_grid": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
                "toy_theta_grid": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "method": {
                    "type": "string",
                    "enum": [METHOD_QUADRATURE, METHOD_MONTE_CARLO],
                },
                "mc_n": {"type": "integer", "minimum": 1000},
                "center_radius": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string", "minLength": 1},
                "formats": {
                    "type": "array",
                    "items": {"type": "string", "enum": ["csv", "json"]},
                    "minItems": 1,
                },
            },
        },
    },
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # JSON integers only: 2.0 would reach range() and numpy seeds as a float
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    # finite only: json.load accepts NaN and Infinity, which pass every bound,
    # and integers too large for a float, which float() cannot convert
    "number": lambda v: _is_number(v) and abs(v) <= sys.float_info.max,
}

_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}

SCHEMA_KEYWORDS = frozenset(
    ("$schema", "type", "enum", "minItems", "minLength", "items", "properties",
     "additionalProperties", "required", "oneOf", *_BOUNDS)
)


def _schema_errors(value, schema: dict, path: tuple = ()) -> Iterator[tuple[tuple, str]]:
    """Yield ``(path, message)`` for each way ``value`` breaks ``schema``.

    Keywords are checked in the schema's order with their JSON Schema
    2020-12 meaning and jsonschema's messages, except that ``integer``
    excludes integral floats and ``number`` excludes NaN, infinities and
    integers beyond the float range.
    ``additionalProperties`` must be ``false``; any keyword outside
    ``SCHEMA_KEYWORDS`` raises, so no part of a schema goes unchecked.
    """
    for key, rule in schema.items():
        if key == "type":
            if not _TYPES[rule](value):
                yield path, f"{value!r} is not of type {rule!r}"
        elif key == "enum":
            if value not in rule:
                yield path, f"{value!r} is not one of {rule!r}"
        elif key in _BOUNDS:
            fails, words = _BOUNDS[key]
            if _is_number(value) and fails(value, rule):
                yield path, f"{value!r} {words} {rule!r}"
        elif key in ("minItems", "minLength"):
            if isinstance(value, list if key == "minItems" else str) and len(value) < rule:
                yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _schema_errors(item, rule, path + (i,))
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in rule.items():
                    if name in value:
                        yield from _schema_errors(value[name], sub, path + (name,))
        elif key == "additionalProperties" and rule is False:
            if isinstance(value, dict):
                known = schema.get("properties", {})
                extras = sorted((name for name in value if name not in known), key=str)
                if extras:
                    names = ", ".join(repr(name) for name in extras)
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "required":
            if isinstance(value, dict):
                for name in rule:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
        elif key == "oneOf":
            valid = [sub for sub in rule if next(_schema_errors(value, sub), None) is None]
            if not valid:
                yield path, f"{value!r} is not valid under any of the given schemas"
            elif len(valid) > 1:
                subs = ", ".join(repr(sub) for sub in valid[1:] + valid[:1])
                yield path, f"{value!r} is valid under each of {subs}"
        elif key != "$schema":
            raise NotImplementedError(f"schema keyword {key}: {rule!r} is not implemented")


def validate_document(doc: dict) -> None:
    """Validate a parsed config; raise ConfigError naming the field.

    Schema errors are sorted by path and the first is raised.  Verdicts
    match JSON Schema 2020-12 except for two stricter rules: an ``integer``
    key takes a JSON integer only (``200.0`` is rejected), and a ``number``
    is finite (``NaN``, ``Infinity`` and ``-Infinity``, which ``json.load``
    accepts, and integers too large for a float are rejected).

    The weight, drift scenario, checks and grids must then fit the
    adaptation rule (see ``_check_rule_fit``).  ``compound_drift`` is a
    Monte Carlo check, so a document that asks for quadrature with it is
    rejected, and so is a quadrature ``fixed_theta_drift`` or ``w_drift``
    that the kernel integrals cannot run (see ``_check_quadrature``), or
    one on a power-tailed target too flat for them (``_check_bulk_edges``).
    Last, the document is built through the builders ``driftlab run`` calls:
    the chain config when there is a ``run`` section, and the inputs of each
    listed check (``build_check_args``).
    """
    errors = sorted(_schema_errors(doc, SCHEMA), key=lambda e: e[0])
    if errors:
        path, message = errors[0]
        raise ConfigError(message, ".".join(str(p) for p in path))
    verify = doc.get("verify", {})
    _check_rule_fit(doc)
    if verify.get("method") == METHOD_QUADRATURE and "compound_drift" in verify.get("checks", ()):
        raise ConfigError(
            "the compound_drift check is Monte Carlo only; set method to 'monte_carlo' or leave it out",
            "verify.method",
        )
    _check_quadrature(doc)
    _check_bulk_edges(doc)
    if "run" in doc:
        build_chain_config(doc)
    for check in verify.get("checks", ()):
        build_check_args(check, doc)


# The drift scenarios whose inequalities each rule's chain obeys, and the
# checks that have no update to step under a rule.
_RULE_SCENARIOS = {
    RULE_AM: (SCENARIO_AM_SUPEREXP, SCENARIO_AM_SUBEXP_1D),
    RULE_COERCED: (SCENARIO_COERCED,),
    RULE_FAST_COERCED: (SCENARIO_FAST_COERCED,),
    RULE_FIXED: (SCENARIO_COERCED, SCENARIO_FAST_COERCED),
    RULE_TOY_MEAN: (),
}
_RULE_NO_CHECKS = {RULE_FIXED: ("compound_drift",), RULE_TOY_MEAN: ("w_drift", "compound_drift")}


def _check_rule_fit(doc: dict) -> None:
    """Reject, each at its path, a parameter weight, drift scenario or check
    that does not fit the adaptation rule, a ``verify.theta_grid`` entry
    that is no parameter of the scenario (am scenarios take running moments
    {mu, cov}, the others a number with |theta| < ``kernels.EXP_CUTOFF``:
    from |theta| = EXP_CUTOFF on the ``exp_abs`` weight e**|theta| is inf,
    and so is the proposal scale e**theta, ``kernels.ScalarParam.sigma``,
    above it, while below about -745.13 it rounds to 0), and under the am
    rule a ``lyapunov.gamma_max`` above 1, which no running-moments step
    takes."""
    rule = doc.get("adaptation", {}).get("rule")
    variant = doc.get("lyapunov", {}).get("weight")
    scenario = doc.get("lyapunov", {}).get("scenario")
    verify = doc.get("verify", {})
    if rule is not None and variant is not None and (variant == W_AM_POLY) != (rule == RULE_AM):
        fits = "am_poly" if rule == RULE_AM else "exp_abs or one_plus_square"
        raise ConfigError(
            f"weight {variant!r} does not fit the {rule!r} rule's parameter; use {fits}",
            "lyapunov.weight",
        )
    if rule is not None and scenario is not None and scenario not in _RULE_SCENARIOS[rule]:
        fits = " or ".join(map(repr, _RULE_SCENARIOS[rule])) or "none"
        raise ConfigError(f"scenario {scenario!r} does not fit the {rule!r} rule; scenarios that do: {fits}",
                          "lyapunov.scenario")
    for check in verify.get("checks", ()):
        if check in _RULE_NO_CHECKS.get(rule, ()):
            raise ConfigError(f"the {check} check has no update to step under the {rule!r} rule", "verify.checks")
    if scenario is not None:
        moments = scenario in _RULE_SCENARIOS[RULE_AM]
        for i, entry in enumerate(verify.get("theta_grid", ())):
            if isinstance(entry, dict) != moments:
                wants = "running moments {mu, cov}" if moments else "a number"
                raise ConfigError(f"entry {i} is no {scenario!r} parameter, which is {wants}", "verify.theta_grid")
            if not moments and abs(entry) >= EXP_CUTOFF:
                raise ConfigError(f"theta = {entry!r} puts e**|theta| past the float range",
                                  f"verify.theta_grid.{i}")
    gamma_max = doc.get("lyapunov", {}).get("gamma_max")  # the default is below 1
    if rule == RULE_AM and gamma_max is not None and gamma_max > 1.0:
        raise ConfigError("a running-moments step needs stepsizes of at most 1", "lyapunov.gamma_max")


def _check_quadrature(doc: dict) -> None:
    """Reject, at ``verify.method``, a quadrature state or parameter drift
    check that the one-dimensional kernel integrals cannot run: Student
    increments (an unbounded heavy-tailed window), a target with dim > 1,
    or ``w_drift`` under a scalar rule with increments other than
    compact-uniform ones.  A document without a proposal is left to the
    proposal builder, which names the missing section."""
    verify = doc.get("verify", {})
    checks = {"fixed_theta_drift", "w_drift"}.intersection(verify.get("checks", ()))
    if verify.get("method", METHOD_QUADRATURE) != METHOD_QUADRATURE or not checks or "proposal" not in doc:
        return
    family = doc["proposal"].get("family")
    dim = doc.get("target", {}).get("params", {}).get("dim", 1)
    if family == FAMILY_STUDENT:
        reason = "Student increments have no quadrature window"
    elif dim != 1:
        reason = f"quadrature checks are one-dimensional; the target has dim {dim}"
    elif (
        "w_drift" in checks
        and doc.get("adaptation", {}).get("rule", RULE_AM) != RULE_AM
        and family != FAMILY_UNIFORM
    ):
        reason = "w_drift quadrature under a scalar rule needs compact-uniform increments"
    else:
        return
    raise ConfigError(f"{reason}; set method to 'monte_carlo'", "verify.method")


def _check_bulk_edges(doc: dict) -> None:
    """Reject, at ``target.params.alpha``, a power-tailed target too flat
    for the kernel integrals of ``acceptance_bounds``, and of
    ``fixed_theta_drift`` and ``w_drift`` by quadrature: they break at the
    target's bulk edges, which the search for them finds only above
    ``targets.BULK_ALPHA_MIN``."""
    target = doc.get("target", {})
    least = BULK_ALPHA_MIN.get(target.get("name"))
    alpha = target.get("params", {}).get("alpha")
    verify = doc.get("verify", {})
    checks = set(verify.get("checks", ()))
    if verify.get("method", METHOD_QUADRATURE) != METHOD_QUADRATURE:
        checks -= {"fixed_theta_drift", "w_drift"}
    if least is not None and alpha is not None and alpha <= least and \
            checks & {"acceptance_bounds", "fixed_theta_drift", "w_drift"}:
        raise ConfigError(
            f"alpha = {alpha!r} puts the {target['name']} target's bulk edges past "
            f"2**{LEVEL_SEARCH_DOUBLINGS}, where the kernel integrals cannot find them; they need "
            f"alpha > {least!r}",
            "target.params.alpha",
        )


def load_config(path) -> dict:
    """Read, parse, and schema-validate a config file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    validate_document(doc)
    return doc


# ---------------------------------------------------------------------------
# builders


def _given(cfg: dict, *keys: str) -> dict:
    """The entries of ``keys`` that the section ``cfg`` sets.  A builder
    passes only these, so each default is written once, in the record it
    builds."""
    return {key: cfg[key] for key in keys if key in cfg}


def build_target(doc: dict) -> TargetModel:
    cfg = doc.get("target")
    if cfg is None:
        raise ConfigError("section required for this operation", "target")
    try:
        return make_target(cfg["name"], **cfg.get("params", {}))
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), "target.params") from exc


def build_proposal(doc: dict) -> ProposalSpec:
    cfg = doc.get("proposal")
    if cfg is None:
        raise ConfigError("section required for this operation", "proposal")
    dim = doc.get("target", {}).get("params", {}).get("dim", 1)
    if cfg["family"] == FAMILY_UNIFORM and dim != 1:
        raise ConfigError(
            f"uniform increments are one-dimensional; the target has dim {dim}",
            "proposal.family",
        )
    ridge = cfg.get("eps_ridge")  # the default ridge is in range
    if ridge is not None and not math.isfinite(RW_SCALE**2 * ridge):
        raise ConfigError(f"eps_ridge = {ridge!r} puts the scaled ridge RW_SCALE**2 * eps_ridge past the "
                          "float range", "proposal.eps_ridge")
    try:
        return ProposalSpec(cfg["family"], cfg["parametrization"], **_given(cfg, "eps_ridge", "student_dof"))
    except ValueError as exc:
        raise ConfigError(str(exc), "proposal") from exc


def build_rule(doc: dict) -> AdaptationRule:
    cfg = doc.get("adaptation")
    if cfg is None:
        raise ConfigError("section required for this operation", "adaptation")
    try:
        return AdaptationRule(kind=cfg["rule"], alpha_star=cfg.get("alpha_star"))
    except ValueError as exc:
        raise ConfigError(str(exc), "adaptation") from exc


def build_schedule(doc: dict) -> Schedule:
    cfg = doc.get("schedule")
    if cfg is None:
        raise ConfigError("section required for this operation", "schedule")
    kind = cfg["kind"]
    if kind == "constant":
        schedule = ConstantSchedule(gamma0=cfg.get("gamma0", 0.01))
    else:
        record = PolynomialSchedule if kind == "polynomial" else KestenSchedule
        schedule = record(c0=cfg.get("c0", 1.0), **_given(cfg, *record._fields[1:]))
    # The running-moments update is a convex combination only while the
    # stepsize is at most 1; a larger first step can leave a negative
    # "covariance" that the divergence guard does not catch.
    if doc.get("adaptation", {}).get("rule") == RULE_AM:
        first = gamma_at(schedule, 1, 0 if kind == "kesten" else None)
        if first > 1.0:
            raise ConfigError(
                f"running-moments adaptation needs a first stepsize <= 1, got {first!r}",
                "schedule",
            )
    return schedule


def build_state_lyapunov(doc: dict, target: TargetModel) -> StateLyapunov:
    return StateLyapunov(target, doc.get("lyapunov", {}).get("eta", 0.5))


def build_weight(doc: dict, rule: AdaptationRule) -> ParamLyapunov:
    """The run's recurrence weight, which sets {w <= M} and the trajectory's
    W column: ``lyapunov.weight``, else am_poly under the am rule, exp_abs
    under coerced and one_plus_square otherwise.  A drift certificate uses
    its scenario's weight, ``DriftCoefficients.weight``."""
    cfg = doc.get("lyapunov", {})
    default = W_AM_POLY if rule.kind == RULE_AM else W_EXP_ABS if rule.kind == RULE_COERCED else W_ONE_PLUS_SQUARE
    return ParamLyapunov(cfg.get("weight", default), eps=cfg.get("w_eps", AM_POLY_EPS))


def build_compound(doc: dict) -> CompoundSpec:
    cfg = doc.get("lyapunov", {})
    kw = _given(cfg, "upsilon_v", "upsilon_w")
    if "compound_mode" in cfg:
        kw["mode"] = cfg["compound_mode"]
    return CompoundSpec(**kw)


def build_coefficients(doc: dict, target: TargetModel, proposal: Optional[ProposalSpec]) -> DriftCoefficients:
    cfg = doc.get("lyapunov", {})
    scenario = cfg.get("scenario")
    if scenario is None:
        raise ConfigError("a drift scenario is required for this check", "lyapunov.scenario")
    if scenario == SCENARIO_AM_SUBEXP_1D and target.dim != 1:
        raise ConfigError(f"the am_subexp_1d scenario is one-dimensional; the target has dim {target.dim}",
                          "lyapunov.scenario")
    kw = _given(cfg, "gamma_max", "w_eps")
    kw["alpha_star"] = doc.get("adaptation", {}).get("alpha_star")
    if kw["alpha_star"] is None and scenario in (SCENARIO_COERCED, SCENARIO_FAST_COERCED):
        # a fixed-rule document need state none, and no hidden alpha_star stands in for it
        raise ConfigError(f"the {scenario} scenario's margin min(alpha_star, 1/2 - alpha_star) needs an alpha_star",
                          "adaptation.alpha_star")
    if proposal is not None:
        kw["eps_ridge"] = proposal.eps_ridge
    try:
        return scenario_coefficients(
            scenario,
            dim=target.dim,
            iota=cfg.get("iota"),
            beta=cfg.get("beta"),
            **kw,
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "lyapunov") from exc


# A running covariance counts as positive semidefinite when its smallest
# eigenvalue is at least -_PSD_RTOL times its largest in absolute value:
# eigvalsh rounds a singular one such as [[0.3, 0.1], [0.1, 1/30]] to -7e-18.
_PSD_RTOL = 1e-12


def _am_param(entry: dict, path: str) -> AMParam:
    """Running moments from a JSON entry.  Their covariance must be positive
    semidefinite: the update keeps it so, and the ridge then makes every
    proposal covariance positive definite.  An indefinite one has no
    proposal root in several dimensions, is a negative variance in one, and
    gives a check the root of a negative number."""
    try:
        param = AMParam(mu=np.asarray(entry["mu"], dtype=float), cov=np.asarray(entry["cov"], dtype=float))
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc
    vals = np.linalg.eigvalsh(param.cov)
    if vals[0] < -_PSD_RTOL * abs(vals[-1]):
        raise ConfigError(f"cov must be positive semidefinite; its smallest eigenvalue is {vals[0]:.6g}", path)
    return param


def _x0_from(doc_value, target: Optional[TargetModel]):
    """The initial state: 0 or 1 on the toy chain (no target), else a point
    of the target's dimension, its mode by default."""
    if target is None:
        if doc_value not in (None, 0, 1):
            raise ConfigError(f"the toy chain starts in state 0 or 1, not {doc_value!r}", "run.x0")
        return int(doc_value or 0)
    if doc_value is None:
        return float(np.asarray(target.mode).reshape(-1)[0]) if target.dim == 1 else np.asarray(target.mode)
    if np.size(doc_value) != target.dim:
        raise ConfigError(f"{np.size(doc_value)} coordinates for a target of dim {target.dim}", "run.x0")
    return np.asarray(doc_value, dtype=float) if isinstance(doc_value, list) else float(doc_value)


def _theta0_from(doc_value, rule: AdaptationRule):
    if isinstance(doc_value, dict):
        return _am_param(doc_value, "run.theta0")
    if doc_value is None:
        if rule.kind == RULE_AM:
            raise ConfigError("running-moments runs need an initial parameter", "run.theta0")
        return 0.0
    return float(doc_value)


def build_chain_config(doc: dict) -> ChainConfig:
    cfg = doc.get("run")
    if cfg is None:
        raise ConfigError("section required for this operation", "run")
    rule = build_rule(doc)
    schedule = build_schedule(doc)
    # The stepsize never grows (a > 0), so the horizon's is the smallest;
    # the Kesten count stays below the step index.  A stepsize of 0 would
    # divide the compound function W by 0.
    last = gamma_at(schedule, cfg["horizon"], cfg["horizon"] - 1 if isinstance(schedule, KestenSchedule) else None)
    if not last > 0.0:
        raise ConfigError(f"the stepsize rounds to 0 within the horizon: {last!r} at step {cfg['horizon']}",
                          "schedule")
    kind = cfg["kind"]
    target = None
    proposal = None
    state_lyap = None
    if kind == CHAIN_SRWM:
        target = build_target(doc)
        proposal = build_proposal(doc)
        state_lyap = build_state_lyapunov(doc, target)
    weight = build_weight(doc, rule)
    compound = build_compound(doc)
    theta0 = _theta0_from(cfg.get("theta0"), rule)
    x0 = _x0_from(cfg.get("x0"), target)
    rec = cfg.get("recurrence", {"m": 1e3, "r": 10.0})
    try:
        return ChainConfig(
            kind=kind,
            rule=rule,
            schedule=schedule,
            theta0=theta0,
            x0=x0,
            horizon=cfg["horizon"],
            seed=cfg["seed"],
            recurrence_m=rec["m"],
            recurrence_r=rec["r"],
            target=target,
            proposal=proposal,
            state_lyapunov=state_lyap,
            param_weight=weight,
            compound=compound,
            **_given(cfg, "record_stride"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "run") from exc


def build_grid(doc: dict) -> GridSpec:
    cfg = doc.get("verify", {})
    return GridSpec(
        x_grid=tuple(cfg.get("x_grid", (0.0,))),
        theta_grid=tuple(
            _am_param(entry, "verify.theta_grid") if isinstance(entry, dict) else float(entry)
            for entry in cfg.get("theta_grid", [])
        ),
        **_given(cfg, "method", "mc_n", "seed"),
    )


# proposal radii and start points of acceptance_bounds and decomposition
_DEFAULT_SIGMA_GRID = (1e-3, 1e-2, 1e-1, 0.5, 1.0, 10.0, 100.0, 1000.0)
_DEFAULT_TAIL_X_GRID = (20.0, 40.0, 80.0)


def build_check_args(check: str, doc: dict) -> tuple:
    """The positional arguments of ``verifiers.verify_<check>``, for
    ``validate_document`` and ``cli.run_check``; a number x of
    ``verify.x_grid`` is the point (x, ..., x) on a dim-d target.  Rejects,
    each at its path, a check that cannot run on them: a drift check at an
    x where V(x) is not finite, without ``verify.theta_grid``, with running
    moments whose dimension is not the target's or whose proposal covariance
    (RW_SCALE**2 / d) * (cov + eps_ridge * I) is past the float range, or
    with a ``proposal.parametrization`` that does not fit them (running
    moments take ``am_covariance``, numbers ``scalar_log_scale``);
    ``w_drift`` on a target with dim > 1; ``acceptance_bounds`` on a target
    without a subexponential tail, ``decomposition`` on one that is not 1-D
    and unimodal, with ``lyapunov.eta`` = 0 or at a tail x <= 0, and either
    at a ``verify.sigma_grid`` radius below the smallest normal float or a
    ``verify.tail_x_grid`` point where log pi is not finite.
    ``compound_drift`` runs by Monte Carlo whatever the grid's method."""
    cfg = doc.get("verify", {})
    if check == "toy":
        return (tuple(float(t) for t in cfg.get("toy_theta_grid", range(-3, 4))),)
    target = build_target(doc)
    sigma_grid = tuple(cfg.get("sigma_grid", _DEFAULT_SIGMA_GRID))
    tail_x = tuple(cfg.get("tail_x_grid", _DEFAULT_TAIL_X_GRID))
    if check == "acceptance_bounds" and target.tail.kind is not TailKind.SUBEXPONENTIAL:
        raise ConfigError(f"acceptance_bounds needs a subexponential tail; the {target.name} target's "
                          f"is {target.tail.kind.value}", "verify.checks")
    if check == "decomposition" and not target.unimodal_1d:
        raise ConfigError(f"decomposition needs a one-dimensional unimodal target, not {target.name}", "verify.checks")
    if check in ("acceptance_bounds", "decomposition"):
        for i, sigma in enumerate(sigma_grid):
            if sigma < sys.float_info.min:
                raise ConfigError(f"sigma = {sigma!r} is below the smallest normal float", f"verify.sigma_grid.{i}")
        for i, x in enumerate(tail_x):
            if not math.isfinite(target.log_density(x)):
                raise ConfigError(f"log pi is not finite at x = {x!r}", f"verify.tail_x_grid.{i}")
    if check == "acceptance_bounds":
        return target, sigma_grid, tail_x
    lyap = build_state_lyapunov(doc, target)
    if check == "decomposition":
        if lyap.eta == 0.0:
            raise ConfigError("decomposition needs eta > 0", "lyapunov.eta")
        if any(x <= 0 for x in tail_x):
            raise ConfigError("decomposition is stated for positive x", "verify.tail_x_grid")
        return target, lyap, sigma_grid, tail_x
    grid = build_grid(doc)
    for i, x in enumerate(grid.x_grid):
        if not math.isfinite(float(lyap(x if target.dim == 1 else np.full(target.dim, float(x))))):
            raise ConfigError(f"V(x) is not finite at x = {x!r}", f"verify.x_grid.{i}")
    if not grid.theta_grid:
        raise ConfigError(f"the {check} check needs a theta_grid", "verify.theta_grid")
    if any(isinstance(t, AMParam) and t.mu.shape[0] != target.dim for t in grid.theta_grid):
        raise ConfigError(f"running moments of the target's dimension {target.dim} expected", "verify.theta_grid")
    proposal = build_proposal(doc)
    if any(isinstance(t, AMParam) != (proposal.parametrization == PARAM_AM_COVARIANCE) for t in grid.theta_grid):
        raise ConfigError(f"{proposal.parametrization} proposals do not take the theta_grid's parameters",
                          "proposal.parametrization")
    for i, theta in enumerate(grid.theta_grid):
        if isinstance(theta, AMParam):
            with np.errstate(over="ignore", invalid="ignore"):
                finite = np.isfinite(proposal_covariance(proposal, theta)).all()
            if not finite:
                raise ConfigError("the proposal covariance (RW_SCALE**2 / d) * (cov + eps_ridge * I) is past the "
                                  "float range", f"verify.theta_grid.{i}.cov")
    coef = build_coefficients(doc, target, proposal)
    center_radius = cfg.get("center_radius", 5.0)
    if check == "fixed_theta_drift":
        return target, proposal, lyap, coef, grid, center_radius
    rule = build_rule(doc)
    if check == "w_drift":
        if target.dim != 1:
            raise ConfigError(f"w_drift's center sup is one-dimensional, not dim {target.dim}", "verify.checks")
        return target, proposal, rule, coef, grid, lyap, center_radius
    return target, proposal, rule, lyap, grid, coef, center_radius


def n_replicas(doc: dict, override: Optional[int] = None) -> int:
    if override is not None:
        if override < 1:
            raise ConfigError("replica override must be >= 1", "run.replicas")
        return override
    return doc.get("run", {}).get("replicas", 1)
