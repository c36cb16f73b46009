"""Experiment configuration: JSON schema, validation, and object builders.

A config document has up to eight sections (target, proposal, adaptation,
schedule, lyapunov, run, verify, output).  ``SCHEMA`` is the one description
of a document; ``_schema_errors`` walks it, covering exactly the JSON Schema
keywords it uses, so loading a config needs no schema library.  Unknown keys
are rejected everywhere; numeric domain constraints are re-validated by the
constructors the builders call, so a document that loads cleanly builds
cleanly.
"""
from __future__ import annotations

import json
import operator
import sys
from typing import Iterator, Optional

import numpy as np

from .adaptation import (
    RULE_AM,
    RULE_COERCED,
    RULES,
    AdaptationRule,
    ConstantSchedule,
    KestenSchedule,
    MeanFieldAM,
    PolynomialSchedule,
    Schedule,
    gamma_at,
)
from .kernels import (
    FAMILY_STUDENT,
    FAMILY_UNIFORM,
    PARAM_AM_COVARIANCE,
    PARAM_SCALAR_LOG_SCALE,
    AMParam,
    ProposalSpec,
)
from .lyapunov import (
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
from .simulator import CHAIN_SRWM, CHAIN_TOY, ChainConfig
from .targets import BUILTIN_TARGETS, TargetModel, make_target
from .verifiers import METHOD_MONTE_CARLO, METHOD_QUADRATURE, GridSpec

CHECK_NAMES = (
    "toy",
    "fixed_theta_drift",
    "w_drift",
    "compound_drift",
    "acceptance_bounds",
    "decomposition",
)


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
                "alpha_star": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5},
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
                "gamma_grid": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
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
    """Schema-validate a parsed config; raise ConfigError naming the field.

    Errors are sorted by path and the first is raised.  Verdicts match JSON
    Schema 2020-12 except for two stricter rules: an ``integer`` key takes a
    JSON integer only (``200.0`` is rejected), and a ``number`` is finite
    (``NaN``, ``Infinity`` and ``-Infinity``, which ``json.load`` accepts,
    and integers too large for a float are rejected).

    Rules that tie one section to another (proposal family against target
    dimension, first stepsize against adaptation rule) are checked by the
    proposal and schedule builders, which run here as well.  A parameter
    weight must fit the adaptation rule: ``am_poly`` weighs running moments
    and the other variants a scalar parameter.  ``compound_drift`` is a Monte
    Carlo check, so a document that asks for quadrature with it is rejected,
    and so is a quadrature ``fixed_theta_drift`` or ``w_drift`` that the
    kernel integrals cannot run (see ``_check_quadrature``).
    Running-moment parameters (``run.theta0``, ``verify.theta_grid``) are
    built here, so a covariance that is not symmetric, or not the shape of
    its mean, is rejected with its path.
    """
    errors = sorted(_schema_errors(doc, SCHEMA), key=lambda e: e[0])
    if errors:
        path, message = errors[0]
        raise ConfigError(message, ".".join(str(p) for p in path))
    run = doc.get("run", {})
    rule_kind = doc.get("adaptation", {}).get("rule")
    variant = doc.get("lyapunov", {}).get("weight")
    if rule_kind is not None and variant is not None and (variant == W_AM_POLY) != (rule_kind == RULE_AM):
        fits = "am_poly" if rule_kind == RULE_AM else "exp_abs or one_plus_square"
        raise ConfigError(
            f"weight {variant!r} does not fit the {rule_kind!r} rule's parameter; use {fits}",
            "lyapunov.weight",
        )
    verify = doc.get("verify", {})
    if verify.get("method") == METHOD_QUADRATURE and "compound_drift" in verify.get("checks", ()):
        raise ConfigError(
            "the compound_drift check is Monte Carlo only; set method to 'monte_carlo' or leave it out",
            "verify.method",
        )
    _check_quadrature(doc)
    if "proposal" in doc:
        build_proposal(doc)
    if "schedule" in doc:
        build_schedule(doc)
    if isinstance(run.get("theta0"), dict):
        _am_param(run["theta0"], "run.theta0")
    _grid_thetas(verify)


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
    try:
        return ProposalSpec(
            family=cfg["family"],
            parametrization=cfg["parametrization"],
            eps_ridge=cfg.get("eps_ridge", 0.1),
            student_dof=cfg.get("student_dof", 4.0),
        )
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
    try:
        if kind == "polynomial":
            schedule = PolynomialSchedule(
                c0=cfg.get("c0", 1.0), c1=cfg.get("c1", 0.0), a=cfg.get("a", 1.0)
            )
        elif kind == "constant":
            schedule = ConstantSchedule(gamma0=cfg.get("gamma0", 0.01))
        else:
            schedule = KestenSchedule(c0=cfg.get("c0", 1.0), a=cfg.get("a", 0.6))
    except ValueError as exc:
        raise ConfigError(str(exc), "schedule") from exc
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
    eta = doc.get("lyapunov", {}).get("eta", 0.5)
    try:
        return StateLyapunov(target, eta)
    except ValueError as exc:
        raise ConfigError(str(exc), "lyapunov.eta") from exc


def default_weight_variant(rule_kind: str) -> str:
    if rule_kind == RULE_AM:
        return W_AM_POLY
    if rule_kind == RULE_COERCED:
        return W_EXP_ABS
    return W_ONE_PLUS_SQUARE


def build_weight(doc: dict, rule: AdaptationRule) -> ParamLyapunov:
    cfg = doc.get("lyapunov", {})
    variant = cfg.get("weight", default_weight_variant(rule.kind))
    try:
        return ParamLyapunov(variant, eps=cfg.get("w_eps", 0.5))
    except ValueError as exc:
        raise ConfigError(str(exc), "lyapunov.weight") from exc


def build_compound(doc: dict) -> CompoundSpec:
    cfg = doc.get("lyapunov", {})
    try:
        return CompoundSpec(
            upsilon_v=cfg.get("upsilon_v", 1.0),
            upsilon_w=cfg.get("upsilon_w", 1.0),
            mode=cfg.get("compound_mode", "W"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "lyapunov") from exc


def build_coefficients(doc: dict, target: TargetModel, proposal: Optional[ProposalSpec]) -> DriftCoefficients:
    cfg = doc.get("lyapunov", {})
    scenario = cfg.get("scenario")
    if scenario is None:
        raise ConfigError("a drift scenario is required for this check", "lyapunov.scenario")
    kw = {}
    if "alpha_star" in cfg:
        kw["alpha_star"] = cfg["alpha_star"]
    elif "adaptation" in doc and doc["adaptation"].get("alpha_star") is not None:
        kw["alpha_star"] = doc["adaptation"]["alpha_star"]
    if "gamma_max" in cfg:
        kw["gamma_max"] = cfg["gamma_max"]
    if "w_eps" in cfg:
        kw["w_eps"] = cfg["w_eps"]
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


def _am_param(entry: dict, path: str) -> AMParam:
    try:
        return AMParam(mu=np.asarray(entry["mu"], dtype=float), cov=np.asarray(entry["cov"], dtype=float))
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc


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
    kind = cfg["kind"]
    target = None
    proposal = None
    state_lyap = None
    moments = None
    if kind == CHAIN_SRWM:
        target = build_target(doc)
        proposal = build_proposal(doc)
        state_lyap = build_state_lyapunov(doc, target)
        if rule.kind == RULE_AM and target.known_mean is not None and target.known_cov is not None:
            moments = MeanFieldAM(mu_pi=target.known_mean, cov_pi=target.known_cov)
    weight = build_weight(doc, rule)
    compound = build_compound(doc)
    theta0 = _theta0_from(cfg.get("theta0"), rule)
    if "x0" in cfg:
        x0 = cfg["x0"]
        x0 = np.asarray(x0, dtype=float) if isinstance(x0, list) else (
            int(x0) if kind == CHAIN_TOY else float(x0)
        )
    else:
        x0 = 0 if kind == CHAIN_TOY else (
            float(np.asarray(target.mode).reshape(-1)[0]) if target.dim == 1 else np.asarray(target.mode)
        )
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
            record_stride=cfg.get("record_stride", 1),
            state_lyapunov=state_lyap,
            param_weight=weight,
            compound=compound,
            moments=moments,
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "run") from exc


def _grid_thetas(cfg: dict) -> tuple:
    return tuple(
        _am_param(entry, "verify.theta_grid") if isinstance(entry, dict) else float(entry)
        for entry in cfg.get("theta_grid", [])
    )


def build_grid(doc: dict) -> GridSpec:
    cfg = doc.get("verify", {})
    thetas = _grid_thetas(cfg)
    try:
        return GridSpec(
            x_grid=tuple(cfg.get("x_grid", (0.0,))),
            theta_grid=thetas,
            gamma_grid=tuple(cfg.get("gamma_grid", (0.05,))),
            method=cfg.get("method", METHOD_QUADRATURE),
            mc_n=cfg.get("mc_n", 10_000),
            seed=cfg.get("seed", 2024),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "verify") from exc


def n_replicas(doc: dict, override: Optional[int] = None) -> int:
    if override is not None:
        if override < 1:
            raise ConfigError("replica override must be >= 1", "run.replicas")
        return override
    return doc.get("run", {}).get("replicas", 1)
