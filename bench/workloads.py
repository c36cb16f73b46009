"""The benchmark's workloads and the configs it generates for them.

Each workload is a list of operations; one pass over the list is a *set*.
An operation is one ``driftlab run`` or ``driftlab verify`` invocation on a
config that the benchmark writes: a shipped preset with its run section
scaled down (full-scale toy alone takes about 96 s), or a generated 2-D
config.  Sizes are fixed, so every seed does the same amount of work; the
seed reaches driftlab only through its own ``--seed`` option.

Why each workload exists is written next to it and in README.md.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

# A correlated 2-D Gaussian, so the covariance the AM rule learns is not
# diagonal.
_GAUSS_2D = {"name": "gaussian", "params": {"dim": 2, "mean": [1.0, -1.0], "cov": [[1.0, 0.8], [0.8, 2.0]]}}
_SCHEDULE = {"kind": "polynomial", "c0": 0.5, "c1": 10.0, "a": 0.6}

GENERATED = {
    "am-2d": {
        "target": _GAUSS_2D,
        "proposal": {"family": "gaussian", "parametrization": "am_covariance", "eps_ridge": 0.1},
        "adaptation": {"rule": "am"},
        "schedule": _SCHEDULE,
        "lyapunov": {"eta": 0.5},
        "run": {
            "kind": "srwm", "horizon": 1, "seed": 0,
            "theta0": {"mu": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "recurrence": {"m": 1000.0, "r": 10.0},
        },
    },
    # Gaussian proposal: the schema also accepts a uniform proposal with
    # dim > 1, but `run` then dies with a raw ValueError ("uniform
    # increments are one-dimensional").  That defect is left to the
    # config-validation work on the roadmap.
    "coerced-2d": {
        "target": _GAUSS_2D,
        "proposal": {"family": "gaussian", "parametrization": "scalar_log_scale"},
        "adaptation": {"rule": "coerced", "alpha_star": 0.44},
        "schedule": _SCHEDULE,
        "lyapunov": {"eta": 0.5},
        "run": {"kind": "srwm", "horizon": 1, "seed": 0, "theta0": 0.0, "recurrence": {"m": 1000.0, "r": 10.0}},
    },
}


@dataclass(frozen=True)
class Op:
    command: str  # "run" or "verify"
    config: str  # preset name or a key of GENERATED
    replicas: int = 0  # 0 for verify
    horizon: int = 0  # 0 for verify


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "toy-sweep",
            "many replicas of the toy chain: per-step Python cost and the per-replica recurrence reduction",
            (Op("run", "toy", replicas=200, horizon=2000),),
        ),
        Workload(
            "srwm-1d",
            "few replicas, long horizon on the four 1-D presets: scalar and AM fast paths and the CSV writer",
            tuple(
                Op("run", name, replicas=2, horizon=10000)
                for name in ("coerced", "fast-coerced", "am-gaussian-1d", "am-subexp-1d")
            ),
        ),
        Workload(
            "mv-2d",
            "2-D AM and 2-D coerced runs: the only traffic through srwm_step, draw_increments and am_update",
            (Op("run", "am-2d", replicas=1, horizon=4000), Op("run", "coerced-2d", replicas=1, horizon=10000)),
        ),
        Workload(
            "certify",
            "verify on the presets that declare checks: quadrature and Monte Carlo certificates, no simulator",
            tuple(Op("verify", name) for name in ("toy", "coerced", "am-subexp-1d")),
        ),
    )
}


def config_document(op: Op, presets: Path, shrink: int = 1) -> dict:
    """The config an operation runs on, with its run section resized.

    ``shrink`` divides the horizon; only the self-test sets it.
    """
    if op.config in GENERATED:
        doc = copy.deepcopy(GENERATED[op.config])
    else:
        doc = json.loads((presets / f"{op.config}.json").read_text())
    if op.command == "run":
        doc["run"]["horizon"] = max(1, op.horizon // shrink)
        doc["run"]["replicas"] = op.replicas
    return doc


def checks_of(doc: dict) -> list[str]:
    return list(doc.get("verify", {}).get("checks", []))
