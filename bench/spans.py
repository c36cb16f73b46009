"""Spans recorded from outside the package, around calls into its modules.

``install(cli)`` replaces the names that one module looks up in another
(``driftlab.cli.run_replicas``, ``driftlab.simulator.run_chain``, ...) with
wrappers that record a span per call: id, parent id, name, start and end in
nanoseconds, and a few attributes read from the arguments or the result.
Nothing under ``src/`` changes; a name the package no longer has is simply
not wrapped, and its metrics read 0.

Spans stay in memory and are written once, when the operation ends.
"""
from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np


class Tracer:
    """In-memory span store for one operation (one child process)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [0]
        self.next_id = 1
        self.logp_calls = 0
        self.integrand_evals = 0

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped in a span; ``attrs(args, kwargs, result)``
        gives a dict stored with the span."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1]
            self.stack.append(sid)
            logp0 = self.logp_calls
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else {}
            extra["logp_calls"] = self.logp_calls - logp0
            self.spans.append([sid, parent, name, t0, t1, extra])
            return result

        return traced

    def patch(self, module, attr, name, attrs=None):
        """Wrap ``module.attr`` in place when the module still has it."""
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, self.wrap(name, fn, attrs))

    def counting_target(self, target):
        """Copy of a target whose log-density calls are counted."""
        logp = target.log_density

        def log_density(x):
            self.logp_calls += 1
            return logp(x)

        return dataclasses.replace(target, log_density=log_density)

    def counting_quadrature(self, integrate):
        """``integrate_interval`` with its integrand evaluations counted."""

        def integrate_interval(f, *args, **kwargs):
            def counted(z):
                self.integrand_evals += 1
                return f(z)

            return integrate(counted, *args, **kwargs)

        return integrate_interval

    def to_json(self) -> dict:
        return {"spans": self.spans, "integrand_evals": self.integrand_evals}


def chain_path(config) -> str:
    """Which simulator path a chain config takes, as ``run_chain`` dispatches
    at this version: toy, 1-D scalar rule, 1-D AM, or generic numpy."""
    if config.kind == "toy":
        return "toy"
    if config.rule.kind == "am":
        one_d = np.asarray(config.theta0.mu).shape[0] == 1
        return "am1d" if one_d and config.proposal.family in ("gaussian", "student") else "generic"
    return "scalar" if config.target.dim == 1 else "generic"


def _array_bytes(obj) -> int:
    return sum(
        getattr(obj, f.name).nbytes
        for f in dataclasses.fields(obj)
        if isinstance(getattr(obj, f.name), np.ndarray)
    )


def _chain_attrs(args, kwargs, traj):
    return {
        "path": chain_path(args[0]),
        "steps": int(traj.index[-1]),
        "rows": int(traj.index.shape[0]),
        "bytes": _array_bytes(traj),
        "diverged": bool(traj.diverged),
    }


def _rows_attrs(args, kwargs, result):
    """Rows of the trajectory passed first (``recurrence_stats(traj)``,
    ``traj.to_csv(path)``)."""
    return {"rows": int(args[0].index.shape[0])}


def _report_attrs(args, kwargs, report):
    return {"rows": len(report.rows), "rows_failed": sum(1 for r in report.rows if not r.passed)}


VERIFY_FUNCTIONS = (
    "verify_toy",
    "verify_fixed_theta_drift",
    "verify_w_drift",
    "verify_compound_drift",
    "verify_acceptance_bounds",
    "verify_decomposition",
)


def install(cli) -> Tracer:
    """Wrap the cross-module calls reachable from ``driftlab.cli.main``."""
    import driftlab.config as config
    import driftlab.kernels as kernels
    import driftlab.simulator as simulator
    import driftlab.targets as targets
    import driftlab.verifiers as verifiers

    tr = Tracer()

    # cli -> config
    for attr, fn in vars(cli).copy().items():
        if callable(fn) and getattr(fn, "__module__", "") == config.__name__ and (
            attr.startswith("build_") or attr == "n_replicas"
        ):
            tr.patch(cli, attr, "config.build")
    make_target = config.make_target
    config.make_target = lambda name, **params: tr.counting_target(make_target(name, **params))

    # cli -> simulator, cli -> verifiers, cli's own writers
    tr.patch(cli, "run_replicas", "simulator.run_replicas")
    tr.patch(cli, "run_check", "cli.run_check")
    tr.patch(cli, "_write_json", "cli.write_json")
    for attr in VERIFY_FUNCTIONS:
        tr.patch(cli, attr, "verifiers." + attr[len("verify_"):], _report_attrs)
    if hasattr(simulator, "Trajectory"):
        tr.patch(simulator.Trajectory, "to_csv", "simulator.to_csv", _rows_attrs)

    # simulator internals -> simulator, kernels, adaptation
    tr.patch(simulator, "run_chain", "simulator.run_chain", _chain_attrs)
    tr.patch(simulator, "recurrence_stats", "simulator.recurrence_stats", _rows_attrs)
    tr.patch(simulator, "summarize_replicas", "simulator.summarize_replicas")
    tr.patch(simulator, "srwm_step", "kernels.srwm_step")
    for module in (simulator, verifiers):
        tr.patch(module, "am_update", "adaptation.am_update")
    for module in (kernels, verifiers):
        tr.patch(module, "draw_increments", "kernels.draw_increments")
    for attr in ("mean_acceptance", "apply_kernel_to_function"):
        tr.patch(verifiers, attr, "kernels." + attr)

    # every module that binds integrate_interval -> quadrature
    for module in (verifiers, kernels, targets):
        fn = getattr(module, "integrate_interval", None)
        if fn is not None:
            setattr(module, "integrate_interval",
                    tr.wrap("quadrature.integrate_interval", tr.counting_quadrature(fn)))
    return tr
