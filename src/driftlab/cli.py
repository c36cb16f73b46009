"""Config-driven command line: simulate, verify, and export plot data.

Subcommands:
  run <config>      simulate (when a run section exists), then verify
  verify <config>   verification checks only
  plot <input>      long-format CSV extraction from a trace or report

<config> is a JSON file path or the name of a shipped preset.  Exit status
is the worst severity across requested tasks: 0 ok, 1 config error,
2 diverged replica, 3 failed verification (artifact files are still
written for 2 and 3).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from importlib import resources
from pathlib import Path
from typing import Optional

from .config import (
    ConfigError,
    build_chain_config,
    build_check_args,
    load_config,
    n_replicas,
    validate_document,
)
from .verifiers import (
    DriftReport,
    verify_acceptance_bounds,
    verify_compound_drift,
    verify_decomposition,
    verify_fixed_theta_drift,
    verify_toy,
    verify_w_drift,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_VERIFY = 3

PLOT_KINDS = ("theta-trace", "drift-margin", "acceptance-rolling")


def list_presets() -> list[str]:
    """Names of the shipped preset configs (without extension)."""
    root = resources.files("driftlab") / "presets"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def resolve_config_path(name: str) -> Path:
    """A literal file path, or else a shipped preset name."""
    p = Path(name)
    if p.exists():
        return p
    stem = name[: -len(".json")] if name.endswith(".json") else name
    candidate = resources.files("driftlab") / "presets" / f"{stem}.json"
    try:
        exists = candidate.is_file()
    except OSError:
        exists = False
    if exists:
        return Path(str(candidate))
    known = ", ".join(list_presets())
    raise ConfigError(f"no config file or preset named {name!r} (presets: {known})")


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_check(name: str, doc: dict) -> DriftReport:
    """Run one verification check on the arguments ``build_check_args``
    builds for it."""
    verifiers = {"toy": verify_toy, "fixed_theta_drift": verify_fixed_theta_drift, "w_drift": verify_w_drift,
                 "compound_drift": verify_compound_drift, "acceptance_bounds": verify_acceptance_bounds,
                 "decomposition": verify_decomposition}
    if name not in verifiers:
        raise ConfigError(f"unknown check {name!r}", "verify.checks")
    return verifiers[name](*build_check_args(name, doc))


def _fmt_margin(m) -> str:
    if m is None:
        return "-"
    return f"{m:.3e}"


def _print_table(rows: list[tuple[str, bool, Optional[float]]], out=None) -> None:
    out = out if out is not None else sys.stdout
    name_w = max([len(r[0]) for r in rows] + [len("check")])
    print(f"{'check'.ljust(name_w)}  result  worst_margin", file=out)
    print(f"{'-' * name_w}  ------  ------------", file=out)
    for name, ok, margin in rows:
        print(f"{name.ljust(name_w)}  {'PASS' if ok else 'FAIL':6}  {_fmt_margin(margin)}", file=out)


def run_experiment(
    config_path,
    seed: Optional[int] = None,
    out: Optional[str] = None,
    replicas: Optional[int] = None,
    simulate: bool = True,
) -> int:
    """Execute a config document end to end; returns the exit severity.

    ``seed`` overrides ``verify.seed``, and ``run.seed`` when simulating,
    and is validated there.  No ``ConfigError`` comes after the output
    directory exists."""
    if simulate:
        # Imported here, so that verify, plot and presets never load the
        # simulator, and before the config loads: compiled after it, the
        # module left a toy run's peak memory 0.3 MB higher.
        from .simulator import run_replicas
    doc = load_config(resolve_config_path(str(config_path)))
    if seed is not None:
        for section in ("run", "verify") if simulate else ("verify",):
            if section in doc:
                doc[section]["seed"] = seed
        validate_document(doc)
    simulate = simulate and "run" in doc
    if simulate:
        chain_config = build_chain_config(doc)
        count = n_replicas(doc, replicas)
    out_dir = Path(out if out is not None else doc.get("output", {}).get("directory", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    formats = doc.get("output", {}).get("formats", ["csv", "json"])

    severity = EXIT_OK
    table: list[tuple[str, bool, Optional[float]]] = []

    if simulate:
        summary, first = run_replicas(chain_config, count, keep_first_trajectory=True)
        if "csv" in formats and first is not None:
            first.to_csv(out_dir / "trajectory.csv")
        if "json" in formats:
            _write_json(out_dir / "summary.json", {"config": doc, "summary": summary.to_json_dict()})
        if summary.any_diverged:
            severity = max(severity, EXIT_DIVERGED)
        agg = summary.aggregate
        print(
            f"run: replicas={count} diverged={agg['diverged_count']} "
            f"max|theta|={agg['max_abs_theta']:.4g} "
            f"median_first_hit={agg['first_hit_median']}"
        )

    for check in doc.get("verify", {}).get("checks", []):
        report = run_check(check, doc)
        if "json" in formats:
            _write_json(out_dir / f"report-{check}.json", report.to_json_dict())
        worst = report.worst_point
        table.append((check, report.passed, None if worst is None else worst["margin"]))
        if not report.passed:
            severity = max(severity, EXIT_VERIFY)

    if table:
        _print_table(table)
    return severity


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _trace_theta_column(header: list[str]) -> str:
    for name in ("theta_1", "mu_1"):
        if name in header:
            return name
    raise ConfigError("input has no scalar parameter column (theta_1 or mu_1)")


def emit_plot_data(input_path, kind: str, out_path=None, window: int = 1000) -> Path:
    """Write a plot-ready long-format CSV for one of the known kinds."""
    if kind not in PLOT_KINDS:
        raise ConfigError(f"unknown plot kind {kind!r}; available: {', '.join(PLOT_KINDS)}")
    src = Path(input_path)
    if not src.exists():
        raise ConfigError(f"input {input_path!r} does not exist")
    dst = Path(out_path) if out_path is not None else src.with_suffix(f".{kind}.csv")

    if kind == "theta-trace":
        header, rows = _read_csv(src)
        col = header.index(_trace_theta_column(header))
        i_col = header.index("i")
        with open(dst, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "theta"])
            for row in rows:
                w.writerow([row[i_col], row[col]])
        return dst

    if kind == "acceptance-rolling":
        header, rows = _read_csv(src)
        i_col = header.index("i")
        a_col = header.index("accepted")
        # trajectory.csv writes the flag as 1/0; True/False is read the same way
        flags = [(int(r[i_col]), 1.0 if r[a_col] in ("1", "True") else 0.0) for r in rows]
        flags = [f for f in flags if f[0] > 0]  # index 0 is the initial state, not a transition
        with open(dst, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "rolling_acceptance"])
            acc = 0.0
            buf: list[float] = []
            for step, flag in flags:
                buf.append(flag)
                acc += flag
                if len(buf) > window:
                    acc -= buf.pop(0)
                if len(buf) == window:
                    w.writerow([step, repr(acc / window)])
        return dst

    # drift-margin: report JSON -> (x, sigma, margin, se)
    with open(src) as fh:
        report = json.load(fh)
    rows_out = []
    for row in report.get("rows", []):
        point = row.get("point", {})
        x = point.get("x", "")
        if "sigma" in point:
            sigma = point["sigma"]
        elif "theta" in point:
            sigma = math.exp(point["theta"])
        else:
            sigma = ""
        rows_out.append([x, sigma, row.get("margin", ""), row.get("se", "")])
    with open(dst, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "sigma", "margin", "se"])
        w.writerows(rows_out)
    return dst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="Simulation and drift-certificate toolkit for adaptive MCMC.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate per the config, then verify")
    p_run.add_argument("config", help="config file path or preset name")
    p_run.add_argument("--seed", type=int, default=None, help="override run/verify seeds")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--replicas", type=int, default=None, help="override the replica count")

    p_ver = sub.add_parser("verify", help="run only the verification checks")
    p_ver.add_argument("config", help="config file path or preset name")
    p_ver.add_argument("--seed", type=int, default=None, help="override the verify seed")
    p_ver.add_argument("--out", default=None, help="override the output directory")

    p_plot = sub.add_parser("plot", help="extract plot-ready CSV from a trace or report")
    p_plot.add_argument("input", help="trajectory CSV or report JSON")
    p_plot.add_argument("--kind", required=True, help=f"one of: {', '.join(PLOT_KINDS)}")
    p_plot.add_argument("--out", default=None, help="output CSV path")
    p_plot.add_argument("--window", type=int, default=1000, help="rolling window length")

    p_presets = sub.add_parser("presets", help="list shipped preset names")
    del p_presets
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_experiment(args.config, seed=args.seed, out=args.out, replicas=args.replicas)
        if args.command == "verify":
            return run_experiment(args.config, seed=args.seed, out=args.out, simulate=False)
        if args.command == "plot":
            dst = emit_plot_data(args.input, args.kind, out_path=args.out, window=args.window)
            print(dst)
            return EXIT_OK
        for name in list_presets():
            print(name)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
