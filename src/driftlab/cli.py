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
import atexit
import gc
import json
import sys
from importlib import import_module, resources
from pathlib import Path
from typing import Optional

from .config import (
    CHECK_NAMES,
    ConfigError,
    _jsonable,
    build_chain_config,
    build_check_args,
    load_config,
    n_replicas,
    validate_document,
)
from .kernels import ScalarParam

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_VERIFY = 3

PLOT_KINDS = ("theta-trace", "drift-margin", "acceptance-rolling")
# The acceptance-rolling window, in steps, when --window is not given.
ROLLING_WINDOW = 1000


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
    """Write ``obj`` as strict JSON: non-finite floats in the reports'
    encoding, the strings "nan", "inf" and "-inf" (``config._jsonable``)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def __getattr__(name: str):
    """``verify_<check>`` for each check of ``config.CHECK_NAMES``, looked
    up in ``verifiers`` when first asked for (PEP 562), so that a command
    without checks never loads the certificate stack.  A name set on this
    module, a wrapper or a stub, is found before this hook runs."""
    if name.startswith("verify_") and name[len("verify_"):] in CHECK_NAMES:
        return getattr(import_module(".verifiers", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_check(name: str, doc: dict):
    """Run one verification check on the arguments ``build_check_args``
    builds for it, and return its ``verifiers.DriftReport``.  The check is
    ``verify_<name>`` as this module's attribute: a wrapper or stub set on
    ``cli`` is what runs, and otherwise ``__getattr__`` finds the
    function in ``verifiers``."""
    if name not in CHECK_NAMES:
        raise ConfigError(f"unknown check {name!r}", "verify.checks")
    return getattr(sys.modules[__name__], f"verify_{name}")(*build_check_args(name, doc))


def _fmt_margin(m) -> str:
    if m is None:
        return "-"
    return f"{m:.3e}"


def _print_table(rows: list[tuple[str, bool, Optional[float]]]) -> None:
    name_w = max([len(r[0]) for r in rows] + [len("check")])
    print(f"{'check'.ljust(name_w)}  result  worst_margin")
    print(f"{'-' * name_w}  ------  ------------")
    for name, ok, margin in rows:
        print(f"{name.ljust(name_w)}  {'PASS' if ok else 'FAIL':6}  {_fmt_margin(margin)}")


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
    if "verify" in doc:
        # The certificate stack loads only for a document that lists checks
        # (the schema requires a non-empty list), after the config and
        # before the simulation: compiled at the first check, on top of the
        # simulation's heap, it left toy-sweep's peak memory 0.8 MB higher.
        import_module(".verifiers", __package__)
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
        csv_path = out_dir / "trajectory.csv" if "csv" in formats else None
        summary = run_replicas(chain_config, count, csv_path=csv_path)
        if "json" in formats:
            _write_json(out_dir / "summary.json", {"config": doc, "summary": summary._asdict()})
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


def _read_csv(path: Path, *columns: tuple[str, ...]) -> tuple[list[int], list[list[str]]]:
    """The index of each of ``columns`` in a CSV input's header (the first
    of its names the header has), and the input's rows, each of the
    header's length."""
    import csv

    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header, rows = next(reader, []), list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"input {str(path)!r} is not a CSV file: {exc}") from exc
    where = []
    for names in columns:
        found = [header.index(name) for name in names if name in header]
        if not found:
            raise ConfigError(f"input {str(path)!r} has no {' or '.join(names)} column")
        where.append(found[0])
    for n, row in enumerate(rows, 2):
        if len(row) != len(header):
            raise ConfigError(f"input {str(path)!r} has {len(row)} fields in row {n}, "
                              f"and {len(header)} in its header")
    return where, rows


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def emit_plot_data(input_path, kind: str, out_path=None, window: int = ROLLING_WINDOW) -> Path:
    """Write a plot-ready long-format CSV for one of the known kinds.  An
    option or an input the kind cannot read raises ``ConfigError`` before
    the output file is opened."""
    if kind not in PLOT_KINDS:
        raise ConfigError(f"unknown plot kind {kind!r}; available: {', '.join(PLOT_KINDS)}")
    if kind == "acceptance-rolling" and window < 1:
        raise ConfigError(f"--window must be at least 1, not {window}")
    src = Path(input_path)
    if not src.exists():
        raise ConfigError(f"input {str(src)!r} does not exist")
    if src.is_dir():
        raise ConfigError(f"input {str(src)!r} is a directory")
    dst = Path(out_path) if out_path is not None else src.with_suffix(f".{kind}.csv")
    if dst.is_dir():
        raise ConfigError(f"output {str(dst)!r} (--out) is a directory")
    if not dst.parent.is_dir():
        raise ConfigError(f"output {str(dst)!r} (--out) is in no existing directory")

    if kind == "theta-trace":
        (i_col, col), rows = _read_csv(src, ("i",), ("theta_1", "mu_1"))
        _write_csv(dst, ["i", "theta"], [[row[i_col], row[col]] for row in rows])
        return dst

    if kind == "acceptance-rolling":
        (i_col, a_col), rows = _read_csv(src, ("i",), ("accepted",))
        try:
            steps = [int(r[i_col]) for r in rows]
        except ValueError as exc:
            raise ConfigError(f"input {str(src)!r} has a step index i that is not an integer") from exc
        # trajectory.csv writes the flag as 1/0; True/False is read the same
        # way.  Index 0 is the initial state, not a transition.
        flags = [(step, 1.0 if r[a_col] in ("1", "True") else 0.0) for step, r in zip(steps, rows) if step > 0]
        rolling = []
        acc = 0.0
        for k, (step, flag) in enumerate(flags):
            acc += flag
            if k >= window:
                acc -= flags[k - window][1]  # the flag that leaves the window
            if k >= window - 1:
                rolling.append([step, repr(acc / window)])
        _write_csv(dst, ["i", "rolling_acceptance"], rolling)
        return dst

    # drift-margin: report JSON -> (x, sigma, margin, se)
    try:
        with open(src) as fh:
            report = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"input {str(src)!r} is not JSON: {exc}") from exc
    if not (isinstance(report, dict) and isinstance(report.get("rows"), list)
            and all(isinstance(row, dict) and isinstance(row.get("point", {}), dict) for row in report["rows"])):
        raise ConfigError(f"input {str(src)!r} is not a verification report: it has no list of rows with points")
    rows_out = []
    for row in report["rows"]:
        point = row.get("point", {})
        x = point.get("x", "")
        if "sigma" in point:
            sigma = point["sigma"]
        elif "theta" in point:
            sigma = ScalarParam(point["theta"]).sigma  # inf from theta = kernels.EXP_CUTOFF on
        else:
            sigma = ""
        rows_out.append([x, sigma, row.get("margin", ""), row.get("se", "")])
    _write_csv(dst, ["x", "sigma", "margin", "se"], rows_out)
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
    p_plot.add_argument("--window", type=int, default=ROLLING_WINDOW, help="rolling window length")

    p_presets = sub.add_parser("presets", help="list shipped preset names")
    del p_presets
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # Freeze the heap at exit, so that the interpreter's shut-down
    # collections skip the objects built at import (README, "Start-up and
    # shut-down", has the measurements and the alternatives).  An in-process
    # caller keeps its collector until it exits, and a forked worker leaves
    # through os._exit, which runs no hook.  Unregistered first, so that
    # repeated calls leave one hook.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
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
