"""driftlab benchmark: one workload, closed loop, one operation at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a source checkout.  Each operation is one
``driftlab run|verify`` invocation in its own child process (bench/child.py),
started only after the previous one has exited, so at most one core is busy
with driftlab at a time.  One pass over a workload's operations is a *set*;
the loop repeats sets with the same inputs until --seconds is used up (at
least two sets, so that artifacts can be compared byte for byte).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced sets and reports the per-layer metrics, which come from spans that
bench/spans.py records around calls into each driftlab module.

Every operation passes a correctness gate: exit status 0, every verification
report PASS, no diverged replica, and artifacts byte-identical to the first
run of the same operation in this benchmark run.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The exit
status is 0 only when every operation passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Op, checks_of, config_document

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PRESETS = SRC / "driftlab" / "presets"
WORK = ROOT / ".bench_work"

# Seconds that bench/child.py's ``calibrate`` takes on this 2-vCPU host when
# it is quiet.  Operation times are scaled by REFERENCE_CALIBRATION_S over the
# calibration measured just before and just after each operation, in the
# operation's own process (see README.md).
REFERENCE_CALIBRATION_S = 0.045
MIN_SETS = 2
OP_TIMEOUT_S = 60.0
RUN_CAP_S = 100.0  # stop starting sets past this, whatever --seconds says
MIB = 1024.0 * 1024.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CHECK_NAMES = ("toy", "compound_drift", "fixed_theta_drift", "acceptance_bounds", "decomposition")
PATHS = ("toy", "scalar", "am1d", "generic")
PER_LAYER = {
    "cli.import_s": "s",
    "config.load_config_s": "s",
    "config.build_s": "s",
    **{f"simulator.{p}.ns_per_step": "ns" for p in PATHS},
    "simulator.recurrence_s": "s",
    "simulator.recurrence.ns_per_row": "ns",
    "simulator.summarize_s": "s",
    "simulator.to_csv_s": "s",
    "simulator.to_csv.ns_per_row": "ns",
    "simulator.rows_recorded": "count",
    "simulator.rows_kept_ratio": "ratio",
    "simulator.trajectory_mb": "MB",
    "simulator.diverged_replicas": "count",
    "targets.log_density_calls_per_replica_step": "calls/step",
    "kernels.srwm_step.us_per_call": "us",
    "kernels.draw_increments.us_per_call": "us",
    "adaptation.am_update.us_per_call": "us",
    "cli.write_json_s": "s",
    "cli.artifact_bytes": "bytes",
    **{f"verifiers.{c}_s": "s" for c in CHECK_NAMES},
    "verifiers.rows": "count",
    "verifiers.rows_failed": "count",
    "quadrature.integrate_interval_calls": "count",
    "quadrature.integrand_evals": "count",
    "quadrature.integrate_interval_s": "s",
    "replica_steps_per_s": "1/s",
    "checks_per_s": "1/s",
    "trace.overhead_s": "s",
}


@dataclass
class OpRun:
    index: int
    traced: bool
    wall_s: float
    setup_s: float | None
    speed: float  # REFERENCE_CALIBRATION_S / calibration around this operation
    rss_mb: float
    record: dict
    artifact_bytes: int
    problems: list[str]


@dataclass
class SetRun:
    traced: bool
    ops: list[OpRun] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.ops)

    @property
    def scaled_wall_s(self) -> float:
        return sum(o.wall_s * o.speed for o in self.ops)


@dataclass
class Job:
    """One operation with its generated config."""

    op: Op
    doc: dict
    path: Path

    @property
    def replica_steps(self) -> int:
        return self.op.replicas * self.op.horizon if self.op.command == "run" else 0


class Runner:
    """Runs operations in child processes and applies the correctness gate."""

    def __init__(self, work: Path, jobs: list[Job], seed: int):
        self.work = work
        self.jobs = jobs
        self.seed = seed
        self.count = 0
        self.reference: dict[int, dict[str, str]] = {}

    def run(self, index: int, traced: bool) -> OpRun:
        job = self.jobs[index]
        self.count += 1
        out = self.work / "out" / str(self.count)
        record_path = self.work / "ops" / f"{self.count}.json"
        log_path = self.work / "ops" / f"{self.count}.log"
        argv = [
            sys.executable, str(BENCH_DIR / "child.py"), str(SRC), str(record_path), "1" if traced else "0",
            "--", job.op.command, str(job.path), "--seed", str(self.seed), "--out", str(out),
        ]
        with open(log_path, "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=self.work)
            killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)

        record = json.loads(record_path.read_text()) if record_path.exists() else {}
        before, after = record.get("calibration_s", 0.0), record.get("calibration_after_s", 0.0)
        wall -= before + after
        speed = 2.0 * REFERENCE_CALIBRATION_S / (before + after) if before and after else 1.0
        setup = record["t_loaded"] - start - before if "t_loaded" in record else None
        problems = self._gate(job, proc.returncode, record, out, log_path.read_text(), index)
        artifact_bytes = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        shutil.rmtree(out, ignore_errors=True)
        rss_mb = record.get("maxrss_kb", usage.ru_maxrss) / 1024.0  # before the closing calibration
        return OpRun(index, traced, wall, setup, speed, rss_mb, record, artifact_bytes, problems)

    def _gate(self, job: Job, rc: int, record: dict, out: Path, log: str, index: int) -> list[str]:
        if rc != 0:
            return [f"exit status {rc}: {log.strip().splitlines()[-1] if log.strip() else ''}"]
        problems = []
        if "t_loaded" not in record:
            problems.append("no timing record")
        expected = [f"report-{c}.json" for c in checks_of(job.doc)]
        if job.op.command == "run":
            expected += ["trajectory.csv", "summary.json"]
        missing = [name for name in expected if not (out / name).is_file()]
        if missing:
            return problems + [f"missing artifacts {missing}"]
        for check in checks_of(job.doc):
            report = json.loads((out / f"report-{check}.json").read_text())
            if report.get("pass") is not True:
                problems.append(f"check {check} reports FAIL")
            if not any(line.split()[:2] == [check, "PASS"] for line in log.splitlines()):
                problems.append(f"check {check} not printed as PASS")
        if job.op.command == "run":
            summary = json.loads((out / "summary.json").read_text())["summary"]
            if summary["any_diverged"] or summary["aggregate"]["diverged_count"]:
                problems.append(f"{summary['aggregate']['diverged_count']} replicas diverged")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        first = self.reference.setdefault(index, digests)
        if digests != first:
            problems.append("artifacts differ from the first run of this operation")
        return problems


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def measure(name: str, jobs: list[Job], seed: int, seconds: float, trace: bool):
    """Run sets until ``seconds`` are used; returns (all op runs, sets)."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "ops").mkdir(parents=True)
    (work / "inputs").mkdir()
    for job in jobs:
        job.path.write_text(json.dumps(job.doc, indent=2, sort_keys=True))
    runner = Runner(work, jobs, seed)

    warmup = runner.run(0, traced=False)  # first import compiles bytecode and fills the file cache
    sets: list[SetRun] = []
    begin = time.perf_counter()
    while True:
        s = SetRun(traced=trace and len(sets) % 2 == 1)
        s.ops = [runner.run(i, s.traced) for i in range(len(jobs))]
        sets.append(s)
        elapsed = time.perf_counter() - begin
        if len(sets) >= MIN_SETS and (elapsed + s.wall_s > seconds or elapsed > RUN_CAP_S):
            break
    return [warmup] + [o for s in sets for o in s.ops], sets


def _set_rate(sets: list[SetRun], jobs: list[Job], work_of) -> float:
    per_set = sum(work_of(j) for j in jobs)
    return median(per_set / s.scaled_wall_s for s in sets)


def end_to_end(sets: list[SetRun]) -> dict:
    plain = [s for s in sets if not s.traced]
    return {
        "wall_s": median(s.scaled_wall_s for s in plain),
        "setup_s": median(o.setup_s * o.speed for s in plain for o in s.ops if o.setup_s is not None),
        "peak_rss_mb": median(max(o.rss_mb for o in s.ops) for s in plain),
    }


def _outermost(spans: list[list], name: str) -> list[list]:
    by_id = {sp[0]: sp for sp in spans}
    keep = []
    for sp in spans:
        if sp[2] != name:
            continue
        parent = by_id.get(sp[1])
        while parent is not None and parent[2] != name:
            parent = by_id.get(parent[1])
        if parent is None:
            keep.append(sp)
    return keep


def layer_metrics(s: SetRun) -> dict:
    """Per-layer numbers of one traced set (sums over its operations)."""
    spans = [sp for o in s.ops for sp in o.record.get("spans", [])]
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp[2]].append(sp)

    def total_s(name):
        return sum(sp[4] - sp[3] for sp in _outermost(spans, name)) / 1e9

    def per_call_us(name):
        calls = by_name[name]
        return sum(sp[4] - sp[3] for sp in calls) / len(calls) / 1e3 if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    chains = by_name["simulator.run_chain"]
    steps = sum(sp[5]["steps"] for sp in chains)
    rows = sum(sp[5]["rows"] for sp in chains)
    m = {"config.build_s": total_s("config.build")}
    for path in PATHS:
        mine = [sp for sp in chains if sp[5]["path"] == path]
        m[f"simulator.{path}.ns_per_step"] = ratio(
            sum(sp[4] - sp[3] for sp in mine), sum(sp[5]["steps"] for sp in mine)
        )
    rec = by_name["simulator.recurrence_stats"]
    csv = by_name["simulator.to_csv"]
    m.update({
        "simulator.recurrence_s": total_s("simulator.recurrence_stats"),
        "simulator.recurrence.ns_per_row": ratio(
            sum(sp[4] - sp[3] for sp in rec), sum(sp[5]["rows"] for sp in rec)
        ),
        "simulator.summarize_s": total_s("simulator.summarize_replicas"),
        "simulator.to_csv_s": total_s("simulator.to_csv"),
        "simulator.to_csv.ns_per_row": ratio(sum(sp[4] - sp[3] for sp in csv), sum(sp[5]["rows"] for sp in csv)),
        "simulator.rows_recorded": rows,
        "simulator.rows_kept_ratio": ratio(sum(sp[5]["rows"] for sp in csv), rows),
        "simulator.trajectory_mb": max((sp[5]["bytes"] for sp in chains), default=0) / MIB,
        "simulator.diverged_replicas": sum(1 for sp in chains if sp[5]["diverged"]),
        "targets.log_density_calls_per_replica_step": ratio(sum(sp[5]["logp_calls"] for sp in chains), steps),
        "kernels.srwm_step.us_per_call": per_call_us("kernels.srwm_step"),
        "kernels.draw_increments.us_per_call": per_call_us("kernels.draw_increments"),
        "adaptation.am_update.us_per_call": per_call_us("adaptation.am_update"),
        "cli.write_json_s": total_s("cli.write_json"),
        "cli.artifact_bytes": sum(o.artifact_bytes for o in s.ops),
        "verifiers.rows": sum(sp[5]["rows"] for c in CHECK_NAMES for sp in by_name[f"verifiers.{c}"]),
        "verifiers.rows_failed": sum(sp[5]["rows_failed"] for c in CHECK_NAMES for sp in by_name[f"verifiers.{c}"]),
        "quadrature.integrate_interval_calls": len(by_name["quadrature.integrate_interval"]),
        "quadrature.integrand_evals": sum(o.record.get("integrand_evals", 0) for o in s.ops),
        "quadrature.integrate_interval_s": total_s("quadrature.integrate_interval"),
    })
    for c in CHECK_NAMES:
        m[f"verifiers.{c}_s"] = total_s(f"verifiers.{c}")
    return m


def per_layer(ops: list[OpRun], sets: list[SetRun], jobs: list[Job]) -> dict:
    traced = [s for s in sets if s.traced]
    plain = [s for s in sets if not s.traced]
    layers = [layer_metrics(s) for s in traced]
    m = {name: median(x[name] for x in layers) for name in layers[0]} if layers else {}
    m["cli.import_s"] = median(o.record.get("import_s") for o in ops)
    m["config.load_config_s"] = median(o.record.get("load_config_s") for o in ops)
    m["replica_steps_per_s"] = _set_rate(plain, jobs, lambda j: j.replica_steps)
    m["checks_per_s"] = _set_rate(plain, jobs, lambda j: len(checks_of(j.doc)))
    m["trace.overhead_s"] = median(s.scaled_wall_s for s in traced) - median(s.scaled_wall_s for s in plain)
    return m


def span_table(sets: list[SetRun]) -> list[str]:
    """Count, total and self seconds per span name over the traced sets."""
    stats = defaultdict(lambda: [0, 0, 0])
    for s in sets:
        if not s.traced:
            continue
        for o in s.ops:
            spans = o.record.get("spans", [])
            child_ns = defaultdict(int)
            for sp in spans:
                child_ns[sp[1]] += sp[4] - sp[3]
            for sp in spans:
                st = stats[sp[2]]
                st[0] += 1
                st[1] += sp[4] - sp[3]
                st[2] += sp[4] - sp[3] - child_ns[sp[0]]
    lines = [f"{'span':40} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    for name, (calls, total, self_ns) in sorted(stats.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:40} {calls:9d} {total / 1e9:10.4f} {self_ns / 1e9:10.4f}")
    return lines


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def context(name: str, jobs: list[Job], seed: int, seconds: float, trace: bool, sets: list[SetRun]) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "commit": git_commit(),
        "sets": len(sets),
        "ops": [
            {"command": j.op.command, "config": j.op.config, "replicas": j.doc["run"]["replicas"],
             "horizon": j.doc["run"]["horizon"]} if j.op.command == "run" else
            {"command": j.op.command, "config": j.op.config}
            for j in jobs
        ],
    }


def make_jobs(name: str, shrink: int = 1) -> list[Job]:
    inputs = WORK / name / "inputs"
    return [
        Job(op, config_document(op, PRESETS, shrink), inputs / f"{k}-{op.config}.json")
        for k, op in enumerate(WORKLOADS[name].ops)
    ]


def benchmark(name: str, jobs: list[Job], seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and a human report."""
    ops, sets = measure(name, jobs, seed, seconds, trace)
    attempted = len(ops)
    failures = [(o, o.problems[0]) for o in ops if o.problems]
    failed = len(failures)
    correct = failed == 0
    metrics = per_layer(ops, sets, jobs) if trace else end_to_end(sets)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    ctx = context(name, jobs, seed, seconds, trace, sets)
    report = [f"context: {json.dumps(ctx, sort_keys=True)}"]
    report += [f"failed: op {o.index} ({jobs[o.index].op.config}): {p}" for o, p in failures]
    report.append(f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for k, unit in units.items():
        report.append(f"{k:48} {metrics[k]:14.6g} {unit}")
    if trace:
        report += span_table(sets)
    else:
        plain = [s for s in sets if not s.traced]
        printed = {
            "wall_s (unscaled)": (median(s.wall_s for s in plain), "s"),
            "setup_s (unscaled)": (median(o.setup_s for s in plain for o in s.ops), "s"),
            "host speed factor": (median(o.speed for s in plain for o in s.ops), "ratio"),
            "replica_steps_per_s": (_set_rate(plain, jobs, lambda j: j.replica_steps), "1/s"),
            "checks_per_s": (_set_rate(plain, jobs, lambda j: len(checks_of(j.doc))), "1/s"),
        }
        report += [f"{k:48} {v:14.6g} {unit}" for k, (v, unit) in printed.items()]
    op_rows = [
        {"op": o.index, "traced": o.traced, "wall_s": o.wall_s, "setup_s": o.setup_s,
         "speed": o.speed, "rss_mb": o.rss_mb}
        for o in ops
    ]
    (WORK / name / "result.json").write_text(
        json.dumps({"context": ctx, "result": result, "operations": op_rows}, indent=1)
    )
    return result, report


def self_test() -> int:
    """Minimal-size runs: every metric in BENCHMARK.json is printed with its
    unit, and a schema-invalid config is counted as a failed operation."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for section, trace in (("end_to_end", False), ("per_layer", True)):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for name in (w["name"] for w in spec["workloads"]):
            result, _ = benchmark(name, make_jobs(name, shrink=20), seed=1, seconds=0, trace=trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != BENCHMARK.json {wanted}")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{name} trace={int(trace)}: non-finite metric")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} operations failed")

    jobs = make_jobs("certify", shrink=20)
    bad = dict(jobs[0].doc, unknown_section={})
    jobs.append(Job(Op("verify", "schema-invalid"), bad, jobs[0].path.with_name("schema-invalid.json")))
    result, _ = benchmark("certify", jobs, seed=1, seconds=0, trace=False)
    if result["correct"] or result["failed"] != MIN_SETS:
        problems.append(f"schema-invalid config: failed={result['failed']} correct={result['correct']}, "
                        f"want failed={MIN_SETS} correct=False")
    for p in problems:
        print("self-test FAIL:", p)
    print("self-test", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (SRC / "driftlab" / "cli.py").is_file():
        print(f"no driftlab sources at {SRC}; run from the root of a driftlab checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed < 0:
        parser.error("--workload is required and --seed must be >= 0")
    result, report = benchmark(
        args.workload, make_jobs(args.workload), args.seed, args.seconds, bool(args.trace)
    )
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
