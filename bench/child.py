"""One benchmark operation: a single ``driftlab`` CLI invocation.

Usage: child.py SRC RESULT_JSON TRACE -- <driftlab arguments>

Times a fixed piece of Python work (``calibrate``), imports
``driftlab.cli`` from SRC, times the import and the config load, optionally
installs the span wrappers from ``spans.py``, runs ``driftlab.cli.main``,
times the calibration again and exits with the CLI's status.  Timings go to
RESULT_JSON, which lies outside the operation's ``--out`` directory so the
artifacts stay byte-identical whether or not the run was traced.  Times are
``time.perf_counter()`` readings, which share one clock (CLOCK_MONOTONIC)
with the parent process on Linux.
"""
import gc
import json
import marshal
import resource
import sys
import time

# Module-like source for the calibration: function definitions that build
# lists and dicts, compiled, round-tripped through marshal, executed and
# called.  It resembles what an import and a Python-level loop do, needs only
# builtin modules, and leaves no reference cycles behind.
_CALIBRATION_SOURCE = "\n".join(
    f"def g{i}(a, b={i}):\n    return [b, a, {{'k': a}}]\n"
    f"def f{i}(x, **kw):\n    y = [x + j for j in range(5)]\n"
    f"    return sum(v * x for v in range({i % 7 + 1})) + g{i}(y[-1])[0] if x > {i} else len(kw)\n"
    for i in range(200)
)


def calibrate() -> float:
    """Seconds this process takes for fixed work that never calls driftlab:
    how fast the host runs Python right now.  The garbage collector is off,
    so the time does not depend on what the heap holds."""
    gc.disable()
    try:
        start = time.perf_counter()
        code = compile(_CALIBRATION_SOURCE, "<calibration>", "exec")
        for _ in range(6):
            namespace = {}
            exec(marshal.loads(marshal.dumps(code)), namespace)
            for i in range(200):
                namespace[f"f{i}"](i + 3, k=1)
            namespace.clear()
        return time.perf_counter() - start
    finally:
        gc.enable()


def main(argv: list[str]) -> int:
    src, result_path, trace = argv[0], argv[1], argv[2] == "1"
    cli_args = argv[argv.index("--") + 1:]
    record = {"calibration_s": calibrate()}

    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import driftlab.cli as cli
    record["import_s"] = time.perf_counter() - t0
    if not cli.__file__.startswith(src):
        print(f"driftlab was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 70

    load_config = cli.load_config

    def timed_load_config(path):
        start = time.perf_counter()
        doc = load_config(path)
        record.setdefault("load_config_s", time.perf_counter() - start)
        record.setdefault("t_loaded", time.perf_counter())
        return doc

    cli.load_config = timed_load_config
    tracer = None
    if trace:
        import spans

        tracer = spans.install(cli)

    rc = cli.main(cli_args)
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["calibration_after_s"] = calibrate()
    if tracer is not None:
        record.update(tracer.to_json())
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
