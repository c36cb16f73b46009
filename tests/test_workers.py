"""Worker processes: ``run`` splits srwm replicas and ``trajectory.csv``
rows over forked workers, or streams replica 0's rows to a forked CSV
writer when a core is left idle.  The outputs must not depend on how many
workers there are, and no worker may outlive the call, deadlock it, or
return into its caller."""

import dataclasses
import json
import os
import signal
import time

import pytest

from driftlab import simulator
from driftlab.adaptation import RULE_AM, RULE_COERCED, KestenSchedule, PolynomialSchedule
from driftlab.cli import main, resolve_config_path
from driftlab.kernels import FAMILY_GAUSSIAN, FAMILY_STUDENT
from driftlab.simulator import run_replicas

from test_config_cli import mv_run_doc, write_config
from test_simulator import (
    SRWM_1D_CASES,
    mv_config,
    run_kept,
    srwm_1d_config,
    synthetic_config,
    synthetic_kept,
    toy_config,
)

# At step 1 the stepsize is huge, after it negligible (a = 40), so each
# replica halts at step 1 or never, by its own first draw.
_SCALAR_STEP_1 = PolynomialSchedule(c0=2e12, c1=0.0, a=40.0)
_AM_1D_STEP_1 = PolynomialSchedule(c0=1.5, c1=0.0, a=40.0)
_COERCED_2D_STEP_1 = PolynomialSchedule(c0=1e13, c1=0.0, a=40.0)
_KESTEN = KestenSchedule(c0=0.5, a=0.6)

# (path, case) -> (config arguments, fields replaced after, which of the 5
# replicas diverge).  601 rows and 5 replicas divide evenly over neither 2
# nor 3 workers.
PATHS = {
    "scalar-1d": srwm_1d_config,
    "am-1d": lambda **kw: srwm_1d_config(rule=RULE_AM, family=FAMILY_GAUSSIAN, **kw),
    "am-2d": mv_config,
    "am-2d-student": lambda **kw: mv_config(family=FAMILY_STUDENT, **kw),
    "am-3d": lambda **kw: mv_config(dim=3, **kw),  # its proposal root is eigh's
    "coerced-2d": lambda **kw: mv_config(rule=RULE_COERCED, **kw),
}
STRIDE_7 = ({}, {"record_stride": 7}, ".....")
KESTEN = ({"schedule": _KESTEN}, {}, ".....")
CASES = {
    ("scalar-1d", "plain"): ({}, {}, "....."),
    ("scalar-1d", "stride-7"): STRIDE_7,
    ("scalar-1d", "kesten"): KESTEN,
    ("scalar-1d", "replica-0-halts"): ({"schedule": _SCALAR_STEP_1}, {"seed": 9}, "D..DD"),
    ("scalar-1d", "worker-replica-diverges"): ({"schedule": _SCALAR_STEP_1}, {"seed": 0}, "...D."),
    ("am-1d", "plain"): ({}, {}, "....."),
    ("am-1d", "stride-7"): STRIDE_7,
    ("am-1d", "replica-0-halts"): ({"schedule": _AM_1D_STEP_1}, {"seed": 5}, "D...."),
    ("am-1d", "worker-replica-diverges"): ({"schedule": _AM_1D_STEP_1}, {"seed": 26}, "...D."),
    ("am-2d", "plain"): ({}, {}, "....."),
    ("am-2d", "stride-7"): STRIDE_7,
    ("am-2d", "kesten"): KESTEN,
    # the covariance passes THETA_MAX at step 1 in every replica
    ("am-2d", "every-replica-halts"): ({"x0": 1e7}, {}, "DDDDD"),
    ("am-2d-student", "plain"): ({}, {}, "....."),
    ("am-2d-student", "stride-7"): STRIDE_7,
    ("am-3d", "plain"): ({}, {}, "....."),
    ("am-3d", "stride-7"): STRIDE_7,
    ("coerced-2d", "plain"): ({}, {}, "....."),
    ("coerced-2d", "stride-7"): STRIDE_7,
    ("coerced-2d", "replica-0-halts"): ({"schedule": _COERCED_2D_STEP_1}, {"seed": 13}, "D.DDD"),
    ("coerced-2d", "worker-replica-diverges"): ({"schedule": _COERCED_2D_STEP_1}, {"seed": 22}, ".DDDD"),
}


def force_workers(monkeypatch, n: int) -> None:
    """Split every run and every CSV over ``n`` workers, and stream every
    CSV that leaves one of them idle, however small and on any path."""
    monkeypatch.setattr(simulator, "_usable_cores", lambda: n)
    monkeypatch.setattr(simulator, "_MIN_WORKER_STEPS", 1)
    monkeypatch.setattr(simulator, "_MIN_WORKER_ROWS", 1)
    monkeypatch.setattr(simulator, "_worth_streaming", lambda config: True)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail a test that blocks for 20 s instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("blocked for 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_slices_cover_the_range_in_order(monkeypatch):
    monkeypatch.setattr(simulator, "_usable_cores", lambda: 3)
    assert simulator._slices(5, 1, 1) == [slice(0, 2), slice(2, 4), slice(4, 5)]
    assert simulator._slices(2, 1, 1) == [slice(0, 1), slice(1, 2)]  # never more slices than items
    assert simulator._slices(601, 1, 300) == [slice(0, 301), slice(301, 601)]  # each slice >= the minimum
    assert simulator._slices(599, 1, 300) == [slice(0, 599)]
    monkeypatch.setattr(simulator, "_usable_cores", lambda: 1)
    assert simulator._slices(10**6, 10**6, 1) == [slice(0, 10**6)]


def test_runs_below_the_break_even_stay_serial(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(simulator, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", refuse)
    cfg = srwm_1d_config(horizon=simulator._MIN_WORKER_STEPS // 2 - 1)
    path = tmp_path / "trajectory.csv"
    run_replicas(cfg, 2, csv_path=path)
    assert len(path.read_bytes().splitlines()) - 1 < 2 * simulator._MIN_WORKER_ROWS  # rows below the header


def test_a_slow_loop_streams_from_the_break_even_on(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a worker was started")

    def refuse_writer(fd):
        os.close(fd)
        raise AssertionError("a writer was started")

    monkeypatch.setattr(simulator, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(simulator, "_Feed", refuse_writer)
    least = simulator._MIN_STREAM_ROWS
    path = tmp_path / "trajectory.csv"
    for cfg in (dataclasses.replace(mv_config(), horizon=least - 2), toy_config(horizon=7 * (least - 3) + 3, stride=7)):
        # one row short: written after the run, and too short to split
        assert simulator._kept_rows(cfg) == least - 1
        run_replicas(cfg, 1, csv_path=path)
        assert len(path.read_bytes().splitlines()) == least  # the header and each kept row
        longer = dataclasses.replace(cfg, horizon=cfg.horizon + cfg.record_stride)
        assert simulator._kept_rows(longer) == least
        with pytest.raises(AssertionError, match="^a writer was started$"):
            run_replicas(longer, 1, csv_path=path)


def test_a_one_dimensional_loop_never_streams(tmp_path, monkeypatch):
    def refuse(fd):
        raise AssertionError("a writer was started")

    monkeypatch.setattr(simulator, "_usable_cores", lambda: 2)
    monkeypatch.setattr(simulator, "_Feed", refuse)
    horizon = 10 * simulator._MIN_STREAM_ROWS
    for cfg in (srwm_1d_config(horizon=horizon), srwm_1d_config(horizon=horizon, **SRWM_1D_CASES["am-gaussian"])):
        run_replicas(cfg, 1, csv_path=tmp_path / "trajectory.csv")
        assert_no_child_left()


@pytest.mark.parametrize("path, case", sorted(CASES), ids=lambda v: v)
def test_worker_count_does_not_change_outputs(tmp_path, monkeypatch, path, case):
    arguments, fields, diverged = CASES[path, case]
    cfg = dataclasses.replace(PATHS[path](**arguments), horizon=600, **fields)
    outputs = []
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        summary = run_replicas(cfg, 5, csv_path=tmp_path / f"trajectory-{workers}.csv")
        outputs.append((json.dumps(summary._asdict(), indent=2, sort_keys=True),
                        (tmp_path / f"trajectory-{workers}.csv").read_bytes()))
        assert_no_child_left()
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    records = json.loads(outputs[0][0])["per_replica"]
    assert [r["replica"] for r in records] == list(range(5))
    assert "".join("D" if r["diverged"] else "." for r in records) == diverged


@pytest.mark.parametrize("name", ["coerced", "am-gaussian-1d", "am-2d", "coerced-2d"])
def test_cli_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, name):
    if name.endswith("-2d"):
        doc = mv_run_doc(name[: -len("-2d")], horizon=400, replicas=3)
    else:
        doc = json.loads(resolve_config_path(name).read_text())
        doc["run"].update(horizon=1000, replicas=3)
        doc.pop("verify", None)
    path = write_config(tmp_path, doc)
    outputs = []
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        out = tmp_path / f"out-{workers}"
        assert main(["run", str(path), "--out", str(out)]) == 0
        outputs.append({f: (out / f).read_bytes() for f in ("summary.json", "trajectory.csv")})
        assert_no_child_left()
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_a_worker_exception_is_raised_with_its_type_and_message(monkeypatch):
    run_srwm = simulator._run_srwm

    def fail_in_worker(config, rngs, replica=0, keep=None):
        if replica == 2:
            raise ZeroDivisionError("replica 2 cannot run")
        return run_srwm(config, rngs, replica, keep)

    force_workers(monkeypatch, 3)
    monkeypatch.setattr(simulator, "_run_srwm", fail_in_worker)
    pid = os.getpid()
    with pytest.raises(ZeroDivisionError) as exc:
        run_replicas(srwm_1d_config(horizon=50), 5)
    assert os.getpid() == pid
    assert str(exc.value) == "replica 2 cannot run"
    assert_no_child_left()


def test_own_slice_failure_does_not_wait_on_a_blocked_csv_worker(tmp_path, monkeypatch, deadline):
    # each worker's slice is several MB of text, far past a pipe's buffer:
    # the worker blocks on its write until the read end is closed
    kept, _ = synthetic_kept(synthetic_config(2, 6, True), 30_000)
    parent = os.getpid()
    csv_rows = simulator._csv_rows

    def fail_own_slice(cols):
        if os.getpid() == parent:
            raise OSError("disk full")
        return csv_rows(cols)

    force_workers(monkeypatch, 3)
    monkeypatch.setattr(simulator, "_csv_rows", fail_own_slice)
    with pytest.raises(OSError, match="^disk full$"):
        kept.to_csv(tmp_path / "trajectory.csv")
    assert_no_child_left()


def test_fork_map_reaps_every_worker_on_both_paths(deadline):
    got = []
    assert simulator._fork_map([lambda: b"a" * 100_000, lambda: b"b"], lambda: "own",
                               lambda stream: got.append(stream.read())) == "own"
    assert got == [b"a" * 100_000, b"b"]
    assert_no_child_left()

    def fail():
        raise KeyError("job 2")

    with pytest.raises(KeyError, match="job 2"):
        simulator._fork_map([lambda: b"x" * 1_000_000, fail], lambda: None, lambda stream: stream.read())
    assert_no_child_left()


class _Escape(BaseException):
    """Not an ``Exception``: a worker that let it through would return into
    its caller's frames."""


def test_a_worker_never_returns_into_its_caller(tmp_path):
    parent = os.getpid()

    def escape():
        raise _Escape

    seen = []
    for job in (lambda: b"done", escape):
        try:
            simulator._fork_map([job], lambda: None, lambda stream: stream.read())
            seen.append("returned")
        except RuntimeError as exc:
            seen.append(str(exc))
        except _Escape:
            seen.append("escaped")
        finally:
            if os.getpid() != parent:  # a worker got back here: leave a mark, then go
                (tmp_path / str(os.getpid())).touch()
                os._exit(0)
    assert seen == ["returned", "worker 1 of 1 ended without a result"]
    assert_no_child_left()
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# streamed trajectories: 1 replica on 2 or 3 cores, or 2 replicas on 3,
# leave a core idle, and a forked writer formats replica 0's rows while its
# loop runs

_FAST_COERCED_DIVERGES = dict(SRWM_1D_CASES["fast-coerced-diverges"], horizon=600)


def _halt_of_replica_0(cfg) -> int:
    summary = run_replicas(cfg, 1)
    return summary.per_replica[0]["halt_index"]


# case -> (config, kept block length, or a function of replica 0's halt
# index giving it)
STREAMED = {
    "scalar-1d": (lambda: srwm_1d_config(), 64),
    "scalar-1d-stride-7": (lambda: srwm_1d_config(record_stride=7), 64),
    "scalar-1d-kesten": (lambda: srwm_1d_config(**SRWM_1D_CASES["coerced-uniform-kesten"]), 64),
    "am-1d": (lambda: srwm_1d_config(**SRWM_1D_CASES["am-gaussian"]), 100),
    "halt-inside-a-block": (lambda: srwm_1d_config(**_FAST_COERCED_DIVERGES), lambda halt: halt + 5),
    "halt-ends-a-block": (lambda: srwm_1d_config(**_FAST_COERCED_DIVERGES), lambda halt: halt),
    "halt-opens-a-block": (lambda: srwm_1d_config(**_FAST_COERCED_DIVERGES), lambda halt: halt - 1),
    "am-2d": (lambda: mv_config(), 64),
    "am-2d-stride-7": (lambda: mv_config(stride=7), 64),
    "am-2d-kesten": (lambda: mv_config(schedule=_KESTEN), 64),
    "am-2d-kesten-stride-7": (lambda: mv_config(schedule=_KESTEN, stride=7), 64),
    "toy": (lambda: toy_config(horizon=600), 64),
    "toy-stride-7": (lambda: toy_config(horizon=600, stride=7), 64),
    "toy-kesten": (lambda: toy_config(horizon=600, schedule=_KESTEN), 64),
    "toy-kesten-stride-7": (lambda: toy_config(horizon=600, stride=7, schedule=_KESTEN), 64),
    "toy-halts": (lambda: toy_config(c0=1e13, horizon=600), 64),
}


@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize("case", sorted(STREAMED))
def test_streamed_csv_does_not_change_outputs(tmp_path, monkeypatch, deadline, case, replicas):
    make, block = STREAMED[case]
    cfg = make()
    if callable(block):
        halt = _halt_of_replica_0(cfg)
        assert halt is not None and halt > 2
        block = block(halt)
    monkeypatch.setattr(simulator, "_BLOCK_STEPS", block)
    put = simulator._Feed.put
    puts = []

    def counted_put(self, item):
        puts.append(item)
        put(self, item)

    monkeypatch.setattr(simulator._Feed, "put", counted_put)
    outputs = []
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        path = tmp_path / f"trajectory-{workers}.csv"
        puts.clear()
        summary = run_replicas(cfg, replicas, csv_path=path)
        assert isinstance(summary, simulator.ReplicaSummary)  # and no trajectory
        # one slice per replica, except the toy engine's one: a writer is
        # forked while a core is left idle
        slices = 1 if cfg.kind == "toy" else min(replicas, workers)
        assert bool(puts) == (slices < workers)
        outputs.append((json.dumps(summary._asdict(), indent=2, sort_keys=True), path.read_bytes()))
        assert_no_child_left()
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    _, kept = run_kept(cfg, replicas)
    kept.to_csv(tmp_path / "kept.csv")
    assert outputs[0][1] == (tmp_path / "kept.csv").read_bytes()


@pytest.mark.parametrize("name", ["coerced", "am-2d", "toy"])
def test_cli_outputs_of_a_streamed_run_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, name):
    if name.endswith("-2d"):
        doc = mv_run_doc(name[: -len("-2d")], horizon=2000, replicas=1)
    else:
        doc = json.loads(resolve_config_path(name).read_text())
        doc["run"].update(horizon=2000, replicas=1)
        doc.pop("verify", None)
    path = write_config(tmp_path, doc)
    outputs = []
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        out = tmp_path / f"out-{workers}"
        assert main(["run", str(path), "--out", str(out)]) == 0
        outputs.append({f: (out / f).read_bytes() for f in ("summary.json", "trajectory.csv")})
        assert_no_child_left()
    assert outputs[1] == outputs[0]


def test_a_writer_exception_is_raised_with_its_type_and_message(tmp_path, monkeypatch, deadline):
    parent = os.getpid()
    csv_rows = simulator._csv_rows

    def fail_in_writer(cols):
        if os.getpid() != parent:
            raise OSError("disk full")
        return csv_rows(cols)

    force_workers(monkeypatch, 2)
    monkeypatch.setattr(simulator, "_csv_rows", fail_in_writer)
    path = tmp_path / "trajectory.csv"
    with pytest.raises(OSError) as exc:
        run_replicas(srwm_1d_config(horizon=3000), 1, csv_path=path)
    assert os.getpid() == parent
    assert type(exc.value) is OSError and str(exc.value) == "disk full"
    assert_no_child_left()
    assert not path.exists()  # no partly written trajectory is left behind


def test_a_failure_in_the_streamed_loop_reaps_the_writer(tmp_path, monkeypatch, deadline):
    line_blocks = simulator._line_blocks

    def fail_after_three_blocks(config, rng):
        for n, blk in enumerate(line_blocks(config, rng)):
            if n == 3:
                raise ZeroDivisionError("step 130 cannot run")
            yield blk

    force_workers(monkeypatch, 2)
    monkeypatch.setattr(simulator, "_BLOCK_STEPS", 64)
    monkeypatch.setattr(simulator, "_line_blocks", fail_after_three_blocks)
    path = tmp_path / "trajectory.csv"
    with pytest.raises(ZeroDivisionError, match="^step 130 cannot run$"):
        run_replicas(srwm_1d_config(), 1, csv_path=path)
    assert_no_child_left()
    assert not path.exists()


def test_a_job_worker_does_not_hold_the_feed_open(tmp_path, deadline):
    # the job outlasts this process's own work: it waits until the feed has
    # seen the end of its input, which it never would while any worker
    # held the write end of its pipe
    ended = tmp_path / "feed-ended"

    def job():
        give_up = time.monotonic() + 10.0
        while not ended.exists():
            if time.monotonic() > give_up:
                return b"the feed never saw its end"
            time.sleep(0.01)
        return b"done"

    def feed(items):
        ended.write_text(repr(list(items)))

    def own(sink):
        sink.put(("block", 1))
        sink.put(b"text")
        return "own"

    got = []
    assert simulator._fork_map([job], own, lambda stream: got.append(stream.read()), feed) == "own"
    assert got == [b"done"]
    assert ended.read_text() == "[('block', 1), b'text']"
    assert_no_child_left()
