"""Worker processes: ``run`` splits srwm replicas and ``trajectory.csv``
rows over forked workers.  The outputs must not depend on how many, and no
worker may outlive the call, deadlock it, or return into its caller."""

import dataclasses
import json
import os
import signal

import pytest

from driftlab import simulator
from driftlab.adaptation import RULE_AM, RULE_COERCED, PolynomialSchedule
from driftlab.cli import main, resolve_config_path
from driftlab.kernels import FAMILY_GAUSSIAN, FAMILY_STUDENT
from driftlab.simulator import run_replicas

from test_config_cli import mv_run_doc, write_config
from test_simulator import mv_config, srwm_1d_config, synthetic_trajectory

# At step 1 the stepsize is huge, after it negligible (a = 40), so each
# replica halts at step 1 or never, by its own first draw.
_SCALAR_STEP_1 = PolynomialSchedule(c0=2e12, c1=0.0, a=40.0)
_AM_1D_STEP_1 = PolynomialSchedule(c0=1.5, c1=0.0, a=40.0)
_COERCED_2D_STEP_1 = PolynomialSchedule(c0=1e13, c1=0.0, a=40.0)

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
CASES = {
    ("scalar-1d", "plain"): ({}, {}, "....."),
    ("scalar-1d", "stride-7"): STRIDE_7,
    ("scalar-1d", "replica-0-halts"): ({"schedule": _SCALAR_STEP_1}, {"seed": 9}, "D.D.."),
    ("scalar-1d", "worker-replica-diverges"): ({"schedule": _SCALAR_STEP_1}, {"seed": 5}, "....D"),
    ("am-1d", "plain"): ({}, {}, "....."),
    ("am-1d", "stride-7"): STRIDE_7,
    ("am-1d", "replica-0-halts"): ({"schedule": _AM_1D_STEP_1}, {"seed": 13}, "D...."),
    ("am-1d", "worker-replica-diverges"): ({"schedule": _AM_1D_STEP_1}, {"seed": 1}, "...D."),
    ("am-2d", "plain"): ({}, {}, "....."),
    ("am-2d", "stride-7"): STRIDE_7,
    # the covariance passes THETA_MAX at step 1 in every replica
    ("am-2d", "every-replica-halts"): ({"x0": 1e7}, {}, "DDDDD"),
    ("am-2d-student", "plain"): ({}, {}, "....."),
    ("am-2d-student", "stride-7"): STRIDE_7,
    ("am-3d", "plain"): ({}, {}, "....."),
    ("am-3d", "stride-7"): STRIDE_7,
    ("coerced-2d", "plain"): ({}, {}, "....."),
    ("coerced-2d", "stride-7"): STRIDE_7,
    ("coerced-2d", "replica-0-halts"): ({"schedule": _COERCED_2D_STEP_1}, {"seed": 10}, "D.DDD"),
    ("coerced-2d", "worker-replica-diverges"): ({"schedule": _COERCED_2D_STEP_1}, {"seed": 22}, "..D.D"),
}


def force_workers(monkeypatch, n: int) -> None:
    """Split every run and every CSV over ``n`` workers, however small."""
    monkeypatch.setattr(simulator, "_usable_cores", lambda: n)
    monkeypatch.setattr(simulator, "_MIN_WORKER_STEPS", 1)
    monkeypatch.setattr(simulator, "_MIN_WORKER_ROWS", 1)


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


def test_runs_below_the_break_even_stay_serial(monkeypatch):
    def refuse(*args):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(simulator, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", refuse)
    cfg = srwm_1d_config(horizon=simulator._MIN_WORKER_STEPS // 2 - 1)
    summary, first = run_replicas(cfg, 2, keep_first_trajectory=True)
    assert first.index.shape[0] < 2 * simulator._MIN_WORKER_ROWS
    first.to_csv(os.devnull)


@pytest.mark.parametrize("path, case", sorted(CASES), ids=lambda v: v)
def test_worker_count_does_not_change_outputs(tmp_path, monkeypatch, path, case):
    arguments, fields, diverged = CASES[path, case]
    cfg = dataclasses.replace(PATHS[path](**arguments), horizon=600, **fields)
    outputs = []
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        summary, first = run_replicas(cfg, 5, keep_first_trajectory=True)
        first.to_csv(tmp_path / f"trajectory-{workers}.csv")
        outputs.append((json.dumps(summary.to_json_dict(), indent=2, sort_keys=True),
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

    def fail_in_worker(config, rngs, keep_first=True, replica=0):
        if replica == 2:
            raise ZeroDivisionError("replica 2 cannot run")
        return run_srwm(config, rngs, keep_first, replica)

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
    traj = synthetic_trajectory(30_000, 2, 6, True)
    csv_blocks = simulator.Trajectory._csv_blocks

    def fail_own_slice(self, part):
        if part.start == 0:
            raise OSError("disk full")
        return csv_blocks(self, part)

    force_workers(monkeypatch, 3)
    monkeypatch.setattr(simulator.Trajectory, "_csv_blocks", fail_own_slice)
    with pytest.raises(OSError, match="^disk full$"):
        traj.to_csv(tmp_path / "trajectory.csv")
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
