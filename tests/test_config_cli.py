"""Config schema, builders, CLI orchestration, and plot-data extraction."""
import atexit
import csv
import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import driftlab
import driftlab.cli as cli
from driftlab.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_VERIFY,
    PLOT_KINDS,
    emit_plot_data,
    list_presets,
    main,
    resolve_config_path,
    run_check,
    run_experiment,
)
from driftlab.config import (
    ConfigError,
    build_chain_config,
    build_grid,
    build_proposal,
    load_config,
    n_replicas,
    validate_document,
)
from driftlab.targets import BULK_ALPHA_MIN

PRESET_NAMES = ["am-gaussian-1d", "am-subexp-1d", "coerced", "fast-coerced", "toy"]


def write_config(tmp_path: Path, doc: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def toy_run_doc(c0: float = 100.0, horizon: int = 2000, replicas: int = 2) -> dict:
    return {
        "adaptation": {"rule": "toy_mean"},
        "schedule": {"kind": "polynomial", "c0": c0, "c1": 0.0, "a": 1.0},
        "run": {
            "kind": "toy",
            "horizon": horizon,
            "replicas": replicas,
            "seed": 7,
            "theta0": 0.0,
            "x0": 0,
            "recurrence": {"m": 2501.0, "r": 1.5},
        },
    }


def mv_run_doc(rule: str, horizon: int = 300, replicas: int = 2) -> dict:
    """A correlated 2-D Gaussian target with a Gaussian proposal under the
    running-moments ("am") or the coerced rule."""
    doc = {
        "target": {
            "name": "gaussian",
            "params": {"dim": 2, "mean": [1.0, -1.0], "cov": [[1.0, 0.8], [0.8, 2.0]]},
        },
        "schedule": {"kind": "polynomial", "c0": 0.5, "c1": 10.0, "a": 0.6},
        "lyapunov": {"eta": 0.5},
        "run": {
            "kind": "srwm",
            "horizon": horizon,
            "replicas": replicas,
            "seed": 11,
            "recurrence": {"m": 1000.0, "r": 10.0},
        },
    }
    if rule == "am":
        doc["proposal"] = {"family": "gaussian", "parametrization": "am_covariance"}
        doc["adaptation"] = {"rule": "am"}
        doc["run"]["theta0"] = {"mu": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
    else:
        doc["proposal"] = {"family": "gaussian", "parametrization": "scalar_log_scale"}
        doc["adaptation"] = {"rule": "coerced", "alpha_star": 0.44}
        doc["run"]["theta0"] = 0.0
    return doc


def am_1d_doc(schedule: dict) -> dict:
    return {
        "target": {"name": "gaussian", "params": {"dim": 1}},
        "proposal": {"family": "gaussian", "parametrization": "am_covariance"},
        "adaptation": {"rule": "am"},
        "schedule": schedule,
        "run": {"kind": "srwm", "horizon": 100, "seed": 3, "theta0": {"mu": [0.0], "cov": [[1.0]]}},
    }


def fixed_theta_doc(x_grid, center_radius: float = 5.0) -> dict:
    return {
        "target": {"name": "gaussian", "params": {"dim": 1}},
        "proposal": {"family": "uniform", "parametrization": "scalar_log_scale"},
        "adaptation": {"rule": "coerced", "alpha_star": 0.44},
        "lyapunov": {"eta": 0.5, "scenario": "coerced", "iota": 1.0, "gamma_max": 0.05},
        "verify": {
            "checks": ["fixed_theta_drift"],
            "x_grid": list(x_grid),
            "theta_grid": [0.0],
            "center_radius": center_radius,
        },
    }


# ---------------------------------------------------------------------------
# schema


def test_all_shipped_presets_validate():
    for name in PRESET_NAMES:
        doc = load_config(resolve_config_path(name))
        assert isinstance(doc, dict)


def test_unknown_key_rejected_with_field_path():
    doc = toy_run_doc()
    doc["run"]["bogus"] = 1
    with pytest.raises(ConfigError) as exc:
        validate_document(doc)
    assert exc.value.json_path == "run"
    assert "bogus" in str(exc.value)


def test_unknown_top_level_section_rejected():
    with pytest.raises(ConfigError) as exc:
        validate_document({"mystery": {}})
    assert "mystery" in str(exc.value)


def test_replicas_zero_names_run_replicas():
    doc = toy_run_doc(replicas=0)
    with pytest.raises(ConfigError) as exc:
        validate_document(doc)
    assert exc.value.json_path == "run.replicas"


def test_bad_enum_value_names_field():
    doc = toy_run_doc()
    doc["schedule"]["kind"] = "exponential"
    with pytest.raises(ConfigError) as exc:
        validate_document(doc)
    assert exc.value.json_path == "schedule.kind"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "nope.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_load_config_root_must_be_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root must be a JSON object"):
        load_config(path)


def test_missing_section_for_operation():
    doc = toy_run_doc()
    doc["run"]["kind"] = "srwm"  # srwm needs target/proposal sections
    with pytest.raises(ConfigError) as exc:
        build_chain_config(doc)
    assert exc.value.json_path in ("target", "adaptation", "run")
    with pytest.raises(ConfigError) as exc:
        build_chain_config({})
    assert exc.value.json_path == "run"


def test_uniform_proposal_needs_one_dimensional_target(tmp_path):
    doc = mv_run_doc("coerced")
    doc["proposal"]["family"] = "uniform"
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.json_path == "proposal.family"
    with pytest.raises(ConfigError) as exc:
        build_proposal(doc)
    assert exc.value.json_path == "proposal.family"
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "schedule",
    [
        # gamma_1 = 5: the 1-D running-moments path used to report a negative
        # "covariance" with no diverged replica on this schedule
        {"kind": "polynomial", "c0": 5.0, "c1": 0.0, "a": 1.0},
        {"kind": "polynomial", "c0": 3.0, "c1": 1.0, "a": 0.5},
        {"kind": "kesten", "c0": 1.5, "a": 0.6},
    ],
)
def test_am_first_stepsize_above_one_rejected(tmp_path, schedule):
    path = write_config(tmp_path, am_1d_doc(schedule))
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.json_path == "schedule"
    assert "first stepsize" in str(exc.value)


def test_first_stepsize_limit_is_am_only():
    # gamma_1 = 5 / (4 + 1) = 1 exactly is allowed
    validate_document(am_1d_doc({"kind": "polynomial", "c0": 5.0, "c1": 4.0, "a": 1.0}))
    validate_document(am_1d_doc({"kind": "kesten", "c0": 1.0}))
    # the toy and coerced rules keep their large gains
    validate_document(toy_run_doc(c0=1e12))
    coerced = mv_run_doc("coerced")
    coerced["schedule"] = {"kind": "polynomial", "c0": 5.0, "c1": 0.0, "a": 1.0}
    validate_document(coerced)


def test_srwm_record_stride_thins_only_the_trajectory(tmp_path):
    # srwm statistics see every step at any stride, as toy ones do: the
    # coerced preset (1-D) and the 2-D AM config of the benchmark
    coerced = json.loads(resolve_config_path("coerced").read_text())
    coerced["run"].update(horizon=1000, replicas=3)
    for name, doc in (("coerced", coerced), ("am-2d", mv_run_doc("am", horizon=300, replicas=3))):
        out = {}
        for stride in (1, 7):
            doc["run"]["record_stride"] = stride
            out[stride] = tmp_path / f"{name}-{stride}"
            path = write_config(tmp_path, doc, f"{name}-{stride}.json")
            assert main(["run", str(path), "--out", str(out[stride])]) == EXIT_OK
        horizon = doc["run"]["horizon"]
        summaries = [json.loads((out[k] / "summary.json").read_text()) for k in (1, 7)]
        assert summaries[0]["summary"] == summaries[1]["summary"]
        for summary in summaries:
            summary["config"]["run"].pop("record_stride")
        assert summaries[0] == summaries[1]
        with open(out[1] / "trajectory.csv", newline="") as fh:
            every = list(csv.reader(fh))
        with open(out[7] / "trajectory.csv", newline="") as fh:
            thinned = list(csv.reader(fh))
        assert thinned[0] == every[0]
        assert [int(r[0]) for r in thinned[1:]] == list(range(0, horizon, 7)) + [horizon]
        assert thinned[1:] == [every[1 + int(r[0])] for r in thinned[1:]]


@pytest.mark.parametrize(
    "preset, weight",
    [("toy", "am_poly"), ("coerced", "am_poly"), ("am-gaussian-1d", "exp_abs")],
)
def test_weight_that_does_not_fit_the_rule_rejected(tmp_path, preset, weight):
    # these used to load, then `run` died with a raw ValueError
    doc = json.loads(resolve_config_path(preset).read_text())
    doc.setdefault("lyapunov", {})["weight"] = weight
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.json_path == "lyapunov.weight"
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_weights_that_fit_the_rule_accepted():
    for rule, weights in (("am", ["am_poly"]), ("coerced", ["exp_abs", "one_plus_square"])):
        for weight in weights:
            doc = mv_run_doc(rule)
            doc["lyapunov"]["weight"] = weight
            validate_document(doc)
    toy = toy_run_doc()
    toy["lyapunov"] = {"weight": "exp_abs"}
    validate_document(toy)


def test_quadrature_method_with_compound_drift_rejected(tmp_path):
    # compound_drift used to switch to Monte Carlo without a word
    doc = json.loads(resolve_config_path("coerced").read_text())
    doc["verify"]["method"] = "quadrature"
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.json_path == "verify.method"
    assert main(["verify", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_compound_drift_without_method_runs_monte_carlo(tmp_path):
    doc = json.loads(resolve_config_path("coerced").read_text())
    del doc["verify"]["method"]
    validate_document(doc)
    report = run_check("compound_drift", doc)
    assert report.to_json_dict()["grid"]["method"] == "monte_carlo"
    doc["verify"]["checks"] = ["fixed_theta_drift"]
    doc["verify"]["method"] = "quadrature"
    validate_document(doc)


_GAUSSIAN_2D = {"name": "gaussian", "params": {"dim": 2}}
_SCALAR_GAUSSIAN = {"family": "gaussian", "parametrization": "scalar_log_scale"}
_SCALAR_STUDENT = {"family": "student", "parametrization": "scalar_log_scale"}


@pytest.mark.parametrize(
    "preset, check, method, sections, json_path",
    [
        pytest.param("coerced", "fixed_theta_drift", "quadrature", {"proposal": _SCALAR_STUDENT},
                     "verify.method", id="student-quadrature"),
        pytest.param("coerced", "fixed_theta_drift", "quadrature",
                     {"target": _GAUSSIAN_2D, "proposal": _SCALAR_GAUSSIAN},
                     "verify.method", id="dim-2-fixed-theta-quadrature"),
        pytest.param("coerced", "w_drift", "quadrature",
                     {"target": _GAUSSIAN_2D, "proposal": _SCALAR_GAUSSIAN},
                     "verify.method", id="dim-2-w-drift-quadrature"),
        pytest.param("coerced", "w_drift", "quadrature", {"proposal": _SCALAR_GAUSSIAN},
                     "verify.method", id="scalar-rule-gaussian-w-drift-quadrature"),
        # V(y) = pi(y)**(-1/2) overflows on this grid's windows; alpha * V(y)
        # does not
        pytest.param("coerced", "fixed_theta_drift", "quadrature", {}, None,
                     id="coerced-fixed-theta-quadrature"),
        pytest.param("coerced", "fixed_theta_drift", "monte_carlo", {}, None,
                     id="coerced-fixed-theta-monte-carlo"),
        pytest.param("am-subexp-1d", "w_drift", "quadrature", {}, None, id="am-w-drift-quadrature"),
    ],
)
def test_drift_check_configs_run_or_name_a_path(tmp_path, preset, check, method, sections, json_path):
    doc = json.loads(resolve_config_path(preset).read_text())
    doc.update(sections)
    doc["verify"].update(checks=[check], method=method)
    path = write_config(tmp_path, doc)
    if json_path is not None:
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.json_path == json_path
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_check(check, load_config(path))
    assert report.rows
    assert all(math.isfinite(row.lhs) for row in report.rows)


def test_decomposition_on_a_gaussian_target_has_finite_rows():
    # far out in a Gaussian tail the acceptance underflows to 0 while
    # V(y)/V(x) overflows; their product was nan and the check died in the
    # quadrature
    doc = edited("coerced", {"verify.checks": ["decomposition"]})
    validate_document(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_check("decomposition", doc)
    assert report.rows
    assert all(math.isfinite(v) for row in report.rows for v in (row.lhs, row.rhs, row.margin))


def test_quadrature_w_drift_without_proposal_names_the_section(tmp_path):
    doc = json.loads(resolve_config_path("coerced").read_text())
    del doc["proposal"]
    doc["verify"].update(checks=["w_drift"], method="quadrature")
    with pytest.raises(ConfigError) as exc:
        run_check("w_drift", load_config(write_config(tmp_path, doc)))
    assert exc.value.json_path == "proposal"


@pytest.mark.parametrize("method", ["monte_carlo", "quadrature"])
def test_w_drift_past_the_float_range_fails_its_rows(tmp_path, capsys, method):
    # w_eps = 999 puts the am_poly weight of the updated moments past the
    # float range: rows fail with margin -inf, where the check used to die
    # with a raw ValueError
    doc = json.loads(resolve_config_path("am-subexp-1d").read_text())
    doc["lyapunov"]["w_eps"] = 999
    doc["verify"].update(checks=["w_drift"], method=method)
    path = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", str(path), "--out", str(tmp_path / "out")]) == EXIT_VERIFY
    report = json.loads((tmp_path / "out" / "report-w_drift.json").read_text())
    assert report["pass"] is False and report["worst_point"]["margin"] == "-inf"
    assert all(row["lhs"] == "inf" and not row["pass"] for row in report["rows"] if row["margin"] == "-inf")
    assert "w_drift  FAIL    -inf" in capsys.readouterr().out


@pytest.mark.parametrize("method, checks", [
    ("monte_carlo", ["fixed_theta_drift", "compound_drift"]),
    ("quadrature", ["fixed_theta_drift"]),
])
def test_proposals_where_pi_is_zero_add_only_their_rejected_term(tmp_path, method, checks):
    # at theta = 650 almost every proposal lands where log pi = -inf, and
    # alpha * V(y) was exp(-inf + inf): a raw ValueError and nan compound
    # rows by Monte Carlo, an OverflowError in the quadrature
    doc = edited("coerced", {"run": DELETE, "verify.theta_grid": [650.0], "verify.checks": checks,
                             "verify.method": method})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(write_config(tmp_path, doc)), "--out", str(out)]) in (EXIT_OK, EXIT_VERIFY)
    for check in checks:
        rows = json.loads((out / f"report-{check}.json").read_text())["rows"]
        assert rows and all(isinstance(row["lhs"], float) and math.isfinite(row["lhs"]) for row in rows)


def test_toy_record_stride_thins_only_the_trajectory(tmp_path):
    every = toy_run_doc(horizon=100, replicas=3)
    thinned = toy_run_doc(horizon=100, replicas=3)
    thinned["run"]["record_stride"] = 7
    out_every, out_thinned = tmp_path / "every", tmp_path / "thinned"
    assert main(["run", str(write_config(tmp_path, every, "every.json")), "--out", str(out_every)]) == EXIT_OK
    assert main(["run", str(write_config(tmp_path, thinned, "thinned.json")), "--out", str(out_thinned)]) == EXIT_OK
    with open(out_thinned / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [int(r[0]) for r in rows] == list(range(0, 100, 7)) + [100]
    with open(out_every / "trajectory.csv", newline="") as fh:
        every_rows = list(csv.reader(fh))[1:]
    assert rows == [every_rows[int(r[0])] for r in rows]
    # the statistics still see every step
    summary = json.loads((out_thinned / "summary.json").read_text())["summary"]
    assert summary == json.loads((out_every / "summary.json").read_text())["summary"]


def test_build_grid_defaults():
    grid = build_grid({})
    assert grid.x_grid == (0.0,)
    assert grid.method == "quadrature"


# ---------------------------------------------------------------------------
# preset resolution and replica overrides


def test_list_presets_names():
    assert list_presets() == PRESET_NAMES


def test_resolve_config_path_accepts_literal_file(tmp_path):
    path = write_config(tmp_path, toy_run_doc())
    assert resolve_config_path(str(path)) == path


def test_resolve_config_path_accepts_preset_name():
    for name in ("toy", "toy.json"):
        resolved = resolve_config_path(name)
        assert resolved.name == "toy.json"
        assert resolved.exists()


def test_resolve_config_path_unknown_lists_presets():
    with pytest.raises(ConfigError) as exc:
        resolve_config_path("no-such-thing")
    message = str(exc.value)
    for name in PRESET_NAMES:
        assert name in message


def test_n_replicas_override():
    doc = toy_run_doc(replicas=7)
    assert n_replicas(doc) == 7
    assert n_replicas(doc, override=3) == 3
    with pytest.raises(ConfigError) as exc:
        n_replicas(doc, override=0)
    assert exc.value.json_path == "run.replicas"


# ---------------------------------------------------------------------------
# run_experiment exit codes and artifacts


def test_toy_verify_only_single_report_exit_zero(tmp_path, capsys):
    doc = {"verify": {"checks": ["toy"], "toy_theta_grid": [-2, 0, 2]}}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run_experiment(path, out=str(out)) == EXIT_OK
    written = sorted(p.name for p in out.iterdir())
    assert written == ["report-toy.json"]
    report = json.loads((out / "report-toy.json").read_text())
    assert report["check"] == "toy"
    assert report["pass"] is True
    assert {"point", "lhs", "rhs", "margin", "se", "pass"} <= set(report["rows"][0])
    assert "toy" in capsys.readouterr().out


def test_diverged_replica_exit_two_files_still_written(tmp_path):
    doc = toy_run_doc(c0=1e12, horizon=300)
    doc["output"] = {"formats": ["csv", "json"]}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run_experiment(path, out=str(out)) == EXIT_DIVERGED
    assert (out / "trajectory.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["summary"]["aggregate"]["diverged_count"] >= 1


def test_failed_verification_exit_three_files_still_written(tmp_path):
    # a tail point next to the mode, where the state drift genuinely fails
    doc = fixed_theta_doc(x_grid=[0.01], center_radius=0.001)
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run_experiment(path, out=str(out)) == EXIT_VERIFY
    report = json.loads((out / "report-fixed_theta_drift.json").read_text())
    assert report["pass"] is False


def test_exit_code_is_max_severity(tmp_path):
    doc = toy_run_doc(c0=1e12, horizon=300)
    doc["verify"] = {"checks": ["toy"], "toy_theta_grid": [0]}
    path = write_config(tmp_path, doc)
    code = run_experiment(path, out=str(tmp_path / "out"))
    assert code == EXIT_DIVERGED  # diverged (2) outranks passing verify (0)


def test_seed_override_only_touches_existing_sections(tmp_path):
    doc = fixed_theta_doc(x_grid=[6.0, 10.0])
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run_experiment(path, seed=123, out=str(out)) == EXIT_OK
    report = json.loads((out / "report-fixed_theta_drift.json").read_text())
    assert report["grid"]["seed"] == 123
    # no run section existed, so nothing was simulated or fabricated
    assert not (out / "trajectory.csv").exists()
    assert not (out / "summary.json").exists()


def test_replica_override_reflected_in_summary(tmp_path):
    doc = toy_run_doc(horizon=500, replicas=5)
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run_experiment(path, out=str(out), replicas=3) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["summary"]["per_replica"]) == 3


def test_rerun_same_seed_byte_identical(tmp_path):
    doc = toy_run_doc(horizon=500, replicas=2)
    path = write_config(tmp_path, doc)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_experiment(path, out=str(a)) == EXIT_OK
    assert run_experiment(path, out=str(b)) == EXIT_OK
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


@pytest.mark.parametrize(
    "rule, param_columns",
    [
        ("am", ["mu_1", "mu_2", "cov_11", "cov_12", "cov_21", "cov_22"]),
        ("coerced", ["theta_1"]),
    ],
)
def test_two_dimensional_run_columns_and_rerun_identical(tmp_path, rule, param_columns):
    # a 2-D target takes the generic multivariate path of the simulator
    path = write_config(tmp_path, mv_run_doc(rule))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_experiment(path, out=str(a)) == EXIT_OK
    assert run_experiment(path, out=str(b)) == EXIT_OK
    with open(a / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][: len(param_columns) + 3] == ["i", *param_columns, "x_1", "x_2"]
    assert len(rows) == 1 + 301
    summary = json.loads((a / "summary.json").read_text())["summary"]
    assert len(summary["per_replica"]) == 2
    assert summary["aggregate"]["diverged_count"] == 0
    for name in ("trajectory.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_check_unknown_name():
    with pytest.raises(ConfigError) as exc:
        run_check("spectral_gap", {})
    assert exc.value.json_path == "verify.checks"


def test_run_check_calls_the_function_set_on_cli(monkeypatch, tmp_path):
    calls = []
    verify_toy = cli.verify_toy

    def wrapper(*args):
        calls.append(args)
        return verify_toy(*args)

    monkeypatch.setattr(cli, "verify_toy", wrapper)
    doc = {"verify": {"checks": ["toy"], "toy_theta_grid": [0.0, 1.0]}}
    assert run_check("toy", doc).passed
    assert calls == [((0.0, 1.0),)]
    assert run_experiment(write_config(tmp_path, doc), out=str(tmp_path / "out"), simulate=False) == EXIT_OK
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# plot-data extraction


def write_trajectory(tmp_path: Path, theta_col: str = "theta_1") -> Path:
    path = tmp_path / "trace.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", theta_col, "x", "accepted"])
        w.writerow([0, "0.0", "0.0", "False"])
        for i in range(1, 9):
            w.writerow([i, repr(0.1 * i), repr(float(i)), "True" if i % 2 else "False"])
    return path


def test_theta_trace_two_columns(tmp_path):
    src = write_trajectory(tmp_path)
    dst = emit_plot_data(src, "theta-trace")
    with open(dst, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "theta"]
    assert rows[1] == ["0", "0.0"]
    assert rows[3] == ["2", "0.2"]
    assert len(rows) == 10


def test_theta_trace_uses_am_mean_column(tmp_path):
    src = write_trajectory(tmp_path, theta_col="mu_1")
    dst = emit_plot_data(src, "theta-trace", out_path=tmp_path / "mu.csv")
    with open(dst, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["i", "theta"]


def test_theta_trace_requires_parameter_column(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("i,x\n0,0.0\n")
    with pytest.raises(ConfigError, match="theta_1 or mu_1"):
        emit_plot_data(path, "theta-trace")


def test_acceptance_rolling_drops_initial_row_and_averages(tmp_path):
    src = write_trajectory(tmp_path)
    dst = emit_plot_data(src, "acceptance-rolling", window=3)
    with open(dst, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "rolling_acceptance"]
    # flags at i=1..8 are T,F,T,F,T,F,T,F; first full window ends at i=3
    assert rows[1][0] == "3"
    assert float(rows[1][1]) == pytest.approx(2.0 / 3.0)
    assert float(rows[2][1]) == pytest.approx(1.0 / 3.0)
    assert len(rows) == 1 + 6


def test_a_run_in_compound_mode_u_records_gamma_times_w(tmp_path):
    # lyapunov.compound_mode "U" records U = gamma_i * (V**uv + w**uw / gamma_i)
    doc = json.loads(resolve_config_path("coerced").read_text())
    doc["run"].update(horizon=300, replicas=1)
    doc.pop("verify", None)
    doc["lyapunov"].update(compound_mode="U", upsilon_v=0.5, upsilon_w=0.7)
    out = tmp_path / "out"
    assert run_experiment(write_config(tmp_path, doc), out=str(out)) == EXIT_OK
    with open(out / "trajectory.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    gm, v, w, u = ([float(r[header.index(name)]) for r in rows] for name in ("gamma_i", "V", "w", "W"))
    assert len(u) == 301
    assert u == [g * (a**0.5 + b**0.7 / g) for g, a, b in zip(gm, v, w)]
    assert all(x != a**0.5 + b**0.7 / g for g, a, b, x in zip(gm, v, w, u))


def test_acceptance_rolling_of_a_run_matches_the_accepted_column(tmp_path):
    # trajectory.csv writes the flag as 1/0
    doc = json.loads(resolve_config_path("coerced").read_text())
    doc["run"].update(horizon=400, replicas=1)
    doc.pop("verify", None)
    out = tmp_path / "out"
    assert run_experiment(write_config(tmp_path, doc), out=str(out)) == EXIT_OK
    with open(out / "trajectory.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    i_col, a_col = header.index("i"), header.index("accepted")
    flags = [float(r[a_col]) for r in rows if int(r[i_col]) > 0]
    assert len(flags) == 400 and 0.0 < sum(flags) < 400
    dst = emit_plot_data(out / "trajectory.csv", "acceptance-rolling", window=len(flags))
    with open(dst, newline="") as fh:
        plotted = list(csv.reader(fh))
    assert plotted == [["i", "rolling_acceptance"], ["400", repr(sum(flags) / len(flags))]]


def test_drift_margin_columns(tmp_path):
    report = {
        "rows": [
            {"point": {"theta": 0.0, "x": 6.0}, "margin": -0.5, "se": 0.0},
            {"point": {"sigma": 10.0, "x": 20.0}, "margin": 0.25, "se": 0.01},
            # e**theta raised OverflowError from theta = 710 on
            {"point": {"theta": 800.0, "x": 3.0}, "margin": "-inf", "se": 0.0},
            {"point": {"theta": 650.0, "x": 0.0}, "margin": 0.0, "se": 0.0},
        ]
    }
    src = tmp_path / "report.json"
    src.write_text(json.dumps(report))
    dst = emit_plot_data(src, "drift-margin")
    with open(dst, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "sigma", "margin", "se"]
    assert rows[1] == ["6.0", "1.0", "-0.5", "0.0"]
    assert rows[2] == ["20.0", "10.0", "0.25", "0.01"]
    assert rows[3] == ["3.0", "inf", "-inf", "0.0"]
    assert rows[4] == ["0.0", repr(math.exp(650.0)), "0.0", "0.0"]


def test_drift_margin_of_running_moments_has_no_sigma(tmp_path):
    # am-subexp-1d's fixed_theta_drift rows are at running moments {mu, cov},
    # which name no proposal scale
    doc = json.loads(resolve_config_path("am-subexp-1d").read_text())
    doc.pop("run")
    doc["verify"]["checks"] = ["fixed_theta_drift"]
    out = tmp_path / "out"
    assert main(["verify", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report-fixed_theta_drift.json").read_text())
    dst = tmp_path / "margin.csv"
    assert main(["plot", str(out / "report-fixed_theta_drift.json"), "--kind", "drift-margin",
                 "--out", str(dst)]) == EXIT_OK
    with open(dst, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["x", "sigma", "margin", "se"]
    assert len(report["rows"]) == 18 and all(row["point"].keys() >= {"mu", "cov"} for row in report["rows"])
    assert rows == [[repr(row["point"]["x"]), "", repr(row["margin"]), repr(row["se"])] for row in report["rows"]]


def test_unknown_plot_kind_lists_available(tmp_path):
    src = write_trajectory(tmp_path)
    with pytest.raises(ConfigError) as exc:
        emit_plot_data(src, "histogram")
    message = str(exc.value)
    for kind in PLOT_KINDS:
        assert kind in message


def test_plot_missing_input():
    with pytest.raises(ConfigError, match="does not exist"):
        emit_plot_data("/nonexistent/trace.csv", "theta-trace")


@pytest.fixture(scope="module")
def fast_coerced_run(tmp_path_factory) -> Path:
    """The output directory of a short ``run fast-coerced`` without checks,
    with three malformed inputs beside its outputs."""
    tmp = tmp_path_factory.mktemp("fast-coerced")
    doc = json.loads(resolve_config_path("fast-coerced").read_text())
    doc["run"].update(horizon=200, replicas=1)
    doc.pop("verify", None)
    out = tmp / "out"
    assert run_experiment(write_config(tmp, doc), out=str(out)) == EXIT_OK
    (out / "rows.json").write_text('{"rows": [1]}')
    (out / "ragged.csv").write_text("i,accepted\n1,1\n2\n")
    (out / "steps.csv").write_text("i,accepted\n1,1\nx,0\n")
    return out


@pytest.mark.parametrize(
    "input_name, options, message",
    [
        ("trajectory.csv", ["--kind", "acceptance-rolling", "--window", "0"], "--window must be at least 1, not 0"),
        ("trajectory.csv", ["--kind", "acceptance-rolling", "--window", "-5"], "--window must be at least 1, not -5"),
        ("summary.json", ["--kind", "drift-margin"], "summary.json' is not a verification report"),
        ("trajectory.csv", ["--kind", "drift-margin"], "trajectory.csv' is not JSON"),
        ("summary.json", ["--kind", "acceptance-rolling"], "summary.json' has no i column"),
        ("trajectory.csv", ["--kind", "theta-trace", "--out", "{run}"], "(--out) is a directory"),
        ("rows.json", ["--kind", "drift-margin"], "rows.json' is not a verification report"),
        ("ragged.csv", ["--kind", "acceptance-rolling"], "ragged.csv' has 1 fields in row 3, and 2 in its header"),
        ("steps.csv", ["--kind", "acceptance-rolling"], "steps.csv' has a step index i that is not an integer"),
        ("", ["--kind", "theta-trace"], "out' is a directory"),
        ("trajectory.csv", ["--kind", "theta-trace", "--out", "{run}/no-such-dir/plot.csv"],
         "(--out) is in no existing directory"),
    ],
)
def test_plot_rejects_what_it_cannot_read_before_writing(fast_coerced_run, capsys, input_name, options, message):
    # each of these once ended in a raw traceback, or wrote a header alone
    if "--out" not in options:
        options = options + ["--out", "{run}/plot.csv"]
    options = [arg.format(run=fast_coerced_run) for arg in options]
    assert main(["plot", str(fast_coerced_run / input_name), *options]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert sorted(p.name for p in fast_coerced_run.iterdir()) == ["ragged.csv", "rows.json", "steps.csv",
                                                                   "summary.json", "trajectory.csv"]


# ---------------------------------------------------------------------------
# argument parsing and process exit codes


def test_main_presets_command(capsys):
    assert main(["presets"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == PRESET_NAMES


def test_main_unknown_config_exits_one(capsys):
    assert main(["run", "no-such-preset"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_main_plot_prints_destination(tmp_path, capsys):
    src = write_trajectory(tmp_path)
    assert main(["plot", str(src), "--kind", "theta-trace"]) == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("theta-trace.csv")


def test_main_verify_subcommand_skips_simulation(tmp_path, capsys):
    doc = toy_run_doc(horizon=100)
    doc["verify"] = {"checks": ["toy"], "toy_theta_grid": [0]}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["verify", str(path), "--out", str(out)]) == EXIT_OK
    assert not (out / "trajectory.csv").exists()
    assert (out / "report-toy.json").exists()


# ---------------------------------------------------------------------------
# start-up cost: no run or check imports scipy, numpy.ma or a schema library

_SCIPY_PROBE = """
import atexit
import gc
import sys
import driftlab.cli
# registered before main's hook, so it runs after it (last in, first out)
atexit.register(lambda: print("frozen-at-exit", gc.get_freeze_count()))
code = driftlab.cli.main(sys.argv[1:])
print("numpy.ma-modules", sum(1 for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
print("scipy-modules", sum(1 for m in sys.modules if m.startswith("scipy")))
print("jsonschema-modules", sum(1 for m in sys.modules if m.split(".")[0] in ("jsonschema", "referencing", "attrs")))
print("process-pool-modules", sum(1 for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")))
print("simulator-modules", sum(1 for m in sys.modules if m == "driftlab.simulator"))
print("csvfmt-modules", sum(1 for m in sys.modules if m == "driftlab.csvfmt"))
import resource
print("worker-maxrss-kb", resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def run_in_fresh_process(cwd: Path, *args: str, probe: str = _SCIPY_PROBE) -> subprocess.CompletedProcess:
    """``driftlab`` ARGS under ``probe`` in a new interpreter (this one may
    hold scipy already), with the package under test first on the path."""
    src = str(Path(driftlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", probe, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def module_count(proc: subprocess.CompletedProcess, label: str) -> int:
    """The probe's count of loaded ``label`` modules."""
    return int(proc.stdout.rsplit(f"{label}-modules", 1)[1].split()[0])


def frozen_at_exit(proc: subprocess.CompletedProcess) -> int:
    """The probe's count of objects frozen out of the shut-down collections."""
    return int(proc.stdout.rsplit("frozen-at-exit", 1)[1].split()[0])


def test_commands_freeze_the_heap_at_exit(tmp_path):
    # the interpreter's shut-down collections then skip the heap that numpy
    # and driftlab built at import; outputs and exit codes stay the same
    proc = run_in_fresh_process(tmp_path, "verify", "toy", "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[:3] == ["check  result  worst_margin", "-----  ------  ------------",
                                            "toy    PASS    1.000e-12"]
    assert (tmp_path / "out" / "report-toy.json").exists()
    assert frozen_at_exit(proc) > 0
    proc = run_in_fresh_process(tmp_path, "run", "no-such-preset")
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("config error: no config file or preset named 'no-such-preset'")
    assert frozen_at_exit(proc) > 0


def test_main_registers_one_freeze_hook_and_freezes_nothing(monkeypatch, capsys):
    # an in-process caller keeps its collector until it exits; the hook list
    # is modelled here, because atexit._ncallbacks also counts the slots
    # that unregister empties
    hooks = []

    def unregister(func):  # every occurrence goes, as in atexit
        hooks[:] = [h for h in hooks if h != func]

    monkeypatch.setattr(atexit, "register", hooks.append)
    monkeypatch.setattr(atexit, "unregister", unregister)
    assert main(["presets"]) == EXIT_OK
    assert main(["presets"]) == EXIT_OK
    assert hooks == [gc.freeze]
    assert gc.get_freeze_count() == 0


def test_run_without_quadrature_never_imports_scipy(tmp_path):
    doc = json.loads(resolve_config_path("toy").read_text())
    doc["run"].update(horizon=300, replicas=2)
    path = write_config(tmp_path, doc)
    proc = run_in_fresh_process(tmp_path, "run", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert module_count(proc, "scipy") == 0
    assert module_count(proc, "process-pool") == 0
    assert module_count(proc, "jsonschema") == 0
    assert module_count(proc, "simulator") == 1
    assert module_count(proc, "csvfmt") == 1  # this process wrote trajectory.csv
    assert (tmp_path / "out" / "report-toy.json").exists()


@pytest.mark.parametrize("preset", ["toy", "coerced", "am-subexp-1d", "run-json-only"])
def test_commands_that_write_no_csv_never_load_the_formatter(tmp_path, preset):
    # the formatter's tables are built at the first CSV write, so neither
    # verify (certify) nor a run's set-up pays for them
    if preset == "run-json-only":
        doc = json.loads(resolve_config_path("coerced").read_text())
        doc["run"].update(horizon=300, replicas=2)
        doc["output"] = {"formats": ["json"]}
        args = ["run", str(write_config(tmp_path, doc))]
    else:
        args = ["verify", preset]
    proc = run_in_fresh_process(tmp_path, *args, "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert module_count(proc, "csvfmt") == 0
    written = {path.name for path in (tmp_path / "out").iterdir()}
    assert written and "trajectory.csv" not in written


@pytest.mark.parametrize("command", ["verify toy", "presets", "plot"])
def test_commands_that_never_simulate_never_load_the_simulator(tmp_path, command):
    # the chain config and its kinds live in config, and cli imports the
    # simulator only to run a chain, so these commands never compile it
    args = command.split()
    if command == "verify toy":
        args += ["--out", str(tmp_path / "out")]
    if command == "plot":
        (tmp_path / "trajectory.csv").write_text("i,theta_1\n0,0.0\n1,0.5\n")
        args += [str(tmp_path / "trajectory.csv"), "--kind", "theta-trace"]
    proc = run_in_fresh_process(tmp_path, *args)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert module_count(proc, "simulator") == 0


_LOAD_PROBE = """
import sys
argv = sys.argv[1:]
if argv[0] == "--watch-run-replicas":
    # run imports run_replicas from the simulator when it calls it, so a
    # wrapper set on the module first is what runs
    argv = argv[1:]
    import driftlab.simulator as simulator
    run_replicas = simulator.run_replicas

    def watched(*args, **kwargs):
        print("verifiers-at-run_replicas", "driftlab.verifiers" in sys.modules)
        return run_replicas(*args, **kwargs)

    simulator.run_replicas = watched
import driftlab.cli
code = driftlab.cli.main(argv)
print("loaded", *sorted(m for m in sys.modules if m.startswith("driftlab.")))
sys.exit(code)
"""


def loaded_modules(tmp_path: Path, *args: str) -> tuple[set[str], str]:
    """The ``driftlab`` modules that ``driftlab`` ARGS loads in a new
    interpreter, and the probe's standard output."""
    proc = run_in_fresh_process(tmp_path, *args, probe=_LOAD_PROBE)
    assert proc.returncode == EXIT_OK, proc.stderr
    return set(proc.stdout.rsplit("loaded", 1)[1].split()), proc.stdout


def test_each_command_loads_only_what_it_runs(tmp_path):
    # the certificate stack (verifiers, and quadrature under it) loads for a
    # document that lists checks, after its config and before its chains
    doc = toy_run_doc(horizon=200)
    no_checks = write_config(tmp_path, doc, "no-checks.json")
    loaded, _ = loaded_modules(tmp_path, "run", str(no_checks), "--out", "a")
    assert "driftlab.simulator" in loaded
    assert not loaded & {"driftlab.verifiers", "driftlab.quadrature"}, loaded

    doc["verify"] = {"checks": ["toy"], "toy_theta_grid": [0.0]}
    checks = write_config(tmp_path, doc, "checks.json")
    loaded, stdout = loaded_modules(tmp_path, "--watch-run-replicas", "run", str(checks), "--out", "b")
    assert "verifiers-at-run_replicas True" in stdout
    assert {"driftlab.simulator", "driftlab.verifiers", "driftlab.quadrature"} <= loaded

    loaded, _ = loaded_modules(tmp_path, "verify", str(checks), "--out", "c")
    assert "driftlab.verifiers" in loaded and "driftlab.simulator" not in loaded

    run = tmp_path / "a"
    for args in (["presets"], ["plot", str(run / "trajectory.csv"), "--kind", "theta-trace"],
                 ["plot", str(run / "trajectory.csv"), "--kind", "acceptance-rolling", "--window", "10"],
                 ["plot", str(tmp_path / "b" / "report-toy.json"), "--kind", "drift-margin"]):
        loaded, _ = loaded_modules(tmp_path, *args)
        assert not loaded & {"driftlab.verifiers", "driftlab.simulator", "driftlab.quadrature"}, (args, loaded)


_NAMES_PROBE = """
import sys
import driftlab.cli as cli
from driftlab.config import CHECK_NAMES
assert "driftlab.verifiers" not in sys.modules
found = {check: getattr(cli, f"verify_{check}") for check in CHECK_NAMES}
import driftlab.verifiers as verifiers
assert all(fn is getattr(verifiers, f"verify_{check}") for check, fn in found.items())
assert getattr(cli, "verify_spectral_gap", None) is None and getattr(cli, "run_replicas", None) is None
"""


def test_each_check_is_a_cli_name_before_any_check_runs(tmp_path):
    # bench/spans.py wraps getattr(cli, "verify_<check>", None) in place
    # before main runs, so every check resolves there while verifiers is
    # not yet loaded, and other names stay missing
    proc = run_in_fresh_process(tmp_path, probe=_NAMES_PROBE)
    assert proc.returncode == 0, proc.stderr


def test_quadrature_verify_never_imports_scipy_and_passes(tmp_path):
    proc = run_in_fresh_process(tmp_path, "verify", "am-subexp-1d", "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert module_count(proc, "scipy") == 0
    assert module_count(proc, "jsonschema") == 0
    assert module_count(proc, "simulator") == 0
    for check in ("fixed_theta_drift", "acceptance_bounds", "decomposition"):
        report = json.loads((tmp_path / "out" / f"report-{check}.json").read_text())
        assert report["pass"] is True
    doc = json.loads(resolve_config_path("am-subexp-1d").read_text())
    doc["run"].update(horizon=300, replicas=2)
    path = write_config(tmp_path, doc)
    proc = run_in_fresh_process(tmp_path, "run", str(path), "--out", str(tmp_path / "run"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert module_count(proc, "scipy") == 0
    assert module_count(proc, "process-pool") == 0
    assert module_count(proc, "simulator") == 1
    assert (tmp_path / "run" / "trajectory.csv").exists()


def test_run_with_workers_loads_no_process_pool_module(tmp_path):
    # replicas and trajectory rows go to workers forked by hand: importing
    # multiprocessing alone would cost about 24 ms of every run
    doc = json.loads(resolve_config_path("coerced").read_text())
    doc["run"].update(horizon=20_000, replicas=2)
    del doc["verify"]
    path = write_config(tmp_path, doc)
    proc = run_in_fresh_process(tmp_path, "run", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert module_count(proc, "process-pool") == 0
    if len(os.sched_getaffinity(0)) > 1:  # the run did start workers
        assert int(proc.stdout.rsplit("worker-maxrss-kb", 1)[1].split()[0]) > 0
    assert (tmp_path / "out" / "trajectory.csv").stat().st_size > 0


def test_coerced_run_never_imports_numpy_ma(tmp_path):
    # the replica summary's quantiles are computed without np.quantile, whose
    # first call imports numpy.ma
    doc = json.loads(resolve_config_path("coerced").read_text())
    doc["run"].update(horizon=300, replicas=3)
    path = write_config(tmp_path, doc)
    proc = run_in_fresh_process(tmp_path, "run", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert module_count(proc, "numpy.ma") == 0
    assert module_count(proc, "process-pool") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())["summary"]
    assert summary["aggregate"]["acceptance_tail_median"] > 0.0


# ---------------------------------------------------------------------------
# running-moment parameters in the config are checked at load time

NOT_SYMMETRIC = {"mu": [0.0, 0.0], "cov": [[1.0, 0.5], [0.0, 1.0]]}


def test_theta0_that_is_no_kernel_parameter_rejected_with_path(tmp_path):
    # this used to load, then `run` died with a raw ValueError
    doc = mv_run_doc("am")
    doc["run"]["theta0"] = NOT_SYMMETRIC
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.json_path == "run.theta0"
    assert "symmetric" in str(exc.value)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    doc["run"]["theta0"] = {"mu": [0.0, 0.0], "cov": [[1.0]]}
    with pytest.raises(ConfigError) as exc:
        validate_document(doc)
    assert exc.value.json_path == "run.theta0"


def test_theta_grid_entry_that_is_no_kernel_parameter_rejected_with_path(tmp_path):
    doc = mv_run_doc("am")
    identity = {"mu": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
    doc["verify"] = {"checks": ["compound_drift"], "theta_grid": [identity, NOT_SYMMETRIC]}
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.json_path == "verify.theta_grid"
    with pytest.raises(ConfigError) as exc:
        build_grid(doc)
    assert exc.value.json_path == "verify.theta_grid"
    assert main(["verify", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


_AM_1D_PARAM = {"mu": [0.0], "cov": [[1.0]]}


@pytest.mark.parametrize(
    "preset, edits, json_path",
    [
        # the coerced chain certified in the running-moments weight dies in
        # fixed_theta_drift; in the fast rule's inequality it passes wrongly
        pytest.param("coerced", {"lyapunov.scenario": "am_superexp", "verify.checks": ["fixed_theta_drift"]},
                     "lyapunov.scenario", id="coerced-rule-am-scenario"),
        pytest.param("coerced", {"lyapunov.scenario": "fast_coerced"},
                     "lyapunov.scenario", id="coerced-rule-fast-scenario"),
        pytest.param("am-subexp-1d", {"lyapunov.scenario": "coerced"},
                     "lyapunov.scenario", id="am-rule-scalar-scenario"),
        pytest.param("fast-coerced", {"lyapunov.scenario": "coerced"},
                     "lyapunov.scenario", id="fast-rule-coerced-scenario"),
        pytest.param("toy", {"lyapunov": {"scenario": "coerced"}},
                     "lyapunov.scenario", id="toy-rule-any-scenario"),
        pytest.param("coerced", {"adaptation": {"rule": "toy_mean"}, "lyapunov": {}, "verify.checks": ["w_drift"]},
                     "verify.checks", id="toy-rule-w-drift"),
        pytest.param("coerced", {"adaptation": {"rule": "toy_mean"}, "lyapunov": {}},
                     "verify.checks", id="toy-rule-compound-drift"),
        pytest.param("coerced", {"adaptation": {"rule": "fixed"}},
                     "verify.checks", id="fixed-rule-compound-drift"),
        # the coerced scenario's margin min(alpha*, 1/2 - alpha*) takes no alpha* the document leaves unstated
        pytest.param("coerced", {"adaptation": {"rule": "fixed"}, "verify.checks": ["w_drift"]},
                     "adaptation.alpha_star", id="fixed-rule-w-drift-without-alpha-star"),
        pytest.param("am-subexp-1d", {"verify.theta_grid": [_AM_1D_PARAM, 1.0]},
                     "verify.theta_grid", id="am-scenario-scalar-theta"),
        pytest.param("coerced", {"verify.theta_grid": [0.0, _AM_1D_PARAM]},
                     "verify.theta_grid", id="coerced-scenario-moments-theta"),
        # from theta = 700 on, the proposal scale ScalarParam.sigma = e**theta is inf
        pytest.param("coerced", {"verify.theta_grid": [3.0, 700.5]}, "verify.theta_grid.1", id="coerced-theta-700.5"),
        pytest.param("coerced", {"verify.theta_grid": [3.0, 800.0]}, "verify.theta_grid.1", id="coerced-theta-800"),
        # from theta = -700 down the exp_abs weight e**|theta| is inf (compound_drift
        # wrote delta nan and nan margins), and below about -745.13 e**theta rounds to 0
        pytest.param("coerced", {"verify.theta_grid": [3.0, -701.0]}, "verify.theta_grid.1",
                     id="coerced-theta-minus-701"),
        pytest.param("coerced", {"verify.theta_grid": [-745.0]}, "verify.theta_grid.0", id="coerced-theta-minus-745"),
        pytest.param("coerced", {"verify.theta_grid": [-800.0]}, "verify.theta_grid.0", id="coerced-theta-minus-800"),
        pytest.param("coerced", {"verify.theta_grid": [3.0, -745.2]}, "verify.theta_grid.1",
                     id="coerced-theta-minus-745.2"),
        pytest.param("am-subexp-1d", {"verify.checks": ["w_drift"], "verify.method": "monte_carlo",
                                      "lyapunov.gamma_max": 1.5},
                     "lyapunov.gamma_max", id="am-rule-gamma-above-one"),
    ],
)
def test_sections_that_do_not_fit_the_rule_are_rejected_at_load(tmp_path, preset, edits, json_path):
    doc = json.loads(resolve_config_path(preset).read_text())
    for key, value in edits.items():
        section, _, name = key.partition(".")
        if name:
            doc[section][name] = value
        else:
            doc[section] = value
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.json_path == json_path
    assert main(["verify", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_sections_that_fit_the_rule_load():
    # the fixed rule takes either scalar scenario, and w_drift runs under it
    for scenario in ("coerced", "fast_coerced"):
        doc = json.loads(resolve_config_path("coerced").read_text())
        doc["adaptation"]["rule"] = "fixed"
        doc["lyapunov"]["scenario"] = scenario
        doc["verify"]["checks"] = ["w_drift"]
        validate_document(doc)
    doc = json.loads(resolve_config_path("am-subexp-1d").read_text())
    doc["lyapunov"]["gamma_max"] = 0.999
    doc["verify"].update(checks=["w_drift"], method="monte_carlo")
    validate_document(doc)


def test_am_rule_gamma_one_loads(tmp_path):
    # a running-moments step of exactly 1 is the convex combination's endpoint
    doc = json.loads(resolve_config_path("am-subexp-1d").read_text())
    doc["lyapunov"]["gamma_max"] = 1.0
    doc["verify"].update(checks=["compound_drift"], method="monte_carlo")
    validate_document(doc)
    assert load_config(write_config(tmp_path, doc))["lyapunov"]["gamma_max"] == 1.0


def test_generic_path_halts_on_a_parameter_that_overflows(tmp_path):
    # one fast-coerced step takes theta from 1e12 to inf; the run is flagged
    # as diverged at that step instead of dying on the parameter check
    doc = mv_run_doc("coerced", horizon=50, replicas=2)
    doc["adaptation"] = {"rule": "fast_coerced", "alpha_star": 0.44}
    doc["schedule"] = {"kind": "polynomial", "c0": 1e300, "c1": 10.0, "a": 0.6}
    doc["run"]["theta0"] = 1e12
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_DIVERGED
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["aggregate"]["diverged_count"] == 2
    assert [r["halt_index"] for r in summary["per_replica"]] == [1, 1]
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["0", "1"]
    assert rows[-1][1] in ("inf", "-inf")


def test_one_dimensional_am_run_halts_on_a_mean_whose_weight_overflows(tmp_path):
    # |mu| ** 2.5 past the float range raised OverflowError in the 1-D
    # am_poly weight, and the run died without its artifacts
    doc = edited("am-gaussian-1d", {"run.horizon": 50, "run.replicas": 2, "run.theta0.mu": [1e300]})
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_DIVERGED
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["aggregate"]["diverged_count"] == 2
    assert (out / "trajectory.csv").exists()


def test_am_poly_weight_past_the_float_range_runs_quietly(tmp_path):
    # |mu| ** 1001 overflows once |mu| passes about 2.03, and the weight
    # of those rows is inf
    doc = edited("am-subexp-1d", {"run.horizon": 200, "run.replicas": 2, "lyapunov.w_eps": 999})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
    assert (out / "summary.json").exists()


# ---------------------------------------------------------------------------
# every rule is checked at load, each at its JSON path, before anything runs

DELETE = object()
_IDENTITY_2D = {"mu": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}


def _moments_1d(cov: float) -> dict:
    """A 1-D ``verify.theta_grid`` entry of running moments."""
    return {"mu": [0.0], "cov": [[cov]]}


def edited(base: str, edits: dict) -> dict:
    """A preset (or ``mv-am``, the 2-D AM run) with each dotted key set to
    its value; ``DELETE`` removes the key."""
    doc = mv_run_doc("am") if base == "mv-am" else json.loads(resolve_config_path(base).read_text())
    for key, value in edits.items():
        *parents, last = key.split(".")
        node = doc
        for name in parents:
            node = node[name]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    return doc


def assert_rejected_before_running(tmp_path, doc: dict, json_path: str) -> None:
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.json_path == json_path
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "base, edits, json_path",
    [
        # AdaptationRule's kind
        pytest.param("coerced", {"adaptation.rule": "nope"}, "adaptation.rule", id="rule-kind"),
        # PolynomialSchedule, ConstantSchedule and KestenSchedule
        pytest.param("coerced", {"schedule.c0": 0.0}, "schedule.c0", id="polynomial-c0"),
        pytest.param("coerced", {"schedule.c1": -1.0}, "schedule.c1", id="polynomial-c1"),
        pytest.param("coerced", {"schedule.a": 1.5}, "schedule.a", id="polynomial-a"),
        pytest.param("coerced", {"schedule": {"kind": "constant", "gamma0": 0.0}}, "schedule.gamma0",
                     id="constant-gamma0-zero"),
        pytest.param("coerced", {"schedule": {"kind": "constant", "gamma0": 1.0}}, "schedule.gamma0",
                     id="constant-gamma0-one"),
        pytest.param("coerced", {"schedule": {"kind": "kesten", "c0": -1.0}}, "schedule.c0", id="kesten-c0"),
        pytest.param("coerced", {"schedule": {"kind": "kesten", "a": 0.0}}, "schedule.a", id="kesten-a"),
        # ProposalSpec's family, parametrization, eps_ridge and student_dof
        pytest.param("coerced", {"proposal.family": "cauchy"}, "proposal.family", id="proposal-family"),
        pytest.param("coerced", {"proposal.parametrization": "full"}, "proposal.parametrization",
                     id="proposal-parametrization"),
        pytest.param("coerced", {"proposal.eps_ridge": 0.0}, "proposal.eps_ridge", id="proposal-eps-ridge"),
        pytest.param("coerced", {"proposal.student_dof": 0.0}, "proposal.student_dof", id="proposal-student-dof"),
        # StateLyapunov, ParamLyapunov and CompoundSpec
        pytest.param("coerced", {"lyapunov.eta": 1.0}, "lyapunov.eta", id="state-eta"),
        pytest.param("coerced", {"lyapunov.weight": "nope"}, "lyapunov.weight", id="weight-variant"),
        pytest.param("am-subexp-1d", {"lyapunov.w_eps": 0.0}, "lyapunov.w_eps", id="weight-eps"),
        pytest.param("coerced", {"lyapunov.upsilon_v": 1.5}, "lyapunov.upsilon_v", id="compound-upsilon-v"),
        pytest.param("coerced", {"lyapunov.upsilon_w": 0.0}, "lyapunov.upsilon_w", id="compound-upsilon-w"),
        pytest.param("coerced", {"lyapunov.compound_mode": "V"}, "lyapunov.compound_mode", id="compound-mode"),
        # DriftCoefficients and scenario_coefficients
        pytest.param("coerced", {"lyapunov.scenario": "nope"}, "lyapunov.scenario", id="scenario"),
        pytest.param("coerced", {"lyapunov.iota": 0.0}, "lyapunov.iota", id="iota"),
        pytest.param("coerced", {"lyapunov.beta": 1.0}, "lyapunov.beta", id="beta"),
        pytest.param("coerced", {"adaptation.alpha_star": 0.5}, "adaptation.alpha_star", id="alpha-star"),
        pytest.param("coerced", {"target.params.dim": 0}, "target.params.dim", id="dim"),
        # ChainConfig's kind, horizon, stride, seed, M and R
        pytest.param("coerced", {"run.kind": "mcmc"}, "run.kind", id="chain-kind"),
        pytest.param("coerced", {"run.horizon": 0}, "run.horizon", id="horizon"),
        pytest.param("coerced", {"run.record_stride": 0}, "run.record_stride", id="record-stride"),
        pytest.param("coerced", {"run.seed": -1}, "run.seed", id="seed"),
        pytest.param("coerced", {"run.recurrence.m": 0.5}, "run.recurrence.m", id="recurrence-m"),
        pytest.param("coerced", {"run.recurrence.r": 0.0}, "run.recurrence.r", id="recurrence-r"),
        # ChainConfig's am_poly weight against the rule, and srwm without a target or a proposal
        pytest.param("coerced", {"lyapunov.weight": "am_poly"}, "lyapunov.weight", id="am-poly-weight-scalar-rule"),
        pytest.param("coerced", {"target": DELETE}, "target", id="srwm-without-target"),
        pytest.param("coerced", {"proposal": DELETE}, "proposal", id="srwm-without-proposal"),
        # GridSpec's x_grid, method and mc_n; no stepsize grid (drift checks run at lyapunov.gamma_max)
        pytest.param("coerced", {"verify.x_grid": []}, "verify.x_grid", id="x-grid-empty"),
        pytest.param("coerced", {"verify.method": "exact"}, "verify.method", id="method"),
        pytest.param("coerced", {"verify.mc_n": 999}, "verify.mc_n", id="mc-n"),
        pytest.param("coerced", {"verify.gamma_grid": [0.05]}, "verify", id="gamma-grid"),
    ],
)
def test_rules_of_deleted_constructor_guards_are_checked_at_load(tmp_path, base, edits, json_path):
    assert_rejected_before_running(tmp_path, edited(base, edits), json_path)


@pytest.mark.parametrize(
    "base, edits, json_path",
    [
        pytest.param("am-gaussian-1d", {"proposal.family": "uniform"}, "proposal", id="uniform-am-covariance"),
        pytest.param("coerced", {"lyapunov.gamma_max": 0.06}, "lyapunov", id="gamma-max-above-margin"),
        pytest.param("am-subexp-1d", {"lyapunov.beta": 0.5}, "lyapunov", id="beta-above-ceiling"),
        pytest.param("toy", {"adaptation": {"rule": "coerced", "alpha_star": 0.44}}, "run", id="toy-chain-coerced"),
        pytest.param("coerced", {"adaptation": {"rule": "toy_mean"}, "lyapunov": {}, "verify": DELETE}, "run",
                     id="srwm-chain-toy-mean"),
        pytest.param("am-gaussian-1d", {"run.theta0": 0.5}, "run", id="am-scalar-theta0"),
        pytest.param("am-gaussian-1d", {"proposal.parametrization": "scalar_log_scale"}, "run",
                     id="am-scalar-log-scale"),
        pytest.param("mv-am", {"run.theta0": {"mu": [0.0], "cov": [[1.0]]}}, "run", id="am-theta0-dim"),
        pytest.param("coerced", {"run.theta0": {"mu": [0.0], "cov": [[1.0]]}}, "run", id="scalar-rule-moments-theta0"),
        pytest.param("coerced", {"proposal": {"family": "gaussian", "parametrization": "am_covariance"}}, "run",
                     id="scalar-rule-am-covariance"),
        pytest.param("am-gaussian-1d", {"run.theta0": DELETE}, "run.theta0", id="am-without-theta0"),
        pytest.param("coerced", {"adaptation.alpha_star": DELETE}, "adaptation", id="coerced-without-alpha-star"),
        pytest.param("coerced", {"adaptation": DELETE}, "adaptation", id="no-adaptation"),
        pytest.param("coerced", {"schedule": DELETE}, "schedule", id="no-schedule"),
        pytest.param("coerced", {"lyapunov.scenario": DELETE}, "lyapunov.scenario", id="no-scenario"),
        pytest.param("coerced", {"run": DELETE, "target": DELETE}, "target", id="check-without-target"),
        pytest.param("coerced", {"run": DELETE, "proposal": DELETE}, "proposal", id="check-without-proposal"),
    ],
)
def test_cross_section_rules_are_checked_at_load(tmp_path, base, edits, json_path):
    assert_rejected_before_running(tmp_path, edited(base, edits), json_path)


@pytest.mark.parametrize(
    "base, edits, json_path",
    [
        # these ran the simulation and wrote its artifacts, then died raw in the check
        pytest.param("coerced", {"verify.checks": ["fixed_theta_drift"], "verify.theta_grid": DELETE},
                     "verify.theta_grid", id="fixed-theta-drift-without-theta-grid"),
        pytest.param("coerced", {"verify.checks": ["w_drift"], "verify.theta_grid": DELETE},
                     "verify.theta_grid", id="w-drift-without-theta-grid"),
        pytest.param("coerced", {"verify.theta_grid": DELETE}, "verify.theta_grid",
                     id="compound-drift-without-theta-grid"),
        pytest.param("coerced", {"verify.checks": ["acceptance_bounds"]}, "verify.checks",
                     id="acceptance-bounds-gaussian-tail"),
        pytest.param("mv-am", {"verify": {"checks": ["acceptance_bounds"]}}, "verify.checks",
                     id="acceptance-bounds-two-dimensional"),
        pytest.param("am-subexp-1d", {"verify.checks": ["acceptance_bounds"], "verify.sigma_grid": []},
                     "verify.sigma_grid", id="acceptance-bounds-without-sigma-grid"),
        pytest.param("am-subexp-1d", {"verify.checks": ["decomposition"], "lyapunov.eta": 0.0}, "lyapunov.eta",
                     id="decomposition-eta-zero"),
        pytest.param("mv-am", {"verify": {"checks": ["decomposition"]}}, "verify.checks",
                     id="decomposition-two-dimensional"),
        pytest.param("am-subexp-1d", {"verify.checks": ["decomposition"], "verify.tail_x_grid": [20.0, 0.0]},
                     "verify.tail_x_grid", id="decomposition-at-zero"),
        # a radius below the smallest normal float: a raw QuadratureError in acceptance_bounds
        pytest.param("am-subexp-1d", {"verify.sigma_grid": [5e-324, 1.0]}, "verify.sigma_grid.0",
                     id="sigma-5e-324"),
        pytest.param("am-subexp-1d", {"verify.sigma_grid": [1.0, 3e-309]}, "verify.sigma_grid.1",
                     id="sigma-3e-309"),
        # log pi(1e200) = -inf: a raw ValueError in acceptance_bounds and in decomposition
        pytest.param("am-subexp-1d", {"verify.tail_x_grid": [20.0, 1e200]}, "verify.tail_x_grid.1",
                     id="tail-x-1e200"),
        pytest.param("am-subexp-1d", {"verify.checks": ["decomposition"], "verify.tail_x_grid": [1e200]},
                     "verify.tail_x_grid.0", id="decomposition-tail-x-1e200"),
        pytest.param("am-subexp-1d", {"run": DELETE, "proposal.parametrization": "scalar_log_scale"},
                     "proposal.parametrization", id="moments-grid-scalar-proposal"),
        pytest.param("coerced", {"run": DELETE, "proposal": {"family": "gaussian", "parametrization": "am_covariance"}},
                     "proposal.parametrization", id="number-grid-covariance-proposal"),
        # a target so flat that its bulk edges lie past 2**200: a raw ValueError
        # ("density never falls to log-density -50.0") in the kernel integrals
        *(pytest.param("am-subexp-1d", {"target.params.alpha": alpha}, "target.params.alpha", id=f"alpha-{alpha!r}")
          for alpha in (5e-324, 1e-300, 1e-30, 1e-12, BULK_ALPHA_MIN["subexp"])),
        pytest.param("am-subexp-1d", {"target.params.alpha": 0.02, "verify.checks": ["acceptance_bounds"],
                                      "verify.method": "monte_carlo"}, "target.params.alpha",
                     id="alpha-0.02-acceptance-bounds-monte-carlo"),
        pytest.param("am-subexp-1d", {"target.name": "subexp_exact", "target.params.alpha": 0.02,
                                      "verify.checks": ["fixed_theta_drift"]}, "target.params.alpha",
                     id="alpha-0.02-exact-tails"),
        # a running covariance whose scaled proposal covariance overflows: a
        # numpy overflow warning, then a raw ValueError in the quadrature
        pytest.param("am-subexp-1d", {"verify.theta_grid": [_moments_1d(1e308)]}, "verify.theta_grid.0.cov",
                     id="theta-grid-cov-1e308"),
        pytest.param("am-subexp-1d", {"verify.theta_grid": [_moments_1d(1.0), _moments_1d(sys.float_info.max)]},
                     "verify.theta_grid.1.cov", id="theta-grid-cov-largest-float"),
    ],
)
def test_checks_that_cannot_run_are_rejected_before_the_run(tmp_path, base, edits, json_path):
    assert_rejected_before_running(tmp_path, edited(base, edits), json_path)


def test_an_adaptively_tuned_stepsize_converges_through_the_cli(tmp_path):
    # the coerced preset as shipped (seed 20240904, 20 x 100,000, its
    # compound_drift check) with a Kesten schedule, judged by criterion 2's
    # thresholds
    doc = edited("coerced", {"schedule": {"kind": "kesten", "c0": 0.5, "a": 0.6}})
    out = tmp_path / "out"
    assert run_experiment(write_config(tmp_path, doc), out=str(out)) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())["summary"]
    tails = [r["acceptance_tail"] for r in summary["per_replica"]]
    assert len(tails) == 20
    assert sum(1 for t in tails if abs(t - 0.44) <= 0.03) >= 18
    assert summary["aggregate"]["max_abs_theta"] < 10.0
    assert not summary["any_diverged"]


def test_the_largest_running_covariance_in_range_is_verified(tmp_path):
    # 1e307 * RW_SCALE**2 is still a float, and every check of the preset
    # runs without a warning
    path = write_config(tmp_path, edited("am-subexp-1d", {"verify.theta_grid": [_moments_1d(1e307)], "run": DELETE}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(path), "--out", str(out)]) in (EXIT_OK, EXIT_VERIFY)
    checks = json.loads(path.read_text())["verify"]["checks"]
    assert sorted(p.name for p in out.iterdir()) == sorted(f"report-{c}.json" for c in checks)


def test_the_flattest_subexp_target_the_kernel_integrals_reach_is_verified(tmp_path):
    # one float above targets.BULK_ALPHA_MIN the bulk edges lie just inside
    # the search's reach, and every check of the preset runs
    alpha = math.nextafter(BULK_ALPHA_MIN["subexp"], math.inf)
    path = write_config(tmp_path, edited("am-subexp-1d", {"target.params.alpha": alpha, "run": DELETE}))
    out = tmp_path / "out"
    assert main(["verify", str(path), "--out", str(out)]) in (EXIT_OK, EXIT_VERIFY)
    checks = json.loads(path.read_text())["verify"]["checks"]
    assert sorted(p.name for p in out.iterdir()) == sorted(f"report-{c}.json" for c in checks)


@pytest.mark.parametrize(
    "base, edits, json_path",
    [
        # the toy chain ran from int(x0), and [0, 1] died on numpy's ambiguous truth value
        pytest.param("toy", {"run.x0": 0.5}, "run.x0", id="toy-half"),
        pytest.param("toy", {"run.x0": -0.2}, "run.x0", id="toy-negative"),
        pytest.param("toy", {"run.x0": 1.7}, "run.x0", id="toy-above-one"),
        pytest.param("toy", {"run.x0": [0, 1]}, "run.x0", id="toy-list"),
        # srwm runs died on a reshape or a broadcast
        pytest.param("coerced", {"run.x0": [0.0, 1.0]}, "run.x0", id="srwm-1d-two-coordinates"),
        pytest.param("mv-am", {"run.x0": 1.0}, "run.x0", id="srwm-2d-number"),
        pytest.param("mv-am", {"run.x0": [1.0, 2.0, 3.0]}, "run.x0", id="srwm-2d-three-coordinates"),
        # running moments of another dimension than the target's died in DriftCoefficients.a
        pytest.param("am-subexp-1d", {"verify.checks": ["fixed_theta_drift"], "verify.theta_grid": [_IDENTITY_2D]},
                     "verify.theta_grid", id="theta-grid-2d-on-1d-target"),
        pytest.param("mv-am", {"lyapunov.scenario": "am_subexp_1d",
                               "verify": {"checks": ["w_drift"], "method": "monte_carlo",
                                          "theta_grid": [_IDENTITY_2D]}},
                     "lyapunov.scenario", id="am-subexp-1d-on-2d-target"),
    ],
)
def test_states_and_dimensions_are_checked_at_load(tmp_path, base, edits, json_path):
    assert_rejected_before_running(tmp_path, edited(base, edits), json_path)


@pytest.mark.parametrize(
    "base, edits, json_path",
    [
        # the 2-D run made its output directory, then died raw on its proposal root
        pytest.param("mv-am", {"run.theta0.cov": [[1.0, 0.0], [0.0, -5.0]]}, "run.theta0", id="indefinite-2d"),
        # the 1-D run reported a diverged replica
        pytest.param("am-gaussian-1d", {"run.theta0.cov": [[-5.0]]}, "run.theta0", id="negative-1d"),
        # verify died on a math domain error
        pytest.param("am-subexp-1d", {"verify.theta_grid": [{"mu": [0.0], "cov": [[-5.0]]}]}, "verify.theta_grid",
                     id="negative-theta-grid"),
    ],
)
def test_indefinite_running_covariance_rejected_at_load(tmp_path, base, edits, json_path):
    doc = edited(base, edits)
    assert_rejected_before_running(tmp_path, doc, json_path)
    if "verify" in doc:
        assert main(["verify", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_ridge_whose_scaled_value_overflows_is_rejected_at_load(tmp_path, command):
    # RW_SCALE**2 * 1e308 is inf: verify died on numpy's overflow warning,
    # then a raw ValueError from the quadrature
    doc = edited("am-subexp-1d", {"proposal.eps_ridge": 1e308})
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.json_path == "proposal.eps_ridge"
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "preset, edits, json_path",
    [
        # V(60) = e**900: a raw OverflowError by quadrature, a RuntimeWarning by Monte Carlo
        pytest.param("coerced", {"verify.checks": ["fixed_theta_drift"], "verify.method": "quadrature",
                                 "verify.x_grid": [0.0, 60.0]}, "verify.x_grid.1", id="coerced-quadrature-x-60"),
        pytest.param("coerced", {"verify.x_grid": [0.0, 60.0]}, "verify.x_grid.1", id="coerced-monte-carlo-x-60"),
        # V(1e154) = e**(5e76): a raw OverflowError in the kernel application
        pytest.param("am-subexp-1d", {"verify.x_grid": [1e154, 1.0]}, "verify.x_grid.0", id="am-subexp-x-1e154"),
    ],
)
@pytest.mark.parametrize("command", ["run", "verify"])
def test_drift_check_point_where_v_is_not_finite_is_rejected_at_load(tmp_path, capsys, preset, edits, json_path,
                                                                     command):
    path = write_config(tmp_path, edited(preset, edits))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {json_path}: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_smallest_normal_radius_and_a_far_tail_point_run(tmp_path):
    # the edges of the two grid rules: sigma at sys.float_info.min, and
    # x = 1e20, where log pi is -1e10 but finite
    doc = edited("am-subexp-1d", {"run": DELETE, "verify.checks": ["acceptance_bounds", "decomposition"],
                                  "verify.sigma_grid": [sys.float_info.min, 1.0], "verify.tail_x_grid": [1e20]})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
    assert (out / "report-acceptance_bounds.json").exists() and (out / "report-decomposition.json").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_w_drift_on_a_two_dimensional_target_is_rejected_at_load(tmp_path, capsys, command):
    # its sup of V**beta over the center evaluates V at the numbers 0 and
    # +-center_radius, which on a 2-D target died with a raw TypeError
    doc = edited("mv-am", {"lyapunov.scenario": "am_superexp",
                           "verify": {"checks": ["w_drift"], "method": "monte_carlo", "x_grid": [0.0, 10.0],
                                      "theta_grid": [_IDENTITY_2D]}})
    path = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: verify.checks: ") and "one-dimensional" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_largest_ridge_that_loads_runs_in_two_dimensions(tmp_path):
    # RW_SCALE**2 * 3e307 is finite: the closed-form root of the proposal
    # covariance, about 8.5e307 on its diagonal, stays finite, every
    # proposal lands where pi is 0 and is rejected
    doc = edited("mv-am", {"proposal.eps_ridge": 3e307})
    doc["run"].update(horizon=50, replicas=1)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["accepted"] == "0" and math.isfinite(float(r["y_1"])) for r in rows[1:])


def test_student_increments_whose_chi_square_draw_is_zero_run_in_two_dimensions(tmp_path):
    # at dof = 1e-300 every chi-square draw is 0, so every increment is
    # infinite, as numpy's division by 0 makes it, and every proposal is
    # rejected; the 2-D loop must not divide a Python float by 0
    doc = edited("mv-am", {"proposal.family": "student", "proposal.student_dof": 1e-300})
    doc["run"].update(horizon=50, replicas=1)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["accepted"] == "0" and r["y_1"] in ("inf", "-inf") for r in rows[1:])


@pytest.mark.parametrize(
    "schedule",
    [
        # gamma_2 = 5e-324 / 2 rounds to 0: the run died on a raw
        # ZeroDivisionError in the compound function W = V + w / gamma
        {"kind": "polynomial", "c0": 5e-324, "c1": 0.0, "a": 1.0},
        {"kind": "kesten", "c0": 5e-324, "a": 1.0},
    ],
    ids=["polynomial", "kesten"],
)
def test_stepsize_that_rounds_to_zero_within_the_horizon_is_rejected_at_load(tmp_path, schedule):
    doc = edited("am-gaussian-1d", {"schedule": schedule})
    assert_rejected_before_running(tmp_path, doc, "schedule")
    # one step never reaches the second stepsize
    doc["run"]["horizon"] = 1
    validate_document(doc)


def test_singular_running_covariance_loads_and_runs(tmp_path):
    # positive semidefinite: the ridge makes the proposal covariance positive
    # definite; where it rounds away (cov + 1e-20 I gives cov back), the root
    # gets a zero direction, as a 1-D variance <= 0 gives sd 0, where the run
    # died on a raw ValueError
    validate_document(edited("am-subexp-1d", {"verify.theta_grid": [{"mu": [0.0], "cov": [[0.0]]}]}))
    doc = edited("mv-am", {"run.theta0.cov": [[1.0, 1.0], [1.0, 1.0]]})
    doc["run"]["horizon"] = 50
    assert main(["run", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")]) == EXIT_OK
    doc["proposal"]["eps_ridge"] = 1e-20
    out = tmp_path / "tiny-ridge"
    assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) in (EXIT_OK, EXIT_DIVERGED)
    assert (out / "summary.json").exists() and (out / "trajectory.csv").exists()


@pytest.mark.parametrize("rule, x0", [("am", 1e200), ("coerced", 1e200), ("am", 1e80)])
def test_two_dimensional_chain_from_a_far_point_halts_as_diverged(tmp_path, rule, x0):
    # as a 1-D chain does; the 2-D run died on a raw "invalid point"
    # ValueError where log pi(x0) is -inf, or printed numpy overflow warnings
    doc = mv_run_doc(rule)
    doc["run"]["x0"] = [x0, x0]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_DIVERGED
    assert (out / "trajectory.csv").exists()

    # no replica hits, so the first-hit quantiles are nan: written as the
    # string "nan", where they were bare NaN tokens, which strict JSON lacks
    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)["summary"]
    assert summary["aggregate"]["first_hit_median"] == "nan"


def test_states_that_fit_the_chain_load():
    for x0 in (0, 1, 1.0):
        validate_document(edited("toy", {"run.x0": x0}))
    for x0 in (2.5, [2.5]):
        validate_document(edited("coerced", {"run.x0": x0}))
    validate_document(edited("mv-am", {"run.x0": [1.0, 2.0]}))


@pytest.mark.parametrize("command, json_path", [("verify", "verify.seed"), ("run", "run.seed")])
def test_negative_seed_override_rejected_at_the_seed_key(tmp_path, capsys, command, json_path):
    # verify used to end in a raw traceback from numpy's seeding
    out = tmp_path / "out"
    assert main([command, "coerced", "--seed", "-1", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {json_path}: -1 is less than the minimum of 0")
    assert not out.exists()


def test_replica_override_rejected_before_the_run(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, toy_run_doc())
    assert main(["run", str(path), "--replicas", "0", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_lyapunov_alpha_star_is_no_key(tmp_path):
    # adaptation.alpha_star is the one alpha*: a second knob let a document
    # simulate at one level and certify at another
    doc = edited("coerced", {"lyapunov.alpha_star": 0.3})
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, doc))
    assert exc.value.json_path == "lyapunov"
    assert "'alpha_star' was unexpected" in str(exc.value)


def test_two_dimensional_am_run_with_first_stepsize_one(tmp_path):
    # gamma_1 = 1 moves the running moments to their endpoint, mu = x and
    # cov = (x - mu)(x - mu)^T, which the ridge keeps positive definite; the
    # 2-D run died in am_update while the 1-D run went through
    for doc in (mv_run_doc("am", horizon=200), am_1d_doc({})):
        doc["schedule"] = {"kind": "polynomial", "c0": 1.0, "c1": 0.0, "a": 1.0}
        out = tmp_path / f"out-{len(doc['run']['theta0']['mu'])}"
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())["summary"]
        assert summary["aggregate"]["diverged_count"] == 0
