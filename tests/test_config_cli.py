"""Config schema, builders, CLI orchestration, and plot-data extraction."""
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import driftlab
from driftlab import (
    ConfigError,
    build_chain_config,
    build_grid,
    load_config,
    validate_document,
)
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
from driftlab.config import build_proposal, n_replicas

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


def test_quadrature_w_drift_without_proposal_names_the_section(tmp_path):
    doc = json.loads(resolve_config_path("coerced").read_text())
    del doc["proposal"]
    doc["verify"].update(checks=["w_drift"], method="quadrature")
    with pytest.raises(ConfigError) as exc:
        run_check("w_drift", load_config(write_config(tmp_path, doc)))
    assert exc.value.json_path == "proposal"


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
import sys
import driftlab.cli
code = driftlab.cli.main(sys.argv[1:])
print("numpy.ma-modules", sum(1 for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
print("scipy-modules", sum(1 for m in sys.modules if m.startswith("scipy")))
print("jsonschema-modules", sum(1 for m in sys.modules if m.split(".")[0] in ("jsonschema", "referencing", "attrs")))
sys.exit(code)
"""


def run_in_fresh_process(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """``driftlab`` ARGS in a new interpreter (this one may hold scipy
    already), with the package under test first on the path."""
    src = str(Path(driftlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def module_count(proc: subprocess.CompletedProcess, label: str) -> int:
    """The probe's count of loaded ``label`` modules."""
    return int(proc.stdout.rsplit(f"{label}-modules", 1)[1].split()[0])


def test_run_without_quadrature_never_imports_scipy(tmp_path):
    doc = json.loads(resolve_config_path("toy").read_text())
    doc["run"].update(horizon=300, replicas=2)
    path = write_config(tmp_path, doc)
    proc = run_in_fresh_process(tmp_path, "run", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert module_count(proc, "scipy") == 0
    assert module_count(proc, "jsonschema") == 0
    assert (tmp_path / "out" / "report-toy.json").exists()


def test_quadrature_verify_never_imports_scipy_and_passes(tmp_path):
    proc = run_in_fresh_process(tmp_path, "verify", "am-subexp-1d", "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert module_count(proc, "scipy") == 0
    assert module_count(proc, "jsonschema") == 0
    for check in ("fixed_theta_drift", "acceptance_bounds", "decomposition"):
        report = json.loads((tmp_path / "out" / f"report-{check}.json").read_text())
        assert report["pass"] is True
    doc = json.loads(resolve_config_path("am-subexp-1d").read_text())
    doc["run"].update(horizon=300, replicas=2)
    path = write_config(tmp_path, doc)
    proc = run_in_fresh_process(tmp_path, "run", str(path), "--out", str(tmp_path / "run"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert module_count(proc, "scipy") == 0
    assert (tmp_path / "run" / "trajectory.csv").exists()


def test_coerced_run_never_imports_numpy_ma(tmp_path):
    # the replica summary's quantiles are computed without np.quantile, whose
    # first call imports numpy.ma
    doc = json.loads(resolve_config_path("coerced").read_text())
    doc["run"].update(horizon=300, replicas=3)
    path = write_config(tmp_path, doc)
    proc = run_in_fresh_process(tmp_path, "run", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert module_count(proc, "numpy.ma") == 0
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
