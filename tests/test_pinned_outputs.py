"""Pinned outputs: the SHA-256 of ``trajectory.csv`` and ``summary.json`` of
eight small ``driftlab run`` invocations, one per way replica 0's rows are
formed and written, and of the five ``report-<check>.json`` files that
``driftlab verify`` writes for the presets that declare checks.

Acceptance criterion 13 checks that a rerun within one commit gives the same
bytes; these digests check that a commit gives the bytes of the commit
before it.  A change that moves these outputs on purpose, or a numpy upgrade
that changes the random streams, must re-pin the digests below and say so in
CHANGES.md.
"""

import hashlib
import json

import pytest

from driftlab.cli import main, resolve_config_path

from test_config_cli import mv_run_doc, write_config
from test_workers import force_workers


def preset_doc(name: str, horizon: int, replicas: int, **edits) -> dict:
    doc = json.loads(resolve_config_path(name).read_text())
    doc.pop("verify", None)
    doc["run"].update(horizon=horizon, replicas=replicas)
    doc.update(edits)
    return doc


def mv_doc(rule: str, horizon: int, replicas: int) -> dict:
    doc = mv_run_doc(rule, horizon=horizon, replicas=replicas)
    doc["proposal"]["eps_ridge"] = 0.1
    return doc


def stride_7(doc: dict) -> dict:
    doc["run"]["record_stride"] = 7
    return doc


# name -> (document, workers forced as ``test_workers.force_workers`` does,
# or None for the machine's own split)
RUNS = {
    "toy": (lambda: preset_doc("toy", 2000, 3), None),
    "scalar-1d": (lambda: preset_doc("coerced", 3000, 2), None),
    "am-1d": (lambda: preset_doc("am-gaussian-1d", 2000, 2), None),
    "am-2d": (lambda: mv_doc("am", 1000, 2), None),
    "scalar-1d-stride-7": (lambda: stride_7(preset_doc("fast-coerced", 3000, 2)), None),
    "am-subexp-1d-kesten": (lambda: preset_doc("am-subexp-1d", 2000, 2, schedule={"kind": "kesten", "c0": 0.5,
                                                                                     "a": 0.6}), None),
    # one replica on two workers: replica 0's rows are streamed to a writer
    "coerced-2d-streamed": (lambda: mv_doc("coerced", 1500, 1), 2),
    # three replicas on three workers: the CSV is split over them after the run
    "am-1d-split": (lambda: stride_7(preset_doc("am-gaussian-1d", 1500, 3)), 3),
}

# name -> (SHA-256 of trajectory.csv, SHA-256 of summary.json)
DIGESTS = {
    "am-1d": ("34822ea8828622b732f5a995fc2ee4829eb8140f4736f5d79110d82101579beb",
              "b9435adcf0a598b781b6eef306e5830a133b77138455d01f49aacddf25b7a548"),
    "am-1d-split": ("fbec6be916f3c4be8533f9d150a03ac3c773caeeb28781e80fad2f69f10133c7",
                    "8b97c28df67a5b2968dfba9945afbbc9f202c6fee876099edc18871f3198f78b"),
    "am-2d": ("f76e370161fac728ef90fb71a349971d9173bc0e42017b81f21a19aa0539824e",
              "2279d6dce4d0397429482774238031f1c88d82e2456bd748d20f18c43311ce97"),
    "am-subexp-1d-kesten": ("fe3a8d4bbee864feb63d9e819a5201838d61ace4eaa30c2e7f8179ea8ce89388",
                            "597fe1af0766824aafa00b19fcb5f870b15581a370a0524b147ae611152fb288"),
    "coerced-2d-streamed": ("610190ea3c03e66194c131c6cd2a01fb049719a099da5b470da0be024b9063d9",
                            "e17657d398d0b921a8dbdfc78417d69b21eca7e7e40621520c4c949b1aa104f2"),
    "scalar-1d": ("8488a70b1c74c1ed182cc440d2284d32a11380b15c83ef5bc695434fa5d5c708",
                  "1a71c453405bbdf6b35beee707d82e85ca6a4066de3813b321bb703212c322c4"),
    "scalar-1d-stride-7": ("65fc7e075d80de1e451ff34bfa27e71eb6fd88ebf601e5676bbc210a4bdb1c8d",
                           "a6c1d9bfb7ffa01e1e4d73121851f16561305cd746b56236310765aab1860df5"),
    "toy": ("4f2c7795952e8c4f800d147cc6c70f003861dee15c27191047b01f142e95dd46",
            "87ee37da93730a2d753181a2daebd1b403b4e4bc2627382ff0fe78a20f7defca"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_their_pinned_digests(tmp_path, monkeypatch, name):
    make, workers = RUNS[name]
    if workers is not None:
        force_workers(monkeypatch, workers)
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, make())), "--out", str(out)]) == 0
    got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ("trajectory.csv", "summary.json"))
    assert got == DIGESTS[name]


# preset -> {check: SHA-256 of report-<check>.json}
REPORT_DIGESTS = {
    "am-subexp-1d": {
        "acceptance_bounds": "e5bf4e2d8d58dda9e88689e21ec8550e24b1e53773ffc2665abd3c07cde4e359",
        "decomposition": "ffec8e08140e2450b3b1b900238f9d518640c5a8abc4fe9574313e69f6aa0dc5",
        "fixed_theta_drift": "b775ce3bcd0d547b3144e5db3682450b811f233113a4df20eda511c677133ae1",
    },
    "coerced": {"compound_drift": "0e2242382935630128928e264374a669c0098fd2550dec89da97ff305a97e747"},
    "toy": {"toy": "aa4904843406c81e5a3cac95f4e3605951e7e588c77b52d83a5985e5b385502d"},
}


@pytest.mark.parametrize("preset", sorted(REPORT_DIGESTS))
def test_reports_match_their_pinned_digests(tmp_path, preset):
    out = tmp_path / "out"
    assert main(["verify", preset, "--out", str(out)]) == 0
    got = {path.name[len("report-"):-len(".json")]: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in out.glob("report-*.json")}
    assert got == REPORT_DIGESTS[preset]
