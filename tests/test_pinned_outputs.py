"""Pinned outputs: the SHA-256 of ``trajectory.csv`` and ``summary.json`` of
eight small ``driftlab run`` invocations, one per way replica 0's rows are
formed and written.

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
    "am-1d": ("5e96c0be45c7fabbf32ebd112af7498ddf29bfd3f3d6fbd4c22660d12b22578a",
              "cb5b06032ab5133683b2215c956e8ee992488428df0727d2d724ae77a86a197e"),
    "am-1d-split": ("503c73b92f2c3bd608cffba0bf66a51358e92cfa0a8b2481da525b8144ae7f08",
                    "3d29e67a1dcb71b27d9fc6f4d543a684b547aa401393efb01646146c47606fe2"),
    "am-2d": ("d1d776e3e680d2423a8dad406a1ed2793d2dc55701eecf3090bdebd1e7cd331e",
              "5753247cf5a306b938e436e2a8312c2149f7aed3a6d3a0ea84b93ad521d58de0"),
    "am-subexp-1d-kesten": ("e2ec3f090c152bc1dab400286004c55322cefb912619a143a7f5cce87fa17a94",
                            "521f8e0e345c2fbe3429071c8fa181d548fd0247ae36f79345889e497bd7dad7"),
    "coerced-2d-streamed": ("545dadfbbe241df58022155dbf180e23d79598d30cb8383a5a13f61bed75e669",
                            "89a63f1b9b9750b62a6959087ffb83f94c2607e6838254577846248b80f487bd"),
    "scalar-1d": ("39c41d7c591e44460844f5e84c63510b9eba07a789d6d95caa086bf3210c8d87",
                  "ff4c9009118afcd45c8d46a778a75f2918d8c1bfc1695398e7558c076a38c6aa"),
    "scalar-1d-stride-7": ("53b08097a22331782c1e3042b21a8477f5f8af8b45ca17fc27844b750ccf0524",
                           "aa21156d9639933bbf47ada3e03f5a521e62f60901417d29146295d25992f4f9"),
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
