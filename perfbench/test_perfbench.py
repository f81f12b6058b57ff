"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from transgress import cli  # noqa: E402


def answer(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_exterior_ranks():
    # A2: generators in degrees 3 and 5.
    assert oracle.exterior_ranks((2, 3), 8) == [1, 0, 0, 1, 0, 1, 0, 0, 1]
    assert oracle.Spec("E8").dim == 248
    assert oracle.Spec("D5:adj").pi1 == (4,)


@pytest.mark.parametrize("argv", [
    ["e3", "A2", "--json", "--bidegrees"],
    ["e3", "G2", "--coeff", "3", "--json", "--bidegrees"],
])
def test_oracle_rejects_one_rank_off(argv):
    good = answer(argv)
    assert oracle.check_job(argv, good) == []
    doc = json.loads(good)
    doc["payload"]["ranks"][3][1] += 1
    problems = oracle.check_job(argv, json.dumps(doc))
    assert any("degree 3" in p for p in problems)


def test_oracle_rejects_one_tau_entry_off():
    argv = ["tau", "D4:adj", "--mod", "2", "--json"]
    good = answer(argv)
    assert oracle.check_job(argv, good) == []
    doc = json.loads(good)
    doc["payload"]["matrix"]["entries"][1][2] += 1
    assert oracle.check_job(argv, json.dumps(doc))


def test_oracle_rejects_wrong_kernel_dimension():
    argv = ["tau", "A3:pi1=[0,1,0]", "--mod", "2", "--json"]
    doc = json.loads(answer(argv))
    doc["payload"]["mod"]["kernel"] = []
    assert any("dim ker" in p for p in oracle.check_job(argv, json.dumps(doc)))


def test_oracle_reports_malformed_answer():
    argv = ["tau", "A1:sc", "--mod", "2", "--json"]
    doc = json.loads(answer(argv))
    del doc["payload"]["mod"]
    assert oracle.check_job(argv, json.dumps(doc)) == ["malformed answer: KeyError('mod')"]


def test_oracle_rejects_wrong_center():
    argv = ["describe", "E6:adj", "--json"]
    doc = json.loads(answer(argv))
    assert oracle.check_job(argv, json.dumps(doc)) == []
    doc["payload"]["pi1_order"] = 1
    assert oracle.check_job(argv, json.dumps(doc))


TINY_JOBS = {
    "e3-full-q": ["e3", "G2", "--json", "--bidegrees"],
    "e3-low-degree-modp": ["e3", "A3", "--coeff", "2", "--max-degree", "3",
                           "--json", "--bidegrees"],
    "tau-sweep": ["tau", "D4:adj", "--mod", "2", "--json"],
}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_job_end_to_end(workload):
    jobs = [TINY_JOBS[workload]]
    untraced = run.run_pass(jobs, False, 60)
    traced = run.run_pass(jobs, True, 60)
    records = run.judge(jobs, [untraced, traced], [untraced])
    assert records[0]["ok"], records[0]["problems"]
    e2e = run.end_to_end([untraced["setup_s"]], [untraced], records)
    assert set(e2e) == set(run.END_TO_END)
    assert all(v > 0 for v in e2e.values())
    layers = run.per_layer([untraced], [traced])
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for metrics, section in ((e2e, "end_to_end"), (layers, "per_layer")):
        assert {m["name"]: m["unit"] for m in declared[section]} == {
            name: run._unit(name) for name in metrics}
    assert layers["cli.main_s"] > 0 and layers["groupspec.parse_s"] > 0
    assert layers["cli.bytes"] == records[0]["stdout_bytes"]
    assert traced["trace"]["absent"] == []
    if workload != "tau-sweep":
        assert layers["spectral.chevalley_calls"] > 0
        assert layers["spectral.weyl_elements"] > 0
        assert 0 < layers["spectral.d2_density"] <= 1


def test_known_defect_counts_as_failed():
    argv = ["e3", "C4", "--coeff", "2", "--max-degree", "5", "--json", "--bidegrees"]
    report = {"jobs": [{"rc": 0, "seconds": 1.0, "stdout": "{}", "stderr": "",
                        "error": None}]}
    # A stand-in answer with rank 1 in degree 5, where Borel gives 0.
    report["jobs"][0]["stdout"] = json.dumps({
        "kind": "e3", "group": "C4:sc",
        "payload": {"coefficients": 2, "max_total_degree": 5,
                    "ranks": [[d, int(d in (0, 3, 5))] for d in range(6)]},
    })
    record = run.judge([argv], [report], [report])[0]
    assert not record["ok"] and record["known_defect"]
    assert record["problems"] == ["degree 5: rank 1, expected = 0"]


def test_absent_span_does_not_fail(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", {
        ("spectral", "renamed_away"): "spectral.gone",
        ("no_such_module", "f"): "nowhere.f",
    })
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.absent == ["spectral.gone", "nowhere.f"]


def test_d2_counts_read_dense_and_sparse_rows():
    cells = {(0, 1): ("a", "b"), (2, 0): ("x", "y", "z")}
    dense = {(0, 1): ((1, 0, 2), (0, 0, -1))}
    as_dicts = {(0, 1): ({0: 1, 2: 2}, {2: -1})}
    as_pairs = {(0, 1): (((0, 1), (2, 2)), ((2, -1),))}
    for d2 in (dense, as_dicts, as_pairs):
        counts = spans._page_counts(SimpleNamespace(cells=cells, d2=d2))
        assert counts == {"spectral.cells": 5, "spectral.d2_nonzeros": 3,
                          "spectral.d2_dense": 6}
