"""Smoke test of the benchmark: every workload at seconds-long sizes.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs untraced and traced through ``run.py --smoke``.  The
test fails on any wrong result (the run reports ``"correct": false`` and
exits 1) and when the printed metric names or units differ from
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), ROOT]

from spec import END_TO_END, PER_LAYER  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _declared(section):
    return {m["name"]: m["unit"] for m in _benchmark()[section]}


def test_spec_matches_benchmark_json():
    bench = _benchmark()
    assert _declared("end_to_end") == {n: u for n, (u, _b) in END_TO_END.items()}
    assert _declared("per_layer") == {n: s[0] for n, s in PER_LAYER.items()}
    for metric in bench["end_to_end"]:
        assert metric["better"] == END_TO_END[metric["name"]][1]
    for metric in bench["per_layer"]:
        assert metric["better"] == PER_LAYER[metric["name"]][1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [w["name"] for w in _benchmark()["workloads"]]
)
def test_smoke_run(workload, trace, tmp_path):
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
        "--out", str(tmp_path),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert report["failed"] == 0 and report["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    printed = {name: m["unit"] for name, m in report["metrics"].items()}
    assert printed == _declared(section)
    assert all(isinstance(m["value"], float) for m in report["metrics"].values())


def test_oracle_flags_a_wrong_result():
    from repro import Database
    from run import Oracle
    from workloads import Op, TxnMix

    workload = TxnMix(smoke=True)
    db = Database()
    workload.build(db, 3)
    oracle = Oracle(db)
    op = Op("read", "SELECT E.name FROM Emp E WHERE E.emp_no = ?", params=(5,))
    oracle.check_read(op, db.sql("SELECT E.name FROM Emp E WHERE E.emp_no = 5").rows)
    assert oracle.mismatches == []
    oracle.check_read(op, [("someone else",)])
    assert len(oracle.mismatches) == 1
    # A write the mirror saw but the program lost is a durability violation.
    oracle.apply_write(Op("write", "DELETE FROM Emp WHERE emp_no = 7"))
    oracle.check_tables(db, "after write")
    assert len(oracle.mismatches) == 2


def test_tracer_flags_spans_that_do_not_nest():
    from spans import Tracer

    tracer = Tracer()
    tracer.spans = [("op", 0.0, 1.0, -1, 0), ("sql.parse", 0.1, 0.3, 0, 0),
                    ("engine.execute", 0.4, 0.9, 0, 0), ("op", 1.0, 2.0, -1, 1)]
    assert tracer.misnested() == 0
    overlapping = ("engine.execute", 0.2, 0.9, 0, 0)
    tracer.spans[2] = overlapping
    assert tracer.misnested() == 1
    tracer.spans[2] = ("engine.execute", 0.4, 1.1, 0, 0)  # outlives its parent
    assert tracer.misnested() == 1


def test_recovery_log_length_does_not_depend_on_the_loop():
    from run import timed_run
    from workloads import TxnMix

    short = timed_run(TxnMix(smoke=True), 3, 0.3, True)[1]
    long = timed_run(TxnMix(smoke=True), 3, 1.5, True)[1]
    assert short["ops"] < long["ops"]
    # Every write phase of both runs recovers a log of the same length.
    assert short["recovery_log_records"] == long["recovery_log_records"]
    assert len(short["recovery_log_records"]) == 1
