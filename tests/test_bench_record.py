"""The committed benchmark record's comparator (tools/bench_record.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def doc(correct=True, failed=0, **values):
    metrics = {
        "fdb.keys.calls": 768.0,
        "fdb.keys.self_s": 0.15,
        "sim.events": 6371.0,
        "flownet.recomputes": 3838.0,
        "daos.failovers": 0.0,
        "workload.lost_ops": 0.0,
        "sim.events_per_s": 4688.0,
    }
    metrics.update(values)
    result = {"correct": correct, "attempted": 12, "failed": failed,
              "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
    return {"schema": bench_record.SCHEMA, "workloads": {"kv-metadata": result}}


@pytest.mark.parametrize("metric", [
    "fdb.keys.calls", "sim.events", "flownet.recomputes", "daos.failovers", "workload.lost_ops",
])
def test_deterministic_count_change_fails_unless_expected(metric):
    old, new = doc(), doc(**{metric: 1.0})
    _, failures = bench_record.compare(old, new)
    assert len(failures) == 1 and metric in failures[0]
    assert bench_record.compare(old, new, expect_change=[metric])[1] == []


def test_times_and_rates_only_reported():
    lines, failures = bench_record.compare(doc(), doc(**{"fdb.keys.self_s": 0.3, "sim.events_per_s": 1.0}))
    assert failures == []
    assert any("fdb.keys.self_s" in line and "+100.0%" in line for line in lines)
    assert any("sim.events" in line and line.endswith("=") for line in lines)


def test_missing_count_and_incorrect_run_fail():
    new = doc()
    del new["workloads"]["kv-metadata"]["metrics"]["sim.events"]
    assert bench_record.compare(doc(), new)[1] == ["kv-metadata: sim.events 6371.0 -> None"]
    assert bench_record.compare(doc(), doc(correct=False))[1]
    assert bench_record.compare(doc(), doc(failed=1))[1]


def end_to_end(doc, correct=True, failed=0, wall_s=0.9):
    """``doc`` as a ``bench-record/2`` record with an untraced run."""
    metrics = {"wall_s": wall_s, "setup_s": 0.4, "peak_rss_mib": 51.0}
    doc["workloads"]["kv-metadata"]["end_to_end"] = {
        "correct": correct, "attempted": 12, "failed": failed,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
    return doc


def test_end_to_end_times_reported_not_gated_and_v1_records_still_read():
    old_v1 = {**doc(), "schema": "bench-record/1"}
    lines, failures = bench_record.compare(old_v1, end_to_end(doc()))
    assert failures == []
    assert any("wall_s" in line and line.endswith("missing") for line in lines)
    lines, failures = bench_record.compare(end_to_end(doc()), end_to_end(doc(), wall_s=1.8))
    assert failures == []
    assert any("wall_s" in line and "+100.0%" in line for line in lines)
    assert bench_record.compare(end_to_end(doc()), old_v1)[1] == []
    assert bench_record.compare(doc(), end_to_end(doc(), correct=False))[1]
    assert bench_record.compare(doc(), end_to_end(doc(), failed=2))[1]


def test_compare_exit_status(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(doc()))
    new.write_text(json.dumps(doc(**{"fdb.keys.calls": 37248.0})))
    assert bench_record.main(["--compare", str(old), str(new)]) == 1
    assert "FAIL kv-metadata: fdb.keys.calls" in capsys.readouterr().err
    args = ["--compare", str(old), str(new), "--expect-change", "fdb.keys.calls"]
    assert bench_record.main(args) == 0
    assert bench_record.main(["--compare", str(old), str(old)]) == 0


def test_committed_records_are_comparable():
    records = sorted((_PATH.parent.parent / "benchmarks").glob("BENCH_*.json"))
    for path in records:
        record = json.loads(path.read_text())
        assert record["schema"] in bench_record.READABLE
        assert path.name == f"BENCH_{record['sha'][:12]}.json"
        assert set(record["workloads"]) == {"daos-bulk", "kv-metadata", "exact-faults"}
        assert {"python", "nproc", "cpu"} <= set(record["host"])
