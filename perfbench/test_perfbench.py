"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from repro.harness.experiment import point_seed, run_point, spec_token  # noqa: E402
from repro.harness.plan import make_plan  # noqa: E402
from repro.units import GiB  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    build_plans,
    oracle_figure,
    result_digest,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_generation_is_reproducible_per_seed():
    for workload in WORKLOADS.values():
        first = [(p.fig_id, p.reps, tuple(map(spec_token, p.specs))) for p in build_plans(workload)]
        again = [(p.fig_id, p.reps, tuple(map(spec_token, p.specs))) for p in build_plans(workload)]
        assert first == again and first
        spec = build_plans(workload)[0].specs[0]
        assert point_seed(spec, 0, base_seed=7) == point_seed(spec, 0, base_seed=7)
        assert point_seed(spec, 0, base_seed=7) != point_seed(spec, 0, base_seed=8)


def test_metric_names_and_caps_match_the_benchmark_file():
    bench = _bench()
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    for name in end_to_end + per_layer + [w["name"] for w in bench["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    assert end_to_end == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == (
        tracing.per_layer_metrics()
    )
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.fixture(scope="module")
def small_pass():
    """A one-point pass (a cheap cohort point) and its reference."""
    spec = build_plans(WORKLOADS["daos-bulk"])[-1].specs[0]
    plan = make_plan("SC", "quick", 1, [spec],
                     lambda results: oracle_figure("SC", [spec], results))
    result = run_point(spec, reps=1, base_seed=0)
    figure = plan.assemble({spec: result})
    passed = run.Pass(0.0, [plan], [figure], {spec: result})
    return passed, {spec_token(spec): result_digest(result)}


def test_matching_pass_has_no_failures(small_pass):
    passed, refs = small_pass
    assert run.check_pass(passed, refs, expected=refs) == {}


def test_altered_point_result_is_counted_as_failed(small_pass):
    passed, refs = small_pass
    (spec, result), = passed.results.items()
    altered = dataclasses.replace(result, read_bw=(result.read_bw[0] * (1 + 1e-12), 0.0))
    bad = run.Pass(0.0, passed.plans, passed.figures, {spec: altered})
    assert set(run.check_pass(bad, refs)) == {spec_token(spec)}
    assert set(run.check_pass(bad, {}, expected=refs)) == {spec_token(spec)}
    # without any reference, the roofline oracle still catches a wild value
    wild = dataclasses.replace(result, write_bw=(spec.n_servers * 4.0 * GiB, 0.0))
    bad = run.Pass(0.0, passed.plans, passed.figures, {spec: wild})
    assert "roofline" in run.check_pass(bad, {})[spec_token(spec)]
    missing = run.Pass(0.0, passed.plans, passed.figures, {})
    assert run.check_pass(missing, refs) == {spec_token(spec): "missing from assembly"}


def test_scaled_wall_takes_out_host_slowdown_only(small_pass):
    passed, _ = small_pass
    slow_host = run.Pass(3.0, passed.plans, passed.figures, passed.results, slowdown=2.0)
    assert slow_host.scaled == pytest.approx(1.5)
    # the kernels share no code with the program they calibrate
    assert not any(name.startswith("repro") for name in vars(hostspeed))
    gauge = hostspeed.Gauge()
    assert gauge.slowdown == 1.0
    gauge.sample()
    assert len(gauge.cpu) == len(gauge.memory) == 1
    assert gauge.slowdown > 0 and gauge.spent > 0


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_generator_resumes_charge_nested_yield_from_to_innermost_span():
    tracer = tracing.Tracer()

    def inner():
        _spin(0.03)
        got = yield "inner-1"
        _spin(0.03)
        return got * 2

    def outer():
        _spin(0.01)
        value = yield from traced_inner()
        _spin(0.01)
        return value + 1

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    gen = traced_outer()
    assert next(gen) == "inner-1"  # suspended: no span may stay open
    assert tracer._stack == []
    with pytest.raises(StopIteration) as stop:
        gen.send(20)
    assert stop.value.value == 41
    calls_in, self_in, total_in = tracer.stats["inner"]
    calls_out, self_out, total_out = tracer.stats["outer"]
    assert (calls_in, calls_out) == (1, 1)
    assert self_in >= 0.06 and total_in == pytest.approx(self_in)
    assert 0.02 <= self_out < 0.05
    assert total_out == pytest.approx(self_out + total_in)
    # every inner resume span is the child of an outer resume span
    ids = {sid: layer for sid, layer, *_ in tracer.spans}
    assert all(ids[parent] == "outer" for _, layer, _, _, parent, _ in tracer.spans
               if layer == "inner")


def test_generator_wrapper_forwards_throw():
    tracer = tracing.Tracer()

    def gen():
        try:
            yield 1
        except KeyError:
            return "caught"

    wrapped = tracer.wrap("g", gen)()
    next(wrapped)
    with pytest.raises(StopIteration) as stop:
        wrapped.throw(KeyError("x"))
    assert stop.value.value == "caught" and tracer._stack == []


def test_installed_wraps_and_restores_every_entry_point():
    from repro.daos.array import DaosArray
    from repro.fdb import schema
    from repro.harness import executor
    from repro.workloads import fdb_hammer

    originals = (DaosArray.bulk_charges, schema.make_key, fdb_hammer.key_sequence,
                 executor.run_point)
    with tracing.installed(tracing.Tracer()):
        assert DaosArray.bulk_charges is not originals[0]
        assert fdb_hammer.key_sequence is not originals[2]
        assert executor.run_point is not originals[3]
    assert (DaosArray.bulk_charges, schema.make_key, fdb_hammer.key_sequence,
            executor.run_point) == originals


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "daos-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
