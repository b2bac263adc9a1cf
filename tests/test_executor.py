"""Plan / executor / cache layer: bit-identical results across
executors and cache temperatures, dedup accounting, seed scheme,
version invalidation, and observability merging under parallelism.

Float comparisons here are intentionally exact (``==``): the executor
contract is that modelled numbers are a pure function of the task list,
so serial, parallel, and cached runs must agree to the last bit — any
tolerance would hide a determinism bug.
"""

import dataclasses
import json
import re

import pytest

import repro.obs as obs_mod
from repro.errors import ConfigError
from repro.harness.cache import RESULT_SCHEMA, ResultCache, point_key
from repro.harness.executor import (
    ExecutionReport,
    PointTask,
    SerialExecutor,
    execute_plan,
    execute_plans,
)
from repro.harness.experiment import (
    MODEL_VERSION,
    PointResult,
    PointSpec,
    point_seed,
    run_point,
    spec_token,
)
from repro.harness.figures import FigureResult, Series, build_figure, plan_figure
from repro.harness.plan import dedupe_plans, make_plan
from repro.harness.resilience import ResilientParallelExecutor

# small, fast specs: 2 servers, 1 client node, a handful of ops
SMALL = PointSpec(
    workload="ior", store="daos", api="DAOS",
    n_servers=2, n_client_nodes=1, ppn=2, ops_per_process=4, batches=1,
)
OTHER = SMALL.with_(ppn=4)
THIRD = SMALL.with_(api="DFS")
DD = PointSpec(
    workload="rawio", store="daos", api="dd",
    n_servers=1, n_client_nodes=1, extra=(("blocks", 2),),
)


def tiny_plan(fig_id="T", specs=(SMALL, OTHER, DD), reps=2):
    """A figure plan over the small specs: one series per spec."""
    specs = list(specs)

    def assemble(results):
        rows = [
            Series(spec_token(s), [0.0], [results[s].write_bw[0]],
                   [results[s].write_bw[1]])
            for s in specs
        ]
        return FigureResult(
            fig_id=fig_id, title=fig_id, xlabel="-",
            panels={"write": rows}, paper_expectation="",
        )

    return make_plan(fig_id, "quick", reps, specs, assemble)


def series_data(fig):
    return [
        (panel, s.label, s.xs, s.means, s.stds)
        for panel, rows in sorted(fig.panels.items())
        for s in rows
    ]


# ------------------------------------------------------------- seed scheme


def test_point_seed_stable_and_spec_sensitive():
    assert point_seed(SMALL, 0) == point_seed(SMALL, 0)
    assert point_seed(SMALL, 0) != point_seed(SMALL, 1)
    assert point_seed(SMALL, 0) != point_seed(OTHER, 0)
    assert point_seed(SMALL, 0) != point_seed(SMALL, 0, base_seed=1)
    assert 0 <= point_seed(SMALL, 0) < 2 ** 63


def test_point_seed_no_positional_collisions():
    # regression for the retired `base_seed * 1000 + rep` scheme, where
    # (rep=1000, base=0) and (rep=0, base=1) collided
    assert point_seed(SMALL, 1000, base_seed=0) != point_seed(SMALL, 0, base_seed=1)
    seen = {
        point_seed(SMALL, rep, base_seed=base)
        for rep in range(50)
        for base in range(4)
    }
    assert len(seen) == 50 * 4


# ------------------------------------------------------------- plan dedup


def test_make_plan_folds_duplicate_specs():
    plan = tiny_plan(specs=[SMALL, OTHER, SMALL, SMALL])
    assert plan.specs == (SMALL, OTHER)
    assert plan.requested == 4
    assert len(plan) == 2


def test_make_plan_rejects_zero_reps():
    with pytest.raises(ConfigError):
        tiny_plan(reps=0)


def test_dedupe_plans_shares_points_across_figures():
    a = tiny_plan("A", specs=[SMALL, OTHER])
    b = tiny_plan("B", specs=[SMALL, DD])
    batch = dedupe_plans([a, b])
    assert batch.planned_points == 4
    assert batch.unique_points == 3  # SMALL shared
    assert batch.deduped_points == 1
    assert [spec for spec, _ in batch.tasks] == [SMALL, OTHER, DD]


def test_dedupe_plans_keeps_differing_reps_apart():
    a = tiny_plan("A", specs=[SMALL], reps=1)
    b = tiny_plan("B", specs=[SMALL], reps=2)
    batch = dedupe_plans([a, b])
    assert batch.unique_points == 2  # same spec, different aggregation


def test_real_figures_share_points():
    # Fig. 3's reference IOR sweep overlaps Fig. 5's server sweep
    batch = dedupe_plans([plan_figure("F3"), plan_figure("F5")])
    assert batch.deduped_points > 0


def test_assemble_missing_results_raises():
    plan = tiny_plan(specs=[SMALL, OTHER])
    with pytest.raises(ConfigError, match="point results missing"):
        plan.assemble({SMALL: run_point(SMALL, reps=2)})


# ------------------------------------------------------------- executors


def test_serial_and_parallel_bit_identical():
    plan = tiny_plan()
    serial_fig, serial_rep = execute_plan(plan, executor=SerialExecutor())
    par_fig, par_rep = execute_plan(plan, executor=ResilientParallelExecutor(jobs=2))
    # exact: determinism contract, see module docstring
    assert series_data(serial_fig) == series_data(par_fig)
    assert serial_rep.jobs == 1 and par_rep.jobs == 2
    assert serial_rep.executed_points == par_rep.executed_points == 3


def test_parallel_matches_run_point_directly():
    results = ResilientParallelExecutor(jobs=2).run_tasks(
        [PointTask(SMALL, reps=2), PointTask(OTHER, reps=2)]
    )
    direct = [run_point(SMALL, reps=2), run_point(OTHER, reps=2)]
    # exact: same seeds, same model, different processes
    assert [r.write_bw for r in results] == [r.write_bw for r in direct]
    assert [r.read_bw for r in results] == [r.read_bw for r in direct]


def test_parallel_preserves_task_order():
    tasks = [PointTask(OTHER, reps=1), PointTask(SMALL, reps=1), PointTask(DD, reps=1)]
    results = ResilientParallelExecutor(jobs=3).run_tasks(tasks)
    assert [r.spec for r in results] == [OTHER, SMALL, DD]


def test_parallel_rejects_bad_jobs():
    with pytest.raises(ConfigError):
        ResilientParallelExecutor(jobs=0)


def test_execute_plans_executes_shared_points_once():
    a = tiny_plan("A", specs=[SMALL, OTHER])
    b = tiny_plan("B", specs=[SMALL, DD])
    figures, report = execute_plans([a, b])
    assert [f.fig_id for f in figures] == ["A", "B"]
    assert report.requested_points == 4
    assert report.unique_points == 3
    assert report.executed_points == 3
    # the shared SMALL point feeds both assemblies with the same numbers
    # exact: one execution, two consumers
    assert figures[0].panels["write"][0].means == figures[1].panels["write"][0].means


def test_build_figure_serial_parallel_identical():
    serial = build_figure("HW")
    parallel = build_figure("HW", executor=ResilientParallelExecutor(jobs=2))
    # exact: determinism contract across executors
    assert series_data(serial) == series_data(parallel)
    assert serial.all_passed and parallel.all_passed


# ------------------------------------------------------------- cache


def test_cache_cold_then_warm(tmp_path):
    plan = tiny_plan()
    cold = ResultCache(tmp_path / "c")
    fig_cold, rep_cold = execute_plan(plan, cache=cold)
    assert cold.stats.hits == 0
    assert cold.stats.misses == 3
    assert cold.stats.stored == 3
    assert len(cold) == 3

    warm = ResultCache(tmp_path / "c")
    fig_warm, rep_warm = execute_plan(plan, cache=warm)
    assert warm.stats.hits == 3
    assert warm.stats.misses == 0
    assert warm.stats.hit_rate == 1.0
    assert rep_warm.executed_points == 0
    # exact: JSON round-trips Python floats losslessly (shortest repr)
    assert series_data(fig_cold) == series_data(fig_warm)


def test_cache_distinguishes_reps_and_base_seed(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(run_point(DD, reps=1))
    assert cache.get(DD, 1) is not None
    assert cache.get(DD, 2) is None  # different aggregation
    assert cache.get(DD, 1, base_seed=7) is None  # different seed family
    assert point_key(DD, 1) != point_key(DD, 1, base_seed=7)


def test_cache_round_trip_keeps_every_spec_field(tmp_path):
    # a cohort point read back from the cache must carry its own spec,
    # not one with cohort reset to the default
    spec = SMALL.with_(cohort=10, extra=(("stripe", 4),))
    result = PointResult(
        spec=spec, write_bw=(1.5, 0.25), read_bw=(2.5, 0.5),
        write_iops=(3.0, 0.0), read_iops=(4.0, 0.0), reps=2,
    )
    cache = ResultCache(tmp_path)
    cache.put(result)
    got = cache.get(spec, 2)
    assert got == result
    assert got.spec.cohort == 10
    doc = json.loads(cache.path_for(point_key(spec, 2)).read_text())
    assert set(doc["spec"]) == {f.name for f in dataclasses.fields(PointSpec)}


def test_cache_model_version_invalidation(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(run_point(DD, reps=1))
    assert len(cache) == 1

    stale = ResultCache(tmp_path, model_version=MODEL_VERSION + "-next")
    assert stale.get(DD, 1) is None
    assert stale.stats.invalidated == 1
    assert stale.stats.misses == 1
    assert len(stale) == 0  # the stale entry was deleted, not kept


def test_cache_schema_and_corruption_invalidation(tmp_path):
    cache = ResultCache(tmp_path)
    result = run_point(DD, reps=1)
    cache.put(result)
    path = cache.path_for(point_key(DD, 1))

    doc = json.loads(path.read_text())
    assert doc["result_schema"] == RESULT_SCHEMA
    doc["result_schema"] = RESULT_SCHEMA + 1
    path.write_text(json.dumps(doc))
    assert cache.get(DD, 1) is None
    assert cache.stats.invalidated == 1

    cache.put(result)
    path.write_text("{not json")
    assert cache.get(DD, 1) is None
    assert cache.stats.invalidated == 2


def test_cache_corruption_recovery(tmp_path):
    """Truncated, garbage, and half-written entries are discarded on
    read and simply recomputed — a crashed writer can't poison the
    cache."""
    cache = ResultCache(tmp_path)
    result = run_point(DD, reps=1)
    path = cache.path_for(point_key(DD, 1))

    # truncated mid-write (e.g. a worker SIGKILLed during fsync)
    cache.put(result)
    full = path.read_text()
    path.write_text(full[: len(full) // 2])
    assert cache.get(DD, 1) is None
    assert not path.exists()  # discarded, not left to fail every run

    # binary garbage
    cache.put(result)
    path.write_bytes(b"\x00\xffnot-json\x13")
    assert cache.get(DD, 1) is None
    assert not path.exists()

    # parses as JSON, right versions, but the payload is missing:
    # corrupt, not merely version-stale
    cache.put(result)
    doc = json.loads(path.read_text())
    partial = {
        "model_version": doc["model_version"],
        "result_schema": doc["result_schema"],
    }
    path.write_text(json.dumps(partial))
    assert cache.get(DD, 1) is None
    assert not path.exists()

    # valid JSON that is not an object
    for payload in ("[1, 2]", "null", '"x"', "3"):
        cache.put(result)
        path.write_text(payload)
        assert cache.get(DD, 1) is None, payload
        assert not path.exists()

    # a well-formed entry at another point's path is not that point
    cache.put(result)
    other = cache.path_for(point_key(SMALL, 1))
    other.parent.mkdir(parents=True, exist_ok=True)
    other.write_text(path.read_text())
    assert cache.get(SMALL, 1) is None
    assert not other.exists()

    # a bandwidth that is no number, and an entry for another reps count
    for field, value in (("write_bw", ["fast", "slow"]), ("reps", 7)):
        cache.put(result)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        assert cache.get(DD, 1) is None, field
        assert not path.exists()

    assert cache.stats.corrupt_discarded == 10
    assert cache.stats.invalidated == 10
    assert cache.stats.misses == 10
    assert "10 corrupt discarded" in cache.stats.summary()

    # recomputing repopulates the slot and it reads back clean
    cache.put(result)
    assert cache.get(DD, 1) is not None


def test_cache_version_mismatch_is_not_counted_corrupt(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(run_point(DD, reps=1))
    stale = ResultCache(tmp_path, model_version=MODEL_VERSION + "-next")
    assert stale.get(DD, 1) is None
    assert stale.stats.invalidated == 1
    assert stale.stats.corrupt_discarded == 0  # stale, not corrupt
    assert "corrupt discarded" not in stale.stats.summary()


def test_cache_roundtrip_is_exact(tmp_path):
    cache = ResultCache(tmp_path)
    result = run_point(SMALL, reps=2)
    cache.put(result)
    loaded = cache.get(SMALL, 2)
    # exact: cache hits must be indistinguishable from re-execution
    assert loaded.spec == result.spec
    assert loaded.write_bw == result.write_bw
    assert loaded.read_bw == result.read_bw
    assert loaded.write_iops == result.write_iops
    assert loaded.read_iops == result.read_iops
    assert loaded.reps == result.reps


# ------------------------------------------------- observability merging


def run_observed(executor):
    obs = obs_mod.Observability()
    with obs_mod.activated(obs):
        fig, _ = execute_plan(tiny_plan(specs=(SMALL, OTHER)), executor=executor)
    obs.finalize()
    return fig, obs


def test_obs_counters_merge_across_workers():
    fig_s, obs_s = run_observed(SerialExecutor())
    fig_p, obs_p = run_observed(ResilientParallelExecutor(jobs=2))
    # exact: modelled numbers unaffected by observation or executor
    assert series_data(fig_s) == series_data(fig_p)
    for name in ("sim.events_executed", "workload.ops", "workload.bytes",
                 "flownet.flows.completed"):
        serial_counter = obs_s.registry.counter(name)
        merged_counter = obs_p.registry.counter(name)
        # exact: integer-valued counters, commutative merge
        assert merged_counter.value == serial_counter.value, name


def test_obs_spans_and_runs_merge_across_workers():
    _, obs_s = run_observed(SerialExecutor())
    _, obs_p = run_observed(ResilientParallelExecutor(jobs=2))
    assert len(obs_p.tracer.spans) == len(obs_s.tracer.spans)
    # 2 points x 2 reps = 4 runs, whichever process ran them
    assert obs_p.run_index + 1 == obs_s.run_index + 1 == 4
    # every absorbed span landed in a distinct, remapped pid lane
    assert {s.pid for s in obs_p.tracer.spans} == {0, 1, 2, 3}
    # exact: both executors merge the same per-point records in plan order
    assert obs_p.link_stats == obs_s.link_stats


# exact mode with a target killed mid-read and a rebuild: per-op latency
# histograms, the rebuild gauge and the op ledger all observe
FAULTED = SMALL.with_(
    n_client_nodes=2, ops_per_process=16, mode="exact",
    faults="target@read+0.02:5,rebuild", object_class="RP_2GX",
)


def profiled(plans, executor=None):
    """Build ``plans`` under an Observability with every instrument on."""
    obs = obs_mod.Observability(
        profile=obs_mod.ProfileRecorder(), ledger=obs_mod.OpLedger()
    )
    with obs_mod.activated(obs):
        figures, report = execute_plans(plans, executor=executor)
    return obs, figures, report


def test_obs_identical_serial_and_parallel_with_faults():
    plan = tiny_plan(specs=(FAULTED, FAULTED.with_(ppn=4)))
    obs_s, [fig_s], _ = profiled([plan], SerialExecutor())
    obs_p, [fig_p], _ = profiled([plan], ResilientParallelExecutor(jobs=2))
    # a single plan's telemetry is merged into the ambient Observability
    assert fig_s.obs is obs_s and fig_p.obs is obs_p
    # exact: telemetry is a function of the plan, never of the job count
    assert obs_s.registry.dump_state() == obs_p.registry.dump_state()
    assert obs_s.registry.gauge("faults.rebuild_active").value == 1.0
    assert obs_s.link_stats == obs_p.link_stats
    assert obs_s.ledger.dump_state() == obs_p.ledger.dump_state()
    assert obs_s.ledger.names()
    for attr in ("events_dispatched", "recomputes", "recompute_flows",
                 "recompute_edges", "queue_depth_peak"):
        assert getattr(obs_s.profile, attr) == getattr(obs_p.profile, attr), attr


def test_shared_point_runs_once_and_feeds_each_figure_telemetry():
    a = tiny_plan("A", specs=[SMALL, OTHER])
    b = tiny_plan("B", specs=[SMALL, THIRD])
    _, figures, report = profiled([a, b])
    assert report.executed_points == report.unique_points == 3
    for plan, fig in zip((a, b), figures):
        alone, [single], _ = profiled([plan])
        assert fig.obs is not None and fig.obs is not alone
        # exact: the shared point's record is merged into both figures
        assert fig.obs.profile.events_dispatched == alone.profile.events_dispatched
        assert fig.obs.profile.recomputes == alone.profile.recomputes
        assert fig.obs.registry.dump_state() == alone.registry.dump_state()
        assert series_data(fig) == series_data(single)


def test_unobserved_build_carries_no_telemetry():
    fig, _ = execute_plan(tiny_plan(specs=(DD,)))
    assert fig.obs is None
    [result] = SerialExecutor().run_tasks([PointTask(DD, reps=1)])
    assert result.record is None


def test_observed_warm_cache_build_executes_every_point(tmp_path, capsys):
    from repro.harness.cli import main

    argv = ["HW", "--cache-dir", str(tmp_path / "cache"), "--metrics-json"]
    docs = []
    for run in ("cold", "warm"):
        path = tmp_path / f"{run}.json"
        assert main([*argv, str(path)]) == 0
        unique, executed = re.search(
            r"(\d+) unique points .*; (\d+) executed", capsys.readouterr().out
        ).groups()
        # a cached result carries no record: serving it would leave the
        # figure's telemetry partial, so an observed build runs it again
        assert executed == unique != "0", run
        docs.append(path.read_text())
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["HW"]
    # the cache was still written: an unobserved build is served from it
    assert main(["HW", "--cache-dir", str(tmp_path / "cache")]) == 0
    assert "100.0% hit rate" in capsys.readouterr().out


def test_obs_hottest_links_survive_merge():
    _, obs_p = run_observed(ResilientParallelExecutor(jobs=2))
    hottest = obs_p.hottest_links(top=3)
    assert hottest
    assert all(0.0 <= util <= 1.0 + 1e-9 for _, util in hottest)


# ------------------------------------------------- report plumbing


def test_execution_report_as_dict_roundtrip():
    report = ExecutionReport(
        jobs=2, requested_points=10, planned_points=9, unique_points=8,
        executed_points=5, wall_seconds=1.5,
    )
    assert report.deduped_points == 2
    assert "8 unique points" in report.summary()
