"""Resilient campaign execution: checkpoint/resume, per-point timeouts,
worker-crash containment, and quarantine.

The invariant under test everywhere: resilience machinery must never
change modelled numbers.  A batch that loses workers to SIGKILL, gets
interrupted and resumed, or routes points through retries must produce
figures byte-identical to an undisturbed serial run — the only
difference is host-side accounting (retried/timed_out/quarantined/
resumed counts and the quarantine file).
"""

import json
import math
import signal

import pytest

import repro.harness.executor as executor_mod
from repro.errors import ConfigError
from repro.harness.cache import ResultCache, point_key
from repro.harness.executor import (
    SerialExecutor,
    execute_plan,
    execute_plans,
)
from repro.harness.experiment import PointSpec, spec_token
from repro.harness.figures import FigureResult, Series
from repro.harness.plan import make_plan
from repro.harness.resilience import (
    CHAOS_ENV,
    BatchJournal,
    ChaosPlan,
    ExecutionInterrupted,
    Quarantine,
    ResilienceConfig,
    ResilientParallelExecutor,
    chaos_plan,
    hole_result,
)

SMALL = PointSpec(
    workload="ior", store="daos", api="DAOS",
    n_servers=2, n_client_nodes=1, ppn=2, ops_per_process=4, batches=1,
)
OTHER = SMALL.with_(ppn=4)
DD = PointSpec(
    workload="rawio", store="daos", api="dd",
    n_servers=1, n_client_nodes=1, extra=(("blocks", 2),),
)
SPECS = (SMALL, OTHER, DD)


def tiny_plan(fig_id="R", specs=SPECS, reps=2):
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


@pytest.fixture
def serial_figure():
    fig, _ = execute_plan(tiny_plan())
    return fig


# ------------------------------------------------------- chaos grammar


def test_chaos_plan_parses_directives():
    plan = chaos_plan("kill-worker:ppn=4:2; sleep:dd:1.5; interrupt-after:3")
    assert plan == ChaosPlan(
        kill_substr="ppn=4", kill_attempts=2,
        sleep_substr="dd", sleep_seconds=1.5, interrupt_after=3,
    )
    assert plan.active
    assert chaos_plan("kill-worker:ppn=4").kill_attempts == 1
    assert not chaos_plan("").active


def test_chaos_plan_rejects_unknown_directive():
    with pytest.raises(ConfigError, match="unknown directive"):
        chaos_plan("explode:everything")


# ------------------------------------------- host-side number validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"point_timeout": math.nan},
        {"point_timeout": math.inf},
        {"retry_backoff": -1.0},
        {"retry_backoff": math.nan},
    ],
)
def test_executor_rejects_non_finite_or_negative_knobs(kwargs):
    # a NaN deadline compares false forever, so a hung point would
    # never be timed out; reject it at construction
    with pytest.raises(ConfigError, match="finite number"):
        ResilientParallelExecutor(jobs=2, **kwargs)


@pytest.mark.parametrize(
    "argv",
    [
        ["--point-timeout", "nan"],
        ["--retry-backoff", "-1"],
        ["--retry-backoff", "nan"],
        ["--timeline", "t.json", "--timeline-interval", "nan"],
    ],
)
def test_cli_rejects_non_finite_or_negative_knobs(argv, capsys):
    from repro.harness.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["HW", *argv])
    assert exc.value.code == 2
    assert "finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--resume"], ["--cache-dir", "resume-cache", "--no-cache", "--resume"]],
)
def test_cli_rejects_resume_without_a_cache(argv, capsys):
    # with no cache open there is no journal to resume from; the run
    # must not silently start from scratch
    from repro.harness.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["HW", *argv])
    assert exc.value.code == 2
    assert "--resume needs --cache-dir" in capsys.readouterr().err


# ------------------------------------------- identity with no faults


def test_resilient_matches_serial_bit_identical(serial_figure):
    fig, report = execute_plan(
        tiny_plan(), executor=ResilientParallelExecutor(jobs=2)
    )
    assert series_data(fig) == series_data(serial_figure)
    assert report.retried == 0
    assert report.timed_out == 0
    assert report.quarantined == 0


# ------------------------------------------------- worker-crash containment


def test_sigkilled_worker_is_retried_and_identical(serial_figure, monkeypatch):
    # one spec's worker SIGKILLs itself on the first attempt; the batch
    # must complete with retried > 0 and byte-identical series
    monkeypatch.setenv(CHAOS_ENV, "kill-worker:ppn=4")
    ex = ResilientParallelExecutor(jobs=2)
    fig, report = execute_plan(tiny_plan(), executor=ex)
    assert series_data(fig) == series_data(serial_figure)
    assert report.retried >= 1
    assert ex.last_stats.crashes >= 1
    assert report.quarantined == 0


def test_repeated_crasher_is_quarantined_not_fatal(
    serial_figure, tmp_path, monkeypatch
):
    # a task that kills its worker on every attempt exhausts the budget
    # and lands in quarantine; the rest of the batch still completes
    monkeypatch.setenv(CHAOS_ENV, "kill-worker:ppn=4:99")
    cache = ResultCache(tmp_path / "c")
    qpath = tmp_path / "q.json"
    ex = ResilientParallelExecutor(jobs=2, max_retries=1)
    with pytest.raises(ConfigError, match="quarantined after repeated failures"):
        execute_plans(
            [tiny_plan()], executor=ex, cache=cache,
            resilience=ResilienceConfig(max_retries=1, quarantine_path=qpath),
        )
    # the two innocent points were checkpointed despite the failure
    assert cache.get(SMALL, 2) is not None
    assert cache.get(DD, 2) is not None
    doc = json.loads(qpath.read_text())
    (entry,) = doc["entries"].values()
    assert entry["spec_token"] == spec_token(OTHER)
    assert entry["reason"] == "worker-crash"
    assert entry["attempts"] == 2  # 1 + max_retries

    # --allow-partial assembles around the hole; the quarantined point
    # is skipped (not re-attempted) and the note names it
    monkeypatch.delenv(CHAOS_ENV)
    figs, report = execute_plans(
        [tiny_plan()], executor=SerialExecutor(),
        cache=ResultCache(tmp_path / "c"),
        resilience=ResilienceConfig(
            allow_partial=True, quarantine_path=qpath
        ),
    )
    assert report.quarantined == 1
    assert "PARTIAL: 1 of 3" in figs[0].notes
    assert spec_token(OTHER) in figs[0].notes
    clean = {s.label: s for s in figs[0].panels["write"]}
    assert math.isnan(clean[spec_token(OTHER)].means[0])
    # the surviving points carry the exact serial numbers
    good = {s.label: s for s in serial_figure.panels["write"]}
    for tok in (spec_token(SMALL), spec_token(DD)):
        assert clean[tok].means == good[tok].means


# ------------------------------------------------- timeout -> quarantine


def test_point_timeout_retries_then_quarantines(tmp_path, monkeypatch):
    # one spec sleeps (host time) past the per-point deadline on every
    # attempt: each try is timed out on a fresh pool, then quarantined
    monkeypatch.setenv(CHAOS_ENV, "sleep:ppn=4:30")
    cache = ResultCache(tmp_path / "c")
    qpath = tmp_path / "q.json"
    ex = ResilientParallelExecutor(jobs=2, point_timeout=0.5, max_retries=1)
    with pytest.raises(ConfigError, match="re-run with --allow-partial"):
        execute_plans(
            [tiny_plan()], executor=ex, cache=cache,
            resilience=ResilienceConfig(
                point_timeout=0.5, max_retries=1, quarantine_path=qpath
            ),
        )
    assert ex.last_stats.timed_out >= 2
    q = Quarantine(qpath)
    key = point_key(OTHER, 2)
    assert q.has(key)
    assert q.entries[key]["reason"] == "timeout"
    assert q.entries[key]["spec_token"] == spec_token(OTHER)
    assert q.entries[key]["attempts"] == 2
    # the other points completed and were checkpointed
    assert cache.get(SMALL, 2) is not None
    assert cache.get(DD, 2) is not None


# ------------------------------------------------- interrupt -> resume


def test_interrupt_then_resume_serves_finished_from_cache(
    serial_figure, tmp_path, monkeypatch
):
    monkeypatch.setenv(CHAOS_ENV, "interrupt-after:1")
    cache = ResultCache(tmp_path / "c")
    with pytest.raises(ExecutionInterrupted) as exc_info:
        execute_plans(
            [tiny_plan()], executor=ResilientParallelExecutor(jobs=1),
            cache=cache, resilience=ResilienceConfig(),
        )
    finished = exc_info.value.completed
    assert 1 <= finished < 3
    assert len(cache) == finished  # everything finished was checkpointed
    journal_files = list((cache.root / "journal").iterdir())
    assert {p.suffix for p in journal_files} == {".journal", ".events"}

    # resume: every point finished before the interrupt is a cache hit
    monkeypatch.delenv(CHAOS_ENV)
    warm = ResultCache(tmp_path / "c")
    figs, report = execute_plans(
        [tiny_plan()], executor=ResilientParallelExecutor(jobs=1),
        cache=warm, resilience=ResilienceConfig(resume=True),
    )
    assert warm.stats.hits == finished
    assert warm.stats.misses == 3 - finished
    assert report.resumed == finished
    assert series_data(figs[0]) == series_data(serial_figure)


def test_batch_journal_round_trip(tmp_path):
    keys = [point_key(s, 2) for s in SPECS]
    journal = BatchJournal(tmp_path, BatchJournal.key_for(keys, 0))
    journal.write_manifest(
        {k: spec_token(s) for k, s in zip(keys, SPECS)}, base_seed=0, jobs=2
    )
    journal.mark_done(keys[0])
    journal.mark_done(keys[0])  # idempotent
    journal.mark_done(keys[2])
    fresh = BatchJournal(tmp_path, journal.batch_key)
    assert fresh.done_keys() == {keys[0], keys[2]}
    # a different batch (extra point / other seed) journals separately
    assert BatchJournal.key_for(keys[:2], 0) != journal.batch_key
    assert BatchJournal.key_for(keys, 7) != journal.batch_key


# ---------------------------------- mid-batch persistence (regression)


def test_mid_batch_failure_keeps_completed_results(tmp_path, monkeypatch):
    """A batch that dies halfway keeps everything it finished: cache.put
    happens per completion, not at the end (the all-or-nothing bug)."""
    real = executor_mod.run_point
    calls = []

    def flaky(spec, reps=1, base_seed=0):
        calls.append(spec)
        if len(calls) == 2:
            raise RuntimeError("simulated mid-batch death")
        return real(spec, reps=reps, base_seed=base_seed)

    monkeypatch.setattr(executor_mod, "run_point", flaky)
    cache = ResultCache(tmp_path / "c")
    with pytest.raises(RuntimeError, match="mid-batch death"):
        execute_plan(tiny_plan(), cache=cache)
    assert cache.stats.stored == 1
    assert len(cache) == 1  # the completed first half persisted

    # the rerun serves the survivor from cache and computes the rest
    monkeypatch.setattr(executor_mod, "run_point", real)
    warm = ResultCache(tmp_path / "c")
    fig, report = execute_plan(tiny_plan(), cache=warm)
    assert warm.stats.hits == 1
    assert warm.stats.misses == 2
    plain, _ = execute_plan(tiny_plan())
    assert series_data(fig) == series_data(plain)


# ------------------------------------------------------------- pieces


def test_hole_result_is_all_nan():
    hole = hole_result(SMALL, 2)
    assert hole.spec == SMALL and hole.reps == 2
    for pair in (hole.write_bw, hole.read_bw, hole.write_iops, hole.read_iops):
        assert math.isnan(pair[0]) and math.isnan(pair[1])


def test_quarantine_survives_corrupt_file(tmp_path):
    qpath = tmp_path / "q.json"
    qpath.write_text("{broken")
    q = Quarantine(qpath)
    assert len(q) == 0
    q.add(
        key="k", token=spec_token(SMALL), reps=2, base_seed=0,
        attempts=3, reason="error", error="Boom: x",
    )
    again = Quarantine(qpath)
    assert again.has("k")
    assert again.entries["k"]["spec_token"] == spec_token(SMALL)


def test_sigint_handler_restored(serial_figure):
    before = signal.getsignal(signal.SIGINT)
    execute_plan(tiny_plan(), executor=ResilientParallelExecutor(jobs=2))
    assert signal.getsignal(signal.SIGINT) is before
