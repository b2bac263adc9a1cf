"""Resilient campaign execution: checkpointing into the result cache,
per-point timeouts, per-point crash containment, and failing once.

The invariants under test: resilience machinery never changes modelled
numbers — a batch whose point processes are SIGKILLed, or that gets
interrupted and re-run, produces figures byte-identical to an
undisturbed serial run — and a point that fails stops the batch after
one attempt, the same way whichever executor runs it, with every
finished point already in the cache and no point process left behind.
"""

import contextlib
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.harness.executor as executor_mod
from repro.errors import ConfigError
from repro.harness.cache import ResultCache
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
    CRASH_ATTEMPTS,
    ChaosPlan,
    ExecutionInterrupted,
    PointFailed,
    ResilientParallelExecutor,
    chaos_plan,
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


def logged_run_point(log, fail=None, hang=None):
    """``run_point`` that appends each attempt's spec token to ``log`` (a
    file: a forked child's memory is not the parent's), raises for
    ``fail`` and sleeps past any test deadline for ``hang``."""
    real = executor_mod.run_point

    def run(spec, reps=1, base_seed=0):
        with open(log, "a") as fh:
            fh.write(spec_token(spec) + "\n")
        if spec == fail:
            raise RuntimeError("simulated point failure")
        if spec == hang:
            time.sleep(60)
        return real(spec, reps=reps, base_seed=base_seed)

    return run


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


@pytest.mark.parametrize(
    "directive",
    [
        "explode:everything", "sleep:abc", "sleep:x:notnum", "sleep:x:-1", "sleep:x:nan",
        "kill-worker:ppn=4:\u00b2", "interrupt-after:\u0663", "kill-worker:ppn=4:0",
        "kill-worker:ppn=4:", "kill-worker::3",
    ],
)
def test_chaos_plan_rejects_unknown_directive(directive):
    # a malformed directive is a named error, never ignored, never a raw
    # ValueError, never a sleep the process cannot take, and never a
    # count that is not an ASCII decimal >= 1
    with pytest.raises(ConfigError, match=CHAOS_ENV) as exc:
        chaos_plan(directive)
    assert repr(directive) in str(exc.value)


# ------------------------------------------- host-side number validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"point_timeout": math.nan},
        {"point_timeout": math.inf},
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
    ],
)
def test_cli_rejects_non_finite_or_negative_knobs(argv, capsys):
    from repro.harness.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["HW", *argv])
    assert exc.value.code == 2
    assert "finite number" in capsys.readouterr().err


# ------------------------------------------- identity with no faults


def test_resilient_matches_serial_bit_identical(serial_figure):
    fig, report = execute_plan(
        tiny_plan(), executor=ResilientParallelExecutor(jobs=2)
    )
    assert series_data(fig) == series_data(serial_figure)
    assert report.retried == 0


# ------------------------------------------------- crash containment


def test_sigkilled_worker_is_retried_and_identical(serial_figure, monkeypatch):
    # one spec's process SIGKILLs itself on the first attempt; the batch
    # must complete with retried > 0 and byte-identical series
    monkeypatch.setenv(CHAOS_ENV, "kill-worker:ppn=4")
    ex = ResilientParallelExecutor(jobs=2)
    fig, report = execute_plan(tiny_plan(), executor=ex)
    assert series_data(fig) == series_data(serial_figure)
    assert report.retried >= 1
    assert ex.last_stats.crashes >= 1


def test_repeated_crasher_exhausts_crash_budget_and_stops_build(
    tmp_path, monkeypatch
):
    # a task that kills its process on every attempt is charged
    # CRASH_ATTEMPTS crashes and stops the build with a named error; a
    # crash charges only its own point, so the innocent points ran once
    # each and are already checkpointed
    log = tmp_path / "attempts.log"
    monkeypatch.setattr(executor_mod, "run_point", logged_run_point(log))
    monkeypatch.setenv(CHAOS_ENV, "kill-worker:ppn=4:99")
    cache = ResultCache(tmp_path / "c")
    ex = ResilientParallelExecutor(jobs=2)
    with pytest.raises(PointFailed, match=f"lost its worker on {CRASH_ATTEMPTS}") as exc:
        execute_plans([tiny_plan()], executor=ex, cache=cache)
    assert exc.value.token == spec_token(OTHER)
    assert ex.last_stats.retried == CRASH_ATTEMPTS - 1
    assert ex.last_stats.crashes == CRASH_ATTEMPTS
    attempts = log.read_text().splitlines()
    assert attempts.count(spec_token(SMALL)) == 1
    assert attempts.count(spec_token(DD)) == 1
    assert cache.get(SMALL, 2) is not None
    assert cache.get(DD, 2) is not None
    assert cache.get(OTHER, 2) is None


# ------------------------------------------------------------- timeout


def test_point_timeout_fails_once_and_stops_build(tmp_path, monkeypatch):
    # one spec hangs past the per-point deadline: it is timed out on its
    # first attempt and stops the build; the others finish and are cached
    log = tmp_path / "attempts.log"
    monkeypatch.setattr(executor_mod, "run_point", logged_run_point(log, hang=OTHER))
    cache = ResultCache(tmp_path / "c")
    ex = ResilientParallelExecutor(jobs=2, point_timeout=10.0)
    t0 = time.monotonic()
    with pytest.raises(PointFailed, match="overran --point-timeout=10.0s") as exc:
        execute_plans([tiny_plan()], executor=ex, cache=cache)
    assert time.monotonic() - t0 < 50  # the hung process was not waited for
    assert exc.value.token == spec_token(OTHER)
    assert log.read_text().splitlines().count(spec_token(OTHER)) == 1
    assert cache.get(SMALL, 2) is not None
    assert cache.get(DD, 2) is not None
    assert multiprocessing.active_children() == []  # killed and reaped


def test_cli_point_failure_exits_2_naming_the_point(tmp_path, monkeypatch, capsys):
    from repro.harness.cli import main

    monkeypatch.setenv(CHAOS_ENV, "sleep:api='iperf':60")
    assert main(["HW", "--point-timeout", "10", "--cache-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: PointFailed: point PointSpec(workload='rawio'" in err
    assert "api='iperf'" in err and "--point-timeout=10.0s" in err


def _child_pids(pid):
    try:
        return [int(p) for p in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]
    except OSError:
        return []


def _alive(pid):
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs Linux /proc child lists",
)
def test_point_process_dies_with_its_sigkilled_parent():
    # every HW point hangs for 60 s in its own process (--point-timeout
    # forks points under --jobs 1 too); SIGKILL the CLI while one runs:
    # the kernel must take the point process down with it
    import repro

    env = dict(os.environ, **{CHAOS_ENV: "sleep:workload='rawio':60"})
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    cli = subprocess.Popen(
        [sys.executable, "-m", "repro.harness.cli", "HW", "--jobs", "1",
         "--point-timeout", "300"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    children = []
    try:
        deadline = time.monotonic() + 60
        while not children and time.monotonic() < deadline and cli.poll() is None:
            time.sleep(0.05)
            children = _child_pids(cli.pid)
        assert children, "the CLI started no point process"
        cli.kill()
        cli.wait()
        deadline = time.monotonic() + 5
        while any(map(_alive, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, children))
    finally:
        cli.kill()
        cli.wait()
        for pid in filter(_alive, children):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


# ------------------------------------------------- interrupt -> re-run


def test_interrupt_then_resume_serves_finished_from_cache(
    serial_figure, tmp_path, monkeypatch
):
    monkeypatch.setenv(CHAOS_ENV, "interrupt-after:1")
    cache = ResultCache(tmp_path / "c")
    with pytest.raises(ExecutionInterrupted) as exc_info:
        execute_plans(
            [tiny_plan()], executor=ResilientParallelExecutor(jobs=1),
            cache=cache,
        )
    finished = exc_info.value.completed
    assert 1 <= finished < 3
    assert len(cache) == finished  # everything finished was checkpointed

    # the cache is the checkpoint: re-running the same batch serves every
    # point finished before the interrupt as a cache hit
    monkeypatch.delenv(CHAOS_ENV)
    warm = ResultCache(tmp_path / "c")
    figs, report = execute_plans(
        [tiny_plan()], executor=ResilientParallelExecutor(jobs=1), cache=warm,
    )
    assert warm.stats.hits == finished
    assert warm.stats.misses == report.executed_points == 3 - finished
    assert series_data(figs[0]) == series_data(serial_figure)
    assert not (warm.root / "journal").exists()


def test_cli_interrupt_then_same_command_serves_finished_points(
    tmp_path, monkeypatch, capsys
):
    # the re-run repeats the interrupted argv verbatim, --faults included,
    # so it builds the same batch and its series equal an undisturbed run
    from repro.harness.cli import main

    faults = "target@read+0.02:5,rebuild"
    assert main(["F1", "--faults", faults,
                 "--series-json", str(tmp_path / "clean.json")]) == 0
    cache_dir = tmp_path / "cache"
    argv = ["F1", "--jobs", "2", "--cache-dir", str(cache_dir),
            "--faults", faults, "--series-json", str(tmp_path / "rerun.json")]
    capsys.readouterr()
    monkeypatch.setenv(CHAOS_ENV, "interrupt-after:2")
    assert main(argv) == 130
    err = capsys.readouterr().err
    finished = int(re.search(r"interrupted after (\d+) of", err).group(1))
    assert finished >= 2
    assert "re-run the same command" in err
    assert len(ResultCache(cache_dir)) == finished

    monkeypatch.delenv(CHAOS_ENV)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert int(re.search(r"cache: (\d+) hits", out).group(1)) == finished
    assert not (cache_dir / "journal").exists()
    assert (tmp_path / "rerun.json").read_bytes() == (
        tmp_path / "clean.json"
    ).read_bytes()


@pytest.mark.parametrize("sigints", [1, 2])
def test_real_sigint_drains_once_and_hard_stops_twice(sigints, tmp_path, monkeypatch):
    # a real SIGINT at the first checkpoint: one drains the point still
    # running and checkpoints it; a second kills every point process
    cache = ResultCache(tmp_path / "c")
    put = cache.put
    sent = []

    def put_then_interrupt(result, **kwargs):
        put(result, **kwargs)
        if not sent:
            sent.append(result)
            for _ in range(sigints):
                os.kill(os.getpid(), signal.SIGINT)

    monkeypatch.setattr(cache, "put", put_then_interrupt)
    ex = ResilientParallelExecutor(jobs=2)
    expected = ExecutionInterrupted if sigints == 1 else KeyboardInterrupt
    with pytest.raises(expected) as exc:
        execute_plans([tiny_plan()], executor=ex, cache=cache)
    assert multiprocessing.active_children() == []
    if sigints == 1:
        # the second point was in flight at the signal and was drained
        assert exc.value.completed == len(cache) == 2
    else:
        assert len(cache) == 1


# ---------------------------------- mid-batch persistence (regression)


@pytest.mark.parametrize(
    "executor",
    [SerialExecutor(), ResilientParallelExecutor(jobs=2)],
    ids=["serial", "parallel"],
)
def test_mid_batch_failure_keeps_completed_results(executor, tmp_path, monkeypatch):
    """A point that raises is attempted once and stops the batch with its
    own exception, whichever executor runs it; everything that finished
    persisted, because cache.put happens per completion."""
    real = executor_mod.run_point
    log = tmp_path / "attempts.log"
    monkeypatch.setattr(executor_mod, "run_point", logged_run_point(log, fail=OTHER))
    cache = ResultCache(tmp_path / "c")
    with pytest.raises(RuntimeError) as exc:
        execute_plan(tiny_plan(), executor=executor, cache=cache)
    assert type(exc.value) is RuntimeError
    assert str(exc.value) == "simulated point failure"
    attempts = log.read_text().splitlines()
    assert attempts.count(spec_token(OTHER)) == 1
    # points in flight when OTHER failed drained into the cache
    finished = [token for token in attempts if token != spec_token(OTHER)]
    assert spec_token(SMALL) in finished
    assert cache.stats.stored == len(cache) == len(finished)

    # the rerun serves the survivors from cache and computes the rest
    monkeypatch.setattr(executor_mod, "run_point", real)
    warm = ResultCache(tmp_path / "c")
    fig, report = execute_plan(tiny_plan(), executor=executor, cache=warm)
    assert warm.stats.hits == len(finished)
    assert warm.stats.misses == report.executed_points == 3 - len(finished)
    plain, _ = execute_plan(tiny_plan())
    assert series_data(fig) == series_data(plain)


class NoNotesError(RuntimeError):
    """An exception without ``add_note``, as every exception is before
    Python 3.11."""

    def __getattribute__(self, name):
        if name == "add_note":
            raise AttributeError(name)
        return super().__getattribute__(name)


def test_point_exception_without_add_note_is_reraised_once(tmp_path, monkeypatch):
    # the traceback note is optional: without it the point's own
    # exception still comes back once, not as a lost worker
    log = tmp_path / "attempts.log"
    logged = logged_run_point(log)

    def run(spec, reps=1, base_seed=0):
        if spec == OTHER:
            with open(log, "a") as fh:
                fh.write(spec_token(spec) + "\n")
            raise NoNotesError("no notes here")
        return logged(spec, reps=reps, base_seed=base_seed)

    monkeypatch.setattr(executor_mod, "run_point", run)
    ex = ResilientParallelExecutor(jobs=2)
    with pytest.raises(NoNotesError, match="no notes here"):
        execute_plan(tiny_plan(), executor=ex)
    assert log.read_text().splitlines().count(spec_token(OTHER)) == 1
    assert ex.last_stats.crashes == 0
    assert multiprocessing.active_children() == []


# ------------------------------------------------------------- pieces


def test_sigint_handler_restored(serial_figure):
    before = signal.getsignal(signal.SIGINT)
    execute_plan(tiny_plan(), executor=ResilientParallelExecutor(jobs=2))
    assert signal.getsignal(signal.SIGINT) is before
