"""Harness: point runner, repetitions, figure plumbing, reporting."""

import pytest

from repro.errors import ConfigError
from repro.harness import build_figure, render_figure, render_markdown
from repro.harness.cli import OUTPUT_FLAGS
from repro.harness.experiment import PointSpec, run_point
from repro.harness.figures import FIGURES, Check, FigureResult, Series
from repro.units import GiB


def small_spec(**kwargs):
    defaults = dict(
        workload="ior", store="daos", api="DAOS",
        n_servers=2, n_client_nodes=2, ppn=4, ops_per_process=8,
    )
    defaults.update(kwargs)
    return PointSpec(**defaults)


# -- PointSpec / run_point ------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ConfigError):
        PointSpec(workload="ior", store="nfs")
    with pytest.raises(ConfigError):
        PointSpec(workload="dance", store="daos")


def test_spec_with_and_derived():
    spec = small_spec()
    assert spec.with_(ppn=8).ppn == 8
    assert spec.total_processes == 8
    assert small_spec(extra=(("pg_num", 64),)).extra_kwargs == {"pg_num": 64}


def test_run_point_aggregates_reps():
    result = run_point(small_spec(), reps=3)
    assert result.reps == 3
    assert result.write_bw[0] > 0
    assert result.read_bw[0] > 0
    assert result.write_bw[1] >= 0  # std present
    assert result.bw("write") == result.write_bw[0]
    assert result.iops("write") > 0


def test_run_point_reps_vary_with_seed():
    """Different repetitions use different seeds, so jitter makes the
    measured bandwidths differ slightly (paper-style error bars)."""
    result = run_point(small_spec(), reps=3)
    assert result.write_bw[1] > 0


def test_run_point_deterministic_for_same_seed():
    a = run_point(small_spec(), reps=2, base_seed=5)
    b = run_point(small_spec(), reps=2, base_seed=5)
    assert a.write_bw == b.write_bw
    assert a.read_bw == b.read_bw


def test_run_point_rejects_zero_reps():
    with pytest.raises(ConfigError):
        run_point(small_spec(), reps=0)


def test_run_point_lustre_and_ceph_stores():
    lustre = run_point(small_spec(store="lustre", api="LUSTRE"), reps=1)
    assert lustre.write_bw[0] > 0
    ceph = run_point(small_spec(store="ceph", api="RADOS"), reps=1)
    assert ceph.write_bw[0] > 0


# -- figures ---------------------------------------------------------------------


def test_figure_registry_complete():
    # one entry for every paper element in DESIGN.md's experiment index,
    # plus the FD degraded-mode family (docs/FAULTS.md) and the SC
    # cohort-scalability figure (docs/PERFORMANCE.md)
    assert set(FIGURES) == {
        "HW", "F1", "F2", "F3", "F4", "F5", "F6", "RP2",
        "F7", "LIOR", "F8", "CIOR", "F9", "FD", "SC",
    }


def test_build_unknown_figure():
    with pytest.raises(ConfigError):
        build_figure("F99")


def test_bad_scale_rejected():
    with pytest.raises(ConfigError):
        build_figure("F1", scale="gigantic")


def test_hw_figure_passes():
    result = build_figure("HW", scale="quick")
    assert result.all_passed
    assert result.fig_id == "HW"


def test_series_helpers():
    s = Series("x", [1, 2, 4], [10.0, 20.0, 15.0], [0.0, 1.0, 0.5])
    assert s.peak == 20.0
    assert s.at(4) == 15.0
    with pytest.raises(ConfigError, match=r"series 'x'.*\[1, 2, 4\]"):
        s.at(99)


def test_figure_result_series_lookup():
    s = Series("a", [1], [1.0], [0.0])
    fig = FigureResult(
        fig_id="T", title="t", xlabel="x", panels={"p": [s]},
        paper_expectation="", checks=[Check("c", True)],
    )
    assert fig.series("p", "a") is s
    with pytest.raises(KeyError):
        fig.series("p", "zzz")
    assert fig.all_passed


# -- reporting ---------------------------------------------------------------------


@pytest.fixture()
def sample_figure():
    return FigureResult(
        fig_id="FX",
        title="sample",
        xlabel="procs",
        panels={
            "write": [Series("api-a", [16, 32], [10.0, 20.0], [0.5, 0.0])],
            "read": [Series("api-a", [16, 32], [30.0, 40.0], [0.0, 1.0])],
        },
        paper_expectation="goes up",
        checks=[Check("rises", True, "20 > 10"), Check("falls", False, "nope")],
    )


def test_render_figure_contains_everything(sample_figure):
    text = render_figure(sample_figure)
    assert "FX: sample" in text
    assert "api-a" in text
    assert "[PASS] rises" in text
    assert "[FAIL] falls" in text
    assert "goes up" in text


def test_render_markdown_table(sample_figure):
    md = render_markdown(sample_figure)
    assert "### FX: sample" in md
    assert "| api-a |" in md
    assert "✅ pass" in md and "❌ fail" in md


def test_cli_single_figure(capsys):
    from repro.harness.cli import main

    rc = main(["HW"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "HW: Hardware bandwidth" in out


def test_cli_unknown_figure():
    from repro.harness.cli import main

    with pytest.raises(SystemExit):
        main(["F99"])


def test_cli_markdown_output(tmp_path, capsys):
    from repro.harness.cli import main

    md_path = tmp_path / "out.md"
    for _ in range(2):  # a re-run overwrites the record, never appends
        assert main(["HW", "--markdown", str(md_path)]) == 0
    assert md_path.read_text().count("### HW") == 1
    assert f"markdown written to {md_path}" in capsys.readouterr().out


def test_cli_prints_cache_statistics_once(tmp_path, capsys):
    from repro.harness.cli import main

    cache_dir = tmp_path / "cache"
    assert main(["HW", "--cache-dir", str(cache_dir)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "cache:" in line]
    assert len(lines) == 1
    assert lines[0].endswith(f"-> {cache_dir}")


@pytest.mark.parametrize("flag", OUTPUT_FLAGS)
def test_cli_output_path_in_missing_directory_is_a_usage_error(
    flag, tmp_path, monkeypatch, capsys
):
    # checked before the build: no point runs, and the error names the flag
    import repro.harness.executor as executor_mod
    from repro.harness.cli import main

    def no_point(*args, **kwargs):
        raise AssertionError("a point ran before the output paths were checked")

    monkeypatch.setattr(executor_mod, "run_point", no_point)
    with pytest.raises(SystemExit) as exc:
        main(["HW", flag, str(tmp_path / "nodir" / "out.json")])
    assert exc.value.code == 2
    assert f"{flag}: directory" in capsys.readouterr().err


def test_cli_trace_and_metrics_flags(tmp_path, capsys):
    """--trace writes valid Chrome trace-event JSON; --metrics prints the
    instrument table; the figure output gains a bottleneck summary."""
    import json

    from repro.harness.cli import main

    trace_path = tmp_path / "hw.json"
    rc = main(["HW", "--trace", str(trace_path), "--metrics"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bottleneck summary:" in out
    assert "sim.events_executed" in out
    assert f"trace events written to {trace_path}" in out

    doc = json.loads(trace_path.read_text())
    assert "traceEvents" in doc
    slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert slices
    for event in slices:  # trace-event schema: chrome://tracing essentials
        assert isinstance(event["name"], str) and event["name"]
        assert isinstance(event["ts"], (int, float))
        assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
    metas = [e for e in doc["traceEvents"] if e.get("ph") == "M"]
    assert any(m["name"] == "process_name" for m in metas)
    assert {e["cat"] for e in slices} >= {"sim", "flownet"}


def test_cli_trace_multiple_figures_offsets_pids(tmp_path, capsys):
    import json

    from repro.harness.cli import main

    trace_path = tmp_path / "two.json"
    rc = main(["HW", "--trace", str(trace_path)])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(trace_path.read_text())
    labels = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert any(label.startswith("HW") for label in labels)


def test_fig4_end_to_end_quick():
    """One real (small) figure through the whole pipeline inside the test
    suite, guarding the harness against regressions between bench runs."""
    result = build_figure("F4", scale="quick")
    assert result.all_passed, [c.description for c in result.checks if not c.passed]
    md = render_markdown(result)
    assert "IOR libdaos" in md
    text = render_figure(result)
    assert "F4" in text
