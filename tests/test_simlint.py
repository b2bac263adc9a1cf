"""simlint: positive (fires) and negative (clean) fixtures per rule,
suppression behaviour, reporters, config, and exit codes."""

import json
import textwrap

import pytest

from repro.lint import LintConfig, lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.config import load_config
from repro.lint.findings import Severity
from repro.lint.suppress import parse_pragma


@pytest.fixture()
def lint(tmp_path, monkeypatch):
    """Write a {relpath: source} dict into a tmp tree and lint it."""

    def run(files, config=None, paths=None):
        for rel, src in files.items():
            p = tmp_path / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(textwrap.dedent(src))
        monkeypatch.chdir(tmp_path)
        return lint_paths(paths or ["."], config=config)

    return run


def codes(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------- SL001


def test_sl001_wallclock_fires(lint):
    findings = lint({"model.py": """
        import time
        from time import perf_counter

        def cost():
            return time.time() + perf_counter()
    """})
    assert codes(findings) == ["SL001", "SL001"]
    assert "wall-clock" in findings[0].message


def test_sl001_datetime_and_aliases(lint):
    findings = lint({"model.py": """
        import time as t
        from datetime import datetime

        def stamp():
            return t.monotonic(), datetime.now()
    """})
    assert codes(findings) == ["SL001", "SL001"]


def test_sl001_allowlist_and_sim_time_clean(lint):
    findings = lint({
        "harness/cli.py": """
            import time

            def wall():
                return time.perf_counter()
        """,
        "model.py": """
            def now(sim):
                return sim.now
        """,
    })
    assert findings == []


def test_sl001_executor_allowed_other_harness_files_not(lint):
    # the executor's wall-clock reporting is allowlisted, but the
    # exemption is per-file: any other harness module reading the host
    # clock still trips SL001
    findings = lint({
        "harness/executor.py": """
            import time

            def run_tasks():
                return time.perf_counter()
        """,
        "harness/scheduler.py": """
            import time

            def deadline():
                return time.perf_counter()
        """,
    })
    assert codes(findings) == ["SL001"]
    assert findings[0].path.endswith("harness/scheduler.py")


def test_sl001_obs_profile_allowed_rest_of_obs_not(lint):
    # simprof concentrates every engine-profiling clock read in
    # obs/profile.py, which is allowlisted; any other obs/ module
    # reading the host clock still trips SL001
    findings = lint({
        "obs/profile.py": """
            import time

            def dispatch_begin():
                return time.perf_counter()
        """,
        "obs/metrics.py": """
            import time

            def observe_now():
                return time.perf_counter()
        """,
    })
    assert codes(findings) == ["SL001"]
    assert findings[0].path.endswith("obs/metrics.py")


def test_sl001_resilience_allowed_other_harness_files_not(lint):
    # the resilient executor legitimately reads the host clock (per-point
    # deadlines, retry backoff are wall-clock concepts), so
    # harness/resilience.py is allowlisted — but the exemption stays
    # per-file: a new harness module reading the clock still trips SL001
    findings = lint({
        "harness/resilience.py": """
            import time

            def deadline():
                return time.monotonic()
        """,
        "harness/watchdog.py": """
            import time

            def poll():
                return time.monotonic()
        """,
    })
    assert codes(findings) == ["SL001"]
    assert findings[0].path.endswith("harness/watchdog.py")


# ---------------------------------------------------------------- SL002


def test_sl002_random_import_fires(lint):
    findings = lint({"model.py": """
        import random

        def roll():
            return random.random()
    """})
    assert "SL002" in codes(findings)


def test_sl002_numpy_random_fires(lint):
    findings = lint({"model.py": """
        import numpy as np

        def make():
            return np.random.default_rng(0)
    """})
    assert codes(findings) == ["SL002"]
    assert "numpy.random.default_rng" in findings[0].message


def test_sl002_allowlist_and_injected_stream_clean(lint):
    findings = lint({
        "sim/randomness.py": """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
        """,
        "model.py": """
            def jitter(rng):
                return rng.normal(0.0, 0.1)
        """,
    })
    assert findings == []


# ---------------------------------------------------------------- SL003


def test_sl003_float_equality_fires(lint):
    findings = lint({"model.py": """
        def check(bw, a, b):
            return bw == 6.25 or (a / b) != 1
    """})
    assert codes(findings) == ["SL003", "SL003"]


def test_sl003_isclose_and_int_compare_clean(lint):
    findings = lint({"model.py": """
        import math

        def check(bw, n):
            return math.isclose(bw, 6.25) and n == 1
    """})
    assert findings == []


def test_sl003_exact_justification_comment(lint):
    findings = lint({"model.py": """
        def check(sigma):
            return sigma == 0.0  # exact: untouched default, never computed
    """})
    assert findings == []


# ---------------------------------------------------------------- SL004


def test_sl004_unguarded_access_fires(lint):
    findings = lint({"model.py": """
        def report(obs):
            return obs.registry
    """})
    assert codes(findings) == ["SL004"]
    assert "is not None" in findings[0].message


def test_sl004_self_attr_unguarded_fires(lint):
    findings = lint({"model.py": """
        class Client:
            def op(self):
                self._obs.tracer.record("x")
    """})
    assert codes(findings) == ["SL004"]


def test_sl004_guard_forms_clean(lint):
    findings = lint({"model.py": """
        def a(obs):
            if obs is not None:
                obs.registry.counter("x")

        def b(obs):
            if obs is None:
                return 0
            return obs.run_index

        def c(obs):
            return obs.node_tid(0) if obs is not None else 0

        def d(obs):
            return obs is not None and obs.run_index > 0

        def e(obs):
            assert obs is not None
            return obs.registry

        def f():
            obs = Observability()
            return obs.registry
    """})
    assert findings == []


def test_sl004_proxy_guard_clean(lint):
    # the span/obs pairing the workload runners use
    findings = lint({"model.py": """
        def run(obs):
            span = None
            if obs is not None:
                span = obs.tracer.begin("phase")
            work()
            if span is not None:
                obs.tracer.finish(span)
    """})
    assert findings == []


def test_sl004_annotation_contract(lint):
    findings = lint({"model.py": """
        def strict(obs: "Observability"):
            return obs.registry

        def loose(obs: "Optional[Observability]" = None):
            return obs.registry
    """})
    assert codes(findings) == ["SL004"]
    assert "loose" in findings[0].message


def test_sl004_module_import_not_a_binding(lint):
    findings = lint({"model.py": """
        import repro.obs

        def active():
            return repro.obs.current()
    """})
    assert findings == []


def test_sl004_guard_does_not_leak_into_else(lint):
    findings = lint({"model.py": """
        def f(obs):
            if obs is not None:
                pass
            else:
                obs.registry.counter("x")
    """})
    assert codes(findings) == ["SL004"]


# ---------------------------------------------------------------- SL005
# SL005 is retired; SL011 checks the same probe callbacks at any depth.


def test_sl005_probe_scheduling_fires(lint):
    findings = lint({"model.py": """
        class Sampler:
            def on_advance(self, t):
                self.sim.schedule(0.0, self._cb)

        def attach(sim, sampler):
            sim.time_probe = sampler.on_advance
    """})
    assert codes(findings) == ["SL011"]
    assert "on_advance" in findings[0].message


def test_sl005_one_level_walk_fires(lint):
    findings = lint({"model.py": """
        class Sampler:
            def on_advance(self, t):
                self._flush()

            def _flush(self):
                self.net.transfer(1.0, [], name="bad")

        def attach(sim, sampler):
            sim.time_probe = sampler.on_advance
    """})
    assert codes(findings) == ["SL011"]
    assert "_flush" in findings[0].message
    assert "self.net.transfer()" in findings[0].message


def test_sl005_pure_probe_clean(lint):
    findings = lint({"model.py": """
        class Sampler:
            def on_advance(self, t):
                self.samples.append((t, len(self.net.active_flows)))

        def attach(sim, sampler):
            sim.time_probe = sampler.on_advance
    """})
    assert findings == []


def test_sl005_lambda_registration_fires(lint):
    findings = lint({"model.py": """
        def attach(sim, net, flow):
            sim.time_probe = lambda t: net.cancel(flow)
    """})
    assert codes(findings) == ["SL011"]


def test_sl005_unregistered_function_clean(lint):
    # a function may schedule freely when nothing registers it as probe
    findings = lint({"model.py": """
        class Driver:
            def on_advance(self, t):
                self.sim.schedule(0.0, self._cb)
    """})
    assert findings == []


# ---------------------------------------------------------------- SL006


def test_sl006_broad_except_fires(lint):
    findings = lint({"model.py": """
        def risky():
            try:
                work()
            except Exception:
                pass

        def riskier():
            try:
                work()
            except:
                pass
    """})
    assert codes(findings) == ["SL006", "SL006"]


def test_sl006_narrow_or_reraise_clean(lint):
    findings = lint({"model.py": """
        def narrow():
            try:
                work()
            except ValueError:
                pass

        def reraises():
            try:
                work()
            except Exception:
                log()
                raise
    """})
    assert findings == []


# ---------------------------------------------------------------- SL009


def test_sl009_swallowed_dataloss_fires(lint):
    findings = lint({"model.py": """
        from repro.errors import DataLossError

        def swallow():
            try:
                read()
            except DataLossError:
                pass

        def swallow_docstring_continue():
            for chunk in chunks:
                try:
                    read(chunk)
                except DataLossError:
                    "gone anyway"
                    continue
    """})
    assert codes(findings) == ["SL009", "SL009"]
    assert "redundancy" in findings[0].message


def test_sl009_dotted_and_tuple_forms_fire(lint):
    findings = lint({"model.py": """
        import repro.errors as errors

        def swallow():
            try:
                read()
            except (OSError, errors.DataLossError):
                pass
    """})
    assert codes(findings) == ["SL009"]


def test_sl009_recording_or_reraise_clean(lint):
    findings = lint({"model.py": """
        from repro.errors import DataLossError

        def records(recorder):
            try:
                read()
            except DataLossError:
                recorder.record_lost("read", 0.0, 0.0)

        def reraises():
            try:
                read()
            except DataLossError:
                cleanup()
                raise

        def other_error_is_sl009s_business_not_this():
            try:
                read()
            except KeyError:
                pass
    """})
    assert findings == []


def test_sl009_suppressible(lint):
    findings = lint({"model.py": """
        from repro.errors import DataLossError

        def probe():
            try:
                read()
            except DataLossError:  # simlint: disable=SL009 -- probing liveness only
                pass
    """})
    assert findings == []


# ---------------------------------------------------------------- SL007


def test_sl007_mutable_default_fires(lint):
    findings = lint({"model.py": """
        def f(xs=[], *, opts={}):
            return xs, opts
    """})
    assert codes(findings) == ["SL007", "SL007"]


def test_sl007_none_default_clean(lint):
    findings = lint({"model.py": """
        def f(xs=None, n=3, name="flow"):
            return xs or []
    """})
    assert findings == []


# ---------------------------------------------------------------- SL010


def test_sl010_bare_op_call_fires(lint):
    findings = lint({"client.py": """
        def write(self, data):
            opx = self._ledger.op("daos.lat.arr-write", self.sim)
            yield self._serial()
            opx.note("serial")
    """})
    assert codes(findings) == ["SL010"]
    assert "with" in findings[0].message


def test_sl010_call_as_argument_fires(lint):
    findings = lint({"client.py": """
        def write(self, data):
            track(self._ledger.op("daos.lat.arr-write", self.sim))
    """})
    assert codes(findings) == ["SL010"]


def test_sl010_with_block_clean(lint):
    findings = lint({"client.py": """
        def write(self, data):
            with self._ledger.op("daos.lat.arr-write", self.sim) as opx:
                yield self._serial()
                opx.note("serial")
    """})
    assert findings == []


def test_sl010_try_finally_close_clean(lint):
    findings = lint({"client.py": """
        def write(self, data):
            opx = self._ledger.op("daos.lat.arr-write", self.sim)
            opx.__enter__()
            try:
                yield self._serial()
            finally:
                opx.__exit__(None, None, None)
    """})
    assert findings == []


def test_sl010_unclosed_assignment_fires(lint):
    findings = lint({"client.py": """
        def write(self, data):
            opx = self._ledger.op("daos.lat.arr-write", self.sim)
            try:
                yield self._serial()
            finally:
                self.cleanup()
    """})
    assert codes(findings) == ["SL010"]
    assert "never closed" in findings[0].message


def test_sl010_other_op_methods_clean(lint):
    findings = lint({"client.py": """
        def write(self, data, ledger):
            self._tracker.op("not-a-ledger")
            with ledger.op("kv-put", sim):
                pass
    """})
    assert findings == []


# ------------------------------------------------------- suppressions


def test_suppression_silences_finding(lint):
    findings = lint({"model.py": """
        def risky():
            try:
                work()
            except Exception:  # simlint: disable=SL006 -- best-effort cleanup
                pass
    """})
    assert findings == []


def test_bare_disable_silences_all_rules_on_line(lint):
    findings = lint({"model.py": """
        import random  # simlint: disable
    """})
    assert findings == []


def test_unused_suppression_reported(lint):
    findings = lint({"model.py": """
        def fine():  # simlint: disable=SL006
            return 1
    """})
    assert codes(findings) == ["SL008"]
    assert "unused suppression" in findings[0].message


def test_suppression_for_wrong_rule_does_not_silence(lint):
    findings = lint({"model.py": """
        import random  # simlint: disable=SL006
    """})
    assert sorted(codes(findings)) == ["SL002", "SL008"]


def test_pragma_parsing():
    assert parse_pragma("# simlint: disable=SL001,SL003") == {"SL001", "SL003"}
    assert parse_pragma("# simlint: disable") == {"*"}
    assert parse_pragma("# simlint: disable=SL006 -- justified") == {"SL006"}
    assert parse_pragma("# a normal comment") is None


# -------------------------------------------------- engine mechanics


def test_syntax_error_reported_not_raised(lint):
    findings = lint({"broken.py": "def f(:\n"})
    assert codes(findings) == ["SL000"]


def test_exclude_glob(lint):
    findings = lint(
        {"vendored/junk.py": "import random\n"},
        config=LintConfig(exclude=["vendored/*"]),
    )
    assert findings == []


def test_severity_override_to_warning(lint):
    cfg = LintConfig(severities={"SL007": Severity.WARNING})
    findings = lint({"model.py": "def f(xs=[]):\n    return xs\n"}, config=cfg)
    assert codes(findings) == ["SL007"]
    assert findings[0].severity is Severity.WARNING


def test_select_and_ignore(lint):
    src = {"model.py": "import random\n\ndef f(xs=[]):\n    return xs\n"}
    only = lint(src, config=LintConfig(select=["SL002"]))
    assert codes(only) == ["SL002"]
    skipped = lint(src, config=LintConfig(ignore=["SL002"]))
    assert codes(skipped) == ["SL007"]


def test_load_config_from_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""
        [tool.simlint]
        exclude = ["gen/*"]
        [tool.simlint.severity]
        SL006 = "warning"
    """))
    cfg = load_config(str(tmp_path / "pyproject.toml"))
    assert cfg.exclude == ["gen/*"]
    assert cfg.severities["SL006"] is Severity.WARNING


def test_load_config_rejects_bad_severity(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.simlint.severity]\nSL006 = 'loud'\n"
    )
    with pytest.raises(ValueError):
        load_config(str(tmp_path / "pyproject.toml"))


# ---------------------------------------------------------- CLI layer


def _write(tmp_path, rel, src):
    p = tmp_path / rel
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(textwrap.dedent(src))
    return p


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "clean.py", "def f():\n    return 1\n")
    assert lint_main(["--no-config", "clean.py"]) == 0
    _write(tmp_path, "dirty.py", "import random\n")
    assert lint_main(["--no-config", "dirty.py"]) == 1
    assert lint_main(["--no-config", "missing.py"]) == 2
    capsys.readouterr()


def test_cli_warnings_do_not_fail(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "pyproject.toml", """
        [tool.simlint.severity]
        SL002 = "warning"
    """)
    _write(tmp_path, "dirty.py", "import random\n")
    assert lint_main(["dirty.py"]) == 0
    out = capsys.readouterr().out
    assert "1 warning(s)" in out


def test_cli_json_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "dirty.py", "import random\n")
    assert lint_main(["--no-config", "--json", "dirty.py"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["errors"] == 1
    assert doc["findings"][0]["code"] == "SL002"
    assert doc["findings"][0]["path"].endswith("dirty.py")


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines()]
    assert listed == [
        "SL001", "SL002", "SL003", "SL004", "SL006", "SL007", "SL009",
        "SL010", "SL011", "SL012", "SL013", "SL014",
    ]
    assert "SL005" not in out


@pytest.mark.parametrize("argv, severity, unknown", [
    (["--select", "SL02"], None, "SL02"),
    (["--select", "SL002,SL005"], None, "SL005"),
    (["--ignore", "SL099"], None, "SL099"),
    ([], "SL005", "SL005"),
    # the engine's own codes are known too
    (["--select", "SL000,SL002"], "SL008", None),
], ids=["select-typo", "select-retired", "ignore-unknown", "severity-retired",
        "engine-codes"])
def test_cli_rule_codes_are_validated(tmp_path, monkeypatch, capsys,
                                      argv, severity, unknown):
    monkeypatch.chdir(tmp_path)
    if severity is not None:
        _write(tmp_path, "pyproject.toml", f"""
            [tool.simlint.severity]
            {severity} = "warning"
        """)
    _write(tmp_path, "clean.py", "def f():\n    return 1\n")
    exit_code = lint_main([*argv, "clean.py"])
    err = capsys.readouterr().err
    if unknown is None:
        assert exit_code == 0 and err == ""
    else:
        assert exit_code == 2
        assert "config error" in err and unknown in err


# -------------------------------------- per-code pragma accounting


def test_multi_code_pragma_reports_only_stale_codes(lint):
    # SL002 fires and is silenced; SL006 never fires on that line, so
    # exactly that code is reported stale -- not the whole pragma
    findings = lint({"model.py": """
        import random  # simlint: disable=SL002,SL006
    """})
    assert codes(findings) == ["SL008"]
    assert "SL006" in findings[0].message
    assert "SL002" not in findings[0].message


def test_multi_code_pragma_all_stale_reports_each_code(lint):
    findings = lint({"model.py": """
        x = 1  # simlint: disable=SL001,SL003
    """})
    assert codes(findings) == ["SL008", "SL008"]
    mentioned = {m for f in findings for m in ("SL001", "SL003") if m in f.message}
    assert mentioned == {"SL001", "SL003"}


def test_pragma_for_whole_program_code_is_stale(lint):
    # SL011-SL014 run in the same pass, so their pragmas are judged too
    findings = lint({"model.py": """
        x = 1  # simlint: disable=SL014
    """})
    assert codes(findings) == ["SL008"]
    assert "SL014" in findings[0].message


@pytest.mark.parametrize("code", ["SL099", "SL005"])
def test_pragma_for_unknown_code_is_stale_whatever_is_selected(lint, code):
    src = {"model.py": f"""
        x = 1  # simlint: disable={code}
    """}
    for config in (None, LintConfig(select=["SL002"])):
        findings = lint(src, config=config)
        assert codes(findings) == ["SL008"]
        assert f"{code}, not a known rule code" in findings[0].message


def test_pragma_for_deselected_code_is_out_of_scope(lint):
    findings = lint({"model.py": """
        x = 1  # simlint: disable=SL006
    """}, config=LintConfig(select=["SL002"]))
    assert findings == []


# ----------------------------------------------------- finding cache


def test_cache_hits_on_unchanged_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "dirty.py", "import random\n")
    cache = str(tmp_path / "cache.json")
    argv = ["--no-config", "--cache", "--cache-file", cache, "dirty.py"]
    assert lint_main(argv) == 1
    assert "0 hit(s), 1 miss(es)" in capsys.readouterr().out
    assert lint_main(argv) == 1  # cached findings still gate the exit code
    assert "1 hit(s), 0 miss(es)" in capsys.readouterr().out


def test_cache_invalidated_when_file_changes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, "model.py", "import random\n")
    cache = str(tmp_path / "cache.json")
    argv = ["--no-config", "--cache", "--cache-file", cache, "model.py"]
    assert lint_main(argv) == 1
    capsys.readouterr()
    path.write_text("def f():\n    return 1\n")
    assert lint_main(argv) == 0
    assert "1 miss(es)" in capsys.readouterr().out


def test_cache_invalidated_when_config_changes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "dirty.py", "import random\n")
    cache = str(tmp_path / "cache.json")
    assert lint_main(["--no-config", "--cache", "--cache-file", cache, "dirty.py"]) == 1
    capsys.readouterr()
    # a different rule selection must not be served from the stale entry
    assert lint_main([
        "--no-config", "--cache", "--cache-file", cache,
        "--ignore", "SL002", "dirty.py",
    ]) == 0
    assert "1 miss(es)" in capsys.readouterr().out


# ------------------------------------------------------------- SARIF


def test_sarif_report_shape(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "dirty.py", "import random\n")
    assert lint_main(["--no-config", "--sarif", "-", "dirty.py"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "SL002" in rule_ids
    result = run["results"][0]
    assert result["ruleId"] == "SL002"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"].endswith("dirty.py")
    assert loc["region"]["startLine"] == 1


def test_sarif_written_to_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "dirty.py", "import random\n")
    out = tmp_path / "report.sarif"
    assert lint_main(["--no-config", "--sarif", str(out), "dirty.py"]) == 1
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["runs"][0]["results"]


# ------------------------------------------------- repository gate


def test_repository_tree_is_clean():
    """The merged tree must lint clean: src, tools and examples."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    findings = lint_paths(
        [str(root / "src"), str(root / "tools"), str(root / "examples")]
    )
    assert findings == [], "\n".join(f.render() for f in findings)
