"""The whole-program rules (SL011-SL014): positive and negative
fixtures per rule, shared-graph mechanics, and their CLI reports."""

import json
import textwrap

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.config import LintConfig
from repro.lint.engine import LintEngine
from repro.lint.findings import Severity
from repro.lint.registry import get_rule

FLOW_CODES = ("SL011", "SL012", "SL013", "SL014")


@pytest.fixture()
def flow(tmp_path, monkeypatch):
    """Write a {relpath: source} dict into a tmp tree and run the
    whole-program rules over it."""

    def run(files, config=None, paths=None):
        for rel, src in files.items():
            p = tmp_path / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(textwrap.dedent(src))
        monkeypatch.chdir(tmp_path)
        rules = [get_rule(code) for code in FLOW_CODES]
        engine = LintEngine(config=config or LintConfig(), rules=rules)
        return engine.run(paths or ["."])

    return run


def codes(findings):
    return [f.code for f in findings]


SIM_CORE = """
    class Simulator:
        def __init__(self):
            self.now = 0.0

        def schedule(self, delay):
            self.now += delay
"""


# ---------------------------------------------------------------- SL011


def test_sl011_direct_write_fires(flow):
    findings = flow({
        "sim/core.py": SIM_CORE,
        "obs/bad.py": """
            from sim.core import Simulator

            def snapshot(sim: Simulator):
                sim.now = 0.0
        """,
    })
    assert "SL011" in codes(findings)
    f = next(f for f in findings if f.code == "SL011")
    assert f.path == "obs/bad.py"
    assert "read-only" in f.message


def test_sl011_transitive_write_reports_chain(flow):
    findings = flow({
        "sim/core.py": SIM_CORE,
        "obs/bad.py": """
            from sim.core import Simulator

            def helper(sim: Simulator):
                sim.now = 99.0

            def finalize(sim: Simulator):
                helper(sim)
        """,
    })
    sl011 = [f for f in findings if f.code == "SL011"]
    # both the entry point and the helper (itself obs code) are flagged
    assert sl011
    assert any("via" in f.message for f in sl011)
    # a probe reaching an untyped mutator through two helpers (the
    # one-helper case is test_simlint's SL005 walk fixture)
    findings = flow({"chain/model.py": """
        class Sampler:
            def on_advance(self, t):
                self._a()

            def _a(self):
                self._b()

            def _b(self):
                self.sim.schedule(0.0, self._cb)

        def attach(sim, sampler):
            sim.time_probe = sampler.on_advance
    """}, paths=["chain"])
    assert codes(findings) == ["SL011"]
    assert "on_advance -> _a -> _b" in findings[0].message


def test_sl011_mutator_call_fires(flow):
    findings = flow({
        "sim/core.py": SIM_CORE,
        "obs/probe.py": """
            from sim.core import Simulator

            def tick(sim: Simulator):
                sim.schedule(1.0)
        """,
    })
    assert "SL011" in codes(findings)


def test_sl011_reads_and_observation_attrs_clean(flow):
    findings = flow({
        "sim/core.py": SIM_CORE,
        "obs/good.py": """
            from sim.core import Simulator

            class Collector:
                def __init__(self):
                    self.samples = []

                def sample(self, sim: Simulator):
                    self.samples.append(sim.now)
        """,
    })
    assert findings == []


def test_sl011_probe_callback_checked(flow):
    # registered callbacks are entry points even outside obs/
    findings = flow({
        "sim/core.py": SIM_CORE,
        "sim/wire.py": """
            from sim.core import Simulator

            def probe(sim: Simulator, t):
                sim.schedule(t)

            def attach(sim: Simulator):
                sim.time_probe = probe
        """,
    })
    assert "SL011" in codes(findings)
    # mutator-named calls count on receivers the graph cannot type and
    # on bare names, on either channel (the time_probe method and lambda
    # cases are test_simlint's SL005 fixtures)
    for name, src in UNTYPED_CALLBACK_MUTATIONS.items():
        findings = flow({f"{name}/model.py": src}, paths=[name])
        assert codes(findings) == ["SL011"], name


#: observation callbacks that mutate through an untyped receiver
UNTYPED_CALLBACK_MUTATIONS = {
    "on_transfer": """
        class Recorder:
            def on_flow(self, flow):
                self.sim.schedule(0.0, self._cb)

        def attach(net, recorder):
            net.on_transfer.append(recorder.on_flow)
    """,
    "bare": """
        def on_advance(t):
            schedule(0.0, t)

        def attach(sim):
            sim.time_probe = on_advance
    """,
}


def test_sl011_dynamic_call_degrades_to_warning(flow):
    findings = flow({
        "sim/core.py": SIM_CORE,
        "obs/dyn.py": """
            def report(writer, name):
                getattr(writer, name)()
        """,
    })
    sl011 = [f for f in findings if f.code == "SL011"]
    assert sl011
    assert all(f.severity is Severity.WARNING for f in sl011)
    assert "dynamic call" in sl011[0].message


# ---------------------------------------------------------------- SL012


def test_sl012_wallclock_into_model_fires(flow):
    findings = flow({
        "sim/core.py": SIM_CORE,
        "harness/cli.py": """
            import time

            from sim.core import Simulator

            def measure(sim: Simulator):
                start = time.perf_counter()
                sim.schedule(start)
                return start
        """,
    })
    sl012 = [f for f in findings if f.code == "SL012"]
    assert sl012
    assert sl012[0].path == "harness/cli.py"
    assert "host-derived" in sl012[0].message


def test_sl012_store_into_model_attr_fires(flow):
    findings = flow({
        "sim/core.py": SIM_CORE,
        "harness/cli.py": """
            import time

            from sim.core import Simulator

            def stamp(sim: Simulator):
                sim.now = time.perf_counter()
        """,
    })
    assert "SL012" in codes(findings)


def test_sl012_wallclock_kept_in_harness_clean(flow):
    findings = flow({
        "sim/core.py": SIM_CORE,
        "harness/cli.py": """
            import time

            def wall():
                start = time.perf_counter()
                return time.perf_counter() - start
        """,
    })
    assert findings == []


def test_sl012_seeded_rng_not_a_source(flow):
    # default_rng(seed) is deterministic-by-construction: allowlisted
    # RNG modules may hand seeded generators into the model
    findings = flow({
        "sim/core.py": SIM_CORE,
        "sim/randomness.py": """
            import numpy as np

            from sim.core import Simulator

            def wire(sim: Simulator, seed):
                sim.rng = np.random.default_rng(seed)
        """,
    })
    assert codes(findings) == []


# ---------------------------------------------------------------- SL013


def test_sl013_literal_seed_fires(flow):
    findings = flow({
        "sim/randomness.py": """
            class RngStreams:
                def __init__(self, seed=0):
                    self.seed = seed
        """,
        "workloads/drv.py": """
            from sim.randomness import RngStreams

            def build():
                return RngStreams(seed=1234)
        """,
    })
    sl013 = [f for f in findings if f.code == "SL013"]
    assert len(sl013) == 1
    assert sl013[0].path == "workloads/drv.py"
    assert "does not trace back" in sl013[0].message


def test_sl013_missing_seed_fires(flow):
    findings = flow({
        "workloads/drv.py": """
            from sim.randomness import RngStreams

            def build():
                return RngStreams()
        """,
    })
    assert "SL013" in codes(findings)
    f = next(f for f in findings if f.code == "SL013")
    assert "without an explicit seed" in f.message


def test_sl013_point_seed_clean(flow):
    findings = flow({
        "workloads/drv.py": """
            from sim.randomness import RngStreams
            from harness.experiment import point_seed

            def build(spec, rep):
                seed = point_seed(spec, rep)
                return RngStreams(seed=seed)
        """,
    })
    assert findings == []


def test_sl013_interprocedural_provenance(flow):
    # the seed parameter is judged by what call sites actually pass
    clean = flow({
        "workloads/a.py": """
            from sim.randomness import RngStreams

            def build(seed):
                return RngStreams(seed=seed)

            def main(spec):
                from harness.experiment import point_seed
                return build(point_seed(spec, 0))
        """,
    })
    assert clean == []


def test_sl013_interprocedural_literal_fires(flow):
    findings = flow({
        "workloads/a.py": """
            from sim.randomness import RngStreams

            def build(seed):
                return RngStreams(seed=seed)

            def main():
                return build(42)
        """,
    })
    assert "SL013" in codes(findings)


def test_sl013_randomness_home_exempt_from_seed_check(flow):
    findings = flow({
        "sim/randomness.py": """
            class RngStreams:
                def __init__(self, seed=0):
                    self.seed = seed

                def child(self, name):
                    return RngStreams(seed=self.seed + 1)
        """,
    })
    assert findings == []


def test_sl013_shared_stream_name_fires(flow):
    findings = flow({
        "daos/a.py": """
            class DaosClient:
                def jitter(self, rng):
                    return rng.stream(f"{self.name}.op-jitter")
        """,
        "ceph/b.py": """
            class RadosClient:
                def jitter(self, rng):
                    return rng.stream(f"{self.name}.op-jitter")
        """,
    })
    sl013 = [f for f in findings if f.code == "SL013"]
    assert len(sl013) == 2  # one per colliding site
    assert "shared" in sl013[0].message


def test_sl013_distinct_stream_names_clean(flow):
    findings = flow({
        "daos/a.py": """
            class DaosClient:
                def jitter(self, rng):
                    return rng.stream(f"daos.{self.name}.op-jitter")
        """,
        "ceph/b.py": """
            class RadosClient:
                def jitter(self, rng):
                    return rng.stream(f"rados.{self.name}.op-jitter")
        """,
    })
    assert findings == []


# ---------------------------------------------------------------- SL014

UNITS = """
    Bytes = int
    Seconds = float
    BytesPerSec = float
    KiB = 1024
    MiB = 1024**2
"""


def test_sl014_add_mismatch_fires(flow):
    findings = flow({
        "units.py": UNITS,
        "sim/model.py": """
            from units import Bytes, Seconds

            def cost(size: Bytes, t: Seconds):
                return size + t
        """,
    })
    sl014 = [f for f in findings if f.code == "SL014"]
    assert len(sl014) == 1
    assert "dimension mismatch" in sl014[0].message


def test_sl014_compare_mismatch_fires(flow):
    findings = flow({
        "units.py": UNITS,
        "daos/model.py": """
            from units import Bytes, Seconds

            def check(size: Bytes, t: Seconds):
                return size > t
        """,
    })
    assert "SL014" in codes(findings)
    f = next(f for f in findings if f.code == "SL014")
    assert "comparison" in f.message


def test_sl014_rate_algebra_clean(flow):
    findings = flow({
        "units.py": UNITS,
        "lustre/model.py": """
            from units import Bytes, BytesPerSec, Seconds, MiB

            def elapsed(size: Bytes, bw: BytesPerSec) -> Seconds:
                return size / bw

            def moved(bw: BytesPerSec, t: Seconds) -> Bytes:
                return bw * t + MiB
        """,
    })
    assert findings == []


def test_sl014_ambiguous_literal_warns(flow):
    findings = flow({
        "units.py": UNITS,
        "workloads/model.py": """
            from units import Bytes

            def pad(size: Bytes):
                return size + 1048576
        """,
    })
    sl014 = [f for f in findings if f.code == "SL014"]
    assert len(sl014) == 1
    assert sl014[0].severity is Severity.WARNING
    assert "unit-ambiguous literal" in sl014[0].message
    assert "MiB" in sl014[0].message


def test_sl014_out_of_scope_package_clean(flow):
    # obs/ and harness/ are not dimension-checked packages
    findings = flow({
        "units.py": UNITS,
        "obs/fmt.py": """
            from units import Bytes, Seconds

            def mix(size: Bytes, t: Seconds):
                return size + t
        """,
    })
    assert findings == []


def test_sl014_flownet_exempt(flow):
    findings = flow({
        "units.py": UNITS,
        "sim/flownet.py": """
            from units import Bytes, Seconds

            def mix(size: Bytes, t: Seconds):
                return size + t
        """,
    })
    assert findings == []


# ------------------------------------------------- suppression / engine


def test_simflow_pragma_suppression(flow):
    findings = flow({
        "units.py": UNITS,
        "sim/model.py": """
            from units import Bytes, Seconds

            def cost(size: Bytes, t: Seconds):
                return size + t  # simlint: disable=SL014 -- scalar hack
        """,
    })
    assert findings == []


def test_simflow_does_not_flag_simlint_pragmas_as_unused(flow):
    # SL001 is registered but did not run in this pass (the fixture
    # runs SL011-SL014 only): its pragma is out of scope, not stale
    findings = flow({
        "sim/model.py": """
            def f(t):
                return t  # simlint: disable=SL001
        """,
    })
    assert findings == []


# ---------------------------------------------------------- CLI layer


def _write(tmp_path, rel, src):
    p = tmp_path / rel
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(textwrap.dedent(src))
    return p


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "obs/clean.py", "def f(x):\n    return x\n")
    assert lint_main(["--no-config", "obs"]) == 0
    _write(tmp_path, "sim/core.py", textwrap.dedent(SIM_CORE))
    _write(tmp_path, "obs/bad.py", textwrap.dedent("""
        from sim.core import Simulator

        def snapshot(sim: Simulator):
            sim.now = 0.0
    """))
    assert lint_main(["--no-config", "."]) == 1
    out = capsys.readouterr().out
    assert "simlint:" in out
    assert "SL011" in out


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("SL011", "SL012", "SL013", "SL014"):
        assert code in out


def test_cli_sarif_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "workloads/drv.py", textwrap.dedent("""
        from sim.randomness import RngStreams

        def build():
            return RngStreams(seed=7)
    """))
    assert lint_main(["--no-config", "--sarif", "-", "."]) == 1
    doc = json.loads(capsys.readouterr().out)
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    assert [r["ruleId"] for r in run["results"]] == ["SL013"]


def test_cli_repository_tree_is_clean(capsys):
    """The merged tree must pass the CI lint step: src, tools and examples."""
    import pathlib

    repo = pathlib.Path(__file__).resolve().parent.parent
    paths = [str(repo / d) for d in ("src", "tools", "examples")]
    assert lint_main(["--config", str(repo / "pyproject.toml"), *paths]) == 0
    assert "simlint: clean" in capsys.readouterr().out
