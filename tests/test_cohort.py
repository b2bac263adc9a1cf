"""Cohort aggregation: N identical clients modelled as one scaled flow.

The contract (docs/PERFORMANCE.md) is *bitwise* exactness for uniform
workloads: running ``n_client_nodes=N, cohort=1`` and
``n_client_nodes=1, cohort=N`` must produce identical bandwidth and
IOPS, provided every stochastic term is disabled (``jitter_sigma=0``
and per-client ``op_jitter_sigma=0``) and placement is uniform (IOR's
SX object class).  These tests are the CI gate for that contract; the
perf-smoke job runs them before timing the SC scalability figure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.daos.client import DaosClient, cohort_weight, _EXACT_COHORT_SUM
from repro.errors import ConfigError, InvalidArgumentError
from repro.hardware.cluster import Cluster
from repro.harness.experiment import PointSpec, spec_token
from repro.workloads.common import DaosEnv, LustreEnv, WorkloadConfig
from repro.workloads.ior import run_ior


def _run_ior(n_nodes: int, cohort: int, api: str = "DAOS", seed: int = 7):
    """One deterministic IOR run; returns (bw_w, bw_r, iops_w, iops_r)."""
    cluster = Cluster(n_servers=4, n_clients=max(n_nodes, 1), seed=seed)
    env = DaosEnv(cluster, jitter_sigma=0.0, cohort=cohort)
    for node in cluster.clients[:n_nodes]:
        # op jitter is keyed per client and defaults on; the exactness
        # contract requires every stochastic term off
        env.client(node).op_jitter_sigma = 0.0
    cfg = WorkloadConfig(
        n_client_nodes=n_nodes, ppn=4, ops_per_process=16, mode="aggregate",
        jitter_sigma=0.0, cohort=cohort,
    )
    rec = run_ior(env, cfg, api)
    return (
        rec.bandwidth("write"), rec.bandwidth("read"),
        rec.iops("write"), rec.iops("read"),
    )


@pytest.mark.parametrize("api", ["DAOS", "DFS", "POSIX"])
@pytest.mark.parametrize("n", [2, 8])
def test_cohort_bitwise_equals_per_client(n, api):
    """cohort=N on one node == N separate nodes, bit for bit.

    POSIX goes through dfuse, whose fuse_link is a per-member-node
    private resource (marked local, so its weight is *not* scaled).
    """
    per_client = _run_ior(n, 1, api=api)
    cohort = _run_ior(1, n, api=api)
    for a, b in zip(per_client, cohort):
        assert a == b  # exact: the cohort contract is bitwise equality


def test_cohort_million_clients_smoke():
    """A 10^6-modelled-process point completes quickly with sane output."""
    cluster = Cluster(n_servers=16, n_clients=10, seed=0)
    env = DaosEnv(cluster, cohort=100_000)
    cfg = WorkloadConfig(
        n_client_nodes=10, ppn=1, ops_per_process=32, batches=2,
        cohort=100_000,
    )
    assert cfg.modelled_processes == 1_000_000
    rec = run_ior(env, cfg, "DAOS")
    bw = rec.bandwidth("write")
    assert np.isfinite(bw) and bw > 0


# ---------------------------------------------------------------------------
# cohort_weight: the N-fold link-weight sum


def test_cohort_weight_matches_bincount_accumulation():
    """Below the threshold the fold-sum is bitwise-identical to numpy's
    bincount accumulating N separate per-member edges on one link."""
    for w in (0.1, 1.0 / 3.0, 7.3e-4, 123.456):
        for n in (1, 2, 3, 7, 100, 1000, _EXACT_COHORT_SUM):
            ref = float(np.bincount([0] * n, weights=[w] * n)[0])
            assert cohort_weight(w, n) == ref  # exact: fold-sum contract


def _loop_fold(w: float, n: int) -> float:
    """The sequential Python fold ``cohort_weight`` must reproduce."""
    total = 0.0
    for _ in range(n):
        total += w
    return total


def test_cohort_weight_matches_python_loop_fold():
    rng = np.random.default_rng(20_000)
    ws = rng.uniform(1e-9, 1e3, 300) * 10.0 ** rng.integers(-5, 6, 300)
    ns = [1, 2, 3, _EXACT_COHORT_SUM] + rng.integers(1, _EXACT_COHORT_SUM + 1, 296).tolist()
    for w, n in zip(ws.tolist(), ns):
        assert cohort_weight(w, n).hex() == _loop_fold(w, n).hex()


def test_cohort_weight_large_n_uses_multiplication():
    n = _EXACT_COHORT_SUM + 1
    assert cohort_weight(0.1, n) == n * 0.1  # exact: same expression


# ---------------------------------------------------------------------------
# validation and spec plumbing


def test_cohort_validation_errors():
    cluster = Cluster(n_servers=2, n_clients=2, seed=0)
    env = DaosEnv(cluster)
    with pytest.raises(InvalidArgumentError):
        DaosClient(cluster, env.pool, cluster.clients[0], cohort=0)
    with pytest.raises(ConfigError):
        DaosEnv(cluster, cohort=0)
    with pytest.raises(ConfigError):
        WorkloadConfig(n_client_nodes=1, ppn=1, cohort=0)
    with pytest.raises(ConfigError):
        WorkloadConfig(n_client_nodes=1, ppn=1, mode="exact", cohort=2)


def test_cohort_env_mismatch_rejected():
    cluster = Cluster(n_servers=2, n_clients=2, seed=0)
    cfg = WorkloadConfig(n_client_nodes=1, ppn=2, ops_per_process=4, cohort=2)
    # env built without the matching cohort
    with pytest.raises(ConfigError, match="cohort"):
        run_ior(DaosEnv(cluster, cohort=1), cfg, "DAOS")
    # Lustre has no cohort support at all
    with pytest.raises(ConfigError, match="cohort"):
        run_ior(LustreEnv(cluster), cfg, "LUSTRE")


def test_point_spec_cohort_validation_and_token():
    with pytest.raises(ConfigError):
        PointSpec(workload="ior", store="daos", api="DAOS", cohort=0)
    with pytest.raises(ConfigError):
        PointSpec(workload="ior", store="lustre", api="LUSTRE", cohort=2)
    base = PointSpec(workload="ior", store="daos", api="DAOS")
    scaled = base.with_(cohort=10)
    assert scaled.modelled_processes == 10 * base.modelled_processes
    # default cohort must not perturb pre-existing tokens (cache keys/seeds)
    assert "cohort" not in spec_token(base)
    assert "cohort=10" in spec_token(scaled)
    assert spec_token(scaled) != spec_token(base)
