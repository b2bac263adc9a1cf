"""The aggregate DAOS charge path: ring-slice layouts, bulk charges, merge.

Aggregate IOR prices a batch of ranks from per-array *unit* charge
profiles (``DaosArray.bulk_charges``) merged with one ``np.bincount``
(``repro.workloads.ior.merge_charges``).  These tests pin each piece to
the slow, obvious formulation it replaces:

- layouts equal the ring slots :func:`place_groups` picks, as private lists;
- ``bulk_charges`` equals the summed per-chunk ``write()``/``read()``
  charges of the functional store, dead targets included;
- the merge equals the per-target dict fold bit for bit, key order too.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.daos.placement import place_groups
from repro.daos.pool import Pool, Target
from repro.daos.rebuild import run_rebuild
from repro.hardware.cluster import Cluster
from repro.units import KiB
from repro.workloads.common import DaosEnv, WorkloadConfig
from repro.workloads.ior import _DaosIor, charge_profile, merge_charges

CLASSES = ("S1", "SX", "RP_2G1", "RP_2GX", "EC_2P1G1", "EC_2P1GX")
PROTECTED = ("RP_2G1", "RP_2GX", "EC_2P1G1", "EC_2P1GX")
CHUNK = 64 * KiB


def _pool(n_servers: int = 4) -> Pool:
    return Pool(Cluster(n_servers=n_servers, n_clients=1, seed=0))


# ---------------------------------------------------------------------------
# placement: ring-slice layouts


@pytest.mark.parametrize("n_servers", [1, 4, 16])
def test_groups_are_private_ring_slices(n_servers):
    pool = _pool(n_servers)
    cont = pool.create_container("place", materialize=False)
    objects = [cont.new_array(oc, chunk_size=CHUNK) for oc in CLASSES for _ in range(3)]
    for obj in objects:
        layout = place_groups(
            oid_key=obj.oid.as_int(),
            n_groups=obj.oc.resolve_groups(pool.n_targets),
            group_width=obj.oc.group_width,
            ring_size=pool.n_targets,
            salt=(pool.label, cont.id),
        )
        assert obj.groups == [[pool.ring[s] for s in g] for g in layout]
    groups = [g for obj in objects for g in obj.groups]
    # rebuild edits ``group[mi]`` in place, so no list may be shared
    assert len({id(g) for g in groups}) == len(groups)
    assert all(g is not pool.ring for g in groups)
    ring_before = list(pool.ring)
    for obj in objects:
        obj.groups[0][0] = None
    assert pool.ring == ring_before
    assert all(obj.groups[0][0] is None for obj in objects)


# ---------------------------------------------------------------------------
# bulk_charges against the functional store


def _summed(charges_list: List[Dict[Target, int]]) -> Dict[Target, int]:
    total: Dict[Target, int] = {}
    for charges in charges_list:
        for t, nb in charges.items():
            total[t] = total.get(t, 0) + nb
    return total


def _check_bulk_matches_store(oc: str, dead: bool) -> None:
    pool = _pool(4)
    cont = pool.create_container("bulk", materialize=False)
    arr = cont.new_array(oc, chunk_size=CHUNK)
    if dead:
        victim = arr.groups[0][0]
        pool.fail_target(victim.global_index)
    n_ops = 4 * arr.n_groups
    written = _summed([arr.write(i * CHUNK, nbytes=CHUNK) for i in range(n_ops)])
    read = _summed([arr.read(i * CHUNK, CHUNK)[1] for i in range(n_ops)])
    for kind, expected in (("write", written), ("read", read)):
        bulk = arr.bulk_charges(kind, n_ops * CHUNK)
        assert set(bulk) == set(expected), kind
        for t, nb in expected.items():
            assert bulk[t] == nb, (kind, t)
        if dead:
            assert victim not in bulk


@pytest.mark.parametrize("oc", CLASSES)
def test_bulk_charges_equal_summed_store_charges(oc):
    _check_bulk_matches_store(oc, dead=False)


@pytest.mark.parametrize("oc", PROTECTED)
def test_bulk_charges_skip_dead_targets(oc):
    """Degraded writes charge only live members, EC parity included;
    degraded reads fail over or reconstruct."""
    _check_bulk_matches_store(oc, dead=True)


# ---------------------------------------------------------------------------
# the batch merge against the dict fold it replaced


def _fold(arrays, kind: str, nbytes: int) -> Dict[Target, float]:
    """The per-target dict fold the bincount merge replaces."""
    charges: Dict[Target, float] = {}
    for arr in arrays:
        for target, nb in arr.bulk_charges(kind, 1).items():
            charges[target] = charges.get(target, 0.0) + nb * nbytes
    return charges


def _assert_bitwise(got: Dict[Target, float], want: Dict[Target, float]) -> None:
    assert list(got) == list(want)
    assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
    assert sum(got.values()).hex() == sum(want.values()).hex()


def _runner(n_servers: int = 4):
    cluster = Cluster(n_servers=n_servers, n_clients=1, seed=0)
    env = DaosEnv(cluster)
    op_size = 1048573  # odd, so scaled amounts round
    cfg = WorkloadConfig(n_client_nodes=1, ppn=1, ops_per_process=3, op_size=op_size)
    runner = _DaosIor(env, cfg)
    cont = env.pool.create_container("merge", materialize=False)
    return runner, env, cont, op_size


def _check_merge(runner, env, arrays, op_size, ops: int = 3) -> None:
    client = env.client(env.cluster.clients[0])
    states = [(client, arr) for arr in arrays]
    for phase in ("write", "read"):
        got = runner._charges(states, phase, ops)
        _assert_bitwise(got, _fold(arrays, phase, ops * op_size))


def test_merge_one_state_batch():
    runner, env, cont, op_size = _runner()
    _check_merge(runner, env, [cont.new_array("RP_2GX", chunk_size=op_size)], op_size)


def test_merge_mixed_class_batch():
    runner, env, cont, op_size = _runner()
    arrays = [cont.new_array(oc, chunk_size=CHUNK) for oc in CLASSES for _ in range(5)]
    _check_merge(runner, env, arrays, op_size)
    _check_merge(runner, env, arrays[::-1], op_size, ops=7)


def test_merge_after_rebuild_target_in_two_groups():
    runner, env, cont, op_size = _runner()
    pool = env.pool
    arrays = [cont.new_array("RP_2GX", chunk_size=CHUNK) for _ in range(4)]
    _check_merge(runner, env, arrays, op_size)  # caches pre-failure profiles
    victim = arrays[0].groups[0][0]
    pool.fail_target(victim.global_index)
    proc = pool.cluster.sim.process(run_rebuild(pool, victim))
    pool.cluster.sim.run()
    assert proc.result.fully_recovered
    members = [t for g in arrays[0].groups for t in g]
    assert len(members) > len(set(members))  # the replacement joined a second group
    _check_merge(runner, env, arrays, op_size)


def test_merge_charges_unscaled_matches_fold():
    """The HDF5 path merges already-scaled per-state charges (scale 1)."""
    pool = _pool(4)
    cont = pool.create_container("h5", materialize=False)
    parts = [cont.new_array(oc, chunk_size=CHUNK).bulk_charges("write", 3 * 1048573 + 11)
             for oc in CLASSES]
    want: Dict[Target, float] = {}
    for part in parts:
        for t, nb in part.items():
            want[t] = want.get(t, 0.0) + nb
    _assert_bitwise(merge_charges(pool.ring, [charge_profile(p) for p in parts]), want)
    assert merge_charges(pool.ring, []) == {}
    assert merge_charges(pool.ring, [charge_profile({})]) == {}
