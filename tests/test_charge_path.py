"""The aggregate DAOS charge path: ring-slice layouts, bulk charges, merge.

Aggregate IOR prices a batch of ranks from per-array *unit* charges,
rotated from one canonical profile per class on a healthy layout
(``DaosArray.ring_charges``) and merged with one ``np.bincount``
(``repro.workloads.ior.merge_charges``); Field I/O and fdb-hammer do the
same for KV loads (``merge_kv_loads``).  These tests pin each piece to
the slow, obvious formulation it replaces:

- layouts equal the ring slots :func:`place_groups` picks, as private lists;
- ``bulk_charges`` equals the summed per-chunk ``write()``/``read()``
  charges of the functional store, dead targets included;
- for every liveness vector of a group, each per-op, bulk and ring path
  serves the members of one spelled-out serve rule, or raises its error;
- the rotation equals the per-object ``bulk_charges``/``bulk_op_loads``
  walk, and the merge the per-target dict fold, bit for bit, key order
  too.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

import pytest

from repro.daos.array import DaosArray
from repro.daos.kv import DaosKV
from repro.daos.objclass import ObjectClass
from repro.daos.placement import place_groups
from repro.daos.pool import Pool, Target
from repro.daos.rebuild import run_rebuild
from repro.errors import DataLossError, UnavailableError
from repro.hardware.cluster import Cluster
from repro.units import KiB
from repro.workloads.common import DaosEnv, WorkloadConfig
from repro.workloads.ior import (
    _DaosIor,
    array_charges,
    charge_profile,
    engine_request_ops,
    merge_charges,
    merge_kv_loads,
    run_ior,
    uniform_target_charges,
)

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


def _fold(arrays, kind: str, nbytes, scale) -> Dict[Target, float]:
    """The per-target dict fold the bincount merge replaces."""
    charges: Dict[Target, float] = {}
    for arr in arrays:
        for target, nb in arr.bulk_charges(kind, nbytes).items():
            charges[target] = charges.get(target, 0.0) + nb * scale
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
        _assert_bitwise(got, _fold(arrays, phase, 1, ops * op_size))


def test_merge_one_state_batch():
    runner, env, cont, op_size = _runner()
    _check_merge(runner, env, [cont.new_array("RP_2GX", chunk_size=op_size)], op_size)


def test_merge_mixed_class_batch():
    runner, env, cont, op_size = _runner()
    arrays = [cont.new_array(oc, chunk_size=CHUNK) for oc in CLASSES for _ in range(5)]
    for batch in (arrays, arrays[::-1], arrays[1::2] + arrays[::2]):
        assert DaosArray.ring_charges(batch, "write", 1) is not None  # the rotation runs
    _check_merge(runner, env, arrays, op_size)
    _check_merge(runner, env, arrays[::-1], op_size, ops=7)
    _check_merge(runner, env, arrays[1::2] + arrays[::2], op_size, ops=5)


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
    assert arrays[0].relaid
    assert DaosArray.ring_charges(arrays, "write", 1) is None  # per-object path
    _check_merge(runner, env, arrays, op_size)
    pool.restore_target(victim.global_index)
    assert DaosArray.ring_charges(arrays, "write", 1) is None  # still relaid
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


# ---------------------------------------------------------------------------
# rotated canonical profiles against the per-object walk


def _walk_profile(arrays, kind: str, nbytes):
    """The per-object ``bulk_charges`` profiles, concatenated."""
    parts = [charge_profile(arr.bulk_charges(kind, nbytes)) for arr in arrays]
    return [i for p in parts for i in p[0].tolist()], [a for p in parts for a in p[1].tolist()]


@pytest.mark.parametrize("n_servers", [1, 4, 16])
@pytest.mark.parametrize("oc", CLASSES)
@pytest.mark.parametrize("kind", ["write", "read"])
@pytest.mark.parametrize("nbytes", [1, 3 * 1048573 + 11])
def test_rotation_equals_per_object_walk(n_servers, oc, kind, nbytes):
    """Unit (IOR) and non-unit (HDF5) amounts, every class and pool size."""
    pool = _pool(n_servers)
    cont = pool.create_container("rot", materialize=False)
    arrays = [cont.new_array(oc, chunk_size=CHUNK) for _ in range(7)]
    arrays.append(arrays[2])  # a shared-file batch repeats its array
    slots, amounts = DaosArray.ring_charges(arrays, kind, nbytes)
    want_idx, want_amounts = _walk_profile(arrays, kind, nbytes)
    assert slots.tolist() == want_idx
    assert [a.hex() for a in amounts.tolist()] == [a.hex() for a in want_amounts]
    scale = float(3 * 1048573) if nbytes == 1 else 1.0
    want = _fold(arrays, kind, nbytes, scale)
    _assert_bitwise(array_charges(pool, arrays, kind, nbytes, scale), want)


def test_dead_target_sends_only_its_batches_to_the_walk():
    pool = _pool(4)
    cont = pool.create_container("dead", materialize=False)
    arrays = [cont.new_array("S1", chunk_size=CHUNK) for _ in range(12)]
    wide = [cont.new_array("RP_2GX", chunk_size=CHUNK) for _ in range(3)]
    used = {arr.groups[0][0] for arr in arrays}
    spare = next(t for t in pool.ring if t not in used)
    spare.fail()  # behind the pool map's back: liveness is read from targets
    assert pool.map_version == 0
    assert DaosArray.ring_charges(arrays, "read", 1) is not None
    assert DaosArray.ring_charges(wide, "write", 1) is None  # writes reach every member
    for batch in (arrays, wide, arrays + wide):
        for kind in ("write", "read"):
            want = _fold(batch, kind, 1, 1048573.0)
            _assert_bitwise(array_charges(pool, batch, kind, 1, 1048573.0), want)
            assert spare not in want


def test_aggregate_ior_on_healthy_pool_never_builds_group_lists(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("Pool.ring_groups called")

    monkeypatch.setattr(Pool, "ring_groups", forbidden)
    for oc in ("SX", "RP_2GX", "EC_2P1GX"):
        env = DaosEnv(Cluster(n_servers=4, n_clients=2, seed=0))
        cfg = WorkloadConfig(n_client_nodes=2, ppn=2, ops_per_process=4, object_class=oc)
        rec = run_ior(env, cfg, "DAOS")
        assert rec.get("write").bytes == rec.get("read").bytes == 2 * 2 * 4 * cfg.op_size


# ---------------------------------------------------------------------------
# serve plans: every path's members against one spelled-out rule


def _rule(oc, alive, kind: str):
    """The serve rule, written independently of ``ObjectClass.serve``:
    ``(members, None)`` or ``(None, error type)``."""
    live = tuple(m for m, up in enumerate(alive) if up)
    quorum = oc.ec_k or 1
    if len(live) < quorum:
        return None, UnavailableError if kind == "write" else DataLossError
    return (live if kind == "write" else live[:quorum]), None


def _healthy(oc, kind: str):
    return _rule(oc, (True,) * oc.group_width, kind)[0]


def _set_liveness(group, alive) -> None:
    for target, up in zip(group, alive):
        if up and not target.alive:
            target.restore()  # back empty, as after a recovery
        elif not up and target.alive:
            target.fail()


def _served(obj, gi: int, members, kind: str) -> List[Target]:
    """Targets in bulk order: group ``gi`` serves ``members``, every
    other group (all alive) its healthy plan."""
    healthy = _healthy(obj.oc, kind)
    return [group[m] for g, group in enumerate(obj.groups)
            for m in (members if g == gi else healthy)]


def _vectors(width: int):
    return list(itertools.product((True, False), repeat=width))


def _check_array_plans(oc: str, vectors) -> None:
    """For each liveness vector of group 0, every array path serves the
    rule's members or raises its error, and a read fails over exactly
    when its plan is not the healthy plan."""
    pool = _pool(4)
    cont = pool.create_container("plan", materialize=False)
    arr = cont.new_array(oc, chunk_size=CHUNK)
    arr.write(0, nbytes=CHUNK)  # chunk 0 lives in group 0
    group = arr.groups[0]
    per_op = {"write": lambda: arr.write(0, nbytes=CHUNK), "read": lambda: arr.read(0, CHUNK)[1]}
    for alive in vectors:
        _set_liveness(group, alive)
        for kind in ("write", "read"):
            members, error = _rule(arr.oc, alive, kind)
            before = arr.failovers
            if error is not None:
                for path in (lambda: arr.oc.serve(alive, kind), per_op[kind],
                             lambda: arr.bulk_charges(kind, CHUNK),
                             lambda: array_charges(pool, [arr], kind, 1)):
                    with pytest.raises(error):
                        path()
                assert DaosArray.ring_charges([arr], kind, 1) is None
                assert arr.failovers == before
                continue
            assert arr.oc.serve(alive, kind) == members
            is_healthy = members == _healthy(arr.oc, kind)
            assert list(per_op[kind]()) == [group[m] for m in members], (alive, kind)
            assert arr.failovers - before == (kind == "read" and not is_healthy)
            want = _served(arr, 0, members, kind)
            assert list(arr.bulk_charges(kind, CHUNK)) == want
            assert list(array_charges(pool, [arr], kind, 1)) == want
            ring = DaosArray.ring_charges([arr], kind, 1)
            assert (ring is None) == (not is_healthy), (alive, kind)


def _check_kv_plans(oc: str, vectors) -> None:
    """The same for a KV: puts take the write plan, gets the read plan."""
    pool = _pool(4)
    cont = pool.create_container("kvplan", materialize=False)
    kv = cont.new_kv(oc)
    gi = kv._group_for("k")
    group = kv.groups[gi]
    per_op = {"put": lambda: list(kv.put("k", b"v")), "get": lambda: [kv.get("k")[1]]}
    for alive in vectors:
        _set_liveness(group, alive)
        for kind, plan_kind in (("put", "write"), ("get", "read")):
            members, error = _rule(kv.oc, alive, plan_kind)
            if error is not None:
                for path in (per_op[kind], lambda: kv.bulk_op_loads(kind, 10, 24)):
                    with pytest.raises(error):
                        path()
                assert DaosKV.ring_op_loads([(kv, 10)], kind, 24) is None
                continue
            is_healthy = members == _healthy(kv.oc, plan_kind)
            assert per_op[kind]() == [group[m] for m in members], (alive, kind)
            assert list(kv.bulk_op_loads(kind, 10, 24)[0]) == _served(kv, gi, members, plan_kind)
            ring = DaosKV.ring_op_loads([(kv, 10)], kind, 24)
            assert (ring is None) == (not is_healthy), (alive, kind)


@pytest.mark.parametrize("oc", ["S1", "RP_2G1", "RP_3G1", "EC_2P1G1", "EC_4P2G1"])
def test_serve_plan_every_liveness_vector(oc):
    _check_array_plans(oc, _vectors(ObjectClass.parse(oc).group_width))


@pytest.mark.parametrize("oc", ["S1", "RP_2G1", "RP_3G1"])
def test_kv_serve_plan_every_liveness_vector(oc):
    _check_kv_plans(oc, _vectors(ObjectClass.parse(oc).group_width))


#: (class, members of group 0 lost): every way to exhaust a group,
#: multi-group classes included
EXHAUSTED = [("S1", 1), ("SX", 1), ("RP_2G1", 2), ("RP_2GX", 2),
             ("EC_2P1G1", 2), ("EC_2P1GX", 2), ("EC_2P1G1", 3), ("EC_2P1GX", 3)]


@pytest.mark.parametrize("oc,lost", EXHAUSTED)
def test_exhausted_group_raises_per_op_error(oc, lost):
    width = ObjectClass.parse(oc).group_width
    _check_array_plans(oc, [(False,) * lost + (True,) * (width - lost)])


@pytest.mark.parametrize("oc", ["S1", "SX", "RP_2GX"])
def test_kv_exhausted_group_raises_per_op_error(oc):
    width = ObjectClass.parse(oc).group_width
    _check_kv_plans(oc, [(False,) * width])


# ---------------------------------------------------------------------------
# KV loads: the shared helper against the Field I/O / fdb-hammer dict fold


def _kv_fold(pool: Pool, charges, req, loads, kind: str, value_size):
    """The per-KV dict fold Field I/O and fdb-hammer used to run."""
    charges, req = dict(charges), dict(req)
    for kv, n_ops in loads:
        c, e = kv.bulk_op_loads(kind, n_ops, value_size)
        for t, nb in c.items():
            charges[t] = charges.get(t, 0.0) + nb
        for eng, n in e.items():
            req[eng] = req.get(eng, 0.0) + n
    return charges, req


def _kv_batch(n_servers: int, classes):
    pool = _pool(n_servers)
    cont = pool.create_container("kvs", materialize=False)
    kvs = [cont.new_kv(oc) for oc in classes for _ in range(4)]
    # Field I/O: 3 shared KVs at ``ops``, an index KV at 7 * ops; 5 / n
    # is not dyadic, so an engine's fold differs from count * per_group
    loads = [(kv, 5 if i % 4 else 35) for i, kv in enumerate(kvs)]
    charges = uniform_target_charges(pool, 5 * 1048573.0)
    return pool, loads, charges, engine_request_ops(charges, 12)


def _check_kv(pool, loads, charges, req, kind: str, value_size) -> None:
    got_c, got_e = merge_kv_loads(pool, charges, req, loads, kind, value_size)
    want_c, want_e = _kv_fold(pool, charges, req, loads, kind, value_size)
    _assert_bitwise(got_c, want_c)
    _assert_bitwise(got_e, want_e)


@pytest.mark.parametrize("n_servers", [1, 3, 4, 16])
@pytest.mark.parametrize("classes", [("S1",), ("SX",), ("RP_2GX",), ("S1", "SX", "RP_2GX")])
@pytest.mark.parametrize("kind", ["put", "get"])
def test_kv_rotation_equals_dict_fold(n_servers, classes, kind):
    pool, loads, charges, req = _kv_batch(n_servers, classes)
    assert DaosKV.ring_op_loads(loads, kind, 192) is not None  # the rotation runs
    for batch in (loads, loads[::-1]):
        _check_kv(pool, batch, charges, req, kind, 192)
        _check_kv(pool, batch, {}, {}, kind, 24)  # every key new: first appearance


def test_kv_dead_target_takes_the_walk():
    pool, loads, charges, req = _kv_batch(4, ("RP_2GX", "SX"))
    victim = loads[0][0].groups[0][1]
    pool.fail_target(victim.global_index)
    charges = uniform_target_charges(pool, 5 * 1048573.0)
    req = engine_request_ops(charges, 12)
    rp_only = loads[:4]
    # a put reaches the dead second replica; a get is served by the first
    assert DaosKV.ring_op_loads(rp_only, "put", 192) is None
    assert DaosKV.ring_op_loads(rp_only, "get", 192) is not None
    for kind in ("put", "get"):
        _check_kv(pool, rp_only, charges, req, kind, 192)
