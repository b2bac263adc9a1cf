"""Functional DAOS store: pool/container/KV/Array semantics, redundancy,
failure injection, reconstruction."""

import pytest

from repro.daos import DaosArray, DaosKV, Pool
from repro.daos.objclass import ObjectClass
from repro.daos.oid import ObjectId
from repro.errors import (
    DataLossError,
    ExistsError,
    InvalidArgumentError,
    NotFoundError,
    UnavailableError,
)
from repro.hardware import Cluster
from repro.units import KiB, MiB


@pytest.fixture()
def pool():
    cluster = Cluster(n_servers=4, n_clients=2, seed=1)
    return Pool(cluster)


def make_array(pool, oc="SX", chunk_size=64 * KiB, label="c0", **props) -> DaosArray:
    cont = pool.create_container(label, **props)
    oid = cont.alloc_oid()
    arr = DaosArray(cont, oid, ObjectClass.parse(oc), chunk_size=chunk_size)
    cont.register(oid, arr)
    return arr


def make_kv(pool, oc="S1", label="ckv") -> DaosKV:
    cont = pool.create_container(label)
    oid = cont.alloc_oid()
    kv = DaosKV(cont, oid, ObjectClass.parse(oc))
    cont.register(oid, kv)
    return kv


# -- pool / container ----------------------------------------------------------


def test_pool_topology(pool):
    assert len(pool.engines) == 4
    assert pool.n_targets == 4 * 16
    # ring interleaves nodes: consecutive entries on different engines
    for a, b in zip(pool.ring, pool.ring[1:]):
        assert a.engine is not b.engine or len(pool.engines) == 1


def test_pool_requires_servers():
    cluster = Cluster(n_servers=1, n_clients=0)
    with pytest.raises(Exception):
        Pool(cluster, server_nodes=[])


def test_container_lifecycle(pool):
    cont = pool.create_container("data")
    assert pool.get_container("data") is cont
    with pytest.raises(ExistsError):
        pool.create_container("data")
    pool.destroy_container("data")
    with pytest.raises(NotFoundError):
        pool.get_container("data")


def test_container_oid_allocation_unique(pool):
    cont = pool.create_container("c")
    oids = {cont.alloc_oid() for _ in range(100)}
    assert len(oids) == 100


def test_container_home_engine_stable(pool):
    cont = pool.create_container("c")
    assert cont.home_engine is cont.home_engine
    assert cont.home_engine in pool.engines


def test_oid_bit_layout():
    oid = ObjectId.from_user(0xABCDEF0123456789ABCDEF, class_id=0x42)
    assert oid.user_bits == 0xABCDEF0123456789ABCDEF
    assert oid.class_id == 0x42
    assert ObjectId(oid.hi, oid.lo) == oid


def test_oid_validation():
    with pytest.raises(InvalidArgumentError):
        ObjectId.from_user(1 << 96)
    with pytest.raises(InvalidArgumentError):
        ObjectId(-1, 0)


# -- KV ---------------------------------------------------------------------------


def test_kv_put_get_roundtrip(pool):
    kv = make_kv(pool)
    kv.put("alpha", b"value-1")
    value, target = kv.get("alpha")
    assert value == b"value-1"
    assert target.alive


def test_kv_overwrite(pool):
    kv = make_kv(pool)
    kv.put("k", b"old")
    kv.put("k", b"new")
    assert kv.get("k")[0] == b"new"


def test_kv_missing_key(pool):
    kv = make_kv(pool)
    with pytest.raises(NotFoundError):
        kv.get("ghost")


def test_kv_remove(pool):
    kv = make_kv(pool)
    kv.put("k", b"v")
    kv.remove("k")
    assert not kv.contains("k")
    with pytest.raises(NotFoundError):
        kv.remove("k")


def test_kv_keys_and_len(pool):
    kv = make_kv(pool, oc="S4")
    for i in range(20):
        kv.put(f"key-{i}", bytes([i]))
    assert len(kv) == 20
    assert kv.keys() == {f"key-{i}" for i in range(20)}


def test_kv_key_validation(pool):
    kv = make_kv(pool)
    with pytest.raises(InvalidArgumentError):
        kv.put("", b"v")
    with pytest.raises(InvalidArgumentError):
        kv.put("x" * 1000, b"v")
    with pytest.raises(InvalidArgumentError):
        kv.put("ok", "not-bytes")


def test_kv_rejects_ec_class(pool):
    cont = pool.create_container("bad")
    with pytest.raises(InvalidArgumentError):
        DaosKV(cont, cont.alloc_oid(), ObjectClass.parse("EC_2P1"))


def test_kv_sharding_spreads_keys(pool):
    kv = make_kv(pool, oc="S16")
    for i in range(200):
        kv.put(f"key-{i}", b"x")
    used_groups = set()
    for i in range(200):
        used_groups.add(kv._group_for(f"key-{i}"))
    assert len(used_groups) > 8  # most of the 16 groups see keys


def test_kv_replicated_survives_target_failure(pool):
    kv = make_kv(pool, oc="RP_2")
    kv.put("important", b"payload")
    primary = kv.groups[kv._group_for("important")][0]
    pool.fail_target(primary.global_index)
    value, server = kv.get("important")
    assert value == b"payload"
    assert server is not primary


def test_kv_unreplicated_fails_on_dead_target(pool):
    kv = make_kv(pool, oc="S1")
    kv.put("k", b"v")
    target = kv.groups[kv._group_for("k")][0]
    pool.fail_target(target.global_index)
    with pytest.raises(DataLossError):
        kv.get("k")
    pool.restore_target(target.global_index)
    # the target came back but its data was wiped (device replacement)
    with pytest.raises(NotFoundError):
        kv.get("k")


def test_kv_remove_on_exhausted_group_is_unavailable(pool):
    """A remove takes the write plan, so a group with no live member
    raises what a put raises, not NotFoundError."""
    kv = make_kv(pool, oc="S1")
    kv.put("k", b"v")
    pool.fail_target(kv.groups[kv._group_for("k")][0].global_index)
    with pytest.raises(UnavailableError):
        kv.remove("k")


def test_kv_remove_returns_write_plan_targets(pool):
    kv = make_kv(pool, oc="RP_3")
    kv.put("k", b"v")
    group = kv.groups[kv._group_for("k")]
    pool.fail_target(group[1].global_index)
    assert kv.remove("k") == [group[0], group[2]]


def test_kv_keys_raise_on_exhausted_group():
    """Listing a KV with an exhausted group is data loss, not a shorter
    list; ``len`` follows."""
    pool = Pool(Cluster(n_servers=1, n_clients=1, seed=1))
    kv = make_kv(pool, oc="SX")
    for i in range(200):
        kv.put(f"key-{i}", b"x")
    pool.fail_target(kv.groups[0][0].global_index)
    with pytest.raises(DataLossError):
        kv.keys()
    with pytest.raises(DataLossError):
        len(kv)


def test_kv_keys_union_over_live_replicas(pool):
    kv = make_kv(pool, oc="RP_2GX")
    for i in range(200):
        kv.put(f"key-{i}", b"x")
    for group in kv.groups:
        pool.fail_target(group[0].global_index)
    assert kv.keys() == {f"key-{i}" for i in range(200)}


def test_kv_put_charges_cover_replicas(pool):
    kv = make_kv(pool, oc="RP_2")
    charges = kv.put("k", b"12345678")
    assert len(charges) == 2
    assert all(nb == 8 for nb in charges.values())


# -- Array -----------------------------------------------------------------------


def test_array_write_read_roundtrip(pool):
    arr = make_array(pool)
    payload = bytes(range(256)) * 16
    arr.write(0, payload)
    data, charges = arr.read(0, len(payload))
    assert data == payload
    assert sum(charges.values()) == len(payload)
    assert arr.size() == len(payload)


def test_array_multi_chunk_roundtrip(pool):
    arr = make_array(pool, chunk_size=4 * KiB)
    payload = bytes((i * 7) % 256 for i in range(40 * KiB))
    arr.write(0, payload)
    assert arr.read(0, len(payload))[0] == payload
    # chunks should hit more than one target under SX
    assert len({t for g in arr.groups for t in g}) == pool.n_targets


def test_array_partial_overwrite(pool):
    arr = make_array(pool, chunk_size=4 * KiB)
    arr.write(0, b"A" * 8192)
    arr.write(1000, b"B" * 100)
    data, _ = arr.read(0, 8192)
    assert data[:1000] == b"A" * 1000
    assert data[1000:1100] == b"B" * 100
    assert data[1100:] == b"A" * (8192 - 1100)


def test_array_unaligned_offsets(pool):
    arr = make_array(pool, chunk_size=4 * KiB)
    arr.write(3000, b"X" * 3000)  # spans a chunk boundary
    data, _ = arr.read(2990, 3020)
    assert data[:10] == b"\0" * 10
    assert data[10:3010] == b"X" * 3000
    assert data[3010:] == b"\0" * 10


def test_array_holes_read_as_zeros(pool):
    arr = make_array(pool, chunk_size=4 * KiB)
    arr.write(10 * 4096, b"end")
    data, charges = arr.read(0, 4096)
    assert data == b"\0" * 4096
    assert charges == {}  # a hole moves no bytes


def test_array_size_tracks_max_extent(pool):
    arr = make_array(pool, chunk_size=4 * KiB)
    assert arr.size() == 0
    arr.write(100, b"x" * 50)
    assert arr.size() == 150
    arr.write(0, b"y" * 10)
    assert arr.size() == 150


def test_array_truncate(pool):
    arr = make_array(pool, chunk_size=4 * KiB)
    arr.write(0, b"Z" * 10000)
    arr.truncate(5000)
    assert arr.size() == 5000
    data, _ = arr.read(0, 10000)
    assert data[:5000] == b"Z" * 5000
    assert data[5000:] == b"\0" * 5000


def test_array_zero_length_write(pool):
    arr = make_array(pool)
    assert arr.write(0, b"") == {}
    assert arr.size() == 0


def test_array_invalid_args(pool):
    arr = make_array(pool)
    with pytest.raises(InvalidArgumentError):
        arr.write(-1, b"x")
    with pytest.raises(InvalidArgumentError):
        arr.write(0)
    with pytest.raises(InvalidArgumentError):
        arr.read(-1, 10)
    with pytest.raises(InvalidArgumentError):
        arr.truncate(-1)


def test_array_chunk_not_divisible_by_ec_k(pool):
    cont = pool.create_container("bad-ec")
    with pytest.raises(InvalidArgumentError):
        DaosArray(cont, cont.alloc_oid(), ObjectClass.parse("EC_2P1"), chunk_size=1001)


def test_array_s1_lives_on_single_target(pool):
    arr = make_array(pool, oc="S1", label="s1")
    arr.write(0, b"x" * 10000)
    assert len(arr.all_targets()) == 1


def test_array_ec_write_amplification_charged(pool):
    arr = make_array(pool, oc="EC_2P1", chunk_size=8 * KiB, label="ec")
    charges = arr.write(0, b"D" * 8 * KiB)
    # 8 KiB data -> 4 KiB per data cell + 4 KiB parity = 12 KiB total.
    assert sum(charges.values()) == 12 * KiB
    assert len(charges) == 3


def test_array_ec_read_no_amplification(pool):
    arr = make_array(pool, oc="EC_2P1", chunk_size=8 * KiB, label="ec")
    arr.write(0, b"D" * 8 * KiB)
    data, charges = arr.read(0, 8 * KiB)
    assert data == b"D" * 8 * KiB
    assert sum(charges.values()) == 8 * KiB  # only data cells fetched


def test_array_rp2_write_amplification_charged(pool):
    arr = make_array(pool, oc="RP_2", chunk_size=8 * KiB, label="rp")
    charges = arr.write(0, b"D" * 8 * KiB)
    assert sum(charges.values()) == 16 * KiB
    assert len(charges) == 2


def test_array_rp2_survives_replica_failure(pool):
    arr = make_array(pool, oc="RP_2", chunk_size=8 * KiB, label="rp")
    payload = bytes(range(256)) * 32
    arr.write(0, payload)
    pool.fail_target(arr.groups[0][0].global_index)
    data, charges = arr.read(0, len(payload))
    assert data == payload
    assert all(t.alive for t in charges)


def test_array_ec_reconstructs_after_data_cell_loss(pool):
    arr = make_array(pool, oc="EC_2P1", chunk_size=8 * KiB, label="ec")
    payload = bytes((i * 13) % 256 for i in range(16 * KiB))
    arr.write(0, payload)
    # kill the first *data* target of group 0
    pool.fail_target(arr.groups[0][0].global_index)
    data, _ = arr.read(0, len(payload))
    assert data == payload


def test_array_ec_two_failures_lose_data(pool):
    arr = make_array(pool, oc="EC_2P1", chunk_size=8 * KiB, label="ec")
    arr.write(0, b"D" * 8 * KiB)
    pool.fail_target(arr.groups[0][0].global_index)
    pool.fail_target(arr.groups[0][1].global_index)
    with pytest.raises(DataLossError):
        arr.read(0, 8 * KiB)


def test_array_ec_group_on_distinct_engines(pool):
    arr = make_array(pool, oc="EC_2P1", chunk_size=8 * KiB, label="ec")
    engines = {t.engine for t in arr.groups[0]}
    assert len(engines) == 3  # fault-domain-aware placement


def test_array_wipe_releases_storage(pool):
    arr = make_array(pool, chunk_size=4 * KiB)
    arr.write(0, b"x" * 8192)
    arr.wipe()
    assert arr.size() == 0
    for g, group in enumerate(arr.groups[:2]):
        for target in group:
            assert not target.array_shards.get(arr.shard_key(g, 0))


def test_non_materialized_container_tracks_extents(pool):
    arr = make_array(pool, chunk_size=4 * KiB, label="nm", materialize=False)
    charges = arr.write(0, nbytes=8192)
    assert sum(charges.values()) == 8192
    assert arr.size() == 8192
    data, charges = arr.read(0, 8192)
    assert data == b"\0" * 8192
    assert sum(charges.values()) == 8192  # charges still exact


def test_materialized_write_requires_data(pool):
    arr = make_array(pool, label="m")
    with pytest.raises(InvalidArgumentError):
        arr.write(0, nbytes=100)


def test_container_destroy_wipes_objects(pool):
    arr = make_array(pool, label="gone", chunk_size=4 * KiB)
    arr.write(0, b"x" * 4096)
    pool.destroy_container("gone")
    assert arr.size() == 0
