"""The byte plane: a non-materialising DAOS array must charge, fail,
fail over and account space exactly like a materialising one.

Each test drives the same op script against two twin containers on two
identically seeded pools -- one storing real bytes, one storing none --
and compares everything the timed model reads after every op.
"""

import pytest

from repro.daos import DaosArray, Pool
from repro.daos.objclass import ObjectClass
from repro.daos.rebuild import run_rebuild
from repro.errors import DataLossError, UnavailableError
from repro.hardware import Cluster
from repro.units import KiB, zeros

CHUNK = 8 * KiB
CLASSES = ["S1", "SX", "RP_2G1", "RP_2GX", "EC_2P1G1", "EC_2P1GX"]


def pattern(offset, nbytes):
    return bytes((offset + i) * 31 % 251 for i in range(nbytes))


class Twin:
    """One array on its own pool; ``materialize`` picks the byte plane."""

    def __init__(self, oc, materialize):
        self.cluster = Cluster(n_servers=4, n_clients=1, seed=3)
        self.pool = Pool(self.cluster)
        cont = self.pool.create_container("c", materialize=materialize)
        oid = cont.alloc_oid()
        self.arr = DaosArray(cont, oid, ObjectClass.parse(oc), chunk_size=CHUNK)
        cont.register(oid, self.arr)

    def apply(self, op):
        """Run one op; returns what the timed model can observe."""
        kind, *args = op
        arr = self.arr
        data, charges, error, lost = None, {}, None, None
        try:
            if kind == "write":
                offset, nbytes = args
                if arr.materialize:
                    charges = arr.write(offset, pattern(offset, nbytes))
                else:
                    charges = arr.write(offset, nbytes=nbytes)
            elif kind == "read":
                data, charges = arr.read(*args)
            elif kind == "truncate":
                arr.truncate(*args)
            elif kind == "kill":
                for gi, mi in args[0]:
                    self.pool.fail_target(arr.groups[gi][mi].global_index)
            elif kind == "rebuild":
                lost = []
                for target in [t for t in self.pool.ring if not t.alive]:
                    proc = self.cluster.sim.process(run_rebuild(self.pool, target))
                    self.cluster.sim.run()
                    lost.append(len(proc.result.objects_lost))
        except (DataLossError, UnavailableError) as exc:
            error = type(exc)
        observed = {
            "charges": {t.global_index: nb for t, nb in charges.items()},
            "error": error,
            "lost": lost,
            "failovers": arr.failovers,
            "extents": dict(arr._extents),
            "size": arr.size(),
            "layout": [[t.global_index for t in g] for g in arr.groups],
            "space": [(t.used_bytes, t.device.used_bytes) for t in self.pool.ring],
        }
        return data, observed


def quorum_kill(oc):
    """Members of group 0 to kill so it can no longer take writes."""
    width = ObjectClass.parse(oc).group_width
    need = width - 1 if oc.startswith("EC") else width
    return [(0, m) for m in range(need)]


def script(oc, kill):
    """Partial-chunk writes, overwrites, holes, reads past the extent and
    the size, truncate, and a failure plus rebuild: ``kill="one"`` loses
    one target of group 0 after the first writes, ``kill="quorum"`` loses
    group 0's write quorum before any."""
    redundant = not oc.startswith("S")
    ops = [("kill", quorum_kill(oc))] if kill == "quorum" else []
    ops += [
        ("write", 0, 3000),  # partial first chunk
        ("write", 1000, 5000),  # overwrite: prev_extent > 0
        ("write", 3 * CHUNK + 100, 2 * CHUNK),  # leaves chunks 1 and 2 as holes
        ("read", 0, 6 * CHUNK),  # across holes and past the size
    ]
    if kill == "one":
        ops.append(("kill", [(0, 0)]))
    ops += [
        ("read", 500, 4000),
        ("read", 7000, 1000),  # within the size, past chunk 0's extent
        ("read", 6 * CHUNK, 100),  # past the size
        ("write", 6 * CHUNK, CHUNK + 10),  # fresh chunks
        ("truncate", 4 * CHUNK + 7),
        ("read", 0, 5 * CHUNK),
    ]
    if kill == "one" and redundant:
        ops.append(("write", 2000, 100))  # overwrite on a degraded group
    if kill is not None:
        ops += [("rebuild",), ("read", 0, 7 * CHUNK)]
        if redundant or kill == "quorum":
            ops.append(("write", 100, 2 * CHUNK))
    ops.append(("read", 0, 8 * CHUNK))
    return ops


@pytest.mark.parametrize("kill", [None, "one", "quorum"])
@pytest.mark.parametrize("oc", CLASSES)
def test_twins_agree_on_every_op(oc, kill):
    mat, syn = Twin(oc, True), Twin(oc, False)
    errors = 0
    for op in script(oc, kill):
        data_m, seen_m = mat.apply(op)
        data_s, seen_s = syn.apply(op)
        assert seen_s == seen_m, op
        errors += seen_m["error"] is not None
        if op[0] == "read" and seen_s["error"] is None:
            assert data_s == bytes(op[2]), op
            assert len(data_m) == op[2], op
    if kill is None:
        assert errors == 0
    if kill == "quorum":
        assert errors > 0  # the script really hit the dead group


@pytest.mark.parametrize("materialize", [True, False])
def test_read_past_extent_on_dead_group_fetches_nothing(materialize):
    twin = Twin("SX", materialize)
    arr = twin.arr
    if materialize:
        arr.write(0, pattern(0, 1000))
    else:
        arr.write(0, nbytes=1000)
    twin.pool.fail_target(arr.groups[0][0].global_index)
    assert arr.read(2000, 100) == (bytes(100), {})
    with pytest.raises(DataLossError):
        arr.read(0, 100)


def test_overwrite_on_dead_unprotected_group_fails_in_both_twins():
    """A materialising overwrite must read the old bytes first, so it
    reports the loss; the synthetic twin fails the write itself.  Neither
    changes any state."""
    raised = {}
    for materialize in (True, False):
        twin = Twin("SX", materialize)
        twin.apply(("write", 0, 1000))
        twin.apply(("kill", [(0, 0)]))
        _, before = twin.apply(("read", 2000, 1))
        _, seen = twin.apply(("write", 10, 10))
        raised[materialize] = seen.pop("error")
        before.pop("error")
        assert seen == before
    assert raised == {True: DataLossError, False: UnavailableError}


def test_non_materialising_read_shares_one_immutable_buffer():
    twin = Twin("RP_2GX", False)
    twin.arr.write(0, nbytes=3 * CHUNK)
    first, _ = twin.arr.read(0, 2 * CHUNK)
    again, _ = twin.arr.read(CHUNK, 2 * CHUNK)
    assert first is again is zeros(2 * CHUNK)


def test_zeros_is_shared_immutable_and_bounded():
    zeros.cache_clear()
    buf = zeros(4096)
    assert type(buf) is bytes and buf == bytes(4096)
    assert zeros(4096) is buf
    for n in range(100):
        zeros(n)
    info = zeros.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < 100
