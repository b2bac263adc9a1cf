"""Property-based tests: flow-network allocation invariants.

Whatever flows arrive, with whatever weights and demand caps, the
max-min allocation must respect physics: no link over capacity, no
capped flow above its cap, all work eventually completes, and the
completion accounting conserves bytes.
"""

import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.sim.flownet import FlowNetwork

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

link_caps = st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=5)
flow_specs = st.lists(
    st.tuples(
        st.floats(1.0, 500.0),  # size
        st.lists(  # (link index placeholder, weight)
            st.tuples(st.integers(0, 4), st.floats(0.1, 3.0)),
            min_size=1,
            max_size=4,
        ),
        st.one_of(st.none(), st.floats(0.5, 200.0)),  # demand cap
        st.floats(0.0, 2.0),  # start delay
    ),
    min_size=1,
    max_size=10,
)


def build(caps, specs):
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [net.add_link(f"l{i}", c) for i, c in enumerate(caps)]
    started = []

    def driver(size, usages, cap, delay):
        if delay:
            yield sim.timeout(delay)
        flow = net.transfer(
            size,
            [(links[li % len(links)], w) for li, w in usages],
            demand_cap=cap if cap is not None else math.inf,
        )
        started.append(flow)
        yield flow.done

    for size, usages, cap, delay in specs:
        sim.process(driver(size, usages, cap, delay))
    return sim, net, links, started


@settings(**SETTINGS)
@given(caps=link_caps, specs=flow_specs)
def test_all_flows_complete_and_conserve_bytes(caps, specs):
    sim, net, links, started = build(caps, specs)
    sim.run()
    assert len(started) == len(specs)
    for flow, (size, _, _, _) in zip(started, specs):
        assert flow.done.fired
        assert flow.remaining == 0.0
        assert flow.finished_at is not None
        assert flow.finished_at >= flow.started_at


@settings(**SETTINGS)
@given(caps=link_caps, specs=flow_specs)
def test_no_link_ever_over_capacity(caps, specs):
    """Sample the instantaneous allocation after every event: the summed
    weighted rates on each link never exceed its capacity."""
    sim, net, links, _ = build(caps, specs)
    max_overrun = [0.0]

    def monitor():
        while True:
            usage = {link.index: 0.0 for link in links}
            for flow in net.active_flows:
                for link, weight in zip(flow.links, flow.weights):
                    usage[link.index] += flow.rate * weight
            for link in links:
                over = usage[link.index] - link.capacity
                max_overrun[0] = max(max_overrun[0], over / link.capacity)
            nxt = sim.peek()
            if nxt is None:
                return
            yield sim.timeout(max(nxt - sim.now, 1e-6))

    sim.process(monitor())
    sim.run()
    assert max_overrun[0] <= 1e-6


@settings(**SETTINGS)
@given(caps=link_caps, specs=flow_specs)
def test_demand_caps_respected(caps, specs):
    sim, net, links, _ = build(caps, specs)
    violations = [0]

    def monitor():
        while True:
            for flow in net.active_flows:
                if math.isfinite(flow.demand_cap) and flow.rate > flow.demand_cap * (1 + 1e-9):
                    violations[0] += 1
            nxt = sim.peek()
            if nxt is None:
                return
            yield sim.timeout(max(nxt - sim.now, 1e-6))

    sim.process(monitor())
    sim.run()
    assert violations[0] == 0


class _AlwaysSolveNet(FlowNetwork):
    """FlowNetwork with the dirty-set gate held open: every reallocation
    runs a full from-scratch progressive fill.  The incremental network
    must be indistinguishable from this, bit for bit."""

    def _reallocate(self):
        # a sentinel dirty flow forces the affected check to pass
        self._dirty_flows.add(None)
        super()._reallocate()


def _completion_times(caps, specs, net_cls=FlowNetwork, scalar_max=None, cancels=(),
                      recap=None):
    """Drive one arrival/departure sequence; return each flow's finish
    time (None if cancelled) and every link's busy integral.

    ``cancels[tag]``, when present and not None, cancels flow ``tag``
    that many seconds after it starts (a no-op if it finished first).
    ``recap``, when given, is ``(at, link, capacity)``: one
    ``set_capacity`` at time ``at``."""
    sim = Simulator()
    net = net_cls(sim)
    if scalar_max is not None:
        net._SCALAR_MAX_EDGES = scalar_max
    links = [net.add_link(f"l{i}", c) for i, c in enumerate(caps)]
    times = {}

    def canceller(flow, after):
        yield sim.timeout(after)
        net.cancel(flow)

    def driver(tag, size, usages, cap, delay):
        if delay:
            yield sim.timeout(delay)
        flow = net.transfer(
            size,
            [(links[li % len(links)], w) for li, w in usages],
            demand_cap=cap if cap is not None else math.inf,
        )
        if tag < len(cancels) and cancels[tag] is not None:
            sim.process(canceller(flow, cancels[tag]))
        try:
            yield flow.done
        except SimulationError:
            times[tag] = None
            return
        times[tag] = sim.now

    def recapper(at, li, capacity):
        yield sim.timeout(at)
        net.set_capacity(links[li % len(links)].name, capacity)

    for tag, (size, usages, cap, delay) in enumerate(specs):
        sim.process(driver(tag, size, usages, cap, delay))
    if recap is not None:
        sim.process(recapper(*recap))
    sim.run()
    return times, net.busy_integrals().tolist()


@settings(**SETTINGS)
@given(caps=link_caps, specs=flow_specs)
def test_incremental_dirty_set_matches_from_scratch(caps, specs):
    """The dirty-set gate only skips solves whose fixed point cannot
    have moved: forcing a full from-scratch solve at every reallocation
    must reproduce the incremental network's completion times exactly."""
    incremental = _completion_times(caps, specs)
    from_scratch = _completion_times(caps, specs, net_cls=_AlwaysSolveNet)
    assert incremental == from_scratch  # exact: gate is observation-free


@settings(**SETTINGS)
@given(caps=link_caps, specs=flow_specs)
def test_scalar_and_vector_solvers_agree(caps, specs):
    """Forcing the scalar and the vectorised fill on the same random
    sequence gives bitwise-identical completion times (they share one
    IEEE-754 operation order)."""
    scalar = _completion_times(caps, specs, scalar_max=10**9)
    vector = _completion_times(caps, specs, scalar_max=-1)
    assert scalar == vector  # exact: solvers are bitwise interchangeable


cancel_plans = st.lists(st.one_of(st.none(), st.floats(0.0, 3.0)), max_size=10)
capacity_changes = st.tuples(st.floats(0.0, 2.0), st.integers(0, 4), st.floats(1.0, 1000.0))


@settings(**SETTINGS)
@given(
    caps=link_caps,
    specs=flow_specs,
    cancels=cancel_plans,
    bound=st.integers(0, 8),
    recap=capacity_changes,
)
# the history-dependence counterexamples of the incremental-vs-scratch
# test above, as band-crossing sequences
@example(caps=[5.0, 1.0], specs=[(1.0, [(1, 1.0)], None, 0.0),
         (4.0, [(0, 1.0), (0, 1.0), (0, 0.75)], None, 0.0)],
         cancels=[], bound=1, recap=None)
@example(caps=[4.0, 1.0, 467.0], specs=[(1.0, [(0, 1.0)], None, 0.0),
         (64.0, [(2, 2.493322614282528)], None, 0.125)],
         cancels=[], bound=1, recap=None)
@example(caps=[856.0303183348968, 390.7400335010644],
         specs=[(1.0, [(1, 2.453125)], None, 0.0), (3.0, [(0, 2.0)], None, 0.0)],
         cancels=[], bound=1, recap=None)
@example(caps=[23.0, 2.0], specs=[(1.0, [(0, 1.0)], None, 0.0),
         (1.0, [(1, 1.5)], None, 0.0),
         (4.0, [(0, 1.0), (0, 1.0), (0, 3.0)], None, 0.0)],
         cancels=[], bound=2, recap=None)
@example(caps=[251.0, 486.0], specs=[(1.0, [(0, 1.0)], None, 1.0),
         (1.0, [(0, 1.0), (0, 1.0)], None, 0.0), (4.0, [(1, 1.375)], None, 0.0)],
         cancels=[], bound=1, recap=None)
def test_band_crossings_match_the_wide_band(caps, specs, cancels, bound, recap):
    """A small band bound makes populations cross it in both directions
    mid-run (arrivals, completions, cancels), converting the incidence
    each time; with one capacity change on top, every finish time and
    busy integral equals the all-wide-band run bit for bit."""
    crossing = _completion_times(caps, specs, scalar_max=bound, cancels=cancels, recap=recap)
    wide = _completion_times(caps, specs, scalar_max=-1, cancels=cancels, recap=recap)
    assert crossing == wide  # exact: conversions keep row order and every fold


class _ReferenceBusyNet(FlowNetwork):
    """FlowNetwork that also integrates link busy time the per-event
    way: at every sync, each active edge adds ``rate * weight * dt``.
    Whenever the network has settled an arrival, departure or cancel
    (it then reschedules its next completion), the reference must match
    the network's own integrals, settled once per flow, to 1e-12 of the
    link's offered work: the summed ``weight * size`` of every flow
    that used it.  Per-event products and the settled ``size -
    remaining`` differ by the roundings of the remaining-work updates,
    a few ulps of each flow's size, so that is the natural scale."""

    def __init__(self, sim):
        super().__init__(sim)
        self.ref_busy = []
        self.offered = []

    def add_link(self, name, capacity):
        self.ref_busy.append(0.0)
        self.offered.append(0.0)
        return super().add_link(name, capacity)

    def _append(self, flow):
        for link, weight in zip(flow.links, flow.weights):
            self.offered[link.index] += weight * flow.size
        super()._append(flow)

    def _sync(self):
        dt = self.sim.now - self._last_advance
        if dt > 0:
            for flow in self._active:
                for link, weight in zip(flow.links, flow.weights):
                    self.ref_busy[link.index] += flow.rate * weight * dt
        super()._sync()

    def _schedule_completion(self):
        settled = self.busy_integrals().tolist()
        for got, want, offered in zip(settled, self.ref_busy, self.offered):
            assert abs(got - want) <= 1e-12 * offered, (got, want, offered)
        super()._schedule_completion()


@settings(**SETTINGS)
@given(caps=link_caps, specs=flow_specs, cancels=cancel_plans)
def test_settled_busy_integrals_match_per_event_accumulation(caps, specs, cancels):
    """Busy integrals settled once per departing flow (completion or
    cancel) equal the per-event ``rate * weight * dt`` accumulation
    after every network event, and the forced-scalar and forced-vector
    bodies settle bitwise-identical integrals."""
    _completion_times(caps, specs, net_cls=_ReferenceBusyNet, cancels=cancels)
    scalar = _completion_times(caps, specs, scalar_max=10**9, cancels=cancels)
    vector = _completion_times(caps, specs, scalar_max=-1, cancels=cancels)
    assert scalar == vector  # exact: one settle path, bitwise-equal remainders


@settings(**SETTINGS)
@given(
    cap=st.floats(10.0, 1000.0),
    sizes=st.lists(st.floats(1.0, 200.0), min_size=2, max_size=8),
)
def test_single_link_completion_order_by_size(cap, sizes):
    """Equal-weight flows sharing one link finish in size order (max-min
    fairness gives them all equal rates while active).  Near-identical
    sizes complete in the same epsilon-batch, so require separation."""
    from hypothesis import assume

    sorted_sizes = sorted(sizes)
    assume(all(b - a > 1e-3 for a, b in zip(sorted_sizes, sorted_sizes[1:])))
    sim = Simulator()
    net = FlowNetwork(sim)
    link = net.add_link("pipe", cap)
    finished = []

    def driver(tag, size):
        flow = net.transfer(size, [(link, 1.0)], name=str(tag))
        yield flow.done
        finished.append((sim.now, size, tag))

    for tag, size in enumerate(sizes):
        sim.process(driver(tag, size))
    sim.run()
    times = [t for t, _, _ in finished]
    order_sizes = [s for _, s, _ in finished]
    assert times == sorted(times)
    assert order_sizes == sorted(order_sizes)


@settings(**SETTINGS)
@given(
    cap=st.floats(10.0, 100.0),
    n=st.integers(1, 10),
    size=st.floats(5.0, 50.0),
)
def test_equal_flows_aggregate_to_capacity(cap, n, size):
    """n identical flows on one link take exactly n*size/cap seconds."""
    sim = Simulator()
    net = FlowNetwork(sim)
    link = net.add_link("pipe", cap)

    def driver():
        flow = net.transfer(size, [(link, 1.0)])
        yield flow.done

    for _ in range(n):
        sim.process(driver())
    end = sim.run()
    assert end == __import__("pytest").approx(n * size / cap, rel=1e-6)
