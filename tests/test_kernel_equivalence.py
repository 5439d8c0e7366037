"""Kernel equivalence: the activity-driven kernel must be bit-identical
to the dense reference kernel.

``Network`` ships two simulation kernels (``src/repro/noc/network.py``):
``dense`` visits every router and channel every cycle; ``active`` walks
timing wheels for channel arrivals and an active-router bitmask for the
evaluation phase.  Kernel choice is a pure performance knob — results
must match *bit for bit*, which these tests enforce by comparing entire
``ExperimentResult`` dataclasses (latency, breakdown, power/energy,
power-state residency, per-packet samples).

The suite also unit-tests the bookkeeping the active kernel leans on:
the active-set mask/flag mirror, the maintained VC-state counters, the
timing-wheel registration invariants, the gating change-point cursor,
and the handshake drain-candidate skip cache.
"""

import pytest

from repro.config import MECHANISMS
from repro.harness import run_synthetic

EQ_KW = dict(rate=0.04, warmup=200, measure=800, seed=11)


def _pair(mech, **kw):
    """Run the same experiment under both kernels, samples retained."""
    dense = run_synthetic(mech, kernel="dense", keep_samples=True, **kw)
    active = run_synthetic(mech, kernel="active", keep_samples=True, **kw)
    return dense, active


# -- full-result equivalence matrix -----------------------------------------

@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("pattern", ("uniform", "tornado"))
@pytest.mark.parametrize("fraction", (0.0, 0.5))
def test_kernels_bit_identical(mechanism, pattern, fraction):
    dense, active = _pair(mechanism, pattern=pattern,
                          gated_fraction=fraction, **EQ_KW)
    assert dense == active, (
        f"{mechanism}/{pattern}/f={fraction}: kernels diverged")


@pytest.mark.parametrize("fraction", (0.2, 0.4, 0.6, 0.8))
def test_kernels_bit_identical_gflov_fraction_sweep(fraction):
    """Deeper gated-fraction sweep on the paper's main mechanism: higher
    fractions exercise fly-over relays, wakeup handshakes, and long
    stretches of routers absent from the active set."""
    dense, active = _pair("gflov", pattern="uniform",
                          gated_fraction=fraction, **EQ_KW)
    assert dense == active


@pytest.mark.parametrize("mechanism", ("gflov", "rp"))
def test_kernels_bit_identical_under_epoch_gating(mechanism):
    """Mid-run gated-set changes: exercises the change-point cursor, RP's
    network-wide reconfiguration stalls, and wakeup storms under both
    kernels."""
    from repro.gating.schedule import random_epochs

    sched = random_epochs(64, (0.2, 0.7, 0.4), (400, 700), seed=5)
    dense, active = _pair(mechanism, pattern="uniform", gated_fraction=0.0,
                          schedule=sched, **EQ_KW)
    assert dense == active


def test_env_var_selects_kernel(monkeypatch):
    from repro.noc.network import default_kernel

    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert default_kernel() == "active"
    monkeypatch.setenv("REPRO_KERNEL", "dense")
    assert default_kernel() == "dense"
    monkeypatch.setenv("REPRO_KERNEL", "turbo")
    with pytest.raises(ValueError, match="REPRO_KERNEL"):
        default_kernel()


def test_explicit_kernel_validated():
    from repro.config import NoCConfig
    from repro.noc.network import Network

    with pytest.raises(ValueError, match="kernel"):
        Network(NoCConfig(mechanism="baseline"), kernel="turbo")


# -- differential event traces ------------------------------------------------

def _normalized_trace(events):
    """Canonical ordering for within-cycle comparison.

    Both kernels make the same state transitions each cycle but may visit
    routers in a different order (bitmask walk vs dense scan), so events
    inside one cycle can interleave differently while the simulation stays
    bit-identical.  Sorting within the stream by ``(cycle, kind, node,
    repr(data))`` removes that legal reordering and nothing else."""
    return sorted(events, key=lambda ev: (ev.cycle, ev.kind, ev.node,
                                          repr(ev.data)))


@pytest.mark.parametrize("mechanism,fraction",
                         [("baseline", 0.0), ("rp", 0.5),
                          ("rflov", 0.5), ("gflov", 0.5)])
def test_kernels_emit_identical_event_streams(mechanism, fraction):
    """Order-normalized differential trace: every structured event —
    flit hops, FLOV latches, handshake messages, PSR updates, power
    transitions — must agree between kernels, not just the aggregate
    ``ExperimentResult``.  This catches divergence that washes out in
    averages (e.g. a hop counted on the wrong cycle)."""
    from repro.obs import Tracer

    td = Tracer()
    ta = Tracer()
    dense = run_synthetic(mechanism, kernel="dense", tracer=td,
                          gated_fraction=fraction, **EQ_KW)
    active = run_synthetic(mechanism, kernel="active", tracer=ta,
                           gated_fraction=fraction, **EQ_KW)
    assert dense == active
    ed, ea = _normalized_trace(td.events()), _normalized_trace(ta.events())
    assert td.dropped == ta.dropped == 0, "ring overflowed; enlarge capacity"
    assert len(ed) == len(ea), (
        f"{mechanism}/f={fraction}: dense recorded {len(ed)} events, "
        f"active {len(ea)}")
    for i, (d, a) in enumerate(zip(ed, ea)):
        assert d == a, (
            f"{mechanism}/f={fraction}: traces diverge at normalized "
            f"index {i}: dense={d} active={a}")
    assert ed, "soak produced no events; differential test is vacuous"


def test_kernels_emit_identical_event_streams_under_epoch_gating():
    """Same differential check across mid-run reconfigurations, where the
    active kernel's change-point cursor and wakeup storms diverge most
    readily from the dense scan."""
    from repro.gating.schedule import random_epochs
    from repro.obs import Tracer

    sched = random_epochs(64, (0.2, 0.7, 0.4), (400, 700), seed=5)
    td, ta = Tracer(), Tracer()
    dense = run_synthetic("gflov", kernel="dense", tracer=td,
                          schedule=sched, **EQ_KW)
    active = run_synthetic("gflov", kernel="active", tracer=ta,
                           schedule=sched, **EQ_KW)
    assert dense == active
    assert _normalized_trace(td.events()) == _normalized_trace(ta.events())


# -- active-set and counter bookkeeping --------------------------------------

def _recount_and_check(net):
    """Cross-check every maintained counter against a full recount."""
    from repro.noc.buffer import VCState

    fabric_flits = 0
    mask = net._active_mask
    for r in net.routers:
        assert r._active == bool(mask >> r.node & 1), (
            f"router {r.node}: _active flag and mask bit disagree")
        if r.occupancy or r.ni._pending:
            # activation invariant: work implies membership in the scan
            assert r._active, f"router {r.node} has work but is inactive"
        n_routing = n_active = occupancy = 0
        for d in r.ports:
            port_flits = port_routing = 0
            for vc in r.ivc[d]:
                port_flits += len(vc.buffer)
                if vc.state is VCState.ROUTING:
                    port_routing += 1
                elif vc.state is VCState.ACTIVE:
                    n_active += 1
            n_routing += port_routing
            occupancy += port_flits
            assert r.port_flits[d] == port_flits, (
                f"router {r.node} port {d}: port_flits counter drifted")
            assert r._port_routing[d] == port_routing, (
                f"router {r.node} port {d}: _port_routing counter drifted")
        assert r.occupancy == occupancy, (
            f"router {r.node}: occupancy counter drifted")
        assert r._n_routing == n_routing, (
            f"router {r.node}: _n_routing counter drifted")
        assert r._n_active == n_active, (
            f"router {r.node}: _n_active counter drifted")
        fabric_flits += occupancy
    for r in net.routers:
        for ch in r.out_flit.values():
            fabric_flits += len(ch)
    return fabric_flits


@pytest.mark.parametrize("mechanism,fraction",
                         [("baseline", 0.0), ("gflov", 0.5), ("nord", 0.5)])
def test_active_set_bookkeeping_under_traffic(mechanism, fraction):
    """Step a live network and recount all maintained state every few
    cycles: active mask vs flags, VC-state counters, per-port flit
    counts, and the O(1) in-fabric flit counter vs the exhaustive scan."""
    from repro.config import NoCConfig
    from repro.gating.schedule import StaticGating
    from repro.noc.network import Network
    from repro.traffic.generator import TrafficGenerator
    from repro.traffic.patterns import get_pattern

    cfg = NoCConfig(mechanism=mechanism, width=4, height=4, seed=9)
    net = Network(cfg, kernel="active")
    net.set_gating(StaticGating(cfg.num_routers, fraction, seed=9))
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.2, seed=9)
    for cycle in range(400):
        gen.tick()
        net.step()
        if cycle % 7 == 0:
            fabric = _recount_and_check(net)
            if mechanism != "nord":  # ring flits live outside the fabric
                assert net._flits == fabric, "in-fabric flit counter drifted"
            assert net.network_drained() == net.network_drained_slow()


def test_idle_network_active_set_collapses():
    """With no traffic, every router must fall out of the active scan."""
    from repro.config import NoCConfig
    from repro.noc.network import Network

    net = Network(NoCConfig(mechanism="baseline"), kernel="active")
    net.step(3)  # one pass to notice there is no work
    assert net._active_mask == 0
    assert all(not r._active for r in net.routers)
    # new work re-activates exactly the injecting router
    net.inject_packet(5, 42)
    assert net._active_mask >> 5 & 1
    net.step(1)
    assert net.routers[5]._active


# -- timing-wheel registration invariants ------------------------------------

def _flit_for(net, src, dest):
    from repro.noc.types import make_packet
    return make_packet(999, src, dest, 1, time=net.cycle)[0]


def _count_deliveries(router):
    """Wrap ``deliver_flit`` to log delivery cycles (the router may eject
    or forward the flit immediately, so buffer occupancy can't be used)."""
    log: list[int] = []
    orig = router.deliver_flit

    def spy(flit, from_dir, now):
        log.append(now)
        return orig(flit, from_dir, now)

    router.deliver_flit = spy
    return log


def test_dense_kernel_keeps_channels_unbound():
    from repro.config import NoCConfig
    from repro.noc.network import Network

    net = Network(NoCConfig(mechanism="baseline"), kernel="dense")
    net.inject_packet(0, 7)
    net.step(30)
    assert net._flit_wheel == {} and net._credit_wheel == {}
    for r in net.routers:
        for ch in r.out_flit.values():
            assert ch.wheel is None and not ch.scheduled


def test_wheel_refiles_channel_with_later_arrivals():
    """A popped bucket whose channel still holds future items must re-file
    the channel at its new head arrival (and deliver on time)."""
    from repro.config import NoCConfig
    from repro.noc.network import Network
    from repro.noc.types import Direction

    net = Network(NoCConfig(mechanism="baseline"), kernel="active")
    net.step(3)  # quiesce
    ch = net.routers[0].out_flit[Direction.EAST]
    deliveries = _count_deliveries(net.routers[1])
    now = net.cycle
    ch.send_at(_flit_for(net, 0, 1), now + 1)
    ch.send_at(_flit_for(net, 0, 1), now + 3)
    assert ch.scheduled
    net.step(2)  # cycle now+1 delivers the first flit only
    assert deliveries == [now + 1]
    assert ch.scheduled and len(ch) == 1  # re-filed at now+3
    net.step(2)
    assert deliveries == [now + 1, now + 3]
    assert not ch.scheduled


def test_wheel_tolerates_clear_and_manual_receive():
    """Stale bucket entries left by clear()/receive() are dropped, and a
    later send re-registers the channel cleanly."""
    from repro.config import NoCConfig
    from repro.noc.network import Network
    from repro.noc.types import Direction

    net = Network(NoCConfig(mechanism="baseline"), kernel="active")
    net.step(3)
    ch = net.routers[0].out_flit[Direction.EAST]
    deliveries = _count_deliveries(net.routers[1])
    ch.send_at(_flit_for(net, 0, 1), net.cycle + 2)
    ch.clear()                      # power reconfig drops the payload...
    net.step(4)                     # ...stale registration is dropped
    assert not ch.scheduled and deliveries == []
    ch.send_at(_flit_for(net, 0, 1), net.cycle + 2)
    taken = ch.receive(net.cycle + 2)   # manual drain before the bucket
    assert len(taken) == 1
    net.step(4)
    assert not ch.scheduled and deliveries == []
    ch.send_at(_flit_for(net, 0, 1), net.cycle + 1)  # re-registers fine
    net.step(2)
    assert len(deliveries) == 1


# -- change-point cursor ------------------------------------------------------

def test_change_point_cursor_fires_each_point_once():
    from repro.config import NoCConfig
    from repro.gating.schedule import EpochGating
    from repro.noc.network import Network

    net = Network(NoCConfig(mechanism="baseline"), kernel="active")
    calls: list[int] = []
    orig = net.mech.on_schedule_change

    def record(now, gated):
        calls.append(now)
        return orig(now, gated)

    net.mech.on_schedule_change = record
    net.set_gating(EpochGating([(0, ()), (10, (3,)), (20, ())]))
    assert calls == [0]         # install announces the current set
    net.step(35)
    assert calls == [0, 10, 20]
    assert net._cp_idx == 2


def test_change_point_cursor_skips_past_points():
    """Installing a schedule mid-run must not re-fire stale points."""
    from repro.config import NoCConfig
    from repro.gating.schedule import EpochGating
    from repro.noc.network import Network

    net = Network(NoCConfig(mechanism="baseline"), kernel="active")
    net.step(15)
    calls: list[int] = []
    orig = net.mech.on_schedule_change

    def record(now, gated):
        calls.append(now)
        return orig(now, gated)

    net.mech.on_schedule_change = record
    net.set_gating(EpochGating([(0, ()), (10, (3,)), (20, ())]))
    assert net._cp_idx == 1     # point 10 is already behind us
    net.step(20)
    assert calls == [15, 20]    # install-time announce + the live point


# -- handshake drain-candidate skip cache ------------------------------------

def _gflov_hsc():
    from repro.config import NoCConfig
    from repro.gating.schedule import StaticGating
    from repro.noc.network import Network

    cfg = NoCConfig(mechanism="gflov", seed=4)
    net = Network(cfg, kernel="active")
    net.set_gating(StaticGating(cfg.num_routers, 0.4, seed=4))
    return net, net.mech.hsc


def test_skip_until_bounds_are_conservative():
    """`_skip_until` may only return cycles at which the drain predicate
    could newly pass — never earlier re-checks missed, never an infinite
    skip while a finite trigger is pending."""
    net, hsc = _gflov_hsc()
    idle = net.cfg.idle_threshold
    node = next(n for n in sorted(hsc._drain_candidates)
                if n not in hsc.aon_nodes and n not in hsc.protected)
    r = net.routers[node]

    # ineligible nodes are skipped forever (epoch-guarded elsewhere)
    aon = next(iter(hsc.aon_nodes))
    assert hsc._skip_until(net.routers[aon], 0) == hsc._FOREVER

    # the idle-threshold clock dominates a fresh router
    r.last_local_activity = 0
    assert hsc._skip_until(r, 0) == idle

    # an explicit drain backoff extends the bound
    hsc._drain_backoff[node] = idle + 50
    assert hsc._skip_until(r, 0) == idle + 50
    del hsc._drain_backoff[node]

    # pending NI work forces a next-cycle re-check
    net.inject_packet(node, (node + 1) % net.cfg.num_routers)
    r.last_local_activity = -10**9
    assert hsc._skip_until(r, 100) == 101
    r.ni.drop_queued_to(frozenset(range(net.cfg.num_routers)))

    # nothing finite pending: the remaining blocker is PSR state, which
    # bumps the router's epoch on change — skip until then
    r.ni.pending_flits and pytest.fail("NI should be empty here")
    assert hsc._skip_until(r, 10**6) == hsc._FOREVER


def test_skip_cache_does_not_prevent_drain():
    """End to end: with the cache active, idle gated routers still reach
    SLEEP within a few idle-threshold periods."""
    from repro.core.power_fsm import PowerState

    net, hsc = _gflov_hsc()
    net.step(6 * net.cfg.idle_threshold + 60)
    gated = net.gating.gated_at(0) - hsc.aon_nodes - hsc.protected
    asleep = {n for n in gated
              if net.routers[n].state is PowerState.SLEEP}
    assert asleep, "no gated router ever drained with the skip cache on"
