"""The simulated workloads: ``sim-farm`` and ``sim-chain``.

Both run the real client -> agent -> server protocol over
:class:`~repro.protocol.transport.SimTransport`, built with the
program's own :func:`~repro.testbed.build_testbed`.  Virtual-time
results depend only on the seed; wall-clock rates come from equal
windows of the measured phase.
"""

from __future__ import annotations

import numpy as np
from repro.core.predictor import (
    LearnedNetworkInfo,
    LinkEstimate,
    StaticNetworkInfo,
)
from repro.testbed import (
    ClientDef,
    HostDef,
    LinkDef,
    ServerDef,
    build_testbed,
    server_address,
)

from common import (
    Result,
    Windows,
    dgesv_flops,
    dgesv_ok,
    log,
    peak_rss_mb,
    well_conditioned,
)
from layers import prediction_error_pct
from tracing import instrument_roles

LATENCY = 2e-3           # 2 ms links
BANDWIDTH = 1.25e6       # 10 Mb/s Ethernet, bytes/s
#: kernel events run between wall-clock checks
EVENTS_PER_ADVANCE = 200
#: virtual seconds without a new submission before a run counts as
#: stalled; the slowest step of either workload takes about 10
STALL_LIMIT = 60.0
#: virtual seconds a drain may take
DRAIN_LIMIT = 120.0


def _build(hosts, servers, clients, observability):
    """A settled world: every server registered and reported, the agent
    on the daemon's ``--learn-network`` table over a correct prior."""
    hosts = [HostDef("broker", 50.0)] + hosts
    network = LearnedNetworkInfo(
        StaticNetworkInfo(
            default=LinkEstimate(latency=LATENCY, bandwidth=BANDWIDTH)
        )
    )
    tb = build_testbed(
        hosts=hosts,
        servers=servers,
        clients=clients,
        agent_host="broker",
        default_link=LinkDef("*", "*", latency=LATENCY, bandwidth=BANDWIDTH),
        network_override=network,
        observability=observability,
    )
    tb.settle()
    missing = len(tb.servers) - tb.agent.registrations
    if missing:
        raise RuntimeError(f"{missing} server(s) never registered")
    return tb


class SimRun:
    """State shared by both simulated loads: the kernel loop, completion
    counting, the stall guard and the drain."""

    def __init__(self, tb, sample_end: float) -> None:
        self.tb = tb
        self.kernel = tb.kernel
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.stalled = False
        self.open = True
        #: peak resident memory is read once this many were submitted
        self.sample_end = sample_end
        self.rss_mb = None

    def _settled(self, promise) -> None:
        self.completed += 1
        if promise.error is not None:
            self.failed += 1

    def watch(self, handle) -> None:
        handle.promise.on_settled(self._settled)

    def advance(self) -> bool:
        """Run a batch of events; False once nothing is left to run."""
        step = self.kernel.step
        for _ in range(EVENTS_PER_ADVANCE):
            if not step():
                return False
        if self.rss_mb is None and self.submitted >= self.sample_end:
            self.rss_mb = peak_rss_mb()
        return True

    def run_until(self, done) -> None:
        """Advance until ``done()``, or mark the run stalled when nothing
        was submitted for :data:`STALL_LIMIT` virtual seconds."""
        mark, since = self.submitted, self.kernel.now
        while not self.stalled and not done():
            if not self.advance():
                self.stalled = True
            elif self.submitted != mark:
                mark, since = self.submitted, self.kernel.now
            elif self.kernel.now - since > STALL_LIMIT:
                self.stalled = True

    def measured_phase(self, seconds: float, check=None) -> Windows:
        """``seconds`` of wall time in windows."""
        windows = Windows(seconds, self.completed)
        while not windows.done():
            self.advance()
            windows.tick(self.completed)
            if check is not None:
                with windows.paused():
                    check()
        return windows

    def drain(self, outstanding) -> None:
        """Stop new work and run until ``outstanding()`` reaches zero or
        :data:`DRAIN_LIMIT` passes; what is left counts as unfinished."""
        self.open = False
        self.kernel.run(
            until=self.kernel.now + DRAIN_LIMIT, stop=lambda: not outstanding()
        )


class SimWorkload:
    """What the two simulated workloads share in traced mode."""

    def instrument(self, tracer, tb) -> None:
        instrument_roles(
            tracer,
            agents=tb.agents.values(),
            servers=tb.servers.values(),
            clients=tb.clients.values(),
        )
        tracer.patch(tb.kernel, "step", "simnet.step")
        tracer.patch(tb.transport, "_deliver", "transport.send")
        for node in tb.transport.nodes.values():
            tracer.patch(node, "call_after", "transport.call_after")

    def snapshot(self, tb) -> dict:
        return {
            "events": tb.kernel.events_processed,
            "reclaimed": tb.kernel.compactions,
            "vnow": tb.kernel.now,
        }

    def layer_extras(self, tb, result: Result, before: dict) -> dict:
        network = tb.agent.network
        ratios = []
        for c in tb.clients.values():
            for s in tb.servers.values():
                a, b = c.node.host_name, s.node.host_name
                learned = network.learned_bandwidth(a, b)
                if learned is not None:
                    ratios.append(learned / tb.topology.link(a, b).bandwidth)
        return {
            "agent.learned_bw_ratio": (
                sorted(ratios)[len(ratios) // 2] if ratios else 0.0
            ),
            "agent.prediction_error_pct": prediction_error_pct(result.records),
            "server.peak_queue": max(s.peak_queue for s in tb.servers.values()),
            "server_capacity_s": len(tb.servers) * (tb.kernel.now - before["vnow"]),
            "simnet.events_per_req": tb.kernel.events_processed - before["events"],
            "simnet.reclaimed_entries": tb.kernel.compactions - before["reclaimed"],
            "store.resident_mb": sum(
                s.cached_bytes for s in tb.servers.values()
            ) / 1e6,
        }


# ----------------------------------------------------------------------
# sim-farm: open-loop Poisson users over a 256-server farm
# ----------------------------------------------------------------------
FARM_SERVERS = 256
FARM_CLIENTS = 64
#: aggregate arrival rate, requests per virtual second.  The simulator
#: completes a few hundred requests per wall second, so at this rate a
#: run covers tens of virtual seconds: several workload-report periods
#: (10 s) and many pending-assignment hint lifetimes (1.5x a predicted
#: solve), so the agent ranks on feedback rather than a start-up state
FARM_RATE = 160.0
#: server speeds spread geometrically over this range (Mflop/s); slow
#: enough for about 40% utilisation at :data:`FARM_RATE`
FARM_MFLOPS = (0.005, 0.08)
FARM_N = (16, 40)
#: virtual seconds of load before the windows open: past the first
#: workload report of every server under load
FARM_WARMUP_S = 12.0
#: virtual-turnaround sample: the requests after the warm-up, by
#: submission order — the same requests whatever the wall-clock speed
FARM_SAMPLE = 8000


def farm_speed(i: int) -> float:
    lo, hi = FARM_MFLOPS
    return lo * (hi / lo) ** (i / (FARM_SERVERS - 1))


def farm_floor(n: int) -> float:
    """No request can beat two link latencies, its bytes over the
    link bandwidth and its flops on the fastest server."""
    nbytes = 8 * (n * n + n) + 8 * n
    return 2 * LATENCY + nbytes / BANDWIDTH + dgesv_flops(n) / (
        farm_speed(FARM_SERVERS - 1) * 1e6
    )


class FarmLoad(SimRun):
    """Independent users: one Poisson stream per client host."""

    def __init__(self, tb, seed: int) -> None:
        # the sample starts where the warm-up ends
        super().__init__(tb, sample_end=float("inf"))
        #: (a, b, handle) awaiting the independent check
        self.unchecked: list = []
        #: (request record, n) in submission order
        self.records: list = []
        self.bad = 0
        mean_gap = FARM_CLIENTS / FARM_RATE
        for j in range(FARM_CLIENTS):
            self._start_user(j, np.random.default_rng([seed, j]), mean_gap)

    def _start_user(self, j: int, rng, mean_gap: float) -> None:
        client = self.tb.client(f"c{j}")
        call_after = self.kernel.call_after
        lo, hi = FARM_N

        def arrive() -> None:
            if not self.open:
                return
            n = int(rng.integers(lo, hi + 1))
            a = well_conditioned(rng, n)
            b = rng.standard_normal(n)
            handle = client.submit("linsys/dgesv", [a, b])
            self.submitted += 1
            self.watch(handle)
            self.unchecked.append((a, b, handle))
            self.records.append((handle.record, n))
            call_after(rng.exponential(mean_gap), arrive)

        call_after(rng.exponential(mean_gap), arrive)

    def check(self, every: int = 512) -> None:
        """Independent check of the finished results, once ``every``
        are waiting."""
        if len(self.unchecked) < every:
            return
        keep = []
        for a, b, handle in self.unchecked:
            if not handle.done:
                keep.append((a, b, handle))
            elif handle.promise.error is None and not dgesv_ok(
                a, b, handle.result()[0]
            ):
                self.bad += 1
        self.unchecked = keep


class SimFarm(SimWorkload):
    name = "sim-farm"
    setup_repeats = 9

    def build(self, seed, observability=None):
        hosts, servers, clients = [], [], []
        for i in range(FARM_SERVERS):
            hosts.append(HostDef(f"node{i}", farm_speed(i)))
            servers.append(
                ServerDef(f"s{i}", f"node{i}", problems=("linsys/dgesv",))
            )
        for j in range(FARM_CLIENTS):
            hosts.append(HostDef(f"user{j}", 20.0))
            clients.append(ClientDef(f"c{j}", f"user{j}"))
        return _build(hosts, servers, clients, observability)

    def measure(self, tb, seed, seconds, need_sample) -> Result:
        load = FarmLoad(tb, seed)
        warm_end = tb.kernel.now + FARM_WARMUP_S
        load.run_until(lambda: tb.kernel.now >= warm_end)
        first = load.submitted
        load.sample_end = first + FARM_SAMPLE
        v0 = tb.kernel.now
        windows = load.measured_phase(seconds, load.check)
        log(f"sim-farm: windows covered {tb.kernel.now - v0:.1f} virtual s")
        # the turnaround sample is a fixed set of requests; a slow host
        # still produces all of it
        if need_sample:
            load.run_until(lambda: load.submitted >= load.sample_end)
        if load.rss_mb is None:
            load.rss_mb = peak_rss_mb()
        load.drain(lambda: load.submitted - load.completed)
        load.check(every=0)
        sample = load.records[first:load.sample_end] if need_sample else []
        return Result(
            attempted=load.submitted,
            failed=load.failed,
            requests=load.submitted,
            windows=windows,
            rss_mb=load.rss_mb,
            checks={
                "wrong_results": load.bad,
                "unfinished": load.submitted - load.completed,
                "stalled": int(load.stalled),
                "below_floor": sum(
                    1 for rec, n in load.records
                    if rec.total_seconds < farm_floor(n)
                ),
            },
            turnaround=[1e3 * rec.total_seconds for rec, _n in sample],
            records=[rec for rec, _n in load.records],
        )


# ----------------------------------------------------------------------
# sim-chain: closed-loop chains over server-resident handles
# ----------------------------------------------------------------------
CHAIN_SERVERS = 8
CHAIN_CLIENTS = 4
CHAIN_N = 96
CHAIN_STEPS = 8
CHAIN_WARMUP = 64
CHAIN_SAMPLE = 1600


def chain_home(j: int) -> int:
    """Client ``j`` stores its matrix on an odd-numbered server."""
    return (2 * j + 1) % CHAIN_SERVERS


def chain_speed(i: int, seed: int) -> float:
    """Home servers (odd ids) are about ten times faster than the rest.
    The agent treats residency as a discount, not a constraint: when a
    home server's reported workload makes it look slower than a
    non-home one, the step goes where its handles are not, and fails
    (README, faults).  A tenfold margin keeps every home server ranked
    first.  Home speeds vary by up to 10% with the seed."""
    if i % 2 == 0:
        return 4.0
    jitter = np.random.default_rng([seed, 1000 + i]).uniform(-1.0, 1.0)
    return 40.0 * (1.0 + 0.1 * jitter)


#: virtual seconds a client waits between steps.  The agent holds a
#: pending-assignment hint on a server for at least 1 s after each
#: assignment; a chain stepping faster than that piles hints onto its
#: home server until the agent ranks a server without the handles
#: first, and that step fails (README, faults)
CHAIN_THINK = 1.0


class _Chain:
    __slots__ = ("client", "node", "n", "a", "ahandle", "b", "step", "prev",
                 "bytes0", "rng", "key")

    def __init__(self, client, node, a, rng, key) -> None:
        self.client = client
        self.node = node
        self.n = a.shape[0]
        self.a = a
        self.ahandle = None
        self.rng = rng
        self.key = key
        self.b = None
        self.step = 0
        self.prev = None
        self.bytes0 = 0


class ChainLoad(SimRun):
    """Each client stores one matrix, then runs back-to-back chains
    ``x_k = A^-1 x_(k-1)`` referencing the stored matrix and the previous
    step's resident result.  A chain whose step or fetch fails starts
    over with a fresh ``b``; the stored matrix stays on its home."""

    def __init__(self, tb, seed: int) -> None:
        super().__init__(tb, sample_end=CHAIN_WARMUP + CHAIN_SAMPLE)
        self.fetches = 0
        self.fetched = 0
        self.stores = 0
        self.records: list = []
        self.chains_done = 0
        self.bad = 0
        self.heavy = 0
        self.chains = []
        n = CHAIN_N
        for j in range(CHAIN_CLIENTS):
            rng = np.random.default_rng([seed, j])
            client = tb.client(f"c{j}")
            node = tb.transport.node(f"client/c{j}")
            a = np.eye(n) + rng.standard_normal((n, n)) / (4.0 * np.sqrt(n))
            self.chains.append(_Chain(client, node, a, rng, f"A{j}"))

    def store_all(self) -> None:
        """One write per client: its matrix, by value."""
        promises = []
        for j, chain in enumerate(self.chains):
            home = server_address(f"s{chain_home(j)}")
            promises.append(chain.client.store_handle(home, chain.key, chain.a))
            self.stores += 1
        for chain, promise in zip(self.chains, promises):
            chain.ahandle = self.tb.transport.run_until(promise)

    def start(self) -> None:
        for chain in self.chains:
            self._new_chain(chain)

    def _new_chain(self, chain) -> None:
        chain.b = chain.rng.standard_normal(chain.n)
        chain.prev = chain.b
        chain.step = 0
        chain.bytes0 = chain.node.bytes_sent
        self._next(chain)

    def _again(self, chain) -> None:
        if self.open:
            self.kernel.call_after(CHAIN_THINK, lambda: self._new_chain(chain))

    def _next(self, chain) -> None:
        handle = chain.client.submit(
            "linsys/dgesv", [chain.ahandle, chain.prev], keep_result=True
        )
        self.submitted += 1
        self.records.append(handle.record)
        self.watch(handle)
        handle.promise.on_settled(lambda p, c=chain: self._stepped(c, p))

    def _stepped(self, chain, promise) -> None:
        if promise.error is not None:
            self._again(chain)
            return
        (chain.prev,) = promise.result()
        chain.step += 1
        if chain.step < CHAIN_STEPS:
            self.kernel.call_after(CHAIN_THINK, lambda: self._next(chain))
            return
        per_step = (chain.node.bytes_sent - chain.bytes0) / CHAIN_STEPS
        if per_step >= 8 * chain.n * chain.n:
            self.heavy += 1
        self.fetches += 1
        fetch = chain.client.fetch(chain.prev)
        fetch.on_settled(lambda p, c=chain: self._fetched(c, p))

    def _fetched(self, chain, promise) -> None:
        self.fetched += 1
        if promise.error is not None:
            self.failed += 1
            self._again(chain)
            return
        x = chain.b
        for _ in range(CHAIN_STEPS):
            x = np.linalg.solve(chain.a, x)
        got = np.asarray(promise.result(), dtype=float)
        if not np.allclose(got, x, rtol=1e-9, atol=1e-12 * np.abs(x).max()):
            self.bad += 1
        self.chains_done += 1
        self._again(chain)

    def outstanding(self) -> int:
        return (self.submitted - self.completed) + (self.fetches - self.fetched)


class SimChain(SimWorkload):
    name = "sim-chain"
    setup_repeats = 31

    def build(self, seed, observability=None):
        hosts, servers, clients = [], [], []
        for i in range(CHAIN_SERVERS):
            hosts.append(HostDef(f"node{i}", chain_speed(i, seed)))
            servers.append(
                ServerDef(f"s{i}", f"node{i}", problems=("linsys/dgesv",))
            )
        for j in range(CHAIN_CLIENTS):
            hosts.append(HostDef(f"user{j}", 20.0))
            clients.append(ClientDef(f"c{j}", f"user{j}"))
        return _build(hosts, servers, clients, observability)

    def measure(self, tb, seed, seconds, need_sample) -> Result:
        load = ChainLoad(tb, seed)
        load.store_all()
        load.start()
        load.run_until(lambda: load.submitted >= CHAIN_WARMUP)
        windows = load.measured_phase(seconds)
        if need_sample:
            load.run_until(lambda: load.submitted >= load.sample_end)
        if load.rss_mb is None:
            load.rss_mb = peak_rss_mb()
        load.drain(load.outstanding)
        sample = (
            load.records[CHAIN_WARMUP:load.sample_end] if need_sample else []
        )
        return Result(
            attempted=load.submitted + load.fetches + load.stores,
            failed=load.failed,
            requests=load.submitted,
            windows=windows,
            rss_mb=load.rss_mb,
            checks={
                "wrong_results": load.bad,
                "heavy_chains": load.heavy,
                "unfinished": load.outstanding(),
                "stalled": int(load.stalled),
            },
            turnaround=[1e3 * rec.total_seconds for rec in sample],
            records=load.records,
        )
