"""Crash/revive lifecycle properties of the component runtime.

Random crash -> revive schedules drive the deployment through
`FailureInjector` (sim) and `TcpNode.restart_component` storms (real
sockets), pinning the two invariants the runtime layer guarantees:

* **no stale-generation timeout ever fires** — a timeout superseded by
  a newer arm of the same key is suppressed, never executed, so churn
  cannot wedge or spuriously fail the successor operation;
* **no periodic task runs twice per interval** — restart re-arms
  exactly one chain, so consecutive fires of any periodic are always at
  least one interval apart, no matter how many restarts pile up.
"""

import numpy as np
import pytest

from repro.config import AgentConfig, ClientConfig, ServerConfig, WorkloadPolicy
from repro.testbed import server_address, standard_testbed

RNG_PROBLEM = np.random.default_rng(5)


class _Handle:
    def cancel(self):
        pass


class FakeNode:
    """Minimal Node: captures sends and compute callbacks so a test can
    fire a completion *after* a restart — the TCP live-restart path,
    where compute threads survive ``restart_component()``."""

    address = "server/fake"
    host_name = "fh"

    def __init__(self):
        self.sent = []
        self.computes = []
        self.clock = 0.0

    def now(self):
        return self.clock

    def send(self, dest, msg):
        self.sent.append((dest, msg))

    def call_after(self, delay, fn):
        return _Handle()

    def compute(self, flops, thunk, done):
        self.computes.append((flops, thunk, done))

    def sample_workload(self):
        return 0.0


def linsys(n=32):
    a = RNG_PROBLEM.standard_normal((n, n)) + n * np.eye(n)
    return a, RNG_PROBLEM.standard_normal(n)


def record_fires(periodic):
    times = []
    inner = periodic._fn
    node = periodic._component.node

    def recording():
        times.append(node.now())
        inner()

    periodic._fn = recording
    return times


def assert_one_chain(times, interval, label):
    gaps = [b - a for a, b in zip(times, times[1:])]
    early = [g for g in gaps if g < interval - 1e-9]
    assert not early, f"{label}: periodic fired twice per interval: {early}"


@pytest.mark.parametrize("seed", [201, 202, 203])
def test_random_crash_revive_schedule_sim(seed):
    tb = standard_testbed(
        n_servers=3,
        seed=seed,
        agent_cfg=AgentConfig(liveness_timeout=60.0, suspect_probe_interval=9.0),
        client_cfg=ClientConfig(
            agent_timeout=8.0, timeout_floor=4.0, server_timeout=40.0
        ),
        # threshold 0: every sample broadcasts, so a *live* server is
        # never mistaken for dead — silence in this test means crashed
        server_cfg=ServerConfig(
            workload=WorkloadPolicy(time_step=6.0, threshold=0.0)
        ),
    )
    tb.settle()
    client = tb.client("c0")
    rng = np.random.default_rng(seed)

    fires = {
        "agent.sweep": (record_fires(tb.agent._sweep), 15.0),
        "agent.probe": (record_fires(tb.agent._probe), 9.0),
    }
    for sid, server in tb.servers.items():
        fires[f"{sid}.tick"] = (record_fires(server._ticker), 6.0)

    t0 = tb.kernel.now
    injector = tb.injector()
    addresses = [server_address(s) for s in tb.servers]
    # every server dies at least once inside the window; staggered
    # downtimes make revivals interleave with later crashes
    injector.random_crashes(
        rng, addresses, count=3, window=(t0 + 5.0, t0 + 60.0), downtime=12.0
    )
    injector.crash_for(t0 + 20.0, "agent", 6.0)

    # a trickle of work across the churn: repeated ops on the same keys
    # (list prefix, store key, problem) so any stale timeout firing
    # against a successor operation would surface as an early failure
    handles, stores, lists = [], [], []
    for k in range(8):
        at = t0 + 3.0 + 10.0 * k
        tb.run(until=at)
        handles.append(tb.submit("c0", "linsys/dgesv", list(linsys())))
        lists.append(client.list_problems(""))
        stores.append(
            client.store_handle(addresses[0], "churn/key", np.ones(16))
        )
    tb.run(until=t0 + 200.0)

    # everything terminal: stale timers killing successor batches would
    # leave wedged promises (their real timeout was superseded away)
    for h in handles:
        assert h.done, "request wedged across crash/revive churn"
    for p in lists + stores:
        assert p.done, "control-plane promise wedged across churn"
    # the fleet healed: post-churn work succeeds
    final = tb.submit("c0", "linsys/dgesv", list(linsys()))
    tb.run(until=tb.kernel.now + 120.0)
    assert final.done and final.status.value == "done"

    for label, (times, interval) in fires.items():
        assert_one_chain(times, interval, label)
    # structural guard accounting: any stale fire that did reach the
    # table was suppressed, not executed
    assert client._deadlines.stale_suppressed == 0  # sim cancels timers
    assert tb.agent._sweep.stale_ticks == 0


def test_restart_storm_over_tcp():
    """The live-daemon path: restart_component() on real TCP nodes, with
    old threading.Timers still in flight.  One chain per periodic must
    survive an immediate restart storm."""
    import time

    from repro.core.agent import Agent
    from repro.core.predictor import LinkEstimate, StaticNetworkInfo
    from repro.core.server import ComputationalServer
    from repro.problems.builtin import builtin_registry
    from repro.protocol.tcp import TcpTransport

    interval = 0.15
    with TcpTransport() as transport:
        agent = Agent(
            network=StaticNetworkInfo(
                default=LinkEstimate(latency=1e-4, bandwidth=1e9)
            ),
            cfg=AgentConfig(liveness_timeout=30.0, suspect_probe_interval=0.2),
        )
        transport.add_node("agent", agent, port=0)
        server = ComputationalServer(
            server_id="s0",
            agent_address="agent",
            registry=builtin_registry(),
            mflops=200.0,
            host=transport.host_name,
            cfg=ServerConfig(
                workload=WorkloadPolicy(time_step=interval, threshold=10.0)
            ),
        )
        server_node = transport.add_node("server/s0", server, port=0)
        agent_node = transport.nodes["agent"]

        tick_times = []
        inner = server._ticker._fn

        def recording():
            tick_times.append(time.monotonic())
            inner()

        server._ticker._fn = recording

        def wait_for(predicate, timeout=10.0):
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                if predicate():
                    return True
                time.sleep(0.01)
            return False

        assert wait_for(lambda: agent.registrations >= 1)

        registrations_before = agent.registrations
        for _ in range(4):  # the storm: back-to-back daemon restarts
            server_node.restart_component()
            agent_node.restart_component()
            time.sleep(0.02)
        time.sleep(interval * 6)

        # each server restart re-registered exactly once
        assert wait_for(
            lambda: agent.registrations >= registrations_before + 4
        )
        post_storm = [t for t in tick_times if t]
        gaps = [b - a for a, b in zip(post_storm, post_storm[1:])]
        # a doubled chain fires twice per interval (gaps near zero);
        # allow generous thread-scheduling jitter on the single chain
        early = [g for g in gaps if g < interval * 0.5]
        assert not early, f"duplicate timer chain over TCP: gaps {gaps}"
        # the superseded chains' timers fired into the generation guard
        # instead of ticking: that is the restart-safety mechanism
        assert server._ticker.fires > 0


def _fake_server(max_concurrent=1):
    from repro.core.server import ComputationalServer
    from repro.problems.builtin import builtin_registry

    server = ComputationalServer(
        server_id="fx",
        agent_address="agent",
        registry=builtin_registry().subset(("linsys/dgesv",)),
        mflops=100.0,
        host="fh",
        cfg=ServerConfig(max_concurrent=max_concurrent),
    )
    node = FakeNode()
    server.bind(node)
    return server, node


def _solve_request(rid=1, n=8):
    from repro.protocol.messages import SolveRequest

    a = RNG_PROBLEM.standard_normal((n, n)) + n * np.eye(n)
    b = RNG_PROBLEM.standard_normal(n)
    return SolveRequest(
        request_id=rid, problem="linsys/dgesv", inputs=(a, b),
        reply_to="client",
    )


def test_stale_completion_after_restart_is_dropped():
    """Regression: a compute finishing after a live restart must not
    decrement the new incarnation's ``_executing`` below zero or emit a
    reply for a request the new incarnation never accepted.

    The sim transport cannot reproduce this (crash cancels CPU jobs),
    but ``TcpNode.restart_component()`` leaves compute threads running:
    their ``done`` closures fire into the restarted component."""
    from repro.protocol.messages import SolveReply

    server, node = _fake_server()
    server.on_message("client", _solve_request())
    assert server.executing == 1
    assert len(node.computes) == 1
    _flops, thunk, done = node.computes[0]
    result = thunk()  # the job was already running when the crash hit

    server.on_restart()  # forgets in-flight work, _executing back to 0
    sent_before = len(node.sent)
    done(result, 0.5)  # the old incarnation's completion lands late

    assert server.executing == 0, "stale done drove _executing negative"
    assert server.stale_completions == 1
    stale_replies = [
        m for _d, m in node.sent[sent_before:] if isinstance(m, SolveReply)
    ]
    assert not stale_replies, "restarted server replied to forgotten work"
    assert server.requests_served == 0


def test_completion_same_incarnation_still_replies():
    """The guard must not eat legitimate completions."""
    from repro.protocol.messages import SolveReply

    server, node = _fake_server()
    server.on_message("client", _solve_request(rid=7))
    _flops, thunk, done = node.computes[0]
    done(thunk(), 0.5)
    assert server.executing == 0
    assert server.stale_completions == 0
    replies = [m for _d, m in node.sent if isinstance(m, SolveReply)]
    assert len(replies) == 1 and replies[0].ok and replies[0].request_id == 7


def test_injector_records_skipped_faults():
    """Regression: a planned crash of an already-dead node (or revive of
    a live one) used to silently no-op, letting plan and executed
    diverge with no audit trail."""
    tb = standard_testbed(n_servers=2, seed=301)
    tb.settle()
    injector = tb.injector()
    addr = server_address("s0")
    t0 = tb.kernel.now
    injector.revive_at(t0 + 1.0, addr)   # already alive: skipped
    injector.crash_at(t0 + 2.0, addr)    # executes
    injector.crash_at(t0 + 3.0, addr)    # already dead: skipped
    injector.revive_at(t0 + 4.0, addr)   # executes
    tb.run(until=t0 + 5.0)

    assert [f.action for f in injector.executed] == ["crash", "revive"]
    assert [f.action for f in injector.skipped] == ["revive", "crash"]
    audit = injector.audit()
    assert audit == {"planned": 4, "executed": 2, "skipped": 2, "pending": 0}
