"""Unit tests for the agent's server table and scheduling policies."""

import numpy as np
import pytest

from repro.errors import ConfigError, NetSolveError
from repro.core.registry import ServerTable
from repro.core.scheduler import (
    FastestPeakPolicy,
    MinimumCompletionTime,
    RandomPolicy,
    RoundRobinPolicy,
    make_policy,
)


def table_with(n=3, problems=("p",)):
    table = ServerTable()
    for i in range(n):
        table.register(
            server_id=f"s{i}",
            address=f"server/s{i}",
            host=f"h{i}",
            mflops=50.0 * (i + 1),
            problems=set(problems),
            now=0.0,
        )
    return table


# ----------------------------------------------------------------------
# ServerTable
# ----------------------------------------------------------------------
def test_register_and_lookup():
    table = table_with(2)
    assert len(table) == 2
    assert table.get("s0").mflops == 50.0
    assert "s1" in table and "sX" not in table


def test_register_validation():
    table = ServerTable()
    with pytest.raises(NetSolveError):
        table.register(server_id="s", address="a", host="h", mflops=0.0,
                       problems={"p"}, now=0.0)
    with pytest.raises(NetSolveError):
        table.register(server_id="s", address="a", host="h", mflops=1.0,
                       problems=set(), now=0.0)


def test_reregistration_revives_and_updates():
    table = table_with(1)
    table.mark_failed("s0")
    assert not table.get("s0").alive
    table.register(server_id="s0", address="server/s0", host="h0",
                   mflops=99.0, problems={"q"}, now=5.0)
    entry = table.get("s0")
    assert entry.alive and entry.mflops == 99.0 and entry.problems == {"q"}


def test_unknown_server_raises():
    with pytest.raises(NetSolveError):
        ServerTable().get("nope")


def test_workload_report_updates_and_revives():
    table = table_with(1)
    table.mark_failed("s0")
    table.report_workload("s0", 150.0, now=10.0)
    entry = table.get("s0")
    assert entry.alive
    assert entry.workload == 150.0
    assert entry.last_report == 10.0


def test_workload_report_clamps_negative():
    table = table_with(1)
    table.report_workload("s0", -5.0, now=1.0)
    assert table.get("s0").workload == 0.0


def test_pending_assignment_feedback():
    table = table_with(1)
    table.note_assignment("s0")
    table.note_assignment("s0")
    entry = table.get("s0")
    assert entry.pending == 2
    assert entry.effective_workload() == pytest.approx(200.0)
    table.report_workload("s0", 50.0, now=2.0)
    assert entry.pending == 0
    assert entry.effective_workload() == pytest.approx(50.0)


def test_mark_failed_counts_and_suspects():
    table = table_with(2)
    table.mark_failed("s0")
    assert table.get("s0").failures == 1
    assert not table.get("s0").alive
    assert table.get("s1").alive
    table.mark_failed("ghost")  # stale report: no crash


def test_sweep_liveness():
    table = table_with(2)
    table.report_workload("s1", 0.0, now=100.0)
    died = table.sweep_liveness(now=200.0, timeout=150.0)
    assert died == ["s0"]
    assert not table.get("s0").alive
    assert table.get("s1").alive


def test_candidates_filtering():
    table = table_with(3)
    table.mark_failed("s1")
    cands = table.candidates_for("p")
    assert [c.server_id for c in cands] == ["s0", "s2"]
    cands = table.candidates_for("p", exclude=("s0",))
    assert [c.server_id for c in cands] == ["s2"]
    assert table.candidates_for("unknown-problem") == []


def test_known_problems_union():
    table = table_with(1, problems=("a", "b"))
    table.register(server_id="sx", address="ax", host="hx", mflops=1.0,
                   problems={"c"}, now=0.0)
    assert table.known_problems() == {"a", "b", "c"}


# ----------------------------------------------------------------------
# policies
# ----------------------------------------------------------------------
def ranked_ids(policy, table, values, k=None):
    """Run ``policy.rank`` over the table with fixed predicted totals
    (server id -> seconds); returns the chosen server ids, best first."""
    entries = table.entries()
    totals = [values[e.server_id] for e in entries]
    k = len(entries) if k is None else k
    return [entries[i].server_id for i in policy.rank(entries, totals, k)]


def test_mct_sorts_by_prediction():
    table = table_with(3)
    values = {"s0": 3.0, "s1": 1.0, "s2": 2.0}
    policy = MinimumCompletionTime()
    assert ranked_ids(policy, table, values) == ["s1", "s2", "s0"]
    assert ranked_ids(policy, table, values, k=2) == ["s1", "s2"]


def test_mct_deterministic_tiebreak():
    table = table_with(3)
    values = {"s0": 1.0, "s1": 1.0, "s2": 1.0}
    ranked = ranked_ids(MinimumCompletionTime(), table, values)
    assert ranked == ["s0", "s1", "s2"]


def test_random_policy_permutes_deterministically():
    table = table_with(5)
    values = {f"s{i}": 1.0 for i in range(5)}
    p1 = RandomPolicy(np.random.default_rng(3))
    p2 = RandomPolicy(np.random.default_rng(3))
    r1 = ranked_ids(p1, table, values)
    r2 = ranked_ids(p2, table, values)
    assert r1 == r2
    assert sorted(r1) == [f"s{i}" for i in range(5)]
    # a top-k cut is the head of the same full shuffle: the rng draws
    # depend only on the candidate count
    p3 = RandomPolicy(np.random.default_rng(3))
    assert ranked_ids(p3, table, values, k=2) == r1[:2]


def test_random_policy_actually_shuffles():
    table = table_with(6)
    values = {f"s{i}": 1.0 for i in range(6)}
    policy = RandomPolicy(np.random.default_rng(0))
    orders = {
        tuple(ranked_ids(policy, table, values)) for _ in range(20)
    }
    assert len(orders) > 1


def test_roundrobin_rotates():
    table = table_with(3)
    values = {"s0": 1.0, "s1": 1.0, "s2": 1.0}
    policy = RoundRobinPolicy()
    firsts = [ranked_ids(policy, table, values, k=1)[0] for _ in range(4)]
    assert firsts == ["s0", "s1", "s2", "s0"]


def test_roundrobin_empty():
    assert RoundRobinPolicy().rank([], [], 3) == []


def test_fastest_peak_ignores_prediction():
    table = table_with(3)
    values = {"s0": 0.0, "s1": 100.0, "s2": 50.0}
    ranked = ranked_ids(FastestPeakPolicy(), table, values)
    assert ranked == ["s2", "s1", "s0"]


def test_make_policy():
    assert make_policy("mct").name == "mct"
    assert make_policy("ROUNDROBIN").name == "roundrobin"
    assert make_policy("fastestpeak").name == "fastestpeak"
    assert make_policy("random", np.random.default_rng(0)).name == "random"
    with pytest.raises(ConfigError):
        make_policy("random")
    with pytest.raises(ConfigError):
        make_policy("nonsense")
