"""The agent's completion-time model.

For a request of problem ``p`` with size bindings ``env`` on candidate
server ``s`` reachable from client host ``c``, NetSolve predicts::

    T(s) = T_send + T_compute + T_recv

    T_send    = latency(c, s) + input_bytes(p, env)  / bandwidth(c, s)
    T_recv    = latency(c, s) + output_bytes(p, env) / bandwidth(c, s)
    T_compute = flops(p, env) / (1e6 * mflops(s)) * (1 + pending(s) // slots(s))

    mflops(s) = peak_mflops(s) * min(1, 100 * slots(s) / (100 + workload(s)))

where ``workload`` is the server's last-reported UNIX load average times
100, ``slots`` is its advertised executor-worker count and ``pending``
counts the requests the agent steered there that no report reflects
yet.  :func:`predict_batch` evaluates it for a whole candidate set.  At
``slots=1`` the min() never binds below the classic NetSolve hypothesis
``P * 100 / (100 + w)`` — the formula *is* that hypothesis, computed
with the identical expression, so single-slot decisions are
bit-identical to the pre-slot model.  A multi-slot server divides its
runnable load across workers: a 4-worker box at load 3 still delivers
peak to a new job, which is exactly why the scheduler must know slot
counts to stop preferring idle slow machines over busy fast ones.
The model is deliberately the *same* two-parameter network model
the simulator's links implement, so experiment T1 measures exactly the
error sources the paper's agent lived with: stale workload reports, link
contention, protocol overhead and competing requests — not model-form
mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Protocol

import numpy as np

from ..errors import ConfigError

__all__ = [
    "LinkEstimate",
    "NetworkInfo",
    "StaticNetworkInfo",
    "LearnedNetworkInfo",
    "predict_batch",
]


@dataclass(frozen=True)
class LinkEstimate:
    """Agent's belief about one host pair: seconds and bytes/second."""

    latency: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigError("latency must be >= 0")
        if self.bandwidth <= 0:
            raise ConfigError("bandwidth must be positive")


class NetworkInfo(Protocol):
    """Provider of link estimates between named hosts."""

    def link(self, a: str, b: str) -> LinkEstimate: ...


class StaticNetworkInfo:
    """A symmetric table of measured link characteristics.

    Stands in for the original's network measurements: the deployment
    loads it from known topology (or from probes), and the agent never
    touches live network state.  Unknown pairs fall back to ``default``
    if given, else raise.
    """

    def __init__(
        self,
        table: Mapping[tuple[str, str], LinkEstimate] | None = None,
        *,
        default: LinkEstimate | None = None,
        loopback: LinkEstimate | None = None,
    ):
        self._table: dict[tuple[str, str], LinkEstimate] = {}
        self.default = default
        self.loopback = loopback or LinkEstimate(latency=20e-6, bandwidth=400e6)
        if table:
            for (a, b), est in table.items():
                self.set(a, b, est)

    def set(self, a: str, b: str, est: LinkEstimate) -> None:
        self._table[(a, b)] = est
        self._table[(b, a)] = est

    def link(self, a: str, b: str) -> LinkEstimate:
        if a == b:
            return self.loopback
        est = self._table.get((a, b))
        if est is None:
            est = self.default
        if est is None:
            raise ConfigError(f"no link estimate for {a!r} <-> {b!r}")
        return est


class LearnedNetworkInfo:
    """Network table that learns effective bandwidth from observed
    transfers (the measurement loop NetSolve later delegated to NWS).

    Starts from a ``prior`` provider; every client
    :class:`~repro.protocol.messages.TransferReport` updates an
    exponentially weighted moving average of the path's effective
    bytes/second.  Latency stays the prior's (small-message probes would
    refine it; transfers barely constrain it), so the learned estimate
    corrects exactly the term that dominates large-argument prediction.
    """

    def __init__(self, prior: "NetworkInfo", *, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ConfigError("alpha must be in (0, 1]")
        self.prior = prior
        self.alpha = float(alpha)
        self._learned: dict[tuple[str, str], float] = {}
        self.observations = 0

    @staticmethod
    def _key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def observe(self, a: str, b: str, nbytes: float, seconds: float) -> None:
        """Fold one realized transfer into the path's bandwidth belief."""
        if nbytes <= 0 or seconds <= 0:
            return  # nothing to learn from degenerate reports
        observed = nbytes / seconds
        key = self._key(a, b)
        current = self._learned.get(key)
        if current is None:
            self._learned[key] = observed
        else:
            self._learned[key] = (
                (1.0 - self.alpha) * current + self.alpha * observed
            )
        self.observations += 1

    def learned_bandwidth(self, a: str, b: str) -> Optional[float]:
        return self._learned.get(self._key(a, b))

    def link(self, a: str, b: str) -> LinkEstimate:
        base = self.prior.link(a, b)
        learned = self._learned.get(self._key(a, b))
        if learned is None:
            return base
        return LinkEstimate(latency=base.latency, bandwidth=learned)


def predict_batch(
    *,
    flops: float,
    input_bytes: "float | np.ndarray",
    output_bytes: float,
    latency: np.ndarray,
    bandwidth: np.ndarray,
    peak_mflops: np.ndarray,
    workload: np.ndarray,
    pending: np.ndarray,
    slots: np.ndarray,
    use_workload: bool = True,
) -> np.ndarray:
    """Predicted completion seconds for every candidate of one query.

    This is the agent's one prediction: every scheduling policy ranks
    from (or reports) these totals.  ``flops``/``input_bytes``/
    ``output_bytes`` are the per-query invariants (they depend only on
    the problem spec and the size bindings, so the caller evaluates them
    once); the array arguments carry one element per candidate.
    ``input_bytes`` may also be an array when the bytes each server must
    actually receive differ — the locality-aware path charges only for
    inputs not already resident on a candidate; the plain scalar
    broadcasts with bit-identical arithmetic.

    ``pending`` is the agent's pending-assignment count per candidate:
    requests steered there that no workload report reflects yet are
    modelled as FIFO queue wait, each full cohort of ``slots`` hints
    inflating the compute term by one service time.  ``slots`` (int per
    candidate) also divides the reported
    workload across a server's executor workers, following the
    module-level formula branch for branch via ``np.where`` rather than
    a ``minimum()`` (which could round differently at the capacity
    boundary).  ``use_workload=False`` is the A1 ablation: every server
    is treated as idle.

    Returns total predicted seconds as a float64 array.
    """
    input_bytes = np.asarray(input_bytes, dtype=np.float64)
    if flops < 0 or (input_bytes.size and input_bytes.min() < 0) \
            or output_bytes < 0:
        raise ConfigError("flops and byte counts must be >= 0")
    peak_mflops = np.asarray(peak_mflops, dtype=np.float64)
    workload = np.asarray(workload, dtype=np.float64)
    latency = np.asarray(latency, dtype=np.float64)
    bandwidth = np.asarray(bandwidth, dtype=np.float64)
    pending = np.asarray(pending)
    if peak_mflops.size and peak_mflops.min() <= 0:
        raise ConfigError("peak_mflops must be positive")
    if workload.size and workload.min() < 0:
        raise ConfigError("workload must be >= 0")
    if not use_workload:
        workload = np.zeros_like(workload)
    slots = np.asarray(slots, dtype=np.int64)
    if slots.size and slots.min() < 1:
        raise ConfigError("slots must be >= 1")
    mflops = peak_mflops * 100.0 / (100.0 + workload)
    if np.any(slots > 1):
        capacity = 100.0 * slots
        multi = np.where(
            capacity >= 100.0 + workload,
            peak_mflops,
            peak_mflops * capacity / (100.0 + workload),
        )
        mflops = np.where(slots > 1, multi, mflops)
    inflation = 1 + pending // slots
    send = latency + input_bytes / bandwidth
    compute = (flops / (mflops * 1e6)) * inflation
    recv = latency + output_bytes / bandwidth
    return send + compute + recv
