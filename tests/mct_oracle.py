"""Scalar reference for the agent's completion-time prediction.

The agent predicts with one vectorized function,
:func:`repro.core.predictor.predict_batch`, and every scheduling policy
ranks from its totals.  This module restates the same model one
candidate at a time in plain Python floats — the formula as written in
``repro.core.predictor``'s docstring — so tests can pin the batch
predictor, the agent's query answers and the policies' reported
``predicted_seconds`` to it bit for bit.  It is a test oracle only:
nothing under ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.predictor import LinkEstimate
from repro.errors import ConfigError
from repro.problems.spec import ProblemSpec


@dataclass(frozen=True)
class Prediction:
    """Decomposed completion-time prediction (seconds)."""

    send_seconds: float
    compute_seconds: float
    recv_seconds: float

    @property
    def total(self) -> float:
        return self.send_seconds + self.compute_seconds + self.recv_seconds

    @property
    def network_seconds(self) -> float:
        return self.send_seconds + self.recv_seconds


def transfer_seconds(link: LinkEstimate, nbytes: float) -> float:
    return link.latency + nbytes / link.bandwidth


def effective_mflops(
    peak_mflops: float, workload: float, slots: int = 1
) -> float:
    """NetSolve's workload hypothesis for ``slots`` workers:
    ``P * min(1, 100 * slots / (100 + w))``; ``slots=1`` is the classic
    ``P * 100 / (100 + w)`` with the same operations in the same order."""
    if peak_mflops <= 0:
        raise ConfigError("peak_mflops must be positive")
    if workload < 0:
        raise ConfigError("workload must be >= 0")
    if slots < 1:
        raise ConfigError("slots must be >= 1")
    if slots == 1:
        return peak_mflops * 100.0 / (100.0 + workload)
    capacity = 100.0 * slots
    if capacity >= 100.0 + workload:
        return peak_mflops
    return peak_mflops * capacity / (100.0 + workload)


def predict(
    *,
    flops: float,
    input_bytes: float,
    output_bytes: float,
    link: LinkEstimate,
    peak_mflops: float,
    workload: float,
    slots: int = 1,
    use_workload: bool = True,
) -> Prediction:
    """The prediction for one idle-queue candidate from raw quantities;
    ``use_workload=False`` is the A1 ablation (every server idle)."""
    if flops < 0 or input_bytes < 0 or output_bytes < 0:
        raise ConfigError("flops and byte counts must be >= 0")
    mflops = effective_mflops(
        peak_mflops, workload if use_workload else 0.0, slots
    )
    return Prediction(
        send_seconds=transfer_seconds(link, input_bytes),
        compute_seconds=flops / (mflops * 1e6),
        recv_seconds=transfer_seconds(link, output_bytes),
    )


def predict_for(
    spec: ProblemSpec,
    env: Mapping[str, int],
    *,
    link: LinkEstimate,
    peak_mflops: float,
    workload: float,
    slots: int = 1,
    use_workload: bool = True,
) -> Prediction:
    """:func:`predict` for a problem spec at concrete sizes."""
    return predict(
        flops=spec.flops(env),
        input_bytes=spec.input_bytes(env),
        output_bytes=spec.output_bytes(env),
        link=link,
        peak_mflops=peak_mflops,
        workload=workload,
        slots=slots,
        use_workload=use_workload,
    )


def inflate_pending(base: Prediction, pending: int, slots: int) -> Prediction:
    """Pending hints as FIFO queue wait: every full cohort of ``slots``
    hints costs one more service time."""
    rounds = pending // slots
    if rounds == 0:
        return base
    return Prediction(
        send_seconds=base.send_seconds,
        compute_seconds=base.compute_seconds * (1 + rounds),
        recv_seconds=base.recv_seconds,
    )


def predict_entry(
    agent,
    entry,
    spec: ProblemSpec,
    env: Mapping[str, int],
    client_host: str,
    *,
    resident_bytes: float = 0.0,
) -> Prediction:
    """The prediction ``agent`` should make for one candidate ``entry``
    at the agent's current time, from the same state the agent reads:
    its network table, the entry's workload (busy penalty included),
    slots and live pending hints, and the bytes already resident there."""
    now = agent.node.now()
    base = predict(
        flops=spec.flops(env),
        input_bytes=max(0.0, spec.input_bytes(env) - resident_bytes),
        output_bytes=spec.output_bytes(env),
        link=agent.network.link(client_host, entry.host),
        peak_mflops=entry.mflops,
        workload=entry.current_workload(now),
        slots=entry.slots,
        use_workload=agent.use_workload,
    )
    if not agent.assignment_feedback:
        return base
    return inflate_pending(base, entry.live_pending(now), entry.slots)


def mct_order(entries, totals) -> list[int]:
    """Full MCT sort: ascending total, server id breaking ties."""
    return sorted(
        range(len(entries)), key=lambda i: (totals[i], entries[i].server_id)
    )
