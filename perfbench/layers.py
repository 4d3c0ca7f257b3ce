"""Per-layer metrics of a traced phase.

Every name here is printed on every workload (a layer a workload does
not touch reads 0, as documented in the README).  The values join the
benchmark's own spans (:mod:`tracing`) with the program's existing
:class:`~repro.trace.instruments.Observability` counters.
"""

from __future__ import annotations

import statistics

from common import percentile

#: name -> unit, in print order
PER_LAYER = {
    "client.submit_us": "us",
    "client.handle_us": "us",
    "client.queries_per_req": "count",
    "client.attempts_per_req": "count",
    "agent.handle_us": "us",
    "agent.query_us": "us",
    "agent.reports_per_req": "count",
    "agent.learned_bw_ratio": "ratio",
    "agent.prediction_error_pct": "%",
    "codec.encode_us": "us",
    "codec.decode_us": "us",
    "codec.encode_mb_s": "MB/s",
    "codec.decode_mb_s": "MB/s",
    "codec.msgs_per_req": "count",
    "codec.bytes_per_req": "bytes",
    "transport.send_us": "us",
    "transport.timers_per_req": "count",
    "server.handle_us": "us",
    "server.queue_wait_p50_ms": "ms",
    "server.queue_wait_p99_ms": "ms",
    "server.peak_queue": "count",
    "server.busy_frac": "ratio",
    "server.compute_ms": "ms",
    "problems.validate_us": "us",
    "problems.validations_per_req": "count",
    "problems.registry_build_ms": "ms",
    "numerics.dgesv_ms": "ms",
    "numerics.mflops": "Mflop/s",
    "store.handle_resolves_per_req": "count",
    "store.resident_mb": "MB",
    "simnet.events_per_req": "count",
    "simnet.event_us": "us",
    "simnet.reclaimed_entries": "count",
    "gc.pause_ms_per_s": "ms/s",
    "gc.gen2_collections": "count",
    "trace.overhead_pct": "%",
}

#: program counters read at the start and end of the traced phase
COUNTERS = (
    "client.queries",
    "client.attempts",
    "agent.workload_reports",
    "wire.messages",
    "wire.bytes",
)


def read_counters(metrics) -> dict:
    out = {}
    for name in COUNTERS:
        inst = metrics.get(name)
        out[name] = inst.value if inst is not None else 0
    hist = metrics.get("server.compute_seconds")
    out["compute.count"] = hist.count if hist is not None else 0
    out["compute.total"] = hist.total if hist is not None else 0.0
    return out


def prediction_error_pct(records) -> float:
    """Median |predicted - elapsed| / elapsed of successful attempts."""
    errors = []
    for rec in records:
        attempt = rec.successful_attempt
        if attempt is not None and attempt.elapsed:
            errors.append(
                abs(attempt.predicted_seconds - attempt.elapsed)
                / attempt.elapsed
            )
    return 100.0 * statistics.median(errors) if errors else 0.0


def layer_metrics(
    tracer, before: dict, after: dict, *, requests: int, extras: dict
) -> dict:
    """Every :data:`PER_LAYER` value; ``extras`` carries the readings
    only the workload can make (simulator, learned table)."""
    r = max(1, requests)
    d = {k: after[k] - before[k] for k in before}
    waits = tracer.samples.get("server.queue_wait_seconds", [])
    compute_n = d["compute.count"]
    values = {
        "client.submit_us": tracer.mean_us("client.submit"),
        "client.handle_us": tracer.mean_us("client.on_message", self_time=True),
        "client.queries_per_req": d["client.queries"] / r,
        "client.attempts_per_req": d["client.attempts"] / r,
        "agent.handle_us": tracer.mean_us("agent.on_message", self_time=True),
        "agent.query_us": tracer.mean_us("agent.query"),
        "agent.reports_per_req": d["agent.workload_reports"] / r,
        "codec.encode_us": tracer.mean_us("codec.encode"),
        "codec.decode_us": tracer.mean_us("codec.decode"),
        "codec.encode_mb_s": tracer.rate("codec.encode") / 1e6,
        "codec.decode_mb_s": tracer.rate("codec.decode") / 1e6,
        "codec.msgs_per_req": d["wire.messages"] / r,
        "codec.bytes_per_req": d["wire.bytes"] / r,
        "transport.send_us": tracer.mean_us("transport.send", self_time=True),
        "transport.timers_per_req": tracer.calls("transport.call_after") / r,
        "server.handle_us": tracer.mean_us("server.on_message", self_time=True),
        "server.queue_wait_p50_ms": 1e3 * percentile(waits, 50) if waits else 0.0,
        "server.queue_wait_p99_ms": 1e3 * percentile(waits, 99) if waits else 0.0,
        "server.compute_ms": (
            1e3 * d["compute.total"] / compute_n if compute_n else 0.0
        ),
        "problems.validate_us": tracer.mean_us("problems.validate"),
        "problems.validations_per_req": tracer.calls("problems.validate") / r,
        "numerics.dgesv_ms": tracer.mean_us("numerics.dgesv") / 1e3,
        "numerics.mflops": tracer.rate("numerics.dgesv") / 1e6,
        "store.handle_resolves_per_req": tracer.counts["store.resolve"] / r,
        "simnet.event_us": tracer.mean_us("simnet.step", self_time=True),
    }
    busy_capacity = extras.pop("server_capacity_s", 0.0)
    values["server.busy_frac"] = (
        d["compute.total"] / busy_capacity if busy_capacity else 0.0
    )
    values["simnet.events_per_req"] = extras.pop("simnet.events_per_req") / r
    values.update(extras)
    missing = set(PER_LAYER) - set(values)
    extra = set(values) - set(PER_LAYER)
    if missing or extra:
        raise RuntimeError(
            f"per-layer metrics out of sync: missing {sorted(missing)}, "
            f"unknown {sorted(extra)}"
        )
    return {name: values[name] for name in PER_LAYER}
