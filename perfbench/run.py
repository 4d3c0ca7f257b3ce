"""Repository benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload sim-farm --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``
of the same checkout; nothing is installed.  With ``--trace 0`` the
run reports the end-to-end metrics with tracing off.  With
``--trace 1`` it measures half the time untraced, then rebuilds the
deployment with spans and the program's ``Observability`` counters on
and reports the per-layer metrics (see README.md).  Progress lines and
a machine record come first; the last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from common import (  # noqa: E402
    GcWatch,
    log,
    machine_record,
    percentile,
    slowness,
)

#: end-to-end metric -> unit, in print order
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "turnaround_p50_ms": "ms",
    "turnaround_p99_ms": "ms",
    "cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
}


WORKLOADS = ("sim-farm", "sim-chain")


def timed_setups(wl, seed: int):
    """Median time of the workload's repeated builds, each from
    construction until every server has registered, in reference-host
    seconds (each scaled by the slowness probed just before and after
    it); returns it and the last world."""
    raw, scaled = [], []
    world = None
    for _ in range(wl.setup_repeats):
        world = None
        gc.collect()
        before = slowness()
        t0 = time.perf_counter()
        world = wl.build(seed)
        seconds = time.perf_counter() - t0
        factor = (before + slowness()) / 2
        raw.append(seconds)
        scaled.append(seconds / factor)
    log("setup_s raw:", " ".join(f"{t:.4f}" for t in raw),
        "scaled:", " ".join(f"{t:.4f}" for t in scaled))
    return statistics.median(scaled), world


def report(wl, label: str, result) -> None:
    log(f"{wl.name}: {label} attempted={result.attempted} "
        f"failed={result.failed} checks={json.dumps(result.checks)}")


def run_end_to_end(wl, seed: int, seconds: float) -> dict:
    setup_s, world = timed_setups(wl, seed)
    result = wl.measure(world, seed, seconds, True)
    windows = result.windows
    report(wl, "measured", result)
    log(f"{wl.name}: window rates raw",
        " ".join(f"{r:.1f}" for r in windows.raw_rates()))
    log(f"{wl.name}: window slowness",
        " ".join(f"{f:.3f}" for f in windows.factors))
    # the sample is empty only in a stalled run, which is not correct
    turnaround = result.turnaround or [0.0]
    log(f"{wl.name}: turnaround sample {len(result.turnaround)}")
    values = {
        "setup_s": setup_s,
        "throughput_rps": windows.throughput(),
        "turnaround_p50_ms": percentile(turnaround, 50),
        "turnaround_p99_ms": percentile(turnaround, 99),
        "cpu_ms_per_req": windows.cpu_ms_per_op(),
        "peak_rss_mb": result.rss_mb,
    }
    return {
        "correct": result.correct(),
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in END_TO_END.items()},
    }


def run_traced(wl, seed: int, seconds: float) -> dict:
    from layers import PER_LAYER, layer_metrics, read_counters
    from repro.trace.instruments import Observability
    from tracing import Tracer, instrument_modules

    half = seconds / 2.0
    plain = wl.measure(wl.build(seed), seed, half, False)
    report(wl, "untraced", plain)

    tracer = Tracer()
    instrument_modules(tracer)
    try:
        obs = Observability()
        world = wl.build(seed, obs)
        registry_ms = tracer.mean_us("problems.registry_build") / 1e3
        tracer.reset()
        wl.instrument(tracer, world)
        before = read_counters(obs.metrics)
        extras_before = wl.snapshot(world)
        t0 = time.perf_counter()
        with GcWatch() as gcw:
            traced = wl.measure(world, seed, half, False)
        wall = time.perf_counter() - t0
        after = read_counters(obs.metrics)
        extras = wl.layer_extras(world, traced, extras_before)
    finally:
        tracer.restore()
    report(wl, "traced", traced)
    extras.update({
        "problems.registry_build_ms": registry_ms,
        "gc.pause_ms_per_s": 1e3 * gcw.pause_s / wall,
        "gc.gen2_collections": gcw.gen2,
        "trace.overhead_pct": 100.0 * (
            1.0 - traced.windows.throughput() / plain.windows.throughput()
        ),
    })
    values = layer_metrics(
        tracer, before, after, requests=traced.requests, extras=extras
    )
    return {
        "correct": plain.correct() and traced.correct(),
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in PER_LAYER.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    log("machine:", json.dumps(machine_record()))
    try:
        # the workload modules import the program under test from src/
        import repro
        from sim import SimChain, SimFarm
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != src:
        print(f"imported {repro.__file__}, not the checkout's {src}",
              file=sys.stderr)
        return 2
    wl = {w.name: w for w in (SimFarm, SimChain)}[args.workload]()
    log(f"workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    try:
        if args.trace:
            result = run_traced(wl, args.seed, args.seconds)
        else:
            result = run_end_to_end(wl, args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    log(f"{wl.name}: attempted={result['attempted']} "
        f"failed={result['failed']} correct={result['correct']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
