"""Round loop, statistics and the result record of one workload run.

A run repeats whole rounds until the time budget would be overrun, and
never fewer than :data:`MIN_ROUNDS`.  Every round builds a fresh world
from the same seed (timed as set-up) and runs the workload's fixed-work
phase on it, with the process-wide signature caches emptied first, so
all rounds do identical work: their fingerprints must match exactly.
The output checks run on the first round's world, outside the timing.

With tracing on, each round runs the phase twice on identical worlds,
untraced and then traced; the difference in wall time is the tracing
overhead.
"""

from __future__ import annotations

import gc
import importlib
import resource
import statistics
import time
from typing import Any

from repro.crypto import ed25519

from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES
from perfbench.tracing import ROOT, Tracer

MIN_ROUNDS = 2
#: A percentile is reported only with at least ten samples beyond it.
MIN_P95_SAMPLES = 200


def _fresh() -> None:
    ed25519.verify_cache_clear()
    ed25519.point_cache_clear()
    gc.collect()


def _build(workload, seed: int, size: str) -> tuple[Any, float]:
    _fresh()
    start = time.perf_counter()
    world = workload.setup(seed, size)
    elapsed = time.perf_counter() - start
    gc.collect()
    return world, elapsed


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        spans_path: str | None = None) -> dict:
    workload = importlib.import_module(f"perfbench.{name}")
    begin = time.perf_counter()
    setups, phases, traced = [], [], []
    reference: dict | None = None
    failures: list[str] = []
    while True:
        round_start = time.perf_counter()
        world, setup_s = _build(workload, seed, size)
        phase = workload.phase(world)
        fingerprint = workload.fingerprint(world)
        if reference is None:
            reference = fingerprint
            failures += workload.check(world)
        elif fingerprint != reference:
            failures.append(f"round {len(phases)} fingerprint {fingerprint} != {reference}")
        del world
        setups.append(setup_s)
        phases.append(phase)
        if trace:
            traced.append(_traced_round(workload, seed, size, reference, failures))
            if spans_path:
                traced[-1][0].write(spans_path, len(traced) - 1)
        elapsed = time.perf_counter() - begin
        if len(phases) >= MIN_ROUNDS and elapsed + (time.perf_counter() - round_start) > seconds:
            break
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    latencies = [value for p in phases for value in p.latencies_s]
    ops, busy = sum(p.ops for p in phases), sum(p.busy_s for p in phases)
    figures = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": ops / busy if busy > 0 else 0.0,
        "latency_p50_ms": 1000.0 * statistics.median(latencies) if latencies else 0.0,
    }
    if len(latencies) >= MIN_P95_SAMPLES:
        figures["latency_p95_ms"] = 1000.0 * percentile(latencies, 95)
    values = {**figures, **reference}
    named = {label: {"value": values[key], "unit": unit}
             for key, (label, unit) in WORKLOAD_NAMES[name].items() if key in values}
    if trace:
        counts = exact_counts(traced[0][0])
        if any(exact_counts(tracer) != counts for tracer, _ in traced):
            failures.append("traced rounds of identical work gave different layer counts")
        reference = {**reference, **counts}
        metrics = _layer_metrics(traced, phases, reference)
        units = PER_LAYER
    else:
        metrics = {key: figures[key] for key in END_TO_END}
        units = END_TO_END
    return {
        "workload": name, "seed": seed, "size": size, "rounds": len(phases),
        "samples": len(latencies), "fingerprint": reference, "named": named,
        "failures": failures,
        "result": {
            "correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        },
    }


def _traced_round(workload, seed: int, size: str, reference: dict,
                  failures: list[str]) -> tuple[Tracer, float]:
    world, _ = _build(workload, seed, size)
    tracer = Tracer()
    tracer.install()
    try:
        _, wall = tracer.root(lambda: workload.phase(world, tracer))
    finally:
        tracer.uninstall()
    fingerprint = workload.fingerprint(world)
    if fingerprint != reference:
        failures.append(f"traced fingerprint {fingerprint} != untraced {reference}")
    return tracer, wall


def _layer_metrics(traced: list[tuple[Tracer, float]], phases: list, reference: dict) -> dict:
    first = traced[0][0]
    n = len(traced)
    metrics: dict[str, float] = {}
    for key in PER_LAYER:
        span, _, stat = key.rpartition(".")
        if stat == "calls":
            metrics[key] = first.calls[span]
        elif stat == "self_s":
            metrics[key] = sum(t.self_s[span] for t, _ in traced) / n
        elif key in first.counts:
            metrics[key] = first.counts[key]
        else:
            metrics[key] = reference.get(key, 0)
    wall = sum(w for _, w in traced) / n
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = sum(t.self_s[ROOT] for t, _ in traced) / n
    metrics["trace.overhead_s"] = wall - sum(p.wall_s for p in phases) / len(phases)
    return metrics


def exact_counts(tracer: Tracer) -> dict[str, int]:
    """The tracer's work counts, which must repeat exactly for a seed."""
    return {**{f"{k}.calls": v for k, v in tracer.calls.items()}, **dict(tracer.counts)}
