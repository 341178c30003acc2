"""Per-layer metrics of one traced repeat.

Turns the spans and counts of :mod:`tracing` into the per-layer numbers
``BENCHMARK.json`` lists.  Names ending in ``_s`` are seconds busy (the
summed duration of the layer's spans); ``self_s`` names are self time (a
span's duration minus its child spans).  A layer that does no work on a
workload reports 0 there — that *is* the prediction for it (``shard.*``
outside ``cold_converge_sharded``, ``churn.*`` outside ``storm_recover``,
``routing.*``/``service.*``/``host.*``/``http.*`` outside ``serve_zipf``).
"""

from __future__ import annotations

import numpy as np

from repro.sim.fast.batched import KERNEL_NAMES

from tracing import Tracer
from workloads import ENGINE_THREAD, STORMS, Repeat

__all__ = ["layer_metrics", "percentile"]

KERNELS = (*KERNEL_NAMES, "regular_action")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(samples: object, q: float) -> float:
    """Percentile *q* of *samples*; 0 when there are none."""
    values = np.asarray(samples if samples is not None else (), dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def layer_metrics(
    tracer: Tracer, traced: Repeat, untraced: Repeat
) -> dict[str, float]:
    """Every per-layer metric, from the traced repeat's timed phase."""
    table = tracer.aggregate(*traced.window)
    main = tracer.aggregate(*traced.window, thread="MainThread")
    engine = tracer.aggregate(*traced.window, thread=ENGINE_THREAD)
    counts = traced.counts
    wall = traced.wall_s
    m: dict[str, float] = {}

    flush_parts = (
        "buffers.prepare_inbox",
        "buffers.draw_delivery_keys",
        "buffers.finalize_inbox",
    )
    m["buffers.flush_s"] = table.own("buffers.build_inbox") + table.busy(*flush_parts)
    for part in flush_parts:
        m[f"{part}_s"] = table.busy(part)
    m["buffers.flush_calls"] = table.count("buffers.prepare_inbox")
    m["buffers.staged_rows"] = counts.get("staged_rows", 0)
    m["buffers.inbox_rows"] = counts.get("inbox_rows", 0)
    m["buffers.dedup_ratio"] = _ratio(m["buffers.inbox_rows"], m["buffers.staged_rows"])
    m["buffers.dropped_rows"] = counts.get("dropped_rows", 0)
    m["buffers.waves_mean"] = _ratio(counts.get("waves", 0), counts.get("inboxes", 0))
    m["buffers.waves_max"] = counts.get("waves_max", 0)

    for kernel in KERNELS:
        m[f"kernels.{kernel}_s"] = table.busy(f"kernels.{kernel}")
        m[f"kernels.{kernel}_rows"] = counts.get(f"{kernel}_rows", 0)
    m["kernels.dispatches"] = table.count(*(f"kernels.{k}" for k in KERNELS))

    m["batched.execute_round_s"] = table.busy("batched.execute_round")
    m["batched.self_s"] = table.own("batched.execute_round", "sim.step_round")
    m["batched.rounds"] = table.count("batched.execute_round")
    m["batched.join_batch_s"] = table.busy("batched.join_batch")
    m["batched.leave_batch_s"] = table.busy("batched.leave_batch")
    m["batched.joined"] = counts.get("joined", 0)
    m["batched.left"] = counts.get("left", 0)

    m["soa.lookup_s"] = table.busy("soa.lookup")
    m["soa.lookup_calls"] = table.count("soa.lookup")
    m["soa.sorted_live_s"] = table.busy("soa.sorted_live")
    m["soa.compact_s"] = table.busy("soa.compact")
    m["soa.compact_calls"] = table.count("soa.compact")

    m["predicates.check_s"] = table.busy("predicates.check")
    m["predicates.check_calls"] = table.count("predicates.check")

    m["metrics.messages"] = traced.messages
    m["metrics.probe_share"] = _ratio(traced.probe_messages, traced.messages)

    m["shard.execute_round_s"] = table.busy("shard.execute_round")
    m["shard.coordinator_self_s"] = table.own("shard.execute_round")
    for phase in (
        "route_take",
        "prepare_round",
        "start_round",
        "reslrl_count",
        "reslrl_apply",
        "finish_round",
    ):
        m[f"shard.{phase}_s"] = table.busy(f"shard.{phase}")
    m["shard.reslrl_pauses"] = counts.get("reslrl_pauses", 0)
    m["shard.boundary_rows"] = counts.get("boundary_rows", 0)
    m["shard.boundary_share"] = _ratio(
        counts.get("boundary_rows", 0), counts.get("routed_rows", 0)
    )

    for storm in STORMS:
        m[f"churn.{storm}_s"] = traced.values.get(f"{storm}_s", 0.0)
        m[f"churn.{storm}_rounds"] = traced.values.get(f"{storm}_rounds", 0)
    m["churn.apply_s"] = table.busy("churn.apply")
    m["churn.events"] = traced.values.get("events", 0)
    m["churn.extra_messages_per_event"] = traced.values.get(
        "extra_messages_per_event", 0.0
    )

    m["routing.publish_s"] = table.busy("routing.publish")
    m["routing.publish_calls"] = table.count("routing.publish")
    m["routing.publish_mean_ms"] = 1e3 * _ratio(
        m["routing.publish_s"], m["routing.publish_calls"]
    )
    m["routing.route_batch_s"] = table.busy("routing.route_batch")
    m["routing.route_batch_calls"] = table.count("routing.route_batch")
    m["routing.resolve_s"] = table.busy("routing.resolve")
    m["routing.hops_total"] = counts.get("hops", 0)
    m["routing.ns_per_hop"] = 1e9 * _ratio(
        m["routing.route_batch_s"], m["routing.hops_total"]
    )

    m["service.lookup_batch_s"] = table.busy("service.lookup_batch")
    m["service.self_s"] = table.own("service.lookup_batch")
    m["service.lookups"] = counts.get("lookups", 0)
    m["service.lost"] = counts.get("lookups_lost", 0)
    m["service.unknown"] = counts.get("lookups_unknown", 0)
    m["service.storm_lookups_per_s"] = traced.values.get("storm_lookups_per_s", 0.0)
    m["service.storm_lost_share"] = traced.values.get("storm_lost_share", 0.0)

    m["host.step_round_s"] = engine.busy("sim.step_round")
    m["host.rounds"] = engine.count("sim.step_round")
    m["host.round_mean_ms"] = 1e3 * _ratio(m["host.step_round_s"], m["host.rounds"])
    # What the engine thread's loop spends outside the round, the publish
    # and the convergence probe — mostly waiting for the interpreter lock.
    m["host.loop_other_s"] = (
        max(0.0, wall - engine.covered_s) if engine.spans else 0.0
    )

    http_us = traced.samples.get("http_us")
    m["http.requests"] = len(http_us) if http_us is not None else 0
    m["http.errors"] = traced.values.get("http_errors", 0)
    m["http.request_p99_us"] = percentile(http_us, 99)
    m["http.overhead_p50_us"] = percentile(http_us, 50) - percentile(
        traced.samples.get("single_us"), 50
    )

    m["load.generate_s"] = traced.values.get("generate_s", 0.0)
    m["load.generator_share"] = _ratio(
        m["load.generate_s"], traced.values.get("batch_phase_s", 0.0)
    )

    m["trace.attributed_share"] = _ratio(main.covered_s, wall)
    m["trace.overhead_ratio"] = _overhead(traced, untraced)
    m["trace.spans"] = tracer.span_count
    return m


def _overhead(traced: Repeat, untraced: Repeat) -> float:
    """Traced cost over untraced cost of the same fixed work."""
    if "zipf_lps" in traced.samples:
        # 1/lookups_per_s: the client side is what the wrappers sit on.
        return _ratio(
            float(np.median(untraced.samples["zipf_lps"])),
            float(np.median(traced.samples["zipf_lps"])),
        )
    return _ratio(traced.wall_s, untraced.wall_s)
