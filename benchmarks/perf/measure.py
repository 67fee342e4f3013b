"""One run of one workload: the untraced run and the traced run.

``end_to_end`` is the run of record: fresh set-up repetitions, the
software oracle, one untimed warm-up segment, then a fixed number of
calibrated segments.  ``per_layer`` is the separate traced run: it
interleaves plain, traced and replayed segments of the same ops so the
per-layer times, the tracing overhead and the replay's coverage all come
from the same minutes of host weather.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
from functools import partial
from typing import Any, Dict, List, Optional, Sequence

from repro import Tracer, use_tracer
from repro.obs import MetricsRegistry, use_registry
from repro.obs.report import build_tree

import direct
import served
from spec import DIRECT, LAYER_NAMES, PER_LAYER, SETUP_REPETITIONS, segments_for
from timing import (
    Sampler,
    Segment,
    calibrated,
    quartiles,
    run_segments,
    spread,
    summarize,
)


def _peak_rss_mb(name: str) -> float:
    """Runner's peak RSS (direct) or the largest waited-for child's."""
    who = resource.RUSAGE_SELF if name in DIRECT else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def _metric(value: float, unit: str, **diagnostics: Any) -> Dict[str, Any]:
    return {"value": value, "unit": unit, **diagnostics}


def _modeled(segments: Sequence[Segment]) -> List[float]:
    return [seg.extra["modeled_ms"] for seg in segments if "modeled_ms" in seg.extra]


# -- the untraced run ------------------------------------------------------------


def set_up(name: str, seed: Optional[int], repetitions: int, sampler: Sampler):
    """``repetitions`` fresh set-ups; keeps the last instance.

    Returns ``(instance, raw seconds, calibrated seconds)`` with one entry
    per repetition.  A direct workload is built on the main thread, between
    the sampler's slices, and timed by the sampler's clock; the server
    child starts beside it, timed by the wall clock between idle bursts.
    """
    raw_s: List[float] = []
    cal_s: List[float] = []
    instance = None
    for _ in range(repetitions):
        if instance is not None:
            instance.close()
            instance = None
            gc.collect()
        if name in DIRECT:
            instance, raw, cal_ms = sampler.timed(
                partial(direct.build, name, seed, sampler.clock)
            )
        else:
            instance, raw, cal_ms = sampler.bracketed(
                partial(served.build, name, seed)
            )
        raw_s.append(raw)
        cal_s.append(calibrated(raw, cal_ms))
    return instance, raw_s, cal_s


def measure(instance: Any, segments: int, sampler: Sampler) -> List[Segment]:
    """One untimed warm-up segment, then ``segments`` calibrated ones."""
    instance.segment(0)
    return run_segments(
        instance.segment, segments, sampler, first_index=1,
        beside=instance.workload.name not in DIRECT,
    )


def end_to_end_report(
    name: str,
    seed: Optional[int],
    seconds: float,
    instance: Any,
    setup_raw_s: Sequence[float],
    setup_cal_s: Sequence[float],
    segments: Sequence[Segment],
    peak_rss_mb: float,
) -> Dict[str, Any]:
    """Fold a finished untraced run into the workload report."""
    ops = summarize(segments)
    modeled = _modeled(segments)
    modeled_stable = len(set(modeled)) <= 1
    failed_frac = instance.failed / instance.attempted
    metrics = {
        "setup_s": _metric(
            statistics.median(setup_cal_s), "s",
            raw=statistics.median(setup_raw_s),
            repetitions=len(setup_cal_s),
            spread=spread(setup_cal_s),
        ),
        "op_p50_cms": _metric(
            ops.p50_cms, "cal_ms", raw=ops.raw_p50_ms, samples=ops.samples,
            spread=ops.spreads["op_p50_cms"],
        ),
        "throughput_ops_s": _metric(
            ops.throughput_ops_cs, "ops/cal_s", raw=ops.raw_throughput_ops_s,
            samples=ops.samples, spread=ops.spreads["throughput_ops_s"],
        ),
        "failed_frac": _metric(failed_frac, "fraction", spread=0.0),
        "peak_rss_mb": _metric(peak_rss_mb, "MiB", spread=0.0),
    }
    for key, value in (("op_p95_cms", ops.p95_cms), ("op_p99_cms", ops.p99_cms)):
        if value is not None:
            metrics[key] = _metric(
                value, "cal_ms", samples=ops.samples, spread=ops.spreads[key]
            )
    if modeled:
        metrics["modeled_ms_per_op"] = _metric(
            modeled[-1], "modeled_ms", spread=0.0
        )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": 0,
        "segments": len(segments),
        "attempted": instance.attempted,
        "failed": instance.failed,
        "correct": instance.failed == 0 and modeled_stable,
        "modeled_stable": modeled_stable,
        "metrics": metrics,
        "segment_quartiles": ops.segment_quartiles,
        "setup_quartiles": quartiles(list(setup_cal_s)),
        "calibration_ms": quartiles(ops.cal_ms),
    }


def end_to_end(
    name: str,
    seed: Optional[int],
    seconds: float,
    repetitions: int = SETUP_REPETITIONS,
) -> Dict[str, Any]:
    """The untraced run of one workload; returns its report."""
    with Sampler() as sampler:
        instance, setup_raw_s, setup_cal_s = set_up(
            name, seed, repetitions, sampler
        )
        try:
            instance.build_oracle()
            segments = measure(instance, segments_for(name, seconds), sampler)
        finally:
            instance.close()
    return end_to_end_report(
        name, seed, seconds, instance, setup_raw_s, setup_cal_s, segments,
        _peak_rss_mb(name),
    )


# -- the traced run --------------------------------------------------------------


def _span_seconds(spans: Sequence[Any], name: str) -> float:
    return sum(s.duration_s for s in spans if s.name == name)


def _mean_op_s(segments: Sequence[Segment]) -> float:
    """Mean calibrated seconds per op over ``segments``."""
    ops = sum(len(seg.op_s) for seg in segments)
    return sum(seg.wall_cs for seg in segments) / ops if ops else 0.0


def _direct_ledger(
    instance: direct.DirectInstance,
    rounds: int,
    tracer: Tracer,
    sampler: Sampler,
) -> Dict[str, float]:
    """Interleaved plain / traced / replayed (/ registry) segments."""
    n = instance.workload.ops_per_segment
    with_registry = instance.workload.name == "sel-water"
    plain: List[Segment] = []
    traced: List[Segment] = []
    registered: List[Segment] = []
    replay_cs: Dict[str, List[float]] = {s: [] for s in direct.REPLAY_STAGES}
    span_cs: Dict[str, List[float]] = {
        "geometry.hw_batch": [], "gpu.tile_batch": [],
    }
    replay_ok = True

    def traced_segment(index: int):
        return instance.segment(index, tracer)

    def replayed_segment(index: int):
        start = instance.clock()
        replay = instance.replay_segment(index, tracer)
        return [], instance.clock() - start, {"replay": replay}

    instance.segment(0)
    index = 1
    for _ in range(rounds):
        plain += run_segments(instance.segment, 1, sampler, first_index=index)
        mark = len(tracer.spans)
        with use_tracer(tracer):
            traced += run_segments(traced_segment, 1, sampler, first_index=index)
        for span_name, values in span_cs.items():
            seconds = _span_seconds(tracer.spans[mark:], span_name)
            values.append(traced[-1].inclusive_cs(seconds) / n)
        if with_registry:
            with use_registry(MetricsRegistry()):
                registered += run_segments(
                    instance.segment, 1, sampler, first_index=index
                )
        mark = len(tracer.spans)
        with use_tracer(tracer):
            (replayed,) = run_segments(
                replayed_segment, 1, sampler, first_index=index
            )
        replay = replayed.extra["replay"]
        for stage, values in replay_cs.items():
            seconds = _span_seconds(tracer.spans[mark:], f"bench.replay.{stage}")
            values.append(replayed.inclusive_cs(seconds) / n)
        expected = [instance.expected(k) for k in range(index * n, (index + 1) * n)]
        reference = plain[-1].extra
        if replay.stats != reference["stats"] or replay.results != expected:
            replay_ok = False
        index += 1
    if not replay_ok:
        instance.failed += 1

    last = plain[-1].extra
    stats, gpu = last["stats"], last["gpu"]
    candidates = last["candidates"]
    mean_plain = _mean_op_s(plain)
    mean_traced = _mean_op_s(traced)
    stage_ms = {
        stage: statistics.median(
            seg.inclusive_cs(seg.extra["stage_s"][stage] * 1e3) / n
            for seg in plain
        )
        for stage in ("mbr_filter", "intermediate_filter", "geometry")
    }
    layer_ms = {s: statistics.median(v) * 1e3 for s, v in replay_cs.items()}
    hw_batch_ms = statistics.median(span_cs["geometry.hw_batch"]) * 1e3
    tile_ms = statistics.median(span_cs["gpu.tile_batch"]) * 1e3
    maybe = stats.hw_tests - stats.hw_rejects
    is_join = isinstance(instance, direct.JoinInstance)
    values = {
        "modeled_ms_per_op": last["modeled_ms"],
        "index.rtree_search_ms":
            layer_ms["index"] if instance.workload.name == "sel-water" else 0.0,
        "index.mbr_join_ms":
            0.0 if instance.workload.name == "sel-water" else layer_ms["index"],
        "index.candidates": candidates / n,
        "filters.intervals_classify_ms": layer_ms["filters.intervals"],
        "filters.intervals_us_per_pair":
            layer_ms["filters.intervals"] * 1e3 * n / candidates
            if is_join and instance.use_intervals else 0.0,
        "filters.intervals_resolved_frac":
            replay.interval_settled / replay.candidates,
        "filters.object_bounds_ms": layer_ms["filters.object"],
        "filters.object_resolved_frac":
            replay.filter_positives / replay.candidates,
        "geometry.pip_ms": layer_ms["geometry.pip"],
        "geometry.pip_edges": stats.pip_edges / n,
        "geometry.pip_resolved_frac":
            stats.pip_hits / stats.pairs_tested if stats.pairs_tested else 0.0,
        "geometry.sweep_ms": layer_ms["geometry.sweep"],
        "geometry.sweep_calls": stats.sw_segment_tests / n,
        "geometry.mindist_ms": layer_ms["geometry.mindist"],
        "geometry.mindist_calls": stats.sw_distance_tests / n,
        "core.hw_batch_ms": hw_batch_ms,
        "core.hw_self_ms": hw_batch_ms - tile_ms,
        "core.hw_tests": stats.hw_tests / n,
        "core.hw_filter_rate": stats.hw_filter_rate,
        "core.hw_false_positive_rate":
            stats.hw_false_positives / maybe if maybe else 0.0,
        "core.width_fallbacks": stats.width_limit_fallbacks / n,
        "gpu.tile_batch_ms": tile_ms,
        "gpu.tile_batches": gpu.tile_batches / n,
        "gpu.tiles_packed": gpu.tiles_packed / n,
        "gpu.edges_rendered": gpu.edges_rendered / n,
        "gpu.pixels_scanned": gpu.pixels_scanned / n,
        "gpu.us_per_edge":
            tile_ms * 1e3 * n / gpu.edges_rendered if gpu.edges_rendered else 0.0,
        "query.mbr_filter_ms": stage_ms["mbr_filter"],
        "query.intermediate_filter_ms": stage_ms["intermediate_filter"],
        "query.geometry_ms": stage_ms["geometry"],
        "query.self_ms": mean_plain * 1e3 - sum(stage_ms.values()),
        "obs.tracer_us_per_op": (mean_traced - mean_plain) * 1e6,
        "obs.registry_us_per_op":
            (_mean_op_s(registered) - mean_plain) * 1e6 if registered else 0.0,
        "trace.overhead_frac": mean_traced / mean_plain - 1.0,
        "trace.coverage_frac": sum(layer_ms.values()) / (mean_plain * 1e3),
    }
    return values


def _served_ledger(
    instance: served.ServedInstance, rounds: int, tracer: Tracer, sampler: Sampler
) -> Dict[str, float]:
    """Client-side splits of the round trip plus in-process probes."""
    from repro.serve import QueryRequest, QueryResponse, QueryService, WorkloadConfig

    plain: List[Segment] = []
    traced: List[Segment] = []
    instance.segment(0)
    for index in range(1, rounds + 1):
        plain += run_segments(
            instance.segment, 1, sampler, first_index=index, beside=True
        )
        traced += run_segments(
            lambda i: instance.segment(i, tracer), 1, sampler,
            first_index=index, beside=True,
        )
    exec_ms: List[float] = []
    wait_ms: List[float] = []
    overhead_ms: List[float] = []
    statuses: Dict[str, int] = {}
    for seg in plain + traced:
        for status, count in seg.extra["statuses"].items():
            statuses[status] = statuses.get(status, 0) + count
        for rtt_s, exec_s, wait_s in seg.extra["splits"]:
            exec_ms.append(calibrated(exec_s * 1e3, seg.cal_ms))
            wait_ms.append(calibrated(wait_s * 1e3, seg.cal_ms))
            overhead_ms.append(
                calibrated((rtt_s - exec_s - wait_s) * 1e3, seg.cal_ms)
            )

    # In-process probes: the same presets, no socket.  They run on the main
    # thread, so the sampler's clock times them.
    clock = sampler.clock
    mark = sampler.mark()
    start = clock()
    service = QueryService(WorkloadConfig(scale=served.SCALE), workers=served.CLIENTS)
    build_s = clock() - start
    try:
        submit_us: List[float] = []
        codec_us: List[float] = []
        passes = instance.workload.ops_per_segment // instance.queries
        for _ in range(passes):
            for query_index in range(instance.queries):
                request = QueryRequest(op="selection", query_index=query_index)
                start = clock()
                response = service.submit(request)
                submit_us.append((clock() - start - response.exec_s) * 1e6)
                # One round trip's wire work, both directions, both ends.
                start = clock()
                line = json.dumps(served.selection_envelope(query_index))
                QueryRequest.from_dict(json.loads(line)["request"])
                reply = json.dumps(
                    {"kind": "response", "response": response.to_dict()}
                )
                QueryResponse.from_dict(json.loads(reply)["response"])
                codec_us.append((clock() - start) * 1e6)
    finally:
        service.close()
    cal_ms = sampler.cal_ms_since(mark)

    mean_plain = _mean_op_s(plain)
    codec = calibrated(statistics.median(codec_us), cal_ms)
    submit = calibrated(statistics.median(submit_us), cal_ms)
    # Means add up where medians do not: the share of the mean round trip
    # that the measured server-side and wire parts explain.
    explained_ms = (
        statistics.mean(exec_ms) + statistics.mean(wait_ms)
        + (codec + submit) / 1e3
    )
    values = dict.fromkeys(LAYER_NAMES, 0.0)
    values.update({
        "datasets.generate_s": calibrated(build_s, cal_ms),
        "serve.exec_p50_ms": statistics.median(exec_ms),
        "serve.wait_p50_ms": statistics.median(wait_ms),
        "serve.overhead_p50_ms": statistics.median(overhead_ms),
        "serve.submit_overhead_us": submit,
        "serve.wire_codec_us": codec,
        "serve.shed": float(statuses.get("shed", 0)),
        "serve.timeout": float(statuses.get("timeout", 0)),
        "serve.error": float(statuses.get("error", 0)),
        "trace.overhead_frac": _mean_op_s(traced) / mean_plain - 1.0,
        "trace.coverage_frac": explained_ms / statistics.mean(
            v for seg in plain + traced for v in seg.op_cms
        ),
    })
    return values


def per_layer(
    name: str,
    seed: Optional[int],
    seconds: float,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """The traced run of one workload; returns its report."""
    rounds = max(1, segments_for(name, seconds) // 4)
    tracer = Tracer()
    with Sampler() as sampler:
        instance, setup_raw_s, setup_cal_s = set_up(name, seed, 1, sampler)
        try:
            instance.build_oracle()
            if name in DIRECT:
                values = dict.fromkeys(LAYER_NAMES, 0.0)
                values.update(_direct_ledger(instance, rounds, tracer, sampler))
                scale = setup_cal_s[0] / setup_raw_s[0]
                for step, raw in instance.setup_steps.items():
                    values[f"{step}_s"] = raw * scale
            else:
                values = _served_ledger(instance, rounds, tracer, sampler)
        finally:
            instance.close()
    if trace_out is not None:
        tracer.export(trace_out)
    units = {layer.name: layer.unit for layer in PER_LAYER}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": 1,
        "rounds": rounds,
        "attempted": instance.attempted,
        "failed": instance.failed,
        "correct": instance.failed == 0,
        "spans": len(tracer.spans),
        "span_names": sorted(r.name for r in build_tree(tracer.spans).rollups),
        "metrics": {
            key: _metric(values[key], units[key]) for key in LAYER_NAMES
        },
    }
