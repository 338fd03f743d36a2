"""The repository benchmark: one workload, one seed, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload read-dom --seed 1 --seconds 38 --trace 0

Workloads: ``read-dom``, ``read-stream``, ``read-write`` (see
``BENCHMARK.json`` for why each exists). The program is imported
from ``src/`` beside this directory; without it the run fails.

``--trace 0`` measures the end-to-end metrics with no wrappers
installed. Each workload passes over a fixed cycle of requests again
and again, so every request in it is timed several times. On a shared
host the speed of one core drifts by tens of percent over seconds, so
the metrics take the fastest of those repeats: ``ops_per_s`` is the
rate one client reaches when every request of the cycle takes its
fastest latency of the run (the cycle's length over the sum of those
latencies), and ``serve_p50_ms`` is the median, across the cycle's
serve requests, of each one's fastest latency. ``setup_s`` is the
median of several set-ups and ``peak_rss_mib`` the process's peak
resident set. The report also prints the fastest whole pass, and the
p50 and p95 of every request kind, over every sample and over the
fastest latencies. The p95 is not in the result: on read-dom it rests
on the two or three heaviest requests of the cycle, and did not repeat
within a quarter from run to run.

``--trace 1`` first runs untraced for half the time (for
the tracing overhead), then wraps each layer's public entry points
(:mod:`perfbench.layers`) for the other half and reports per-layer self
time and counts per operation, beside the program's own spans. Both
modes check every answer after the timed phase.

The report goes to standard output; its last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
#: The program's own spans, each with the outside-measured layers that
#: should account for it.
SPAN_COUNTERPARTS = {
    "authz.bind": ("authz.applicable",),
    "label": ("core.label",),
    "prune": ("core.prune",),
    "serialize": ("xml.serialize",),
    "stream.pipeline": ("stream.reader", "stream.labeler"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - started)
        say(f"workload {workload.name}, seed {args.seed}, closed loop, 1 client")
        say(f"setup_s runs: {' '.join(f'{s:.3f}' for s in setup_s)}")
        if args.trace:
            result = traced_run(workload, args.seconds)
        else:
            result = untraced_run(workload, args.seconds, statistics.median(setup_s))
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


def say(line: str) -> None:
    print(line, flush=True)


def percentile(samples: list[float], share: float) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def measure(workload, seconds: float, spans: bool = False):
    """One timed phase; returns (recorder, elapsed, counter deltas)."""
    from perfbench.workloads import Recorder

    # Long-lived objects (the corpus, the server) leave the collector's
    # view, as in a server that freezes after start-up: otherwise each
    # full collection walks every stored node, and where those land
    # decides a request's latency more than the request does.
    gc.collect()
    gc.freeze()
    recorder = Recorder(spans=spans)
    before = workload.counters()
    started = time.perf_counter()
    workload.run(seconds, recorder)
    elapsed = time.perf_counter() - started
    after = workload.counters()
    delta = {key: after[key] - before.get(key, 0) for key in after}
    return recorder, elapsed, delta


def fastest(recorder, kind: str) -> list[float]:
    """Each cycle position's fastest latency, for requests of *kind*."""
    return sorted(seconds for got, seconds in recorder.best.values() if got == kind)


def report_latency(recorder) -> None:
    passes = recorder.passes
    if passes:
        best = sum(seconds for _, seconds in recorder.best.values())
        say(
            f"  {len(passes)} whole passes, fastest {min(passes):.3f} s,"
            f" median {statistics.median(passes):.3f} s;"
            f" sum of fastest latencies {best:.3f} s"
        )
    for kind in sorted(recorder.samples):
        samples = recorder.samples[kind]
        best = fastest(recorder, kind)
        say(
            f"  {kind:8s} n={len(samples):5d}  p50={percentile(samples, .5) * 1e3:9.3f} ms"
            f"  p95={percentile(samples, .95) * 1e3:9.3f} ms;"
            f" fastest of each of {len(best)} positions:"
            f" p50={percentile(best, .5) * 1e3:9.3f} ms"
            f"  p95={percentile(best, .95) * 1e3:9.3f} ms"
        )


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def shares(workload, delta: dict) -> dict[str, float]:
    """The measured share of each property an optimisation may rely on."""
    updates = delta.get("updates", 0)
    return {
        "cache.hit_ratio": ratio(delta.get("cache_hits", 0), delta.get("cache_lookups", 0)),
        "cache.kept_ratio": ratio(
            delta.get("cache_kept", 0),
            delta.get("cache_kept", 0) + delta.get("cache_dropped", 0),
        ),
        "rewrite.fallback_ratio": ratio(
            delta.get("rewrite_fallbacks", 0), delta.get("vqueries", 0)
        ),
        "stream.fallback_ratio": ratio(
            delta.get("stream_fallbacks", 0), delta.get("streams", 0)
        ),
        "stream.compilable_ratio": workload.stream_compilable_share(workload.server),
        "update.incremental_ratio": ratio(delta.get("incremental", 0), updates),
        "update.relabel_nodes": ratio(delta.get("relabel_nodes", 0), updates),
    }


def report_shares(values: dict[str, float]) -> None:
    say("measured shares: " + ", ".join(f"{k}={v:.3f}" for k, v in values.items()))


def checked(workload, failed: int, attempted: int) -> int:
    """Run the workload's answer check; returns failed + wrong answers."""
    wrong = workload.check()
    say(
        f"correctness: {wrong} wrong answer(s), {failed} failed request(s)"
        f" of {attempted}"
    )
    return failed + wrong


def untraced_run(workload, seconds: float, setup_s: float) -> dict:
    recorder, elapsed, delta = measure(workload, seconds)
    say(f"timed phase: {recorder.attempted} requests in {elapsed:.3f} s")
    report_latency(recorder)
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = checked(workload, recorder.failed, recorder.attempted)
    values = shares(workload, delta)
    report_shares(values)
    serve = fastest(recorder, "serve")
    rate = len(recorder.best) / sum(seconds for _, seconds in recorder.best.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (rate, "1/s"),
        "serve_p50_ms": (percentile(serve, 0.5) * 1e3, "ms"),
        "peak_rss_mib": (own_rss / 1024, "MiB"),
    }
    return result(failed, recorder.attempted, metrics)


def traced_run(workload, seconds: float) -> dict:
    from perfbench.layers import LayerTracer

    plain, plain_elapsed, _ = measure(workload, seconds / 2)
    tracer = LayerTracer()
    tracer.install()
    try:
        recorder, elapsed, delta = measure(workload, seconds / 2, spans=True)
    finally:
        tracer.uninstall()
    plain_rate = plain.attempted / plain_elapsed
    traced_rate = recorder.attempted / elapsed
    say(
        f"untraced phase: {plain.attempted} requests, {plain_rate:.2f}/s;"
        f" traced phase: {recorder.attempted} requests, {traced_rate:.2f}/s"
    )
    report_latency(recorder)
    ops = max(recorder.attempted, 1)
    metrics: dict[str, tuple[float, str]] = {}
    for layer, totals in sorted(tracer.totals.items()):
        metrics[f"{layer}.ms"] = (totals.self_s * 1e3 / ops, "ms/op")
        metrics[f"{layer}.calls"] = (totals.calls / ops, "calls/op")
    metrics["core.nodes_labeled"] = (tracer.nodes_labeled / ops, "nodes/op")
    metrics["stream.events"] = (tracer.stream.events / ops, "events/op")
    metrics["stream.peak_buffer_depth"] = (
        float(tracer.stream.peak_buffer_depth), "count"
    )
    spans = recorder.spans
    for stage in SPAN_COUNTERPARTS:
        metrics[f"span.{stage}.ms"] = (spans.get(stage, 0.0) * 1e3 / ops, "ms/op")
    metrics["trace.overhead_ratio"] = (ratio(plain_rate, traced_rate), "ratio")

    say("layer self time per operation (outside wrappers):")
    for layer, totals in sorted(tracer.totals.items()):
        if totals.calls:
            say(
                f"  {layer:26s} self={totals.self_s * 1e3 / ops:9.3f} ms"
                f"  incl={totals.inclusive_s * 1e3 / ops:9.3f} ms"
                f"  calls={totals.calls / ops:8.2f}"
            )
    say("program span vs outside-measured inclusive time, ms per operation:")
    for stage, layers in SPAN_COUNTERPARTS.items():
        outside = sum(tracer.totals[layer].inclusive_s for layer in layers)
        say(
            f"  {stage:16s} span={spans.get(stage, 0.0) * 1e3 / ops:9.3f}"
            f"  {'+'.join(layers)}={outside * 1e3 / ops:9.3f}"
        )

    missing = [
        layer for layer in workload.expected_layers if not tracer.totals[layer].calls
    ] + [stage for stage in workload.expected_spans if not spans.get(stage)]
    if missing:
        say(f"coverage: no calls recorded for {', '.join(missing)}")
    attempted = plain.attempted + recorder.attempted
    failed = checked(workload, plain.failed + recorder.failed, attempted)
    values = shares(workload, delta)
    report_shares(values)
    for name, value in values.items():
        unit = "nodes/update" if name == "update.relabel_nodes" else "ratio"
        metrics[name] = (value, unit)
    return result(failed + len(missing), attempted, metrics)


def result(failed: int, attempted: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
