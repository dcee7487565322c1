"""Per-layer ledger: call-site wrappers, span self time and layer metrics.

The traced run wraps each layer's public functions where they are called
(module attributes and class methods are swapped for timed versions) and
turns on the program's own ``repro.obs`` spans and counters.  Spans stay in
memory; :func:`aggregate` turns them into self time per layer, and
:func:`write_report` writes the span file and the ledger text.

Self time of a span is its duration minus the part of its interval covered
by its child spans (overlapping children counted once).  Spans that belong
to no layer (the benchmark's ``request`` root, the program's
``scenario.run``/``scenario.shard`` glue) sum into the unattributed
remainder of their request.

The wrappers check ``obs.enabled()`` on every call, so a fleet worker can
carry them from its start and still run untraced tasks at full speed.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from collections import defaultdict
from pathlib import Path

from repro import obs
from repro.broadcast import authenticated
from repro import experiments
from repro.crypto import signatures
from repro.experiments import e06_startup, e07_join, e11_ablation
from repro.faults import behaviors
from repro.runner import cache as cache_mod
from repro.runner import core as runner_core
from repro.runner import sharded
from repro.runner.exec import remote
from repro.sim import engine, recorder
from repro.workloads import scenarios

#: Span name -> ledger layer.  Names absent here are unattributed.
LAYER_OF_SPAN = {
    "experiments": "experiments",
    "runner": "runner",
    "runner.sweep": "runner",
    "runner.fold": "runner.fold",
    "runner.cache.key": "runner.cache.key",
    "runner.cache.get": "runner.cache.get",
    "runner.cache.put": "runner.cache.put",
    "exec.task": "runner.exec",
    "exec.attempt": "runner.exec",
    "worker.task": "runner.exec",
    "workloads.build": "workloads.build",
    "sim.engine.run": "sim.engine.run",
    "sim.vectorized.lanes": "sim.vectorized.lanes",
    "kernel.phase1": "sim.vectorized.lockstep",
    "kernel.phase2": "sim.vectorized.lockstep",
    "kernel.replay": "sim.vectorized.replay",
    "sim.recorder.finalize": "sim.recorder.finalize",
    "sim.recorder.merge": "sim.recorder.merge",
    "analysis.verify": "analysis.verify",
    "analysis.trace": "analysis.trace",
}

#: The post-hoc trace analyses E6 and E11 call through their ``metrics``
#: module alias.
_TRACE_ANALYSES = ("steady_state_start", "skew_after_round", "max_backward_adjustment")


def _timed(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not obs.enabled():
            return fn(*args, **kwargs)
        with obs.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _counted(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        obs.inc(name)
        return fn(*args, **kwargs)

    return wrapper


def _engine_run(fn):
    @functools.wraps(fn)
    def wrapper(sim, *args, **kwargs):
        if not obs.enabled():
            return fn(sim, *args, **kwargs)
        before = signatures.digest_cache_info()
        with obs.span("sim.engine.run"):
            out = fn(sim, *args, **kwargs)
        after = signatures.digest_cache_info()
        obs.inc("bench.engine.msgs", sim.network.stats.total_messages)
        obs.inc("bench.digest.hits", after.hits - before.hits)
        obs.inc("bench.digest.misses", after.misses - before.misses)
        return out

    return wrapper


class _CountingStream:
    """Read-through proxy that counts the bytes a frame read consumes."""

    __slots__ = ("_stream",)

    def __init__(self, stream) -> None:
        self._stream = stream

    def read(self, count):
        data = self._stream.read(count)
        obs.inc("bench.wire.bytes_in", len(data))
        return data


def _read_frame(fn):
    @functools.wraps(fn)
    def wrapper(stream):
        if not obs.metrics_enabled():
            return fn(stream)
        return fn(_CountingStream(stream))

    return wrapper


def _encode_frame(fn):
    @functools.wraps(fn)
    def wrapper(frame):
        data = fn(frame)
        obs.inc("bench.wire.bytes_out", len(data))
        return data

    return wrapper


def _traced_metrics_module():
    proxy = types.ModuleType("repro.analysis.metrics")
    real = e06_startup.metrics
    proxy.__dict__.update(vars(real))
    for name in _TRACE_ANALYSES:
        setattr(proxy, name, _timed("analysis.trace", getattr(real, name)))
    return proxy


def install():
    """Swap every layer's call sites for timed versions; returns the undo."""
    swaps = [
        (experiments.Experiment, "run", _timed("experiments", experiments.Experiment.run)),
        (runner_core.SweepRunner, "stream_sweep", _timed("runner", runner_core.SweepRunner.stream_sweep)),
        (runner_core, "cache_key", _timed("runner.cache.key", runner_core.cache_key)),
        (cache_mod.ResultCache, "get", _timed("runner.cache.get", cache_mod.ResultCache.get)),
        (cache_mod.ResultCache, "put", _timed("runner.cache.put", cache_mod.ResultCache.put)),
        (scenarios, "measure_sharded", _timed("runner.fold", scenarios.measure_sharded)),
        (sharded, "measure_sharded", _timed("runner.fold", sharded.measure_sharded)),
        (scenarios, "merge_summaries", _timed("sim.recorder.merge", scenarios.merge_summaries)),
        (scenarios, "build_cluster", _timed("workloads.build", scenarios.build_cluster)),
        (scenarios, "run_lanes", _timed("sim.vectorized.lanes", scenarios.run_lanes)),
        (scenarios, "verify_summary", _timed("analysis.verify", scenarios.verify_summary)),
        (scenarios, "verify_measurements", _timed("analysis.verify", scenarios.verify_measurements)),
        (engine.Simulation, "run_until_round", _engine_run(engine.Simulation.run_until_round)),
        (recorder.OnlineMetricsRecorder, "finalize",
         _timed("sim.recorder.finalize", recorder.OnlineMetricsRecorder.finalize)),
        (recorder.FullTraceRecorder, "finalize",
         _timed("sim.recorder.finalize", recorder.FullTraceRecorder.finalize)),
        (behaviors, "sign", _counted("bench.crypto.sign", behaviors.sign)),
        (authenticated, "sign", _counted("bench.crypto.sign", authenticated.sign)),
        (signatures.KeyStore, "verify", _counted("bench.crypto.verify", signatures.KeyStore.verify)),
        (e06_startup, "metrics", _traced_metrics_module()),
        (e11_ablation, "metrics", _traced_metrics_module()),
        (e07_join, "joined", _timed("analysis.trace", e07_join.joined)),
        (e07_join, "join_time", _timed("analysis.trace", e07_join.join_time)),
        (remote, "encode_frame", _encode_frame(remote.encode_frame)),
        (remote, "read_frame", _read_frame(remote.read_frame)),
    ]
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in swaps]
    for owner, name, replacement in swaps:
        setattr(owner, name, replacement)

    def undo() -> None:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)

    return undo


# -- aggregation --------------------------------------------------------------


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list) -> dict:
    """Span id -> self time in seconds (duration minus covered child time)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(s["start"], s["end"], children.get(s["id"], ()))
        for s in spans
    }


def request_of(spans: list) -> dict:
    """Span id -> id of the ``request`` root it descends from (or None)."""
    by_id = {s["id"]: s for s in spans}
    memo: dict = {}

    def root(span_id):
        chain = []
        while span_id is not None and span_id not in memo:
            span = by_id.get(span_id)
            if span is None:
                break
            if span["name"] == "request":
                memo[span_id] = span_id
                break
            chain.append(span_id)
            span_id = span["parent"]
        found = memo.get(span_id)
        for link in chain:
            memo[link] = found
        return found

    return {s["id"]: root(s["id"]) for s in spans}


def aggregate(spans: list) -> dict:
    """Self time per layer, per span name and per request, in seconds.

    Only spans under a ``request`` root count; worker incarnation spans and
    anything outside the timed requests are ignored.
    """
    own = self_times(spans)
    root = request_of(spans)
    by_layer = defaultdict(float)
    by_name = defaultdict(float)
    unattributed = defaultdict(float)
    requests = {}
    for s in spans:
        request = root[s["id"]]
        if request is None:
            continue
        if s["name"] == "request":
            requests[s["id"]] = {"label": (s["attrs"] or {}).get("label", ""), "wall_s": s["end"] - s["start"]}
        by_name[s["name"]] += own[s["id"]]
        layer = LAYER_OF_SPAN.get(s["name"])
        if layer is None:
            unattributed[request] += own[s["id"]]
        else:
            by_layer[layer] += own[s["id"]]
    return {
        "by_layer": dict(by_layer),
        "by_name": dict(by_name),
        "requests": [dict(entry, unattributed_s=unattributed[rid]) for rid, entry in requests.items()],
    }


def carry_worker_spans(spans: list) -> list:
    """Re-parent each ``worker.task`` onto the ``exec.attempt`` that carried it.

    The program parents a worker's task root to the parent-side
    ``exec.task``; the attempt that shipped the frame is its sibling.  Moving
    the worker span under the attempt whose interval holds its midpoint makes
    the attempt's self time the wire and scheduling overhead alone.  Returns
    the ids of worker spans no attempt carried or that are longer than their
    attempt (there must be none).
    """
    attempts = defaultdict(list)
    for s in spans:
        if s["name"] == "exec.attempt":
            attempts[s["parent"]].append(s)
    bad = []
    for s in spans:
        if s["name"] != "worker.task":
            continue
        mid = (s["start"] + s["end"]) / 2.0
        carrier = next((a for a in attempts.get(s["parent"], ()) if a["start"] <= mid <= a["end"]), None)
        if carrier is None or s["end"] - s["start"] > carrier["end"] - carrier["start"]:
            bad.append(s["id"])
        if carrier is not None:
            s["parent"] = carrier["id"]
    return bad


def exec_breakdown(spans: list) -> dict:
    """Fleet timings (seconds) summed over every request, from the exec spans.

    ``rtt`` sums the parent-side attempts (dispatch to result frame),
    ``worker`` the worker-side task roots, ``queue`` the submit-to-first-
    dispatch wait.
    """
    root = request_of(spans)
    rtt = worker = queue = 0.0
    first_dispatch: dict = {}
    tasks = {s["id"]: s for s in spans if s["name"] == "exec.task" and root[s["id"]]}
    for s in spans:
        if s["name"] == "exec.attempt" and s["parent"] in tasks:
            rtt += s["end"] - s["start"]
            first_dispatch[s["parent"]] = min(s["start"], first_dispatch.get(s["parent"], s["start"]))
        elif s["name"] == "worker.task" and root[s["id"]]:
            worker += s["end"] - s["start"]
    for task_id, start in first_dispatch.items():
        queue += start - tasks[task_id]["start"]
    return {"rtt": rtt, "worker": worker, "queue": queue}


def write_report(path_spans, path_ledger, spans: list, agg: dict) -> None:
    """The span file (JSON lines) and the ledger text for one traced run."""
    with open(path_spans, "w", encoding="utf-8") as handle:
        for entry in sorted(spans, key=lambda s: (s["start"], s["id"])):
            handle.write(json.dumps(entry) + "\n")
    lines = ["# self time per span name, ms, summed over traced requests"]
    for name, seconds in sorted(agg["by_name"].items(), key=lambda kv: -kv[1]):
        layer = LAYER_OF_SPAN.get(name, "unattributed")
        lines.append(f"{seconds * 1e3:12.3f}  {name:28s} {layer}")
    lines.append("")
    lines.append("# per request: wall ms, unattributed ms, label")
    for entry in agg["requests"]:
        lines.append(f"{entry['wall_s'] * 1e3:12.3f} {entry['unattributed_s'] * 1e3:12.3f}  {entry['label']}")
    with open(path_ledger, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


class TracedFleetExecutor(remote.SubprocessWorkerExecutor):
    """The subprocess fleet, with workers that carry the same wrappers."""

    def _spawn_command(self, index: int) -> list:
        shim = str(Path(__file__).resolve().parent / "fleet_worker.py")
        return [sys.executable, shim, "--heartbeat", str(self.heartbeat_interval)]


#: (metric, source) pairs: per-request self time of a layer, in ms.
_SELF_MS = (
    ("experiments.self_ms", "experiments"),
    ("runner.self_ms", "runner"),
    ("runner.fold_ms", "runner.fold"),
    ("runner.cache.key_ms", "runner.cache.key"),
    ("runner.cache.get_ms", "runner.cache.get"),
    ("runner.cache.put_ms", "runner.cache.put"),
    ("workloads.build_ms", "workloads.build"),
    ("sim.engine.run_ms", "sim.engine.run"),
    ("sim.vectorized.lanes_ms", "sim.vectorized.lanes"),
    ("sim.vectorized.lockstep_ms", "sim.vectorized.lockstep"),
    ("sim.vectorized.replay_ms", "sim.vectorized.replay"),
    ("sim.recorder.finalize_ms", "sim.recorder.finalize"),
    ("sim.recorder.merge_ms", "sim.recorder.merge"),
    ("analysis.verify_ms", "analysis.verify"),
    ("analysis.trace_ms", "analysis.trace"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(agg: dict, fleet: dict, counters: dict, exec_stats: dict, requests: int, extra: dict) -> dict:
    """Every per-layer metric, per request unless it is a ratio.

    ``counters`` is the metrics registry's counter table over the traced
    phase (worker counters included), ``exec_stats`` the executor's
    scheduler counters over the same phase, ``extra`` the figures the run
    measures itself (set-up split, parent CPU, cache entry bytes, tracing
    overhead).
    """
    per = 1.0 / requests
    out = {name: agg["by_layer"].get(layer, 0.0) * 1e3 * per for name, layer in _SELF_MS}
    c = counters.get
    vector, fallback = c("kernel.vector_lanes", 0), c("kernel.fallback_lanes", 0)
    hits, misses = c("bench.digest.hits", 0), c("bench.digest.misses", 0)
    wire = c("bench.wire.bytes_in", 0) + c("bench.wire.bytes_out", 0)
    out.update({
        "runner.cache.stores": c("cache.stores", 0) * per,
        "runner.cache.hits": c("cache.hits", 0) * per,
        "runner.cache.entry_kb": _ratio(extra["cache_bytes"], c("cache.stores", 0)) / 1024.0,
        "runner.exec.task_rtt_ms": fleet["rtt"] * 1e3 * per,
        "runner.exec.worker_task_ms": fleet["worker"] * 1e3 * per,
        "runner.exec.overhead_ms": (fleet["rtt"] - fleet["worker"]) * 1e3 * per,
        "runner.exec.queue_wait_ms": fleet["queue"] * 1e3 * per,
        "runner.exec.parent_cpu_ms": extra["parent_cpu_s"] * 1e3 * per if exec_stats.get("tasks") else 0.0,
        "runner.exec.frame_kb": wire / 1024.0 * per,
        "runner.exec.tasks": exec_stats.get("tasks", 0) * per,
        "runner.exec.retries": exec_stats.get("retries", 0) * per,
        "runner.exec.steals": exec_stats.get("steals", 0) * per,
        "sim.engine.msgs": c("bench.engine.msgs", 0) * per,
        "crypto.sign_calls": c("bench.crypto.sign", 0) * per,
        "crypto.verify_calls": c("bench.crypto.verify", 0) * per,
        "crypto.digest_hit_ratio": _ratio(hits, hits + misses),
        "sim.vectorized.vector_lanes": vector * per,
        "sim.vectorized.fallback_lanes": fallback * per,
        "sim.vectorized.served_ratio": _ratio(vector, vector + fallback),
        "setup.import_ms": extra["import_s"] * 1e3,
        "setup.spawn_ms": extra["spawn_s"] * 1e3,
        "trace.overhead_ms": extra["overhead_s"] * 1e3,
        "trace.overhead_cpu_ms": extra["overhead_cpu_s"] * 1e3,
        "request.unattributed_ms": sum(r["unattributed_s"] for r in agg["requests"]) * 1e3 * per,
    })
    return out
