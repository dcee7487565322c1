"""Benchmark of the Srikanth-Toueg reproduction: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that yields the per-layer ledger and writes a span file
and a ledger report under ``.perfbench_out/``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the machine-drift probe, which is not a
metric.  Failed checks are listed on standard error.  See
``perfbench/README.md``.
"""

import time

_T_FIRST = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: A timing run continues whole rounds until ``--seconds`` passed *and* it
#: holds this many requests, so at least ten latencies lie beyond p90.
MIN_REQUESTS = 100

#: Shard count for replicated scenarios that leave it to the environment
#: (``shards=None``, as the experiments do); pinned so that the core count
#: does not change the work.
PINNED_SHARDS = "2"

#: Per-layer metrics of the traced run: (name, unit).  Times are self time
#: per request, counts are per request, ratios are over the traced phase.
PER_LAYER = (
    ("experiments.self_ms", "ms"),
    ("runner.self_ms", "ms"),
    ("runner.fold_ms", "ms"),
    ("runner.cache.key_ms", "ms"),
    ("runner.cache.get_ms", "ms"),
    ("runner.cache.put_ms", "ms"),
    ("runner.cache.stores", "count"),
    ("runner.cache.hits", "count"),
    ("runner.cache.entry_kb", "kB"),
    ("runner.exec.task_rtt_ms", "ms"),
    ("runner.exec.worker_task_ms", "ms"),
    ("runner.exec.overhead_ms", "ms"),
    ("runner.exec.queue_wait_ms", "ms"),
    ("runner.exec.parent_cpu_ms", "ms"),
    ("runner.exec.frame_kb", "kB"),
    ("runner.exec.tasks", "count"),
    ("runner.exec.retries", "count"),
    ("runner.exec.steals", "count"),
    ("workloads.build_ms", "ms"),
    ("sim.engine.run_ms", "ms"),
    ("sim.engine.msgs", "count"),
    ("crypto.sign_calls", "count"),
    ("crypto.verify_calls", "count"),
    ("crypto.digest_hit_ratio", "ratio"),
    ("sim.vectorized.lanes_ms", "ms"),
    ("sim.vectorized.lockstep_ms", "ms"),
    ("sim.vectorized.replay_ms", "ms"),
    ("sim.vectorized.vector_lanes", "count"),
    ("sim.vectorized.fallback_lanes", "count"),
    ("sim.vectorized.served_ratio", "ratio"),
    ("sim.recorder.finalize_ms", "ms"),
    ("sim.recorder.merge_ms", "ms"),
    ("analysis.verify_ms", "ms"),
    ("analysis.trace_ms", "ms"),
    ("setup.import_ms", "ms"),
    ("setup.spawn_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_cpu_ms", "ms"),
    ("request.unattributed_ms", "ms"),
)


def _pin_environment() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_SHARDS"] = PINNED_SHARDS
    sys.path.insert(0, str(SRC))


def _import_program() -> None:
    import numpy  # noqa: F401

    import repro.experiments  # noqa: F401
    import repro.runner.config  # noqa: F401
    import repro.runner.core  # noqa: F401


class Meter:
    """Closed-loop request timing: wall, CPU (driver + workers), replications."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.pids = workload.worker_pids()
        self.latencies: list = []
        self.cpu = 0.0
        self.replications = 0
        self.failed = 0
        self.errors: list = []
        self.texts: list = []
        #: Per round: (wall seconds, CPU seconds, replications).
        self.rounds: list = []

    def _cpu_now(self) -> float:
        return time.process_time() + probe.worker_cpu_seconds(self.pids)

    def _call(self, request):
        if self.tracer is None:
            return request.call()
        with self.tracer.span("request") as span:
            span.set("label", request.label)
            return request.call()

    def run_round(self, index: int) -> None:
        before = (sum(self.latencies), self.cpu, self.replications)
        self._run_requests(index)
        after = (sum(self.latencies), self.cpu, self.replications)
        self.rounds.append(tuple(b - a for a, b in zip(before, after)))

    def _run_requests(self, index: int) -> None:
        for request in self.workload.round(index):
            cpu0, wall0 = self._cpu_now(), time.perf_counter()
            try:
                output = self._call(request)
            except Exception:  # a failed request is counted, not fatal
                self.failed += 1
                self.latencies.append(time.perf_counter() - wall0)
                self.errors.append(f"{request.label}: raised\n{traceback.format_exc()}")
                continue
            wall1, cpu1 = time.perf_counter(), self._cpu_now()
            self.latencies.append(wall1 - wall0)
            self.cpu += cpu1 - cpu0
            self.replications += self.workload.replications(output)
            self.texts.append(self.workload.absorb(request, output))

    def run(self, seconds: float, min_requests: int) -> int:
        """Whole rounds until ``seconds`` passed and ``min_requests`` were
        sent; returns the number of rounds."""
        start = time.perf_counter()
        rounds = 0
        while True:
            self.run_round(rounds)
            rounds += 1
            if time.perf_counter() - start >= seconds and len(self.latencies) >= min_requests:
                return rounds


def end_to_end(meter: Meter, setup_s: float, peak_rss_mb: float) -> dict:
    """The six end-to-end metrics.  Throughput and CPU cost are medians over
    rounds (every round is the same mix), so one burst of steal time moves
    one round, not the figure."""
    lat_ms = [x * 1e3 for x in meter.latencies]
    return {
        "runs_per_s": (statistics.median(reps / wall for wall, _, reps in meter.rounds), "1/s"),
        "cpu_ms_per_run": (statistics.median(cpu * 1e3 / reps for _, cpu, reps in meter.rounds), "ms"),
        "request_p50_ms": (statistics.median(lat_ms), "ms"),
        "request_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced(workload, seconds: float, setup: dict) -> tuple:
    """The traced run: pairs of rounds, the same round untraced then traced,
    until ``seconds`` passed.  Returns (meters, errors, metrics)."""
    import ledger
    from repro import obs

    tracer, registry = obs.Tracer(), obs.MetricsRegistry()
    plain, marked = Meter(workload), Meter(workload, tracer)
    runner = getattr(workload, "runner", None)
    stats = {}
    cache_bytes = 0
    parent_cpu = 0.0
    overhead = [0.0, 0.0]  # wall, CPU; first pair left out (cold caches)
    start = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - start < seconds:
        plain.run_round(index)
        stats0 = runner.executor_stats() if runner is not None else {}
        obs.install(tracer, registry)
        undo = ledger.install()
        started = time.process_time()
        try:
            marked.run_round(index)
        finally:
            parent_cpu += time.process_time() - started
            undo()
            obs.install(None, None)
        if workload.name == "paper-tables":
            cache_bytes += workload.cache_entry_bytes()
        stats1 = runner.executor_stats() if runner is not None else {}
        for key in stats1:
            stats[key] = stats.get(key, 0) + stats1[key] - stats0.get(key, 0)
        if index:
            overhead[0] += marked.rounds[-1][0] - plain.rounds[-1][0]
            overhead[1] += marked.rounds[-1][1] - plain.rounds[-1][1]
        index += 1
    spans = tracer.export_payload()["spans"]
    counters = registry.snapshot()["counters"]
    later = len(marked.latencies) * (index - 1) / index

    errors = []
    if plain.texts != marked.texts:
        errors.append("traced results differ from untraced results")
    uncarried = ledger.carry_worker_spans(spans)
    if uncarried:
        errors.append(f"worker.task spans not inside their exec.attempt: {uncarried[:5]}")
    agg = ledger.aggregate(spans)
    fleet = ledger.exec_breakdown(spans)
    ledger.write_report(OUT / f"spans-{workload.name}.jsonl", OUT / f"ledger-{workload.name}.txt", spans, agg)
    extra = {
        "import_s": setup["import_s"],
        "spawn_s": setup.get("spawn_s", 0.0),
        "parent_cpu_s": parent_cpu,
        "cache_bytes": cache_bytes,
        "overhead_s": overhead[0] / later,
        "overhead_cpu_s": overhead[1] / later,
    }
    values = ledger.layer_metrics(agg, fleet, counters, stats, len(marked.latencies), extra)
    return [plain, marked], errors, {name: (values[name], unit) for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper-tables", "scaling-grid", "fleet-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    before_script = probe.since_process_start() - (time.perf_counter() - _T_FIRST)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    _pin_environment()
    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    _import_program()
    import workloads

    setup = {"import_s": time.perf_counter() - start}
    executor = None
    if args.trace and args.workload == "fleet-sweep":
        import ledger

        executor = ledger.TracedFleetExecutor(workloads.FLEET_WORKERS)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT, **({"executor": executor} if executor else {}))
    try:
        setup.update(workload.setup())
        setup_s = before_script + (time.perf_counter() - _T_FIRST)
        steal0, calib0 = probe.steal_seconds(), probe.calibration()
        if args.trace:
            meters, errors, metrics = traced(workload, args.seconds, setup)
        else:
            meter = Meter(workload)
            meter.run(args.seconds, MIN_REQUESTS)
            rss = probe.own_peak_rss_mb() + probe.worker_peak_rss_mb(workload.worker_pids())
            meters, errors = [meter], []
            metrics = end_to_end(meter, setup_s, rss)
        steal1 = probe.steal_seconds()
        errors += workload.finish()
    finally:
        workload.close()
    calib1 = probe.calibration()

    print(json.dumps({"probe": {
        "steal_s": steal1 - steal0,
        "calibration_before": calib0,
        "calibration_after": calib1,
        "rounds_requests": sum(len(m.latencies) for m in meters),
    }}))
    for meter in meters:
        for error in meter.errors:
            print(f"perfbench: REQUEST FAILED: {error}", file=sys.stderr)
    for error in errors:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    failed = sum(m.failed for m in meters)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(m.latencies) for m in meters),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
