"""The three workloads: generated inputs, requests and output checks.

Each workload is a closed loop with one client: the next request is sent when
the previous one returned.  A run repeats whole *rounds* (one round is the
same fixed list of requests), so every run attempts the same mix.  Inputs
are generated from ``--seed`` alone; the program only ever receives the
generated ``Scenario`` objects.

* ``paper-tables`` -- a round is one pass of E1..E13 (full grids, in a seeded
  order) against a result cache that starts empty in a fresh directory.
* ``scaling-grid`` -- a round is eight replicated large-n scenarios (n 28-42)
  run in process, half served by the lockstep array path, half only by the
  exact-replay engine.
* ``fleet-sweep`` -- a round is eight batches of cheap scenarios the vector
  kernel refuses, each batch one sweep on a 2-worker subprocess fleet.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import time
from pathlib import Path

import oracle

#: Result fields that must match float for float wherever a scenario runs.
MEASURED = (
    "precision",
    "precision_overall",
    "acceptance_spread",
    "completed_round",
    "total_messages",
    "messages_per_round",
    "effective_horizon",
    "stopped_early",
    "accuracy",
    "period_stats",
)


def measured(result) -> str:
    """Exact text of every measured field (``repr`` keeps every float digit,
    and compares NaN equal to NaN)."""
    return repr(tuple(getattr(result, name) for name in MEASURED))


class Request:
    """One closed-loop request: a label and a call returning its output."""

    __slots__ = ("label", "call")

    def __init__(self, label: str, call) -> None:
        self.label = label
        self.call = call


def oracle_errors(label: str, results) -> list:
    """Oracle verdicts for every in-spec result (empty when all conform)."""
    errors = []
    for result in results:
        if oracle.in_spec(result.scenario):
            errors.extend(f"{label}: {result.scenario.name}: {v}" for v in oracle.violations(result))
    return errors


# -- paper-tables ---------------------------------------------------------------

#: The paper's experiments.  E14 and E15 time heartbeat timeouts, backoffs
#: and scripted worker kills, not computation, so they are left out.
PAPER_EXPERIMENTS = tuple(f"E{k}" for k in range(1, 14))


class PaperTables:
    """E1..E13 with ``quick=False``, serially in process, cold cache per pass."""

    name = "paper-tables"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.orders: list = []
        self.passes = 0
        self.tables: dict = {}
        self.mismatched: list = []
        self.errors: list = []
        self._seen: list = []

    def setup(self) -> dict:
        from repro.experiments import EXPERIMENTS, common
        from repro.runner import config

        self.experiments = EXPERIMENTS
        self.config = config
        common.set_observer(self._seen.append)
        self._cache_dir = None
        self._start_pass(-1)
        # Lazy first-use set-up (kernel layout code, numpy paths) runs here,
        # not inside the first timed request.
        from repro.workloads.scenarios import Scenario
        from repro.experiments.common import default_params

        config.get_runner().run(
            Scenario(params=default_params(7), attack="eager", rounds=3, delay_mode="max", replications=2),
            trace_level="metrics",
        )
        self._seen.clear()
        return {}

    def _start_pass(self, index: int) -> None:
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
        self._cache_dir = self.workdir / f"cache-pass{index}"
        shutil.rmtree(self._cache_dir, ignore_errors=True)
        self.config.configure(jobs=1, cache_dir=self._cache_dir, executor="pool")

    def round(self, index: int) -> list:
        while len(self.orders) <= index:
            order = list(PAPER_EXPERIMENTS)
            self.rng.shuffle(order)
            self.orders.append(order)
        self._start_pass(index)
        self.passes += 1
        return [Request(key, self._caller(key)) for key in self.orders[index]]

    def _caller(self, key: str):
        experiment = self.experiments[key]

        def call():
            return experiment.run(quick=False)

        return call

    def replications(self, output) -> int:
        return sum(result.scenario.replications for result in self._seen)

    def absorb(self, request: Request, output) -> str:
        """Check one finished request; returns its comparable text."""
        from repro.analysis.report import render_tables

        if not output:
            self.errors.append(f"{request.label}: rendered no tables")
        self.errors.extend(oracle_errors(request.label, self._seen))
        self._seen.clear()
        text = render_tables(output)
        first = self.tables.setdefault(request.label, text)
        if text != first:
            self.mismatched.append(request.label)
        return text

    def cache_entry_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._cache_dir.glob("*/*.pkl"))

    def worker_pids(self) -> list:
        return []

    def finish(self) -> list:
        """Output checks after the timed phase; returns error strings."""
        errors = list(self.errors)
        if self.passes < 2:
            errors.append("fewer than two passes: table determinism unchecked")
        errors.extend(f"{label}: tables differ between passes" for label in self.mismatched)
        return errors

    def close(self) -> None:
        if getattr(self, "_cache_dir", None) is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
        if hasattr(self, "config"):
            self.config.reset_runner()


# -- scaling-grid ----------------------------------------------------------------

#: (algorithm, n, attack, clock mode, delay mode, replications, rounds).
#: The first four are lockstep cells (auth, deterministic delays, fixed or
#: drifting clocks); the last four only the replay engine serves (echo,
#: uniform and zero-min delays, forge_flood and random_* attacks).
SCALING_CELLS = (
    ("auth", 28, None, "extreme", "targeted", 8, 8),
    ("auth", 42, "skew_max", "random", "max", 4, 8),
    ("auth", 35, "two_faced", "nominal", "midpoint", 6, 8),
    ("auth", 31, "laggard", "extreme", "max", 6, 8),
    ("echo", 28, "forge_flood", "extreme", "min", 2, 6),
    ("echo", 31, "random_two_faced", "random", "uniform", 2, 8),
    ("auth", 28, "random_silence", "extreme", "uniform", 3, 8),
    ("auth", 34, "random_laggard", "extreme", "targeted", 2, 8),
)


class ScalingGrid:
    """Replicated large-n scenarios through ``SweepRunner.run``, in process."""

    name = "scaling-grid"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.rounds: list = []
        self.results: dict = {}
        self.errors: list = []

    def setup(self) -> dict:
        import numpy  # noqa: F401  (the kernel's array backend, imported up front)

        from repro.experiments.common import default_params
        from repro.runner.core import SweepRunner
        from repro.workloads.scenarios import Scenario

        self.Scenario = Scenario
        self.default_params = default_params
        self.runner = SweepRunner(jobs=1, cache=None)
        self.runner.run(
            Scenario(params=default_params(7), attack="eager", rounds=3, delay_mode="max", replications=2, shards=1),
            trace_level="metrics",
        )
        return {}

    def scenario(self, cell: tuple, seed: int):
        algorithm, n, attack, clocks, delays, reps, rounds = cell
        return self.Scenario(
            params=self.default_params(n, authenticated=(algorithm == "auth")),
            algorithm=algorithm,
            attack=attack,
            clock_mode=clocks,
            delay_mode=delays,
            rounds=rounds,
            replications=reps,
            shards=1,
            seed=seed,
        )

    def round(self, index: int) -> list:
        while len(self.rounds) <= index:
            self.rounds.append([self.scenario(cell, self.rng.randrange(1, 10**6)) for cell in SCALING_CELLS])
        return [Request(f"{index}:{s.name}", self._caller(s)) for s in self.rounds[index]]

    def _caller(self, scenario):
        def call():
            return self.runner.run(scenario, trace_level="metrics")

        return call

    def replications(self, output) -> int:
        return output.scenario.replications

    def absorb(self, request: Request, output) -> str:
        self.errors.extend(oracle_errors(request.label, [output]))
        if request.label.startswith("0:"):
            self.results[request.label] = output
        return measured(output)

    def worker_pids(self) -> list:
        return []

    def finish(self) -> list:
        """Oracle verdicts plus the sampled engine and replication checks.

        Two requests of round 0 are re-run piecewise: one lockstep cell and
        one replay cell, chosen by the seed.  Each replication runs alone on
        the vector kernel (the replicated result's worst-case skews must be
        the maximum over them and its message total their sum), and the
        first and last replications the vector kernel served also run on
        the event loop, which must agree with it float for float.
        """
        from repro.workloads.scenarios import replicate, run_scenario

        errors = list(self.errors)
        half = len(SCALING_CELLS) // 2
        pick = self.seed % half
        for scenario in (self.rounds[0][pick], self.rounds[0][half + pick]):
            result = self.results[f"0:{scenario.name}"]
            singles = [run_scenario(replicate(scenario, i), trace_level="metrics")
                       for i in range(scenario.replications)]
            for field in ("precision", "precision_overall", "acceptance_spread"):
                if getattr(result, field) != max(getattr(r, field) for r in singles):
                    errors.append(f"{scenario.name}: {field} is not the max over replications")
            if result.total_messages != sum(r.total_messages for r in singles):
                errors.append(f"{scenario.name}: message total is not the sum over replications")
            served = [i for i, single in enumerate(singles) if single.kernel_provenance.vector_lanes == 1]
            if not served:
                errors.append(f"{scenario.name}: no replication was served by the vector kernel")
            for i in sorted(set(served[:1] + served[-1:])):
                event = run_scenario(
                    dataclasses.replace(replicate(scenario, i), kernel="event"), trace_level="metrics"
                )
                if measured(event) != measured(singles[i]):
                    errors.append(f"{scenario.name} rep {i}: event loop differs from vector kernel")
        return errors

    def close(self) -> None:
        if hasattr(self, "runner"):
            self.runner.close()


# -- fleet-sweep -----------------------------------------------------------------

#: One batch: cheap scenarios the vector kernel refuses (start-up, joiners,
#: the monotonic ablation, baselines), n 4-10, plus one replicated start-up
#: scenario split into two shard tasks that fold in the parent.
#: (algorithm, n, f, attack, extra Scenario fields)
FLEET_BATCH = (
    ("auth", 7, None, "silent", {"use_startup": True, "boot_spread": 0.05, "rounds": 4}),
    ("echo", 7, None, "eager", {"joiner_count": 1, "join_time": 1.5, "rounds": 4}),
    ("auth", 5, None, "skew_max", {"monotonic": True, "rounds": 5, "delay_mode": "targeted"}),
    ("lundelius_welch", 7, 1, "silent", {"rounds": 5, "actual_faults": 1}),
    ("lamport_melliar_smith", 4, 1, "silent", {"rounds": 5, "actual_faults": 1}),
    ("echo", 10, None, "silent", {"use_startup": True, "boot_spread": 0.03, "rounds": 3,
                                 "replications": 4, "shards": 2}),
)
FLEET_BATCHES = 8
FLEET_WORKERS = 2


class FleetSweep:
    """Batches through ``SweepRunner.run_sweep`` on a 2-worker subprocess fleet."""

    name = "fleet-sweep"

    def __init__(self, seed: int, workdir: Path, executor=None) -> None:
        self.rng = random.Random(seed)
        self.executor = executor
        self.batches: list = []
        self.outputs: dict = {}
        self.errors: list = []

    def setup(self) -> dict:
        from repro.experiments.common import default_params
        from repro.runner.core import SweepRunner
        from repro.workloads.scenarios import Scenario

        for _ in range(FLEET_BATCHES):
            batch = []
            for algorithm, n, f, attack, extra in FLEET_BATCH:
                fields = {"clock_mode": "random", "delay_mode": "uniform", **extra}
                batch.append(Scenario(
                    params=default_params(n, authenticated=(algorithm != "echo"), f=f),
                    algorithm=algorithm,
                    attack=attack,
                    seed=self.rng.randrange(1, 10**6),
                    **fields,
                ))
            self.batches.append(batch)
        start = time.perf_counter()
        if self.executor is None:
            self.runner = SweepRunner(jobs=FLEET_WORKERS, cache=None, executor="subprocess")
        else:
            self.runner = SweepRunner(cache=None, executor=self.executor)
        # Spawn, handshake and first-task imports on both workers.
        warm = [Scenario(params=default_params(4), rounds=2, seed=s, kernel="event") for s in range(4)]
        self.runner.run_sweep(warm, trace_level="metrics")
        pids = self.worker_pids()
        if len(pids) != FLEET_WORKERS:
            raise RuntimeError(f"fleet came up with {len(pids)} workers, expected {FLEET_WORKERS}")
        return {"spawn_s": time.perf_counter() - start}

    def round(self, index: int) -> list:
        return [Request(f"batch{b}", self._caller(batch)) for b, batch in enumerate(self.batches)]

    def _caller(self, batch):
        def call():
            return self.runner.run_sweep(batch, trace_level="metrics")

        return call

    def replications(self, output) -> int:
        return sum(result.scenario.replications for result in output)

    def absorb(self, request: Request, output) -> str:
        text = repr([measured(result) for result in output])
        self.outputs.setdefault(request.label, set()).add(text)
        self.errors.extend(oracle_errors(request.label, output))
        return text

    def worker_pids(self) -> list:
        return self.runner.executor.worker_pids()

    def finish(self) -> list:
        """Every batch's results must equal the in-process serial run."""
        from repro.runner.core import SweepRunner

        errors = list(self.errors)
        serial = SweepRunner(jobs=1, cache=None)
        for b, batch in enumerate(self.batches):
            reference = repr([measured(r) for r in serial.run_sweep(batch, trace_level="metrics")])
            seen = self.outputs.get(f"batch{b}", set())
            if seen != {reference}:
                errors.append(f"batch{b}: fleet results differ from the serial in-process run")
        return errors

    def close(self) -> None:
        if hasattr(self, "runner"):
            self.runner.close()


WORKLOADS = {cls.name: cls for cls in (PaperTables, ScalingGrid, FleetSweep)}
