"""Machine-drift probe and process accounting.

Nothing here is a benchmark metric.  Steal time (CPU time the hypervisor
gave to other guests, from ``/proc/stat``) and a fixed calibration loop
timed before and after the workload let a reader tell a slower machine from
a slower program.  The CPU and memory readers cover the driver and the
worker processes it started.
"""

from __future__ import annotations

import os
import resource
import time

_TICK = os.sysconf("SC_CLK_TCK")


def steal_seconds() -> float:
    """Steal time of the whole machine since boot, in seconds (0 if unknown)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0


def calibration() -> dict:
    """Wall and CPU seconds of a fixed pure-Python loop (about 0.2 s here)."""
    wall, cpu = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    return {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu, "check": acc}


def since_process_start() -> float:
    """Seconds since this process was created (resolution one clock tick)."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        raw = handle.read()
    # The command name may hold spaces; fields resume after its ')'.
    start_ticks = int(raw[raw.rindex(")") + 2 :].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / _TICK


def worker_cpu_seconds(pids) -> float:
    """CPU seconds of the given (live) processes' main threads.

    Read from ``schedstat`` (nanoseconds) rather than ``stat`` (clock
    ticks): a 10 ms tick is a quarter of one fleet request's worker time.
    A worker's only other thread sends heartbeats.
    """
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/schedstat", encoding="ascii") as handle:
                total += int(handle.read().split()[0])
        except OSError:
            continue
    return total / 1e9


def worker_peak_rss_mb(pids) -> float:
    """Sum of the peak resident set (VmHWM) of the given processes, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
