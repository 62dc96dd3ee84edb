"""What the benchmark reads about the gateway from outside the process.

Everything here comes from ``/proc`` or the POSIX per-process CPU clock,
so the measurements need nothing from the program under test and cost it
nothing.
"""

from __future__ import annotations

import ctypes
import os
import time

_libc = ctypes.CDLL(None, use_errno=True)


def host_ticks() -> tuple[int, int]:
    """``(steal, all)``: host-wide CPU time so far in clock ticks, what the
    hypervisor took away and every accounted column (steal 0 where unreported)."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _pids_where(field: int, value: int) -> list[int]:
    """Live pids whose ``/proc/<pid>/stat`` field after the command name
    (0 = state, 1 = ppid, 2 = pgrp) equals ``value``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # exited between listdir and open
            continue
        if int(stat[stat.rindex(")") + 2:].split()[field]) == value:
            pids.append(int(entry))
    return pids


def group_pids(pgid: int) -> list[int]:
    """Every live process in process group ``pgid`` (the gateway's tree)."""
    return _pids_where(2, pgid)


def child_pids(parent: int) -> list[int]:
    """Every live (or unreaped) child of ``parent``."""
    return _pids_where(1, parent)


def process_cpu_seconds(pid: int) -> float:
    """User+system CPU time ``pid`` has used, threads that exited included.

    Read from the process's CPU-time clock (``clock_getcpuclockid(3)``):
    nanosecond resolution where ``/proc/<pid>/stat`` offers 10 ms ticks.
    """
    clock_id = ctypes.c_int()
    if _libc.clock_getcpuclockid(pid, ctypes.byref(clock_id)) != 0:
        return 0.0  # the process is gone
    try:
        return time.clock_gettime(clock_id.value)
    except OSError:
        return 0.0


def tree_cpu_seconds(pgid: int) -> float:
    """CPU seconds used so far by every live process of the group."""
    return sum(process_cpu_seconds(pid) for pid in group_pids(pgid))


def task_counts(pid: int) -> dict[str, int]:
    """Thread count, open fds and voluntary context switches of ``pid``."""
    tasks = os.listdir(f"/proc/{pid}/task")
    switches = 0
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/status") as handle:
                for line in handle:
                    if line.startswith("voluntary_ctxt_switches:"):
                        switches += int(line.split()[1])
                        break
        except OSError:  # the thread exited mid-walk
            continue
    return {
        "threads": len(tasks),
        "fds": len(os.listdir(f"/proc/{pid}/fd")),
        "vctx": switches,
    }


def peak_rss_mb(pid: int) -> float:
    """The process's resident-set high-water mark (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status reports no VmHWM")
