"""Process-level plumbing: the Ray session, ``ray stop``, peak RSS from
``/proc``, and sample summaries."""

from __future__ import annotations

import logging
import math
import os
import shutil
import tempfile
import time

OBJECT_STORE_BYTES = 256 << 20


def cpu_count() -> int:
    """What ``nproc`` prints: the CPUs this process may run on, capped by
    ``OMP_NUM_THREADS`` when that is set to a positive number."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def ray_stop() -> None:
    """``ray stop --force``, run in this process (a fresh interpreter
    would cost more than a second): no raylet from an earlier run may
    share the machine with a measurement, and none may outlive this one."""
    from ray.scripts.scripts import stop

    stop.main(["--force"], standalone_mode=False)


def cpu_jiffies() -> list[int]:
    """The machine-wide CPU time counters of ``/proc/stat`` (user, nice,
    system, idle, iowait, irq, softirq, steal, …)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """The share of CPU time the hypervisor took from this machine
    between two ``cpu_jiffies`` readings."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d) if sum(d) else 0.0


def wait_children(timeout_s: float = 30.0) -> list[int]:
    """Reap and wait for every process this one started; returns the
    pids still alive after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        left = _descendants(os.getpid())
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.05)


class RaySession:
    """A local Ray instance with ``num_cpus`` = the CPUs this process may
    use. Its session files go to a private directory in the system temp
    dir, since Ray's unix socket paths must fit in 107 bytes, and the
    directory is removed by ``close``."""

    def __init__(self):
        self.temp_dir = tempfile.mkdtemp(prefix="pb-ray-")
        self.started = False

    def start(self) -> None:
        import ray
        import ray.data

        ray.init(
            address="local",
            num_cpus=cpu_count(),
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level=logging.ERROR,
            log_to_driver=False,
            _temp_dir=self.temp_dir,
        )
        self.started = True
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def stop(self) -> None:
        import ray

        if self.started:
            ray.shutdown()
            self.started = False

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.temp_dir, ignore_errors=True)


def _descendants(root_pid: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    out, todo = [], [root_pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


def measured_pids() -> list[int]:
    """The driver and its Ray worker processes (titled ``ray::…``)."""
    me = os.getpid()
    return [me, *(p for p in _descendants(me) if _is_ray_worker(p))]


def reset_peak_rss(pids: list[int]) -> None:
    """Reset each process's VmHWM to its current RSS."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of VmHWM (peak RSS since the last reset) over ``pids``."""
    kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return kb / 1024


def median(xs: list[float]) -> float:
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def summarize(xs: list[float]) -> dict:
    """Median, sample count, and the highest percentile that still has at
    least ten samples beyond it (absent below eleven samples)."""
    out = {"median": median(xs), "n": len(xs)}
    n = len(xs)
    if n >= 11:
        rank = n - 10  # 1-based rank with exactly ten samples above it
        out[f"p{math.floor(100 * rank / n)}"] = sorted(xs)[rank - 1]
    return out
