"""Measurement driver: builds the corpus and its reference, sets the
workload up, runs its closed loop, and assembles the result line."""

from __future__ import annotations

import os
import platform
import shutil
import sys
import time
import traceback

import ray

from . import gate, harness, trace
from .workloads import WORKLOADS, Op

# A run's Ray sessions: each is set up, then measured for an equal share
# of --seconds; setup_s is the median of their set-ups.
SESSIONS = 2
# An operation during which the hypervisor took more than this share of
# the machine's CPU time (``steal`` in /proc/stat; 0.001 to 0.01 on a calm
# host, 0.05 to 0.2 in the episodes that made every operation 1.3 to 2
# times slower) is timed by the host, not the program: its wall is left
# out of the timing medians while at least MIN_CALM_OPS operations of the
# run were calm, and kept otherwise.
STEAL_LIMIT = 0.02
MIN_CALM_OPS = 3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "docs_per_s": "1/s", "peak_rss_mb": "MB"}


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def measure(workload, seconds: float, i: int) -> list[Op]:
    """Closed loop: operations ``i``, ``i + 1``, … one at a time until
    ``seconds`` have passed (at least one). An operation that raises
    counts as failed."""
    ops = []
    t_end = time.perf_counter() + seconds
    while True:
        harness.reset_peak_rss(harness.measured_pids())
        jiffies = harness.cpu_jiffies()
        try:
            op = workload.op(i)
        except Exception:
            op = Op(0.0, 0, failed=1, problems=[traceback.format_exc(limit=3)])
        if op.problems and not op.failed:
            op.failed = 1
        op.samples["peak_rss_mb"] = [harness.peak_rss_mb(harness.measured_pids())]
        op.steal_share = harness.steal_share(jiffies, harness.cpu_jiffies())
        log(f"op {i}: wall {op.wall_s:.4f} s, docs {op.docs}, failed {op.failed}, "
            f"steal {op.steal_share:.3f}")
        ops.append(op)
        i += 1
        if time.perf_counter() >= t_end:
            return ops


def gather(ops) -> dict[str, list[float]]:
    """Every named sample across operations, and the wall and docs of
    every operation that ran to the end (gate failures included: their
    time is real; correctness is reported apart) and was calm, or of all
    of them when fewer than ``MIN_CALM_OPS`` were (see ``STEAL_LIMIT``).
    Timings an operation records beside its wall follow the same choice."""
    timed = [op for op in ops if op.wall_s > 0]
    calm = [op for op in timed if op.steal_share <= STEAL_LIMIT]
    if len(calm) >= MIN_CALM_OPS:
        timed = calm
    kept = {id(op) for op in timed}
    out: dict[str, list[float]] = {"wall_s": [], "docs": [], "steal_share": []}
    for op in ops:
        out["steal_share"].append(op.steal_share)
        for k, v in op.samples.items():
            if k == "peak_rss_mb" or id(op) in kept:
                out.setdefault(k, []).extend(v)
    for op in timed:
        out["wall_s"].append(op.wall_s)
        out["docs"].append(op.docs)
    return out


def run(args, root: str) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail line)."""
    env = {"nproc": harness.cpu_count(), "cpus_available": len(os.sched_getaffinity(0)),
           "ray": ray.__version__,
           "python": platform.python_version(), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, f"work-{os.getpid()}")
    session = harness.RaySession()
    cls = WORKLOADS[args.workload]
    try:
        t0 = time.perf_counter()
        corpus = cls.build_corpus(args.seed)
        env["corpus_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref = gate.Reference(corpus)
        env["reference_s"] = time.perf_counter() - t0
        problems = gate.check_committed(args.workload, args.seed, ref)
        workload = cls(args.seed, work, corpus, ref)
        env["corpus_bytes"] = corpus.table["html"].nbytes
        env["docs"] = corpus.table.num_rows
        log(f"corpus {env['docs']} docs, {env['corpus_bytes']} bytes, "
            f"{env['corpus_s']:.2f} s; reference {env['reference_s']:.2f} s")

        setups, ops = [], []
        sessions = 1 if args.trace else SESSIONS
        jiffies = harness.cpu_jiffies()
        for k in range(sessions):
            session.stop()
            t0 = time.perf_counter()
            session.start()
            problems += workload.setup()
            setups.append(time.perf_counter() - t0)
            log(f"session {k}: setup {setups[-1]:.3f} s")
            ops += measure(workload, args.seconds / sessions, len(ops))
        # CPU the hypervisor took from this VM while the sessions ran: a
        # run with a high share reads slower for reasons outside the program
        env["steal_share"] = harness.steal_share(jiffies, harness.cpu_jiffies())
        log(f"host CPU steal share {env['steal_share']:.3f}")
        samples = gather(ops)
        attempted = sum(op.attempted for op in ops)
        failed = sum(op.failed for op in ops)
        wall = harness.median(samples["wall_s"]) if samples["wall_s"] else 0.0

        if args.trace:
            extra = {k: harness.median(v) for k, v in samples.items() if v}
            spans_path = os.path.join(base, f"spans-{args.workload}-s{args.seed}.json")
            metrics, trace_problems = trace.run_traced(workload, wall, extra, spans_path)
            problems += trace_problems
            units = {name: trace.unit_of(name) for name in metrics}
            env["spans_file"] = os.path.relpath(spans_path, root)
        else:
            metrics = {
                "setup_s": harness.median(setups),
                "wall_s": wall,
                # input docs (rows returned, for store_readback) per
                # operation over its median wall
                "docs_per_s": harness.median(samples["docs"]) / wall if wall else 0.0,
                "peak_rss_mb": harness.median(samples["peak_rss_mb"]),
            }
            units = END_TO_END_UNITS
        # problems outside the timed operations (committed digest, set-up,
        # traced pass) count as one more failed operation
        if problems:
            attempted, failed = attempted + 1, failed + 1
        problems += [p for op in ops for p in op.problems]
        result = {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        detail = {"env": env, "setup_s": setups,
                  "samples": {k: harness.summarize(v) for k, v in samples.items() if v},
                  "problems": problems[:20]}
        return result, detail
    finally:
        session.close()
        shutil.rmtree(work, ignore_errors=True)
