"""The four workloads. Each is a closed loop: the driver issues one
operation (a pipeline run, or one read) and waits for it before the
next. ``setup`` holds the program calls a workload needs before its
timed operations; ``op`` runs one timed operation and its gate.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa

from . import corpus as corpus_mod
from . import gate


@dataclass
class Op:
    """One timed operation: its wall, the docs it covered, the problems
    its gate found, and named samples beside the wall."""

    wall_s: float
    docs: int
    attempted: int = 1
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    # share of the machine's CPU time the hypervisor took during the
    # operation and its gate
    steal_share: float = 0.0


def collect(ds) -> pa.Table:
    """Materialize a Dataset in the driver as one Arrow table."""
    import ray

    tables = ray.get(ds.to_arrow_refs())
    return pa.concat_tables(tables, promote_options="default")


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


class Workload:
    name = ""
    engine_kwargs: dict = {}
    # set-up's warm-up pass runs over this many first pages of the corpus
    warm_pages = 8
    # seed -> Corpus
    build_corpus = None

    def __init__(self, seed: int, work_dir: str, corpus: corpus_mod.Corpus, ref: gate.Reference):
        self.seed = seed
        self.work_dir = work_dir
        self.corpus = corpus
        self.ref = ref
        self.pages_dir = os.path.join(work_dir, "pages")
        self.warm_dir = os.path.join(work_dir, "warm-pages")
        corpus.write(self.pages_dir)
        corpus.head(self.warm_pages).write(self.warm_dir)

    def setup(self) -> list[str]:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def _scratch(self, name: str) -> str:
        path = os.path.join(self.work_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        return path


class ExtractGiant(Workload):
    """``run_extract(resume=False)`` of giant pages split at 64 KiB into a
    fresh store per operation."""

    name = "extract_giant"
    engine_kwargs = {"segment_bytes": corpus_mod.GIANT_SEGMENT_BYTES}
    warm_pages = 2
    build_corpus = staticmethod(corpus_mod.giant_corpus)

    def setup(self) -> list[str]:
        """Warm-up: one pass over the first pages of the corpus."""
        from xs_vlm_ocr_ray.pipelines.extract import run_extract

        out = self._scratch("warm-store")
        run_extract(self.warm_dir, out, resume=False, engine_kwargs=self.engine_kwargs)
        shutil.rmtree(out)
        return []

    def op(self, i: int) -> Op:
        from xs_vlm_ocr_ray.pipelines.extract import read_results, run_extract

        out = self._scratch(f"store-{i}")
        t0 = time.perf_counter()
        summary = run_extract(self.pages_dir, out, resume=False, engine_kwargs=self.engine_kwargs)
        wall = time.perf_counter() - t0
        n = len(self.ref.rows)
        store_bytes = dir_bytes(out)
        table = collect(read_results(out, columns=["url", "extracted_text", "success"]))
        problems = gate.check_summary(summary, self.ref) + gate.check_rows(
            table, self.ref, set(self.ref.rows), "read_results"
        )
        shutil.rmtree(out)
        return Op(wall, n, problems=problems,
                  samples={"store_bytes_per_doc": [store_bytes / n]})


class StoreReadback(Workload):
    """A seeded sequence of reads through the public read API over a
    multi-wave store built (once per set-up) from an F1-mix corpus."""

    name = "store_readback"
    build_corpus = staticmethod(corpus_mod.store_corpus)
    RANGE_ROWS = 25

    def __init__(self, *args):
        super().__init__(*args)
        self.store_dir = os.path.join(self.work_dir, "store")
        self.rows_per_shard = [t.num_rows for t in self.corpus.shard_tables()]

    def setup(self) -> list[str]:
        """The store build, then a warm-up read of each code path."""
        from xs_vlm_ocr_ray.pipelines.extract import preload_recent, read_results, run_extract

        store = self._scratch("store")
        summary = run_extract(self.pages_dir, store, resume=False, wave_shards=1)
        collect(read_results(store, shard_ids=[0], row_range=(0, 1)))
        preload_recent(store, gate.RECENT_LIMIT)
        return gate.check_summary(summary, self.ref)

    def plan(self, i: int) -> list[tuple]:
        """The i-th read sequence: one scan, one scan with spans, one
        shard lookup, one row range of ``RANGE_ROWS`` rows per shard and
        one recent preload, in a seeded order. Every shard holds the same
        number of rows, so each sequence returns about as many rows."""
        rng = random.Random(f"perfbench:reads:{self.seed}:{i}")
        lo = rng.randrange(min(self.rows_per_shard) - self.RANGE_ROWS + 1)
        plan = [("scan",), ("scan_spans",), ("range", lo, lo + self.RANGE_ROWS - 1),
                ("recent",), ("lookup", rng.randrange(len(self.rows_per_shard)))]
        rng.shuffle(plan)
        return plan

    def read(self, step: tuple):
        """Issue one read through the public read API; returns its rows
        (an Arrow table, or ``preload_recent``'s dict)."""
        from xs_vlm_ocr_ray.pipelines.extract import preload_recent, read_results

        kind, store = step[0], self.store_dir
        if kind == "recent":
            return preload_recent(store, gate.RECENT_LIMIT)
        if kind == "scan":
            return collect(read_results(store, columns=["url", "extracted_text"]))
        if kind == "scan_spans":
            return collect(read_results(store))
        if kind == "lookup":
            return collect(read_results(store, shard_ids=[step[1]]))
        return collect(read_results(store, row_range=(step[1], step[2])))

    def check(self, step: tuple, got) -> list[str]:
        """The gate of one read's rows against the reference."""
        kind, ref = step[0], self.ref
        if kind == "recent":
            return gate.check_recent(got, ref)
        if kind == "scan":
            return gate.check_rows(got, ref, set(ref.rows), "scan")
        if kind == "scan_spans":
            return (gate.check_rows(got, ref, set(ref.rows), "scan_spans")
                    + gate.check_spans(got, "scan_spans"))
        if kind == "lookup":
            k = step[1]
            want = ref.urls_where(lambda r: r.shard_id == k)
            return gate.check_rows(got, ref, want, f"lookup shard {k}")
        lo, hi = step[1], step[2]
        want = ref.urls_where(lambda r: lo <= r.row_idx <= hi)
        return gate.check_rows(got, ref, want, f"row_range {lo}..{hi}")

    def op(self, i: int) -> Op:
        """The i-th read sequence. Only the reads are timed; each read's
        gate runs after its timer stops."""
        op = Op(0.0, 0, attempted=0)
        for step in self.plan(i):
            t0 = time.perf_counter()
            try:
                got = self.read(step)
            except Exception as e:  # a read that raises is a failed read
                got, problems = None, [f"{step}: {e!r}"]
            dt = time.perf_counter() - t0
            if got is not None:
                problems = self.check(step, got)
                op.docs += len(got)
            op.wall_s += dt
            op.attempted += 1
            op.failed += bool(problems)
            op.problems += problems
            op.samples.setdefault(step[0], []).append(dt)
        return op

    def traced_reads(self) -> list[tuple]:
        """(kind, columns read, call returning rows) per read kind, for
        the traced pass."""
        from xs_vlm_ocr_ray.pipelines.extract import preload_recent, read_results

        s = self.store_dir
        recent_cols = ("url", "success", "content_hash", "extracted_text", "shard_id", "row_idx")
        return [
            ("scan", ("url", "extracted_text", "shard_id"),
             lambda: collect(read_results(s, columns=["url", "extracted_text"])).num_rows),
            ("scan_spans", None, lambda: collect(read_results(s)).num_rows),
            ("lookup", None, lambda: collect(read_results(s, shard_ids=[0])).num_rows),
            ("range", None, lambda: collect(read_results(s, row_range=(0, 49))).num_rows),
            ("recent", recent_cols, lambda: len(preload_recent(s, gate.RECENT_LIMIT))),
        ]


class Curate(Workload):
    """The in-memory curation run over a corpus with re-published pages."""

    name = "curate"
    build_corpus = staticmethod(corpus_mod.curate_corpus)

    def setup(self) -> list[str]:
        """Warm-up: one curation run over the first pages of the corpus."""
        from xs_vlm_ocr_ray.pipelines.training import run_training_pipeline

        run_training_pipeline(self.warm_dir)
        return []

    def op(self, i: int) -> Op:
        from xs_vlm_ocr_ray.pipelines.training import run_training_pipeline

        t0 = time.perf_counter()
        counts = run_training_pipeline(self.pages_dir)
        wall = time.perf_counter() - t0
        walls = counts.get("stage_walls_s", {})
        samples = {k: [float(v)] for k, v in walls.items()}
        samples["kept_ratio"] = [counts["n_curated"] / counts["n_input"]]
        return Op(wall, counts["n_input"], problems=gate.check_curate(counts, self.ref),
                  samples=samples)


WORKLOADS = {w.name: w for w in (ExtractGiant, StoreReadback, Curate)}
