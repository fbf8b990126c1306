"""The traced run: every layer of a workload called in pipeline order,
in this one process, without Ray, with a span per call. The exception is
``store_readback``, whose reads go through the public read API (and so
through Ray); its layer figures are taken at the file-selection step.

Spans are recorded from the benchmark's side of each layer boundary:
the kernels the pipeline hands to ``map_batches`` are called directly,
and the functions those kernels call through their module globals
(``extract_html``, ``split_html``, ``spans_column``, …) are wrapped for
the duration of the pass. Each span holds its name, parent, shard id,
and both wall (``perf_counter_ns``) and CPU (``thread_time_ns``) stamps.
Spans stay in memory and are written to one JSON file at the end; the
metrics are self times (a span minus its children) summed per layer,
plus counts taken at the same boundaries.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq

from . import gate

# span name -> (self-CPU metric, self-wall metric)
LAYERS = {
    "pages.read": ("pages.read_cpu_ms", "pages.read_wall_ms"),
    "classify": ("classify.cpu_ms", "classify.wall_ms"),
    "extract_stage": ("extract_stage.cpu_ms", "extract_stage.wall_ms"),
    "extract.scan": ("extract.scan_cpu_ms", "extract.scan_wall_ms"),
    "extract.split": ("extract.split_cpu_ms", "extract.split_wall_ms"),
    "extract_stage.assemble": ("extract_stage.assemble_cpu_ms", "extract_stage.assemble_wall_ms"),
    "extract_stage.spans": ("extract_stage.spans_cpu_ms", "extract_stage.spans_wall_ms"),
    "hashing": ("hashing.cpu_ms", "hashing.wall_ms"),
    "writer": ("writer.cpu_ms", "writer.wall_ms"),
    "manifest": ("manifest.cpu_ms", "manifest.write_ms"),
    "training.annotate": ("training.text_hash_cpu_ms", "training.text_hash_wall_ms"),
    "textstats.annotate": ("textstats.annotate_cpu_ms", "textstats.annotate_wall_ms"),
    "store.decode": ("store.decode_cpu_ms", "store.decode_wall_ms"),
}
COUNTS = (
    "pages.bytes_in",
    "extract.docs", "extract.spans", "extract.errors",
    "extract.over_limit_docs", "extract.segments", "extract.unsplit_over_limit",
    "writer.bytes_out", "writer.text_bytes", "writer.spans_bytes",
    "manifest.records",
)
READ_KINDS = ("scan", "scan_spans", "lookup", "range", "recent")
STORE_METRICS = tuple(
    f"store.{k}.{m}" for k in READ_KINDS
    for m in ("files_opened", "bytes_read", "rows_returned_ratio")
)
# untraced per-read-kind walls (store_readback) and curation stage walls
READ_WALLS = {
    "scan": "read.scan_s", "scan_spans": "read.scan_spans_s",
    "lookup": "read.lookup_ms", "range": "read.range_s", "recent": "read.recent_s",
}
TRAINING = ("training.stage1_s", "training.election_s", "training.filter_s", "training.kept_ratio")
# spans every traced pass of a workload must record; one that is absent
# means a hook no longer sits on the path the pipeline takes
EXPECTED_SPANS = {
    "extract_giant": ("pages.read", "classify", "extract_stage", "extract.scan",
                      "extract.split", "extract_stage.assemble", "extract_stage.spans",
                      "hashing", "writer", "manifest"),
    "store_readback": ("store.decode",),
    "curate": ("pages.read", "classify", "extract_stage", "extract.scan",
               "training.annotate", "textstats.annotate"),
}
SUMMARY = (
    "attributed_ratio", "executor.residual_s",
    "trace.attributed_cpu_s", "trace.traced_wall_s", "trace.untraced_wall_s",
)


def metric_names() -> list[str]:
    """Every per-layer metric the traced run prints, in print order."""
    names = [m for pair in LAYERS.values() for m in pair]
    return [*names, *COUNTS, *STORE_METRICS, *READ_WALLS.values(), *TRAINING, *SUMMARY]


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "ratio" if name.endswith("ratio") else "count"


class Tracer:
    """In-memory span recorder; ``wrap`` patches a module attribute."""

    def __init__(self):
        # [id, parent, name, shard, wall0, wall1, cpu0, cpu1]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.shard = -1
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def begin(self, name: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else -1, name,
               self.shard, time.perf_counter_ns(), 0, time.thread_time_ns(), 0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def end(self, rec: list) -> None:
        rec[5] = time.perf_counter_ns()
        rec[7] = time.thread_time_ns()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        rec = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(rec)

    def wrap(self, module, attr: str, name: str | None, on_result=None) -> None:
        """Until ``restore``, record a span named ``name`` around every
        call of ``module.attr`` (``None``: only ``on_result`` runs). A
        hook whose target is gone is noted in ``missing``."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            if name is None:
                out = orig(*args, **kwargs)
            else:
                rec = self.begin(name)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    self.end(rec)
            if on_result is not None:
                on_result(args, out)
            return out

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Per span name: (self CPU ns, self wall ns), children excluded."""
        child_cpu: Counter = Counter()
        child_wall: Counter = Counter()
        for s in self.spans:
            if s[1] >= 0:
                child_wall[s[1]] += s[5] - s[4]
                child_cpu[s[1]] += s[7] - s[6]
        out: dict[str, list[int]] = {}
        for s in self.spans:
            acc = out.setdefault(s[2], [0, 0])
            acc[0] += (s[7] - s[6]) - child_cpu[s[0]]
            acc[1] += (s[5] - s[4]) - child_wall[s[0]]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("id", "parent", "name", "shard", "wall0_ns", "wall1_ns", "cpu0_ns", "cpu1_ns")
        with open(path, "w") as f:
            json.dump({**meta, "missing_hooks": self.missing, "fields": keys,
                       "spans": self.spans}, f)


def _install_extract_hooks(tr: Tracer) -> None:
    from xs_vlm_ocr_ray.stages import extract_stage

    def on_scan(args, r):
        tr.counts["extract.spans"] += len(r.span_texts)

    def on_split(args, segs):
        payload, max_bytes = args[0], args[1]
        if len(payload) > max_bytes:
            tr.counts["extract.over_limit_docs"] += 1
            tr.counts["extract.unsplit_over_limit"] += len(segs) == 1
        tr.counts["extract.segments"] += len(segs)

    tr.wrap(extract_stage, "extract_html", "extract.scan", on_scan)
    tr.wrap(extract_stage, "split_html", "extract.split", on_split)
    tr.wrap(extract_stage, "_assemble", "extract_stage.assemble")
    tr.wrap(extract_stage, "spans_column", "extract_stage.spans")
    tr.wrap(extract_stage, "content_hash_batch", "hashing")


def _shard_batches(tr: Tracer, pages_dir: str):
    """pages.read per shard: the lineage reader kernel over the shard's
    row-group work items. Yields (shard id, batches)."""
    from xs_vlm_ocr_ray.sources.pages import _RowGroupReader, list_shards, shard_work_items

    paths = list_shards(pages_dir)
    items = shard_work_items(paths)
    reader = _RowGroupReader(["url", "html"], 2048)
    for shard_id in range(len(paths)):
        tr.shard = shard_id
        mine = pa.Table.from_pylist([it for it in items if it["shard_id"] == shard_id])
        batches = tr.call("pages.read", lambda: list(reader(mine)))
        tr.counts["pages.bytes_in"] += sum(b.nbytes for b in batches)
        yield shard_id, batches
    tr.shard = -1


def _extract_pass(tr: Tracer, pages_dir: str, out_dir: str, engine_kwargs: dict) -> list[pa.Table]:
    """run_extract's per-shard chain (read → classify → extract → write)
    then the manifest, as one wave."""
    from xs_vlm_ocr_ray.pipelines import extract as pe
    from xs_vlm_ocr_ray.sources.pages import list_shards
    from xs_vlm_ocr_ray.stages.classify import classify_payload_kind
    from xs_vlm_ocr_ray.stages.extract_stage import HtmlExtractor

    engine = HtmlExtractor(**engine_kwargs)
    results_dir = os.path.join(out_dir, "results")
    tmp_dir = os.path.join(results_dir, ".tmp-wave-trace")
    os.makedirs(tmp_dir, exist_ok=True)
    writer = pe._ShardWriter(tmp_dir)
    _install_extract_hooks(tr)

    def on_record(args, _):
        tr.counts["manifest.records"] += 1

    tr.wrap(pe, "write_shard_record", None, on_record)
    outputs, stats = [], []
    t_wave = time.perf_counter()
    for _, batches in _shard_batches(tr, pages_dir):
        for b in batches:
            b = tr.call("classify", classify_payload_kind, b)
            tr.counts["extract.docs"] += b.num_rows
            out = tr.call("extract_stage", engine, b)
            tr.counts["extract.errors"] += out.num_rows - sum(out["success"].to_pylist())
            tr.counts["writer.text_bytes"] += out["extracted_text"].nbytes
            if "spans" in out.column_names:
                tr.counts["writer.spans_bytes"] += out["spans"].nbytes
            stats.append(tr.call("writer", writer, out))
            outputs.append(out.select(["url", "extracted_text", "success"]))
    tr.counts["writer.bytes_out"] += sum(
        e.stat().st_size for e in os.scandir(tmp_dir) if e.is_file()
    )
    wave_dir = os.path.join(results_dir, "wave-trace")
    os.replace(tmp_dir, wave_dir)
    paths = list_shards(pages_dir)
    partials = pa.concat_tables(stats).to_pandas()
    tr.call(
        "manifest", pe._manifest_from_partials, out_dir, wave_dir, paths,
        time.perf_counter() - t_wave, partials, list(range(len(paths))),
    )
    return outputs


def _curate_pass(tr: Tracer, pages_dir: str) -> None:
    """The training pipeline's stage 1 up to annotate: read → classify →
    routed extract (no spans) → annotate (+ text hash)."""
    from xs_vlm_ocr_ray.pipelines import training
    from xs_vlm_ocr_ray.pipelines.routed import RoutedExtractor
    from xs_vlm_ocr_ray.stages.classify import classify_payload_kind

    engine = RoutedExtractor(emit_spans=False)
    _install_extract_hooks(tr)
    tr.wrap(training, "annotate_batch", "textstats.annotate")
    for _, batches in _shard_batches(tr, pages_dir):
        for b in batches:
            b = tr.call("classify", classify_payload_kind, b)
            tr.counts["extract.docs"] += b.num_rows
            out = tr.call("extract_stage", engine, b)
            tr.counts["extract.errors"] += out.num_rows - sum(out["success"].to_pylist())
            tr.call("training.annotate", training._annotate, out)


def _store_pass(tr: Tracer, reads: list) -> dict:
    """Per read kind: the files the manifest-pruned plan opens (captured
    at ``select_result_files``), their column-chunk bytes and rows, the
    share of those rows the read returns, and a single-process decode
    of the same files and columns."""
    from xs_vlm_ocr_ray.pipelines import extract as pe

    opened: list[list[str]] = []
    tr.wrap(pe, "select_result_files", None,
            lambda args, files: opened.append(list(files)))
    out: dict[str, float] = {}
    for kind, columns, run in reads:
        opened.clear()
        rows_returned = run()
        files = [f for fs in opened for f in fs]
        nbytes = rows_in = 0
        for path in files:
            md = pq.read_metadata(path)
            rows_in += md.num_rows
            for rg in range(md.num_row_groups):
                g = md.row_group(rg)
                for c in range(g.num_columns):
                    col = g.column(c)
                    if columns is None or col.path_in_schema.split(".")[0] in columns:
                        nbytes += col.total_compressed_size
        if files:
            # in the calling thread, so thread CPU covers the decode
            tr.call("store.decode", pq.read_table, files, use_threads=False,
                    columns=None if columns is None else list(columns))
        out[f"store.{kind}.files_opened"] = len(files)
        out[f"store.{kind}.bytes_read"] = nbytes
        out[f"store.{kind}.rows_returned_ratio"] = rows_returned / rows_in if rows_in else 0.0
    return out


def run_traced(workload, untraced_wall_s: float, untraced_extra: dict, spans_path: str) -> tuple[dict, list[str]]:
    """The traced pass for ``workload``; returns (metrics, problems)."""
    tr = Tracer()
    metrics = {name: 0.0 for name in metric_names()}
    problems: list[str] = []
    trace_dir = os.path.join(workload.work_dir, "trace-store")
    shutil.rmtree(trace_dir, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        if workload.name == "extract_giant":
            outputs = _extract_pass(tr, workload.pages_dir, trace_dir, workload.engine_kwargs)
            problems += gate.check_rows(
                pa.concat_tables(outputs), workload.ref, set(workload.ref.rows), "traced pass"
            )
        elif workload.name == "curate":
            _curate_pass(tr, workload.pages_dir)
        else:
            metrics.update(_store_pass(tr, workload.traced_reads()))
    finally:
        tr.restore()
        shutil.rmtree(trace_dir, ignore_errors=True)
    traced_wall = time.perf_counter() - t0
    selfs = tr.self_times()
    problems += [f"traced pass: hook target {m} is gone" for m in tr.missing]
    problems += [f"traced pass: no {name} span was recorded"
                 for name in EXPECTED_SPANS[workload.name] if name not in selfs]
    attributed_ns = 0
    for span, (cpu_name, wall_name) in LAYERS.items():
        cpu_ns, wall_ns = selfs.get(span, (0, 0))
        attributed_ns += cpu_ns
        metrics[cpu_name] = cpu_ns / 1e6
        metrics[wall_name] = wall_ns / 1e6
    for name in COUNTS:
        metrics[name] = float(tr.counts[name])
    for kind, name in READ_WALLS.items():
        if kind in untraced_extra:
            scale = 1e3 if name.endswith("_ms") else 1.0
            metrics[name] = untraced_extra[kind] * scale
    for name in TRAINING:
        key = name.split(".", 1)[1]
        if key in untraced_extra:
            metrics[name] = untraced_extra[key]
    attributed = attributed_ns / 1e9
    metrics["trace.attributed_cpu_s"] = attributed
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall_s
    metrics["attributed_ratio"] = attributed / untraced_wall_s if untraced_wall_s else 0.0
    metrics["executor.residual_s"] = untraced_wall_s - attributed
    tr.dump(spans_path, {"workload": workload.name, "seed": workload.seed,
                         "self_ns": selfs, "counts": dict(tr.counts)})
    return metrics, problems
