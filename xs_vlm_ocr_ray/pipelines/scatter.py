"""Giant-document scatter extraction (SURVEY.md §4.2 skew handling /
north_rule: "byte-size-aware block splitting ... so no single actor
stalls the streaming executor").

The flagship path segments giant DOMs *inside* the extracting task
(``HtmlExtractor.segment_bytes``) — bounded memory, but one task still
pays the whole document. This module is the cross-actor variant for
true stragglers (multi-hundred-MB DOMs):

1. ``_SplitStage`` (task, fuses with the reader): documents over
   ``threshold_bytes`` are split at scanner-neutral cut points
   (``split_html`` — exact: concat of segment extractions equals the
   whole-document extraction) into one row per segment; the
   whole-payload content hash is computed here, once;
2. ``_SegmentExtractor`` (ACTOR pool, small ``batch_size``): the pool
   boundary is what scatters — segment rows from one giant document
   land in different bundles and extract on different actors in
   parallel;
3. ordered reassembly: ``groupby`` on a salted assembly key (url for
   multi-segment docs, a unique per-row key for singletons — same
   hot-key-avoidance trick as the dedup pipeline's empty-hash salt),
   in-group sort by ``seg_idx``, span concat, byte-exact text assembly.

Scale note: the reassembly shuffle moves extracted TEXT (output-sized,
not input-sized). A production 100 TB run routes only the >threshold
tail through this pipeline (a cheap byte-length scan decides), so the
shuffle sees a tiny fraction of the corpus; here the whole corpus flows
through for testability.
"""

from __future__ import annotations

import time

import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..extract import ExtractResult, extract_html, split_html
from ..functions.hashing import content_hash_batch
from ..sources.pages import read_pages

ENGINE_ID = "local_html"


class _SplitStage:
    """payload rows → segment rows (1 for small docs, k for giants)."""

    def __init__(self, threshold_bytes: int, segment_bytes: int,
                 prompt: str = "", params: dict | None = None):
        self.threshold = threshold_bytes
        self.segment = segment_bytes
        self.prompt = prompt
        self.params = dict(params or {})

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..stages.extract_stage import binary_views

        # zero-copy views: hashing and the small-doc passthrough never
        # memcpy the payload (pa.array accepts buffer-protocol objects);
        # only the rare giant-doc split materializes bytes
        payloads = binary_views(t["html"])
        hashes = content_hash_batch(payloads, self.prompt, ENGINE_ID, self.params)
        urls = t["url"].to_pylist()
        sids = t["shard_id"].to_pylist()
        rids = t["row_idx"].to_pylist()
        out = {
            "url": [], "asm_key": [], "seg_idx": [], "n_segs": [],
            "seg": [], "content_hash": [], "shard_id": [], "row_idx": [],
        }
        for url, p, h, sid, rid in zip(urls, payloads, hashes, sids, rids):
            if p is not None and len(p) > self.threshold:
                segs = split_html(bytes(p), self.segment)
            else:
                segs = [p]
            n = len(segs)
            # assembly key includes lineage, never url alone: duplicate
            # urls (mirror rows) must NOT have their segments merged
            key = f"~m~{sid}~{rid}" if n > 1 else f"~s~{sid}~{rid}"
            for i, s in enumerate(segs):
                out["url"].append(url)
                out["asm_key"].append(key)
                out["seg_idx"].append(i)
                out["n_segs"].append(n)
                out["seg"].append(s)
                out["content_hash"].append(h)
                out["shard_id"].append(sid)
                out["row_idx"].append(rid)
        return pa.table(
            {
                "url": pa.array(out["url"], pa.string()),
                "asm_key": pa.array(out["asm_key"], pa.string()),
                "seg_idx": pa.array(out["seg_idx"], pa.int32()),
                "n_segs": pa.array(out["n_segs"], pa.int32()),
                "seg": pa.array(out["seg"], pa.binary()),
                "content_hash": pa.array(out["content_hash"], pa.string()),
                "shard_id": pa.array(out["shard_id"], pa.int32()),
                "row_idx": pa.array(out["row_idx"], pa.int64()),
            }
        )


class _SegmentExtractor:
    """Actor-pool kernel: one segment row → its span texts (in-band
    errors). The pool + small batch_size IS the scatter mechanism."""

    def __init__(self):
        extract_html(b"<p>warmup</p>")

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..stages.extract_stage import binary_views

        segs = binary_views(t["seg"])
        n = len(segs)
        success = [False] * n
        error = [""] * n
        span_texts: list[list[str]] = [[]] * n
        ms = [0] * n
        for i, s in enumerate(segs):
            t0 = time.perf_counter_ns()
            r = extract_html(s)
            success[i] = r.success
            error[i] = r.error
            if r.success:
                span_texts[i] = r.span_texts
            ms[i] = (time.perf_counter_ns() - t0) // 1_000_000
        return pa.table(
            {
                "url": t["url"],
                "asm_key": t["asm_key"],
                "seg_idx": t["seg_idx"],
                "n_segs": t["n_segs"],
                "success": pa.array(success, pa.bool_()),
                "error": pa.array(error, pa.string()),
                "span_texts": pa.array(span_texts, pa.list_(pa.string())),
                "processing_ms": pa.array(ms, pa.int64()),
                "content_hash": t["content_hash"],
                "shard_id": t["shard_id"],
                "row_idx": t["row_idx"],
            }
        )


def _assemble_group(df: pd.DataFrame) -> pd.DataFrame:
    """Ordered reassembly of one document's segments (or one singleton)."""
    df = df.sort_values("seg_idx", kind="mergesort")
    first = df.iloc[0]
    ok = bool(df["success"].all())
    if ok:
        texts: list[str] = []
        for st in df["span_texts"]:
            texts.extend(st)
        full = ExtractResult(True, "", texts).full_text
        error = ""
    else:
        full = ""
        error = next(e for e in df["error"] if e)
    return pd.DataFrame(
        {
            "url": [first["url"]],
            "extracted_text": [full],
            "success": [ok],
            "error": [error],
            "engine": [ENGINE_ID],
            "processing_ms": [int(df["processing_ms"].sum())],
            "content_hash": [first["content_hash"]],
            "shard_id": [first["shard_id"]],
            "row_idx": [first["row_idx"]],
            "n_segs": [int(first["n_segs"])],
        }
    )


def build_scatter_extract_ds(
    sf_dir_or_paths,
    threshold_bytes: int = 256 << 10,
    segment_bytes: int = 64 << 10,
    concurrency=(2, 8),
    batch_size: int = 8,
) -> rd.Dataset:
    """Lazy scatter-extraction Dataset (split → pool-scattered extract →
    ordered reassemble)."""
    pages = read_pages(sf_dir_or_paths, columns=["url", "html"])
    segs = pages.map_batches(
        _SplitStage(threshold_bytes, segment_bytes), batch_format="pyarrow"
    )
    extracted = segs.map_batches(
        _SegmentExtractor,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
    return extracted.groupby("asm_key").map_groups(
        _assemble_group, batch_format="pandas"
    )
