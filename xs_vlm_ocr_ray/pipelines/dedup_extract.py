"""Dedup-gated extraction: compute once per content hash (SURVEY.md
D1/J2/T5 — THE key shuffle of the target pipeline).

Reference semantics being reproduced (src/ui/MainWindow.cpp:1421-1439,
1648-1659; src/managers/HistoryManager.cpp:466-508): identical
(payload, prompt, engine, params) is never recomputed — a cache hit
re-emits the cached text with ``processingTimeMs = 0``; a null payload
gets a null hash and is never dedup'd.

Ray-native design (scale notes, 100 TB design point):

- one streaming pass hashes pages and collapses duplicates *within each
  batch* before the shuffle: only the first occurrence of a hash in a
  batch carries its payload across the wire; repeats cross as tiny
  reference rows (hash, url, lineage). Shuffle volume is therefore one
  payload per distinct hash per batch — the partial-reduce rule applied
  to binary payloads;
- the global collapse is a single ``groupby(dedup_key).map_groups``:
  each group extracts ONCE (from any payload-bearing member — payloads
  are identical by hash) and fans the text out to every member row. The
  extraction is the HTML engine's own (``HtmlExtractor``, built once
  per Dataset), so a page larger than its ``segment_bytes`` takes the
  engine's one in-task split path here too;
- empty payloads hash to "" in the output but are salted to singleton
  shuffle keys (``~e~shard~row``) so a 100 TB corpus's millions of empty
  rows do not converge on one hot reducer (skew guard);
- an optional prior-run results directory acts as the second cache tier
  (J2 anti-join made group-local): cached hashes join the same shuffle
  as zero-cost pseudo-rows, and any group containing one skips
  extraction entirely — resume semantics identical to the reference's
  SQLite lookup, made partition-parallel.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..functions.hashing import content_hash_batch
from ..sources.pages import read_pages
from ..stages.extract_stage import HtmlExtractor, binary_views


def _hash_and_collapse(prompt: str, params: dict[str, str] | None):
    """Stateless kernel: append hashes; null out payloads of within-batch
    duplicate rows (the pre-shuffle partial collapse)."""

    def fn(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        payloads = binary_views(t["html"])  # zero-copy: hash without memcpy
        hashes = content_hash_batch(payloads, prompt, HtmlExtractor.ENGINE_ID, params)
        sids = t["shard_id"].to_pylist()
        rids = t["row_idx"].to_pylist()
        seen: set[str] = set()
        keep_payload: list[bool] = []
        keys: list[str] = []
        for i, h in enumerate(hashes):
            if not h:  # empty payload → singleton salted key, no dedup
                keys.append(f"~e~{sids[i]}~{rids[i]}")
                keep_payload.append(True)
                continue
            keys.append(h)
            if h in seen:
                keep_payload.append(False)  # payload crosses once per batch
            else:
                seen.add(h)
                keep_payload.append(True)
        n = len(hashes)
        # null out duplicate payloads IN Arrow (no Python round-trip of
        # the kept payload bytes)
        html_col = pc.if_else(
            pa.array(keep_payload, pa.bool_()),
            t["html"],
            pa.scalar(None, t["html"].type),
        )
        return pa.table(
            {
                "dedup_key": pa.array(keys, pa.string()),
                "content_hash": pa.array(hashes, pa.string()),
                "url": t["url"],
                "shard_id": t["shard_id"],
                "row_idx": t["row_idx"],
                "html": html_col,
                "kind": pa.array(["row"] * n, pa.string()),
                "cached_text": pa.array([None] * n, pa.large_string()),
                "cached_success": pa.array([None] * n, pa.bool_()),
                "cached_error": pa.array([None] * n, pa.string()),
            }
        )

    return fn


def _cache_rows(cache_results_dir: str) -> rd.Dataset:
    """Prior-run results → zero-cost pseudo-rows joining the shuffle.
    Only successful rows are cache-eligible (the reference caches
    ``WHERE success=1``, HistoryManager.cpp:482)."""
    cols = ["content_hash", "extracted_text", "success", "error"]
    if os.path.isdir(os.path.join(cache_results_dir, "manifest")):
        # a real run_extract store: read via the manifest — the store
        # root holds non-parquet manifest JSONs a raw read_parquet
        # would choke on, and a crashed-then-resumed store holds
        # superseded wave files only the manifest knows to exclude
        from .extract import read_results

        cache = read_results(cache_results_dir, columns=cols)
    else:
        cache = rd.read_parquet(cache_results_dir, columns=cols)

    def fn(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.and_(t["success"], pc.not_equal(t["content_hash"], ""))
        t = t.filter(mask)
        n = t.num_rows
        return pa.table(
            {
                "dedup_key": t["content_hash"],
                "content_hash": t["content_hash"],
                "url": pa.array([""] * n, pa.string()),
                "shard_id": pa.array([-1] * n, pa.int32()),
                "row_idx": pa.array([-1] * n, pa.int64()),
                "html": pa.array([None] * n, pa.binary()),
                "kind": pa.array(["cache"] * n, pa.string()),
                "cached_text": t["extracted_text"].cast(pa.large_string()),
                "cached_success": t["success"],
                "cached_error": t["error"],
            }
        )

    return cache.map_batches(fn, batch_format="pyarrow")


def _extract_group(df: pd.DataFrame, engine: HtmlExtractor) -> pd.DataFrame:
    """One hash group → one result row per member url.

    Extraction happens at most once, through ``engine`` on the keeper's
    payload; cache rows short-circuit it."""
    rows = df[df["kind"] == "row"]
    if rows.empty:  # pure-cache group (hash absent from this run's input)
        # TYPED empty: pd.DataFrame(columns=...) makes every column
        # object dtype, which Arrow converts to null-typed blocks that
        # fail schema unification against real groups' typed blocks
        return pd.DataFrame(
            {c: pd.Series([], dtype=t) for c, t in _RESULT_DTYPES.items()}
        )
    cache = df[df["kind"] == "cache"]
    # deterministic keeper: min (shard_id, row_idx) among real rows
    rows = rows.sort_values(["shard_id", "row_idx"], kind="mergesort")
    from_cache = not cache.empty
    if from_cache:
        text = cache.iloc[0]["cached_text"] or ""
        success = bool(cache.iloc[0]["cached_success"])
        error = cache.iloc[0]["cached_error"] or ""
        ms = 0
    else:
        # any payload-bearing member will do: payloads are identical by hash
        payload = next((p for p in rows["html"] if p is not None and len(p) > 0), None)
        keeper = pa.table(
            {
                "url": pa.array([rows["url"].iloc[0]], pa.string()),
                "html": pa.array([payload], pa.binary()),
            }
        )
        r = engine(keeper).to_pylist()[0]
        text, success, error = r["extracted_text"], r["success"], r["error"]
        ms = r["processing_ms"]
    out = {
        "url": rows["url"].to_numpy(),
        "extracted_text": [text] * len(rows),
        "success": [success] * len(rows),
        "error": [error] * len(rows),
        "engine": [HtmlExtractor.ENGINE_ID] * len(rows),
        # keeper pays the compute; every other member is a hit at 0 ms
        "processing_ms": [ms] + [0] * (len(rows) - 1),
        "content_hash": rows["content_hash"].to_numpy(),
        "shard_id": rows["shard_id"].to_numpy(),
        "row_idx": rows["row_idx"].to_numpy(),
        "dedup_hit": [from_cache] + [True] * (len(rows) - 1),
        "from_cache": [from_cache] * len(rows),
    }
    return pd.DataFrame(out)


# one name->pandas-dtype map: both the column order contract and the
# typed-empty schema for pure-cache groups derive from it
_RESULT_DTYPES = {
    "url": "object",
    "extracted_text": "object",
    "success": "bool",
    "error": "object",
    "engine": "object",
    "processing_ms": "int64",
    "content_hash": "object",
    "shard_id": "int32",
    "row_idx": "int64",
    "dedup_hit": "bool",
    "from_cache": "bool",
}


def build_dedup_extract_ds(
    sf_dir_or_paths,
    prompt: str = "",
    params: dict[str, str] | None = None,
    cache_results_dir: str | None = None,
) -> rd.Dataset:
    """Lazy dedup-gated extraction Dataset over a pages corpus."""
    pages = read_pages(sf_dir_or_paths, columns=["url", "html"])
    hashed = pages.map_batches(
        _hash_and_collapse(prompt, params), batch_format="pyarrow"
    )
    if cache_results_dir is not None:
        hashed = hashed.union(_cache_rows(cache_results_dir))
    # one HTML engine for every group: the keeper payload takes the
    # engine's own per-row path, giant-document split included
    engine = HtmlExtractor(prompt, params, emit_spans=False)
    return hashed.groupby("dedup_key").map_groups(
        _extract_group, batch_format="pandas", fn_kwargs={"engine": engine}
    )
