"""End-to-end training-data pipeline: the composite a Common-Crawl
curation run actually executes, built entirely from this engine's
stages — the concrete "switch from the reference" story:

    read pages (lineage)                         streaming
      → classify + routed dual-engine extract    one fused pass
      → annotate: language-ID, quality score,    vectorized kernels
        token counts, rolling fingerprint
      → filter: success ∧ quality ≥ τ ∧ length   in-band, counted
      → exact dedup on extracted-text hash       THE hash shuffle
      → write curated parquet + stats            partitioned

One shuffle total (the dedup groupby, moving already-filtered,
already-extracted text — a fraction of input bytes); everything else is
map-fused streaming. Counts of dropped rows at every gate are returned
(no silent truncation).
"""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..functions.textstats import annotate_batch
from .routed import build_routed_extract_ds

# Winner-set broadcast cap for the dedup election (int64 keys; 5M ≈
# 40 MB in the object store). Above this the winner join falls back to
# a hash-shuffle semi-join.
_WINNER_BROADCAST_LIMIT = 5_000_000

# The columns the election (text_hash, _order) and the curated output
# actually need. Stage 1 also produces error/processing_ms/content_hash
# — required by the durable wave writer's manifest stats on the
# resumable path, dead weight in the dedup checkpoint (error is "" and
# success True on every post-filter row; content_hash is the INPUT
# payload hash, unused once text_hash exists). The in-memory path
# projects them out before ``materialize()``; the resumable path prunes
# them at the stage-1 parquet read (column pruning, free).
_ELECTION_COLUMNS = (
    "url", "extracted_text", "success", "engine", "lang_pred",
    "quality", "n_tokens", "text_hash", "shard_id", "row_idx", "_order",
)


def _annotate(t: pa.Table) -> pa.Table:
    # vectorized Arrow kernels for lang/quality/tokens (the per-doc
    # Python loops were ~75% of this stage's CPU — see
    # functions/textstats.annotate_batch, pytest-gated byte-compatible
    # with the per-doc reference kernels); md5 stays a per-doc loop BY
    # MEASUREMENT: OpenSSL md5 at ~420 MB/s/core incl. the utf-8
    # encode beats pandas' vectorized hash on the same docs (~2×), no
    # Arrow md5 kernel exists, and the stage share is ~5% (see
    # stages/dedup.add_text_hash for the numbers)
    ann = annotate_batch(t["extracted_text"])
    md5 = hashlib.md5
    thash = [
        md5((x or "").encode("utf-8")).hexdigest()
        for x in t["extracted_text"].to_pylist()
    ]
    return (
        t.append_column("lang_pred", pa.array(ann["lang_pred"], pa.string()))
        .append_column("quality", pa.array(ann["quality"], pa.float64()))
        .append_column("n_tokens", pa.array(ann["n_tokens"], pa.int64()))
        .append_column("text_hash", pa.array(thash, pa.string()))
    )


def add_lineage_order(t: pa.Table) -> pa.Table:
    """Append the globally-unique ``_order`` lineage key:
    ``shard_id * 2^44 + row_idx`` (row_idx < 2^44 per shard). ONE
    definition — stage 1 and the stage-3 rebuild must encode
    identically or winner election runs on mismatched keys."""
    import pyarrow.compute as pc

    order = pc.add(
        pc.multiply(pc.cast(t["shard_id"], pa.int64()), pa.scalar(1 << 44, pa.int64())),
        t["row_idx"],
    )
    return t.append_column("_order", order)


def build_filtered_ds(
    sf_dir_or_paths,
    min_quality: float = 0.5,
    min_tokens: int = 20,
    skip_shards=frozenset(),
    blocklist=None,
) -> rd.Dataset:
    """Stage 1 of the curation run: [domain blocklist →] routed extract
    → annotate → quality/length filter → within-batch collapse →
    lineage order key. Pure per-shard map chain (no shuffle) — which is
    what makes it checkpointable with the flagship's wave/manifest
    machinery (``run_training_pipeline`` with ``out_dir``)."""
    import pyarrow.compute as pc

    ds = build_routed_extract_ds(
        sf_dir_or_paths, emit_spans=False, skip_shards=skip_shards,
        blocklist=blocklist,
    )
    ds = ds.map_batches(_annotate, batch_format="pyarrow")

    def keep(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(t["success"], pc.greater_equal(t["quality"], min_quality)),
            pc.greater_equal(t["n_tokens"], min_tokens),
        )
        return t.filter(mask)

    filtered = ds.map_batches(keep, batch_format="pyarrow")

    def within_batch(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["shard_id", "row_idx"], kind="mergesort").drop_duplicates(
            "text_hash", keep="first"
        )

    return filtered.map_batches(within_batch, batch_format="pandas").map_batches(
        add_lineage_order, batch_format="pyarrow"
    )


def build_training_ds(
    sf_dir_or_paths,
    min_quality: float = 0.5,
    min_tokens: int = 20,
    max_per_domain: int | None = None,
    blocklist=None,
    stage_walls: dict | None = None,
) -> rd.Dataset:
    """Lazy curated-dataset pipeline ([blocklist →] filter → dedup
    keeps min-lineage row per distinct extracted text → optional
    per-site sampling cap).

    ``stage_walls``, if given, receives the eager stages' wall times
    (``stage1_s`` = filter chain + checkpoint, ``election_s``) — the
    ONE copy of this plan serves both the lazy query surface and the
    benched ``run_training_pipeline`` path, so a stage added here is
    automatically what the pipeline executes and times."""
    import time

    # exact dedup, deterministic keeper = min (shard_id, row_idx) per
    # distinct text. The naive plan — groupby(text_hash).map_groups over
    # the full rows — SORT-shuffles every extracted text through the
    # exchange (measured: ~2/3 of end-to-end wall at sf0.1). Instead:
    #
    #   1. within-batch collapse (one row per hash per batch),
    #   2. checkpoint the filtered rows ONCE (materialize → object
    #      store, spills to disk at scale; strictly cheaper than a
    #      sort all-to-all of the same bytes, and it makes the two
    #      consumers below share one execution instead of re-running
    #      extraction per consumer),
    #   3. winner election on the SMALL columns only: per-batch partial
    #      min → groupby(text_hash).Min over an encoded
    #      (shard_id, row_idx) order key — the shuffle moves one tiny
    #      row per distinct hash per batch, never the text,
    #   4. winners broadcast (ray.put, one int64 per curated row) into
    #      a streaming is_in filter over the checkpoint.
    #
    # The broadcast is bounded by ``_WINNER_BROADCAST_LIMIT``; above it
    # (≈ >40 MB of winner keys) the election result is joined back with
    # a hash-shuffle semi-join on the order key instead — still only
    # one full-data exchange of PRE-DEDUPED rows, the strict worst case
    # the old plan always paid.
    t0 = time.perf_counter()
    pre = build_filtered_ds(
        sf_dir_or_paths, min_quality, min_tokens, blocklist=blocklist
    ).select_columns(list(_ELECTION_COLUMNS))
    mat = pre.materialize()
    if stage_walls is not None:
        stage_walls["stage1_s"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    out = dedup_by_winner(mat)  # election runs eagerly in here
    if stage_walls is not None:
        stage_walls["election_s"] = round(time.perf_counter() - t0, 3)
    if max_per_domain is not None:
        # per-site sampling cap AFTER dedup (caps apply to distinct
        # content; the cap keeps the min-lineage rows per domain)
        from ..functions.urls import cap_per_domain

        out = cap_per_domain(out, max_per_domain)
    return out


def dedup_by_winner(mat: rd.Dataset) -> rd.Dataset:
    """Stage 2: winner election + filter over a (checkpointed) stage-1
    dataset carrying ``text_hash`` and ``_order`` columns — a thin
    wrapper over the shared election tail in stages/dedup.py."""
    from ..stages.dedup import elect_and_filter_winners

    return elect_and_filter_winners(
        mat, key="text_hash", order_col="_order",
        broadcast_limit=_WINNER_BROADCAST_LIMIT, drop_cols=("_order",),
    )


def _count_marked(marked: rd.Dataset) -> tuple[int, int]:
    """One streaming pass over a decontaminate(mark_only=True) output:
    (total rows, contaminated rows) via a per-batch partial reduce."""
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        c = pc.sum(pc.cast(t["contaminated"], pa.int64())).as_py() or 0
        return pa.table(
            {
                "n": pa.array([t.num_rows], pa.int64()),
                "c": pa.array([int(c)], pa.int64()),
            }
        )

    df = marked.map_batches(partial, batch_format="pyarrow").to_pandas()
    if df.empty:
        return 0, 0
    return int(df["n"].sum()), int(df["c"].sum())


def _quality_quantiles(ds: rd.Dataset) -> dict:
    """p50/p90/p99 of the curated quality score — distributed
    approximate quantiles (stages/sketch.approx_quantiles, ≤1-bucket
    value error, only tiny histograms cross the wire). None on an
    empty curated set."""
    import math

    from ..stages.sketch import approx_quantiles

    vals = approx_quantiles(ds, "quality", qs=(0.5, 0.9, 0.99))
    return {
        k: (None if math.isnan(v) else round(float(v), 6))
        for k, v in zip(("p50", "p90", "p99"), vals)
    }


def _count_blocked(sf_dir_or_paths, blocklist, total: int) -> int:
    """Blocklist gate count from a column-pruned url-only pass (never
    re-runs extraction): input rows minus rows surviving the filter."""
    from ..functions.urls import filter_domains
    from ..sources.pages import read_pages

    survivors = filter_domains(
        read_pages(sf_dir_or_paths, columns=["url"]), blocklist
    ).count()
    return total - survivors


def run_training_pipeline(
    sf_dir_or_paths,
    out_dir: str | None = None,
    min_quality: float = 0.5,
    min_tokens: int = 20,
    resume: bool = True,
    wave_shards: int | None = None,
    near_dedup: bool = False,
    max_per_domain: int | None = None,
    blocklist=None,
    decontam_texts=None,
    decontam_threshold: float = 0.5,
    decontam_mode: str = "drop",
    quality_stats: bool = False,
) -> dict:
    """Execute the curation run. Returns gate counts (``n_blocked`` /
    ``n_contaminated`` appear whenever their gate is enabled — no
    silent drops) and, on the in-memory path, per-stage wall times
    (``stage_walls_s``) so the bench artifact can attribute a slow run
    to a stage instead of guessing.

    ``quality_stats``: adds ``quality_quantiles`` (p50/p90/p99 of the
    curated quality score via ``stages.sketch.approx_quantiles`` —
    mergeable histograms, nothing but tiny summaries cross the wire) —
    the observability a curator needs to tune ``min_quality`` without
    collecting the corpus. Opt-in: it costs one extra streaming pass
    over the curated output.

    Optional curation gates a 100 TB run cannot skip:

    - ``blocklist``: domain blocklist applied BEFORE extraction
      (blocked pages never pay extraction; changing the blocklist
      between resumed runs only affects not-yet-processed shards —
      re-run without resume for a uniform policy);
    - ``decontam_texts`` + ``decontam_mode``: benchmark
      decontamination over the curated output (``stages.dedup.
      decontaminate``, containment ≥ ``decontam_threshold``) — "drop"
      removes contaminated docs, "mark" keeps them with
      ``contamination``/``contaminated`` audit columns.

    Without ``out_dir``: in-memory (object-store checkpoint) — the
    bench/query path.

    With ``out_dir``: RESUMABLE two-stage run, the 100 TB shape:

    - stage 1 (``out_dir/stage1``): the per-shard map chain
      (extract→annotate→filter→collapse) checkpointed through the
      flagship's wave/manifest machinery — a crashed run resumes and
      processes only the pending shards, exactly like ``run_extract``;
    - stage 2 (``out_dir/curated``): winner election + filter reading
      the stage-1 store — cheap, derived, idempotently rebuilt on every
      call (its input is durable, so rerunning after a crash is free of
      extraction cost).
    """
    import os
    import time

    from ..sources.pages import read_pages

    if decontam_mode not in ("drop", "mark"):
        raise ValueError(f"decontam_mode must be 'drop' or 'mark' (got {decontam_mode!r})")
    if near_dedup and out_dir is None:
        # stage 3 reads the curated store under out_dir; the in-memory
        # path has no store to read
        raise ValueError("near_dedup=True needs out_dir (stage 3 runs over the curated store)")

    # input count from a column-pruned read — never re-run extraction
    # just to count its input
    total = read_pages(sf_dir_or_paths, columns=["url"]).count()
    gates: dict = {}
    if blocklist is not None and out_dir is None:
        gates["n_blocked"] = _count_blocked(sf_dir_or_paths, blocklist, total)

    if out_dir is None:
        # ONE copy of the plan: build_training_ds is what executes —
        # stages added there are automatically run (and timed) here
        walls: dict[str, float] = {}
        out = build_training_ds(
            sf_dir_or_paths, min_quality, min_tokens,
            max_per_domain=max_per_domain, blocklist=blocklist,
            stage_walls=walls,
        )
        t0 = time.perf_counter()
        if decontam_texts is None:
            final_ds = out
            kept = out.count()
            walls["filter_s"] = round(time.perf_counter() - t0, 3)
        else:
            import pyarrow.compute as pc

            from ..stages.dedup import decontaminate

            marked = decontaminate(
                out, decontam_texts, threshold=decontam_threshold,
                text_col="extracted_text", mark_only=True,
            )
            n_all, n_cont = _count_marked(marked)
            walls["filter_s"] = round(time.perf_counter() - t0, 3)
            gates["n_contaminated"] = n_cont
            kept = n_all - n_cont if decontam_mode == "drop" else n_all
            final_ds = (
                marked
                if decontam_mode == "mark"
                else marked.map_batches(
                    lambda t: t.filter(pc.invert(t["contaminated"])),
                    batch_format="pyarrow",
                )
            )
        if quality_stats:
            gates["quality_quantiles"] = _quality_quantiles(final_ds)
        return {
            "n_input": total,
            "n_curated": kept,
            "n_dropped": total - kept,
            "stage_walls_s": walls,
            **gates,
        }

    from ..sources.pages import list_shards
    from ..state.manifest import completed_shards
    from .extract import read_results, run_extract

    out_dir = os.path.abspath(out_dir)
    stage1 = os.path.join(out_dir, "stage1")

    if blocklist is not None:
        # n_blocked = rows THIS invocation gated: on a resumed run only
        # the pending shards pass through the blocklist filter —
        # counting the whole input would overstate what this run
        # blocked (already-manifested shards were gated, and counted,
        # by the run that processed them)
        # list_shards handles dir/file/list inputs and SORTS — shard ids
        # here must agree with run_extract's (sorted) indexing, so never
        # enumerate a caller-ordered list directly
        paths = list_shards(sf_dir_or_paths)
        done = completed_shards(stage1) if resume else set()
        pending = [p for i, p in enumerate(paths) if i not in done]
        if pending:
            p_total = read_pages(pending, columns=["url"]).count()
            gates["n_blocked"] = _count_blocked(pending, blocklist, p_total)
        else:
            gates["n_blocked"] = 0

    def builder(paths, skip):
        return build_filtered_ds(
            paths, min_quality, min_tokens, skip_shards=skip,
            blocklist=blocklist,
        )

    s1 = run_extract(
        sf_dir_or_paths, stage1, resume=resume, wave_shards=wave_shards,
        ds_builder=builder,
    )

    curated_dir = os.path.join(out_dir, "curated")
    import shutil

    # stage 2 is derived state: rebuild it whole (overwrite semantics —
    # stale files from a previous run's UUID names must not survive)
    shutil.rmtree(curated_dir, ignore_errors=True)
    if s1["rows"] == 0:
        # every row filtered: the stage-1 store has no parquet files to
        # read back (zero-row shards are manifest-only) — the run is
        # complete with an empty curated set, not an error
        os.makedirs(curated_dir, exist_ok=True)
        kept = 0
    else:
        curated = dedup_by_winner(
            read_results(stage1, columns=list(_ELECTION_COLUMNS))
        )
        if max_per_domain is not None:
            from ..functions.urls import cap_per_domain

            curated = cap_per_domain(curated, max_per_domain)
        if decontam_texts is not None:
            import pyarrow.compute as pc

            from ..stages.dedup import decontaminate

            # mark + one bounded materialize (the curated rows about to
            # be written anyway): the gate count and the final filter
            # share one execution of the election/filter upstream
            marked = decontaminate(
                curated, decontam_texts, threshold=decontam_threshold,
                text_col="extracted_text", mark_only=True,
            ).materialize()
            _, n_cont = _count_marked(marked)
            gates["n_contaminated"] = n_cont
            if decontam_mode == "drop":
                def drop_marked(t: pa.Table) -> pa.Table:
                    t = t.filter(pc.invert(t["contaminated"]))
                    return t.drop_columns(["contamination", "contaminated"])

                curated = marked.map_batches(drop_marked, batch_format="pyarrow")
            else:
                curated = marked
        curated.write_parquet(curated_dir)
        kept = rd.read_parquet(curated_dir).count()
    if quality_stats:
        gates["quality_quantiles"] = (
            _quality_quantiles(rd.read_parquet(curated_dir))
            if kept
            else {"p50": None, "p90": None, "p99": None}
        )
    out = {
        "n_input": total,
        "n_curated": kept,
        "n_dropped": total - kept,
        "stage1_waves": s1["waves"],
        "stage1_rows": s1["rows"],
        **gates,
    }
    if near_dedup:
        out["n_final"] = _stage3_near_dedup(curated_dir, os.path.join(out_dir, "final"))
    return out


def _stage3_near_dedup(
    curated_dir: str,
    final_dir: str,
    driver_pair_limit: int = 1_000_000,
    broadcast_limit: int = 5_000_000,
) -> int:
    """Optional stage 3: MinHash+LSH near-dup removal over the (exact-
    deduped) curated store — one representative per near-dup CLUSTER
    (min lineage order). Dataset-native end to end: pair generation
    (``lsh_candidate_pairs_ds``), Jaccard verify
    (``verify_pairs_jaccard_ds`` — candidate shingle sets delivered to
    pair rows by tagged reduce-side joins, never a driver dict), then
    size-probed clustering (``drop_neardups_ds``: driver union-find for
    small edge lists, distributed min-label CC above the threshold).
    The curated corpus streams through one filter, never shuffles."""
    import shutil

    from ..stages.dedup import (
        MinHasher,
        drop_neardups_ds,
        lsh_band_rows,
        lsh_candidate_pairs_ds,
        real_pairs_ds,
        verify_pairs_jaccard_ds,
    )

    curated = rd.read_parquet(curated_dir)
    docs = curated.select_columns(["_order", "extracted_text"]) if (
        "_order" in curated.schema().names
    ) else None
    # curated rows dropped _order; rebuild the unique lineage key
    if docs is None:
        curated = curated.map_batches(add_lineage_order, batch_format="pyarrow")
        docs = curated.select_columns(["_order", "extracted_text"])
    docs = docs.materialize()  # consumed twice: signatures + verify

    sigs = docs.map_batches(
        MinHasher(text_col="extracted_text", id_col="_order"), batch_format="pyarrow"
    )
    pairs = real_pairs_ds(
        lsh_candidate_pairs_ds(lsh_band_rows(sigs, id_col="_order"), id_col="_order")
    )
    verified = verify_pairs_jaccard_ds(
        docs, pairs, text_col="extracted_text", id_col="_order", threshold=0.9
    )
    final = drop_neardups_ds(
        curated, verified, id_col="_order",
        driver_pair_limit=driver_pair_limit, broadcast_limit=broadcast_limit,
    )

    def strip(t: pa.Table) -> pa.Table:
        return t.drop_columns([c for c in ("_order",) if c in t.column_names])

    shutil.rmtree(final_dir, ignore_errors=True)
    final.map_batches(strip, batch_format="pyarrow").write_parquet(final_dir)
    return rd.read_parquet(final_dir).count()
