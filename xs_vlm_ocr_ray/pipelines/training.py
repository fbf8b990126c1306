"""End-to-end training-data pipeline: the composite a Common-Crawl
curation run actually executes, built entirely from this engine's
stages — the concrete "switch from the reference" story:

    read pages (lineage)                         streaming
      → classify + routed dual-engine extract    one fused pass
      → annotate: language-ID, quality score,    one C pass per text
        token counts, rolling fingerprint
      → filter: success ∧ quality ≥ τ ∧ length   in-band, counted
      → exact dedup on extracted-text hash       driver election,
                                                 broadcast filter
      → write curated parquet + stats            partitioned

No shuffle while the dedup election's partial rows (one (hash, order)
row per distinct text per batch) fit under ``_WINNER_BROADCAST_LIMIT``:
the driver reduces them. Above it the election is a groupby over those
rows and a hash-shuffle semi-join. The optional per-site cap is a
shuffle of its own. Everything else is map-fused streaming. Counts of
dropped rows at every gate are returned (no silent truncation).
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

import ray.data as rd

from ..functions.textstats import annotate_batch
from .routed import build_routed_extract_ds

# Partial-min rows (one (text_hash, _order) row per distinct text per
# batch) the dedup election reduces in the driver. Above it the election
# is a groupby plus a hash-shuffle semi-join. At the limit the driver
# reduce (5M md5-hex + int64 rows, 220 MB) measured 1.3-1.9 s on one
# core and about +0.5 GB of driver RSS at its peak.
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
    # lang/quality/tokens from the C annotate kernel (see
    # functions/textstats.annotate_batch, pytest-gated equal to the
    # per-doc reference kernels); md5 stays a per-doc loop BY
    # MEASUREMENT: OpenSSL md5 over the zero-copy binary view of each
    # text beats pandas' vectorized hash on the same docs (~2×), no
    # Arrow md5 kernel exists, and the stage share is ~5% (see
    # stages/dedup.add_text_hash for the numbers). A null text hashes
    # as the empty text.
    ann = annotate_batch(t["extracted_text"])
    md5 = hashlib.md5
    thash = [
        md5(x or b"").hexdigest()
        for x in t["extracted_text"].cast(pa.binary()).to_pylist()
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

    return (
        ds.map_batches(keep, batch_format="pyarrow")
        .map_batches(_first_per_text, batch_format="pyarrow")
        .map_batches(add_lineage_order, batch_format="pyarrow")
    )


def _first_per_text(t: pa.Table) -> pa.Table:
    """Stage 1's within-batch collapse (``stages.dedup.first_per_key``
    in (shard_id, row_idx) order, keyed by ``text_hash``). Stage 1
    carries ``extracted_text`` as ``string`` (a filtered batch's text is
    far under 2 GiB), the type its checkpoints have always had."""
    from ..stages.dedup import first_per_key

    t = first_per_key(t, "text_hash", ("shard_id", "row_idx"))
    i = t.schema.get_field_index("extracted_text")
    return t.set_column(i, "extracted_text", t["extracted_text"].cast(pa.string()))


def build_training_ds(
    sf_dir_or_paths,
    min_quality: float = 0.5,
    min_tokens: int = 20,
    max_per_domain: int | None = None,
    blocklist=None,
) -> rd.Dataset:
    """Curated-dataset pipeline ([blocklist →] filter → dedup keeps the
    min-lineage row per distinct extracted text → optional per-site
    sampling cap): stage 1 checkpointed in the object store, then the
    one stage-2 tail (``_curate``) that ``run_training_pipeline``
    executes too. The election runs eagerly in here; the returned
    Dataset is the lazy filter over the checkpoint."""
    return _curate(_stage1_checkpoint(sf_dir_or_paths, min_quality, min_tokens, blocklist),
                   max_per_domain)


def _stage1_checkpoint(sf_dir_or_paths, min_quality, min_tokens, blocklist) -> rd.Dataset:
    """Stage 1 in the object store: the filtered rows, projected to
    the election columns and materialized ONCE (spills to disk at
    scale; strictly cheaper than a sort all-to-all of the same bytes,
    and the election and the winner filter then share one execution of
    extraction instead of re-running it per consumer)."""
    return build_filtered_ds(
        sf_dir_or_paths, min_quality, min_tokens, blocklist=blocklist
    ).select_columns(list(_ELECTION_COLUMNS)).materialize()


def _curate(
    stage1: rd.Dataset,
    max_per_domain: int | None = None,
    decontam_texts=None,
    decontam_threshold: float = 0.5,
    decontam_mode: str = "drop",
    gates: dict | None = None,
    walls: dict | None = None,
) -> rd.Dataset:
    """Stage 2 of the curation run — the ONE tail every path executes
    over a stage-1 dataset carrying ``text_hash`` and ``_order``:
    winner election → per-domain cap → decontamination.

    Exact dedup keeps the min (shard_id, row_idx) row per distinct
    text. The naive plan — groupby(text_hash).map_groups over the full
    rows — SORT-shuffles every extracted text through the exchange
    (measured: ~2/3 of end-to-end wall at sf0.1). Instead the election
    runs on the SMALL columns only: one (text_hash, min ``_order``)
    partial row per distinct hash per batch. Up to
    ``_WINNER_BROADCAST_LIMIT`` partial rows, the driver reduces them
    and broadcasts the winners into a streaming ``is_in`` filter over
    the checkpoint, with no shuffle; above it, a groupby over the
    partials and a hash-shuffle semi-join (``stages.dedup.
    elect_and_filter_winners``). ``election_s`` times the partials'
    materialization and, on the driver route, the reduce.

    The per-site cap applies AFTER dedup (caps apply to distinct
    content; the min-lineage rows per domain win). Decontamination
    marks, materializes once (the gate count and the output share one
    execution of everything upstream) and counts into
    ``gates["n_contaminated"]``; "drop" mode then filters the marked
    rows out together with their audit columns. ``walls``, if given,
    receives the unrounded ``election_s``."""
    import time

    from ..stages.dedup import elect_and_filter_winners

    t0 = time.perf_counter()
    out = elect_and_filter_winners(
        stage1, key="text_hash", order_col="_order",
        broadcast_limit=_WINNER_BROADCAST_LIMIT, drop_cols=("_order",),
    )
    if walls is not None:
        walls["election_s"] = time.perf_counter() - t0
    if max_per_domain is not None:
        from ..functions.urls import cap_per_domain

        out = cap_per_domain(out, max_per_domain)
    if decontam_texts is None:
        return out
    import pyarrow.compute as pc

    from ..stages.dedup import decontaminate

    marked = decontaminate(
        out, decontam_texts, threshold=decontam_threshold,
        text_col="extracted_text", mark_only=True,
    ).materialize()
    gates["n_contaminated"] = _count_marked(marked)
    if decontam_mode == "mark":
        return marked

    def drop_marked(t: pa.Table) -> pa.Table:
        t = t.filter(pc.invert(t["contaminated"]))
        return t.drop_columns(["contamination", "contaminated"])

    return marked.map_batches(drop_marked, batch_format="pyarrow")


def _count_marked(marked: rd.Dataset) -> int:
    """Contaminated rows of a mark-only decontamination output, by one
    streaming per-batch partial reduce."""
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        c = pc.sum(pc.cast(t["contaminated"], pa.int64())).as_py() or 0
        return pa.table({"c": pa.array([int(c)], pa.int64())})

    df = marked.map_batches(partial, batch_format="pyarrow").to_pandas()
    return int(df["c"].sum()) if not df.empty else 0


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

    Both paths run the same stage-2 tail (``_curate``) and count the
    same way: ``n_input`` is the row count in the input's parquet
    footers (no Dataset execution), and ``n_blocked`` is the footer row
    count of the shards this invocation processes minus the survivors
    of one url-only ``filter_domains`` pass.

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
    - stage 2 (``out_dir/curated``): the curation tail reading the
      stage-1 store — cheap, derived, idempotently rebuilt on every
      call (its input is durable, so rerunning after a crash is free of
      extraction cost).
    """
    import os
    import time

    from ..sources.pages import list_shards, shard_work_items

    if decontam_mode not in ("drop", "mark"):
        raise ValueError(f"decontam_mode must be 'drop' or 'mark' (got {decontam_mode!r})")
    if near_dedup and out_dir is None:
        # stage 3 reads the curated store under out_dir; the in-memory
        # path has no store to read
        raise ValueError("near_dedup=True needs out_dir (stage 3 runs over the curated store)")

    # list_shards handles dir/file/list inputs and SORTS — shard ids
    # here must agree with run_extract's (sorted) indexing
    paths = list_shards(sf_dir_or_paths)
    items = shard_work_items(paths)
    total = sum(it["num_rows"] for it in items)
    if out_dir is not None:
        from ..state.manifest import completed_shards

        out_dir = os.path.abspath(out_dir)
        stage1_dir = os.path.join(out_dir, "stage1")
        done = completed_shards(stage1_dir) if resume else set()
    else:
        done = set()
    gates: dict = {}
    if blocklist is not None:
        # n_blocked = rows THIS invocation gated: a resumed run passes
        # only its pending shards through the blocklist (already-
        # manifested shards were gated, and counted, by the run that
        # processed them)
        from ..functions.urls import filter_domains
        from ..sources.pages import read_pages

        processed = sum(it["num_rows"] for it in items if it["shard_id"] not in done)
        survivors = filter_domains(
            read_pages(paths, columns=["url"], skip_shards=done), blocklist
        ).count() if processed else 0
        gates["n_blocked"] = processed - survivors
    tail = dict(
        max_per_domain=max_per_domain, decontam_texts=decontam_texts,
        decontam_threshold=decontam_threshold, decontam_mode=decontam_mode,
        gates=gates,
    )

    if out_dir is None:
        walls: dict[str, float] = {}
        t0 = time.perf_counter()
        stage1 = _stage1_checkpoint(sf_dir_or_paths, min_quality, min_tokens, blocklist)
        walls["stage1_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        curated = _curate(stage1, walls=walls, **tail)
        kept = curated.count()
        walls["filter_s"] = time.perf_counter() - t0 - walls["election_s"]
        out = {"stage_walls_s": {k: round(v, 3) for k, v in walls.items()}}
    else:
        import shutil

        from .extract import read_results, run_extract

        def builder(paths, skip):
            return build_filtered_ds(
                paths, min_quality, min_tokens, skip_shards=skip,
                blocklist=blocklist,
            )

        s1 = run_extract(
            sf_dir_or_paths, stage1_dir, resume=resume, wave_shards=wave_shards,
            ds_builder=builder,
        )
        curated_dir = os.path.join(out_dir, "curated")
        # stage 2 is derived state: rebuild it whole (overwrite semantics —
        # stale files from a previous run's UUID names must not survive)
        shutil.rmtree(curated_dir, ignore_errors=True)
        if s1["rows"] == 0:
            # every row filtered: the stage-1 store has no parquet files to
            # read back (zero-row shards are manifest-only) — the run is
            # complete with an empty curated set, not an error
            os.makedirs(curated_dir, exist_ok=True)
            kept = 0
            if decontam_texts is not None:
                gates["n_contaminated"] = 0
        else:
            _curate(
                read_results(stage1_dir, columns=list(_ELECTION_COLUMNS)), **tail
            ).write_parquet(curated_dir)
            curated = rd.read_parquet(curated_dir)
            kept = curated.count()
        out = {"stage1_waves": s1["waves"], "stage1_rows": s1["rows"]}
    if quality_stats:
        gates["quality_quantiles"] = (
            _quality_quantiles(curated) if kept
            else {"p50": None, "p90": None, "p99": None}
        )
    out = {"n_input": total, "n_curated": kept, "n_dropped": total - kept, **out, **gates}
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

    # curated rows never carry _order (the election drops it): rebuild
    # the unique lineage key
    curated = rd.read_parquet(curated_dir).map_batches(
        add_lineage_order, batch_format="pyarrow"
    )
    # consumed twice: signatures + verify
    docs = curated.select_columns(["_order", "extracted_text"]).materialize()

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
