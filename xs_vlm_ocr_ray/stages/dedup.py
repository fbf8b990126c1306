"""Deduplication stages: exact, MinHash+LSH, n-gram Jaccard, SimHash,
embedding cosine.

The exact path is the engine's restatement of the reference's
content-hash dedup cache (SURVEY.md D1/T5/J2,
src/ui/MainWindow.cpp:1421-1439, src/managers/HistoryManager.cpp:466-508):
identical payloads are detected by canonical hash and computed once. At
corpus scale this becomes the hash-keyed shuffle; near-dup variants
(MinHash/LSH, n-gram Jaccard, SimHash, embedding cosine) are the
standard training-data additions.

The pair-set contract, shared by every near-dup generator:

- ids are UNIQUE across the rows of a generator's input (one row per
  doc or vector: ``doc_id``, ``vec_id``, the curation run's ``_order``),
  so a bucket's distinct ids and its rows are the same set;
- the RAW stage of every bucketed family is ONE kernel,
  ``_bucket_pairs``: per bucket it keeps one row per distinct id,
  sorted; a bucket with fewer than 2 ids emits nothing; a bucket over
  the generator's cap (``max_bucket`` / ``max_posting``) is skipped and
  counted IN BAND, never silently: its counter row carries ``a == b ==
  0`` (impossible for a real pair) and the count in ``n_oversized``
  (the skew counters are the FP-Hadoop lesson: a hot key must show up
  in the output); otherwise the family's scorer picks the pairs. It
  emits ``(a, b[, <payload>], n_oversized)`` rows with strict
  ``a < b``, possibly one row per bucket or band a pair shares, and
  real pair rows carry 0;
- the Dataset form (``*_pairs_ds``) keeps one row per pair and the
  counter rows (``_distinct_pairs_ds``); ``real_pairs_ds`` strips the
  counter rows before the pairs are verified or clustered;
- every driver form (query surface, small pair lists) is a collect of
  a Dataset form by ``collect_pairs``: the summed counter lands in
  ``attrs['n_oversized_buckets']`` and the pairs come back distinct,
  sorted by (a, b), with int64 ``a``/``b`` even when empty. Each
  family has ONE scoring tail, the Dataset form's.

Two more rules live in one place each: a Dataset is filtered by an id
set only through ``_filter_ids`` (a broadcast ``is_in`` filter, or a
semi/anti hash join), and a per-key attribute reaches pair rows only
through ``_attach_attr``, whose two routes are picked by the attribute
side's size (a broadcast under ``_ATTR_BROADCAST_BYTES``, a tagged
reduce-side join above it).

Scale notes (100 TB design point):
- every groupby here is preceded by a within-batch partial reduce, so
  the shuffle moves one row per key per batch, not one per input row;
- LSH banding turns the quadratic near-dup problem into a
  ``groupby(band_id, band_hash)`` whose hot buckets are bounded by
  ``max_bucket`` (the skew guard above).
"""

from __future__ import annotations

import hashlib
import logging
from itertools import chain

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from .ann import round_half_away
from ray.data.aggregate import Count, Min, Sum

from ..cluster import cluster_cpus
from ..functions.textstats import shingles

log = logging.getLogger(__name__)

# --- exact dedup ---------------------------------------------------------


def add_text_hash(ds: rd.Dataset, text_col: str = "text", out_col: str = "content_hash") -> rd.Dataset:
    """Append md5 hex of the UTF-8 text.

    The per-doc ``hashlib`` loop IS the fast path here, not a
    vectorization gap (VERDICT r3 #8, measured): OpenSSL md5 streams at
    ~420 MB/s/core on ~2 KB docs *including* the utf-8 encode —
    beating pandas' vectorized 64-bit ``hash_pandas_object`` on the
    same data (0.064 s vs 0.114 s per 10k docs), and no Arrow/numpy
    md5 kernel exists. The loop is O(bytes) C code; the Python-level
    iteration is ~⅓ of its cost (the encode) and irreducible while the
    output must be a per-doc digest."""

    def fn(t: pa.Table) -> pa.Table:
        md5 = hashlib.md5
        hashes = [md5(x.encode("utf-8")).hexdigest() if x is not None else "" for x in t[text_col].to_pylist()]
        return t.append_column(out_col, pa.array(hashes, pa.string()))

    return ds.map_batches(fn, batch_format="pyarrow")


def dedup_exact_stats(
    ds: rd.Dataset, key: str = "content_hash", order_col: str = "doc_id"
) -> rd.Dataset:
    """Per-hash group stats: keeper (min order_col) + duplicate count.

    Partial reduce inside map_batches → small groupby (one row per key
    per batch crosses the shuffle).
    """

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(key, as_index=False).agg(
            keeper=(order_col, "min"), n=(order_col, "size")
        )
        return g

    partials = ds.map_batches(partial, batch_format="pandas")
    out = partials.groupby(key).aggregate(
        Min("keeper", alias_name="keeper"), Sum("n", alias_name="n_dups")
    )
    return out


def first_per_key(t: pa.Table, key: str, order_cols: tuple[str, ...]) -> pa.Table:
    """Within-batch collapse: the rows of ``t`` in ``order_cols`` order
    (a stable sort), keeping the first row of each ``key``. Every column
    keeps its Arrow type, ``large_string`` and an empty batch included."""
    t = t.sort_by([(c, "ascending") for c in order_cols])
    first = (
        pa.table({key: t[key], "i": np.arange(t.num_rows)})
        .group_by(key)
        .aggregate([("i", "min")])["i_min"]
    )
    return t.take(np.sort(first.to_numpy()))


def dedup_exact(
    ds: rd.Dataset,
    key: str = "content_hash",
    order_col: str = "doc_id",
    broadcast_limit: int = 5_000_000,
) -> rd.Dataset:
    """Keep exactly one row per key — the one with the smallest
    ``order_col`` (deterministic winner).

    Plan (the curation run's, pipelines/training._curate): never shuffle
    the full rows. Within-batch collapse (``first_per_key``) →
    checkpoint (materialize; spills at scale, strictly cheaper than
    sort-shuffling the same bytes) → ``elect_and_filter_winners`` over
    only (key, order_col): the election runs in the driver when the
    per-batch partial mins fit under ``broadcast_limit`` rows, with no
    shuffle, and through a groupby and a hash-shuffle semi-join above
    it. Requires ``order_col`` values to be UNIQUE across rows (they
    identify the winners)."""

    def within_batch(t: pa.Table) -> pa.Table:
        return first_per_key(t, key, (order_col,))

    mat = ds.map_batches(within_batch, batch_format="pyarrow").materialize()
    return elect_and_filter_winners(mat, key, order_col, broadcast_limit)


def elect_and_filter_winners(
    mat: rd.Dataset,
    key: str,
    order_col: str,
    broadcast_limit: int = 5_000_000,
    drop_cols: tuple[str, ...] = (),
) -> rd.Dataset:
    """Shared dedup tail (``dedup_exact`` and the curation run): keep
    the min-``order_col`` row per ``key`` of ``mat``, electing over the
    SMALL columns only. Each batch first reduces to one
    (key, ``order_part``) row per key; those partials are materialized,
    and their row count (block metadata, no extra pass) picks the route:

    - at most ``broadcast_limit`` partial rows: the driver pulls them,
      reduces them with one Arrow group-by min, and broadcasts the
      sorted winners into a streaming ``is_in`` filter over ``mat`` —
      no shuffle;
    - more: ``groupby(key).aggregate(Min)`` over the partials, then a
      hash-shuffle semi-join of ``mat`` with the winners.

    Both routes are ``_filter_ids``. Zero partial rows always take the
    driver route (a hash join needs at least one row on each side, see
    ``_nonempty_blocks``), so a negative limit is refused. ``order_col``
    values must be unique across rows. ``drop_cols`` are removed from
    the output (e.g. a synthetic order key the caller added)."""
    if broadcast_limit < 0:
        raise ValueError(f"broadcast_limit must be >= 0 (got {broadcast_limit})")

    def partial_min(t: pa.Table) -> pa.Table:
        g = t.group_by(key).aggregate([(order_col, "min")])
        return pa.table({key: g[key], "order_part": g[f"{order_col}_min"]})

    partials = mat.map_batches(partial_min, batch_format="pyarrow").materialize()
    if partials.count() <= broadcast_limit:
        # an empty input leaves no block with columns
        blocks = [b for b in ray.get(partials.to_arrow_refs()) if b.num_rows]
        winners = (
            pa.concat_tables(blocks).group_by(key).aggregate([("order_part", "min")])
            ["order_part_min"].to_numpy() if blocks else np.array([], np.int64)
        )
    else:
        winners = partials.groupby(key).aggregate(
            Min("order_part", alias_name=order_col)
        ).select_columns([order_col])
    out = _filter_ids(mat, order_col, winners, anti=False)
    return out.drop_columns(list(drop_cols)) if drop_cols else out


def _filter_ids(ds: rd.Dataset, col: str, ids, anti: bool) -> rd.Dataset:
    """The rows of ``ds`` whose ``col`` is in ``ids`` (``anti``: is not
    in ``ids``), with the columns of ``ds`` only. The caller picks the
    route from a count it already has:

    - ``ids`` an array: sorted, ``ray.put`` once and applied as a
      streaming ``is_in`` filter — no shuffle;
    - ``ids`` a Dataset with one column, named ``col``: a ``left_semi``
      (``left_anti``) hash join, both inputs through
      ``_nonempty_blocks``, the partition count bounded by
      ``_join_partitions``."""
    if isinstance(ids, rd.Dataset):
        return _nonempty_blocks(ds).join(
            _nonempty_blocks(ids), join_type="left_anti" if anti else "left_semi",
            num_partitions=_join_partitions(), on=(col,),
        )
    ref = ray.put(pa.array(np.sort(ids)))

    def keep(t: pa.Table) -> pa.Table:
        hit = pc.is_in(t[col], value_set=ray.get(ref))
        return t.filter(pc.invert(hit) if anti else hit)

    return ds.map_batches(keep, batch_format="pyarrow")


def _nonempty_blocks(ds: rd.Dataset) -> rd.Dataset:
    """``ds`` materialized without its empty blocks, for a hash-join
    input. Ray 2.49's hash join sends each input's schema to every
    partition only with that input's first block, and an empty first
    block sends nothing; a partition that then gets no row of that
    input fails its Arrow join ("No match ... for key field
    reference"; seen on the winners of a 3-block ``dedup_exact`` input,
    and on a ``drop_neardups_ds`` corpus whose first block a filter
    emptied). Rebuilding the Dataset costs one small metadata task per
    kept block."""
    refs = [
        ref for bundle in ds.materialize().iter_internal_ref_bundles()
        for ref, meta in bundle.blocks if meta.num_rows
    ]
    return rd.from_arrow_refs(refs)


def _coarse_of(keys, buckets: int):
    """Coarse shuffle key shared by every groupby-join here: the low
    bits of an integer key column, as int32. ``buckets`` must be a
    power of two (the key is computed with a bit mask). ONE definition
    so a fix to the shuffle-key shape lands everywhere at once."""
    assert buckets > 0 and (buckets & (buckets - 1)) == 0, (
        f"coarse buckets must be a power of two (got {buckets})"
    )
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    return pc.cast(
        pc.bit_wise_and(keys, pa.scalar(buckets - 1, keys.type)), pa.int32()
    )


def _join_partitions(cap: int = 64) -> int:
    """Hash-join partition count bounded by cluster CPUs: Ray's shuffle
    join schedules one aggregator ACTOR per partition, so a partition
    count above the CPU count deadlocks small clusters (observed: 64
    partitions on a 4-CPU session never schedules)."""
    return max(2, min(cap, cluster_cpus()))


# --- the pair-set contract (see the module docstring) --------------------

_PAIR = pa.schema([("a", pa.int64()), ("b", pa.int64())])
_JACCARD = pa.field("jaccard", pa.float64())
_SIM = pa.field("sim", pa.float64())
_HAMMING = pa.field("hamming", pa.int64())
_SHINGLES = pa.list_(pa.uint64())

# coarse shuffle groups of every bucketed pair generator and reduce-side
# join; the n-gram postings get more: a corpus has ~docs × shingles
# distinct posting lists
_COARSE_BUCKETS = 1024
_POSTING_COARSE_BUCKETS = 4096


def _empty_pairs(payload: pa.Field | None = None, counter: bool = False) -> pa.Table:
    """Typed zero-row pair table: int64 ``a``/``b``, then ``payload``,
    then the ``n_oversized`` counter when ``counter``."""
    fields = [*_PAIR, *([payload] if payload is not None else [])]
    if counter:
        fields.append(pa.field("n_oversized", pa.int64()))
    return pa.schema(fields).empty_table()


def _by_coarse(ds: rd.Dataset, key_col: str, fn, buckets: int = _COARSE_BUCKETS) -> rd.Dataset:
    """``fn`` applied per COARSE group of ``ds`` (an Arrow table in, an
    Arrow table out): the shuffle key is the low bits of the integer
    ``key_col`` (``_coarse_of``), not the exact bucket. Ray's
    ``map_groups`` pays per-group Python overhead and real corpora have
    ~docs × bands tiny buckets, so grouping coarsely and resolving the
    exact buckets with a vectorized pass inside ``fn`` cuts the group
    count by orders of magnitude without changing the result."""

    def add_coarse(t: pa.Table) -> pa.Table:
        return t.append_column("coarse", _coarse_of(t[key_col], buckets))

    return (
        ds.map_batches(add_coarse, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(fn, batch_format="pyarrow")
    )


def _bucket_pairs(
    ds: rd.Dataset,
    id_col: str,
    group_cols: tuple[str, ...],
    cap: int | None,
    score=None,
    payload: pa.Field | None = None,
    buckets: int = _COARSE_BUCKETS,
) -> rd.Dataset:
    """THE raw stage of every bucketed pair generator (the pair-set
    contract in the module docstring). A bucket is a run of equal
    ``group_cols``; the last of them is the coarse shuffle key. Per
    bucket: one row per distinct id, sorted by id; fewer than 2 ids
    emit nothing; more than ``cap`` (``None``: uncapped) are skipped and
    counted into one ``a == b == 0`` counter row per coarse group;
    otherwise ``score(rows)`` gets the bucket's rows (an Arrow table)
    and returns the local indices ``i < j`` of its pairs and their
    ``payload`` values. Without ``score`` every pair is emitted and
    there is no payload (LSH bands, n-gram postings). Output
    (a, b[, payload], n_oversized), a < b because the ids are sorted."""
    schema = _empty_pairs(payload, counter=True).schema
    zero = np.zeros(1, np.int64)

    def per_coarse(t: pa.Table) -> pa.Table:
        t = t.sort_by([(c, "ascending") for c in (*group_cols, id_col)])
        ids = t[id_col].to_numpy()
        same = np.ones(max(len(ids) - 1, 0), bool)
        for c in group_cols:
            k = t[c].to_numpy()
            same &= k[1:] == k[:-1]
        first = np.concatenate([[True], ~same])  # a bucket starts here
        keep = np.concatenate([[True], ~same | (ids[1:] != ids[:-1])])
        t, ids = t.filter(keep), ids[keep]
        starts = np.flatnonzero(first[keep])
        sizes = np.diff(np.append(starts, len(ids)))
        over = (sizes >= 2) & (sizes > (np.inf if cap is None else cap))
        run = (sizes >= 2) & ~over
        a, b, p = [], [], []
        for s, m in zip(starts[run], sizes[run]):
            if score is None:
                i, j = np.triu_indices(m, 1)
            else:
                i, j, v = score(t.slice(s, m))
                p.append(v)
            a.append(ids[s + i])
            b.append(ids[s + j])
        n_over = int(np.count_nonzero(over))
        counter = np.zeros(sum(map(len, a)) + bool(n_over), np.int64)
        if n_over:
            counter[-1] = n_over
            for col in (a, b, p):
                col.append(zero)
        cols = [a, b, p][: len(schema) - 1]
        return pa.Table.from_arrays(
            [pa.array(np.concatenate(c) if c else [], f.type) for c, f in zip(cols, schema)]
            + [pa.array(counter)],
            schema=schema,
        )

    return _by_coarse(ds, group_cols[-1], per_coarse, buckets)


def _distinct_pairs_ds(raw: rd.Dataset, payload: pa.Field | None = None) -> rd.Dataset:
    """Dataset tail: one row per pair with the summed counter, by a
    pair-keyed groupby that shuffles int64/float64 tuples only. A pair
    found in several buckets carries the same payload each time (it is
    a function of the pair), so Min picks it and keeps the aggregate
    mergeable. Zero pairs leave a Ray 2.49 aggregate SCHEMA-LESS (no
    typed empty block), so the result is materialized — only the pair
    list — and an empty one comes back typed instead."""
    aggs = [] if payload is None else [Min(payload.name, alias_name=payload.name)]
    out = (
        raw.groupby(["a", "b"])
        .aggregate(*aggs, Sum("n_oversized", alias_name="n_oversized"))
        .materialize()
    )
    return out if out.count() else rd.from_arrow(_empty_pairs(payload, counter=True))


def collect_pairs(raw_ds: rd.Dataset, payload: pa.Field | None = None) -> pd.DataFrame:
    """Driver tail (query surface / small pair lists): collect a raw or
    distinct pair Dataset, sum its skew counter into
    ``attrs['n_oversized_buckets']``, drop the counter rows, keep one
    row per pair, sort by (a, b). Columns a, b (int64) and ``payload``
    — typed even when empty. Deduping here rather than with the
    Dataset tail's pair-keyed shuffle is deliberate: at query scale the
    extra aggregate costs seconds."""
    df = raw_ds.to_pandas()
    if df.empty:
        out, n_oversized = _empty_pairs(payload).to_pandas(), 0
    else:
        n_oversized = int(df["n_oversized"].sum())
        out = (
            df[df["n_oversized"] == 0][_empty_pairs(payload).column_names]
            .drop_duplicates(["a", "b"])
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )
    out.attrs["n_oversized_buckets"] = n_oversized
    return out


def real_pairs_ds(pairs_ds: rd.Dataset) -> rd.Dataset:
    """Strip the skew-counter rows (and the ``n_oversized`` column) from
    a ``*_pairs_ds`` output, leaving the pure pair rows."""

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["n_oversized"], 0)).drop_columns(["n_oversized"])

    return pairs_ds.map_batches(keep, batch_format="pyarrow")


def _candidate_id_array(pairs_ds: rd.Dataset) -> pa.Array:
    """Distinct ids appearing in a pair Dataset, as a sorted int64
    Arrow array for ``ray.put`` + ``is_in`` broadcast filters. The
    distinct is computed DISTRIBUTED (per-batch unique → groupby);
    only the final distinct id column lands on the driver — O(candidate
    ids × 8 B), the same bound the n-gram path documents."""

    def explode(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [
                t["a"].combine_chunks().cast(pa.int64()),
                t["b"].combine_chunks().cast(pa.int64()),
            ]
        )
        return pa.table({"cid": pa.array(pd.unique(ids.to_numpy(zero_copy_only=False)), pa.int64())})

    distinct = (
        pairs_ds.map_batches(explode, batch_format="pyarrow")
        .groupby("cid")
        .aggregate(Count(alias_name="_n"))
        .select_columns(["cid"])
        .to_pandas()
    )
    if "cid" not in distinct.columns:  # empty pair set -> schema-less df
        return pa.array([], pa.int64())
    return pa.array(np.sort(distinct["cid"].to_numpy()), pa.int64())


def _flat_shingles(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every text's word-``k``-shingle hash set (``textstats.shingles``;
    ``None`` counts as empty), flattened: the hashes as one uint64
    array, doc after doc, and the per-doc counts (int64). The one place
    shingle sets become arrays, for MinHash, the n-gram index, the
    verify paths and decontamination."""
    per_doc = [shingles(x or "", k) for x in texts]
    counts = np.fromiter(map(len, per_doc), dtype=np.int64, count=len(per_doc))
    flat = np.fromiter(chain.from_iterable(per_doc), dtype=np.uint64, count=int(counts.sum()))
    return flat, counts


def _candidate_shingles(
    docs_ds: rd.Dataset, cand_ids: pa.Array, text_col: str, id_col: str, shingle_k: int
) -> rd.Dataset:
    """(key, sh) rows for the CANDIDATE docs only: each doc's shingle
    hashes as a sorted uint64 list (empty for a doc without shingles;
    sorted → ``assume_unique`` intersects downstream). The candidate set
    is broadcast once into ``_filter_ids``' ``is_in`` filter — driver
    state is O(candidates), never O(corpus)."""

    def collect(t: pa.Table) -> pa.Table:
        flat, counts = _flat_shingles(t[text_col].to_pylist(), shingle_k)
        doc = np.repeat(np.arange(len(counts)), counts)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        sh = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(flat[np.lexsort((flat, doc))])
        )
        return pa.table({"key": t[id_col].cast(pa.int64()), "sh": sh})

    return _filter_ids(docs_ds, id_col, cand_ids, anti=False).map_batches(
        collect, batch_format="pyarrow"
    )


# an attribute side up to this size is broadcast to the pair blocks
# instead of shuffled with them. The broadcast measured faster at every
# size tried on one node (CC labels 14-69 MB, verify shingles 16-80 MB;
# bench_artifacts/r17_neardup_forms.json), so the bound caps what the
# driver and each worker hold rather than marking a speed crossover
_ATTR_BROADCAST_BYTES = 64 << 20


def _attach_attr(
    pairs_ds: rd.Dataset,
    attr_ds: rd.Dataset,
    attr_col: str,
    carry: pa.Schema,
    outs: dict[str, pa.Field],
    finish=None,
) -> rd.Dataset:
    """Inner join: for every ``on: out`` of ``outs``, append
    ``attr_ds[attr_col]`` (keyed by ``attr_ds``'s unique int ``key``
    column) to every pair row whose ``on`` column matches, as column
    ``out``; a row missing any of its keys is dropped. The pair columns
    kept are ``carry``. ``attr_ds`` must be materialized: its
    ``size_bytes()`` (block metadata, nothing runs) picks the route.

    - Up to ``_ATTR_BROADCAST_BYTES``: the attr side is pulled once,
      sorted by key and ``ray.put``; one ``map_batches`` (one batch per
      block) matches every ``on`` of a pairs block against it.
    - Above: one reduce-side join per ``on``. Attr and pair rows are
      tagged under ONE schema, unioned, grouped by a coarse key hash
      and matched inside each group (no ``Dataset.join``: Ray 2.49's
      planner mis-resolves a right side that is also unioned back into
      the same plan).

    Both match by binary search in the key-sorted attr side and run
    ``finish`` on the joined rows in the same task, so a wide joined row
    never leaves it. ``finish`` sees an arbitrary subset of the joined
    rows (a block or a group), so it must be per row or a partial
    reduce."""

    def match(pairs: pa.Table, carry: pa.Schema, ons: dict, side, fin) -> pa.Table:
        keys, values = side  # keys sorted and unique, values in key order
        hit, pos = np.full(pairs.num_rows, len(keys) > 0), {}
        for on in ons:
            want = pairs[on].to_numpy().astype(np.int64, copy=False)
            pos[on] = np.searchsorted(keys, want)  # len(keys): no match
            hit &= keys[np.minimum(pos[on], len(keys) - 1)] == want if len(keys) else False
        joined = pa.Table.from_arrays(
            [pairs[f.name].filter(pa.array(hit)).cast(f.type) for f in carry]
            + [values.take(pa.array(pos[on][hit])).cast(f.type) for on, f in ons.items()],
            schema=pa.schema([*carry, *ons.values()]),
        )
        return joined if fin is None else fin(joined)

    def sorted_side(keys, values: pa.ChunkedArray):
        keys = np.asarray(keys, np.int64)
        order = np.argsort(keys)
        return keys[order], values.combine_chunks().take(pa.array(order))

    def op_name(outs: dict, fin) -> str:
        # the operator's name in Ray's logged plan: shows what runs fused
        names = [f.name for f in outs.values()] + ([fin.__name__] if fin is not None else [])
        return "_".join(["attach", *names])

    if attr_ds.size_bytes() <= _ATTR_BROADCAST_BYTES:
        vtype = next(iter(outs.values())).type
        blocks = [b for b in ray.get(attr_ds.to_arrow_refs()) if b.num_rows]
        ref = ray.put(sorted_side(
            np.concatenate([b["key"].to_numpy() for b in blocks] or [[]]),
            pa.chunked_array([c for b in blocks for c in b[attr_col].cast(vtype).chunks], vtype),
        ))

        def broadcast_join(t: pa.Table) -> pa.Table:
            return match(t, carry, outs, ray.get(ref), finish)

        broadcast_join.__name__ = f"broadcast_{op_name(outs, finish)}"
        return pairs_ds.map_batches(broadcast_join, batch_format="pyarrow")

    def reduce_join(ds: rd.Dataset, on: str, carry: pa.Schema, out: pa.Field, fin) -> rd.Dataset:
        fields = [*carry, out]
        schema = pa.schema([("key", pa.int64()), ("kind", pa.int8()), *fields])

        def tagged(kind: int, key, cols: dict) -> pa.Table:
            n = len(key)
            arrays = [
                cols[f.name].cast(f.type) if f.name in cols else pa.nulls(n, f.type)
                for f in fields
            ]
            kinds = pa.array(np.full(n, kind, dtype=np.int8))
            return pa.Table.from_arrays([key.cast(pa.int64()), kinds, *arrays], schema=schema)

        def tag_attr(t: pa.Table) -> pa.Table:
            return tagged(0, t["key"], {out.name: t[attr_col]})

        def tag_pairs(t: pa.Table) -> pa.Table:
            return tagged(1, t[on], {f.name: t[f.name] for f in carry})

        def join(t: pa.Table) -> pa.Table:
            is_attr = pc.equal(t["kind"], 0)
            attrs, pairs = t.filter(is_attr), t.filter(pc.invert(is_attr))
            side = sorted_side(attrs["key"].to_numpy(), attrs[out.name])
            return match(pairs, carry, {"key": out}, side, fin)

        join.__name__ = op_name({on: out}, fin)
        tagged_ds = attr_ds.map_batches(tag_attr, batch_format="pyarrow").union(
            ds.map_batches(tag_pairs, batch_format="pyarrow")
        )
        return _by_coarse(tagged_ds, "key", join)

    kept = carry
    for i, (on, out) in enumerate(outs.items()):
        pairs_ds = reduce_join(pairs_ds, on, kept, out, finish if i == len(outs) - 1 else None)
        kept = kept.append(out)
    return pairs_ds


# --- MinHash + LSH near-dup ---------------------------------------------

_MERSENNE = (1 << 61) - 1


def _perm_params(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-permutation (a, b) drawn below the Mersenne prime 2^61-1.

    Honesty note on the hash family: the signature kernels compute
    ``((a*h + b) mod 2^64) mod (2^61-1)`` — the uint64 multiply WRAPS
    before the Mersenne reduction (h is a full 64-bit blake2b value, so
    a*h overflows on essentially every product). This matches what
    vectorized datasketch-style implementations compute in practice,
    but it is NOT the textbook universal family ``(a*h + b) mod p``,
    so the collision-probability = Jaccard guarantee is empirical here
    rather than theorem-backed: the estimator is gated by a property
    test against brute-force Jaccard (tests/test_neardup.py) instead.
    An exact-mod implementation needs 128-bit intermediates (split
    multiply + Mersenne fold) — deliberately not paid; both the
    per-doc and slab paths wrap identically, so signatures agree."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


class MinHasher:
    """Actor-pool kernel: text → MinHash signature (uint64 × num_perm).

    Permutation parameters are derived once per actor from the seed
    (deterministic across the pool)."""

    def __init__(
        self,
        text_col: str = "text",
        id_col: str = "doc_id",
        num_perm: int = 64,
        shingle_k: int = 5,
        seed: int = 42,
    ):
        self.text_col = text_col
        self.id_col = id_col
        self.num_perm = num_perm
        self.k = shingle_k
        self.a, self.b = _perm_params(num_perm, seed)

    def _sig(self, text: str) -> np.ndarray:
        # per-doc reference path (kept for tests / direct callers)
        sh = shingles(text, self.k)
        if not sh:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        h = np.fromiter(sh, dtype=np.uint64, count=len(sh))
        # (a*h + b) mod p, broadcast: perms × shingles
        prod = (self.a[:, None] * h[None, :] + self.b[:, None]) % np.uint64(_MERSENNE)
        return prod.min(axis=1)

    # bound on shingles per vectorized product slab: the transient is
    # num_perm × SLAB × 8 B (64 perms × 256k × 8 B ≈ 128 MB), NOT
    # num_perm × whole-batch — an unbatched product over a payload-
    # heavy block would allocate gigabytes in one task
    _SLAB_SHINGLES = 1 << 18

    def __call__(self, t: pa.Table) -> pa.Table:
        # batch-vectorized in bounded slabs: one (perms × ≤SLAB)
        # product per group of docs, then a segmented min
        # (np.minimum.reduceat) over per-doc offsets — byte-identical
        # to the per-doc path (min of the same values over the same
        # segments), with the perm broadcast amortized across the slab
        flat, counts = _flat_shingles(t[self.text_col].to_pylist(), self.k)
        ends = np.cumsum(counts)
        sigs = np.full((len(counts), self.num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
        lo = 0
        while lo < len(counts):
            # at least one doc per slab; otherwise fill to the budget
            base = ends[lo] - counts[lo]
            hi = max(lo + 1, int(np.searchsorted(ends, base + self._SLAB_SHINGLES, side="right")))
            if ends[hi - 1] > base:
                prod = (
                    self.a[:, None] * flat[None, base : ends[hi - 1]] + self.b[:, None]
                ) % np.uint64(_MERSENNE)
                nz = counts[lo:hi] > 0
                offsets = (ends[lo:hi] - counts[lo:hi] - base)[nz]
                sigs[lo:hi][nz] = np.minimum.reduceat(prod, offsets, axis=1).T
            lo = hi
        return pa.table(
            {
                self.id_col: t[self.id_col],
                "minhash": pa.array(list(sigs), pa.list_(pa.uint64(), self.num_perm)),
            }
        )


def lsh_band_rows(
    sig_ds: rd.Dataset, id_col: str = "doc_id", bands: int = 16
) -> rd.Dataset:
    """Explode signatures to (band_id, band_hash, id) rows for the LSH
    bucket groupby."""

    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        sigs = np.stack([np.asarray(s, dtype=np.uint64) for s in t["minhash"].to_pylist()])
        n, p = sigs.shape
        rows_per_band = p // bands
        out_ids = np.repeat(ids, bands)
        band_ids = np.tile(np.arange(bands, dtype=np.int32), n)
        bh = np.empty(n * bands, dtype=np.uint64)
        for b in range(bands):
            chunk = sigs[:, b * rows_per_band : (b + 1) * rows_per_band]
            # stable reduce of the band rows to one uint64
            acc = np.zeros(n, dtype=np.uint64)
            for c in range(chunk.shape[1]):
                acc = acc * np.uint64(1_000_003) + chunk[:, c]
            bh[b::bands] = acc
        return pa.table(
            {
                id_col: pa.array(out_ids),
                "band_id": pa.array(band_ids),
                "band_hash": pa.array(bh),
            }
        )

    return sig_ds.map_batches(explode, batch_format="pyarrow")


def lsh_candidate_pairs_ds(
    band_ds: rd.Dataset, id_col: str = "doc_id", max_bucket: int = 64
) -> rd.Dataset:
    """LSH buckets → DISTINCT candidate pairs (a, b, n_oversized), as a
    Dataset — the corpus-scale path (the pair list never funnels through
    the driver). A (band_id, band_hash) bucket holding more than
    ``max_bucket`` ids is the skew-guarded case."""
    return _distinct_pairs_ds(
        _bucket_pairs(band_ds, id_col, ("band_id", "band_hash"), max_bucket)
    )


def lsh_candidate_pairs(
    band_ds: rd.Dataset, id_col: str = "doc_id", max_bucket: int = 64
) -> pd.DataFrame:
    """Driver-side form of ``lsh_candidate_pairs_ds`` (query surface /
    small corpora): distinct (a, b) pairs via ``collect_pairs``."""
    return collect_pairs(_bucket_pairs(band_ds, id_col, ("band_id", "band_hash"), max_bucket))


def verify_pairs_jaccard_ds(
    docs_ds: rd.Dataset,
    pairs_ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 5,
    threshold: float = 0.5,
) -> rd.Dataset:
    """Exact Jaccard verification of candidate pairs (the MinHash+LSH
    family's one scoring tail; ``verify_pairs_jaccard`` collects it).

    Plan: candidate ids (ints only) broadcast into an ``is_in`` filter →
    per-candidate sorted shingle arrays computed distributed → one
    ``_attach_attr`` call delivers each pair its two shingle arrays;
    the exact Jaccard is computed, vectorized, inside the joining task,
    so the widest intermediate (pair + both arrays) never leaves it.

    A pair whose id has NO row in ``docs_ds`` (pairs from another
    lineage) is dropped by the inner join and counted into a logged
    warning, never silently. Both-empty shingle sets score 1.0,
    one-empty 0.0, exactly like ``functions.textstats.jaccard``.

    Input: real pair rows (a, b) — counter rows stripped with
    ``real_pairs_ds``. Output: (a, b, jaccard) rows with jaccard ≥
    threshold, rounded 6."""
    pairs_ds = pairs_ds.materialize()  # consumed twice: id scan + join
    schema = pairs_ds.schema()  # None for a schema-less empty dataset
    if schema is not None and "n_oversized" in schema.names:
        # fail fast: a raw *_pairs_ds output still carries skew-counter
        # rows (a == b == 0), which would join doc 0's shingles with
        # themselves and emit a bogus verified (0, 0, 1.0) pair
        raise ValueError(
            "pairs_ds carries the n_oversized counter column; strip the "
            "counter rows first with real_pairs_ds(...)"
        )
    if pairs_ds.count() == 0:
        return rd.from_arrow(_empty_pairs(_JACCARD))
    cand_ids = _candidate_id_array(pairs_ds)
    sh_ds = _candidate_shingles(docs_ds, cand_ids, text_col, id_col, shingle_k).materialize()

    # lineage guard: ids unique per the supported contract, so the
    # materialized shingle-row count IS the number of candidate ids
    # found in docs_ds; any shortfall means the caller's pairs reference
    # docs outside this dataset and those pairs will drop at the join
    n_missing = len(cand_ids) - sh_ds.count()
    if n_missing > 0:
        log.warning(
            "verify_pairs_jaccard_ds: %d candidate id(s) have no row in "
            "docs_ds; every pair touching them is dropped (inner join). "
            "Feed pairs generated from this docs_ds lineage.",
            n_missing,
        )

    def score(t: pa.Table) -> pa.Table:
        # |A ∩ B| per row: neither set repeats a hash, so a (row, hash)
        # found twice in the two flattened lists is a shared shingle
        lists = [t[c].combine_chunks() for c in ("sh_a", "sh_b")]
        rows = np.concatenate([pc.list_parent_indices(x).to_numpy() for x in lists])
        hs = np.concatenate([pc.list_flatten(x).to_numpy() for x in lists])
        order = np.lexsort((hs, rows))
        rows, hs = rows[order], hs[order]
        inter = np.bincount(
            rows[1:][(rows[1:] == rows[:-1]) & (hs[1:] == hs[:-1])], minlength=t.num_rows
        )
        union = sum(pc.list_value_length(x).to_numpy() for x in lists) - inter
        # two empty sets score 1.0, like functions.textstats.jaccard
        j = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
        keep = j >= threshold
        return t.select(["a", "b"]).filter(pa.array(keep)).append_column(
            _JACCARD, pa.array(round_half_away(j[keep], 6))
        )

    sh = {"a": pa.field("sh_a", _SHINGLES), "b": pa.field("sh_b", _SHINGLES)}
    return _attach_attr(pairs_ds, sh_ds, "sh", _PAIR, sh, finish=score)


def verify_pairs_jaccard(
    docs_ds: rd.Dataset,
    pairs: pd.DataFrame,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 5,
    threshold: float = 0.5,
) -> pd.DataFrame:
    """Driver-side form of ``verify_pairs_jaccard_ds`` (query surface):
    the verified rows sorted by (a, b), typed even when empty."""
    out = verify_pairs_jaccard_ds(
        docs_ds, rd.from_pandas(pairs[["a", "b"]]), text_col, id_col, shingle_k, threshold
    ).to_pandas()
    if out.empty:  # no block left to carry the schema
        return _empty_pairs(_JACCARD).to_pandas()
    return out.sort_values(["a", "b"]).reset_index(drop=True)


# --- n-gram Jaccard near-dup (inverted shingle index) --------------------


def ngram_jaccard_pairs_ds(
    docs_ds: rd.Dataset,
    threshold: float = 0.3,
    shingle_k: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_posting: int | None = 1024,
) -> rd.Dataset:
    """n-gram (word k-shingle) Jaccard near-dup pairs via a distributed
    inverted shingle index.

    Plan: explode distinct shingle hashes per doc → ``groupby(shingle)``
    emits candidate pairs per posting list → ``groupby(pair)`` counts
    shared shingles (= |A∩B| exactly) → one ``_attach_attr`` call
    delivers the CANDIDATE docs' set sizes → jaccard = i/(|A|+|B|-i),
    filtered ≥ threshold in the joining task. Output (a, b, jaccard,
    n_oversized).

    ``max_posting`` frequency-caps hot shingles (a stopword shingle
    shared by p docs would otherwise generate O(p²) pairs) — the
    standard skew guard, ON by default (1024). Capped posting lists are
    counted in band (``n_oversized``; ``attrs['n_oversized_buckets']``
    of the driver form) — never silently.

    Cap semantics (precision-preserving lower bound): a capped shingle
    contributes to NO pair's intersection count, so every reported
    ``jaccard`` is ≤ the true value — a reported pair always truly
    meets the threshold (no false positives), but a pair whose
    qualifying overlap runs through capped shingles can be missed or
    under-scored. With no capped posting list the result is exact.
    Pass ``max_posting=None`` to force exactness regardless of skew
    (unsafe at corpus scale: one hot shingle → quadratic pairs)."""

    def explode(t: pa.Table) -> pa.Table:
        flat, counts = _flat_shingles(t[text_col].to_pylist(), shingle_k)
        ids = np.repeat(t[id_col].to_numpy(), counts)
        return pa.table({id_col: pa.array(ids, pa.int64()), "sh": flat})

    postings = docs_ds.map_batches(explode, batch_format="pyarrow")
    inter = _bucket_pairs(
        postings, id_col, ("sh",), max_posting, buckets=_POSTING_COARSE_BUCKETS
    ).groupby(["a", "b"]).aggregate(
        Count(alias_name="i"), Sum("n_oversized", alias_name="n_oversized")
    ).materialize()

    def counters(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["n_oversized"], 0))
        return t.select(["a", "b"]).append_column(
            _JACCARD, pa.array(np.zeros(t.num_rows))
        ).append_column("n_oversized", t["n_oversized"])

    counter_rows = inter.map_batches(counters, batch_format="pyarrow")
    real = real_pairs_ds(inter)
    cand_ids = _candidate_id_array(real)
    if len(cand_ids) == 0:
        # nothing survived the cap (or no candidates at all): counter
        # rows only, under the full output schema
        return rd.from_arrow(_empty_pairs(_JACCARD, counter=True)).union(counter_rows)

    def set_size(t: pa.Table) -> pa.Table:
        # fuses into _candidate_shingles' task: only the counts leave it
        n = pc.list_value_length(t["sh"]).cast(pa.int64())
        return pa.table({"key": t["key"], "n": n}).filter(pc.greater(n, 0))

    def score(t: pa.Table) -> pa.Table:
        i = t["i"].to_numpy().astype(np.float64)
        j = round_half_away(i / (t["n_a"].to_numpy() + t["n_b"].to_numpy() - i), 6)
        keep = j >= threshold
        return t.select(["a", "b"]).filter(pa.array(keep)).append_column(
            _JACCARD, pa.array(j[keep])
        ).append_column("n_oversized", pa.array(np.zeros(int(keep.sum()), np.int64)))

    sizes = _candidate_shingles(docs_ds, cand_ids, text_col, id_col, shingle_k).map_batches(
        set_size, batch_format="pyarrow"
    ).materialize()
    carry = _PAIR.append(pa.field("i", pa.int64()))
    n = {"a": pa.field("n_a", pa.int64()), "b": pa.field("n_b", pa.int64())}
    return _attach_attr(real, sizes, "n", carry, n, finish=score).union(counter_rows)


def ngram_jaccard_pairs(
    docs_ds: rd.Dataset,
    threshold: float = 0.3,
    shingle_k: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_posting: int | None = 1024,
) -> pd.DataFrame:
    """Driver-side form of ``ngram_jaccard_pairs_ds`` (query surface /
    small pair lists), collected by ``collect_pairs``."""
    return collect_pairs(
        ngram_jaccard_pairs_ds(
            docs_ds, threshold=threshold, shingle_k=shingle_k, text_col=text_col,
            id_col=id_col, max_posting=max_posting,
        ),
        _JACCARD,
    )


# --- SimHash -------------------------------------------------------------


class SimHasher:
    """text → 64-bit SimHash (token-hash bit votes).

    Batch-vectorized: per batch, token hashes are resolved through a
    per-worker memo dict (real corpora are Zipf-distributed, so after
    warm-up nearly every token is a dict hit instead of a blake2b
    call), then the bit-vote accumulation runs as ONE numpy pass —
    unpack all occurrence hashes to a (tokens × 64) ±1 vote matrix in
    bounded slabs, segment-reduce per doc (``np.add.reduceat``; token
    runs are doc-contiguous), threshold and repack. ``simhash64`` stays
    the pure per-doc reference implementation (tests compare against
    it, bit for bit)."""

    # 256k entries ≈ 30-40 MB per actor INCLUDING dict/key overhead
    # (the payload is one uint64 per token) — a 32-worker pool stays
    # near ~1 GB fleet-wide
    _CACHE_MAX = 1 << 18
    # slab bound on the (tokens × 64) int8 vote transient: 256k tokens
    # ≈ 16 MB per slab, independent of batch size
    _SLAB_TOKENS = 1 << 18

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        self._hash_cache: dict[str, int] = {}

    @staticmethod
    def simhash64(text: str) -> int:
        if not text:
            return 0
        votes = np.zeros(64, dtype=np.int64)
        for tok in text.split():
            h = int.from_bytes(
                hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest(), "big"
            )
            bits = np.unpackbits(np.frombuffer(h.to_bytes(8, "big"), dtype=np.uint8))
            votes += bits.astype(np.int64) * 2 - 1
        out = np.packbits((votes > 0).astype(np.uint8))
        return int.from_bytes(out.tobytes(), "big")

    def _tok_hash(self, tok: str) -> int:
        h = self._hash_cache.get(tok)
        if h is None:
            h = int.from_bytes(
                hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest(), "big"
            )
            if len(self._hash_cache) < self._CACHE_MAX:
                self._hash_cache[tok] = h
        return h

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t[self.text_col].to_pylist()
        n = len(texts)
        tok_lists = [x.split() if x else [] for x in texts]
        counts = np.fromiter((len(l) for l in tok_lists), dtype=np.int64, count=n)
        total = int(counts.sum())
        # occurrence-level hash stream (doc-contiguous), memoized
        hashes = np.empty(total, dtype=np.uint64)
        th = self._tok_hash
        i = 0
        for toks in tok_lists:
            for tok in toks:
                hashes[i] = th(tok)
                i += 1
        ends = np.cumsum(counts)
        starts = ends - counts
        votes_acc = np.zeros((n, 64), dtype=np.int64)
        lo = 0
        while lo < total:
            # never split a doc across slabs (keeps reduceat segments
            # whole); a single doc longer than the slab gets its own
            doc_hi = int(np.searchsorted(ends, min(lo + self._SLAB_TOKENS, total), side="left"))
            hi = int(ends[doc_hi])
            # bits MSB-first over big-endian bytes == the reference's
            # unpackbits(frombuffer(h.to_bytes(8, "big")))
            be = hashes[lo:hi].astype(">u8").view(np.uint8).reshape(-1, 8)
            bits = np.unpackbits(be, axis=1)
            votes = bits.astype(np.int8) * 2 - 1
            doc_lo = int(np.searchsorted(ends, lo, side="right"))
            doc_idx = np.arange(doc_lo, doc_hi + 1)
            # zero-token docs inside the range MUST be excluded:
            # np.add.reduceat returns the element (not 0) for an empty
            # segment; such docs keep their all-zero votes instead
            doc_idx = doc_idx[counts[doc_idx] > 0]
            seg_starts = starts[doc_idx] - lo
            votes_acc[doc_idx] += np.add.reduceat(votes, seg_starts, axis=0)
            lo = hi
        packed = np.packbits(votes_acc > 0, axis=1)
        fps = packed.view(">u8").reshape(n).astype(np.uint64)
        return pa.table(
            {self.id_col: t[self.id_col], "simhash": pa.array(fps, pa.uint64())}
        )


def _simhash_banded_pairs(
    docs_ds: rd.Dataset,
    max_hamming: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_bucket: int = 256,
) -> rd.Dataset:
    """Raw stage of the SimHash generators (pigeonhole plan): banded
    explode → coarse-bucket groupby → exact popcount verify. Emits
    (a, b, hamming, n_oversized) rows, possibly one per matching band.

    ``max_bucket`` is the skew guard: a (band_id, band_val) bucket
    larger than the cap (e.g. millions of empty/boilerplate-identical
    docs, all simhash 0 → every band bucket holds all of them →
    O(bucket²) pairs in ONE reduce task) is skipped and counted."""
    bands = max_hamming + 1
    width = 64 // bands

    sig = docs_ds.map_batches(
        SimHasher(text_col=text_col, id_col=id_col), batch_format="pyarrow"
    )

    def explode(t: pa.Table) -> pa.Table:
        hs = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        n = len(hs)
        out_id = np.repeat(ids, bands)
        out_band = np.tile(np.arange(bands, dtype=np.int32), n)
        out_val = np.empty(n * bands, dtype=np.uint64)
        for b in range(bands):
            shift = np.uint64(b * width)
            mask = np.uint64((1 << width) - 1)
            out_val[b::bands] = (hs >> shift) & mask
        out_sig = np.repeat(hs, bands)
        return pa.table(
            {
                id_col: pa.array(out_id),
                "band_id": pa.array(out_band),
                "band_val": pa.array(out_val),
                "simhash": pa.array(out_sig),
            }
        )

    def within_hamming(rows: pa.Table):
        hs = rows["simhash"].to_numpy()
        i, j = np.triu_indices(len(hs), 1)
        x = (hs[i] ^ hs[j]).view(np.uint8).reshape(-1, 8)
        d = np.unpackbits(x, axis=1).sum(axis=1, dtype=np.int64)  # popcount
        ok = d <= max_hamming
        return i[ok], j[ok], d[ok]

    banded = sig.map_batches(explode, batch_format="pyarrow")
    return _bucket_pairs(
        banded, id_col, ("band_id", "band_val"), max_bucket, within_hamming, _HAMMING
    )


def simhash_neardup_pairs_ds(
    docs_ds: rd.Dataset,
    max_hamming: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Dataset-native ``simhash_neardup_pairs`` (same exact pigeonhole
    plan): (a, b, hamming, n_oversized), never driver-side."""
    return _distinct_pairs_ds(
        _simhash_banded_pairs(docs_ds, max_hamming=max_hamming, text_col=text_col, id_col=id_col),
        _HAMMING,
    )


def simhash_neardup_pairs(
    docs_ds: rd.Dataset,
    max_hamming: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """EXACT SimHash near-dup pairs (hamming distance ≤ ``max_hamming``)
    via pigeonhole band blocking: split the 64-bit fingerprint into
    ``max_hamming + 1`` bands — any pair within distance ``max_hamming``
    must agree exactly on at least one band, so a ``groupby(band_id,
    band_value)`` generates ALL qualifying candidates; an exact popcount
    verifies each. No quadratic scan, no missed pairs. Driver-side
    result (``simhash_neardup_pairs_ds`` is the corpus-scale path)."""
    return collect_pairs(
        _simhash_banded_pairs(docs_ds, max_hamming=max_hamming, text_col=text_col, id_col=id_col),
        _HAMMING,
    )


# --- embedding-cosine near-dup ------------------------------------------


def embedding_neardup_pairs_ds(
    emb_ds: rd.Dataset,
    threshold: float = 0.4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    max_rows_bruteforce: int = 500_000,
) -> rd.Dataset:
    """Embedding-cosine near-dup pairs ≥ threshold, as a Dataset — the
    corpus-scale path (``embedding_neardup_pairs`` is the driver-side
    form). Output (a, b, sim, n_oversized); only the bucketed route can
    skip a bucket, the brute route's counter is constant 0.

    Brute-force route (EXACT, default below ``max_rows_bruteforce``
    rows): the normalized matrix is ``ray.put`` ONCE into the object
    store; each batch task ``ray.get``s the same shared-memory copy
    (zero-copy on-node, shipped once per node in a cluster) and computes
    a vectorized ``batch × all`` cosine, emitting only its qualifying
    (a < b) pairs — no shuffle, no per-batch re-ship, each pair emitted
    exactly once (by the batch holding its ``a`` row).

    Above the threshold the matrix no longer belongs on one heap and the
    call routes to the LSH-bucketed route: hyperplane-bucket assignment
    → ``groupby(bucket)`` → exact cosine WITHIN each bucket
    (approximate overall — cross-bucket pairs are missed with the usual
    LSH probability; see ann.lsh_bucket_ids); a pair found in several
    buckets is deduped by a pair-keyed groupby over int64 triples."""
    # checkpoint once so the size probe and the pair pass share ONE
    # execution of whatever upstream computed the embeddings (count()
    # on a lazy dataset would run the pipeline, then the pair pass
    # would run it again)
    emb_ds = emb_ds.materialize()
    n = emb_ds.count()
    if n > max_rows_bruteforce:
        return _embedding_neardup_bucketed_ds(
            emb_ds, threshold=threshold, vec_col=vec_col, id_col=id_col
        )
    if n == 0:
        # typed empty — np.stack on zero rows would raise
        return rd.from_arrow(_empty_pairs(_SIM, counter=True))

    # bounded driver assembly (≤ max_rows_bruteforce rows by the route
    # condition): ids + flat matrix, immediately ray.put
    all_df = emb_ds.to_pandas()
    ref = ray.put((all_df[id_col].to_numpy(), _unit_rows(all_df[vec_col])))
    del all_df

    def partial(t: pa.Table) -> pa.Table:
        ids_all, mat_n = ray.get(ref)  # shared-memory read, not a copy per batch
        ids_b = t[id_col].to_numpy(zero_copy_only=False)
        sims = _unit_rows(t[vec_col].to_pylist()) @ mat_n.T
        ii, jj = np.nonzero(sims >= threshold)
        keep = ids_b[ii] < ids_all[jj]
        ii, jj = ii[keep], jj[keep]
        return pa.table(
            {
                "a": pa.array(ids_b[ii], pa.int64()),
                "b": pa.array(ids_all[jj], pa.int64()),
                "sim": pa.array(round_half_away(sims[ii, jj], 6), pa.float64()),
                "n_oversized": pa.array(np.zeros(len(ii), dtype=np.int64)),
            }
        )

    return emb_ds.map_batches(partial, batch_format="pyarrow")


def embedding_neardup_pairs(
    emb_ds: rd.Dataset,
    threshold: float = 0.4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    max_rows_bruteforce: int = 500_000,
) -> pd.DataFrame:
    """Driver-side form of ``embedding_neardup_pairs_ds`` (query
    surface / small pair lists): the same routed plan, collected by
    ``collect_pairs``."""
    return collect_pairs(
        embedding_neardup_pairs_ds(
            emb_ds,
            threshold=threshold,
            vec_col=vec_col,
            id_col=id_col,
            max_rows_bruteforce=max_rows_bruteforce,
        ),
        _SIM,
    )


def _embedding_neardup_bucketed_ds(
    emb_ds: rd.Dataset,
    threshold: float = 0.4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    max_bucket: int = 4096,
) -> rd.Dataset:
    """Approximate scale route: hyperplane-LSH bucket assignment
    (``ann.lsh_bucket_ids``, 12 planes), then exact pairwise cosine
    WITHIN each bucket (``_bucket_pairs`` with a cosine scorer). Never
    materializes the corpus on the driver; the shuffle moves each vector
    exactly once, and the pair dedup (a pair can surface from more than
    one bucket) shuffles int64 triples only.

    ``max_bucket`` is the skew guard (this route only runs above 500k
    rows, where low-entropy embeddings can concentrate millions of rows
    into one hyperplane bucket — an unguarded ``m @ m.T`` there is an
    n² float64 allocation in a single task): oversized buckets are
    skipped and counted. 4096² × 8 B = 128 MB transient per bucket, the
    same slab budget the MinHash path uses."""
    from .ann import lsh_bucket_ids

    def cosine_at_least(rows: pa.Table):
        m = _unit_rows(rows[vec_col].to_pylist())
        sims = m @ m.T
        i, j = np.nonzero(np.triu(sims >= threshold, k=1))
        return i, j, round_half_away(sims[i, j], 6)

    return _distinct_pairs_ds(
        _bucket_pairs(
            lsh_bucket_ids(emb_ds, vec_col=vec_col), id_col, ("bucket",), max_bucket,
            cosine_at_least, _SIM,
        ),
        _SIM,
    )


def _unit_rows(vectors) -> np.ndarray:
    """The vectors as float64 matrix rows scaled to unit length (a zero
    vector stays zero)."""
    m = np.stack([np.asarray(v, dtype=np.float64) for v in vectors])
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


# --- near-dup clustering (connected components over pair lists) ----------


def neardup_clusters(pairs: pd.DataFrame) -> pd.DataFrame:
    """Connected components over a near-dup pair list → cluster ids.

    ``pairs`` is the (a, b) output of any pair generator here
    (minhash+LSH verify, simhash, n-gram Jaccard, embedding cosine) —
    small by construction (the generators bound it with skew guards), so
    the union-find runs driver-side. Returns one row per doc that
    appears in any pair: (doc_id, cluster_id) with
    ``cluster_id = min doc_id of the component`` (deterministic).

    This is the standard step between "pairs" and "drop duplicates":
    near-dup is not transitive, and clustering makes the keep/drop
    decision consistent across chains (a~b, b~c ⇒ one keeper for
    {a, b, c}, even if a≁c directly)."""
    if pairs.empty:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "cluster_id": pd.Series([], dtype="int64")})
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(pairs["a"].astype(int), pairs["b"].astype(int)):
        ra, rb = find(a), find(b)
        if ra != rb:
            # union by smaller id → the root IS the min of the component
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    ids = sorted(set(pairs["a"].astype(int)) | set(pairs["b"].astype(int)))
    return pd.DataFrame(
        {"doc_id": pd.Series(ids, dtype="int64"),
         "cluster_id": pd.Series([find(i) for i in ids], dtype="int64")}
    )


def drop_neardups(
    docs_ds: rd.Dataset, pairs: pd.DataFrame, id_col: str = "doc_id"
) -> rd.Dataset:
    """Keep one representative per near-dup cluster (the min-id member)
    plus every unpaired doc. The DROP set (non-representative members of
    clusters — bounded by the number of near-dup docs, not the corpus)
    goes into ``_filter_ids``' broadcast filter."""
    clusters = neardup_clusters(pairs)
    drop = clusters.loc[clusters["doc_id"] != clusters["cluster_id"], "doc_id"]
    return _filter_ids(docs_ds, id_col, drop.to_numpy(), anti=True)


def drop_neardups_ds(
    docs_ds: rd.Dataset,
    pairs_ds: rd.Dataset,
    id_col: str = "doc_id",
    driver_pair_limit: int = 1_000_000,
    broadcast_limit: int = 5_000_000,
) -> rd.Dataset:
    """Keep one representative per near-dup cluster — Dataset-native
    edge input (the library/corpus-scale path; ``drop_neardups`` takes a
    driver DataFrame).

    Size-probed routing, mirroring ``embedding_neardup_pairs``:

    - ≤ ``driver_pair_limit`` edges: collect the (int64, int64) edge
      list and run the driver union-find — exactly ``drop_neardups``;
    - above it: ``neardup_clusters_distributed`` (min-label
      propagation; shuffles int64 rows only), then the drop set
      (non-representative members) goes to ``_filter_ids``: broadcast
      into a streaming ``is_in`` filter under ``broadcast_limit``, else
      anti-joined by a bounded-partition hash shuffle. The corpus itself
      never shuffles on the first two routes."""
    pairs_mat = pairs_ds.select_columns(["a", "b"]).materialize()
    n_pairs = pairs_mat.count()
    if n_pairs == 0:
        return docs_ds
    if n_pairs <= driver_pair_limit:
        return drop_neardups(docs_ds, pairs_mat.to_pandas(), id_col=id_col)

    def non_reps(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["doc_id"], t["cluster_id"]))
        return pa.table({id_col: t["doc_id"]})

    drop_ds = neardup_clusters_distributed(pairs_mat).map_batches(
        non_reps, batch_format="pyarrow"
    ).materialize()
    if drop_ds.count() <= broadcast_limit:
        drop_ds = drop_ds.to_pandas()[id_col].to_numpy()
    return _filter_ids(docs_ds, id_col, drop_ds, anti=True)


def neardup_clusters_distributed(pairs_ds: rd.Dataset, max_iters: int = 25) -> rd.Dataset:
    """Distributed connected components over a near-dup edge Dataset —
    the corpus-scale path when the pair list no longer fits a driver
    union-find (``neardup_clusters``).

    Min-label propagation: each round, ``_attach_attr`` delivers every
    node's current label to its neighbors and to itself (edge rows
    carry ``edge_node`` and are keyed on ``nbr``; one self-loop per
    node) and reduces the messages to one partial min per node inside
    the join's task; a groupby Min gives the new labels. Labels are
    monotone non-increasing, so convergence is detected by the global
    label SUM reaching a fixpoint — one tiny aggregate per round. Rounds
    needed = cluster diameter; near-dup clusters are shallow, so this
    terminates in a handful of rounds. Each round shuffles only int64
    rows — never documents.

    Input: Dataset with int64 columns ``a``, ``b`` (undirected edges).
    Output: Dataset (doc_id, cluster_id), one row per node appearing in
    any edge; cluster_id = min doc_id of the component.
    """

    def both_dirs(t: pa.Table) -> pa.Table:
        a, b = t["a"].combine_chunks(), t["b"].combine_chunks()
        return pa.table(
            {"edge_node": pa.concat_arrays([a, b]), "nbr": pa.concat_arrays([b, a])}
        )

    edges = pairs_ds.map_batches(both_dirs, batch_format="pyarrow").materialize()
    # the aggregate emits as many blocks as it is fed (last round's
    # labels plus the edges): a fixed count keeps the round cost flat
    label_blocks = edges.num_blocks()

    # initial labels: label[n] = n (distinct nodes via per-batch dedup +
    # groupby min — one tiny row per node per batch crosses the shuffle)
    def init_labels(t: pa.Table) -> pa.Table:
        nodes = pa.array(pd.unique(t["edge_node"].to_numpy()), pa.int64())
        return pa.table({"key": nodes, "label": nodes})

    def new_labels(messages: rd.Dataset) -> rd.Dataset:
        agg = messages.groupby("key").aggregate(Min("label", alias_name="label"))
        return agg.repartition(label_blocks, shuffle=False).materialize()

    def self_loop(t: pa.Table) -> pa.Table:
        return pa.table({"edge_node": t["key"], "nbr": t["key"]})

    def node_min(t: pa.Table) -> pa.Table:
        g = t.group_by("edge_node").aggregate([("label", "min")])
        return pa.table({"key": g["edge_node"], "label": g["label_min"]})

    def label_sum(lab: rd.Dataset) -> int:
        def partial(t: pa.Table) -> pa.Table:
            v = pc.sum(t["label"]).as_py() or 0
            return pa.table({"s": pa.array([v], pa.int64())})

        return int(lab.map_batches(partial, batch_format="pyarrow").to_pandas()["s"].sum())

    labels = new_labels(edges.map_batches(init_labels, batch_format="pyarrow"))
    # one self-loop per node: a node's own label is one of its messages
    edges = edges.union(labels.map_batches(self_loop, batch_format="pyarrow")).materialize()
    carry = pa.schema([("edge_node", pa.int64())])
    label = pa.field("label", pa.int64())
    prev_sum = label_sum(labels)
    converged = False
    for _ in range(max_iters):
        labels = new_labels(
            _attach_attr(edges, labels, "label", carry, {"nbr": label}, finish=node_min)
        )
        s = label_sum(labels)
        if s == prev_sum:
            converged = True
            break
        prev_sum = s
    if not converged:
        # returning here would silently emit WRONG clusters: nodes that
        # are local minima far from the component minimum still carry
        # their own id, so a later drop pass keeps several
        # "representatives" of one cluster. Components need ~diameter
        # rounds — a chain longer than max_iters must fail loudly.
        raise RuntimeError(
            f"neardup_clusters_distributed did not converge in {max_iters} "
            "rounds — a near-dup component's diameter exceeds the round "
            "budget (e.g. a long chain of successive revisions). Re-run "
            "with a larger max_iters."
        )

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["key"], "cluster_id": t["label"]})

    return labels.map_batches(rename, batch_format="pyarrow")


# --- benchmark decontamination -------------------------------------------


def decontaminate(
    docs_ds: rd.Dataset,
    benchmark_texts,
    threshold: float = 0.5,
    shingle_k: int = 5,
    text_col: str = "text",
    mark_only: bool = False,
) -> rd.Dataset:
    """Benchmark decontamination — the standard pre-training hygiene
    step the reference's dedup cache has no analog for: drop (or mark)
    corpus documents whose word-``shingle_k``-shingle sets overlap any
    benchmark/eval document too heavily, so evaluation data never
    leaks into a training set.

    Contamination score per doc = |doc shingles ∩ benchmark shingles|
    / |doc shingles| (containment, not Jaccard — a short benchmark
    prompt embedded in a long page must still trip the filter). Docs
    with score ≥ ``threshold`` are dropped (or, with ``mark_only``,
    kept with ``contamination`` and ``contaminated`` columns for
    auditing).

    Scale shape: the UNION of benchmark shingle hashes is broadcast
    once via ``ray.put`` (a benchmark suite is tiny next to the corpus
    — ~8 B per distinct shingle); each batch computes a vectorized
    ``np.isin`` of its docs' shingles against the sorted benchmark
    array and a segment-sum per doc. One streaming pass, no shuffle,
    nothing driver-side but the benchmark itself. Docs with NO
    shingles score 0.0 (nothing to leak)."""
    bench: set[int] = set()
    for x in benchmark_texts:
        bench |= shingles(x or "", shingle_k)
    bench_ref = ray.put(np.fromiter(sorted(bench), dtype=np.uint64, count=len(bench)))

    def score(t: pa.Table) -> pa.Table:
        bench_arr = ray.get(bench_ref)  # shared-memory read per node
        flat, counts = _flat_shingles(t[text_col].to_pylist(), shingle_k)
        # hits per doc: differences of the running hit count at doc ends
        cs = np.concatenate([[0], np.cumsum(np.isin(flat, bench_arr), dtype=np.int64)])
        ends = np.cumsum(counts)
        n_hit = cs[ends] - cs[ends - counts]
        frac = np.where(counts > 0, n_hit / np.maximum(counts, 1), 0.0)
        out = t.append_column(
            "contamination", pa.array(round_half_away(frac, 6), pa.float64())
        ).append_column("contaminated", pa.array(frac >= threshold))
        if mark_only:
            return out
        out = out.filter(pc.invert(out["contaminated"]))
        return out.drop_columns(["contamination", "contaminated"])

    return docs_ds.map_batches(score, batch_format="pyarrow")
