"""Ordered-stream / window operators (SURVEY.md §2.10 + the custom-
operator family: windowed aggregate, sessionization, lag-based dedup).

The reference's only streaming-state operator is the clipboard
monitor's consecutive-duplicate drop (D2,
src/managers/ClipboardManager.cpp:78-95) — a last-value compare over an
ordered stream. Generalized here to corpus scale together with the two
standard event-stream companions (tumbling windows, gap sessions), each
built from Ray Data primitives with an explicit partitioning story:

- ``tumbling_window_agg``: stateless — the window key is a pure row
  function, so it's a partial per-batch reduce + tiny groupby (no
  ordered state at all);
- ``sessionize``: grouped by a COARSE user-hash prefix (``user mod
  4096``), with the exact per-user session logic fully vectorized in
  pandas inside each coarse group — the shuffle key count is bounded by
  the bucket constant, not by user cardinality (Ray's ``map_groups``
  pays per-group Python overhead; millions of tiny per-user groups is
  the known cliff). State never crosses a user boundary because a
  user's rows always share a bucket;
- ``drop_consecutive``: the one TRUE ordered-stream op. Exact
  distributed plan: bucket rows by coarse time range →
  ``groupby(bucket)`` resolves all within-bucket adjacencies → the
  only unresolved comparisons are each bucket's FIRST row vs the
  previous non-empty bucket's LAST row — one in-band marker row per
  bucket, stitched driver-side (the boundary set is tiny by
  construction) and applied back to the STREAMING survivor Dataset as
  a broadcast drop-id filter.

Every operator has a Dataset-returning ``*_ds`` form (the library op —
survivors never funnel through the driver) and a DataFrame wrapper of
the same name (the query/driver convenience, collect + deterministic
sort).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from ..functions.hashing import utf8_hash64


# --- tumbling window aggregate ------------------------------------------


def tumbling_window_agg_ds(
    events: rd.Dataset,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
) -> rd.Dataset:
    """Per (day, key): count + value sum/min/max, as a Dataset. Partial
    per-batch reduce → small groupby (one row per window×key per batch
    crosses the shuffle)."""

    def partial(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t[ts_col], unit="day")
        t2 = pa.table(
            {"window": day, key_col: t[key_col], value_col: t[value_col]}
        )
        # count_all (= SQL COUNT(*)) — a (value, "count") partial counts
        # only NON-NULL values and diverges from the oracle's n whenever
        # the value column carries nulls; sum/min/max skip nulls on both
        # sides, matching
        g = t2.group_by(["window", key_col]).aggregate(
            [
                ([], "count_all"),
                (value_col, "sum"),
                (value_col, "min"),
                (value_col, "max"),
            ]
        )
        cols = {
            "count_all": "n_part",
            f"{value_col}_sum": "sum_part",
            f"{value_col}_min": "min_part",
            f"{value_col}_max": "max_part",
        }
        return g.rename_columns([cols.get(c, c) for c in g.column_names])

    def round_sum(t: pa.Table) -> pa.Table:
        i = t.column_names.index("sum_value")
        return t.set_column(i, "sum_value", pc.round(t["sum_value"], ndigits=2))

    partials = events.map_batches(partial, batch_format="pyarrow")
    return (
        partials.groupby(["window", key_col])
        .aggregate(
            Sum("n_part", alias_name="n"),
            Sum("sum_part", alias_name="sum_value"),
            Min("min_part", alias_name="min_value"),
            Max("max_part", alias_name="max_value"),
        )
        .map_batches(round_sum, batch_format="pyarrow")
    )


def tumbling_window_agg(
    events: rd.Dataset,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
) -> pd.DataFrame:
    """DataFrame wrapper over :func:`tumbling_window_agg_ds` (collect +
    deterministic sort — the result is one row per window×key, small)."""
    out = tumbling_window_agg_ds(events, ts_col, key_col, value_col).to_pandas()
    if out.empty:
        # an empty Dataset collects schema-less — rebuild the contract
        # columns so callers can still select/sort on them
        cols = ["window", key_col, "n", "sum_value", "min_value", "max_value"]
        return pd.DataFrame(columns=cols)
    return out.sort_values(["window", key_col]).reset_index(drop=True)


# --- gap-based sessionization -------------------------------------------


def sessionize_ds(
    events: rd.Dataset,
    gap_seconds: int = 1800,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
) -> rd.Dataset:
    """Per-user gap sessions, as a Dataset: a new session starts when
    the time since the previous event of the SAME user exceeds
    ``gap_seconds``.

    One row per session: (user_id, session_id, n_events, session_start,
    session_end); session_id numbers sessions per user in time order
    from 0 — deterministic via the total sort key (ts, event_id).

    Shuffle key = coarse user-hash bucket (≤ ``buckets`` groups total);
    the per-user gap logic inside each bucket is a single vectorized
    pandas pass (sort + grouped diff + cumsum), no per-user Python
    loop. Session state never crosses a bucket because a user's rows
    always share a bucket — so there is NO driver stitch and the
    session rows stream straight out of the groupby."""
    buckets = 4096

    def add_bucket(t: pa.Table) -> pa.Table:
        if pa.types.is_integer(t[user_col].type):
            b = pc.cast(
                pc.bit_wise_and(
                    pc.cast(t[user_col], pa.int64()), pa.scalar(buckets - 1, pa.int64())
                ),
                pa.int32(),
            )
        else:
            # non-numeric keys: a stable hash of the key's utf-8 bytes.
            # Bucketing only needs same-user→same-bucket.
            b = pa.array((utf8_hash64(t[user_col]) % np.uint64(buckets)).astype(np.int32))
        return t.append_column("_bucket", b)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([user_col, ts_col, id_col], kind="mergesort")
        gaps = df.groupby(user_col, sort=False)[ts_col].diff().dt.total_seconds()
        new_session = (gaps > gap_seconds).fillna(False)
        sid = new_session.groupby(df[user_col], sort=False).cumsum().astype("int64")
        g = df.groupby([df[user_col], sid], sort=False)
        out = g.agg(
            n_events=(id_col, "size"),
            session_start=(ts_col, "min"),
            session_end=(ts_col, "max"),
        )
        out.index.names = [user_col, "session_id"]
        return out.reset_index()

    return (
        events.select_columns([user_col, ts_col, id_col])
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def sessionize(
    events: rd.Dataset,
    gap_seconds: int = 1800,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
) -> pd.DataFrame:
    """DataFrame wrapper over :func:`sessionize_ds` (collect +
    deterministic sort). Use the ``_ds`` form in pipelines — session
    output is O(users) and should stream to its consumer/sink."""
    out = sessionize_ds(events, gap_seconds, user_col, ts_col, id_col).to_pandas()
    if out.empty:
        cols = [user_col, "session_id", "n_events", "session_start", "session_end"]
        return pd.DataFrame(columns=cols)
    return out.sort_values([user_col, "session_id"]).reset_index(drop=True)


# --- consecutive-duplicate drop (D2 at scale) ---------------------------


def _boundary_drop_ids(
    markers: pd.DataFrame, value_col: str, ts_col: str, id_col: str
) -> list:
    """The cross-bucket step of ``drop_consecutive_ds``: ids of bucket
    first rows whose value repeats the previous bucket's last value.
    ``markers`` holds one row per bucket (its first row's id, ts and
    value, plus ``_last_value``) in whatever order the groupby returned
    them; buckets are disjoint time ranges, so sorting by (ts, id) puts
    them in bucket order before the walk."""
    if markers.empty:  # no rows at all: possibly schema-less
        return []
    markers = markers.sort_values([ts_col, id_col], kind="mergesort")
    drop_ids: list = []
    # A sentinel (not None) marks "no previous bucket": a null last
    # value is a legitimate value and compares EQUAL to a null first
    # value (IS DISTINCT FROM semantics, matching per_bucket)
    _unset = object()
    prev_last = _unset
    for fid, fval, lval in zip(
        markers[id_col], markers[value_col], markers["_last_value"]
    ):
        if prev_last is not _unset and (
            fval == prev_last
            or (pd.isna(fval) and pd.isna(prev_last))
        ):
            drop_ids.append(fid)
        prev_last = lval
    return drop_ids


def drop_consecutive_ds(
    events: rd.Dataset,
    value_col: str = "event_type",
    ts_col: str = "ts",
    id_col: str = "event_id",
    bucket: str = "day",
) -> rd.Dataset:
    """Keep each row unless its ``value_col`` equals the immediately
    preceding row's (global (ts, id) order) — the reference's
    last-value clipboard dedup (D2) over a corpus — returned as a
    STREAMING Dataset of survivors (columns: id, ts, value).

    Exact two-level plan, no O(corpus) driver state:

    1. bucket rows by coarse time range; ``groupby(bucket)`` resolves
       all within-bucket adjacencies and emits, IN BAND, one marker row
       per bucket (``_kind=1``: the bucket's first row + its last
       value) alongside the provisional survivors (``_kind=0``);
    2. the tagged output is checkpointed once (``materialize`` — the
       object store spills at scale; this is what lets the marker pull
       and the survivor filter share one execution of the shuffle);
    3. the driver pulls ONLY the markers (one row per bucket), sorts
       them by (ts, id), walks them, and decides which buckets' first
       rows fall to the cross-bucket adjacency — a tiny drop-id set;
    4. the drop-id set is applied to the survivors as a broadcast
       ``is_in`` filter (the ``drop_neardups`` shape) — survivors
       stream to the consumer, never through the driver.
    """

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("_bucket", pc.floor_temporal(t[ts_col], unit=bucket))

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([ts_col, id_col], kind="mergesort")
        prev = df[value_col].shift()
        # IS DISTINCT FROM semantics (the oracle's): nulls compare EQUAL
        # to each other — pandas .ne treats NaN != NaN as True, which
        # would keep every row of a null run
        keep = df[value_col].ne(prev) & ~(
            df[value_col].isna() & prev.isna()
        )
        keep.iloc[0] = True  # provisional: fixed by the boundary stitch
        out = df.loc[keep, [id_col, ts_col, value_col]].copy()
        out["_kind"] = 0
        # type-stable filler; only the marker row's value is read
        out["_last_value"] = df[value_col].iloc[-1]
        # the bucket's first row is always provisionally kept → out[0]
        marker = out.iloc[[0]].copy()
        marker["_kind"] = 1
        return pd.concat([out, marker], ignore_index=True)

    tagged = (
        events.select_columns([id_col, ts_col, value_col])
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    ).materialize()

    markers = tagged.map_batches(
        lambda t: t.filter(pc.equal(t["_kind"], 1)), batch_format="pyarrow"
    ).to_pandas()

    drop_ids = _boundary_drop_ids(markers, value_col, ts_col, id_col)
    drop_arr = pa.array(drop_ids) if drop_ids else None

    def finalize(t: pa.Table) -> pa.Table:
        mask = pc.equal(t["_kind"], 0)
        if drop_arr is not None:
            mask = pc.and_(
                mask,
                pc.invert(
                    pc.is_in(t[id_col], value_set=pc.cast(drop_arr, t[id_col].type))
                ),
            )
        return t.filter(mask).drop_columns(["_kind", "_last_value"])

    return tagged.map_batches(finalize, batch_format="pyarrow")


def drop_consecutive(
    events: rd.Dataset,
    value_col: str = "event_type",
    ts_col: str = "ts",
    id_col: str = "event_id",
    bucket: str = "day",
) -> pd.DataFrame:
    """DataFrame wrapper over :func:`drop_consecutive_ds` (collect +
    deterministic (ts, id) sort). D2 output is corpus-sized — pipelines
    must use the ``_ds`` form and stream it to a sink."""
    out = drop_consecutive_ds(events, value_col, ts_col, id_col, bucket).to_pandas()
    if out.empty:
        return pd.DataFrame(columns=[id_col, ts_col, value_col])
    return (
        out[[id_col, ts_col, value_col]]
        .sort_values([ts_col, id_col], kind="mergesort")
        .reset_index(drop=True)
    )
