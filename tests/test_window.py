"""Window / ordered-stream operators vs pandas brute force
(SURVEY.md §2.10, D2)."""

import pandas as pd
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def events_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/events.parquet")


@pytest.fixture(scope="module")
def events_df():
    return pq.read_table(f"{SF}/events.parquet").to_pandas()


def test_sessionize_exact(events_ds, events_df):
    from xs_vlm_ocr_ray.stages.window import sessionize

    got = sessionize(events_ds, gap_seconds=1800)
    want_rows = []
    for uid, g in events_df.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        sid = (g["ts"].diff().dt.total_seconds() > 1800).fillna(False).cumsum()
        for s, sg in g.groupby(sid):
            want_rows.append((uid, int(s), len(sg), sg["ts"].min(), sg["ts"].max()))
    want = pd.DataFrame(
        want_rows, columns=["user_id", "session_id", "n_events", "session_start", "session_end"]
    ).sort_values(["user_id", "session_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"session_id": "int64", "n_events": "int64"}),
        want,
        check_dtype=False,
    )


def test_drop_consecutive_exact(events_ds, events_df):
    from xs_vlm_ocr_ray.stages.window import drop_consecutive

    got = drop_consecutive(events_ds)
    df = events_df.sort_values(["ts", "event_id"], kind="mergesort")
    keep = df["event_type"].ne(df["event_type"].shift())
    want = (
        df[keep][["event_id", "ts", "event_type"]]
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
    assert len(got) < len(df)  # something was actually dropped


def test_tumbling_window_counts(events_ds, events_df):
    from xs_vlm_ocr_ray.stages.window import tumbling_window_agg

    got = tumbling_window_agg(events_ds)
    want_n = (
        events_df.assign(window=events_df["ts"].dt.floor("D"))
        .groupby(["window", "event_type"])
        .size()
    )
    assert int(got["n"].sum()) == len(events_df)
    want = want_n.reset_index(name="n_want")
    want["window"] = want["window"].astype("datetime64[us]")
    got = got.copy()
    got["window"] = got["window"].astype("datetime64[us]")
    m = got.merge(want, on=["window", "event_type"], how="outer")
    assert len(m) == len(got) == len(want)
    assert (m["n"] == m["n_want"]).all()


def test_drop_consecutive_ds_streams_survivors(events_ds, events_df):
    """The Dataset form returns the identical survivor set without the
    driver ever holding it (only the one-marker-per-bucket table is
    collected); wrapper == _ds collected."""
    from xs_vlm_ocr_ray.stages.window import drop_consecutive, drop_consecutive_ds

    ds = drop_consecutive_ds(events_ds)
    got = (
        ds.to_pandas()
        .sort_values(["ts", "event_id"], kind="mergesort")
        .reset_index(drop=True)[["event_id", "ts", "event_type"]]
    )
    pd.testing.assert_frame_equal(got, drop_consecutive(events_ds))
    assert set(ds.schema().names) == {"event_id", "ts", "event_type"}


def test_drop_consecutive_cross_bucket_boundary(ray_session):
    """A run of equal values spanning a bucket (day) boundary collapses
    to one survivor: the next bucket's first row must be dropped by the
    stitch, including a chain across an intermediate single-row bucket."""
    import ray.data as rd
    from xs_vlm_ocr_ray.stages.window import drop_consecutive

    ts = pd.to_datetime(
        [
            "2024-01-01 23:50",  # A   (keep: first)
            "2024-01-01 23:55",  # A   (drop: within-bucket dup)
            "2024-01-02 00:05",  # A   (drop: cross-bucket dup)
            "2024-01-03 12:00",  # A   (drop: chain across day 2->3)
            "2024-01-03 13:00",  # B   (keep: value change)
            "2024-01-04 09:00",  # B   (drop: cross-bucket dup)
            "2024-01-04 10:00",  # A   (keep: value change)
        ]
    )
    df = pd.DataFrame(
        {
            "event_id": range(1, 8),
            "ts": ts,
            "event_type": ["A", "A", "A", "A", "B", "B", "A"],
        }
    )
    got = drop_consecutive(rd.from_pandas(df))
    assert list(got["event_id"]) == [1, 5, 7]


def test_sessionize_ds_matches_wrapper(events_ds):
    from xs_vlm_ocr_ray.stages.window import sessionize, sessionize_ds

    got = (
        sessionize_ds(events_ds)
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, sessionize(events_ds))


def test_sessionize_string_keys_equal_integer_keys(events_ds):
    """String user ids bucket by their utf-8 hash: the sessions equal the
    integer-keyed ones, key for key."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from xs_vlm_ocr_ray.stages.window import sessionize

    def to_str(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("user_id")
        keys = pc.binary_join_element_wise("usér-", pc.cast(t["user_id"], pa.string()), "")
        return t.set_column(i, "user_id", keys)

    want = sessionize(events_ds)
    want["user_id"] = "usér-" + want["user_id"].astype(str)
    want = want.sort_values(["user_id", "session_id"]).reset_index(drop=True)
    got = sessionize(events_ds.map_batches(to_str, batch_format="pyarrow"))
    assert len(got) > 100
    pd.testing.assert_frame_equal(got, want)


def test_seeded_sample_deterministic(events_ds):
    a = events_ds.random_sample(0.1, seed=42).to_pandas()
    b = events_ds.random_sample(0.1, seed=42).to_pandas()
    assert sorted(a["event_id"]) == sorted(b["event_id"])
    n = events_ds.count()
    assert 0.04 * n < len(a) < 0.2 * n


def test_sessionize_string_user_ids(ray_session):
    """Bucketing must not narrow the key contract: string user ids
    sessionize identically to the pre-bucketing semantics."""
    import pandas as pd

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.window import sessionize

    ts = pd.to_datetime(
        ["2024-01-01 10:00", "2024-01-01 10:10", "2024-01-01 12:00",
         "2024-01-01 10:05", "2024-01-02 09:00"]
    )
    df = pd.DataFrame(
        {
            "user_id": ["alice", "alice", "alice", "bob", "bob"],
            "ts": ts,
            "event_id": [1, 2, 3, 4, 5],
        }
    )
    out = sessionize(rd.from_pandas(df), gap_seconds=1800)
    assert list(out["user_id"]) == ["alice", "alice", "bob", "bob"]
    assert list(out["session_id"]) == [0, 1, 0, 1]
    assert list(out["n_events"]) == [2, 1, 1, 1]


def test_window_wrappers_empty_input(ray_session):
    """Zero-row input collects schema-less from Ray; the wrappers must
    return typed empty frames with the contract columns, not raise."""
    import ray.data as rd

    from xs_vlm_ocr_ray.stages.window import (
        drop_consecutive,
        sessionize,
        tumbling_window_agg,
    )

    empty = rd.from_pandas(
        pd.DataFrame(
            {
                "event_id": pd.Series([], dtype="int64"),
                "user_id": pd.Series([], dtype="int64"),
                "ts": pd.Series([], dtype="datetime64[us]"),
                "event_type": pd.Series([], dtype="object"),
                "value": pd.Series([], dtype="float64"),
            }
        )
    )
    out = drop_consecutive(empty)
    assert out.empty and list(out.columns) == ["event_id", "ts", "event_type"]
    out = sessionize(empty)
    assert out.empty and list(out.columns) == [
        "user_id", "session_id", "n_events", "session_start", "session_end",
    ]
    out = tumbling_window_agg(empty)
    assert out.empty and list(out.columns) == [
        "window", "event_type", "n", "sum_value", "min_value", "max_value",
    ]


def test_drop_consecutive_null_values(ray_session):
    """IS DISTINCT FROM semantics: consecutive nulls collapse to one;
    null after a value (and value after a null) is kept; a null FIRST
    row is kept. Matches the SQL oracle's rn=1 OR IS DISTINCT FROM."""
    import ray.data as rd

    from xs_vlm_ocr_ray.stages.window import drop_consecutive

    df = pd.DataFrame(
        {
            "event_id": range(6),
            "ts": pd.to_datetime(
                ["2024-01-01 00:00", "2024-01-01 01:00", "2024-01-01 02:00",
                 "2024-01-02 01:00", "2024-01-02 02:00", "2024-01-02 03:00"]
            ),
            "event_type": [None, None, "click", "click", None, None],
        }
    )
    got = drop_consecutive(rd.from_pandas(df))
    # keep: 0 (first, null), 2 (click after null), 4 (null after click);
    # drop: 1 (null==null), 3 (click==click, across the day boundary), 5
    assert list(got["event_id"]) == [0, 2, 4]


def test_boundary_walk_sorts_shuffled_markers():
    """The cross-bucket walk sorts the per-bucket markers by (ts, id)
    itself: every arrival order of the same markers drops the same
    bucket-first rows (the groupby promises no marker order)."""
    import itertools

    from xs_vlm_ocr_ray.stages.window import _boundary_drop_ids

    # one marker per day bucket of test_drop_consecutive_cross_bucket_boundary:
    # (first row id, first row ts, first value, last value)
    markers = pd.DataFrame(
        {
            "event_id": [1, 3, 4, 6],
            "ts": pd.to_datetime(
                ["2024-01-01 23:50", "2024-01-02 00:05", "2024-01-03 12:00", "2024-01-04 09:00"]
            ),
            "event_type": ["A", "A", "A", "B"],
            "_last_value": ["A", "A", "B", "A"],
        }
    )
    for order in itertools.permutations(range(len(markers))):
        shuffled = markers.iloc[list(order)].reset_index(drop=True)
        assert _boundary_drop_ids(shuffled, "event_type", "ts", "event_id") == [3, 4, 6], order
