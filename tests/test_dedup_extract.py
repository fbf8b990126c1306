"""Dedup-gated extraction (SURVEY.md D1/J2/T5): compute once per
content hash, cache-hit rows at 0 ms, prior-run cache tier."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def mirror_pages_dir(tmp_path_factory):
    """2 shards of 50 pages + 1 mirror shard repeating 20 payloads under
    different urls (the Common-Crawl mirror-site case)."""
    from xs_vlm_ocr_ray.fixtures import pages_table

    d = tmp_path_factory.mktemp("pages_mirror")
    for s in range(2):
        t = pages_table(range(s * 50, (s + 1) * 50), seed=42)
        pq.write_table(t, d / f"shard-{s:03d}.parquet")
    base = pages_table(range(0, 100, 5), seed=42)
    urls = [u + "?mirror=1" for u in base["url"].to_pylist()]
    mirror = base.set_column(0, "url", pa.array(urls, pa.string()))
    pq.write_table(mirror, d / f"shard-{2:03d}.parquet")
    return str(d)


@pytest.fixture(scope="module")
def dedup_df(ray_session, mirror_pages_dir):
    from xs_vlm_ocr_ray.pipelines.dedup_extract import build_dedup_extract_ds

    return build_dedup_extract_ds(mirror_pages_dir).to_pandas()


def test_all_rows_emitted(dedup_df):
    assert len(dedup_df) == 120
    assert dedup_df["url"].nunique() == 120


def test_byte_identity_vs_direct(ray_session, mirror_pages_dir, dedup_df):
    """Dedup gating must not change a single output byte."""
    from xs_vlm_ocr_ray.pipelines.extract import build_extract_ds

    direct = (
        build_extract_ds(mirror_pages_dir, engine_kwargs={"emit_spans": False})
        .to_pandas()
        .set_index("url")
    )
    got = dedup_df.set_index("url")
    assert set(got.index) == set(direct.index)
    for url in direct.index:
        assert got.loc[url, "extracted_text"] == direct.loc[url, "extracted_text"], url
        assert got.loc[url, "success"] == direct.loc[url, "success"], url
        assert got.loc[url, "error"] == direct.loc[url, "error"], url
        assert got.loc[url, "content_hash"] == direct.loc[url, "content_hash"], url


def test_duplicates_hit_at_zero_ms(dedup_df):
    """Per duplicated hash: exactly one keeper (the min-lineage row) pays
    compute; every mirror row is a 0-ms dedup hit (reference cache-hit
    semantics, MainWindow.cpp:1648-1659)."""
    nonempty = dedup_df[dedup_df["content_hash"] != ""]
    for h, g in nonempty.groupby("content_hash"):
        if len(g) == 1:
            continue
        hits = g[g["dedup_hit"]]
        assert len(hits) == len(g) - 1, h
        assert (hits["processing_ms"] == 0).all()
        keeper = g[~g["dedup_hit"]].iloc[0]
        assert (keeper["shard_id"], keeper["row_idx"]) == (
            g["shard_id"].min(),
            g.sort_values(["shard_id", "row_idx"]).iloc[0]["row_idx"],
        )
    # 20 mirror rows minus the empty-payload mirror (hash "", never
    # deduped) → at least 19 hit rows
    assert int(dedup_df["dedup_hit"].sum()) >= 19


def test_empty_payloads_not_deduped(dedup_df):
    """Null hash → no dedup (HistoryManager.cpp:433-464): every empty
    row is its own error row, never collapsed."""
    empties = dedup_df[dedup_df["content_hash"] == ""]
    assert len(empties) >= 2  # fixture plants empty payloads + mirror
    assert (~empties["success"]).all()
    assert (empties["error"] == "empty_payload").all()
    assert (~empties["dedup_hit"]).all()


def test_cache_tier_short_circuits(ray_session, mirror_pages_dir, dedup_df, tmp_path):
    """Second run against the first run's results: every non-empty row
    comes from cache at 0 ms with identical bytes (J2 resume)."""
    from xs_vlm_ocr_ray.pipelines.dedup_extract import build_dedup_extract_ds

    cache_dir = str(tmp_path / "run1_results")
    os.makedirs(cache_dir, exist_ok=True)
    pq.write_table(pa.Table.from_pandas(dedup_df, preserve_index=False),
                   os.path.join(cache_dir, "results.parquet"))
    again = build_dedup_extract_ds(
        mirror_pages_dir, cache_results_dir=cache_dir
    ).to_pandas()
    assert len(again) == len(dedup_df)
    nonempty = again[again["content_hash"] != ""]
    assert nonempty["from_cache"].all()
    assert (nonempty["processing_ms"] == 0).all()
    merged = again.set_index("url")["extracted_text"]
    orig = dedup_df.set_index("url")["extracted_text"]
    assert (merged.loc[orig.index] == orig).all()
