"""Regression tests for round-1 code-review findings."""

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def test_classify_text_starting_with_bm_riff_is_html():
    from xs_vlm_ocr_ray.stages.classify import classify_payload_kind

    t = pa.table({"html": pa.array([
        b"BMW dealers near you: <p>contact us soon for offers</p>",
        b"RIFF format notes: <p>the container layout explained</p>",
        b"BM\x00\x01\x02\x03\x00\x00\x00\x00rest",      # plausible BMP header
        b"RIFF\x10\x00\x00\x00WEBPVP8 ",                  # real WEBP frame
        b"GIF89a\x01\x00",                                 # real GIF
        b"GIF8 but actually text",
    ], pa.binary())})
    kinds = classify_payload_kind(t)["payload_kind"].to_pylist()
    assert kinds == ["html", "html", "image", "image", "image", "html"]


def test_empty_shard_gets_manifest_record(ray_session, tmp_path):
    from xs_vlm_ocr_ray.fixtures import PAGES_SCHEMA, pages_table
    from xs_vlm_ocr_ray.pipelines.extract import run_extract
    from xs_vlm_ocr_ray.state.manifest import completed_shards

    d = tmp_path / "with_empty_shard"
    d.mkdir()
    pq.write_table(pages_table(range(10), seed=42), d / "s0.parquet")
    pq.write_table(pa.Table.from_pylist([], schema=PAGES_SCHEMA), d / "s1.parquet")
    out = str(tmp_path / "out")
    s1 = run_extract(str(d), out, resume=False)
    assert completed_shards(out) == {0, 1}
    # resume converges: nothing pending
    s2 = run_extract(str(d), out, resume=True)
    assert s2["waves"] == 0


def test_read_results_with_relative_out_dir(ray_session, tmp_path, monkeypatch):
    from xs_vlm_ocr_ray.fixtures import pages_table
    from xs_vlm_ocr_ray.pipelines.extract import read_results, run_extract

    d = tmp_path / "pages"
    d.mkdir()
    pq.write_table(pages_table(range(10), seed=42), d / "s0.parquet")
    monkeypatch.chdir(tmp_path)
    run_extract(str(d), "rel_out", resume=False)
    df = read_results("rel_out", columns=["url"]).to_pandas()
    assert len(df) == 10


def test_ann_topk_tie_break_matches_oracle_order(ray_session):
    """Duplicate embeddings tie at the k-boundary: the smaller ids win,
    as the SQL oracle's ORDER BY sim DESC, vec_id ASC demands."""
    import ray.data as rd

    from xs_vlm_ocr_ray.stages.ann import brute_force_topk

    v = [1.0, 0.0]
    rows = [{"vec_id": i, "embedding": v} for i in range(20)]  # all identical
    ds = rd.from_items(rows)
    out = brute_force_topk(ds, np.array(v), k=10)
    assert out["vec_id"].tolist() == list(range(10))


def test_q1_partial_schema_stable_on_all_filtered_batch():
    """A batch entirely filtered out must emit the same partial schema
    as a populated batch (no hand-built empty-table branch)."""
    import pyarrow.compute as pc

    import pandas as pd

    t = pa.table({
        "l_returnflag": pa.array(["A"], pa.string()),
        "l_linestatus": pa.array(["F"], pa.string()),
        "l_quantity": pa.array([1.0]),
        "l_extendedprice": pa.array([10.0]),
        "l_discount": pa.array([0.1]),
        "l_tax": pa.array([0.05]),
        "l_shipdate": pa.array([pd.Timestamp("1999-01-01")], pa.timestamp("us")),
    })
    # reproduce the partial inline (the query closure is module-local)
    cutoff = pa.scalar(pd.Timestamp("1998-09-02"), pa.timestamp("us"))
    f = t.filter(pc.less_equal(t["l_shipdate"], cutoff))
    assert f.num_rows == 0
    g = f.group_by(["l_returnflag", "l_linestatus"]).aggregate(
        [("l_quantity", "sum")]
    )
    assert g.num_rows == 0 and g.column_names[0] == "l_returnflag"


def test_split_html_segments_respect_byte_budget():
    from xs_vlm_ocr_ray.extract import split_html

    # CJK text: 3 bytes per char — byte accounting must hold
    block = ("<p>" + "我们的是在有一个人这中大为上" * 30 + "</p>")
    doc = (block * 60).encode("utf-8")
    segs = split_html(doc, 8 << 10)
    assert len(segs) > 1
    assert b"".join(segs) == doc
    # every segment except possibly the last is within ~1 block of budget
    for s in segs[:-1]:
        assert len(s) <= (8 << 10) + len(block.encode("utf-8"))
