"""Composite curation pipeline: gates enforced, dedup collapses
mirrors, no silent truncation."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def mirror_dir(tmp_path_factory):
    from xs_vlm_ocr_ray.fixtures import pages_table

    d = tmp_path_factory.mktemp("pages_train")
    t = pages_table(range(80), seed=42)
    pq.write_table(t, d / "shard-000.parquet")
    # mirror shard: same payloads, new urls → must dedup away
    m = pages_table(range(0, 80, 4), seed=42)
    urls = [u + "?m=1" for u in m["url"].to_pylist()]
    m = m.set_column(0, "url", pa.array(urls, pa.string()))
    pq.write_table(m, d / "shard-001.parquet")
    return str(d)


def test_training_pipeline_gates(ray_session, mirror_dir):
    from xs_vlm_ocr_ray.pipelines.training import build_training_ds, run_training_pipeline

    df = build_training_ds(mirror_dir, min_quality=0.5, min_tokens=20).to_pandas()
    assert len(df) > 0
    assert (df["quality"] >= 0.5).all()
    assert (df["n_tokens"] >= 20).all()
    assert df["success"].all()
    # exact dedup: one row per distinct extracted text
    assert df["text_hash"].is_unique
    # mirrors collapsed: no url appears in both plain and ?m=1 form
    plain = set(df[~df["url"].str.endswith("?m=1")]["url"])
    mirrored = {u[:-4] for u in df[df["url"].str.endswith("?m=1")]["url"]}
    assert not (plain & mirrored)

    summary = run_training_pipeline(mirror_dir, min_quality=0.5, min_tokens=20)
    assert summary["n_input"] == 100
    assert summary["n_curated"] == len(df)
    assert summary["n_dropped"] == 100 - len(df)


def test_training_write_roundtrip(ray_session, mirror_dir, tmp_path):
    import ray.data as rd

    from xs_vlm_ocr_ray.pipelines.training import run_training_pipeline

    out = str(tmp_path / "curation")
    s = run_training_pipeline(mirror_dir, out_dir=out)
    # new layout: stage1 checkpoint + derived curated store
    back = rd.read_parquet(out + "/curated").to_pandas()
    assert len(back) == s["n_curated"]
    assert {"url", "extracted_text", "lang_pred", "quality", "n_tokens"} <= set(back.columns)


def test_training_pipeline_resumable(ray_session, tiny_pages_dir, tmp_path):
    """out_dir path: stage 1 checkpoints via the wave/manifest
    machinery; an interrupted run resumes with only the pending shards,
    and the curated output equals the in-memory path."""
    from xs_vlm_ocr_ray.pipelines.extract import run_extract
    from xs_vlm_ocr_ray.pipelines.training import (
        build_filtered_ds,
        build_training_ds,
        run_training_pipeline,
    )

    out = str(tmp_path / "curation")
    stage1 = out + "/stage1"

    # simulate an interrupted run: only the first wave (2 of 4 shards)
    partial = run_extract(
        tiny_pages_dir, stage1, wave_shards=2, max_waves=1,
        ds_builder=lambda paths, skip: build_filtered_ds(paths, skip_shards=skip),
    )
    assert partial["waves"] == 1

    # resume to completion through the public runner
    summary = run_training_pipeline(tiny_pages_dir, out_dir=out, wave_shards=2)
    assert summary["stage1_waves"] == 1  # only the pending wave ran
    assert summary["n_input"] == 200
    assert summary["n_curated"] > 0

    import ray.data as rd

    got = (
        rd.read_parquet(out + "/curated")
        .to_pandas()
        .sort_values(["shard_id", "row_idx"])
        .reset_index(drop=True)
    )
    want = (
        build_training_ds(tiny_pages_dir)
        .to_pandas()
        .sort_values(["shard_id", "row_idx"])
        .reset_index(drop=True)
    )
    assert len(got) == len(want) == summary["n_curated"]
    cols = [c for c in want.columns if c != "processing_ms"]
    import pandas as pd

    pd.testing.assert_frame_equal(got[cols], want[cols])

    # idempotent re-run: stage 1 fully manifested -> zero new waves
    again = run_training_pipeline(tiny_pages_dir, out_dir=out, wave_shards=2)
    assert again["stage1_waves"] == 0
    assert again["n_curated"] == summary["n_curated"]


def test_stage3_near_dedup(ray_session, tmp_path):
    """Stage 3 drops near-duplicate (not byte-identical) curated rows,
    keeping the min-lineage representative per cluster."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray.data as rd
    from xs_vlm_ocr_ray.pipelines.training import _stage3_near_dedup

    base = " ".join(f"word{i}" for i in range(200))
    near = base + " trailing extra tokens"          # ~97% shingle overlap
    distinct = " ".join(f"other{i}" for i in range(200))
    t = pa.table(
        {
            "url": ["u0", "u1", "u2"],
            "extracted_text": [base, near, distinct],
            "shard_id": pa.array([0, 0, 0], pa.int32()),
            "row_idx": pa.array([0, 1, 2], pa.int64()),
        }
    )
    curated = str(tmp_path / "curated")
    os.makedirs(curated)
    pq.write_table(t, curated + "/part-0.parquet")
    final = str(tmp_path / "final")
    n = _stage3_near_dedup(curated, final)
    got = rd.read_parquet(final).to_pandas().sort_values("url")
    assert n == 2
    # the near-dup pair collapsed to its min-lineage member (u0)
    assert list(got["url"]) == ["u0", "u2"]
    assert "_order" not in got.columns


def test_near_dedup_needs_out_dir(tiny_pages_dir):
    """Stage 3 runs over the curated store, so the in-memory path cannot
    near-dedup: it must refuse up front rather than return a result
    without ``n_final``."""
    from xs_vlm_ocr_ray.pipelines.training import run_training_pipeline

    with pytest.raises(ValueError, match="out_dir"):
        run_training_pipeline(tiny_pages_dir, near_dedup=True)


def test_training_max_per_domain(ray_session, tiny_pages_dir):
    """Per-site sampling cap: with max_per_domain=1, each of the
    fixture's 97 domains contributes at most one curated row."""
    from xs_vlm_ocr_ray.functions.urls import domain_of
    from xs_vlm_ocr_ray.pipelines.training import build_training_ds

    uncapped = build_training_ds(tiny_pages_dir).to_pandas()
    capped = build_training_ds(tiny_pages_dir, max_per_domain=1).to_pandas()
    assert len(capped) < len(uncapped)
    doms = domain_of(pa.array(capped["url"].tolist())).to_pylist()
    counts = {}
    for d in doms:
        counts[d] = counts.get(d, 0) + 1
    assert max(counts.values()) == 1
    # deterministic: the min-lineage row per domain wins
    merged = capped.merge(
        uncapped, on=["url", "shard_id", "row_idx"], how="left", indicator=True
    )
    assert (merged["_merge"] == "both").all()


def test_training_blocklist_and_decontam_gates(ray_session, tiny_pages_dir):
    """In-memory path: the domain blocklist and benchmark-decontamination
    gates drop (and COUNT) rows; per-stage walls are recorded."""
    from xs_vlm_ocr_ray.pipelines.training import (
        build_training_ds,
        run_training_pipeline,
    )

    base = run_training_pipeline(tiny_pages_dir)
    assert {"stage1_s", "election_s", "filter_s"} <= set(base["stage_walls_s"])

    # fixture urls are site{i%97}.example → i ∈ {0, 97, 194} of 200
    blocked = run_training_pipeline(tiny_pages_dir, blocklist=["site0.example"])
    assert blocked["n_blocked"] == 3
    assert blocked["n_curated"] <= base["n_curated"]

    df = build_training_ds(tiny_pages_dir).to_pandas()
    bench = [df[df["n_tokens"] >= 50]["extracted_text"].iloc[0]]
    dropped = run_training_pipeline(tiny_pages_dir, decontam_texts=bench)
    assert dropped["n_contaminated"] >= 1
    assert dropped["n_curated"] == base["n_curated"] - dropped["n_contaminated"]
    marked = run_training_pipeline(
        tiny_pages_dir, decontam_texts=bench, decontam_mode="mark"
    )
    assert marked["n_contaminated"] == dropped["n_contaminated"]
    assert marked["n_curated"] == base["n_curated"]  # mark never drops

    with pytest.raises(ValueError):
        run_training_pipeline(tiny_pages_dir, decontam_texts=bench,
                              decontam_mode="delete")


def test_training_quality_stats(ray_session, tiny_pages_dir, tmp_path):
    """quality_stats adds approximate p50/p90/p99 of the curated
    quality score, consistent with the exact quantiles of the curated
    rows within the histogram's one-bucket value bound."""
    import numpy as np

    from xs_vlm_ocr_ray.pipelines.training import (
        build_training_ds,
        run_training_pipeline,
    )

    s = run_training_pipeline(tiny_pages_dir, quality_stats=True)
    qq = s["quality_quantiles"]
    assert set(qq) == {"p50", "p90", "p99"}
    q = build_training_ds(tiny_pages_dir).to_pandas()["quality"].to_numpy()
    tol = (q.max() - q.min()) / 4096 + 1e-9  # one histogram bucket
    for key, frac in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        assert abs(qq[key] - np.quantile(q, frac)) <= tol + 0.01
    assert (qq["p50"] <= qq["p90"] <= qq["p99"]) and qq["p50"] >= 0.5  # min_quality gate

    # durable path reports the same distribution over the written store
    s2 = run_training_pipeline(
        tiny_pages_dir, out_dir=str(tmp_path / "qq"), quality_stats=True
    )
    assert abs(s2["quality_quantiles"]["p50"] - qq["p50"]) <= 2 * tol + 0.02


def test_training_out_dir_gates(ray_session, tiny_pages_dir, tmp_path):
    """Resumable path: gates apply to the durable curated store; drop
    mode excludes contaminated docs, mark mode keeps audit columns."""
    import ray.data as rd

    from xs_vlm_ocr_ray.pipelines.training import (
        build_training_ds,
        run_training_pipeline,
    )

    df = build_training_ds(tiny_pages_dir).to_pandas()
    # pick the benchmark from a NOT-blocked domain (the blocklist gate
    # below must not remove the contamination target itself)
    cand = df[(df["n_tokens"] >= 50) & ~df["url"].str.contains("//site0.example")]
    bench_text = cand["extracted_text"].iloc[0]

    out = str(tmp_path / "cur")
    s = run_training_pipeline(
        tiny_pages_dir, out_dir=out,
        blocklist=["site0.example"], decontam_texts=[bench_text],
    )
    back = rd.read_parquet(out + "/curated").to_pandas()
    assert s["n_blocked"] == 3
    assert s["n_contaminated"] >= 1
    assert len(back) == s["n_curated"]
    assert not back["url"].str.contains("site0.example").any()
    assert bench_text not in set(back["extracted_text"])
    assert "contaminated" not in back.columns  # drop mode strips audit cols

    # resumed run: stage 1 is fully manifested, so no shard passes the
    # blocklist gate this invocation — n_blocked reports 0, not the
    # whole-input total of a previous run
    s_again = run_training_pipeline(
        tiny_pages_dir, out_dir=out,
        blocklist=["site0.example"], decontam_texts=[bench_text],
    )
    assert s_again["stage1_waves"] == 0
    assert s_again["n_blocked"] == 0
    assert s_again["n_curated"] == s["n_curated"]

    out2 = str(tmp_path / "cur2")
    s2 = run_training_pipeline(
        tiny_pages_dir, out_dir=out2,
        decontam_texts=[bench_text], decontam_mode="mark",
    )
    back2 = rd.read_parquet(out2 + "/curated").to_pandas()
    assert {"contamination", "contaminated"} <= set(back2.columns)
    assert int(back2["contaminated"].sum()) == s2["n_contaminated"] >= 1


def test_stage3_near_dedup_distributed_route(ray_session, tmp_path):
    """Stage 3 through the distributed CC + anti-join route (forced via
    zero thresholds) produces the identical final store as the
    driver-union-find route."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray.data as rd
    from xs_vlm_ocr_ray.pipelines.training import _stage3_near_dedup

    base = " ".join(f"word{i}" for i in range(200))
    rows = {
        "url": ["u0", "u1", "u2", "u3"],
        "extracted_text": [base, base + " tail extra tokens", "distinct " * 100, base + " other tail"],
        "shard_id": pa.array([0, 0, 0, 0], pa.int32()),
        "row_idx": pa.array([0, 1, 2, 3], pa.int64()),
    }
    curated = str(tmp_path / "curated")
    os.makedirs(curated)
    pq.write_table(pa.table(rows), curated + "/part-0.parquet")

    f_driver = str(tmp_path / "final_driver")
    f_dist = str(tmp_path / "final_dist")
    n1 = _stage3_near_dedup(curated, f_driver)
    n2 = _stage3_near_dedup(curated, f_dist, driver_pair_limit=0, broadcast_limit=0)
    assert n1 == n2
    a = rd.read_parquet(f_driver).to_pandas().sort_values("url").reset_index(drop=True)
    b = rd.read_parquet(f_dist).to_pandas().sort_values("url").reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b[a.columns])


@pytest.mark.parametrize("mode", ["drop", "mark"])
def test_training_paths_share_one_tail(ray_session, tiny_pages_dir, tmp_path, mode):
    """The in-memory and the resumable run execute one stage-2 tail:
    with blocklist, per-domain cap and decontamination on, both return
    the same gate counts, and the resumable curated store holds exactly
    the in-memory tail's rows."""
    import pandas as pd

    import ray.data as rd
    from xs_vlm_ocr_ray.pipelines.training import (
        _curate,
        _stage1_checkpoint,
        build_training_ds,
        run_training_pipeline,
    )

    blocklist = ["site0.example"]
    lineage = ["shard_id", "row_idx"]
    capped = build_training_ds(tiny_pages_dir, max_per_domain=2, blocklist=blocklist)
    capped = capped.to_pandas().sort_values(lineage)
    bench = [capped[capped["n_tokens"] >= 50]["extracted_text"].iloc[0]]
    kw = dict(blocklist=blocklist, max_per_domain=2, decontam_texts=bench,
              decontam_mode=mode)

    mem = run_training_pipeline(tiny_pages_dir, **kw)
    res = run_training_pipeline(tiny_pages_dir, out_dir=str(tmp_path / "cur"), **kw)
    keys = ("n_input", "n_blocked", "n_contaminated", "n_curated")
    assert {k: mem[k] for k in keys} == {k: res[k] for k in keys}
    assert res["n_input"] == 200 and res["n_blocked"] == 3
    assert res["n_contaminated"] >= 1

    gates: dict = {}
    tail = _curate(
        _stage1_checkpoint(tiny_pages_dir, 0.5, 20, blocklist), max_per_domain=2,
        decontam_texts=bench, decontam_mode=mode, gates=gates,
    )
    want = tail.to_pandas().sort_values(lineage).reset_index(drop=True)
    got = rd.read_parquet(str(tmp_path / "cur" / "curated")).to_pandas()
    got = got.sort_values(lineage).reset_index(drop=True)
    assert gates["n_contaminated"] == res["n_contaminated"]
    assert len(got) == res["n_curated"]
    assert ("contaminated" in got.columns) == (mode == "mark")
    pd.testing.assert_frame_equal(
        got.drop(columns="processing_ms", errors="ignore"),
        want.drop(columns="processing_ms", errors="ignore"),
    )


def test_n_input_counts_parquet_footers(ray_session, tmp_path):
    """``n_input`` comes from the parquet footers: a shard of several
    row groups and a zero-row shard count exactly as a url-only read."""
    from xs_vlm_ocr_ray.fixtures import pages_table
    from xs_vlm_ocr_ray.pipelines.training import run_training_pipeline
    from xs_vlm_ocr_ray.sources.pages import read_pages

    t = pages_table(range(50), seed=42)
    pq.write_table(t, tmp_path / "shard-000.parquet", row_group_size=16)
    assert pq.ParquetFile(tmp_path / "shard-000.parquet").num_row_groups == 4
    pq.write_table(t.slice(0, 0), tmp_path / "shard-001.parquet")
    pq.write_table(pages_table(range(50, 60), seed=42), tmp_path / "shard-002.parquet")

    s = run_training_pipeline(str(tmp_path))
    assert s["n_input"] == read_pages(str(tmp_path), columns=["url"]).count() == 60


def test_resumable_reports_gates_when_nothing_survives(ray_session, tiny_pages_dir, tmp_path):
    """Every row filtered in stage 1: the resumable run still reports
    each enabled gate, with nothing curated."""
    from xs_vlm_ocr_ray.pipelines.training import run_training_pipeline

    s = run_training_pipeline(
        tiny_pages_dir, out_dir=str(tmp_path / "cur"), min_quality=2.0,
        blocklist=["site0.example"], decontam_texts=["some benchmark text"],
    )
    assert (s["n_input"], s["n_curated"], s["stage1_rows"]) == (200, 0, 0)
    assert s["n_blocked"] == 3
    assert s["n_contaminated"] == 0


def test_nothing_survives_stage1_curates_nothing(ray_session, tiny_pages_dir, tmp_path):
    """No row passes stage 1's filter: the election gets an empty
    winner set, and every entry point curates nothing."""
    from xs_vlm_ocr_ray.pipelines.training import build_training_ds, run_training_pipeline

    assert run_training_pipeline(tiny_pages_dir, min_quality=2.0)["n_curated"] == 0
    s = run_training_pipeline(tiny_pages_dir, out_dir=str(tmp_path / "cur"), min_quality=2.0)
    assert s["n_curated"] == 0
    assert build_training_ds(tiny_pages_dir, min_quality=2.0).count() == 0


def _pandas_collapse(df):
    """Stage 1's within-batch collapse as the pandas round trip it was:
    the reference for ``training._first_per_text``."""
    return df.sort_values(["shard_id", "row_idx"], kind="mergesort").drop_duplicates(
        "text_hash", keep="first"
    )


def test_first_per_text_matches_pandas_collapse():
    """The Arrow collapse keeps the rows, the order and the types of the
    pandas sort + drop_duplicates, on shuffled batches with repeats. An
    empty batch keeps its column types, where the pandas round trip
    turned its string columns into nulls."""
    import random

    from xs_vlm_ocr_ray.pipelines.training import _first_per_text

    rng = random.Random(7)
    rows = [(s, r) for s in range(3) for r in range(40)]
    rng.shuffle(rows)
    texts = [f"text {rng.randrange(15)}" for _ in rows]
    t = pa.table({
        "url": [f"https://x.example/{s}/{r}" for s, r in rows],
        "extracted_text": pa.array(texts, pa.large_string()),
        "shard_id": pa.array([s for s, _ in rows], pa.int32()),
        "row_idx": pa.array([r for _, r in rows], pa.int64()),
        "text_hash": pa.array([x[::-1] for x in texts], pa.string()),
    })
    for batch in (t, t.slice(0, 1)):
        want = pa.Table.from_pandas(_pandas_collapse(batch.to_pandas()), preserve_index=False)
        assert _first_per_text(batch).equals(want.replace_schema_metadata(None))
    empty = _first_per_text(t.slice(0, 0))
    assert empty.num_rows == 0 and empty.schema == _first_per_text(t).schema


def test_stage1_schema_and_rows_match_pandas_collapse(ray_session, tiny_pages_dir):
    """Stage 1 through Ray: the same schema and rows as the chain with
    the pandas collapse."""
    import pandas as pd
    import pyarrow.compute as pc

    from xs_vlm_ocr_ray.pipelines.routed import build_routed_extract_ds
    from xs_vlm_ocr_ray.pipelines.training import _annotate, add_lineage_order, build_filtered_ds

    def collapse(df):  # _pandas_collapse, local so the Ray workers get it by value
        return df.sort_values(["shard_id", "row_idx"], kind="mergesort").drop_duplicates(
            "text_hash", keep="first"
        )

    def keep(t):
        return t.filter(pc.and_(
            pc.and_(t["success"], pc.greater_equal(t["quality"], 0.5)),
            pc.greater_equal(t["n_tokens"], 20),
        ))

    parent = (
        build_routed_extract_ds(tiny_pages_dir, emit_spans=False)
        .map_batches(_annotate, batch_format="pyarrow")
        .map_batches(keep, batch_format="pyarrow")
        .map_batches(collapse, batch_format="pandas")
        .map_batches(add_lineage_order, batch_format="pyarrow")
        .materialize()
    )
    stage1 = build_filtered_ds(tiny_pages_dir).materialize()
    assert stage1.schema() == parent.schema()

    def rows(ds):
        df = ds.to_pandas().drop(columns="processing_ms")
        return df.sort_values("_order").reset_index(drop=True)

    pd.testing.assert_frame_equal(rows(stage1), rows(parent))
