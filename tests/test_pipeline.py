"""End-to-end flagship pipeline: byte-identity vs goldens, lineage,
resume semantics (BASELINE.json correctness gate)."""

import glob
import json
import os

import pyarrow.parquet as pq
import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "pages_tiny_golden_seed42.parquet")


@pytest.fixture(scope="module")
def extract_out(ray_session, tiny_pages_dir, tmp_path_factory):
    from xs_vlm_ocr_ray.pipelines.extract import run_extract

    out = str(tmp_path_factory.mktemp("extract_out"))
    summary = run_extract(tiny_pages_dir, out, concurrency=2, batch_size=64)
    return out, summary


def _results_df(out_dir):
    import pandas as pd

    wave_dirs = [
        d
        for d in glob.glob(os.path.join(out_dir, "results", "*"))
        if os.path.isdir(d) and not os.path.basename(d).startswith(".")
    ]
    # reading the directory restores the hive-partitioned shard_id column
    frames = [pq.read_table(d).to_pandas() for d in wave_dirs]
    df = pd.concat(frames, ignore_index=True)
    return df


def test_rows_and_errors(extract_out):
    out, summary = extract_out
    assert summary["rows"] == 200
    # fixtures plant truly-empty payloads in the `empty` scenario
    assert summary["n_error"] >= 1
    assert summary["n_success"] + summary["n_error"] == 200


def test_byte_identity_vs_golden(extract_out):
    out, _ = extract_out
    df = _results_df(out).set_index("url")
    golden = pq.read_table(GOLDEN).to_pandas().set_index("url")
    assert set(df.index) == set(golden.index)
    for url, g in golden.iterrows():
        row = df.loc[url]
        assert row["success"] == g["success"], url
        assert row["error"] == g["error"], url
        assert row["extracted_text"].encode("utf-8") == g["extracted_text"].encode(
            "utf-8"
        ), f"byte mismatch for {url}"
        assert row["content_hash"] == g["content_hash"], url


def test_spans_reassemble_to_text(extract_out):
    out, _ = extract_out
    from xs_vlm_ocr_ray.stages.extract_stage import _assemble

    df = _results_df(out)
    ok = df[df["success"]]
    assert len(ok) > 0
    for _, row in ok.head(50).iterrows():
        assert _assemble([s["text"] for s in row["spans"]]) == row["extracted_text"]


def test_in_task_split_matches_unsplit(ray_session, tiny_pages_dir):
    """HtmlExtractor's multi-segment branch through Ray: 16 KiB segments
    give the same text, spans, status and hash per url as whole pages."""
    from xs_vlm_ocr_ray.pipelines.extract import build_extract_ds

    sizes = pq.read_table(tiny_pages_dir, columns=["html"])["html"].to_pylist()
    assert sum(len(h) > 16 << 10 for h in sizes if h) >= 2  # giants split

    whole = build_extract_ds(tiny_pages_dir).to_pandas().set_index("url")
    split = (
        build_extract_ds(tiny_pages_dir, engine_kwargs={"segment_bytes": 16 << 10})
        .to_pandas()
        .set_index("url")
    )
    assert set(split.index) == set(whole.index)
    for url, w in whole.iterrows():
        s = split.loc[url]
        assert s["extracted_text"] == w["extracted_text"], url
        assert list(s["spans"]) == list(w["spans"]), url
        assert s["success"] == w["success"], url
        assert s["content_hash"] == w["content_hash"], url


def test_lineage_columns(extract_out):
    out, _ = extract_out
    df = _results_df(out)
    # hive partition column comes back as str/categorical — normalize
    df["shard_id"] = df["shard_id"].astype(int)
    assert set(df["shard_id"].unique()) == {0, 1, 2, 3}
    for sid, g in df.groupby("shard_id"):
        assert sorted(g["row_idx"]) == list(range(50))


def test_manifest_records(extract_out):
    out, _ = extract_out
    from xs_vlm_ocr_ray.state.manifest import load_manifest, xor_hex_digests

    man = load_manifest(out)
    assert sorted(man) == [0, 1, 2, 3]
    df = _results_df(out)
    df["shard_id"] = df["shard_id"].astype(int)
    for sid, rec in man.items():
        g = df[df["shard_id"] == sid]
        assert rec["n_rows"] == len(g) == 50
        assert rec["n_success"] == int(g["success"].sum())
        assert rec["hash_xor"] == xor_hex_digests(g["content_hash"])
        assert rec["row_min"] == 0 and rec["row_max"] == 49


def test_resume_skips_completed(extract_out, tiny_pages_dir):
    out, _ = extract_out
    from xs_vlm_ocr_ray.pipelines.extract import run_extract

    again = run_extract(tiny_pages_dir, out, concurrency=2, batch_size=64)
    assert again["waves"] == 0  # nothing pending
    assert again["rows"] == 200  # manifest still accounts for everything


def test_kill_and_resume(ray_session, tiny_pages_dir, tmp_path_factory):
    """Crash simulation: stop after the first of two waves, resume, and
    verify the resumed run reprocesses only the missing shards and the
    combined output is complete and duplicate-free."""
    from xs_vlm_ocr_ray.pipelines.extract import read_results, run_extract
    from xs_vlm_ocr_ray.state.manifest import load_manifest

    out = str(tmp_path_factory.mktemp("resume_out"))
    first = run_extract(
        tiny_pages_dir, out, concurrency=2, batch_size=64, wave_shards=2, max_waves=1
    )
    assert first["waves"] == 1
    assert sorted(load_manifest(out)) == [0, 1]

    second = run_extract(tiny_pages_dir, out, concurrency=2, batch_size=64, wave_shards=2)
    assert second["waves"] == 1  # only the pending half ran
    assert sorted(load_manifest(out)) == [0, 1, 2, 3]
    assert second["rows"] == 200

    df = read_results(out, columns=["url", "shard_id", "row_idx"]).to_pandas()
    assert len(df) == 200
    assert df["url"].nunique() == 200


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    import pandas as pd

    assert res is not None


def test_read_results_manifest_pruning(ray_session, tiny_pages_dir, tmp_path_factory):
    """Predicate-pushed manifest pruning: shard_ids / row_range reads
    prune FILES before read_parquet (via the manifest's per-shard
    records) and return exactly the rows a full read + filter would."""
    from xs_vlm_ocr_ray.pipelines.extract import (
        read_results,
        run_extract,
        select_result_files,
    )
    from xs_vlm_ocr_ray.state.manifest import load_manifest

    out = str(tmp_path_factory.mktemp("pruned") / "out")
    run_extract(tiny_pages_dir, out, wave_shards=2)  # multi-wave store
    man = load_manifest(out)
    assert len(man) >= 4

    full = read_results(out).to_pandas()

    # shard-id pruning
    want_ids = sorted(man)[:2]
    got = read_results(out, shard_ids=want_ids).to_pandas()
    want = full[full["shard_id"].isin(want_ids)]
    assert sorted(got["url"]) == sorted(want["url"])
    # the pruned plan lists strictly fewer files than the full plan
    man_sub = {s: man[s] for s in want_ids}
    n_all = len(select_result_files(out, man))
    n_sub = len(select_result_files(out, man_sub))
    assert 0 < n_sub < n_all

    # row-range pruning (exact filter on survivors)
    lo, hi = 0, 9
    got_r = read_results(out, row_range=(lo, hi)).to_pandas()
    want_r = full[(full["row_idx"] >= lo) & (full["row_idx"] <= hi)]
    assert sorted(got_r["url"]) == sorted(want_r["url"])
    # combined
    got_c = read_results(out, shard_ids=want_ids, row_range=(lo, hi)).to_pandas()
    want_c = want[(want["row_idx"] >= lo) & (want["row_idx"] <= hi)]
    assert sorted(got_c["url"]) == sorted(want_c["url"])
    # empty prune result is an empty dataset, not an error
    assert read_results(out, shard_ids=[99999]).count() == 0


def test_foreign_parquet_refused_by_reads_and_rewrites(
    ray_session, tiny_pages_dir, tmp_path_factory
):
    """A .parquet in a manifested wave dir that does not follow the
    part-file naming is foreign: reads and both store rewrites refuse it
    by name, before anything is read, rewritten or collected."""
    import os
    import shutil

    from xs_vlm_ocr_ray.pipelines.extract import (
        compact_results,
        read_results,
        retain_recent,
        run_extract,
    )
    from xs_vlm_ocr_ray.state.manifest import load_manifest

    out = str(tmp_path_factory.mktemp("foreign") / "out")
    run_extract(tiny_pages_dir, out, wave_shards=2)
    man = load_manifest(out)
    wave_dir = sorted({r["wave_dir"] for r in man.values()})[0]
    part = sorted(f for f in os.listdir(wave_dir) if f.endswith(".parquet"))[0]
    foreign = os.path.join(wave_dir, "foreign.parquet")
    shutil.copyfile(os.path.join(wave_dir, part), foreign)

    def snapshot():
        return sorted(
            os.path.relpath(os.path.join(d, f), out)
            for d, _, fs in os.walk(out) for f in fs
        )

    files_before = snapshot()
    for mutate in (
        lambda: read_results(out),
        lambda: read_results(out, columns=["url"], row_range=(0, 9)),
        lambda: compact_results(out),
        lambda: retain_recent(out, 50),
    ):
        with pytest.raises(ValueError, match="foreign.parquet"):
            mutate()
    assert load_manifest(out) == man
    assert snapshot() == files_before
    assert os.path.isfile(foreign)


def test_read_results_relocated_relative_out_dir(
    ray_session, tiny_pages_dir, tmp_path_factory, monkeypatch
):
    """A store moved after writing is read through its manifest's wave
    NAMES re-rooted under the caller's out_dir, and a relative out_dir
    is absolutized before the files reach the Ray workers."""
    import os
    import shutil

    from xs_vlm_ocr_ray.pipelines.extract import (
        read_results,
        run_extract,
        select_result_files,
    )
    from xs_vlm_ocr_ray.state.manifest import load_manifest

    base = tmp_path_factory.mktemp("relocate")
    out = str(base / "out")
    run_extract(tiny_pages_dir, out, wave_shards=2)
    full = read_results(out).to_pandas()
    new_parent = base / "elsewhere"
    new_parent.mkdir()
    shutil.move(out, str(new_parent / "moved"))
    monkeypatch.chdir(new_parent)
    # absolute and present before any Ray task sees them (a relative
    # path would resolve against the workers' cwd)
    files = select_result_files("moved", load_manifest("moved"))
    assert files and all(os.path.isabs(f) and os.path.isfile(f) for f in files)

    got = read_results("moved", shard_ids=[1, 2]).to_pandas()
    assert sorted(got["url"]) == sorted(full[full["shard_id"].isin([1, 2])]["url"])
    got_r = read_results("moved", columns=["url"], row_range=(10, 19)).to_pandas()
    assert list(got_r.columns) == ["url"]
    want_r = full[(full["row_idx"] >= 10) & (full["row_idx"] <= 19)]
    assert sorted(got_r["url"]) == sorted(want_r["url"])
    assert len(got_r) == 40


def test_compact_results(ray_session, tiny_pages_dir, tmp_path_factory):
    """Compaction rewrites a multi-wave store into one file per shard,
    preserves every row and the manifest/pruning/resume contracts, and
    drops the old wave directories."""
    import os

    from xs_vlm_ocr_ray.pipelines.extract import (
        compact_results,
        read_results,
        run_extract,
    )
    from xs_vlm_ocr_ray.state.manifest import load_manifest

    out = str(tmp_path_factory.mktemp("compact") / "out")
    run_extract(tiny_pages_dir, out, wave_shards=2)  # multi-wave store
    before = read_results(out).to_pandas().sort_values("url").reset_index(drop=True)
    man_before = load_manifest(out)

    summary = compact_results(out)
    assert summary["compacted_shards"] == len(man_before)
    assert summary["files_after"] <= summary["files_before"]
    # one file per (non-empty) shard, old wave dirs gone
    results_dir = os.path.join(out, "results")
    dirs = sorted(os.listdir(results_dir))
    assert dirs == ["compact-000001"]

    after = read_results(out).to_pandas().sort_values("url").reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(after, before[after.columns])
    # manifest stats survive the rewrite (counts + checksum per shard)
    man_after = load_manifest(out)
    for sid, rec in man_before.items():
        for k in ("n_rows", "n_success", "n_error", "hash_xor", "row_min", "row_max"):
            assert man_after[sid][k] == rec[k], (sid, k)
    # resume still sees everything complete
    again = run_extract(tiny_pages_dir, out, wave_shards=2)
    assert again["waves"] == 0
    # shard pruning still works against compacted files
    some = sorted(man_after)[:2]
    got = read_results(out, shard_ids=some).to_pandas()
    assert set(got["shard_id"]) == set(some)


def test_retain_recent(ray_session, tiny_pages_dir, tmp_path_factory):
    """O3 retention as a store rewrite: only the newest N rows by
    lineage order survive; dropped shards keep zero-row manifest
    records so resume never reprocesses them."""
    from xs_vlm_ocr_ray.pipelines.extract import (
        read_results,
        retain_recent,
        run_extract,
    )
    from xs_vlm_ocr_ray.state.manifest import load_manifest

    import os

    out = str(tmp_path_factory.mktemp("retain") / "out")
    run_extract(tiny_pages_dir, out, wave_shards=2)
    before = read_results(out).to_pandas()
    man_before = load_manifest(out)
    total = len(before)
    limit = total // 2 + 7  # forces a mid-shard boundary cut
    # inodes of the whole-kept shards' files — retention must LINK
    # them into the new wave, not rewrite them (round 4)
    inode_by_name = {}
    for rec in man_before.values():
        wd = rec["wave_dir"]
        if os.path.isdir(wd):
            for f in os.listdir(wd):
                if f.endswith(".parquet"):
                    inode_by_name[f] = os.stat(os.path.join(wd, f)).st_ino

    summary = retain_recent(out, limit)
    assert summary["retained_rows"] == limit
    assert summary["dropped_rows"] == total - limit

    man_now = load_manifest(out)
    linked = rewritten = 0
    for wd in {r["wave_dir"] for r in man_now.values() if os.path.isdir(r["wave_dir"])}:
        for f in os.listdir(wd):
            if not f.endswith(".parquet"):
                continue
            ino = os.stat(os.path.join(wd, f)).st_ino
            if inode_by_name.get(f) == ino:
                linked += 1
            else:
                rewritten += 1
    # tmp_path is a hardlink-capable fs here, so kept shards must share
    # inodes with the old wave (the copy2 fallback is for exotic
    # filesystems); only the boundary shard's rows get fresh files
    assert linked > 0
    assert 1 <= rewritten <= 2  # boundary rows only (file count may split)

    after = read_results(out).to_pandas()
    want = before.sort_values(
        ["shard_id", "row_idx"], ascending=False
    ).head(limit)
    assert sorted(after["url"]) == sorted(want["url"])
    # manifest coverage unchanged vs PRE-retention (dropped shards keep
    # zero-row records — no shard goes back to pending)
    man = load_manifest(out)
    assert set(man) == set(man_before)
    assert sum(r["n_rows"] for r in man.values()) == limit
    again = run_extract(tiny_pages_dir, out, wave_shards=2)
    assert again["waves"] == 0
    # retention beyond the store size is a no-op rewrite
    summary2 = retain_recent(out, limit * 10)
    assert summary2["retained_rows"] == limit and summary2["dropped_rows"] == 0


def test_compact_results_merges_fragmented_shards(
    ray_session, tiny_pages_dir, tmp_path_factory
):
    """The per-shard local compaction path (round 4: no shuffle) merges
    a store with MANY files per shard into one file per shard, byte-
    preserving rows and manifest stats/checksums."""
    import os

    from ray.data import DataContext

    from xs_vlm_ocr_ray.pipelines.extract import (
        compact_results,
        read_results,
        run_extract,
    )
    from xs_vlm_ocr_ray.state.manifest import load_manifest

    out = str(tmp_path_factory.mktemp("frag") / "out")
    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024  # tiny blocks → many files/shard
    try:
        run_extract(tiny_pages_dir, out, wave_shards=2)
    finally:
        ctx.target_max_block_size = saved
    man_before = load_manifest(out)
    before = read_results(out).to_pandas().sort_values("url").reset_index(drop=True)

    summary = compact_results(out)
    assert summary["files_before"] > len(man_before)  # actually fragmented
    n_nonempty = sum(1 for r in man_before.values() if r["n_rows"] > 0)
    assert summary["files_after"] == n_nonempty  # one file per shard now

    after = read_results(out).to_pandas().sort_values("url").reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(after, before[after.columns])
    man_after = load_manifest(out)
    for sid, rec in man_before.items():
        for k in ("n_rows", "n_success", "n_error", "hash_xor", "row_min", "row_max"):
            assert man_after[sid][k] == rec[k], (sid, k)
    # second compaction over an already-compact store is a no-op rewrite
    again = compact_results(out)
    assert again["files_after"] == again["files_before"] == n_nonempty

    # rows_per_file is a HARD per-file bound (a tail row group landing
    # on a nearly-full buffer must split, not double the bound)
    import glob

    import pyarrow.parquet as pq

    compact_results(out, rows_per_file=30)
    files = glob.glob(os.path.join(out, "results", "*", "*.parquet"))
    assert files and all(
        pq.ParquetFile(f).metadata.num_rows <= 30 for f in files
    )
    final = read_results(out).to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(final, before[final.columns])


def test_store_writer_lock(ray_session, tiny_pages_dir, tmp_path_factory):
    """The single-writer contract is enforced, not just documented: a
    live or foreign-host lock blocks every store mutation; a stale lock
    from a dead same-host pid is reclaimed (crashed writers must not
    brick the store); a clean run releases the lock."""
    import json
    import os
    import subprocess

    import pytest

    from xs_vlm_ocr_ray.pipelines.extract import (
        StoreLockedError,
        compact_results,
        retain_recent,
        run_extract,
    )

    out = str(tmp_path_factory.mktemp("lock") / "out")
    run_extract(tiny_pages_dir, out, wave_shards=2)
    lock = os.path.join(out, ".writer.lock")
    assert not os.path.exists(lock)  # released after a clean run

    # a live same-host writer (this very process) blocks all mutators
    import socket

    with open(lock, "w") as f:
        json.dump({"pid": os.getpid(), "host": socket.gethostname()}, f)
    for op in (
        lambda: run_extract(tiny_pages_dir, out),
        lambda: compact_results(out),
        lambda: retain_recent(out, 10),
    ):
        with pytest.raises(StoreLockedError):
            op()
    assert os.path.exists(lock)  # a refused acquire never unlinks

    # a foreign-host lock is never presumed stale
    with open(lock, "w") as f:
        json.dump({"pid": 1, "host": "some-other-node"}, f)
    with pytest.raises(StoreLockedError):
        compact_results(out)

    # a dead same-host pid is a crash leftover: reclaimed transparently;
    # an orphaned reclaim claim-file (crash between rename and unlink)
    # is garbage-collected once the lock is held
    p = subprocess.Popen(["sleep", "0"])
    p.wait()
    with open(lock, "w") as f:
        json.dump({"pid": p.pid, "host": socket.gethostname()}, f)
    orphan = lock + ".reclaim-99999"
    with open(orphan, "w") as f:
        f.write("{}")
    os.utime(orphan, (0, 0))  # old mtime → eligible for GC
    summary = compact_results(out)
    assert summary["compacted_shards"] > 0
    assert not os.path.exists(lock)
    assert not os.path.exists(orphan)

    # rows_per_file < 1 must refuse, not silently zero out the store
    # (pyarrow iter_batches(batch_size=0) yields an empty iterator)
    with pytest.raises(ValueError):
        compact_results(out, rows_per_file=0)

    # an unreadable/empty lock (torn write, pre-link-acquire crash)
    # blocks while fresh but is reclaimed once past the grace period —
    # it must not brick the store forever
    with open(lock, "w") as f:
        f.write("")  # no pid to probe
    with pytest.raises(StoreLockedError):
        compact_results(out)
    os.utime(lock, (0, 0))  # older than the 60 s grace window
    assert compact_results(out)["files_after"] >= 0
    assert not os.path.exists(lock)

    # acquisition never leaves the lock observably empty: while a run
    # holds it, the payload parses and names this process
    from xs_vlm_ocr_ray.pipelines.extract import store_writer_lock

    with store_writer_lock(out):
        with open(lock) as f:
            held = json.load(f)
        assert held["pid"] == os.getpid()
        assert not [
            p for p in os.listdir(out) if p.startswith(".writer.lock.acquire-")
        ]  # the acquire temp is cleaned up immediately


def test_compact_crash_mid_manifest_rewrite(
    ray_session, tiny_pages_dir, tmp_path_factory
):
    """Crash BETWEEN per-shard manifest record rewrites (the one
    rewrite state no other test pins): some records point at the new
    compact wave, the rest still at their old waves, and BOTH
    directories exist (GC runs only after all records repoint). Reads
    over the mixed manifest must serve exactly the original rows, and
    the next compaction must converge to a single wave."""
    import os
    import shutil

    import pandas as pd

    from xs_vlm_ocr_ray.pipelines.extract import (
        compact_results,
        read_results,
        run_extract,
    )
    from xs_vlm_ocr_ray.state.manifest import load_manifest, write_shard_record

    out = str(tmp_path_factory.mktemp("midcrash") / "out")
    run_extract(tiny_pages_dir, out, wave_shards=2)
    results_dir = os.path.join(out, "results")
    before = read_results(out).to_pandas().sort_values("url").reset_index(drop=True)
    man_old = load_manifest(out)
    old_waves = {os.path.basename(r["wave_dir"]) for r in man_old.values()}
    backup = str(tmp_path_factory.mktemp("midcrash") / "bak")
    shutil.copytree(results_dir, backup)

    compact_results(out)
    # reconstruct the mid-rewrite state: restore the old wave dirs next
    # to the compact wave, then point HALF the shard records back at
    # their pre-compact records (per-shard record writes are atomic, so
    # a kill mid-loop leaves exactly this mixture)
    for wd in old_waves:
        shutil.copytree(os.path.join(backup, wd), os.path.join(results_dir, wd))
    rolled_back = sorted(man_old)[: len(man_old) // 2]
    assert rolled_back  # the mixture is real
    for sid in rolled_back:
        write_shard_record(out, man_old[sid])

    # mixed manifest reads are exact: each shard served from the one
    # wave its record references, no dupes, no losses
    mixed = read_results(out).to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(mixed, before[mixed.columns])

    # the next rewrite converges: one wave, every record repointed,
    # rows byte-identical
    compact_results(out)
    dirs = sorted(d for d in os.listdir(results_dir) if not d.startswith("."))
    assert len(dirs) == 1 and dirs[0].startswith("compact-")
    man_new = load_manifest(out)
    assert {os.path.basename(r["wave_dir"]) for r in man_new.values()} == {dirs[0]}
    final = read_results(out).to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(final, before[final.columns])


def test_q_retention_store_matches_duckdb(ray_session):
    """The q_retention_store registry entry (documents → store →
    retain_recent(50) → manifest read-back) matches its exact DuckDB
    oracle at sf0.001."""
    import duckdb
    import pandas as pd

    from xs_vlm_ocr_ray.pipelines.queries import (
        _RETENTION_STORE_SQL,
        q_retention_store,
    )

    sf = "/root/testdata/sf0.001"
    got = q_retention_store(sf)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.sql(_RETENTION_STORE_SQL).df()
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


def test_rewrite_store_gc_reclaims_crash_orphans(
    ray_session, tiny_pages_dir, tmp_path_factory
):
    """A compaction wave renamed into place but never manifested (crash
    between rename and record rewrite) is garbage-collected by the next
    rewrite instead of leaking a store-sized copy forever."""
    import os
    import shutil

    from xs_vlm_ocr_ray.pipelines.extract import (
        compact_results,
        read_results,
        run_extract,
    )

    out = str(tmp_path_factory.mktemp("gc") / "out")
    run_extract(tiny_pages_dir, out, wave_shards=2)
    before = read_results(out).to_pandas()
    results_dir = os.path.join(out, "results")
    # simulate the crash leftovers: an un-manifested renamed compact
    # wave (full copy of one real wave) and a stale tmp dir
    some_wave = sorted(
        d for d in os.listdir(results_dir) if not d.startswith(".")
    )[0]
    shutil.copytree(
        os.path.join(results_dir, some_wave),
        os.path.join(results_dir, "compact-000001"),
    )
    os.makedirs(os.path.join(results_dir, ".tmp-compact-000001"))

    summary = compact_results(out)
    assert summary["compacted_shards"] >= 4
    dirs = sorted(os.listdir(results_dir))
    # orphans reclaimed; only the new manifested wave remains (its seq
    # continues past the orphan's)
    assert dirs == ["compact-000002"]
    after = read_results(out).to_pandas().sort_values("url").reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(
        after, before.sort_values("url").reset_index(drop=True)[after.columns]
    )


def test_store_writer_lock_no_hardlink_fs(tmp_path, monkeypatch):
    """Filesystems that deny link(2) (EPERM/EACCES — some NFS exports,
    security modules) must fall back to the O_EXCL create form, not
    crash every store mutator; held-lock detection must survive the
    fallback too."""
    import errno
    import json
    import os
    import socket

    import pytest

    from xs_vlm_ocr_ray.pipelines import extract as ex

    store = tmp_path / "store"
    store.mkdir()
    real_link = os.link

    def deny_link(src, dst, **kw):
        if str(dst).endswith(".writer.lock"):
            raise PermissionError(errno.EPERM, "link denied", str(dst))
        return real_link(src, dst, **kw)

    monkeypatch.setattr(os, "link", deny_link)
    lock = store / ".writer.lock"
    with ex.store_writer_lock(str(store)):
        held = json.loads(lock.read_text())
        assert held["pid"] == os.getpid()
    assert not lock.exists()  # released

    # held lock is still detected on the fallback path
    lock.write_text(
        json.dumps({"pid": os.getpid(), "host": socket.gethostname()})
    )
    with pytest.raises(ex.StoreLockedError):
        with ex.store_writer_lock(str(store)):
            pass


def test_corrupt_lock_reclaimed_after_grace(tmp_path):
    """A garbage or JSON-non-dict lock older than the grace period is
    reclaimed (round-5 review: the claim re-read mapped unreadable to
    None while the inspection mapped it to {}, so `got == held` never
    held for corrupt locks and the restore freshened the mtime —
    re-bricking the store on every attempt)."""
    import json
    import os
    import socket

    import pytest

    from xs_vlm_ocr_ray.pipelines import extract as ex

    store = tmp_path / "store"
    store.mkdir()
    lock = store / ".writer.lock"
    for payload in ("{not json", "null", '"a-string"', "3"):
        lock.write_text(payload)
        os.utime(lock, (0, 0))  # ancient → past the 60 s grace period
        with ex.store_writer_lock(str(store)):
            held = json.loads(lock.read_text())
            assert held["pid"] == os.getpid()
        assert not lock.exists()
    # a FRESH corrupt lock is NOT reclaimed (could be a mid-write peer)
    # and must fail typed, not with AttributeError on held.get
    lock.write_text("null")
    with pytest.raises(ex.StoreLockedError):
        with ex.store_writer_lock(str(store)):
            pass
    # same-host dead-pid reclaim still works with a dict payload
    lock.write_text(json.dumps({"pid": 2**22 + 1234, "host": socket.gethostname()}))
    with ex.store_writer_lock(str(store)):
        pass
    assert not lock.exists()


def test_resume_refuses_changed_input_set(ray_session, tiny_pages_dir, tmp_path_factory):
    """Resume identity is index-into-sorted-shard-list; if the input
    file set changed since the manifest was written, resume must refuse
    loudly instead of silently skipping new files / shifting lineage."""
    import pytest

    from xs_vlm_ocr_ray.pipelines.extract import run_extract
    from xs_vlm_ocr_ray.sources.pages import list_shards

    out = str(tmp_path_factory.mktemp("resume_guard") / "out")
    run_extract(tiny_pages_dir, out, wave_shards=4)
    paths = list_shards(tiny_pages_dir)
    # same set, different order of the same list → still fine (sorted)
    s = run_extract(tiny_pages_dir, out)
    assert s["waves"] == 0  # nothing pending
    # drop the first shard from the input list → every index shifts
    with pytest.raises(ValueError, match="resume mismatch"):
        run_extract(paths[1:], out)
    # fresh out_dir with the changed set is fine
    out2 = str(tmp_path_factory.mktemp("resume_guard") / "out2")
    s2 = run_extract(paths[1:], out2)
    assert s2["shards"] == len(paths) - 1


def test_retain_recent_noop_when_limit_covers_store(ray_session, tiny_pages_dir, tmp_path_factory):
    """limit >= total rows must not rewrite/relink anything — the store
    (wave dirs, manifest records) is untouched."""
    import os

    from xs_vlm_ocr_ray.pipelines.extract import retain_recent, run_extract
    from xs_vlm_ocr_ray.state.manifest import load_manifest

    out = str(tmp_path_factory.mktemp("retain_noop") / "out")
    run_extract(tiny_pages_dir, out, wave_shards=2)
    man_before = load_manifest(out)
    dirs_before = sorted(os.listdir(os.path.join(out, "results")))
    r = retain_recent(out, 10**9)
    assert r == {"retained_rows": 200, "dropped_rows": 0}
    assert load_manifest(out) == man_before
    assert sorted(os.listdir(os.path.join(out, "results"))) == dirs_before


def test_preload_recent_empty_store(ray_session, tmp_path):
    """A fresh store (no manifest) preloads an empty cache, not a
    KeyError on a schema-less empty collect."""
    from xs_vlm_ocr_ray.pipelines.extract import preload_recent

    store = tmp_path / "fresh"
    store.mkdir()
    assert preload_recent(str(store)) == {}


def test_compaction_aborts_on_row_loss(ray_session, tiny_pages_dir, tmp_path_factory):
    """The rewrite loss gate: if a manifested shard's rewritten rows
    don't reconcile with its record (here: the record claims one more
    row than the files hold, simulating silent data loss), compaction
    must abort BEFORE committing — manifest and wave dirs unchanged."""
    import pytest

    from xs_vlm_ocr_ray.pipelines.extract import compact_results, run_extract
    from xs_vlm_ocr_ray.state.manifest import load_manifest, write_shard_record

    out = str(tmp_path_factory.mktemp("loss_gate") / "out")
    run_extract(tiny_pages_dir, out, wave_shards=4)
    man = load_manifest(out)
    rec = dict(man[2])
    rec["n_rows"] += 1  # the files now hold fewer rows than the record
    write_shard_record(out, rec)
    with pytest.raises(RuntimeError, match="does not reconcile"):
        compact_results(out)
    assert load_manifest(out)[2]["n_rows"] == rec["n_rows"]  # untouched
    # restore the true record → compaction succeeds and round-trips
    write_shard_record(out, man[2])
    s = compact_results(out)
    assert s["compacted_shards"] == 4


def test_run_extract_fsync_data_path(ray_session, tiny_pages_dir, tmp_path_factory):
    """The opt-in power-loss durability path (fsync every data file
    before its stats row) produces an identical store."""
    from xs_vlm_ocr_ray.pipelines.extract import read_results, run_extract

    out = str(tmp_path_factory.mktemp("fsync") / "out")
    s = run_extract(tiny_pages_dir, out, wave_shards=2, fsync_data=True)
    assert s["rows"] == 200
    assert read_results(out).count() == 200


def test_read_pages_empty_respects_columns(ray_session, tmp_path):
    """An empty input dir returns the REQUESTED typed schema + lineage,
    not a hardcoded url-only one; lists route through list_shards (dir
    expansion + sorted shard ids)."""
    import pyarrow.parquet as pq

    from xs_vlm_ocr_ray.fixtures import pages_table
    from xs_vlm_ocr_ray.sources.pages import read_pages

    empty_dir = tmp_path / "nopages"
    empty_dir.mkdir()
    ds = read_pages(str(empty_dir), columns=["url", "html"])
    assert ds.schema().names == ["url", "html", "shard_id", "row_idx"]
    assert ds.count() == 0

    # a LIST whose entries are unsorted gets the same shard ids as the
    # directory read (sorted order IS the lineage contract)
    d = tmp_path / "pages"
    d.mkdir()
    for s in range(2):
        pq.write_table(pages_table(range(s * 5, (s + 1) * 5), seed=1),
                       d / f"shard-{s}.parquet")
    by_dir = read_pages(str(d), columns=["url"]).to_pandas()
    by_list = read_pages(
        [str(d / "shard-1.parquet"), str(d / "shard-0.parquet")], columns=["url"]
    ).to_pandas()
    assert by_dir.sort_values(["shard_id", "row_idx"]).equals(
        by_list.sort_values(["shard_id", "row_idx"]).reset_index(drop=True)
    ) or (
        by_dir.reset_index(drop=True).equals(by_list.reset_index(drop=True))
    )


def _gapped_store(pages_dir, out):
    """A two-wave store shaped like a filtered stage-1 store: every odd
    row_idx is dropped, so each shard's row_idx has gaps, and the
    newest shard's rows from row_idx 20 on are failed. Returns the full
    read-back as pandas."""
    import pyarrow.compute as pc

    from xs_vlm_ocr_ray.pipelines.extract import (
        build_extract_ds,
        read_results,
        run_extract,
    )
    from xs_vlm_ocr_ray.sources.pages import list_shards

    newest = len(list_shards(pages_dir)) - 1

    def gaps(t):
        t = t.filter(pc.equal(pc.bit_wise_and(t["row_idx"], 1), 0))
        failed = pc.and_(
            pc.equal(t["shard_id"], newest), pc.greater_equal(t["row_idx"], 20)
        )
        ok = pc.and_(t["success"], pc.invert(failed))
        return t.set_column(t.schema.get_field_index("success"), "success", ok)

    def builder(paths, skip):
        return build_extract_ds(paths, skip_shards=skip).map_batches(
            gaps, batch_format="pyarrow"
        )

    run_extract(pages_dir, out, wave_shards=2, ds_builder=builder)
    full = read_results(out).to_pandas()
    assert len(full) == 100 and not (full["row_idx"] % 2).any()
    return full


def test_gapped_store_row_range_and_preload(ray_session, tiny_pages_dir, tmp_path_factory):
    """On a store with row_idx gaps, a projected row-range read returns
    exactly the rows of a full read + filter and only the projected
    columns (including ranges the manifest keeps but no row matches),
    and preload_recent equals a brute-force recency scan when failed
    rows at the newest shard's tail make its walk cross shards."""
    from xs_vlm_ocr_ray.pipelines.extract import preload_recent, read_results
    from xs_vlm_ocr_ray.state.manifest import load_manifest

    out = str(tmp_path_factory.mktemp("gapped") / "out")
    full = _gapped_store(tiny_pages_dir, out)
    assert len({r["wave_dir"] for r in load_manifest(out).values()}) == 2

    for lo, hi in [(0, 0), (1, 1), (9, 30), (10, 34), (47, 49), (-5, 2)]:
        got = read_results(out, row_range=(lo, hi), columns=["url"]).to_pandas()
        want = full[(full["row_idx"] >= lo) & (full["row_idx"] <= hi)]
        assert set(got.columns) <= {"url"}  # an empty read has no columns
        assert sorted(got.get("url", [])) == sorted(want["url"])

    ok = full[full["success"]].sort_values(["shard_id", "row_idx"], ascending=False)
    newest = full["shard_id"].max()
    n_newest = int((ok["shard_id"] == newest).sum())
    assert 0 < n_newest < int((full["shard_id"] == newest).sum())
    for limit in (1, 3, n_newest, n_newest + 5, 60):
        want: dict = {}
        head = ok.head(limit)
        for h, url, text in zip(head["content_hash"], head["url"], head["extracted_text"]):
            if h and h not in want:
                want[h] = {"url": url, "extracted_text": text}
        assert preload_recent(out, limit=limit) == want
    assert ok.head(n_newest + 5)["shard_id"].nunique() == 2  # the walk crossed


def test_gapped_store_retain_recent(ray_session, tiny_pages_dir, tmp_path_factory):
    """Retention on a store with row_idx gaps keeps exactly the newest N
    rows by (shard_id, row_idx); the boundary shard's rewritten files
    hold only rows at or above its cutoff."""
    import os

    from xs_vlm_ocr_ray.pipelines.extract import read_results, retain_recent
    from xs_vlm_ocr_ray.state.manifest import load_manifest

    out = str(tmp_path_factory.mktemp("gapped_retain") / "out")
    full = _gapped_store(tiny_pages_dir, out)
    man_before = load_manifest(out)
    limit = 37  # 25 rows per shard: one whole shard plus a 12-row cut
    want = full.sort_values(["shard_id", "row_idx"], ascending=False).head(limit)

    summary = retain_recent(out, limit)
    assert summary["retained_rows"] == limit
    assert summary["dropped_rows"] == len(full) - limit
    after = read_results(out).to_pandas()
    key = ["shard_id", "row_idx"]
    assert sorted(map(tuple, after[key].to_numpy())) == sorted(
        map(tuple, want[key].to_numpy())
    )
    assert sorted(after["url"]) == sorted(want["url"])

    man = load_manifest(out)
    b_sid = sorted(set(want["shard_id"]))[0]
    cutoff = int(want.loc[want["shard_id"] == b_sid, "row_idx"].min())
    assert 0 < man[b_sid]["n_rows"] < man_before[b_sid]["n_rows"]
    assert man[b_sid]["row_min"] == cutoff
    wd = man[b_sid]["wave_dir"]
    b_files = [f for f in os.listdir(wd) if f.startswith(f"part-s{b_sid:06d}-")]
    assert b_files
    for f in b_files:
        idx = pq.read_table(os.path.join(wd, f), columns=["row_idx"])["row_idx"]
        assert min(idx.to_pylist()) >= cutoff


def test_read_tasks_packing_rule():
    """The read-grouping rule on its own (no Ray): ``k`` = the CPU count
    clamped to 1..#files groups, none empty, each in the given order;
    the largest group holds at most total / k + the largest file; and a
    compacted store's large files each get their own group."""
    import random

    from xs_vlm_ocr_ray.pipelines.extract import _read_groups

    def groups_of(sizes, cpus):
        files = list(range(len(sizes)))
        groups = _read_groups(files, cpus, sizes.__getitem__)
        k = max(1, min(cpus, len(files)))
        assert len(groups) == k and all(groups), (sizes, cpus, groups)
        assert sorted(f for g in groups for f in g) == files
        assert all(g == sorted(g) for g in groups)
        largest = max(sum(sizes[f] for f in g) for g in groups)
        assert largest <= sum(sizes) / k + max(sizes)
        return groups

    for cpus in (0, 1, 3, 10, 32):
        groups_of([5] * 10, cpus)
    assert groups_of([7], 8) == [[0]]
    groups_of([0] * 6, 4)  # zero-byte files still fill every group
    rng = random.Random(7)
    for _ in range(50):
        sizes = [rng.choice([0, 1, 10, 1000, 10**6]) for _ in range(rng.randint(1, 40))]
        groups_of(sizes, rng.randint(1, 12))

    mb, kib = 10**6, 1 << 10
    # a compacted store (8 files of 100 MB, the lowest shard ids, so listed
    # first) that then got a wave of 92 files of 256 KiB, on 8 CPUs
    groups = groups_of([100 * mb] * 8 + [256 * kib] * 92, 8)
    assert sorted(sum(f < 8 for f in g) for g in groups) == [1] * 8


def test_packed_reads_fragmented_store(ray_session, tiny_pages_dir, tmp_path_factory):
    """On a compacted store that then got a wave of many small files:
    the compacted files land in different read groups; a read plus a
    map runs as ONE fused ``ReadResults->MapBatches(f)`` operator with
    one task per group, each task's block holding its group's rows;
    reads return exactly the rows of ``pq.read_table`` over the same
    manifest-pruned files (all columns, a subset, shard ids, row
    ranges); ``preload_recent`` equals a driver-side recency sort; and
    a one-shard read plus a map is one fused operator too, in one task
    per CPU (at most one per file)."""
    import re

    import pyarrow as pa
    from ray.data import DataContext

    from xs_vlm_ocr_ray.cluster import cluster_cpus
    from xs_vlm_ocr_ray.pipelines.extract import (
        _read_groups,
        compact_results,
        preload_recent,
        read_results,
        run_extract,
        select_result_files,
    )
    from xs_vlm_ocr_ray.state.manifest import load_manifest

    out = str(tmp_path_factory.mktemp("packed") / "out")
    run_extract(tiny_pages_dir, out, wave_shards=2, max_waves=1)
    compact_results(out)
    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024  # tiny blocks → many files/shard
    try:
        run_extract(tiny_pages_dir, out, wave_shards=2)
    finally:
        ctx.target_max_block_size = saved
    man = load_manifest(out)
    assert len({r["wave_dir"] for r in man.values()}) == 2
    per_shard = {s: select_result_files(out, {s: man[s]}) for s in sorted(man)}
    assert [len(per_shard[s]) for s in (0, 1)] == [1, 1]
    assert min(len(per_shard[s]) for s in (2, 3)) >= 4
    big = {per_shard[0][0], per_shard[1][0]}

    def f(t: pa.Table) -> pa.Table:
        return t

    def fused_ops(ds):
        mat = ds.map_batches(f, batch_format="pyarrow").materialize()
        ops = re.findall(r"^Operator \d+ (\S+): (\d+) tasks executed", mat.stats(), re.M)
        return mat, ops

    files = select_result_files(out, man)
    cpus = cluster_cpus()
    groups = _read_groups(files, cpus)
    assert len(groups) == cpus == 4
    assert sum(1 for g in groups if big & set(g)) == 2
    n_rows = {f: pq.ParquetFile(f).metadata.num_rows for f in files}
    mat, ops = fused_ops(read_results(out, columns=["url"]))
    assert ops == [("ReadResults->MapBatches(f)", str(len(groups)))], ops
    blocks = mat.iter_batches(batch_size=None, batch_format="pyarrow")
    assert sorted(b.num_rows for b in blocks) == sorted(
        sum(n_rows[f] for f in g) for g in groups
    )

    def rows(ds):
        return pa.concat_tables(ds.iter_batches(batch_size=None, batch_format="pyarrow"))

    by_url = [("url", "ascending")]
    for columns, ids, rr in [
        (None, None, None),
        (["url", "extracted_text"], None, None),
        (None, [1, 2], None),
        (["url"], [3], None),
        (None, None, (10, 34)),
        (["url", "row_idx"], [0, 3], (0, 20)),
    ]:
        files = select_result_files(
            out, man if ids is None else {s: man[s] for s in ids}
        )
        filters = None if rr is None else [("row_idx", ">=", rr[0]), ("row_idx", "<=", rr[1])]
        want = pq.read_table(files, columns=columns, filters=filters)
        got = rows(read_results(out, columns=columns, shard_ids=ids, row_range=rr))
        assert want.num_rows and got.sort_by(by_url).equals(want.sort_by(by_url)), (
            columns, ids, rr,
        )

    ok = (
        pq.read_table(select_result_files(out, man)).to_pandas()
        .query("success").sort_values(["shard_id", "row_idx"], ascending=False)
    )
    for limit in (1, 7, 60, 150, 1000):
        want_recent: dict = {}
        for h, url, text in zip(*(ok.head(limit)[c] for c in ("content_hash", "url", "extracted_text"))):
            if h and h not in want_recent:
                want_recent[h] = {"url": url, "extracted_text": text}
        assert preload_recent(out, limit=limit) == want_recent

    for k in sorted(man):
        tasks = min(cpus, len(per_shard[k]))
        mat, ops = fused_ops(read_results(out, shard_ids=[k]))
        assert ops == [("ReadResults->MapBatches(f)", str(tasks))], (k, ops)
        assert mat.count() == man[k]["n_rows"]


def test_store_read_runs_once(ray_session, tiny_pages_dir, tmp_path_factory):
    """The results read's plan carries its schema: ``schema()`` runs no
    plan, and ``to_arrow_refs()`` runs the read exactly once — one
    "Execution plan of Dataset" line in the ``ray.data`` log, not a
    second run of the first block to fetch the schema."""
    import logging

    import ray

    from xs_vlm_ocr_ray.pipelines.extract import read_results, run_extract
    from xs_vlm_ocr_ray.state.manifest import load_manifest

    out = str(tmp_path_factory.mktemp("once") / "out")
    run_extract(tiny_pages_dir, out, wave_shards=2)
    messages: list[str] = []
    handler = logging.Handler(logging.INFO)
    handler.emit = lambda record: messages.append(record.getMessage())
    log = logging.getLogger("ray.data")
    log.addHandler(handler)
    try:
        schema = read_results(out, columns=["url", "success"]).schema()
        assert schema.names == ["url", "success"]
        assert not [m for m in messages if m.startswith("Execution plan of Dataset")]
        tables = ray.get(read_results(out).to_arrow_refs())
    finally:
        log.removeHandler(handler)
    plans = [m for m in messages if m.startswith("Execution plan of Dataset")]
    assert len(plans) == 1, plans
    assert sum(t.num_rows for t in tables) == sum(
        r["n_rows"] for r in load_manifest(out).values()
    )
