"""run_corpus CLI: subprocess drive (owns its own Ray session)."""

import json
import os
import subprocess
import sys

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_run_corpus_extract(tiny_pages_dir, tmp_path):
    out = subprocess.run(
        [
            sys.executable, "scripts/run_corpus.py",
            "--input", tiny_pages_dir,
            "--out", str(tmp_path / "o"),
            "--num-cpus", "2",
            "--wave-shards", "2",
        ],
        capture_output=True, text=True, timeout=600, cwd=CHECKOUT,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["rows"] == 200 and summary["shards"] == 4
    # resume converges: second invocation runs zero waves
    out2 = subprocess.run(
        [
            sys.executable, "scripts/run_corpus.py",
            "--input", tiny_pages_dir,
            "--out", str(tmp_path / "o"),
            "--num-cpus", "2",
        ],
        capture_output=True, text=True, timeout=600, cwd=CHECKOUT,
    )
    summary2 = json.loads(out2.stdout.strip().splitlines()[-1])
    assert summary2["waves"] == 0 and summary2["rows"] == 200


def test_run_corpus_training_gates(ray_session, tiny_pages_dir, tmp_path):
    """--blocklist / --decontam-dir wire through to the curation run:
    gate counts surface in the summary JSON; the flags are rejected for
    the extract pipeline."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from xs_vlm_ocr_ray.pipelines.training import build_training_ds

    df = build_training_ds(tiny_pages_dir).to_pandas()
    # the benchmark doc must survive the blocklist gate below
    cand = df[(df["n_tokens"] >= 50) & ~df["url"].str.contains("//site0.example")]
    bench_text = cand["extracted_text"].iloc[0]
    bdir = tmp_path / "bench"
    bdir.mkdir()
    pq.write_table(pa.table({"text": [bench_text]}), bdir / "bench.parquet")
    bl = tmp_path / "blocklist.txt"
    # hosts-file style: whole-line comment, wildcard entry with a
    # TRAILING inline comment (must parse to the bare domain, review
    # r4), and a blank line
    bl.write_text("# spam domains\n*.site0.example  # seo farm\n\n")

    out = subprocess.run(
        [
            sys.executable, "scripts/run_corpus.py",
            "--input", tiny_pages_dir,
            "--out", str(tmp_path / "o"),
            "--pipeline", "training",
            "--blocklist", str(bl),
            "--decontam-dir", str(bdir),
            "--num-cpus", "2",
        ],
        capture_output=True, text=True, timeout=600, cwd=CHECKOUT,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["n_blocked"] == 3       # site{i%97}: i in {0, 97, 194}
    assert summary["n_contaminated"] >= 1
    assert summary["n_curated"] > 0

    # curation gates are training-pipeline stages: extract rejects them
    bad = subprocess.run(
        [
            sys.executable, "scripts/run_corpus.py",
            "--input", tiny_pages_dir,
            "--out", str(tmp_path / "o2"),
            "--blocklist", str(bl),
        ],
        capture_output=True, text=True, timeout=120, cwd=CHECKOUT,
    )
    assert bad.returncode != 0
    assert "--pipeline training" in bad.stderr


def test_run_corpus_compact(tiny_pages_dir, tmp_path):
    out = subprocess.run(
        [
            sys.executable, "scripts/run_corpus.py",
            "--input", tiny_pages_dir,
            "--out", str(tmp_path / "o"),
            "--num-cpus", "2",
            "--wave-shards", "2",
            "--compact",
        ],
        capture_output=True, text=True, timeout=600, cwd=CHECKOUT,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    c = summary["compaction"]
    assert c["compacted_shards"] >= 4
    assert 0 < c["files_after"] <= c["files_before"]


def test_run_corpus_rejects_misused_flags_and_bad_model(tiny_pages_dir, tmp_path):
    """Training-only flags error under --pipeline extract (a silently
    ignored cap/near-dedup ships an uncurated corpus), and an
    explicitly requested unknown model is an error, not a silent
    fallback to a different engine."""
    import json
    import subprocess
    import sys

    for extra in (["--near-dedup"], ["--max-per-domain", "5"]):
        p = subprocess.run(
            [sys.executable, "scripts/run_corpus.py",
             "--input", tiny_pages_dir, "--out", str(tmp_path / "o1"), *extra],
            capture_output=True, text=True, cwd=CHECKOUT,
        )
        assert p.returncode != 0 and "--pipeline training" in p.stderr

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({}))
    p = subprocess.run(
        [sys.executable, "scripts/run_corpus.py",
         "--input", tiny_pages_dir, "--out", str(tmp_path / "o2"),
         "--config", str(cfg), "--model", "stub-vln"],
        capture_output=True, text=True, cwd=CHECKOUT,
    )
    assert p.returncode == 2 and "not an enabled model" in p.stderr


def test_run_corpus_hot_reload_loop_flags_and_wall(tiny_pages_dir, tmp_path):
    """The --config hot-reload loop (--wave-shards) resumes from the
    manifest between its calls, so --no-resume is rejected there; its
    wall_s sums every call instead of reporting only the last one (a
    zero-wave convergence check)."""
    from xs_vlm_ocr_ray.state.manifest import load_manifest

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"models": [{"id": "m1", "engine": "local_html"}]}))
    base = [sys.executable, "scripts/run_corpus.py", "--input", tiny_pages_dir,
            "--config", str(cfg), "--wave-shards", "2", "--num-cpus", "2"]
    p = subprocess.run(
        [*base, "--out", str(tmp_path / "o1"), "--no-resume"],
        capture_output=True, text=True, cwd=CHECKOUT,
    )
    assert p.returncode == 2 and "--no-resume" in p.stderr

    out_dir = tmp_path / "o2"
    p = subprocess.run(
        [*base, "--out", str(out_dir)],
        capture_output=True, text=True, timeout=600, cwd=CHECKOUT,
    )
    assert p.returncode == 0, p.stderr[-2000:]
    summary = json.loads(p.stdout.strip().splitlines()[-1])
    assert summary["waves"] == 2 and summary["rows"] == 200
    wave_walls = {
        rec["wave_dir"]: rec["wave_wall_s"] for rec in load_manifest(str(out_dir)).values()
    }
    assert len(wave_walls) == 2
    assert summary["wall_s"] >= sum(wave_walls.values())
