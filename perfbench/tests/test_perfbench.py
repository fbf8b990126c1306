"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import bench, corpus, gate, run, trace  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from xs_vlm_ocr_ray.fixtures import gen_page, scenario_for  # noqa: E402

SMALL = {
    "store_readback": lambda seed: corpus.mix_corpus(seed, n_pages=60, shards=2),
    "extract_giant": lambda seed: corpus.giant_corpus(seed, n_pages=8, shards=2),
    "curate": lambda seed: corpus.curate_corpus(seed, n_pages=90, shards=3),
}


def _file_bytes(c: corpus.Corpus, d) -> list[bytes]:
    paths = c.write(str(d))
    out = []
    for p in paths:
        with open(p, "rb") as f:
            out.append(f.read())
    return out


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    build = SMALL[workload]
    a = _file_bytes(build(7), tmp_path / "a")
    b = _file_bytes(build(7), tmp_path / "b")
    c = _file_bytes(build(8), tmp_path / "c")
    assert a == b
    assert a != c


def test_giant_pages_and_unclosed_anchor_share():
    c = corpus.giant_corpus(3, n_pages=12, shards=2)
    urls = c.table["url"].to_pylist()
    htmls = c.table["html"].to_pylist()
    assert all(int(u.rsplit("/", 1)[1]) % 100 in (96, 98) for u in urls)
    assert all(len(h) >= 100_000 for h in htmls)
    anchored = {u for u, h in zip(urls, htmls) if corpus.UNCLOSED_ANCHOR in h}
    assert anchored == c.giant_anchor_urls
    assert len(anchored) == round(12 * corpus.GIANT_ANCHOR_SHARE)
    for u, h in zip(urls, htmls):
        i = int(u.rsplit("/", 1)[1])
        plain = gen_page(i, 3)["html"]
        assert h == (plain.replace(b"<body>", b"<body>" + corpus.UNCLOSED_ANCHOR, 1)
                     if u in anchored else plain)


@pytest.mark.parametrize("seed", [3, 4])
def test_giant_pages_are_size_balanced(seed):
    """Each corpus's giant pages come from the seed's giant pages, sit in
    the F1 giant slots, and total close to GIANT_PAGE_BYTES apiece."""
    n = 12
    g = corpus.giant_corpus(seed, n_pages=n, shards=2)
    plain = [h.replace(corpus.UNCLOSED_ANCHOR, b"", 1) for h in g.table["html"].to_pylist()]
    assert abs(sum(map(len, plain)) / (n * corpus.GIANT_PAGE_BYTES) - 1) < 0.01
    m = corpus.mix_corpus(seed, n_pages=600, shards=2)
    urls = m.table["url"].to_pylist()
    htmls = m.table["html"].to_pylist()
    slots = [i for i in range(600) if scenario_for(i) == "giant"]
    giant = [(u, h) for i, (u, h) in enumerate(zip(urls, htmls)) if i in slots]
    assert len(giant) == len(slots) == 12
    for u, h in giant:
        j = int(u.rsplit("/", 1)[1])
        assert scenario_for(j) == "giant" and h == gen_page(j, seed)["html"]
    assert abs(sum(len(h) for _, h in giant) / (12 * corpus.GIANT_PAGE_BYTES) - 1) < 0.01
    for i, (u, h) in enumerate(zip(urls, htmls)):
        if i not in slots:
            assert u == gen_page(i, seed)["url"]


def test_curate_copy_and_edit_shares():
    n = 200
    c = corpus.curate_corpus(5, n_pages=n, shards=3)
    urls = c.table["url"].to_pylist()
    htmls = c.table["html"].to_pylist()
    assert len(set(urls)) == n
    assert len(c.copy_urls) == round(n * corpus.CURATE_COPY_SHARE)
    assert len(c.edited_urls) == round(len(c.copy_urls) * corpus.CURATE_EDITED_SHARE)
    assert c.edited_urls <= c.copy_urls
    # giant pages are neither copied nor replaced by a copy
    giant = {u for u in urls if scenario_for(int(u.rsplit("/", 1)[1])) == "giant"}
    assert giant and not giant & c.copy_urls
    originals: dict[bytes, int] = {}
    for i, (u, h) in enumerate(zip(urls, htmls)):
        if u not in c.copy_urls:
            assert h == gen_page(int(u.rsplit("/", 1)[1]), 5)["html"]
            originals.setdefault(h, i)
            continue
        if u in c.edited_urls:
            head, _, tail = h.partition(b"<main><article><p>")
            h = head + b"<main><article>" + tail.split(b"</p>", 1)[1]
        assert originals.get(h, n) < i, f"{u} is not a copy of an earlier page"
        assert scenario_for(originals[h]) != "giant"


def test_timings_leave_out_operations_the_hypervisor_slowed():
    from perfbench.workloads import Op

    def op(wall, steal):
        return Op(wall, 10, samples={"peak_rss_mb": [wall], "stage1_s": [wall]},
                  steal_share=steal)

    calm = [op(1.0, 0.0), op(1.1, 0.01), op(1.2, bench.STEAL_LIMIT)]
    g = bench.gather([*calm, op(2.0, 0.1)])
    assert g["wall_s"] == g["stage1_s"] == [1.0, 1.1, 1.2]
    assert g["peak_rss_mb"] == [1.0, 1.1, 1.2, 2.0]
    # too few calm operations: every one is kept
    g = bench.gather([*calm[:2], op(2.0, 0.1)])
    assert g["wall_s"] == [1.0, 1.1, 2.0]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END_UNITS)
    assert all(m["unit"] == bench.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == trace.metric_names()
    assert all(m["unit"] == trace.unit_of(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(WORKLOADS)


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace_flag", ["0", "1"])
def test_every_metric_is_printed(trace_flag):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace_flag == "1" else "end_to_end"
    p = _run(["--workload", "curate", "--seed", "3", "--seconds", "1",
              "--trace", trace_flag], ROOT)
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in spec[key]]
    if trace_flag == "1":
        # curate never splits: no document exceeds segment_bytes
        assert res["metrics"]["extract.segments"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(["--workload", "curate", "--seed", "1", "--seconds", "1"], tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_traced_pass_fails_when_a_hook_target_is_gone(tmp_path, monkeypatch):
    from perfbench.workloads import ExtractGiant
    from xs_vlm_ocr_ray.stages import extract_stage

    c = corpus.giant_corpus(2, n_pages=4, shards=2)
    w = ExtractGiant(2, str(tmp_path / "w"), c, gate.Reference(c))
    spans = str(tmp_path / "spans.json")
    metrics, problems = trace.run_traced(w, 1.0, {}, spans)
    assert problems == []
    assert metrics["extract.unsplit_over_limit"] > 0

    install = trace._install_extract_hooks

    def install_one_more(tr):
        install(tr)
        tr.wrap(extract_stage, "renamed_kernel", "extract.scan")

    monkeypatch.setattr(trace, "_install_extract_hooks", install_one_more)
    _, problems = trace.run_traced(w, 1.0, {}, spans)
    assert any("extract_stage.renamed_kernel is gone" in p for p in problems)


@pytest.fixture(scope="module")
def ray_session():
    from perfbench import harness

    session = harness.RaySession()
    session.start()
    yield
    session.close()


def test_gate_rejects_one_flipped_byte(ray_session, tmp_path):
    from perfbench.workloads import collect
    from xs_vlm_ocr_ray.pipelines.extract import read_results, run_extract

    c = corpus.mix_corpus(4, n_pages=30, shards=2)
    ref = gate.Reference(c)
    c.write(str(tmp_path / "pages"))
    store = tmp_path / "store"
    run_extract(str(tmp_path / "pages"), str(store), resume=False)
    cols = ["url", "extracted_text", "success"]
    assert gate.check_rows(collect(read_results(str(store), columns=cols)),
                           ref, set(ref.rows), "store") == []

    bad = tmp_path / "bad"
    shutil.copytree(store, bad)
    part = sorted(p for p in bad.rglob("*.parquet"))[0]
    t = pq.read_table(part)
    texts = t["extracted_text"].to_pylist()
    row = next(i for i, s in enumerate(texts) if s)
    raw = bytearray(texts[row].encode())
    raw[len(raw) // 2] ^= 0x01
    texts[row] = raw.decode("utf-8", "replace")
    idx = t.schema.get_field_index("extracted_text")
    t = t.set_column(idx, t.schema.field(idx), pa.array(texts, t.schema.field(idx).type))
    pq.write_table(t, part)
    problems = gate.check_rows(collect(read_results(str(bad), columns=cols)),
                               ref, set(ref.rows), "store")
    assert problems and t["url"][row].as_py() in problems[0]
