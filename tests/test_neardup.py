"""Near-dup operator exactness: n-gram Jaccard, SimHash banding,
embedding cosine — each verified against a brute-force quadratic scan
at tiny scale (the distributed plan must find exactly the same pairs)."""

import numpy as np
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])


@pytest.fixture(scope="module")
def docs_py():
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    return list(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))


def _first_block_emptied(tables, expr):
    """``tables`` as one block each, filtered by ``expr`` so that the
    first block is left empty, materialized: the input shape on which a
    Ray 2.49 hash join loses its key schema (the first block carries it
    to every partition)."""
    import ray.data as rd

    ds = rd.from_arrow(tables).filter(expr=expr).materialize()
    sizes = [m.num_rows for b in ds.iter_internal_ref_bundles() for _, m in b.blocks]
    assert sizes[0] == 0 and sum(sizes) > 0, sizes
    return ds


_ROUTE_MARKERS = ("broadcast_attach", "tag_pairs")


def _both_attach_routes(monkeypatch):
    """Run the caller's loop body once per ``_attach_attr`` route: the
    broadcast (the module's size bound; every attribute side here is
    small), then the tagged reduce-side join (bound -1). Yields the
    operator-name marker of the route that should run."""
    from xs_vlm_ocr_ray.stages import dedup

    for bound, marker in zip((dedup._ATTR_BROADCAST_BYTES, -1), _ROUTE_MARKERS):
        monkeypatch.setattr(dedup, "_ATTR_BROADCAST_BYTES", bound)
        yield marker


def _ran(ds, marker: str) -> bool:
    """Whether ``ds``'s plan holds the ``_attach_attr`` route that
    ``marker`` names and not the other one."""
    plan = repr(ds)
    return [m in plan for m in _ROUTE_MARKERS] == [m == marker for m in _ROUTE_MARKERS]


def _shingle_sets(docs_py) -> dict:
    from xs_vlm_ocr_ray.functions.textstats import shingles

    return {i: shingles(x or "", 5) for i, x in docs_py}


def _brute_ngram_pairs(docs_py, threshold: float) -> dict:
    """(a, b) → exact Jaccard of every doc pair with two non-empty
    shingle sets scoring ``threshold`` or more at 6 digits."""
    from xs_vlm_ocr_ray.functions.textstats import jaccard

    sets = _shingle_sets(docs_py)
    ids = sorted(sets)
    pairs = {
        (a, b): jaccard(sets[a], sets[b])
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if sets[a] and sets[b]
    }
    return {p: j for p, j in pairs.items() if round(j, 6) >= threshold}


def _scored(df, col: str) -> dict:
    """(a, b) → ``col`` of a pair frame whose pairs are distinct."""
    out = dict(zip(zip(df["a"].tolist(), df["b"].tolist()), df[col].tolist()))
    assert len(out) == len(df), "a pair occurs twice"
    return out


def test_ngram_jaccard_exact(docs_ds, docs_py):
    from xs_vlm_ocr_ray.stages.dedup import ngram_jaccard_pairs

    got = ngram_jaccard_pairs(docs_ds, threshold=0.3)
    assert set(zip(got["a"], got["b"])) == set(_brute_ngram_pairs(docs_py, 0.3))


def test_simhash_banding_exact(docs_ds, docs_py):
    from xs_vlm_ocr_ray.stages.dedup import SimHasher, simhash_neardup_pairs

    got = simhash_neardup_pairs(docs_ds, max_hamming=3)
    hs = {i: SimHasher.simhash64(x or "") for i, x in docs_py}
    ids = sorted(hs)
    want = {
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if bin(hs[a] ^ hs[b]).count("1") <= 3
    }
    assert set(zip(got["a"], got["b"])) == want
    if len(got):
        assert (got["hamming"] <= 3).all()


def test_embedding_neardup_exact(ray_session):
    import ray.data as rd

    from xs_vlm_ocr_ray.stages.dedup import embedding_neardup_pairs

    ds = rd.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    got = embedding_neardup_pairs(ds, threshold=0.4)

    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.array(t["vec_id"].to_pylist())
    m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = mn @ mn.T
    want = {
        (int(ids[i]), int(ids[j]))
        for i in range(len(ids))
        for j in range(len(ids))
        if ids[i] < ids[j] and sims[i, j] >= 0.4
    }
    assert set(zip(got["a"], got["b"])) == want
    if len(got):
        assert (got["sim"] >= 0.4).all()


def test_simhash_cached_equals_pure(ray_session):
    """The per-actor memoized path must produce byte-identical
    fingerprints to the pure reference implementation."""
    import pyarrow as pa

    from xs_vlm_ocr_ray.stages.dedup import SimHasher

    texts = [
        "",
        "one token",
        "repeat repeat repeat repeat distinct words here",
        "the quick brown fox jumps over the lazy dog the the the",
        "unicode tökens ünd ßpecial 中文 词语 中文",
    ]
    h = SimHasher()
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    out = h(t)
    for i, x in enumerate(texts):
        assert out["simhash"][i].as_py() == SimHasher.simhash64(x)
    # second pass hits the cache and must still agree
    out2 = h(t)
    assert out2["simhash"].to_pylist() == out["simhash"].to_pylist()


def test_minhash_batch_equals_per_doc_reference(monkeypatch):
    """``MinHasher.__call__`` (flat shingles, slabbed product, segmented
    min) equals the per-doc ``_sig`` on every row: empty and
    whitespace-only texts (no shingle), a one-word text (one shingle),
    and a batch that spans several slabs, with one doc larger than a
    whole slab."""
    import pyarrow as pa

    from xs_vlm_ocr_ray.functions.textstats import shingles
    from xs_vlm_ocr_ray.stages.dedup import MinHasher

    texts = [
        "",
        "lonely",
        "   ",
        " ".join(f"w{i}" for i in range(40)),
        "the quick brown fox jumps over the lazy dog again and again",
        "",
        "unicode tökens ünd ßpecial 中文 词语 中文 more words here",
        " ".join(f"v{i % 7}" for i in range(30)),
    ]
    h = MinHasher()
    monkeypatch.setattr(MinHasher, "_SLAB_SHINGLES", 8)
    assert max(len(shingles(x, h.k)) for x in texts) > MinHasher._SLAB_SHINGLES
    out = h(pa.table({"doc_id": list(range(len(texts))), "text": texts}))
    assert out["doc_id"].to_pylist() == list(range(len(texts)))
    for x, sig in zip(texts, out["minhash"].to_pylist()):
        assert sig == h._sig(x).tolist(), x


def test_dedup_exact_winner_election(ray_session):
    """dedup_exact keeps exactly the min-order row per key on both
    routes: the driver election (partial rows within broadcast_limit)
    and the groupby + hash-shuffle semi-join (above it). The input spans
    three blocks, so duplicates cross blocks. Both routes return the
    same rows and the same schema, and neither leaks ``order_min`` or
    ``order_part``. An empty input has no partial rows, so every limit
    elects it in the driver, over an empty winner set (the
    ``KeyError('order_min')`` case), and a negative limit, which would
    send zero partial rows into the semi-join, is refused."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.dedup import dedup_exact

    t = pa.table({
        "content_hash": ["a", "b", "a", "c", "b", "a"],
        "doc_id": pa.array([5, 2, 1, 9, 7, 3], pa.int64()),
        "payload": pa.array(["p5", "p2", "p1", "p9", "p7", "p3"], pa.large_string()),
    })
    df = t.to_pandas()
    want = (
        df.sort_values("doc_id")
        .drop_duplicates("content_hash", keep="first")
        .sort_values("content_hash")
        .reset_index(drop=True)
    )
    # the same rows behind an emptied first block (block rows [0, 2, 4])
    pre = pa.table({
        "content_hash": ["a", "z"],
        "doc_id": pa.array([-2, -1], pa.int64()),
        "payload": pa.array(["n2", "n1"], pa.large_string()),
    })
    emptied = _first_block_emptied([pre, t.slice(0, 2), t.slice(2)], "doc_id >= 0")
    for limit in (5_000_000, 0):  # driver route, then groupby + semi-join
        for ds in (rd.from_arrow(t).repartition(3), emptied):
            out = dedup_exact(ds, broadcast_limit=limit)
            assert ("Join" in repr(out)) == (limit == 0)
            assert out.schema().base_schema == t.schema
            got = out.to_pandas().sort_values("content_hash").reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want)

        out = dedup_exact(rd.from_arrow(t.slice(0, 0)), broadcast_limit=limit)
        assert "Join" not in repr(out) and out.count() == 0
        assert not {"order_min", "order_part"} & set(out.to_pandas().columns)
    with pytest.raises(ValueError, match="broadcast_limit"):
        dedup_exact(rd.from_arrow(t), broadcast_limit=-1)


def test_first_per_key_keeps_types():
    """The within-batch collapse keeps the first row per key in order
    and every column's Arrow type: ``large_string`` stays
    ``large_string``, and an empty batch keeps its schema (the pandas
    round trip it replaces returned ``string`` and null columns)."""
    import pyarrow as pa

    from xs_vlm_ocr_ray.stages.dedup import first_per_key

    t = pa.table({
        "k": ["b", "a", "b", "a", "c", "a"],
        "o": pa.array([4, 3, 1, 2, 0, 5], pa.int64()),
        "v": pa.array(["b4", "a3", "b1", "a2", "c0", "a5"], pa.large_string()),
    })
    out = first_per_key(t, "k", ("o",))
    assert out.schema == t.schema
    assert out.to_pydict() == {"k": ["c", "b", "a"], "o": [0, 1, 2], "v": ["c0", "b1", "a2"]}
    ref = t.to_pandas().sort_values("o", kind="mergesort").drop_duplicates("k", keep="first")
    assert out.to_pandas().reset_index(drop=True).equals(ref.reset_index(drop=True))
    empty = first_per_key(t.slice(0, 0), "k", ("o",))
    assert empty.num_rows == 0 and empty.schema == t.schema


def test_neardup_clusters_chains():
    """Near-dup is not transitive: clustering must merge chains
    (a~b, b~c => one cluster {a,b,c}) with min-id representatives."""
    import pandas as pd

    from xs_vlm_ocr_ray.stages.dedup import neardup_clusters

    pairs = pd.DataFrame({"a": [1, 2, 10, 30], "b": [2, 3, 11, 20]})
    out = neardup_clusters(pairs).set_index("doc_id")["cluster_id"]
    assert out.to_dict() == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10, 20: 20, 30: 20}
    empty = neardup_clusters(pd.DataFrame({"a": [], "b": []}))
    assert len(empty) == 0 and list(empty.columns) == ["doc_id", "cluster_id"]


def test_drop_neardups(ray_session):
    import pandas as pd

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.dedup import drop_neardups

    docs = pd.DataFrame({"doc_id": [1, 2, 3, 10, 11, 50], "text": list("abcdez")})
    pairs = pd.DataFrame({"a": [1, 2, 10], "b": [2, 3, 11]})
    out = drop_neardups(rd.from_pandas(docs), pairs).to_pandas()
    # keepers: 1 (cluster {1,2,3}), 10 (cluster {10,11}), 50 (unpaired)
    assert sorted(out["doc_id"]) == [1, 10, 50]


def test_neardup_clusters_distributed_equivalence(ray_session, monkeypatch):
    """Distributed label propagation == driver union-find on random
    graphs, including long chains (multi-round propagation), on both
    ``_attach_attr`` routes, and every round's label Dataset has the
    same block count (the aggregate would otherwise grow it round by
    round)."""
    import random

    import pandas as pd

    import ray.data as rd
    from xs_vlm_ocr_ray.stages import dedup
    from xs_vlm_ocr_ray.stages.dedup import (
        neardup_clusters,
        neardup_clusters_distributed,
    )

    label_blocks: list[int] = []
    plans: list = []
    attach = dedup._attach_attr

    def recording_attach(pairs_ds, attr_ds, *args, **kwargs):
        label_blocks.append(attr_ds.num_blocks())
        plans.append(attach(pairs_ds, attr_ds, *args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(dedup, "_attach_attr", recording_attach)

    rng = random.Random(7)
    cases = [
        # chain of diameter 6: forces several propagation rounds
        pd.DataFrame({"a": list(range(100, 106)), "b": list(range(101, 107))}),
        # random sparse graph
        pd.DataFrame(
            {
                "a": [rng.randrange(50) for _ in range(60)],
                "b": [50 + rng.randrange(50) for _ in range(60)],
            }
        ),
    ]
    for marker in _both_attach_routes(monkeypatch):
        for pairs in cases:
            pairs = pairs[pairs["a"] != pairs["b"]].drop_duplicates()
            want = neardup_clusters(pairs).sort_values("doc_id").reset_index(drop=True)
            label_blocks.clear()
            plans.clear()
            got = (
                neardup_clusters_distributed(rd.from_pandas(pairs))
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got, want)
            assert len(label_blocks) >= 2  # several propagation rounds ran
            assert len(set(label_blocks)) == 1, label_blocks
            assert all(_ran(p, marker) for p in plans), marker


def test_lsh_pair_path_dataset_equivalence(docs_ds, docs_py, ray_session, monkeypatch):
    """The Dataset-native LSH pair path (lsh_candidate_pairs_ds) finds
    exactly the driver path's candidate pairs, and verify_pairs_jaccard_ds
    keeps exactly the candidates whose brute-force Jaccard (Python
    sets) reaches the threshold, with that value rounded to 6 digits,
    on both ``_attach_attr`` routes."""
    import pandas as pd

    from xs_vlm_ocr_ray.functions.textstats import jaccard
    from xs_vlm_ocr_ray.stages.dedup import (
        MinHasher,
        lsh_band_rows,
        lsh_candidate_pairs,
        lsh_candidate_pairs_ds,
        real_pairs_ds,
        verify_pairs_jaccard_ds,
    )

    sigs = docs_ds.map_batches(MinHasher(), batch_format="pyarrow")
    bands = lsh_band_rows(sigs)

    pairs_df = lsh_candidate_pairs(bands)
    pairs_ds = real_pairs_ds(lsh_candidate_pairs_ds(bands))
    got_pairs = pairs_ds.to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    assert len(got_pairs) > 0  # the corpus plants near-dups
    pd.testing.assert_frame_equal(
        got_pairs.astype({"a": "int64", "b": "int64"}), pairs_df[["a", "b"]]
    )

    sets = _shingle_sets(docs_py)
    candidates = zip(pairs_df["a"].tolist(), pairs_df["b"].tolist())
    scores = {(a, b): jaccard(sets[a], sets[b]) for a, b in candidates}
    # the median score: some candidates verify, some do not
    threshold = sorted(scores.values())[len(scores) // 2]
    want = {p: j for p, j in scores.items() if j >= threshold}
    assert 0 < len(want) < len(scores)
    for marker in _both_attach_routes(monkeypatch):
        verified = verify_pairs_jaccard_ds(docs_ds, pairs_ds, threshold=threshold)
        assert _ran(verified, marker)
        got = verified.to_pandas()
        assert list(got.dtypes) == ["int64", "int64", "float64"]
        assert _scored(got, "jaccard") == pytest.approx(want, abs=1e-6)


def test_lsh_pairs_ds_oversized_counter(ray_session):
    """The skew counter survives the distributed pair dedup: with a
    tiny max_bucket every bucket is oversized — zero pairs, non-zero
    counter, and real_pairs_ds strips the counter rows."""
    import pandas as pd

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.dedup import (
        MinHasher,
        lsh_band_rows,
        lsh_candidate_pairs,
        lsh_candidate_pairs_ds,
        real_pairs_ds,
    )

    # 8 identical docs -> every band bucket holds all 8 ids > max_bucket=2
    df = pd.DataFrame({"doc_id": range(8), "text": ["same text " * 20] * 8})
    bands = lsh_band_rows(
        rd.from_pandas(df).map_batches(MinHasher(), batch_format="pyarrow")
    )
    pairs = lsh_candidate_pairs(bands, max_bucket=2)
    assert len(pairs) == 0
    assert pairs.attrs["n_oversized_buckets"] > 0
    assert real_pairs_ds(lsh_candidate_pairs_ds(bands, max_bucket=2)).count() == 0


def test_drop_neardups_ds_routes(docs_ds, ray_session):
    """drop_neardups_ds keeps the identical doc set on all three routes
    (driver union-find / distributed CC + broadcast / CC + anti-join),
    also for a corpus whose first block a filter emptied (the anti-join
    used to lose its left key schema there: ``ArrowInvalid: No match
    ... for key field reference``)."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.dedup import drop_neardups, drop_neardups_ds

    blocks = [
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": [f"t{i}" for i in ids]})
        for ids in ([1, 2, 3], [20, 21], [22, 23, 24])
    ]
    # block rows [0, 2, 3]; with 4 join partitions these ids leave a
    # partition without a left row
    emptied = _first_block_emptied(blocks, "doc_id >= 10")
    for docs, pairs in (
        (docs_ds, pd.DataFrame({"a": [1, 2, 10], "b": [2, 3, 11]})),
        (emptied, pd.DataFrame({"a": [1, 20, 21, 23], "b": [2, 21, 22, 24]})),
    ):
        pairs_ds = rd.from_pandas(pairs)
        want = (
            drop_neardups(docs, pairs)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        for kw in (
            {},  # driver union-find (under driver_pair_limit)
            {"driver_pair_limit": 0},  # distributed CC + broadcast filter
            {"driver_pair_limit": 0, "broadcast_limit": 0},  # CC + anti-join
        ):
            got = (
                drop_neardups_ds(docs, pairs_ds, **kw)
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got[want.columns], want)
    assert sorted(want["doc_id"]) == [20, 23]
    # empty edge list: corpus unchanged
    empty = rd.from_pandas(pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                         "b": pd.Series([], dtype="int64")}))
    assert drop_neardups_ds(docs_ds, empty).count() == docs_ds.count()


def test_q_neardup_clusters_matches_union_find(ray_session):
    """The q_neardup_clusters registry entry (distributed CC over the
    exact n-gram pair list) equals the driver union-find clustering."""
    import pandas as pd

    from xs_vlm_ocr_ray.pipelines.queries import q_neardup_clusters
    from xs_vlm_ocr_ray.stages.dedup import neardup_clusters, ngram_jaccard_pairs

    import ray.data as rd

    sf = "/root/testdata/sf0.001"
    got = q_neardup_clusters(sf)
    docs = rd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, threshold=0.3)
    want = neardup_clusters(pairs).sort_values("doc_id").reset_index(drop=True)
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, want)


def test_q_text_embed_ann_deterministic(ray_session):
    """embed→ANN pipeline row: deterministic across runs; the query doc
    itself ranks first with cosine 1.0."""
    import pandas as pd

    from xs_vlm_ocr_ray.pipelines.queries import q_text_embed_ann

    sf = "/root/testdata/sf0.001"
    a = q_text_embed_ann(sf)
    b = q_text_embed_ann(sf)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) == 10
    assert a.loc[0, "doc_id"] == 0 and a.loc[0, "sim"] == 1.0


def test_simhash_pairs_ds_equivalence(docs_ds, ray_session):
    """simhash_neardup_pairs_ds == the driver-side generator."""
    import pandas as pd

    from xs_vlm_ocr_ray.stages.dedup import (
        real_pairs_ds,
        simhash_neardup_pairs,
        simhash_neardup_pairs_ds,
    )

    want = simhash_neardup_pairs(docs_ds, max_hamming=3)
    got = (
        real_pairs_ds(simhash_neardup_pairs_ds(docs_ds, max_hamming=3))
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    assert len(want) > 0
    pd.testing.assert_frame_equal(
        got, want.astype({"a": "int64", "b": "int64", "hamming": "int64"})
    )


def test_ngram_pairs_ds_equivalence(docs_ds, docs_py, ray_session, monkeypatch):
    """ngram_jaccard_pairs_ds finds exactly the brute-force pairs
    (Python shingle sets, uncapped at this scale) with their Jaccard
    rounded to 6 digits, on both ``_attach_attr`` routes, and the
    capped-posting counter survives the Dataset path when a tiny cap
    engages."""
    import pandas as pd

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.dedup import ngram_jaccard_pairs_ds

    want = _brute_ngram_pairs(docs_py, 0.3)
    assert len(want) > 0
    for marker in _both_attach_routes(monkeypatch):
        pairs = ngram_jaccard_pairs_ds(docs_ds, threshold=0.3)
        assert _ran(pairs, marker)
        got = pairs.to_pandas()
        assert int(got["n_oversized"].sum()) == 0
        assert _scored(got, "jaccard") == pytest.approx(want, abs=1e-6)

    # cap engagement: identical docs -> every posting list holds all
    # ids > max_posting=2 -> no pairs, counter rows present
    df = pd.DataFrame({"doc_id": range(6), "text": ["same words here okay fine now" * 4] * 6})
    capped = ngram_jaccard_pairs_ds(
        rd.from_pandas(df), threshold=0.1, max_posting=2
    ).to_pandas()
    assert (capped["n_oversized"] > 0).any()
    assert len(capped[capped["n_oversized"] == 0]) == 0


def test_verify_pairs_ds_rejects_counter_columns(docs_ds, ray_session):
    """Fail-fast: raw *_pairs_ds output (counter rows present) is
    rejected before it can fabricate a (0, 0, 1.0) verified pair."""
    import pandas as pd
    import pytest

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.dedup import verify_pairs_jaccard_ds

    bad = rd.from_pandas(
        pd.DataFrame({"a": [0], "b": [0], "n_oversized": [3]})
    )
    with pytest.raises(ValueError, match="real_pairs_ds"):
        verify_pairs_jaccard_ds(docs_ds, bad)


def test_verify_pairs_ds_warns_on_foreign_lineage(docs_ds, ray_session, caplog):
    """A pair referencing an id with no docs_ds row drops at the inner
    merge — the shortfall is counted and logged, never silent."""
    import logging

    import pandas as pd

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.dedup import verify_pairs_jaccard_ds

    ids = docs_ds.to_pandas()["doc_id"]
    a, missing = int(ids.iloc[0]), int(ids.max()) + 10_000
    foreign = rd.from_pandas(pd.DataFrame({"a": [a], "b": [missing]}))
    with caplog.at_level(logging.WARNING, logger="xs_vlm_ocr_ray.stages.dedup"):
        out = verify_pairs_jaccard_ds(docs_ds, foreign, threshold=0.0).to_pandas()
    assert len(out) == 0  # the foreign pair dropped
    assert any("1 candidate id(s) have no row" in r.message for r in caplog.records)


def test_embedding_pairs_ds_empty_input(ray_session):
    """Zero-row input takes the brute route (0 ≤ max_rows_bruteforce)
    and must return a TYPED empty (a, b, sim) dataset — np.stack over
    no vectors would raise (review r4)."""
    import pyarrow as pa

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.dedup import embedding_neardup_pairs_ds

    empty = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float64())),
            }
        )
    )
    out = embedding_neardup_pairs_ds(empty, threshold=0.4)
    assert out.count() == 0
    assert out.schema().names == ["a", "b", "sim", "n_oversized"]


def test_embedding_pairs_ds_both_routes(ray_session):
    """embedding_neardup_pairs_ds == the driver wrapper on BOTH routes
    (brute-force broadcast matmul, and LSH-bucketed forced via
    max_rows_bruteforce=0 — the >500k-row scale route), and the pair
    Dataset feeds drop_neardups_ds without a driver funnel."""
    import pandas as pd

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.dedup import (
        drop_neardups,
        drop_neardups_ds,
        embedding_neardup_pairs,
        embedding_neardup_pairs_ds,
    )

    ds = rd.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    brute = embedding_neardup_pairs(ds, threshold=0.4)
    assert len(brute) > 0  # the corpus plants embedding near-dups

    from xs_vlm_ocr_ray.stages.dedup import real_pairs_ds

    got_brute = (
        real_pairs_ds(embedding_neardup_pairs_ds(ds, threshold=0.4))
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got_brute, brute)

    # bucketed route at corpus scale: 0.4-cosine pairs almost never
    # share all 12 hyperplane signs, so the route finds nothing here —
    # the _ds tail must still return a TYPED empty (sortable, feedable
    # to drop_neardups_ds), matching the wrapper
    want_bucketed = embedding_neardup_pairs(ds, threshold=0.4, max_rows_bruteforce=0)
    assert len(want_bucketed) == 0
    empty_ds = embedding_neardup_pairs_ds(ds, threshold=0.4, max_rows_bruteforce=0)
    assert empty_ds.count() == 0
    # typed, not schema-less
    assert empty_ds.schema().names == ["a", "b", "sim", "n_oversized"]

    # bucketed route NON-EMPTY: clusters of near-identical vectors
    # (cosine ≈ 1 → ~84% per-pair bucket-collision probability over 12
    # planes) mixed with orthogonal-ish noise. _ds == wrapper, and every
    # bucketed pair is a true pair (subset of the exact brute set).
    import numpy as np

    rng = np.random.default_rng(11)
    base = rng.normal(size=(8, 16))
    rows = []
    for ci, v in enumerate(base):
        for k in range(4):  # 4 near-copies per cluster
            rows.append(v + rng.normal(scale=1e-3, size=16))
    mat = np.stack(rows)
    sds = rd.from_pandas(
        pd.DataFrame({"vec_id": range(len(mat)), "embedding": list(mat)})
    )
    want_syn = embedding_neardup_pairs(sds, threshold=0.9, max_rows_bruteforce=0)
    got_syn = (
        real_pairs_ds(
            embedding_neardup_pairs_ds(sds, threshold=0.9, max_rows_bruteforce=0)
        )
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    assert len(got_syn) > 0
    pd.testing.assert_frame_equal(got_syn, want_syn)
    exact_syn = embedding_neardup_pairs(sds, threshold=0.9)
    assert set(zip(got_syn["a"], got_syn["b"])) <= set(
        zip(exact_syn["a"], exact_syn["b"])
    )

    # the _ds tail feeds drop_neardups_ds end to end (no .to_pandas
    # anywhere between pair generation and the keep filter)
    want_kept = sorted(
        drop_neardups(ds, brute, id_col="vec_id").to_pandas()["vec_id"]
    )
    kept = drop_neardups_ds(
        ds,
        real_pairs_ds(embedding_neardup_pairs_ds(ds, threshold=0.4)),
        id_col="vec_id",
    ).to_pandas()
    assert sorted(kept["vec_id"]) == want_kept


def test_decontaminate(ray_session):
    """Benchmark decontamination: containment scoring vs a brute-force
    reference; drop and mark modes agree; empty docs never trip."""
    import pandas as pd

    import ray.data as rd
    from xs_vlm_ocr_ray.functions.textstats import shingles
    from xs_vlm_ocr_ray.stages.dedup import decontaminate

    bench = ["the quick brown fox jumps over the lazy dog today okay fine"]
    contaminated = (
        "intro words here then " + bench[0] + " and a short tail"
    )
    clean = " ".join(f"tok{i}" for i in range(40))
    partial = "the quick brown fox jumps " + " ".join(f"x{i}" for i in range(60))
    docs = pd.DataFrame(
        {"doc_id": [0, 1, 2, 3], "text": [contaminated, clean, partial, ""]}
    )
    ds = rd.from_pandas(docs)

    marked = (
        decontaminate(ds, bench, threshold=0.5, mark_only=True)
        .to_pandas()
        .set_index("doc_id")
    )
    bset = shingles(bench[0], 5)
    for i, x in zip(docs["doc_id"], docs["text"]):
        s = shingles(x or "", 5)
        want = round(len(s & bset) / len(s), 6) if s else 0.0
        assert marked.loc[i, "contamination"] == want, i
    assert bool(marked.loc[0, "contaminated"]) is True
    assert bool(marked.loc[1, "contaminated"]) is False
    assert bool(marked.loc[3, "contaminated"]) is False  # empty doc

    kept = decontaminate(ds, bench, threshold=0.5).to_pandas()
    assert sorted(kept["doc_id"]) == sorted(
        marked.index[~marked["contaminated"]].tolist()
    )
    assert "contamination" not in kept.columns


def test_simhash_skew_guard_counts_oversized(ray_session):
    """Identical docs all share one simhash → every band bucket holds
    all of them; with a tiny max_bucket the bucket is skipped and
    counted IN BAND instead of emitting O(b²) pairs (round-5 review:
    the SimHash path lacked the guard the LSH/ngram paths have)."""
    import pandas as pd

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.dedup import (
        _simhash_banded_pairs,
        real_pairs_ds,
        simhash_neardup_pairs,
    )

    docs = rd.from_pandas(
        pd.DataFrame(
            {"doc_id": range(10), "text": ["same text here okay then"] * 10}
        )
    )
    raw = _simhash_banded_pairs(docs, max_hamming=3, max_bucket=4).to_pandas()
    assert int(raw["n_oversized"].sum()) >= 4  # all 4 bands oversized
    assert len(real_pairs_ds(
        _simhash_banded_pairs(docs, max_hamming=3, max_bucket=4)
    ).to_pandas()) == 0
    # default cap (256) unaffected at this scale: all 45 pairs found
    pairs = simhash_neardup_pairs(docs, max_hamming=3)
    assert len(pairs) == 45 and pairs.attrs["n_oversized_buckets"] == 0


def test_embedding_bucketed_skew_guard(ray_session):
    """An oversized hyperplane bucket on the scale route is skipped and
    counted in band, not fed to an n² matmul."""
    import numpy as np
    import pandas as pd

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.dedup import (
        _embedding_neardup_bucketed_ds,
        embedding_neardup_pairs,
    )

    # 12 near-identical vectors share one bucket with certainty-ish odds
    rng = np.random.default_rng(5)
    v = rng.normal(size=16)
    mat = np.stack([v + rng.normal(scale=1e-4, size=16) for _ in range(12)])
    ds = rd.from_pandas(
        pd.DataFrame({"vec_id": range(12), "embedding": list(mat)})
    )
    out = _embedding_neardup_bucketed_ds(ds, threshold=0.9, max_bucket=4).to_pandas()
    assert int(out["n_oversized"].sum()) >= 1
    assert len(out[out["n_oversized"] == 0]) == 0  # the only bucket was skipped
    # the wrapper surfaces the count and returns no false pairs
    wrapped = embedding_neardup_pairs(ds, threshold=0.9, max_rows_bruteforce=0)
    assert wrapped.attrs["n_oversized_buckets"] == 0  # default cap not engaged
    assert len(wrapped) == 66  # all 12*11/2 pairs found under the default cap


def test_cc_raises_on_round_budget_exhaustion(ray_session):
    """A chain longer than max_iters must fail loudly, not return
    unconverged labels (multiple 'representatives' per cluster)."""
    import pandas as pd

    import pytest
    import ray.data as rd
    from xs_vlm_ocr_ray.stages.dedup import neardup_clusters_distributed

    chain = pd.DataFrame({"a": range(0, 9), "b": range(1, 10)})  # diameter 9
    lab = neardup_clusters_distributed(rd.from_pandas(chain)).to_pandas()
    assert set(lab["cluster_id"]) == {0}  # converges with the default budget
    with pytest.raises(RuntimeError, match="did not converge"):
        neardup_clusters_distributed(rd.from_pandas(chain), max_iters=2)


def test_driver_pair_generators_return_typed_empties(ray_session):
    """A no-pair input (one document, one vector): every driver pair
    generator returns int64 a/b and the skew counter attr, not pandas'
    float64 default for an empty column; the verify tail returns int64
    a/b and float64 jaccard when no pair verifies."""
    import pandas as pd

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.dedup import (
        MinHasher,
        embedding_neardup_pairs,
        lsh_band_rows,
        lsh_candidate_pairs,
        ngram_jaccard_pairs,
        simhash_neardup_pairs,
        verify_pairs_jaccard,
    )

    docs = rd.from_pandas(
        pd.DataFrame({"doc_id": [7], "text": ["one lonely document with no near duplicate"]})
    )
    emb = rd.from_pandas(pd.DataFrame({"vec_id": [7], "embedding": [[1.0, 0.0, 0.0]]}))
    outs = {
        "lsh": lsh_candidate_pairs(
            lsh_band_rows(docs.map_batches(MinHasher(), batch_format="pyarrow"))
        ),
        "ngram": ngram_jaccard_pairs(docs),
        "simhash": simhash_neardup_pairs(docs),
        "embedding": embedding_neardup_pairs(emb),
    }
    for name, out in outs.items():
        assert len(out) == 0, name
        assert out["a"].dtype == "int64" and out["b"].dtype == "int64", name
        assert out.attrs["n_oversized_buckets"] == 0, name
    # the verify tail, when its one candidate pair does not verify
    two = rd.from_pandas(pd.DataFrame({"doc_id": [7, 9], "text": [
        "one lonely document with no near duplicate", "another text entirely unlike the first one",
    ]}))
    out = verify_pairs_jaccard(two, pd.DataFrame({"a": [7], "b": [9]}))
    assert len(out) == 0
    assert list(out.dtypes) == ["int64", "int64", "float64"]
