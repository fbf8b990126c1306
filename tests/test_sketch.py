"""HyperLogLog sketch error bound + IVF ANN recall."""

import numpy as np
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def test_hll_error_bound_small_and_large():
    from xs_vlm_ocr_ray.stages.sketch import hll_estimate, hll_merge, hll_partial

    # small cardinality: small-range correction keeps it near-exact
    regs = hll_partial([f"v{i}" for i in range(100)], p=12)
    assert abs(hll_estimate(regs) - 100) / 100 < 0.05
    # large cardinality across merged partials: ±3σ of 1.04/sqrt(m)
    parts = [
        hll_partial([f"x{j}" for j in range(i * 5000, (i + 1) * 5000)], p=12)
        for i in range(4)
    ]
    est = hll_estimate(hll_merge(parts))
    assert abs(est - 20000) / 20000 < 3 * 1.04 / np.sqrt(1 << 12)


def test_hll_merge_order_invariant():
    from xs_vlm_ocr_ray.stages.sketch import hll_estimate, hll_merge, hll_partial

    a = hll_partial([f"a{i}" for i in range(1000)])
    b = hll_partial([f"b{i}" for i in range(1000)])
    assert hll_estimate(hll_merge([a, b])) == hll_estimate(hll_merge([b, a]))


def test_approx_distinct_on_events(ray_session):
    import ray.data as rd

    from xs_vlm_ocr_ray.stages.sketch import approx_distinct

    ds = rd.read_parquet(f"{SF}/events.parquet", columns=["user_id"])
    exact = pq.read_table(f"{SF}/events.parquet", columns=["user_id"])
    n_exact = len(set(exact["user_id"].to_pylist()))
    n_approx = approx_distinct(ds, "user_id", p=12)
    assert abs(n_approx - n_exact) / n_exact < 0.05


def test_approx_users_row_within_bound_of_exact_row(ray_session):
    """The rows-only HLL query is held to its oracle-checked exact
    companion: p=12 has standard error 1.04/sqrt(4096) ≈ 1.6%."""
    from xs_vlm_ocr_ray.pipelines.queries import (
        q_events_approx_users,
        q_events_distinct_users,
    )

    exact = int(q_events_distinct_users(SF)["distinct_users"].iloc[0])
    approx = int(q_events_approx_users(SF)["approx_distinct_users"].iloc[0])
    assert exact == len(set(pq.read_table(f"{SF}/events.parquet")["user_id"].to_pylist()))
    assert abs(approx - exact) / exact < 0.05


def test_ivf_recall(ray_session):
    import ray.data as rd

    from xs_vlm_ocr_ray.stages.ann import (
        brute_force_topk,
        ivf_assign,
        ivf_topk,
        ivf_train_centroids,
    )

    ds = rd.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    t = pq.read_table(f"{SF}/embeddings.parquet")
    q = np.asarray(t["embedding"].to_pylist()[0], dtype=np.float64)
    exact = set(brute_force_topk(ds, q, k=10)["vec_id"])
    cent = ivf_train_centroids(ds, n_centroids=8)
    with_buckets = ivf_assign(ds, cent)
    # full probe == exact
    full = set(ivf_topk(with_buckets, cent, q, k=10, nprobe=8)["vec_id"])
    assert full == exact
    # partial probe: reasonable recall at 1/4 the scan
    approx = set(ivf_topk(with_buckets, cent, q, k=10, nprobe=2)["vec_id"])
    assert len(approx & exact) >= 5


def test_approx_quantiles_value_bound(ray_session):
    """Approximate quantiles land within one bucket width of the exact
    quantiles on the events value column; degenerate inputs behave."""
    import numpy as np
    import pandas as pd

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.sketch import approx_quantiles

    ds = rd.read_parquet("/root/testdata/sf0.001/events.parquet", columns=["value"])
    vals = np.sort(ds.to_pandas()["value"].to_numpy(dtype=np.float64))
    qs = (0.1, 0.5, 0.9, 0.99)
    got = approx_quantiles(ds, "value", qs=qs, bins=2048)
    width = (vals[-1] - vals[0]) / 2048
    for q, g in zip(qs, got):
        exact = np.quantile(vals, q)
        assert abs(g - exact) <= width + 1e-9, (q, g, exact, width)
    # constant column -> the constant; empty -> NaNs
    const = rd.from_pandas(pd.DataFrame({"value": [7.0] * 10}))
    assert approx_quantiles(const, "value", qs=(0.5,)) == [7.0]
    empty = rd.from_pandas(pd.DataFrame({"value": pd.Series([], dtype="float64")}))
    out = approx_quantiles(empty, "value", qs=(0.5,))
    assert len(out) == 1 and np.isnan(out[0])


def test_ann_empty_and_multiprobe(ray_session):
    """Empty-input guards (brute_force_topk on zero rows; IVF training
    on an empty dataset) and true multi-probe radius in lsh_topk."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import pytest
    import ray.data as rd
    from xs_vlm_ocr_ray.stages.ann import (
        brute_force_topk,
        ivf_train_centroids,
        lsh_bucket_ids,
        lsh_topk,
    )

    empty = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float64())),
            }
        )
    )
    out = brute_force_topk(empty, np.ones(4))
    assert out.empty and list(out.columns) == ["vec_id", "sim"]
    with pytest.raises(ValueError, match="empty dataset"):
        ivf_train_centroids(empty)

    # probe_hamming=2 probes all C(12,1)+C(12,2) neighbors: a vector
    # whose bucket differs from the query's in exactly 2 planes is found
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(64, 16))
    ds = rd.from_pandas(
        pd.DataFrame({"vec_id": range(64), "embedding": list(vecs)})
    )
    q = vecs[17]
    with_buckets = lsh_bucket_ids(ds, num_planes=12, seed=42)
    r1 = lsh_topk(with_buckets, q, k=64, probe_hamming=1)
    r2 = lsh_topk(with_buckets, q, k=64, probe_hamming=2)
    assert len(r2) >= len(r1)  # radius 2 is a superset of radius 1
    assert 17 in set(r2["vec_id"])


def test_hll_nulls_match_count_distinct(ray_session):
    """HLL skips nulls (SQL COUNT(DISTINCT) semantics) and never
    collides them with a literal 'None' string; empty input → 0."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from xs_vlm_ocr_ray.stages.sketch import approx_distinct, hll_partial

    a = hll_partial([None, "None", "x"])
    b = hll_partial(["None", "x"])
    c = hll_partial([None, "x"])
    assert (a == b).all()
    assert not (b == c).all()  # 'None' string is its own distinct value

    ds = rd.from_pandas(pd.DataFrame({"v": ["a", None, "b", "a", None]}))
    assert approx_distinct(ds, "v") == 2

    empty = rd.from_arrow(pa.table({"v": pa.array([], pa.string())}))
    assert approx_distinct(empty, "v") == 0
