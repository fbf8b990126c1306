"""Similarity search over an embedding column (``list<float>``).

Baseline: brute-force cosine top-k — the query matrix is broadcast once
(``ray.put`` / closure capture), each batch computes a float64 matmul
against it and emits only its per-batch top-k partials; the final reduce
merges ``num_batches × k`` rows driver-side. No shuffle, no full
materialization.

Scale path: LSH hyperplane bucketing — vectors are pre-assigned to
``sign(P·v)`` buckets by a seeded projection matrix; a query probes only
its own (and optionally neighboring) buckets, turning the scan into a
``groupby(bucket)`` partition-local search.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..functions.hashing import splitmix64


def _unit(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=-1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def round_half_away(x, ndigits: int = 6):
    """Round HALF AWAY FROM ZERO — SQL ROUND semantics. np.round /
    pandas round half-to-even, so a similarity/jaccard landing exactly
    on a representable half (e.g. 41/128 = 0.3203125) rounds to
    ...312 in the engine but ...313 in DuckDB, failing the oracle value
    compare at 6 dp. Every rounded value that feeds an oracle-checked
    column goes through this."""
    x = np.asarray(x, dtype=np.float64)
    f = 10.0 ** ndigits
    return np.sign(x) * np.floor(np.abs(x) * f + 0.5) / f


def brute_force_topk(
    ds: rd.Dataset,
    query: np.ndarray,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """Cosine top-k of one query vector against the whole dataset.

    Returns (id, sim) sorted by (sim desc, id asc), sims in float64
    rounded to 6 dp for cross-engine comparability.
    """
    q = _unit(np.asarray(query, dtype=np.float64))

    def partial(t: pa.Table) -> pa.Table:
        mat = np.stack([np.asarray(v, dtype=np.float64) for v in t[vec_col].to_pylist()])
        sims = _unit(mat) @ q
        ids = t[id_col].to_numpy(zero_copy_only=False)
        # the per-batch cut must use the SAME total order as the final
        # merge and the SQL oracle — (rounded sim desc, id asc) — or a
        # tie at the k-boundary drops the smaller-id row the oracle keeps
        sims_r = round_half_away(sims, 6)
        order = np.lexsort((ids, -sims_r))
        idx = order[:k]
        return pa.table(
            {
                id_col: pa.array(ids[idx]),
                "sim": pa.array(sims_r[idx], pa.float64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if partials.empty:
        # zero input rows (e.g. an LSH/IVF probe pruned every bucket
        # away) collects schema-less — return the typed empty result
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "sim": pd.Series([], dtype="float64")})
    partials = partials.sort_values(
        ["sim", id_col], ascending=[False, True], kind="mergesort"
    )
    return partials.head(k).reset_index(drop=True)


def ivf_train_centroids(
    ds: rd.Dataset,
    n_centroids: int = 16,
    sample_rows: int = 512,
    iters: int = 8,
    seed: int = 42,
    vec_col: str = "embedding",
    id_col: str | None = "vec_id",
) -> np.ndarray:
    """IVF coarse quantizer: seeded mini-kmeans (spherical) on a small
    RANDOM sample, trained driver-side. A head sample (``limit``) on a
    sorted/clustered corpus would train every centroid on one region.

    Sampling is ONE streaming pass, no ``count()``: each row gets a
    deterministic priority (splitmix64 of ``id_col`` ⊕ seed), each batch
    keeps its ``sample_rows`` smallest, and a tiny sort+limit over the
    per-batch partials (≤ sample_rows rows per block cross the wire)
    yields the global bottom-k — a uniform without-replacement sample.
    A two-pass ``count()`` + ``random_sample`` would execute a derived
    (non-metadata-backed) upstream pipeline twice; datasets lacking an
    integer ``id_col`` fall back to exactly that, documented-slower,
    path."""
    # Ray Data Schema (parallel .names / .types lists); None on a
    # schema-less empty dataset — fail with a clear message instead of
    # an AttributeError here or np.stack([]) below
    s = ds.schema()
    if s is None:
        raise ValueError("ivf_train_centroids: cannot train on an empty dataset")
    id_ok = False
    if id_col is not None and id_col in s.names:
        id_ok = pa.types.is_integer(s.types[s.names.index(id_col)])
    if id_ok:

        def partial(t: pa.Table) -> pa.Table:
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
            pri = splitmix64(ids + np.uint64(seed * 0x9E3779B97F4A7C15 % (1 << 64)))
            if len(pri) > sample_rows:
                idx = np.argpartition(pri, sample_rows - 1)[:sample_rows]
            else:
                idx = np.arange(len(pri))
            return pa.table(
                {"_pri": pa.array(pri[idx]), vec_col: t[vec_col].take(pa.array(idx))}
            )

        sample = (
            ds.map_batches(partial, batch_format="pyarrow")
            .sort("_pri")
            .limit(sample_rows)
            .to_pandas()
        )
        if sample.empty:
            sample = ds.limit(sample_rows).to_pandas()
    else:
        n = ds.count()
        if n > sample_rows:
            # oversample 2x so the post-sample limit still fills
            # sample_rows with high probability; seeded → deterministic
            frac = min(1.0, 2.0 * sample_rows / n)
            sample = ds.random_sample(frac, seed=seed).limit(sample_rows).to_pandas()
            if len(sample) == 0:  # pathological tiny-fraction draw
                sample = ds.limit(sample_rows).to_pandas()
        else:
            sample = ds.to_pandas()
    if len(sample) == 0:
        raise ValueError("ivf_train_centroids: cannot train on an empty dataset")
    x = _unit(np.stack([np.asarray(v, dtype=np.float64) for v in sample[vec_col]]))
    rng = np.random.default_rng(seed)
    cent = x[rng.choice(len(x), size=min(n_centroids, len(x)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(x @ cent.T, axis=1)
        for c in range(len(cent)):
            members = x[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _unit(cent)
    return cent


def ivf_assign(
    ds: rd.Dataset, centroids: np.ndarray, vec_col: str = "embedding"
) -> rd.Dataset:
    """Append the nearest-centroid ``ivf_bucket`` column (the centroid
    matrix is tiny and closure-broadcast once)."""

    def fn(t: pa.Table) -> pa.Table:
        m = _unit(np.stack([np.asarray(v, dtype=np.float64) for v in t[vec_col].to_pylist()]))
        bucket = np.argmax(m @ centroids.T, axis=1).astype(np.int32)
        return t.append_column("ivf_bucket", pa.array(bucket))

    return ds.map_batches(fn, batch_format="pyarrow")


def ivf_topk(
    ds_with_buckets: rd.Dataset,
    centroids: np.ndarray,
    query: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """Approximate top-k: probe the ``nprobe`` centroids nearest to the
    query, exact cosine within the probed partitions only. With
    ``nprobe == n_centroids`` the result is exact (recall 1.0) — the
    standard IVF recall/cost dial."""
    q = _unit(np.asarray(query, dtype=np.float64))
    order = np.argsort(-(centroids @ q))
    probes = pa.array(sorted(int(c) for c in order[:nprobe]), pa.int32())

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.is_in(t["ivf_bucket"], value_set=probes))

    pruned = ds_with_buckets.map_batches(keep, batch_format="pyarrow")
    return brute_force_topk(pruned, q, k=k, vec_col=vec_col, id_col=id_col)


def lsh_bucket_ids(
    ds: rd.Dataset,
    num_planes: int = 12,
    seed: int = 42,
    vec_col: str = "embedding",
    dim: int | None = None,
) -> rd.Dataset:
    """Append a hyperplane-LSH ``bucket`` column (int32). Vectors in the
    same bucket are cosine-close with high probability; a 100 TB corpus
    groups by bucket once and probes partitions, not the full scan."""

    planes_cache: dict[int, np.ndarray] = {}

    def fn(t: pa.Table) -> pa.Table:
        mat = np.stack([np.asarray(v, dtype=np.float64) for v in t[vec_col].to_pylist()])
        d = mat.shape[1]
        if d not in planes_cache:
            rng = np.random.default_rng(seed)
            planes_cache[d] = rng.standard_normal((d, num_planes))
        signs = (mat @ planes_cache[d]) > 0
        bucket = np.zeros(len(mat), dtype=np.int32)
        for j in range(num_planes):
            bucket = (bucket << 1) | signs[:, j].astype(np.int32)
        return t.append_column("bucket", pa.array(bucket, pa.int32()))

    return ds.map_batches(fn, batch_format="pyarrow")


def lsh_topk(
    ds_with_buckets: rd.Dataset,
    query: np.ndarray,
    k: int = 10,
    num_planes: int = 12,
    seed: int = 42,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    probe_hamming: int = 1,
) -> pd.DataFrame:
    """Approximate top-k: scan only buckets within ``probe_hamming`` of
    the query's bucket (multi-probe), then exact cosine within them."""
    q = np.asarray(query, dtype=np.float64)
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((len(q), num_planes))
    signs = (q @ planes) > 0
    qb = 0
    for j in range(num_planes):
        qb = (qb << 1) | int(signs[j])
    # all bucket ids within the requested hamming radius (C(planes, r)
    # combinations — bounded: 12 planes, radius 2 → 79 probes); the old
    # code silently treated any radius >= 2 as 1
    import itertools

    probes = {qb}
    for r in range(1, probe_hamming + 1):
        for bits in itertools.combinations(range(num_planes), r):
            flip = 0
            for j in bits:
                flip |= 1 << j
            probes.add(qb ^ flip)
    probe_arr = pa.array(sorted(probes), pa.int32())

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.is_in(t["bucket"], value_set=probe_arr))

    pruned = ds_with_buckets.map_batches(keep, batch_format="pyarrow")
    return brute_force_topk(pruned, q, k=k, vec_col=vec_col, id_col=id_col)
