"""Embedding generation stage: text → ``list<float>`` column.

The curation pipelines consume an ``embedding`` column (ANN search,
cosine near-dup); this stage PRODUCES it from text, completing the
text → embed → index/dedup path. Deployment shape is the T1 actor-pool
pattern (a sentence-encoder pins weights once per actor in
``__init__``, encodes a batch per ``__call__``); the model here is a
deterministic, dependency-free stand-in (seeded random projection of
token-hash counts — a valid random-projection sketch: cosine between
sketches approximates token-multiset similarity), honestly documented
like the multimodal fake codecs (README scope note).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from ..functions.textstats import _stable_hash64


class TextEmbedder:
    """Actor-pool kernel: deterministic text embeddings.

    ``__init__`` is the weight-pinning step (T1): the projection matrix
    is derived once per actor from (seed, dim) and shared by every
    batch. Embeddings are L2-normalized float32; empty text → zero
    vector.
    """

    def __init__(
        self,
        text_col: str = "text",
        out_col: str = "embedding",
        dim: int = 64,
        buckets: int = 4096,
        seed: int = 42,
    ):
        self.text_col = text_col
        self.out_col = out_col
        self.dim = dim
        self.buckets = buckets
        rng = np.random.default_rng(seed)
        # token-hash-bucket → R^dim random projection ("the weights")
        self.proj = rng.standard_normal((buckets, dim)).astype(np.float32)

    def _encode(self, text: str) -> np.ndarray:
        if not text:
            return np.zeros(self.dim, dtype=np.float32)
        counts = np.zeros(self.buckets, dtype=np.float32)
        for tok in text.split():
            counts[_stable_hash64(tok) % self.buckets] += 1.0
        v = counts @ self.proj
        n = float(np.linalg.norm(v))
        return v / n if n else v

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t[self.text_col].to_pylist()
        if texts:
            vecs = np.stack([self._encode(x or "") for x in texts])
        else:  # empty block: emit the same fixed-size-list schema
            vecs = np.zeros((0, self.dim), dtype=np.float32)
        flat = pa.array(vecs.reshape(-1), pa.float32())
        col = pa.FixedSizeListArray.from_arrays(flat, self.dim)
        return t.append_column(self.out_col, col)


def add_embeddings(
    ds: rd.Dataset,
    text_col: str = "text",
    out_col: str = "embedding",
    dim: int = 64,
) -> rd.Dataset:
    """Append an embedding column, as a task-pool stage (the stub's
    init is cheap)."""
    return ds.map_batches(
        TextEmbedder(text_col=text_col, out_col=out_col, dim=dim),
        batch_format="pyarrow",
    )
