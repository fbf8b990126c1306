"""The heavy extraction stage: a stateful actor-pool `map_batches` class.

This is the Ray-native restatement of the reference's engine-adapter
lifecycle (SURVEY.md T1, src/core/ModelAdapter.h:31-38): everything the
adapter's ``initialize()`` did once per engine — compile patterns, build
parser state, pin model weights — happens once per actor in
``__init__``; ``recognize()`` becomes the vectorized ``__call__`` over an
Arrow batch. One actor per pool slot replaces the reference's
mutex-serialized shared adapter (src/adapters/QwenAdapter.cpp:484) — the
pool parallelizes by construction.

Error model: in-band ``success/error`` columns, never exceptions
(reference semantics, src/adapters/QwenAdapter.cpp:538-545). Giant
documents are segmented *inside* the task via ``split_html`` (exact, see
extract.py) so per-row working memory stays bounded; this in-task split
is the engine's only giant-document path.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..extract import ExtractResult, extract_html, split_html
from ..functions.hashing import content_hash_batch
from ..schema import HTML_ENGINE_CONFIDENCE, LINEAGE_COLUMNS, SPAN_TYPE


def binary_views(col: pa.ChunkedArray | pa.Array) -> list[memoryview | None]:
    """Zero-copy per-row views over a (large_)binary/string column.

    ``to_pylist()`` memcpys every payload into a fresh ``bytes`` — on a
    payload-heavy corpus that copy is pure memory-bus traffic (the
    single-node 8→32-CPU scaling ceiling, BASELINE.md §3). Here each row
    becomes a ``memoryview`` slice of the Arrow values buffer, which
    lives in object-store shared memory: no copy until the utf-8 decode.
    Null rows yield ``None``."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out: list[memoryview | None] = []
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        odt = (
            np.int64
            if pa.types.is_large_binary(chunk.type) or pa.types.is_large_string(chunk.type)
            else np.int32
        )
        bufs = chunk.buffers()
        offs = np.frombuffer(bufs[-2], dtype=odt, count=chunk.offset + len(chunk) + 1)
        data = memoryview(bufs[-1])
        base = chunk.offset
        if chunk.null_count:
            valid = pc.is_valid(chunk).to_numpy(zero_copy_only=False)
        else:
            valid = None
        for i in range(len(chunk)):
            if valid is not None and not valid[i]:
                out.append(None)
            else:
                out.append(data[offs[base + i] : offs[base + i + 1]])
    return out


def spans_column(all_span_texts: list[list[str]], confidence: float = HTML_ENGINE_CONFIDENCE) -> pa.ListArray:
    """Vectorized spans list-of-struct column builder — flat arrays +
    offsets instead of per-row Python dicts (the dict path measurably
    dominated batch time on span-heavy documents)."""
    counts = np.fromiter((len(s) for s in all_span_texts), dtype=np.int64, count=len(all_span_texts))
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat_texts: list[str] = []
    for s in all_span_texts:
        flat_texts.extend(s)
    total = int(offsets[-1])
    # per-row band coordinates, flattened
    y0 = np.empty(total, dtype=np.float32)
    y1 = np.empty(total, dtype=np.float32)
    pos = 0
    for c in counts:
        if c:
            band = np.arange(c, dtype=np.float32) / np.float32(c)
            y0[pos : pos + c] = band
            y1[pos : pos + c - 1] = band[1:]
            y1[pos + c - 1] = 1.0
            pos += c
    struct = pa.StructArray.from_arrays(
        [
            pa.array(flat_texts, pa.large_string()),
            pa.array(np.zeros(total, dtype=np.float32)),
            pa.array(y0),
            pa.array(np.ones(total, dtype=np.float32)),
            pa.array(y1),
            pa.array(np.full(total, confidence, dtype=np.float32)),
        ],
        fields=list(SPAN_TYPE),
    )
    return pa.LargeListArray.from_arrays(pa.array(offsets, pa.int64()), struct)


class HtmlExtractor:
    """Actor-pool batch kernel: pages batch in → results columns out.

    Pass the CLASS to ``map_batches(HtmlExtractor, fn_constructor_kwargs=...,
    concurrency=N, batch_size=B)``.
    """

    ENGINE_ID = "local_html"

    def __init__(
        self,
        prompt: str = "",
        params: dict[str, str] | None = None,
        emit_spans: bool = True,
        segment_bytes: int = 4 << 20,
    ):
        # Per-actor setup (once): warm the module-level compiled regexes
        # and freeze config. The analog of adapter initialize() (T1).
        self.prompt = prompt
        self.params = dict(params or {})
        self.emit_spans = emit_spans
        self.segment_bytes = segment_bytes
        extract_html(b"<p>warmup</p>")

    def _extract_one(
        self, payload: bytes | memoryview | None
    ) -> tuple[bool, str, list[str]]:
        if payload is not None and len(payload) > self.segment_bytes:
            texts: list[str] = []
            # rare giant-doc path: split_html needs real bytes
            for seg in split_html(bytes(payload), self.segment_bytes):
                r = extract_html(seg)
                if not r.success:
                    return False, r.error, []
                texts.extend(r.span_texts)
            return True, "", texts
        r = extract_html(payload)
        return r.success, r.error, r.span_texts

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = binary_views(batch["html"])
        n = len(payloads)
        success = [False] * n
        error = [""] * n
        texts = [""] * n
        all_spans: list[list[str]] = [[]] * n
        ms = [0] * n
        perf = time.perf_counter_ns
        for i, p in enumerate(payloads):
            t0 = perf()
            ok, err, span_texts = self._extract_one(p)
            success[i] = ok
            error[i] = err
            if ok:
                if self.emit_spans:
                    all_spans[i] = span_texts
                # assembled full text: reading-order merge + final trim
                # (byte-exact contract lives in extract.py / textnorm.py)
                texts[i] = _assemble(span_texts)
            ms[i] = (perf() - t0) // 1_000_000

        hashes = content_hash_batch(payloads, self.prompt, self.ENGINE_ID, self.params)
        cols: dict[str, pa.Array] = {"url": batch["url"]}
        cols["extracted_text"] = pa.array(texts, pa.large_string())
        if self.emit_spans:
            cols["spans"] = spans_column(all_spans)
        cols["success"] = pa.array(success, pa.bool_())
        cols["error"] = pa.array(error, pa.string())
        cols["engine"] = pa.array([self.ENGINE_ID] * n, pa.string())
        cols["processing_ms"] = pa.array(ms, pa.int64())
        cols["content_hash"] = pa.array(hashes, pa.string())
        for k in LINEAGE_COLUMNS:
            if k in batch.column_names:
                cols[k] = batch[k]
        return pa.table(cols)


def _assemble(span_texts: list[str]) -> str:
    # the byte-exact assembly contract lives in ONE place:
    # ExtractResult.full_text (extract.py) — this thin alias exists so
    # the stage can assemble from split-segment span lists too
    return ExtractResult(True, "", span_texts).full_text
