"""The heavy extraction stage: the one engine batch contract and the
HTML engine, a stateful actor-pool `map_batches` class.

This is the Ray-native restatement of the reference's engine-adapter
lifecycle (SURVEY.md T1, src/core/ModelAdapter.h:31-38): everything the
adapter's ``initialize()`` did once per engine — compile patterns, build
parser state, pin model weights — happens once per actor in
``__init__``; ``recognize()`` becomes the per-row ``_extract_one``, and
one ``BatchExtractor.__call__``, which every engine subclasses, builds
the results columns (the reference's one ``OCRResult``,
``schema.RESULTS_SCHEMA``). One actor per pool slot replaces the
reference's mutex-serialized shared adapter
(src/adapters/QwenAdapter.cpp:484) — the pool parallelizes by
construction.

Error model: in-band ``success/error`` columns, never exceptions
(reference semantics, src/adapters/QwenAdapter.cpp:538-545). Giant
documents are segmented *inside* the task via ``split_html`` (exact, see
extract.py) so per-row working memory stays bounded; this in-task split
is the engine's only giant-document path, dedup-gated extraction
included.

``perfbench --trace 1`` wraps ``extract_html``, ``split_html``,
``_assemble``, ``spans_column`` and ``content_hash_batch`` here by name:
keep them module globals that the loop looks up at call time.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..extract import ExtractResult, extract_html, split_html
from ..functions.hashing import content_hash_batch
from ..schema import HTML_ENGINE_CONFIDENCE, LINEAGE_COLUMNS, RESULTS_SCHEMA, SPAN_TYPE


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


class BatchExtractor:
    """The one engine batch contract: pages batch in → results columns out.

    Every engine subclasses this and implements only ``_extract_one``,
    its per-row extraction. This loop owns the rest: zero-copy payload
    views, per-row timing into ``processing_ms``, one
    ``content_hash_batch`` call per batch, the results columns (names,
    order and types from ``RESULTS_SCHEMA``; ``spans`` only when the
    engine emits spans) and the lineage copy. Pass the CLASS to
    ``map_batches(Cls, fn_constructor_kwargs=..., concurrency=N)``.
    """

    ENGINE_ID = ""
    emit_spans = False

    def __init__(self, prompt: str = "", params: dict[str, str] | None = None):
        self.prompt = prompt
        self.params = dict(params or {})

    def _extract_one(self, payload: memoryview | None) -> tuple[bool, str, str, list, int]:
        """One row → (success, error, text, spans, simulated_ms): ``spans``
        feed ``_spans_array``; ``simulated_ms`` is model latency added to
        the measured time (0 for local engines)."""
        raise NotImplementedError

    def _spans_array(self, all_spans: list[list]) -> pa.Array:
        # rows of span dicts with SPAN_TYPE's keys
        return pa.array(all_spans, RESULTS_SCHEMA.field("spans").type)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = binary_views(batch["html"])
        n = len(payloads)
        success = [False] * n
        error = [""] * n
        texts = [""] * n
        all_spans: list[list] = [[]] * n
        ms = [0] * n
        extract_one = self._extract_one
        emit_spans = self.emit_spans
        perf = time.perf_counter_ns
        for i, p in enumerate(payloads):
            t0 = perf()
            ok, err, text, spans, sim_ms = extract_one(p)
            success[i] = ok
            error[i] = err
            texts[i] = text
            if emit_spans:
                all_spans[i] = spans
            ms[i] = sim_ms + (perf() - t0) // 1_000_000

        values = {
            "extracted_text": texts,
            "success": success,
            "error": error,
            "engine": [self.ENGINE_ID] * n,
            "processing_ms": ms,
            "content_hash": content_hash_batch(
                payloads, self.prompt, self.ENGINE_ID, self.params
            ),
        }
        # RESULTS_SCHEMA's names, order and types; url and the lineage
        # columns are the input batch's own
        cols: dict[str, pa.Array] = {"url": batch["url"]}
        for f in RESULTS_SCHEMA:
            if f.name in values:
                cols[f.name] = pa.array(values[f.name], f.type)
            elif f.name == "spans" and emit_spans:
                cols["spans"] = self._spans_array(all_spans)
        for k in LINEAGE_COLUMNS:
            if k in batch.column_names:
                cols[k] = batch[k]
        return pa.table(cols)


class HtmlExtractor(BatchExtractor):
    """The HTML boilerplate-strip engine; giant payloads are split
    (exactly) into ``segment_bytes`` segments inside the task."""

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
        super().__init__(prompt, params)
        self.emit_spans = emit_spans
        self.segment_bytes = segment_bytes
        extract_html(b"<p>warmup</p>")

    def _extract_one(self, payload: memoryview | None) -> tuple[bool, str, str, list[str], int]:
        if payload is not None and len(payload) > self.segment_bytes:
            span_texts: list[str] = []
            # rare giant-doc path: split_html needs real bytes
            for seg in split_html(bytes(payload), self.segment_bytes):
                r = extract_html(seg)
                if not r.success:
                    return False, r.error, "", [], 0
                span_texts.extend(r.span_texts)
        else:
            r = extract_html(payload)
            if not r.success:
                return False, r.error, "", [], 0
            span_texts = r.span_texts
        # assembled full text: reading-order merge + final trim
        # (byte-exact contract lives in extract.py / textnorm.py)
        return True, "", _assemble(span_texts), span_texts, 0

    def _spans_array(self, all_spans: list[list[str]]) -> pa.Array:
        return spans_column(all_spans)


def _assemble(span_texts: list[str]) -> str:
    # the byte-exact assembly contract lives in ONE place:
    # ExtractResult.full_text (extract.py) — this thin alias exists so
    # every engine assembles through it, from split-segment span lists
    # and layout blocks too
    return ExtractResult(True, "", span_texts).full_text
