"""Layout/OCR-style extraction engine for binary (PDF/image) payloads
(north_star: "layout-analysis + OCR stage — page segmentation,
reading-order sort, span assembly — hosted in stateful actor pools").

Mirrors the reference's Paddle layout path (SURVEY.md M8/M14,
src/adapters/PaddleAdapter.cpp:170-183, 302-386) with the model
replaced by a deterministic fake (no OCR runtime in this container):
the REAL, tested machinery is everything around the model —

- actor-pool lifecycle: "weights" (a seeded block-geometry table) load
  once per actor in ``__init__`` (T1);
- page segmentation: the fake model emits blocks with bboxes in
  ARBITRARY order (as real detectors do);
- reading-order sort: the total key (y0, x0, detection index) —
  SURVEY.md §7.4 hard part 2 — then span assembly via the same
  byte-exact ``merge_full_text`` the HTML engine uses;
- in-band errors for undecodable payloads.

The fake model derives block count/geometry/text deterministically from
the payload bytes (blake2b-seeded), so outputs are stable across runs,
processes and pool sizes — which is what the tests assert.
"""

from __future__ import annotations

import hashlib
import random
import time

import pyarrow as pa

from ..functions.hashing import content_hash_batch
from ..functions.textnorm import merge_full_text, qt_trim
from ..schema import LINEAGE_COLUMNS, SPAN_TYPE

_WORDS = (
    "invoice total page section table figure heading paragraph line "
    "amount date name address summary item quantity description"
).split()


def fake_layout_model(payload: bytes) -> list[dict]:
    """Deterministic stand-in for the layout detector: payload bytes →
    detected blocks (text, bbox, confidence) in DETECTION order (not
    reading order)."""
    seed = hashlib.blake2b(payload, digest_size=8).hexdigest()
    rng = random.Random(f"layout:{seed}")
    n_blocks = rng.randint(2, 9)
    blocks = []
    for _ in range(n_blocks):
        y0 = round(rng.uniform(0.0, 0.9), 4)
        x0 = round(rng.uniform(0.0, 0.8), 4)
        blocks.append(
            {
                "text": " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 10))),
                "x0": x0,
                "y0": y0,
                "x1": round(min(1.0, x0 + rng.uniform(0.1, 0.2)), 4),
                "y1": round(min(1.0, y0 + rng.uniform(0.02, 0.1)), 4),
                "confidence": round(rng.uniform(0.7, 0.99), 4),
            }
        )
    rng.shuffle(blocks)  # detectors do not emit reading order
    return blocks


def reading_order(blocks: list[dict]) -> list[int]:
    """Total reading-order key: (y0, x0, detection index) — ties broken
    by index so the order never flaps (SURVEY.md §7.4 hard part 2)."""
    return sorted(
        range(len(blocks)),
        key=lambda i: (blocks[i]["y0"], blocks[i]["x0"], i),
    )


class LayoutExtractor:
    """Actor-pool engine for binary payloads (payload_kind pdf/image)."""

    ENGINE_ID = "layout_ocr"

    def __init__(
        self,
        prompt: str = "",
        params: dict[str, str] | None = None,
        emit_spans: bool = True,
    ):
        # T1: "pin the model weights once per actor" — here the fake
        # model's word table / rng machinery; a real deployment loads
        # the detector + OCR weights exactly here.
        self.prompt = prompt
        self.params = dict(params or {})
        self.emit_spans = emit_spans
        fake_layout_model(b"warmup")

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .extract_stage import binary_views

        payloads = binary_views(batch["html"])  # zero-copy Arrow views
        n = len(payloads)
        success = [False] * n
        error = [""] * n
        texts = [""] * n
        spans_col: list[list[dict]] = [[]] * n
        ms = [0] * n
        for i, p in enumerate(payloads):
            t0 = time.perf_counter_ns()
            if p is None or len(p) == 0:
                error[i] = "empty_payload"
            else:
                blocks = fake_layout_model(p)
                order = reading_order(blocks)
                ordered = [blocks[j] for j in order]
                success[i] = True
                texts[i] = qt_trim(merge_full_text([b["text"] for b in ordered]))
                if self.emit_spans:
                    spans_col[i] = ordered
            ms[i] = (time.perf_counter_ns() - t0) // 1_000_000
        hashes = content_hash_batch(payloads, self.prompt, self.ENGINE_ID, self.params)
        cols: dict[str, pa.Array] = {
            "url": batch["url"],
            "extracted_text": pa.array(texts, pa.large_string()),
        }
        if self.emit_spans:
            cols["spans"] = pa.array(spans_col, pa.large_list(SPAN_TYPE))
        cols["success"] = pa.array(success, pa.bool_())
        cols["error"] = pa.array(error, pa.string())
        cols["engine"] = pa.array([self.ENGINE_ID] * n, pa.string())
        cols["processing_ms"] = pa.array(ms, pa.int64())
        cols["content_hash"] = pa.array(hashes, pa.string())
        for k in LINEAGE_COLUMNS:
            if k in batch.column_names:
                cols[k] = batch[k]
        return pa.table(cols)
