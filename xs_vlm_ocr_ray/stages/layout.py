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
  SURVEY.md §7.4 hard part 2 — then span assembly through the same
  byte-exact ``_assemble`` (``ExtractResult.full_text``) the HTML
  engine uses;
- in-band errors for undecodable payloads; the results columns come
  from the shared ``BatchExtractor`` loop (stages/extract_stage.py).

The fake model derives block count/geometry/text deterministically from
the payload bytes (blake2b-seeded), so outputs are stable across runs,
processes and pool sizes — which is what the tests assert.
"""

from __future__ import annotations

import hashlib
import random

from .extract_stage import BatchExtractor, _assemble

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


class LayoutExtractor(BatchExtractor):
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
        super().__init__(prompt, params)
        self.emit_spans = emit_spans
        fake_layout_model(b"warmup")

    def _extract_one(self, payload: memoryview | None) -> tuple[bool, str, str, list[dict], int]:
        if payload is None or len(payload) == 0:
            return False, "empty_payload", "", [], 0
        blocks = fake_layout_model(payload)
        ordered = [blocks[j] for j in reading_order(blocks)]
        return True, "", _assemble([b["text"] for b in ordered]), ordered, 0
