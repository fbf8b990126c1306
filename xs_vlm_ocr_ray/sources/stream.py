"""Unbounded micro-batch session (SURVEY.md S3/D2, §2.10).

The reference's clipboard monitor is an unbounded event source with
last-value duplicate suppression
(src/managers/ClipboardManager.cpp:41-96): each arriving item is
compared against the LAST item seen — across arrival boundaries — and
repeats are ignored. ``MicroBatchSession`` is that operator at engine
granularity: feed it micro-batches of pages (a queue drain, a Kafka
poll, a tail of a WARC stream); it carries the last-content-hash state
ACROSS batches, drops consecutive repeats, and runs the survivors
through the routed dual-engine extraction kernel synchronously.

Deliberately driver-side/in-process: a micro-batch is small (clipboard
scale), so spinning a distributed Dataset per batch would be pure
overhead; the kernels are the same classes the batch pipelines use, so
output schema and bytes are identical to the batch path. For a
high-volume stream, hand the same kernels to
``ray.data.from_arrow(batch).map_batches(...)`` per drain instead.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.hashing import content_hash_batch
from ..pipelines.routed import RoutedExtractor
from ..stages.classify import classify_payload_kind
from ..stages.extract_stage import binary_views


class MicroBatchSession:
    """Stateful session: consecutive-duplicate drop (last-value state
    across micro-batches) → routed extraction."""

    def __init__(self, emit_spans: bool = False):
        self.extractor = RoutedExtractor(emit_spans=emit_spans)
        self._last_hash: str | None = None
        self.n_seen = 0
        self.n_dropped = 0

    def process(self, batch: pa.Table) -> pa.Table:
        """One micro-batch of pages (url, html) → results for the rows
        that survived the last-value dedup (possibly empty)."""
        hashes = content_hash_batch(binary_views(batch["html"]))
        keep: list[int] = []
        last = self._last_hash
        for i, h in enumerate(hashes):
            self.n_seen += 1
            # the reference compares content, not presence: an empty
            # payload (hash "") never matches and is never dedup'd
            if h and h == last:
                self.n_dropped += 1
            else:
                keep.append(i)
            last = h if h else None
        self._last_hash = last
        # typed indices: take([]) infers a NULL index type and pyarrow
        # has no (string, null) take kernel — an all-duplicates
        # micro-batch (the steady-state clipboard scenario) crashed here
        kept = batch.take(pa.array(keep, pa.int64()))
        kept = classify_payload_kind(kept)
        return self.extractor(kept)
