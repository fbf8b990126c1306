"""Payload-routed extraction (SURVEY.md §7.2 step 4, M1): one streaming
pass where each batch is split by ``payload_kind`` and sent through the
right engine — HTML boilerplate strip for markup, the layout/OCR actor
path for binary (PDF/image) payloads.

Routing happens INSIDE the stage (sub-batch per kind, results re-merged
in row order) rather than as two filtered Dataset branches: a branch per
kind would re-execute the read per branch (Ray Datasets re-run their
lineage per consumer). The in-stage split keeps the single-pass
streaming property; the cost is that both engines live in the same
pool — acceptable while both are CPU-bound. When the layout engine
becomes a GPU stage, the branch-per-kind layout with a shard-level kind
partition (write-time bucketing by payload_kind) is the scale path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from ..sources.pages import read_pages
from ..stages.extract_stage import HtmlExtractor
from ..stages.layout import LayoutExtractor
from .extract import build_extract_ds


class RoutedExtractor:
    """Batch kernel: split by payload_kind → engine per kind → re-merge
    in original row order. Both engines initialize once per worker."""

    def __init__(self, emit_spans: bool = True):
        self.html = HtmlExtractor(emit_spans=emit_spans)
        self.layout = LayoutExtractor(emit_spans=emit_spans)

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch["payload_kind"].to_pylist()
        layout_idx = [i for i, k in enumerate(kinds) if k in ("pdf", "image")]
        if not layout_idx:
            return self.html(batch)
        html_idx = [i for i, k in enumerate(kinds) if k not in ("pdf", "image")]
        parts = []
        order = []
        if html_idx:
            parts.append(self.html(batch.take(html_idx)))
            order.extend(html_idx)
        parts.append(self.layout(batch.take(layout_idx)))
        order.extend(layout_idx)
        merged = pa.concat_tables(parts)
        # restore original row order
        inv = np.argsort(np.asarray(order))
        return merged.take(pa.array(inv))


def build_routed_extract_ds(
    sf_dir_or_paths,
    emit_spans: bool = True,
    skip_shards=frozenset(),
    blocklist=None,
) -> rd.Dataset:
    """classify → routed dual-engine extraction, as one
    ``build_extract_ds`` stage (fused with the reader in task mode).

    ``blocklist``: optional domain blocklist applied BEFORE
    classification/extraction (``functions.urls.filter_domains``) —
    blocked pages never pay extraction cost, the right spot for the
    spam-site gate at 100 TB."""
    ds = read_pages(sf_dir_or_paths, columns=["url", "html"], skip_shards=skip_shards)
    if blocklist is not None:
        from ..functions.urls import filter_domains

        ds = filter_domains(ds, blocklist)
    return build_extract_ds(
        ds, engine_cls=RoutedExtractor, engine_kwargs={"emit_spans": emit_spans}
    )
