"""Pages source: lineage-preserving parquet reader.

``read_pages`` is a thin custom source built from
``from_items(row-group work items) → map_batches(reader)`` instead of
plain ``read_parquet``. Rationale (SURVEY.md §4.2, north_rule):

- exact per-row lineage: every row gets ``shard_id`` (index of its file
  in the sorted shard list) and ``row_idx`` (row offset within the
  file) — the engine's replacement for the reference's ``contextId``
  correlation key (src/ui/MainWindow.cpp:1442, 1972-1983);
- resumability: a resume run passes ``skip_shards`` (completed shard ids
  from the lineage manifest) and those files are never opened;
- streaming: the reader task *yields* slices of each row group so
  multi-hundred-MB shards never materialize as one block (dynamic block
  sizing stays in the hands of the streaming executor).

One reader task per parquet row group; generate input shards so that
``#row_groups ≥ 2 × cluster CPUs`` for full read parallelism.

For non-lineage scans (the query surface) use ``read_pages_simple``,
which is plain ``ray.data.read_parquet`` with column pruning.
"""

from __future__ import annotations

import os
from typing import Iterator

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd


def list_shards(path) -> list[str]:
    """Sorted parquet shard files under ``path`` — a directory, a single
    file, or a list/tuple of either (each entry expanded, the union
    sorted). Sorted order defines ``shard_id`` — stable across runs and
    independent of the order a caller listed the entries in.
    """
    if isinstance(path, (list, tuple)):
        out: list[str] = []
        for p in path:
            out.extend(list_shards(p))
        return sorted(out)
    if os.path.isfile(path):
        return [path]
    out = []
    for root, _dirs, files in os.walk(path):
        for f in files:
            if f.endswith(".parquet"):
                out.append(os.path.join(root, f))
    return sorted(out)


def shard_work_items(
    paths: list[str], skip_shards: frozenset[int] | set[int] = frozenset()
) -> list[dict]:
    """One work item per (shard, row_group) with its absolute row offset.

    Footer metadata is read with a thread pool — `pq.read_metadata`
    releases the GIL, and reading serially cost ~15 ms/file (1.2 s of
    driver time on an 80-shard corpus, 17% of the flagship wall; at
    scale the cost is per-WAVE, since a resume run's ``skip_shards``
    prunes to the wave's files before any footer is opened). Item
    order stays deterministic: results are assembled in shard order.
    """
    from concurrent.futures import ThreadPoolExecutor

    todo = [
        (shard_id, p)
        for shard_id, p in enumerate(paths)
        if shard_id not in skip_shards
    ]
    if not todo:
        return []
    # chunked: a FileMetaData with per-column statistics can be hundreds
    # of KB — materializing every footer at once would make driver peak
    # memory O(shards); per chunk it is O(CHUNK), and each footer is
    # freed as soon as its work items are built. 512 keeps all 32
    # workers busy while bounding resident footers to ~tens of MB even
    # on wide schemas
    CHUNK = 512
    items: list[dict] = []
    with ThreadPoolExecutor(max_workers=min(32, len(todo))) as ex:
        for start in range(0, len(todo), CHUNK):
            chunk = todo[start : start + CHUNK]
            for (shard_id, p), md in zip(
                chunk, ex.map(lambda t: pq.read_metadata(t[1]), chunk)
            ):
                row_start = 0
                for rg in range(md.num_row_groups):
                    n = md.row_group(rg).num_rows
                    items.append(
                        {
                            "path": p,
                            "shard_id": shard_id,
                            "row_group": rg,
                            "row_start": row_start,
                            "num_rows": n,
                        }
                    )
                    row_start += n
    return items


class _RowGroupReader:
    """Stateless reader kernel: one work-item batch in → row slices out."""

    def __init__(self, columns: list[str] | None, slice_rows: int):
        self.columns = columns
        self.slice_rows = slice_rows

    def __call__(self, batch: pa.Table) -> Iterator[pa.Table]:
        for item in batch.to_pylist():
            f = pq.ParquetFile(item["path"])
            base = item["row_start"]
            shard = item["shard_id"]
            off = 0
            # stream the row group in slices — a multi-GB row group never
            # materializes whole in the reader's heap (bounded memory,
            # backpressure-friendly yields)
            for rb in f.iter_batches(
                batch_size=self.slice_rows,
                row_groups=[item["row_group"]],
                columns=self.columns,
            ):
                chunk = pa.Table.from_batches([rb])
                m = chunk.num_rows
                chunk = chunk.append_column(
                    "shard_id", pa.array([shard] * m, pa.int32())
                )
                chunk = chunk.append_column(
                    "row_idx",
                    pa.array(range(base + off, base + off + m), pa.int64()),
                )
                off += m
                yield chunk


def read_pages(
    sf_dir_or_paths: str | list[str],
    columns: list[str] | None = None,
    skip_shards: frozenset[int] | set[int] = frozenset(),
) -> rd.Dataset:
    """Lineage-preserving read of a pages parquet directory."""
    # ALWAYS via list_shards — it sorts and expands dir entries, and
    # sorted order IS the shard_id lineage contract: a caller-ordered
    # list would give the same row different (shard_id, row_idx) than
    # the directory read (and run_extract's resume validation) does
    paths = list_shards(sf_dir_or_paths)
    items = shard_work_items(paths, skip_shards)
    if not items:
        # empty typed dataset: the REQUESTED columns (pages schema
        # types) + lineage — a hardcoded (url-only) schema here made
        # empty inputs diverge from every non-empty read's schema
        types = {
            "url": pa.string(), "warc_ts": pa.timestamp("us"),
            "html": pa.binary(), "text": pa.string(), "lang": pa.string(),
        }
        cols = columns if columns is not None else list(types)
        empty = pa.table(
            {
                **{c: pa.array([], types.get(c, pa.string())) for c in cols},
                "shard_id": pa.array([], pa.int32()),
                "row_idx": pa.array([], pa.int64()),
            }
        )
        return rd.from_arrow(empty)
    ds = rd.from_items(items, override_num_blocks=len(items))
    # One 1-row block per work item + batch_size=None (= one batch per
    # block): a task-pool map that FUSES with downstream task-pool
    # stages into exactly one task per work item. Two pitfalls this
    # layout avoids (both observed, both serialized the pipeline):
    # - a downstream row-count batch_size (e.g. 512) makes the fused op
    #   bundle the FEW work-item rows into one giant task (zero
    #   parallelism);
    # - hosting reader or extractor in actor pools statically reserves
    #   CPUs per pool, so the pools starve each other instead of
    #   sharing the node (tasks release CPUs; actors hold them).
    return ds.map_batches(
        _RowGroupReader(columns, 2048),
        batch_format="pyarrow",
    )


def read_pages_simple(
    sf_dir: str, columns: list[str] | None = None, **kwargs
) -> rd.Dataset:
    """Plain parallel read with column pruning (no lineage columns)."""
    paths = list_shards(sf_dir)
    return rd.read_parquet(paths, columns=columns, **kwargs)


def read_dropped_files(paths: list[str]) -> rd.Dataset:
    """S2: drag-drop ingestion — a heterogeneous list of user-supplied
    file paths routed by extension, mirroring the reference's dropEvent
    (src/ui/MainWindow.cpp:2557-2593: one image → direct load, many
    files → batch processing; both land in the same extraction path).

    Ray-native routing:
    - ``.parquet`` files → the lineage-preserving ``read_pages`` reader
      (each dropped shard gets its shard_id from the sorted drop list);
    - any other file → ONE page row whose payload is the raw file bytes
      and whose ``url`` is the absolute path (``file://`` scheme), read
      inside the task, never on the driver.

    The two branches union into a single Dataset with the standard
    pages schema (url, html, shard_id, row_idx) and flow through the
    SAME downstream classify → extract pipeline — exactly the
    reference's design, where drag-drop is a submit source, not a
    separate engine path."""
    parquet = [p for p in paths if p.endswith(".parquet")]
    raw = [p for p in paths if not p.endswith(".parquet")]
    parts: list[rd.Dataset] = []
    if parquet:
        # prune to the union schema (url, html) + lineage
        parts.append(read_pages(sorted(parquet), columns=["url", "html"]))
    if raw:
        # raw files numbered after the parquet shards, one row each;
        # bytes are read inside the task (driver ships only paths)
        base = len(parquet)
        items = [
            {"path": os.path.abspath(p), "shard_id": base + i}
            for i, p in enumerate(sorted(raw))
        ]

        def load(batch: pa.Table) -> pa.Table:
            payloads, urls, sids = [], [], []
            for item in batch.to_pylist():
                with open(item["path"], "rb") as f:
                    payloads.append(f.read())
                urls.append("file://" + item["path"])
                sids.append(item["shard_id"])
            return pa.table(
                {
                    "url": pa.array(urls, pa.string()),
                    "html": pa.array(payloads, pa.binary()),
                    "shard_id": pa.array(sids, pa.int32()),
                    "row_idx": pa.array([0] * len(urls), pa.int64()),
                }
            )

        files_ds = rd.from_items(items, override_num_blocks=len(items)).map_batches(
            load, batch_format="pyarrow"
        )
        parts.append(files_ds)
    if not parts:
        return read_pages([])
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out
