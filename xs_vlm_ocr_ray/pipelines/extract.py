"""The flagship pipeline: pages parquet → extracted text + lineage.

RD restatement of the reference lifecycle (SURVEY.md §3.3):

    read_pages (lineage-preserving, resumable)
      → map_batches(classify_payload_kind)            stateless task
      → map_batches(HtmlExtractor, concurrency=N)     actor pool
      → write_parquet(out/results, partition by shard)
      → manifest records per shard (from the durable output)

Execution is streaming end-to-end within a *wave*; waves bound the
checkpoint granularity: each wave is one Dataset execution over a slice
of the shard list, and its shards become resumable only when their
results are durable (manifest written after read-back of the written
files). A 100 TB run is just many waves of a few thousand shards each;
a single-wave run is fully streaming with one checkpoint at the end.
"""

from __future__ import annotations

import contextlib as _contextlib
import errno as _errno
import heapq
import os
import time

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data as rd
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from ..cluster import cluster_cpus
from ..sources.pages import list_shards, read_pages
from ..stages.classify import classify_payload_kind
from ..stages.extract_stage import HtmlExtractor
from ..state.manifest import (
    fsync_dir,
    load_manifest,
    write_shard_record,
    xor_hex_digests,
)


def build_extract_ds(
    sf_dir_or_paths,
    engine_cls=HtmlExtractor,
    engine_kwargs: dict | None = None,
    concurrency=None,
    batch_size: int | None = None,
    skip_shards=frozenset(),
) -> rd.Dataset:
    """Lazy Dataset for the extraction pipeline (no execution).

    Execution mode by engine cost profile (SURVEY.md §4.2):

    - ``concurrency=None`` (default, cheap-setup engines like the local
      HTML extractor): the engine runs as a TASK-pool stage and fuses
      with the reader into one task per work item — tasks share the
      node's CPUs fluidly with the write stage, which is what makes the
      8→32-CPU scaling linear (actor pools would statically partition
      the CPUs between reader/extractor and starve one side);
    - ``concurrency=N`` (heavy engines that pin weights/models): the
      engine class becomes a ``map_batches`` ACTOR pool with per-actor
      ``__init__`` setup — the reference's adapter-initialize semantics
      (T1). Pass an explicit ``batch_size`` sized so a batch ≈ 1-4 s.
    """
    if isinstance(sf_dir_or_paths, rd.Dataset):
        # pre-built pages source (e.g. the S2 drag-drop union,
        # sources.pages.read_dropped_files) — must already carry
        # (url, html, shard_id, row_idx)
        if skip_shards:
            raise ValueError(
                "skip_shards is not applicable to a pre-built Dataset source; "
                "apply the shard filter when building it"
            )
        ds = sf_dir_or_paths
    else:
        ds = read_pages(
            sf_dir_or_paths, columns=["url", "html"], skip_shards=skip_shards
        )
    ds = ds.map_batches(classify_payload_kind, batch_format="pyarrow")
    kwargs = dict(engine_kwargs or {})
    if concurrency is None:
        # task mode: a picklable engine INSTANCE fuses with the reader
        return ds.map_batches(
            engine_cls(**kwargs),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    return ds.map_batches(
        engine_cls,
        fn_constructor_kwargs=kwargs,
        batch_format="pyarrow",
        batch_size=batch_size if batch_size is not None else 512,
        concurrency=concurrency,
    )


class StoreLockedError(RuntimeError):
    """The results store's writer lock is held by another live process."""


# errnos meaning "this filesystem can't hard-link" — shared by the lock
# acquire and retention's link-into-wave fast path. Anything else (EIO,
# EROFS, quota) is a real failure that must not be papered over.
# FileExistsError still propagates from link sites (its errno is EEXIST).
_NO_LINK_ERRNOS = frozenset(
    {_errno.EXDEV, _errno.EPERM, _errno.EACCES, _errno.ENOTSUP, _errno.EMLINK}
)

# THE result-file naming contract: ``part-s<shard>-r<first_row>.parquet``
# (written by _ShardWriter; parsed only by _shard_file_lists, the one
# lister behind every store read and rewrite)
import re as _re

_PART_FILE_RE = _re.compile(r"part-s(\d+)-r(\d+)\.parquet$")


@_contextlib.contextmanager
def store_writer_lock(out_dir: str):
    """Best-effort enforcement of the store's SINGLE-WRITER contract.

    Store mutations — ``run_extract``, ``compact_results``,
    ``retain_recent`` — are exclusive (a rewrite garbage-collects wave
    directories a concurrent extract may be mid-way through renaming
    into place). The reference gets this for free from SQLite's write
    lock on the history DB (src/managers/HistoryManager.cpp); a
    directory-of-parquet store needs its own: a ``.writer.lock`` file
    in the store root, created with ``O_EXCL``, holding the owner's
    ``{pid, host}``.

    A conflicting lock whose pid is dead ON THIS HOST is reclaimed
    (crashed writers leave stale locks; the kill-9/resume drive relies
    on this). A conflicting live or foreign-host lock raises
    :class:`StoreLockedError` — foreign-pid liveness can't be probed
    across nodes on a shared filesystem, so a genuinely stale foreign
    lock needs manual removal (the error says so). Advisory only:
    Ray worker tasks never touch the lock, only the driver process
    mutating the store."""
    import json
    import socket

    path = os.path.join(out_dir, ".writer.lock")
    # ts makes each acquisition's content unique, so the reclaim
    # re-check below can tell "still the stale lock I inspected" from
    # "a sibling already reclaimed and re-acquired"
    me = {"pid": os.getpid(), "host": socket.gethostname(), "ts": time.time()}
    # acquisition = link(2) of a pre-written temp into the lock name:
    # atomic create-with-content (link fails with EEXIST when held, like
    # O_EXCL, but the payload is already in the inode), so the lock is
    # never observably empty — a writer crashing between an O_EXCL
    # create and the payload write used to leave an unparseable `{}`
    # lock the same-host pid reclaim could never clear, bricking the
    # store until manual removal. A corrupt lock from older code (or a
    # torn foreign write) is still covered: unparseable AND older than
    # a 60 s grace period → treated as stale. Filesystems that refuse
    # link(2) outright (some NFS exports / security modules — the same
    # set retention's hard-link fallback handles) fall back to the
    # O_EXCL create+write form, re-accepting only on those mounts the
    # tiny crash window the grace-period reclaim already covers.
    # The temp name carries host+pid+nonce: pid alone collides across
    # hosts sharing the store, and a cross-host collision would let one
    # writer's payload overwrite another's pre-link.
    host_tag = "".join(c if c.isalnum() else "-" for c in me["host"])[:40]
    tmp = f"{path}.acquire-{host_tag}-{os.getpid()}-{os.urandom(4).hex()}"
    with open(tmp, "w") as f:
        f.write(json.dumps(me))

    def _install() -> bool:
        """Atomically install the lock. True = acquired, False = held."""
        try:
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False
        except OSError as e:
            if e.errno not in _NO_LINK_ERRNOS:
                raise
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as f:
            f.write(json.dumps(me))
        return True

    try:
        for attempt in range(4):
            if _install():
                break
            try:
                with open(path) as f:
                    held = json.loads(f.read() or "{}")
                if not isinstance(held, dict):
                    held = {}  # valid JSON but not an owner record (torn write)
            except FileNotFoundError:
                continue  # holder released between our create and read — retry
            except (OSError, ValueError):
                held = {}
            stale = False
            if held.get("host") == me["host"] and isinstance(held.get("pid"), int):
                try:
                    os.kill(held["pid"], 0)
                except ProcessLookupError:
                    stale = True
                except PermissionError:
                    pass  # alive, not ours
            elif not held:
                # unreadable/unparseable lock: no pid to probe — stale
                # once it has sat unreadable past the grace period
                with _contextlib.suppress(OSError):
                    stale = time.time() - os.path.getmtime(path) > 60
            if stale:
                # reclaim via RENAME, not unlink: rename is atomic, so of
                # N concurrent reclaimers exactly one moves the file —
                # an unconditional unlink here could delete a lock a
                # sibling had already reclaimed AND re-acquired. The
                # rename alone is not enough either (it could move that
                # sibling's FRESH lock), so re-check the claimed file's
                # content: only the exact stale payload we inspected is
                # discarded; anything else is restored. Residual window:
                # a third writer creating between our steal and restore
                # — microseconds, three concurrent writers plus a crash;
                # the lock is an operational guard, not a correctness
                # primitive (DEPLOY.md).
                claim = f"{path}.reclaim-{os.getpid()}"
                try:
                    os.rename(path, claim)
                except FileNotFoundError:
                    continue  # someone else reclaimed/released first
                # rename(2) preserves mtime — freshen it so the orphan-GC
                # below (sibling holding the lock, 60 s mtime guard)
                # cannot unlink a claim whose reclaim is in flight
                with _contextlib.suppress(OSError):
                    os.utime(claim)
                try:
                    with open(claim) as f:
                        got = json.loads(f.read() or "{}")
                    if not isinstance(got, dict):
                        got = {}
                except FileNotFoundError:
                    continue  # GC raced us anyway — nothing left to judge
                except (OSError, ValueError):
                    # unreadable claim must compare EQUAL to an
                    # unreadable inspection (held == {}) — mapping it to
                    # None made `got == held` false for corrupt locks,
                    # so the corrupt file was restored (with a freshened
                    # mtime, resetting the grace clock) on every attempt
                    # and the documented corrupt-lock reclaim never ran
                    got = {}
                with _contextlib.suppress(FileNotFoundError):
                    if got == held:
                        os.unlink(claim)  # confirmed stale — reclaimed
                    else:
                        os.replace(claim, path)  # stole a fresh lock — put it back
                continue
            raise StoreLockedError(
                f"results store {out_dir!r} is locked by writer "
                f"{held or '<unreadable lock>'} ({path}). Store mutations are "
                "single-writer (DEPLOY.md); if that process is truly gone "
                "(e.g. it ran on another node), delete the lock file manually."
            )
        else:
            raise StoreLockedError(
                f"could not acquire {path} after repeated attempts — "
                "another writer is churning the lock"
            )
    finally:
        with _contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    # holding the lock: GC claim/acquire files orphaned by a sibling
    # crashing mid-reclaim or mid-acquire (mtime guard skips any reclaim
    # currently in flight — claims are utime-freshened at rename)
    now = time.time()
    for f in os.listdir(out_dir):
        if f.startswith((".writer.lock.reclaim-", ".writer.lock.acquire-")):
            full = os.path.join(out_dir, f)
            with _contextlib.suppress(OSError):
                if now - os.path.getmtime(full) > 60:
                    os.unlink(full)
    try:
        yield
    finally:
        with _contextlib.suppress(FileNotFoundError):
            os.unlink(path)


def run_extract(
    sf_dir: str,
    out_dir: str,
    engine_cls=HtmlExtractor,
    engine_kwargs: dict | None = None,
    concurrency=None,
    batch_size: int | None = None,
    resume: bool = True,
    wave_shards: int | None = None,
    max_waves: int | None = None,
    ds_builder=None,
    fsync_data: bool = False,
) -> dict:
    """Execute the flagship pipeline with checkpoint/resume.

    ``fsync_data=True`` fsyncs every data file before its stats row is
    emitted, extending durable-before-record from the kill-9 crash
    model (safe without any fsync — page cache survives process death)
    to machine power loss, at a measured ~10% flagship-wall cost. Wave
    renames and manifest records are dir-/file-fsync'd unconditionally
    (once per wave / per record — cheap).

    A wave's output is written to a hidden temp directory and renamed
    into place before its manifest records are derived — a crash at any
    point leaves either nothing or a ``.tmp-`` directory that readers
    ignore, never a half-recorded shard. ``max_waves`` bounds this run
    (incremental processing / crash simulation in tests).

    ``ds_builder`` generalizes the wave machinery to OTHER per-shard
    chains (e.g. the training pipeline's extract→annotate→filter
    stage): a callable ``(shard_paths, skip_shards) -> Dataset`` whose
    output rows carry the writer contract columns (shard_id, row_idx,
    success, processing_ms, content_hash). Default: the flagship
    extraction chain.

    Returns a summary dict (rows, successes, wall seconds, waves run).
    """
    # absolutize: the writer stage runs in Ray WORKER processes whose
    # cwd differs from the driver's — a relative out_dir would scatter
    # files under the workers' cwd and leave the renamed wave dir empty
    out_dir = os.path.abspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    with store_writer_lock(out_dir):
        return _run_extract_locked(
            sf_dir, out_dir, engine_cls, engine_kwargs, concurrency,
            batch_size, resume, wave_shards, max_waves, ds_builder,
            fsync_data,
        )


def _run_extract_locked(
    sf_dir, out_dir, engine_cls, engine_kwargs, concurrency,
    batch_size, resume, wave_shards, max_waves, ds_builder,
    fsync_data=False,
) -> dict:
    paths = list_shards(sf_dir)
    done: set[int] = set()
    if resume:
        # shard identity on resume is (index into the sorted shard
        # list); that is only sound while the input file SET is the one
        # the manifest was built from. Adding/removing/renaming a file
        # shifts every later index — silently skipping new files and
        # mis-attributing lineage — so validate each completed record's
        # recorded path against the current list and refuse loudly.
        for sid, rec in load_manifest(out_dir).items():
            if sid >= len(paths) or rec.get("path") != paths[sid]:
                raise ValueError(
                    f"resume mismatch in {out_dir!r}: manifest shard {sid} "
                    f"records path {rec.get('path')!r} but the current input "
                    f"list has "
                    f"{paths[sid] if sid < len(paths) else '<no such shard>'!r}. "
                    "The input file set changed since the previous run — "
                    "restore the original inputs, or rerun with resume=False "
                    "into a fresh out_dir."
                )
            done.add(sid)
    pending = [sid for sid in range(len(paths)) if sid not in done]
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    t_start = time.perf_counter()
    waves = 0
    if wave_shards is None:
        wave_shards = len(pending) or 1
    for w0 in range(0, len(pending), wave_shards):
        if max_waves is not None and waves >= max_waves:
            break
        wave = pending[w0 : w0 + wave_shards]
        waves += 1
        wave_name = f"wave-{wave[0]:06d}-{wave[-1]:06d}"
        wave_dir = os.path.join(results_dir, wave_name)
        tmp_dir = os.path.join(results_dir, f".tmp-{wave_name}")
        import shutil

        if os.path.isdir(tmp_dir):
            shutil.rmtree(tmp_dir)  # leftover from a crashed run
        if os.path.isdir(wave_dir):
            # renamed but un-manifested (crash between rename and
            # manifest write): the shards are pending, so redo the wave
            shutil.rmtree(wave_dir)
        skip = frozenset(set(range(len(paths))) - set(wave))
        if ds_builder is not None:
            ds = ds_builder(paths, skip)
        else:
            ds = build_extract_ds(
                paths,
                engine_cls=engine_cls,
                engine_kwargs=engine_kwargs,
                concurrency=concurrency,
                batch_size=batch_size,
                skip_shards=skip,
            )
        t0 = time.perf_counter()
        # The writer is a map stage that FUSES into the extraction task:
        # each task writes its own (plain, non-hive) parquet file and
        # returns only a tiny per-shard stats row — one execution total,
        # no separate Write operator, no second read-back pass for the
        # manifest. (Hive partition_cols measured ~2× task time;
        # deriving the manifest by re-reading the output cost one more
        # full Dataset execution.) Crash safety is unchanged: stats are
        # returned only after the task's file is written and closed;
        # task retries rewrite the same deterministic filename; the
        # manifest is written only after the whole wave dir is renamed
        # into place.
        os.makedirs(tmp_dir, exist_ok=True)
        partials = ds.map_batches(
            _ShardWriter(tmp_dir, fsync_data=fsync_data), batch_format="pyarrow"
        ).to_pandas()
        os.replace(tmp_dir, wave_dir)
        fsync_dir(wave_dir)     # entries created while it was .tmp-
        fsync_dir(results_dir)  # the rename itself
        wall = time.perf_counter() - t0
        _manifest_from_partials(out_dir, wave_dir, paths, wall, partials, wave)
    total_wall = time.perf_counter() - t_start
    man = load_manifest(out_dir)
    return {
        "shards": len(paths),
        "waves": waves,
        "rows": sum(r["n_rows"] for r in man.values()),
        "n_success": sum(r["n_success"] for r in man.values()),
        "n_error": sum(r["n_error"] for r in man.values()),
        "wall_s": total_wall,
        "out_dir": out_dir,
    }


def select_result_files(out_dir: str, man: dict) -> list[str]:
    """File-level manifest pruning: the files of ``man``'s shards, shard
    by shard (``_shard_file_lists``). Shards pruned from ``man`` (by id
    or row range) never reach the read plan — at 100 TB the plan opens
    only the files it needs."""
    lists = _shard_file_lists(out_dir, man)
    return [f for sid in sorted(lists) for f in lists[sid]]


def read_results(
    out_dir: str,
    columns: list[str] | None = None,
    shard_ids=None,
    row_range: tuple[int, int] | None = None,
) -> rd.Dataset:
    """Read back the engine's results authoritatively via the manifest.

    Each shard is read only from the files its manifest record
    authorizes (``_shard_file_lists``), so stale data from
    crashed/partially-manifested waves is never surfaced (the analog of
    the reference reading results only through its committed SQLite
    table, HistoryManager.cpp:153-229). A ``.parquet`` in a manifested
    wave dir that does not follow the writer's naming contract is
    refused with ``ValueError``.

    Predicate-pushed manifest pruning (the reference's indexed
    time-range scans, HistoryManager.cpp:153-229, generalized):

    - ``shard_ids``: read only these shards — pruned at the FILE list,
      before the read plan is built;
    - ``row_range``: inclusive ``(lo, hi)`` on ``row_idx`` — shards
      whose manifest ``[row_min, row_max]`` misses the range are
      file-pruned; the exact row filter on the survivors runs inside
      the parquet scan (Arrow's scanner ``filter``).

    Read tasks: the surviving files are dealt into ``k = clamp(CPUs, 1,
    #files)`` groups, largest file first into the group with the fewest
    bytes (``_read_groups``), one task per group streaming its files
    through ``_store_batches``. Not one task per file: on a store of
    small files per-task overhead, not decode, sets a read's wall. With
    one block asked per task Ray never re-splits the read, so a next
    ``map_batches(f)`` fuses into it (``ReadResults->MapBatches(f)``).
    The plan schema (the first file's, projected) travels with the
    tasks, so ``schema()`` and ``to_arrow_refs()`` never run the read
    just to learn it.
    """
    man = load_manifest(out_dir)
    if shard_ids is not None:
        keep_ids = set(int(s) for s in shard_ids)
        man = {sid: rec for sid, rec in man.items() if sid in keep_ids}
    row_filter = None
    if row_range is not None:
        lo, hi = row_range
        man = {
            sid: rec
            for sid, rec in man.items()
            if rec["n_rows"] > 0 and rec["row_max"] >= lo and rec["row_min"] <= hi
        }
        row_filter = (pads.field("row_idx") >= lo) & (pads.field("row_idx") <= hi)
    # via the module global: perfbench's store trace wraps it
    files = select_result_files(out_dir, man)
    if not files:
        # a fully-filtered run manifests every shard with zero rows and
        # writes no parquet at all — an empty dataset, not an error
        return rd.from_items([])
    schema = pads.dataset(files[0], format="parquet").scanner(columns=columns).projected_schema
    groups = _read_groups(files, cluster_cpus())
    return rd.read_datasource(
        _ResultsDatasource(groups, columns, row_filter, schema),
        override_num_blocks=len(groups),
    )


def _read_groups(files: list, cpus: int, size=os.path.getsize) -> list[list]:
    """THE read-grouping rule (reasons in ``read_results``): ``k =
    clamp(cpus, 1, #files)`` groups, files dealt largest first into the
    group with the fewest bytes (on a tie, fewer files: none stays
    empty), each group in the given file order."""
    k = max(1, min(cpus, len(files)))
    sizes = [size(f) for f in files]
    groups: list[list[int]] = [[] for _ in range(k)]
    heap = [(0, 0, i) for i in range(k)]
    for j in sorted(range(len(files)), key=lambda j: -sizes[j]):
        load, n, i = heapq.heappop(heap)
        groups[i].append(j)
        heapq.heappush(heap, (load + sizes[j], n + 1, i))
    return [[files[j] for j in sorted(g)] for g in groups]


class _ResultsDatasource(Datasource):
    """One read task per group, whatever parallelism Ray asks for."""

    def __init__(self, groups: list, columns, row_filter, schema: pa.Schema):
        self._groups = groups
        self._scan = (columns, row_filter)
        self._schema = schema

    def get_name(self) -> str:
        return "Results"

    def estimate_inmemory_data_size(self) -> None:
        return None

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        return [
            ReadTask(
                lambda files=files, scan=self._scan: _store_batches(files, *scan),
                BlockMetadata(None, None, None, files),
                schema=self._schema,
            )
            for files in self._groups
        ]


def _store_batches(files: list, columns=None, row_filter=None, batch_size: int = 131_072):
    """THE store-file reader (read tasks and ``_CompactShard``):
    ``files``' rows in file order as tables of ≤ ``batch_size`` rows,
    projected and filtered in Arrow's scanner (``row_filter`` may name
    columns outside ``columns``)."""
    scan = pads.dataset(files, format="parquet").to_batches(
        columns=columns, filter=row_filter, batch_size=batch_size
    )
    return (pa.Table.from_batches([b]) for b in scan)


def _newest_shards(man: dict, limit: int, count_key: str) -> list[tuple[int, int]]:
    """THE newest-first manifest walk (recency = lineage order): the
    minimal suffix of newest shards whose ``count_key`` counts cover
    ``limit``, as ``(shard_id, take)`` pairs, newest first. ``take`` is
    the part of the shard's count inside the budget — the whole count
    for every shard but the last, which may be cut."""
    out: list[tuple[int, int]] = []
    acc = 0
    for sid in sorted(man, reverse=True):
        if acc >= limit:
            break
        n = man[sid][count_key]
        out.append((sid, min(n, limit - acc)))
        acc += n
    return out


def preload_recent(
    out_dir: str, limit: int = 50
) -> "dict[str, dict]":
    """O4: preload the most recent ``limit`` successful results into a
    driver-side memory cache keyed by content_hash — the reference's
    startup warm cache (HistoryManager::loadHistory,
    src/managers/HistoryManager.cpp:84-115: ``ORDER BY timestamp DESC
    LIMIT max_history`` into m_memoryHistory, used to accelerate cache
    hits; image payloads deliberately NOT loaded).

    Recency here is the lineage order (shard_id, row_idx) — the engine's
    monotone processing order (the timestamp analog). The distributed
    plan prunes columns (payloads never loaded, like the reference) AND
    files: the manifest's per-shard success counts identify the minimal
    suffix of newest shards that covers ``limit`` successes
    (``_newest_shards``), so a billion-row store opens only its tail.
    Each block keeps its own newest ``limit`` successes and the driver
    merges those partials — no sort shuffle, driver state bounded by
    ``limit`` rows per tail block."""
    man = load_manifest(out_dir)
    tail = _newest_shards(man, limit, "n_success")
    if not sum(take for _, take in tail):
        # fresh store, or every manifested shard fully filtered: there
        # are no parquet files to read back (read_results would return
        # a schema-less empty dataset whose collect has no columns)
        return {}
    ds = read_results(
        out_dir,
        columns=["url", "success", "content_hash", "extracted_text",
                 "shard_id", "row_idx"],
        shard_ids=[sid for sid, _ in tail],
    )
    newest_first = [("shard_id", "descending"), ("row_idx", "descending")]

    def newest(t: pa.Table) -> pa.Table:
        return t.filter(t["success"]).sort_by(newest_first).slice(0, limit)

    parts = ds.map_batches(newest, batch_format="pyarrow", batch_size=None)
    recent = (
        pa.concat_tables(parts.iter_batches(batch_size=None, batch_format="pyarrow"))
        .sort_by(newest_first)
        .slice(0, limit)
    )
    out: dict[str, dict] = {}
    for h, url, text in zip(
        recent["content_hash"].to_pylist(),
        recent["url"].to_pylist(),
        recent["extracted_text"].to_pylist(),
    ):
        if h and h not in out:
            out[h] = {"url": url, "extracted_text": text}
    return out


class _CompactShard:
    """THE store rewrite kernel, shared by compaction and retention: one
    work item (shard, its file list, ``row_from``) in → that shard's
    rows with ``row_idx >= row_from`` rewritten as ≤ ``rows_per_file``-
    row files in the new wave dir, stats rows out. Compaction passes
    ``row_from`` 0 (every row); retention passes its boundary shard's
    cutoff. Streams the input files through ``_store_batches``, so a
    multi-GB shard never materializes whole in the task; writing goes through
    ``_ShardWriter`` so names, stats and checksums follow the exact same
    contract as the original write."""

    def __init__(self, tmp_dir: str, rows_per_file: int):
        self.tmp_dir = tmp_dir
        self.rows_per_file = rows_per_file

    def __call__(self, batch: pa.Table) -> pa.Table:
        writer = _ShardWriter(self.tmp_dir)
        stats: list[pa.Table] = []
        for item in batch.to_pylist():
            buf: list = []
            n = 0
            row_filter = pads.field("row_idx") >= item["row_from"]
            for t in _store_batches(item["files"], None, row_filter, self.rows_per_file):
                # split at the exact boundary so no output file (and
                # no flush) ever exceeds rows_per_file rows — a
                # tail-of-file row group arriving on a nearly-full
                # buffer would otherwise double the bound
                while t.num_rows:
                    take = min(t.num_rows, self.rows_per_file - n)
                    buf.append(t.slice(0, take))
                    n += take
                    t = t.slice(take)
                    if n >= self.rows_per_file:
                        stats.append(writer(pa.concat_tables(buf)))
                        buf, n = [], 0
            if n:
                stats.append(writer(pa.concat_tables(buf)))
        if not stats:
            return _empty_stats_table()
        return pa.concat_tables(stats)


def _rewrite_shards(
    tmp_dir: str, items: list[dict], rows_per_file: int, carried: list[dict]
):
    """Run ``_CompactShard`` over ``items`` ({shard_id, files,
    row_from}), one task per shard — a shard's files hold disjoint row
    ranges by construction, so no row ever moves between workers.
    Returns the rewrite's per-shard stats rows plus ``carried`` (stats
    rows of shards kept without a rewrite) as one pandas frame."""
    tables = [pa.Table.from_pylist(carried, schema=_empty_stats_table().schema)]
    if items:
        ds = rd.from_items(items, override_num_blocks=len(items)).map_batches(
            _CompactShard(tmp_dir, rows_per_file), batch_format="pyarrow"
        )
        # iter_batches, not to_arrow_refs: on a lazy Dataset the latter
        # fetches the schema by running the plan's first block again, and
        # here that block is a shard rewrite
        tables += ds.iter_batches(batch_size=None, batch_format="pyarrow")
    return pa.concat_tables(tables).to_pandas()


def _shard_file_lists(out_dir: str, man: dict) -> dict[int, list[str]]:
    """THE result-file lister: every store read and rewrite touches
    exactly the files this returns. Per shard of ``man``, the parquet
    files in the wave dir its record names, each sorted by first-row
    offset. Wave dirs are re-rooted under the caller's absolute
    ``out_dir`` (wave names are unique within it): robust to a
    relocated store, and Ray workers run with a different cwd. A
    ``.parquet`` whose name does not parse is foreign — the writer owns
    the naming contract — and is refused, not read or collected; so is
    a missing wave dir (every record's wave dir is created before the
    record is written)."""
    results_dir = os.path.join(os.path.abspath(out_dir), "results")
    by_shard: dict[int, list[tuple[int, str]]] = {}
    for wd_name in sorted({os.path.basename(r["wave_dir"]) for r in man.values()}):
        wd = os.path.join(results_dir, wd_name)
        for f in sorted(os.listdir(wd)):
            if not f.endswith(".parquet"):
                continue
            m = _PART_FILE_RE.match(f)
            if m is None:
                raise ValueError(
                    f"foreign file in results store: {os.path.join(wd, f)!r} "
                    "does not follow the part-s<shard>-r<row>.parquet naming "
                    "contract; move it out of the store"
                )
            sid = int(m.group(1))
            if sid in man and os.path.basename(man[sid]["wave_dir"]) == wd_name:
                by_shard.setdefault(sid, []).append(
                    (int(m.group(2)), os.path.join(wd, f))
                )
    return {
        sid: [p for _, p in sorted(pairs)] for sid, pairs in by_shard.items()
    }


def compact_results(out_dir: str, rows_per_file: int = 100_000) -> dict:
    """Compact the results store: rewrite every manifested shard into a
    fresh ``compact-NNNNNN`` wave directory with one parquet file per
    shard per ``rows_per_file`` rows (one file per shard at typical
    shard sizes), atomically repoint the manifest, then drop the wave
    directories nothing references anymore.

    Why: a long-running store accumulates one file per (shard, task
    batch) across many waves — at 100 TB that is millions of small
    files whose open/footer cost dominates ranged reads. Single-shard
    files keep the ``part-s<sid>-r<row>`` naming contract, so
    ``read_results``' manifest/file pruning keeps working unchanged.

    Plan (round 4: NO shuffle — the previous lineage-sort plan paid a
    full all-to-all of every column, measured 3× the ingest cost at
    sf0.1): a shard's files hold disjoint row ranges by construction
    (one task per row group, deterministic names), so compaction is
    embarrassingly parallel — ONE task per shard streams its file list
    and rewrites it locally (``_CompactShard``), never moving a row
    between workers. Then: rename the wave into place → rewrite ALL
    shard records (zero-row shards repoint too, so no record
    references a dead directory) → delete unreferenced wave dirs.
    Crash-safe under the SINGLE-WRITER contract (store mutations —
    run_extract, compaction, retention — are exclusive, enforced by
    ``store_writer_lock``, like writes to the reference's SQLite store;
    readers holding a pre-rewrite manifest must re-load after a
    rewrite, since old wave dirs are reclaimed): temp dirs are ignored
    by readers, record rewrites are per-shard atomic, cleanup runs only
    after all records point at the new wave, and any orphan left by a
    previous crash — a ``.tmp-*`` dir, or a renamed wave no manifest
    record references (crash between rename and record rewrite) — is
    garbage-collected on entry (``_begin_rewrite``/``_finish_rewrite``,
    shared with retention).
    """
    if rows_per_file < 1:
        # iter_batches(batch_size=0) silently yields NOTHING — without
        # this guard every shard would "compact" to zero rows and the
        # old wave dirs holding the real data would be GC'd
        raise ValueError(f"rows_per_file must be >= 1 (got {rows_per_file})")
    out_dir = os.path.abspath(out_dir)
    with store_writer_lock(out_dir):
        man = load_manifest(out_dir)
        if not man:
            return {"compacted_shards": 0, "files_before": 0, "files_after": 0}
        files = _shard_file_lists(out_dir, man)
        tmp_dir, wave_dir, files_before, old_dirs = _begin_rewrite(out_dir, man)
        items = [
            {"shard_id": sid, "files": files[sid], "row_from": 0}
            for sid in sorted(man)
            if files.get(sid)  # zero-row shards: record-only repoint below
        ]
        partials = _rewrite_shards(tmp_dir, items, rows_per_file, carried=[])
        return _finish_rewrite(
            out_dir, man, tmp_dir, wave_dir, partials, files_before, old_dirs,
            # compaction must be bit-preserving: every shard's rewritten
            # row count AND content checksum must match its manifest
            # record, or the commit (and the old dirs' GC) is refused
            expected_rows={sid: rec["n_rows"] for sid, rec in man.items()},
            expect_hashes=True,
        )


def retain_recent(out_dir: str, limit: int) -> dict:
    """O3 top-N retention as a STORE operation (the reference's
    ``DELETE WHERE id NOT IN (... ORDER BY ts DESC LIMIT N)``,
    src/managers/HistoryManager.cpp:330-363, made partition-granular):
    keep only the newest ``limit`` result rows by lineage order
    (shard_id, row_idx) — same atomic wave-rewrite machinery as
    ``compact_results``, but whole-kept shards are hard-linked into
    the new wave rather than rewritten (see ``_retain_recent_locked``).

    The manifest picks the cut without reading data: walk shards
    newest-first accumulating ``n_rows`` (``_newest_shards``); whole
    shards inside the budget are kept outright, the one boundary shard
    is row-filtered, everything older is dropped. Dropped shards KEEP a
    (zero-row) manifest record — resume semantics are 'processed,
    retained zero rows', never 'pending', exactly like the reference
    not re-OCRing purged history."""
    if limit < 1:
        raise ValueError(f"retention limit must be >= 1 (got {limit})")
    out_dir = os.path.abspath(out_dir)
    with store_writer_lock(out_dir):
        return _retain_recent_locked(out_dir, limit)


def _retain_recent_locked(out_dir: str, limit: int) -> dict:
    """Link-don't-rewrite (round 4): whole-kept shards' files are
    HARD-LINKED into the new wave byte-unchanged (O(#files), zero data
    movement — copy2 fallback on filesystems without links) with their
    stats carried straight from the manifest; only the ONE boundary
    shard goes through the rewrite kernel (``_CompactShard``, from its
    cutoff row on). Retention keeping 90% of a 100 TB store therefore
    costs one shard's rewrite plus directory operations, not a rewrite
    of 90 TB. Crash-safety is the shared
    ``_begin_rewrite``/``_finish_rewrite`` contract; linked inodes
    survive the old wave dirs' GC by construction."""
    import shutil

    import numpy as np

    man = load_manifest(out_dir)
    if not man:
        return {"retained_rows": 0, "dropped_rows": 0}
    total = sum(rec["n_rows"] for rec in man.values())
    if limit >= total:
        # keeping everything: mutating the store (re-linking every file
        # into a new wave, rewriting every manifest record, GC'ing the
        # old dirs) would be a pure data no-op that still churns O(#files)
        # metadata and walks the rewrite's crash windows for nothing
        return {"retained_rows": total, "dropped_rows": 0}
    # loss gate: kept-whole shards must re-appear at full size, the
    # boundary shard at exactly its keep count, dropped shards at zero
    expected = {sid: 0 for sid in man}
    expected.update(_newest_shards(man, limit, "n_rows"))
    files = _shard_file_lists(out_dir, man)
    tmp_dir, wave_dir, files_before, old_dirs = _begin_rewrite(out_dir, man)
    linked: list[dict] = []
    boundary: list[dict] = []
    for sid, keep in expected.items():
        rec = man[sid]
        if keep == rec["n_rows"]:
            for f in files.get(sid, []):
                dst = os.path.join(tmp_dir, os.path.basename(f))
                try:
                    os.link(f, dst)
                except OSError as e:
                    # anything outside the no-link set (e.g. FileExistsError
                    # from a basename collision) must propagate, not be
                    # papered over by a silent copy2 overwrite
                    if e.errno not in _NO_LINK_ERRNOS:
                        raise
                    shutil.copy2(f, dst)
            if keep:
                # stats carried from the manifest record, one value per
                # _STATS_COLUMNS — the single schema every stats producer
                # shares, so a new stat column fails loudly here instead
                # of silently zero-filling whole-kept shards' records
                linked.append({k: rec[k] for k in _STATS_COLUMNS})
        elif keep:
            # the boundary shard: its newest ``keep`` rows by row_idx,
            # cut at a row_idx read from its own files in the driver
            # (one shard, 8 B/row)
            idx = pq.read_table(files[sid], columns=["row_idx"])["row_idx"].to_numpy()
            cutoff = int(np.partition(idx, len(idx) - keep)[len(idx) - keep])
            boundary.append({"shard_id": sid, "files": files[sid], "row_from": cutoff})
    # compaction's default per-file row bound
    partials = _rewrite_shards(tmp_dir, boundary, 100_000, carried=linked)
    summary = _finish_rewrite(
        out_dir, man, tmp_dir, wave_dir, partials, files_before, old_dirs,
        expected_rows=expected,
    )
    return {
        "retained_rows": limit,
        "dropped_rows": total - limit,
        **{k: v for k, v in summary.items() if k != "compacted_shards"},
    }


def _begin_rewrite(out_dir: str, man: dict) -> tuple[str, str, int, set[str]]:
    """Entry half of an atomic store rewrite: garbage-collect crash
    orphans, count files, create the next ``.tmp-compact-NNNNNN`` dir.
    Returns (tmp_dir, wave_dir, files_before, old_dirs)."""
    import re
    import shutil

    results_dir = os.path.join(out_dir, "results")
    old_dirs = {
        os.path.join(results_dir, os.path.basename(rec["wave_dir"]))
        for rec in man.values()
    }
    # the sequence number is taken BEFORE garbage collection so a name
    # is never reused, even one only a crashed rewrite ever created
    seq = 1 + max(
        (
            int(m.group(1))
            for d in os.listdir(results_dir)
            if (m := re.match(r"(?:\.tmp-)?compact-(\d+)$", d))
        ),
        default=0,
    )
    # GC: reclaim crash leftovers BEFORE measuring/writing — any dir
    # the manifest doesn't reference holds no committed rows (a crashed
    # rewrite's rename target, or an interrupted run_extract wave whose
    # shards are still pending and will be redone)
    for d in os.listdir(results_dir):
        full = os.path.join(results_dir, d)
        if os.path.isdir(full) and full not in old_dirs:
            shutil.rmtree(full, ignore_errors=True)
    files_before = sum(
        sum(1 for f in os.listdir(d) if f.endswith(".parquet"))
        for d in old_dirs
        if os.path.isdir(d)
    )
    wave_name = f"compact-{seq:06d}"
    tmp_dir = os.path.join(results_dir, f".tmp-{wave_name}")
    wave_dir = os.path.join(results_dir, wave_name)
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir)
    return tmp_dir, wave_dir, files_before, old_dirs


def _finish_rewrite(
    out_dir: str, man: dict, tmp_dir: str, wave_dir: str, partials,
    files_before: int, old_dirs: set[str],
    expected_rows: dict[int, int] | None = None,
    expect_hashes: bool = False,
) -> dict:
    """Commit half of an atomic store rewrite: reconcile the rewritten
    rows against what the manifest says they should be, rename the wave
    into place, repoint EVERY manifest record (shards absent from
    ``partials`` get zero-row records — no record may reference a dead
    directory), then delete unreferenced wave dirs.

    ``expected_rows`` (sid → row count this rewrite must have produced)
    is the loss gate: a shard whose source files went missing or
    dropped rows mid-rewrite would otherwise be committed small and its
    only remaining copy GC'd. On mismatch the rewrite ABORTS before the
    rename — manifest and source wave dirs untouched, the ``.tmp-`` dir
    reclaimed by the next rewrite's entry GC. ``expect_hashes``
    additionally requires the per-shard content checksum to survive the
    rewrite (compaction-style rewrites that must be bit-preserving)."""
    import shutil

    if expected_rows is not None:
        got = _shard_records(partials)
        bad = []
        for sid, want in sorted(expected_rows.items()):
            n = got[sid]["n_rows"] if sid in got else 0
            if n != want:
                bad.append(f"shard {sid}: rewrote {n} rows, expected {want}")
            elif expect_hashes and want and got[sid]["hash_xor"] != man[sid]["hash_xor"]:
                bad.append(f"shard {sid}: content checksum changed across rewrite")
        if bad:
            raise RuntimeError(
                f"store rewrite of {out_dir!r} aborted before commit — the "
                "rewritten data does not reconcile with the manifest "
                "(store is unmodified; source wave dirs untouched): "
                + "; ".join(bad[:5])
                + (f"; … {len(bad) - 5} more shards" if len(bad) > 5 else "")
            )

    results_dir = os.path.join(out_dir, "results")
    os.replace(tmp_dir, wave_dir)
    fsync_dir(wave_dir)     # the new wave's directory entries
    fsync_dir(results_dir)  # the rename itself
    shard_paths = {sid: rec["path"] for sid, rec in man.items()}
    _manifest_from_partials(
        out_dir, wave_dir, shard_paths, 0.0, partials, sorted(man)
    )
    # cleanup: only after every record points at the new wave
    new_man = load_manifest(out_dir)
    live = {
        os.path.join(results_dir, os.path.basename(rec["wave_dir"]))
        for rec in new_man.values()
    }
    for d in old_dirs - live:
        shutil.rmtree(d, ignore_errors=True)
    return {
        "compacted_shards": len(man),
        "files_before": files_before,
        "files_after": sum(
            1 for f in os.listdir(wave_dir) if f.endswith(".parquet")
        ),
    }


class _ShardWriter:
    """Fused write+stats stage: persist the batch as one parquet file,
    emit one stats row per shard in the batch (a few bytes — the row
    data itself never re-enters the pipeline).

    ``fsync_data=True`` additionally fsyncs every data file before its
    stats row is emitted, extending the durable-before-record ordering
    from the (tested) kill-9 crash model to machine power loss — the
    manifest record is always fsync'd, so without this a power loss
    could persist a record whose data never left the page cache.
    Opt-in: measured ~10% on the flagship wall at sf0.1 (80 × ~12 MB
    fsyncs contending the device queue mid-write), and process-crash
    resume needs none of it."""

    def __init__(self, out_dir: str, fsync_data: bool = False):
        self.out_dir = out_dir
        self.fsync_data = fsync_data

    def __call__(self, t: pa.Table) -> pa.Table:
        import os as _os

        import numpy as np
        import pandas as pd

        if t.num_rows:
            _os.makedirs(self.out_dir, exist_ok=True)
            # one file per shard RUN in the batch: run_extract batches
            # are single-shard (one work item per task), but a
            # ``ds_builder`` chain may hand over blocks spanning shards,
            # and a file must never mix shards (the reader's filename
            # pruning parses one shard id per file)
            sids = t["shard_id"].to_numpy(zero_copy_only=False)
            change = np.nonzero(np.diff(sids))[0] + 1
            bounds = [0, *change.tolist(), len(sids)]
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                sub = t.slice(lo, hi - lo)
                sid0 = int(sids[lo])
                r0 = sub["row_idx"][0].as_py()
                # deterministic unique name per (shard, first-row):
                # task retries overwrite their own partial file, never
                # a peer's
                name = f"part-s{sid0:06d}-r{r0:09d}.parquet"
                full = _os.path.join(self.out_dir, name)
                pq.write_table(sub, full)
                if self.fsync_data:
                    fd = _os.open(full, _os.O_RDONLY)
                    try:
                        _os.fsync(fd)
                    finally:
                        _os.close(fd)
        df = pd.DataFrame(
            {
                "shard_id": t["shard_id"].to_numpy(zero_copy_only=False),
                "success": t["success"].to_numpy(zero_copy_only=False),
                "processing_ms": t["processing_ms"].to_numpy(zero_copy_only=False),
                "content_hash": t["content_hash"].to_pylist(),
                "row_idx": t["row_idx"].to_numpy(zero_copy_only=False),
            }
        )
        rows = []
        for sid, g in df.groupby("shard_id"):
            rows.append(
                {
                    "shard_id": int(sid),
                    "n_rows": len(g),
                    "n_success": int(g["success"].sum()),
                    "processing_ms": int(g["processing_ms"].sum()),
                    "hash_xor": xor_hex_digests(g["content_hash"]),
                    "row_min": int(g["row_idx"].min()),
                    "row_max": int(g["row_idx"].max()),
                }
            )
        return pa.Table.from_pylist(rows) if rows else _empty_stats_table()


# the ONE per-shard stats schema every producer shares (_ShardWriter
# rows, _CompactShard's empty path, retention's manifest-carried rows)
_STATS_COLUMNS = (
    "shard_id", "n_rows", "n_success", "processing_ms",
    "hash_xor", "row_min", "row_max",
)


def _empty_stats_table() -> pa.Table:
    """Typed empty per-shard stats table — the one schema every writer
    stage (``_ShardWriter``, ``_CompactShard``) must emit on the
    no-rows path, so ``pa.concat_tables`` / ``_manifest_from_partials``
    never see a schema mismatch from a stale inline copy."""
    return pa.table(
        {
            c: pa.array([], pa.string() if c == "hash_xor" else pa.int64())
            for c in _STATS_COLUMNS
        }
    )


def _manifest_from_partials(
    out_dir: str, wave_dir: str, shard_paths: list[str], wall_s: float,
    partials, wave_shard_ids: list[int],
) -> None:
    """Combine the writer's per-batch stats rows into one manifest
    record per shard (SURVEY.md §7.4 hard part 4: records are written
    only after the wave directory is durably renamed into place).

    Shards in the wave that produced NO rows (zero-row parquet files)
    still get a zero record — otherwise resume would treat them as
    pending forever and never converge."""
    recs = _shard_records(partials)
    zero = {
        "n_rows": 0, "n_success": 0, "n_error": 0, "processing_ms": 0,
        "hash_xor": f"{0:032x}", "row_min": -1, "row_max": -1,
    }
    for sid in sorted(set(wave_shard_ids) | set(recs)):
        write_shard_record(out_dir, {
            "shard_id": int(sid),
            **recs.get(sid, zero),
            "path": shard_paths[int(sid)],
            "wave_dir": wave_dir,
            "wave_wall_s": round(wall_s, 3),
        })


def _shard_records(partials) -> dict[int, dict]:
    """THE per-shard combine of writer stats rows (``_STATS_COLUMNS``,
    any number per shard): row/success/error counts and
    ``processing_ms`` summed, content hashes XOR-combined, row bounds
    min/max. Feeds both the manifest records and the rewrite loss
    gate."""
    out: dict[int, dict] = {}
    if partials.empty:
        return out
    for sid, g in partials.groupby("shard_id"):
        n_rows, n_success = int(g["n_rows"].sum()), int(g["n_success"].sum())
        out[int(sid)] = {
            "shard_id": int(sid),
            "n_rows": n_rows,
            "n_success": n_success,
            "n_error": n_rows - n_success,
            "processing_ms": int(g["processing_ms"].sum()),
            "hash_xor": xor_hex_digests(g["hash_xor"]),
            "row_min": int(g["row_min"].min()),
            "row_max": int(g["row_max"].max()),
        }
    return out
