"""Per-partition lineage manifest + resume (north_rule checkpointing).

The Ray-native generalization of the reference's de-facto resume
mechanism — its content-hash cache means a re-run recomputes nothing
already succeeded (src/ui/MainWindow.cpp:1421-1439,
src/managers/HistoryManager.cpp:400-417) — made partition-granular:

- one JSON manifest record per completed input shard, holding lineage
  (shard id, path, row count/range) and per-stage metrics (success /
  error counts, processing-time sum, an order-insensitive XOR checksum
  of the row content hashes);
- written atomically (temp file + ``os.replace``) only AFTER the shard's
  results are durable on disk, so a crashed run never records a partial
  shard as complete (SURVEY.md §7.4 hard part 4);
- on resume, completed shard ids are anti-joined (driver-side set — the
  manifest is tiny) against the shard work list before the read, so
  finished partitions are never reopened.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "manifest")


def shard_record_path(out_dir: str, shard_id: int) -> str:
    return os.path.join(manifest_dir(out_dir), f"shard-{shard_id:06d}.json")


def write_shard_record(out_dir: str, record: dict) -> None:
    """Atomic write: temp file in the same directory, then rename."""
    d = manifest_dir(out_dir)
    os.makedirs(d, exist_ok=True)
    final = shard_record_path(out_dir, record["shard_id"])
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(record, f, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, final)
        # persist the record's directory entry too: the record file is
        # fsync'd above, but a power loss can still drop the rename if
        # the directory itself never reaches disk
        fsync_dir(d)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def fsync_dir(path: str) -> None:
    """fsync a DIRECTORY so its entries (new files, renames) survive
    power loss — file fsync alone does not persist the dirent. Best
    effort: some filesystems refuse O_DIRECTORY fsync (suppressed; the
    kill-9 crash model needs no fsync at all, this hardens the
    power-loss one)."""
    with contextlib.suppress(OSError):
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def load_manifest(out_dir: str) -> dict[int, dict]:
    d = manifest_dir(out_dir)
    out: dict[int, dict] = {}
    if not os.path.isdir(d):
        return out
    for f in sorted(os.listdir(d)):
        if f.startswith("shard-") and f.endswith(".json"):
            with open(os.path.join(d, f)) as fh:
                rec = json.load(fh)
            out[int(rec["shard_id"])] = rec
    return out


def completed_shards(out_dir: str) -> set[int]:
    return set(load_manifest(out_dir))


def xor_hex_digests(hex_digests) -> str:
    """Order-insensitive combine of hex digests (XOR) → shard checksum.

    Empty-string digests (empty-payload rows, see functions/hashing.py)
    are skipped; an all-empty shard yields 32 zeros.
    """
    acc = 0
    for h in hex_digests:
        if h:
            acc ^= int(h, 16)
    return f"{acc:032x}"
