"""Content-hash canonicalization (dedup / cache key).

Replicates the semantics of the reference's dedup key
(HistoryManager::computeContentHash, src/managers/HistoryManager.cpp:433-464):
MD5 over ``payload_bytes ∥ prompt ∥ engine_id ∥ (key ∥ value for each
param in sorted key order, excluding api_key / secret_key / access_token
case-insensitively)``, hex-encoded. Empty payload → empty hash (the
reference returns a null hash for a null image → no dedup).

The vectorized form is used inside ``map_batches`` so hashing never
round-trips through Python rows on the driver.

Also here: ``splitmix64`` and ``utf8_hash64``, the stable key hashes the
bucketing stages use, so no result depends on a pandas hash.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_SECRET_KEYS = frozenset({"api_key", "secret_key", "access_token"})


def canonical_param_bytes(params: dict[str, str] | None) -> bytes:
    """Key-sorted ``key∥value`` UTF-8 concatenation, secrets excluded."""
    if not params:
        return b""
    out = bytearray()
    for k in sorted(params):
        if k.lower() in _SECRET_KEYS:
            continue
        out += k.encode("utf-8")
        out += str(params[k]).encode("utf-8")
    return bytes(out)


def content_hash(
    payload: bytes | None,
    prompt: str = "",
    engine_id: str = "",
    params: dict[str, str] | None = None,
) -> str:
    """Canonical MD5 hex digest of one work item; "" for empty payload."""
    if not payload:
        return ""
    h = hashlib.md5()
    h.update(payload)
    h.update(prompt.encode("utf-8"))
    h.update(engine_id.encode("utf-8"))
    h.update(canonical_param_bytes(params))
    return h.hexdigest()


def content_hash_batch(
    payloads: list[bytes | None],
    prompt: str = "",
    engine_id: str = "",
    params: dict[str, str] | None = None,
) -> list[str]:
    """Vectorized (per-batch) content hash: the suffix
    ``prompt∥engine∥params`` is serialized once per batch, then each
    payload is hashed with a copied midstate-free digest loop."""
    suffix = (
        prompt.encode("utf-8") + engine_id.encode("utf-8") + canonical_param_bytes(params)
    )
    out: list[str] = []
    md5 = hashlib.md5
    for p in payloads:
        if not p:
            out.append("")
            continue
        h = md5(p)
        h.update(suffix)
        out.append(h.hexdigest())
    return out


# Stable (process- and version-independent) key hashes for bucketing.
GOLDEN64 = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise over ``uint64`` (wrapping)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def utf8_hash64(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """A process- and version-stable ``uint64`` hash per value of a
    string or binary column (other types hash their string cast; null
    hashes as empty): byte ``b`` at offset ``i`` of a value contributes
    ``splitmix64(i << 8 | b)``, the contributions are summed (wrapping)
    per value by cumsum differences, and the sum is finalized with the
    value's byte length."""
    t = col.type
    if not (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        col = pc.cast(col, pa.large_string())
    arr = pc.fill_null(pc.cast(col, pa.large_binary()), b"")
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], np.int64, count=arr.offset + len(arr) + 1)[arr.offset:]
    data = np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    data = data[offs[0] : offs[-1]]
    offs = offs - offs[0]
    lens = np.diff(offs)
    at = np.arange(len(data), dtype=np.int64) - np.repeat(offs[:-1], lens)
    z = splitmix64((at.astype(np.uint64) << np.uint64(8)) | data.astype(np.uint64))
    cs = np.zeros(len(data) + 1, dtype=np.uint64)
    np.cumsum(z, out=cs[1:])
    return splitmix64(cs[offs[1:]] - cs[offs[:-1]] + lens.astype(np.uint64) * GOLDEN64)
