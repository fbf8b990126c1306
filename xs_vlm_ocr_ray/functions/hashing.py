"""Content-hash canonicalization (dedup / cache key).

Replicates the semantics of the reference's dedup key
(HistoryManager::computeContentHash, src/managers/HistoryManager.cpp:433-464):
MD5 over ``payload_bytes ∥ prompt ∥ engine_id ∥ (key ∥ value for each
param in sorted key order, excluding api_key / secret_key / access_token
case-insensitively)``, hex-encoded. Empty payload → empty hash (the
reference returns a null hash for a null image → no dedup).

The vectorized form is used inside ``map_batches`` so hashing never
round-trips through Python rows on the driver.
"""

from __future__ import annotations

import hashlib

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

