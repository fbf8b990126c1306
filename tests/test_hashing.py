"""Content-hash canonicalization (reference T6, HistoryManager.cpp:433-464)."""

import hashlib

from xs_vlm_ocr_ray.functions.hashing import (
    canonical_param_bytes,
    content_hash,
    content_hash_batch,
)


def test_empty_payload_empty_hash():
    assert content_hash(b"") == ""
    assert content_hash(None) == ""


def test_param_order_invariance():
    a = content_hash(b"img", "p", "m", {"b": "2", "a": "1"})
    b = content_hash(b"img", "p", "m", {"a": "1", "b": "2"})
    assert a == b


def test_secret_exclusion_case_insensitive():
    base = content_hash(b"img", "p", "m", {"temperature": "0.1"})
    withsecrets = content_hash(
        b"img",
        "p",
        "m",
        {
            "temperature": "0.1",
            "api_key": "K",
            "Secret_Key": "S",
            "ACCESS_TOKEN": "T",
        },
    )
    assert base == withsecrets


def test_layout_matches_reference_concatenation():
    # md5(payload ∥ prompt ∥ engine ∥ key∥value sorted)
    expect = hashlib.md5(b"img" + "p".encode() + "m".encode() + b"a1b2").hexdigest()
    assert content_hash(b"img", "p", "m", {"b": "2", "a": "1"}) == expect


def test_batch_matches_scalar():
    payloads = [b"x", b"", None, b"y"]
    batch = content_hash_batch(payloads, "p", "e", {"k": "v"})
    scalar = [content_hash(p, "p", "e", {"k": "v"}) for p in payloads]
    assert batch == scalar


def test_canonical_param_bytes_empty():
    assert canonical_param_bytes(None) == b""
    assert canonical_param_bytes({"api_key": "x"}) == b""


def test_utf8_hash64_matches_per_value_reference():
    """The vectorized string hash equals its per-byte definition, for any
    chunking or slice offset, with null hashing as empty."""
    import numpy as np
    import pyarrow as pa

    from xs_vlm_ocr_ray.functions.hashing import GOLDEN64, splitmix64, utf8_hash64

    def ref(v: str) -> int:
        b = v.encode("utf-8")
        acc = 0
        for i, byte in enumerate(b):
            acc += int(splitmix64(np.array([i << 8 | byte], np.uint64))[0])
        z = np.array([(acc + len(b) * int(GOLDEN64)) % (1 << 64)], np.uint64)
        return int(splitmix64(z)[0])

    vals = ["alice", "bob", "", None, "ālice表", "ab", "ba", "\U0001f600" * 3]
    want = [ref(v or "") for v in vals]
    arr = pa.array(vals)
    assert utf8_hash64(arr).tolist() == want
    large = arr.cast(pa.large_string())
    assert utf8_hash64(pa.chunked_array([large[:3], large[3:]])).tolist() == want
    assert utf8_hash64(arr.slice(2)).tolist() == want[2:]
    assert len(set(want)) == len(vals) - 1  # None and "" coincide
