"""Deterministic stub "online VLM" engine — the actor-pool analog of the
reference's online adapter family (QwenAdapter / GLMAdapter / ... —
SURVEY.md T1, M5-M16).

No network exists in this environment, so the HTTP round-trip is
replaced by a deterministic in-process model: request build (M5) and
response parse (M10) collapse into a pure function of the payload, but
every surrounding behavior is real and tested:

- ``__init__`` is the adapter ``initialize()`` (T1): validates
  api_key/api_host (online adapters refuse to init without them,
  src/adapters/QwenAdapter.cpp:68-97), "loads" the model once per actor;
- payload-validity routing (M1): empty payload → text-only query path
  (legal for VLM engines, src/adapters/QwenAdapter.cpp:503-508), not an
  error;
- prompt defaulting (M4) by payload presence;
- the simulated model emits box-decorated content which is passed
  through the byte-exact normalizer chain (M15 ``normalize_boxed`` +
  M16 trim) — the GLM post-processing path exercised end-to-end;
- per-row timeout (reference: 60 s HTTP timer,
  src/adapters/QwenAdapter.cpp:323-339): a row whose simulated cost
  exceeds ``row_timeout_ms`` yields an in-band ``timeout`` error with
  ``error_kind`` / ``retryable`` columns (M19), never an exception;
- in-band error model throughout (src/adapters/QwenAdapter.cpp:538-545).
"""

from __future__ import annotations

import time

import pyarrow as pa

from ..extract import extract_html
from ..functions.hashing import content_hash_batch
from ..functions.textnorm import normalize_boxed, qt_trim
from ..schema import LINEAGE_COLUMNS
from .config import default_prompt
from .errors import classify_error, is_retryable_error


class StubVlmExtractor:
    """Actor-pool batch kernel with online-adapter semantics."""

    ENGINE_ID = "stub_vlm"
    # deterministic simulated cost: 1 "ms" per 1000 payload bytes
    SIM_BYTES_PER_MS = 1000

    def __init__(
        self,
        prompt: str = "",
        params: dict[str, str] | None = None,
        row_timeout_ms: int = 60_000,
    ):
        self.params = dict(params or {})
        self.prompt = prompt
        self.row_timeout_ms = row_timeout_ms
        # T1 initialize(): online engines validate credentials up front;
        # failure leaves the engine constructed but uninitialized — every
        # row then fails in-band (the reference's isInitialized guard,
        # src/core/ModelAdapter.h:31-38).
        self.init_error = ""
        if not self.params.get("api_key"):
            self.init_error = "not_initialized: missing api_key"
        elif not self.params.get("api_host"):
            self.init_error = "not_initialized: missing api_host"
        # "load the model" once per actor (weights analog): a fixed
        # transform table derived deterministically from the model params.
        self._model_tag = f"[{self.ENGINE_ID}:{self.params.get('temperature', '0')}]"

    # --- the simulated round-trip (request build + HTTP + parse) -----

    def _infer_one(self, payload: bytes | None, prompt: str) -> tuple[bool, str, str, int]:
        """Returns (success, error, text, simulated_ms)."""
        if self.init_error:
            return False, self.init_error, "", 0
        has_payload = payload is not None and len(payload) > 0
        prompt = default_prompt(prompt, has_payload)
        if not has_payload:
            # text-only query path (M1): the model "answers" the prompt.
            raw = f'<|begin_of_box|>": "{self._model_tag} {prompt}",<|end_of_box|>'
            return True, "", qt_trim(normalize_boxed(raw)), 1
        sim_ms = max(1, len(payload) // self.SIM_BYTES_PER_MS)
        if sim_ms > self.row_timeout_ms:
            # the reference kills the request at the timer and reports a
            # timeout error string (QwenAdapter.cpp:341-350)
            return False, f"timeout after {self.row_timeout_ms} ms", "", self.row_timeout_ms
        base = extract_html(payload)
        if not base.success:
            return False, f"parse: upstream {base.error}", "", sim_ms
        # model response arrives box-decorated (GLM-style); normalize
        # byte-exactly (M15+M16)
        raw = f"<|begin_of_box|>{base.full_text}<|end_of_box|>"
        return True, "", qt_trim(normalize_boxed(raw)), sim_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.extract_stage import binary_views

        payloads = binary_views(batch["html"])  # zero-copy Arrow views
        n = len(payloads)
        success = [False] * n
        error = [""] * n
        kinds = [""] * n
        retry = [False] * n
        texts = [""] * n
        ms = [0] * n
        t_wall = time.perf_counter_ns
        for i, p in enumerate(payloads):
            t0 = t_wall()
            ok, err, text, sim_ms = self._infer_one(p, self.prompt)
            success[i] = ok
            error[i] = err
            kinds[i] = classify_error(err)
            retry[i] = is_retryable_error(err)
            texts[i] = text
            # processing time = simulated model latency + real local work
            ms[i] = sim_ms + (t_wall() - t0) // 1_000_000
        hashes = content_hash_batch(payloads, self.prompt, self.ENGINE_ID, self.params)
        cols: dict[str, pa.Array] = {
            "url": batch["url"],
            "extracted_text": pa.array(texts, pa.large_string()),
            "success": pa.array(success, pa.bool_()),
            "error": pa.array(error, pa.string()),
            "error_kind": pa.array(kinds, pa.string()),
            "retryable": pa.array(retry, pa.bool_()),
            "engine": pa.array([self.ENGINE_ID] * n, pa.string()),
            "processing_ms": pa.array(ms, pa.int64()),
            "content_hash": pa.array(hashes, pa.string()),
        }
        for k in LINEAGE_COLUMNS:
            if k in batch.column_names:
                cols[k] = batch[k]
        return pa.table(cols)
