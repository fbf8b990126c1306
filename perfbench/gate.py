"""Correctness gates: a serial reference and the checks every timed
operation must pass.

The reference runs ``extract_html(html).full_text`` serially over the
same pages the program receives — whole documents, never split — so the
pipeline's output, including the giant-doc split path, must match it
byte for byte. Curation counts come from the per-document reference
kernels (``quality_score``, ``token_count_ws``) and an exact text
election, not from the program's vectorized annotate kernel.

A check returns a list of problems, each naming the first offending
urls; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import pyarrow as pa

from xs_vlm_ocr_ray.extract import ExtractResult, extract_html
from xs_vlm_ocr_ray.functions.hashing import content_hash
from xs_vlm_ocr_ray.functions.textstats import quality_score, token_count_ws

ENGINE_ID = "local_html"
# run_training_pipeline defaults
MIN_QUALITY = 0.5
MIN_TOKENS = 20
RECENT_LIMIT = 50
SHOW_URLS = 5

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass
class RefRow:
    shard_id: int
    row_idx: int
    success: bool
    text: str
    content_hash: str


class Reference:
    """Expected per-url output of one corpus, computed serially."""

    def __init__(self, corpus):
        self.rows: dict[str, RefRow] = {}
        for shard_id, t in enumerate(corpus.shard_tables()):
            urls = t["url"].to_pylist()
            for row_idx, (url, html) in enumerate(zip(urls, t["html"].to_pylist())):
                r = extract_html(html)
                self.rows[url] = RefRow(
                    shard_id, row_idx, r.success,
                    r.full_text if r.success else "",
                    content_hash(html, "", ENGINE_ID),
                )
        self.n_success = sum(r.success for r in self.rows.values())
        self.n_error = len(self.rows) - self.n_success

    def digest(self) -> str:
        """sha256 over ``url \\0 extracted_text \\0`` in url order."""
        h = hashlib.sha256()
        for url in sorted(self.rows):
            h.update(url.encode() + b"\0" + self.rows[url].text.encode() + b"\0")
        return h.hexdigest()

    def curate_counts(self) -> dict:
        """What the in-memory curation run must report: rows that
        extract, score ≥ MIN_QUALITY and have ≥ MIN_TOKENS tokens,
        deduplicated on exact extracted text."""
        kept = {
            r.text for r in self.rows.values()
            if r.success
            and quality_score(r.text) >= MIN_QUALITY
            and token_count_ws(r.text) >= MIN_TOKENS
        }
        n = len(self.rows)
        return {"n_input": n, "n_curated": len(kept), "n_dropped": n - len(kept)}

    def urls_where(self, pred) -> set[str]:
        return {u for u, r in self.rows.items() if pred(r)}

    def recent(self, limit: int = RECENT_LIMIT) -> dict:
        """``preload_recent``'s contract: newest ``limit`` successful
        rows by (shard_id, row_idx), first occurrence per content hash."""
        newest = sorted(
            (r.shard_id, r.row_idx, u) for u, r in self.rows.items() if r.success
        )[::-1][:limit]
        out: dict = {}
        for _, _, u in newest:
            r = self.rows[u]
            if r.content_hash and r.content_hash not in out:
                out[r.content_hash] = {"url": u, "extracted_text": r.text}
        return out


def load_digests() -> dict:
    with open(DIGESTS_PATH) as f:
        return json.load(f)


def check_committed(workload: str, seed: int, ref: Reference) -> list[str]:
    """Compare the reference with the digest committed for this
    (workload, seed), when one is committed: the extracted bytes of the
    program must not drift between versions."""
    entry = load_digests().get(workload, {}).get(str(seed))
    if entry is None:
        return []
    got = ref.curate_counts() if workload == "curate" else ref.digest()
    if got != entry:
        return [f"{workload} seed {seed}: output {got} differs from committed {entry}"]
    return []


def _first(urls) -> str:
    return ", ".join(sorted(urls)[:SHOW_URLS])


def check_rows(
    table: pa.Table, ref: Reference, expect_urls: set[str], what: str
) -> list[str]:
    """Rows read back must be exactly ``expect_urls``, once each, with
    the reference text (and success flag, when the column is there)."""
    urls = table["url"].to_pylist()
    texts = table["extracted_text"].to_pylist()
    problems = []
    if len(urls) != len(set(urls)):
        seen, dup = set(), set()
        for u in urls:
            (dup if u in seen else seen).add(u)
        problems.append(f"{what}: duplicate urls {_first(dup)}")
    got = set(urls)
    if got != expect_urls:
        problems.append(
            f"{what}: {len(got)} urls, expected {len(expect_urls)}; "
            f"missing {_first(expect_urls - got)}; unexpected {_first(got - expect_urls)}"
        )
    success = table["success"].to_pylist() if "success" in table.column_names else None
    bad = set()
    for i, (u, t) in enumerate(zip(urls, texts)):
        r = ref.rows.get(u)
        if r is None:
            continue
        if t != r.text or (success is not None and success[i] != r.success):
            bad.add(u)
    if bad:
        problems.append(f"{what}: {len(bad)} rows differ from the serial reference: {_first(bad)}")
    return problems


def check_spans(table: pa.Table, what: str) -> list[str]:
    """Each successful row's spans must assemble to its extracted_text."""
    bad = set()
    for u, ok, text, spans in zip(
        table["url"].to_pylist(),
        table["success"].to_pylist(),
        table["extracted_text"].to_pylist(),
        table["spans"].to_pylist(),
    ):
        if ok and ExtractResult(True, "", [s["text"] for s in spans]).full_text != text:
            bad.add(u)
    return [f"{what}: spans do not assemble to extracted_text: {_first(bad)}"] if bad else []


def check_summary(summary: dict, ref: Reference) -> list[str]:
    got = (summary["rows"], summary["n_success"], summary["n_error"])
    want = (len(ref.rows), ref.n_success, ref.n_error)
    if got != want:
        return [f"run_extract summary rows/n_success/n_error {got}, expected {want}"]
    return []


def check_recent(got: dict, ref: Reference) -> list[str]:
    want = ref.recent()
    if got == want:
        return []
    diff = {h for h in set(got) | set(want) if got.get(h) != want.get(h)}
    urls = {(got.get(h) or want.get(h))["url"] for h in diff}
    return [f"preload_recent: {len(diff)} entries differ: {_first(urls)}"]


def check_curate(counts: dict, ref: Reference) -> list[str]:
    got = {k: counts[k] for k in ("n_input", "n_curated", "n_dropped")}
    want = ref.curate_counts()
    return [] if got == want else [f"curation counts {got}, expected {want}"]
