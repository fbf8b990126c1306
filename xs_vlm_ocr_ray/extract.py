"""Deterministic HTML main-content extractor (boilerplate strip).

This is the engine's "local engine" — the Ray-native analog of the
reference's Tesseract path (src/adapters/TesseractAdapter.cpp:154-246):
a deterministic, no-model extractor that turns one document payload into
ordered text spans plus an assembled full text. Block classification is
text-density / link-density based (boilerpipe/trafilatura-style, per
BASELINE.json north_star), implemented as a single linear scan over the
tag stream — no backtracking, no recursion, O(bytes).

Invariant: ``extract_html`` is the single source of truth for extracted
text. The golden fixtures are produced by THIS function run serially;
the Ray pipeline runs THIS function inside an actor pool. Byte-identity
(BASELINE.json gate) therefore reduces to determinism of this module,
which the tests assert (same input → same bytes across processes, and
split-extraction == whole-extraction).

Error model: in-band, never raised (reference semantics — errors flow
through the record, src/adapters/QwenAdapter.cpp:538-545).

Kernel: the scan runs in a C port of ``_scan`` (``csrc/scankernel.c``),
built once at first import by ``native.load`` and cached in the package
directory. The C scanner is a character loop over the str's own buffer
that materializes only kept block texts, and it reports split points
directly as utf-8 byte offsets. When it cannot be built, the Python
``_scan`` runs instead, one WARNING is logged, and ``SCAN_KERNEL`` reads
``"python"`` (else ``"native"``). ``_scan`` stays the reference that
tests/test_scan_equivalence.py holds the C scanner to, byte for byte.
"""

from __future__ import annotations

import html as _htmlmod
import re
from dataclasses import dataclass, field

from . import native
from .functions.textnorm import merge_full_text, qt_trim

# Tags that delimit text blocks (flushing the current block).
_BLOCK_TAGS = frozenset(
    """p div section article main h1 h2 h3 h4 h5 h6 li ul ol dl dt dd
    table thead tbody tfoot tr td th caption blockquote pre br hr figure
    figcaption form fieldset address body html nav header footer aside
    details summary""".split()
)
# Container tags whose entire subtree is boilerplate chrome.
_BOILER_TAGS = frozenset("nav header footer aside".split())
# Tags whose raw content is never document text.
_SUPPRESS_TAGS = frozenset(
    "script style head title noscript template svg iframe".split()
)

_TAGNAME_RE = re.compile(r"</?\s*([a-zA-Z][a-zA-Z0-9]*)")
# Fast path: the handful of entities the synthetic corpus uses; anything
# else falls back to html.unescape (both deterministic).
_COMMON_ENT = {
    "&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"',
    "&#39;": "'", "&apos;": "'", "&nbsp;": " ",
}
_COMMON_ENT_RE = re.compile("|".join(_COMMON_ENT))


def _unescape(text: str) -> str:
    if "&" not in text:
        return text
    fast = _COMMON_ENT_RE.sub(lambda m: _COMMON_ENT[m.group(0)], text)
    if "&" in fast and ("&#" in fast or ";" in fast):
        # fall back on the ORIGINAL text: unescaping the fast-path
        # OUTPUT decodes twice — '&amp;lt;' (renders as '&lt;') became
        # '&lt;' then '<', corrupting any page discussing HTML
        return _htmlmod.unescape(text)
    return fast


def _norm(text: str) -> str:
    """Entity-unescape then collapse all whitespace runs to one space.

    ``" ".join(s.split())`` is byte-equivalent to
    ``re.sub(r"\\s+", " ", s).strip()`` (both use the Unicode
    White_Space set) and ~4× faster — this is the hottest kernel of the
    extractor (golden-gated)."""
    return " ".join(_unescape(text).split())


# Classification thresholds (fixed — part of the golden contract).
LINK_DENSITY_MAX = 1 / 3
LONG_BLOCK_CHARS = 200
LONG_BLOCK_LINK_DENSITY_MAX = 2 / 3


def _keep_block(total_chars: int, link_chars: int) -> bool:
    # csrc/scankernel.c keep_block states the same rule
    if total_chars == 0:
        return False
    if link_chars * 3 <= total_chars:
        return True
    return total_chars >= LONG_BLOCK_CHARS and link_chars * 3 <= 2 * total_chars


@dataclass
class ExtractResult:
    success: bool
    error: str
    span_texts: list[str] = field(default_factory=list)

    @property
    def full_text(self) -> str:
        # Final whole-text trim mirrors the reference's unconditional
        # trimmed() on the assembled text (TesseractAdapter.cpp:221).
        return qt_trim(merge_full_text(self.span_texts))


def extract_html(payload: bytes | memoryview | None) -> ExtractResult:
    """One document → ordered content-span texts, errors in-band.

    Accepts any buffer-protocol payload: the Ray stage passes zero-copy
    memoryview slices over the Arrow values buffer, so the ONLY copy of
    a document on the hot path is its one utf-8 decode (``str(buf,
    "utf-8")`` decodes straight from shared memory — no intermediate
    ``bytes`` materialization per row)."""
    if payload is None or len(payload) == 0:
        return ExtractResult(False, "empty_payload")
    try:
        doc = str(payload, "utf-8")
    except UnicodeDecodeError:
        try:
            doc = str(payload, "utf-8", "replace")
        except Exception:  # pragma: no cover - replace cannot fail
            return ExtractResult(False, "decode_error")
    return ExtractResult(True, "", _scan_spans(doc))


def _scan(doc: str, cuts: list[int] | None = None) -> list[str]:
    """Single-pass tag-stream scan → kept block texts in document order.

    This is the engine's only tag-stream state machine. With ``cuts``
    given, it instead appends the position of every block tag reached
    at boiler depth 0 outside suppression and returns no spans; the
    pending block is discarded there rather than normalized. Such a tag
    flushes the pending block and resets ``a_depth``, so the scanner
    state after it equals the state of a fresh scan starting at it —
    the cut points ``split_html`` chooses from.

    This is the reference implementation and the fallback: the
    production path runs its C port (``_scan_spans`` / ``_cut_offsets``,
    see the module docstring), which must match it exactly. It is a
    `str.find`-based pointer walk, byte-equivalent to tokenizing with
    ``<!--.*?(?:-->|$)|<[^>]*>|[^<]+``; only text runs are materialized
    and tag tokens are inspected in place via positional regex match.
    Equivalences preserved exactly (golden-gated):
    - an unterminated ``<`` (no closing ``>``) is skipped as a single
      char and scanning resumes — the regex alternation does the same
      (no token matches at the ``<``, engine advances one position);
    - an unterminated comment suppresses the rest of the document.
    """
    spans: list[str] = []
    buf: list[str] = []          # text pieces of the current block
    linkbuf: list[str] = []      # pieces contributed inside <a>
    boiler_depth = 0
    a_depth = 0
    suppress: str | None = None  # tag name whose close ends suppression

    def flush() -> None:
        if cuts is None:
            text = _norm("".join(buf))
            link = _norm("".join(linkbuf)) if linkbuf else ""
            if boiler_depth == 0 and _keep_block(len(text), len(link)):
                spans.append(text)
        buf.clear()
        linkbuf.clear()

    n = len(doc)
    find = doc.find
    tagname_match = _TAGNAME_RE.match
    pos = 0
    while pos < n:
        lt = find("<", pos)
        if lt == -1:
            lt = n
        if lt > pos:
            tok = doc[pos:lt]
            if suppress is None and not tok.isspace():
                buf.append(tok)
                if a_depth > 0:
                    linkbuf.append(tok)
            pos = lt
            continue
        # pos is at '<'
        if doc.startswith("<!--", pos):
            end = find("-->", pos + 4)
            pos = n if end == -1 else end + 3
            continue
        gt = find(">", pos + 1)
        if gt == -1:
            pos += 1  # regex-equivalent: no token matches here
            continue
        nm = tagname_match(doc, pos)
        if nm is None or nm.end(1) > gt:
            pos = gt + 1
            continue  # doctype, malformed
        name = nm.group(1).lower()
        closing = doc[pos + 1] == "/"
        pos_next = gt + 1
        if suppress is not None:
            if closing and name == suppress:
                suppress = None
            pos = pos_next
            continue
        if name in _SUPPRESS_TAGS:
            if not closing and doc[gt - 1] != "/":
                suppress = name
            pos = pos_next
            continue
        if name in _BLOCK_TAGS:
            if buf:
                flush()
            if cuts is not None and boiler_depth == 0:
                cuts.append(pos)
            # a block tag closes any open <a>. This deliberately diverges
            # from HTML5, whose tree builder reconstructs formatting
            # elements across blocks: it bounds an UNCLOSED anchor's
            # damage to one block (else every later block counts as pure
            # link text and is dropped), and it is what makes every
            # depth-0 block tag a cut point for split_html
            a_depth = 0
            if name in _BOILER_TAGS:
                if closing:
                    if boiler_depth > 0:
                        boiler_depth -= 1
                else:
                    boiler_depth += 1
        elif name == "a":
            if closing:
                if a_depth > 0:
                    a_depth -= 1
            else:
                a_depth += 1
        pos = pos_next
        # other inline tags: transparent
    if buf:
        flush()
    return spans


def split_html(payload: bytes, max_bytes: int) -> list[bytes]:
    """Split a giant document into segments at neutral block boundaries
    such that ``concat(extract(seg).span_texts) == extract(whole).span_texts``.

    Cut points come from the scanner itself: the start of every block tag
    the scanner reaches at boiler depth 0 outside suppression, where its
    state equals that of a fresh scan, so extracting each segment
    independently is exact. A segment is cut at the first such point at
    least ``max_bytes`` utf-8 bytes after its start. This is the skew path
    for giant DOMs (SURVEY.md §4.2 / north_rule): segments become
    separate rows, are extracted by whatever actor gets them, and are
    reassembled in order.

    Falls back to ``[payload]`` when the document is small, is not valid
    utf-8, or has no cut point past the budget (worst case: one oversized
    row — handled by block size caps, never by dropping data).
    """
    if len(payload) <= max_bytes:
        return [payload]
    try:
        doc = payload.decode("utf-8")
    except UnicodeDecodeError:
        return [payload]
    # segment size is measured in encoded BYTES (the contract), not
    # characters: a CJK-heavy doc is ~3 bytes/char
    segs: list[bytes] = []
    start = 0  # byte offset where the current segment starts
    for at in _cut_offsets(doc):
        if at - start >= max_bytes and at > start:
            segs.append(payload[start:at])
            start = at
    segs.append(payload[start:])
    return segs


def _cut_offsets_py(doc: str) -> list[int]:
    """``_scan``'s cut points as utf-8 byte offsets (the C kernel's
    ``cuts`` output, computed in Python)."""
    points: list[int] = []
    _scan(doc, points)
    offsets: list[int] = []
    at = prev = 0  # byte / char offset of the last point seen
    for p in points:
        at += len(doc[prev:p].encode("utf-8"))
        prev = p
        offsets.append(at)
    return offsets


# The scan kernel, chosen once per process: the C port when it builds,
# else the Python reference (native.load has logged why).
_native = native.load("scankernel")
if _native is not None:
    _native.init(_BLOCK_TAGS, _BOILER_TAGS, _SUPPRESS_TAGS, _unescape)
    _scan_spans, _cut_offsets = _native.spans, _native.cuts
    SCAN_KERNEL = "native"
else:
    _scan_spans, _cut_offsets = _scan, _cut_offsets_py
    SCAN_KERNEL = "python"
