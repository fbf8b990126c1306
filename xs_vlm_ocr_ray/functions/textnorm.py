"""Byte-exact text normalization kernels.

These replicate the reference's output-text normalization semantics —
the byte-identical-text invariant (BASELINE.json) hangs on this module,
so every function here is the single source of truth used by BOTH the
golden-fixture generator and the Ray pipeline.

Reference anchors (file:line into /root/reference):
- boxed-content normalizer: src/adapters/GLMAdapter.cpp:472-498
- whitespace trim of final text: src/adapters/QwenAdapter.cpp:551,
  src/adapters/TesseractAdapter.cpp:221
- span merge ("mergeFullText"): src/core/OCRResult.h:33-41
- preview projection: src/ui/MainWindow.cpp:2130-2135
- CSV escaping: src/ui/MainWindow.cpp:1873-1899
"""

from __future__ import annotations

# Qt's QString::trimmed() strips Unicode whitespace (QChar::isSpace),
# which matches Python str.strip() for all practical inputs (both strip
# the Unicode White_Space set).


def qt_trim(s: str) -> str:
    """QString::trimmed() equivalent — strip Unicode whitespace both ends."""
    return s.strip()


def normalize_boxed(content: str) -> str:
    """Strip model-emitted box markers and decoration, byte-exactly.

    Chain (order matters — GLMAdapter.cpp:472-498):
    1. remove all occurrences of ``<|begin_of_box|>`` / ``<|end_of_box|>``
    2. trim; strip one leading ``": "`` else one leading ``":"``
    3. trim; strip one layer of surrounding double quotes (both present)
    4. strip one trailing ``,``
    5. final trim
    """
    content = content.replace("<|begin_of_box|>", "").replace("<|end_of_box|>", "")
    content = content.strip()
    if content.startswith(": "):
        content = content[2:]
    elif content.startswith(":"):
        content = content[1:]
    content = content.strip()
    # no length guard: Qt checks only startsWith/endsWith, so a lone
    # '"' satisfies both and mid(1, -1) yields "" — Python's [1:-1] on a
    # 1-char string is also "" (GLMAdapter.cpp:485-488)
    if content.startswith('"') and content.endswith('"'):
        content = content[1:-1]
    if content.endswith(","):
        content = content[:-1]
    return content.strip()


def merge_full_text(span_texts: list[str]) -> str:
    """Join span texts whose trimmed form is non-empty with ``"\\n"``.

    Matches OCRResult::mergeFullText (src/core/OCRResult.h:33-41): the
    UNtrimmed text of each kept span is joined — only the emptiness test
    trims.
    """
    return "\n".join(t for t in span_texts if t.strip())


def preview(text: str, n: int = 50) -> str:
    """First ``n`` chars, newlines→spaces, ellipsis when truncated;
    ``"[无文字]"`` for empty (src/ui/MainWindow.cpp:2130-2135)."""
    if not text:
        return "[无文字]"
    head = text[:n].replace("\n", " ")
    return head + "..." if len(text) > n else head


def csv_escape(field: str) -> str:
    """RFC-4180-style escaping (src/ui/MainWindow.cpp:1888-1896):
    double internal quotes; wrap in quotes iff the field contains
    ``,``, ``"`` or ``\\n`` — exactly the three characters the reference
    checks (it does NOT check ``\\r``)."""
    if any(c in field for c in (",", '"', "\n")):
        return '"' + field.replace('"', '""') + '"'
    return field


def html_escape_text(text: str) -> str:
    """QString::toHtmlEscaped equivalent: escape ``& < > "`` only
    (src/ui/MainWindow.cpp:1851)."""
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
