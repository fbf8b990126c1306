"""Property test: the find-based scanner in extract._scan is
byte-equivalent to the regex-tokenizer reference implementation it
replaced (the golden contract documented in extract.py).

The reference here re-implements the original ``_TOKEN_RE`` tokenizer
loop verbatim, with the tokenizer defined in this file; hypothesis drives
both over adversarial tag soup (unterminated tags/comments, nested
boilerplate, stray ``<``/``>``, entities, self-closing suppress tags)."""

import re

from hypothesis import given, settings, strategies as st

from xs_vlm_ocr_ray.extract import (
    _BLOCK_TAGS,
    _BOILER_TAGS,
    _SUPPRESS_TAGS,
    _TAGNAME_RE,
    _keep_block,
    _norm,
    _scan,
)

_TOKEN_RE = re.compile(r"<!--.*?(?:-->|$)|<[^>]*>|[^<]+", re.S)


def _scan_reference(doc: str) -> list[str]:
    """Original regex-tokenizer implementation (kept as the oracle)."""
    spans: list[str] = []
    buf: list[str] = []
    linkbuf: list[str] = []
    boiler_depth = 0
    a_depth = 0
    suppress = None

    def flush() -> None:
        if not buf:
            return
        text = _norm("".join(buf))
        link = _norm("".join(linkbuf))
        buf.clear()
        linkbuf.clear()
        if boiler_depth == 0 and _keep_block(len(text), len(link)):
            spans.append(text)

    for m in _TOKEN_RE.finditer(doc):
        tok = m.group(0)
        if tok[0] != "<":
            if suppress is None and tok and not tok.isspace():
                buf.append(tok)
                if a_depth > 0:
                    linkbuf.append(tok)
            continue
        if tok.startswith("<!--"):
            continue
        nm = _TAGNAME_RE.match(tok)
        if nm is None:
            continue
        name = nm.group(1).lower()
        closing = tok.startswith("</")
        if suppress is not None:
            if closing and name == suppress:
                suppress = None
            continue
        if name in _SUPPRESS_TAGS:
            if not closing and not tok.endswith("/>"):
                suppress = name
            continue
        if name in _BLOCK_TAGS:
            flush()
            # contract change (round 5): block elements implicitly
            # close <a>, so an unclosed anchor can't poison the rest
            # of the document as link text
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
    flush()
    return spans


_WORD = st.text(
    alphabet="ab c&<>/!-\n\t éä表", min_size=0, max_size=12
)
_TAG = st.sampled_from(
    [
        "<p>", "</p>", "<div>", "</div>", "<nav>", "</nav>", "<header>",
        "</header>", "<footer>", "</footer>", "<a href='/x'>", "</a>",
        "<script>", "</script>", "<style>", "</style>", "<br/>", "<hr>",
        "<script/>", "<li>", "</li>", "<table>", "</table>", "<td>",
        "</td>", "<span>", "</span>", "<b>", "</b>", "<!-- c -->",
        "<!-- unterminated", "<!DOCTYPE html>", "<", ">", "</", "< p>",
        "<P>", "</ P>", "<unterminated", "&amp;", "&nbsp;", "&#65;",
        "&bogus;",
    ]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_WORD, _TAG), min_size=0, max_size=60))
def test_scan_equivalent_to_regex_reference(pieces):
    doc = "".join(pieces)
    assert _scan(doc) == _scan_reference(doc)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="<>!-/ab \n", min_size=0, max_size=80))
def test_scan_equivalent_on_raw_tag_soup(doc):
    assert _scan(doc) == _scan_reference(doc)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_WORD, _TAG), min_size=0, max_size=80),
       st.integers(min_value=8, max_value=200))
def test_split_extraction_equals_whole_property(pieces, max_bytes):
    """split_html's exactness guarantee under random tag soup: the
    concatenation of per-segment extractions equals the whole-document
    extraction (SURVEY.md §7.4 hard part / skew path)."""
    from xs_vlm_ocr_ray.extract import extract_html, split_html

    payload = "".join(pieces).encode("utf-8")
    whole = extract_html(payload)
    segs = split_html(payload, max_bytes)
    assert b"".join(segs) == payload  # lossless re-concatenation
    assert all(segs) or segs == [b""]  # no empty segment of a non-empty doc
    # a cut is made only once a segment has reached the byte budget
    assert all(len(s) >= max_bytes for s in segs[:-1])
    texts = []
    for s in segs:
        r = extract_html(s)
        assert r.success == whole.success
        texts.extend(r.span_texts)
    if whole.success:
        assert texts == whole.span_texts
