"""Property tests for the one tag scanner and its C port.

- The find-based scanner in extract._scan is byte-equivalent to the
  regex-tokenizer reference implementation it replaced (the golden
  contract documented in extract.py). The reference here re-implements
  the original ``_TOKEN_RE`` tokenizer loop verbatim, with the tokenizer
  defined in this file.
- The C kernel (csrc/scankernel.c) is byte-equivalent to ``_scan``: the
  same span texts, and the same cut points as utf-8 byte offsets.

Hypothesis drives them over adversarial tag soup (unterminated
tags/comments, nested boilerplate, stray ``<``/``>``, entities,
self-closing suppress tags) and over non-ASCII whitespace, case-folding
traps and non-BMP text. The build-once loader's fallback and its
concurrent first build run in subprocesses, since the kernel is chosen
at import."""

import json
import os
import re
import subprocess
import sys
import time

from hypothesis import given, settings, strategies as st

from xs_vlm_ocr_ray import extract
from xs_vlm_ocr_ray.extract import (
    _BLOCK_TAGS,
    _BOILER_TAGS,
    _SUPPRESS_TAGS,
    _TAGNAME_RE,
    _cut_offsets_py,
    _keep_block,
    _norm,
    _scan,
    extract_html,
    split_html,
)
from xs_vlm_ocr_ray.fixtures import gen_page

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


# Non-ASCII whitespace (U+3000, NEL, U+2028), characters that case-fold
# to ASCII letters (long s, Kelvin sign), a non-BMP character, and the
# pieces of entities.
_UNI_WORD = st.text(
    alphabet="ab p&;#<>/ \u3000\x85\u2028\u017f\u212a\U0001f600\xa0é表",
    min_size=0, max_size=12,
)
_UNI_TAG = st.sampled_from(
    [
        "<\u3000p>", "</\x85div>", "<\u2028nav>", "</\u3000nav>",
        "<\u017fcript>", "</\u017fcript>", "<\u212ad>", "<ſtyle>",
        "<a\u2028href=x>", "</a\x85>", "<P\u3000>", "<h1>",
        "&amp;", "&lt;", "&#128512;", "&#x3000;", "&nbsp;", "&amp;lt;",
        "amp;", "&", "#", ";", "&\U0001f600;", "\U0001f600",
    ]
)
_ANY_PIECE = st.one_of(_WORD, _TAG, _UNI_WORD, _UNI_TAG)


def test_native_kernel_is_the_one_in_use():
    assert extract.SCAN_KERNEL == "native"
    assert extract._scan_spans is extract._native.spans
    assert extract._cut_offsets is extract._native.cuts


@settings(max_examples=400, deadline=None)
@given(st.lists(_ANY_PIECE, min_size=0, max_size=80))
def test_native_kernel_equals_scan(pieces):
    doc = "".join(pieces)
    assert extract._native.spans(doc) == _scan(doc)
    assert extract._native.cuts(doc) == _cut_offsets_py(doc)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="<>!-/abp \n\u3000\U0001f600", min_size=0, max_size=80))
def test_native_kernel_equals_scan_on_raw_tag_soup(doc):
    assert extract._native.spans(doc) == _scan(doc)
    assert extract._native.cuts(doc) == _cut_offsets_py(doc)


def test_native_kernel_keep_block_thresholds():
    """_keep_block's edges (link share 1/3, and 2/3 from 200 chars on),
    counted in code points: a 4-byte character is one."""
    for ch in ("x", "\U0001f600"):
        for total in (2, 3, 198, 199, 200, 201, 300):
            for link in range(max(0, total // 3 - 2), min(total, 2 * total // 3 + 2) + 1):
                doc = f"<p>{ch * (total - link)}<a>{ch * link}</a></p>"
                assert extract._native.spans(doc) == _scan(doc), (ch, total, link)


def test_native_kernel_on_fixture_pages():
    for i in range(60):
        doc = gen_page(i)["html"].decode("utf-8")
        assert extract._native.spans(doc) == _scan(doc), i
        assert extract._native.cuts(doc) == _cut_offsets_py(doc), i


_FALLBACK_DOCS = [
    gen_page(0)["html"].decode("utf-8"),
    gen_page(7)["html"].decode("utf-8"),
    "<nav>x</nav><p>caf\u00e9 &amp; \u8868\u3000<a>k</a> \U0001f600 &lt;b&gt;</p>"
    "<div>two</div><!-- open",
]

_FALLBACK_SCRIPT = """
import json, logging, sys
logging.basicConfig(format="%(levelname)s:%(name)s:%(message)s")
from xs_vlm_ocr_ray import native
native.BUILD_DIR = sys.argv[1]
def _fail(src, out):
    raise native.BuildError("simulated compiler failure")
native._compile = _fail
from xs_vlm_ocr_ray import extract
docs = json.load(sys.stdin)
print(json.dumps({
    "kernel": extract.SCAN_KERNEL,
    "spans": [extract.extract_html(d.encode()).span_texts for d in docs],
    "segs": [[s.hex() for s in extract.split_html(d.encode(), 64)] for d in docs],
}))
"""


def _run_python(script, *args, stdin=None, timeout=120):
    env = dict(os.environ, PYTHONPATH=_ROOT)
    return subprocess.run(
        [sys.executable, "-c", script, *args], input=stdin, capture_output=True,
        text=True, cwd=_ROOT, env=env, timeout=timeout,
    )


def test_build_failure_falls_back_to_python_scan(tmp_path):
    """A failing compile step: the Python _scan runs, with the same
    outputs as the C kernel, one WARNING, and SCAN_KERNEL == "python"."""
    p = _run_python(_FALLBACK_SCRIPT, str(tmp_path), stdin=json.dumps(_FALLBACK_DOCS))
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout)
    assert out["kernel"] == "python"
    assert out["spans"] == [extract_html(d.encode()).span_texts for d in _FALLBACK_DOCS]
    assert out["segs"] == [[s.hex() for s in split_html(d.encode(), 64)] for d in _FALLBACK_DOCS]
    warnings = [ln for ln in p.stderr.splitlines() if ln.startswith("WARNING:")]
    assert len(warnings) == 1 and "simulated compiler failure" in warnings[0], p.stderr
    assert os.listdir(tmp_path) == []  # the temporary output is removed


_RACE_SCRIPT = """
import json, sys, time
from xs_vlm_ocr_ray import native
native.BUILD_DIR = sys.argv[1]
start = float(sys.argv[2])
while time.time() < start:
    time.sleep(0.002)
from xs_vlm_ocr_ray import extract
print(json.dumps([extract.SCAN_KERNEL, extract._native.__file__,
                  extract.extract_html(sys.argv[3].encode()).span_texts]))
"""


def test_concurrent_first_build_into_one_cache_dir(tmp_path):
    """Two processes import the package at once over an empty cache
    directory: both build, both load a complete module, and one file
    is left."""
    doc = "<p>one &amp; two</p><nav>x</nav><p>\u8868 three</p>"
    start = str(time.time() + 1.0)
    env = dict(os.environ, PYTHONPATH=_ROOT)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RACE_SCRIPT, str(tmp_path), start, doc],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=_ROOT, env=env,
        )
        for _ in range(2)
    ]
    results = []
    for p in procs:
        out, err = p.communicate(timeout=120)
        assert p.returncode == 0, err
        assert "WARNING" not in err, err
        results.append(json.loads(out))
    built = os.listdir(tmp_path)
    assert len(built) == 1 and built[0].startswith("scankernel.") and built[0].endswith(".so")
    for kernel, path, spans in results:
        assert kernel == "native"
        assert path == os.path.join(str(tmp_path), built[0])
        assert spans == extract_html(doc.encode()).span_texts
