"""The deterministic HTML extractor — golden semantics unit tests."""

from xs_vlm_ocr_ray.extract import extract_html, split_html
from xs_vlm_ocr_ray.fixtures import gen_page


def ex(html: str):
    return extract_html(html.encode("utf-8"))


def test_empty_payload_in_band_error():
    r = extract_html(b"")
    assert not r.success and r.error == "empty_payload"
    r = extract_html(None)
    assert not r.success and r.error == "empty_payload"


def test_boilerplate_containers_dropped():
    r = ex(
        "<body><nav><a href='/'>home</a> <a href='/a'>about</a></nav>"
        "<p>real content sentence here</p>"
        "<footer><a href='/t'>terms</a></footer></body>"
    )
    assert r.full_text == "real content sentence here"


def test_link_dense_block_dropped_outside_nav():
    r = ex(
        "<div><a href='/1'>one</a> <a href='/2'>two</a> <a href='/3'>three</a></div>"
        "<p>kept paragraph of text</p>"
    )
    assert r.full_text == "kept paragraph of text"


def test_inline_link_in_paragraph_kept():
    r = ex("<p>A long enough sentence with an <a href='/x'>inline link</a> inside.</p>")
    assert r.full_text == "A long enough sentence with an inline link inside."


def test_table_cells_in_reading_order():
    r = ex(
        "<table><tr><th>h1</th><th>h2</th></tr>"
        "<tr><td>a1</td><td>a2</td></tr></table>"
    )
    assert r.full_text == "h1\nh2\na1\na2"


def test_script_style_head_suppressed():
    r = ex(
        "<head><title>T</title><style>p{}</style></head>"
        "<body><script>var a='<p>no</p>';</script><p>yes</p></body>"
    )
    assert r.full_text == "yes"


def test_entities_and_whitespace_collapse():
    r = ex("<p>a&amp;b   c\n\nd&nbsp;e</p>")
    assert r.full_text == "a&b c d e"


def test_comments_ignored():
    r = ex("<p>keep</p><!-- <p>gone</p> -->")
    assert r.full_text == "keep"


def test_determinism_same_bytes():
    p = gen_page(7)
    a = extract_html(p["html"])
    b = extract_html(p["html"])
    assert a.full_text == b.full_text
    assert a.span_texts == b.span_texts
    assert a.full_text.encode("utf-8") == b.full_text.encode("utf-8")


def test_split_extraction_equals_whole():
    # giant scenario rows: i % 100 in {96, 98} (fixtures.scenario_for)
    for i in (96, 98, 196):
        page = gen_page(i)["html"]
        # an unclosed <a> right after <body> must not stop the splitting:
        # the next block tag closes it, so later block tags are cut points
        unclosed = page.replace(b"<body>", b"<body><a href='/x'>", 1)
        assert unclosed != page
        for payload in (page, unclosed):
            whole = extract_html(payload)
            segs = split_html(payload, 32_000)
            assert len(segs) > 1, "giant doc should split"
            assert b"".join(segs) == payload
            joined = []
            for s in segs:
                joined.extend(extract_html(s).span_texts)
            assert joined == whole.span_texts


def test_split_small_doc_noop():
    payload = b"<p>tiny</p>"
    assert split_html(payload, 1 << 20) == [payload]


def test_invalid_utf8_replaced_not_raised():
    r = extract_html(b"<p>ok \xff\xfe</p>")
    assert r.success
    assert "ok" in r.full_text


class TestBinaryViews:
    """Zero-copy payload views: exact bytes across chunking, slicing
    (non-zero Arrow offsets), nulls, and both binary widths."""

    def _roundtrip(self, col):
        from xs_vlm_ocr_ray.stages.extract_stage import binary_views

        return [None if v is None else bytes(v) for v in binary_views(col)]

    def test_plain_and_nulls(self):
        import pyarrow as pa

        vals = [b"abc", None, b"", b"\xff\xfe", b"longer payload here"]
        assert self._roundtrip(pa.array(vals, pa.binary())) == vals
        assert self._roundtrip(pa.array(vals, pa.large_binary())) == vals

    def test_sliced_chunk_nonzero_offset(self):
        import pyarrow as pa

        vals = [b"a", b"bb", b"ccc", b"dddd", b"eeeee"]
        arr = pa.array(vals, pa.binary()).slice(2, 2)
        assert self._roundtrip(arr) == [b"ccc", b"dddd"]
        big = pa.array(vals, pa.large_binary()).slice(1, 3)
        assert self._roundtrip(big) == [b"bb", b"ccc", b"dddd"]

    def test_chunked_with_empty_chunk(self):
        import pyarrow as pa

        col = pa.chunked_array(
            [
                pa.array([b"x", b"yy"], pa.binary()),
                pa.array([], pa.binary()),
                pa.array([None, b"z"], pa.binary()),
            ]
        )
        assert self._roundtrip(col) == [b"x", b"yy", None, b"z"]

    def test_sliced_with_nulls(self):
        import pyarrow as pa

        vals = [b"a", None, b"c", None, b"e", b"f"]
        arr = pa.array(vals, pa.binary()).slice(1, 4)
        assert self._roundtrip(arr) == [None, b"c", None, b"e"]

    def test_views_are_zero_copy(self):
        import pyarrow as pa

        from xs_vlm_ocr_ray.stages.extract_stage import binary_views

        arr = pa.array([b"hello world"], pa.binary())
        v = binary_views(arr)[0]
        assert isinstance(v, memoryview)
        # the view aliases the Arrow data buffer, not a copy
        import ctypes

        buf_addr = arr.buffers()[-1].address
        view_addr = ctypes.addressof(ctypes.c_char.from_buffer(v))
        assert buf_addr <= view_addr < buf_addr + arr.buffers()[-1].size


def test_unclosed_anchor_does_not_poison_rest_of_doc():
    """Block elements implicitly close <a> (HTML5): one malformed
    unclosed anchor must not count every later block as link text and
    silently drop the whole rest of the document."""
    from xs_vlm_ocr_ray.extract import extract_html

    body = "word " * 100
    r = extract_html(f"<p><a href=x>menu</p><p>{body}</p>".encode())
    assert r.success and len(r.span_texts) == 1
    assert r.span_texts[0].startswith("word word")


def test_entities_unescape_exactly_once():
    """'&amp;lt;' renders as the literal '&lt;' — the fast-path output
    must not be fed to html.unescape a second time ('<')."""
    from xs_vlm_ocr_ray.extract import extract_html

    pad = "filler words here to keep the block " * 3
    r = extract_html(f"<p>{pad}a &amp;lt; b &amp;#65; c</p>".encode())
    assert r.success
    assert "a &lt; b &#65; c" in r.span_texts[0]
    # uncommon entities still decode (single pass on the original)
    r2 = extract_html(f"<p>{pad}price &euro;5 &amp; up</p>".encode())
    assert "price €5 & up" in r2.span_texts[0]
