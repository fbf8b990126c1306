"""Property tests for the byte-exactness-critical kernels (SURVEY.md
§7.4): hash canonicalization, boxed-content normalizer, whitespace
normalization, CSV escaping."""

import string

from hypothesis import given, settings, strategies as st

from xs_vlm_ocr_ray.functions.hashing import (
    canonical_param_bytes,
    content_hash,
    content_hash_batch,
)
from xs_vlm_ocr_ray.functions.textnorm import csv_escape, normalize_boxed, qt_trim

_KEY = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=10)
_VAL = st.text(max_size=20)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_KEY, _VAL, max_size=6), st.binary(min_size=1, max_size=64),
       st.text(max_size=20))
def test_hash_invariant_to_param_order_and_secrets(params, payload, prompt):
    """T6: hash must not depend on dict insertion order, and secrets
    never contribute."""
    reordered = dict(reversed(list(params.items())))
    assert content_hash(payload, prompt, "e", params) == content_hash(
        payload, prompt, "e", reordered
    )
    with_secret = {**params, "api_key": "sk-xyz", "ACCESS_TOKEN": "t"}
    assert content_hash(payload, prompt, "e", params) == content_hash(
        payload, prompt, "e", with_secret
    )
    # batch form agrees with the scalar form
    assert content_hash_batch([payload, None], prompt, "e", params) == [
        content_hash(payload, prompt, "e", params),
        "",
    ]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_KEY, _VAL, max_size=6))
def test_canonical_params_injective_on_sorted_join(params):
    """Canonical serialization is deterministic and stable."""
    assert canonical_param_bytes(params) == canonical_param_bytes(dict(params))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet='ab: ,"<|>_ofbx\n\t', max_size=40))
def test_normalize_boxed_idempotent(s):
    """M15: applying the normalizer twice must equal applying it once
    (a second model round-trip can't change the bytes)... except the
    quote-strip layer, which by the reference's own chain CAN peel one
    layer per pass; assert the documented invariants instead."""
    once = normalize_boxed(s)
    assert "<|begin_of_box|>" not in once
    assert "<|end_of_box|>" not in once
    assert once == qt_trim(once)          # always trimmed
    # exactly ONE trailing comma is stripped (GLMAdapter.cpp:472-498):
    # "a,," keeps one comma; "a," loses it
    assert normalize_boxed("a,") == "a"
    assert normalize_boxed("a,,") == "a,"


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_csv_escape_roundtrip(field):
    """K4: csv.reader recovers the original field from our escaping.

    Known reference divergence from strict RFC 4180: the reference
    quotes only on ``,`` ``"`` ``\\n`` (MainWindow.cpp:1888-1896), so a
    bare ``\\r`` ships unquoted and is NOT round-trip-safe — we
    replicate that byte-exactly and exclude it from the round-trip
    claim."""
    import csv as _csv
    import io

    line = csv_escape(field)
    if field == "":
        assert line == ""
        return
    if "\r" in field and not any(c in field for c in (",", '"', "\n")):
        assert line == field  # shipped raw, exactly as the reference does
        return
    rows = list(_csv.reader(io.StringIO(line + "\n")))
    # embedded newline: csv joins continuation only when quoted
    got = rows[0][0] if rows and rows[0] else ""
    assert got == field


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(st.none(), st.binary(max_size=40)), min_size=1, max_size=30
    ),
    st.integers(min_value=0, max_value=10),
)
def test_binary_views_roundtrip_property(vals, cut):
    """Zero-copy views reproduce the exact bytes of any binary column,
    under arbitrary slicing, for both offset widths."""
    import pyarrow as pa

    from xs_vlm_ocr_ray.stages.extract_stage import binary_views

    for typ in (pa.binary(), pa.large_binary()):
        arr = pa.array(vals, typ)
        off = min(cut, len(vals))
        sliced = arr.slice(off)
        got = [None if v is None else bytes(v) for v in binary_views(sliced)]
        assert got == vals[off:]


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=120))
def test_pdf_bytes_structure_property(text):
    """Any text yields a structurally valid PDF: header/EOF, page count
    matching the 54-line pagination, xref offsets pointing at objects."""
    import re

    from xs_vlm_ocr_ray.sinks.export import _PDF_LINES_PER_PAGE, pdf_bytes

    raw = pdf_bytes(text)
    assert raw.startswith(b"%PDF-1.4\n") and raw.endswith(b"%%EOF\n")
    lines = text.split("\n")
    n_pages = max(1, -(-max(len(lines), 1) // _PDF_LINES_PER_PAGE))
    assert raw.count(b"/Type /Page ") == n_pages
    xref_pos = int(raw.rsplit(b"startxref\n", 1)[1].split(b"\n", 1)[0])
    assert raw[xref_pos : xref_pos + 4] == b"xref"
    for num, off in enumerate(re.findall(rb"(\d{10}) 00000 n", raw), start=1):
        head = b"%d 0 obj" % num
        assert raw[int(off) : int(off) + len(head)] == head


def test_annotate_batch_matches_per_doc_kernels():
    """The vectorized annotate kernel (functions/textstats.annotate_batch)
    is byte-compatible with the per-doc reference kernels lang_id /
    quality_score / token_count_ws over corpus text and edge cases."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from xs_vlm_ocr_ray.functions.textstats import (
        annotate_batch,
        lang_id,
        quality_score,
    )

    corpus = [
        x or ""
        for x in pq.read_table(
            "/root/testdata/sf0.001/documents.parquet", columns=["text"]
        )["text"].to_pylist()
    ]
    edge = [
        "", " ", "\t\n ", "one", "  padded  words  ",
        "中文 一 二 三 四 五 " * 400, "。。。", "一二三",
        "the and of to is in that it", "der die das und ist",
        "le la les et est", "el la los y es", "zeit für die",
        "word " * 150, "x" * 5000 + " the end", "ab.cd,ef!?…，。；：！？",
    ]
    texts = corpus + edge
    got = annotate_batch(pa.array(texts, pa.string()))
    for i, x in enumerate(texts):
        words = x.split()
        assert got["lang_pred"][i] == lang_id(x), repr(x[:60])
        assert got["quality"][i] == quality_score(x, words), repr(x[:60])
        assert got["n_tokens"][i] == len(words), repr(x[:60])


def test_simhash_batch_property_matches_reference():
    """Property: the batched SimHasher equals the per-doc reference on
    arbitrary unicode batches (forced tiny slabs exercise the
    slab-boundary and empty-doc paths)."""
    import pyarrow as pa
    from hypothesis import given, settings, strategies as st

    from xs_vlm_ocr_ray.stages.dedup import SimHasher

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(max_size=60), min_size=0, max_size=12))
    def check(texts):
        h = SimHasher()
        h._SLAB_TOKENS = 3
        t = pa.table(
            {"doc_id": list(range(len(texts))),
             "text": pa.array(texts, pa.string())}
        )
        got = h(t)["simhash"].to_pylist()
        assert got == [SimHasher.simhash64(x) for x in texts]

    check()


def test_annotate_batch_property_matches_per_doc():
    """Property: annotate_batch equals the per-doc kernels over random
    batches drawn from ASCII, accents, CJK, punctuation, whitespace and
    the case-mapping traps (dotted capital I, whose lowercase is two
    code points; sigma and final sigma; the Kelvin sign; capital
    accents; Unicode-only whitespace)."""
    import pyarrow as pa
    from hypothesis import given, settings, strategies as st

    from xs_vlm_ocr_ray.functions.textstats import (
        annotate_batch,
        lang_id,
        quality_score,
    )

    alphabet = st.sampled_from(
        list("abcdefghijxyz ABCDEF0123 .,;:!?…，。；：！？ the und für le la "
             "中文一二三四五鿿 éàüß \t\n\r")
        + ["İ", "Σ", "ς", "K", "\u212a", "À", "Ü", "\x1c", "\x85", "\u2028", "\xa0"]
    )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(alphabet=alphabet, max_size=80), max_size=10))
    def check(texts):
        got = annotate_batch(pa.array(texts, pa.string()))
        for i, x in enumerate(texts):
            words = x.split()
            assert got["lang_pred"][i] == lang_id(x), repr(x)
            assert got["quality"][i] == quality_score(x, words), repr(x)
            assert got["n_tokens"][i] == len(words), repr(x)

    check()
