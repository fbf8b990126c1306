"""Byte-exactness of the normalizer chain (reference M15-M17, M20, K4)."""

from xs_vlm_ocr_ray.functions.textnorm import (
    csv_escape,
    html_escape_text,
    merge_full_text,
    normalize_boxed,
    preview,
    qt_trim,
)


class TestNormalizeBoxed:
    # chain order per GLMAdapter.cpp:472-498
    def test_box_markers_removed_everywhere(self):
        assert normalize_boxed("<|begin_of_box|>hi<|end_of_box|>") == "hi"
        assert normalize_boxed("a<|begin_of_box|>b<|end_of_box|>c") == "abc"

    def test_leading_colon_space_then_colon(self):
        assert normalize_boxed(": value") == "value"
        assert normalize_boxed(":value") == "value"
        assert normalize_boxed("::x") == ":x"  # only one strip

    def test_surrounding_quotes_one_layer(self):
        assert normalize_boxed('"quoted"') == "quoted"
        assert normalize_boxed('""double""') == '"double"'
        assert normalize_boxed('"unbalanced') == '"unbalanced'

    def test_trailing_comma(self):
        assert normalize_boxed("x,") == "x"
        assert normalize_boxed("x,,") == "x,"

    def test_full_chain(self):
        # quote-strip runs BEFORE comma-strip (GLMAdapter.cpp:486-493):
        # `"v",` does not end with a quote, so only the comma goes.
        assert normalize_boxed('  <|begin_of_box|>: "v",<|end_of_box|> ') == '"v"'
        assert normalize_boxed('<|begin_of_box|>: "v" <|end_of_box|>') == "v"

    def test_lone_quote_strips_to_empty(self):
        # Qt checks only startsWith/endsWith (GLMAdapter.cpp:485-488):
        # a lone '"' satisfies both and mid(1, -1) yields ""
        assert normalize_boxed('"') == ""
        assert normalize_boxed('  "  ') == ""


class TestMerge:
    def test_skips_blank_after_trim_but_joins_untrimmed(self):
        # OCRResult.h:33-41 — emptiness test trims, the join does not
        assert merge_full_text(["a ", "  ", "", "b"]) == "a \nb"


def test_preview():
    assert preview("") == "[无文字]"
    assert preview("ab\ncd") == "ab cd"
    long = "x" * 60
    assert preview(long) == "x" * 50 + "..."


def test_csv_escape():
    assert csv_escape("plain") == "plain"
    assert csv_escape('a"b') == '"a""b"'
    assert csv_escape("a,b") == '"a,b"'
    assert csv_escape("a\nb") == '"a\nb"'


def test_html_escape():
    assert html_escape_text('<a & "b">') == "&lt;a &amp; &quot;b&quot;&gt;"


def test_qt_trim():
    assert qt_trim("  x\t\n") == "x"
