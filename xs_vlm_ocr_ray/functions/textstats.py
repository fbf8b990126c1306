"""Text-analysis kernels for large-scale training-data pipelines:
language ID, quality scoring, token counting, document fingerprinting.

These generalize the reference's per-result text metrics (char-count
A2, src/ui/MainWindow.cpp:1994; preview M20) to corpus scale. All are
pure per-row functions packaged for vectorized use inside
``map_batches``; stateful variants (compiled patterns / profile tables)
belong in actor ``__init__``.

``annotate_batch``, the curation run's (lang_pred, quality, n_tokens)
kernel, counts each text in one C pass (``csrc/textkernel.c``, built
once at first import by ``native.load``) and turns the counts into
values with the same decisions as the per-doc ``lang_id`` and
``quality_score``, which stay the reference. When the build fails it
loops over the per-doc kernels, one WARNING is logged, and
``ANNOTATE_KERNEL`` reads ``"python"`` (else ``"native"``).
"""

from __future__ import annotations

import re

from .. import native


# --- token counting ------------------------------------------------------

_BPEISH_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def token_count_ws(text: str) -> int:
    """Whitespace tokenization count (len(text.split()))."""
    return len(text.split())


def token_count_bpeish(text: str) -> int:
    """BPE-ish: words + individual punctuation marks."""
    return len(_BPEISH_RE.findall(text))


# --- quality scoring -----------------------------------------------------

_PUNCT = ".,;:!?…，。；：！？"
_PUNCT_RE = re.compile(f"[{re.escape(_PUNCT)}]")
_STOPWORDS = {
    "en": frozenset("the a an and or of to in is are was were for on with as at by it this that".split()),
    "de": frozenset("der die das und oder ist sind ein eine zu in mit für auf als bei es".split()),
    "fr": frozenset("le la les et ou est sont un une de à dans avec pour sur il ce que".split()),
    "es": frozenset("el la los las y o es son un una de a en con para sobre que este".split()),
}
_ALL_STOP = frozenset().union(*_STOPWORDS.values())


def _counts(text: str, words: list[str]) -> tuple[int, int, int, int, int]:
    """(n_chars, n_words, word_len_sum, n_stop, n_punct) of one text."""
    return (
        len(text),
        len(words),
        sum(len(w) for w in words),
        sum(1 for w in words if w.lower() in _ALL_STOP),
        len(_PUNCT_RE.findall(text)),
    )


def quality_stats(text: str, words: list[str] | None = None) -> dict:
    """Length / punctuation / stopword heuristics (one row). Pass a
    precomputed ``text.split()`` to share the tokenization with other
    kernels in a fused annotate pass."""
    n_chars, n_words, len_sum, n_stop, n_punct = _counts(
        text, text.split() if words is None else words
    )
    return {
        "n_chars": n_chars,
        "n_words": n_words,
        "punct_ratio": (n_punct / n_chars) if n_chars else 0.0,
        "stopword_ratio": (n_stop / n_words) if n_words else 0.0,
        "mean_word_len": (len_sum / n_words) if n_words else 0.0,
    }


def quality_score(text: str, words: list[str] | None = None) -> float:
    """Composite [0,1] quality heuristic: rewards mid-length documents,
    sane word lengths, some punctuation and stopword presence."""
    return _quality(*_counts(text, text.split() if words is None else words))


def _quality(n_chars: int, n_words: int, len_sum: int, n_stop: int, n_punct: int) -> float:
    """The quality formula over a text's counts: one definition for the
    per-doc and the batch kernel."""
    if n_words == 0:
        return 0.0
    length_term = min(1.0, n_words / 100.0)
    wordlen_term = 1.0 if 2.0 <= len_sum / n_words <= 12.0 else 0.3
    stop_term = min(1.0, n_stop / n_words * 4.0)
    punct_term = min(1.0, n_punct / n_chars * 50.0 + 0.5)
    return round(0.4 * length_term + 0.2 * wordlen_term + 0.2 * stop_term + 0.2 * punct_term, 6)


# --- language ID (character/word n-gram heuristic) -----------------------

# Tiny per-language profiles: highly characteristic function words plus
# script ranges. Deterministic and dependency-free; a real deployment
# would pin a fastText-style model in the actor instead.
_LANG_MARKERS = {
    "en": frozenset("the and of to is in that it was for with are this you".split()),
    "de": frozenset("der die das und ist nicht ein eine mit für auf zeit".split()),
    "fr": frozenset("le la les et est pas une dans pour avec que temps".split()),
    "es": frozenset("el la los las y es no una tiempo para con persona".split()),
}
_LANGS = sorted(_LANG_MARKERS)  # the vote's tie-break: first max in this order
_LANG_SAMPLE = 4000  # code points of the text the language vote reads
_CJK = (0x4E00, 0x9FFF)
_CJK_RE = re.compile(f"[{chr(_CJK[0])}-{chr(_CJK[1])}]")

# an inverted marker-word → language indexes map, so the vote is one
# pass over the sample instead of one per language
_MARKER_LANGS: dict[str, tuple[int, ...]] = {}
for _i, _lang in enumerate(_LANGS):
    for _w in _LANG_MARKERS[_lang]:
        _MARKER_LANGS[_w] = _MARKER_LANGS.get(_w, ()) + (_i,)


def lang_id(text: str) -> str:
    """Heuristic language ID: CJK script share, else marker-word vote."""
    sample = text[:_LANG_SAMPLE]
    words = sample.lower().split()
    votes = [0] * len(_LANGS)
    get = _MARKER_LANGS.get
    for w in words:
        for i in get(w, ()):
            votes[i] += 1
    return _pick_lang(len(sample), len(_CJK_RE.findall(sample)), len(words), votes)


def _pick_lang(n_sample: int, n_cjk: int, n_words: int, votes) -> str:
    """The language decision over the sample's counts: one definition
    for the per-doc and the batch kernel."""
    if n_sample == 0:
        return "und"
    if n_cjk * 5 >= n_sample:
        return "zh"
    if n_words == 0:
        return "und"
    best = max(range(len(_LANGS)), key=votes.__getitem__)
    return _LANGS[best] if votes[best] > 0 else "und"


# --- batch annotate (the training pipeline's hot kernel) -----------------

# The annotate kernel, chosen once per process: the C counts
# (csrc/textkernel.c) when they build, else the per-doc kernels
# (native.load has logged why).
_native = native.load("textkernel")
if _native is not None:
    _native.init(
        # each list word with its flags: bit 0 a stopword, bit 1 + i a
        # marker word of _LANGS[i]
        [(w, (w in _ALL_STOP) | sum(2 << i for i in _MARKER_LANGS.get(w, ())))
         for w in sorted(_ALL_STOP.union(_MARKER_LANGS))],
        len(_LANGS), _PUNCT, *_CJK, _LANG_SAMPLE,
    )
    ANNOTATE_KERNEL = "native"
else:
    ANNOTATE_KERNEL = "python"


def annotate_batch(texts) -> dict:
    """(lang_pred, quality, n_tokens) over a string Array, a null read as
    "": equal to the per-doc ``lang_id`` / ``quality_score`` /
    ``token_count_ws`` (pytest-gated). The C kernel counts each text in
    one pass and the per-doc decisions (``_pick_lang``, ``_quality``)
    turn the counts into values; without it the per-doc kernels run.

    Returns ``lang_pred`` (list[str]), ``quality`` (np.float64) and
    ``n_tokens`` (np.int64).
    """
    import numpy as np

    docs = [x or "" for x in texts.to_pylist()]
    if _native is None:
        lang = [lang_id(x) for x in docs]
        quality = [quality_score(x) for x in docs]
        n_tokens = [token_count_ws(x) for x in docs]
    else:
        rows = _native.counts(docs)
        lang = [_pick_lang(r[5], r[6], r[7], r[8:]) for r in rows]
        quality = [_quality(*r[:5]) for r in rows]
        n_tokens = [r[1] for r in rows]
    return {
        "lang_pred": lang,
        "quality": np.array(quality, dtype=np.float64),
        "n_tokens": np.array(n_tokens, dtype=np.int64),
    }


# --- fingerprinting ------------------------------------------------------

_FP_MOD = (1 << 61) - 1
_FP_BASE = 1_000_003


def rolling_fingerprint(text: str) -> int:
    """Polynomial rolling hash over the whitespace-normalized text —
    a cheap whole-document fingerprint (order-sensitive, unlike the
    content hash which covers raw bytes)."""
    acc = 0
    for tok in text.split():
        h = 0
        for ch in tok:
            h = (h * _FP_BASE + ord(ch)) % _FP_MOD
        acc = (acc * _FP_BASE + h + 1) % _FP_MOD
    return acc


def shingles(text: str, k: int = 5) -> set[int]:
    """Word k-shingle hash set (for MinHash / Jaccard)."""
    words = text.split()
    if len(words) < k:
        return {_stable_hash64(" ".join(words))} if words else set()
    out = set()
    join = " ".join
    for i in range(len(words) - k + 1):
        out.add(_stable_hash64(join(words[i : i + k])))
    return out


def _stable_hash64(s: str) -> int:
    """Process-stable 64-bit string hash (NOT Python hash(), which is
    salted per process)."""
    import hashlib

    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)
