/* Native annotate kernel: the per-text counts behind
 * ``functions/textstats.annotate_batch``, in one pass over the PEP 393
 * buffer of each str (UCS1/2/4).
 *
 * ``init(words, n_langs, punct, cjk_lo, cjk_hi, sample)`` must run first:
 * the word lists, the punctuation set, the CJK range and the language
 * sample length stay defined once, in textstats.py. ``words`` is a list of
 * (lowercase word, flags) pairs: bit 0 marks a stopword, bit 1 + i a
 * marker word of language i.
 *
 * ``counts(texts)`` gives, per text, the tuple
 *   (n_chars, n_words, word_len_sum, n_stop, n_punct,
 *    n_sample, n_cjk, n_sample_words, votes_0 .. votes_{n_langs-1})
 * equal to what the per-doc kernels derive (tests/test_properties.py):
 * - words split on Py_UNICODE_ISSPACE, the predicate of str.split();
 * - the stopword test is ``w.lower() in stopwords``; the sample is the
 *   first ``sample`` code points, and a word crossing its end votes with
 *   its truncated prefix, as ``text[:sample].lower().split()`` does.
 *
 * Lowercasing needs no call per word. str.lower never shortens a word,
 * so a word longer than the longest list word cannot match; a shorter
 * one matches only if every code point lowercases to one code point of
 * the lists' alphabet (the final-sigma rule only yields sigmas). ASCII
 * A-Z lowercases here; the non-ASCII code points that qualify are found
 * once, in init, by asking str.lower. Any other code point rejects the
 * word. A matching word is packed, one alphabet index per byte, into a
 * 64-bit key looked up in an open-addressing table.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define KEY_CAP 8   /* code points per key: one byte each in a uint64 */
#define ALPHA_CAP 255
#define SLOTS 512   /* open-addressing table of the list words */
#define MAP_CAP 64  /* non-ASCII code points that lowercase into the alphabet */
#define LANG_CAP 7   /* flags are one byte: bit 0 and one bit per language */

/* Py_UNICODE_ISSPACE (C_SPACE, filled at module init) and the
 * punctuation set (C_PUNCT, filled by init) over the BMP: one table read
 * per char instead of a call per non-ASCII char. */
#define C_SPACE 1
#define C_PUNCT 2
static unsigned char bmp_class[0x10000];
#define CLASS(c) ((c) < 0x10000 ? bmp_class[c] : Py_UNICODE_ISSPACE(c) ? C_SPACE : 0)

static Py_UCS4 alpha[ALPHA_CAP + 1]; /* alphabet index -> code point; 0 unused */
static int n_alpha;
static unsigned char ascii_idx[128]; /* lowercased ASCII char -> alphabet index */
static Py_UCS4 map_cp[MAP_CAP];      /* non-ASCII code point ... */
static unsigned char map_idx[MAP_CAP]; /* ... -> index of its lowercase */
static int n_map;

static uint64_t keys[SLOTS];
static unsigned char flags[SLOTS];
static int n_words_max, n_langs;
static Py_UCS4 cjk_lo, cjk_hi;
static Py_ssize_t sample_len;

static unsigned slot_of(uint64_t key) { return (unsigned)((key * 0x9E3779B97F4A7C15ull) >> 55); }

static unsigned find_slot(uint64_t key)
{
    unsigned h = slot_of(key);
    while (keys[h] && keys[h] != key)
        h = (h + 1) & (SLOTS - 1);
    return h;
}

static int alpha_index(Py_UCS4 c)
{
    for (int i = 1; i <= n_alpha; i++)
        if (alpha[i] == c)
            return i;
    return 0;
}

/* The alphabet index of ``c`` lowercased, 0 when that is not one code
 * point of the alphabet. */
static inline int lower_index(Py_UCS4 c)
{
    if (c < 128)
        return ascii_idx[c];
    for (int i = 0; i < n_map; i++)
        if (map_cp[i] == c)
            return map_idx[i];
    return 0;
}

static int add_word(PyObject *w, long fl)
{
    Py_ssize_t len = PyUnicode_GET_LENGTH(w);
    if (len < 1 || len > KEY_CAP || fl < 1 || fl > 255) {
        PyErr_Format(PyExc_ValueError, "textkernel: bad list word %R", w);
        return -1;
    }
    uint64_t key = 0;
    for (Py_ssize_t i = 0; i < len; i++) {
        Py_UCS4 c = PyUnicode_READ_CHAR(w, i);
        int k = alpha_index(c);
        if (!k) {
            if (n_alpha == ALPHA_CAP) {
                PyErr_SetString(PyExc_ValueError, "textkernel: alphabet too large");
                return -1;
            }
            alpha[k = ++n_alpha] = c;
        }
        key |= (uint64_t)k << (8 * i);
    }
    unsigned h = find_slot(key);
    keys[h] = key;
    flags[h] |= (unsigned char)fl;
    if (len > n_words_max)
        n_words_max = (int)len;
    return 0;
}

/* The lowercase map: every non-ASCII code point whose simple lowercase
 * is in the alphabet, kept when str.lower agrees and gives one code
 * point (U+0130 lowercases to two and is dropped). */
static int build_map(void)
{
    Py_UCS4 top = 0;
    for (int i = 1; i <= n_alpha; i++)
        top = alpha[i] > top ? alpha[i] : top;
    n_map = 0;
    for (Py_UCS4 c = 0x80; c <= 0x10FFFF; c++) {
        Py_UCS4 lc = Py_UNICODE_TOLOWER(c);
        int k = lc <= top ? alpha_index(lc) : 0;
        if (!k)
            continue;
        PyObject *s = PyUnicode_FromOrdinal(c);
        PyObject *low = s ? PyObject_CallMethod(s, "lower", NULL) : NULL;
        Py_XDECREF(s);
        if (!low)
            return -1;
        int one = PyUnicode_GET_LENGTH(low) == 1 && PyUnicode_READ_CHAR(low, 0) == lc;
        Py_DECREF(low);
        if (!one)
            continue;
        if (n_map == MAP_CAP) {
            PyErr_SetString(PyExc_ValueError, "textkernel: lowercase map too large");
            return -1;
        }
        map_cp[n_map] = c;
        map_idx[n_map++] = (unsigned char)k;
    }
    return 0;
}

static PyObject *init(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *words, *punct;
    unsigned long lo, hi;
    if (!PyArg_ParseTuple(args, "O!iUkkn:init", &PyList_Type, &words, &n_langs, &punct, &lo, &hi,
                          &sample_len))
        return NULL;
    if (n_langs < 0 || n_langs > LANG_CAP || hi > 0x10FFFF || sample_len < 0) {
        PyErr_SetString(PyExc_ValueError, "textkernel.init: bad language count, range or sample");
        return NULL;
    }
    cjk_lo = (Py_UCS4)lo;
    cjk_hi = (Py_UCS4)hi;
    memset(keys, 0, sizeof keys);
    memset(flags, 0, sizeof flags);
    n_alpha = n_words_max = 0;
    if (PyList_GET_SIZE(words) > SLOTS / 2) {
        PyErr_SetString(PyExc_ValueError, "textkernel.init: too many words");
        return NULL;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(words); i++) {
        PyObject *w;
        long fl;
        if (!PyArg_ParseTuple(PyList_GET_ITEM(words, i), "Ul", &w, &fl) || add_word(w, fl) < 0)
            return NULL;
    }
    memset(ascii_idx, 0, sizeof ascii_idx);
    for (Py_UCS4 c = 0; c < 128; c++)
        ascii_idx[c] = (unsigned char)alpha_index(c >= 'A' && c <= 'Z' ? c + 32 : c);
    if (build_map() < 0)
        return NULL;
    for (Py_UCS4 c = 0; c < 0x10000; c++)
        bmp_class[c] &= ~C_PUNCT;
    for (Py_ssize_t i = 0; i < PyUnicode_GET_LENGTH(punct); i++) {
        Py_UCS4 c = PyUnicode_READ_CHAR(punct, i);
        if (c >= 0x10000) {
            PyErr_SetString(PyExc_ValueError, "textkernel.init: punctuation outside the BMP");
            return NULL;
        }
        bmp_class[c] |= C_PUNCT;
    }
    Py_RETURN_NONE;
}

/* The list flags of a word whose key is complete, 0 when it is none. */
static inline int word_flags(uint64_t key, int ok) { return ok ? flags[find_slot(key)] : 0; }

enum { N_CHARS, N_WORDS, LEN_SUM, N_STOP, N_PUNCT, N_SAMPLE, N_CJK, N_SWORDS, VOTES };

/* The state of one pass over a text. */
typedef struct {
    Py_ssize_t wstart, nwords, lensum, nstop, npunct, nsw, ns;
    uint64_t key, skey; /* skey, sok: the key of the word's sample prefix */
    int klen, ok, sok;
} Pass;

static inline __attribute__((always_inline)) void end_word(Pass *p, Py_ssize_t i, Py_ssize_t *out)
{
    p->nwords++;
    p->lensum += i - p->wstart;
    int fl = word_flags(p->key, p->ok);
    p->nstop += fl & 1;
    if (p->wstart < p->ns) {
        p->nsw++;
        if (i > p->ns)
            fl = word_flags(p->skey, p->sok);
        for (int l = 0; l < n_langs; l++)
            out[VOTES + l] += (fl >> (l + 1)) & 1;
    }
    p->wstart = -1;
}

static inline __attribute__((always_inline)) void step(Pass *p, Py_UCS4 c, Py_ssize_t i,
                                                       Py_ssize_t *out)
{
    int cls = CLASS(c);
    p->npunct += (cls & C_PUNCT) != 0;
    if (cls & C_SPACE) {
        if (p->wstart >= 0)
            end_word(p, i, out);
        return;
    }
    if (p->wstart < 0) {
        p->wstart = i;
        p->key = 0;
        p->klen = 0;
        p->ok = 1;
    }
    if (p->ok) {
        int k = p->klen < n_words_max ? lower_index(c) : 0;
        if (k)
            p->key |= (uint64_t)k << (8 * p->klen++);
        else
            p->ok = 0;
    }
}

/* One pass over data[0:n]; ``kind`` is a constant at each call site. */
static inline __attribute__((always_inline)) void count_text(int kind, const void *data,
                                                             Py_ssize_t n, Py_ssize_t *out)
{
    Pass p = {.wstart = -1, .ns = n < sample_len ? n : sample_len};
    Py_ssize_t ncjk = 0, i;
    memset(out, 0, sizeof(Py_ssize_t) * (VOTES + n_langs));
    for (i = 0; i < p.ns; i++) {
        Py_UCS4 c = PyUnicode_READ(kind, data, i);
        ncjk += c >= cjk_lo && c <= cjk_hi;
        step(&p, c, i, out);
    }
    p.skey = p.key;
    p.sok = p.ok;
    for (; i < n; i++)
        step(&p, PyUnicode_READ(kind, data, i), i, out);
    if (p.wstart >= 0)
        end_word(&p, n, out);
    out[N_CHARS] = n;
    out[N_WORDS] = p.nwords;
    out[LEN_SUM] = p.lensum;
    out[N_STOP] = p.nstop;
    out[N_PUNCT] = p.npunct;
    out[N_SAMPLE] = p.ns;
    out[N_CJK] = ncjk;
    out[N_SWORDS] = p.nsw;
}

static PyObject *counts(PyObject *Py_UNUSED(self), PyObject *texts)
{
    if (!PyList_Check(texts)) {
        PyErr_SetString(PyExc_TypeError, "textkernel.counts: expected a list of str");
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(texts), width = VOTES + n_langs, c[VOTES + LANG_CAP];
    PyObject *res = PyList_New(n);
    if (!res)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *s = PyList_GET_ITEM(texts, i);
        if (!PyUnicode_Check(s)) {
            PyErr_SetString(PyExc_TypeError, "textkernel.counts: expected a list of str");
            goto fail;
        }
        const void *data = PyUnicode_DATA(s);
        Py_ssize_t len = PyUnicode_GET_LENGTH(s);
        switch (PyUnicode_KIND(s)) {
        case PyUnicode_1BYTE_KIND:
            count_text(PyUnicode_1BYTE_KIND, data, len, c);
            break;
        case PyUnicode_2BYTE_KIND:
            count_text(PyUnicode_2BYTE_KIND, data, len, c);
            break;
        default:
            count_text(PyUnicode_4BYTE_KIND, data, len, c);
        }
        PyObject *row = PyTuple_New(width);
        if (!row)
            goto fail;
        PyList_SET_ITEM(res, i, row);
        for (Py_ssize_t j = 0; j < width; j++) {
            PyObject *v = PyLong_FromSsize_t(c[j]);
            if (!v)
                goto fail;
            PyTuple_SET_ITEM(row, j, v);
        }
    }
    return res;
fail:
    Py_DECREF(res);
    return NULL;
}

static PyObject *lower_map(PyObject *Py_UNUSED(self), PyObject *Py_UNUSED(args))
{
    PyObject *d = PyDict_New();
    for (int i = 0; d && i < n_map; i++) {
        PyObject *k = PyUnicode_FromOrdinal(map_cp[i]), *v = PyUnicode_FromOrdinal(alpha[map_idx[i]]);
        int rc = k && v ? PyDict_SetItem(d, k, v) : -1;
        Py_XDECREF(k);
        Py_XDECREF(v);
        if (rc < 0)
            Py_CLEAR(d);
    }
    return d;
}

static PyMethodDef methods[] = {
    {"init", init, METH_VARARGS,
     "init(words, n_langs, punct, cjk_lo, cjk_hi, sample): set the word lists and the counted sets."},
    {"counts", counts, METH_O, "counts(texts) -> one tuple of integer counts per text."},
    {"lower_map", lower_map, METH_NOARGS,
     "lower_map() -> {non-ASCII char: its lowercase} for the chars that lowercase into the alphabet."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moddef = {
    PyModuleDef_HEAD_INIT, .m_name = "textkernel", .m_size = -1, .m_methods = methods};

PyMODINIT_FUNC PyInit_textkernel(void)
{
    for (Py_UCS4 c = 0; c < 0x10000; c++)
        if (Py_UNICODE_ISSPACE(c))
            bmp_class[c] = C_SPACE;
    return PyModule_Create(&moddef);
}
