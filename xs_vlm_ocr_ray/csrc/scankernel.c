/* Native tag-stream scanner: the C port of ``extract._scan``.
 *
 * One state machine with two outputs, over the PEP 393 buffer of a str
 * (UCS1/2/4):
 *   spans(doc) -> list[str]   the kept block texts, in document order;
 *   cuts(doc)  -> list[int]   the split points, as utf-8 BYTE offsets.
 * ``init(block_tags, boiler_tags, suppress_tags, unescape)`` must run
 * first: the tag sets and the entity decoder stay defined once, in
 * extract.py.
 *
 * It matches the Python scanner exactly (tests/test_scan_equivalence.py):
 * - whitespace is Py_UNICODE_ISSPACE, the predicate of str.isspace(),
 *   str.split() and the re module's \s;
 * - tag names are ASCII [a-zA-Z][a-zA-Z0-9]*, lowercased in ASCII;
 * - block lengths are counted in code points (_keep_block);
 * - an unterminated '<' is skipped as one char, an unterminated comment
 *   ends the document;
 * - a block or link text that contains '&' is joined and passed through
 *   the Python ``unescape`` before it is normalized, so entity decoding
 *   is html.unescape's by construction.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#define T_BLOCK 1
#define T_BOILER 2
#define T_SUPPRESS 4
#define T_A 8
#define NAME_CAP 16 /* longer tag names are in no tag set */
#define SLOTS 256   /* open-addressing table of the tag names */
/* extract._keep_block: LONG_BLOCK_CHARS and the 1/3, 2/3 link shares */
#define LONG_BLOCK_CHARS 200

typedef struct {
    unsigned char len, cls;
    char name[NAME_CAP];
} Tag;

/* Py_UNICODE_ISSPACE over the BMP, one bit per code point, filled at
 * module init: a table read instead of a call per non-ASCII char. */
static unsigned char bmp_space[0x10000 / 8];
#define IS_SPACE(c) \
    ((c) < 0x10000 ? (bmp_space[(c) >> 3] >> ((c) & 7)) & 1 : Py_UNICODE_ISSPACE(c))

static Tag tags[SLOTS];
static int n_tags;
static PyObject *unescape; /* extract._unescape; NULL until init */

static unsigned slot_of(const char *s, Py_ssize_t len)
{
    unsigned h = 2166136261u;
    for (Py_ssize_t i = 0; i < len; i++)
        h = (h ^ (unsigned char)s[i]) * 16777619u;
    return h & (SLOTS - 1);
}

static unsigned find_slot(const char *s, Py_ssize_t len)
{
    unsigned h = slot_of(s, len);
    while (tags[h].len && !(tags[h].len == len && memcmp(tags[h].name, s, len) == 0))
        h = (h + 1) & (SLOTS - 1);
    return h;
}

static int tag_class(const char *s, Py_ssize_t len)
{
    return len > NAME_CAP ? 0 : tags[find_slot(s, len)].cls;
}

static int add_tag(const char *s, Py_ssize_t len, int cls)
{
    if (len < 1 || len > NAME_CAP || n_tags >= SLOTS / 2) {
        PyErr_Format(PyExc_ValueError, "scankernel: bad tag name or too many tags: %s", s);
        return -1;
    }
    unsigned h = find_slot(s, len);
    if (!tags[h].len) {
        tags[h].len = (unsigned char)len;
        memcpy(tags[h].name, s, len);
        n_tags++;
    }
    tags[h].cls |= cls;
    return 0;
}

static int add_tags(PyObject *names, int cls)
{
    PyObject *it = PyObject_GetIter(names), *o;
    if (!it)
        return -1;
    while ((o = PyIter_Next(it))) {
        Py_ssize_t len;
        const char *s = PyUnicode_AsUTF8AndSize(o, &len);
        int rc = s ? add_tag(s, len, cls) : -1;
        Py_DECREF(o);
        if (rc < 0) {
            Py_DECREF(it);
            return -1;
        }
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : 0;
}

static PyObject *init(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *block, *boiler, *suppress, *fn;
    if (!PyArg_ParseTuple(args, "OOOO:init", &block, &boiler, &suppress, &fn))
        return NULL;
    if (!PyCallable_Check(fn)) {
        PyErr_SetString(PyExc_TypeError, "scankernel.init: unescape must be callable");
        return NULL;
    }
    memset(tags, 0, sizeof tags);
    n_tags = 0;
    if (add_tags(block, T_BLOCK) < 0 || add_tags(boiler, T_BOILER) < 0 ||
        add_tags(suppress, T_SUPPRESS) < 0 || add_tag("a", 1, T_A) < 0)
        return NULL;
    Py_INCREF(fn);
    Py_XSETREF(unescape, fn);
    Py_RETURN_NONE;
}

/* A kept text run doc[s:e]; ``link`` when it lies inside an <a>. */
typedef struct {
    Py_ssize_t s, e;
    int link;
} Run;

/* The document and the pending block: its runs and a scratch buffer. */
typedef struct {
    int kind;
    const void *data;
    Run *runs;
    Py_ssize_t nruns, cap, nlink, chars;
    void *out; /* chars units of ``kind`` */
    Py_ssize_t out_cap;
} Block;

#define CH(k, d, i) PyUnicode_READ((k), (d), (i))

static Py_ssize_t find_char(int kind, const void *data, Py_ssize_t from, Py_ssize_t n, Py_UCS4 ch)
{
    if (kind == PyUnicode_1BYTE_KIND) {
        const Py_UCS1 *p = memchr((const Py_UCS1 *)data + from, (int)ch, n - from);
        return p ? p - (const Py_UCS1 *)data : -1;
    }
    for (Py_ssize_t i = from; i < n; i++)
        if (CH(kind, data, i) == ch)
            return i;
    return -1;
}

static int add_run(Block *b, Py_ssize_t s, Py_ssize_t e, int link)
{
    if (b->nruns == b->cap) {
        Py_ssize_t cap = b->cap ? 2 * b->cap : 64;
        Run *r = PyMem_Realloc(b->runs, cap * sizeof(Run));
        if (!r) {
            PyErr_NoMemory();
            return -1;
        }
        b->runs = r;
        b->cap = cap;
    }
    b->runs[b->nruns++] = (Run){s, e, link};
    b->nlink += link;
    b->chars += e - s;
    return 0;
}

/* " ".join(text.split()) of the joined runs (only the link runs when
 * ``link_only``), written to ``out`` unless it is NULL. Returns its
 * length in code points, or -1 on a '&' when ``stop_at_amp``. */
static Py_ssize_t norm_runs(int kind, const void *data, const Run *runs, Py_ssize_t nruns,
                            int link_only, int stop_at_amp, void *out)
{
    Py_ssize_t len = 0;
    int space = 0;
    for (Py_ssize_t r = 0; r < nruns; r++) {
        if (link_only && !runs[r].link)
            continue;
        for (Py_ssize_t i = runs[r].s; i < runs[r].e; i++) {
            Py_UCS4 c = CH(kind, data, i);
            if (IS_SPACE(c)) {
                space = len > 0;
                continue;
            }
            if (c == '&' && stop_at_amp)
                return -1;
            if (space) {
                if (out)
                    PyUnicode_WRITE(kind, out, len, ' ');
                len++;
                space = 0;
            }
            if (out)
                PyUnicode_WRITE(kind, out, len, c);
            len++;
        }
    }
    return len;
}

/* extract._norm of the joined runs: join, Python unescape, normalize. */
static PyObject *norm_unescaped(Block *b, int link_only)
{
    Py_ssize_t len = 0;
    for (Py_ssize_t r = 0; r < b->nruns; r++) {
        if (link_only && !b->runs[r].link)
            continue;
        Py_ssize_t w = b->runs[r].e - b->runs[r].s;
        memcpy((char *)b->out + len * b->kind,
               (const char *)b->data + b->runs[r].s * b->kind, w * b->kind);
        len += w;
    }
    PyObject *raw = PyUnicode_FromKindAndData(b->kind, b->out, len);
    if (!raw)
        return NULL;
    PyObject *fn = Py_NewRef(unescape); /* held across the call: init may rebind it */
    PyObject *u = PyObject_CallOneArg(fn, raw);
    Py_DECREF(fn);
    Py_DECREF(raw);
    if (!u)
        return NULL;
    if (!PyUnicode_Check(u)) {
        Py_DECREF(u);
        PyErr_SetString(PyExc_TypeError, "scankernel: unescape must return str");
        return NULL;
    }
    int kind = PyUnicode_KIND(u);
    Run all = {0, PyUnicode_GET_LENGTH(u), 0};
    void *buf = PyMem_Malloc(all.e ? all.e * kind : 1);
    if (!buf) {
        Py_DECREF(u);
        return PyErr_NoMemory();
    }
    len = norm_runs(kind, PyUnicode_DATA(u), &all, 1, 0, 0, buf);
    PyObject *text = PyUnicode_FromKindAndData(kind, buf, len);
    PyMem_Free(buf);
    Py_DECREF(u);
    return text;
}

static int keep_block(Py_ssize_t total, Py_ssize_t link)
{
    if (total == 0)
        return 0;
    if (link * 3 <= total)
        return 1;
    return total >= LONG_BLOCK_CHARS && link * 3 <= 2 * total;
}

/* The pending block ends: append its normalized text to ``spans`` when
 * _keep_block keeps it. Only called at boiler depth 0 (runs are only
 * recorded there). */
static int flush(Block *b, PyObject *spans)
{
    if (b->out_cap < b->chars) {
        void *o = PyMem_Realloc(b->out, b->chars * b->kind);
        if (!o) {
            PyErr_NoMemory();
            return -1;
        }
        b->out = o;
        b->out_cap = b->chars;
    }
    Py_ssize_t llen = 0;
    if (b->nlink) {
        llen = norm_runs(b->kind, b->data, b->runs, b->nruns, 1, 1, NULL);
        if (llen < 0) {
            PyObject *link = norm_unescaped(b, 1);
            if (!link)
                return -1;
            llen = PyUnicode_GET_LENGTH(link);
            Py_DECREF(link);
        }
    }
    /* after the link pass: norm_unescaped overwrites b->out */
    PyObject *text = NULL;
    Py_ssize_t tlen = norm_runs(b->kind, b->data, b->runs, b->nruns, 0, 1, b->out);
    if (tlen < 0) {
        if (!(text = norm_unescaped(b, 0)))
            return -1;
        tlen = PyUnicode_GET_LENGTH(text);
    }
    int rc = 0;
    if (keep_block(tlen, llen)) {
        if (!text)
            text = PyUnicode_FromKindAndData(b->kind, b->out, tlen);
        rc = text ? PyList_Append(spans, text) : -1;
    }
    Py_XDECREF(text);
    b->nruns = b->nlink = b->chars = 0;
    return rc;
}

static int ascii_alpha(Py_UCS4 c) { return (c | 0x20) >= 'a' && (c | 0x20) <= 'z'; }
static int ascii_alnum(Py_UCS4 c) { return ascii_alpha(c) || (c >= '0' && c <= '9'); }
static int utf8_len(Py_UCS4 c) { return c < 0x80 ? 1 : c < 0x800 ? 2 : c < 0x10000 ? 3 : 4; }

static PyObject *scan(PyObject *doc, int cuts)
{
    if (!PyUnicode_Check(doc)) {
        PyErr_SetString(PyExc_TypeError, "scankernel: doc must be str");
        return NULL;
    }
    if (!unescape) {
        PyErr_SetString(PyExc_RuntimeError, "scankernel: init() was not called");
        return NULL;
    }
    if (PyUnicode_READY(doc) < 0)
        return NULL;
    const int kind = PyUnicode_KIND(doc);
    const void *data = PyUnicode_DATA(doc);
    const Py_ssize_t n = PyUnicode_GET_LENGTH(doc);
    const int ascii = PyUnicode_IS_ASCII(doc);
    PyObject *out = PyList_New(0);
    if (!out)
        return NULL;
    Block b = {.kind = kind, .data = data};
    int boiler = 0, a_depth = 0, no_gt = 0, sup_len = 0;
    char sup[NAME_CAP], name[NAME_CAP];
    Py_ssize_t pos = 0, char_at = 0, byte_at = 0;

    while (pos < n) {
        Py_ssize_t lt = find_char(kind, data, pos, n, '<');
        if (lt < 0)
            lt = n;
        if (lt > pos) {
            /* a text run: kept unless suppressed or all whitespace; at
             * boiler depth > 0 its block is discarded anyway */
            if (!cuts && !sup_len && !boiler) {
                Py_ssize_t i = pos;
                while (i < lt && IS_SPACE(CH(kind, data, i)))
                    i++;
                if (i < lt && add_run(&b, pos, lt, a_depth > 0) < 0)
                    goto fail;
            }
            pos = lt;
            continue;
        }
        if (pos + 3 < n && CH(kind, data, pos + 1) == '!' && CH(kind, data, pos + 2) == '-' &&
            CH(kind, data, pos + 3) == '-') {
            Py_ssize_t end = -1;
            for (Py_ssize_t i = pos + 4; i + 2 < n; i++)
                if (CH(kind, data, i) == '-' && CH(kind, data, i + 1) == '-' &&
                    CH(kind, data, i + 2) == '>') {
                    end = i;
                    break;
                }
            pos = end < 0 ? n : end + 3;
            continue;
        }
        /* once no '>' follows some '<', none follows a later one */
        Py_ssize_t gt = no_gt ? -1 : find_char(kind, data, pos + 1, n, '>');
        if (gt < 0) {
            no_gt = 1;
            pos++;
            continue;
        }
        /* </?\s*([a-zA-Z][a-zA-Z0-9]*): no part of it can pass the '>' */
        int closing = CH(kind, data, pos + 1) == '/';
        Py_ssize_t j = pos + 1 + closing;
        while (IS_SPACE(CH(kind, data, j)))
            j++;
        Py_UCS4 c = CH(kind, data, j);
        if (!ascii_alpha(c)) { /* doctype, malformed */
            pos = gt + 1;
            continue;
        }
        Py_ssize_t len = 0;
        for (; ascii_alnum(c); c = CH(kind, data, ++j), len++)
            if (len < NAME_CAP)
                name[len] = (char)(c | 0x20); /* ASCII lower; digits keep */
        if (sup_len) {
            if (closing && len == sup_len && memcmp(name, sup, len) == 0)
                sup_len = 0;
            pos = gt + 1;
            continue;
        }
        int cls = tag_class(name, len);
        if (cls & T_SUPPRESS) {
            if (!closing && CH(kind, data, gt - 1) != '/') {
                memcpy(sup, name, len);
                sup_len = (int)len;
            }
        }
        else if (cls & T_BLOCK) {
            if (b.nruns && flush(&b, out) < 0)
                goto fail;
            if (cuts && !boiler) {
                if (ascii)
                    byte_at = pos;
                else
                    for (; char_at < pos; char_at++)
                        byte_at += utf8_len(CH(kind, data, char_at));
                PyObject *o = PyLong_FromSsize_t(byte_at);
                if (!o || PyList_Append(out, o) < 0) {
                    Py_XDECREF(o);
                    goto fail;
                }
                Py_DECREF(o);
            }
            a_depth = 0;
            if (cls & T_BOILER) {
                if (!closing)
                    boiler++;
                else if (boiler > 0)
                    boiler--;
            }
        }
        else if (cls & T_A) {
            if (!closing)
                a_depth++;
            else if (a_depth > 0)
                a_depth--;
        }
        pos = gt + 1;
    }
    if (b.nruns && flush(&b, out) < 0)
        goto fail;
    PyMem_Free(b.runs);
    PyMem_Free(b.out);
    return out;
fail:
    PyMem_Free(b.runs);
    PyMem_Free(b.out);
    Py_DECREF(out);
    return NULL;
}

static PyObject *spans(PyObject *Py_UNUSED(self), PyObject *doc) { return scan(doc, 0); }
static PyObject *cuts(PyObject *Py_UNUSED(self), PyObject *doc) { return scan(doc, 1); }

static PyMethodDef methods[] = {
    {"init", init, METH_VARARGS,
     "init(block_tags, boiler_tags, suppress_tags, unescape): set the tag sets and the entity decoder."},
    {"spans", spans, METH_O, "spans(doc) -> kept block texts in document order."},
    {"cuts", cuts, METH_O, "cuts(doc) -> utf-8 byte offsets of the split points."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moddef = {
    PyModuleDef_HEAD_INIT, .m_name = "scankernel", .m_size = -1, .m_methods = methods};

PyMODINIT_FUNC PyInit_scankernel(void)
{
    for (Py_UCS4 c = 0; c < 0x10000; c++)
        if (Py_UNICODE_ISSPACE(c))
            bmp_space[c >> 3] |= (unsigned char)(1 << (c & 7));
    return PyModule_Create(&moddef);
}
