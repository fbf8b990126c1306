"""Seeded input corpora for the benchmark workloads.

Every corpus is a pure function of ``(workload, seed)``: pages come from
``xs_vlm_ocr_ray.fixtures.gen_page`` with that seed, and every choice the
benchmark adds (which giant pages get an unclosed anchor, which pages
are copies, which copies are edited) is drawn from a ``random.Random``
seeded with a string, so the bytes are identical across processes and
hosts. The program only ever sees the parquet files written here.

Giant-DOM pages (100 to 500 KB each) hold most of a corpus's bytes, so
the giant pages a seed happens to draw would make a run's cost swing
with the seed. Every corpus therefore takes its giant pages from a pool
of the seed's first giant pages, chosen so that their total size is as
close as the pool allows to ``GIANT_PAGE_BYTES`` per page: the giant
share and each page stay as the fixtures make them, only which of them
appear is balanced.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

from xs_vlm_ocr_ray.fixtures import PAGES_SCHEMA, gen_page, scenario_for

# the mean html size of a fixtures giant page (233 KB over 180 pages of
# seeds 100 to 102), and how many candidates a corpus draws per giant page
GIANT_PAGE_BYTES = 233_000
GIANT_POOL_FACTOR = 1.5
# store_readback: the FIXTURES F1 scenario mix, small enough that a run
# holds many read sequences
STORE_PAGES = 400
STORE_SHARDS = 4
# extract_giant: only giant-DOM pages, split at 64 KiB
GIANT_PAGES = 40
GIANT_SHARDS = 2
GIANT_SEGMENT_BYTES = 64 << 10
GIANT_ANCHOR_SHARE = 0.25
UNCLOSED_ANCHOR = b'<a href="#top">'
# curate: F1 mix where a share of pages re-publish an earlier page
CURATE_PAGES = 600
CURATE_SHARDS = 4
CURATE_COPY_SHARE = 0.30
CURATE_EDITED_SHARE = 1 / 3


@dataclass
class Corpus:
    """One generated corpus: its pages table and how it is sharded."""

    table: pa.Table
    shards: int
    giant_anchor_urls: frozenset[str] = frozenset()
    copy_urls: frozenset[str] = frozenset()
    edited_urls: frozenset[str] = frozenset()

    def shard_tables(self) -> list[pa.Table]:
        """Contiguous, near-equal row slices in shard order."""
        n = self.table.num_rows
        bounds = [n * k // self.shards for k in range(self.shards + 1)]
        return [self.table.slice(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]

    def write(self, out_dir: str) -> list[str]:
        """Write one parquet file per shard; file order is shard order."""
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for k, t in enumerate(self.shard_tables()):
            path = os.path.join(out_dir, f"pages-{k:04d}.parquet")
            pq.write_table(t, path)
            paths.append(path)
        return paths

    def head(self, n_rows: int) -> "Corpus":
        """The first ``n_rows`` pages as a one-shard corpus."""
        return Corpus(self.table.slice(0, n_rows), 1)


def giant_indices(count: int) -> list[int]:
    """The first ``count`` giant-DOM row indices of the F1 mix."""
    out: list[int] = []
    i = 0
    while len(out) < count:
        if i % 100 in (96, 98):
            out.append(i)
        i += 1
    return out


def balanced_giants(seed: int, count: int) -> list[dict]:
    """``count`` giant pages of the seed, in index order, picked from its
    first ``GIANT_POOL_FACTOR * count`` giant pages: a seeded draw, then
    single swaps with the rest of the pool while a swap brings the total
    html size closer to ``count * GIANT_PAGE_BYTES``."""
    if count == 0:
        return []
    pool = [gen_page(i, seed)
            for i in giant_indices(max(count + 1, round(count * GIANT_POOL_FACTOR)))]
    size = [len(p["html"]) for p in pool]
    rng = random.Random(f"perfbench:giants:{seed}:{count}")
    chosen = set(rng.sample(range(len(pool)), count))
    gap = sum(size[j] for j in chosen) - count * GIANT_PAGE_BYTES
    while True:
        best = min(
            ((abs(gap - size[a] + size[b]), a, b)
             for a in chosen for b in range(len(pool)) if b not in chosen),
            default=None,
        )
        if best is None or best[0] >= abs(gap):
            break
        _, a, b = best
        chosen.remove(a)
        chosen.add(b)
        gap += size[b] - size[a]
    return [pool[j] for j in sorted(chosen)]


def mix_rows(seed: int, n_pages: int) -> list[dict]:
    """The F1 mix of rows ``0 .. n_pages - 1``, its giant slots filled,
    in order, with the seed's balanced giant pages."""
    slots = [i for i in range(n_pages) if scenario_for(i) == "giant"]
    giants = iter(balanced_giants(seed, len(slots)))
    return [next(giants) if scenario_for(i) == "giant" else gen_page(i, seed)
            for i in range(n_pages)]


def mix_corpus(seed: int, n_pages: int, shards: int) -> Corpus:
    return Corpus(pa.Table.from_pylist(mix_rows(seed, n_pages), schema=PAGES_SCHEMA), shards)


def store_corpus(seed: int) -> Corpus:
    return mix_corpus(seed, STORE_PAGES, STORE_SHARDS)


def giant_corpus(
    seed: int, n_pages: int = GIANT_PAGES, shards: int = GIANT_SHARDS
) -> Corpus:
    """Giant pages; a seeded quarter carry an unclosed ``<a>`` right
    after ``<body>``, which leaves the scanner's anchor depth open."""
    rows = balanced_giants(seed, n_pages)
    rng = random.Random(f"perfbench:giant:{seed}")
    k = round(n_pages * GIANT_ANCHOR_SHARE)
    anchored = set(rng.sample(range(n_pages), k))
    for j in anchored:
        html = rows[j]["html"]
        at = html.index(b"<body>") + len(b"<body>")
        rows[j]["html"] = html[:at] + UNCLOSED_ANCHOR + html[at:]
    return Corpus(
        pa.Table.from_pylist(rows, schema=PAGES_SCHEMA),
        shards,
        giant_anchor_urls=frozenset(rows[j]["url"] for j in anchored),
    )


def curate_corpus(
    seed: int, n_pages: int = CURATE_PAGES, shards: int = CURATE_SHARDS
) -> Corpus:
    """F1 pages where exactly ``CURATE_COPY_SHARE`` of the rows copy an
    earlier non-empty original under their own url, and a third of
    those copies carry one inserted paragraph. Giant pages are neither
    replaced by a copy nor copied: they hold most of the bytes, so a
    seeded number of them would make the corpus size, and a run's cost,
    swing with the seed (by ±30% at 600 pages)."""
    rows = mix_rows(seed, n_pages)
    rng = random.Random(f"perfbench:curate:{seed}")
    n_copies = round(n_pages * CURATE_COPY_SHARE)
    candidates = [i for i in range(1, n_pages) if scenario_for(i) != "giant"]
    copies = sorted(rng.sample(candidates, n_copies))
    edited = set(rng.sample(copies, round(n_copies * CURATE_EDITED_SHARE)))
    is_copy = set(copies)
    originals: list[int] = []  # non-empty, non-giant originals seen so far
    words = "copy edit note update revision paragraph source page text".split()
    for i in range(n_pages):
        if i not in is_copy:
            if rows[i]["html"] and scenario_for(i) != "giant":
                originals.append(i)
            continue
        src = rows[originals[rng.randrange(len(originals))]]
        html = src["html"]
        if i in edited:
            sentence = " ".join(rng.choice(words) for _ in range(12))
            at = html.index(b"<main><article>") + len(b"<main><article>")
            html = html[:at] + f"<p>{sentence.capitalize()}.</p>".encode() + html[at:]
        rows[i] = {**src, "url": rows[i]["url"], "warc_ts": rows[i]["warc_ts"], "html": html}
    return Corpus(
        pa.Table.from_pylist(rows, schema=PAGES_SCHEMA),
        shards,
        copy_urls=frozenset(rows[i]["url"] for i in copies),
        edited_urls=frozenset(rows[i]["url"] for i in edited),
    )
