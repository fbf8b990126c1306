"""Regenerate ``perfbench/digests.json`` from the serial reference.

    python3 perfbench/make_digests.py 0 20    # seeds 0..20 inclusive

Run it only when a change to the extractor's output is intended; the
committed digests are what pins the extracted bytes between versions.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv: list[str]) -> int:
    root = os.getcwd()
    sys.path.insert(0, root)
    from perfbench import gate
    from perfbench.workloads import WORKLOADS

    lo, hi = int(argv[0]), int(argv[1])
    out: dict[str, dict] = {}
    for workload, cls in WORKLOADS.items():
        entries = out.setdefault(workload, {})
        for seed in range(lo, hi + 1):
            ref = gate.Reference(cls.build_corpus(seed))
            entries[str(seed)] = ref.curate_counts() if workload == "curate" else ref.digest()
            print(workload, seed, entries[str(seed)], file=sys.stderr, flush=True)
    with open(gate.DIGESTS_PATH, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
