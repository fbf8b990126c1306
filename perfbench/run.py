"""Benchmark of the xs_vlm_ocr_ray extraction engine on one host.

Run from the root of a checkout:

    python3 perfbench/run.py --workload curate --seed 1 --seconds 20 --trace 0

Workloads: extract_giant, store_readback, curate (see
perfbench/README.md). With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced single-process pass, and the spans are
written to ``.perfbench/spans-<workload>-s<seed>.json``. The line
before it carries the environment and every sample behind the figures.
The exit code is 0 only when every operation passed its correctness
gate; 2 when the package is not in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

PACKAGE = "xs_vlm_ocr_ray"
# the argparse choices: the keys of perfbench.workloads.WORKLOADS, which
# cannot be imported before the package check below (a test keeps them equal)
WORKLOADS = ("extract_giant", "store_readback", "curate")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, PACKAGE, "__init__.py")):
        print(f"perfbench: no {PACKAGE} package in {root}: run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    # the Ray workers import the package from the checkout as well
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p
    )
    from perfbench import bench, harness

    harness.ray_stop()
    try:
        result, detail = bench.run(args, root)
    finally:
        harness.ray_stop()
        left = harness.wait_children()
    if left:
        bench.log(f"processes still running at exit: {left}")
    for p in detail["problems"]:
        bench.log(f"FAILED: {p}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
