"""The size of the Ray session, read one way by every stage that sizes
its work to it: the results store's read tasks
(``pipelines/extract.read_results``) and the hash-join partitions
(``stages/dedup._join_partitions``)."""

from __future__ import annotations

import os

import ray


def cluster_cpus() -> int:
    """CPUs of the Ray session the next Dataset runs on. With no session
    yet, Ray Data's first execution starts one over every CPU of this
    machine (Ray's auto-init), so that is the count; this package never
    starts Ray itself."""
    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", 0))
    return os.cpu_count() or 1
