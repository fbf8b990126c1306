"""Local replica of the driver's correctness gate: run every queries()
entry at a given sf and compare against oracle_sql() via DuckDB —
row count + column names + order-insensitive value comparison.

Usage: python scripts/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import logging
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    assert isinstance(res, pd.DataFrame), type(res)
    return res


def canon(df):
    df = df.copy()
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def main() -> int:
    import duckdb
    import pandas as pd

    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    # the Ray workers import the package from this checkout as well
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    ray.init(
        address="local", num_cpus=8, include_dashboard=False,
        ignore_reinit_error=True, logging_level=logging.ERROR,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    qs = e.queries()
    oracles = e.oracle_sql()
    unknown = only - set(qs)
    if unknown:
        # a typo'd name would otherwise be silently skipped and the
        # gate would pass vacuously with exit code 0
        print(f"unknown query name(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as ex:  # noqa: BLE001
            failures.append((name, f"query raised: {ex!r}"))
            print(f"FAIL {name}: raised {ex!r}")
            continue
        if name not in oracles:
            print(f"ok   {name}: rows-only ({len(mine)} rows)")
            continue
        ref = canon(con.execute(oracles[name]).fetchdf())
        if list(mine.columns) != list(ref.columns):
            failures.append((name, f"columns {list(mine.columns)} vs {list(ref.columns)}"))
            print(f"FAIL {name}: columns {list(mine.columns)} vs {list(ref.columns)}")
            continue
        if len(mine) != len(ref):
            failures.append((name, f"rows {len(mine)} vs {len(ref)}"))
            print(f"FAIL {name}: rows {len(mine)} vs {len(ref)}")
            continue
        try:
            pd.testing.assert_frame_equal(
                mine, ref, check_dtype=False, check_exact=False, rtol=0, atol=1e-9
            )
            print(f"ok   {name}: {len(mine)} rows match oracle")
        except AssertionError as ex:
            failures.append((name, str(ex).splitlines()[0]))
            print(f"FAIL {name}: value mismatch: {str(ex)[:400]}")
    ray.shutdown()
    print(f"\n{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
