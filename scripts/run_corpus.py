"""Corpus-run CLI — the `ray job submit` entry point DEPLOY.md
describes. Ties the config surface together the way the reference's
main window does for one click of "start batch": load config (S5),
pick the model (T4 fallback rule), resolve provider params (T7),
build the engine stage, run the checkpointed extraction (or the staged
curation pipeline), watching the config file between waves (T8).

Usage (single node shown; on a cluster wrap with `ray job submit`):

    python -m scripts.run_corpus --input /data/pages --out /data/out
    python -m scripts.run_corpus --input ... --out ... --model stub-vlm \
        --config cfg.json --wave-shards 8
    python -m scripts.run_corpus --input ... --out ... --pipeline training \
        --near-dedup

This script OWNS the Ray session (guarded init) — the library never
calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--input", required=True, help="pages parquet dir (or file)")
    ap.add_argument("--out", required=True, help="output/checkpoint directory")
    ap.add_argument(
        "--pipeline", choices=["extract", "training"], default="extract",
        help="flagship extraction or the staged curation run",
    )
    ap.add_argument("--config", default=None, help="engine config JSON (S5)")
    ap.add_argument("--model", default=None, help="model id from the config (T4)")
    ap.add_argument("--prompt", default="", help="prompt override (M4 defaulting applies)")
    ap.add_argument("--wave-shards", type=int, default=None, help="shards per checkpoint wave")
    ap.add_argument("--no-resume", action="store_true", help="ignore existing manifest")
    ap.add_argument("--compact", action="store_true",
                    help="after the run, compact the results store to one "
                         "file per shard (atomic; manifest contracts kept). "
                         "EXCLUSIVE-WRITER: compaction garbage-collects every "
                         "store directory the manifest does not reference — "
                         "never run it while another process is writing the "
                         "same store; a .writer.lock in the store root "
                         "enforces this (StoreLockedError; see DEPLOY.md)")
    ap.add_argument("--near-dedup", action="store_true",
                    help="training pipeline: add the MinHash near-dup stage 3")
    ap.add_argument("--max-per-domain", type=int, default=None,
                    help="training pipeline: per-site sampling cap after dedup")
    ap.add_argument("--blocklist", default=None, metavar="FILE",
                    help="training pipeline: domain blocklist file (one "
                         "domain per line, '#' comments; '*.d.com' ≡ 'd.com'; "
                         "parent-domain suffix matching) applied BEFORE "
                         "extraction; summary reports n_blocked")
    ap.add_argument("--decontam-dir", default=None, metavar="DIR",
                    help="training pipeline: parquet dir/file of benchmark "
                         "texts; curated docs with shingle containment >= "
                         "--decontam-threshold are dropped (or marked); "
                         "summary reports n_contaminated")
    ap.add_argument("--decontam-col", default="text",
                    help="column holding benchmark text in --decontam-dir "
                         "(default: text)")
    ap.add_argument("--decontam-mode", choices=["drop", "mark"], default="drop",
                    help="drop contaminated docs (default) or keep them with "
                         "contamination/contaminated audit columns")
    ap.add_argument("--decontam-threshold", type=float, default=0.5,
                    help="containment score threshold (default 0.5)")
    ap.add_argument("--quality-stats", action="store_true",
                    help="training pipeline: report p50/p90/p99 of the "
                         "curated quality score (approx_quantiles — one "
                         "extra streaming pass) in the summary")
    ap.add_argument("--concurrency", type=int, default=None,
                    help="actor-pool size for heavy engines (default: task pool)")
    ap.add_argument("--num-cpus", type=int, default=None, help="ray.init num_cpus (local)")
    args = ap.parse_args(argv)

    sys.path.insert(0, __file__.rsplit("/", 2)[0])

    if args.pipeline == "training":
        # the training pipeline hardcodes the routed dual-engine chain;
        # silently ignoring engine-selection flags would misreport what
        # ran, so reject them explicitly
        for flag, val, default in (
            ("--config", args.config, None),
            ("--model", args.model, None),
            ("--prompt", args.prompt, ""),
            ("--concurrency", args.concurrency, None),
        ):
            if val != default:
                ap.error(f"{flag} is not supported with --pipeline training "
                         "(the curation run uses the routed dual-engine chain)")
    else:
        # the curation gates are stages of the training pipeline only —
        # a silently-ignored blocklist would be a curation hazard
        for flag, val in (
            ("--blocklist", args.blocklist),
            ("--decontam-dir", args.decontam_dir),
            ("--quality-stats", args.quality_stats or None),
            ("--near-dedup", args.near_dedup or None),
            ("--max-per-domain", args.max_per_domain),
        ):
            if val is not None:
                ap.error(f"{flag} requires --pipeline training")
        if args.no_resume and args.config and args.wave_shards:
            # the hot-reload loop runs one wave per call and must resume
            # from the manifest between calls, so --no-resume would redo
            # one wave and then trust an earlier run's records
            ap.error("--no-resume cannot be combined with the --config "
                     "hot-reload loop (--wave-shards): later waves resume "
                     "from the manifest; use a fresh --out instead")

    blocklist = None
    if args.blocklist is not None:
        with open(args.blocklist) as f:
            # '#' starts a comment anywhere on the line (hosts-file
            # style) — a trailing "domain  # why" must yield 'domain',
            # not a garbage entry that silently matches nothing
            blocklist = [
                entry for line in f
                if (entry := line.split("#", 1)[0].strip())
            ]

    decontam_texts = None
    if args.decontam_dir is not None:
        # a benchmark suite is tiny next to the corpus — a driver-side
        # pyarrow read is the right tool (no Ray session needed yet)
        import pyarrow.parquet as _pq

        from xs_vlm_ocr_ray.sources.pages import list_shards as _list_shards

        decontam_texts = []
        for p in _list_shards(args.decontam_dir):
            decontam_texts.extend(
                _pq.read_table(p, columns=[args.decontam_col])
                [args.decontam_col].to_pylist()
            )
        if not decontam_texts:
            ap.error(f"--decontam-dir {args.decontam_dir}: no rows found")

    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "logging_level": logging.ERROR}
        if args.num_cpus is not None:
            kwargs.update(address="local", num_cpus=args.num_cpus)
        ray.init(**kwargs)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    if args.pipeline == "training":
        from xs_vlm_ocr_ray.pipelines.training import run_training_pipeline

        summary = run_training_pipeline(
            args.input,
            out_dir=args.out,
            resume=not args.no_resume,
            wave_shards=args.wave_shards,
            near_dedup=args.near_dedup,
            max_per_domain=args.max_per_domain,
            blocklist=blocklist,
            decontam_texts=decontam_texts,
            decontam_threshold=args.decontam_threshold,
            decontam_mode=args.decontam_mode,
            quality_stats=args.quality_stats,
        )
    else:
        from xs_vlm_ocr_ray.engines.config import ConfigWatcher, default_config
        from xs_vlm_ocr_ray.engines.registry import build_engine_stage
        from xs_vlm_ocr_ray.pipelines.extract import run_extract

        watcher = None
        if args.config:
            watcher = ConfigWatcher(args.config)
            cfg = watcher.config
            if cfg is None:
                print(f"cannot read config {args.config}: {watcher.last_error}",
                      file=sys.stderr)
                return 2
        else:
            cfg = default_config()
        if args.model is not None and not any(
            m.id == args.model and m.enabled for m in cfg.models
        ):
            # the LIBRARY's pick_model keeps the reference's
            # fallback-to-first-enabled (MainWindow.cpp:960-975), but an
            # EXPLICIT CLI request that matches nothing is a typo: the
            # fallback would silently run a different engine (and key the
            # dedup cache under its id) — misreporting what ran
            enabled = [m.id for m in cfg.models if m.enabled]
            print(f"--model {args.model!r} is not an enabled model in the "
                  f"config (enabled: {enabled})", file=sys.stderr)
            return 2
        cls, kwargs = build_engine_stage(cfg, args.model, prompt=args.prompt)

        def one_run(resume: bool, max_waves=None) -> dict:
            return run_extract(
                args.input,
                args.out,
                engine_cls=cls,
                engine_kwargs=kwargs,
                concurrency=args.concurrency,
                batch_size=cfg.settings.batch_size if args.concurrency else None,
                resume=resume,
                wave_shards=args.wave_shards,
                max_waves=max_waves,
            )

        if watcher is not None and args.wave_shards:
            # T8 for real: run wave-at-a-time, re-polling the config
            # file between waves and rebuilding the engine stage when it
            # changed — the reload point the ConfigWatcher docstring
            # prescribes ("call it before building each wave's actor
            # pools"). Without this loop the watcher was constructed and
            # never polled again, so the advertised hot reload was inert.
            total_waves, total_wall = 0, 0.0
            while True:
                summary = one_run(True, max_waves=1)
                total_waves += summary["waves"]
                total_wall += summary["wall_s"]
                if summary["waves"] == 0:
                    break
                if watcher.poll():
                    cfg = watcher.config
                    cls, kwargs = build_engine_stage(
                        cfg, args.model, prompt=args.prompt
                    )
            summary["waves"] = total_waves
            summary["wall_s"] = total_wall
        else:
            summary = one_run(not args.no_resume)

    if args.compact:
        from xs_vlm_ocr_ray.pipelines.extract import compact_results

        target = args.out if args.pipeline == "extract" else f"{args.out}/stage1"
        summary["compaction"] = compact_results(target)

    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
