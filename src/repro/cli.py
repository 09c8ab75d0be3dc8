"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands cover the full workflow a downstream user needs: generating
rule-based libraries, running DRC, inspecting squish representations,
rendering clips, building the model zoo, managing sharded library
snapshots (``repro library info|merge``, ``generate --library-dir``),
serving concurrent clients over TCP (``repro serve``), and regenerating
every table and figure of the paper.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PatternPaint (DAC 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate",
        help="generate a clip library with any registered backend",
    )
    gen.add_argument("--deck", default="advanced",
                     choices=["basic", "complex", "advanced"])
    gen.add_argument("--backend", default="rule", metavar="NAME",
                     help="generator backend from the repro.engine registry "
                          "(built-in: patternpaint, diffpattern, cup, rule, "
                          "solver; user-registered names also work)")
    gen.add_argument("-j", "--jobs", type=_positive_int, default=1,
                     help="worker count for the denoise/DRC stages")
    gen.add_argument("--model-jobs", type=_positive_int, default=1,
                     metavar="N",
                     help="process workers for the model sampling stage "
                          "itself (model-backed backends; chunks of the "
                          "model batch fan out to worker-local models, "
                          "bit-identical to serial; default: 1, serial)")
    gen.add_argument("-n", "--count", type=_positive_int, default=20)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output .npz path")
    gen.add_argument("--library-shards", type=_positive_int, default=None,
                     metavar="N",
                     help="shard the dedup library by pattern-hash prefix "
                          "(contents are identical for any value; default: "
                          "keep an existing snapshot's layout, else 1)")
    gen.add_argument("--library-dir", default=None, metavar="DIR",
                     help="persistent library snapshot directory: existing "
                          "clips are loaded first (cross-run dedup), and the "
                          "grown library is saved back after generation")
    gen.add_argument("--drc-cache-dir", default=None, metavar="DIR",
                     help="persist the content-hash DRC verdict cache and "
                          "the sampler-plan warm cache here across runs "
                          "(loaded before generation, saved after; stale "
                          "files from edited decks are ignored "
                          "automatically)")

    drc = sub.add_parser("drc", help="run DRC over a clip library")
    drc.add_argument("library", help=".npz produced by 'generate' or the API")
    drc.add_argument("--deck", default="advanced",
                     choices=["basic", "complex", "advanced"])
    drc.add_argument("--verbose", action="store_true",
                     help="print per-clip violation summaries")

    squish_cmd = sub.add_parser("squish", help="inspect a clip's squish form")
    squish_cmd.add_argument("library")
    squish_cmd.add_argument("--index", type=int, default=0)

    render = sub.add_parser("render", help="render a clip to PNG / ASCII")
    render.add_argument("library")
    render.add_argument("--index", type=int, default=0)
    render.add_argument("--out", help="PNG output path (omit for ASCII)")

    zoo = sub.add_parser("zoo", help="build / inspect cached model artifacts")
    zoo.add_argument("action", choices=["build", "list"])

    serve = sub.add_parser(
        "serve",
        help="run the async generation service over a TCP line-JSON "
             "protocol (stdlib only, no web framework)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--http-port", type=int, default=None, metavar="PORT",
                       help="also serve an HTTP/1.1 gateway on this port: "
                            "POST /v1/generate, GET /v1/requests/<id> "
                            "(+ /events streaming), /v1/stats, /v1/healthz "
                            "(default: TCP only)")
    serve.add_argument("--port", type=int, default=8157,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--deck", default="advanced",
                       choices=["basic", "complex", "advanced"],
                       help="default deck for requests that name none")
    serve.add_argument("-j", "--jobs", type=_positive_int, default=1,
                       help="executor threads for the denoise/DRC stages")
    serve.add_argument("--model-jobs", type=_positive_int, default=1,
                       metavar="N",
                       help="process workers for the packed model stage "
                            "(default: 1, serial; the only knob that "
                            "opens a model process pool)")
    serve.add_argument("--queue-size", type=_positive_int, default=64,
                       help="bounded request queue depth (backpressure)")
    serve.add_argument("--max-batch", type=_positive_int, default=8,
                       metavar="N",
                       help="most requests one micro-batch may coalesce")
    serve.add_argument("--gather-window-ms", type=float, default=2.0,
                       metavar="MS",
                       help="how long to hold the window open for "
                            "co-arriving compatible requests")
    serve.add_argument("--library-shards", type=_positive_int, default=1,
                       metavar="N",
                       help="shard count for session library stores")
    serve.add_argument("--session-dir", default=None, metavar="DIR",
                       help="root directory for per-session library "
                            "snapshots (loaded on first use, checkpointed "
                            "between batches and at shutdown)")
    serve.add_argument("--checkpoint-every", type=_positive_int, default=None,
                       metavar="N",
                       help="snapshot a session's store every N merged "
                            "request batches (needs --session-dir; "
                            "default: only at shutdown)")
    serve.add_argument("--drc-cache-dir", default=None, metavar="DIR",
                       help="persist the content-hash DRC verdict cache "
                            "and the sampler-plan warm cache here across "
                            "server runs (loaded at startup, saved at "
                            "shutdown; shared by every worker process)")
    serve.add_argument("--workers", type=_positive_int, default=1,
                       metavar="N",
                       help="worker *processes*: 2+ fronts a multi-process "
                            "fleet (sticky key->worker routing, results "
                            "kept in global arrival order, crashed "
                            "workers respawned, session snapshots merged "
                            "at drain/shutdown); 1 (the default) runs the "
                            "single-process service.  Workers cannot open "
                            "process pools, so 2+ needs --model-jobs 1")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="S",
                       help="on SIGTERM/SIGINT, stop accepting requests "
                            "and wait up to S seconds for in-flight work "
                            "to finish before shutting down (0 skips the "
                            "drain)")

    lib = sub.add_parser(
        "library", help="inspect / merge sharded library snapshots"
    )
    lib_sub = lib.add_subparsers(dest="library_command", required=True)
    info = lib_sub.add_parser(
        "info", help="summarise a library snapshot directory"
    )
    info.add_argument("dir", help="directory written by --library-dir or "
                                  "'repro library merge'")
    merge = lib_sub.add_parser(
        "merge", help="merge snapshot directories (dedup, order-stable)"
    )
    merge.add_argument("out", help="output snapshot directory")
    merge.add_argument("sources", nargs="+", help="source snapshot directories")
    merge.add_argument("--shards", type=_positive_int, default=None,
                       help="re-shard the merged library (default: keep the "
                            "first source's layout)")

    for table in ("table1", "table2", "table3", "fig7", "fig9"):
        exp = sub.add_parser(table, help=f"reproduce {table} of the paper")
        exp.add_argument("--no-cache", action="store_true")

    fig8 = sub.add_parser("fig8", help="generate the Figure 8 gallery")
    fig8.add_argument("--out-dir", default=None)
    fig8.add_argument("--variations", type=int, default=5)

    return parser


def _cmd_generate(args) -> int:
    from pathlib import Path

    from .drc.decks import deck_by_name
    from .engine import GenerationRequest, get_backend, run_generation
    from .io.clips import save_clips
    from .library import (
        ShardedStore,
        ensure_snapshot_target,
        is_library_dir,
        load_library,
        save_library,
    )
    from .zoo.corpora import EXPERIMENT_GRID

    deck = deck_by_name(args.deck, EXPERIMENT_GRID)

    backend_kwargs = {"deck": deck}
    if args.backend == "patternpaint":
        # Reach the model stage itself: the patternpaint backend runs its
        # own pipeline/executor, so worker counts plumb through here.
        backend_kwargs.update(jobs=args.jobs, model_jobs=args.model_jobs)
    try:
        backend = get_backend(args.backend, **backend_kwargs)
    except ValueError as error:
        print(f"repro generate: error: {error}", file=sys.stderr)
        return 2

    store = None
    try:
        if args.library_dir and is_library_dir(args.library_dir):
            # None keeps the snapshot's own shard layout.
            store = load_library(
                args.library_dir, num_shards=args.library_shards
            )
            print(f"loaded {len(store)} clips from {args.library_dir}")
        elif args.library_dir or (args.library_shards or 1) > 1:
            if args.library_dir:
                # Fail before generation, not after, on an unusable target.
                ensure_snapshot_target(args.library_dir)
            store = ShardedStore(
                num_shards=args.library_shards or 1, name=args.backend
            )
    except (FileNotFoundError, ValueError) as error:
        print(f"repro generate: error: {error}", file=sys.stderr)
        return 2
    preloaded = len(store) if store is not None else 0

    if args.drc_cache_dir:
        from .diffusion.plan import configure_plan_cache
        from .drc.cache import load_shared_caches

        loaded = load_shared_caches(args.drc_cache_dir)
        if loaded:
            print(f"DRC cache: loaded {loaded} verdicts "
                  f"from {args.drc_cache_dir}")
        configure_plan_cache(args.drc_cache_dir)

    request = GenerationRequest(
        backend=args.backend, count=args.count, seed=args.seed, deck=deck
    )
    try:
        batch = run_generation(
            request,
            jobs=args.jobs,
            model_jobs=args.model_jobs,
            backend=backend,
            library=store,
        )
    finally:
        # Backends that own a pipeline (patternpaint) hold worker pools;
        # close them so the CLI exits cleanly.
        close = getattr(backend, "close", None)
        if callable(close):
            close()
        if args.drc_cache_dir:
            from .drc.cache import save_shared_caches

            save_shared_caches(args.drc_cache_dir)
    # Only this run's admissions go to --out; the snapshot dir keeps all.
    clips = list(batch.library.clips[preloaded:])
    if args.library_dir:
        save_library(batch.library, Path(args.library_dir))
        print(
            f"library snapshot: {len(batch.library)} clips "
            f"({batch.library.num_shards} shards) in {args.library_dir}"
        )
    if not clips:
        # Faithful outcome for weak backends under strict decks (e.g. CUP
        # on the advanced deck, Table I): report it instead of writing an
        # empty library.
        print(
            f"0 of {batch.attempts} attempts were DR-clean and new "
            f"({args.deck} deck, {args.backend} backend); nothing written"
        )
        return 1
    save_clips(
        args.out,
        clips,
        meta={"deck": args.deck, "seed": args.seed, "backend": args.backend},
    )
    print(
        f"wrote {len(clips)} DR-clean clips "
        f"({args.deck} deck, {args.backend} backend, "
        f"{batch.attempts} attempts, {batch.timings.total_seconds:.2f}s) "
        f"to {args.out}"
    )
    return 0


def _cmd_library(args) -> int:
    from .library import (
        load_library,
        merge_libraries,
        save_library,
        snapshot_count,
    )

    if args.library_command == "info":
        try:
            store = load_library(args.dir)
        except (FileNotFoundError, ValueError) as error:
            print(f"repro library: error: {error}", file=sys.stderr)
            return 2
        summary = store.summary()
        print(
            f"{store.name}: {len(store)} clips in {store.num_shards} shards"
        )
        print(
            f"unique={summary.unique}  H1={summary.h1:.3f}  "
            f"H2={summary.h2:.3f}  mean_density={summary.mean_density:.3f}"
        )
        sizes = store.shard_sizes()
        print("shard sizes: " + ", ".join(str(n) for n in sizes))
        return 0
    if args.library_command == "merge":
        try:
            merged = merge_libraries(args.sources, num_shards=args.shards)
        except (FileNotFoundError, ValueError) as error:
            print(f"repro library: error: {error}", file=sys.stderr)
            return 2
        save_library(merged, args.out)
        total = sum(snapshot_count(source) for source in args.sources)
        print(
            f"merged {len(args.sources)} libraries ({total} clips, "
            f"{total - len(merged)} duplicates) into {args.out}: "
            f"{len(merged)} clips in {merged.num_shards} shards"
        )
        return 0
    raise AssertionError(
        f"unhandled library command {args.library_command}"
    )  # pragma: no cover


def _cmd_serve(args) -> int:
    import asyncio

    from .service import (
        FleetConfig,
        FleetService,
        GenerationService,
        SchedulerConfig,
        ServiceConfig,
        SessionConfig,
        serve,
    )

    if args.checkpoint_every and not args.session_dir:
        print("repro serve: error: --checkpoint-every needs --session-dir",
              file=sys.stderr)
        return 2
    config = ServiceConfig(
        queue_size=args.queue_size,
        jobs=args.jobs,
        model_jobs=args.model_jobs,
        scheduler=SchedulerConfig(
            max_batch_requests=args.max_batch,
            gather_window_s=args.gather_window_ms / 1000.0,
        ),
        sessions=SessionConfig(
            library_shards=args.library_shards,
            snapshot_root=args.session_dir,
            checkpoint_every=args.checkpoint_every or 0,
        ),
    )
    fleet_config = None
    if args.workers >= 2:
        try:
            fleet_config = FleetConfig(workers=args.workers, service=config)
        except ValueError as error:
            print(f"repro serve: error: {error}", file=sys.stderr)
            return 2

    async def main() -> None:
        if args.drc_cache_dir:
            from .diffusion.plan import configure_plan_cache
            from .drc.cache import load_shared_caches

            loaded = load_shared_caches(args.drc_cache_dir)
            if loaded:
                print(f"repro serve: DRC cache: loaded {loaded} verdicts "
                      f"from {args.drc_cache_dir}")
            # Before start(): forked fleet workers inherit the setting.
            configure_plan_cache(args.drc_cache_dir)
        # The fleet front mirrors the GenerationService surface
        # (submit/cancel/health/stats_payload/drain/stop), so the TCP
        # server and the signal->drain->stop block below are one shared
        # implementation for both topologies.
        if fleet_config is not None:
            service = FleetService(fleet_config)
        else:
            service = GenerationService(config)
        await service.start()
        server = await serve(
            service, args.host, args.port, default_deck=args.deck
        )
        host, port = server.sockets[0].getsockname()[:2]
        print(f"repro serve: listening on {host}:{port} "
              f"(deck={args.deck}, workers={args.workers}, "
              f"jobs={config.jobs}, max-batch={args.max_batch})")
        print('protocol: one JSON object per line, e.g. '
              '{"backend": "rule", "count": 8, "seed": 0}')
        gateway = None
        if args.http_port is not None:
            from .service import serve_http

            gateway = await serve_http(
                service, args.host, args.http_port, default_deck=args.deck
            )
            ghost, gport = gateway.server.sockets[0].getsockname()[:2]
            print(f"repro serve: HTTP gateway on http://{ghost}:{gport} "
                  "(POST /v1/generate, GET /v1/requests/<id>, /v1/stats, "
                  "/v1/healthz)")

        # Graceful drain: SIGTERM (orchestrators) and SIGINT (Ctrl-C)
        # both stop the accept loop, refuse new submissions and give
        # in-flight requests --drain-timeout seconds to finish before
        # the service stops and sessions checkpoint.  A second signal
        # falls through to KeyboardInterrupt (immediate shutdown path).
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        hooked = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, shutdown.set)
                hooked.append(sig)
            except (NotImplementedError, ValueError, OSError):
                pass  # platform without loop signal handlers
        try:
            async with server:
                if hooked:
                    await shutdown.wait()
                    print("repro serve: draining "
                          f"(timeout {args.drain_timeout:g}s)")
                    server.close()
                    await server.wait_closed()
                    if gateway is not None:
                        await gateway.close()
                    if args.drain_timeout > 0:
                        drained = await service.drain(
                            timeout=args.drain_timeout
                        )
                        if not drained:
                            print("repro serve: drain timed out; failing "
                                  "remaining requests")
                else:
                    await server.serve_forever()
        finally:
            for sig in hooked:
                loop.remove_signal_handler(sig)
            if gateway is not None:
                await gateway.close()
            await service.stop()
            if args.drc_cache_dir:
                from .drc.cache import save_shared_caches

                save_shared_caches(args.drc_cache_dir)

    import signal

    def _sigterm(signum, frame):
        # Fallback for platforms where the event loop cannot hook
        # signals: SIGTERM takes the same path as Ctrl-C — stop the
        # service, checkpoint sessions, save the DRC cache.  The default
        # action would kill the process mid-flight.
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _sigterm)
    except (ValueError, OSError):
        pass  # not the main thread / unsupported platform
    try:
        asyncio.run(main())
        print("repro serve: shut down")
    except KeyboardInterrupt:
        print("repro serve: shut down")
    return 0


def _cmd_drc(args) -> int:
    from .drc.decks import deck_by_name
    from .io.clips import load_clips
    from .zoo.corpora import EXPERIMENT_GRID

    clips, _ = load_clips(args.library)
    engine = deck_by_name(args.deck, EXPERIMENT_GRID).engine()
    clean = 0
    for i, clip in enumerate(clips):
        report = engine.check(clip)
        clean += report.is_clean
        if args.verbose and not report.is_clean:
            print(f"clip {i}: {report.summary()}")
    rate = 100.0 * clean / max(len(clips), 1)
    print(f"{clean}/{len(clips)} clips DR-clean ({rate:.1f}%) under '{args.deck}'")
    return 0 if clean == len(clips) else 1


def _cmd_squish(args) -> int:
    from .geometry.squish import squish
    from .io.clips import load_clips

    clips, _ = load_clips(args.library)
    pattern = squish(clips[args.index])
    print(f"clip {args.index}: {pattern.height}x{pattern.width}px")
    print(f"complexity (Cx, Cy): {pattern.complexity}")
    print(f"dx: {pattern.dx.tolist()}")
    print(f"dy: {pattern.dy.tolist()}")
    print(f"topology:\n{pattern.topology.astype(int)}")
    return 0


def _cmd_render(args) -> int:
    from .io.ascii_art import render_clip
    from .io.clips import load_clips
    from .io.png import clip_to_png

    clips, _ = load_clips(args.library)
    clip = clips[args.index]
    if args.out:
        clip_to_png(args.out, clip)
        print(f"wrote {args.out}")
    else:
        print(render_clip(clip))
    return 0


def _cmd_zoo(args) -> int:
    from .zoo.artifacts import artifacts_dir, build_all

    if args.action == "build":
        build_all(verbose=True)
        print("zoo built")
    else:
        root = artifacts_dir()
        entries = sorted(root.glob("*.npz"))
        if not entries:
            print(f"no artifacts under {root}")
        for entry in entries:
            print(f"{entry.name}  ({entry.stat().st_size // 1024} KiB)")
    return 0


def _cmd_experiment(name: str, args) -> int:
    from . import experiments as exp

    use_cache = not args.no_cache
    if name == "table1":
        print(exp.format_table1(exp.run_table1(use_cache=use_cache, verbose=True)))
    elif name == "table2":
        print(exp.format_table2(exp.run_table2(use_cache=use_cache)))
    elif name == "table3":
        print(exp.format_table3(exp.run_table3(use_cache=use_cache)))
    elif name == "fig7":
        print(exp.format_fig7(exp.run_fig7(use_cache=use_cache)))
    elif name == "fig9":
        curves, denoise = exp.run_fig9(use_cache=use_cache)
        print(exp.format_fig9(curves, denoise))
    return 0


def _cmd_fig8(args) -> int:
    from .experiments.fig8 import run_fig8

    starter, variations, ascii_art = run_fig8(
        out_dir=args.out_dir, n_variations=args.variations
    )
    print(ascii_art)
    print(f"\n{len(variations)} legal variations generated")
    if args.out_dir:
        print(f"PNG gallery written to {args.out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    if command == "generate":
        return _cmd_generate(args)
    if command == "drc":
        return _cmd_drc(args)
    if command == "squish":
        return _cmd_squish(args)
    if command == "render":
        return _cmd_render(args)
    if command == "zoo":
        return _cmd_zoo(args)
    if command == "serve":
        return _cmd_serve(args)
    if command == "library":
        return _cmd_library(args)
    if command == "fig8":
        return _cmd_fig8(args)
    if command in ("table1", "table2", "table3", "fig7", "fig9"):
        return _cmd_experiment(command, args)
    raise AssertionError(f"unhandled command {command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
