"""Command-line front end: ``python -m repro`` / ``repro-bench``.

Subcommands::

    repro-bench list                 # show the experiment registry
    repro-bench run e1 [--markdown]  # run one experiment, print its table
    repro-bench all [--markdown] [--workers N]  # the whole suite, optionally parallel
    repro-bench bench [--quick]      # time the hot kernels, write BENCH_perf.json
    repro-bench trace e4 [--jsonl f] # run traced, print the span tree
    repro-bench fuzz [--smoke]       # differential fuzzing across all oracle pairs
    repro-bench serve-bench          # cached-vs-cold latency of the solver service
    repro-bench store verify DIR     # also: export/import/compact (durable store)
    repro-bench demo                 # 20-line end-to-end tour

Every experiment re-asserts its paper bound while running, so a clean exit
is itself a reproduction check.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.experiments import EXPERIMENTS, run_experiment

_DESCRIPTIONS = {
    "e1": "k-BAS loss lower bound on the Appendix-A tree (Thm 3.20 / Fig 3)",
    "e2": "k-BAS loss upper bound on random forests (Thm 3.9)",
    "e3": "schedule<->forest reduction round-trip (Fig 1 / Thm 4.2)",
    "e4": "realised price vs n, exact OPT (Thm 4.2)",
    "e5": "LSA_CS on lax jobs vs P (Thm 4.5 / Lemma 4.10)",
    "e6": "price lower bound on the Appendix-B instance (Thms 4.3/4.13 / Fig 4)",
    "e7a": "k=0 price on the geometric chain (Fig 2)",
    "e7b": "k=0 upper bound on random instances (Sec 5)",
    "e8": "multiple non-migrative machines (Sec 4.3.4)",
    "e9": "runtime scaling of TM / LevelledContraction",
    "e10": "ablations: LSA ordering, TM vs LC, compaction",
    "e11": "extensions: classify by rho/sigma (Sec 1.4), budget-EDF baseline",
    "e12": "strict-job window growth and layer bound (Sec 4.3.1 / Lemma 4.6)",
    "e13": "the Sec 4.3.2 charging argument run live on LSA (Lemmas 4.7-4.12)",
    "e14": "online baselines and the preemption bill (Sec 1.4 context)",
    "e15": "periodic task systems across the utilisation boundary (Sec 1.2 domain)",
    "e16": "the headline trade curve: realised price vs preemption budget k",
    "e17": "optimal budget vs context-switch cost (Sec 1.2's motivation)",
}


def _cmd_list() -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print(f"{name.ljust(width)}  {_DESCRIPTIONS.get(name, '')}")
    return 0


def _cmd_run(names: List[str], markdown: bool, workers: int = 1) -> int:
    from repro.analysis.experiments import run_experiments

    for table in run_experiments(names, workers=workers):
        print(table.render_markdown() if markdown else table.render())
        print()
    return 0


def _cmd_demo() -> int:
    from repro import make_jobs, schedule_k_bounded, verify_schedule
    from repro.scheduling.exact import opt_infty_exact

    jobs = make_jobs(
        [
            (0, 12, 5, 6.0),
            (1, 7, 4, 5.0),
            (3, 9, 3, 4.0),
            (2, 20, 6, 3.0),
            (8, 28, 9, 7.0),
        ]
    )
    opt = opt_infty_exact(jobs)
    print(f"instance: n={jobs.n}, P={jobs.length_ratio:.2f}, OPT_inf={opt.value}")
    for k in (0, 1, 2):
        if k == 0:
            from repro.core.nonpreemptive import nonpreemptive_combined

            sched = nonpreemptive_combined(jobs)
        else:
            sched = schedule_k_bounded(jobs, k)
        verify_schedule(sched, k=k).assert_ok()
        print(
            f"k={k}: value {sched.value} "
            f"(price {opt.value / sched.value:.3f}), "
            f"accepted {sched.scheduled_ids}, max preemptions {sched.max_preemptions}"
        )
    return 0


def _cmd_trace(name: str, jsonl: Optional[str], max_depth: Optional[int]) -> int:
    """Run one experiment (or the demo solve) under a tracer, print the tree.

    ``demo`` exercises every instrumented path in one seeded run: the api
    facade solve (TM + reduction + LSA + exact), a multi-machine assignment,
    and a 2-worker process sweep whose worker spans merge into the parent
    trace.  Any experiment name runs that experiment traced instead.
    """
    from repro.obs.sinks import JsonlSink, MemorySink, render_tree
    from repro.obs.tracer import Tracer

    sink = MemorySink()
    sinks = [sink]
    if jsonl:
        sinks.append(JsonlSink(jsonl))
    tracer = Tracer(sinks=sinks)
    with tracer.activate():
        if name == "demo":
            from repro.analysis.config import CELL_REGISTRY
            from repro.analysis.sweep import Sweep, run_sweep
            from repro.api import solve_k_bounded
            from repro.instances import random_jobs

            jobs = random_jobs(16, seed=2018)
            for k in (0, 2):
                result = solve_k_bounded(jobs, k)
                print(f"solve k={k}: value {result.value:.3f} ({result.method})")
            mm = solve_k_bounded(jobs, 2, machines=2)
            print(f"solve k=2 machines=2: value {mm.value:.3f}")
            run_sweep(
                Sweep(axes={"n": [10, 14], "k": [1, 2]}, repeats=2),
                CELL_REGISTRY["price_mixed"],
                seed=2018,
                workers=2,
            )
            print("sweep: 4 cells x 2 repeats across 2 worker processes")
        else:
            run_experiment(name)
    tracer.flush()
    for root in sink.traces:
        print()
        print(render_tree(root, max_depth=max_depth))
    if tracer.counters:
        print()
        print("counters:")
        for cname in sorted(tracer.counters):
            print(f"  {cname} = {tracer.counters[cname]}")
    if jsonl:
        print(f"\nwrote {jsonl}")
    return 0


def _fuzz_usage_error(message: str) -> int:
    """Reject a contradictory ``fuzz`` invocation: message on stderr, exit 2
    (argparse's own usage-error status, so CI scripts see one convention)."""
    print(f"repro-bench fuzz: error: {message}", file=sys.stderr)
    return 2


def _cmd_fuzz(args) -> int:
    """``repro fuzz``: the differential engine's CLI front end.

    Exit status is the contract CI relies on: 0 when every oracle agreed on
    every case (and every replayed counterexample stayed fixed), 1 on any
    disagreement or still-reproducing replay, 2 on a contradictory or
    unusable invocation (nothing was fuzzed).
    """
    from repro.check import ORACLES, replay_counterexample, run_fuzz

    if args.smoke and args.instances is not None:
        return _fuzz_usage_error(
            "--smoke fixes the instance count at 200; drop --instances"
        )
    if args.replay:
        contradicting = [
            flag
            for flag, value in (
                ("--smoke", args.smoke),
                ("--instances", args.instances is not None),
                ("--inject-fault", args.inject_fault is not None),
                ("--oracle", bool(args.oracle)),
            )
            if value
        ]
        if contradicting:
            return _fuzz_usage_error(
                f"--replay re-runs saved cases and contradicts {', '.join(contradicting)}"
            )
    if args.inject_fault is not None:
        from repro.utils import faults as _faults

        if args.inject_fault not in _faults.KNOWN_FAULTS:
            return _fuzz_usage_error(
                f"unknown fault {args.inject_fault!r}; "
                f"known: {', '.join(sorted(_faults.KNOWN_FAULTS))}"
            )

    if args.list_oracles:
        width = max(len(name) for name in ORACLES)
        for name in sorted(ORACLES):
            o = ORACLES[name]
            print(f"{name.ljust(width)}  [{o.domain}] {o.description}")
        return 0

    if args.replay:
        rc = 0
        for path in args.replay:
            try:
                detail = replay_counterexample(path)
            except (OSError, ValueError, KeyError) as exc:
                print(
                    f"repro-bench fuzz: error: cannot replay {path}: {exc}",
                    file=sys.stderr,
                )
                return 2
            if detail is None:
                print(f"{path}: no longer reproduces")
            else:
                print(f"{path}: STILL FAILING — {detail}")
                rc = 1
        return rc

    instances = 200 if args.smoke else (100 if args.instances is None else args.instances)
    fault_cm = None
    if args.inject_fault:
        from repro.utils import faults

        fault_cm = faults.inject(args.inject_fault)
        fault_cm.__enter__()
    tracer_cm = None
    if args.trace:
        from repro.obs.sinks import MemorySink
        from repro.obs.tracer import Tracer

        tracer = Tracer(sinks=[MemorySink()])
        tracer_cm = tracer.activate()
        tracer_cm.__enter__()
    try:
        report = run_fuzz(
            seed=args.seed,
            instances=instances,
            oracle_names=args.oracle or None,
            shrink=not args.no_shrink,
            out_dir=args.out,
        )
    finally:
        if tracer_cm is not None:
            tracer_cm.__exit__(None, None, None)
            print("counters:")
            for cname in sorted(tracer.counters):
                print(f"  {cname} = {tracer.counters[cname]}")
            print()
        if fault_cm is not None:
            fault_cm.__exit__(None, None, None)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_serve_bench(args) -> int:
    """``repro serve-bench``: cached-vs-cold latency of the solver service.

    Warms a :class:`~repro.serve.SolverService` on a seeded instance corpus
    (the cold pass, one solve per unique request key), then fires
    ``--requests`` randomized requests over the same corpus — all cache
    hits — timing each round trip.  Prints p50/p95 for both phases plus the
    service counters; ``--json`` writes the same payload for tooling, and
    ``--min-speedup`` turns the p50 ratio into the exit status so CI can
    gate on it.
    """
    import json
    import random
    import statistics
    import time

    from repro.instances import random_jobs
    from repro.serve import SolverService

    if args.requests < 1:
        print("repro-bench serve-bench: error: --requests must be >= 1", file=sys.stderr)
        return 2

    from repro.api import SolveRequest

    rng = random.Random(args.seed)
    corpus = [random_jobs(args.n, seed=args.seed + i) for i in range(args.corpus)]
    reqs = [
        SolveRequest(jobs=jobs, k=rng.choice((1, 2)), deadline_ms=args.deadline_ms)
        for jobs in corpus
    ]

    def timed_solve(svc: SolverService, i: int) -> float:
        t0 = time.perf_counter()
        svc.solve(reqs[i])
        return (time.perf_counter() - t0) * 1e3

    with SolverService(workers=args.workers, cache_size=args.cache_size) as svc:
        cold_ms = [timed_solve(svc, i) for i in range(len(corpus))]
        hit_ms = [timed_solve(svc, rng.randrange(len(corpus))) for _ in range(args.requests)]
        stats = svc.stats()

    def p(series: List[float], q: float) -> float:
        ordered = sorted(series)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    cold_p50 = statistics.median(cold_ms)
    hit_p50 = statistics.median(hit_ms)
    speedup = cold_p50 / hit_p50 if hit_p50 > 0 else float("inf")
    payload = {
        "requests": args.requests,
        "corpus": len(corpus),
        "seed": args.seed,
        "cold_p50_ms": cold_p50,
        "cold_p95_ms": p(cold_ms, 0.95),
        "cached_p50_ms": hit_p50,
        "cached_p95_ms": p(hit_ms, 0.95),
        "p50_speedup": speedup,
        "stats": stats.as_dict(),
    }
    print(f"corpus {len(corpus)} instances (n={args.n}), {args.requests} cached-phase requests")
    print(f"cold   p50 {cold_p50:9.3f} ms   p95 {payload['cold_p95_ms']:9.3f} ms")
    print(f"cached p50 {hit_p50:9.3f} ms   p95 {payload['cached_p95_ms']:9.3f} ms")
    print(f"cached p50 speedup: {speedup:.1f}x")
    shown = ("requests", "hits", "misses", "coalesced", "degraded", "evictions")
    print("service: " + ", ".join(f"{name}={getattr(stats, name)}" for name in shown))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"repro-bench serve-bench: cached p50 speedup {speedup:.1f}x "
            f"below required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_store(args) -> int:
    """``repro store``: maintenance verbs for the durable result store.

    ``export DIR --out SNAP`` writes the live set to one snapshot file;
    ``import DIR SNAP`` merges a snapshot (or raw segment) into a store;
    ``compact DIR`` rewrites the live set into one fresh segment, dropping
    superseded, corrupt and version-mismatched records; ``verify DIR``
    re-decodes every record and checks its exact-rational wire round-trip.

    Exit status follows the fuzz convention: 0 clean, 1 on a failed
    ``verify``, 2 on an unusable invocation (bad paths, I/O errors).
    """
    from repro.store import ResultStore

    try:
        store = ResultStore(args.dir)
    except (OSError, ValueError) as exc:
        print(f"repro-bench store: error: cannot open {args.dir}: {exc}", file=sys.stderr)
        return 2
    try:
        scan = ", ".join(
            f"{name}={store.counters[name]}"
            for name in ("corrupt", "version_skipped", "recovered_tail")
            if store.counters[name]
        )
        if scan:
            print(f"open scan: {scan}")
        if args.verb == "export":
            count = store.export_snapshot(args.out)
            print(f"exported {count} results to {args.out}")
            return 0
        if args.verb == "import":
            report = store.import_snapshot(args.snapshot, overwrite=args.overwrite)
            print(
                f"imported {report['imported']} results "
                f"(duplicates {report['duplicates']}, "
                f"version-skipped {report['version_skipped']}, "
                f"corrupt {report['corrupt']})"
            )
            return 0
        if args.verb == "compact":
            report = store.compact()
            print(
                f"compacted to {report['live']} live results "
                f"({report['segments_removed']} old segments removed)"
            )
            return 0
        report = store.verify()
        print(
            f"verified {report['checked']} records: "
            f"{report['unreadable']} unreadable, {report['mismatched']} round-trip mismatches"
        )
        for detail in report["details"]:
            print(f"  {detail}", file=sys.stderr)
        return 0 if report["ok"] else 1
    except OSError as exc:
        print(f"repro-bench store: error: {exc}", file=sys.stderr)
        return 2
    finally:
        store.close()


def _cmd_gateway_bench(args) -> int:
    """``repro gateway-bench``: open-loop load against a sharded gateway fleet.

    Starts a :class:`~repro.gateway.Gateway` over ``--shards`` solver
    worker processes, warms every corpus instance (verifying each response
    against a direct solve and each route against the hash ring), then
    fires Poisson arrivals at ``--rps`` for ``--duration`` seconds.
    Reports p50/p99 latency, throughput, per-shard cache hit ratios and
    what keep-alive pooling buys the client (``client_pool.p50_speedup``);
    ``--max-p99-ms`` and the built-in zero-disagreement /
    per-shard-nonzero-hits gates set the exit status for CI.

    ``--chaos`` SIGKILLs one shard worker partway through the timed
    phase and additionally gates on at least one request meeting the
    killed shard (a gateway failover), zero wrong answers, zero
    unanswered requests, and supervisor recovery within
    ``--max-recovery-ms``.
    """
    import json

    from repro.gateway.bench import run_gateway_bench

    if args.quick:
        args.rps = min(args.rps, 30.0)
        args.duration = min(args.duration, 8.0)
        args.corpus = min(args.corpus, 12)
        args.n = min(args.n, 10)
    if args.shards < 1:
        print("repro-bench gateway-bench: error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.chaos and args.inline:
        print(
            "repro-bench gateway-bench: error: --chaos needs process shards "
            "(drop --inline)",
            file=sys.stderr,
        )
        return 2
    if args.chaos and args.shards < 2:
        print(
            "repro-bench gateway-bench: error: --chaos needs --shards >= 2",
            file=sys.stderr,
        )
        return 2
    payload = run_gateway_bench(
        shards=args.shards,
        rps=args.rps,
        duration_s=args.duration,
        corpus=args.corpus,
        n=args.n,
        seed=args.seed,
        inline=args.inline,
        workers=args.workers,
        chaos=args.chaos,
    )
    print(
        f"gateway: {args.shards} shards, {payload['sent']} requests at "
        f"{payload['params']['rps']:.0f} rps open-loop "
        f"({payload['achieved_rps']:.1f} achieved)"
    )
    print(
        f"latency p50 {payload['p50_ms']:8.3f} ms   p99 {payload['p99_ms']:8.3f} ms   "
        f"completed {payload['completed']}/{payload['sent']} "
        f"(429s {payload['rejected']}, errors {payload['errors']})"
    )
    for i, snap in enumerate(payload["per_shard"]):
        if snap.get("down"):
            print(f"shard {i}: DOWN")
            continue
        hits = snap["hits"] + snap["answer_hits"]
        total = max(1, snap["requests"] + snap["answer_hits"])
        print(
            f"shard {i}: requests={snap['requests']} hits={snap['hits']} "
            f"answer_hits={snap['answer_hits']} misses={snap['misses']} "
            f"hit_ratio={hits / total:.2f}"
        )
    gw = payload["gateway"]
    print(
        "gateway counters: "
        + ", ".join(
            f"{name}={gw[name]}"
            for name in (
                "admitted",
                "rejected",
                "sharded",
                "quota_denied",
                "shard_restarts",
                "failovers",
                "answer_hits",
            )
        )
    )
    pool = payload["client_pool"]
    speedup = pool["p50_speedup"]
    print(
        f"client pool: fresh p50 {pool['fresh_p50_ms']:.3f} ms vs pooled p50 "
        f"{pool['pooled_p50_ms']:.3f} ms "
        f"({'x{:.2f}'.format(speedup) if speedup else 'n/a'}; "
        f"{pool['created']} created, {pool['reused']} reused)"
    )
    print(
        f"oracle: disagreements={payload['disagreements']} "
        f"route_mismatches={payload['route_mismatches']}"
    )
    if args.chaos:
        ch = payload["chaos"]
        recovery = ch["recovery_ms_max"]
        print(
            f"chaos: kills={ch['kills']} recovered={ch['recovered']} "
            f"recovery_ms_max={recovery if recovery is None else format(recovery, '.0f')} "
            f"failovers={ch['failovers']} retried_503={ch['retried_503']} "
            f"unanswered={ch['unanswered']} "
            f"wrong_answers={ch['wrong_answers']}"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    failures = []
    if payload["disagreements"]:
        failures.append(f"{payload['disagreements']} gateway-vs-direct disagreements")
    if payload["route_mismatches"]:
        failures.append(f"{payload['route_mismatches']} shard-routing mismatches")
    if payload["errors"]:
        failures.append(f"{payload['errors']} transport/server errors")
    zero_hit = [
        i
        for i, s in enumerate(payload["per_shard"])
        if not s.get("down") and s["hits"] + s["answer_hits"] == 0
    ]
    if zero_hit:
        failures.append(f"shards with zero cache hits: {zero_hit}")
    if args.max_p99_ms is not None and payload["p99_ms"] > args.max_p99_ms:
        failures.append(
            f"p99 {payload['p99_ms']:.1f} ms above SLO {args.max_p99_ms:.1f} ms"
        )
    pool = payload["client_pool"]
    if pool["p50_speedup"] is None or pool["p50_speedup"] <= 1.0:
        failures.append(
            f"keep-alive pool did not beat connect-per-request at p50 "
            f"(fresh {pool['fresh_p50_ms']:.3f} ms, pooled {pool['pooled_p50_ms']:.3f} ms)"
        )
    if args.chaos:
        ch = payload["chaos"]
        if ch["kills"] < 1:
            failures.append("chaos: no shard was killed")
        if ch["failovers"] < 1:
            failures.append("chaos: no request met the killed shard (0 failovers)")
        if ch["wrong_answers"]:
            failures.append(f"chaos: {ch['wrong_answers']} wrong answers")
        if ch["unanswered"]:
            failures.append(f"chaos: {ch['unanswered']} unanswered requests")
        if not ch["recovered"]:
            failures.append("chaos: fleet did not recover")
        elif ch["recovery_ms_max"] is not None and ch["recovery_ms_max"] > args.max_recovery_ms:
            failures.append(
                f"chaos: recovery {ch['recovery_ms_max']:.0f} ms above "
                f"--max-recovery-ms {args.max_recovery_ms:.0f}"
            )
    if failures:
        for failure in failures:
            print(f"repro-bench gateway-bench: {failure}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduction harness for 'The Price of Bounded Preemption' (SPAA'18)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments")
    run_p = sub.add_parser("run", help="run one or more experiments")
    run_p.add_argument("names", nargs="+", choices=sorted(EXPERIMENTS))
    run_p.add_argument("--markdown", action="store_true", help="emit markdown tables")
    all_p = sub.add_parser("all", help="run the full suite")
    all_p.add_argument("--markdown", action="store_true", help="emit markdown tables")
    all_p.add_argument(
        "--workers", type=int, default=1,
        help="run experiments across N worker processes (default: serial)",
    )
    sub.add_parser("demo", help="run the 20-line end-to-end demo")
    sweep_p = sub.add_parser("sweep", help="run a JSON-configured parameter sweep")
    sweep_p.add_argument("config", help="path to a sweep config (see repro.analysis.config)")
    sweep_p.add_argument("--markdown", action="store_true", help="emit a markdown table")
    sweep_p.add_argument(
        "--workers", type=int, default=None,
        help="override the config's worker count (results are bit-identical)",
    )
    bench_p = sub.add_parser(
        "bench", help="time the hot kernels and write a machine-readable trajectory"
    )
    bench_p.add_argument(
        "--quick", action="store_true", help="small sizes/repeats for CI smoke runs"
    )
    bench_p.add_argument(
        "--out", default="BENCH_perf.json",
        help="output JSON path (default: BENCH_perf.json; '-' to skip writing)",
    )
    bench_p.add_argument(
        "--min-sweep-speedup", type=float, default=None, metavar="X",
        help="exit 1 unless the best parallel run_sweep speedup reaches X (CI gate)",
    )
    bench_p.add_argument(
        "--max-prewarm-ratio", type=float, default=2.0, metavar="X",
        help="exit 1 if prewarmed cold-start p50 exceeds X times warm-cache p50 "
             "(default: 2.0, the ROADMAP store gate; 0 disables)",
    )
    trace_p = sub.add_parser(
        "trace", help="run an experiment (or 'demo') traced and print the span tree"
    )
    trace_p.add_argument(
        "name", choices=["demo"] + sorted(EXPERIMENTS),
        help="'demo' covers every instrumented path in one seeded run",
    )
    trace_p.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also stream span events to a JSONL file",
    )
    trace_p.add_argument(
        "--max-depth", type=int, default=None,
        help="collapse the printed tree below this depth",
    )
    fuzz_p = sub.add_parser(
        "fuzz", help="differential fuzzing: seeded instances through every oracle pair"
    )
    fuzz_p.add_argument("--seed", type=int, default=0, help="root RNG seed (default: 0)")
    fuzz_p.add_argument(
        "--instances", type=int, default=None,
        help="cases per domain — every oracle sees this many (default: 100)",
    )
    fuzz_p.add_argument(
        "--smoke", action="store_true",
        help="CI preset: 200 instances per domain (the acceptance floor)",
    )
    fuzz_p.add_argument(
        "--oracle", action="append", metavar="NAME",
        help="restrict to named oracles (repeatable; see --list-oracles)",
    )
    fuzz_p.add_argument(
        "--out", default="fuzz_failures",
        help="directory for shrunk counterexample JSON ('' to skip writing)",
    )
    fuzz_p.add_argument(
        "--no-shrink", action="store_true", help="report raw failing cases unshrunk"
    )
    fuzz_p.add_argument(
        "--trace", action="store_true", help="run under a tracer and print counters"
    )
    fuzz_p.add_argument(
        "--list-oracles", action="store_true", help="list registered oracles and exit"
    )
    fuzz_p.add_argument(
        "--replay", action="append", metavar="JSON",
        help="re-run saved counterexample file(s) instead of fuzzing (repeatable)",
    )
    fuzz_p.add_argument(
        "--inject-fault", default=None, metavar="NAME",
        help="arm a known fault for the run (test-only; proves the engine fires)",
    )
    serve_p = sub.add_parser(
        "serve-bench", help="measure cached-vs-cold latency of the solver service"
    )
    serve_p.add_argument("--requests", type=int, default=500, help="cached-phase requests")
    serve_p.add_argument("--seed", type=int, default=7, help="corpus + arrival-order seed")
    serve_p.add_argument("--corpus", type=int, default=20, help="distinct instances")
    serve_p.add_argument("--n", type=int, default=12, help="jobs per instance")
    serve_p.add_argument("--workers", type=int, default=4, help="service worker threads")
    serve_p.add_argument("--cache-size", type=int, default=256, help="LRU capacity")
    serve_p.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request degradation budget (default: none)",
    )
    serve_p.add_argument("--json", default=None, metavar="PATH", help="also write JSON payload")
    serve_p.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit 1 unless cached p50 is this many times below cold p50",
    )
    gateway_p = sub.add_parser(
        "gateway-bench", help="open-loop load against a sharded gateway fleet"
    )
    gateway_p.add_argument("--shards", type=int, default=2, help="shard worker processes")
    gateway_p.add_argument("--rps", type=float, default=50.0, help="open-loop arrival rate")
    gateway_p.add_argument("--duration", type=float, default=15.0, help="timed phase seconds")
    gateway_p.add_argument("--corpus", type=int, default=24, help="distinct instances")
    gateway_p.add_argument("--n", type=int, default=12, help="jobs per instance")
    gateway_p.add_argument("--seed", type=int, default=7, help="corpus + arrival seed")
    gateway_p.add_argument("--workers", type=int, default=2, help="solver threads per shard")
    gateway_p.add_argument(
        "--quick", action="store_true",
        help="CI preset: caps rps/duration/corpus/n for a ~10s smoke run",
    )
    gateway_p.add_argument(
        "--inline", action="store_true",
        help="in-process shards (no worker processes; tests/debugging)",
    )
    gateway_p.add_argument(
        "--max-p99-ms", type=float, default=None, metavar="MS",
        help="exit 1 if timed-phase p99 latency exceeds this SLO",
    )
    gateway_p.add_argument(
        "--chaos", action="store_true",
        help="SIGKILL one shard worker mid-run; gate on zero wrong answers, "
        "zero unanswered requests, and bounded recovery",
    )
    gateway_p.add_argument(
        "--max-recovery-ms", type=float, default=5000.0, metavar="MS",
        help="with --chaos: exit 1 if detection-to-recovery exceeds this",
    )
    gateway_p.add_argument(
        "--out", default=None, metavar="PATH", help="write the bench JSON payload"
    )
    store_p = sub.add_parser(
        "store", help="maintain a durable result store (export/import/compact/verify)"
    )
    store_sub = store_p.add_subparsers(dest="verb", required=True)
    store_export = store_sub.add_parser(
        "export", help="write the live set to one snapshot JSONL file"
    )
    store_export.add_argument("dir", help="store directory")
    store_export.add_argument(
        "--out", default="store_snapshot.jsonl", help="snapshot path"
    )
    store_import = store_sub.add_parser(
        "import", help="merge a snapshot (or raw segment) file into a store"
    )
    store_import.add_argument("dir", help="store directory (created if missing)")
    store_import.add_argument("snapshot", help="snapshot file to merge")
    store_import.add_argument(
        "--overwrite", action="store_true",
        help="replace existing keys instead of keeping them",
    )
    store_compact = store_sub.add_parser(
        "compact", help="rewrite the live set into one fresh segment"
    )
    store_compact.add_argument("dir", help="store directory")
    store_verify = store_sub.add_parser(
        "verify", help="check every record's exact-rational wire round-trip"
    )
    store_verify.add_argument("dir", help="store directory")
    sub.add_parser("cells", help="list registered sweep cells")
    report_p = sub.add_parser("report", help="run everything and write REPORT.md")
    report_p.add_argument("--out", default="REPORT.md", help="output path")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.names, args.markdown)
    if args.command == "all":
        return _cmd_run(sorted(EXPERIMENTS), args.markdown, workers=args.workers)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "sweep":
        from repro.analysis.config import load_config, run_config

        # Config errors are the user's to fix: one line and usage status 2.
        # A cell that raises while running still propagates.
        try:
            config = load_config(args.config)
            if args.workers is not None and args.workers < 1:
                raise ValueError(f"--workers must be >= 1, got {args.workers}")
        except (ValueError, OSError) as exc:
            print(f"repro-bench sweep: error: {exc}", file=sys.stderr)
            return 2
        table = run_config(config, workers=args.workers)
        print(table.render_markdown() if args.markdown else table.render())
        return 0
    if args.command == "bench":
        from repro.analysis.perf import render_bench, run_bench

        payload = run_bench(quick=args.quick, out=None if args.out == "-" else args.out)
        print(render_bench(payload))
        if args.out != "-":
            print(f"wrote {args.out}")
        if args.min_sweep_speedup is not None:
            speedups = [
                rec["speedup_vs_reference"]
                for rec in payload["records"]
                if rec["op"].startswith("run_sweep[workers=")
                and rec["speedup_vs_reference"] is not None
            ]
            if not speedups:
                print(
                    "repro-bench bench: no parallel run_sweep record to gate on",
                    file=sys.stderr,
                )
                return 1
            best = max(speedups)
            if best < args.min_sweep_speedup:
                print(
                    f"repro-bench bench: parallel run_sweep speedup {best:.2f}x "
                    f"below required {args.min_sweep_speedup:.2f}x",
                    file=sys.stderr,
                )
                return 1
            print(f"sweep speedup gate: {best:.2f}x >= {args.min_sweep_speedup:.2f}x")
        if args.max_prewarm_ratio:
            by_op = {rec["op"]: rec for rec in payload["records"]}
            warm = by_op.get("serve.store[warm-cache]")
            prewarmed = by_op.get("serve.store[prewarmed-cold-start]")
            if warm is None or prewarmed is None:
                print(
                    "repro-bench bench: no store prewarm records to gate on",
                    file=sys.stderr,
                )
                return 1
            # Both phases are memory-LRU hits at ~tens of µs, so a pure
            # ratio gate would amplify scheduler noise; the small absolute
            # floor keeps the 2x contract meaningful without flakiness.
            bound = args.max_prewarm_ratio * warm["median_ms"] + 0.25
            if prewarmed["median_ms"] > bound:
                print(
                    f"repro-bench bench: prewarmed cold-start p50 "
                    f"{prewarmed['median_ms']:.3f} ms exceeds "
                    f"{args.max_prewarm_ratio:.1f}x warm-cache p50 "
                    f"({warm['median_ms']:.3f} ms)",
                    file=sys.stderr,
                )
                return 1
            print(
                f"store prewarm gate: cold-start p50 {prewarmed['median_ms']:.3f} ms "
                f"within {args.max_prewarm_ratio:.1f}x of warm p50 "
                f"{warm['median_ms']:.3f} ms"
            )
        return 0
    if args.command == "trace":
        return _cmd_trace(args.name, args.jsonl, args.max_depth)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "gateway-bench":
        return _cmd_gateway_bench(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "cells":
        from repro.analysis.config import CELL_REGISTRY

        for name in sorted(CELL_REGISTRY):
            doc = (CELL_REGISTRY[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name}: {doc}")
        return 0
    if args.command == "report":
        from repro.analysis.report import write_report

        outcomes = write_report(args.out)
        passed = sum(1 for o in outcomes if o.ok)
        print(f"{passed}/{len(outcomes)} experiments passed; report at {args.out}")
        return 0 if passed == len(outcomes) else 1
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
