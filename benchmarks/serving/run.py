"""The serving benchmark: traffic mixes against a separately launched gateway.

    python benchmarks/serving/run.py --seed S [--workload W] [--seconds T]
                                     [--trace 0|1] [--out F]

Each workload (see ``workloads.BENCHMARKS``) launches
``benchmarks/serving/server.py`` three times.  Each launch is timed to its
first healthy answer, warmed, then driven from this process over at most
two keep-alive connections for one round: an open-loop Poisson segment,
then a closed-loop segment; the open loop gets three quarters of
``--seconds``.  Every answer is checked against a direct
``solve_k_bounded``; a wrong or degraded answer makes the run exit
non-zero.

``--trace 1`` runs the phases at a third of their length twice, untraced
and then with every layer wrapped in spans (``spans.py``), and reports the
per-layer metrics and the tracing overhead instead; the span table goes to
``trace.json`` beside ``--out``, or under ``.serving-bench/``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from repro.api import SolveRequest, solve_k_bounded  # noqa: E402

import client  # noqa: E402
import spans  # noqa: E402
from spans import percentile  # noqa: E402
from workloads import (  # noqa: E402
    BENCHMARKS,
    WORKLOADS,
    Instance,
    Plan,
    Round,
    Workload,
    build_plan,
    http_request,
)

SERVER = os.path.join(HERE, "server.py")
WORK_DIR = os.path.join(ROOT, ".serving-bench")

#: A gateway not healthy this long after its spawn fails the run.
STARTUP_TIMEOUT_S = 60.0

#: Deadline on pre-solve requests, far beyond any solve here.
PRESOLVE_DEADLINE_MS = 60000.0

#: ``--trace 1`` runs each phase at this fraction of its length, twice.
TRACE_SHARE = 1 / 3

#: End-to-end metrics, reported with tracing off, and their units.
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: What an untraced record reports.  Closed-loop throughput carries no
#: bound: on a shared two-vCPU machine it swings by up to 40% between
#: 20 s runs of the CPU-bound mixes, so it is shown, not gated.
REPORTED = dict(END_TO_END, throughput_rps="req/s")


# -- the gateway process ---------------------------------------------------------


def _child_pids(pid: int) -> List[int]:
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Server:
    """One ``server.py`` process: spawned, polled until healthy, stopped.

    ``setup_s`` runs from the spawn until ``GET /v1/healthz`` answers 200.
    """

    def __init__(self, store_dir: str, trace_dir: Optional[str] = None):
        cmd = [sys.executable, SERVER, "--store-dir", store_dir]
        if trace_dir is not None:
            cmd += ["--trace-dir", trace_dir]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
        self.children: List[int] = []
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], STARTUP_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError("server.py did not report its port")
            self.port = int(json.loads(line)["port"])
            self._wait_healthy(start + STARTUP_TIMEOUT_S)
            self.setup_s = time.perf_counter() - start
            self.children = _child_pids(self.proc.pid)
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                conn.request("GET", "/v1/healthz")
                status = conn.getresponse().status
            except OSError:
                status = None
            finally:
                conn.close()
            if status == 200:
                return
            if time.perf_counter() > deadline:
                raise RuntimeError(f"gateway not healthy in time (last status {status})")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the gateway process and its shard workers."""
        pids = [self.proc.pid] + _child_pids(self.proc.pid)
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """Close stdin (the server's stop signal) and wait for every process."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        for pid in self.children:
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
                time.sleep(0.01)


# -- correctness ------------------------------------------------------------------


def direct_value(request: SolveRequest) -> float:
    """The answer the gateway must give: a direct library solve."""
    return solve_k_bounded(request.jobs, request.k, machines=request.machines).value


class Checker:
    """Compares every 200 answer with a direct solve; counts disagreements."""

    def __init__(self):
        self.expected: Dict[str, float] = {}
        self.wrong = 0
        self.degraded = 0
        self.checked = 0

    def expect(self, instances: Sequence[Instance]) -> None:
        for inst in instances:
            key = inst.request.key()
            if key not in self.expected:
                self.expected[key] = direct_value(inst.request)

    def check(self, instances: Sequence[Instance], outcomes: Sequence[client.Outcome]) -> None:
        ok = [o for o in outcomes if o.status == 200]
        self.expect([instances[o.index] for o in ok])
        for outcome in ok:
            result = json.loads(outcome.body)["result"]
            self.checked += 1
            if result["value"] != self.expected[instances[outcome.index].request.key()]:
                self.wrong += 1
            if result.get("metrics", {}).get("served.degraded", 0):
                self.degraded += 1


# -- one pass against one gateway -------------------------------------------------


def warm_batches(plan: Plan) -> List[List[Instance]]:
    """What a fresh gateway is sent before timing.

    A working set not pre-solved into the store is sent twice, so its
    second pass hits; the fresh warm-up instances run the solver once.
    """
    batches = [] if plan.workload.presolve else [plan.corpus, plan.corpus]
    return batches + [plan.warmup]


async def _drive(port: int, plan: Plan, rounds: Sequence[Round]):
    """Warm-up, then each round's open-loop and closed-loop segments."""
    conns = [client.Connection("127.0.0.1", port) for _ in range(client.CONNECTIONS)]
    warmed: List[Tuple[List[Instance], List[client.Outcome]]] = []
    done = []
    try:
        for batch in warm_batches(plan):
            outcomes, _ = await client.closed_loop(conns, [i.payload for i in batch], 1e9)
            warmed.append((batch, outcomes))
        start = time.perf_counter()
        for rnd in rounds:
            open_out = await client.open_loop(
                conns, rnd.open_due, [i.payload for i in rnd.open_requests]
            )
            closed_out, closed_s = await client.closed_loop(
                conns, [i.payload for i in rnd.closed_requests], plan.closed_seconds
            )
            done.append((open_out, closed_out, closed_s))
        end = time.perf_counter()
    finally:
        for conn in conns:
            await conn.close()
    return warmed, done, (start, end)


class Pass:
    """The client-side results of driving ``rounds`` against one gateway.

    ``rounds_seen`` keeps each round's own numbers, which show how steady
    the machine was.
    """

    def __init__(self, plan: Plan, rounds: Sequence[Round], checker: Checker, port: int):
        # The generator's own collector pauses would read as gateway latency.
        gc.collect()
        gc.disable()
        try:
            warmed, done, self.window = asyncio.run(_drive(port, plan, rounds))
        finally:
            gc.enable()
        for batch, outcomes in warmed:
            if any(o.status != 200 for o in outcomes):
                raise RuntimeError("a warm-up request failed")
            checker.check(batch, outcomes)
        self.open: List[client.Outcome] = []
        self.rounds_seen: List[Dict[str, float]] = []
        self.attempted = self.failed = self.completed = 0
        self.closed_s = 0.0
        for rnd, (open_out, closed_out, closed_s) in zip(rounds, done):
            checker.check(rnd.open_requests, open_out)
            checker.check(rnd.closed_requests, closed_out)
            self.open.extend(open_out)
            ok = sum(o.status == 200 for o in closed_out)
            self.completed += ok
            self.closed_s += closed_s
            latencies = [(o.done - o.due) * 1e3 for o in open_out if o.status == 200]
            self.rounds_seen.append({
                "p50_ms": percentile(latencies, 0.50),
                "p95_ms": percentile(latencies, 0.95),
                "rps": ok / closed_s,
            })
            self.attempted += len(open_out) + len(closed_out)
            self.failed += sum(o.status != 200 for o in open_out + closed_out)
        self.latencies_ms = [(o.done - o.due) * 1e3 for o in self.open if o.status == 200]
        if not self.latencies_ms:
            raise RuntimeError("no open-loop request succeeded")


def presolve(plan: Plan, store_dir: str, checker: Checker) -> None:
    """Solve the working set into the shard stores through a gateway.

    The requests carry a deadline that never expires: it sends them past
    the batch window, and a deadline-bound full solve is stored like any
    other.
    """
    payloads = [
        http_request(dict(i.request.to_wire(), deadline_ms=PRESOLVE_DEADLINE_MS))
        for i in plan.corpus
    ]
    server = Server(store_dir)
    try:
        conns = [client.Connection("127.0.0.1", server.port) for _ in range(client.CONNECTIONS)]

        async def send() -> List[client.Outcome]:
            try:
                outcomes, _ = await client.closed_loop(conns, payloads, 1e9)
            finally:
                for conn in conns:
                    await conn.close()
            return outcomes

        outcomes = asyncio.run(send())
    finally:
        server.stop()
    if any(o.status != 200 for o in outcomes):
        raise RuntimeError("a pre-solve request failed")
    checker.check(plan.corpus, outcomes)


# -- a workload -------------------------------------------------------------------


def measure(plan: Plan, checker: Checker, store_for) -> Tuple[Dict[str, float], List[Pass]]:
    """The end-to-end metrics, pooled over one launch per round."""
    setups, rss, passes = [], [], []
    for launch, rnd in enumerate(plan.rounds):
        server = Server(store_for(str(launch)))
        setups.append(server.setup_s)
        try:
            passes.append(Pass(plan, [rnd], checker, server.port))
            rss.append(server.peak_rss_mb())
        finally:
            server.stop()
    latencies = [ms for p in passes for ms in p.latencies_ms]
    metrics = {
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p95_ms": percentile(latencies, 0.95),
        "throughput_rps": sum(p.completed for p in passes) / sum(p.closed_s for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, passes


def trace(plan: Plan, checker: Checker, store_for, trace_dir: str):
    """The per-layer metrics: an untraced pass, then a traced one."""
    server = Server(store_for("untraced"))
    try:
        untraced = Pass(plan, plan.rounds, checker, server.port)
    finally:
        server.stop()
    os.makedirs(trace_dir)
    server = Server(store_for("traced"), trace_dir)
    try:
        traced = Pass(plan, plan.rounds, checker, server.port)
    finally:
        server.stop()
    with open(os.path.join(trace_dir, "absent.json")) as fh:
        absent = json.load(fh)
    traced_p50 = percentile(traced.latencies_ms, 0.50)
    untraced_p50 = percentile(untraced.latencies_ms, 0.50)
    ok_open = [o for o in traced.open if o.status == 200]
    metrics = spans.layer_metrics(
        spans.load_process_spans(trace_dir, traced.window),
        [o.sent - o.due for o in ok_open],
        traced_p50,
    )
    metrics["client.wake_lag.p99_ms"] = percentile([(o.woke - o.due) * 1e3 for o in ok_open], 0.99)
    metrics["tracing.latency_p50_ms"] = traced_p50
    metrics["tracing.untraced_latency_p50_ms"] = untraced_p50
    metrics["tracing.overhead_ratio"] = traced_p50 / untraced_p50
    return metrics, [untraced, traced], absent


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool, tmp: str) -> dict:
    """One workload end to end, in scratch directory ``tmp``; returns its record."""
    plan = build_plan(workload, seed, seconds * (TRACE_SHARE if traced else 1.0))
    checker = Checker()
    checker.expect(plan.corpus)
    base_store = os.path.join(tmp, "store")
    if workload.presolve:
        presolve(plan, base_store, checker)

    def store_for(label: str) -> str:
        """A fresh store per launch; a copy of the pre-solved one if any."""
        path = os.path.join(tmp, f"store-{label}")
        if workload.presolve:
            shutil.copytree(base_store, path)
        return path

    absent = None
    if traced:
        metrics, passes, absent = trace(plan, checker, store_for, os.path.join(tmp, "trace"))
        units = per_layer_units(metrics)
        measured = passes[-1:]
    else:
        metrics, passes = measure(plan, checker, store_for)
        measured = passes
        units = REPORTED
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "correct": checker.wrong == 0 and checker.degraded == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "checked": checker.checked,
        "wrong": checker.wrong,
        "degraded": checker.degraded,
        "samples": sum(len(p.latencies_ms) for p in measured),
        "rounds": [r for p in measured for r in p.rounds_seen],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if absent is not None:
        record["absent"] = absent
    return record


def per_layer_units(metrics: Dict[str, float]) -> Dict[str, str]:
    """The unit of each per-layer metric, read off its name."""
    units = {}
    for name in metrics:
        if name.endswith(".count") or name.endswith(".evictions"):
            units[name] = "count"
        elif name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("_ratio"):
            units[name] = "share"
        elif name.endswith("batch_size_mean"):
            units[name] = "req"
        else:
            raise KeyError(f"no unit rule for per-layer metric {name!r}")
    return units


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in registry order")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured length of one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the run records (a JSON list) here")
    args = parser.parse_args(argv)
    chosen = [WORKLOADS[args.workload]] if args.workload else list(BENCHMARKS)
    os.makedirs(WORK_DIR, exist_ok=True)
    records = []
    for workload in chosen:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace), tmp)
        records.append(record)
        print(
            f"{workload.name}: attempted={record['attempted']} failed={record['failed']} "
            f"error_rate={record['error_rate']:.4f} checked={record['checked']} "
            f"wrong={record['wrong']} degraded={record['degraded']} "
            f"open-loop samples={record['samples']}"
        )
        for name, metric in record["metrics"].items():
            print(f"  {workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
        if record.get("absent"):
            print(f"  {workload.name} absent spans: {', '.join(record['absent'])}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=1)
    if args.trace:
        trace_dir = os.path.dirname(os.path.abspath(args.out)) if args.out else WORK_DIR
        table = {r["workload"]: {"absent": r["absent"], "metrics": r["metrics"]} for r in records}
        with open(os.path.join(trace_dir, "trace.json"), "w") as fh:
            json.dump(table, fh, indent=1)
    single = len(records) == 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (name if single else f"{r['workload']}.{name}"): metric
            for r in records
            for name, metric in r["metrics"].items()
            if args.trace or name in END_TO_END
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
