"""Launch the gateway for the serving benchmark, as its own process.

    python benchmarks/serving/server.py --store-dir DIR [--trace-dir DIR]

Starts a two-shard :class:`repro.gateway.Gateway` on a free loopback port
with a fresh ``store_dir`` and every other option at its default, prints
``{"port": P}`` on one stdout line, and serves until stdin closes or
SIGTERM arrives.  With ``--trace-dir`` the layer entry points are wrapped
before the fleet starts, and every process writes its spans there.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.gateway import Gateway  # noqa: E402

import spans  # noqa: E402


async def serve(store_dir: str, recorder) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    gateway = Gateway(shards=2, store_dir=store_dir)
    await gateway.start()
    try:
        loop.add_signal_handler(signal.SIGTERM, stop.set)

        def wait_stdin() -> None:
            sys.stdin.buffer.read()
            loop.call_soon_threadsafe(stop.set)

        threading.Thread(target=wait_stdin, daemon=True).start()
        print(json.dumps({"port": gateway.port}), flush=True)
        await stop.wait()
    finally:
        await gateway.stop()
        if recorder is not None:
            recorder.dump()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store-dir", required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args()
    recorder = None
    if args.trace_dir:
        recorder = spans.Recorder(args.trace_dir)
        absent = spans.install(recorder)
        with open(os.path.join(args.trace_dir, "absent.json"), "w") as fh:
            json.dump(absent, fh)
    asyncio.run(serve(args.store_dir, recorder))


if __name__ == "__main__":
    main()
