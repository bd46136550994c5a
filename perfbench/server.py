"""Launcher for the benchmark's EncDBDB server process.

Runs one ``repro.net`` :class:`NetServer` on a loopback port of its own
and answers control commands, one JSON object per line, on stdin:

- ``{"op": "stats"}``: peak RSS, enclave entry-cache counters and merge
  counters of this process;
- ``{"op": "trace", "on": true|false}``: start or stop recording spans
  (only with ``--trace``);
- ``{"op": "spans"}``: hand over and clear the recorded spans;
- ``{"op": "stop"}``: stop the server and exit.

Each reply is one line ``@@ <json>`` on stdout; the first one carries the
port. With ``--trace`` the server-side layers are wrapped by
:mod:`tracing` before the server starts; without it the only wrapper is
the merge counter, one call per ``MERGE TABLE``. Run it from the
repository root::

    python3 perfbench/server.py [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

REPLY_PREFIX = "@@ "


def _reply(payload: dict) -> None:
    sys.stdout.write(REPLY_PREFIX + json.dumps(payload) + "\n")
    sys.stdout.flush()


def _stats(dbms, merges: dict) -> dict:
    cache = dbms._enclave.fastpath_stats() or {}
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache_hits": cache.get("hits", 0),
        "cache_misses": cache.get("misses", 0),
        **merges,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import tracing
    from repro.net.server import NetServer, ServerThread

    tracer = None
    if args.trace:
        tracer = tracing.server_tracer()
        tracing.install_server(tracer)
    merges = tracing.count_merges()
    server = NetServer(host="127.0.0.1", port=0, max_sessions=4)
    handle = ServerThread(server).start()
    try:
        _reply({"port": handle.port})
        for line in sys.stdin:
            command = json.loads(line)
            op = command.get("op")
            if op == "stop":
                break
            if op == "stats":
                _reply(_stats(server.dbms, merges))
            elif op == "trace" and tracer is not None:
                tracer.enabled = bool(command["on"])
                _reply({})
            elif op == "spans" and tracer is not None:
                _reply({"spans": tracer.take()})
            else:
                _reply({"error": f"unknown command {op!r}"})
    finally:
        handle.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
