"""End-to-end benchmark of EncDBDB over loopback TCP.

One ``repro.net`` server runs in a process of its own (``server.py``); this
process is the load generator. It opens two ``EncDBDBSystem`` sessions over
TCP, one connection each, and drives them as a closed loop: a session sends
its next statement only after the reply to the previous one arrived. Every
answer is checked against a stdlib ``sqlite3`` oracle after the run.

One run::

    python3 perfbench/run.py --workload range-select --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced; every
timing leaves out the CPU time the host lent to other guests. ``--trace 1``
sets up a plain and a traced deployment, alternates short windows on the
two (counts and the untraced op latency from the plain one, per-layer self
times from the traced one), and prints the traced-run report. The last
line of standard output is the JSON result. Every workload, both modes,
every metric with its unit::

    python3 perfbench/run.py --all
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402
from oracle import Outcome  # noqa: E402
from repro.net.client import connect_system  # noqa: E402
from repro.net.protocol import HEADER  # noqa: E402
from server import REPLY_PREFIX  # noqa: E402
from workloads import SESSIONS, WORKLOADS  # noqa: E402

clock = time.perf_counter

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
WARMUP_S = 1.0
#: Every timing is taken in available CPU time: each slice of this length
#: counts only for the share of the CPU time the machine wanted that the
#: hypervisor gave it, so time lent to other guests moves no figure.
SLICE_S = 0.25
#: A traced run alternates this many untraced and traced windows.
TRACE_ROUNDS = 4
#: A run that has not finished by then exits non-zero (its server stops
#: when its stdin closes).
WATCHDOG_S = 175.0

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "wire_bytes_per_op": "B/op",
    "stored_bytes_per_user_byte": "1",
    "server_peak_rss_mb": "MiB",
}
#: Printed with the run but not part of the result object: the write
#: latencies exist only for write-mix, and the error ratio is the result's
#: own ``failed / attempted``.
EXTRA: dict[str, str] = {
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "error_ratio": "1",
}


# ----------------------------------------------------------------------
# Server process and sessions
# ----------------------------------------------------------------------
class ServerProcess:
    """``server.py`` in a child process, driven over its stdin/stdout.

    It stops when its stdin closes, so it does not outlive this process."""

    def __init__(self, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "server.py"),
                *(["--trace"] if trace else []),
            ],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = self._read_reply()["port"]
        except BaseException:
            self.stop()
            raise

    def _read_reply(self) -> dict:
        for line in self.proc.stdout:
            if line.startswith(REPLY_PREFIX):
                return json.loads(line[len(REPLY_PREFIX):])
        raise RuntimeError(f"server exited with code {self.proc.wait()}")

    def call(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._read_reply()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"op": "stop"}) + "\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


class FrameCounter:
    """The ``connect_system(tap=...)`` frame tap: frames and bytes, both ways."""

    def __init__(self) -> None:
        self.frames = 0
        self.bytes = 0

    def __call__(self, _direction, _frame_type, payload: bytes) -> None:
        self.frames += 1
        self.bytes += HEADER.size + len(payload)


class Deployment:
    """A fresh server with the workload's tables loaded and every session
    connected. Building one is what ``setup_s`` times."""

    def __init__(self, workload, seed: int, trace: bool) -> None:
        self.server = ServerProcess(trace)
        self.systems: list = []
        self.taps = [FrameCounter() for _ in range(SESSIONS)]
        try:
            owner = connect_system(
                "127.0.0.1", self.server.port, seed=f"perfbench:{seed}:0", tap=self.taps[0]
            )
            self.systems.append(owner)
            for ddl in workload.ddl:
                owner.execute(ddl)
            for table, columns, partition_rows in workload.loads:
                owner.bulk_load(table, columns, partition_rows=partition_rows)
            for session in range(1, SESSIONS):
                self.systems.append(
                    connect_system(
                        "127.0.0.1",
                        self.server.port,
                        seed=f"perfbench:{seed}:{session}",
                        master_key=owner.owner.master_key,
                        tap=self.taps[session],
                    )
                )
            for system in self.systems:
                system.proxy.enable_pushdown(workload.pushdown)
        except BaseException:
            self.close()
            raise

    def wire(self) -> tuple[int, int]:
        return sum(t.frames for t in self.taps), sum(t.bytes for t in self.taps)

    def close(self) -> None:
        for system in self.systems:
            system.close()
        self.server.stop()


def _cpu_ticks() -> tuple[int, int]:
    """``(stolen, wanted)`` CPU ticks of the whole machine since boot: the
    ticks the hypervisor gave to other guests while a CPU of this machine
    had work, and those plus the ticks it spent on the work. ``(0, 0)``
    where ``/proc/stat`` does not exist."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except OSError:
        return 0, 0
    user, nice, system, idle, iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq + steal


def _available(before: tuple[int, int], after: tuple[int, int]) -> float:
    """The share of the CPU time the machine wanted that it got."""
    wanted = after[1] - before[1]
    return 1.0 - (after[0] - before[0]) / wanted if wanted else 1.0


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class Window:
    start: float
    #: The time asked for; ops in flight at its end still complete.
    seconds: float
    wall_s: float
    #: ``(kind, end, latency_s)`` of every op the window completed.
    ops: list[tuple[str, float, float]]
    #: :func:`_cpu_ticks` read at the bounds of equal slices of the window
    #: (the last bound is the window's actual end).
    ticks: list[tuple[int, int]]

    def _bounds(self) -> list[float]:
        count = len(self.ticks) - 1
        step = self.seconds / count
        return [self.start + step * i for i in range(count)] + [self.start + self.wall_s]

    def available(self) -> list[float]:
        """Per slice, the share of the CPU time the machine wanted that the
        hypervisor gave it (1.0 on a host that takes none)."""
        return [_available(a, b) for a, b in zip(self.ticks, self.ticks[1:])]

    def available_s(self, begin: float, end: float) -> float:
        """The seconds of ``[begin, end]``, each slice's part scaled by the
        CPU share the machine got in that slice."""
        bounds = self._bounds()
        return sum(
            share * max(0.0, min(end, high) - max(begin, low))
            for share, low, high in zip(self.available(), bounds, bounds[1:])
        )

    def latencies(self, *kinds: str, adjust: bool = True) -> list[float]:
        """Latencies of the ``kinds`` ops, scaled to available CPU time when
        ``adjust``."""
        return [
            self.available_s(end - latency, end) if adjust else latency
            for kind, end, latency in self.ops
            if kind in kinds
        ]

    def ops_per_s(self, adjust: bool = True) -> float:
        end = self.start + self.wall_s
        return len(self.ops) / (self.available_s(self.start, end) if adjust else self.wall_s)


def _routed(decisions) -> bool:
    return bool(decisions) and all(decision.pushed for decision in decisions)


def run_window(
    deployment: Deployment, workload, streams, logs, seconds: float, slices: int = 1
) -> Window:
    """Every session runs ops until ``seconds`` have passed; each op's
    answer is appended to its session's log for the oracle. The CPU ticks
    are read at the bounds of ``slices`` equal slices."""
    ticks = [_cpu_ticks()]
    start = clock()
    stop_at = start + seconds
    done: list[list] = [[] for _ in range(SESSIONS)]

    def session_loop(session: int) -> None:
        system = deployment.systems[session]
        log = logs[session]
        while clock() < stop_at:
            op = next(streams[session])
            tracing.set_client_request((session, len(log)))
            system.proxy.last_pushdown = None
            begin = clock()
            try:
                result = system.execute(op.sql)
            except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
                outcome = Outcome(error=f"{type(exc).__name__}: {exc}")
            else:
                outcome = Outcome(rows=result.rows) if op.kind == "read" else Outcome(count=result)
            end = clock()
            done[session].append((op.kind, end, end - begin))
            if workload.pushdown and outcome.error is None and not _routed(system.proxy.last_pushdown):
                outcome.error = f"not routed to the enclave: {system.proxy.last_pushdown}"
            log.append((op, outcome))

    threads = [threading.Thread(target=session_loop, args=(s,)) for s in range(SESSIONS)]
    for thread in threads:
        thread.start()
    for index in range(1, slices):
        time.sleep(max(0.0, start + seconds * index / slices - clock()))
        ticks.append(_cpu_ticks())
    for thread in threads:
        thread.join()
    wall_s = clock() - start
    ticks.append(_cpu_ticks())
    return Window(start, seconds, wall_s, [item for per in done for item in per], ticks)


def _percentiles(samples: list[float]) -> tuple[float, float]:
    """Median and p90 of latencies, in ms. At the planned run length every
    workload has at least 10 samples beyond its p90."""
    ms = [1000.0 * s for s in samples]
    if len(ms) < 2:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def environment(seed: int) -> dict:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    try:
        # The ceiling keeps git from looking above the checkout for a repo.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "cryptography": version("cryptography"),
        "commit": commit,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    extra: dict[str, float]
    notes: list[str]

    def result_line(self, units: dict[str, str]) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


def _checked(workload, logs) -> tuple[int, int, int]:
    attempted = sum(len(log) for log in logs)
    mismatches, user_bytes = oracle.check(workload, logs)
    for line in mismatches[:5]:
        print(f"# {workload.name}: failed op: {line}")
    return attempted, len(mismatches), user_bytes


def run_untraced(workload, seed: int, seconds: float) -> RunResult:
    setups: list[float] = []
    raw_setups: list[float] = []
    deployment = None
    try:
        for _ in range(SETUPS):
            if deployment is not None:
                deployment.close()
                deployment = None
            ticks = _cpu_ticks()
            start = clock()
            deployment = Deployment(workload, seed, trace=False)
            raw_setups.append(clock() - start)
            setups.append(raw_setups[-1] * _available(ticks, _cpu_ticks()))
        streams = [workload.ops(s) for s in range(SESSIONS)]
        logs: list[list] = [[] for _ in range(SESSIONS)]
        run_window(deployment, workload, streams, logs, WARMUP_S)
        _, bytes0 = deployment.wire()
        window = run_window(
            deployment, workload, streams, logs, seconds, max(1, round(seconds / SLICE_S))
        )
        _, bytes1 = deployment.wire()
        rss_mb = deployment.server.call(op="stats")["peak_rss_mb"]
        WORK.mkdir(exist_ok=True)
        saved = WORK / f"{workload.name}-{seed}-{os.getpid()}.db"
        # The stored size is that of the merged, dictionary-compressed
        # columns, not of whatever delta the window happened to leave.
        for table, _, _ in workload.loads:
            deployment.systems[0].execute(f"MERGE TABLE {table}")
        try:
            deployment.systems[0].save(str(saved))
            stored = saved.stat().st_size
        finally:
            saved.unlink(missing_ok=True)
    finally:
        if deployment is not None:
            deployment.close()
    attempted, failed, user_bytes = _checked(workload, logs)
    ops = len(window.ops)
    reads = window.latencies("read")
    writes = window.latencies("insert", "delete")
    read_p50, read_p90 = _percentiles(reads)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": window.ops_per_s(),
        "read_p50_ms": read_p50,
        "read_p90_ms": read_p90,
        "wire_bytes_per_op": (bytes1 - bytes0) / ops,
        "stored_bytes_per_user_byte": stored / user_bytes,
        "server_peak_rss_mb": rss_mb,
    }
    extra = {"error_ratio": failed / attempted}
    raw_p50, raw_p90 = _percentiles(window.latencies("read", adjust=False))
    shares = window.available()
    notes = [
        # Time the hypervisor gave to other guests slows every op; the
        # timings above leave it out.
        f"CPU share the host gave: {window.ops_per_s(adjust=False) / window.ops_per_s():.3f} "
        f"over the window, {min(shares):.3f} .. {max(shares):.3f} per {SLICE_S} s slice",
        f"setups_s (as measured): {', '.join(f'{s:.3f}' for s in raw_setups)}",
        f"as measured: ops_per_s {window.ops_per_s(adjust=False):.3f}, "
        f"read_p50_ms {raw_p50:.3f}, read_p90_ms {raw_p90:.3f}",
        f"window: {ops} ops in {window.wall_s:.3f} s, {len(reads)} reads, {len(writes)} writes",
        f"read latency samples: {len(reads)}",
    ]
    if writes:
        extra["write_p50_ms"], extra["write_p90_ms"] = _percentiles(writes)
        notes.append(f"write latency samples: {len(writes)}")
    return RunResult(failed == 0, attempted, failed, metrics, extra, notes)


def _counters(deployment: Deployment) -> dict:
    cost = deployment.systems[0].server.cost_snapshot()
    stats = deployment.server.call(op="stats")
    frames, _ = deployment.wire()
    return {
        "client_decrypts": sum(s.proxy._pae.decrypt_count for s in deployment.systems),
        "client_encrypts": sum(s.proxy._pae.encrypt_count for s in deployment.systems),
        "frames": frames,
        "ecalls": cost["ecalls"],
        "decryptions": cost["decryptions"],
        "epc_page_faults": cost["epc_page_faults"],
        "untrusted_loads": cost["untrusted_loads"],
        **{key: stats[key] for key in ("cache_hits", "cache_misses", "merges", "partitions_rebuilt")},
    }


def run_traced(workload, seed: int, seconds: float) -> tuple[RunResult, list[str]]:
    """Two deployments of the same workload and seed: a plain one (server
    started without ``--trace``, client wrappers taken out while it runs)
    and a traced one. Short windows on each alternate, so host drift and
    steal land on both alike. The plain windows give the counts and the
    untraced op latency; the traced ones give the spans."""
    tracer = tracing.client_tracer()
    wrappers = tracing.install_client(tracer)
    plain = traced = None
    try:
        wrappers.switch(False)
        plain = Deployment(workload, seed, trace=False)
        wrappers.switch(True)
        start = clock()
        traced = Deployment(workload, seed, trace=True)
        setup_s = clock() - start
        # Per-row wrappers go on the traced proxies only.
        for system in traced.systems:
            tracing.install_client_pae(tracer, system.proxy._pae)
        streams = {d: [workload.ops(s) for s in range(SESSIONS)] for d in (plain, traced)}
        logs = {d: [[] for _ in range(SESSIONS)] for d in (plain, traced)}

        def window(deployment: Deployment, span_s: float) -> Window:
            wrappers.switch(deployment is traced)
            return run_window(deployment, workload, streams[deployment], logs[deployment], span_s)

        window(traced, WARMUP_S)
        window(plain, WARMUP_S)
        before = _counters(plain)
        tracer.enabled = True
        traced.server.call(op="trace", on=True)
        untraced_windows, traced_windows = [], []
        for _ in range(TRACE_ROUNDS):
            untraced_windows.append(window(plain, seconds / (2 * TRACE_ROUNDS)))
            traced_windows.append(window(traced, seconds / (2 * TRACE_ROUNDS)))
        traced.server.call(op="trace", on=False)
        tracer.enabled = False
        wrappers.switch(False)
        after = _counters(plain)
        server_spans = traced.server.call(op="spans")["spans"]
        client_spans = tracer.take()
    finally:
        wrappers.switch(False)
        for deployment in (traced, plain):
            if deployment is not None:
                deployment.close()
    counts = {key: after[key] - before[key] for key in before}
    # The cost snapshot itself is one QUERY round trip: two frames.
    counts["frames"] -= 2
    untraced_s = [latency for w in untraced_windows for _, _, latency in w.ops]
    traced_s = [latency for w in traced_windows for _, _, latency in w.ops]
    counts["ops"] = len(untraced_s)
    attempted = failed = 0
    for deployment_logs in logs.values():
        checked = _checked(workload, deployment_logs)
        attempted += checked[0]
        failed += checked[1]
    values, per_op = report.per_layer_metrics(
        client_spans,
        server_spans,
        traced_ops=len(traced_s),
        traced_op_s=sum(traced_s),
        untraced_op_s=sum(untraced_s),
        counts=counts,
    )
    notes = [
        f"setup_s (traced server): {setup_s:.3f}",
        f"untraced windows (unwrapped server and client): {len(untraced_s)} ops; "
        f"traced windows: {len(traced_s)} ops",
    ]
    result = RunResult(failed == 0, attempted, failed, values, {"error_ratio": failed / attempted}, notes)
    return result, report.text(workload, values, per_op)


def _start_watchdog() -> threading.Timer:
    def expire() -> None:
        sys.stderr.write(f"perfbench: run exceeded {WATCHDOG_S:.0f} s, aborting\n")
        sys.stderr.flush()
        os._exit(3)

    timer = threading.Timer(WATCHDOG_S, expire)
    timer.daemon = True
    timer.start()
    return timer


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """One run of one workload; returns ``(result, report_lines)``."""
    workload = WORKLOADS[name](seed, scale)
    if trace:
        return run_traced(workload, seed, seconds)
    return run_untraced(workload, seed, seconds), []


def _print_run(name: str, result: RunResult, units: dict[str, str], lines: list[str]) -> None:
    for line in lines:
        print(line)
    for note in result.notes:
        print(f"# {name}: {note}")
    for metric, value in {**result.metrics, **result.extra}.items():
        print(f"{name:<13} {metric:<42} {value:>14.6g} {units[metric]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="EncDBDB end-to-end TCP benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument(
        "--all", action="store_true", help="run every workload, untraced and traced"
    )
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    if args.all:
        # One child process per run, so no run inherits another's wrappers.
        for name in WORKLOADS:
            for trace in ("0", "1"):
                subprocess.run(
                    [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", trace, "--scale", str(args.scale)],
                    check=True,
                )
        return 0
    print("# env " + json.dumps(environment(args.seed)), flush=True)
    units = {**END_TO_END, **EXTRA, **report.PER_LAYER}
    watchdog = _start_watchdog()
    result, lines = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    watchdog.cancel()
    _print_run(args.workload, result, units, lines)
    print(result.result_line(units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
