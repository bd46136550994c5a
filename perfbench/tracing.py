"""In-memory span recorder and the wrappers that feed it.

The benchmark times each layer from its own files: it replaces the public
functions named below with thin wrappers that open a span around the
original call. Nothing in ``src/`` changes. A span is one dict with a name,
start, end, parent span id, request id and *self* time (its duration minus
the time covered by its child spans and by the per-row calls aggregated
into it). Per-row calls such as ``Pae.decrypt`` would swamp the recorder
with one span each, so they are folded into one aggregate record per
enclosing span: a count, a total time and, optionally, a count of distinct
arguments.

Request ids correlate the two processes. On the client a request is
``(session, op_no)``; on the server it is ``(session_id, query_no)``, the
server-assigned session id and the position of the QUERY frame on that
connection. The client records a *link* from every QUERY frame it sends to
the op that sent it, so server spans map back to client ops. Each session
has at most one op in flight, so the mapping is exact.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from typing import Any, Callable

clock = time.perf_counter


class _Frame:
    __slots__ = ("span_id", "parent", "name", "start", "req", "child", "aggs")

    def __init__(self, span_id, parent, name, start, req):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.req = req
        self.child = 0.0
        self.aggs: dict[str, list] = {}


class Tracer:
    """Collects spans while :attr:`enabled`; a pass-through otherwise."""

    def __init__(self, request_id: Callable[[], Any]) -> None:
        self.enabled = False
        self.records: list[dict] = []
        self._request_id = request_id
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit(self, record: dict) -> None:
        with self._lock:
            self.records.append(record)

    def wrap(self, fn: Callable, name: str | Callable[..., str]) -> Callable:
        """A span around every call of ``fn``; ``name`` may derive from args."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = _Frame(
                next(tracer._ids),
                parent.span_id if parent else None,
                name(*args, **kwargs) if callable(name) else name,
                clock(),
                parent.req if parent else tracer._request_id(),
            )
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                folded = 0.0
                for agg_name, (count, seconds, distinct) in frame.aggs.items():
                    folded += seconds
                    tracer._emit(
                        {
                            "name": agg_name,
                            "parent": frame.span_id,
                            "req": frame.req,
                            "count": count,
                            "seconds": seconds,
                            "distinct": len(distinct) if distinct is not None else None,
                        }
                    )
                tracer._emit(
                    {
                        "id": frame.span_id,
                        "name": frame.name,
                        "start": frame.start,
                        "end": end,
                        "parent": frame.parent,
                        "req": frame.req,
                        "self": duration - frame.child - folded,
                    }
                )
                if parent is not None:
                    parent.child += duration

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_per_call(
        self,
        fn: Callable,
        name: Callable[[str | None], str | None],
        distinct_arg: int | None = None,
    ) -> Callable:
        """Fold every call of ``fn`` into its innermost open span.

        ``name(enclosing_span_name)`` picks the aggregate's name, or ``None``
        to leave the time inside the enclosing span (e.g. the bound
        encryptions inside a filter-encryption span). ``distinct_arg`` names
        a positional argument whose distinct values are counted.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack() if tracer.enabled else None
            if not stack:
                return fn(*args, **kwargs)
            frame = stack[-1]
            agg_name = name(frame.name)
            if agg_name is None:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                agg = frame.aggs.get(agg_name)
                if agg is None:
                    agg = frame.aggs[agg_name] = [
                        0,
                        0.0,
                        set() if distinct_arg is not None else None,
                    ]
                agg[0] += 1
                agg[1] += seconds
                if distinct_arg is not None:
                    agg[2].add(args[distinct_arg])

        wrapper.__wrapped__ = fn
        return wrapper

    def link(self, rpc: tuple) -> None:
        """Record that QUERY frame ``rpc`` belongs to the current request."""
        if self.enabled:
            stack = self._stack()
            req = stack[-1].req if stack else self._request_id()
            self._emit({"name": "link", "rpc": list(rpc), "req": req})

    def take(self) -> list[dict]:
        with self._lock:
            records, self.records = self.records, []
        return records


def patch(owner: Any, attribute: str, replacement_factory: Callable) -> None:
    """Replace ``owner.attribute`` with ``replacement_factory(original)``."""
    setattr(owner, attribute, replacement_factory(getattr(owner, attribute)))


class Patches:
    """Replaced class and module attributes that can be switched back to
    their originals and on again, between windows."""

    def __init__(self) -> None:
        self._entries: list[tuple[Any, str, Any, Any]] = []

    def patch(self, owner: Any, attribute: str, replacement_factory: Callable) -> None:
        original = getattr(owner, attribute)
        replacement = replacement_factory(original)
        self._entries.append((owner, attribute, original, replacement))
        setattr(owner, attribute, replacement)

    def switch(self, on: bool) -> None:
        for owner, attribute, original, replacement in self._entries:
            setattr(owner, attribute, replacement if on else original)


# ----------------------------------------------------------------------
# Client side (the load generator process)
# ----------------------------------------------------------------------
_client_local = threading.local()

#: The verbs that carry the ops of the three workloads: wrapped as the
#: client's ``RemoteServer`` stubs and as the server's handlers.
RPC_VERBS = (
    "execute_select",
    "execute_select_pushdown",
    "execute_insert",
    "execute_delete",
    "execute_merge",
)


def set_client_request(req: tuple | None) -> None:
    """Called by a session thread before each op."""
    _client_local.req = req


def install_client(tracer: Tracer) -> Patches:
    """Wrap the proxy-side layers; returns the wrappers, switched on.

    A traced connection must have the wrappers on for every frame it
    sends, from its first one: they number its QUERY frames.
    """
    from repro.client import proxy as proxy_module
    from repro.net import client as net_client
    from repro.net.protocol import FrameType
    from repro.sql.planner import Planner

    patches = Patches()
    patch = patches.patch

    patch(proxy_module.Proxy, "execute", lambda f: tracer.wrap(f, "client.op"))
    patch(proxy_module, "parse", lambda f: tracer.wrap(f, "sql.parse_plan"))
    patch(Planner, "plan", lambda f: tracer.wrap(f, "sql.parse_plan"))
    patch(
        proxy_module,
        "encrypt_search_range",
        lambda f: tracer.wrap(f, "crypto.filter_encrypt"),
    )
    for verb in RPC_VERBS:
        patch(net_client.RemoteServer, verb, lambda f: tracer.wrap(f, "net.rpc"))
    patch(net_client, "encode_payload", lambda f: tracer.wrap(f, "net.encode"))
    patch(net_client, "encode_frame", lambda f: tracer.wrap(f, "net.encode"))
    patch(net_client, "decode_payload", lambda f: tracer.wrap(f, "net.decode"))

    # QUERY frames are numbered per connection from the first one sent,
    # whether or not recording is on, so the numbers match the server's.
    def count_queries(send_frame):
        @functools.wraps(send_frame)
        def wrapper(self, frame_type, payload):
            if frame_type is FrameType.QUERY:
                self.perfbench_queries = getattr(self, "perfbench_queries", 0) + 1
                tracer.link((self.hello["session"], self.perfbench_queries))
            return send_frame(self, frame_type, payload)

        return wrapper

    patch(net_client.NetConnection, "_send_frame", count_queries)
    return patches


def client_tracer() -> Tracer:
    return Tracer(lambda: getattr(_client_local, "req", None))


def install_client_pae(tracer: Tracer, pae) -> None:
    """Fold one proxy's per-row PAE calls into the enclosing spans."""
    pae.decrypt = tracer.wrap_per_call(
        pae.decrypt, lambda _enclosing: "crypto.decrypt", distinct_arg=1
    )
    pae.encrypt = tracer.wrap_per_call(
        pae.encrypt,
        lambda enclosing: None
        if enclosing == "crypto.filter_encrypt"
        else "crypto.insert_encrypt",
    )


# ----------------------------------------------------------------------
# Server side (the launcher process)
# ----------------------------------------------------------------------
_server_session: contextvars.ContextVar = contextvars.ContextVar("perfbench_session")
_server_request: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)


def server_tracer() -> Tracer:
    return Tracer(_server_request.get)


def install_server(tracer: Tracer) -> None:
    """Wrap the server-side layers.

    The request id is set per session task when a QUERY frame arrives and
    is copied into the worker thread that runs the handler, because
    ``asyncio.to_thread`` carries the caller's context along.
    """
    from repro.columnstore import column as column_module
    from repro.net import server as net_server
    from repro.net.protocol import FrameType
    from repro.server.dbms import EncDBDBServer
    from repro.sgx.enclave import EnclaveHost
    from repro.sql.executor import Executor

    def track_session(session_loop):
        @functools.wraps(session_loop)
        async def wrapper(self, session, reader, writer):
            _server_session.set([session.session_id, 0])
            return await session_loop(self, session, reader, writer)

        return wrapper

    def number_queries(read_frame_async):
        @functools.wraps(read_frame_async)
        async def wrapper(reader):
            frame_type, raw = await read_frame_async(reader)
            counter = _server_session.get(None)
            if counter is not None and frame_type is FrameType.QUERY:
                counter[1] += 1
                _server_request.set((counter[0], counter[1]))
            return frame_type, raw

        return wrapper

    patch(net_server.NetServer, "_session_loop", track_session)
    patch(net_server, "read_frame_async", number_queries)
    patch(net_server, "decode_payload", lambda f: tracer.wrap(f, "net.decode"))
    patch(net_server, "encode_payload", lambda f: tracer.wrap(f, "net.encode"))
    patch(net_server, "encode_frame", lambda f: tracer.wrap(f, "net.encode"))
    for verb in RPC_VERBS:
        patch(EncDBDBServer, verb, lambda f, v=verb: tracer.wrap(f, f"server.{v}"))
    patch(Executor, "filter_record_ids", lambda f: tracer.wrap(f, "sql.filter"))
    patch(
        EnclaveHost,
        "ecall",
        lambda f: tracer.wrap(f, lambda _host, name, *a, **k: f"sgx.ecall.{name}"),
    )
    for name in ("attr_vect_search", "attr_vect_search_many"):
        patch(column_module, name, lambda f: tracer.wrap(f, "encdict.attrvect"))


def count_merges() -> dict:
    """Count merges and rebuilt partitions in this process (one call per
    ``MERGE TABLE``; installed on every benchmark server, traced or not)."""
    from repro.sql.executor import Executor

    merges = {"merges": 0, "partitions_rebuilt": 0}

    def counted(merge):
        @functools.wraps(merge)
        def wrapper(self, plan):
            result = merge(self, plan)
            merges["merges"] += 1
            merges["partitions_rebuilt"] += self.last_merge_stats.partitions_rebuilt
            return result

        return wrapper

    patch(Executor, "merge", counted)
    return merges
