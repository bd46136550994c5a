"""The data owner's side of the wire: remote proxy + remote provisioning.

Everything in this module runs in the **trusted realm** (the data owner's
machines). The key structural property: plaintext of encrypted columns,
``SKDB``, column keys and rotation offsets exist only inside these classes —
what they hand to :class:`NetConnection` for transmission is exactly what an
in-process deployment hands to :class:`~repro.server.dbms.EncDBDBServer`:
encrypted range bounds, ciphertext dictionaries, PAE-wrapped key material.
The frame tap (:attr:`NetConnection.tap`) exists so tests can sniff every
byte that crosses and prove it.

:class:`RemoteServer` duck-types the ``EncDBDBServer`` surface, so the
existing :class:`~repro.client.proxy.Proxy` and
:class:`~repro.client.owner.DataOwner` — including the paper §4.2
attestation + provisioning sequence — run against it unchanged.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.client.owner import DataOwner
from repro.client.proxy import Proxy
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import default_pae
from repro.encdict.builder import BuildResult, BuildStats
from repro.exceptions import (
    AttestationError,
    NetworkError,
    ProtocolError,
    ServerBusyError,
)
from repro.net.errors import raise_wire_error
from repro.net.protocol import (
    PROTOCOL_VERSION,
    FrameType,
    decode_payload,
    encode_frame,
    encode_payload,
    read_frame,
)
from repro.net.verbs import VERBS

#: ``tap(direction, frame_type, payload_bytes)`` — observes every frame
#: payload this connection sends ("send") or receives ("recv"), *after*
#: encoding / *before* decoding. Used by the ciphertext-only wire tests.
FrameTap = Callable[[str, FrameType, bytes], None]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, jittered exponential backoff for transient failures.

    Applied by :class:`NetConnection` to the connect path (socket refused /
    reset, server at admission capacity) and — on request — to the server's
    "another session is attesting" rejection, the two conditions the server
    raises as :class:`~repro.exceptions.ServerBusyError` precisely because
    they are transient. ``attempts`` caps the total tries so tests (and
    genuinely-down endpoints) fail fast instead of hanging; the jitter
    de-synchronizes a thundering herd of clients retrying the same server.
    """

    attempts: int = 5
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.25

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Single attempt, no backoff (the pre-PR-7 behaviour)."""
        return cls(attempts=1)

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry number ``attempt`` (1-based), jittered."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter <= 0:
            return raw
        spread = self.jitter * raw
        return max(0.0, raw - spread + rng.random() * 2.0 * spread)


class NetConnection:
    """One synchronous client connection speaking the EncDBDB wire protocol."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 60.0,
        tap: FrameTap | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.tap = tap
        self.retry = retry if retry is not None else RetryPolicy()
        # Jitter source only — nothing cryptographic rides on it, and a
        # nondeterministic seed is the point (herd de-synchronization).
        self._jitter_rng = random.Random()
        attempt = 0
        while True:
            failure: NetworkError
            try:
                self._sock = socket.create_connection((host, port), timeout=timeout)
            except OSError as exc:
                failure = NetworkError(f"cannot connect to {host}:{port}: {exc}")
            else:
                self._closed = False
                try:
                    self.hello: dict = self._handshake()
                    return
                except ServerBusyError as exc:
                    # Admission rejection arrives as an ERROR reply to the
                    # hello; drop this socket and try again from scratch.
                    self.close()
                    failure = exc
                except BaseException:
                    self.close()
                    raise
            attempt += 1
            if attempt >= self.retry.attempts:
                raise failure from None
            time.sleep(self.retry.delay(attempt, self._jitter_rng))

    # ------------------------------------------------------------------
    def _read_exact(self, n: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < n:
            try:
                chunk = self._sock.recv(n - len(chunks))
            except OSError as exc:
                raise NetworkError(f"receive failed: {exc}") from None
            if not chunk:
                raise NetworkError("connection closed by server")
            chunks += chunk
        return bytes(chunks)

    def _send_frame(self, frame_type: FrameType, payload: Any) -> None:
        raw = encode_payload(payload)
        if self.tap is not None:
            self.tap("send", frame_type, raw)
        try:
            self._sock.sendall(encode_frame(frame_type, raw))
        except OSError as exc:
            raise NetworkError(f"send failed: {exc}") from None

    def _recv_frame(self) -> tuple[FrameType, Any]:
        frame_type, raw = read_frame(self._read_exact)
        if self.tap is not None:
            self.tap("recv", frame_type, raw)
        payload = decode_payload(raw)
        if frame_type is FrameType.ERROR:
            raise_wire_error(payload["kind"], payload["message"])
        return frame_type, payload

    def request(
        self, frame_type: FrameType, payload: Any, *, retry_busy: bool = False
    ) -> tuple[FrameType, Any]:
        """One round trip; wire error frames re-raise as typed exceptions.

        ``retry_busy`` opts a request into the connection's backoff policy
        for :class:`ServerBusyError` replies. Only safe for requests whose
        rejection provably left no server-side state behind (the attest
        *offer* — the server rejects it before any enclave call).
        """
        if self._closed:
            raise NetworkError("connection is closed")
        attempt = 0
        while True:
            self._send_frame(frame_type, payload)
            try:
                return self._recv_frame()
            except ServerBusyError:
                attempt += 1
                if not retry_busy or attempt >= self.retry.attempts:
                    raise
                time.sleep(self.retry.delay(attempt, self._jitter_rng))

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """One server RPC: QUERY out, RESULT (or typed error) back."""
        reply_type, payload = self.request(
            FrameType.QUERY,
            {"method": method, "args": list(args), "kwargs": kwargs},
        )
        if reply_type is not FrameType.RESULT:
            raise ProtocolError(f"expected RESULT, got {reply_type.name}")
        return payload["value"]

    def _handshake(self) -> dict:
        reply_type, hello = self.request(
            FrameType.HELLO, {"client": "encdbdb", "protocol": PROTOCOL_VERSION}
        )
        if reply_type is not FrameType.HELLO or not isinstance(hello, dict):
            raise ProtocolError("server did not answer the hello frame")
        return hello

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass


def _sanitize_build(build: BuildResult) -> BuildResult:
    """Strip owner-side secrets from build stats before they cross the wire.

    ``rnd_offset`` is the plaintext rotation offset of ED2/ED5/ED8 — the one
    value whose secrecy those kinds depend on (it exists on the wire only as
    the dictionary's ``enc_rnd_offset`` ciphertext). ``unique_values`` and
    ``bsmax`` leak the frequency information the smoothing and hiding kinds
    pay dictionary space to conceal. The untrusted storage layer keeps none of
    these either (see ``storage._read_encrypted_column``).
    """
    stats = build.stats
    return BuildResult(
        build.dictionary,
        build.attribute_vector,
        BuildStats(
            kind=stats.kind,
            column_length=stats.column_length,
            unique_values=-1,
            dictionary_entries=stats.dictionary_entries,
            bsmax=None,
            rnd_offset=None,
        ),
    )


def _sanitize_builds(build):
    """Sanitize one build or a per-partition build list.

    Partition metadata never crosses the wire in either direction: the
    protocol encodes only the registered ``EncryptedDictionary`` fields,
    which deliberately exclude ``partition_id`` (partition ids are
    server-side bookkeeping), and ``BuildStats`` carries no partition
    fields to strip. What remains owner-chosen — how many builds are sent —
    is exactly the layout the server must store anyway.
    """
    if isinstance(build, (list, tuple)):
        return [_sanitize_build(item) for item in build]
    return _sanitize_build(build)


class _RemoteTable:
    """Schema-only table view (mirrors ``catalog.table(name).specs``)."""

    def __init__(self, name: str, specs: tuple) -> None:
        self.name = name
        self.specs = list(specs)


class _RemoteCatalog:
    """Read-only catalog shim backed by server RPCs."""

    def __init__(self, connection: NetConnection) -> None:
        self._connection = connection

    def table_names(self) -> list[str]:
        return self._connection.call("table_names")

    def table(self, name: str) -> _RemoteTable:
        return _RemoteTable(name, self._connection.call("table_specs", name))


class _RemoteCostModel:
    """Snapshot-backed view of the remote enclave's cost accounting."""

    def __init__(self, connection: NetConnection) -> None:
        self._connection = connection

    def snapshot(self) -> dict:
        return self._connection.call("cost_snapshot")

    @property
    def ecalls(self) -> int:
        return self.snapshot()["ecalls"]

    @property
    def decryptions(self) -> int:
        return self.snapshot()["decryptions"]

    @property
    def untrusted_loads(self) -> int:
        return self.snapshot()["untrusted_loads"]

    def estimated_cycles(self) -> float:
        return self.snapshot()["estimated_cycles"]


class RemoteServer:
    """Client-side stub presenting the :class:`EncDBDBServer` surface.

    ``Proxy`` and ``DataOwner`` call it exactly as they call an in-process
    server; each method is one wire round trip. ``attestation`` is a *local*
    :class:`AttestationService` — quote verification must happen in the
    trusted realm (the simulated Intel root key is shared, mirroring how a
    real verifier talks to IAS rather than trusting the provider).
    """

    def __init__(self, connection: NetConnection) -> None:
        from repro.sgx.attestation import AttestationService

        self.connection = connection
        self.attestation = AttestationService()
        self.catalog = _RemoteCatalog(connection)
        self.cost_model = _RemoteCostModel(connection)

    # -- handshake facts -------------------------------------------------
    @property
    def measurement(self) -> bytes:
        return self.connection.hello["measurement"]

    @property
    def provisioned(self) -> bool:
        return bool(self.connection.hello.get("provisioned"))

    @property
    def session_id(self) -> int:
        return self.connection.hello.get("session", 0)

    # -- attestation + provisioning (paper §4.2 steps 2, over sockets) ---
    def enclave_channel_offer(self):
        # The server holds one provisioning slot; a lost race surfaces as
        # ServerBusyError before any enclave state changes, so the offer is
        # safe to retry under the connection's backoff policy.
        _, payload = self.connection.request(
            FrameType.ATTEST, {"op": "offer"}, retry_busy=True
        )
        return payload["offer"]

    def enclave_channel_accept(self, client_public: int) -> None:
        self.connection.request(
            FrameType.ATTEST, {"op": "accept", "client_public": int(client_public)}
        )

    def enclave_provision(self, wire_blob: bytes) -> None:
        self.connection.request(FrameType.PROVISION, {"blob": wire_blob})
        self.connection.hello["provisioned"] = True

    # -- hand-written verbs (every other verb is a generated stub) -----
    def bulk_load(
        self,
        table_name: str,
        *,
        plain_columns: dict[str, list] | None = None,
        encrypted_builds: dict[str, BuildResult] | None = None,
    ) -> int:
        return self.connection.call(
            "bulk_load",
            table_name,
            plain_columns=plain_columns or {},
            encrypted_builds={
                name: _sanitize_builds(build)
                for name, build in (encrypted_builds or {}).items()
            },
        )

    def save(self, path) -> None:
        self.connection.call("save", str(path))

    def close(self) -> None:
        self.connection.close()


def _verb_stub(name: str) -> Callable:
    """One wire round trip for verb ``name``, as a ``RemoteServer`` method."""

    def stub(self, *args: Any, **kwargs: Any) -> Any:
        return self.connection.call(name, *args, **kwargs)

    stub.__name__ = name
    stub.__qualname__ = f"RemoteServer.{name}"
    return stub


# Real class attributes (not ``__getattr__``), so they can be looked up and
# wrapped on the class like hand-written methods.
for _name in VERBS:
    if _name not in vars(RemoteServer):
        setattr(RemoteServer, _name, _verb_stub(_name))


class RemoteProxy(Proxy):
    """The trusted proxy, deployed in the data owner's realm over TCP.

    Identical logic to :class:`Proxy` — plans and encrypts client-side,
    decrypts and post-processes client-side — only the server surface is a
    :class:`RemoteServer`, so plans/results travel as wire frames.
    """

    @property
    def connection(self) -> NetConnection:
        return self._server.connection


class RemoteDataOwner(DataOwner):
    """The data owner provisioning a remote deployment (paper §4.2).

    Inherits the full local EncDB pipeline; ``attest_and_provision`` against
    a :class:`RemoteServer` performs quote verification locally and pushes
    ``SKDB`` through the DH secure channel over the socket.
    """


def connect_system(
    host: str,
    port: int,
    *,
    seed: int | bytes | str = 0,
    master_key: bytes | None = None,
    provision: bool | None = None,
    expected_measurement: bytes | None = None,
    timeout: float = 60.0,
    tap: FrameTap | None = None,
    retry: RetryPolicy | None = None,
):
    """Stand up an :class:`~repro.client.session.EncDBDBSystem` over TCP.

    - ``provision=None`` (default): attest + push ``SKDB`` only when the
      remote enclave advertises that it holds no key yet; otherwise assume
      this owner's deterministic key (same ``seed`` ⇒ same ``SKDB``) or the
      explicit ``master_key`` matches the provisioned one.
    - ``provision=True`` / ``False`` force either behaviour.
    - ``expected_measurement`` pins the enclave identity; without
      provisioning it is checked against the advertised measurement.
    """
    from repro.client.session import EncDBDBSystem

    rng = HmacDrbg(seed if isinstance(seed, (bytes, str)) else int(seed))
    connection = NetConnection(host, port, timeout=timeout, tap=tap, retry=retry)
    try:
        server = RemoteServer(connection)
        owner = RemoteDataOwner(rng=rng.fork("owner"), master_key=master_key)
        should_provision = (
            provision if provision is not None else not server.provisioned
        )
        if should_provision:
            owner.attest_and_provision(
                server, expected_measurement=expected_measurement
            )
        elif (
            expected_measurement is not None
            and server.measurement != expected_measurement
        ):
            raise AttestationError(
                "remote enclave measurement does not match the pinned identity"
            )
        proxy = RemoteProxy(
            server, owner.master_key, default_pae(rng=rng.fork("proxy"))
        )
        # Mirror any pre-existing schema (e.g. reconnecting after a restart)
        # so the proxy can plan against tables it did not create itself.
        for name in server.table_names():
            proxy.register_schema(name, list(server.table_specs(name)))
    except BaseException:
        connection.close()
        raise
    return EncDBDBSystem(server, owner, proxy)
