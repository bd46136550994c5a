"""Per-layer metrics and the traced-run report.

Turns the spans of a traced window (both processes) into per-op self times
per layer, and the counters of an untraced window into per-op counts. Every
name in :data:`PER_LAYER` is emitted for every workload; a layer the
workload never calls reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import RPC_VERBS

#: Ecalls reported by name; any other ecall lands in ``sgx.ecall_ms.other``.
ECALLS = (
    "dict_search",
    "dict_search_batch",
    "aggregate_groups",
    "reencrypt_for_delta",
    "rebuild_for_merge",
)
HANDLERS = RPC_VERBS

#: Layers whose per-op self time is reported as ``<layer>_ms``.
LAYERS = (
    "sql.parse_plan",
    "crypto.filter_encrypt",
    "crypto.decrypt",
    "crypto.insert_encrypt",
    "client.post",
    "net.encode",
    "net.decode",
    "net.transit",
    "sql.filter",
    "sql.render",
    "columnstore.write",
    "encdict.attrvect",
)
TIMINGS = (
    *(f"{layer}_ms" for layer in LAYERS),
    *(f"sgx.ecall_ms.{name}" for name in ECALLS),
    "sgx.ecall_ms.other",
    *(f"server.handler_ms.{name}" for name in HANDLERS),
    "trace.op_ms",
    "trace.unattributed_ms",
    "trace.overhead_ms",
)
COUNTS = (
    ("crypto.client_decrypts_per_op", "1/op"),
    ("crypto.client_encrypts_per_op", "1/op"),
    ("crypto.distinct_blob_ratio", "1"),
    ("net.frames_per_op", "1/op"),
    ("sgx.ecalls_per_op", "1/op"),
    ("sgx.enclave_decryptions_per_op", "1/op"),
    ("sgx.epc_page_faults_per_op", "1/op"),
    ("sgx.cache_hit_ratio", "1"),
    ("encdict.untrusted_loads_per_op", "1/op"),
    ("columnstore.partitions_rebuilt_per_merge", "1/merge"),
)
PER_LAYER: dict[str, str] = {
    **{name: "ms" for name in TIMINGS},
    **dict(COUNTS),
}

#: Span name -> layer, for the spans whose self time is the layer's time.
_SELF_LAYERS = {
    "client.op": "client.post",
    "sql.parse_plan": "sql.parse_plan",
    "crypto.filter_encrypt": "crypto.filter_encrypt",
    "net.encode": "net.encode",
    "net.decode": "net.decode",
    "sql.filter": "sql.filter",
    "encdict.attrvect": "encdict.attrvect",
    "server.execute_select": "sql.render",
    "server.execute_select_pushdown": "sql.render",
    "server.execute_insert": "columnstore.write",
    "server.execute_delete": "columnstore.write",
    "server.execute_merge": "columnstore.write",
}


def _key(value) -> tuple | None:
    return tuple(value) if value is not None else None


def layer_seconds(client: list[dict], server: list[dict]) -> tuple[dict, dict, dict]:
    """Total seconds per layer over a traced window.

    Returns ``(layers, handlers, decrypts)``: self seconds per layer (the
    client's RPC self time minus the server's time for the same QUERY
    frames is ``net.transit``), inclusive seconds per server handler, and
    the client's decryption count and distinct-ciphertext count.
    """
    links = {_key(r["rpc"]): _key(r["req"]) for r in client if r["name"] == "link"}
    layers: dict[str, float] = defaultdict(float)
    handlers: dict[str, float] = defaultdict(float)
    decrypts = {"count": 0, "distinct": 0}
    rpc_self = 0.0
    for record in client:
        name = record["name"]
        if "count" in record:
            layers[name] += record["seconds"]
            if name == "crypto.decrypt":
                decrypts["count"] += record["count"]
                decrypts["distinct"] += record["distinct"]
        elif name == "net.rpc":
            rpc_self += record["self"]
        elif name in _SELF_LAYERS:
            layers[_SELF_LAYERS[name]] += record["self"]
    server_inclusive = 0.0
    for record in server:
        if "id" not in record or _key(record["req"]) not in links:
            continue
        name = record["name"]
        if record["parent"] is None:
            server_inclusive += record["end"] - record["start"]
        if name.startswith("sgx.ecall."):
            layers[name] += record["self"]
        elif name in _SELF_LAYERS:
            layers[_SELF_LAYERS[name]] += record["self"]
        if name.startswith("server."):
            handlers[name[len("server."):]] += record["end"] - record["start"]
    layers["net.transit"] = rpc_self - server_inclusive
    return dict(layers), dict(handlers), decrypts


def per_layer_metrics(
    client: list[dict],
    server: list[dict],
    traced_ops: int,
    traced_op_s: float,
    untraced_op_s: float,
    counts: dict,
) -> tuple[dict[str, float], dict[str, float]]:
    """The :data:`PER_LAYER` values, plus the per-op ms of every layer."""
    layers, handlers, decrypts = layer_seconds(client, server)
    per_op = {name: 1000.0 * seconds / traced_ops for name, seconds in layers.items()}
    values = {f"{layer}_ms": per_op.get(layer, 0.0) for layer in LAYERS}
    for name in ECALLS:
        values[f"sgx.ecall_ms.{name}"] = per_op.get(f"sgx.ecall.{name}", 0.0)
    values["sgx.ecall_ms.other"] = sum(
        ms
        for layer, ms in per_op.items()
        if layer.startswith("sgx.ecall.") and layer[len("sgx.ecall."):] not in ECALLS
    )
    for name in HANDLERS:
        values[f"server.handler_ms.{name}"] = 1000.0 * handlers.get(name, 0.0) / traced_ops
    ops = counts["ops"]
    op_ms = 1000.0 * traced_op_s / traced_ops
    values["trace.op_ms"] = op_ms
    values["trace.unattributed_ms"] = op_ms - sum(per_op.values())
    values["trace.overhead_ms"] = op_ms - 1000.0 * untraced_op_s / ops
    values["crypto.distinct_blob_ratio"] = (
        decrypts["distinct"] / decrypts["count"] if decrypts["count"] else 0.0
    )
    values["crypto.client_decrypts_per_op"] = counts["client_decrypts"] / ops
    values["crypto.client_encrypts_per_op"] = counts["client_encrypts"] / ops
    values["net.frames_per_op"] = counts["frames"] / ops
    values["sgx.ecalls_per_op"] = counts["ecalls"] / ops
    values["sgx.enclave_decryptions_per_op"] = counts["decryptions"] / ops
    values["sgx.epc_page_faults_per_op"] = counts["epc_page_faults"] / ops
    values["encdict.untrusted_loads_per_op"] = counts["untrusted_loads"] / ops
    lookups = counts["cache_hits"] + counts["cache_misses"]
    values["sgx.cache_hit_ratio"] = counts["cache_hits"] / lookups if lookups else 0.0
    values["columnstore.partitions_rebuilt_per_merge"] = (
        counts["partitions_rebuilt"] / counts["merges"] if counts["merges"] else 0.0
    )
    return values, per_op


def text(workload, values: dict[str, float], per_op: dict[str, float]) -> list[str]:
    """The traced-run report: self time and share per layer, remainder,
    overhead, and whether the stressed layers dominate."""
    op_ms = values["trace.op_ms"]
    lines = [f"traced-run report for {workload.name}: {op_ms:.3f} ms per traced op"]
    for layer, ms in sorted(per_op.items(), key=lambda item: -item[1]):
        lines.append(f"  {layer:<34} {ms:9.3f} ms  {100.0 * ms / op_ms:6.1f} %")
    remainder = values["trace.unattributed_ms"]
    lines.append(f"  {'(unattributed)':<34} {remainder:9.3f} ms  {100.0 * remainder / op_ms:6.1f} %")
    lines.append(
        f"  tracing overhead: {values['trace.overhead_ms']:.3f} ms per op "
        "(traced windows minus the alternating windows on an unwrapped "
        "deployment, mean op latency)"
    )
    stressed = sum(
        ms
        for layer, ms in per_op.items()
        if any(layer == s or layer.startswith(s + ".") for s in workload.stresses)
    )
    share = stressed / op_ms
    top_layer, top_ms = max(per_op.items(), key=lambda item: item[1])
    verdict = "dominates" if share >= 0.5 else "does NOT dominate"
    lines.append(
        f"  stressed layers, {workload.stress_label}: {100.0 * share:.1f} % of op latency, "
        f"{verdict}; largest single layer: {top_layer} ({100.0 * top_ms / op_ms:.1f} %)"
    )
    return lines
