"""Traced mode: spans around the public calls into each layer.

Spans are recorded from the benchmark's own code only — by wrapping
public entry points on their classes, or module functions where the
calling module looks them up — so the program runs unmodified. Each
span is ``[name, start_ns, end_ns, parent, origin, seq]``: ``parent``
is the index of the enclosing span (-1 at top level) and
``(origin, seq)`` names the envelope where the wrapped call knows it.
Every wrapped call is synchronous (``SiteDaemon.admit`` is a coroutine
that never suspends), so one stack gives the nesting even with several
tasks on the loop.

Recording starts when the timed phase begins (set-up is not traced) and
stops when the run finishes; spans stay in memory and are written to
the span file at the end. A layer's self time is its spans' durations
minus the time their child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core import treedoc as treedoc_module
from repro.replication import broadcast as broadcast_module
from repro.replication import site as site_module
from repro.replication import wire as wire_module
from repro.replication.wire import EnvelopeFrame, SyncDelta, SyncResponse
from repro.server import connection as connection_module
from repro.server import daemon as daemon_module
from repro.server.framing import FrameReader
from repro.storage.store import DurableStore

import harness
import typists

_NOW = time.perf_counter_ns


def _envelope_ident(frame) -> Optional[tuple]:
    if isinstance(frame, EnvelopeFrame):
        return frame.origin, frame.sequence
    return None


class Tracer:
    """Span recorder plus the few boundary samples spans cannot give
    (queue wait, inbound depth, handshake time, buffered envelopes)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.active = False
        #: id(payload) -> admit time, for admit-to-apply-start waits.
        self._admitted: Dict[int, int] = {}
        self.queue_wait_ms: List[float] = []
        self.inbound_depth_max = 0
        self._conn_started: Dict[int, int] = {}
        self.handshake_ms: List[float] = []
        self.buffered_max = 0
        #: Handler calls in progress: a frame decoded inside one came
        #: from a peer, not from a store being recovered.
        self._handling = 0
        self.frames_delivered = 0
        self.sync_bytes_received = 0
        self.envelope_bytes: List[int] = []
        self.applied_ops = 0

    # -- recording ----------------------------------------------------------------------

    def span(self, name: str, call: Callable, args=(), kwargs=None,
             ident: Optional[Callable] = None):
        """Run ``call`` inside a span (untraced while inactive)."""
        if not self.active:
            return call(*args, **(kwargs or {}))
        record = [name, _NOW(), 0, self._stack[-1] if self._stack else -1,
                  None, None]
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = call(*args, **(kwargs or {}))
        finally:
            record[2] = _NOW()
            self._stack.pop()
        if ident is not None:
            key = ident(args, result)
            if key is not None:
                record[4], record[5] = key
        return result

    def _wrap(self, owner, attr: str, name: str,
              ident: Optional[Callable] = None,
              after: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.span(name, original, args, kwargs, ident)
            if after is not None and tracer.active:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_handler(self, inner: Callable) -> Callable:
        """The handler registered on a ``SocketTransport``: one span
        per applied frame, and the frame's wait since admission."""
        tracer = self

        def handler(peer, payload):
            admitted = tracer._admitted.pop(id(payload), None)
            if admitted is not None and tracer.active:
                tracer.queue_wait_ms.append((_NOW() - admitted) / 1e6)
            tracer._handling += 1
            try:
                return tracer.span("server.transport.handler", inner,
                                   (peer, payload))
            finally:
                tracer._handling -= 1

        return handler

    # -- installation ---------------------------------------------------------------------

    def install(self) -> None:
        """Patch every traced entry point (recording starts with
        :attr:`active`)."""
        tracer = self
        wrap = self._wrap

        # server.framing
        def delivered(args, frame):
            if frame is not None:
                tracer.frames_delivered += 1

        wrap(FrameReader, "feed", "server.framing.feed")
        wrap(FrameReader, "next_frame", "server.framing.next_frame",
             after=delivered)

        # server.daemon: admission (a coroutine that never suspends).
        original_admit = daemon_module.SiteDaemon.admit

        async def admit(daemon, peer, payload):
            if not tracer.active:
                return await original_admit(daemon, peer, payload)
            depth = daemon._inbound.qsize()
            started = _NOW()
            record = ["server.daemon.admit", started, 0,
                      tracer._stack[-1] if tracer._stack else -1,
                      None, None]
            tracer.spans.append(record)
            try:
                await original_admit(daemon, peer, payload)
            finally:
                record[2] = _NOW()
            after = daemon._inbound.qsize()  # what status() reports
            if after > depth:
                tracer._admitted[id(payload)] = started
            tracer.inbound_depth_max = max(tracer.inbound_depth_max, after)

        daemon_module.SiteDaemon.admit = admit

        # server.connection: handshake = run() start to attach.
        original_run = connection_module.PeerConnection.run
        original_attach = daemon_module.SiteDaemon.attach_connection

        async def run(connection):
            tracer._conn_started[id(connection)] = _NOW()
            return await original_run(connection)

        def attach_connection(daemon, connection):
            started = tracer._conn_started.pop(id(connection), None)
            if started is not None and tracer.active:
                tracer.handshake_ms.append((_NOW() - started) / 1e6)
            return original_attach(daemon, connection)

        connection_module.PeerConnection.run = run
        daemon_module.SiteDaemon.attach_connection = attach_connection

        # replication.wire: patched where each caller looks it up.
        def decoded(args, frame):
            size = len(args[0])
            if isinstance(frame, EnvelopeFrame):
                tracer.envelope_bytes.append(size)
            elif (tracer._handling
                  and isinstance(frame, (SyncResponse, SyncDelta))):
                tracer.sync_bytes_received += size

        for module in (wire_module, site_module, broadcast_module,
                       daemon_module, connection_module, harness):
            if hasattr(module, "decode_wire"):
                wrap(module, "decode_wire", "replication.wire.decode_wire",
                     ident=lambda args, frame: _envelope_ident(frame),
                     after=decoded)
        for module in (wire_module, site_module, broadcast_module,
                       daemon_module, connection_module):
            if hasattr(module, "encode_wire"):
                wrap(module, "encode_wire", "replication.wire.encode_wire",
                     ident=lambda args, data: _envelope_ident(args[0]))

        # core.encoding: the envelope payload decode, as wire calls it.
        wrap(wire_module, "decode_frame", "core.encoding.decode_frame")

        # replication.broadcast
        def buffered(args, result):
            tracer.buffered_max = max(tracer.buffered_max, args[0].buffered)

        wrap(broadcast_module.CausalBroadcast, "on_frame",
             "replication.broadcast.on_frame",
             ident=lambda args, result: _envelope_ident(args[1]),
             after=buffered)

        # core.treedoc
        Treedoc = treedoc_module.Treedoc
        def applied(args, result):
            tracer.applied_ops += len(args[1].ops)

        wrap(Treedoc, "apply_batch", "core.treedoc.apply_batch",
             after=applied)
        wrap(Treedoc, "insert_text", "core.treedoc.insert_text")
        wrap(Treedoc, "delete_range", "core.treedoc.delete_range")
        wrap(Treedoc, "merge_segments", "core.treedoc.merge_segments")
        wrap(Treedoc, "load_state", "core.treedoc.load_state")
        wrap(typists, "read_viewport", "core.treedoc.read_viewport")

        # storage.store (checkpoint bytes come from the always-on Meter)
        wrap(DurableStore, "append", "storage.store.append")
        wrap(DurableStore, "write_checkpoint",
             "storage.store.write_checkpoint")
        wrap(DurableStore, "recover", "storage.store.recover")

        # replication.site
        ReplicaSite = site_module.ReplicaSite
        wrap(ReplicaSite, "checkpoint", "replication.site.checkpoint")
        wrap(ReplicaSite, "make_state_transfer",
             "replication.site.make_state_transfer")
        wrap(ReplicaSite, "make_sync_delta",
             "replication.site.make_sync_delta")
        wrap(ReplicaSite, "request_sync", "replication.site.request_sync")

    # -- analysis -----------------------------------------------------------------------

    def by_name(self) -> Dict[str, dict]:
        """Per span name: calls, total and self time (ns)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: Dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0,
                     "durations": []})
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child[index]
            row["durations"].append(end - start)
        return table

    def write_spans(self, path: Path) -> None:
        """One span per line: name start_ns end_ns parent origin seq."""
        with open(path, "w") as handle:
            handle.write("# name start_ns end_ns parent origin seq\n")
            for name, start, end, parent, origin, seq in self.spans:
                handle.write(f"{name} {start} {end} {parent} "
                             f"{'-' if origin is None else origin} "
                             f"{'-' if seq is None else seq}\n")

    def span_cost_ns(self) -> float:
        """Measured cost of recording one span (wrapped minus bare)."""
        calls = 20000

        def noop():
            return None

        began = _NOW()
        for _ in range(calls):
            noop()
        bare = _NOW() - began
        probe = Tracer()
        probe.active = True
        began = _NOW()
        for _ in range(calls):
            probe.span("probe", noop)
        return max(0.0, (_NOW() - began - bare) / calls)


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_metrics(tracer: Tracer, run) -> Dict[str, float]:
    """Every per-layer metric, from the spans plus the program's own
    counters of every daemon incarnation and store the run used. A
    layer the workload leaves idle reads 0."""
    table = tracer.by_name()

    def durations(*names: str) -> List[int]:
        values: List[int] = []
        for name in names:
            values.extend(table[name]["durations"] if name in table else [])
        return values

    def envelope_mean(name: str) -> float:
        return harness.mean([end - start for span_name, start, end, _, origin,
                             _ in tracer.spans if span_name == name
                             and origin is not None])

    def total(key: str) -> int:
        return sum(counters[key] for counters in run.counters)

    stores = [store for store in run.stores if store is not None]
    final_sites = [d.site for d in run.final]
    deltas = total("sync_deltas_applied")
    fulls = total("sync_full_applied")
    framing_ns = sum(durations("server.framing.feed",
                               "server.framing.next_frame"))
    on_frame = table.get("replication.broadcast.on_frame")
    latencies = [ms for counters in run.counters
                 for ms in counters["apply_latencies"]]
    edits = max(run.edits, 1)
    metrics = {
        "server.framing.ns_per_frame":
            framing_ns / tracer.frames_delivered
            if tracer.frames_delivered else 0.0,
        "server.daemon.apply_p50_ms": harness.quantile(latencies, 0.5),
        "server.daemon.queue_wait_p99_ms":
            harness.quantile(tracer.queue_wait_ms, 0.99),
        "server.daemon.inbound_depth_max": tracer.inbound_depth_max,
        "server.daemon.lag_syncs": total("lag_syncs"),
        "server.transport.send_depth_max": max(
            (counters["send_depth_max"] for counters in run.counters),
            default=0),
        "server.transport.shed_high": total("shed_high"),
        "server.connection.handshake_ms":
            harness.median(tracer.handshake_ms),
        "replication.wire.decode_ns_per_frame":
            envelope_mean("replication.wire.decode_wire"),
        "replication.wire.encode_ns_per_frame":
            envelope_mean("replication.wire.encode_wire"),
        "replication.wire.bytes_per_envelope":
            harness.mean(tracer.envelope_bytes),
        "replication.broadcast.self_ns_per_frame":
            on_frame["self_ns"] / on_frame["calls"] if on_frame else 0.0,
        "replication.broadcast.buffered_max": tracer.buffered_max,
        "core.encoding.decode_ns_per_frame":
            harness.mean(durations("core.encoding.decode_frame")),
        "core.treedoc.apply_ns_per_op":
            sum(durations("core.treedoc.apply_batch")) / tracer.applied_ops
            if tracer.applied_ops else 0.0,
        "core.treedoc.local_edit_ns": harness.median(
            durations("core.treedoc.insert_text",
                      "core.treedoc.delete_range")),
        "core.treedoc.read_ns_per_render":
            harness.mean(durations("core.treedoc.read_viewport")),
        "core.treedoc.merge_segments_ms":
            _ms(harness.mean(durations("core.treedoc.merge_segments"))),
        "core.treedoc.load_state_ms":
            _ms(harness.mean(durations("core.treedoc.load_state"))),
        "core.tree.explodes": total("explodes"),
        "core.tree.partial_explodes": total("partial_explodes"),
        "core.tree.cache_drops": total("cache_drops"),
        "core.tree.array_leaves_end": sum(
            len(site.doc.tree.array_leaves()) for site in final_sites),
        "storage.store.append_p50_ms": _ms(harness.quantile(
            durations("storage.store.append"), 0.5)),
        "storage.store.bytes_appended_per_edit":
            sum(store.bytes_appended for store in stores) / edits,
        "storage.store.checkpoints":
            sum(store.checkpoints_written for store in stores),
        "storage.store.checkpoint_bytes": run.checkpoint_bytes,
        "storage.store.recover_ms":
            _ms(harness.mean(durations("storage.store.recover"))),
        "replication.site.checkpoint_ms_p50": _ms(harness.quantile(
            durations("replication.site.checkpoint"), 0.5)),
        "replication.site.state_capture_ms":
            _ms(harness.mean(
                durations("replication.site.make_state_transfer"))),
        "replication.site.recovered_events": total("recovered_events"),
        "replication.site.sync_requests_sent": total("sync_requests_sent"),
        "replication.site.sync_deltas_applied": deltas,
        "replication.site.sync_full_applied": fulls,
        "replication.site.delta_share":
            deltas / (deltas + fulls) if deltas + fulls else 0.0,
        "replication.site.make_sync_delta_ms":
            _ms(harness.mean(durations("replication.site.make_sync_delta"))),
        "replication.site.sync_bytes_received": tracer.sync_bytes_received,
        "replication.site.applied_ops_end":
            sum(len(site.applied_ops) for site in final_sites),
    }
    metrics["bench.generator_late_max_ms"] = 0.0  # no open loop: ingest
    metrics.update(run.layers)
    return metrics


def layer_table(tracer: Tracer, wall_s: float) -> str:
    """Per span name: calls, self time and its share of the traced
    wall time."""
    lines = [f"{'span':42s} {'calls':>8s} {'self ms':>10s} "
             f"{'ns/call':>10s} {'share':>7s}"]
    rows = sorted(tracer.by_name().items(),
                  key=lambda item: -item[1]["self_ns"])
    for name, row in rows:
        self_ms = row["self_ns"] / 1e6
        lines.append(
            f"{name:42s} {row['calls']:8d} {self_ms:10.1f} "
            f"{row['self_ns'] / row['calls']:10.0f} "
            f"{100.0 * self_ms / 1000.0 / wall_s if wall_s else 0.0:6.1f}%")
    return "\n".join(lines)
