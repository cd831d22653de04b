"""Shared plumbing for the served-stack benchmark workloads.

Everything here drives the program only through what a deployment
uses: ``SiteDaemon`` configs, the admin socket, ``ReplicaSite`` edits
and reads, and the counters the daemon, transport and store already
expose. The few always-on hooks (:class:`Meter`) only count bytes and
time around calls the benchmark must observe to compute its
end-to-end metrics; the per-layer spans live in :mod:`tracing`.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import resource
import shutil
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.path import ROOT as ROOT_PATH
from repro.replication.clock import VectorClock
from repro.replication.site import ReplicaSite
from repro.replication.wire import decode_wire, peek_wire_kind
from repro.server import connection as connection_module
from repro.server.daemon import DaemonConfig, SiteDaemon
from repro.storage.store import DurableStore

HOST = "127.0.0.1"
#: Roster address for a peer the daemon never dials (larger site ids
#: dial smaller ones, so only the dialer's entry must be real).
UNDIALED = (HOST, 9)


# -- statistics ------------------------------------------------------------------------


def quantile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank quantile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- inputs ------------------------------------------------------------------------------


_WORDS = (
    "replica tree doc commute edit converge buffer atom identifier dense "
    "path node balance flatten site clock merge causal order commit page "
    "line text the of and a to in is that for on with as it by"
).split()


def prose(rng: random.Random, length: int) -> List[str]:
    """``length`` characters of seeded pseudo-prose, one atom each."""
    chars: List[str] = []
    while len(chars) < length:
        word = rng.choice(_WORDS)
        chars.extend(word)
        chars.append("." if rng.random() < 0.08 else " ")
        if rng.random() < 0.02:
            chars.append("\n")
    return chars[:length]


class CaptureNetwork:
    """The network contract of a scratch :class:`ReplicaSite`: records
    its broadcast envelopes and delivers nothing."""

    def __init__(self, site: int) -> None:
        self.frames: List[bytes] = []
        self.now = 0.0
        self.sites = (site,)

    def register(self, site, handler) -> None:
        pass

    def send(self, src, dst, data) -> None:
        pass

    def broadcast(self, src, data) -> None:
        self.frames.append(bytes(data))

    def reachable(self, src, dst) -> bool:
        return True

    def disconnect(self, site) -> None:
        pass


def collapsed_state(site_id: int, chars: List[str]) -> bytes:
    """A start document as a scratch site publishes it: typed in one
    batch, flattened, collapsed into array leaves, then captured as the
    state-transfer frame the daemons adopt (encoded wire bytes)."""
    scratch = ReplicaSite(site_id, CaptureNetwork(site_id))
    scratch.insert_text(0, chars)
    scratch.doc.note_revision()
    scratch.doc.flatten_local(ROOT_PATH)
    scratch.doc.collapse_cold(min_age=0, min_atoms=4)
    return scratch.make_state_transfer().to_wire()


# -- always-on meters ---------------------------------------------------------------------


class Meter:
    """Counters the end-to-end metrics need, kept in the untraced run
    too: stream bytes the daemons write (segment headers included),
    checkpoint bytes the stores write, and time spent in storage (WAL
    appends and checkpoints).

    Patches ``encode_segment`` where ``repro.server.connection`` looks
    it up, ``DurableStore.write_checkpoint``, ``DurableStore.append``
    and ``ReplicaSite.checkpoint`` for the rest of the process.
    """

    def __init__(self) -> None:
        self.segment_bytes = 0
        self.checkpoint_bytes = 0
        self.storage_seconds = 0.0
        original_segment = connection_module.encode_segment
        original_write = DurableStore.write_checkpoint
        meter = self

        def encode_segment(payload):
            data = original_segment(payload)
            meter.segment_bytes += len(data)
            return data

        def write_checkpoint(store, frame, meta=None):
            meter.checkpoint_bytes += len(frame)
            return original_write(store, frame, meta)

        def timed(original):
            def call(*args, **kwargs):
                began = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    meter.storage_seconds += time.perf_counter() - began
            return call

        connection_module.encode_segment = encode_segment
        DurableStore.write_checkpoint = write_checkpoint
        DurableStore.append = timed(DurableStore.append)
        ReplicaSite.checkpoint = timed(ReplicaSite.checkpoint)


class ApplyHook:
    """Wraps the delivery handler a daemon's site registered on its
    ``SocketTransport`` — the call the apply loop makes per frame.

    Records the envelopes applied and their apply time — without the
    storage work (WAL append, cadence checkpoint) inside the call when
    ``meter`` is given — and after each frame runs ``after(daemon)``,
    where the workloads put the viewport read. The hook keeps no
    reference to the daemon, so a retired incarnation can be freed.
    """

    def __init__(self, daemon: SiteDaemon,
                 after: Optional[Callable[[SiteDaemon], None]] = None,
                 tracer=None, meter: Optional[Meter] = None) -> None:
        self.envelopes = 0
        self.envelope_seconds = 0.0
        self.last_envelope_at = 0.0
        inner = daemon.transport.handler
        if tracer is not None:
            inner = tracer.wrap_handler(inner)
        hook = self

        def handler(peer, payload):
            storage = 0.0 if meter is None else meter.storage_seconds
            started = time.perf_counter()
            try:
                inner(peer, payload)
            finally:
                if peek_wire_kind(payload) == "envelope":
                    hook.envelopes += 1
                    hook.envelope_seconds += time.perf_counter() - started
                    if meter is not None:
                        hook.envelope_seconds -= (meter.storage_seconds
                                                  - storage)
                    hook.last_envelope_at = time.monotonic()
                if after is not None:
                    after(daemon)

        daemon.transport.register(daemon.config.site, handler)


# -- daemons ------------------------------------------------------------------------------


def daemon_config(site: int, peers: Dict[int, tuple],
                  store: Optional[Path] = None, **overrides) -> DaemonConfig:
    """A loopback daemon config with the deployed defaults (store and
    fsync on when ``store`` is given, as ``--store`` runs it)."""
    return DaemonConfig(
        site=site, host=HOST, peers=dict(peers),
        store_path=None if store is None else str(store),
        **overrides,
    )


async def admin_ping(port: int) -> None:
    """One ``ping`` over the admin socket; returns when it answers."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(b'{"op": "ping"}\n')
        await writer.drain()
        reply = json.loads(await reader.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"admin ping refused: {reply}")
    finally:
        writer.close()
        await writer.wait_closed()


async def launch(config: DaemonConfig,
                 prepare: Optional[Callable[[SiteDaemon], None]] = None
                 ) -> SiteDaemon:
    """Construct (store recovery runs here) and start one daemon;
    ``prepare`` runs in between, before any socket is open."""
    daemon = SiteDaemon(config)
    if prepare is not None:
        prepare(daemon)
    await daemon.start()
    return daemon


async def crash(daemon: SiteDaemon) -> None:
    """Kill a daemon the way SIGKILL does, inside this process.

    Sockets are reset without flushing, frames admitted but not yet
    applied are dropped, and nothing drains or checkpoints: the store
    is detached before the teardown (``shutdown`` would otherwise take
    a final checkpoint). Every WAL append was already flushed and
    fsynced when it returned, so the files left behind are exactly a
    killed process's.
    """
    store = daemon.store
    daemon.store = None
    daemon.config.drain_timeout = 0.0
    for connection in list(daemon.connections.values()):
        connection.writer.transport.abort()
    await daemon.shutdown()
    if store is not None:
        store.close()  # releases the file handle; writes nothing


async def wait_for(predicate: Callable[[], bool], timeout: float) -> bool:
    """Poll ``predicate`` every 2 ms; False once ``timeout`` passes."""
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() >= deadline:
            return False
        await asyncio.sleep(0.002)
    return True


def counters(daemon: SiteDaemon) -> dict:
    """The program's own counters of one daemon incarnation — daemon,
    send queues, site and tree — read when the incarnation is retired,
    so the per-layer metrics can sum over incarnations whose documents
    were already freed."""
    site = daemon.site
    tree = site.doc.tree
    shed = daemon.transport.shed_totals()
    return {
        "apply_latencies": list(daemon.apply_latencies),
        "lag_syncs": daemon.lag_syncs,
        "send_depth_max": shed["max_depth_seen"],
        "shed_high": shed["shed_high"],
        "recovered_events": site.recovered_events,
        "sync_requests_sent": site.sync_requests_sent,
        "sync_deltas_applied": site.sync_deltas_applied,
        "sync_full_applied": site.sync_responses_applied,
        "explodes": tree.explodes,
        "partial_explodes": tree.partial_explodes,
        "cache_drops": tree.cache_drops,
    }


def covers(site: ReplicaSite, clock: VectorClock) -> bool:
    return site.broadcast.clock.dominates(clock)


def posids(site: ReplicaSite) -> List[tuple]:
    return [posid.bits() for posid in site.doc.posids()]


def adopt(site: ReplicaSite, state: bytes) -> None:
    """Adopt a start-document state frame (checkpoints when durable)."""
    site.apply_state_transfer(decode_wire(state))


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Failures:
    """Failure accounting plus the first few check messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.check_errors: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.check_errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.check_errors
