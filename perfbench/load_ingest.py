"""Workload ``ingest``: the paper's six histories down one socket.

Set-up synthesizes the six ``PAPER_DOCUMENTS`` histories with
``generate_history`` and replays a window of each (:data:`WINDOW`)
round-robin, revision by revision, through a scratch source site as
six sections of one document: paragraph and line atoms, one
edit-script batch per envelope, a vandalism mass delete and its
restore on every wiki page. The captured envelopes are
pre-encoded as one stream of segments behind a hello.

The timed phase runs whole rounds: a fresh volatile daemon, a raw
client that writes the whole stream on one socket as fast as the socket
takes it, and the wait for the last envelope to apply; then a durable
daemon that starts with an empty store joins that daemon, catches up
through anti-entropy, and is killed and restarted on its store.
"""

from __future__ import annotations

import asyncio
import time

from repro.replication.clock import VectorClock
from repro.replication.site import ReplicaSite
from repro.replication.wire import AckFrame, encode_wire
from repro.server.framing import encode_segment
from repro.workloads import PAPER_DOCUMENTS, edit_script, generate_history

import harness

#: The daemon under load, the durable joiner, and the scratch source
#: (larger ids dial smaller ones: nobody dials the source).
SITE_DAEMON, SITE_JOINER, SITE_SOURCE = 1, 3, 5


#: Revisions taken from each history: the window reaches WINDOW
#: revisions either side of a wiki page's first vandalism episode
#: (deface, then restore), and is 2 * WINDOW + 2 revisions from the
#: start of a LaTeX file (which has none).
WINDOW = 12
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3


def _window(history) -> range:
    """Revision numbers replayed from ``history`` (see WINDOW)."""
    revisions = history.revisions
    last = len(revisions) - 1
    for number in range(1, last):
        # A deface blanks 30-70% of the page in one revision.
        if len(revisions[number]) < 0.75 * len(revisions[number - 1]):
            start = max(0, number - WINDOW)
            return range(start, min(last, number + 1 + WINDOW) + 1)
    return range(0, min(last, 2 * WINDOW + 1) + 1)


class Stream:
    """The pre-encoded input of one run, and what it must produce."""

    def __init__(self, seed: int) -> None:
        histories = [generate_history(spec, seed=seed * 1009 + index)
                     for index, spec in enumerate(PAPER_DOCUMENTS)]
        windows = [_window(history) for history in histories]
        network = harness.CaptureNetwork(SITE_SOURCE)
        source = ReplicaSite(SITE_SOURCE, network)
        lengths = [0] * len(histories)
        #: Durations of the source's edit calls (each section's first
        #: revision is loaded, not edited, and is not timed).
        self.local_ms = []

        def edit(call, *args) -> None:
            began = time.perf_counter()
            call(*args)
            self.local_ms.append((time.perf_counter() - began) * 1000.0)

        for index, (history, window) in enumerate(zip(histories, windows)):
            atoms = list(history.revisions[window[0]].atoms)
            source.insert_text(sum(lengths[:index]), atoms)
            lengths[index] = len(atoms)
        for step in range(1, max(len(window) for window in windows)):
            for index, (history, window) in enumerate(
                    zip(histories, windows)):
                if step >= len(window):
                    continue
                base = sum(lengths[:index])
                previous = history.revisions[window[step - 1]].atoms
                current = history.revisions[window[step]].atoms
                for op in edit_script(previous, current):
                    if op.kind == "insert":
                        edit(source.insert_text, base + op.index,
                             list(op.atoms))
                        lengths[index] += len(op.atoms)
                    else:
                        edit(source.delete_range, base + op.index,
                             base + op.index + op.count)
                        lengths[index] -= op.count
        #: The document the stream must produce: each window's last
        #: revision, concatenated — computed from the histories alone.
        self.expected = [atom for history, window in zip(histories, windows)
                         for atom in history.revisions[window[-1]].atoms]
        self.source_posids = harness.posids(source)
        self.source_clock = source.broadcast.clock.copy()
        self.frames = len(network.frames)
        hello = encode_wire(AckFrame(SITE_SOURCE, VectorClock()))
        self.data = encode_segment(hello) + b"".join(
            encode_segment(frame) for frame in network.frames)


def _config(stream: Stream):
    # Not the deployed inbound bound (512): the connection's read loop
    # admits every frame it reads, with no backpressure on the socket,
    # and admission silently sheds envelopes past the bound — at 512 a
    # 1,200-envelope burst loses over half of them and never completes.
    # The bound is the stream length, so the burst is applied whole.
    return harness.daemon_config(
        SITE_DAEMON,
        {SITE_SOURCE: harness.UNDIALED, SITE_JOINER: harness.UNDIALED},
        inbound_depth=stream.frames + 16,
    )


async def _discard(reader: asyncio.StreamReader) -> None:
    """Read and drop what the daemon sends the raw client."""
    try:
        while await reader.read(65536):
            pass
    except (ConnectionError, OSError):
        pass


class Round:
    """One fresh daemon ingesting the whole stream."""

    def __init__(self, stream: Stream, tracer) -> None:
        self.stream = stream
        self.tracer = tracer
        self.applied_at = []

    async def run(self, failures: harness.Failures) -> None:
        stream = self.stream
        self.daemon = await harness.launch(_config(stream), self._hook)
        reader, writer = await asyncio.open_connection(
            harness.HOST, self.daemon.port)
        discard = asyncio.get_event_loop().create_task(_discard(reader))
        try:
            self.started = time.monotonic()
            writer.write(stream.data)
            await writer.drain()
            done = await harness.wait_for(
                lambda: self.hook.envelopes >= stream.frames, 120.0)
            self.elapsed = self.hook.last_envelope_at - self.started
        finally:
            writer.close()
            await writer.wait_closed()
            await discard
        daemon = self.daemon
        missing = stream.frames - self.hook.envelopes
        errors = (daemon.decode_errors + daemon.apply_errors
                  + daemon.stream_resyncs)
        failures.attempted += stream.frames
        failures.failed += missing + errors
        failures.check(done, f"ingest: {missing} envelopes not applied")
        _check_document(failures, daemon.site, stream, "the daemon")

    def _hook(self, daemon) -> None:
        self.hook = harness.ApplyHook(daemon, self._applied, self.tracer)

    def _applied(self, daemon) -> None:
        if self.hook.envelopes > len(self.applied_at):
            self.applied_at.append(self.hook.last_envelope_at - self.started)


def _check_document(failures, site, stream: Stream, who: str) -> None:
    failures.check(site.atoms() == stream.expected,
                   f"ingest: {who}'s document differs from the windows' "
                   "last revisions")
    failures.check(harness.posids(site) == stream.source_posids,
                   f"ingest: {who}'s PosIDs differ from the source site's")


async def _join(ctx, failures: harness.Failures, stream: Stream, source,
                number: int, counters: list, stores: list) -> tuple:
    """A durable daemon with an empty store joins ``source`` and catches
    up by anti-entropy; then it is killed and restarted on its store.
    Appends both incarnations' counters and stores to ``counters`` and
    ``stores``. Returns (caught_up_s, serving_s, disk bytes, the last
    incarnation)."""
    config = harness.daemon_config(
        SITE_JOINER, {SITE_DAEMON: (harness.HOST, source.port)},
        harness.fresh_dir(ctx.work / f"joiner-{number}"))

    def prepare(daemon) -> None:
        stores.append(daemon.store)
        harness.ApplyHook(daemon, tracer=ctx.tracer)

    meter = ctx.meter
    checkpoint0 = meter.checkpoint_bytes
    began = time.monotonic()
    joiner = await harness.launch(config, prepare)
    caught = await harness.wait_for(
        lambda: harness.covers(joiner.site, stream.source_clock), 30.0)
    caught_up = time.monotonic() - began
    failures.check(caught, "ingest: the joining daemon did not catch up "
                   "in 30 s")
    _check_document(failures, joiner.site, stream, "the joiner")
    disk = joiner.store.bytes_appended + meter.checkpoint_bytes - checkpoint0
    await harness.crash(joiner)
    counters.append(harness.counters(joiner))
    began = time.monotonic()
    joiner = await harness.launch(config, prepare)
    await harness.admin_ping(joiner.admin_port)
    serving = time.monotonic() - began
    _check_document(failures, joiner.site, stream, "the restarted joiner")
    await joiner.shutdown()
    counters.append(harness.counters(joiner))
    return caught_up, serving, disk, joiner


async def run(ctx) -> None:
    failures = harness.Failures()
    setups, local_ms = [], []
    for _ in range(SETUP_REPEATS):
        began = time.monotonic()
        stream = Stream(ctx.seed)
        daemon = await harness.launch(_config(stream))
        setups.append(time.monotonic() - began)
        local_ms.extend(stream.local_ms)
        await daemon.shutdown()
    rounds, caught_up, serving, disk = [], [], [], []
    # Every incarnation's counters and stores, all rounds.
    counters, stores = [], []
    ctx.begin_timed()
    timed_from = time.monotonic()
    while not rounds or time.monotonic() - timed_from < ctx.seconds:
        if rounds:
            # Keep only the last round's daemon (and document) alive.
            previous = rounds[-1]
            await previous.daemon.shutdown()
            counters.append(harness.counters(previous.daemon))
            previous.daemon = previous.hook = None
        rounds.append(Round(stream, ctx.tracer))
        await rounds[-1].run(failures)
        joined = await _join(ctx, failures, stream, rounds[-1].daemon,
                             len(rounds), counters, stores)
        caught_up.append(joined[0])
        serving.append(joined[1])
        disk.append(joined[2])
        joiner = joined[3]
    ctx.end_timed()
    source = rounds[-1].daemon
    visible = [ms * 1000.0 for r in rounds for ms in r.applied_at]
    metrics = {
        "setup_s": harness.median(setups),
        "edit_visible_p50_ms": harness.quantile(visible, 0.50),
        "edit_visible_p99_ms": harness.quantile(visible, 0.99),
        "local_edit_p50_ms": harness.quantile(local_ms, 0.50),
        "disk_bytes_per_edit": harness.median(disk) / stream.frames,
        "ingest_frames_per_s": stream.frames * len(rounds) / sum(
            r.elapsed for r in rounds),
        "wire_bytes_per_edit": len(stream.data) / stream.frames,
        "restart_serving_s": harness.mean(serving),
        "restart_caught_up_s": harness.median(caught_up),
    }
    ctx.finish(failures, metrics, {}, edits=stream.frames * len(rounds),
               counters=counters + [harness.counters(source)],
               stores=stores, final=[source, joiner])
    await source.shutdown()
