"""Workload ``typing``: two typists at human rate over durable daemons.

The run is a sequence of :data:`SESSION_S`-second sessions. Each
session's set-up publishes a collapsed start document from a scratch
site; both durable daemons (stores on, fsync on) adopt it — a
checkpoint each — and connect. Then one open-loop typist per daemon
types at :data:`RATE` edits/s in its own region. Then B is restarted
:data:`RESTARTS` times the planned way (graceful shutdown, which drains
and checkpoints) while A keeps typing, and must catch up from A's
parked send queue; then the pair is shut down.
"""

from __future__ import annotations

import time

import harness
from typists import SITE_B, TypingPair

#: Offered rate per typist, edits/s (open loop).
RATE = 24.0
#: Length of one session's typing. A fresh pair per session keeps the
#: typed volume — which sets today's checkpoint cost — the same in
#: every session whatever the run's length, and gives each session
#: exactly three checkpoints per site (its 240 records), so
#: ``edit_visible_p99_ms`` — each session's 99th percentile, median
#: over sessions — follows the run rather than its slowest moment.
SESSION_S = 5.0
#: Planned restarts of B after each session's typing (the means of
#: their serving and caught-up times over the run are reported: single
#: restarts fall in two groups, see README), and the edits A makes
#: while B is down for each.
RESTARTS = 3
DOWN_EDITS = 10


async def run(ctx) -> None:
    failures = harness.Failures()
    meter = ctx.meter
    sessions = max(1, round(ctx.seconds / SESSION_S))
    setups, visible, tails, local, late = [], [], [], [], []
    serving, caught_up = [], []
    edits = disk = wire = envelopes = 0
    busy = 0.0
    # Every incarnation's counters and stores, all sessions.
    counters, stores = [], []
    pair = None
    try:
        for session in range(sessions):
            if pair is not None:
                ctx.pause()
                counters.extend(pair.counters())
                stores.extend(pair.all_stores)
                await pair.close()
            began = time.monotonic()
            pair = TypingPair(ctx.work, ctx.seed * 1000 + session, meter,
                              failures, ctx.tracer)
            await pair.set_up()
            setups.append(time.monotonic() - began)
            ctx.begin_timed()
            disk0, wire0 = pair.disk_bytes(), meter.segment_bytes
            await pair.type_both(RATE, SESSION_S)
            if not await harness.wait_for(pair.quiet, 15.0):
                failures.check(False, "typing: sites did not converge in "
                               "15 s")
            ctx.end_timed()
            typists = (pair.typist_a, pair.typist_b)
            failures.failed += sum(t.unseen for t in typists)
            edits += sum(t.timed_edits for t in typists)
            disk += pair.disk_bytes() - disk0
            wire += meter.segment_bytes - wire0
            # Set-up applies no envelope: the hooks count the session.
            envelopes += sum(h.envelopes for h in pair.hooks)
            busy += sum(h.envelope_seconds for h in pair.hooks)
            pair.check_converged("typing")
            session_visible = [ms for t in typists for ms in t.visible_ms]
            visible.extend(session_visible)
            tails.append(harness.quantile(session_visible, 0.99))
            for typist in typists:
                local.extend(typist.local_ms)
                late.append(typist.late_max_ms)
            # Planned restarts of B: drain + checkpoint, A types meanwhile.
            for _ in range(RESTARTS):
                await _planned_restart(pair, failures, serving, caught_up)
        stores.extend(pair.all_stores)

        metrics = {
            "setup_s": harness.median(setups),
            "edit_visible_p50_ms": harness.quantile(visible, 0.50),
            "edit_visible_p99_ms": harness.median(tails),
            "local_edit_p50_ms": harness.quantile(local, 0.50),
            "disk_bytes_per_edit": disk / max(edits, 1),
            "ingest_frames_per_s": envelopes / busy if busy else 0.0,
            "wire_bytes_per_edit": wire / max(edits, 1),
            "restart_serving_s": harness.mean(serving),
            "restart_caught_up_s": harness.mean(caught_up),
        }
        layers = {"bench.generator_late_max_ms": max(late)}
        ctx.finish(failures, metrics, layers, edits=edits,
                   counters=counters + pair.counters(), stores=stores,
                   final=[pair.a, pair.b])
    finally:
        if pair is not None:
            await pair.close()


async def _planned_restart(pair: TypingPair, failures: harness.Failures,
                           serving: list, caught_up: list) -> None:
    before = pair.b.site.text()
    await pair.b.shutdown()
    await harness.wait_for(
        lambda: SITE_B not in pair.a.transport.connected, 5.0)
    await pair.typist_a.type_count(3 * RATE, DOWN_EDITS,
                                    timed_local=False)
    target = pair.a.site.broadcast.clock.copy()
    up, caught = await pair.relaunch_b(target)
    failures.check(pair.recovered_text == before,
                   "typing: B's recovered text differs from its text at "
                   "shutdown")
    failures.check(caught is not None,
                   "typing: restarted B did not catch up in 20 s")
    serving.append(up)
    caught_up.append(caught or 0.0)
    await harness.wait_for(pair.quiet, 15.0)
    pair.check_converged("typing, after B's restart")
