"""Workload ``restart``: crash, overflow, recover, catch up — in cycles.

Set-up is ``typing``'s, with small send-queue bounds. Each cycle: both
typists type; once both replicas hold every edit, site B is killed
(:func:`harness.crash`: no drain, no final checkpoint); A keeps typing
until its bounded send queue to B has overflowed; B restarts on its
store — checkpoint load plus WAL tail replay — reconnects, and catches
up through A's parked queue, the frontier-lag detector and an
anti-entropy delta or full sync. Edit visibility is timed for the edits
A makes during the outage: from when each was due until B shows it.
"""

from __future__ import annotations

import time

import harness
from typists import SITE_B, TypingPair

#: Offered rate per typist, edits/s (open loop).
RATE = 16.0
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: Seconds both typists type in each cycle: a cycle then takes about
#: 5.5 s, so a 30 s run is six whole cycles with slack either side.
TYPE_S = 2.4
#: A's send queue to B: low band shed at HIGH, everything at DEPTH.
HIGH_WATERMARK, MAX_DEPTH = 16, 32
#: Edits A makes while B is down, at three times the typing rate:
#: past the hard cap, so the queue sheds.
OUTAGE_EDITS = MAX_DEPTH + 16
OUTAGE_RATE = 3 * RATE
#: How long a restarted B may take to catch up before the cycle fails.
CATCH_UP_DEADLINE_S = 20.0


async def run(ctx) -> None:
    failures = harness.Failures()
    meter = ctx.meter
    setups = []
    for attempt in range(SETUP_REPEATS):
        began = time.monotonic()
        pair = TypingPair(ctx.work, ctx.seed, meter, failures, ctx.tracer,
                          high_watermark=HIGH_WATERMARK, max_depth=MAX_DEPTH)
        await pair.set_up()
        setups.append(time.monotonic() - began)
        if attempt < SETUP_REPEATS - 1:
            await pair.close()
    try:
        ctx.begin_timed()
        timed_from = time.monotonic()
        disk0, wire0 = pair.disk_bytes(), meter.segment_bytes
        serving, caught_up = [], []
        cycles = 0
        while not cycles or time.monotonic() - timed_from < ctx.seconds:
            cycles += 1
            failures.attempted += 1
            if not await _cycle(pair, failures, serving, caught_up):
                failures.failed += 1
                break
        ctx.end_timed()
        typists = (pair.typist_a, pair.typist_b)
        failures.failed += sum(t.unseen for t in typists)
        edits = sum(t.timed_edits for t in typists)
        hooks = pair.hooks
        busy = sum(h.envelope_seconds for h in hooks)
        visible = pair.typist_a.visible_ms + pair.typist_b.visible_ms
        local = pair.typist_a.local_ms + pair.typist_b.local_ms
        metrics = {
            "setup_s": harness.median(setups),
            "edit_visible_p50_ms": harness.quantile(visible, 0.50),
            "edit_visible_p99_ms": harness.quantile(visible, 0.99),
            "local_edit_p50_ms": harness.quantile(local, 0.50),
            "disk_bytes_per_edit": (pair.disk_bytes() - disk0) / edits,
            "ingest_frames_per_s":
                sum(h.envelopes for h in hooks) / busy if busy else 0.0,
            "wire_bytes_per_edit": (meter.segment_bytes - wire0) / edits,
            "restart_serving_s": harness.mean(serving),
            "restart_caught_up_s": harness.median(caught_up),
        }
        layers = {"bench.generator_late_max_ms":
                  max(t.late_max_ms for t in typists)}
        ctx.finish(failures, metrics, layers, edits=edits,
                   counters=pair.counters(), stores=pair.all_stores,
                   final=[pair.a, pair.b])
    finally:
        await pair.close()


async def _cycle(pair: TypingPair, failures: harness.Failures,
                 serving: list, caught_up: list) -> bool:
    """One crash-restart cycle; False when B could not catch up."""
    await pair.type_both(RATE, TYPE_S, timed=False)
    if not await harness.wait_for(pair.quiet, 15.0):
        failures.check(False, "restart: sites did not converge before "
                       "the crash")
        return False
    pair.check_converged("restart, before the crash")
    text, clock = pair.b.site.text(), pair.b.site.broadcast.clock.copy()
    await harness.crash(pair.b)
    await harness.wait_for(
        lambda: SITE_B not in pair.a.transport.connected, 5.0)
    await pair.typist_a.type_count(OUTAGE_RATE, OUTAGE_EDITS,
                                    timed_local=True, timed=True)
    target = pair.a.site.broadcast.clock.copy()
    up, caught = await pair.relaunch_b(target, CATCH_UP_DEADLINE_S)
    # Before catch-up: B recovered exactly what it had journaled.
    failures.check(pair.recovered_text == text,
                   "restart: B's recovered text lost journaled edits")
    failures.check(pair.recovered_clock == clock,
                   "restart: B's recovered clock differs from its clock "
                   "at the crash")
    if caught is None:
        failures.check(False, "restart: B did not catch up in "
                       f"{CATCH_UP_DEADLINE_S:.0f} s")
        return False
    serving.append(up)
    caught_up.append(caught)
    if not await harness.wait_for(pair.quiet, 15.0):
        failures.check(False, "restart: sites did not converge after "
                       "catch-up")
        return False
    pair.check_converged("restart, after catch-up")
    return True
