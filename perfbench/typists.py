"""Open-loop typists and the two-daemon pair they type into.

A :class:`Typist` owns one hot region of the shared document and a
plain-string model of it, kept apart from Treedoc: every edit is
applied to the model and, through the public ``ReplicaSite`` edit
calls, to the origin daemon's replica. After each frame the *peer*
daemon applies, the peer reads the viewport around the typist's latest
edit through the public read API and compares it with the model's
window as it stood after that edit; the read's return is the moment the
edit became visible.

Region placement makes every window locatable at any replica without
knowing the other typist's progress: site A's region starts a fixed
number of atoms after the document's start, site B's region ends a
fixed number of atoms before its end, and a quiet middle section
separates them.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import OverloadedError
from repro.server.daemon import SiteDaemon

import harness

#: Start document size, in characters (one atom each) — about the
#: largest paper document (IBM POWER, 24,651 bytes) halved, so that
#: today's whole-document checkpoint every 64 records keeps up with two
#: typists (see README, "Sizing").
DOC_CHARS = 6_000
#: Initial size of each typist's hot region.
REGION_CHARS = 1_000
#: The viewport: atoms read on each side of the edit.
VIEW_HALF = 80
#: Edit mix: every PASTE_EVERY-th edit pastes, every JUMP_EVERY-th
#: first moves the cursor, a P_BACKSPACE share of the rest delete the
#: character before the cursor, and everything else is one keystroke.
#: Pastes and jumps come at a fixed cadence (seeded length and target),
#: so the typed volume — which sets today's checkpoint cost — is the
#: same in every run of a given length.
P_BACKSPACE = 0.10
PASTE_EVERY = 50
JUMP_EVERY = 40
PASTE_CHARS = (20, 40)
#: Site ids: the two daemons and the scratch site that publishes the
#: start document.
SITE_A, SITE_B, SITE_START = 1, 2, 9


def read_viewport(doc, start: int, end: int) -> List[object]:
    """The viewport read: atoms ``[start, end)`` through ``atom_at``, a
    pure read that never explodes a collapsed region."""
    return [doc.atom_at(index) for index in range(start, end)]


@dataclass
class _Pending:
    due: float
    lo: int
    hi: int
    region_len: int
    window: str
    #: Whether the edit's visibility latency is recorded.
    timed: bool


class Typist:
    """One typist at one daemon, typing into its own region."""

    def __init__(self, site_id: int, initial: List[str], anchor_start: bool,
                 fixed: int, seed: int, failures: harness.Failures) -> None:
        self.site_id = site_id
        self.model: List[str] = list(initial)
        self.cursor = len(self.model) // 2
        #: True: the region starts ``fixed`` atoms into the document;
        #: False: it ends ``fixed`` atoms before the document's end.
        self.anchor_start = anchor_start
        self.fixed = fixed
        self.rng = random.Random(seed)
        self.failures = failures
        self.daemon: Optional[SiteDaemon] = None
        self._pending: Dict[int, _Pending] = {}
        #: Highest own envelope sequence the peer has shown.
        self.visible_seq = 0
        self.visible_ms: List[float] = []
        self.local_ms: List[float] = []
        self.late_max_ms = 0.0
        self.timed_edits = 0
        self.issued = 0

    def region_start(self, doc_len: int, region_len: int) -> int:
        if self.anchor_start:
            return self.fixed
        return doc_len - self.fixed - region_len

    # -- typing -------------------------------------------------------------------------

    def edit(self, due: float, timed: bool, timed_local: bool) -> None:
        """One keystroke-level edit at the origin daemon; ``timed``
        records its visibility latency, ``timed_local`` its local call
        time."""
        self.failures.attempted += 1
        try:
            self.daemon.check_admission()
        except OverloadedError:
            self.failures.failed += 1
            return
        site = self.daemon.site
        rng = self.rng
        model = self.model
        start = self.region_start(len(site), len(model))
        self.issued += 1
        paste = self.issued % PASTE_EVERY == 0
        if self.issued % JUMP_EVERY == 0:
            self.cursor = rng.randint(0, len(model))
        if not paste and rng.random() < P_BACKSPACE and self.cursor > 0:
            at = start + self.cursor
            began = time.perf_counter()
            site.delete_range(at - 1, at)
            elapsed = time.perf_counter() - began
            self.cursor -= 1
            del model[self.cursor]
        else:
            if paste:
                text = harness.prose(rng, rng.randint(*PASTE_CHARS))
            else:
                text = [rng.choice("etaoinshrdlu ")]
            began = time.perf_counter()
            site.insert_text(start + self.cursor, text)
            elapsed = time.perf_counter() - began
            model[self.cursor:self.cursor] = text
            self.cursor += len(text)
        seq = site.broadcast.clock.get(self.site_id)
        lo = max(0, self.cursor - VIEW_HALF)
        hi = min(len(model), self.cursor + VIEW_HALF)
        self._pending[seq] = _Pending(due, lo, hi, len(model),
                                      "".join(model[lo:hi]), timed)
        if timed_local:
            self.local_ms.append(elapsed * 1000.0)
            self.timed_edits += 1

    async def type_until(self, rate: float, until: float,
                         phase: float = 0.0, timed: bool = True) -> None:
        """Open loop: edit ``k`` is due at ``start + (k + phase) / rate``
        whether or not the previous one finished on time. ``timed``
        records visibility latencies; local call times are recorded."""
        await self._type(rate, timed, True, until=until, phase=phase)

    async def type_count(self, rate: float, count: int, timed_local: bool,
                         timed: bool = False) -> None:
        """``count`` edits on the same open-loop schedule."""
        await self._type(rate, timed, timed_local, count=count)

    async def _type(self, rate: float, timed: bool, timed_local: bool,
                    until: Optional[float] = None,
                    count: Optional[int] = None,
                    phase: float = 0.0) -> None:
        loop = asyncio.get_event_loop()
        start = loop.time()
        k = 0
        while count is None or k < count:
            due = start + (k + phase) / rate
            if until is not None and due >= until:
                return
            now = loop.time()
            if due > now:
                await asyncio.sleep(due - now)
            if timed or timed_local:
                late = (loop.time() - due) * 1000.0
                self.late_max_ms = max(self.late_max_ms, late)
            self.edit(due, timed, timed_local)
            k += 1

    # -- visibility at the peer -------------------------------------------------------------

    def observe(self, peer: SiteDaemon) -> None:
        """Called after each frame the peer applies: if it advanced
        past this typist's last seen edit, read the viewport around the
        newest one and check it against the model's window."""
        seen = peer.site.broadcast.clock.get(self.site_id)
        if seen <= self.visible_seq:
            return
        entry = self._pending.get(seen)
        if entry is not None:
            doc = peer.site.doc
            start = self.region_start(len(doc), entry.region_len)
            shown = read_viewport(doc, start + entry.lo, start + entry.hi)
            now = asyncio.get_event_loop().time()
            self.failures.check(
                "".join(shown) == entry.window,
                f"site {peer.config.site} viewport after edit {seen} of "
                f"site {self.site_id} differs from the typist's model",
            )
        else:
            now = asyncio.get_event_loop().time()
        for seq in range(self.visible_seq + 1, seen + 1):
            pending = self._pending.pop(seq, None)
            if pending is not None and pending.timed:
                self.visible_ms.append((now - pending.due) * 1000.0)
        self.visible_seq = seen

    @property
    def unseen(self) -> int:
        """Edits the peer has not shown yet."""
        return len(self._pending)

    def region_text(self) -> str:
        return "".join(self.model)


class TypingPair:
    """Two durable daemons sharing one collapsed start document, a
    typist at each (the set-up of ``typing`` and ``restart``)."""

    def __init__(self, work: Path, seed: int, meter: harness.Meter,
                 failures: harness.Failures, tracer=None, **config) -> None:
        self.work = work
        self.tracer = tracer
        self.seed = seed
        self.meter = meter
        self.failures = failures
        self.config = config
        self.a: Optional[SiteDaemon] = None
        self.b: Optional[SiteDaemon] = None
        #: Every apply hook installed, restarts included.
        self.hooks: List[harness.ApplyHook] = []
        #: harness.counters of every retired incarnation of B.
        self.retired: List[dict] = []
        #: Every store object of this pair, restarts included.
        self.all_stores: list = []
        self.typist_a: Optional[Typist] = None
        self.typist_b: Optional[Typist] = None

    async def set_up(self) -> None:
        """Inputs, both stores, adoption (checkpointed), connection."""
        chars = harness.prose(random.Random(self.seed), DOC_CHARS)
        a0 = DOC_CHARS // 6
        b0 = DOC_CHARS - DOC_CHARS // 6 - REGION_CHARS
        self.prefix = "".join(chars[:a0])
        self.middle = "".join(chars[a0 + REGION_CHARS:b0])
        self.suffix = "".join(chars[b0 + REGION_CHARS:])
        self.typist_a = Typist(SITE_A, chars[a0:a0 + REGION_CHARS], True,
                               a0, self.seed * 7919 + 1, self.failures)
        self.typist_b = Typist(SITE_B, chars[b0:b0 + REGION_CHARS], False,
                               len(self.suffix), self.seed * 7919 + 2,
                               self.failures)
        state = harness.collapsed_state(SITE_START, chars)
        self.config_a = harness.daemon_config(
            SITE_A, {SITE_B: harness.UNDIALED},
            harness.fresh_dir(self.work / "site-a"), **self.config)
        self.a = await harness.launch(
            self.config_a, lambda d: self._prepare(d, state))
        self.config_b = harness.daemon_config(
            SITE_B, {SITE_A: (harness.HOST, self.a.port)},
            harness.fresh_dir(self.work / "site-b"), **self.config)
        self.b = await harness.launch(
            self.config_b, lambda d: self._prepare(d, state))
        if not await harness.wait_for(self.connected, 10.0):
            raise RuntimeError("the two daemons did not connect")

    def _prepare(self, daemon: SiteDaemon, state: Optional[bytes]) -> None:
        if state is not None:
            harness.adopt(daemon.site, state)
        else:
            self.recovered_text = daemon.site.text()
            self.recovered_clock = daemon.site.broadcast.clock.copy()
        self.all_stores.append(daemon.store)
        site = daemon.config.site
        if site == SITE_A:
            self.typist_a.daemon = daemon
            observer = self.typist_b
        else:
            self.typist_b.daemon = daemon
            observer = self.typist_a
        self.hooks.append(harness.ApplyHook(daemon, observer.observe,
                                            self.tracer, self.meter))

    def connected(self) -> bool:
        return (SITE_B in self.a.transport.connected
                and SITE_A in self.b.transport.connected)

    def quiet(self) -> bool:
        """Both replicas hold each other's every edit."""
        return (harness.covers(self.a.site, self.b.site.broadcast.clock)
                and harness.covers(self.b.site, self.a.site.broadcast.clock)
                and self.typist_a.unseen == 0
                and self.typist_b.unseen == 0)

    async def type_both(self, rate: float, seconds: float,
                        timed: bool = True) -> None:
        """Both typists at ``rate``, B half a keystroke behind A, so the
        two never fire at the same instant."""
        until = asyncio.get_event_loop().time() + seconds
        await asyncio.gather(
            self.typist_a.type_until(rate, until, timed=timed),
            self.typist_b.type_until(rate, until, phase=0.5, timed=timed),
        )

    async def relaunch_b(self, target, deadline: float = 20.0) -> tuple:
        """Start B again on its store; returns (serving_s, caught_up_s)
        measured from the launch, or None for caught-up past the
        deadline. ``target`` is the clock B must come to cover."""
        self.retired.append(harness.counters(self.b))
        began = time.monotonic()
        self.b = await harness.launch(
            self.config_b, lambda d: self._prepare(d, None))
        await harness.admin_ping(self.b.admin_port)
        serving = time.monotonic() - began
        caught = await harness.wait_for(
            lambda: harness.covers(self.b.site, target), deadline)
        caught_up = time.monotonic() - began if caught else None
        return serving, caught_up

    def counters(self) -> List[dict]:
        """harness.counters of every incarnation since set-up."""
        return self.retired + [harness.counters(self.a),
                               harness.counters(self.b)]

    def expected_text(self) -> str:
        return (self.prefix + self.typist_a.region_text() + self.middle
                + self.typist_b.region_text() + self.suffix)

    def check_converged(self, label: str) -> None:
        """Texts equal the region models, PosID sequences equal."""
        expected = self.expected_text()
        for daemon in (self.a, self.b):
            self.failures.check(
                daemon.site.text() == expected,
                f"{label}: site {daemon.config.site} text differs from "
                "the typists' models",
            )
        self.failures.check(
            harness.posids(self.a.site) == harness.posids(self.b.site),
            f"{label}: PosID sequences differ between the sites",
        )

    def disk_bytes(self) -> int:
        """WAL bytes every store object appended plus checkpoint bytes
        written, since set-up began."""
        return (sum(store.bytes_appended for store in self.all_stores)
                + self.meter.checkpoint_bytes)

    async def close(self) -> None:
        for daemon in (self.b, self.a):
            if daemon is not None and not daemon.closing:
                await daemon.shutdown()
