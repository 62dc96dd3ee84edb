"""The flight recorder: a bounded ring of structured runtime events.

Metrics answer "how much"; traces answer "where did one message go"; the
flight recorder answers the postmortem question — *what happened, in what
order* — for the rare, high-signal events a red CI run needs explained:
drops, sheds, retries, dead-letters, fault injections, reconfiguration
validate/commit/rollback, epoch swaps, worker kill/spawn, link outages.

Design rules, matching the rest of :mod:`repro.telemetry`:

* **lock-cheap recording** — one :class:`collections.deque` append plus
  one :class:`itertools.count` tick, both atomic under the GIL, so a
  scheduler worker records an event without taking any lock;
* **bounded** — the deque's ``maxlen`` evicts the oldest events, and the
  eviction itself is observable (:attr:`FlightRecorder.dropped` and the
  cursor gap reported by :meth:`tail`);
* **no recorder when unobserved** — a component without telemetry holds
  no recorder at all, and its call sites test ``is not None`` first.

Events carry a process-monotonic sequence number and a
``time.perf_counter`` timestamp, so a dump is totally ordered even when
several threads recorded concurrently.  :meth:`FlightRecorder.dump`
writes the ring as a JSON artifact (into ``$REPRO_FLIGHT_DIR`` or the
working directory) — the conservation checker and the Supervisor call it
automatically when an invariant fails or recovery escalates.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import time
from collections import deque
from pathlib import Path

#: recorder entry: (seq, perf_counter timestamp, category, stream, detail)
_Event = tuple[int, float, str, "str | None", dict]

_LABEL_SANITIZE = re.compile(r"[^A-Za-z0-9_.-]+")


def flight_dump_dir() -> Path:
    """Where dumps land: ``$REPRO_FLIGHT_DIR`` or the working directory."""
    return Path(os.environ.get("REPRO_FLIGHT_DIR") or ".")


class FlightRecorder:
    """Bounded, lock-cheap ring buffer of structured runtime events."""

    def __init__(self, capacity: int = 2048):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[_Event] = deque(maxlen=capacity)
        self._seq = itertools.count(1)
        #: seq of the most recently recorded event (0 before the first)
        self.last_seq = 0
        #: dumps written so far (label -> path), for introspection
        self.dumps: dict[str, str] = {}

    # -- recording (hot-ish path: drops, retries, reconfig) ---------------------

    def record(self, category: str, *, stream: str | None = None, **detail) -> int:
        """Append one event; returns its sequence number.

        ``category`` names the event kind (``drop``, ``dead_letter``,
        ``reconfig_commit``, ``worker_kill``, ...); ``detail`` is small
        JSON-ready context.  One deque append — no lock.
        """
        seq = next(self._seq)
        self._events.append((seq, time.perf_counter(), category, stream, detail))
        self.last_seq = seq
        return seq

    # -- queries ------------------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Total events ever recorded (evicted ones included)."""
        return self.last_seq

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound (recorded - retained)."""
        return self.last_seq - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[dict]:
        """Every retained event as a JSON-ready dict, oldest first."""
        # list(deque) is a single C-level copy: safe against concurrent
        # appends without taking a lock
        return [self._as_dict(e) for e in list(self._events)]

    def tail(self, cursor: int = 0, *, limit: int | None = None) -> dict:
        """Events with seq > ``cursor`` plus the cursor to resume from.

        The returned ``cursor`` is the seq of the last event delivered
        (or the input cursor when nothing new exists), so repeated calls
        see every retained event exactly once.  ``gap`` counts events
        that were evicted before this tail could read them — a non-zero
        gap tells the caller its cursor fell behind the ring.
        """
        retained = list(self._events)
        fresh = [e for e in retained if e[0] > cursor]
        if limit is not None and limit >= 0:
            fresh = fresh[: limit]
        oldest_retained = retained[0][0] if retained else self.last_seq + 1
        gap = max(0, oldest_retained - cursor - 1) if cursor or retained else 0
        next_cursor = fresh[-1][0] if fresh else max(cursor, 0)
        return {
            "events": [self._as_dict(e) for e in fresh],
            "cursor": next_cursor,
            "gap": gap,
            "recorded": self.recorded,
            "dropped": self.dropped,
        }

    @staticmethod
    def _as_dict(event: _Event) -> dict:
        seq, ts, category, stream, detail = event
        out: dict = {"seq": seq, "t": ts, "category": category}
        if stream is not None:
            out["stream"] = stream
        if detail:
            out.update(detail)
        return out

    # -- the artifact --------------------------------------------------------------

    def dump(
        self,
        label: str,
        *,
        reason: str,
        directory: "Path | str | None" = None,
    ) -> str:
        """Write the retained ring as ``FLIGHT_<label>.json``; returns the path.

        Repeated dumps for the same label overwrite the artifact (the
        latest ring supersedes earlier ones), so a retry storm cannot
        litter the filesystem.

        Event ``t`` fields are ``perf_counter`` readings — a different
        clock domain than the wall-clock ``dumped_at``.  The payload
        therefore anchors both: ``dumped_at_monotonic`` is the
        ``perf_counter`` reading taken at the same instant as
        ``dumped_at``, so any event's wall time is
        ``dumped_at - (dumped_at_monotonic - event.t)``.
        """
        safe = _LABEL_SANITIZE.sub("_", label) or "recorder"
        target = Path(directory) if directory is not None else flight_dump_dir()
        try:
            target.mkdir(parents=True, exist_ok=True)
            path = target / f"FLIGHT_{safe}.json"
            # both clocks sampled back-to-back: the pair is the conversion
            # anchor between the events' monotonic domain and wall time
            payload = {
                "label": label,
                "reason": reason,
                "dumped_at": time.time(),
                "dumped_at_monotonic": time.perf_counter(),
                "recorded": self.recorded,
                "dropped": self.dropped,
                "events": self.events(),
            }
            path.write_text(
                json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
                encoding="utf-8",
            )
        except OSError:
            # a read-only filesystem must not turn an observability dump
            # into a second failure; the in-memory ring is still there
            return ""
        self.dumps[label] = str(path)
        return str(path)
