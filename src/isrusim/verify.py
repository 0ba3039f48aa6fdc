"""Protocol safety checker over a run's event log.

This is a from-scratch replay of the auction protocol using nothing but the
logged broadcasts: it shares no winner-selection code with the live state
machines, so it can catch their bugs.  The replay honors transport timing --
bids and acknowledgments take effect one tick after publication (when the
auctioneer actually received them), auctioneer publications take effect
immediately.  Bids and acknowledgments wait in one pending list, in the
order they were sent.  When a msg record arrives whose tick T is later
than the last msg record's, the pending ones sent before T are applied in
that order before the record is handled, and the rest stay pending; the end
of the log applies all that are left.  On a log whose ticks never decrease
this is the transport rule: a publication at tick T sees every message sent
before T and none sent at T, and the list holds at most one tick of
messages.  A bid or acknowledgment changes only its own auction's replay,
and a `bid` violation is reported once the log passes the bid's tick.  A
log whose ticks go backward or are NaN is flagged by the sequence check and
replayed by the same rule, in which a message whose tick is NaN is sent
before no tick and waits for the end of the log; so its other violations
follow that rule, not what any auctioneer received.  A bid or
acknowledgment holding a value of the wrong kind raises when it is
applied.  `LogChecker.run` walks the log once and handles a msg record,
nearly every record of a log, in its own loop: the sequence checks compare
with the last msg record's seq and tick, and a bid or acknowledgment is
only appended to the list.

Checks, all zero-tolerance:
  a. no busy-sentinel (-inf) bidder is ever declared winner;
  b. every close is preceded by an accepted acknowledgment from the robot
     the task is allocated to;
  c. every declared winner's bid is the maximum finite bid of its round not
     yet offered-and-declined;
  d. every mineral is dug, loaded and unloaded exactly once, in that order;
  e. never more than one excavator claim per site;
  plus sequence monotonicity, exactly one `run_start` record (a log without
  one is not a run's log, and one with two joins two runs) and, for
  completed runs, no auction left open.  A log without a `run_end` is
  checked for safety only: a live log has none until its run ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .events import NEG_INF, record_auction_key


# stage -> the stages a mineral has passed, in order, when it is due
_STAGES_BEFORE = {"dig": [], "load": ["dig"], "unload": ["dig", "load"]}


@dataclass(frozen=True)
class Violation:
    check: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.detail}"


@dataclass
class _Replay:
    """Live replay state of one open auction generation.  A winner has been
    declared this round exactly when `offered` is non-empty, and its
    acknowledgment is pending exactly when `winner` is not None."""

    round_bids: dict[str, float] = field(default_factory=dict)
    late_bids: dict[str, float] = field(default_factory=dict)
    offered: set[str] = field(default_factory=set)
    winner: str | None = None
    accepted_by: str | None = None


class LogChecker:
    """Replays one event log and accumulates violations."""

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        self._open: dict[tuple, _Replay] = {}
        self._minerals: dict[str, list[str]] = {}
        self._claims: dict[int, str] = {}
        self._run_start: dict | None = None
        self._run_end: dict | None = None

    def _fail(self, check: str, detail: str) -> None:
        self.violations.append(Violation(check, detail))

    # -- entry point ---------------------------------------------------------

    def run(self, records: Iterable[dict]) -> list[Violation]:
        """Every violation of `records`, checked in log order; a msg record
        is handled in this loop."""
        pending: list[dict] = []  # bids and acks not yet applied
        last_seq = last_tick = -1
        for record in records:
            rtype = record.get("type")
            if rtype == "msg":
                tick, seq = record["tick"], record["seq"]
                if seq <= last_seq:
                    self._fail("sequence",
                               f"sequence {seq} not increasing at tick {tick}")
                if tick < last_tick:
                    self._fail("sequence",
                               f"publish tick went backward at seq {seq}")
                elif tick > last_tick and pending:
                    # what was sent before this tick has arrived
                    pending = self._apply(pending, tick)
                last_seq, last_tick = seq, tick
                variant = record["variant"]
                if variant == "bid" or variant == "ack":
                    pending.append(record)
                    continue
                key = record_auction_key(record)
                if variant == "announcement":
                    self._on_announcement(key)
                elif variant == "winner":
                    self._on_winner(key, record)
                elif variant == "close":
                    self._on_close(key, record)
            elif rtype in ("dig", "load", "unload"):
                self._on_lifecycle(record, rtype)
            elif rtype == "claim":
                self._on_claim(record)
            elif rtype == "release":
                self._on_release(record)
            elif rtype == "run_start":
                if self._run_start is not None:
                    self._fail("run_start", "a second run_start: the log "
                                            "joins two runs")
                self._run_start = record
            elif rtype == "run_end":
                self._run_end = record
        self._apply(pending)
        self._finish()
        return self.violations

    # -- transport order -----------------------------------------------------

    def _apply(self, pending: list[dict],
               tick: int | None = None) -> list[dict]:
        """Apply, in the order they were sent, the bids and acks of
        `pending` sent before `tick` (all, when None); return the rest."""
        rest = []
        open_auctions = self._open
        for record in pending:
            if tick is not None and not record["tick"] < tick:
                rest.append(record)
                continue
            replay = open_auctions.get(record_auction_key(record))
            if replay is None:
                continue  # it raced a close; the auctioneer dropped it too
            if record["variant"] == "bid":
                utility = record["utility"]
                if not utility <= 0.0:
                    self._fail("bid", f"bid with positive utility {utility}")
                if replay.offered:
                    replay.late_bids[record["bidder"]] = utility
                else:
                    replay.round_bids[record["bidder"]] = utility
            elif replay.offered and record["auction_winner"] == replay.winner:
                # acks from anyone but the pending winner are discarded
                if record["verdict"] == "accepted":
                    replay.accepted_by = replay.winner
                else:
                    replay.winner = None  # awaits a reoffer or re-announce
        return rest

    # -- auction protocol ------------------------------------------------------

    def _on_announcement(self, key: tuple) -> None:
        replay = self._open.get(key)
        if replay is None:
            self._open[key] = _Replay()
        else:
            if replay.winner is not None:
                self._fail("protocol", f"{key}: re-announced while a winner "
                                       "acknowledgment was pending")
            replay.round_bids = dict(replay.late_bids)
            replay.late_bids = {}
            replay.offered = set()
            replay.winner = None

    def _on_winner(self, key: tuple, record: dict) -> None:
        replay = self._open.get(key)
        if replay is None:
            self._fail("protocol", f"{key}: winner declared for a closed or "
                                   "unannounced auction")
            return
        if replay.winner is not None:
            self._fail("protocol", f"{key}: winner declared while another "
                                   "acknowledgment was pending")
        winner = record["winner"]
        bid = replay.round_bids.get(winner)
        if bid is None:
            self._fail("winner_bid", f"{key}: winner {winner} placed no bid "
                                     "this round")
        elif not math.isfinite(bid):
            self._fail("neg_inf_winner",
                       f"{key}: busy-sentinel bidder {winner} declared winner")
        if winner in replay.offered:
            self._fail("winner_bid", f"{key}: {winner} re-offered after declining")
        best = max((u for b, u in replay.round_bids.items()
                    if math.isfinite(u) and b not in replay.offered),
                   default=NEG_INF)
        if bid is not None and math.isfinite(bid) and bid < best:
            self._fail("argmax", f"{key}: winner {winner} bid {bid} but a "
                                 f"higher eligible bid {best} existed")
        replay.winner = winner
        replay.offered.add(winner)
        replay.accepted_by = None

    def _on_close(self, key: tuple, record: dict) -> None:
        replay = self._open.pop(key, None)
        if replay is None:
            self._fail("protocol", f"{key}: closed but never announced")
            return
        allocated = record["allocated_to"]
        if replay.accepted_by != allocated:
            self._fail("close_without_ack",
                       f"{key}: closed for {allocated} without their accepted "
                       "acknowledgment")
        if replay.winner != allocated:
            self._fail("protocol", f"{key}: allocated to {allocated} but the "
                                   f"declared winner was {replay.winner}")

    # -- mineral lifecycle and claims ----------------------------------------

    def _on_lifecycle(self, record: dict, stage: str) -> None:
        stages = self._minerals.setdefault(record["mineral"], [])
        if stages != _STAGES_BEFORE[stage]:
            self._fail("lifecycle", f"mineral {record['mineral']}: {stage} after "
                                    f"{stages}")
        stages.append(stage)

    def _on_claim(self, record: dict) -> None:
        site = record["site"]
        if site in self._claims:
            self._fail("claims", f"site {site}: claimed by {record['excavator']} "
                                 f"while held by {self._claims[site]}")
        self._claims[site] = record["excavator"]

    def _on_release(self, record: dict) -> None:
        site = record["site"]
        if self._claims.get(site) != record["excavator"]:
            self._fail("claims", f"site {site}: released by {record['excavator']} "
                                 "who does not hold it")
        self._claims.pop(site, None)

    # -- end-of-log conditions -------------------------------------------------

    def _finish(self) -> None:
        if self._run_start is None:
            self._fail("run_start", "no run_start record: not a run's log")
        completed = (self._run_end is not None
                     and self._run_end.get("status") == "completed")
        if completed:
            for key in self._open:
                self._fail("liveness", f"{key}: still open in a completed run")
            want = self._run_start["n_minerals"] if self._run_start else None
            full = [m for m, stages in self._minerals.items()
                    if stages == ["dig", "load", "unload"]]
            for mineral, stages in self._minerals.items():
                if stages != ["dig", "load", "unload"]:
                    self._fail("lifecycle", f"mineral {mineral}: incomplete "
                                            f"lifecycle {stages} in completed run")
            if want is not None and len(full) != want:
                self._fail("lifecycle", f"{len(full)} minerals delivered, "
                                        f"expected {want}")
            if self._claims:
                self._fail("claims", f"claims still held at completion: "
                                     f"{self._claims}")


def verify_records(records: Iterable[dict]) -> list[Violation]:
    """All protocol-safety violations found in a run's event log."""
    return LogChecker().run(records)
