"""Protocol safety checker over a run's event log.

This is a from-scratch replay of the auction protocol using nothing but the
logged broadcasts: it shares no winner-selection code with the live state
machines, so it can catch their bugs.  The replay honors transport timing --
bids and acknowledgments take effect one tick after publication (when the
auctioneer actually received them), auctioneer publications take effect
immediately.

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
        self._last_seq = -1
        self._last_tick = -1
        self._pending: list[dict] = []  # bids/acks awaiting delivery
        self._run_start: dict | None = None
        self._run_end: dict | None = None

    def _fail(self, check: str, detail: str) -> None:
        self.violations.append(Violation(check, detail))

    # -- entry point ---------------------------------------------------------

    def run(self, records: Iterable[dict]) -> list[Violation]:
        for record in records:
            rtype = record.get("type")
            if rtype == "msg":
                self._on_message(record)
            elif rtype == "dig":
                self._on_lifecycle(record, "dig")
            elif rtype == "load":
                self._on_lifecycle(record, "load")
            elif rtype == "unload":
                self._on_lifecycle(record, "unload")
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
        self._deliver_pending(None)
        self._finish()
        return self.violations

    # -- transport order -----------------------------------------------------

    def _on_message(self, record: dict) -> None:
        tick, seq = record["tick"], record["seq"]
        if seq <= self._last_seq:
            self._fail("sequence", f"sequence {seq} not increasing at tick {tick}")
        if tick < self._last_tick:
            self._fail("sequence", f"publish tick went backward at seq {seq}")
        self._last_seq, self._last_tick = seq, tick

        variant = record["variant"]
        if variant in ("bid", "ack"):
            self._pending.append(record)
            return
        # auctioneer publications take effect now; first deliver everything
        # published strictly before this tick (it has arrived by now)
        self._deliver_pending(tick)
        if variant == "announcement":
            self._on_announcement(record)
        elif variant == "winner":
            self._on_winner(record)
        elif variant == "close":
            self._on_close(record)

    def _deliver_pending(self, tick: int | None) -> None:
        """Apply queued bids/acks published before `tick` (all, when None)."""
        remaining: list[dict] = []
        for record in self._pending:
            if tick is None or record["tick"] < tick:
                if record["variant"] == "bid":
                    self._deliver_bid(record)
                else:
                    self._deliver_ack(record)
            else:
                remaining.append(record)
        self._pending = remaining

    # -- auction protocol ------------------------------------------------------

    def _on_announcement(self, record: dict) -> None:
        key = record_auction_key(record)
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

    def _deliver_bid(self, record: dict) -> None:
        replay = self._open.get(record_auction_key(record))
        if replay is None:
            return  # bid raced a close; the auctioneer dropped it too
        utility = record["utility"]
        if utility > 0 or math.isnan(utility):
            self._fail("bid", f"bid with positive utility {utility}")
        if replay.offered:
            replay.late_bids[record["bidder"]] = utility
        else:
            replay.round_bids[record["bidder"]] = utility

    def _on_winner(self, record: dict) -> None:
        key = record_auction_key(record)
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

    def _deliver_ack(self, record: dict) -> None:
        replay = self._open.get(record_auction_key(record))
        if replay is None:
            return
        if not replay.offered or record["auction_winner"] != replay.winner:
            return  # acks from non-winners are discarded
        if record["verdict"] == "accepted":
            replay.accepted_by = record["auction_winner"]
        else:
            replay.winner = None  # awaits a reoffer or re-announce

    def _on_close(self, record: dict) -> None:
        key = record_auction_key(record)
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
        expected = {"dig": [], "load": ["dig"], "unload": ["dig", "load"]}[stage]
        if stages != expected:
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
