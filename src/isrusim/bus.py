"""Message transport, the open-auction boards and the five auction message
constructors.

A message is its log record: a msg record of `events`, built by one of the
constructors below with its keys in schema order, ("type",) +
RECORD_FIELDS["msg"] + MSG_FIELDS[variant], its `tick` and `seq` left for
`publish` to stamp.  `publish` appends the record to the log and puts that
same object into its recipient's inbox, so a robot must never mutate a
record it receives: the log would change with it.  The auction a message
belongs to is `events.record_auction_key`, live and in the log.

Every published message is delivered with no loss, in publish order; its
global sequence number makes that order total.  An inbox holds only acks
and winner declarations: an ack goes to the auctioneer's inbox at the start
of the next tick, a winner declaration to the winner's `win_latency` ticks
after it is published (the scenario's `win_resolution_window`).  A bid
enters no inbox: it is logged, and its bidder writes it in its own slot of
the auction's board entry, where the auctioneer reads the round's bids when
the bidding window closes (`auction.select_winner`).  Announcements and
closes enter no inbox either:
`deliver` files each of them once, in publish order, on the board of its
task type, which every robot that bids on that type reads (`subscribe`).  A
board maps each open auction's key, `record_auction_key` of its records, to
its `BoardEntry`, which holds only what the key does not say, oldest first
by (first tick, key): an announcement of a key not on the board adds an
entry, one of a key on it is a new round, and a close removes the entry.  A
reopened key (a transport auction at the same site, for the next mineral) is
a new entry object.  Each bidder reads and writes only its own slot of an
entry's answers, which its auctioneer reads.  Every message is still
logged, so the log stays the broadcast record of the run.

`deliver` also names the subscribers that must step to answer what it
filed: one that bids in its oldest `scope` auctions when an announcement or
close touches one of those (with scope 1, when the oldest auction is
another one or announces a new round), one that bids in all of them (scope
None) when an announcement was filed.  A close behind the scope steps
nobody.  A subscriber named without addressed mail gets an empty inbox.

One board per task type stands in for a view per robot, and its answers
for bids delivered to the auctioneer, only because delivery is lossless and
synchronous: every subscriber would file the same records in the same
order, and every bid would reach its auctioneer the tick after it was made.
A scenario with message loss or delay per robot would need a view per robot
again, and bids delivered by message with it.

The constructors check nothing: each field is checked once, where its value
comes from.  Robot names are checked when the fleet is built
(`engine.Simulation`), a controller's task type when it is built, against
its kind (`agents.RobotController`), and a bid's utility by
`auction.submit_bid`, the one place a bid is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

from .events import AuctionKey, EventLog, record_auction_key
from .world import TaskType


def announcement(auctioneer: str, task_type: TaskType,
                 location: Sequence[float]) -> dict:
    """A task put up for auction (status is always 'open')."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "announcement",
            "auctioneer": auctioneer, "loc": list(location),
            "task_type": task_type.value, "status": "open"}


def bid(auctioneer: str, bidder: str, location: Sequence[float],
        utility: float) -> dict:
    """A bidder's utility for an announced task: -path_cost, hence never
    positive; negative infinity is the busy sentinel of a robot that is
    capable but currently occupied."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "bid",
            "auctioneer": auctioneer, "loc": list(location),
            "bidder": bidder, "utility": utility}


def winner(auctioneer: str, task_type: TaskType, location: Sequence[float],
           winner: str) -> dict:
    """The auctioneer names the bidder it picked (auction stays open)."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "winner",
            "auctioneer": auctioneer, "loc": list(location),
            "task_type": task_type.value, "status": "open", "winner": winner}


def ack(auctioneer: str, auction_winner: str, location: Sequence[float],
        accepted: bool) -> dict:
    """The declared winner accepts or declines the task."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "ack",
            "auctioneer": auctioneer, "loc": list(location),
            "auction_winner": auction_winner,
            "verdict": "accepted" if accepted else "declined"}


def close(auctioneer: str, task_type: TaskType, location: Sequence[float],
          allocated_to: str) -> dict:
    """The auction ends; the task is allocated (status 'closed')."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "close",
            "auctioneer": auctioneer, "loc": list(location),
            "task_type": task_type.value, "status": "closed",
            "allocated_to": allocated_to}


@dataclass(eq=False)
class BoardEntry:
    """One open auction on a board, which its key names: the tick of its
    first announcement, how many rounds it has announced, and each bidder's
    last bid as (round answered, utility, tick made).  Equal only to
    itself, so a reopened key is a new entry, with no answers."""

    first_tick: int
    rounds: int = 1
    answers: dict[str, tuple[int, float, int]] = field(default_factory=dict)


Board = dict[AuctionKey, BoardEntry]


def _add_entry(board: Board, key: AuctionKey, tick: int) -> None:
    """Add the auction first announced at `tick` to `board`, oldest first
    by (first tick, key).  Only an entry of the same tick can sort after
    it; the robots hold the board, so it is re-sorted in place."""
    last = next(reversed(board), None)
    board[key] = BoardEntry(tick)
    if last is not None and (tick, key) < (board[last].first_tick, last):
        entries = sorted(board.items(),
                         key=lambda item: (item[1].first_tick, item[0]))
        board.clear()
        board.update(entries)


class BroadcastBus:
    """Lossless delivery, one tick after publishing or `win_latency` ticks
    for a winner declaration: acks and winner declarations to inboxes,
    announcements and closes to one board per task type; a bid is only
    logged."""

    def __init__(self, log: EventLog, win_latency: int):
        self._log = log
        self._win_latency = win_latency
        self._sequence = 0
        # task type value -> its open auctions, oldest first
        self.boards: dict[str, Board] = {t.value: {} for t in TaskType}
        # task type value -> bid scope -> the robots that read its board
        self._subscribers: dict[str, dict[int | None, list[str]]] = {}
        # tick -> robot -> the records it receives at that tick
        self._mail: dict[int, dict[str, list[dict]]] = {}
        # tick -> the announcements and closes to file at that tick
        self._posted: dict[int, list[dict]] = {}

    def subscribe(self, robot: str, task_type: TaskType,
                  scope: int | None) -> Board:
        """Return the board of `task_type` for `robot`, which bids in its
        oldest `scope` auctions (None: all of them), and step it when they
        change."""
        self._subscribers.setdefault(task_type.value, {}).setdefault(
            scope, []).append(robot)
        return self.boards[task_type.value]

    def publish(self, record: dict, tick: int) -> None:
        """Stamp a message record with `tick` and its sequence number, log
        it and put an ack in its auctioneer's inbox, or an announcement or
        close on the board, for tick + 1; a winner declaration in the
        winner's inbox for tick + `win_latency`.  A bid goes nowhere else."""
        record["tick"] = tick
        record["seq"] = self._sequence
        self._sequence += 1
        self._log.append(record)
        variant = record["variant"]
        if variant == "ack":
            robot, due = record["auctioneer"], tick + 1
        elif variant == "winner":
            robot, due = record["winner"], tick + self._win_latency
        else:  # an announcement or close; a bid is read off its board
            if variant != "bid":
                self._posted.setdefault(tick + 1, []).append(record)
            return
        self._mail.setdefault(due, {}).setdefault(robot, []).append(record)

    def deliver(self, tick: int) -> dict[str, list[dict]]:
        """File the announcements and closes published at tick-1 on their
        boards, and return each robot's inbox: its records due at `tick`,
        in publish order, or an empty one for a subscriber whose bid scope
        changed.  A robot with neither is left out.  The engine delivers
        every tick once, in order."""
        mail = self._mail.pop(tick, {})
        posted = self._posted.pop(tick, None)
        if posted is not None:
            self._file(posted, tick - 1, mail)
        return mail

    def _file(self, posted: list[dict], tick: int,
              mail: dict[str, list[dict]]) -> None:
        """File `posted`, the announcements and closes published at `tick`,
        in order, and give an inbox to each subscriber that must step: with
        a bid scope of k, when a record's auction is one of the oldest k
        (after an announcement is filed, before a close removes it); with
        no bound on its scope, for every announcement."""
        stepped: dict[tuple[str, int | None], None] = {}
        for record in posted:
            value = record["task_type"]
            board, key = self.boards[value], record_auction_key(record)
            closing = record["variant"] == "close"
            if not closing:
                entry = board.get(key)
                if entry is not None:
                    entry.rounds += 1
                else:
                    _add_entry(board, key, tick)
            for scope in self._subscribers.get(value, ()):
                if (not closing if scope is None
                        else key in islice(board, scope)):
                    stepped[value, scope] = None
            if closing:
                del board[key]
        for value, scope in stepped:
            for robot in self._subscribers[value][scope]:
                mail.setdefault(robot, [])

    @property
    def messages_published(self) -> int:
        return self._sequence
