"""Message transport and the open-auction boards.

A message is its log record: a msg record of `events`, built by the
`BroadcastBus` method of its kind (`post` an announcement or close, `bid`,
`declare` a winner, `ack`) with its keys in schema order, ("type",) +
RECORD_FIELDS["msg"] + MSG_FIELDS[variant].  Each method takes the fields
from the auction the message belongs to (`auction.Auction`), an ack from
the winner record it answers, so every record of one auction holds that
auction's one `loc` list; it routes the record and `publish`es it, which
stamps its `tick` and `seq` and appends it to the log through the log's
`records.append`, bound once.  `bid` is the one other stamper: a bid is
most of a log's records, so it builds its record with `tick` and `seq`
already filled in and appends it itself, in one frame.  The bus puts that
same object into its recipient's inbox, so a robot must never mutate a
record it receives: the log, and every other record of the auction, would
change with it.  The auction a message belongs to is
`events.record_auction_key`, live and in the log.

Every message is delivered with no loss, in publish order; its global
sequence number makes that order total.  An inbox holds only acks and
winner declarations: an ack goes to the auctioneer's inbox at the start of
the next tick, a winner declaration to the winner's `win_latency` ticks
after it is declared (the scenario's `win_resolution_window`).  A bid
enters no inbox: it is logged, and its bidder writes it in its own slot of
the auction's `answers`, where the auctioneer reads the round's bids when
the bidding window closes (`auction.select_winner`).  Announcements and
closes enter no inbox either: the auctioneer `post`s its auction, which
logs an announcement while it has no winner and its close once it has one,
and `deliver` files the auction the next tick, in post order, on the board of
its task type, which every robot that bids on that type reads
(`subscribe`).  A board maps each open auction's key, `record_auction_key`
of its records, to the auctioneer's own `Auction` object, oldest first by
(first tick, key): the first announcement filed adds the auction, each one
filed counts a round in `Auction.rounds`, and its close takes it off.  A
reopened key (a transport auction at the same site, for the next mineral)
is a new auction object.  Every message is still logged, so the log stays
the broadcast record of the run.

`deliver` also names the subscribers that must step to answer what it
filed: one that bids in its oldest `scope` auctions when an announcement or
close touches one of those (with scope 1, when the oldest auction is
another one or announces a new round), one that bids in all of them (scope
None) when an announcement was filed.  A close behind the scope steps
nobody.  A subscriber named without addressed mail gets an empty inbox;
unless it is due anyway, the engine then has it only bid
(`engine.Simulation.step`).  A board is keyed by the task type's value,
the plain string each `Auction.task_type` holds and its records carry.

One board per task type stands in for a view per robot, its auctions for
the auctioneers' own, and their answers for bids delivered to the
auctioneer, only because delivery is lossless and synchronous: every
subscriber would file the same records in the same order, and every bid
would reach its auctioneer the tick after it was made.  So a bidder reads
only an auction's key fields, `rounds` and its own slot of `answers`, and
writes only that slot; `bids`, `winner` and `round_opened_tick` belong to
the auctioneer.  A scenario with message loss or delay per robot would
need a view per robot again, and bids delivered by message with it.

Only a bid's utility is checked here, by `bid`, the one place a bid is
made.  Every other field is checked once, where its value comes from:
robot names when the fleet is built (`engine.Simulation`), a controller's
task type when it is built, against its kind (`agents.RobotController`).
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING

from .events import AuctionKey, EventLog
from .world import TaskType

if TYPE_CHECKING:
    from .auction import Auction


Board = dict[AuctionKey, "Auction"]


def _add(board: Board, key: AuctionKey, auction: Auction) -> None:
    """Add `auction` to `board`, oldest first by (first tick, key).  Only
    an auction of the same first tick can sort after it; the robots hold
    the board, so it is re-sorted in place."""
    last = next(reversed(board), None)
    board[key] = auction
    if last is not None and (auction.first_tick, key) < (
            board[last].first_tick, last):
        entries = sorted(board.items(),
                         key=lambda item: (item[1].first_tick, item[0]))
        board.clear()
        board.update(entries)


class BroadcastBus:
    """Lossless delivery, one tick after publishing or `win_latency` ticks
    for a winner declaration: acks and winner declarations to inboxes,
    posted auctions to one board per task type; a bid is only logged."""

    def __init__(self, log: EventLog, win_latency: int):
        self._append = log.records.append
        self._win_latency = win_latency
        self._sequence = 0
        # task type value -> its open auctions, oldest first
        self.boards: dict[str, Board] = {t.value: {} for t in TaskType}
        # task type value -> bid scope -> the robots that read its board
        self._subscribers: dict[str, dict[int | None, list[str]]] = {}
        # tick -> robot -> the records it receives at that tick
        self._mail: dict[int, dict[str, list[dict]]] = {}
        # tick -> the auctions to file at that tick, in post order
        self._posted: dict[int, list[Auction]] = {}

    def subscribe(self, robot: str, task_type: TaskType,
                  scope: int | None) -> Board:
        """Return the board of `task_type` for `robot`, which bids in its
        oldest `scope` auctions (None: all of them), and step it when they
        change."""
        self._subscribers.setdefault(task_type.value, {}).setdefault(
            scope, []).append(robot)
        return self.boards[task_type.value]

    def publish(self, record: dict, tick: int) -> dict:
        """Stamp a message record with `tick` and its sequence number, log
        it and return it.  Every message but a bid passes through here."""
        record["tick"] = tick
        record["seq"] = self._sequence
        self._sequence += 1
        self._append(record)
        return record

    def post(self, auction: Auction, tick: int) -> dict:
        """Log an announcement of `auction`'s next round while it has no
        winner, else its close, allocated to `auction.winner`, and file the
        auction on the board of its task type at tick + 1.  Neither changes
        before it is filed: a round's window is at least two ticks long,
        and a closed auction leaves its auctioneer's book."""
        if auction.winner is None:
            record = {"type": "msg", "tick": None, "seq": None,
                      "variant": "announcement",
                      "auctioneer": auction.auctioneer, "loc": auction.loc,
                      "task_type": auction.task_type, "status": "open"}
        else:
            record = {"type": "msg", "tick": None, "seq": None,
                      "variant": "close",
                      "auctioneer": auction.auctioneer, "loc": auction.loc,
                      "task_type": auction.task_type,
                      "status": "closed", "allocated_to": auction.winner}
        self._posted.setdefault(tick + 1, []).append(auction)
        return self.publish(record, tick)

    def bid(self, auction: Auction, bidder: str, utility: float,
            tick: int) -> dict:
        """Log `bidder`'s bid in `auction`; it enters no inbox.  A utility
        is -path_cost, hence never positive, and negative infinity is the
        busy sentinel of a robot that is capable but occupied.  The one
        comparison also refuses NaN."""
        if not utility <= 0.0:
            raise ValueError(f"{bidder} bid utility {utility}; a utility "
                             f"must be <= 0 or -inf")
        # The one stamper besides `publish`: bids are most of a log's
        # records, so a bid is built stamped and logged in this one frame.
        record = {"type": "msg", "tick": tick, "seq": self._sequence,
                  "variant": "bid", "auctioneer": auction.auctioneer,
                  "loc": auction.loc, "bidder": bidder, "utility": utility}
        self._sequence += 1
        self._append(record)
        return record

    def declare(self, auction: Auction, tick: int) -> dict:
        """Log the declaration of `auction.winner` as winner (the auction
        stays open), for the winner's inbox at tick + `win_latency`."""
        record = {"type": "msg", "tick": None, "seq": None,
                  "variant": "winner",
                  "auctioneer": auction.auctioneer, "loc": auction.loc,
                  "task_type": auction.task_type, "status": "open",
                  "winner": auction.winner}
        self._mail_to(auction.winner, tick + self._win_latency, record)
        return self.publish(record, tick)

    def ack(self, win: dict, accepted: bool, tick: int) -> dict:
        """Log the verdict of the winner named by `win`, a winner record,
        for its auctioneer's inbox at tick + 1."""
        record = {"type": "msg", "tick": None, "seq": None, "variant": "ack",
                  "auctioneer": win["auctioneer"], "loc": win["loc"],
                  "auction_winner": win["winner"],
                  "verdict": "accepted" if accepted else "declined"}
        self._mail_to(win["auctioneer"], tick + 1, record)
        return self.publish(record, tick)

    def _mail_to(self, robot: str, due: int, record: dict) -> None:
        self._mail.setdefault(due, {}).setdefault(robot, []).append(record)

    def deliver(self, tick: int) -> dict[str, list[dict]]:
        """File the auctions posted at tick-1 on their boards, and return
        each robot's inbox: its records due at `tick`, in publish order, or
        an empty one for a subscriber whose bid scope changed.  A robot
        with neither is left out.  The engine delivers every tick once, in
        order."""
        mail = self._mail.pop(tick, {})
        posted = self._posted.pop(tick, None)
        if posted is not None:
            self._file(posted, mail)
        return mail

    def _file(self, posted: list[Auction],
              mail: dict[str, list[dict]]) -> None:
        """File `posted`, in order: add an announced auction not on its
        board yet, count each announcement as a round, and take off one
        posted with its winner declared, by its close (`post`).  Give an
        inbox to each subscriber that must step: with a bid scope of k,
        when the auction is one of the oldest k (after an announcement is
        filed, before a close removes it); with no bound on its scope, for
        every announcement."""
        stepped: dict[tuple[str, int | None], None] = {}
        for auction in posted:
            value = auction.task_type
            board = self.boards[value]
            key = (auction.auctioneer, auction.task_location)
            closing = auction.winner is not None
            if not closing:
                if not auction.rounds:
                    _add(board, key, auction)
                auction.rounds += 1
            for scope in self._subscribers.get(value, ()):
                if (not closing if scope is None
                        else auction in islice(board.values(), scope)):
                    stepped[value, scope] = None
            if closing:
                del board[key]
        for value, scope in stepped:
            for robot in self._subscribers[value][scope]:
                mail.setdefault(robot, [])

    @property
    def messages_published(self) -> int:
        return self._sequence
