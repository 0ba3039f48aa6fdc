"""Message transport, the open-auction boards and the five auction message
constructors.

A message is its log record: a msg record of `events`, built by one of the
constructors below with its keys in schema order, ("type",) +
RECORD_FIELDS["msg"] + MSG_FIELDS[variant], its `tick` and `seq` left for
the bus to stamp.  Each constructor takes its fields from the auction the
message belongs to (`auction.Auction`), an ack from the winner record it
answers, so every record of one auction holds that auction's one `loc`
list.  The bus appends the record to the log and puts that same object
into its recipient's inbox, so a robot must never mutate a record it
receives: the log, and every other record of the auction, would change
with it.  The auction a message belongs to is `events.record_auction_key`,
live and in the log.

Every message is delivered with no loss, in publish order; its global
sequence number makes that order total.  `publish` takes acks, winner
declarations and bids.  An inbox holds only acks and winner declarations:
an ack goes to the auctioneer's inbox at the start of the next tick, a
winner declaration to the winner's `win_latency` ticks after it is
published (the scenario's `win_resolution_window`).  A bid enters no
inbox: it is logged, and its bidder writes it in its own slot of the
auction's `answers`, where the auctioneer reads the round's bids when the
bidding window closes (`auction.select_winner`).  Announcements and closes
enter no inbox either: the auctioneer `post`s each with its auction, and
`deliver` files the auction the next tick, in post order, on the board of
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
nobody.  A subscriber named without addressed mail gets an empty inbox.

One board per task type stands in for a view per robot, its auctions for
the auctioneers' own, and their answers for bids delivered to the
auctioneer, only because delivery is lossless and synchronous: every
subscriber would file the same records in the same order, and every bid
would reach its auctioneer the tick after it was made.  So a bidder reads
only an auction's key fields, `rounds` and its own slot of `answers`, and
writes only that slot; `bids`, `winner` and `round_opened_tick` belong to
the auctioneer.  A scenario with message loss or delay per robot would
need a view per robot again, and bids delivered by message with it.

The constructors check nothing: each field is checked once, where its value
comes from.  Robot names are checked when the fleet is built
(`engine.Simulation`), a controller's task type when it is built, against
its kind (`agents.RobotController`), and a bid's utility by
`auction.submit_bid`, the one place a bid is made.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING

from .events import AuctionKey, EventLog
from .world import TaskType

if TYPE_CHECKING:
    from .auction import Auction


def announcement(auction: Auction) -> dict:
    """A round of `auction` put up for bids (status is always 'open')."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "announcement",
            "auctioneer": auction.auctioneer, "loc": auction.loc,
            "task_type": auction.task_type.value, "status": "open"}


def bid(auction: Auction, bidder: str, utility: float) -> dict:
    """A bidder's utility for `auction`'s task: -path_cost, hence never
    positive; negative infinity is the busy sentinel of a robot that is
    capable but currently occupied."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "bid",
            "auctioneer": auction.auctioneer, "loc": auction.loc,
            "bidder": bidder, "utility": utility}


def winner(auction: Auction) -> dict:
    """The auctioneer names the bidder it picked, `auction.winner` (the
    auction stays open)."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "winner",
            "auctioneer": auction.auctioneer, "loc": auction.loc,
            "task_type": auction.task_type.value, "status": "open",
            "winner": auction.winner}


def ack(win: dict, accepted: bool) -> dict:
    """The winner named by `win`, a winner record, accepts or declines the
    task."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "ack",
            "auctioneer": win["auctioneer"], "loc": win["loc"],
            "auction_winner": win["winner"],
            "verdict": "accepted" if accepted else "declined"}


def close(auction: Auction) -> dict:
    """The auction ends; its task is allocated to `auction.winner` (status
    'closed')."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "close",
            "auctioneer": auction.auctioneer, "loc": auction.loc,
            "task_type": auction.task_type.value, "status": "closed",
            "allocated_to": auction.winner}


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
        self._log = log
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

    def _stamp(self, record: dict, tick: int) -> None:
        """Stamp a message record with `tick` and its sequence number, and
        log it."""
        record["tick"] = tick
        record["seq"] = self._sequence
        self._sequence += 1
        self._log.append(record)

    def publish(self, record: dict, tick: int) -> None:
        """Stamp and log an ack, winner declaration or bid, and put an ack
        in its auctioneer's inbox for tick + 1, a winner declaration in the
        winner's inbox for tick + `win_latency`.  A bid goes nowhere else.
        An announcement or close is refused: it is `post`ed with its
        auction."""
        variant = record["variant"]
        if variant != "bid":
            if variant == "ack":
                robot, due = record["auctioneer"], tick + 1
            elif variant == "winner":
                robot, due = record["winner"], tick + self._win_latency
            else:
                raise ValueError(f"an {variant} is posted with its auction, "
                                 f"not published")
            self._mail.setdefault(due, {}).setdefault(robot, []).append(record)
        self._stamp(record, tick)

    def post(self, auction: Auction, record: dict, tick: int) -> None:
        """Stamp and log `record`, an announcement or the close of
        `auction`, and file the auction on the board of its task type at
        tick + 1.  A close is posted with its winner declared, an
        announcement with none, and neither changes before it is filed: a
        round's window is at least two ticks long, and a closed auction
        leaves its auctioneer's book."""
        self._stamp(record, tick)
        self._posted.setdefault(tick + 1, []).append(auction)

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
            value = auction.task_type.value
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
