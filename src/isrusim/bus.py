"""Message transport and the five auction message formats.

Every published message is delivered at the start of the next tick, with no
loss, in publish order; its log record carries a global sequence number that
makes that order total.  `publish` works out a message's recipients once and
appends it to their inboxes for the next tick: announcements and closes go
to the robots subscribed to its task type (the robots that bid on it), bids
and acks to the auctioneer, a winner declaration to the winner.  Every
message is still logged, so the log stays the broadcast record of the run.

Messages are plain records and check nothing when built: each field is
checked once, where its value comes from.  Robot names are checked when the
fleet is built (`engine.Simulation`), a controller's task type when it is
built, against its kind (`agents.RobotController`), and a bid's utility by
`auction.submit_bid`, the one place a bid is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

from .events import EventLog
from .world import Point, TaskType

if TYPE_CHECKING:
    from .auction import Auction

AuctionKey = tuple[str, tuple[float, float]]


def auction_key(item: Message | Auction) -> AuctionKey:
    """(auctioneer, task_location) — the unique key of an auction, read
    from any of its messages or from the auction itself."""
    return (item.auctioneer, item.task_location.as_pair())


class _KeyOnce:
    """The `auction_key` of a message that reaches many robots, computed on
    the first read and kept on the message for the other recipients."""

    def __get__(self, msg: Announcement | Close | None, owner: type):
        if msg is None:  # read from the class
            return self
        key = msg.__dict__["key"] = auction_key(msg)
        return key


@dataclass
class Announcement:
    """A task put up for auction (status is always 'open')."""

    auctioneer: str
    task_type: TaskType
    task_location: Point

    key = _KeyOnce()


@dataclass
class Bid:
    """A bidder's utility for an announced task.

    Utility is -path_cost, hence never positive; negative infinity is the
    busy sentinel of a robot that is capable but currently occupied.
    """

    auctioneer: str
    bidder: str
    task_location: Point
    utility: float


@dataclass
class WinnerDecl:
    """The auctioneer names the bidder it picked (auction stays open)."""

    auctioneer: str
    task_type: TaskType
    task_location: Point
    winner: str


@dataclass
class Ack:
    """The declared winner accepts or declines the task."""

    auctioneer: str
    auction_winner: str
    task_location: Point
    accepted: bool


@dataclass
class Close:
    """The auction ends; the task is allocated (status 'closed')."""

    auctioneer: str
    task_type: TaskType
    task_location: Point
    allocated_to: str

    key = _KeyOnce()


Message = Union[Announcement, Bid, WinnerDecl, Ack, Close]


# One record builder per variant.  Each writes the keys in the order
# ("type",) + RECORD_FIELDS["msg"] + MSG_FIELDS[variant] of `events`.

def _announcement_record(msg: Announcement, tick: int, seq: int) -> dict:
    loc = msg.task_location
    return {"type": "msg", "tick": tick, "seq": seq, "variant": "announcement",
            "auctioneer": msg.auctioneer, "loc": [loc.x, loc.y],
            "task_type": msg.task_type.value, "status": "open"}


def _bid_record(msg: Bid, tick: int, seq: int) -> dict:
    loc = msg.task_location
    return {"type": "msg", "tick": tick, "seq": seq, "variant": "bid",
            "auctioneer": msg.auctioneer, "loc": [loc.x, loc.y],
            "bidder": msg.bidder, "utility": msg.utility}


def _winner_record(msg: WinnerDecl, tick: int, seq: int) -> dict:
    loc = msg.task_location
    return {"type": "msg", "tick": tick, "seq": seq, "variant": "winner",
            "auctioneer": msg.auctioneer, "loc": [loc.x, loc.y],
            "task_type": msg.task_type.value, "status": "open",
            "winner": msg.winner}


def _ack_record(msg: Ack, tick: int, seq: int) -> dict:
    loc = msg.task_location
    return {"type": "msg", "tick": tick, "seq": seq, "variant": "ack",
            "auctioneer": msg.auctioneer, "loc": [loc.x, loc.y],
            "auction_winner": msg.auction_winner,
            "verdict": "accepted" if msg.accepted else "declined"}


def _close_record(msg: Close, tick: int, seq: int) -> dict:
    loc = msg.task_location
    return {"type": "msg", "tick": tick, "seq": seq, "variant": "close",
            "auctioneer": msg.auctioneer, "loc": [loc.x, loc.y],
            "task_type": msg.task_type.value, "status": "closed",
            "allocated_to": msg.allocated_to}


_RECORD_BUILDERS: dict[type, Callable[..., dict]] = {
    Bid: _bid_record, Announcement: _announcement_record,
    WinnerDecl: _winner_record, Ack: _ack_record, Close: _close_record}


def message_record(msg: Message, tick: int, seq: int) -> dict:
    """Flatten a message published at `tick` with sequence number `seq`
    into one event-log record."""
    return _RECORD_BUILDERS[type(msg)](msg, tick, seq)


class BroadcastBus:
    """Lossless addressed delivery with a fixed one-tick latency."""

    def __init__(self, log: EventLog):
        self._log = log
        self._sequence = 0
        self._subscribers: dict[TaskType, list[str]] = {}
        # tick -> robot -> the messages it receives at that tick
        self._mail: dict[int, dict[str, list[Message]]] = {}

    def subscribe(self, robot: str, task_type: TaskType) -> None:
        """Address the announcements and closes of `task_type` to `robot`."""
        self._subscribers.setdefault(task_type, []).append(robot)

    def publish(self, msg: Message, tick: int) -> None:
        """Log a message and put it in its recipients' inboxes for tick + 1."""
        self._log.append(message_record(msg, tick, self._sequence))
        self._sequence += 1
        cls = type(msg)
        if cls is Bid or cls is Ack:
            recipients = (msg.auctioneer,)
        elif cls is WinnerDecl:
            recipients = (msg.winner,)
        else:  # Announcement, Close
            recipients = self._subscribers.get(msg.task_type, ())
        mail = self._mail.setdefault(tick + 1, {})
        for robot in recipients:
            mail.setdefault(robot, []).append(msg)

    def deliver(self, tick: int) -> dict[str, list[Message]]:
        """Each robot's messages published at tick-1, in publish order; a
        robot without mail is left out.  The engine delivers every tick
        once, in order."""
        return self._mail.pop(tick, {})

    @property
    def messages_published(self) -> int:
        return self._sequence
