"""Message transport and the five auction message formats.

Every published message is delivered at the start of the next tick, with no
loss, in publish order; its log record carries a global sequence number that
makes that order total.  `publish` works out a message's recipients once and
appends it to their inboxes for the next tick: announcements and closes go
to the robots subscribed to its task type (the robots that bid on it), bids
and acks to the auctioneer, a winner declaration to the winner.  Every
message is still logged, so the log stays the broadcast record of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .events import EventLog
from .world import Point, TaskType

if TYPE_CHECKING:
    from .auction import Auction

AuctionKey = tuple[str, tuple[float, float]]


def _require_name(value: str, field_name: str) -> None:
    if not value or not isinstance(value, str):
        raise ValueError(f"{field_name} must be a non-empty robot name")


@dataclass(frozen=True)
class Announcement:
    """A task put up for auction (status is always 'open')."""

    auctioneer: str
    task_type: TaskType
    task_location: Point

    def __post_init__(self) -> None:
        _require_name(self.auctioneer, "auctioneer")


@dataclass(frozen=True)
class Bid:
    """A bidder's utility for an announced task.

    Utility is -path_cost, hence never positive; negative infinity is the
    busy sentinel of a robot that is capable but currently occupied.
    """

    auctioneer: str
    bidder: str
    task_location: Point
    utility: float

    def __post_init__(self) -> None:
        _require_name(self.auctioneer, "auctioneer")
        _require_name(self.bidder, "bidder")
        if math.isnan(self.utility) or self.utility > 0.0:
            raise ValueError("utility must be <= 0 or -inf")


@dataclass(frozen=True)
class WinnerDecl:
    """The auctioneer names the bidder it picked (auction stays open)."""

    auctioneer: str
    task_type: TaskType
    task_location: Point
    winner: str

    def __post_init__(self) -> None:
        _require_name(self.auctioneer, "auctioneer")
        _require_name(self.winner, "winner")


@dataclass(frozen=True)
class Ack:
    """The declared winner accepts or declines the task."""

    auctioneer: str
    auction_winner: str
    task_location: Point
    accepted: bool

    def __post_init__(self) -> None:
        _require_name(self.auctioneer, "auctioneer")
        _require_name(self.auction_winner, "auction_winner")


@dataclass(frozen=True)
class Close:
    """The auction ends; the task is allocated (status 'closed')."""

    auctioneer: str
    task_type: TaskType
    task_location: Point
    allocated_to: str

    def __post_init__(self) -> None:
        _require_name(self.auctioneer, "auctioneer")
        _require_name(self.allocated_to, "allocated_to")


Message = Union[Announcement, Bid, WinnerDecl, Ack, Close]

_VARIANTS = {Announcement: "announcement", Bid: "bid", WinnerDecl: "winner",
             Ack: "ack", Close: "close"}


def auction_key(item: Message | Auction) -> AuctionKey:
    """(auctioneer, task_location) — the unique key of an auction, read
    from any of its messages or from the auction itself."""
    return (item.auctioneer, item.task_location.as_pair())


def message_record(msg: Message, tick: int, seq: int) -> dict:
    """Flatten a message published at `tick` with sequence number `seq`
    into one event-log record."""
    record: dict = {
        "type": "msg",
        "tick": tick,
        "seq": seq,
        "variant": _VARIANTS[type(msg)],
        "auctioneer": msg.auctioneer,
        "loc": [msg.task_location.x, msg.task_location.y],
    }
    if isinstance(msg, Announcement):
        record["task_type"] = msg.task_type.value
        record["status"] = "open"
    elif isinstance(msg, Bid):
        record["bidder"] = msg.bidder
        record["utility"] = msg.utility
    elif isinstance(msg, WinnerDecl):
        record["task_type"] = msg.task_type.value
        record["status"] = "open"
        record["winner"] = msg.winner
    elif isinstance(msg, Ack):
        record["auction_winner"] = msg.auction_winner
        record["verdict"] = "accepted" if msg.accepted else "declined"
    else:
        record["task_type"] = msg.task_type.value
        record["status"] = "closed"
        record["allocated_to"] = msg.allocated_to
    return record


class BroadcastBus:
    """Lossless addressed delivery with a fixed one-tick latency."""

    def __init__(self, log: EventLog | None = None):
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
        if self._log is not None:
            self._log.append(message_record(msg, tick, self._sequence))
        self._sequence += 1
        if isinstance(msg, (Announcement, Close)):
            recipients = self._subscribers.get(msg.task_type, ())
        elif isinstance(msg, WinnerDecl):
            recipients = (msg.winner,)
        else:
            recipients = (msg.auctioneer,)
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
