"""Message transport and the five auction message formats.

Every published message is delivered at the start of the next tick, with no
loss and a global sequence number that makes the delivery order total.  The
bus addresses each message to the robots that act on it: announcements and
closes to the robots that bid on its task type, bids and acks to the
auctioneer, a winner declaration to the winner.  Every message is still
logged, so the log stays the broadcast record of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import KeysView, Union

from .events import EventLog
from .world import Point, TaskType

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


def auction_key(msg: Message) -> AuctionKey:
    """(auctioneer, task_location) — the unique key of an auction."""
    return (msg.auctioneer, msg.task_location.as_pair())


@dataclass(frozen=True)
class Envelope:
    publish_tick: int
    sequence: int
    payload: Message


_sequence_of = attrgetter("sequence")


def envelope_record(env: Envelope) -> dict:
    """Flatten an envelope into one event-log record."""
    msg = env.payload
    record: dict = {
        "type": "msg",
        "tick": env.publish_tick,
        "seq": env.sequence,
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
        self._by_tick: dict[int, list[Envelope]] = {}
        self._sequence = 0
        self._last_drain: dict[str, int] = {}
        self._bucketed_tick: int | None = None  # the tick the buckets are for
        self._by_robot: dict[str, list[Envelope]] = {}
        self._by_type: dict[TaskType, list[Envelope]] = {}

    def publish(self, msg: Message, tick: int) -> Envelope:
        """Enqueue a message; its recipients receive it at tick + 1."""
        env = Envelope(publish_tick=tick, sequence=self._sequence, payload=msg)
        self._sequence += 1
        self._by_tick.setdefault(tick, []).append(env)
        if self._log is not None:
            self._log.append(envelope_record(env))
        return env

    def drain_inbox(self, robot: str, tick: int,
                    task_type: TaskType | None = None) -> list[Envelope]:
        """The envelopes published at tick-1 that `robot` acts on, in
        sequence order: those addressed to it, plus the announcements and
        closes of `task_type`, the task type it bids on.

        Idempotent within a tick: a second drain returns nothing.  Ticks are
        drained in non-decreasing order, as the engine steps them.
        """
        if self._last_drain.get(robot, -1) >= tick:
            return []
        self._last_drain[robot] = tick
        if self._bucketed_tick != tick:
            self._bucket(tick)
        own = self._by_robot.get(robot, [])
        typed = self._by_type.get(task_type, [])
        if own and typed:
            return sorted(own + typed, key=_sequence_of)
        return own or typed

    def addressees(self, tick: int) -> tuple[KeysView[str], KeysView[TaskType]]:
        """Who has mail at `tick`: the robots addressed by the envelopes
        published at tick-1, and the task types of those announcements and
        closes."""
        if self._bucketed_tick != tick:
            self._bucket(tick)
        return self._by_robot.keys(), self._by_type.keys()

    def _bucket(self, tick: int) -> None:
        """Bucket the envelopes published at tick-1 by recipient, and drop
        them, and any older ones, from the queue."""
        by_robot: dict[str, list[Envelope]] = {}
        by_type: dict[TaskType, list[Envelope]] = {}
        if self._by_tick:  # else nothing is queued: nothing to bucket or drop
            for env in self._by_tick.get(tick - 1, ()):
                msg = env.payload
                if isinstance(msg, (Announcement, Close)):
                    by_type.setdefault(msg.task_type, []).append(env)
                else:
                    to = msg.winner if isinstance(msg, WinnerDecl) else msg.auctioneer
                    by_robot.setdefault(to, []).append(env)
            self._by_tick = {t: envs for t, envs in self._by_tick.items()
                             if t >= tick}
        self._by_robot, self._by_type = by_robot, by_type
        self._bucketed_tick = tick

    @property
    def messages_published(self) -> int:
        return self._sequence
