"""Message transport and the five auction message constructors.

A message is its log record: a msg record of `events`, built by one of the
constructors below with its keys in schema order, ("type",) +
RECORD_FIELDS["msg"] + MSG_FIELDS[variant], its `tick` and `seq` left for
`publish` to stamp.  `publish` appends the record to the log and puts that
same object into its recipients' inboxes, so a robot must never mutate a
record it receives: the log would change with it.  The auction a message
belongs to is `events.record_auction_key`, live and in the log.

Every published message is delivered at the start of the next tick, with no
loss, in publish order; its global sequence number makes that order total.
`publish` works out a message's recipients once, by its variant:
announcements and closes go to the robots subscribed to its task type (the
robots that bid on it), bids and acks to the auctioneer, a winner
declaration to the winner.  Every message is still logged, so the log stays
the broadcast record of the run.

The constructors check nothing: each field is checked once, where its value
comes from.  Robot names are checked when the fleet is built
(`engine.Simulation`), a controller's task type when it is built, against
its kind (`agents.RobotController`), and a bid's utility by
`auction.submit_bid`, the one place a bid is made.
"""

from __future__ import annotations

from .events import EventLog
from .world import Point, TaskType


def announcement(auctioneer: str, task_type: TaskType, location: Point) -> dict:
    """A task put up for auction (status is always 'open')."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "announcement",
            "auctioneer": auctioneer, "loc": [location.x, location.y],
            "task_type": task_type.value, "status": "open"}


def bid(auctioneer: str, bidder: str, location: Point, utility: float) -> dict:
    """A bidder's utility for an announced task: -path_cost, hence never
    positive; negative infinity is the busy sentinel of a robot that is
    capable but currently occupied."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "bid",
            "auctioneer": auctioneer, "loc": [location.x, location.y],
            "bidder": bidder, "utility": utility}


def winner(auctioneer: str, task_type: TaskType, location: Point,
           winner: str) -> dict:
    """The auctioneer names the bidder it picked (auction stays open)."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "winner",
            "auctioneer": auctioneer, "loc": [location.x, location.y],
            "task_type": task_type.value, "status": "open", "winner": winner}


def ack(auctioneer: str, auction_winner: str, location: Point,
        accepted: bool) -> dict:
    """The declared winner accepts or declines the task."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "ack",
            "auctioneer": auctioneer, "loc": [location.x, location.y],
            "auction_winner": auction_winner,
            "verdict": "accepted" if accepted else "declined"}


def close(auctioneer: str, task_type: TaskType, location: Point,
          allocated_to: str) -> dict:
    """The auction ends; the task is allocated (status 'closed')."""
    return {"type": "msg", "tick": None, "seq": None, "variant": "close",
            "auctioneer": auctioneer, "loc": [location.x, location.y],
            "task_type": task_type.value, "status": "closed",
            "allocated_to": allocated_to}


class BroadcastBus:
    """Lossless addressed delivery with a fixed one-tick latency."""

    def __init__(self, log: EventLog):
        self._log = log
        self._sequence = 0
        self._subscribers: dict[str, list[str]] = {}  # task type value -> robots
        # tick -> robot -> the records it receives at that tick
        self._mail: dict[int, dict[str, list[dict]]] = {}

    def subscribe(self, robot: str, task_type: TaskType) -> None:
        """Address the announcements and closes of `task_type` to `robot`."""
        self._subscribers.setdefault(task_type.value, []).append(robot)

    def publish(self, record: dict, tick: int) -> None:
        """Stamp a message record with `tick` and its sequence number, log
        it and put it in its recipients' inboxes for tick + 1."""
        record["tick"] = tick
        record["seq"] = self._sequence
        self._sequence += 1
        self._log.append(record)
        variant = record["variant"]
        if variant == "bid" or variant == "ack":
            recipients = (record["auctioneer"],)
        elif variant == "winner":
            recipients = (record["winner"],)
        else:  # announcement, close
            recipients = self._subscribers.get(record["task_type"], ())
        mail = self._mail.setdefault(tick + 1, {})
        for robot in recipients:
            mail.setdefault(robot, []).append(record)

    def deliver(self, tick: int) -> dict[str, list[dict]]:
        """Each robot's records published at tick-1, in publish order; a
        robot without mail is left out.  The engine delivers every tick
        once, in order."""
        return self._mail.pop(tick, {})

    @property
    def messages_published(self) -> int:
        return self._sequence
