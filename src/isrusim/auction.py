"""First-price one-round auction with decline-and-reoffer.

One `Auction` object is the whole of an open auction.  It lives in its
auctioneer's book from its announcement on, and from the next tick the bus
files that same object on the board of open auctions of its task type
(`bus.BroadcastBus.post`), where its bidders read it.  It walks the rounds
announce -> collect bids -> declare a winner -> await the winner's ack.  A
round awaits an ack exactly when it has a declared winner.  An accepted ack
closes the auction, and the auctioneer drops it from its book; the bus
takes it off the board the next tick.  If every bid is the busy sentinel,
or every declared winner declines, the auction re-announces and collects a
fresh round of bids; it never closes without an accepted acknowledgment.

A bid goes to no inbox.  Its bidder writes it, as (round, utility, tick), in
its own slot of the auction's `answers`, and when the bidding window closes
`select_winner` takes the answers of the current round made before that
tick.  That is the late-bid rule: robots step before the timers fire, so a
bid made at the selection tick or later would have reached the auctioneer
after its first declaration, and it is not read.  The same pass over the
answers finds the winner: the highest finite utility, and on equal
utilities the smallest name; after a decline, `_best_eligible` picks the
next bidder by the same rule, without a sort.  Every robot that bid in an
auction bids again the tick a re-announcement is filed, before the next
winner selection.

An auction holds its task type as the plain string value of the
`TaskType` it is built with, which its records carry and its board is
keyed by.

Only capable robots bid: a controller subscribes, when it is built, to the
one task type its kind can do (`agents.RobotController` checks that), so no
bid needs a capability test.  `bus.BroadcastBus.bid`, the one place a bid
is made, checks its utility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .bus import BroadcastBus
from .events import NEG_INF, AuctionKey
from .world import Point, RobotKind, TaskType

if TYPE_CHECKING:
    from .agents import RobotState

# The one task type each robot kind can do; scouts do none.
CAPABLE_TASK = {RobotKind.EXCAVATOR: TaskType.EXCAVATE,
                RobotKind.HAULER: TaskType.TRANSPORT}


@dataclass(eq=False)
class Auction:
    """One open auction, in its auctioneer's book and on its board.

    The bus counts in `rounds` the announcements it has filed on the board
    and adds the auction there at the first; each bidder writes its last
    bid as (round answered, utility, tick made) in its own slot of
    `answers`.  `bids` holds the round's bids as its first declaration read
    them off `answers`, and a decliner's bid leaves it.  Every record of
    the auction holds its one `loc` list and its `task_type`, the plain
    string value of the `TaskType` it is built with.  Equal only to itself,
    so a reopened key is a new auction, with no answers."""

    auctioneer: str
    task_type: str
    task_location: Point
    first_tick: int
    round_opened_tick: int = field(init=False)
    rounds: int = 0
    answers: dict[str, tuple[int, float, int]] = field(default_factory=dict)
    bids: dict[str, float] = field(default_factory=dict)
    winner: str | None = None
    loc: list[float] = field(init=False)

    def __post_init__(self) -> None:
        self.round_opened_tick = self.first_tick
        self.loc = list(self.task_location)
        self.task_type = TaskType(self.task_type).value


def open_auction(book: dict[AuctionKey, Auction], auctioneer: str,
                 task_type: TaskType, task_location: Point, tick: int,
                 bus: BroadcastBus) -> Auction:
    """Announce a new auction, filed under `record_auction_key` of its
    announcement.  An auctioneer may hold several at once, but never two
    open ones for the same task location."""
    key = (auctioneer, task_location)
    if key in book:
        raise ValueError(f"auction {key} is already open")
    book[key] = auction = Auction(auctioneer, task_type, task_location, tick)
    bus.post(auction, tick)
    return auction


def _best_eligible(auction: Auction) -> str | None:
    """Highest finite bidder of this round, decliners' bids gone; ties go to
    the lexicographically smallest name.  No bid is NaN or positive
    (`bus.BroadcastBus.bid`), so a finite bid is one above the sentinel."""
    best: str | None = None
    best_utility = NEG_INF
    for bidder, utility in auction.bids.items():
        if utility > best_utility or (
                utility == best_utility and best is not None and bidder < best):
            best, best_utility = bidder, utility
    return best


def _reannounce(auction: Auction, tick: int, bus: BroadcastBus) -> None:
    auction.round_opened_tick = tick
    auction.bids = {}
    auction.winner = None
    bus.post(auction, tick)


def _offer(auction: Auction, best: str | None, tick: int,
           bus: BroadcastBus) -> dict | None:
    """Declare `best` winner and return the winner record, or re-announce
    when there is none."""
    if best is None:
        _reannounce(auction, tick, bus)
        return None
    auction.winner = best
    return bus.declare(auction, tick)


def select_winner(auction: Auction, tick: int,
                  bus: BroadcastBus) -> dict | None:
    """Close of the bidding window: take the round's bids, the answers of
    its current round made before `tick`, and declare the best bidder
    (`_best_eligible`'s rule, read in the same pass), or re-announce when no
    finite bid exists (a busy-sentinel bidder is never selected).  The bus
    files an announcement the tick after it is posted, before any window
    closes, so an auction with no round filed is a fault of the program, as
    is one with a winner: both raise."""
    rounds = auction.rounds
    if auction.winner is not None or not rounds:
        raise ValueError("winner selection requires an auction with a round "
                         "filed and no winner")
    auction.bids = bids = {}
    best: str | None = None
    best_utility = NEG_INF
    for bidder, (answered, utility, made) in auction.answers.items():
        if answered == rounds and made < tick:
            bids[bidder] = utility
            if utility > best_utility or (
                    utility == best_utility and best is not None
                    and bidder < best):
                best, best_utility = bidder, utility
    return _offer(auction, best, tick, bus)


def handle_ack(auction: Auction, record: dict, tick: int,
               bus: BroadcastBus) -> dict | None:
    """Process the winner's verdict, an ack record, and return the record
    it publishes, if any.

    Accepted: post the close and finish.  Declined: drop the decliner's
    bid and offer to the next-highest bidder of this round (a winner
    record), or re-announce when none is left.  Acknowledgments from anyone
    but the declared winner are dropped, as are all acknowledgments while no
    winner is declared.
    """
    if record["auction_winner"] != auction.winner:
        return None
    if record["verdict"] == "accepted":
        return bus.post(auction, tick)
    del auction.bids[auction.winner]
    return _offer(auction, _best_eligible(auction), tick, bus)


def evaluate_self_utility(robot: "RobotState",
                          task_location: Sequence[float],
                          busy: bool | None = None,
                          pose: Point | None = None) -> float:
    """Utility = -cost, cost = the straight-line distance to the task (the
    arena has no obstacles); busy robots answer with the negative-infinity
    sentinel.  `busy` and `pose` default to the robot's own; a robot that
    bids in several auctions in one step reads them once and passes them,
    since neither changes while it bids."""
    if robot.busy if busy is None else busy:
        return NEG_INF
    return -(robot.pose if pose is None else pose).distance_to(task_location)

