"""First-price one-round auction with decline-and-reoffer.

One Auction object lives in its auctioneer's book and walks the rounds
announce -> collect bids -> declare a winner -> await the winner's ack.  A
round awaits an ack exactly when it has a declared winner.  An accepted ack
closes the auction, and the auctioneer drops it from its book.  If every bid
is the busy sentinel, or every declared winner declines, the auction
re-announces and collects a fresh round of bids; it never closes without an
accepted acknowledgment.  Bids that arrive after a winner was declared are
held back and only count toward the next round, should one happen.

Only capable robots bid: a controller subscribes, when it is built, to the
one task type its kind can do (`agents.RobotController` checks that), so no
bid needs a capability test.  `submit_bid`, the one place a bid is made,
checks its utility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .bus import (Ack, Announcement, AuctionKey, Bid, BroadcastBus, Close,
                  WinnerDecl, auction_key)
from .events import NEG_INF
from .pathing import PathPlanner
from .world import Point, RobotKind, TaskType

if TYPE_CHECKING:
    from .agents import RobotState

# The one task type each robot kind can do; scouts do none.
CAPABLE_TASK = {RobotKind.EXCAVATOR: TaskType.EXCAVATE,
                RobotKind.HAULER: TaskType.TRANSPORT}


@dataclass
class Auction:
    """Auctioneer-side record of one task allocation attempt."""

    auctioneer: str
    task_type: TaskType
    task_location: Point
    round_opened_tick: int
    bids: dict[str, float] = field(default_factory=dict)
    late_bids: dict[str, float] = field(default_factory=dict)
    offered_to: list[str] = field(default_factory=list)
    winner: str | None = None
    rounds: int = 1

    @property
    def key(self) -> AuctionKey:
        return auction_key(self)


def open_auction(book: dict[AuctionKey, Auction], auctioneer: str,
                 task_type: TaskType, task_location: Point, tick: int,
                 bus: BroadcastBus) -> Auction:
    """Announce a new auction. An auctioneer may hold several at once,
    but never two open ones for the same task location."""
    auction = Auction(auctioneer=auctioneer, task_type=task_type,
                      task_location=task_location, round_opened_tick=tick)
    if auction.key in book:
        raise ValueError(f"auction {auction.key} is already open")
    book[auction.key] = auction
    bus.publish(Announcement(auctioneer, task_type, task_location), tick)
    return auction


def record_bid(auction: Auction, bid: Bid) -> None:
    """File an arriving bid; a bid landing after winner declaration only
    counts toward the next round."""
    if auction.winner is None:
        auction.bids[bid.bidder] = bid.utility
    else:
        auction.late_bids[bid.bidder] = bid.utility


def _best_eligible(auction: Auction) -> str | None:
    """Highest finite bidder not yet offered this round; ties go to the
    lexicographically smallest name."""
    best: str | None = None
    best_utility = NEG_INF
    for bidder in sorted(auction.bids):
        utility = auction.bids[bidder]
        if not math.isfinite(utility) or bidder in auction.offered_to:
            continue
        if utility > best_utility:
            best, best_utility = bidder, utility
    return best


def _reannounce(auction: Auction, tick: int, bus: BroadcastBus) -> None:
    auction.round_opened_tick = tick
    auction.rounds += 1
    auction.bids = dict(auction.late_bids)
    auction.late_bids = {}
    auction.offered_to = []
    auction.winner = None
    bus.publish(Announcement(auction.auctioneer, auction.task_type,
                             auction.task_location), tick)


def select_winner(auction: Auction, tick: int,
                  bus: BroadcastBus) -> WinnerDecl | None:
    """Close of the bidding window: declare the best bidder, or re-announce
    when no finite bid exists (a busy-sentinel bidder is never selected)."""
    if auction.winner is not None:
        raise ValueError("winner selection requires an auction with no winner")
    best = _best_eligible(auction)
    if best is None:
        _reannounce(auction, tick, bus)
        return None
    auction.winner = best
    auction.offered_to.append(best)
    decl = WinnerDecl(auction.auctioneer, auction.task_type,
                      auction.task_location, best)
    bus.publish(decl, tick)
    return decl


def handle_ack(auction: Auction, ack: Ack, tick: int,
               bus: BroadcastBus) -> Close | WinnerDecl | None:
    """Process the winner's verdict.

    Accepted: publish the closing message and finish.  Declined: offer to
    the next-highest bidder of this round, or re-announce when the round is
    exhausted.  Acknowledgments from anyone but the declared winner are
    dropped, as are all acknowledgments while no winner is declared.
    """
    if ack.auction_winner != auction.winner:
        return None
    if ack.accepted:
        close = Close(auction.auctioneer, auction.task_type,
                      auction.task_location, auction.winner)
        bus.publish(close, tick)
        return close
    nxt = _best_eligible(auction)
    if nxt is None:
        _reannounce(auction, tick, bus)
        return None
    auction.winner = nxt
    auction.offered_to.append(nxt)
    decl = WinnerDecl(auction.auctioneer, auction.task_type,
                      auction.task_location, nxt)
    bus.publish(decl, tick)
    return decl


def evaluate_self_utility(robot: "RobotState", task_location: Point,
                          planner: PathPlanner) -> float:
    """Utility = -cost, cost = estimated path length; busy robots answer
    with the negative-infinity sentinel."""
    if robot.busy:
        return NEG_INF
    return -planner(robot.pose, task_location).length


def submit_bid(robot: "RobotState", auctioneer: str, task_location: Point,
               utility: float, tick: int, bus: BroadcastBus) -> Bid:
    """Publish a bid.  A utility is never positive; -inf is the busy
    sentinel.  The one comparison also rejects NaN."""
    if not utility <= 0.0:
        raise ValueError(f"{robot.name} bid utility {utility}; a utility "
                         f"must be <= 0 or -inf")
    bid = Bid(auctioneer, robot.name, task_location, utility)
    bus.publish(bid, tick)
    return bid
