"""First-price one-round auction with decline-and-reoffer.

One Auction object lives on its auctioneer and walks the states
Announced -> Collecting -> AwaitingAck -> Closed.  If every bid is the busy
sentinel, or every declared winner declines, the auction re-announces and
collects a fresh round of bids; it never closes without an accepted
acknowledgment.  Bids that arrive after a winner was declared are held back
and only count toward the next round, should one happen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .bus import (Ack, Announcement, AuctionKey, Bid, BroadcastBus, Close,
                  WinnerDecl, auction_key)
from .pathing import PathPlanner
from .world import Point, RobotKind, TaskType

if TYPE_CHECKING:
    from .agents import RobotState

NEG_INF = float("-inf")

_CAPABILITY = {TaskType.EXCAVATE: RobotKind.EXCAVATOR,
               TaskType.TRANSPORT: RobotKind.HAULER}


def is_capable(kind: RobotKind, task_type: TaskType) -> bool:
    return _CAPABILITY[task_type] is kind


class AuctionPhase(str, Enum):
    ANNOUNCED = "announced"
    COLLECTING = "collecting"
    AWAITING_ACK = "awaiting_ack"
    CLOSED = "closed"


@dataclass
class Auction:
    """Auctioneer-side record of one task allocation attempt."""

    auctioneer: str
    task_type: TaskType
    task_location: Point
    opened_tick: int
    state: AuctionPhase = AuctionPhase.ANNOUNCED
    round_opened_tick: int = 0
    bids: dict[str, float] = field(default_factory=dict)
    late_bids: dict[str, float] = field(default_factory=dict)
    offered_to: list[str] = field(default_factory=list)
    winner: str | None = None
    allocated_to: str | None = None
    closed_tick: int | None = None
    rounds: int = 1

    @property
    def key(self) -> AuctionKey:
        return auction_key(self)

    @property
    def is_open(self) -> bool:
        return self.state is not AuctionPhase.CLOSED


def open_auction(book: dict[AuctionKey, Auction], auctioneer: str,
                 task_type: TaskType, task_location: Point, tick: int,
                 bus: BroadcastBus) -> Auction:
    """Announce a new auction. An auctioneer may hold several at once,
    but never two open ones for the same task location."""
    auction = Auction(auctioneer=auctioneer, task_type=task_type,
                      task_location=task_location, opened_tick=tick,
                      round_opened_tick=tick)
    if auction.key in book:
        raise ValueError(f"auction {auction.key} is already open")
    book[auction.key] = auction
    bus.publish(Announcement(auctioneer, task_type, task_location), tick)
    return auction


def record_bid(auction: Auction, bid: Bid) -> None:
    """File an arriving bid; a bid landing after winner declaration only
    counts toward the next round."""
    if auction.state in (AuctionPhase.ANNOUNCED, AuctionPhase.COLLECTING):
        auction.bids[bid.bidder] = bid.utility
    elif auction.state is AuctionPhase.AWAITING_ACK:
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
    auction.state = AuctionPhase.ANNOUNCED
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
    if auction.state is not AuctionPhase.COLLECTING:
        raise ValueError("winner selection requires a collecting auction")
    best = _best_eligible(auction)
    if best is None:
        _reannounce(auction, tick, bus)
        return None
    auction.winner = best
    auction.offered_to.append(best)
    auction.state = AuctionPhase.AWAITING_ACK
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
    dropped.
    """
    if auction.state is not AuctionPhase.AWAITING_ACK:
        return None
    if ack.auction_winner != auction.winner:
        return None
    if ack.accepted:
        auction.state = AuctionPhase.CLOSED
        auction.allocated_to = auction.winner
        auction.closed_tick = tick
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


def step_auction_timers(auction: Auction, tick: int, bus: BroadcastBus,
                        bid_window: int) -> WinnerDecl | None:
    """Advance announcement->collecting and fire the bid-window deadline.

    Selection fires on the first tick that is past the bid window AND on the
    global bid_window cadence.  The shared cadence makes independent
    auctions select simultaneously, so a robot that is best for several
    tasks receives those wins together and its nearest-first choice (policy
    dependent) actually has something to choose between.
    """
    if auction.state is AuctionPhase.ANNOUNCED and tick > auction.round_opened_tick:
        auction.state = AuctionPhase.COLLECTING
    if (auction.state is AuctionPhase.COLLECTING
            and tick >= auction.round_opened_tick + bid_window
            and tick % bid_window == 0):
        return select_winner(auction, tick, bus)
    return None


def evaluate_self_utility(robot: "RobotState", task_location: Point,
                          planner: PathPlanner) -> float:
    """Utility = -cost, cost = estimated path length; busy robots answer
    with the negative-infinity sentinel."""
    if robot.busy:
        return NEG_INF
    return -planner(robot.pose, task_location).length


def submit_bid(robot: "RobotState", auctioneer: str, task_type: TaskType,
               task_location: Point, utility: float, tick: int,
               bus: BroadcastBus) -> Bid:
    """Publish a bid. Incapable robot kinds never construct bids."""
    if not is_capable(robot.kind, task_type):
        raise ValueError(f"{robot.kind.value} robots cannot bid on "
                         f"{task_type.value} tasks")
    bid = Bid(auctioneer=auctioneer, bidder=robot.name,
              task_location=task_location, utility=utility)
    bus.publish(bid, tick)
    return bid
