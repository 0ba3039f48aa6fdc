"""Bidding and multi-win strategies.

fcfs       - bid only in the oldest open auction of your task type; a new
             allocation starts only after the preceding auction closes.
coalition  - each of the first min(n_excavators, n_haulers - 2) excavators
             owns a dedicated hauler that follows it and is handed minerals
             directly, with no auction; transport auctions happen only when
             the owned hauler is mid-delivery, and only the leftover
             unpaired haulers bid in them (fcfs order).
nearest    - bid in every open auction you are capable of; when several
             auctions declare you winner at once, accept the closest task
             and decline the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .world import InvariantError, PolicyName, RobotKind

if TYPE_CHECKING:
    from .agents import RobotState


@dataclass(frozen=True)
class Policy:
    """A bidding/acceptance strategy, plus the coalition pairing table."""

    name: PolicyName
    pairs: tuple[tuple[str, str], ...] = ()  # (excavator, hauler)

    def paired_hauler(self, excavator: str) -> str | None:
        for exc, hauler in self.pairs:
            if exc == excavator:
                return hauler
        return None

    def parent_of(self, hauler: str) -> str | None:
        for exc, paired in self.pairs:
            if paired == hauler:
                return exc
        return None

    def bid_scope(self, robot: "RobotState") -> int | None:
        """How many of the robot's oldest open auctions it may bid in (None:
        all of them).  Depends only on the robot's kind and name."""
        if self.name is PolicyName.NEAREST:
            return None
        if (self.name is PolicyName.COALITION
                and robot.kind is RobotKind.HAULER
                and self.parent_of(robot.name) is not None):
            return 0  # a paired hauler serves its parent excavator only
        return 1

    def resolve_wins(self, robot: "RobotState", wins: Sequence[dict]
                     ) -> tuple[dict | None, list[dict]]:
        """Split simultaneously received wins, winner records, into
        (accept, declines).

        A robot that became busy after bidding declines everything.  Under
        nearest, the closest task wins (ties to the lexicographically
        smallest auctioneer); the other policies can only produce a single
        win per robot at a time by construction.
        """
        wins = list(wins)
        if robot.busy:
            return None, wins
        if self.name is PolicyName.NEAREST:
            chosen = min(wins, key=lambda w: (
                robot.pose.distance_to(w["loc"]),
                w["auctioneer"],
                tuple(w["loc"]),
            ))
        else:
            if len(wins) != 1:
                raise InvariantError(
                    f"{robot.name} holds {len(wins)} wins at once under "
                    f"{self.name.value}, which declares one at a time")
            chosen = wins[0]
        return chosen, [w for w in wins if w is not chosen]


def make_policy(name: str | PolicyName, excavators: Sequence[str],
                haulers: Sequence[str]) -> Policy:
    """Build the policy, deriving coalition pairs from the fleet.

    Coalition pairs the first min(n_excavators, n_haulers - 2) excavators
    with haulers in name order, always leaving at least two haulers
    unpaired to serve the overflow auctions.
    """
    name = PolicyName(name)
    pairs: tuple[tuple[str, str], ...] = ()
    if name is PolicyName.COALITION:
        n_pairs = max(0, min(len(excavators), len(haulers) - 2))
        pairs = tuple(zip(excavators[:n_pairs], haulers[:n_pairs]))
    return Policy(name=name, pairs=pairs)
