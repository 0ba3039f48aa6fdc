"""Deterministic simulator of an auction-coordinated lunar mining fleet.

Scouts sweep the arena in outward spirals and auction each found resource
site to the excavators; excavators dig minerals one by one and auction (or,
under the coalition policy, hand directly) each mineral to a hauler, which
delivers it to the central processing plant.  Three bidding policies are
built in and compared by a seeded sweep harness.
"""

__version__ = "0.1.0"

from .agents import (
    AuctionView,
    ExcavatorActivity,
    HaulerActivity,
    RobotState,
    ScoutActivity,
)
from .auction import (
    Auction,
    evaluate_self_utility,
    handle_ack,
    open_auction,
    select_winner,
    submit_bid,
)
from .bus import (
    Ack,
    Announcement,
    Bid,
    BroadcastBus,
    Close,
    Message,
    WinnerDecl,
)
from .engine import RunResult, RunStatus, SimContext, Simulation, run_to_completion
from .events import EventLog, LogParseError
from .metrics import (
    AuctionHistory,
    MetricsError,
    MetricsReport,
    build_summary,
    collect_metrics,
    derive_auction_histories,
    sweep,
)
from .pathing import (
    PathCursor,
    PathEstimate,
    estimate_path,
)
from .policy import Policy, PolicyName, make_policy
from .spiral import SpiralPlan, build_spiral, ring_index
from .verify import Violation, verify_records
from .world import (
    InvariantError,
    Point,
    ResourceSite,
    RobotKind,
    ScenarioConfig,
    ScenarioGenerationError,
    TaskType,
    TimingConfig,
    WorldState,
    generate_scenario,
    transfer_mineral_to_plant,
)

__all__ = [
    "__version__",
    "Ack", "Announcement", "Auction", "AuctionHistory",
    "AuctionView", "Bid", "BroadcastBus", "Close", "EventLog",
    "ExcavatorActivity", "HaulerActivity", "InvariantError", "LogParseError",
    "Message", "MetricsError", "MetricsReport", "PathCursor", "PathEstimate",
    "Point",
    "Policy", "PolicyName", "ResourceSite", "RobotKind", "RobotState",
    "RunResult", "RunStatus", "ScenarioConfig", "ScenarioGenerationError",
    "ScoutActivity", "SimContext", "Simulation", "SpiralPlan", "TaskType",
    "TimingConfig", "Violation", "WinnerDecl", "WorldState",
    "build_spiral", "build_summary", "collect_metrics",
    "derive_auction_histories", "estimate_path", "evaluate_self_utility",
    "generate_scenario", "handle_ack", "make_policy", "open_auction",
    "ring_index", "run_to_completion", "select_winner",
    "submit_bid", "sweep", "transfer_mineral_to_plant",
    "verify_records",
]
