import math

from conftest import tiny_run

from isrusim import (
    Point,
    RobotKind,
    RobotState,
    TaskType,
    WinnerDecl,
    make_policy,
)
from isrusim.agents import ExcavatorActivity, HaulerActivity

EXCAVATORS = [f"excavator_{i}" for i in range(1, 5)]
HAULERS = [f"hauler_{i}" for i in range(1, 7)]


def idle_excavator(pose=Point(50, 50)) -> RobotState:
    return RobotState("excavator_1", RobotKind.EXCAVATOR, pose,
                      ExcavatorActivity.IDLE)


def idle_hauler(name="hauler_1", pose=Point(50, 50)) -> RobotState:
    return RobotState(name, RobotKind.HAULER, pose, HaulerActivity.IDLE)


def test_coalition_pairs_default_fleet():
    policy = make_policy("coalition", EXCAVATORS, HAULERS)
    assert len(policy.pairs) == 4  # min(4 excavators, 6 - 2 haulers)
    assert policy.pairs[0] == ("excavator_1", "hauler_1")
    assert policy.paired_hauler("excavator_4") == "hauler_4"
    assert policy.parent_of("hauler_5") is None
    assert policy.parent_of("hauler_2") == "excavator_2"


def test_coalition_pairs_small_fleets():
    assert make_policy("coalition", EXCAVATORS, HAULERS[:2]).pairs == ()
    assert len(make_policy("coalition", EXCAVATORS[:1], HAULERS[:3]).pairs) == 1


def test_non_coalition_policies_have_no_pairs():
    assert make_policy("fcfs", EXCAVATORS, HAULERS).pairs == ()
    assert make_policy("nearest", EXCAVATORS, HAULERS).pairs == ()


def test_fcfs_bids_only_in_oldest():
    policy = make_policy("fcfs", EXCAVATORS, HAULERS)
    assert policy.bid_scope(idle_excavator()) == 1
    assert policy.bid_scope(idle_hauler("hauler_2")) == 1


def test_nearest_bids_in_all():
    policy = make_policy("nearest", EXCAVATORS, HAULERS)
    assert policy.bid_scope(idle_excavator()) is None
    assert policy.bid_scope(idle_hauler()) is None


def test_coalition_paired_hauler_never_bids():
    policy = make_policy("coalition", EXCAVATORS, HAULERS)
    assert policy.bid_scope(idle_hauler("hauler_2")) == 0
    # unpaired haulers fall back to the fcfs rule
    assert policy.bid_scope(idle_hauler("hauler_5")) == 1


def test_coalition_excavators_use_fcfs_rule():
    policy = make_policy("coalition", EXCAVATORS, HAULERS)
    assert policy.bid_scope(idle_excavator()) == 1


def wins_at(*distances_and_auctioneers):
    robot_pose = Point(0, 0)
    wins = []
    for distance, auctioneer in distances_and_auctioneers:
        wins.append(WinnerDecl(auctioneer, TaskType.TRANSPORT,
                               Point(distance, 0), "hauler_1"))
    return wins


def test_nearest_accepts_closest_win():
    policy = make_policy("nearest", EXCAVATORS, HAULERS)
    wins = wins_at((12.0, "excavator_1"), (4.0, "excavator_2"),
                   (9.0, "excavator_3"))
    accept, declined = policy.resolve_wins(idle_hauler(pose=Point(0, 0)), wins)
    assert accept.task_location == Point(4.0, 0)
    assert len(declined) == 2


def test_nearest_tie_breaks_by_auctioneer_name():
    policy = make_policy("nearest", EXCAVATORS, HAULERS)
    wins = wins_at((7.0, "excavator_2"), (7.0, "excavator_1"))
    accept, _ = policy.resolve_wins(idle_hauler(pose=Point(0, 0)), wins)
    assert accept.auctioneer == "excavator_1"


def test_single_win_accepted():
    policy = make_policy("fcfs", EXCAVATORS, HAULERS)
    wins = wins_at((5.0, "excavator_1"))
    accept, declined = policy.resolve_wins(idle_hauler(pose=Point(0, 0)), wins)
    assert accept is wins[0]
    assert declined == []


def test_busy_robot_declines_everything():
    policy = make_policy("nearest", EXCAVATORS, HAULERS)
    busy = RobotState("hauler_1", RobotKind.HAULER, Point(0, 0),
                      HaulerActivity.TO_PLANT)
    wins = wins_at((5.0, "excavator_1"), (2.0, "excavator_2"))
    accept, declined = policy.resolve_wins(busy, wins)
    assert accept is None
    assert declined == wins


# --- whole-run policy invariants, straight from the event logs --------------


def _announced_task_types(records):
    types = {}
    for r in records:
        if r["type"] == "msg" and r["variant"] == "announcement":
            types[(r["auctioneer"], tuple(r["loc"]))] = r["task_type"]
    return types


def test_fcfs_serializes_finite_bids_per_task_type():
    result = tiny_run(policy="fcfs", seed=23, n_sites=3, n_minerals=6)
    assert result.status.value == "completed"
    task_types = _announced_task_types(result.log.records)
    per_tick: dict[tuple, set] = {}
    for r in result.log.records:
        if (r["type"] == "msg" and r["variant"] == "bid"
                and math.isfinite(r["utility"])):
            key = (r["auctioneer"], tuple(r["loc"]))
            per_tick.setdefault((r["tick"], task_types[key]), set()).add(key)
    for (tick, task_type), keys in per_tick.items():
        assert len(keys) == 1, (
            f"tick {tick}: finite {task_type} bids flowed into {keys}")


def test_coalition_paired_hauler_loads_only_at_parent_sites():
    result = tiny_run(policy="coalition", seed=31, n_excavators=2,
                      n_haulers=4, n_sites=3, n_minerals=6)
    assert result.status.value == "completed"
    pairs = dict(result.simulation.ctx.policy.pairs)
    parents = {hauler: excavator for excavator, hauler in pairs.items()}
    assert pairs, "expected at least one coalition pair"
    for r in result.log.records:
        if r["type"] == "load" and r["hauler"] in parents:
            assert r["excavator"] == parents[r["hauler"]]


def test_nearest_accept_is_never_farther_than_same_tick_decline():
    # one slow excavator, three sites: excavation auctions pile up while it
    # works, so on freeing it wins several at once and declines all but one
    from isrusim import TimingConfig
    result = tiny_run(policy="nearest", seed=17, n_sites=3, n_minerals=3,
                      n_excavators=1, timing=TimingConfig(dig_duration=80))
    assert result.status.value == "completed"
    records = result.log.records
    last_bid: dict[tuple, float] = {}
    acks: dict[tuple, list] = {}
    for r in records:
        if r["type"] != "msg":
            continue
        if r["variant"] == "bid":
            last_bid[(r["bidder"], r["auctioneer"], tuple(r["loc"]))] = r["utility"]
        elif r["variant"] == "ack":
            acks.setdefault((r["tick"], r["auction_winner"]), []).append(r)
    compared = 0
    for (tick, robot), batch in acks.items():
        accepted = [r for r in batch if r["verdict"] == "accepted"]
        declined = [r for r in batch if r["verdict"] == "declined"]
        if not accepted or not declined:
            continue
        def bid_distance(r):
            return -last_bid[(robot, r["auctioneer"], tuple(r["loc"]))]
        for d in declined:
            compared += 1
            assert bid_distance(accepted[0]) <= bid_distance(d) + 1e-9
    assert compared > 0, "scenario produced no simultaneous accept+decline"


def test_all_policies_reach_same_terminal_state():
    for seed in (3, 8):
        terminals = set()
        for policy in ("fcfs", "coalition", "nearest"):
            result = tiny_run(policy=policy, seed=seed)
            world = result.simulation.ctx.world
            terminals.add((sum(1 for s in world.sites if s.discovered),
                           world.minerals_at_plant))
        assert len(terminals) == 1
