import itertools
import math
import random

import pytest

from conftest import tiny_config

from isrusim import (
    Ack,
    Announcement,
    Bid,
    BroadcastBus,
    Close,
    EventLog,
    Point,
    RobotKind,
    RobotState,
    Simulation,
    TaskType,
    WinnerDecl,
    evaluate_self_utility,
    open_auction,
    select_winner,
    submit_bid,
)
from isrusim.agents import (ExcavatorActivity, ExcavatorController,
                            HaulerActivity, HaulerController)
from isrusim.auction import CAPABLE_TASK, NEG_INF, handle_ack, record_bid
from isrusim.pathing import estimate_path

LOC = Point(30.0, 40.0)
OTHER = Point(60.0, 20.0)


def new_auction(book=None, auctioneer="scout_1", loc=LOC, tick=0, bus=None):
    book = {} if book is None else book
    bus = bus or BroadcastBus(EventLog())
    return open_auction(book, auctioneer, TaskType.EXCAVATE, loc, tick, bus), book, bus


def test_open_publishes_announcement():
    log = EventLog()
    bus = BroadcastBus(log)
    bus.subscribe("excavator_1", TaskType.EXCAVATE)
    open_auction({}, "scout_1", TaskType.EXCAVATE, LOC, tick=4, bus=bus)
    assert bus.deliver(5) == {
        "excavator_1": [Announcement("scout_1", TaskType.EXCAVATE, LOC)]}
    assert [r["variant"] for r in log.records] == ["announcement"]


def test_auctioneer_can_hold_multiple_auctions():
    bus = BroadcastBus(EventLog())
    book = {}
    open_auction(book, "scout_1", TaskType.EXCAVATE, LOC, 0, bus)
    open_auction(book, "scout_1", TaskType.EXCAVATE, OTHER, 0, bus)
    assert len(book) == 2


def test_duplicate_key_rejected():
    auction, book, bus = new_auction()
    with pytest.raises(ValueError):
        open_auction(book, "scout_1", TaskType.EXCAVATE, LOC, 1, bus)


def test_key_reusable_after_close():
    auction, book, bus = new_auction()
    record_bid(auction, Bid("scout_1", "excavator_1", LOC, -1.0))
    select_winner(auction, 3, bus)
    handle_ack(auction, Ack("scout_1", "excavator_1", LOC, True), 5, bus)
    del book[auction.key]
    open_auction(book, "scout_1", TaskType.EXCAVATE, LOC, 6, bus)  # no raise


def test_utility_is_negative_path_length():
    robot = RobotState("hauler_1", RobotKind.HAULER, Point(50, 50),
                       HaulerActivity.IDLE)
    assert evaluate_self_utility(robot, Point(53, 54)) == -5.0


def test_busy_robot_bids_negative_infinity():
    robot = RobotState("hauler_1", RobotKind.HAULER, Point(50, 50),
                       HaulerActivity.TO_PLANT)
    assert evaluate_self_utility(robot, Point(53, 54)) == NEG_INF


def test_utility_zero_at_task_location():
    robot = RobotState("excavator_1", RobotKind.EXCAVATOR, LOC,
                       ExcavatorActivity.IDLE)
    assert evaluate_self_utility(robot, LOC) == 0.0


def test_utility_identity_randomized():
    rng = random.Random(99)
    for _ in range(1000):
        pose = Point(rng.uniform(0, 100), rng.uniform(0, 100))
        task = Point(rng.uniform(0, 100), rng.uniform(0, 100))
        idle = RobotState("excavator_1", RobotKind.EXCAVATOR, pose,
                          ExcavatorActivity.IDLE)
        busy = RobotState("excavator_2", RobotKind.EXCAVATOR, pose,
                          ExcavatorActivity.DIGGING)
        assert evaluate_self_utility(idle, task) == \
            -estimate_path(pose, task).length
        assert evaluate_self_utility(busy, task) == NEG_INF


def test_submit_bid_publishes_wire_format():
    bus = BroadcastBus(EventLog())
    robot = RobotState("excavator_2", RobotKind.EXCAVATOR, Point(10, 10),
                       ExcavatorActivity.IDLE)
    submit_bid(robot, "scout_1", LOC, -12.5, 3, bus)
    assert bus.deliver(4) == {
        "scout_1": [Bid("scout_1", "excavator_2", LOC, -12.5)]}


def test_malformed_bid_rejected():
    """submit_bid, the one place a bid is made, rejects a positive or NaN
    utility and lets the -inf busy sentinel through."""
    log = EventLog()
    bus = BroadcastBus(log)
    robot = RobotState("excavator_1", RobotKind.EXCAVATOR, Point(0, 0),
                       ExcavatorActivity.DIGGING)
    for utility in (3.0, math.nan):
        with pytest.raises(ValueError):
            submit_bid(robot, "scout_1", LOC, utility, 0, bus)
    assert submit_bid(robot, "scout_1", LOC, NEG_INF, 0, bus).utility == NEG_INF
    assert [r["utility"] for r in log.records] == [NEG_INF]


def test_incapable_kinds_never_construct_bids():
    """Every controller subscribes only to its kind's capable task type and
    scouts to none, so only capable robots ever see an announcement to bid
    on; a controller built for another kind is refused."""
    for policy in ("fcfs", "coalition", "nearest"):
        sim = Simulation(tiny_config(policy=policy))
        bus, controllers = sim.ctx.bus, sim.ctx.controllers
        for task_type in TaskType:
            bus.publish(Announcement("scout_1", task_type, LOC), 0)
            assert {controllers[name].state.kind for name in bus.deliver(1)} == {
                kind for kind, task in CAPABLE_TASK.items() if task is task_type}
    hauler = RobotState("hauler_9", RobotKind.HAULER, Point(0, 0),
                        HaulerActivity.IDLE)
    scout = RobotState("scout_9", RobotKind.SCOUT, Point(0, 0), None)
    for controller, state in ((ExcavatorController, hauler),
                              (HaulerController, scout)):
        with pytest.raises(ValueError):
            controller(state, sim.ctx)


def test_winner_is_max_finite_utility():
    auction, _, bus = new_auction()
    for bidder, utility in [("excavator_1", -10.0), ("excavator_3", -4.0),
                            ("excavator_2", NEG_INF)]:
        record_bid(auction, Bid("scout_1", bidder, LOC, utility))
    decl = select_winner(auction, 3, bus)
    assert decl.winner == auction.winner == "excavator_3"


def test_all_busy_bids_reannounce():
    log = EventLog()
    auction, _, bus = new_auction(bus=BroadcastBus(log))
    record_bid(auction, Bid("scout_1", "excavator_1", LOC, NEG_INF))
    record_bid(auction, Bid("scout_1", "excavator_2", LOC, NEG_INF))
    assert select_winner(auction, 3, bus) is None
    assert auction.rounds == 2
    assert auction.winner is None
    # the re-announcement went out on the bus
    assert [r["variant"] for r in log.records if r["tick"] == 3] == ["announcement"]


def test_selection_refused_while_awaiting_ack():
    auction, _, bus = new_auction()
    record_bid(auction, Bid("scout_1", "excavator_1", LOC, -2.0))
    select_winner(auction, 3, bus)
    with pytest.raises(ValueError):
        select_winner(auction, 6, bus)


def test_tie_breaks_to_lexicographically_smallest():
    auction, _, bus = new_auction()
    record_bid(auction, Bid("scout_1", "excavator_2", LOC, -7.0))
    record_bid(auction, Bid("scout_1", "excavator_1", LOC, -7.0))
    assert select_winner(auction, 3, bus).winner == "excavator_1"


def test_argmax_invariant_under_positive_scaling():
    rng = random.Random(5)
    for _ in range(200):
        bids = {f"excavator_{i}": -rng.uniform(0.1, 50.0) for i in range(1, 5)}
        scale = rng.uniform(0.01, 100.0)
        base, _, bus_a = new_auction()
        scaled, _, bus_b = new_auction(auctioneer="scout_2")
        for bidder, u in bids.items():
            record_bid(base, Bid("scout_1", bidder, LOC, u))
            record_bid(scaled, Bid("scout_2", bidder, LOC, u * scale))
        assert select_winner(base, 3, bus_a).winner == \
            select_winner(scaled, 3, bus_b).winner


def test_accepted_ack_closes_auction():
    auction, _, bus = new_auction()
    record_bid(auction, Bid("scout_1", "excavator_1", LOC, -3.0))
    select_winner(auction, 3, bus)
    msg = handle_ack(auction, Ack("scout_1", "excavator_1", LOC, True), 5, bus)
    assert isinstance(msg, Close)
    assert msg.allocated_to == "excavator_1"


def test_declined_ack_offers_next_highest():
    auction, _, bus = new_auction()
    record_bid(auction, Bid("scout_1", "excavator_1", LOC, -2.0))
    record_bid(auction, Bid("scout_1", "excavator_2", LOC, -8.0))
    assert select_winner(auction, 3, bus).winner == "excavator_1"
    msg = handle_ack(auction, Ack("scout_1", "excavator_1", LOC, False), 5, bus)
    assert isinstance(msg, WinnerDecl)
    assert msg.winner == auction.winner == "excavator_2"


def test_all_declined_reannounces_with_cleared_offers():
    auction, _, bus = new_auction()
    record_bid(auction, Bid("scout_1", "excavator_1", LOC, -2.0))
    select_winner(auction, 3, bus)
    msg = handle_ack(auction, Ack("scout_1", "excavator_1", LOC, False), 5, bus)
    assert msg is None
    assert auction.winner is None
    assert auction.offered_to == []  # a freed-up robot may win the next round
    assert auction.rounds == 2


def test_ack_from_non_winner_discarded():
    auction, _, bus = new_auction()
    record_bid(auction, Bid("scout_1", "excavator_1", LOC, -2.0))
    # no winner declared yet: nobody's ack counts
    assert handle_ack(auction, Ack("scout_1", "excavator_1", LOC, True), 2, bus) is None
    select_winner(auction, 3, bus)
    assert handle_ack(auction, Ack("scout_1", "excavator_9", LOC, True), 5, bus) is None
    assert auction.winner == "excavator_1"


def test_late_bids_count_toward_next_round():
    auction, _, bus = new_auction()
    record_bid(auction, Bid("scout_1", "excavator_1", LOC, -2.0))
    select_winner(auction, 3, bus)
    # arrives after the declaration: held for the next round
    record_bid(auction, Bid("scout_1", "excavator_2", LOC, -1.0))
    assert "excavator_2" not in auction.bids
    handle_ack(auction, Ack("scout_1", "excavator_1", LOC, False), 5, bus)
    # excavator_1 declined and no other bid was in the round: re-announce
    assert auction.winner is None
    assert auction.bids == {"excavator_2": -1.0}


def _exhaustive_winner_sequence(utilities: dict[str, float],
                                verdicts: dict[str, bool]):
    """Drive one auction round; return (winner order, outcome)."""
    auction, _, bus = new_auction()
    for bidder, utility in utilities.items():
        record_bid(auction, Bid("scout_1", bidder, LOC, utility))
    sequence = []
    tick = 3
    decl = select_winner(auction, tick, bus)
    while decl is not None:
        sequence.append(decl.winner)
        accepted = verdicts[decl.winner]
        result = handle_ack(
            auction, Ack("scout_1", decl.winner, LOC, accepted), tick + 2, bus)
        if accepted:
            return sequence, ("closed", result.allocated_to)
        decl = result if isinstance(result, WinnerDecl) else None
        tick += 2
    return sequence, ("reannounced", None)


def test_exhaustive_state_machine_up_to_three_bidders():
    """Every bid profile and verdict pattern with at most 3 bidders:
    winners come in strictly descending utility (lexicographic on ties),
    busy sentinels are never offered, the first accept closes to that robot,
    and a fully declined or empty round re-announces."""
    names = ["excavator_1", "excavator_2", "excavator_3"]
    utility_domain = [NEG_INF, -9.0, -5.0, -5.0, -1.0]
    for n_bidders in range(0, 4):
        for utilities in itertools.product(utility_domain, repeat=n_bidders):
            profile = dict(zip(names, utilities))
            finite = [b for b, u in profile.items() if math.isfinite(u)]
            for verdict_bits in itertools.product([True, False],
                                                  repeat=len(finite)):
                verdicts = dict(zip(sorted(
                    finite, key=lambda b: (-profile[b], b)), verdict_bits))
                sequence, outcome = _exhaustive_winner_sequence(profile, verdicts)
                expected_order = sorted(finite, key=lambda b: (-profile[b], b))
                n_accept = next((i for i, b in enumerate(expected_order)
                                 if verdicts[b]), None)
                if n_accept is None:
                    assert sequence == expected_order
                    assert outcome == ("reannounced", None)
                else:
                    assert sequence == expected_order[:n_accept + 1]
                    assert outcome == ("closed", expected_order[n_accept])
