import itertools
import math
import random

import pytest

from conftest import ack_of, auction_of, crowded_config, tiny_config

from isrusim import (
    BroadcastBus,
    EventLog,
    Point,
    RobotKind,
    RobotState,
    RunStatus,
    ScenarioConfig,
    Simulation,
    TaskType,
    evaluate_self_utility,
    open_auction,
    select_winner,
)
from isrusim.agents import (ExcavatorActivity, ExcavatorController,
                            HaulerActivity, HaulerController)
from isrusim.auction import CAPABLE_TASK, NEG_INF, handle_ack
from isrusim.events import record_auction_key
from isrusim.pathing import estimate_path

LOC = Point(30.0, 40.0)
OTHER = Point(60.0, 20.0)


def new_auction(book=None, auctioneer="scout_1", loc=LOC, tick=0, bus=None):
    """Open an auction at `tick` and file its announcement on the board."""
    book = {} if book is None else book
    bus = bus or BroadcastBus(EventLog(), 1)
    auction = open_auction(book, auctioneer, TaskType.EXCAVATE, loc, tick, bus)
    bus.deliver(tick + 1)
    return auction, book, bus


def answer(auction, bidder, utility, tick=1):
    """`bidder` bids `utility` at `tick` in the auction's current round,
    as `RobotController._place_bids` does: in its own slot of the auction's
    answers."""
    auction.answers[bidder] = (auction.rounds, utility, tick)


def test_open_publishes_announcement():
    """The announcement is logged and, the next tick, filed on the board
    its subscriber reads, which steps it with an empty inbox."""
    log = EventLog()
    bus = BroadcastBus(log, 1)
    board = bus.subscribe("excavator_1", TaskType.EXCAVATE, 1)
    auction = open_auction({}, "scout_1", TaskType.EXCAVATE, LOC, tick=4,
                           bus=bus)
    [record] = log.records
    assert record == {"type": "msg", "tick": 4, "seq": 0,
                      "variant": "announcement", "auctioneer": "scout_1",
                      "loc": [LOC.x, LOC.y], "task_type": "excavate",
                      "status": "open"}
    assert record["loc"] is auction.loc
    assert auction.rounds == 0 and board == {}
    assert bus.deliver(5) == {"excavator_1": []}
    [(key, filed)] = board.items()
    assert key == ("scout_1", LOC) == record_auction_key(record)
    assert filed is auction and (auction.first_tick, auction.rounds) == (4, 1)


def test_auctioneer_can_hold_multiple_auctions():
    bus = BroadcastBus(EventLog(), 1)
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
    answer(auction, "excavator_1", -1.0)
    decl = select_winner(auction, 3, bus)
    handle_ack(auction, bus.ack(decl, True, 4), 5, bus)
    del book["scout_1", LOC]
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


def test_bid_publishes_wire_format():
    log = EventLog()
    bus = BroadcastBus(log, 1)
    auction = auction_of("scout_1", TaskType.EXCAVATE, LOC)
    record = bus.bid(auction, "excavator_2", -12.5, 3)
    assert record == {"type": "msg", "tick": 3, "seq": 0, "variant": "bid",
                      "auctioneer": "scout_1", "loc": [LOC.x, LOC.y],
                      "bidder": "excavator_2", "utility": -12.5}
    assert record["loc"] is auction.loc
    assert log.records == [record]
    assert bus.deliver(4) == {}  # a bid goes to no inbox


def test_malformed_bid_rejected():
    """The bus's `bid`, the one place a bid is made, rejects a positive or
    NaN utility before it logs anything, and lets the -inf busy sentinel
    through."""
    log = EventLog()
    bus = BroadcastBus(log, 1)
    auction = auction_of("scout_1", TaskType.EXCAVATE, LOC)
    for utility in (3.0, math.nan):
        with pytest.raises(ValueError, match="excavator_1 bid utility"):
            bus.bid(auction, "excavator_1", utility, 0)
    assert bus.messages_published == 0
    assert bus.bid(auction, "excavator_1", NEG_INF, 0)["utility"] == NEG_INF
    assert [r["utility"] for r in log.records] == [NEG_INF]


def test_incapable_kinds_never_construct_bids():
    """Every controller subscribes only to its kind's capable task type and
    scouts to none, so only capable robots ever see an announcement to bid
    on; a controller built for another kind is refused."""
    for policy in ("fcfs", "coalition", "nearest"):
        sim = Simulation(tiny_config(policy=policy))
        bus, controllers = sim.ctx.bus, sim.ctx.controllers
        for task_type in TaskType:
            auction = auction_of("scout_1", task_type, LOC)
            bus.post(auction, 0)
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
        answer(auction, bidder, utility)
    decl = select_winner(auction, 3, bus)
    assert decl["winner"] == auction.winner == "excavator_3"


def test_all_busy_bids_reannounce():
    log = EventLog()
    auction, _, bus = new_auction(bus=BroadcastBus(log, 1))
    answer(auction, "excavator_1", NEG_INF)
    answer(auction, "excavator_2", NEG_INF)
    assert select_winner(auction, 3, bus) is None
    assert auction.winner is None
    # the re-announcement went out on the bus, and the board files it as
    # round 2 the next tick
    assert [r["variant"] for r in log.records if r["tick"] == 3] == ["announcement"]
    assert auction.rounds == 1
    bus.deliver(4)
    assert auction.rounds == 2


def test_selection_refused_while_awaiting_ack():
    auction, _, bus = new_auction()
    answer(auction, "excavator_1", -2.0)
    select_winner(auction, 3, bus)
    with pytest.raises(ValueError):
        select_winner(auction, 6, bus)


def test_tie_breaks_to_lexicographically_smallest():
    auction, _, bus = new_auction()
    answer(auction, "excavator_2", -7.0)
    answer(auction, "excavator_1", -7.0)
    assert select_winner(auction, 3, bus)["winner"] == "excavator_1"


def test_argmax_invariant_under_positive_scaling():
    rng = random.Random(5)
    for _ in range(200):
        bids = {f"excavator_{i}": -rng.uniform(0.1, 50.0) for i in range(1, 5)}
        scale = rng.uniform(0.01, 100.0)
        base, _, bus_a = new_auction()
        scaled, _, bus_b = new_auction(auctioneer="scout_2")
        for bidder, u in bids.items():
            answer(base, bidder, u)
            answer(scaled, bidder, u * scale)
        assert select_winner(base, 3, bus_a)["winner"] == \
            select_winner(scaled, 3, bus_b)["winner"]


def test_accepted_ack_closes_auction():
    auction, _, bus = new_auction()
    answer(auction, "excavator_1", -3.0)
    decl = select_winner(auction, 3, bus)
    msg = handle_ack(auction, bus.ack(decl, True, 4), 5, bus)
    assert msg["variant"] == "close"
    assert msg["allocated_to"] == "excavator_1"


def test_declined_ack_offers_next_highest():
    auction, _, bus = new_auction()
    answer(auction, "excavator_1", -2.0)
    answer(auction, "excavator_2", -8.0)
    decl = select_winner(auction, 3, bus)
    assert decl["winner"] == "excavator_1"
    msg = handle_ack(auction, bus.ack(decl, False, 4), 5, bus)
    assert msg["variant"] == "winner"
    assert msg["winner"] == auction.winner == "excavator_2"


def test_decliners_bid_leaves_the_round():
    auction, _, bus = new_auction()
    answer(auction, "excavator_1", -2.0)
    answer(auction, "excavator_2", -8.0)
    decl = select_winner(auction, 3, bus)
    decl = handle_ack(auction, bus.ack(decl, False, 4), 5, bus)
    assert auction.bids == {"excavator_2": -8.0}
    msg = handle_ack(auction, bus.ack(decl, False, 6), 7, bus)
    # every bidder declined: re-announce, and a freed-up robot may win the
    # next round
    assert msg is None
    assert auction.winner is None
    assert auction.bids == {}
    bus.deliver(8)
    assert auction.rounds == 2


def test_ack_from_non_winner_discarded():
    auction, _, bus = new_auction()
    answer(auction, "excavator_1", -2.0)
    # no winner declared yet: nobody's ack counts
    assert handle_ack(auction, ack_of("scout_1", "excavator_1", LOC, True), 2,
                      bus) is None
    select_winner(auction, 3, bus)
    assert handle_ack(auction, ack_of("scout_1", "excavator_9", LOC, True), 5,
                      bus) is None
    assert auction.winner == "excavator_1"


def test_late_bid_is_dropped():
    auction, _, bus = new_auction()
    answer(auction, "excavator_1", -2.0)
    decl = select_winner(auction, 3, bus)
    # made after the declaration: the round's bids are fixed
    answer(auction, "excavator_2", -1.0, tick=4)
    answer(auction, "excavator_1", -9.0, tick=4)
    assert auction.bids == {"excavator_1": -2.0}
    handle_ack(auction, bus.ack(decl, False, 4), 5, bus)
    # excavator_1 declined and no other bid was in the round: re-announce,
    # with no bid carried into the new round
    assert auction.winner is None
    assert auction.bids == {}


def test_a_bid_made_at_the_selection_tick_is_not_read():
    """Robots step before the timers fire, so a bid made at the selection
    tick would have reached the auctioneer only after it."""
    auction, _, bus = new_auction()
    answer(auction, "excavator_1", -5.0, tick=2)
    answer(auction, "excavator_2", -1.0, tick=3)
    assert select_winner(auction, 3, bus)["winner"] == "excavator_1"
    assert auction.bids == {"excavator_1": -5.0}


def test_an_answer_from_the_previous_round_is_not_read():
    auction, _, bus = new_auction()
    answer(auction, "excavator_1", NEG_INF)
    answer(auction, "excavator_3", NEG_INF)
    assert select_winner(auction, 3, bus) is None  # re-announced
    bus.deliver(4)
    answer(auction, "excavator_2", -4.0, tick=4)
    # excavator_3 answered round 1 only, with a bid better than round 2's
    auction.answers["excavator_3"] = (1, -1.0, 2)
    assert select_winner(auction, 6, bus)["winner"] == "excavator_2"
    assert auction.bids == {"excavator_2": -4.0}


@pytest.mark.parametrize("replaced", [3, 4])
def test_a_sentinel_replaced_at_or_after_the_first_declaration_is_not_read(
        replaced):
    """A busy robot that goes idle at or after the round's first
    declaration is not offered the task when the winner declines."""
    auction, _, bus = new_auction()
    answer(auction, "excavator_1", -6.0)
    answer(auction, "excavator_2", NEG_INF)
    if replaced == 3:
        answer(auction, "excavator_2", -1.0, tick=3)
    decl = select_winner(auction, 3, bus)
    assert decl["winner"] == "excavator_1"
    if replaced == 4:
        answer(auction, "excavator_2", -1.0, tick=4)
    assert auction.bids == ({"excavator_1": -6.0} if replaced == 3 else
                            {"excavator_1": -6.0, "excavator_2": NEG_INF})
    # excavator_1 declines, and the round has no other bid: re-announced
    assert handle_ack(auction, bus.ack(decl, False, 4), 5, bus) is None


def test_selection_without_a_board_entry_raises():
    """The bus files an announcement the tick after it is posted, before
    any bidding window closes; an auction not on its board yet, with no
    round filed, is a fault of the program, not an auction with no bids."""
    bus = BroadcastBus(EventLog(), 1)
    auction = open_auction({}, "scout_1", TaskType.EXCAVATE, LOC, 0, bus)
    with pytest.raises(ValueError, match="a round filed"):
        select_winner(auction, 3, bus)
    assert auction.winner is None and bus.messages_published == 1


def argmax_bidder(bids: dict[str, float]) -> str | None:
    """The oracle: the names in sorted order, each finite bid greater than
    the best so far taking its place, so equal utilities (0.0 and -0.0
    among them) go to the smallest name."""
    best, best_utility = None, NEG_INF
    for name in sorted(bids):
        if math.isfinite(bids[name]) and bids[name] > best_utility:
            best, best_utility = name, bids[name]
    return best


def test_winner_and_decline_chain_match_the_argmax_oracle():
    """Random answer sets, in random slot order, mixing equal utilities,
    0.0 with -0.0, busy sentinels, answers of the previous round and bids
    made at or after the selection tick: while a winner is declared,
    `auction.bids` holds exactly the round's bids made before the tick
    (signs of zero kept) less the decliners'; `select_winner` declares the
    oracle's winner, and every bidder declining in turn offers the task to
    the next by utility, then by name, until no finite bid is left and the
    auction re-announces."""
    rng = random.Random(36)
    names = [f"excavator_{i}" for i in range(1, 13)]  # "excavator_10" < "_2"
    pool = [0.0, -0.0, -2.5, -2.5, -7.0, NEG_INF, NEG_INF]
    for _ in range(2000):
        log = EventLog()
        auction, _, bus = new_auction(bus=BroadcastBus(log, 1))
        assert select_winner(auction, 3, bus) is None  # nobody bid
        bus.deliver(4)
        assert auction.rounds == 2
        tick = 9
        expected = {}
        for bidder in rng.sample(names, rng.randint(0, 8)):
            utility = rng.choice(pool + [-rng.uniform(0.0, 3.0)])
            answered, made = rng.choice((1, 2, 2, 2)), rng.randint(4, tick + 1)
            auction.answers[bidder] = (answered, utility, made)
            if answered == 2 and made < tick:
                expected[bidder] = utility
        decl = select_winner(auction, tick, bus)
        while (best := argmax_bidder(expected)) is not None:
            assert repr(sorted(auction.bids.items())) == repr(
                sorted(expected.items()))
            assert decl["winner"] == auction.winner == best
            del expected[best]
            tick += 2
            decl = handle_ack(auction, bus.ack(decl, False, tick - 1), tick, bus)
        assert decl is None and auction.winner is None and auction.bids == {}
        assert log.records[-1]["variant"] == "announcement"
        assert log.records[-1]["tick"] == tick


def _exhaustive_winner_sequence(utilities: dict[str, float],
                                verdicts: dict[str, bool]):
    """Drive one auction round; return (winner order, outcome)."""
    auction, _, bus = new_auction()
    for bidder, utility in utilities.items():
        answer(auction, bidder, utility)
    sequence = []
    tick = 3
    decl = select_winner(auction, tick, bus)
    while decl is not None:
        sequence.append(decl["winner"])
        accepted = verdicts[decl["winner"]]
        result = handle_ack(auction, bus.ack(decl, accepted, tick + 1),
                            tick + 2, bus)
        if accepted:
            return sequence, ("closed", result["allocated_to"])
        decl = result  # the next winner record, or None: re-announced
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


def rebid_misses(records) -> tuple[int, list]:
    """The re-announcements in a log, and those a bidder missed: each robot
    that bid in an auction generation (first announcement to close) by a
    re-announcement at tick t must bid in it again at t + 1.  A bid is
    filed under the generation of its key logged last, so a bid that races
    the close, logged with it or after it, belongs to the closed one."""
    generations, current = [], {}
    for record in records:
        if record["type"] != "msg":
            continue
        key, variant, tick = (record_auction_key(record), record["variant"],
                              record["tick"])
        generation = current.get(key)
        if variant == "announcement":
            if generation is None or generation["closed"]:
                current[key] = generation = {"closed": False, "bids": [],
                                             "reannounced": []}
                generations.append(generation)
            else:
                generation["reannounced"].append(tick)
        elif variant == "bid":
            generation["bids"].append((tick, record["bidder"]))
        elif variant == "close":
            generation["closed"] = True
    reannounced, misses = 0, []
    for generation in generations:
        for t in generation["reannounced"]:
            reannounced += 1
            due = {bidder for tick, bidder in generation["bids"] if tick <= t}
            again = {bidder for tick, bidder in generation["bids"]
                     if tick == t + 1}
            if due - again:
                misses.append((t, sorted(due - again)))
    return reannounced, misses


REBID_CASES = {f"crowded/{policy}/bid_window{window}/win{latency}":
               crowded_config(policy=policy, bid_window=window,
                              win_resolution_window=latency)
               for policy in ("fcfs", "coalition", "nearest")
               for window in (2, 3, 5) for latency in (1, 3)}
REBID_CASES.update((f"reference/nearest/{seed}",
                    ScenarioConfig(policy="nearest", seed=seed))
                   for seed in (6, 14))


@pytest.mark.parametrize("name", REBID_CASES)
def test_every_bidder_bids_again_the_tick_after_a_reannouncement(run_logs,
                                                                 name):
    """Every robot that bid in an auction answers each of its
    re-announcements at the tick the bus files it, so its bid is on the
    board before the next winner selection, at least `bid_window` (2)
    ticks on: winner selection, which reads only the answers of the
    current round, never misses a bidder of the round before."""
    records = run_logs.log(REBID_CASES[name]).records
    assert records[-1]["status"] == RunStatus.COMPLETED.value
    reannounced, misses = rebid_misses(records)
    assert reannounced > 0
    assert misses == []
