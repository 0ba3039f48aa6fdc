from collections import Counter
import gc
from types import FrameType

import pytest

from cases import POLICIES, crowded_config
from conftest import ack_of, auction_of, mail_from_log, win_record

from isrusim import (
    BroadcastBus,
    EventLog,
    Point,
    RunStatus,
    ScenarioConfig,
    Simulation,
    TaskType,
)
from isrusim.agents import RobotController
from isrusim.auction import NEG_INF
from isrusim import events
from isrusim.events import MSG_FIELDS, RECORD_FIELDS, record_auction_key


LOC = Point(30.0, 40.0)
OTHER = Point(12.0, 5.0)


# who bids on which task type; scouts bid on nothing
FLEET = {"scout_1": None, "excavator_1": TaskType.EXCAVATE,
         "excavator_2": TaskType.EXCAVATE, "hauler_1": TaskType.TRANSPORT,
         "hauler_2": TaskType.TRANSPORT}
EXCAVATORS = {"excavator_1", "excavator_2"}
HAULERS = {"hauler_1", "hauler_2"}


def fleet_bus(log=None):
    """A bus whose subscribers each bid in their oldest open auction."""
    bus = BroadcastBus(EventLog() if log is None else log, 1)
    for robot, task_type in FLEET.items():
        if task_type is not None:
            bus.subscribe(robot, task_type, 1)
    return bus


def board_rows(board):
    """A board's auctions, oldest first: key, first tick and rounds."""
    return [(key, auction.first_tick, auction.rounds)
            for key, auction in board.items()]


def excavation(auctioneer="scout_1", declared=None, location=LOC, tick=0):
    return auction_of(auctioneer, TaskType.EXCAVATE, location, declared, tick)


# how a test sends a message of `auction` through `bus` at `tick`: `post`
# sends an announcement while the auction has no winner, else its close
post, declare = BroadcastBus.post, BroadcastBus.declare


def bid_of(bidder, utility):
    return lambda bus, auction, tick: bus.bid(auction, bidder, utility, tick)


def ack_from(accepted):
    """The verdict of `auction.winner` on the declaration of its win."""
    return lambda bus, auction, tick: bus.ack(win_record(auction), accepted,
                                              tick)


@pytest.mark.parametrize("auctioneer, task_type, declared, make, recipients", [
    ("scout_1", TaskType.EXCAVATE, None, post, EXCAVATORS),
    ("excavator_1", TaskType.TRANSPORT, None, post, HAULERS),
    ("scout_1", TaskType.EXCAVATE, None, bid_of("excavator_1", -2.0), set()),
    ("excavator_2", TaskType.TRANSPORT, None, bid_of("hauler_1", NEG_INF),
     set()),
    ("scout_1", TaskType.EXCAVATE, "excavator_2", declare, {"excavator_2"}),
    ("excavator_1", TaskType.TRANSPORT, "hauler_2", ack_from(False),
     {"excavator_1"}),
    ("scout_1", TaskType.EXCAVATE, "excavator_1", post, EXCAVATORS),
    ("excavator_2", TaskType.TRANSPORT, "hauler_1", post, HAULERS),
], ids=["announce-excavate", "announce-transport", "bid", "busy-bid", "winner",
        "ack", "close-excavate", "close-transport"])
def test_publish_delivers_to_every_recipient_next_tick(
        auctioneer, task_type, declared, make, recipients):
    """Addressed mail: each recipient's inbox holds the logged record
    itself.  A bid enters no inbox: its auctioneer reads it off the board.
    An announcement or close enters no inbox either: its auction is posted,
    the next tick files the auction on its task type's board, and the
    subscribers, whose oldest open auction it changes, get an empty
    inbox."""
    log = EventLog()
    bus = fleet_bus(log)
    closing = make is post and declared is not None
    auction = auction_of(auctioneer, task_type, LOC, tick=8 if closing else 10)
    if closing:  # the auction it closes
        bus.post(auction, 8)
        bus.deliver(9)
    auction.winner = declared
    record = make(bus, auction, 10)
    assert log.records[-1] is record
    mail = bus.deliver(11)
    assert set(mail) == recipients
    if make is post:
        assert record["variant"] == ("close" if closing else "announcement")
        assert all(inbox == [] for inbox in mail.values())
        board = bus.boards[task_type.value]
        assert board_rows(board) == ([] if closing
                                     else [((auctioneer, LOC), 10, 1)])
        assert all(filed is auction for filed in board.values())
    else:
        for robot in recipients:
            assert len(mail[robot]) == 1 and mail[robot][0] is record


@pytest.mark.parametrize("latency", [1, 3])
def test_a_win_reaches_its_winner_win_latency_ticks_after_it_is_declared(latency):
    """A winner declaration published at t is in its winner's inbox at
    t + `win_latency` and at no other tick, in publish order with the mail
    that arrives with it; acks published with it arrive at t + 1 whatever
    the latency."""
    bus = BroadcastBus(EventLog(), latency)
    declared = bus.declare(excavation(declared="excavator_1"), 10)
    answered = ack_of("scout_1", "excavator_2", LOC, False, bus, 10)
    acked = ack_of("excavator_2", "hauler_2", OTHER, True, bus, 10)
    mail = {}
    for tick in range(11, 12 + latency):
        if tick == 10 + latency:  # published the tick before the win arrives
            late = ack_of("excavator_1", "hauler_1", OTHER, False, bus,
                          tick - 1)
        mail[tick] = bus.deliver(tick)
    assert mail[11]["scout_1"] == [answered] and mail[11]["excavator_2"] == [acked]
    assert [tick for tick, inboxes in mail.items()
            if "excavator_1" in inboxes] == [10 + latency]
    inbox = mail[10 + latency]["excavator_1"]
    assert inbox == [declared, late] and inbox[0] is declared
    assert sum(len(inboxes) for inboxes in mail.values()) == 3


def test_not_delivered_same_tick():
    log = EventLog()
    bus = fleet_bus(log)
    auction = excavation(tick=10)
    bus.post(auction, tick=10)
    ack_of("scout_1", "excavator_1", LOC, True, bus, 10)
    assert bus.deliver(10) == {}
    assert bus.boards["excavate"] == {}
    mail = bus.deliver(11)
    assert mail == {"scout_1": [log.records[1]], "excavator_1": [],
                    "excavator_2": []}
    assert mail["scout_1"][0] is log.records[1]
    assert board_rows(bus.boards["excavate"]) == [(("scout_1", LOC), 10, 1)]


def test_same_tick_messages_keep_publish_order():
    """An inbox holds its records in publish order; the board files one
    tick's announcements in post order and keeps its auctions oldest
    first, by first tick, then key."""
    bus = fleet_bus()
    second, first = excavation("scout_2", tick=4), excavation(
        "scout_1", location=OTHER, tick=4)
    records = [ack_of("excavator_1", "hauler_2", LOC, False, bus, 4),
               bus.post(second, 4),
               # not excavator_1's
               ack_of("scout_2", "excavator_2", LOC, True, bus, 4),
               bus.declare(excavation(declared="excavator_1", location=OTHER),
                           4),
               bus.post(first, 4),
               ack_of("excavator_1", "hauler_1", LOC, True, bus, 4),
               bus.post(second, 4)]
    inbox = bus.deliver(5)["excavator_1"]
    assert [record["seq"] for record in inbox] == [0, 3, 5]
    assert all(record is records[record["seq"]] for record in inbox)
    assert bus.messages_published == 7
    # scout_2's second announcement is its second round
    assert board_rows(bus.boards["excavate"]) == [
        (("scout_1", OTHER), 4, 1), (("scout_2", LOC), 4, 2)]


def test_each_tick_is_delivered_once():
    bus = fleet_bus()
    auction = excavation()
    bus.post(auction, tick=0)
    ack_of("scout_1", "excavator_1", LOC, False, bus, 0)
    ack_of("scout_1", "excavator_2", LOC, True, bus, 1)
    counts = {robot: len(inbox) for robot, inbox in bus.deliver(1).items()}
    assert counts == {"scout_1": 1, "excavator_1": 0, "excavator_2": 0}
    assert bus.deliver(1) == {}
    assert board_rows(bus.boards["excavate"]) == [(("scout_1", LOC), 0, 1)]
    assert list(bus.deliver(2)) == ["scout_1"]


def test_no_traffic_empty_inbox():
    bus = fleet_bus()
    assert bus.deliver(5) == {}
    # a task type nobody subscribes to reaches nobody, but is on its board
    unsubscribed = BroadcastBus(EventLog(), 1)
    auction = excavation(tick=5)
    unsubscribed.post(auction, tick=5)
    assert unsubscribed.deliver(6) == {}
    assert len(unsubscribed.boards["excavate"]) == 1


def test_fanout_counts():
    """Addressed mail is copied to its one recipient; an announcement to
    no one."""
    bus = fleet_bus()
    for i in range(3):
        ack_of("scout_1", f"excavator_{i + 1}", LOC, False, bus, 7)
    auction = excavation(location=OTHER, tick=7)
    bus.post(auction, tick=7)
    counts = {robot: len(inbox) for robot, inbox in bus.deliver(8).items()}
    assert counts == {"scout_1": 3, "excavator_1": 0, "excavator_2": 0}


def referrers(record: dict) -> list:
    """The objects other than frames that refer to `record`."""
    return [r for r in gc.get_referrers(record)
            if not isinstance(r, FrameType)]


def test_delivered_mail_is_released():
    """Once a tick is delivered the bus holds none of its records: an
    inbox's records go with the inbox, and a board keeps the auction, not
    the announcement it filed.  The log here keeps none either (its
    `records` discards what the bus appends), so the test's own list is
    then all that refers to a record."""

    class Discard(list):
        def append(self, record):
            pass

    log = EventLog()
    log.records = Discard()  # before the bus binds `records.append`
    bus = fleet_bus(log)
    auction = excavation()
    records = [ack_of("scout_1", "excavator_1", LOC, True, bus, 0),
               bus.post(auction, 0)]
    mail = bus.deliver(1)
    assert mail["scout_1"][0] is records[0]
    assert referrers(records[1]) == [records]
    assert list(bus.boards["excavate"].values()) == [auction]
    del mail
    assert referrers(records[0]) == [records]


def test_inbox_is_the_log_filtered_by_receiver_rules(monkeypatch):
    """Differential check of addressed delivery on a crowded nearest run:
    every robot with mail at tick t, by the log, is stepped at t, and the
    inbox its step takes is exactly the acks and winner declarations of
    tick t-1 in the log addressed to it, in sequence order: the logged
    records themselves.  Every other step takes no mail."""
    sim = Simulation(crowded_config(policy="nearest"))
    step = RobotController.step
    inboxes = {}

    def step_and_note(self, tick, inbox):
        inboxes[self.state.name, tick] = list(inbox or ())
        step(self, tick, inbox)

    monkeypatch.setattr(RobotController, "step", step_and_note)
    assert sim.run() is RunStatus.COMPLETED

    records = sim.ctx.log.records
    names = {name for name, _ in records[0]["robots"]}
    logged = {r["seq"]: r for r in records if r["type"] == "msg"}
    assert all(record is logged[record["seq"]]
               for inbox in inboxes.values() for record in inbox)
    inboxes = {key: [record["seq"] for record in inbox]
               for key, inbox in inboxes.items()}
    mail = mail_from_log(records)
    assert all(name in names and tick < sim.tick for name, tick in inboxes)
    for (name, tick), expected in mail.items():
        if tick < sim.tick:
            assert (name, tick) in inboxes, f"{name} not stepped at {tick}"
            assert inboxes[name, tick] == expected, (name, tick)
    for key, inbox in inboxes.items():
        assert inbox == mail.get(key, []), key
    wins = Counter((r["winner"], r["tick"]) for r in records
                   if r["type"] == "msg" and r["variant"] == "winner")
    multi_wins = sum(n > 1 for n in wins.values())
    assert multi_wins > 0  # the run exercises same-tick multi-wins


NO_BID_CASES = {f"crowded/{policy}": crowded_config(policy=policy)
                for policy in POLICIES}
NO_BID_CASES.update((f"reference/{policy}/0", ScenarioConfig(policy=policy))
                    for policy in ("fcfs", "nearest"))


@pytest.mark.parametrize("name", NO_BID_CASES)
def test_no_inbox_ever_holds_a_bid(monkeypatch, name):
    """A bid is logged and goes nowhere else: its auctioneer reads it off
    the board when the bidding window closes.  The inboxes of the run carry
    acks and winner declarations, and nothing else."""
    deliver = BroadcastBus.deliver
    delivered = Counter()

    def deliver_and_count(self, tick):
        mail = deliver(self, tick)
        delivered.update(r["variant"] for inbox in mail.values() for r in inbox)
        return mail

    monkeypatch.setattr(BroadcastBus, "deliver", deliver_and_count)
    sim = Simulation(NO_BID_CASES[name])
    assert sim.run() is RunStatus.COMPLETED
    assert any(r["type"] == "msg" and r["variant"] == "bid"
               for r in sim.ctx.log.records)
    assert delivered.keys() == {"ack", "winner"}


def test_paired_hauler_inbox_never_holds_an_announcement_or_close(monkeypatch):
    """No inbox holds an announcement or close.  A coalition-paired hauler
    never bids (its bid scope is 0), so it does not read the transport
    board and the bus never steps it for one, while the four unpaired
    haulers read that board and are stepped when its oldest auction
    changes.  A robot woken by its board alone only bids, so the wakes
    are the steps with an empty inbox and the `_place_bids` calls made
    outside a step."""
    sim = Simulation(crowded_config(policy="coalition"))
    paired = {hauler for _, hauler in sim.ctx.policy.pairs}
    step, place_bids = RobotController.step, RobotController._place_bids
    received, woken = Counter(), Counter()
    stepping = False

    def step_and_count(self, tick, inbox):
        nonlocal stepping
        received.update(record["variant"] for record in inbox or ())
        if inbox == []:
            woken[self.state.name] += 1
        stepping = True
        step(self, tick, inbox)
        stepping = False

    def bid_and_count(self, tick):
        if not stepping:
            woken[self.state.name] += 1
        place_bids(self, tick)

    monkeypatch.setattr(RobotController, "step", step_and_count)
    monkeypatch.setattr(RobotController, "_place_bids", bid_and_count)
    assert sim.run() is RunStatus.COMPLETED
    assert len(paired) == 8
    assert not received.keys() & {"announcement", "close"}
    board = sim.ctx.bus.boards["transport"]
    haulers = {name: c for name, c in sim.ctx.controllers.items()
               if c.bids_on is TaskType.TRANSPORT}
    assert {name for name, c in haulers.items() if c.board is board} == (
        haulers.keys() - paired)
    assert len(haulers.keys() - paired) == 4
    assert not paired & woken.keys()
    assert woken.keys() >= haulers.keys() - paired
    transport_auctions = sum(1 for r in sim.ctx.log.records
                             if r["type"] == "msg" and r["variant"] == "announcement"
                             and r["task_type"] == "transport")
    assert transport_auctions > 0


def test_messages_logged():
    log = EventLog()
    bus = BroadcastBus(log, 1)
    auction = excavation(tick=2)
    record = bus.post(auction, tick=2)
    assert log.records == [record] and log.records[0] is record
    assert record["variant"] == "announcement"
    assert record["status"] == "open"


# every variant, and both values of each two-valued field: the auction
# (auctioneer, task type, declared winner), how it is sent, and the fields
# of the record the bus builds that the location does not give
EACH_VARIANT = [
    (("scout_1", TaskType.EXCAVATE, None), post,
     {"variant": "announcement", "auctioneer": "scout_1",
      "task_type": "excavate", "status": "open"}),
    (("scout_1", TaskType.EXCAVATE, None), bid_of("excavator_2", -12.5),
     {"variant": "bid", "auctioneer": "scout_1", "bidder": "excavator_2",
      "utility": -12.5}),
    (("excavator_1", TaskType.TRANSPORT, None), bid_of("hauler_2", NEG_INF),
     {"variant": "bid", "auctioneer": "excavator_1", "bidder": "hauler_2",
      "utility": NEG_INF}),
    (("scout_1", TaskType.EXCAVATE, "excavator_3"), declare,
     {"variant": "winner", "auctioneer": "scout_1", "task_type": "excavate",
      "status": "open", "winner": "excavator_3"}),
    (("scout_1", TaskType.EXCAVATE, "excavator_3"), ack_from(True),
     {"variant": "ack", "auctioneer": "scout_1",
      "auction_winner": "excavator_3", "verdict": "accepted"}),
    (("scout_1", TaskType.EXCAVATE, "excavator_3"), ack_from(False),
     {"variant": "ack", "auctioneer": "scout_1",
      "auction_winner": "excavator_3", "verdict": "declined"}),
    (("excavator_1", TaskType.TRANSPORT, "hauler_2"), post,
     {"variant": "close", "auctioneer": "excavator_1",
      "task_type": "transport", "status": "closed",
      "allocated_to": "hauler_2"}),
]


def built(msg, log=None):
    """The auction of an `EACH_VARIANT` entry, and the record a bus logging
    to `log` builds from it and sends at tick 9."""
    (auctioneer, task_type, declared), make, _ = msg
    auction = auction_of(auctioneer, task_type, LOC, declared)
    bus = BroadcastBus(EventLog() if log is None else log, 1)
    return auction, make(bus, auction, 9)


@pytest.mark.parametrize("msg", EACH_VARIANT)
def test_record_round_trip(tmp_path, msg):
    """A sent record carries its auction's fields (an ack, those of the
    winner record it answers), the task type by its value and the location
    as the auction's one [x, y] list, stamped with its tick and sequence
    number, and it survives the log file."""
    log = EventLog()
    auction, record = built(msg, log)
    assert log.records == [record]
    assert record == {"type": "msg", "tick": 9, "seq": 0,
                      "loc": [LOC.x, LOC.y], **msg[2]}
    assert record["loc"] is auction.loc
    path = tmp_path / "events.jsonl"
    log.dump_jsonl(path)
    assert EventLog.load_jsonl(path).records == [record]


def test_busy_sentinel_survives_jsonl(tmp_path):
    log = EventLog()
    bus = BroadcastBus(log, 1)
    transport = auction_of("excavator_1", TaskType.TRANSPORT, LOC)
    bus.bid(transport, "hauler_1", NEG_INF, tick=1)
    path = tmp_path / "events.jsonl"
    log.dump_jsonl(path)
    assert "-Infinity" not in path.read_text()  # valid JSON on the wire
    loaded = EventLog.load_jsonl(path)
    assert loaded.records[0]["utility"] == float("-inf")


@pytest.mark.parametrize("msg", EACH_VARIANT)
def test_record_keys_follow_the_schema_order(run_logs, monkeypatch, msg):
    """Every msg record of the variant, as a bus sends it and as a crowded
    run logs it under each policy, has its keys in schema order,
    which fixes the bytes of the log, and is written by its variant's
    f-string writer, not by the encoder it falls back to (as it would for a
    `loc` tuple)."""
    auction, record = built(msg)
    variant = record["variant"]
    records = [record]
    for policy in POLICIES:
        logged = [r for r in run_logs.log(crowded_config(policy=policy))
                  if r["type"] == "msg" and r["variant"] == variant]
        assert logged, policy
        records += logged
    keys = ["type", *RECORD_FIELDS["msg"], *MSG_FIELDS[variant]]
    assert all(list(record) == keys for record in records)

    def fall_back(record):
        raise AssertionError(f"msg record fell back: {record}")

    monkeypatch.setattr(events, "_encode_object", fall_back)
    EventLog.from_records(records).dumps()


@pytest.mark.parametrize("policy", POLICIES)
def test_deliver_steps_the_subscribers_whose_bid_scope_changed(policy):
    """`deliver` gives an empty inbox to the haulers that must step for
    what it filed on the transport board: one that bids in its oldest
    auction only (fcfs, an unpaired coalition hauler) when that auction is
    another one or announced a new round, one that bids in all of them
    (nearest) when any announcement was filed.  A close behind the oldest
    auction steps nobody, and a coalition-paired hauler never steps."""
    sim = Simulation(crowded_config(policy=policy))
    bus = sim.ctx.bus
    scopes = {name: c.bid_scope for name, c in sim.ctx.controllers.items()
              if c.bids_on is TaskType.TRANSPORT}
    oldest_only = {name for name, scope in scopes.items() if scope == 1}
    every = {name for name, scope in scopes.items() if scope is None}
    paired = {name for name, scope in scopes.items() if scope == 0}
    assert (bool(oldest_only), bool(every), bool(paired)) == {
        "fcfs": (True, False, False), "coalition": (True, False, True),
        "nearest": (False, True, False)}[policy]
    head = auction_of("excavator_1", TaskType.TRANSPORT, LOC, tick=100)
    behind = auction_of("excavator_2", TaskType.TRANSPORT, OTHER, tick=101)
    reopened = auction_of("excavator_2", TaskType.TRANSPORT, OTHER, tick=105)

    def stepped(tick, auction, closing=False):
        if closing:
            auction.winner = "hauler_9"
        bus.post(auction, tick)
        mail = bus.deliver(tick + 1)
        assert all(inbox == [] for inbox in mail.values())
        return set(mail)

    assert stepped(100, head) == oldest_only | every
    assert stepped(101, behind) == every
    assert stepped(102, behind) == every  # its round 2
    assert stepped(103, head) == oldest_only | every
    assert stepped(104, behind, closing=True) == set()
    assert stepped(105, reopened) == every  # a reopened key
    assert stepped(106, head, closing=True) == oldest_only
    assert stepped(107, reopened, closing=True) == oldest_only
    assert bus.boards["transport"] == {}


@pytest.mark.parametrize("gap", [1, 0], ids=["next-tick", "same-tick"])
def test_a_reopened_key_is_a_new_auction(gap):
    """A transport key closes and reopens for the next mineral, one tick
    apart or filed in one `deliver` in post order: the board holds the new
    auction, with no answers of the closed one's, and every hauler that
    bids in its oldest auction is stepped and bids again, in round 1 of the
    new auction, its answer in its own slot of the new auction."""
    sim = Simulation(crowded_config(policy="fcfs"))
    bus, records = sim.ctx.bus, sim.ctx.log.records
    haulers = {name: c for name, c in sim.ctx.controllers.items()
               if c.bids_on is TaskType.TRANSPORT}
    key = ("excavator_1", LOC)

    def deliver_and_bid(tick):
        """Let the haulers the bus steps bid; bidder -> bid at `tick`."""
        for name in bus.deliver(tick).keys() & haulers.keys():
            haulers[name]._place_bids(tick)
        return {r["bidder"]: r["utility"] for r in records
                if r["type"] == "msg" and r["variant"] == "bid" and r["tick"] == tick}

    first = auction_of("excavator_1", TaskType.TRANSPORT, LOC, tick=10)
    bus.post(first, 10)
    bids = deliver_and_bid(11)
    assert bids.keys() == haulers.keys()
    assert bus.boards["transport"][key] is first
    assert first.answers == {name: (1, bid, 11) for name, bid in bids.items()}
    first.winner = "hauler_1"
    bus.post(first, 11)
    if gap:
        assert deliver_and_bid(12) == {}  # nothing left to bid in
    second = auction_of("excavator_1", TaskType.TRANSPORT, LOC, tick=11 + gap)
    bus.post(second, 11 + gap)
    bids = deliver_and_bid(12 + gap)
    assert bids.keys() == haulers.keys()
    assert bus.boards["transport"][key] is second and second.rounds == 1
    assert second.answers == {name: (1, bid, 12 + gap)
                              for name, bid in bids.items()}


def test_a_crowded_fcfs_run_reopens_a_transport_key(run_logs):
    """The reopened key of the test above happens in a real run: a
    transport auction is announced again at a site after it closed."""
    closed, reopened = set(), set()
    for record in run_logs.log(crowded_config(policy="fcfs")):
        if record["type"] == "msg" and record.get("task_type") == "transport":
            key = record_auction_key(record)
            if record["variant"] == "close":
                closed.add(key)
            elif record["variant"] == "announcement" and key in closed:
                reopened.add(key)
    assert reopened


def auction_locs(records) -> list[set[int]]:
    """The ids of the `loc` lists of each auction's msg records in a log,
    one set per auction, from its first announcement to its close.  A
    record is filed under the auction of its key announced last, so a bid
    that races the close, logged with it or after it, belongs to the
    closed one."""
    current, auctions = {}, []
    for record in records:
        if record["type"] != "msg":
            continue
        key = record_auction_key(record)
        if record["variant"] == "announcement" and (
                key not in current or current[key][1]):
            current[key] = [set(), False]
            auctions.append(current[key][0])
        current[key][0].add(id(record["loc"]))
        if record["variant"] == "close":
            current[key][1] = True
    return auctions


@pytest.mark.parametrize("policy", POLICIES)
def test_every_record_of_an_auction_holds_its_one_loc_list(run_logs, policy):
    """Every msg record of one auction, its announcements, bids, winner
    declarations, acks and close, holds the same `loc` list object, and no
    two auctions share one: a crowded run's log keeps one location list
    per auction, not one per message."""
    records = run_logs.log(crowded_config(policy=policy)).records
    auctions = auction_locs(records)
    assert auctions and all(len(locs) == 1 for locs in auctions)
    assert len(set().union(*auctions)) == len(auctions)
    assert sum(r["type"] == "msg" for r in records) > 10 * len(auctions)
