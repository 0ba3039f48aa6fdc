import weakref
from collections import Counter
from dataclasses import fields

import pytest

from conftest import crowded_config, mail_from_log

from isrusim import (
    Ack,
    Announcement,
    Bid,
    BroadcastBus,
    Close,
    EventLog,
    Point,
    RunStatus,
    Simulation,
    TaskType,
    WinnerDecl,
)
from isrusim.agents import RobotController
from isrusim.bus import message_record
from isrusim.events import MSG_FIELDS, RECORD_FIELDS


LOC = Point(30.0, 40.0)
OTHER = Point(12.0, 5.0)


# who bids on which task type; scouts bid on nothing
FLEET = {"scout_1": None, "excavator_1": TaskType.EXCAVATE,
         "excavator_2": TaskType.EXCAVATE, "hauler_1": TaskType.TRANSPORT,
         "hauler_2": TaskType.TRANSPORT}
EXCAVATORS = {"excavator_1", "excavator_2"}
HAULERS = {"hauler_1", "hauler_2"}


def fleet_bus(log=None):
    bus = BroadcastBus(log)
    for robot, task_type in FLEET.items():
        if task_type is not None:
            bus.subscribe(robot, task_type)
    return bus


@pytest.mark.parametrize("msg, recipients", [
    (Announcement("scout_1", TaskType.EXCAVATE, LOC), EXCAVATORS),
    (Announcement("excavator_1", TaskType.TRANSPORT, LOC), HAULERS),
    (Bid("scout_1", "excavator_1", LOC, -2.0), {"scout_1"}),
    (Bid("excavator_2", "hauler_1", LOC, float("-inf")), {"excavator_2"}),
    (WinnerDecl("scout_1", TaskType.EXCAVATE, LOC, "excavator_2"), {"excavator_2"}),
    (Ack("excavator_1", "hauler_2", LOC, accepted=False), {"excavator_1"}),
    (Close("scout_1", TaskType.EXCAVATE, LOC, "excavator_1"), EXCAVATORS),
    (Close("excavator_2", TaskType.TRANSPORT, LOC, "hauler_1"), HAULERS),
], ids=["announce-excavate", "announce-transport", "bid", "busy-bid", "winner",
        "ack", "close-excavate", "close-transport"])
def test_publish_delivers_to_every_recipient_next_tick(msg, recipients):
    bus = fleet_bus()
    bus.publish(msg, tick=10)
    mail = bus.deliver(11)
    assert set(mail) == recipients
    for robot in recipients:
        assert mail[robot] == [msg] and mail[robot][0] is msg


def test_not_delivered_same_tick():
    bus = fleet_bus()
    msg = Announcement("scout_1", TaskType.EXCAVATE, LOC)
    bus.publish(msg, tick=10)
    assert bus.deliver(10) == {}
    assert bus.deliver(11) == {"excavator_1": [msg], "excavator_2": [msg]}


def test_same_tick_messages_keep_publish_order():
    bus = fleet_bus()
    msgs = [Bid("excavator_1", "hauler_1", LOC, -2.0),
            Announcement("scout_2", TaskType.EXCAVATE, LOC),
            Bid("scout_2", "excavator_2", LOC, -1.0),  # not excavator_1's
            WinnerDecl("scout_1", TaskType.EXCAVATE, OTHER, "excavator_1"),
            Close("scout_1", TaskType.EXCAVATE, OTHER, "excavator_1"),
            Ack("excavator_1", "hauler_1", LOC, accepted=True)]
    for msg in msgs:
        bus.publish(msg, tick=4)
    inbox = bus.deliver(5)["excavator_1"]
    assert [msgs.index(msg) for msg in inbox] == [0, 1, 3, 4, 5]
    assert bus.messages_published == 6


def test_each_tick_is_delivered_once():
    bus = fleet_bus()
    bus.publish(Announcement("scout_1", TaskType.EXCAVATE, LOC), tick=0)
    bus.publish(Bid("scout_1", "excavator_1", LOC, -1.0), tick=0)
    bus.publish(Bid("scout_1", "excavator_2", LOC, -1.0), tick=1)
    assert [len(inbox) for inbox in bus.deliver(1).values()] == [1, 1, 1]
    assert bus.deliver(1) == {}
    assert list(bus.deliver(2)) == ["scout_1"]


def test_no_traffic_empty_inbox():
    bus = fleet_bus()
    assert bus.deliver(5) == {}
    # a task type nobody subscribes to reaches nobody
    unsubscribed = BroadcastBus()
    unsubscribed.publish(Announcement("scout_1", TaskType.EXCAVATE, LOC), tick=5)
    assert unsubscribed.deliver(6) == {}


def test_fanout_counts():
    bus = fleet_bus()
    for i in range(3):
        bus.publish(Bid("scout_1", f"excavator_{i + 1}", LOC, -float(i)), tick=7)
    bus.publish(Announcement("scout_1", TaskType.EXCAVATE, OTHER), tick=7)
    counts = {robot: len(inbox) for robot, inbox in bus.deliver(8).items()}
    assert counts == {"scout_1": 3, "excavator_1": 1, "excavator_2": 1}


def test_delivered_mail_is_released():
    bus = fleet_bus()
    msg = Announcement("scout_1", TaskType.EXCAVATE, LOC)
    released = weakref.ref(msg)
    bus.publish(msg, tick=0)
    del msg
    mail = bus.deliver(1)
    assert released() is not None
    del mail
    assert released() is None


def test_inbox_is_the_log_filtered_by_receiver_rules(monkeypatch):
    """Differential check of addressed delivery on a crowded nearest run:
    every robot with mail at tick t, by the log, is stepped at t, and the
    inbox its step takes is exactly the messages of tick t-1 in the log
    that the robot acts on, in sequence order.  Every other step takes no
    mail."""
    sim = Simulation(crowded_config(policy="nearest"))
    bus = sim.ctx.bus
    publish, step = bus.publish, RobotController.step
    seq_of, inboxes = {}, {}

    def publish_and_number(msg, tick):
        seq_of[id(msg)] = (bus.messages_published, msg)  # keeps msg alive
        publish(msg, tick)

    def step_and_note(self, tick, inbox):
        inboxes[self.state.name, tick] = [seq_of[id(msg)][0] for msg in inbox or ()]
        step(self, tick, inbox)

    bus.publish = publish_and_number
    monkeypatch.setattr(RobotController, "step", step_and_note)
    assert sim.run() is RunStatus.COMPLETED

    records = sim.ctx.log.records
    names = {name for name, _ in records[0]["robots"]}
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


def test_paired_hauler_inbox_never_holds_an_announcement_or_close(monkeypatch):
    """A coalition-paired hauler never bids (its bid scope is 0), so the
    bus addresses it no announcement or close, while each transport
    announcement reaches the four unpaired haulers."""
    sim = Simulation(crowded_config(policy="coalition"))
    paired = {hauler for _, hauler in sim.ctx.policy.pairs}
    step = RobotController.step
    received = Counter()

    def step_and_count(self, tick, inbox):
        received.update((self.state.name in paired, type(msg), self.bids_on)
                        for msg in inbox or ())
        step(self, tick, inbox)

    monkeypatch.setattr(RobotController, "step", step_and_count)
    assert sim.run() is RunStatus.COMPLETED
    assert len(paired) == 8
    assert not any(to_paired and variant in (Announcement, Close)
                   for to_paired, variant, _ in received)
    transport_auctions = sum(1 for r in sim.ctx.log.records
                             if r["type"] == "msg" and r["variant"] == "announcement"
                             and r["task_type"] == "transport")
    assert transport_auctions > 0
    assert (received[False, Announcement, TaskType.TRANSPORT]
            == 4 * transport_auctions)


def test_messages_logged():
    log = EventLog()
    bus = BroadcastBus(log)
    bus.publish(Announcement("scout_1", TaskType.EXCAVATE, LOC), tick=2)
    assert len(log) == 1
    assert log.records[0]["variant"] == "announcement"
    assert log.records[0]["status"] == "open"


# every variant, and both values of each two-valued field
EACH_VARIANT = [
    Announcement("scout_1", TaskType.EXCAVATE, LOC),
    Bid("scout_1", "excavator_2", LOC, -12.5),
    Bid("excavator_1", "hauler_2", LOC, float("-inf")),
    WinnerDecl("scout_1", TaskType.EXCAVATE, LOC, "excavator_3"),
    Ack("scout_1", "excavator_3", LOC, accepted=True),
    Ack("scout_1", "excavator_3", LOC, accepted=False),
    Close("excavator_1", TaskType.TRANSPORT, LOC, "hauler_2"),
]


@pytest.mark.parametrize("msg", EACH_VARIANT)
def test_record_round_trip(tmp_path, msg):
    """A message's log record carries every field of the message, and
    survives the log file."""
    log = EventLog()
    BroadcastBus(log).publish(msg, tick=9)
    path = tmp_path / "events.jsonl"
    log.dump_jsonl(path)
    [record] = EventLog.load_jsonl(path).records
    assert record == message_record(msg, 9, 0)
    assert (record["tick"], record["seq"]) == (9, 0)
    for field in fields(msg):
        value = getattr(msg, field.name)
        if field.name == "task_location":
            assert record["loc"] == [value.x, value.y]
        elif field.name == "accepted":
            assert record["verdict"] == ("accepted" if value else "declined")
        else:  # a task type is logged by its value
            assert record[field.name] == getattr(value, "value", value)


def test_busy_sentinel_survives_jsonl(tmp_path):
    log = EventLog()
    bus = BroadcastBus(log)
    bus.publish(Bid("excavator_1", "hauler_1", LOC, float("-inf")), tick=1)
    path = tmp_path / "events.jsonl"
    log.dump_jsonl(path)
    assert "-Infinity" not in path.read_text()  # valid JSON on the wire
    loaded = EventLog.load_jsonl(path)
    assert loaded.records[0]["utility"] == float("-inf")


@pytest.mark.parametrize("msg", EACH_VARIANT)
def test_record_keys_follow_the_schema_order(msg):
    """Each variant's record builder writes its keys in schema order, which
    fixes the bytes of the log."""
    variant = {Announcement: "announcement", Bid: "bid", WinnerDecl: "winner",
               Ack: "ack", Close: "close"}[type(msg)]
    record = message_record(msg, 9, 0)
    assert record["variant"] == variant
    assert list(record) == ["type", *RECORD_FIELDS["msg"], *MSG_FIELDS[variant]]
