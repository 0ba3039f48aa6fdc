"""The log checker must pass clean runs and flag every tampered log."""

import pytest
from cases import CASES
from conftest import crowded_config, tiny_config, tiny_run

from isrusim import (
    agents,
    derive_auction_histories,
    run_to_completion,
    verify_records,
)

LOC = [30.0, 40.0]


def msg(tick, seq, variant, **fields):
    record = {"type": "msg", "tick": tick, "seq": seq, "variant": variant,
              "auctioneer": "scout_1", "loc": LOC}
    record.update(fields)
    return record


def protocol_prefix():
    """announce -> two bids -> winner, correctly timed."""
    return [
        {"type": "run_start", "policy": "fcfs", "seed": 0, "arena_side": 100.0,
         "n_sites": 1, "n_minerals": 1, "tick_cap": 100,
         "robots": [["scout_1", "scout"]], "coalition_pairs": []},
        msg(0, 0, "announcement", task_type="excavate", status="open"),
        msg(1, 1, "bid", bidder="excavator_1", utility=-10.0),
        msg(1, 2, "bid", bidder="excavator_2", utility=-4.0),
    ]


def run_end(status="completed"):
    return {"type": "run_end", "tick": 99, "status": status,
            "minerals_at_plant": 1, "sites_discovered": 1, "odometry": {}}


def test_clean_synthetic_protocol_passes():
    records = protocol_prefix() + [
        msg(3, 3, "winner", task_type="excavate", status="open",
            winner="excavator_2"),
        msg(4, 4, "ack", auction_winner="excavator_2", verdict="accepted"),
        msg(5, 5, "close", task_type="excavate", status="closed",
            allocated_to="excavator_2"),
        {"type": "claim", "tick": 5, "site": 0, "excavator": "excavator_2"},
        {"type": "dig", "tick": 30, "mineral": "m0_1", "site": 0,
         "excavator": "excavator_2"},
        {"type": "load", "tick": 40, "mineral": "m0_1", "site": 0,
         "excavator": "excavator_2", "hauler": "hauler_1"},
        {"type": "unload", "tick": 60, "mineral": "m0_1", "hauler": "hauler_1"},
        {"type": "release", "tick": 61, "site": 0, "excavator": "excavator_2"},
        run_end(),
    ]
    assert verify_records(records) == []


def test_clean_full_runs_pass():
    for policy in ("fcfs", "coalition", "nearest"):
        result = tiny_run(policy=policy, seed=6)
        assert verify_records(result.log.records) == []


def test_neg_inf_winner_flagged():
    records = protocol_prefix()
    records.append(msg(1, 3, "bid", bidder="excavator_3", utility=float("-inf")))
    records.append(msg(3, 4, "winner", task_type="excavate", status="open",
                       winner="excavator_3"))
    checks = {v.check for v in verify_records(records)}
    assert "neg_inf_winner" in checks


def test_non_argmax_winner_flagged():
    records = protocol_prefix() + [
        msg(3, 3, "winner", task_type="excavate", status="open",
            winner="excavator_1"),  # -10 loses to -4
    ]
    checks = {v.check for v in verify_records(records)}
    assert "argmax" in checks


def test_winner_without_bid_flagged():
    records = protocol_prefix() + [
        msg(3, 3, "winner", task_type="excavate", status="open",
            winner="excavator_9"),
    ]
    checks = {v.check for v in verify_records(records)}
    assert "winner_bid" in checks


def test_bid_after_declaration_does_not_count_for_current_round():
    records = protocol_prefix() + [
        msg(3, 3, "winner", task_type="excavate", status="open",
            winner="excavator_2"),
        # published after the declaration: -1 may not win this round
        msg(3, 4, "bid", bidder="excavator_9", utility=-1.0),
        msg(4, 5, "ack", auction_winner="excavator_2", verdict="accepted"),
        msg(5, 6, "close", task_type="excavate", status="closed",
            allocated_to="excavator_2"),
        run_end(),
    ]
    violations = [v for v in verify_records(records)
                  if v.check in ("argmax", "winner_bid", "neg_inf_winner")]
    assert violations == []


def test_close_without_accepted_ack_flagged():
    records = protocol_prefix() + [
        msg(3, 3, "winner", task_type="excavate", status="open",
            winner="excavator_2"),
        msg(5, 4, "close", task_type="excavate", status="closed",
            allocated_to="excavator_2"),
    ]
    checks = {v.check for v in verify_records(records)}
    assert "close_without_ack" in checks


def test_close_after_declined_ack_flagged():
    records = protocol_prefix() + [
        msg(3, 3, "winner", task_type="excavate", status="open",
            winner="excavator_2"),
        msg(4, 4, "ack", auction_winner="excavator_2", verdict="declined"),
        msg(6, 5, "close", task_type="excavate", status="closed",
            allocated_to="excavator_2"),
    ]
    checks = {v.check for v in verify_records(records)}
    assert "close_without_ack" in checks


def test_reoffer_to_next_highest_passes():
    records = protocol_prefix() + [
        msg(3, 3, "winner", task_type="excavate", status="open",
            winner="excavator_2"),
        msg(4, 4, "ack", auction_winner="excavator_2", verdict="declined"),
        msg(5, 5, "winner", task_type="excavate", status="open",
            winner="excavator_1"),
        msg(6, 6, "ack", auction_winner="excavator_1", verdict="accepted"),
        msg(7, 7, "close", task_type="excavate", status="closed",
            allocated_to="excavator_1"),
        run_end(status="stalled"),
    ]
    assert verify_records(records) == []


def test_a_log_without_one_run_start_flagged():
    """A log with no run_start is no run's log, even an empty one, and one
    with two joins two runs; a log with no run_end is still checked for
    safety only, as a live log is."""
    records = protocol_prefix()
    assert verify_records(records) == []
    assert {v.check for v in verify_records(records[1:])} == {"run_start"}
    assert {v.check for v in verify_records([])} == {"run_start"}
    joined = records + [records[0]]
    assert {v.check for v in verify_records(joined)} == {"run_start"}


def test_reoffer_to_declined_robot_flagged():
    records = protocol_prefix() + [
        msg(3, 3, "winner", task_type="excavate", status="open",
            winner="excavator_2"),
        msg(4, 4, "ack", auction_winner="excavator_2", verdict="declined"),
        msg(5, 5, "winner", task_type="excavate", status="open",
            winner="excavator_2"),
    ]
    checks = {v.check for v in verify_records(records)}
    assert "winner_bid" in checks


def test_double_claim_flagged():
    records = [
        {"type": "claim", "tick": 1, "site": 0, "excavator": "excavator_1"},
        {"type": "claim", "tick": 2, "site": 0, "excavator": "excavator_2"},
    ]
    checks = {v.check for v in verify_records(records)}
    assert "claims" in checks


def test_lifecycle_misorder_flagged():
    records = [
        {"type": "load", "tick": 1, "mineral": "m0_1", "site": 0,
         "excavator": "excavator_1", "hauler": "hauler_1"},
    ]
    checks = {v.check for v in verify_records(records)}
    assert "lifecycle" in checks


def test_double_dig_flagged():
    records = [
        {"type": "dig", "tick": 1, "mineral": "m0_1", "site": 0,
         "excavator": "excavator_1"},
        {"type": "dig", "tick": 2, "mineral": "m0_1", "site": 0,
         "excavator": "excavator_1"},
    ]
    checks = {v.check for v in verify_records(records)}
    assert "lifecycle" in checks


def test_completed_run_with_open_auction_flagged():
    records = protocol_prefix() + [run_end(status="completed")]
    checks = {v.check for v in verify_records(records)}
    assert "liveness" in checks
    assert "lifecycle" in checks  # 1 promised mineral, none delivered


@pytest.mark.parametrize("utility, flagged", [
    (0.5, True), (float("nan"), True),
    (0.0, False), (-0.0, False), (float("-inf"), False)])
def test_bid_with_positive_or_nan_utility_flagged_once(utility, flagged):
    """A utility is a negated cost, or -inf from a busy robot: a bid of
    more than zero, or of no number, is flagged once, when it reaches the
    open auction."""
    records = protocol_prefix() + [
        msg(1, 3, "bid", bidder="excavator_3", utility=utility),
        run_end("stalled"),
    ]
    want = [f"[bid] bid with positive utility {utility}"] if flagged else []
    assert [str(v) for v in verify_records(records)] == want


def test_sequence_regression_flagged():
    records = protocol_prefix()
    records.append(msg(3, 1, "winner", task_type="excavate", status="open",
                       winner="excavator_2"))  # sequence number reused
    checks = {v.check for v in verify_records(records)}
    assert "sequence" in checks


OPEN = {"task_type": "excavate", "status": "open"}
CLOSED = {"task_type": "excavate", "status": "closed"}
KEY = "('scout_1', (30.0, 40.0))"
SCOUT_2 = {"auctioneer": "scout_2", "loc": [50.0, 60.0]}
# Bids and acks take effect only once their publish tick has passed, also
# when the ticks of those still pending are out of order.  Each log's
# violations are pinned as a checker with one queue for every auction
# reported them, so they show that one pending list replays the same.
PENDING_LOGS = {
    "tick goes backward with bids pending": (protocol_prefix()[:2] + [
        msg(5, 1, "bid", bidder="excavator_1", utility=-10.0),
        msg(3, 2, "bid", bidder="excavator_2", utility=-4.0),
        msg(4, 3, "winner", winner="excavator_2", **OPEN),
        msg(5, 4, "ack", auction_winner="excavator_2", verdict="accepted"),
        msg(6, 5, "close", allocated_to="excavator_2", **CLOSED),
        run_end("stalled"),
    ], ["[sequence] publish tick went backward at seq 2"]),
    "winner tick goes backward with bids pending": (protocol_prefix() + [
        msg(0, 3, "winner", winner="excavator_2", **OPEN),
        msg(2, 4, "bid", bidder="excavator_3", utility=-1.0),
        msg(3, 5, "winner", winner="excavator_3", **OPEN),
        run_end("stalled"),
    ], ["[sequence] publish tick went backward at seq 3",
        f"[winner_bid] {KEY}: winner excavator_2 placed no bid this round",
        f"[protocol] {KEY}: winner declared while another acknowledgment "
        "was pending",
        f"[winner_bid] {KEY}: winner excavator_3 placed no bid this round"]),
    "not-a-number tick with bids pending": (protocol_prefix()[:2] + [
        msg(float("nan"), 1, "bid", bidder="excavator_1", utility=-1.0),
        msg(1, 2, "bid", bidder="excavator_2", utility=-4.0),
        msg(2, 3, "winner", winner="excavator_2", **OPEN),
        run_end("stalled"),
    ], []),
    "acks pending across ticks": (protocol_prefix() + [
        msg(3, 3, "winner", winner="excavator_2", **OPEN),
        msg(4, 4, "ack", auction_winner="excavator_2", verdict="declined"),
        msg(5, 5, "ack", auction_winner="excavator_1", verdict="accepted"),
        msg(5, 6, "winner", winner="excavator_1", **OPEN),
        msg(6, 7, "ack", auction_winner="excavator_1", verdict="accepted"),
        msg(7, 8, "close", allocated_to="excavator_1", **CLOSED),
        run_end("stalled"),
    ], []),
    "ack still pending at a close": (protocol_prefix() + [
        msg(3, 3, "winner", winner="excavator_2", **OPEN),
        msg(4, 4, "ack", auction_winner="excavator_2", verdict="declined"),
        msg(5, 5, "winner", winner="excavator_1", **OPEN),
        msg(6, 6, "ack", auction_winner="excavator_1", verdict="accepted"),
        msg(6, 7, "close", allocated_to="excavator_1", **CLOSED),
        run_end("stalled"),
    ], [f"[close_without_ack] {KEY}: closed for excavator_1 without their "
        "accepted acknowledgment"]),
    # scout_2's bid of -1 is sent in the tick of its winner, so it is not
    # yet due there (else the winner loses the argmax check), and its ack
    # stays pending past the other auction's publications until its close
    "two auctions interleaved": (protocol_prefix()[:2] + [
        msg(0, 1, "announcement", **SCOUT_2, **OPEN),
        msg(1, 2, "bid", bidder="excavator_1", utility=-10.0),
        msg(1, 3, "bid", bidder="excavator_3", utility=-3.0, **SCOUT_2),
        msg(2, 4, "bid", bidder="excavator_2", utility=-4.0),
        msg(2, 5, "bid", bidder="excavator_4", utility=-5.0, **SCOUT_2),
        msg(3, 6, "winner", winner="excavator_2", **OPEN),
        msg(3, 7, "bid", bidder="excavator_5", utility=-1.0, **SCOUT_2),
        msg(3, 8, "winner", winner="excavator_3", **SCOUT_2, **OPEN),
        msg(4, 9, "ack", auction_winner="excavator_2", verdict="declined"),
        msg(4, 10, "ack", auction_winner="excavator_3", verdict="accepted",
            **SCOUT_2),
        msg(5, 11, "winner", winner="excavator_1", **OPEN),
        msg(5, 12, "ack", auction_winner="excavator_1", verdict="accepted"),
        msg(8, 13, "close", allocated_to="excavator_3", **SCOUT_2, **CLOSED),
        msg(6, 14, "close", allocated_to="excavator_1", **CLOSED),
        msg(9, 15, "bid", bidder="excavator_4", utility=-2.0, **SCOUT_2),
        run_end("stalled"),
    ], ["[sequence] publish tick went backward at seq 14"]),
    # scout_1's bids of tick 2 and 3 wait while scout_2 publishes at their
    # own tick, and its ack of tick 4 while scout_2 publishes at 4 and 5;
    # the bid of -1 sent in the tick of scout_1's winner is late for it, and
    # the decline is due at the reoffer (else a pending ack is flagged)
    "bids and acks wait while another auction publishes": (
        protocol_prefix()[:2] + [
            msg(0, 1, "announcement", **SCOUT_2, **OPEN),
            msg(1, 2, "bid", bidder="excavator_3", utility=-3.0, **SCOUT_2),
            msg(2, 3, "bid", bidder="excavator_1", utility=-10.0),
            msg(2, 4, "winner", winner="excavator_3", **SCOUT_2, **OPEN),
            msg(2, 5, "bid", bidder="excavator_2", utility=-4.0),
            msg(3, 6, "ack", auction_winner="excavator_3", verdict="accepted",
                **SCOUT_2),
            msg(3, 7, "bid", bidder="excavator_5", utility=-1.0),
            msg(3, 8, "winner", winner="excavator_2", **OPEN),
            msg(4, 9, "ack", auction_winner="excavator_2", verdict="declined"),
            msg(4, 10, "close", allocated_to="excavator_3", **SCOUT_2,
                **CLOSED),
            msg(5, 11, "announcement", **SCOUT_2, **OPEN),
            msg(5, 12, "winner", winner="excavator_1", **OPEN),
            msg(6, 13, "ack", auction_winner="excavator_1",
                verdict="accepted"),
            msg(7, 14, "close", allocated_to="excavator_1", **CLOSED),
            run_end("stalled"),
        ], []),
    # scout_2's decline, sent in the tick of its close, is not due there;
    # scout_1's accept of tick 4 waits through that close and is due at
    # its own close of tick 5
    "an ack of the closing tick waits while another auction publishes": (
        protocol_prefix() + [
            msg(1, 3, "announcement", **SCOUT_2, **OPEN),
            msg(2, 4, "bid", bidder="excavator_3", utility=-2.0, **SCOUT_2),
            msg(3, 5, "winner", winner="excavator_2", **OPEN),
            msg(3, 6, "winner", winner="excavator_3", **SCOUT_2, **OPEN),
            msg(4, 7, "ack", auction_winner="excavator_2", verdict="accepted"),
            msg(4, 8, "ack", auction_winner="excavator_3", verdict="declined",
                **SCOUT_2),
            msg(4, 9, "close", allocated_to="excavator_3", **SCOUT_2,
                **CLOSED),
            msg(5, 10, "close", allocated_to="excavator_2", **CLOSED),
            run_end("stalled"),
        ], ["[close_without_ack] ('scout_2', (50.0, 60.0)): closed for "
            "excavator_3 without their accepted acknowledgment"]),
}


@pytest.mark.parametrize("name", list(PENDING_LOGS))
def test_pending_bids_and_acks_take_effect_once_due(name):
    records, want = PENDING_LOGS[name]
    assert [str(v) for v in verify_records(records)] == want


@pytest.mark.parametrize("name", list(CASES))
def test_a_log_read_once_is_verified_as_a_list_is(run_logs, name):
    """`verify_records` reads its records once, in order, so an iterator
    over a run's log gives what the list gives."""
    records = run_logs.log(*CASES[name]).records
    assert verify_records(iter(records)) == verify_records(records)


def test_sequence_checks_read_only_msg_records():
    """Two auctions' msg records interleave with claims and digs, whose
    ticks neither hide the msg tick that goes backward across a dig nor
    flag the one that follows a later claim; a seq repeated by the other
    auction is flagged.  The violations are pinned in order."""
    def claim(tick, site):
        return {"type": "claim", "tick": tick, "site": site,
                "excavator": f"excavator_{site + 1}"}

    def dig(tick, mineral):
        return {"type": "dig", "tick": tick, "mineral": mineral, "site": 0,
                "excavator": "excavator_1"}

    records = protocol_prefix()[:2] + [
        claim(0, 0),
        msg(0, 1, "announcement", **SCOUT_2, **OPEN),
        msg(1, 2, "bid", bidder="excavator_1", utility=-10.0),
        dig(1, "m0"),
        msg(1, 2, "bid", bidder="excavator_3", utility=-3.0, **SCOUT_2),
        msg(3, 3, "bid", bidder="excavator_2", utility=-4.0),
        dig(1, "m1"),
        msg(2, 4, "bid", bidder="excavator_4", utility=-5.0, **SCOUT_2),
        claim(9, 1),
        msg(4, 5, "winner", winner="excavator_2", **OPEN),
        msg(4, 6, "winner", winner="excavator_3", **SCOUT_2, **OPEN),
        run_end("stalled"),
    ]
    assert [str(v) for v in verify_records(records)] == [
        "[sequence] sequence 2 not increasing at tick 1",
        "[sequence] publish tick went backward at seq 4"]


def key_of(auction):
    """The key an auction is filed under in its auctioneer's book."""
    return (auction.auctioneer, auction.task_location)


def test_histories_rederived_from_log_match_live_auctions(monkeypatch):
    opened, winners, live = {}, {}, []
    open_auction, select_winner = agents.open_auction, agents.select_winner
    handle_ack = agents.handle_ack

    def note_open(book, auctioneer, task_type, task_location, tick, bus):
        auction = open_auction(book, auctioneer, task_type, task_location,
                               tick, bus)
        # a key is reused only after its close
        opened[key_of(auction)], winners[key_of(auction)] = tick, []
        return auction

    def note_winner(auction, tick, bus):
        decl = select_winner(auction, tick, bus)
        if decl is not None:
            winners[key_of(auction)].append(decl["winner"])
        return decl

    def note_ack(auction, ack, tick, bus):
        result = handle_ack(auction, ack, tick, bus)
        variant = result and result["variant"]
        if variant == "winner":
            winners[key_of(auction)].append(result["winner"])
        elif variant == "close":
            live.append((auction.auctioneer, auction.task_location,
                         opened[key_of(auction)], auction.rounds,
                         winners[key_of(auction)], result["allocated_to"],
                         tick))
        return result

    monkeypatch.setattr(agents, "open_auction", note_open)
    monkeypatch.setattr(agents, "select_winner", note_winner)
    monkeypatch.setattr(agents, "handle_ack", note_ack)
    several_winners = 0
    for config in (tiny_config(seed=12, n_sites=3, n_minerals=5,
                               n_excavators=2),
                   crowded_config(policy="nearest")):
        live.clear()
        result = run_to_completion(config)
        histories = derive_auction_histories(result.log.records)
        derived = [(h.auctioneer, h.location, h.opened_tick, h.rounds,
                    h.winners, h.allocated_to, h.closed_tick)
                   for h in histories]
        assert sorted(derived) == sorted(live)
        assert all(h.closed_tick is not None for h in histories)
        several_winners += sum(len(h.winners) >= 2 for h in histories)
    assert several_winners  # some auction declared a winner more than once
