from collections import defaultdict
from types import SimpleNamespace

import pytest

from isrusim import (
    Policy,
    PolicyName,
    RobotKind,
    ScenarioConfig,
    TimingConfig,
    run_to_completion,
)


def tiny_config(**overrides) -> ScenarioConfig:
    """A small arena that completes in a few hundred ticks."""
    base = dict(arena_side=30.0, n_scouts=1, n_excavators=2, n_haulers=3,
                n_sites=2, n_minerals=4, seed=11, policy="fcfs", tick_cap=20_000)
    base.update(overrides)
    return ScenarioConfig(**base)


def crowded_config(**overrides) -> ScenarioConfig:
    """A 2/8/12 fleet in a 30 m arena: heavy auction traffic, and under
    nearest some robots are declared winner of several auctions at once."""
    base = dict(arena_side=30.0, n_scouts=2, n_excavators=8, n_haulers=12,
                n_sites=10, n_minerals=60, seed=0, policy="fcfs",
                tick_cap=20_000)
    base.update(overrides)
    return ScenarioConfig(**base)


def tiny_run(**overrides):
    return run_to_completion(tiny_config(**overrides))


ALT_TIMING = TimingConfig(robot_speed=2.0, dig_duration=7, load_duration=3,
                          unload_duration=2, bid_window=4,
                          win_resolution_window=1)


@pytest.fixture
def small_config() -> ScenarioConfig:
    return tiny_config()


class RunLogs(dict):
    """Event logs of finished runs, keyed by (config, snapshots)."""

    def log(self, config: ScenarioConfig, snapshots: bool = False):
        key = (config, snapshots)
        if key not in self:
            self[key] = run_to_completion(config, snapshots=snapshots).log
        return self[key]


@pytest.fixture(scope="session")
def run_logs() -> RunLogs:
    """One simulation per (config, snapshots) for the whole session, shared
    by the tests that only read a run's log: the acceptance sweep fills it
    with the 60 reference runs it times, and the log fingerprints and the
    codec's differential test read it."""
    return RunLogs()


BIDS_ON = {"scout": None, "excavator": "excavate", "hauler": "transport"}


def mail_from_log(records) -> dict[tuple[str, int], list[int]]:
    """(robot, tick) -> the sequence numbers, in order, of the messages of
    tick-1 in the log that the robot acts on: the announcements and closes
    of the task type it bids on, unless its policy lets it bid in none
    (`Policy.bid_scope` is 0: a coalition-paired hauler), the bids and acks
    sent to it as auctioneer, and the winner declarations naming it.
    Robots without mail at a tick are left out."""
    start = records[0]
    robots = start["robots"]
    policy = Policy(PolicyName(start["policy"]),
                    tuple(tuple(pair) for pair in start["coalition_pairs"]))
    bids_on = {}
    for name, kind in robots:
        if policy.bid_scope(SimpleNamespace(name=name, kind=RobotKind(kind))) != 0:
            bids_on[name] = BIDS_ON[kind]
    mail = defaultdict(list)
    for record in records:
        if record["type"] != "msg":
            continue
        variant = record["variant"]
        for name, kind in robots:
            if variant in ("announcement", "close"):
                acts_on = record["task_type"] == bids_on.get(name)
            elif variant == "winner":
                acts_on = record["winner"] == name
            else:  # bid or ack
                acts_on = record["auctioneer"] == name
            if acts_on:
                mail[name, record["tick"] + 1].append(record["seq"])
    return dict(mail)
