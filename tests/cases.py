"""The fixed runs whose logs the tests pin, and the configs they are built
from.  This module imports no pytest, so an interpreter without it (another
CPython, a child under `python -O`) can run every case.

`CASES` maps each name in `data/log_fingerprints.json` to (config, whether
the log carries per-tick snapshots); `fingerprint` is the sha256 pinned
there.  Pinned: the reference scenario (seeds 0-19, the whole acceptance
sweep), the determinism configs, the tiny config at several robot speeds, a
crowded fleet under every policy (nearest declares some robots winner of
several auctions in one tick), and `--snapshots` logs of the tiny config
under every policy.
"""

import hashlib

import isrusim as s

POLICIES = ("fcfs", "coalition", "nearest")


def tiny_config(**overrides) -> s.ScenarioConfig:
    """A small arena that completes in a few hundred ticks."""
    base = dict(arena_side=30.0, n_scouts=1, n_excavators=2, n_haulers=3,
                n_sites=2, n_minerals=4, seed=11, policy="fcfs", tick_cap=20_000)
    base.update(overrides)
    return s.ScenarioConfig(**base)


def crowded_config(**overrides) -> s.ScenarioConfig:
    """A 2/8/12 fleet in a 30 m arena: heavy auction traffic, and under
    nearest some robots are declared winner of several auctions at once."""
    base = dict(arena_side=30.0, n_scouts=2, n_excavators=8, n_haulers=12,
                n_sites=10, n_minerals=60, seed=0, policy="fcfs",
                tick_cap=20_000)
    base.update(overrides)
    return s.ScenarioConfig(**base)


# The off-default configs of acceptance criterion 4.
DETERMINISM_CONFIGS = (
    s.ScenarioConfig(policy="fcfs", seed=3),
    s.ScenarioConfig(policy="coalition", seed=7),
    s.ScenarioConfig(policy="nearest", seed=13),
    s.ScenarioConfig(arena_side=30.0, n_scouts=1, n_excavators=2,
                     n_haulers=3, n_sites=2, n_minerals=4, seed=1,
                     policy="coalition",
                     robot_speed=2.0, dig_duration=7, load_duration=3,
                     unload_duration=2, bid_window=4),
    s.ScenarioConfig(arena_side=30.0, n_scouts=1, n_excavators=2,
                     n_haulers=3, n_sites=3, n_minerals=5, seed=2,
                     policy="nearest"),
)

CASES = {f"reference/{policy}/{seed}":
         (s.ScenarioConfig(policy=policy, seed=seed), False)
         for seed in range(20) for policy in POLICIES}
CASES.update((f"criterion4/{i}", (config, False))
             for i, config in enumerate(DETERMINISM_CONFIGS))
CASES.update((f"tiny/speed{speed}",
              (tiny_config(robot_speed=speed), False))
             for speed in (0.7, 1.3, 2.0, 2.5))
CASES.update((f"crowded/{policy}", (crowded_config(policy=policy), False))
             for policy in POLICIES)
CASES.update((f"tiny/snapshots/{policy}", (tiny_config(policy=policy), True))
             for policy in POLICIES)


def fingerprint(log: s.EventLog) -> str:
    return hashlib.sha256(log.dumps()).hexdigest()
