"""Golden log fingerprints: the sha256 of `EventLog.dumps()` for fixed runs.

A change that moves one of these changes the bytes of a log.  Pinned: the
reference scenario (seeds 0-19, the whole acceptance sweep), the
determinism configs, the tiny config at several robot speeds, a crowded
fleet under every policy (nearest declares some robots winner of several
auctions in one tick), and `--snapshots` logs of the tiny config under
every policy.  Re-record only on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_fingerprints.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import isrusim as s
from conftest import crowded_config, tiny_config
from test_acceptance import DETERMINISM_CONFIGS, POLICIES
from test_engine import run_child

DATA = Path(__file__).parent / "data" / "log_fingerprints.json"

# name -> (config, whether the log carries per-tick snapshots)
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


def test_every_case_is_recorded():
    assert sorted(json.loads(DATA.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_log_fingerprint(run_logs, name):
    log = run_logs.log(*CASES[name])
    assert fingerprint(log) == json.loads(DATA.read_text())[name]


def test_logs_are_the_same_under_optimize():
    """A run under `python -O`, with every `assert` stripped, writes the
    same bytes: one reference case per policy."""
    names = [f"reference/{policy}/0" for policy in POLICIES]
    script = f"""
import sys
from test_fingerprints import CASES, fingerprint
import isrusim as s

if sys.flags.optimize != 1:
    sys.exit("not running under -O")
for name in {names!r}:
    config, snapshots = CASES[name]
    print(fingerprint(s.run_to_completion(config, snapshots=snapshots).log))
"""
    recorded = json.loads(DATA.read_text())
    assert run_child(script, "-O").stdout.split() == [recorded[n] for n in names]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DATA.write_text(json.dumps(
        {name: fingerprint(s.run_to_completion(config, snapshots=snap).log)
         for name, (config, snap) in CASES.items()}, indent=2) + "\n")
