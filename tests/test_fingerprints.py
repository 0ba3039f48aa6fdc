"""Golden log fingerprints: the sha256 of `EventLog.dumps()` for fixed runs.

A change that moves one of these changes the bytes of a log.  Snapshot logs
are not pinned here.  Re-record only on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_fingerprints.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import isrusim as s
from conftest import tiny_config
from test_acceptance import DETERMINISM_CONFIGS, POLICIES

DATA = Path(__file__).parent / "data" / "log_fingerprints.json"

CASES = {f"reference/{policy}/{seed}": s.ScenarioConfig(policy=policy, seed=seed)
         for seed in range(4) for policy in POLICIES}
CASES.update((f"criterion4/{i}", config)
             for i, config in enumerate(DETERMINISM_CONFIGS))
CASES.update((f"tiny/speed{speed}",
              tiny_config(timing=s.TimingConfig(robot_speed=speed)))
             for speed in (0.7, 1.3, 2.0, 2.5))


def fingerprint(config: s.ScenarioConfig) -> str:
    return hashlib.sha256(s.run_to_completion(config).log.dumps()).hexdigest()


def test_every_case_is_recorded():
    assert sorted(json.loads(DATA.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_log_fingerprint(name):
    assert fingerprint(CASES[name]) == json.loads(DATA.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DATA.write_text(json.dumps({name: fingerprint(config)
                                for name, config in CASES.items()},
                               indent=2) + "\n")
