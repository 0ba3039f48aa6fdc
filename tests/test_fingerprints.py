"""Golden log fingerprints: the sha256 of `EventLog.dumps()` for the fixed
runs of `cases.CASES`.

A change that moves one of these changes the bytes of a log.  Re-record
only on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_fingerprints.py --write

Every case is checked in this process, and again in child processes: under
`python -O`, with every `assert` stripped, and under each other CPython
>= 3.10 found among the pyenv versions ($PYENV_ROOT, else ~/.pyenv), which
need no pytest to run `cases`.  Each child runs under its own fixed
`PYTHONHASHSEED`, so every case is also checked under other string hashes.
"""

import json
import os
import platform
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import isrusim as s
from cases import CASES, POLICIES, fingerprint
from isrusim.auction import Auction
from test_engine import run_child

DATA = Path(__file__).parent / "data" / "log_fingerprints.json"
VERSIONS = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"


def other_interpreters() -> dict[str, str]:
    """Version -> executable of each CPython >= 3.10 among the pyenv
    versions, other than the running version."""
    found = {}
    for python in sorted(VERSIONS.glob("*/bin/python3")):
        version = python.parents[1].name
        match = re.fullmatch(r"3\.(\d+)\.\d+", version)
        if (match and int(match[1]) >= 10
                and version != platform.python_version()):
            found[version] = str(python)
    return found


OTHER_INTERPRETERS = other_interpreters()
# label -> the interpreter and flags of the one child that checks every case
CHILDREN = {"-O": (sys.executable, "-O"),
            **{version: (python,) for version, python in OTHER_INTERPRETERS.items()}}
# label -> the hash seed of its child: a distinct one each, none of them the
# random default of this process
HASH_SEEDS = {label: str(i) for i, label in enumerate(CHILDREN, start=1)}
CHILD_SCRIPT = """
import json, os, platform, sys
from cases import CASES, fingerprint
import isrusim as s

print(json.dumps({
    "version": platform.python_version(), "optimize": sys.flags.optimize,
    "hash_seed": os.environ.get("PYTHONHASHSEED"),
    "fingerprints": {name: fingerprint(s.run_to_completion(config, snapshots=snap).log)
                     for name, (config, snap) in CASES.items()}}))
"""


def test_every_case_is_recorded():
    assert sorted(json.loads(DATA.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_log_fingerprint(run_logs, name):
    log = run_logs.log(*CASES[name])
    assert fingerprint(log) == json.loads(DATA.read_text())[name]


class FrozenLoc(list):
    """A `loc` list that refuses every change."""

    def _refuse(self, *args):
        raise TypeError("a message's loc list was changed")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse


@pytest.mark.parametrize("policy", POLICIES)
def test_no_record_of_an_auction_changes_its_loc(monkeypatch, policy):
    """Every record of an auction holds its one `loc` list, so a robot that
    changed the location of a record it received would change the whole
    auction's.  With each auction's list refusing every change, a crowded
    run under each policy still writes its pinned bytes."""
    post_init = Auction.__post_init__

    def frozen_loc(auction):
        post_init(auction)
        auction.loc = FrozenLoc(auction.loc)

    monkeypatch.setattr(Auction, "__post_init__", frozen_loc)
    name = f"crowded/{policy}"
    log = s.run_to_completion(*CASES[name]).log
    assert all(type(r["loc"]) is FrozenLoc
               for r in log.records if r["type"] == "msg")
    assert fingerprint(log) == json.loads(DATA.read_text())[name]


@pytest.fixture(scope="module")
def children():
    """Start every child at once, each under its own hash seed, and wait
    for them all: label -> the future of its output, which raises in the
    test that reads it if the child failed."""
    with ThreadPoolExecutor(len(CHILDREN)) as pool:
        return {label: pool.submit(run_child, CHILD_SCRIPT, *flags,
                                   executable=python,
                                   PYTHONHASHSEED=HASH_SEEDS[label])
                for label, (python, *flags) in CHILDREN.items()}


def child_output(children, label) -> dict:
    """The output of the child `label`, which ran under its hash seed."""
    output = json.loads(children[label].result().stdout)
    assert output["hash_seed"] == HASH_SEEDS[label]
    return output


def mismatched_cases(output) -> list[str]:
    """The cases whose fingerprint in a child's output is not the recorded
    one."""
    recorded = json.loads(DATA.read_text())
    got = output["fingerprints"]
    return [name for name in recorded if got.get(name) != recorded[name]]


def test_logs_are_the_same_under_optimize(children):
    """A run under `python -O`, with every `assert` stripped, writes the
    same bytes: every case."""
    output = child_output(children, "-O")
    assert output["optimize"] == 1
    assert mismatched_cases(output) == []


@pytest.mark.parametrize("version", list(OTHER_INTERPRETERS) or [
    pytest.param(None, marks=pytest.mark.skip(
        reason=f"no CPython >= 3.10 other than {platform.python_version()} "
               f"under {VERSIONS}"))])
def test_logs_are_the_same_under_other_interpreters(children, version):
    """Every case writes the same bytes under each other CPython >= 3.10
    found; the test ids name the interpreters checked."""
    output = child_output(children, version)
    assert output["version"] == version
    assert mismatched_cases(output) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DATA.write_text(json.dumps(
        {name: fingerprint(s.run_to_completion(config, snapshots=snap).log)
         for name, (config, snap) in CASES.items()}, indent=2) + "\n")
