"""Golden log fingerprints: the sha256 of `EventLog.dumps()` for the fixed
runs of `cases.CASES`.

A change that moves one of these changes the bytes of a log.  Re-record
only on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_fingerprints.py --write

Every case is checked in this process, and again in child processes: under
`python -O`, with every `assert` stripped, without the json module's C
accelerator, and under each other CPython >= 3.10 found among the pyenv
versions ($PYENV_ROOT, else ~/.pyenv), which need no pytest to run `cases`.
Each child runs under its own fixed `PYTHONHASHSEED`, so every case is also
checked under other string hashes, and each child also writes every case's
log to a file, checks that `load_jsonl` reads back the run's records, which
must write the file's bytes again, and reads them with both log readers,
`verify_records` and `collect_metrics`, whose results must be this
process's.
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
from cases import CASES, POLICIES, fingerprint, readings
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
CHILD_SCRIPT = """
import json, os, platform, sys, tempfile
from pathlib import Path
from cases import CASES, fingerprint, readings
import isrusim as s

fingerprints, loads_back, read = {}, {}, {}
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "events.jsonl"
    for name, (config, snap) in CASES.items():
        log = s.run_to_completion(config, snapshots=snap).log
        fingerprints[name] = fingerprint(log)
        log.dump_jsonl(path)
        records = s.EventLog.load_jsonl(path).records
        loads_back[name] = (records == log.records and
                            s.EventLog.from_records(records).dumps()
                            == path.read_bytes())
        read[name] = readings(records)
print(json.dumps({
    "version": platform.python_version(), "optimize": sys.flags.optimize,
    "hash_seed": os.environ.get("PYTHONHASHSEED"),
    "c_json": (json.encoder.c_make_encoder is not None
               or json.scanner.c_make_scanner is not None),
    "fingerprints": fingerprints, "loads_back": loads_back, "read": read}))
"""
# The child script with the json module's C accelerator blocked, so that
# every log is written and read by its pure-Python encoder and decoder.
NO_C_JSON_SCRIPT = 'import sys\nsys.modules["_json"] = None\n' + CHILD_SCRIPT
# label -> the interpreter, flags and script of the one child that checks
# every case
CHILDREN = {"-O": (sys.executable, ("-O",), CHILD_SCRIPT),
            **{version: (python, (), CHILD_SCRIPT)
               for version, python in OTHER_INTERPRETERS.items()},
            "no _json": (sys.executable, (), NO_C_JSON_SCRIPT)}
# label -> the hash seed of its child: a distinct one each, none of them the
# random default of this process
HASH_SEEDS = {label: str(i) for i, label in enumerate(CHILDREN, start=1)}


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
        return {label: pool.submit(run_child, script, *flags,
                                   executable=python,
                                   PYTHONHASHSEED=HASH_SEEDS[label])
                for label, (python, flags, script) in CHILDREN.items()}


def child_output(children, label) -> dict:
    """The output of the child `label`, which ran under its hash seed."""
    output = json.loads(children[label].result().stdout)
    assert output["hash_seed"] == HASH_SEEDS[label]
    return output


@pytest.fixture(scope="module")
def read_here(run_logs) -> dict[str, list]:
    """Case -> what the log readers of this process make of its log."""
    return {name: readings(run_logs.log(*case).records)
            for name, case in CASES.items()}


def mismatched_cases(output, read_here) -> list[str]:
    """The cases whose fingerprint in a child's output is not the recorded
    one, whose written log the child did not load back as its records (or
    whose loaded records do not write the file's bytes again), or whose
    loaded log the child's readers read otherwise than this process's."""
    recorded = json.loads(DATA.read_text())
    got, loads_back = output["fingerprints"], output["loads_back"]
    return [name for name in recorded
            if got.get(name) != recorded[name] or not loads_back.get(name)
            or output["read"].get(name) != read_here[name]]


def test_logs_are_the_same_under_optimize(children, read_here):
    """A run under `python -O`, with every `assert` stripped, writes the
    same bytes, reads them back as its records and reads them with this
    process's verdicts and metrics: every case."""
    output = child_output(children, "-O")
    assert output["optimize"] == 1
    assert mismatched_cases(output, read_here) == []


def test_logs_are_the_same_without_the_c_json_accelerator(children,
                                                          read_here):
    """With the `_json` module blocked, the logs are written through the
    pure-Python `encode_basestring_ascii` and `JSONEncoder` and read by the
    pure-Python decoder: every case gives the same bytes, records, verdicts
    and metrics."""
    output = child_output(children, "no _json")
    assert output["c_json"] is False
    assert mismatched_cases(output, read_here) == []


@pytest.mark.parametrize("version", list(OTHER_INTERPRETERS) or [
    pytest.param(None, marks=pytest.mark.skip(
        reason=f"no CPython >= 3.10 other than {platform.python_version()} "
               f"under {VERSIONS}"))])
def test_logs_are_the_same_under_other_interpreters(children, read_here,
                                                   version):
    """Every case writes the same bytes, reads them back as its records,
    and reads them with this process's verdicts and metrics, under each
    other CPython >= 3.10 found; the test ids name the interpreters
    checked."""
    output = child_output(children, version)
    assert output["version"] == version
    assert mismatched_cases(output, read_here) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DATA.write_text(json.dumps(
        {name: fingerprint(s.run_to_completion(config, snapshots=snap).log)
         for name, (config, snap) in CASES.items()}, indent=2) + "\n")
