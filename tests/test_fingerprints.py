"""Golden log fingerprints: the sha256 of `EventLog.dumps()` for the fixed
runs of `cases.CASES`.

A change that moves one of these changes the bytes of a log.  Re-record
only on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_fingerprints.py --write

Every case is checked in this process, and again in child processes: under
`python -O`, with every `assert` stripped, and under each other CPython
>= 3.10 found among the pyenv versions ($PYENV_ROOT, else ~/.pyenv), which
need no pytest to run `cases`.
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
from cases import CASES, fingerprint
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
CHILD_SCRIPT = """
import json, platform, sys
from cases import CASES, fingerprint
import isrusim as s

print(json.dumps({
    "version": platform.python_version(), "optimize": sys.flags.optimize,
    "fingerprints": {name: fingerprint(s.run_to_completion(config, snapshots=snap).log)
                     for name, (config, snap) in CASES.items()}}))
"""


def test_every_case_is_recorded():
    assert sorted(json.loads(DATA.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_log_fingerprint(run_logs, name):
    log = run_logs.log(*CASES[name])
    assert fingerprint(log) == json.loads(DATA.read_text())[name]


@pytest.fixture(scope="module")
def children():
    """Start every child at once and wait for them all: label -> the future
    of its output, which raises in the test that reads it if the child
    failed."""
    with ThreadPoolExecutor(len(CHILDREN)) as pool:
        return {label: pool.submit(run_child, CHILD_SCRIPT, *flags,
                                   executable=python)
                for label, (python, *flags) in CHILDREN.items()}


def mismatched_cases(child) -> list[str]:
    """The cases whose fingerprint in the child's output is not the
    recorded one."""
    recorded = json.loads(DATA.read_text())
    got = json.loads(child.result().stdout)["fingerprints"]
    return [name for name in recorded if got.get(name) != recorded[name]]


def test_logs_are_the_same_under_optimize(children):
    """A run under `python -O`, with every `assert` stripped, writes the
    same bytes: every case."""
    assert json.loads(children["-O"].result().stdout)["optimize"] == 1
    assert mismatched_cases(children["-O"]) == []


@pytest.mark.parametrize("version", list(OTHER_INTERPRETERS) or [
    pytest.param(None, marks=pytest.mark.skip(
        reason=f"no CPython >= 3.10 other than {platform.python_version()} "
               f"under {VERSIONS}"))])
def test_logs_are_the_same_under_other_interpreters(children, version):
    """Every case writes the same bytes under each other CPython >= 3.10
    found; the test ids name the interpreters checked."""
    assert json.loads(children[version].result().stdout)["version"] == version
    assert mismatched_cases(children[version]) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DATA.write_text(json.dumps(
        {name: fingerprint(s.run_to_completion(config, snapshots=snap).log)
         for name, (config, snap) in CASES.items()}, indent=2) + "\n")
