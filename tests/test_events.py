"""The event-log codec: same records as the per-line reference, same errors.

The reference decoder parses a file line by line with `events._decode`,
which applies the record schema.  `EventLog.load_jsonl` parses whole
batches of lines at once and must return exactly the reference's records,
or raise exactly its `LogParseError` (message and line number).
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from isrusim import EventLog, LogParseError, run_to_completion
from isrusim import events
from conftest import tiny_config
from test_fingerprints import CASES

CLAIM = '{"type":"claim","tick":1,"site":0,"excavator":"excavator_1"}'
RELEASE = '{"type":"release","tick":2,"site":0,"excavator":"excavator_1"}'


def reference(path):
    """The records of `path` decoded line by line, or the error raised."""
    with open(path) as fh:
        try:
            return [events._decode(line, n)
                    for n, line in enumerate(fh, start=1) if line.strip()]
        except LogParseError as exc:
            return exc


def loaded(path):
    try:
        return EventLog.load_jsonl(path).records
    except LogParseError as exc:
        return exc


def same_outcome(got, want) -> bool:
    if isinstance(want, LogParseError):
        return (isinstance(got, LogParseError) and str(got) == str(want)
                and got.line_number == want.line_number)
    return got == want


@pytest.mark.parametrize("name", list(CASES))
def test_load_equals_records_and_reference(tmp_path, run_logs, name):
    log = run_logs.log(*CASES[name])
    path = tmp_path / "events.jsonl"
    log.dump_jsonl(path)
    assert path.read_bytes() == log.dumps()
    assert EventLog.load_jsonl(path).records == log.records
    assert reference(path) == log.records


def test_written_records_follow_the_schema_order(run_logs):
    """Every record the simulator writes carries exactly its schema's keys,
    in schema order: "type", then `RECORD_FIELDS[type]`, then, for a
    message, `MSG_FIELDS[variant]`.  The two runs together write every
    record type and every message variant."""
    types, variants = set(), set()
    for name in ("tiny/snapshots/fcfs", "crowded/nearest"):
        for record in run_logs.log(*CASES[name]).records:
            kind = record["type"]
            keys = ["type", *events.RECORD_FIELDS[kind]]
            if kind == "msg":
                variants.add(record["variant"])
                keys += events.MSG_FIELDS[record["variant"]]
            assert list(record) == keys, record
            types.add(kind)
    assert types == set(events.RECORD_FIELDS)
    assert variants == set(events.MSG_FIELDS)


def write(tmp_path, text: str):
    path = tmp_path / "events.jsonl"
    path.write_bytes(text.encode())
    return path


def valid_lines(n: int) -> list[str]:
    return [f'{{"type":"claim","tick":{i},"site":{i},"excavator":"e"}}'
            for i in range(n)]


BATCH = events._BATCH_LINES
MALFORMED = {
    "invalid JSON": ('{"type": "msg"\n', 1),
    "not an object": (f"{CLAIM}\n[1, 2]\n", 2),
    "no type": (f'{CLAIM}\n{{"tick": 1}}\n', 2),
    "unknown type": ('{"type":"teleport","tick":1}\n', 1),
    "missing field": ('{"type":"claim","tick":1,"site":0}\n', 1),
    "msg without variant": ('{"type":"msg","tick":1}\n', 1),
    "unknown variant": ('{"type":"msg","tick":1,"seq":0,"variant":"veto",'
                        '"auctioneer":"s","loc":[0,0]}\n', 1),
    "variant field missing": ('{"type":"msg","tick":1,"seq":0,"variant":'
                              '"bid","auctioneer":"s","loc":[0,0],'
                              '"bidder":"e"}\n', 1),
    "two records, comma": (f"{CLAIM},{RELEASE}\n", 1),
    "two records, spaced comma": (f"{CLAIM} \t, {RELEASE}\n", 1),
    "two records, CRLF": (f"{CLAIM}\r\n{CLAIM} , {RELEASE}\r\n", 2),
    "split record": ('{"type":"claim","tick":1,\n"site":0,"excavator":"e"}\n',
                     1),
    # each line is invalid alone, but the joined batch is a list of 3
    # schema-valid records: only the pattern check rejects it
    "valid as a batch": (
        f"{CLAIM},{RELEASE}\n"
        '{"type":"claim","tick":3,"site":1,"excavator":"e","x":[{"y":1}\n'
        '{"z":2}]}\n', 1),
    "huge integer": ('{"type":"claim","tick":' + "9" * 5000 + "}\n", 1),
    "deep nesting": ('{"type":"claim","tick":' + "[" * 100_000 + "}\n", 1),
    "straddles a batch": (
        "\n".join(valid_lines(BATCH - 1)) + '\n{"type":"claim",\n"tick":1,'
        '"site":0,"excavator":"e"}\n', BATCH),
    "first line of a later batch": (
        "\n".join(valid_lines(BATCH)) + "\nnot json\n", BATCH + 1),
    "after blank lines, later batch": (
        "\n".join(valid_lines(BATCH + 5)) + "\n\n  \n{}\n", BATCH + 8),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_file_raises_the_reference_error(tmp_path, name):
    text, line_number = MALFORMED[name]
    path = write(tmp_path, text)
    want = reference(path)
    assert isinstance(want, LogParseError)
    assert want.line_number == line_number
    with pytest.raises(LogParseError) as caught:
        EventLog.load_jsonl(path)
    assert same_outcome(caught.value, want)


DECODES = {
    "blank and whitespace-only lines": f"\n{CLAIM}\n   \n\t\n{RELEASE}\n\n",
    "CRLF endings": f"{CLAIM}\r\n{RELEASE}\r\n",
    "no final newline": f"{CLAIM}\n{RELEASE}",
    "name holding },{": ('{"type":"claim","tick":1,"site":0,'
                         '"excavator":"a},{b"}\n' + RELEASE + "\n"),
    "extra fields": ('{"type":"claim","tick":1,"site":0,"excavator":"e",'
                     '"variant":"x","note":"kept"}\n'),
    "blank lines across batches": "\n".join(valid_lines(BATCH + 3)
                                            + [""] * 3 + valid_lines(4)),
}


@pytest.mark.parametrize("name", list(DECODES))
def test_file_decodes_like_the_reference(tmp_path, name):
    path = write(tmp_path, DECODES[name])
    want = reference(path)
    assert not isinstance(want, LogParseError), want
    assert EventLog.load_jsonl(path).records == want


def bid(utility) -> dict:
    return {"type": "msg", "tick": 1, "seq": 0, "variant": "bid",
            "auctioneer": "scout_1", "loc": [1.0, 2.0],
            "bidder": "excavator_1", "utility": utility}


def test_utility_sentinel_round_trips(tmp_path):
    log = EventLog.from_records([bid(-math.inf), bid(-2.5)])
    assert b'"utility":"-inf"' in log.dumps()
    path = tmp_path / "events.jsonl"
    log.dump_jsonl(path)
    assert path.read_bytes() == log.dumps()
    assert EventLog.load_jsonl(path).records == log.records


@pytest.mark.parametrize("record", [
    {**bid(-1.0), "cost": -math.inf},  # -inf outside `utility`
    {"type": "run_end", "odometry": {"scout_1": -math.inf}},
    bid(math.inf),
    bid(math.nan),
])
def test_other_non_finite_floats_are_rejected_on_write(record):
    with pytest.raises(ValueError):
        EventLog.from_records([record]).dumps()


# -- property: random line-level edits of a small valid log -------------------

BASE = run_to_completion(tiny_config()).log.dumps().decode().splitlines()[:40]
FRAGMENTS = ["", "  ", "{}", "[]", "1", "null", ",", "}", "{", '"type"',
             '{"type":"msg"', '{"type":"claim"}', '"tick":1}', CLAIM, RELEASE,
             f"{CLAIM},{RELEASE}", f"{CLAIM} , {RELEASE}", '{"y":1}]}',
             '{"type":"claim","tick":1,"site":0,"excavator":"e","x":[']


@st.composite
def edited_logs(draw) -> str:
    lines = list(BASE)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(
            ["insert", "delete", "join", "split", "replace", "crlf"]))
        if edit == "insert":
            lines.insert(i, draw(st.sampled_from(FRAGMENTS)))
        elif i == len(lines):
            continue
        elif edit == "delete":
            del lines[i]
        elif edit == "join" and i + 1 < len(lines):
            sep = draw(st.sampled_from([",", " , ", "", " "]))
            lines[i:i + 2] = [lines[i] + sep + lines[i + 1]]
        elif edit == "split":
            at = draw(st.integers(0, len(lines[i])))
            lines[i:i + 1] = [lines[i][:at], lines[i][at:]]
        elif edit == "replace":
            lines[i] = draw(st.sampled_from(FRAGMENTS))
        elif edit == "crlf":
            lines[i] += "\r"
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=edited_logs(), batch_lines=st.integers(1, 9))
def test_edited_logs_decode_like_the_reference(tmp_path_factory, text,
                                               batch_lines):
    path = tmp_path_factory.getbasetemp() / "edited.jsonl"
    path.write_bytes(text.encode())
    with mock.patch.object(events, "_BATCH_LINES", batch_lines):
        got = loaded(path)
    assert same_outcome(got, reference(path))
