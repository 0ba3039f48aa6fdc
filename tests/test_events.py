"""The event-log codec: same records as the per-line reference, same errors.

The reference decoder parses a file line by line with `events._decode`,
which applies the record schema.  `EventLog.load_jsonl` parses whole
batches of lines at once and must return exactly the reference's records,
or raise exactly its `LogParseError` (message and line number).
"""

import json
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from isrusim import EventLog, LogParseError, run_to_completion
from isrusim import events
from conftest import tiny_config
from cases import CASES

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


# -- the write path: msg templates against the encoder ------------------------

def encoded(records, encode) -> bytes:
    """The log bytes of `records` with every record written by `encode`,
    the -inf utility sentinel as a string."""
    return "".join(encode(r if r.get("utility") != -math.inf
                          else {**r, "utility": "-inf"}) + "\n"
                   for r in records).encode()


@pytest.mark.parametrize("name", list(CASES))
def test_msg_templates_write_the_encoder_bytes(run_logs, monkeypatch, name):
    """Every msg record of a simulated log is written by its variant's
    template, and the log is byte for byte what `_encode_object` writes."""
    records = run_logs.log(*CASES[name]).records
    want = encoded(records, events._encode_object)
    encode = events._encode_object

    def encode_no_msg(record):
        assert record["type"] != "msg", f"msg record fell back: {record}"
        return encode(record)

    monkeypatch.setattr(events, "_encode_object", encode_no_msg)
    assert EventLog.from_records(records).dumps() == want


@pytest.mark.parametrize("name", list(CASES))
def test_pure_python_encoder_writes_the_c_encoder_bytes(run_logs, monkeypatch,
                                                        name):
    """Without the json module's C accelerator, `_encode_object` is this
    `JSONEncoder`, and it must write what the C encoder writes."""
    records = run_logs.log(*CASES[name]).records
    want = encoded(records, events._encode_object)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(json.encoder, "encode_basestring_ascii",
                        json.encoder.py_encode_basestring_ascii)
    python_encode = json.JSONEncoder(separators=(",", ":"),
                                     allow_nan=False).encode
    assert encoded(records, python_encode) == want


# few values, so that records share them and meet each other in the caches
EDGE_NUMBERS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1.5e300,
                3.0, -7.0, 0.1, 2, -3, True, False, math.nan, math.inf,
                -math.inf]
EDGE_NAMES = ["scout_1", 'say "hi"', "back\\slash", "é", "名前",
              "\x00\n\u2028", "", 7, None]
numbers = st.sampled_from(EDGE_NUMBERS) | st.floats()
names = st.sampled_from(EDGE_NAMES) | st.text(max_size=4)


@st.composite
def bids_and_announcements(draw) -> list[dict]:
    """Up to four msg records whose numbers come from one small pool.  Next
    to each number the pool holds the equal values that are written
    differently (-0.0 for 0.0, 2 for 2.0), so that they meet in the caches.
    One record may then get a tick or `loc` of a kind no simulation writes."""
    pool = draw(st.lists(numbers, min_size=1, max_size=3))
    pool += [-v for v in pool if v == 0] + [
        int(v) for v in pool if type(v) is float and v.is_integer()]
    pooled = st.sampled_from(pool)
    records = []
    for _ in range(draw(st.integers(1, 4))):
        record = {"type": "msg", "tick": draw(st.integers(0, 10**9)),
                  "seq": draw(st.integers(0, 10**9)), "variant": "bid",
                  "auctioneer": draw(names),
                  "loc": [draw(pooled), draw(pooled)]}
        if draw(st.booleans()):
            utility = pooled | st.sampled_from([-math.inf, math.inf, math.nan])
            record |= {"bidder": draw(names), "utility": draw(utility)}
        else:
            record |= {"variant": "announcement", "task_type": draw(names),
                       "status": draw(names)}
        records.append(record)
    odd = draw(st.sampled_from([None, "tick", "loc"]))
    record = draw(st.sampled_from(records))
    if odd == "tick":
        record["tick"] = draw(st.booleans() | st.integers())
    elif odd == "loc":
        pair = st.tuples(pooled, pooled)
        record["loc"] = draw(st.lists(pooled, max_size=3) | pair
                             | pair.map(dict.fromkeys))
    return records


def announcement(loc, tick=1) -> dict:
    return {"type": "msg", "tick": tick, "seq": 0, "variant": "announcement",
            "auctioneer": "scout_1", "loc": loc, "task_type": "excavate",
            "status": "open"}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(records=bids_and_announcements())
@example(records=[announcement([1.5, 0.0]), announcement([1.5, -0.0])])
@example(records=[announcement([1.0, 2.0]), announcement([1, 2]),
                  announcement([True, 2.0]), announcement((1.0, 2.0)),
                  announcement(dict.fromkeys([1.0, 2.0])),
                  announcement([1.0, 2.0], tick=True)])
@example(records=[bid(math.inf)])
@example(records=[bid(math.nan)])
def test_templates_write_what_the_encoder_writes(records):
    """Template and encoder give the same bytes, or both raise ValueError
    (a non-finite float other than the utility sentinel)."""
    try:
        want = encoded(records, events._encode_object)
    except ValueError:
        with pytest.raises(ValueError):
            EventLog.from_records(records).dumps()
    else:
        assert EventLog.from_records(records).dumps() == want


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


BAD_BYTE = b'{"type":"claim","tick":1,"site":0,"excavator":"\xff"}'
NOT_UTF8 = {
    "bad byte in the first batch": (
        f"{CLAIM}\n".encode() + BAD_BYTE + b"\n\xfe\n", 2),
    "bad byte beyond the first batch": (
        ("\n".join(valid_lines(BATCH + 1)) + "\n").encode() + BAD_BYTE, BATCH + 2),
    "bare CR line ends": (f"{CLAIM}\r{RELEASE}\r".encode() + BAD_BYTE, 3),
    "sequence cut off at the end": (
        f"{CLAIM}\n{RELEASE}\n".encode() + b'{"type":"\xe2\x82', 3),
}


@pytest.mark.parametrize("name", list(NOT_UTF8))
def test_file_not_in_utf8_names_its_first_bad_line(tmp_path, name):
    data, line_number = NOT_UTF8[name]
    path = tmp_path / "events.jsonl"
    path.write_bytes(data)
    with pytest.raises(LogParseError,
                       match=f"^line {line_number}: invalid UTF-8") as caught:
        EventLog.load_jsonl(path)
    assert caught.value.line_number == line_number


def test_non_ascii_utf8_decodes(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_bytes('{"type":"claim","tick":1,"site":0,"excavator":"é"}\n'
                     .encode("utf-8"))
    assert EventLog.load_jsonl(path).records[0]["excavator"] == "é"
