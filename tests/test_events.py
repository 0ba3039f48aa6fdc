"""The event-log codec: same records as the per-line reference, same errors.

The reference decoder parses a file line by line with `events._decode`,
which applies the record schema.  `EventLog.load_jsonl` builds a msg line's
record from its tail, parsed once per distinct tail, and parses the other
lines of a batch at once; it must return exactly the reference's records,
or raise exactly its `LogParseError` (message and line number).
"""

import copy
import gc
from collections import Counter
import json
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from isrusim import (EventLog, LogParseError, collect_metrics,
                     run_to_completion, verify_records)
from isrusim import events
from isrusim.events import MSG_FIELDS
from conftest import tiny_config
from cases import CASES

CLAIM = '{"type":"claim","tick":1,"site":0,"excavator":"excavator_1"}'
RELEASE = '{"type":"release","tick":2,"site":0,"excavator":"excavator_1"}'
# a msg line as the writer splits it: its head, then its tail
HEAD = '{"type":"msg","tick":1,"seq":2,'
BID_TAIL = ('"variant":"bid","auctioneer":"scout_1","loc":[1.0,2.0],'
            '"bidder":"excavator_1","utility":-2.5}')


def msg_line(tick="1", seq="2", tail=BID_TAIL) -> str:
    return f'{{"type":"msg","tick":{tick},"seq":{seq},{tail}'


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
    """The same error, or the same records with their keys in the same
    order, which `==` on dicts does not compare."""
    if isinstance(want, LogParseError):
        return (isinstance(got, LogParseError) and str(got) == str(want)
                and got.line_number == want.line_number)
    return got == want and [list(r) for r in got] == [list(r) for r in want]


@pytest.mark.parametrize("name", list(CASES))
def test_load_equals_records_and_reference(tmp_path, run_logs, name):
    log = run_logs.log(*CASES[name])
    path = tmp_path / "events.jsonl"
    log.dump_jsonl(path)
    assert path.read_bytes() == log.dumps()
    records = EventLog.load_jsonl(path).records
    assert same_outcome(records, log.records)
    assert reference(path) == log.records
    assert EventLog.from_records(records).dumps() == path.read_bytes()


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


@pytest.mark.parametrize("n", [0, 2 * events._BATCH_LINES + 1])
def test_dump_writes_the_bytes_of_dumps_across_batches(tmp_path, n):
    records = [json.loads(line) for line in valid_lines(n)]
    log = EventLog.from_records(records)
    path = tmp_path / "events.jsonl"
    log.dump_jsonl(path)
    want = "".join(f"{line}\n" for line in valid_lines(n)).encode()
    assert log.dumps() == path.read_bytes() == want
    assert [p.name for p in tmp_path.iterdir()] == ["events.jsonl"]


@pytest.mark.parametrize("name", ["crowded/nearest", "tiny/snapshots/fcfs"])
def test_batch_size_does_not_change_the_bytes(run_logs, name):
    log = run_logs.log(*CASES[name])
    want = log.dumps()
    with mock.patch.object(events, "_BATCH_LINES", 7):
        assert log.dumps() == want


@pytest.mark.parametrize("existing", [None, b"an earlier log\n"])
def test_failed_dump_keeps_the_file_as_it_was(tmp_path, existing):
    """The bad record comes after a whole batch, so part of the log was
    written before the encoder failed."""
    records = [json.loads(line) for line in valid_lines(events._BATCH_LINES)]
    path = tmp_path / "events.jsonl"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(ValueError):
        EventLog.from_records(records + [bid(math.inf)]).dump_jsonl(path)
    assert list(tmp_path.iterdir()) == ([path] if existing else [])
    if existing:
        assert path.read_bytes() == existing


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
    # msg lines whose head or tail the tail cache must refuse
    "tick with a leading zero": (f"{msg_line()}\n{msg_line(tick='01')}\n", 2),
    "seq with a leading zero": (f"{msg_line(seq='00')}\n", 1),
    "huge tick in a msg head": (f"{msg_line()}\n{msg_line('9' * 5000)}\n", 2),
    "empty tail": (f"{msg_line()}\n{HEAD}}}\n", 2),
    "blank tail": (f"{HEAD} }}\n", 1),
    "tail turns the record into a claim": (
        f'{msg_line()}\n{HEAD}"type":"claim",{BID_TAIL}\n', 2),
    "data after the tail's object": (f"{msg_line()}\n{msg_line()} 1\n", 2),
    "record after the tail's object": (
        f"{msg_line()}\n{msg_line()} , {CLAIM}\n", 2),
    "list variant": (msg_line(tail=BID_TAIL.replace('"bid"', '["bid"]')), 1),
    "number variant": (msg_line(tail=BID_TAIL.replace('"bid"', "5")), 1),
    "tail lacks a variant field": (
        msg_line(tail=BID_TAIL.replace(',"utility":-2.5', "")), 1),
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
    # msg lines: the tail cache's records, or the refused ones', must be the
    # reference's
    "tick and seq of -0": f"{msg_line('-0', '-0')}\n{msg_line()}\n",
    "18- and 19-digit ticks and seqs": "\n".join(
        msg_line(tick, seq) for tick, seq in [
            ("9" * 18, "-" + "9" * 18), ("1" + "0" * 18, "3"),
            ("5", "-" + "9" * 19), ("7", "9" * 40)]),
    "tail repeats tick and seq": f'{msg_line()}\n{HEAD}"tick":5,"seq":6,'
                                 f'{BID_TAIL}\n',
    "tail repeats type, a whole claim": (
        f'{msg_line()}\n{HEAD}"type":"claim","site":0,"excavator":"e",'
        f'{BID_TAIL}\n'),
    "space after the head": f"{HEAD} {BID_TAIL}\n{HEAD}\t{BID_TAIL} \r\n",
    # a line read as text ends in \n, whatever ended it in the file, so
    # one tail is cached for all of these
    "msg lines ending in CRLF, LF and CR": (
        f"{msg_line(1, 2)}\r\n{msg_line(1, 3)}\n{msg_line(2, 4)}\r"
        f"{msg_line(2, 5)}\r\n"),
    "-inf utility": "\n".join(
        [msg_line(tail=BID_TAIL.replace("-2.5", '"-inf"'))] * 2 + [msg_line(
            tail='"variant":"close","auctioneer":"s","loc":[1,2],'
                 '"task_type":"t","status":"s","allocated_to":"e",'
                 '"utility":"-inf"}')]),
    "repeated tails, other lines between": "\n".join(
        [msg_line(n, n + 1) for n in range(3)] + [CLAIM]
        + [msg_line(n, n + 1) for n in range(3, 6)]),
    # read in batches of 5 lines (`DECODE_BATCH_LINES`), so that each batch
    # mixes msg lines built from their tails with lines parsed as a batch
    "other lines first, last and between msg lines": "\n".join(
        [CLAIM, msg_line(1, 2), msg_line(1, 3), RELEASE, msg_line(2, 4),
         msg_line(2, 5), CLAIM, msg_line(3, 6), msg_line(3, 7), RELEASE]),
    "refused tails between accepted ones": "\n".join(
        [msg_line(1, 2), f'{HEAD}"tick":5,"seq":6,{BID_TAIL}', msg_line(1, 3),
         f'{HEAD}"type":"claim","site":0,"excavator":"e",{BID_TAIL}',
         msg_line(2, 4), msg_line(2, 5), f'{HEAD}"type":"msg",{BID_TAIL}',
         msg_line(3, 6)]),
}
DECODE_BATCH_LINES = {"other lines first, last and between msg lines": 5,
                      "refused tails between accepted ones": 5}


@pytest.mark.parametrize("name", list(DECODES))
def test_file_decodes_like_the_reference(tmp_path, monkeypatch, name):
    monkeypatch.setattr(events, "_BATCH_LINES",
                        DECODE_BATCH_LINES.get(name, BATCH))
    path = write(tmp_path, DECODES[name])
    want = reference(path)
    assert not isinstance(want, LogParseError), want
    assert same_outcome(loaded(path), want)


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


def refuse_msg_fallback(monkeypatch):
    """Make `_encode_object` fail on a msg record: its writer must write it."""
    encode = events._encode_object

    def encode_no_msg(record):
        assert record["type"] != "msg", f"msg record fell back: {record}"
        return encode(record)

    monkeypatch.setattr(events, "_encode_object", encode_no_msg)


@pytest.mark.parametrize("name", list(CASES))
def test_msg_templates_write_the_encoder_bytes(run_logs, monkeypatch, name):
    """Every msg record of a simulated log is written by its variant's
    template, and the log is byte for byte what `_encode_object` writes."""
    records = run_logs.log(*CASES[name]).records
    want = encoded(records, events._encode_object)
    refuse_msg_fallback(monkeypatch)
    assert EventLog.from_records(records).dumps() == want


def test_the_name_writers_follow_the_table(monkeypatch):
    """A field added to a name-only variant of `MSG_FIELDS` is written by
    that variant's writer, rebuilt from the table, as `_encode_object`
    writes it."""
    monkeypatch.setattr(events, "MSG_FIELDS",
                        {**MSG_FIELDS, "ack": MSG_FIELDS["ack"] + ("note",)})
    monkeypatch.setattr(events, "_MSG_TAILS", events._msg_tails())
    records = [{**named_alike("ack"), "note": 'say "hi"'}]
    want = encoded(records, events._encode_object)
    refuse_msg_fallback(monkeypatch)
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


class Name(str):
    """A `str` subclass; the encoder writes its characters."""


# a small pool per example, so that records repeat their names and locs and
# meet the batch's tail cache
CACHE_NAMES = ["scout_1", "excavator_1", 'say "hi"', "back\\slash", "é",
               "名前", "\x00\n\u2028", "", Name("scout_1"), Name("é"),
               ["scout_1"], 7]
CACHE_COORDS = [30.0747930940873, 1.5, 0.0, -0.0, math.inf, 1e-310]
UTILITIES = [-math.inf, -0.0, 0.0, -2.5, -1e-300, -3]
LOC_KINDS = ["shared", "shared", "equal copy", "tuple"]
VARIANTS = list(MSG_FIELDS) + ["bid", "bid"]  # bids are most of a log


def shared_loc(records: list[dict]) -> list[dict]:
    """`records`, all holding the first one's `loc` list, as the records of
    one auction do."""
    for record in records:
        record["loc"] = records[0]["loc"]
    return records


def named_alike(variant: str) -> dict:
    """A msg record of `variant` whose every name is "n": records of two
    variants with as many fields differ only in their variant."""
    return {"type": "msg", "tick": 1, "seq": 0, "variant": variant,
            "auctioneer": "n", "loc": [1.0, 2.0],
            **dict.fromkeys(MSG_FIELDS[variant], "n")}


@st.composite
def msg_records(draw) -> list[dict]:
    """Msg records of every variant drawn from small pools of names, `loc`
    lists and utilities.  A record's `loc` is one of the pool's lists, shared
    with the records that drew it, an equal-valued list of its own, or a
    tuple; now and then a record gets a `bool` tick or another variant's
    name."""
    def pool(values, size):
        return st.sampled_from(draw(st.lists(values, min_size=1,
                                             max_size=size)))

    names = pool(st.sampled_from(CACHE_NAMES), 2)
    utilities = draw(st.lists(st.sampled_from(UTILITIES), min_size=1,
                              max_size=3)) + draw(st.lists(st.floats(),
                                                           max_size=1))
    utilities = st.sampled_from(utilities + [-u for u in utilities if u == 0])
    coords = st.sampled_from(CACHE_COORDS) | st.floats(1, 100)
    locs = draw(st.lists(st.lists(coords, min_size=2, max_size=2),
                         min_size=1, max_size=2))
    records = []
    for seq in range(draw(st.integers(1, 16))):
        variant = draw(st.sampled_from(VARIANTS))
        loc = draw(st.sampled_from(locs))
        kind = draw(st.sampled_from(LOC_KINDS))
        if kind != "shared":
            loc = list(loc) if kind == "equal copy" else tuple(loc)
        record = {"type": "msg", "tick": seq // 3, "seq": seq,
                  "variant": variant, "auctioneer": draw(names), "loc": loc}
        for field in MSG_FIELDS[variant]:
            record[field] = draw(utilities if field == "utility" else names)
        odd = draw(st.integers(0, 19))
        if odd == 0:
            record["tick"] = True
        elif odd == 1:
            record["variant"] = draw(st.sampled_from(list(MSG_FIELDS)))
        records.append(record)
    return records


@pytest.mark.parametrize("variant", list(MSG_FIELDS))
def test_a_str_subclass_name_is_written_by_its_writer(monkeypatch, variant):
    """The writers escape a `str` subclass's characters, as the encoder
    does, so a record named by one does not fall back to the encoder."""
    record = {**named_alike(variant), "auctioneer": Name("scout_1")}
    for field in MSG_FIELDS[variant]:
        record[field] = -2.5 if field == "utility" else Name('say "é"')
    want = encoded([record], events._encode_object)
    refuse_msg_fallback(monkeypatch)
    assert EventLog.from_records([record]).dumps() == want


@settings(max_examples=400, derandomize=True, deadline=None)
@given(records=msg_records(), batch_lines=st.integers(1, 5))
@example(records=shared_loc([bid(0.0), bid(-0.0), bid(-math.inf),
                             bid(-0.0)]), batch_lines=4)
@example(records=shared_loc([named_alike(v) for v in MSG_FIELDS
                             if v != "bid"]), batch_lines=4)
def test_cached_tails_write_what_the_encoder_writes(records, batch_lines):
    """Across batch boundaries, with tails shared by a `loc` list and names
    or only equal to another record's, `dumps` writes what `_encode_object`
    writes for each record, or both raise ValueError."""
    with mock.patch.object(events, "_BATCH_LINES", batch_lines):
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
             '{"type":"claim","tick":1,"site":0,"excavator":"e","x":[',
             msg_line(), msg_line("01"), msg_line("-0", "-0"),
             msg_line("9" * 19), msg_line(seq="1" * 30), f"{HEAD}}}",
             f"{HEAD} }}", f'{HEAD}"type":"claim",{BID_TAIL}',
             f'{HEAD}"seq":9,{BID_TAIL}', f"{HEAD} {BID_TAIL}",
             f"{msg_line()} {{}}", f"{msg_line()},{CLAIM}",
             msg_line(tail=BID_TAIL.replace("-2.5", '"-inf"')),
             msg_line(tail=BID_TAIL.replace('"bid"', '["bid"]')),
             msg_line(tail=BID_TAIL.replace('"bid"', "1"))]


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


def test_a_leading_bom_is_reported_as_json_loads_reports_it(tmp_path):
    path = write(tmp_path, f"\ufeff{CLAIM}\n")
    with pytest.raises(LogParseError, match=r"^line 1: invalid JSON "
                       r"\(Unexpected UTF-8 BOM \(decode using utf-8-sig\)\)$"):
        EventLog.load_jsonl(path)


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


LOADS = {
    "clean": (f"{CLAIM}\n{RELEASE}\n".encode(), None),
    "msg lines only": (f"{msg_line()}\n{msg_line(2, 3)}\n".encode(), None),
    "line by line": (f"{CLAIM}\n\n{RELEASE}\n".encode(), None),
    "malformed": (f"{CLAIM}\nnot json\n".encode(), "line 2: invalid JSON"),
    # the file is read in blocks: a bad byte near the end of the first
    # batch would fail that batch's read
    "not UTF-8": (("\n".join(valid_lines(2 * BATCH)) + "\n").encode()
                  + BAD_BYTE, f"line {2 * BATCH + 1}: invalid UTF-8"),
}


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("name", list(LOADS))
def test_load_pauses_the_collector_and_leaves_it_as_found(
        tmp_path, monkeypatch, name, collecting):
    """Records are decoded with the cyclic collector paused, and the load,
    clean or not, leaves the collector on or off as it found it."""
    data, error = LOADS[name]
    path = tmp_path / "events.jsonl"
    path.write_bytes(data)
    seen = []
    for decoder in ("_decode_batch", "_decode", "_tail_fields"):
        def decode(*args, _decode=getattr(events, decoder)):
            seen.append(gc.isenabled())
            return _decode(*args)
        monkeypatch.setattr(events, decoder, decode)
    was_on = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if error is None:
            EventLog.load_jsonl(path)
        else:
            with pytest.raises(LogParseError, match=f"^{error}"):
                EventLog.load_jsonl(path)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_on else gc.disable)()
    assert seen and not any(seen)


def test_each_distinct_tail_is_parsed_once(tmp_path, run_logs, monkeypatch):
    """A log's msg lines are decoded from their tails, each tail parsed
    once for the whole read of several batches, while the cache holds them
    all."""
    monkeypatch.setattr(events, "_BATCH_LINES", 500)
    path = tmp_path / "events.jsonl"
    run_logs.log(*CASES["crowded/nearest"]).dump_jsonl(path)
    lines = path.read_text().splitlines(keepends=True)
    tails = {line[line.index('"variant"'):] for line in lines
             if line.startswith('{"type":"msg"')}
    assert len(tails) < events._BATCH_LINES < len(lines) - len(tails)
    parsed = []
    tail_fields = events._tail_fields
    monkeypatch.setattr(events, "_tail_fields",
                        lambda tail: parsed.append(tail) or tail_fields(tail))
    assert EventLog.load_jsonl(path).records == reference(path)
    assert sorted(parsed) == sorted(tails)


def test_tail_cache_is_bounded(tmp_path, monkeypatch):
    """With every tail distinct, the cache is emptied each time it holds
    `_BATCH_LINES` tails, and never holds more; the records are the
    reference's."""
    tails = [BID_TAIL.replace("-2.5", f"-{n}.5") for n in range(9)]
    path = write(tmp_path, "".join(f"{msg_line(n, n, tail)}\n"
                                   for n, tail in enumerate(tails)))
    sizes = []

    class Tails(events._Tails):
        def __setitem__(self, tail, fields):
            super().__setitem__(tail, fields)
            sizes.append(len(self))

    monkeypatch.setattr(events, "_Tails", Tails)
    monkeypatch.setattr(events, "_BATCH_LINES", 2)
    assert EventLog.load_jsonl(path).records == reference(path)
    assert sizes == [1, 2] * 4 + [1]


def test_records_with_one_tail_are_records_of_their_own(tmp_path, run_logs):
    """Records built from one tail are distinct dicts: setting one's tick
    changes no other record, and the next load of the file gives the
    reference's records again."""
    path = tmp_path / "events.jsonl"
    run_logs.log(*CASES["crowded/nearest"]).dump_jsonl(path)
    want = reference(path)
    records = EventLog.load_jsonl(path).records
    assert len({id(record) for record in records}) == len(records)
    tails = [line.partition('"variant"')[2]
             for line in path.read_text().splitlines()]
    (tail, _), = Counter(filter(None, tails)).most_common(1)
    alike = [n for n, t in enumerate(tails) if t == tail]
    assert len({records[n]["tick"] for n in alike}) > 1
    records[alike[0]]["tick"] = -1
    assert [records[n] for n in alike[1:]] == [want[n] for n in alike[1:]]
    assert same_outcome(loaded(path), want)


def test_reading_a_log_changes_no_decoded_record(tmp_path, run_logs):
    """Records with one tail share its values, one `loc` list among them,
    so a change to one record would change others: verify and metrics
    leave every decoded record as it was."""
    path = tmp_path / "events.jsonl"
    run_logs.log(*CASES["crowded/nearest"]).dump_jsonl(path)
    records = EventLog.load_jsonl(path).records
    before = copy.deepcopy(records)
    verify_records(records)
    collect_metrics(records)
    assert records == before
