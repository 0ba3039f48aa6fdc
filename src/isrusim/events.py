"""Append-only JSON-lines event log shared by one simulation run.

Every protocol message, every mineral lifecycle event and (at debug
verbosity) every per-tick robot snapshot is one record.  A finished log is
self-contained: metrics and the protocol verifier work from the log alone,
never from live simulation state.  `RECORD_FIELDS` and `MSG_FIELDS` are the
one definition of what a record carries.

Write path: each record is one compact ASCII JSON object on its own line.
`_encode_object`, built at import (the C encoder of the json module when
it is there, a `JSONEncoder` otherwise), is the byte reference.  A msg
record, nearly every record of a log, is written instead by the one
f-string of its variant, with each name escaped and each `loc` pair
formatted once per `dumps` call: a run has only one location per site.  A
variant's writer applies only to a record with exactly its schema keys,
`int` tick and seq, `str` names, a `loc` of two finite nonzero floats (0.0
and -0.0 are equal and hash alike, so they cannot share a cached
fragment) and a finite or -inf `utility`; any other record goes to
`_encode_object`.  Numbers are written by `int.__repr__` and
`float.__repr__` and strings by `encode_basestring_ascii`, as the C
encoder writes them, so the bytes are the same; at import each writer is
checked against `_encode_object` on a sample record.  JSON has no -inf,
so the busy-bid sentinel is written as the string "-inf"; that holds for
the `utility` field only, the one field the reader turns back, and any
other non-finite float raises `ValueError`.  `dumps` and `dump_jsonl`
return and write the same bytes, encoded `_BATCH_LINES` records at a time
with the name and `loc` caches shared by every batch.  `dump_jsonl` writes
each batch to a sibling file and moves it over `path` once the whole log
is written, so a failed write leaves no partial log and an existing file
as it was; it holds one batch in memory.  `dumps` writes the batches into
one `io.BytesIO`, whose bytes it returns without a copy.

Read path: `_decode` parses one line and checks its record against the
schema.  It is the reference, and the only source of `LogParseError`
messages and line numbers.  `load_jsonl` first tries a fast path on each
batch of `_BATCH_LINES` lines: one `json.loads` of the lines joined into a
JSON array, so the batch's records share their key strings.  It keeps that
result only if the array holds one schema-valid record (an object) per
line and no line holds `}`, then a comma, then `{` with only spaces, tabs or
carriage returns in between.  That is exact: no JSON string holds a raw
newline, so each comma inserted after a line's newline lies outside every
string, and a comma separating two top-level objects that came from inside
a line would need that pattern (a newline beside it would meet an inserted
comma and fail the parse).  So each of the array's separators is an
inserted comma, each line is exactly one record, and the per-line parse
gives the same records.  Any other batch, including one with a blank line,
goes through `_decode` line by line, which skips blank lines and raises
the reference error.  A log is read as UTF-8.  On a decoding error, a
second read finds the first line that is not valid UTF-8, which the
`LogParseError` names.  The cyclic garbage collector is paused while a log
is read, and turned back on only if it was on: a log decodes into one dict
and one `loc` list per msg record, which the collector would otherwise walk
again and again while they are built, and decoded JSON holds no reference
cycles for it to find.
"""

from __future__ import annotations

import gc
import io
import json
import os
import re
from itertools import islice
from json import encoder as _json_encoder
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator

NEG_INF = float("-inf")

# Fields each record type always carries; a msg record also carries the
# fields of its variant.
RECORD_FIELDS: dict[str, tuple[str, ...]] = {
    "run_start": ("policy", "seed", "arena_side", "n_sites", "n_minerals",
                  "tick_cap", "robots", "coalition_pairs"),
    "run_end": ("tick", "status", "minerals_at_plant", "sites_discovered",
                "odometry"),
    "snapshot": ("tick", "name", "loc", "activity", "odometry", "carried"),
    "discovery": ("tick", "site", "scout", "loc"),
    "claim": ("tick", "site", "excavator"),
    "dig": ("tick", "mineral", "site", "excavator"),
    "release": ("tick", "site", "excavator"),
    "load": ("tick", "mineral", "site", "excavator", "hauler"),
    "unload": ("tick", "mineral", "hauler"),
    "msg": ("tick", "seq", "variant", "auctioneer", "loc"),
}
MSG_FIELDS: dict[str, tuple[str, ...]] = {
    "announcement": ("task_type", "status"),
    "bid": ("bidder", "utility"),
    "winner": ("task_type", "status", "winner"),
    "ack": ("auction_winner", "verdict"),
    "close": ("task_type", "status", "allocated_to"),
}
# (type, variant) -> every field a record must carry, for the fast path's
# check; variant is None for every type but msg.
_FAST_REQUIRED = {(t, None): frozenset(f) for t, f in RECORD_FIELDS.items()
                  if t != "msg"}
_FAST_REQUIRED.update(((("msg", v), frozenset(RECORD_FIELDS["msg"] + f))
                       for v, f in MSG_FIELDS.items()))

_BATCH_LINES = 2048
_ADJACENT_OBJECTS = re.compile(r"\}[ \t\r]*,[ \t\r]*\{")


class LogParseError(ValueError):
    """A log line that is not valid JSON or not a known record."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        super().__init__(message if line_number is None
                         else f"line {line_number}: {message}")


def _not_serializable(value):
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


if _json_encoder.c_make_encoder is not None:
    _c_encode = _json_encoder.c_make_encoder(
        None, _not_serializable, _json_encoder.encode_basestring_ascii, None,
        ":", ",", False, False, False)

    def _encode_object(record: dict) -> str:
        return "".join(_c_encode(record, 0))
else:
    _encode_object = json.JSONEncoder(separators=(",", ":"),
                                      allow_nan=False).encode


class _Names(dict):
    """name -> its JSON string, escaped on first use; a name that is not a
    `str` raises TypeError, which sends its record to `_encode_object`."""

    def __missing__(self, name):
        if type(name) is not str:
            raise TypeError(name)
        text = self[name] = _json_encoder.encode_basestring_ascii(name)
        return text


def _loc_text(loc, locs: dict) -> str | None:
    """`loc` as JSON, kept in `locs`; None unless it is a list of two
    finite nonzero floats."""
    if type(loc) is not list or len(loc) != 2:
        return None
    x, y = loc
    if type(x) is not float or type(y) is not float:
        return None
    text = locs.get((x, y))
    if text is None and x and y and isfinite(x) and isfinite(y):
        text = locs[x, y] = f"[{float.__repr__(x)},{float.__repr__(y)}]"
    return text


# One writer per msg variant: the record's line, or None when
# `_encode_object` must write it.  Each unpacks the values of a record
# whose keys are exactly ("type",) + RECORD_FIELDS["msg"] + MSG_FIELDS[v].

def _announcement_line(record, names, locs):
    rtype, tick, seq, variant, auctioneer, loc, task_type, status = \
        record.values()
    if (rtype == "msg" and variant == "announcement"
            and type(tick) is int is type(seq)
            and (loc := _loc_text(loc, locs))):
        return (f'{{"type":"msg","tick":{tick},"seq":{seq},'
                f'"variant":"announcement","auctioneer":{names[auctioneer]},'
                f'"loc":{loc},"task_type":{names[task_type]},'
                f'"status":{names[status]}}}\n')
    return None


def _bid_line(record, names, locs):
    rtype, tick, seq, variant, auctioneer, loc, bidder, utility = \
        record.values()
    if utility == NEG_INF:
        utility = '"-inf"'
    elif type(utility) is float and isfinite(utility):
        utility = float.__repr__(utility)
    else:
        return None
    if (rtype == "msg" and variant == "bid" and type(tick) is int is type(seq)
            and (loc := _loc_text(loc, locs))):
        return (f'{{"type":"msg","tick":{tick},"seq":{seq},"variant":"bid",'
                f'"auctioneer":{names[auctioneer]},"loc":{loc},'
                f'"bidder":{names[bidder]},"utility":{utility}}}\n')
    return None


def _winner_line(record, names, locs):
    rtype, tick, seq, variant, auctioneer, loc, task_type, status, winner = \
        record.values()
    if (rtype == "msg" and variant == "winner"
            and type(tick) is int is type(seq)
            and (loc := _loc_text(loc, locs))):
        return (f'{{"type":"msg","tick":{tick},"seq":{seq},"variant":"winner",'
                f'"auctioneer":{names[auctioneer]},"loc":{loc},'
                f'"task_type":{names[task_type]},"status":{names[status]},'
                f'"winner":{names[winner]}}}\n')
    return None


def _ack_line(record, names, locs):
    rtype, tick, seq, variant, auctioneer, loc, auction_winner, verdict = \
        record.values()
    if (rtype == "msg" and variant == "ack" and type(tick) is int is type(seq)
            and (loc := _loc_text(loc, locs))):
        return (f'{{"type":"msg","tick":{tick},"seq":{seq},"variant":"ack",'
                f'"auctioneer":{names[auctioneer]},"loc":{loc},'
                f'"auction_winner":{names[auction_winner]},'
                f'"verdict":{names[verdict]}}}\n')
    return None


def _close_line(record, names, locs):
    (rtype, tick, seq, variant, auctioneer, loc, task_type, status,
     allocated_to) = record.values()
    if (rtype == "msg" and variant == "close"
            and type(tick) is int is type(seq)
            and (loc := _loc_text(loc, locs))):
        return (f'{{"type":"msg","tick":{tick},"seq":{seq},"variant":"close",'
                f'"auctioneer":{names[auctioneer]},"loc":{loc},'
                f'"task_type":{names[task_type]},"status":{names[status]},'
                f'"allocated_to":{names[allocated_to]}}}\n')
    return None


def _msg_lines() -> dict:
    """Each variant's key tuple -> its writer, checked against
    `_encode_object` on one sample record."""
    writers = {"announcement": _announcement_line, "bid": _bid_line,
               "winner": _winner_line, "ack": _ack_line, "close": _close_line}
    sample_values = {"type": "msg", "tick": 1, "seq": 2, "loc": [0.5, 1.5],
                     "utility": -1.5}
    lines = {}
    for variant, fields in MSG_FIELDS.items():
        keys = ("type",) + RECORD_FIELDS["msg"] + fields
        sample = {key: sample_values.get(key, f"<{key}>") for key in keys}
        sample["variant"] = variant
        write = writers[variant]
        if write(sample, _Names(), {}) != _encode_object(sample) + "\n":
            raise AssertionError(f"the {variant} writer does not match "
                                 "the schema and the encoder")
        lines[keys] = write
    return lines


_MSG_LINES = _msg_lines()


def _jsonl_batches(records: list[dict]) -> Iterator[bytes]:
    """The log's bytes, `_BATCH_LINES` records at a time."""
    names, locs = _Names(), {}
    for start in range(0, len(records), _BATCH_LINES):
        lines = []
        for record in records[start:start + _BATCH_LINES]:
            write = _MSG_LINES.get(tuple(record))
            try:
                line = write and write(record, names, locs)
            except TypeError:  # a name that is not a str
                line = None
            if line is None:
                line = _encode_object(
                    record if record.get("utility") != NEG_INF
                    else {**record, "utility": "-inf"}) + "\n"
            lines.append(line)
        yield "".join(lines).encode()


def _missing(record: dict, fields: tuple[str, ...]) -> str:
    return ", ".join(repr(f) for f in fields if f not in record)


def _schema_error(record) -> str | None:
    """Why `record` is not a valid log record, or None when it is."""
    if not isinstance(record, dict) or "type" not in record:
        return "record is not an object with a 'type' field"
    rtype = record["type"]
    if not isinstance(rtype, str) or rtype not in RECORD_FIELDS:
        return f"unknown record type {rtype!r}"
    missing = _missing(record, RECORD_FIELDS[rtype])
    if missing:
        return f"{rtype} record is missing {missing}"
    if rtype != "msg":
        return None
    variant = record["variant"]
    if not isinstance(variant, str) or variant not in MSG_FIELDS:
        return f"unknown msg variant {variant!r}"
    missing = _missing(record, MSG_FIELDS[variant])
    return f"msg {variant} record is missing {missing}" if missing else None


def _decode(line: str, line_number: int) -> dict:
    """The schema-checked record of one line, -inf sentinel restored."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogParseError(f"invalid JSON ({exc.msg})", line_number) from exc
    except (ValueError, RecursionError) as exc:  # huge int; deep nesting
        raise LogParseError(f"invalid JSON ({exc})", line_number) from exc
    error = _schema_error(record)
    if error is not None:
        raise LogParseError(error, line_number)
    if record.get("utility") == "-inf":
        record["utility"] = NEG_INF
    return record


def _decode_batch(lines: list[str]) -> list[dict] | None:
    """The records of `lines` in one parse, or None to decode line by line."""
    text = "[" + ",".join(lines) + "]"
    # Every line but the file's last ends in a newline, which the pattern
    # cannot cross, so one search of the joined text searches each line.
    if _ADJACENT_OBJECTS.search(text):
        return None
    try:
        records = json.loads(text)
    except (ValueError, RecursionError):
        return None
    if len(records) != len(lines):
        return None
    required_of = _FAST_REQUIRED.get
    for record in records:
        try:
            required = required_of((record.get("type"), record.get("variant")))
        except (AttributeError, TypeError):  # not an object; unhashable value
            return None
        if required is None or not record.keys() >= required:
            return None  # maybe valid (say, a claim with a variant field)
        if record.get("utility") == "-inf":
            record["utility"] = NEG_INF
    return records


def first_invalid_utf8_line(data: bytes) -> int | None:
    r"""The number of the first line of `data` that is not valid UTF-8.

    Lines end at \n, \r\n and \r, as in a file read as text.  A line is
    valid UTF-8 when dropping undecodable bytes keeps it whole."""
    return next((n for n, raw in enumerate(data.splitlines(), 1)
                 if raw.decode("utf-8", "ignore").encode() != raw), None)


AuctionKey = tuple[str, tuple[float, float]]


def record_auction_key(record: dict) -> AuctionKey:
    """The auction a msg record belongs to: (auctioneer, task location).
    The one auction key, live and in the log, of the books and the boards."""
    return (record["auctioneer"], tuple(record["loc"]))


class EventLog:
    """In-memory record list with JSONL dump/load."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def append(self, record: dict) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.records)

    def dump_jsonl(self, path: str | Path) -> None:
        """Write the log to `path` through a sibling file, so a failed
        write leaves no partial log and an existing file as it was."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
        try:
            with partial.open("wb") as fh:
                for batch in _jsonl_batches(self.records):
                    fh.write(batch)
            os.replace(partial, path)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise

    def dumps(self) -> bytes:
        """The exact bytes dump_jsonl would write (for determinism checks)."""
        out = io.BytesIO()
        for batch in _jsonl_batches(self.records):
            out.write(batch)
        return out.getvalue()  # shares the buffer: no copy

    @staticmethod
    def load_jsonl(path: str | Path) -> "EventLog":
        log = EventLog()
        first = 1  # line number of the batch's first line
        collecting = gc.isenabled()
        gc.disable()  # decoded records hold no cycles
        try:
            with Path(path).open(encoding="utf-8") as fh:
                while batch := list(islice(fh, _BATCH_LINES)):
                    records = _decode_batch(batch)
                    if records is None:
                        records = [_decode(line, n)
                                   for n, line in enumerate(batch, first)
                                   if line.strip()]
                    log.records.extend(records)
                    first += len(batch)
        except UnicodeDecodeError as exc:
            bad = first_invalid_utf8_line(Path(path).read_bytes())
            raise LogParseError(f"invalid UTF-8 ({exc.reason})", bad) from exc
        finally:
            if collecting:
                gc.enable()
        return log

    @staticmethod
    def from_records(records: Iterable[dict]) -> "EventLog":
        log = EventLog()
        log.records = list(records)
        return log
