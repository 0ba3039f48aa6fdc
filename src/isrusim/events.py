"""Append-only JSON-lines event log shared by one simulation run.

Every protocol message, every mineral lifecycle event and (at debug
verbosity) every per-tick robot snapshot is one record.  A finished log is
self-contained: metrics and the protocol verifier work from the log alone,
never from live simulation state.  `RECORD_FIELDS` and `MSG_FIELDS` are the
one definition of what a record carries.

Write path: each record is one compact ASCII JSON object on its own line.
`_encode_object`, built at import (the C encoder of the json module when
it is there, a `JSONEncoder` otherwise), is the byte reference.  A msg
record, nearly every record of a log, is written instead as
`{"type":"msg","tick":T,"seq":S,` and its tail, the rest of its line.  A
tail is written by the one f-string of its variant, with each name escaped
and each `loc` pair formatted once per `dumps` call: a run has only one
location per site.  A tail that repeats, an announcement's (sent each
round) and a bid's of the -inf sentinel (sent each round by a busy robot),
is written once per batch of `_BATCH_LINES` records and reused; a cache
kept for the whole log would hold a tail per auction and robot.  A winner,
an ack and a close are written about once per auction and robot, so their
tails are not kept: they would only take memory.  A tail's key is
the record's variant and names and the `id` of its `loc` list: all records
of one auction share one `loc` list (`bus`), and the entry holds that list,
so its id cannot be reused while the batch's cache lives.  A finite
utility is never cached: 0.0 and -0.0 are equal and hash alike but are
written differently, and a robot standing on its task location bids -0.0.
The writers apply only to a record with exactly its variant's schema keys,
`int` tick and seq, `str` names, a `loc` of two finite nonzero floats
(the `loc` text cache is keyed by value, where 0.0 and -0.0 would meet)
and a finite or -inf `utility`.  The keys, the type and variant and the
tick and seq are checked for every record, a `loc` and its names on the
miss that fills an entry; a `str` subclass equal to a cached name has the
same characters, which is what the encoder writes.  Any other record,
such as one with an unhashable or non-`str` name, goes to
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
messages and line numbers.  `load_jsonl` reads `_BATCH_LINES` lines at a
time and first tries the fast paths on the batch.  A line that starts with
the head the writer emits, `{"type":"msg","tick":T,"seq":S,` with T and S
JSON integers of at most 18 digits (which `int` reads as the json module
does), is split there by one match of `_MSG_HEAD`, whose groups are T, S
and the tail, the rest of the line.  The tail is still a copy of that part
of the line, made by the match.  It is parsed once as
`"{" + tail` and kept in a cache that lives for the whole read and is
emptied when it holds `_BATCH_LINES` tails: a log repeats its
announcements' and sentinel bids' tails every round.  A tail is accepted
only if it is one object that carries every field of its (hashable)
variant and none of the head's keys, so an empty tail, or one that would
make the line's record another type, is refused.  An accepted tail is
kept as the template `{"type": "msg", "tick": None, "seq": None,
**fields}`, which is never handed out: the line's record is a copy of it
with T and S set, one dict copy that keeps the key order of the record
the per-line parse gives.  A batch reads each tick text into one `int`,
shared by that tick's records as in the live log.  Records with the same
tail share their values, one `loc` list among them, as the live log's
records of one auction do: a decoded record must never be mutated.  Every
other line of the batch, and every msg line whose tail is refused, goes
through one parse of those lines joined into a JSON array, so they share
their key strings, and each record is put back at its line's position in
the batch.  That result is kept only if the array
holds one schema-valid record (an object) per line and no line holds `}`,
then a comma, then `{` with only spaces, tabs or carriage returns in
between.  That is exact: no JSON string holds a raw newline, so each comma
inserted after a line's newline lies outside every string, and a comma
separating two top-level objects that came from inside a line would need
that pattern (a newline beside it would meet an inserted comma and fail
the parse).  So each of the array's separators is an inserted comma, each
line is exactly one record, and the per-line parse gives the same records.
Any other batch, including one with a blank line, goes through `_decode`
line by line, which skips blank lines and raises the reference error.  A
log is read as UTF-8.  On a decoding error, a second read finds the first
line that is not valid UTF-8, which the `LogParseError` names.  The cyclic
garbage collector is paused while a log is read, and turned back on only
if it was on: decoded records are containers the collector would
otherwise walk again and again while they are built, and decoded JSON
holds no reference cycles for it to find.  Every parse uses one decoder,
built at import, that refuses the tokens `NaN`, `Infinity` and
`-Infinity`: the json module accepts them, the writer never emits them,
and a line holding one is invalid JSON.
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

# variant -> every field the tail of a msg line must carry
_TAIL_REQUIRED = {v: _FAST_REQUIRED["msg", v] - {"tick", "seq"}
                  for v in MSG_FIELDS}

_BATCH_LINES = 2048
_ADJACENT_OBJECTS = re.compile(r"\}[ \t\r]*,[ \t\r]*\{")
# The head the writer gives a msg line, then its tail; tick and seq are JSON
# integers of at most 18 digits, which `int` reads as the json module does.
_MSG_HEAD = re.compile(r'\{"type":"msg","tick":(-?(?:0|[1-9][0-9]{0,17})),'
                       r'"seq":(-?(?:0|[1-9][0-9]{0,17})),(.*)', re.S)


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


# One tail writer per msg variant: the record's line after `"seq":S,`, from
# its tail key, (variant, auctioneer, id(loc)) + its fields after `loc`, and
# its `loc` as JSON.  A name that is not a `str` raises TypeError (`_Names`).

def _announcement_tail(key, loc, names):
    _, auctioneer, _, task_type, status = key
    return (f'"variant":"announcement","auctioneer":{names[auctioneer]},'
            f'"loc":{loc},"task_type":{names[task_type]},'
            f'"status":{names[status]}}}\n')


def _bid_tail(key, loc, names):
    _, auctioneer, _, bidder, utility = key
    if utility == NEG_INF:
        utility = '"-inf"'
    elif type(utility) is float and isfinite(utility):
        utility = float.__repr__(utility)
    else:
        return None
    return (f'"variant":"bid","auctioneer":{names[auctioneer]},"loc":{loc},'
            f'"bidder":{names[bidder]},"utility":{utility}}}\n')


def _winner_tail(key, loc, names):
    _, auctioneer, _, task_type, status, winner = key
    return (f'"variant":"winner","auctioneer":{names[auctioneer]},'
            f'"loc":{loc},"task_type":{names[task_type]},'
            f'"status":{names[status]},"winner":{names[winner]}}}\n')


def _ack_tail(key, loc, names):
    _, auctioneer, _, auction_winner, verdict = key
    return (f'"variant":"ack","auctioneer":{names[auctioneer]},"loc":{loc},'
            f'"auction_winner":{names[auction_winner]},'
            f'"verdict":{names[verdict]}}}\n')


def _close_tail(key, loc, names):
    _, auctioneer, _, task_type, status, allocated_to = key
    return (f'"variant":"close","auctioneer":{names[auctioneer]},"loc":{loc},'
            f'"task_type":{names[task_type]},"status":{names[status]},'
            f'"allocated_to":{names[allocated_to]}}}\n')


def _msg_tails() -> dict:
    """Each variant's key tuple -> (the variant, its tail writer), each
    writer checked against `_encode_object` on one sample record."""
    writers = {"announcement": _announcement_tail, "bid": _bid_tail,
               "winner": _winner_tail, "ack": _ack_tail, "close": _close_tail}
    sample_values = {"type": "msg", "tick": 1, "seq": 2, "loc": [0.5, 1.5],
                     "utility": -1.5}
    tails = {}
    for variant, fields in MSG_FIELDS.items():
        keys = ("type",) + RECORD_FIELDS["msg"] + fields
        sample = {key: sample_values.get(key, f"<{key}>") for key in keys}
        sample["variant"] = variant
        key = (variant, sample["auctioneer"], id(sample["loc"]),
               *(sample[field] for field in fields))
        tail = writers[variant](key, "[0.5,1.5]", _Names())
        if f'{{"type":"msg","tick":1,"seq":2,{tail}' != (
                _encode_object(sample) + "\n"):
            raise AssertionError(f"the {variant} writer does not match "
                                 "the schema and the encoder")
        tails[keys] = variant, writers[variant]
    return tails


_MSG_TAILS = _msg_tails()


def _jsonl_batches(records: list[dict]) -> Iterator[bytes]:
    """The log's bytes, `_BATCH_LINES` records at a time."""
    names, locs = _Names(), {}
    for start in range(0, len(records), _BATCH_LINES):
        yield "".join(_batch_lines(records[start:start + _BATCH_LINES],
                                   names, locs)).encode()


def _batch_lines(batch: list[dict], names: _Names, locs: dict) -> list[str]:
    """The lines of `batch`, with a tail cache of its own, freed before
    the lines are joined."""
    tails = {}  # tail key -> (its loc list, the tail)
    lines = []
    for record in batch:
        keys = tuple(record)
        msg = _MSG_TAILS.get(keys)  # (its variant, its tail writer)
        tail = None
        if msg is not None:
            if len(keys) == 8:
                rtype, tick, seq, variant, auctioneer, loc, a, b = \
                    record.values()
                key = variant, auctioneer, id(loc), a, b
            else:
                (rtype, tick, seq, variant, auctioneer, loc, a, b,
                 c) = record.values()
                key = variant, auctioneer, id(loc), a, b, c
            if (rtype == "msg" and variant == msg[0]
                    and type(tick) is int is type(seq)):
                try:
                    entry = tails.get(key)
                    if entry is not None:
                        tail = entry[1]
                    elif (loc_text := _loc_text(loc, locs)) is not None:
                        tail = msg[1](key, loc_text, names)
                        if tail is not None and (
                                variant == "announcement" or b == NEG_INF):
                            tails[key] = loc, tail
                except TypeError:  # an unhashable or non-str name
                    tail = None
        lines.append(
            f'{{"type":"msg","tick":{tick},"seq":{seq},{tail}'
            if tail is not None else _encode_object(
                record if record.get("utility") != NEG_INF
                else {**record, "utility": "-inf"}) + "\n")
    return lines


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


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


# The json module's decoder, but refusing NaN, Infinity and -Infinity,
# which it accepts by default and the writer never emits.
_json_decode = json.JSONDecoder(parse_constant=_reject_constant).decode


def _decode(line: str, line_number: int) -> dict:
    """The schema-checked record of one line, -inf sentinel restored."""
    try:
        if line.startswith("\ufeff"):  # as json.loads reports it
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        record = _json_decode(line)
    except json.JSONDecodeError as exc:
        raise LogParseError(f"invalid JSON ({exc.msg})", line_number) from exc
    except (ValueError, RecursionError) as exc:  # huge int; NaN; deep nesting
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
        records = _json_decode(text)
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


def _tail_fields(tail: str) -> dict | None:
    """The template of the records of a msg line's tail: its record with
    tick and seq None, -inf sentinel restored.  None unless the tail's
    fields are an object that carries its variant's fields and none of the
    head's keys."""
    try:
        fields = _json_decode("{" + tail)
        required = _TAIL_REQUIRED.get(fields.get("variant"))
    except (ValueError, RecursionError, TypeError):  # TypeError: unhashable
        return None
    if (required is None or not fields.keys() >= required
            or not fields.keys().isdisjoint(("type", "tick", "seq"))):
        return None
    if fields.get("utility") == "-inf":
        fields["utility"] = NEG_INF
    return {"type": "msg", "tick": None, "seq": None, **fields}


class _Ints(dict):
    """int text -> its `int`, read on first use."""

    def __missing__(self, text):
        value = self[text] = int(text)
        return value


class _Tails(dict):
    """msg line tail -> `_tail_fields(tail)`, parsed on first use; emptied
    when it holds `_BATCH_LINES` tails."""

    def __missing__(self, tail):
        if len(self) >= _BATCH_LINES:
            self.clear()
        fields = self[tail] = _tail_fields(tail)
        return fields


def _decode_lines(lines: list[str], tails: _Tails) -> list[dict] | None:
    """The records of `lines`, or None to decode line by line.  A msg line
    with the writer's head and an accepted tail is a copy of its tail's
    cached template, with the batch's one `int` of its tick; the other
    lines are decoded by one `_decode_batch` and put back at their
    positions."""
    records, rest, at = [], [], []
    ticks = _Ints()
    head = _MSG_HEAD.match
    for line in lines:
        match = head(line)
        if match is not None:
            tick, seq, tail = match.groups()
            template = tails[tail]
            if template is not None:
                record = template.copy()
                record["tick"] = ticks[tick]
                record["seq"] = int(seq)
                records.append(record)
                continue
        at.append(len(records))
        rest.append(line)
        records.append(None)
    if rest:
        decoded = _decode_batch(rest)
        if decoded is None:
            return None
        for i, record in zip(at, decoded):
            records[i] = record
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
        tails = _Tails()  # kept for the whole read: a log repeats its tails
        first = 1  # line number of the batch's first line
        collecting = gc.isenabled()
        gc.disable()  # decoded records hold no cycles
        try:
            with Path(path).open(encoding="utf-8") as fh:
                while batch := list(islice(fh, _BATCH_LINES)):
                    records = _decode_lines(batch, tails)
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
