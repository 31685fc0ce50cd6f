"""Framed binary wire protocol for the sharded streaming runtime.

The coordinator feeds each shard worker over an OS pipe, and the worker
answers over a second one.  Pickling every
:class:`~repro.sessions.model.Request` would spend most of the pipe
bandwidth re-sending the same user and page strings (A17 measured this
for the batch engine; PR 8's ``UserColumns`` fixed it with interned ids
and fixed-width columns).  This module applies the same idiom to a byte
stream, in both directions:

* every frame is ``!BI`` — one kind byte and a payload length — followed
  by the payload, so a reader never needs lookahead;
* strings are interned: a ``SYM`` frame carries the UTF-8 text and
  implicitly assigns the *next* sequential id in the receiver's table,
  so ids never appear on the wire at definition time.  Each direction
  has its own table: the worker's upward table is not the coordinator's
  downward one, because a capsule-restored worker emits pages it has
  never received;
* an event is a fixed 21-byte record (float64 timestamp, three int32
  symbol ids — referrer ``-1`` meaning absent — and one synthetic flag
  byte), independent of how long the user/page strings are;
* an ``OUT`` frame carries every session one ``feed()``/``flush()``
  emitted, in the ``PlaneResult`` offsets/flat layout: a table of the
  distinct requests those sessions use, then per session a user symbol
  and a count, then int32 positions into the table.  On crawler and NAT
  traffic Phase 2 emits about one session per record and the sessions
  share most of their requests, so the table, not the references, sets
  the frame's size;
* ``ACK`` and ``CAP`` carry a fixed progress header (ordinal, watermark
  index, watermark) and the worker's state capsule as opaque bytes: the
  coordinator keeps an ACK's payload as is and replays it verbatim as
  the ``CAP`` of a respawned worker;
* the final ``DONE`` frame (once per worker) rides as canonical JSON.

The protocol is strictly sequential per connection — a fresh worker
incarnation starts from empty symbol tables in both directions, and the
coordinator re-interns from scratch when it replays.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Iterable, Iterator

from repro.exceptions import WireProtocolError
from repro.sessions.model import Request, Session

__all__ = [
    "SYM", "EVT", "WM", "EOF", "CAP", "OUT", "ACK", "DONE", "ERR",
    "FrameReader", "SymbolEncoder", "SymbolDecoder",
    "frame", "json_frame", "decode_json", "watermark_frame",
    "decode_watermark", "progress_frame", "decode_progress",
]

# both directions
SYM = 1   #: intern the UTF-8 payload as the next symbol id

# coordinator -> worker
EVT = 2   #: one request, fixed-width record
WM = 3    #: flush watermark (float64)
EOF = 4   #: end of stream — flush everything and send DONE
CAP = 5   #: state capsule (an ACK payload), sent before a replay

# worker -> coordinator
OUT = 6   #: the sessions of one feed()/flush() result (binary table)
ACK = 7   #: progress header + refreshed capsule
DONE = 8  #: final stats + obs snapshot (JSON)
ERR = 9   #: fatal, deterministic worker error (UTF-8 traceback)

_KINDS = frozenset((SYM, EVT, WM, EOF, CAP, OUT, ACK, DONE, ERR))

_HEADER = struct.Struct("!BI")
_EVENT = struct.Struct("!diiiB")
_EVENT_FRAME = struct.Struct("!BIdiiiB")
_WM = struct.Struct("!d")
_PROGRESS = struct.Struct("!qqd")
_OUT_COUNTS = struct.Struct("!II")

#: sentinel symbol id for "no referrer" in an event record.
NO_SYMBOL = -1


def frame(kind: int, payload: bytes = b"") -> bytes:
    """Serialize one frame: kind byte, payload length, payload."""
    return _HEADER.pack(kind, len(payload)) + payload


def json_frame(kind: int, document: Any) -> bytes:
    """Serialize ``document`` as a canonical-JSON frame of ``kind``."""
    payload = json.dumps(document, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return frame(kind, payload)


def decode_json(payload: bytes) -> Any:
    """Parse a JSON frame payload, typing failures as protocol errors."""
    try:
        return json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireProtocolError(f"undecodable JSON payload: {exc}") from exc


def watermark_frame(watermark: float) -> bytes:
    """Serialize a WM frame carrying ``watermark``."""
    return frame(WM, _WM.pack(watermark))


def decode_watermark(payload: bytes) -> float:
    """Decode a WM frame payload."""
    if len(payload) != _WM.size:
        raise WireProtocolError(
            f"watermark payload is {len(payload)} bytes, want {_WM.size}")
    return float(_WM.unpack(payload)[0])


def progress_frame(kind: int, ordinal: int, wm_index: int,
                   watermark: float, capsule: bytes = b"") -> bytes:
    """Serialize an ACK or CAP frame: progress header, then the capsule."""
    return frame(kind, _PROGRESS.pack(ordinal, wm_index, watermark)
                 + capsule)


def decode_progress(payload: bytes) -> tuple[int, int, float, bytes]:
    """Decode an ACK/CAP payload to ``(ordinal, wm_index, wm, capsule)``."""
    if len(payload) < _PROGRESS.size:
        raise WireProtocolError(
            f"progress payload is {len(payload)} bytes, want at least "
            f"{_PROGRESS.size}")
    ordinal, wm_index, watermark = _PROGRESS.unpack_from(payload)
    return ordinal, wm_index, watermark, payload[_PROGRESS.size:]


class FrameReader:
    """Incremental frame parser over an arbitrary chunking of the stream.

    ``feed`` accepts whatever ``os.read`` produced — frames split across
    chunks are reassembled, multiple frames per chunk are all yielded.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[tuple[int, bytes]]:
        """Absorb ``data``; yield every now-complete ``(kind, payload)``."""
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _HEADER.size:
                return
            kind, length = _HEADER.unpack_from(self._buffer)
            if kind not in _KINDS:
                raise WireProtocolError(f"unknown frame kind {kind}")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            yield kind, payload

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)


class SymbolEncoder:
    """Sender-side interning table shared by users, pages and referrers.

    The first time a string is encoded, a ``SYM`` frame defining it is
    appended *before* the record that references it; the receiver's
    :class:`SymbolDecoder` assigns ids by arrival order, so the two
    tables agree without ids ever being transmitted.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def _intern(self, out: bytearray, text: str) -> int:
        symbol = self._ids.get(text)
        if symbol is None:
            symbol = len(self._ids)
            self._ids[text] = symbol
            out += frame(SYM, text.encode("utf-8"))
        return symbol

    def encode_event(self, out: bytearray, timestamp: float, user: str,
                     page: str, referrer: str | None,
                     synthetic: bool) -> None:
        """Append the SYM frames (if any) and the EVT frame to ``out``."""
        user_id = self._intern(out, user)
        page_id = self._intern(out, page)
        ref_id = NO_SYMBOL if referrer is None else self._intern(out, referrer)
        out += _EVENT_FRAME.pack(EVT, _EVENT.size, timestamp, user_id,
                                 page_id, ref_id, 1 if synthetic else 0)

    def encode_sessions(self, out: bytearray,
                        sessions: Iterable[Session]) -> None:
        """Append the SYM frames (if any) and one OUT frame to ``out``.

        The request table is keyed by ``(timestamp, page, synthetic)`` —
        not by :class:`Request` equality, which ignores ``synthetic`` —
        and lives for this one frame only, so nothing accumulates across
        frames.
        """
        index: dict[tuple[float, str, bool], int] = {}
        stamps: list[float] = []
        pages: list[int] = []
        flags: list[int] = []
        users: list[int] = []
        counts: list[int] = []
        flat: list[int] = []
        intern = self._intern
        for session in sessions:
            requests = session.requests
            users.append(intern(out, requests[0].user_id))
            counts.append(len(requests))
            for request in requests:
                key = (request.timestamp, request.page, request.synthetic)
                position = index.get(key)
                if position is None:
                    position = index[key] = len(stamps)
                    stamps.append(request.timestamp)
                    pages.append(intern(out, request.page))
                    flags.append(1 if request.synthetic else 0)
                flat.append(position)
        n, m = len(stamps), len(users)
        out += frame(OUT, struct.pack(
            f"!II{n}d{n}i{n}B{m}i{m}I{len(flat)}i", n, m, *stamps, *pages,
            *flags, *users, *counts, *flat))


class SymbolDecoder:
    """Receiver-side interning table mirroring :class:`SymbolEncoder`."""

    def __init__(self) -> None:
        self._table: list[str] = []

    def __len__(self) -> int:
        return len(self._table)

    def add_symbol(self, payload: bytes) -> None:
        """Define the next symbol id from a SYM frame payload."""
        try:
            self._table.append(payload.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise WireProtocolError(f"undecodable symbol: {exc}") from exc

    def _lookup(self, symbol: int) -> str:
        if not 0 <= symbol < len(self._table):
            raise WireProtocolError(
                f"symbol id {symbol} outside table of {len(self._table)}")
        return self._table[symbol]

    def _check_symbols(self, symbols: tuple[int, ...]) -> None:
        if symbols:
            self._lookup(min(symbols))
            self._lookup(max(symbols))

    def decode_event(self, payload: bytes) -> tuple[float, str, str,
                                                    str | None, bool]:
        """Decode an EVT payload to ``(ts, user, page, referrer, syn)``."""
        if len(payload) != _EVENT.size:
            raise WireProtocolError(
                f"event payload is {len(payload)} bytes, want {_EVENT.size}")
        timestamp, user_id, page_id, ref_id, synthetic = _EVENT.unpack(payload)
        referrer = None if ref_id == NO_SYMBOL else self._lookup(ref_id)
        return (timestamp, self._lookup(user_id), self._lookup(page_id),
                referrer, bool(synthetic))

    def decode_sessions(self, payload: bytes) -> list[Session]:
        """Decode an OUT payload back into sessions, in emission order.

        Sessions of one user that share a table entry share one
        :class:`Request` object, as they did in the worker.
        """
        size = len(payload)
        if size < _OUT_COUNTS.size:
            raise WireProtocolError(
                f"session payload is {size} bytes, want at least "
                f"{_OUT_COUNTS.size}")
        n, m = _OUT_COUNTS.unpack_from(payload)
        # per request f64 + i32 + u8, per session i32 + u32, then i32s.
        head = _OUT_COUNTS.size + 13 * n + 8 * m
        if size < head or (size - head) % 4:
            raise WireProtocolError(
                f"session payload of {size} bytes does not fit {n} "
                f"requests and {m} sessions")
        total = (size - head) // 4
        values = struct.unpack_from(f"!{n}d{n}i{n}B{m}i{m}I{total}i",
                                    payload, _OUT_COUNTS.size)
        stamps = values[:n]
        page_ids = values[n:2 * n]
        flags = values[2 * n:3 * n]
        user_ids = values[3 * n:3 * n + m]
        counts = values[3 * n + m:3 * n + 2 * m]
        flat = values[3 * n + 2 * m:]
        if sum(counts) != total or (counts and min(counts) < 1):
            raise WireProtocolError(
                f"session counts {sum(counts)} do not match the "
                f"{total} positions of the payload")
        if flat and (min(flat) < 0 or max(flat) >= n):
            raise WireProtocolError(
                f"request position outside the table of {n} requests")
        self._check_symbols(page_ids)
        self._check_symbols(user_ids)
        table = self._table
        pages = [table[symbol] for symbol in page_ids]
        built: list[Request | None] = [None] * n
        owner = [-1] * n
        trusted = Session.from_trusted_parts
        sessions: list[Session] = []
        offset = 0
        for user_id, count in zip(user_ids, counts):
            user = table[user_id]
            requests = []
            for position in flat[offset:offset + count]:
                if owner[position] != user_id:
                    owner[position] = user_id
                    built[position] = Request(stamps[position], user,
                                              pages[position],
                                              flags[position] != 0)
                requests.append(built[position])
            offset += count
            sessions.append(trusted(tuple(requests)))
        return sessions
