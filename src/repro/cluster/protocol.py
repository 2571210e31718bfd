"""The cluster wire protocol: length-prefixed JSON frames.

Every message between scheduler, workers and clients is one *frame*: a
4-byte big-endian payload length followed by that many bytes of UTF-8
JSON encoding a single object with a ``"type"`` field.  JSON keeps the
control plane human-readable (``tcpdump``-able, and the result store
keeps the same result documents); the one opaque field is a job's pickled
:class:`~repro.harness.parallel.SimJob`, carried base64-encoded inside
the ``submit``/``job`` messages (see :mod:`repro.cluster.serial`).

Message vocabulary (the scheduler answers every request with exactly
one response frame):

==============  =======================  ==================================
direction       type                     reply
==============  =======================  ==================================
worker → sched  ``register``             ``ok`` (heartbeat/poll intervals)
worker → sched  ``heartbeat``            ``ok``
worker → sched  ``lease``                ``job`` | ``idle`` | ``shutdown``
worker → sched  ``result``               ``ok`` (``duplicate`` flagged)
client → sched  ``submit``               ``ok`` (total/replayed counts)
client → sched  ``status``               ``status``
client → sched  ``fetch``                ``results`` | ``pending`` | ``error``
client → sched  ``shutdown``             ``ok``
==============  =======================  ==================================

Anything else draws ``{"type": "error", "reason": "unknown-message-type"}``.

Framing is defended on both ends: a declared length above
:data:`MAX_FRAME` is rejected *before* reading the payload (one rogue
or corrupt peer cannot make the scheduler allocate gigabytes), a
connection that closes mid-frame raises :class:`TruncatedFrame`, and a
payload that is not valid JSON raises :class:`FrameCorrupt` — the
scheduler answers what it can and drops the connection, and the
fault-injection tests drive every one of these paths.

:func:`resubmit_until_done` is the one submit/poll/resubmit loop of
both remote backends (this scheduler and the HTTP service of
:mod:`repro.service`).

The protocol trusts its network: job blobs are pickles, so the service
must only be exposed to hosts that are already trusted to run the code
(the same trust a shared batch queue requires).  See docs/CLUSTER.md.
"""

from __future__ import annotations

import json
import re
import socket
import struct
import time

#: Hard ceiling on one frame's payload (declared-length check).  Large
#: grids fit comfortably: a SimJob blob is a few KB, so ~10k-point
#: submissions stay under this.
MAX_FRAME = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(Exception):
    """A peer violated the framing or message rules."""


class TruncatedFrame(ProtocolError):
    """The connection closed mid-frame (header or payload)."""


class OversizedFrame(ProtocolError):
    """A frame declared a payload larger than :data:`MAX_FRAME`."""


class FrameCorrupt(ProtocolError):
    """A complete frame's payload was not a JSON object."""


class SweepLost(Exception):
    """The server no longer knows a submitted sweep (it restarted);
    resubmitting the same jobs recovers it."""


def encode_frame(message: dict) -> bytes:
    """Serialize one message to its on-wire bytes."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise OversizedFrame(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return _HEADER.pack(len(payload)) + payload


def send_frame(sock: socket.socket, message: dict) -> None:
    """Send one message as a single frame."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF *before* any byte,
    :class:`TruncatedFrame` on EOF mid-read."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if not chunks:
                return None
            raise TruncatedFrame(
                f"connection closed {n - remaining}/{n} bytes into a read"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Receive one frame; ``None`` when the peer closed at a frame
    boundary (the normal end of a connection)."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise OversizedFrame(
            f"peer declared a {length}-byte frame (MAX_FRAME={MAX_FRAME})"
        )
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise TruncatedFrame("connection closed between header and payload")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameCorrupt(f"undecodable frame payload: {error}") from error
    if not isinstance(message, dict):
        raise FrameCorrupt(f"frame payload is {type(message).__name__}, not object")
    return message


def request(sock: socket.socket, message: dict) -> dict:
    """Send one frame and read its response frame."""
    send_frame(sock, message)
    reply = recv_frame(sock)
    if reply is None:
        raise TruncatedFrame("peer closed without answering")
    return reply


def connect(address: tuple[str, int], timeout: float | None = None) -> socket.socket:
    """Open a protocol connection (TCP_NODELAY — frames are small and
    latency-sensitive)."""
    sock = socket.create_connection(address, timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - exotic transports
        pass
    return sock


def parse_address(text: str) -> tuple[str, int]:
    """Parse a ``host:port`` string (the CLI's ``--connect`` form).

    IPv6 literals use the standard bracketed form — ``[::1]:9000``
    parses to ``("::1", 9000)`` — since a bare ``rpartition(":")``
    would otherwise hand the bracketed host straight to the socket
    layer, which rejects it.  Hostnames and IPv4 stay ``host:port``.
    """
    bracketed = re.match(r"^\[([^\[\]]+)\]:(\d+)$", text)
    if bracketed:
        return bracketed.group(1), int(bracketed.group(2))
    if text.startswith("["):
        raise ValueError(
            f"expected [v6-literal]:port, got {text!r} "
            "(bracket the host and follow it with :port)"
        )
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected host:port, got {text!r}")
    return host, int(port)


def resubmit_until_done(submit, fetch, *, poll: float,
                        max_poll: float | None = None,
                        timeout: float | None = None):
    """Submit, then poll until results arrive, resubmitting when lost.

    ``submit()`` offers the jobs to the server; ``fetch()`` returns the
    results, ``None`` while they are pending, or raises
    :class:`SweepLost`.  A lost sweep, a dropped connection
    (:class:`OSError`, :class:`ProtocolError`) or a server that is down
    at submit time all lead to a resubmission on the next poll: jobs
    are content-keyed and results persist in the server's result
    store, so resubmitting costs nothing for completed points.  Any
    other error is terminal and propagates.  Polls start ``poll``
    seconds apart and grow by half each time up to ``max_poll``
    (default: ``poll``, a fixed interval); past ``timeout`` seconds the
    loop raises :class:`TimeoutError`.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    delay = poll
    submitted = False
    while True:
        try:
            if not submitted:
                submit()
                submitted = True
            results = fetch()
            if results is not None:
                return results
        except (OSError, ProtocolError, SweepLost):
            submitted = False
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(f"sweep incomplete after {timeout}s")
        time.sleep(delay)
        delay = min(delay * 1.5, max_poll if max_poll is not None else poll)
