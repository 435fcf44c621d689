"""Length-prefixed binary framing, its key=value text payloads, and the
channels that carry it.

Every frame, party, dealer or file: 4-byte little-endian frame length
(bytes after this field), 1-byte message kind, 4-byte session id, 4-byte
frame number (0, 1, ... in each direction and in a file), then the payload:
little-endian 64-bit ring elements, or for control messages and file
metadata the sorted `key=value` lines of encode_kv.
"""

from __future__ import annotations

import queue
import socket
import struct
import time

import numpy as np

from .errors import ConnectTimeout, ParseError, PeerClosed, RoundDesync, SessionMismatch

KIND_HELLO = 1
KIND_OPEN = 2
KIND_PROVISION = 3
KIND_MATERIAL = 4
KIND_DATA = 5
KIND_LABELS = 6
KIND_SEED = 7

_CLOSED = None  # what a closing QueueChannel leaves in its peer's inbox
_LENGTH = struct.Struct("<I")
_HEADER = struct.Struct("<IBII")  # length, kind, session, frame number
_BODY_HEADER = _HEADER.size - _LENGTH.size  # the header bytes the length counts


def pack_frame(kind: int, session: int, seq: int, payload) -> bytes:
    """Frame number seq of a session: the header, then payload (bytes-like)."""
    return b"".join([_HEADER.pack(_BODY_HEADER + len(payload), kind, session, seq), payload])


def unpack_frame(data: memoryview):
    """(kind, session, seq, payload, rest) of the frame data starts with,
    payload and rest (what follows the frame) views of data; ParseError
    naming the length of a frame shorter than its header or its length."""
    if len(data) < _LENGTH.size:
        raise ParseError(f"truncated frame: {len(data)} bytes, no length field")
    (length,) = _LENGTH.unpack_from(data)
    if length < _BODY_HEADER:
        raise ParseError(f"frame length {length} is shorter than its {_BODY_HEADER}-byte header")
    end = _LENGTH.size + length
    if len(data) < end:
        raise ParseError(f"truncated frame: length {length}, {len(data) - _LENGTH.size} "
                         f"bytes follow")
    _, kind, session, seq = _HEADER.unpack_from(data)
    return kind, session, seq, data[_HEADER.size:end], data[end:]


def encode_kv(mapping: dict) -> bytes:
    """One `key=value` line per key, sorted by key, newline-joined."""
    return "\n".join(f"{k}={mapping[k]}" for k in sorted(mapping)).encode()


def decode_kv(payload) -> dict:
    """The str-to-str mapping of encode_kv's lines in payload (bytes-like);
    ParseError for a line without '='."""
    out = {}
    for line in str(payload, "utf-8", "replace").splitlines():
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(f"expected key=value, got {line!r}")
        out[key] = value
    return out


def u64_payload(arr: np.ndarray) -> memoryview:
    """arr's words as little-endian bytes, a view of arr where it has them."""
    return memoryview(np.ascontiguousarray(arr, dtype="<u8")).cast("B")


def payload_u64(payload) -> np.ndarray:
    """The words of payload (bytes-like), read in place."""
    return np.frombuffer(payload, dtype="<u8")


class QueueChannel:
    """In-process duplex channel; one end of a pair of queues."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        self._in = inbox
        self._out = outbox
        self.bytes_sent = 0
        self.bytes_received = 0

    def send_bytes(self, data: bytes) -> None:
        self.bytes_sent += len(data)
        self._out.put(data)

    def recv_bytes(self, timeout: float | None = 60.0) -> bytes:
        try:
            data = self._in.get(timeout=timeout)
        except queue.Empty:
            raise ConnectTimeout("peer sent nothing before the deadline")
        if data is _CLOSED:
            raise PeerClosed("peer closed the channel")
        self.bytes_received += len(data)
        return data

    def close(self) -> None:
        """Wake the peer's pending (or next) receive with PeerClosed."""
        self._out.put(_CLOSED)


def queue_pair():
    a, b = queue.Queue(), queue.Queue()
    return QueueChannel(a, b), QueueChannel(b, a)


class SocketChannel:
    """Framed duplex channel over a connected TCP socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.bytes_sent = 0
        self.bytes_received = 0

    def send_bytes(self, data: bytes) -> None:
        self.bytes_sent += len(data)
        self.sock.sendall(data)

    def _recv(self, n: int) -> list:
        """The next n bytes as they arrive, at most 1 MiB a read."""
        chunks = []
        while n:
            chunk = self.sock.recv(min(n, 1 << 20))
            if not chunk:
                raise PeerClosed("peer closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return chunks

    def recv_bytes(self, timeout: float | None = 60.0) -> bytes:
        self.sock.settimeout(timeout)
        try:
            head = b"".join(self._recv(_LENGTH.size))
            data = b"".join([head, *self._recv(_LENGTH.unpack(head)[0])])
        except socket.timeout:
            raise ConnectTimeout("peer sent nothing before the deadline")
        self.bytes_received += len(data)
        return data

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def connect(host: str, port: int, deadline: float = 10.0, retry: float = 0.05) -> SocketChannel:
    """Dial a peer, retrying until the deadline."""
    end = time.monotonic() + deadline
    last = None
    while time.monotonic() < end:
        try:
            sock = socket.create_connection((host, port), timeout=retry * 4)
            return SocketChannel(sock)
        except OSError as exc:
            last = exc
            time.sleep(retry)
    raise ConnectTimeout(f"could not reach {host}:{port} within {deadline}s: {last}")


def bind(host: str, port: int, count: int) -> socket.socket:
    """A socket bound to host:port that queues up to count dialers until
    accept takes them: a peer's connect succeeds from here on."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(count)
    except OSError:
        srv.close()
        raise
    return srv


def accept(srv: socket.socket, count: int, timeout: float = 30.0) -> list:
    """Accept count connections on the bound socket srv, each within
    timeout seconds, then close it; ConnectTimeout naming the address when
    one does not come."""
    chans = []
    with srv:
        host, port = srv.getsockname()[:2]
        srv.settimeout(timeout)
        try:
            while len(chans) < count:
                chans.append(SocketChannel(srv.accept()[0]))
        except socket.timeout:
            for chan in chans:
                chan.close()
            raise ConnectTimeout(f"{count - len(chans)} of {count} peers did not connect to "
                                 f"{host}:{port} within {timeout}s") from None
    return chans


def listen(host: str, port: int, count: int, timeout: float = 30.0) -> list:
    """Accept count connections on host:port (bind, then accept)."""
    return accept(bind(host, port, count), count, timeout)


class FrameIO:
    """One session's numbered frames over a channel; sent and received
    count the frames each way, so each is its direction's next number."""

    def __init__(self, channel, session: int):
        self.channel = channel
        self.session = session
        self.sent = 0
        self.received = 0

    def send(self, kind: int, payload) -> None:
        self.channel.send_bytes(pack_frame(kind, self.session, self.sent, payload))
        self.sent += 1

    def recv(self, expect_kind: int, timeout: float | None = 60.0) -> memoryview:
        """The next frame's payload, a read-only view of the bytes received;
        SessionMismatch for a frame of another session, RoundDesync naming
        both for a frame of another number or kind."""
        data = memoryview(self.channel.recv_bytes(timeout=timeout))
        kind, session, seq, payload, _ = unpack_frame(data)
        if session != self.session:
            raise SessionMismatch(f"frame for session {session}, expected {self.session}")
        if seq != self.received:
            raise RoundDesync(f"expected frame {self.received}, peer sent frame {seq}")
        if kind != expect_kind:
            raise RoundDesync(f"expected frame kind {expect_kind}, got {kind}")
        self.received += 1
        return payload
