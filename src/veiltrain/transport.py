"""Length-prefixed binary framing, its key=value text payloads, and the
channels that carry it.

Frame layout: 4-byte little-endian frame length (bytes after this field),
1-byte message kind, 4-byte session id, then the payload: little-endian
64-bit ring elements, or for control messages and file metadata the sorted
`key=value` lines of encode_kv. Party-to-party frames insert a 4-byte round
counter between the session id and the payload; dealer and file frames do
not.
"""

from __future__ import annotations

import queue
import socket
import struct

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
_HEADER = struct.Struct("<IBI")
_ROUND = struct.Struct("<I")


def pack_frame(kind: int, session: int, payload: bytes, round_no: int | None = None) -> bytes:
    body = _HEADER.pack(0, kind, session)[4:]  # kind + session only
    if round_no is not None:
        body += _ROUND.pack(round_no)
    body += payload
    return struct.pack("<I", len(body)) + body


def unpack_frame(body: bytes, with_round: bool):
    kind = body[0]
    session = struct.unpack_from("<I", body, 1)[0]
    off = 5
    round_no = None
    if with_round:
        round_no = struct.unpack_from("<I", body, off)[0]
        off += 4
    return kind, session, round_no, body[off:]


def encode_kv(mapping: dict) -> bytes:
    """One `key=value` line per key, sorted by key, newline-joined."""
    return "\n".join(f"{k}={mapping[k]}" for k in sorted(mapping)).encode()


def decode_kv(payload: bytes) -> dict:
    """The str-to-str mapping of encode_kv's lines; ParseError for a line
    without '='."""
    out = {}
    for line in payload.decode(errors="replace").splitlines():
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(f"expected key=value, got {line!r}")
        out[key] = value
    return out


def u64_payload(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<u8").tobytes()


def payload_u64(payload: bytes) -> np.ndarray:
    return np.frombuffer(payload, dtype="<u8").astype(np.uint64)


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

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        while n:
            chunk = self.sock.recv(min(n, 1 << 20))
            if not chunk:
                raise PeerClosed("peer closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def recv_bytes(self, timeout: float | None = 60.0) -> bytes:
        self.sock.settimeout(timeout)
        try:
            header = self._recv_exact(4)
            (length,) = struct.unpack("<I", header)
            body = self._recv_exact(length)
        except socket.timeout:
            raise ConnectTimeout("peer sent nothing before the deadline")
        self.bytes_received += 4 + len(body)
        return header + body

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def connect(host: str, port: int, deadline: float = 10.0, retry: float = 0.05) -> SocketChannel:
    """Dial a peer, retrying until the deadline."""
    import time

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
    """Frame-level send/receive with session and round checking."""

    def __init__(self, channel, session: int, with_round: bool):
        self.channel = channel
        self.session = session
        self.with_round = with_round

    def send(self, kind: int, payload: bytes, round_no: int | None = None) -> None:
        self.channel.send_bytes(pack_frame(kind, self.session, payload, round_no))

    def recv(self, expect_kind: int | None = None, expect_round: int | None = None,
             timeout: float | None = 60.0):
        data = self.channel.recv_bytes(timeout=timeout)
        kind, session, round_no, payload = unpack_frame(data[4:], self.with_round)
        if session != self.session:
            raise SessionMismatch(f"frame for session {session}, expected {self.session}")
        if expect_kind is not None and kind != expect_kind:
            raise RoundDesync(f"expected frame kind {expect_kind}, got {kind}")
        if expect_round is not None and round_no != expect_round:
            raise RoundDesync(f"expected round {expect_round}, peer sent {round_no}")
        return kind, round_no, payload
