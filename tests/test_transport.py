import struct
import threading

import numpy as np
import pytest

from veiltrain.errors import (ConnectTimeout, ParseError, PeerClosed, RoundDesync,
                              SessionMismatch)
from veiltrain.harness import _free_port
from veiltrain.transport import (KIND_HELLO, KIND_OPEN, FrameIO, accept, bind, connect,
                                 decode_kv, encode_kv, listen, pack_frame, payload_u64,
                                 queue_pair, u64_payload, unpack_frame)


def test_frame_round_trip():
    payload = u64_payload(np.array([1, 2, 2**64 - 1], dtype=np.uint64))
    raw = pack_frame(KIND_OPEN, 7, 5, payload)
    assert raw[:13] == b"\x21\x00\x00\x00\x02\x07\x00\x00\x00\x05\x00\x00\x00"
    kind, session, seq, body, rest = unpack_frame(memoryview(raw + b"next"))
    assert (kind, session, seq, bytes(rest)) == (KIND_OPEN, 7, 5, b"next")
    assert np.array_equal(payload_u64(body), [1, 2, 2**64 - 1])


def test_frames_are_read_in_place_and_read_only():
    # u64_payload is a view of a contiguous array, and payload_u64 a view
    # of the received bytes: a write into one raises
    words = np.array([3, 4], dtype=np.uint64)
    payload = u64_payload(words)
    words[0] = 9
    assert payload_u64(payload)[0] == 9
    _, _, _, body, _ = unpack_frame(memoryview(pack_frame(KIND_OPEN, 1, 0, payload)))
    got = payload_u64(body)
    with pytest.raises(ValueError):
        got[0] = 1


def _tcp_pair():
    port = _free_port()
    srv = bind("127.0.0.1", port, 1)
    dialer = connect("127.0.0.1", port, deadline=5)
    return dialer, accept(srv, 1, timeout=5)[0]


@pytest.mark.parametrize("pair", [queue_pair, _tcp_pair])
@pytest.mark.parametrize("length", [0, 1, 8])
def test_a_frame_shorter_than_its_header_is_refused_naming_its_length(pair, length):
    a, b = pair()
    a.send_bytes(struct.pack("<I", length) + bytes(length))
    with pytest.raises(ParseError, match=f"frame length {length} is shorter than its 9-byte"):
        FrameIO(b, session=1).recv(KIND_OPEN, timeout=5)
    a.close(), b.close()


def test_a_frame_shorter_than_its_length_field_is_refused():
    a, b = queue_pair()
    a.send_bytes(pack_frame(KIND_OPEN, 1, 0, b"abc")[:-1])
    with pytest.raises(ParseError, match="truncated frame: length 12, 11 bytes follow"):
        FrameIO(b, session=1).recv(KIND_OPEN)
    a.send_bytes(b"\x01")
    with pytest.raises(ParseError, match="truncated frame: 1 bytes"):
        FrameIO(b, session=1).recv(KIND_OPEN)


def test_key_value_codec_round_trip():
    raw = encode_kv({"seed": 1, "epsilon": 0.5, "name": "a=b", "empty": ""})
    assert raw == b"empty=\nepsilon=0.5\nname=a=b\nseed=1"  # sorted by key
    assert decode_kv(raw) == {"seed": "1", "epsilon": "0.5", "name": "a=b", "empty": ""}
    assert decode_kv(encode_kv({})) == {}
    with pytest.raises(ParseError):
        decode_kv(raw + b"\nno equals sign")


def test_queue_pair_duplex():
    a, b = queue_pair()
    a.send_bytes(b"ping")
    assert b.recv_bytes() == b"ping"
    b.send_bytes(b"pong")
    assert a.recv_bytes() == b"pong"
    assert a.bytes_sent == 4 and a.bytes_received == 4


def test_queue_close_wakes_the_peer():
    a, b = queue_pair()
    a.send_bytes(b"last")
    got = []

    def receive():
        got.append(b.recv_bytes(timeout=10))
        try:
            b.recv_bytes(timeout=10)
        except PeerClosed as exc:
            got.append(exc)

    t = threading.Thread(target=receive)
    t.start()
    a.close()
    t.join(timeout=5)
    assert not t.is_alive()
    assert got[0] == b"last" and isinstance(got[1], PeerClosed)


def test_frameio_checks_session():
    a, b = queue_pair()
    io_a = FrameIO(a, session=1)
    io_b = FrameIO(b, session=2)
    io_a.send(KIND_OPEN, b"")
    with pytest.raises(SessionMismatch):
        io_b.recv(KIND_OPEN)


def test_frameio_checks_round():
    # each direction numbers its frames; recv refuses any but the next
    a, b = queue_pair()
    io_a, io_b = FrameIO(a, session=1), FrameIO(b, session=1)
    io_a.send(KIND_OPEN, b"x")
    io_a.send(KIND_OPEN, b"y")
    assert bytes(io_b.recv(KIND_OPEN)) == b"x" and bytes(io_b.recv(KIND_OPEN)) == b"y"
    assert (io_a.sent, io_a.received, io_b.sent, io_b.received) == (2, 0, 0, 2)
    a.send_bytes(pack_frame(KIND_OPEN, 1, 3, b""))  # frame 2 skipped
    with pytest.raises(RoundDesync, match="expected frame 2, peer sent frame 3"):
        io_b.recv(KIND_OPEN)
    a.send_bytes(pack_frame(KIND_OPEN, 1, 1, b""))  # frame 1 repeated
    with pytest.raises(RoundDesync, match="expected frame 2, peer sent frame 1"):
        io_b.recv(KIND_OPEN)
    io_a.send(KIND_HELLO, b"")
    with pytest.raises(RoundDesync, match=f"expected frame kind {KIND_OPEN}, got {KIND_HELLO}"):
        io_b.recv(KIND_OPEN)


def test_tcp_channel_round_trip():
    import socket

    result = {}

    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    port = srv.getsockname()[1]

    def accept():
        conn, _ = srv.accept()
        from veiltrain.transport import SocketChannel

        chan = SocketChannel(conn)
        result["server"] = chan.recv_bytes()
        chan.send_bytes(pack_frame(KIND_OPEN, 1, 0, b"reply"))
        chan.close()

    th = threading.Thread(target=accept)
    th.start()
    chan = connect("127.0.0.1", port, deadline=5)
    chan.send_bytes(pack_frame(KIND_OPEN, 1, 0, b"hello"))
    got = chan.recv_bytes()
    th.join()
    srv.close()
    assert unpack_frame(memoryview(got))[3] == b"reply"
    assert unpack_frame(memoryview(result["server"]))[3] == b"hello"


def test_listen_accepts_each_dialer():
    port = _free_port()
    chans = []
    th = threading.Thread(target=lambda: chans.extend(listen("127.0.0.1", port, 2, 10)))
    th.start()
    dialers = [connect("127.0.0.1", port, deadline=5) for _ in range(2)]
    th.join(timeout=10)
    assert len(chans) == 2
    for i, (dialer, chan) in enumerate(zip(dialers, chans)):
        dialer.send_bytes(pack_frame(KIND_OPEN, 1, 0, bytes([i])))
        assert unpack_frame(memoryview(chan.recv_bytes(timeout=5)))[3] == bytes([i])
    for chan in dialers + chans:
        chan.close()


def test_listen_times_out_naming_the_address():
    port = _free_port()
    with pytest.raises(ConnectTimeout, match=f"127.0.0.1:{port}"):
        listen("127.0.0.1", port, 1, timeout=0.3)


def test_a_dialer_reaches_a_bound_address_before_it_is_accepted():
    # party 0 binds the peer address before it provisions: party 1's
    # connect succeeds at once and waits in the backlog until accept takes
    # it, which then closes the bound socket
    port = _free_port()
    srv = bind("127.0.0.1", port, 1)
    dialer = connect("127.0.0.1", port, deadline=1, retry=5.0)
    dialer.send_bytes(pack_frame(KIND_OPEN, 1, 0, b"early"))
    [chan] = accept(srv, 1, timeout=5)
    assert unpack_frame(memoryview(chan.recv_bytes(timeout=5)))[3] == b"early"
    assert srv.fileno() == -1
    for c in (dialer, chan):
        c.close()


def test_connect_timeout():
    with pytest.raises(ConnectTimeout):
        connect("127.0.0.1", 1, deadline=0.3)
