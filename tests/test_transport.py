import threading

import numpy as np
import pytest

from veiltrain.errors import (ConnectTimeout, ParseError, PeerClosed, RoundDesync,
                              SessionMismatch)
from veiltrain.harness import _free_port
from veiltrain.transport import (KIND_OPEN, FrameIO, accept, bind, connect, decode_kv, encode_kv,
                                 listen, pack_frame, payload_u64, queue_pair, u64_payload,
                                 unpack_frame)


def test_frame_round_trip():
    payload = u64_payload(np.array([1, 2, 2**64 - 1], dtype=np.uint64))
    raw = pack_frame(KIND_OPEN, 7, payload, round_no=5)
    kind, session, round_no, body = unpack_frame(raw[4:], with_round=True)
    assert (kind, session, round_no) == (KIND_OPEN, 7, 5)
    assert np.array_equal(payload_u64(body), [1, 2, 2**64 - 1])


def test_frame_without_round():
    raw = pack_frame(3, 9, b"abc")
    kind, session, round_no, body = unpack_frame(raw[4:], with_round=False)
    assert (kind, session, round_no, body) == (3, 9, None, b"abc")


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
    io_a = FrameIO(a, session=1, with_round=True)
    io_b = FrameIO(b, session=2, with_round=True)
    io_a.send(KIND_OPEN, b"", 0)
    with pytest.raises(SessionMismatch):
        io_b.recv()


def test_frameio_checks_round():
    a, b = queue_pair()
    io_a = FrameIO(a, session=1, with_round=True)
    io_b = FrameIO(b, session=1, with_round=True)
    io_a.send(KIND_OPEN, b"", 3)
    with pytest.raises(RoundDesync):
        io_b.recv(expect_round=4)


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
        chan.send_bytes(pack_frame(KIND_OPEN, 1, b"reply"))
        chan.close()

    th = threading.Thread(target=accept)
    th.start()
    chan = connect("127.0.0.1", port, deadline=5)
    chan.send_bytes(pack_frame(KIND_OPEN, 1, b"hello"))
    got = chan.recv_bytes()
    th.join()
    srv.close()
    kind, session, _, body = unpack_frame(got[4:], with_round=False)
    assert body == b"reply"
    _, _, _, sbody = unpack_frame(result["server"][4:], with_round=False)
    assert sbody == b"hello"


def test_listen_accepts_each_dialer():
    port = _free_port()
    chans = []
    th = threading.Thread(target=lambda: chans.extend(listen("127.0.0.1", port, 2, 10)))
    th.start()
    dialers = [connect("127.0.0.1", port, deadline=5) for _ in range(2)]
    th.join(timeout=10)
    assert len(chans) == 2
    for i, (dialer, chan) in enumerate(zip(dialers, chans)):
        dialer.send_bytes(pack_frame(KIND_OPEN, 1, bytes([i])))
        assert unpack_frame(chan.recv_bytes(timeout=5)[4:], with_round=False)[3] == bytes([i])
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
    dialer.send_bytes(pack_frame(KIND_OPEN, 1, b"early"))
    [chan] = accept(srv, 1, timeout=5)
    assert unpack_frame(chan.recv_bytes(timeout=5)[4:], with_round=False)[3] == b"early"
    assert srv.fileno() == -1
    for c in (dialer, chan):
        c.close()


def test_connect_timeout():
    with pytest.raises(ConnectTimeout):
        connect("127.0.0.1", 1, deadline=0.3)
