import socket

import pytest

from veiltrain import engine
from veiltrain.dealer import MaterialSource
from veiltrain.engine import PlainEngine, run_two_party
from veiltrain.fixedpoint import RingConfig, decode, encode
from veiltrain.training import train_pipeline
from veiltrain.transport import SocketChannel

RING = RingConfig()
# the frac_bits shareio.ring_from_config accepts (test_config pins them)
ACCEPTED_RINGS = range(12, 23)


@pytest.fixture(scope="session")
def ring():
    return RING


def run_both(fn, seed=1, cfg=RING, public=None, counts=None):
    """Run fn on both parties, provisioned exactly from a dry run unless
    counts are given."""
    return run_two_party(fn, session_seed=seed, counts=counts, cfg=cfg,
                         handshake_public=public)


def loopback_pair():
    """Two channels over a loopback TCP connection, party 0's first."""
    lo = socket.create_server(("127.0.0.1", 0))
    cl = socket.create_connection(lo.getsockname())
    sv, _ = lo.accept()
    lo.close()
    return SocketChannel(sv), SocketChannel(cl)


@pytest.fixture
def over_tcp(monkeypatch):
    """Call it to run the test's later run_two_party sessions over loopback
    TCP in place of in-process queues."""
    return lambda: monkeypatch.setattr(engine, "queue_pair", loopback_pair)


def mirror_weights(X, t, tc, seed, ring=RING):
    """The clear-text twin of a training session on X and t: train_pipeline
    on the plain engine, from the session's seed; the decoded weights."""
    eng = PlainEngine(MaterialSource(seed, ring), ring)
    return decode(train_pipeline(eng, encode(X, ring), encode(t, ring), tc), ring)
