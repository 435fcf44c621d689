import socket

import numpy as np
import pytest

from veiltrain import engine
from veiltrain.dealer import MaterialSource
from veiltrain.engine import PlainEngine, run_two_party
from veiltrain.fixedpoint import RingConfig, decode, encode
from veiltrain.harness import run_threaded_session
from veiltrain.ingest import ingest_partitions, split_raw
from veiltrain.shareio import ring_from_config
from veiltrain.training import l2_normalize, train_pipeline
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
    on the plain engine, on X's rows as the owner scales them
    (l2_normalize), from the session's seed; the decoded weights."""
    eng = PlainEngine(MaterialSource(seed, ring), ring)
    return decode(train_pipeline(eng, l2_normalize(X, ring), encode(t, ring), tc), ring)


def block_scaled_session(parts, cfg, seed, draws):
    """The one-owner session on the matrix that vertical owners' scaled
    blocks assemble to (ingest_partitions), split afresh: its weights as
    ring elements and its opened noisy models."""
    ring = ring_from_config(cfg)
    (X0, t0), (X1, t1) = ingest_partitions(parts, "vertical", ring)
    rng = np.random.default_rng()
    (x0, x1), (s0, s1) = split_raw(X0 + X1, rng), split_raw(t0 + t1, rng)
    ((out0, _), (out1, _)), _ = run_threaded_session(((x0, s0), (x1, s1)), cfg, seed, draws)
    return out0["w_share"] + out1["w_share"], decode(out0["noisy"], ring)
