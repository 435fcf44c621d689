import pytest

from veiltrain.engine import run_two_party
from veiltrain.fixedpoint import RingConfig

RING = RingConfig()


@pytest.fixture(scope="session")
def ring():
    return RING


def run_both(fn, seed=1, cfg=RING, transport="queue", public=None, counts=None):
    """Run fn on both parties, provisioned exactly from a dry run unless
    counts are given."""
    return run_two_party(fn, session_seed=seed, counts=counts, cfg=cfg,
                         transport=transport, handshake_public=public)
