"""Session wiring for a computing party: handshake, synchronized rounds,
and transcript accounting.

Rounds are strictly sequenced: every protocol step that communicates does one
symmetric exchange with the peer, one frame each way that FrameIO numbers
and checks: the handshake is frame 0, round r frame r. Control flow is
data-independent, so lock-step blocking receives are all the scheduling a
session needs. Independent branches of a protocol (engine parallel) share
rounds: each round then carries every branch's payload, is recorded under
one branch's phase path, and counts as ridden for the others'.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigMismatch
from .fixedpoint import DEFAULT_RING, RingConfig
from .transport import (KIND_HELLO, KIND_OPEN, FrameIO, decode_kv, encode_kv, payload_u64,
                        u64_payload)

PROTOCOL_VERSION = "veiltrain/1"


@dataclass
class Transcript:
    """One party's communication accounting: a row per phase path.

    A path is the enclosing phases, outermost first, "/"-joined ("-" for
    none). Its row holds the rounds recorded under it with their bytes and
    seconds, and rode, the rounds its branch rode in under another branch's
    path. Phases nest on a stack per thread: each parallel branch's thread
    adopts its own, and a round is recorded under the sending thread's
    stack. Rounds are sequenced, so one thread at a time records a round
    and the rides in it."""

    paths: dict = field(default_factory=dict)
    root_stack: list = field(default_factory=lambda: ["-"])
    _local: threading.local = field(default_factory=threading.local, repr=False,
                                    compare=False)

    @property
    def phase_stack(self) -> list:
        """The calling thread's phase stack."""
        return getattr(self._local, "stack", self.root_stack)

    def adopt(self, stack: list):
        """Give the calling thread its own phase stack."""
        self._local.stack = stack

    def _row(self, stack: list) -> dict:
        path = "/".join(stack[1:]) or "-"
        return self.paths.setdefault(path, {"rounds": 0, "bytes_sent": 0, "bytes_received": 0,
                                            "seconds": 0.0, "rode": 0})

    def record(self, sent, received, seconds):
        """One round under the calling thread's phase path."""
        row = self._row(self.phase_stack)
        row["rounds"] += 1
        row["bytes_sent"] += sent
        row["bytes_received"] += received
        row["seconds"] += seconds

    def ride(self, stacks):
        """One ridden round for the branch of each phase stack."""
        for stack in stacks:
            self._row(stack)["rode"] += 1

    def total(self, column: str):
        """The column's sum over the rows."""
        return sum(row[column] for row in self.paths.values())

    @property
    def n_rounds(self):
        return self.total("rounds")

    @property
    def bytes_sent(self):
        return self.total("bytes_sent")

    @property
    def bytes_received(self):
        return self.total("bytes_received")


class PartyRuntime:
    """One computing party's end of an established session."""

    def __init__(self, party_id: int, session_id: int, channel,
                 cfg: RingConfig = DEFAULT_RING):
        self.party_id = party_id
        self.session_id = session_id
        self.cfg = cfg
        self.io = FrameIO(channel, session_id)
        self.channel = channel
        self.transcript = Transcript()

    def exchange(self, payload: np.ndarray) -> np.ndarray:
        """Send our share of an opening, receive the peer's; one round."""
        t0 = time.perf_counter()
        before_out = self.channel.bytes_sent
        before_in = self.channel.bytes_received
        self.io.send(KIND_OPEN, u64_payload(payload))
        out = payload_u64(self.io.recv(KIND_OPEN)).reshape(np.shape(payload))
        self.transcript.record(self.channel.bytes_sent - before_out,
                               self.channel.bytes_received - before_in,
                               time.perf_counter() - t0)
        return out

    @contextlib.contextmanager
    def phase(self, name: str):
        """Nest the calling thread's rounds under name."""
        stack = self.transcript.phase_stack
        stack.append(name)
        try:
            yield
        finally:
            stack.pop()


def handshake(rt: PartyRuntime, public: dict) -> None:
    """Exchange the public configs (encode_kv); abort naming the differing key."""
    hello = encode_kv(dict(public, protocol_version=PROTOCOL_VERSION))
    rt.io.send(KIND_HELLO, hello)
    mine, theirs = decode_kv(hello), decode_kv(rt.io.recv(KIND_HELLO))
    for key in sorted(set(mine) | set(theirs)):
        if mine.get(key) != theirs.get(key):
            raise ConfigMismatch(key, mine.get(key), theirs.get(key))


def run_report(transcript: Transcript, party_id: int, session_id: int,
               epsilon_total: float = 0.0) -> dict:
    """Summarize a completed session as the party report: its totals, and
    the transcript's rows by path under "paths", which sum to them.

    epsilon_total is the privacy budget the session's opened models spend."""
    return {
        "party": party_id,
        "session": session_id,
        "rounds": transcript.n_rounds,
        "bytes_sent": transcript.bytes_sent,
        "bytes_received": transcript.bytes_received,
        "seconds": round(transcript.total("seconds"), 6),
        "epsilon_total": epsilon_total,
        "paths": {path: dict(row, seconds=round(row["seconds"], 6))
                  for path, row in sorted(transcript.paths.items())},
    }
