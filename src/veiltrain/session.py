"""Session wiring for a computing party: handshake, synchronized rounds,
and transcript accounting.

Rounds are strictly sequenced: every protocol step that communicates does one
symmetric exchange with the peer, tagged with a round counter that both sides
verify. Control flow is data-independent, so lock-step blocking receives are
all the scheduling a session needs. Independent branches of a protocol
(engine parallel) share rounds: each round then carries every branch's
payload and is recorded under one branch's phase path.
"""

from __future__ import annotations

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
class RoundRecord:
    round_no: int
    bytes_sent: int
    bytes_received: int
    seconds: float
    path: str  # the enclosing phases, outermost first, "/"-joined ("-" for none)
    riders: tuple = ()  # paths of the other parallel branches whose payloads it carried


@dataclass
class Transcript:
    """Per-round and per-phase communication accounting for one party.

    Phases nest on a stack per thread: each parallel branch's thread adopts
    its own, and a round is recorded under the sending thread's stack."""

    rounds: list = field(default_factory=list)
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

    @staticmethod
    def path_of(stack: list) -> str:
        return "/".join(stack[1:]) or "-"

    def record(self, round_no, sent, received, seconds):
        self.rounds.append(RoundRecord(round_no, sent, received, seconds,
                                       self.path_of(self.phase_stack)))

    @property
    def n_rounds(self):
        return len(self.rounds)

    @property
    def bytes_sent(self):
        return sum(r.bytes_sent for r in self.rounds)

    @property
    def bytes_received(self):
        return sum(r.bytes_received for r in self.rounds)

    def by_path(self):
        """Rounds, bytes and seconds per phase path."""
        out = {}
        for r in self.rounds:
            agg = out.setdefault(r.path, {"rounds": 0, "bytes_sent": 0, "bytes_received": 0,
                                          "seconds": 0.0})
            agg["rounds"] += 1
            agg["bytes_sent"] += r.bytes_sent
            agg["bytes_received"] += r.bytes_received
            agg["seconds"] += r.seconds
        return out

    def by_overlap(self):
        """Rounds per phase path of the branches that rode in rounds
        recorded under another branch's path."""
        out = {}
        for r in self.rounds:
            for path in r.riders:
                out[path] = out.get(path, 0) + 1
        return out

    def by_phase(self):
        """The same totals per innermost phase."""
        out = {}
        for path, agg in self.by_path().items():
            into = out.setdefault(path.rsplit("/", 1)[-1], dict.fromkeys(agg, 0))
            for k, v in agg.items():
                into[k] += v
        return out


class PartyRuntime:
    """One computing party's end of an established session."""

    def __init__(self, party_id: int, session_id: int, channel,
                 cfg: RingConfig = DEFAULT_RING):
        self.party_id = party_id
        self.session_id = session_id
        self.cfg = cfg
        self.io = FrameIO(channel, session_id, with_round=True)
        self.channel = channel
        self.round_no = 0
        self.transcript = Transcript()

    def exchange(self, payload: np.ndarray) -> np.ndarray:
        """Send our share of an opening, receive the peer's; one round."""
        t0 = time.perf_counter()
        before_out = self.channel.bytes_sent
        before_in = self.channel.bytes_received
        self.io.send(KIND_OPEN, u64_payload(payload), self.round_no)
        _, _, body = self.io.recv(expect_kind=KIND_OPEN, expect_round=self.round_no)
        self.round_no += 1
        out = payload_u64(body).reshape(np.shape(payload))
        self.transcript.record(self.round_no - 1,
                               self.channel.bytes_sent - before_out,
                               self.channel.bytes_received - before_in,
                               time.perf_counter() - t0)
        return out

    def phase(self, name: str):
        return _Phase(self.transcript, name)


class _Phase:
    def __init__(self, transcript, name):
        self.transcript = transcript
        self.name = name

    def __enter__(self):
        self.transcript.phase_stack.append(self.name)
        return self

    def __exit__(self, *exc):
        self.transcript.phase_stack.pop()
        return False


def handshake(rt: PartyRuntime, public: dict) -> None:
    """Exchange the public configs (encode_kv); abort naming the differing key."""
    hello = encode_kv(dict(public, protocol_version=PROTOCOL_VERSION))
    rt.io.send(KIND_HELLO, hello, rt.round_no)
    _, _, theirs = rt.io.recv(expect_kind=KIND_HELLO, expect_round=rt.round_no)
    rt.round_no += 1
    mine, theirs = decode_kv(hello), decode_kv(theirs)
    for key in sorted(set(mine) | set(theirs)):
        if mine.get(key) != theirs.get(key):
            raise ConfigMismatch(key, mine.get(key), theirs.get(key))


def run_report(transcript: Transcript, party_id: int, session_id: int,
               epsilon_total: float = 0.0) -> dict:
    """Summarize a completed session as a flat report mapping.

    epsilon_total is the privacy budget the session's opened models spend.
    Every round counts once, under its path; overlap.<path>.rounds counts
    the rounds a parallel branch rode in under another branch's path."""
    report = {
        "party": party_id,
        "session": session_id,
        "rounds": transcript.n_rounds,
        "bytes_sent": transcript.bytes_sent,
        "bytes_received": transcript.bytes_received,
        "seconds": round(sum(r.seconds for r in transcript.rounds), 6),
        "epsilon_total": epsilon_total,
    }
    for phase, agg in sorted(transcript.by_phase().items()):
        report[f"phase.{phase}.rounds"] = agg["rounds"]
        report[f"phase.{phase}.bytes_sent"] = agg["bytes_sent"]
        report[f"phase.{phase}.seconds"] = round(agg["seconds"], 6)
    for path, agg in sorted(transcript.by_path().items()):
        report[f"path.{path}.rounds"] = agg["rounds"]
        report[f"path.{path}.bytes_sent"] = agg["bytes_sent"]
    for path, rounds in sorted(transcript.by_overlap().items()):
        report[f"overlap.{path}.rounds"] = rounds
    return report
