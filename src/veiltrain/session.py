"""Session wiring for a computing party: handshake, synchronized rounds,
and transcript accounting.

Rounds are strictly sequenced: every protocol step that communicates does one
symmetric exchange with the peer, tagged with a round counter that both sides
verify. Control flow is data-independent, so lock-step blocking receives are
all the scheduling a session needs.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigMismatch
from .fixedpoint import DEFAULT_RING, RingConfig
from .transport import KIND_HELLO, KIND_OPEN, FrameIO, payload_u64, u64_payload

PROTOCOL_VERSION = "veiltrain/1"


@dataclass
class RoundRecord:
    round_no: int
    bytes_sent: int
    bytes_received: int
    seconds: float
    path: str  # the enclosing phases, outermost first, "/"-joined ("-" for none)


@dataclass
class Transcript:
    """Per-round and per-phase communication accounting for one party."""

    rounds: list = field(default_factory=list)
    phase_stack: list = field(default_factory=lambda: ["-"])

    def record(self, round_no, sent, received, seconds):
        self.rounds.append(RoundRecord(round_no, sent, received, seconds,
                                       "/".join(self.phase_stack[1:]) or "-"))

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
        out = payload_u64(body).reshape(np.shape(payload)).astype(self.cfg.udtype)
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


def canonical_config(public: dict) -> bytes:
    lines = [f"{k}={public[k]}" for k in sorted(public)]
    return ("\n".join(lines)).encode()


def config_digest(public: dict) -> str:
    return hashlib.sha256(canonical_config(public)).hexdigest()


def handshake(rt: PartyRuntime, public: dict) -> str:
    """Exchange canonical public configs; abort naming the differing key."""
    public = dict(public)
    public["protocol_version"] = PROTOCOL_VERSION
    mine = canonical_config(public)
    rt.io.send(KIND_HELLO, mine, rt.round_no)
    _, _, theirs_raw = rt.io.recv(expect_kind=KIND_HELLO, expect_round=rt.round_no)
    rt.round_no += 1
    if theirs_raw != mine:
        mine_kv = dict(line.split("=", 1) for line in mine.decode().splitlines())
        theirs_kv = dict(line.split("=", 1) for line in theirs_raw.decode().splitlines())
        for key in sorted(set(mine_kv) | set(theirs_kv)):
            if mine_kv.get(key) != theirs_kv.get(key):
                raise ConfigMismatch(key, mine_kv.get(key), theirs_kv.get(key))
        raise ConfigMismatch("<ordering>")
    return config_digest(public)


def run_report(transcript: Transcript, party_id: int, session_id: int) -> dict:
    """Summarize a completed session as a flat report mapping."""
    report = {
        "party": party_id,
        "session": session_id,
        "rounds": transcript.n_rounds,
        "bytes_sent": transcript.bytes_sent,
        "bytes_received": transcript.bytes_received,
        "seconds": round(sum(r.seconds for r in transcript.rounds), 6),
    }
    for phase, agg in sorted(transcript.by_phase().items()):
        report[f"phase.{phase}.rounds"] = agg["rounds"]
        report[f"phase.{phase}.bytes_sent"] = agg["bytes_sent"]
        report[f"phase.{phase}.seconds"] = round(agg["seconds"], 6)
    for path, agg in sorted(transcript.by_path().items()):
        report[f"path.{path}.rounds"] = agg["rounds"]
        report[f"path.{path}.bytes_sent"] = agg["bytes_sent"]
    return report
