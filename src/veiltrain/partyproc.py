"""Process-mode roles: the dealer service and the computing-party main loop.

The dealer listens for both parties, checks that they request identical
provisioning, and sends party 0 the seed of its half of the correlated
randomness in one frame, and party 1 its half's words as framed binary.
Each role reads only its own seed (dealer_seed, bit_seed), draws a fresh
one without it, and refuses a config holding the other's. Parties then
meet over the configured peer address, handshake on the public config, and
run the staged pipeline on their share files. Every party file is named
here alone, each writer beside its reader.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .dealer import (_KIND_TAGS, _SPLIT_WORDS, MaterialCursor, MaterialSource, check_key,
                     material_order)
from .errors import ConfigMismatch, Exhausted, ParseError
from .fixedpoint import decode
from .session import PartyRuntime, handshake
from .shareio import (check_ring_meta, public_section, read_share_file, read_weights_file,
                      ring_from_config, write_share_file, write_weights_file)
from .transport import (KIND_HELLO, KIND_MATERIAL, KIND_PROVISION, KIND_SEED, FrameIO, accept,
                        bind, connect, decode_kv, encode_kv, listen, payload_u64, u64_payload)

SEED_BYTES = 16  # a 128-bit seed, little-endian, in the dealer's seed frame


def _require_keys(cfg: dict, role: str, *keys) -> None:
    """ParseError naming the first of keys, deployment keys with no default
    (README's config table), that cfg lacks."""
    for key in keys:
        if key not in cfg:
            raise ParseError(f"the {role} needs config key {key!r}, which has no default")


def _refuse_seed(cfg: dict, role: str, key: str) -> None:
    """ParseError naming key, another role's seed, where cfg holds it: one
    config shared by the roles would hand each party the dealer's seed, and
    both parties one bit seed."""
    if key in cfg:
        raise ParseError(f"the {role}'s config holds {key!r}, another role's seed")


def own_seed(cfg: dict, key: str) -> int:
    """The role's own seed cfg[key], or a fresh 128-bit one (secrets)
    where the config gives none."""
    if key in cfg:
        return cfg[key]
    import secrets  # loads OpenSSL, about 4 MB, so only a role without its seed imports it

    return secrets.randbits(8 * SEED_BYTES)


def encode_counts(counts: dict) -> bytes:
    """A provisioning request: one `kind:parameter=count` line per key (encode_kv)."""
    return encode_kv({f"{key[0]}:{key[1] if len(key) > 1 else ''}": n
                      for key, n in counts.items()})


def decode_counts(payload: bytes) -> dict:
    """Parse a provisioning request; ParseError for a malformed line, a
    negative count, or a key the dealer does not generate."""
    out = {}
    for head, value in decode_kv(payload).items():
        try:
            kind, shift = head.split(":", 1)
            key = (kind, int(shift)) if shift else (kind,)
            count = int(value)
        except ValueError:
            raise ParseError(f"malformed provisioning line {head}={value}") from None
        check_key(key)
        if count < 0:
            raise ParseError(f"negative count in provisioning line {head}={value}")
        out[key] = count
    return out


def _material_head(key) -> bytes:
    """Two header bytes naming a material key: its stream tag and parameter."""
    return bytes([_KIND_TAGS[key[0]], key[1] if len(key) > 1 else 0])


def _material_payload(key, arrays) -> bytes:
    return _material_head(key) + u64_payload(np.concatenate([np.ravel(a) for a in arrays]))


def serve_dealer(cfg: dict) -> None:
    """Accept both parties and verify matching provisioning requests; send
    party 0 the split seed (dealer.split_seed) in one frame, then generate
    party 1's half of the material from the dealer's seed and ship it."""
    _refuse_seed(cfg, "dealer", "bit_seed")
    _require_keys(cfg, "dealer", "dealer_host", "dealer_port")
    ring = ring_from_config(cfg)
    source = MaterialSource(None, ring, dealer=own_seed(cfg, "dealer_seed"))
    chans = listen(cfg["dealer_host"], cfg["dealer_port"], 2, cfg["connect_deadline"])
    try:
        requests, ios = {}, {}
        for chan in chans:
            io = FrameIO(chan, cfg["session_id"])
            party = decode_kv(io.recv(KIND_HELLO)).get("party")
            requests[party], ios[party] = decode_counts(io.recv(KIND_PROVISION)), io
        if requests.get("0") != requests.get("1"):
            raise ConfigMismatch("provisioning", requests.get("0"), requests.get("1"))
        ios["0"].send(KIND_SEED, source.split_seed.to_bytes(SEED_BYTES, "little"))
        for key in material_order(requests["1"]):
            half = source.half(key, 1, 0, requests["1"][key])
            ios["1"].send(KIND_MATERIAL, _material_payload(key, half))
    finally:
        for chan in chans:
            chan.close()


class WireMaterial:
    """A process party's material store: its halves, received from the
    dealer (load) or expanded from its split seed (expand), handed out as
    slices (half); its local bits come from its own source."""

    def __init__(self, source: MaterialSource, party: int):
        self.source = source
        self.party = party
        self.buffers: dict = {}

    def load(self, key, payload: bytes):
        if payload[:2] != _material_head(key):
            raise ParseError(f"dealer sent material {payload[:2].hex()} where {key!r} was due")
        self.buffers[key] = tuple(payload_u64(payload[2:]).reshape(_SPLIT_WORDS[key[0]], -1))

    def expand(self, counts: dict):
        """Generate the party's half of every key in counts from its source:
        party 0's from the split seed."""
        for key in material_order(counts):
            self.buffers[key] = self.source.half(key, self.party, 0, counts[key])

    def half(self, key, party: int, start: int, n: int):
        """Items [start, start+n) of the party's half of key
        (MaterialSource.half); the store holds its own party's alone."""
        if party != self.party:
            raise Exhausted(f"party {self.party}'s material holds no half of party {party}")
        return tuple(row[start:start + n] for row in self.buffers[key])

    def party_bit_stream(self, party: int, start: int, n: int, width: int):
        return self.source.party_bit_stream(party, start, n, width)


def provision_from_dealer(cfg: dict, party: int, counts: dict) -> MaterialCursor:
    """Request counts from the dealer and return the party's cursor over
    its material, its local bits from its own seed (bit_seed). Party 0
    receives the split seed and expands its half itself, before it meets
    its peer; party 1 receives its half's words."""
    ring = ring_from_config(cfg)
    chan = connect(cfg["dealer_host"], cfg["dealer_port"],
                   deadline=cfg["connect_deadline"])
    io = FrameIO(chan, cfg["session_id"])
    io.send(KIND_HELLO, encode_kv({"party": party}))
    io.send(KIND_PROVISION, encode_counts(counts))
    bits = {party: own_seed(cfg, "bit_seed")}
    try:
        if party == 0:
            payload = io.recv(KIND_SEED, timeout=600.0)
            if len(payload) != SEED_BYTES:
                raise ParseError(f"dealer sent a seed of {len(payload)} bytes, not {SEED_BYTES}")
            split = int.from_bytes(payload, "little")
            material = WireMaterial(MaterialSource(None, ring, split=split, bits=bits), 0)
        else:
            material = WireMaterial(MaterialSource(None, ring, bits=bits), 1)
            for key in material_order(counts):
                material.load(key, io.recv(KIND_MATERIAL, timeout=600.0))
    finally:
        chan.close()
    if party == 0:
        material.expand(counts)  # while the dealer generates party 1's half
    return MaterialCursor(material, party, counts)


def connect_peer(cfg: dict, party: int, server):
    """The channel to the peer: party 0 accepts it on server, its socket
    bound to the peer address (transport.bind); party 1 dials that
    address."""
    deadline = cfg["connect_deadline"]
    if party == 0:
        return accept(server, 1, deadline)[0]
    return connect(cfg["party0_host"], cfg["party0_port"], deadline=deadline)


def write_party_shares(prefix: str, session: int, party: int, X, t, ring) -> str:
    """Write a party's shares (X, t) to <prefix>.party<party>.shares, the
    file read_party_shares reads; returns its path."""
    path = f"{prefix}.party{party}.shares"
    write_share_file(path, session, party, X, t, ring)
    return path


def read_party_shares(cfg: dict, party: int):
    """Party's (X, t) from <shares_prefix>.party<party>.shares;
    ConfigMismatch unless the file carries the config's session and ring."""
    session, meta, X, t = read_share_file(f"{cfg['shares_prefix']}.party{party}.shares")
    if session != cfg["session_id"]:
        raise ConfigMismatch("session", cfg["session_id"], session)
    check_ring_meta(meta, ring_from_config(cfg))
    return X, t


def _outputs(out_dir: str, party: int) -> list:
    """A party's weights, noisy-model and report files in out_dir."""
    return [os.path.join(out_dir, f"{kind}.party{party}.{ext}")
            for kind, ext in (("weights", "bin"), ("noisy", "csv"), ("report", "json"))]


def write_party_outputs(cfg: dict, party: int, out: dict, report: dict) -> None:
    """Write a party's weight shares, the opened noisy models (when the
    session released any) and its report into cfg["out_dir"]."""
    ring = ring_from_config(cfg)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    weights, noisy, report_path = _outputs(cfg["out_dir"], party)
    write_weights_file(weights, cfg["session_id"], party, out["w_share"], ring)
    if "noisy" in out:
        np.savetxt(noisy, decode(out["noisy"], ring), delimiter=",", fmt="%.10g")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def read_party_outputs(out_dir: str, party: int):
    """What write_party_outputs wrote for the party: its weight share, the
    noisy models (None if the session released none) and its report."""
    weights, noisy, report = _outputs(out_dir, party)
    noisy = np.loadtxt(noisy, delimiter=",", ndmin=2) if os.path.exists(noisy) else None
    with open(report, encoding="utf-8") as fh:
        return read_weights_file(weights)[1], noisy, json.load(fh)


def run_party(cfg: dict, party: int) -> None:
    """The computing-party main loop: load shares, provision, handshake,
    run the session (harness.party_session), and write weights, noisy
    models, and report."""
    from .engine import MpcEngine
    from .harness import party_session

    _refuse_seed(cfg, "party", "dealer_seed")
    _require_keys(cfg, "party", "shares_prefix")
    X, t = read_party_shares(cfg, party)
    _require_keys(cfg, "party", "dealer_host", "dealer_port", "party0_host", "party0_port",
                  "out_dir")
    counts, run = party_session(cfg, *X.shape, cfg["noise_draws"])
    # party 0 binds the peer address before it provisions, so party 1's
    # dial succeeds as soon as its own provisioning ends, with no retry wait
    server = bind(cfg["party0_host"], cfg["party0_port"], 1) if party == 0 else None
    try:
        material = provision_from_dealer(cfg, party, counts)
        chan = connect_peer(cfg, party, server)
    finally:
        if server is not None:
            server.close()
    try:
        rt = PartyRuntime(party, cfg["session_id"], chan, ring_from_config(cfg))
        handshake(rt, public_section(cfg))
        out, report = run(MpcEngine(rt, material), X, t)
    finally:
        chan.close()
    write_party_outputs(cfg, party, out, report)
