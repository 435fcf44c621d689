"""File formats: flat key-value configs, and share and weight-share files,
both frames (transport): a HELLO frame of key=value metadata, then frames
of little-endian ring elements."""

from __future__ import annotations

import struct

import numpy as np

from .errors import ConfigMismatch, ParseError
from .fixedpoint import RingConfig
from .schedule import TrainingConfig
from .transport import (KIND_DATA, KIND_HELLO, KIND_LABELS, decode_kv, encode_kv, pack_frame,
                        payload_u64, u64_payload, unpack_frame)


def _executor(value: str) -> str:
    if value not in ("thread", "process"):
        raise ValueError(value)
    return value


# every default, once: the ring's and training's from their own classes
DEFAULTS = {
    **RingConfig().public(), **TrainingConfig().public(),
    # privacy
    "epsilon": 1.0, "noise_draws": 100,
    # session
    "seed": 1, "session_id": 1, "executor": "process", "provision_slack": 0.0,
    "connect_deadline": 15.0,
    # experiment
    "n": 300, "m": 12, "separability": 1.0, "folds": 5, "owners": "2",
    "modes": "horizontal,vertical",
}

# each key's parser: a default's type, or for the keys without one, their own
CONFIG_KEYS = {
    **{key: type(value) for key, value in DEFAULTS.items()}, "executor": _executor,
    "party0_host": str, "party0_port": int, "dealer_host": str, "dealer_port": int,
    "shares_prefix": str, "out_dir": str, "data_csv": str,
    # a role's own seed, read by that role alone (partyproc.own_seed)
    "dealer_seed": int, "bit_seed": int,
}

# what both computing parties must agree on: the ring, every training
# hyperparameter, the privacy parameters and the session; no seed, since
# every role's seed is its own
PUBLIC_KEYS = (*RingConfig().public(), *TrainingConfig().public(),
               "epsilon", "noise_draws", "session_id")


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment."""
    out = dict(DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {raw!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ParseError(f"unknown config key {key!r}", line=lineno)
        try:
            out[key] = CONFIG_KEYS[key](value)
        except ValueError:
            raise ParseError(f"bad value for {key!r}: {value!r}", line=lineno)
    return out


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def format_config(cfg: dict) -> str:
    return "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg)) + "\n"


# the coarsest ring the test suite covers, and the finest: from 23 bits
# secure_div's error passes its bound (3.9e-3 at 24), and at 22 the noise's
# largest truncation operands already reach 2^59.95 at d = 1874
COARSEST_FRAC_BITS = 12
FINEST_FRAC_BITS = 22


def ring_from_config(cfg: dict) -> RingConfig:
    """The config's ring; ParseError names frac_bits outside
    COARSEST_FRAC_BITS .. FINEST_FRAC_BITS."""
    ring = RingConfig(cfg["frac_bits"])
    l = ring.frac_bits
    if l < COARSEST_FRAC_BITS:
        raise ParseError(f"frac_bits = {l} is too coarse: the coarsest ring the tests "
                         f"cover has {COARSEST_FRAC_BITS}")
    if l > FINEST_FRAC_BITS:
        raise ParseError(f"frac_bits = {l} is too fine: the finest ring the tests "
                         f"cover has {FINEST_FRAC_BITS}")
    return ring


def public_section(cfg: dict) -> dict:
    """The byte-identical public part of cfg (PUBLIC_KEYS) for the
    handshake; KeyError for a key cfg lacks."""
    return {k: cfg[k] for k in PUBLIC_KEYS}


def _write_frames(path, session: int, meta: dict, frames):
    """A HELLO frame with meta (encode_kv), then one frame per (kind, array)."""
    with open(path, "wb") as fh:
        fh.write(pack_frame(KIND_HELLO, session, encode_kv(meta)))
        for kind, arr in frames:
            fh.write(pack_frame(kind, session, u64_payload(np.ravel(arr))))


def _read_frames(path, what: str, keys):
    """(session, meta, {kind: words}) of a file _write_frames wrote;
    ParseError naming path unless it is one whose meta has every key and
    that has a DATA frame."""
    frames = []
    with open(path, "rb") as fh:
        while head := fh.read(4):
            length = struct.unpack("<I", head)[0] if len(head) == 4 else 0
            body = fh.read(length)
            if length < 5 or len(body) != length:  # a frame holds kind and session
                raise ParseError(f"{path}: truncated frame")
            frames.append(unpack_frame(body, with_round=False))
    if not frames or frames[0][0] != KIND_HELLO:
        raise ParseError(f"{path}: not a {what}")
    session = frames[0][1]
    try:
        meta = decode_kv(frames[0][3])
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if any(key not in meta for key in keys):
        raise ParseError(f"{path}: not a {what}")
    words = {}
    for kind, fsession, _, payload in frames[1:]:
        if fsession != session:
            raise ParseError(f"{path}: mixed sessions in one file")
        words[kind] = payload_u64(payload)
    if KIND_DATA not in words:
        raise ParseError(f"{path}: missing data frame")
    return session, meta, words


def write_share_file(path, session: int, party: int, X_share: np.ndarray,
                     t_share: np.ndarray, ring: RingConfig):
    """HELLO frame with metadata, DATA frame with the feature share grid,
    LABELS frame with the label shares."""
    n, m = X_share.shape
    meta = {"party": party, "n": n, "m": m, "frac_bits": ring.frac_bits}
    _write_frames(path, session, meta, [(KIND_DATA, X_share), (KIND_LABELS, t_share)])


def read_share_file(path):
    """Returns (session, meta, X_share, t_share); ParseError naming path
    for a file without its LABELS frame."""
    session, meta, words = _read_frames(path, "share file", ("n", "m"))
    if KIND_LABELS not in words:
        raise ParseError(f"{path}: missing labels frame")
    X = words[KIND_DATA].reshape(int(meta["n"]), int(meta["m"]))
    return session, meta, X, words[KIND_LABELS]


def write_weights_file(path, session: int, party: int, w_share: np.ndarray,
                       ring: RingConfig):
    """HELLO frame with metadata, DATA frame with the weight shares."""
    meta = {"party": party, "d": len(w_share), "frac_bits": ring.frac_bits}
    _write_frames(path, session, meta, [(KIND_DATA, w_share)])


def read_weights_file(path):
    """Returns (header, w_share); header is the metadata plus the session."""
    session, meta, words = _read_frames(path, "weights file", ("d",))
    return dict(meta, session=str(session)), words[KIND_DATA]


def check_ring_meta(meta: dict, ring: RingConfig):
    if int(meta["frac_bits"]) != ring.frac_bits:
        raise ConfigMismatch("frac_bits", ring.frac_bits, meta["frac_bits"])
