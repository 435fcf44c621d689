"""Share and weight-share files: framed key=value metadata plus ring words."""

import numpy as np
import pytest

from veiltrain.errors import ParseError
from veiltrain.fixedpoint import RingConfig
from veiltrain.shareio import (read_share_file, read_weights_file, write_share_file,
                               write_weights_file)

RING = RingConfig()
X = np.array([[1, 2], [3, 2**64 - 1]], dtype=np.uint64)
T = np.array([0, 1], dtype=np.uint64)

# frame length, kind, session 7, payload: HELLO, DATA and LABELS frames
SHARE_FILE = (b"!\x00\x00\x00\x01\x07\x00\x00\x00frac_bits=20\nm=2\nn=2\nparty=1"
              b"%\x00\x00\x00\x05\x07\x00\x00\x00"
              b"\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"
              b"\x03\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"
              b"\x15\x00\x00\x00\x06\x07\x00\x00\x00"
              b"\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00")


def test_share_file_bytes_are_pinned(tmp_path):
    path = tmp_path / "s.party1.shares"
    write_share_file(path, 7, 1, X, T, RING)
    assert path.read_bytes() == SHARE_FILE
    session, meta, x, t = read_share_file(path)
    assert session == 7 and meta["party"] == "1" and meta["frac_bits"] == "20"
    assert np.array_equal(x, X) and np.array_equal(t, T)


def test_a_share_file_without_labels_is_refused_naming_its_path(tmp_path):
    path = tmp_path / "s.party0.shares"
    path.write_bytes(SHARE_FILE[:-25])  # without the 25-byte LABELS frame
    with pytest.raises(ParseError, match="s.party0.shares: missing labels frame"):
        read_share_file(path)


def test_weights_file_round_trip(tmp_path):
    path = tmp_path / "weights.party0.bin"
    w = np.array([5, 2**63, 0], dtype=np.uint64)
    write_weights_file(path, 9, 0, w, RING)
    header, got = read_weights_file(path)
    assert header == {"session": "9", "party": "0", "d": "3", "frac_bits": "20"}
    assert np.array_equal(got, w)


def test_each_reader_refuses_the_other_file(tmp_path):
    shares, weights = tmp_path / "s.party0.shares", tmp_path / "weights.party0.bin"
    write_share_file(shares, 1, 0, X, T, RING)
    write_weights_file(weights, 1, 0, T, RING)
    with pytest.raises(ParseError, match="weights.party0.bin: not a share file"):
        read_share_file(weights)
    with pytest.raises(ParseError, match="s.party0.shares: not a weights file"):
        read_weights_file(shares)


@pytest.mark.parametrize("cut", [2, 20, len(SHARE_FILE) - 3])
def test_a_truncated_file_names_its_path(tmp_path, cut):
    path = tmp_path / "cut.shares"
    path.write_bytes(SHARE_FILE[:cut])
    with pytest.raises(ParseError, match="cut.shares: truncated frame"):
        read_share_file(path)


def test_a_file_of_no_frames_names_its_path(tmp_path):
    path = tmp_path / "text.shares"
    path.write_bytes(b"\x05\x00\x00\x00\x05\x01\x00\x00\x00")  # one DATA frame, no HELLO
    with pytest.raises(ParseError, match="text.shares: not a share file"):
        read_share_file(path)
