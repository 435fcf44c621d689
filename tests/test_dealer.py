import numpy as np
import pytest

from veiltrain.dealer import (_SPLIT_WORDS, MaterialCursor, MaterialSource, material_order,
                              with_slack)
from veiltrain.errors import Exhausted
from veiltrain.fixedpoint import RingConfig, to_signed

RING = RingConfig()


def _summed(key, n, seed):
    """Both parties' halves of items [0, n) of one key, added up."""
    h0, h1 = MaterialSource(seed, RING).halves(key, 0, n)
    return [a + b for a, b in zip(h0, h1)]


def test_triple_invariant():
    u, v, w = _summed(("triple",), 50, 1)
    assert all(int(x) * int(y) % 2**64 == int(z) for x, y, z in zip(u, v, w))


def test_bits_binary_and_balanced():
    # the block words that hold single bits: 0, 1 and 3 of every 7
    (words,) = _summed(("bit",), 7 * 10_000, 2)
    bits = words.reshape(10_000, 7)[:, [0, 1, 3]]
    assert set(np.unique(bits)) <= {0, 1}
    assert np.all(np.abs(bits.mean(axis=0) - 0.5) <= 0.02)


def test_trunc_pair_invariant():
    r, rs = _summed(("trunc", RING.frac_bits), 20, 3)
    assert np.array_equal(to_signed(r) >> RING.frac_bits, to_signed(rs))


def test_cursor_exhausted():
    cursor = MaterialCursor(MaterialSource(5, RING), 0, {("bit",): 10})
    cursor.take_bits(10)
    with pytest.raises(Exhausted):
        cursor.take_bits(1)


def test_material_deterministic_and_chunk_invariant():
    src = MaterialSource(6, RING)
    # one window vs two half windows: byte-identical material
    u0, v0, w0, u1, v1, w1 = src.triples(0, 100)
    a = src.triples(0, 50)
    b = src.triples(50, 50)
    assert np.array_equal(u0, np.concatenate([a[0], b[0]]))
    assert np.array_equal(w1, np.concatenate([a[5], b[5]]))
    # regenerating from a fresh source gives the same stream
    again = MaterialSource(6, RING).triples(0, 100)
    assert np.array_equal(u0, again[0])


def test_parties_hold_disjoint_consistent_halves():
    src = MaterialSource(7, RING)
    c0 = MaterialCursor(src, 0, {("trunc", 20): 10})
    c1 = MaterialCursor(src, 1, {("trunc", 20): 10})
    r0, rs0 = c0.take_trunc(20, 10)
    r1, rs1 = c1.take_trunc(20, 10)
    r = r0 + r1
    rs = rs0 + rs1
    assert np.array_equal(to_signed(r) >> 20, to_signed(rs))
    # mask magnitudes leave signed headroom (|r| < 2^(lam-2))
    assert np.all(np.abs(to_signed(r)) <= np.int64(1) << np.int64(RING.lam - 2))


def test_trunc_plain_matches_pair():
    src = MaterialSource(8, RING)
    plain = src.trunc_plain(20, 0, 25)
    r0, rs0, r1, rs1 = src.trunc_pairs(20, 0, 25)
    assert np.array_equal(plain, r0 + r1)


def test_with_slack():
    assert with_slack({("triple",): 100}, 0.10)[("triple",)] == 110


def test_local_bit_streams_differ_by_party():
    # one word per value, holding the value's width bits and no more
    src = MaterialSource(9, RING)
    b0 = src.party_bit_stream(0, 0, 1000, 21)
    b1 = src.party_bit_stream(1, 0, 1000, 21)
    assert b0.shape == (1000,) and not np.array_equal(b0, b1)
    assert b0.max() < 1 << 21 and b0.max() >= 1 << 20
    bits = (b0[:, None] >> np.arange(21, dtype=np.uint64)) & np.uint64(1)
    assert np.all(np.abs(bits.mean(axis=0) - 0.5) <= 0.07)
    # a window of the stream is the same values wherever it starts
    assert np.array_equal(src.party_bit_stream(0, 600, 400, 21), b0[600:])


def test_bit_blocks_hold_monomials():
    src = MaterialSource(10, RING)
    b0, b1 = src.bit_shares(0, 7 * 1000)
    words = (b0 + b1).reshape(1000, 7)
    x, y, z = words[:, 0], words[:, 1], words[:, 3]
    assert set(np.unique(words[:, [0, 1, 3]])) == {0, 1}
    assert np.array_equal(words, np.stack([x, y, x * y, z, x * z, y * z, x * y * z], axis=1))
    # windows that cut blocks regenerate the same words
    a, b = src.bit_shares(0, 10), src.bit_shares(10, 7 * 1000 - 10)
    assert np.array_equal(b0, np.concatenate([a[0], b[0]]))
    assert np.array_equal(b1, np.concatenate([a[1], b[1]]))


@pytest.mark.parametrize("key", [("triple",), ("trunc", 20), ("trunc", 23), ("bit",),
                                 ("trunc", 63)])
def test_party_half_equals_its_part_of_halves(key):
    src = MaterialSource(12, RING)
    rng = np.random.default_rng(13)
    for start, n in [(0, 1), *zip(rng.integers(0, 5000, 6), rng.integers(1, 300, 6))]:
        both = src.halves(key, int(start), int(n))
        for party in (0, 1):
            mine = src.half(key, party, int(start), int(n))
            assert len(mine) == len(both[party])
            assert all(np.array_equal(x, y) for x, y in zip(mine, both[party]))


@pytest.mark.parametrize("key", [("bit",), ("triple",), ("trunc", 20)])
@pytest.mark.parametrize("chunk", [5, 7, 64, None])
def test_halves_built_chunk_by_chunk_equal_halves(monkeypatch, key, chunk):
    # windows that cut blocks and cross the chunk edges of the in-place
    # build (None: the module's own chunk) equal halves()
    import veiltrain.dealer as dealer

    if chunk is not None:
        monkeypatch.setattr(dealer, "_CHUNK", chunk)
    chunk = dealer._CHUNK
    src = MaterialSource(14, RING)
    for start, n in [(0, chunk), (3, chunk + 1), (chunk - 5, 10), (1, 3 * chunk + 2),
                     (2 * chunk + 4, 1)]:
        both = src.halves(key, start, n)
        for party in (0, 1):
            mine = src.half(key, party, start, n)
            assert len(mine) == len(both[party])
            for x, y in zip(mine, both[party]):
                assert x.flags.c_contiguous and np.array_equal(x, y)


def test_wire_material_matches_cursor():
    from veiltrain.errors import ParseError
    from veiltrain.partyproc import WireMaterial, _material_payload

    src = MaterialSource(11, RING)
    counts = {("triple",): 5, ("trunc", 20): 4, ("bit",): 14}
    for party in (0, 1):
        cursor = MaterialCursor(src, party, counts)
        wire = WireMaterial(src, party, counts)
        for key, n in counts.items():
            wire.load(key, _material_payload(key, src.halves(key, 0, n)[party]))
        for a, b in ((cursor.take_triples(5), wire.take_triples(5)),
                     (cursor.take_trunc(20, 4), wire.take_trunc(20, 4)),
                     ((cursor.take_bits(3),), (wire.take_bits(3),)),
                     ((cursor.take_bits(11),), (wire.take_bits(11),))):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
    with pytest.raises(ParseError):
        wire.load(("trunc", 20), _material_payload(("bit",), src.halves(("bit",), 0, 4)[1]))


def test_every_key_of_a_session_crosses_the_wire():
    from veiltrain.harness import pipeline_counts
    from veiltrain.partyproc import WireMaterial, _material_payload, decode_counts, encode_counts
    from veiltrain.shareio import DEFAULTS

    counts = pipeline_counts(20, 4, DEFAULTS, 2)
    assert {key[0] for key in counts} == {"triple", "trunc", "bit"}
    assert decode_counts(encode_counts(counts)) == counts
    # the dealer sends in the order of its decoded keys, the party reads in its own
    assert material_order(decode_counts(encode_counts(counts))) == material_order(counts)
    src = MaterialSource(15, RING)
    for party in (0, 1):
        wire = WireMaterial(src, party, counts)
        for key, n in counts.items():
            half = src.half(key, party, 0, n)
            payload = _material_payload(key, half)
            assert len(payload) == 2 + 8 * _SPLIT_WORDS[key[0]] * n  # how dealer_mb is sized
            wire.load(key, payload)
            assert all(np.array_equal(x, y) for x, y in zip(wire._halves(key, 0, n), half))


def test_numpy_integer_shift_provisions_like_its_python_twin():
    import threading

    from veiltrain.harness import _free_port
    from veiltrain.partyproc import encode_counts, provision_from_dealer, serve_dealer
    from veiltrain.shareio import DEFAULTS

    twin = {("triple",): 3, ("trunc", 5): 2, ("trunc", 29): 2, ("bit",): 7}
    # one shift a NumPy integer, as a dry run's computed scale shift can be
    counts = {("trunc", np.int64(29)) if key == ("trunc", 29) else key: n
              for key, n in twin.items()}
    assert encode_counts(counts) == encode_counts(twin)
    assert material_order(counts) == material_order(twin)
    # the dealer ships in the order of its decoded (Python int) keys; each
    # party reads in the order of its own NumPy-keyed counts
    cfg = dict(DEFAULTS, dealer_host="127.0.0.1", dealer_port=_free_port(), connect_deadline=10.0)
    wires, errors = {}, []

    def role(name, fn, *args):
        try:
            wires[name] = fn(cfg, *args)
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=role, args=("dealer", serve_dealer))]
    threads += [threading.Thread(target=role, args=(p, provision_from_dealer, p, counts))
                for p in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors and not any(t.is_alive() for t in threads), errors
    src = MaterialSource(cfg["seed"], RING)
    for party in (0, 1):
        cursor = MaterialCursor(src, party, twin)
        assert all(np.array_equal(x, y) for x, y in zip(wires[party].take_triples(3),
                                                         cursor.take_triples(3)))
        assert all(np.array_equal(x, y) for x, y in zip(wires[party].take_trunc(29, 2),
                                                         cursor.take_trunc(29, 2)))


def test_a_dealer_nobody_dials_times_out():
    from veiltrain.errors import ConnectTimeout
    from veiltrain.harness import _free_port
    from veiltrain.partyproc import serve_dealer
    from veiltrain.shareio import DEFAULTS

    cfg = dict(DEFAULTS, dealer_host="127.0.0.1", dealer_port=_free_port(), connect_deadline=0.3)
    with pytest.raises(ConnectTimeout):
        serve_dealer(cfg)


@pytest.mark.parametrize("line", [
    b"bit:0=5", b"bit:70=5", b"bit:2=5", b"trunc:=5", b"trunc:0=5", b"trunc:64=5",
    b"trunc:300=5", b"gadget:=5", b"triple:1=5", b"triple:=x", b"triple=5", b"triple:=-1",
])
def test_provisioning_request_rejects_unknown_keys(line):
    from veiltrain.errors import ParseError
    from veiltrain.partyproc import decode_counts, encode_counts

    counts = {("triple",): 5, ("trunc", 20): 4, ("trunc", 63): 1, ("bit",): 14}
    assert decode_counts(encode_counts(counts)) == counts
    with pytest.raises(ParseError):
        decode_counts(encode_counts(counts) + b"\n" + line)


def test_provisioning_request_rejects_the_removed_block_key():
    # every bit word is a 3-bit block's monomial under the one key ("bit",)
    from veiltrain.errors import ParseError
    from veiltrain.partyproc import decode_counts

    assert decode_counts(b"bit:=21") == {("bit",): 21}
    with pytest.raises(ParseError):
        decode_counts(b"bit:3=21")
