import numpy as np
import pytest

from veiltrain.dealer import (_SPLIT_WORDS, SINGLE_BITS, MaterialCursor, MaterialSource,
                              check_key, material_order, role_seeds, split_seed, with_slack)
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


def test_single_bits_binary_balanced_and_apart_from_the_blocks():
    # one random bit a word, from a stream of its own: not the blocks' bits
    (bits,) = _summed(SINGLE_BITS, 30_000, 2)
    (words,) = _summed(("bit",), 30_000, 2)
    assert set(np.unique(bits)) == {0, 1} and abs(bits.mean() - 0.5) <= 0.02
    assert not np.array_equal(bits, words)
    h0, h1 = MaterialSource(2, RING).halves(SINGLE_BITS, 0, 100)
    assert len(h0) == len(h1) == _SPLIT_WORDS["bit"] == 1


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
                                 ("trunc", 63), SINGLE_BITS])
def test_party_half_equals_its_part_of_halves(key):
    # the one rule over any window: party 0's half is the split stream,
    # which the split seed alone regenerates, and the halves add up to the
    # kind's secret values
    src = MaterialSource(12, RING)
    split_only = MaterialSource(None, RING, split=src.split_seed)
    rng = np.random.default_rng(13)
    for start, n in [(0, 1), *zip(rng.integers(0, 5000, 6), rng.integers(1, 300, 6))]:
        both = src.halves(key, int(start), int(n))
        plain = src._plain(key, int(start), int(n))
        assert len(both[0]) == len(both[1]) == len(plain) == _SPLIT_WORDS[key[0]]
        assert all(np.array_equal(x0 + x1, x) for x0, x1, x in zip(*both, plain))
        mine = split_only.half(key, 0, int(start), int(n))
        assert all(np.array_equal(x, y) for x, y in zip(mine, both[0]))


@pytest.mark.parametrize("key", [("bit",), ("triple",), ("trunc", 20), SINGLE_BITS])
@pytest.mark.parametrize("chunk", [5, 7, 64, None])
def test_halves_built_chunk_by_chunk_equal_halves(monkeypatch, key, chunk):
    # windows that cut blocks and cross the chunk edges of the in-place
    # build (None: the module's own chunk) equal the unchunked rule: party
    # 0's half the window's split words, party 1's _plain less them
    import veiltrain.dealer as dealer

    if chunk is not None:
        monkeypatch.setattr(dealer, "_CHUNK", chunk)
    chunk = dealer._CHUNK
    src = MaterialSource(14, RING)
    for start, n in [(0, chunk), (3, chunk + 1), (chunk - 5, 10), (1, 3 * chunk + 2),
                     (2 * chunk + 4, 1)]:
        split = tuple(src._words(key, dealer._SPLIT, start, n).T)
        want = split, tuple(x - x0 for x, x0 in zip(src._plain(key, start, n), split))
        for party in (0, 1):
            mine = src.half(key, party, start, n)
            assert len(mine) == len(want[party])
            for x, y in zip(mine, want[party]):
                assert x.flags.c_contiguous and np.array_equal(x, y)


def test_wire_material_matches_cursor():
    from veiltrain.errors import ParseError
    from veiltrain.partyproc import WireMaterial, _material_payload

    src = MaterialSource(11, RING)
    counts = {("triple",): 5, ("trunc", 20): 4, ("bit",): 14}
    for party in (0, 1):
        cursor = MaterialCursor(src, party, counts)
        store = WireMaterial(src, party)
        for key, n in counts.items():
            store.load(key, _material_payload(key, src.halves(key, 0, n)[party]))
        wire = MaterialCursor(store, party, counts)
        for a, b in ((cursor.take_triples(5), wire.take_triples(5)),
                     (cursor.take_trunc(20, 4), wire.take_trunc(20, 4)),
                     ((cursor.take_bits(3),), (wire.take_bits(3),)),
                     ((cursor.take_bits(11),), (wire.take_bits(11),))):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        with pytest.raises(Exhausted):  # the store holds its own party's half alone
            store.half(("triple",), 1 - party, 0, 1)
    with pytest.raises(ParseError):
        store.load(("trunc", 20), _material_payload(("bit",), src.halves(("bit",), 0, 4)[1]))


def test_the_single_bit_key_crosses_the_wire_and_no_other_bit_parameter_does():
    from veiltrain.errors import ParseError
    from veiltrain.partyproc import WireMaterial, _material_payload, decode_counts, encode_counts

    counts = {("bit",): 14, SINGLE_BITS: 9, ("triple",): 2}
    assert decode_counts(encode_counts(counts)) == counts
    assert material_order(counts) == [("bit",), SINGLE_BITS, ("triple",)]
    src = MaterialSource(16, RING)
    for party in (0, 1):
        store, cursor = WireMaterial(src, party), MaterialCursor(src, party, counts)
        for key, n in counts.items():
            payload = _material_payload(key, src.half(key, party, 0, n))
            assert len(payload) == 2 + 8 * _SPLIT_WORDS[key[0]] * n
            store.load(key, payload)
        wire = MaterialCursor(store, party, counts)
        assert np.array_equal(wire.take_bits(9, single=True), cursor.take_bits(9, single=True))
        assert np.array_equal(wire.take_bits(14), cursor.take_bits(14))
    # the two bit keys' frames are told apart
    with pytest.raises(ParseError):
        store.load(("bit",), _material_payload(SINGLE_BITS, src.half(SINGLE_BITS, 1, 0, 14)))
    for bad in (("bit", 2), ("bit", 0), ("bit", 1, 1)):
        with pytest.raises(ParseError):
            check_key(bad)
    with pytest.raises(ParseError):
        decode_counts(b"bit:2=5")


def test_every_key_of_a_session_crosses_the_wire():
    from veiltrain.harness import pipeline_counts
    from veiltrain.partyproc import WireMaterial, _material_payload, decode_counts, encode_counts
    from veiltrain.shareio import DEFAULTS

    counts = pipeline_counts(20, 4, DEFAULTS, 2)
    assert {key[0] for key in counts} == {"triple", "trunc", "bit"}
    assert ("bit",) in counts and SINGLE_BITS in counts
    assert decode_counts(encode_counts(counts)) == counts
    # the dealer sends in the order of its decoded keys, the party reads in its own
    assert material_order(decode_counts(encode_counts(counts))) == material_order(counts)
    src = MaterialSource(15, RING)
    for party in (0, 1):
        store = WireMaterial(src, party)
        for key, n in counts.items():
            half = src.half(key, party, 0, n)
            payload = _material_payload(key, half)
            assert len(payload) == 2 + 8 * _SPLIT_WORDS[key[0]] * n  # how dealer_mb is sized
            store.load(key, payload)
            assert all(np.array_equal(x, y) for x, y in zip(store.half(key, party, 0, n), half))


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
    # party reads in the order of its own NumPy-keyed counts. The dealer's
    # seed is session seed 3's, so both halves equal MaterialSource(3)'s
    cfg = dict(DEFAULTS, dealer_host="127.0.0.1", dealer_port=_free_port(), connect_deadline=10.0,
               dealer_seed=role_seeds(3)["dealer"])
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
    src = MaterialSource(3, RING)
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


def _provision(cfg, counts, monkeypatch, bit_seeds=None):
    """serve_dealer and both parties' provision_from_dealer on threads named
    for their roles, party p with bit_seeds[p] as its own seed if given;
    returns each party's material and, by role, the (kind, payload bytes)
    of every frame it received."""
    import threading

    from veiltrain import partyproc

    frames = {}

    class Recorder(partyproc.FrameIO):
        def recv(self, expect_kind, **kwargs):
            payload = super().recv(expect_kind, **kwargs)
            frames.setdefault(threading.current_thread().name, []).append((expect_kind,
                                                                           len(payload)))
            return payload

    monkeypatch.setattr(partyproc, "FrameIO", Recorder)
    out, errors = {}, []

    def role(name, fn, *args):
        own = {} if bit_seeds is None or name == "dealer" else {"bit_seed": bit_seeds[name]}
        try:
            out[name] = fn(dict(cfg, **own), *args)
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=role, args=("dealer", partyproc.serve_dealer),
                                name="dealer")]
    threads += [threading.Thread(target=role, name=f"party{p}",
                                 args=(p, partyproc.provision_from_dealer, p, counts))
                for p in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors and not any(t.is_alive() for t in threads), errors
    return out, frames


def test_the_dealer_sends_party_0_a_seed_and_party_1_its_words(monkeypatch):
    # party 0's half is the split stream alone: the dealer sends it the
    # split seed in one 16-byte frame and no material word, and party 1 one
    # frame per key. Both then hold what the all-knowing source deals them
    from veiltrain.harness import _free_port
    from veiltrain.partyproc import SEED_BYTES, WireMaterial
    from veiltrain.shareio import DEFAULTS
    from veiltrain.transport import KIND_HELLO, KIND_MATERIAL, KIND_PROVISION, KIND_SEED

    counts = {("triple",): 700, ("trunc", 20): 300, ("bit",): 14, SINGLE_BITS: 50}
    cfg = dict(DEFAULTS, dealer_host="127.0.0.1", dealer_port=_free_port(), connect_deadline=10.0,
               dealer_seed=role_seeds(17)["dealer"])
    wires, frames = _provision(cfg, counts, monkeypatch)
    assert frames["party0"] == [(KIND_SEED, SEED_BYTES)]
    assert frames["party1"] == [(KIND_MATERIAL, 2 + 8 * _SPLIT_WORDS[key[0]] * counts[key])
                                for key in material_order(counts)]
    assert [kind for kind, _ in frames["dealer"]] == [KIND_HELLO, KIND_PROVISION] * 2
    src = MaterialSource(17, RING)
    for party in (0, 1):
        # a process party takes through the one cursor, over its wire store
        assert type(wires[party]) is MaterialCursor
        assert isinstance(wires[party].source, WireMaterial)
        for key, n in counts.items():
            got, want = wires[party].source.half(key, party, 0, n), src.half(key, party, 0, n)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_a_party_cannot_regenerate_its_peers_material_or_bits(monkeypatch):
    # a party's source holds its own bit seed and, for party 0, the split
    # seed: every stream it has no seed for is refused, and no seed it
    # holds, read as any role's seed, regenerates its peer's half or bits
    from veiltrain.harness import _free_port
    from veiltrain.shareio import DEFAULTS

    seeds = role_seeds(19)
    counts = {("triple",): 5, ("trunc", 20): 5, SINGLE_BITS: 5}
    cfg = dict(DEFAULTS, dealer_host="127.0.0.1", dealer_port=_free_port(), connect_deadline=10.0,
               dealer_seed=seeds["dealer"])
    wires, _ = _provision(cfg, counts, monkeypatch, {p: seeds[f"party{p}"] for p in (0, 1)})
    full = MaterialSource(19, RING)
    for party, peer in ((0, 1), (1, 0)):
        source = wires[party].source.source  # the party's own seeds, under its wire store
        assert np.array_equal(source.party_bit_stream(party, 0, 64, 20),
                              full.party_bit_stream(party, 0, 64, 20))
        with pytest.raises(Exhausted):
            source.party_bit_stream(peer, 0, 64, 20)
        with pytest.raises(Exhausted):
            source.half(("triple",), 1, 0, 5)  # party 1's half needs the dealer's plain stream
        held = [seeds[f"party{party}"], DEFAULTS["seed"], DEFAULTS["session_id"]]
        held += [source.split_seed] if party == 0 else []
        want_bits = full.party_bit_stream(peer, 0, 64, 20)
        want_half = full.half(("triple",), peer, 0, 5)
        for value in held:
            for guess in (MaterialSource(value, RING), MaterialSource(None, RING, dealer=value,
                                                                     bits={peer: value})):
                assert not np.array_equal(guess.party_bit_stream(peer, 0, 64, 20), want_bits)
                assert not np.array_equal(guess.half(("triple",), peer, 0, 5)[0], want_half[0])
    assert split_seed(seeds["dealer"]) == full.split_seed == wires[0].source.source.split_seed


def _fake_dealer(party, counts, send):
    """Run provision_from_dealer for party against a dealer that reads its
    HELLO and PROVISION frames, then calls send(io, cfg) with its FrameIO;
    returns the call's result or, raised, its error."""
    import threading

    from veiltrain.harness import _free_port
    from veiltrain.partyproc import provision_from_dealer
    from veiltrain.shareio import DEFAULTS
    from veiltrain.transport import KIND_HELLO, KIND_PROVISION, FrameIO, listen

    cfg = dict(DEFAULTS, dealer_host="127.0.0.1", dealer_port=_free_port(), connect_deadline=10.0)

    def fake():
        (chan,) = listen(cfg["dealer_host"], cfg["dealer_port"], 1, 10.0)
        io = FrameIO(chan, cfg["session_id"])
        io.recv(KIND_HELLO), io.recv(KIND_PROVISION)
        send(io, cfg)
        chan.close()

    dealer = threading.Thread(target=fake)
    dealer.start()
    try:
        return provision_from_dealer(cfg, party, counts)
    finally:
        dealer.join(timeout=10)
        assert not dealer.is_alive()


def test_a_seed_frame_of_the_wrong_length_is_refused():
    # party 0 reads its whole half from the dealer's seed frame, so one not
    # 16 bytes long stops it, naming the length, before any material
    from veiltrain.errors import ParseError
    from veiltrain.transport import KIND_SEED

    with pytest.raises(ParseError, match="seed of 15 bytes, not 16"):
        _fake_dealer(0, {("triple",): 3}, lambda io, cfg: io.send(KIND_SEED, bytes(15)))


@pytest.mark.parametrize("seq, desync", [(None, None), (2, "expected frame 1, peer sent frame 2"),
                                         (0, "expected frame 1, peer sent frame 0")])
def test_a_skipped_or_repeated_material_frame_is_refused(seq, desync):
    # the dealer numbers its frames to party 1: the second material frame,
    # numbered 2 (skipped) or 0 (repeated), stops the party naming both
    # numbers, though it has the right kind and head
    from veiltrain.errors import RoundDesync
    from veiltrain.partyproc import _material_payload
    from veiltrain.transport import KIND_MATERIAL, pack_frame

    counts = {("triple",): 3, ("trunc", 20): 2}
    src = MaterialSource(3, RING)
    first, second = (_material_payload(key, src.half(key, 1, 0, counts[key]))
                     for key in material_order(counts))

    def send(io, cfg):
        io.send(KIND_MATERIAL, first)
        if seq is None:
            io.send(KIND_MATERIAL, second)
        else:
            io.channel.send_bytes(pack_frame(KIND_MATERIAL, cfg["session_id"], seq, second))

    if desync is None:
        cursor = _fake_dealer(1, counts, send)
        assert np.array_equal(cursor.source.half(("triple",), 1, 0, 3)[0],
                              src.half(("triple",), 1, 0, 3)[0])
        return
    with pytest.raises(RoundDesync, match=desync):
        _fake_dealer(1, counts, send)


def test_received_material_is_read_only():
    # party 1's material is a view of the frames it received: a write
    # into it raises
    from veiltrain.partyproc import WireMaterial, _material_payload
    from veiltrain.transport import KIND_MATERIAL, FrameIO, queue_pair

    key, a, b = ("triple",), *queue_pair()
    FrameIO(a, 1).send(KIND_MATERIAL, _material_payload(key, MaterialSource(3, RING).half(
        key, 1, 0, 4)))
    store = WireMaterial(MaterialSource(None, RING), 1)
    store.load(key, FrameIO(b, 1).recv(KIND_MATERIAL))
    with pytest.raises(ValueError):
        store.half(key, 1, 0, 4)[0][0] = 1
