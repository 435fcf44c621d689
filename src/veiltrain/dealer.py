"""Trusted-dealer correlated randomness and the parties' local bits, each
from the seeds of the role that reads it.

Four kinds of material under one key each: Beaver triples ("triple",),
truncation pairs ("trunc", s) for a shift s, random-bit words ("bit",),
which come in 3-bit blocks holding the products of every non-empty subset
of a block's bits (the masks of the msb and lead ops and of a joint
geometric's opening), and single random bits ("bit", 1), one word per bit
(the masks of a joint uniform's opening).

A kind defines only its secret values (MaterialSource._plain), from a
*plain* PCG64 stream; one rule splits every kind (MaterialSource.half):
party 0's half is a *split* stream, and party 1's half is the secret values
less it. Streams are addressed by (kind, parameter) tags and support random
access via PCG64.advance, so a party, the dealer process, and the
clear-text mirror all regenerate byte-identical material regardless of
chunking. A party takes its half through one cursor (MaterialCursor),
whatever holds it.

Three kinds of seed key the streams. The dealer's seed keys the plain
streams, and the split seed, which the dealer derives from it
(split_seed), keys the split streams: the dealer sends party 0 the split
seed and party 1 its half's words. Each party's local bits come from a bit
seed of its own, which no other role holds. MaterialSource(seed) derives
all of them from one session seed (role_seeds), for the in-process
sessions, the mirror and dry runs; a role's own source holds only the
seeds that role is given.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import Exhausted, ParseError
from .fixedpoint import DEFAULT_RING, RingConfig, from_signed, to_signed, truncate

_KIND_TAGS = {"triple": 1, "trunc": 2, "bit": 3}
_GR_TAG, _DEALER_TAG = 4, 5
_PLAIN, _SPLIT = 0, 1

# 64-bit words drawn per item from each stream
_PLAIN_WORDS = {"triple": 2, "trunc": 1, "bit": 1}
_SPLIT_WORDS = {"triple": 3, "trunc": 2, "bit": 1}

SINGLE_BITS = ("bit", 1)  # one random bit per word, with no monomials


def _window(seed, tags, start_words: int, n_words: int) -> np.ndarray:
    if seed is None:
        raise Exhausted("this role holds no seed for the stream it asked for")
    gen = np.random.PCG64(np.random.SeedSequence([seed, *tags]))
    gen.advance(start_words)
    return np.random.Generator(gen).integers(0, 2**64, size=n_words, dtype=np.uint64)


def _seed(*entropy) -> int:
    """A 128-bit seed hashed from entropy (SeedSequence)."""
    lo, hi = np.random.SeedSequence(list(entropy)).generate_state(2, np.uint64)
    return int(hi) << 64 | int(lo)


def role_seeds(session_seed: int) -> dict:
    """The seeds one session seed stands for, by role: the dealer's
    ("dealer") and each party's bit seed ("party0", "party1")."""
    return {"dealer": _seed(session_seed, _DEALER_TAG),
            **{f"party{p}": _seed(session_seed, _GR_TAG, p) for p in (0, 1)}}


def split_seed(dealer_seed: int) -> int:
    """The seed of the split streams, party 0's half of the material: the
    dealer derives it from its own seed and sends it to party 0."""
    return _seed(dealer_seed, _SPLIT)


SIGN_BLOCK = 3  # mask bits per monomial block of the msb and lead ops' material
SIGN_WORDS = (1 << SIGN_BLOCK) - 1  # words per block: its non-empty monomials
_BLOCK_BITS = [(1 << t) - 1 for t in range(SIGN_BLOCK)]  # a block's words holding its bits
_CHUNK = 1 << 16  # items of a material half generated at a time


def check_key(key) -> None:
    """Raise ParseError unless key names material the dealer generates:
    ("triple",), ("trunc", s) with 0 < s < 64, ("bit",) or ("bit", 1)."""
    if key in (("triple",), ("bit",), SINGLE_BITS):
        return
    if len(key) == 2 and key[0] == "trunc" and 0 < key[1] < RingConfig.lam:
        return
    raise ParseError(f"unknown material key {key!r}")


def material_order(counts) -> list:
    """The keys of counts in the order the dealer ships them: by kind, then by
    integer parameter, so a NumPy-integer shift sorts as its Python twin."""
    return sorted(counts, key=lambda key: (key[0], *(int(p) for p in key[1:])))


class MaterialSource:
    """Generates the halves of any window of dealer material, and the
    parties' local bits, from the seeds it holds.

    MaterialSource(session_seed) holds every role's seed (role_seeds).
    With session_seed None it holds only the seeds given: the dealer's
    (dealer, from which it derives the split seed), the split seed alone
    (split, party 0's half) and bit seeds by party (bits). Asking for a
    stream it holds no seed for raises Exhausted."""

    def __init__(self, session_seed: int | None, cfg: RingConfig = DEFAULT_RING, *,
                 dealer: int | None = None, split: int | None = None,
                 bits: dict | None = None):
        if session_seed is not None:
            seeds = role_seeds(session_seed)
            dealer, bits = seeds["dealer"], {p: seeds[f"party{p}"] for p in (0, 1)}
        self.cfg = cfg
        self.split_seed = split_seed(dealer) if dealer is not None else split
        self._stream_seeds = {_PLAIN: dealer, _SPLIT: self.split_seed}
        self._bit_seeds = dict(bits or {})

    def _words(self, key, which, start, n):
        tags = [_KIND_TAGS[key[0]], key[1] if len(key) > 1 else 0, which]
        per = (_PLAIN_WORDS if which == _PLAIN else _SPLIT_WORDS)[key[0]]
        return _window(self._stream_seeds[which], tags, per * start, per * n).reshape(n, per)

    def trunc_plain(self, shift: int, start: int, n: int):
        """The signed masks r for truncation pairs (what the mirror consumes)."""
        words = self._words(("trunc", shift), _PLAIN, start, n)[:, 0]
        # r uniform on [-2^62, 2^62) so masked opens never wrap
        return from_signed(to_signed(words % np.uint64(1 << 63)) - (1 << 62))

    def _plain(self, key: tuple, start: int, n: int):
        """The secret values of items [start, start+n) of one material key,
        one array per word of a half: a triple's (u, v, uv), a truncation
        pair's (r, r >> s), a random-bit word, a single random bit.

        Every SIGN_BLOCK random bits fill SIGN_WORDS consecutive bit words
        with the products of their non-empty subsets, in subset order: word
        S - 1 holds the product of the bits i with bit i of S set, so words
        _BLOCK_BITS of a block are the bits themselves."""
        if key[0] == "triple":
            u, v = self._words(key, _PLAIN, start, n).T
            return u, v, u * v
        if key[0] == "trunc":
            r = self.trunc_plain(key[1], start, n)
            return r, truncate(r, key[1])
        if key == SINGLE_BITS:
            return (self._words(key, _PLAIN, start, n)[:, 0] & np.uint64(1),)
        first, end = start // SIGN_WORDS, -(-(start + n) // SIGN_WORDS)
        words = self._words(key, _PLAIN, first, end - first)[:, 0]
        mono = np.empty((len(words), SIGN_WORDS), dtype=words.dtype)
        for i, lo in enumerate(_BLOCK_BITS):  # the subsets holding bit i follow those without it
            mono[:, lo] = (words >> np.uint64(i)) & np.uint64(1)
            mono[:, lo + 1:2 * lo + 1] = mono[:, :lo] * mono[:, lo:lo + 1]
        at = start - first * SIGN_WORDS
        return (mono.ravel()[at:at + n],)

    def half(self, key: tuple, party: int, start: int, n: int):
        """One party's arrays of items [start, start+n) of one material key,
        _SPLIT_WORDS[kind] arrays of n words. Party 0's half is the key's
        split stream, so it needs the split seed only, and a one-word half is
        the stream's own array. Party 1's half is the secret values (_plain)
        less party 0's, built _CHUNK items at a time into one array per
        word, so no whole-window temporary is held beside them."""
        per = _SPLIT_WORDS[key[0]]
        if party == 0 and per == 1:
            return (self._words(key, _SPLIT, start, n)[:, 0],)
        out = [np.empty(n, dtype=np.uint64) for _ in range(per)]
        for lo in range(0, n, _CHUNK):
            m = min(_CHUNK, n - lo)
            part = self._words(key, _SPLIT, start + lo, m).T
            if party == 1:
                part = [x - x0 for x, x0 in zip(self._plain(key, start + lo, m), part)]
            for row, words in zip(out, part):
                row[lo:lo + m] = words
        return tuple(out)

    def halves(self, key: tuple, start: int, n: int):
        """(party 0's arrays, party 1's arrays) of items [start, start+n) of
        one material key (half)."""
        return self.half(key, 0, start, n), self.half(key, 1, start, n)

    def triples(self, start: int, n: int):
        """Returns (u0, v0, w0, u1, v1, w1) for items [start, start+n)."""
        return sum(self.halves(("triple",), start, n), ())

    def trunc_pairs(self, shift: int, start: int, n: int):
        """Returns (r0, rs0, r1, rs1) with rs = r arithmetically shifted."""
        return sum(self.halves(("trunc", shift), start, n), ())

    def bit_shares(self, start: int, n: int):
        """Returns (b0, b1), the halves of random-bit words [start, start+n)."""
        return sum(self.halves(("bit",), start, n), ())

    def party_bit_stream(self, party: int, start: int, n: int, width: int):
        """Party-local uniform bits for jointly sampled randomness: values
        [start, start+n) of the party's stream, from its bit seed, one word
        per value masked to its low width bits."""
        words = _window(self._bit_seeds.get(party), [_GR_TAG], start, n)
        words &= np.uint64((1 << width) - 1)
        return words


class Counts(dict):
    """Material counts by key, as a dry run measures them, and the windows it
    reserved for parallel branches: per parallel call, in call order, a pair
    (bounds, nested). bounds are the cursor positions (material keys and
    "local_bits") at the start of each branch, in branch order, and after
    the last one; nested holds, per branch, the windows of the parallel
    calls made inside that branch, in the same form."""

    def __init__(self, counts=(), windows=()):
        super().__init__(counts)
        self.windows = tuple(windows)


def _taken(pos: dict) -> dict:
    return {k: v for k, v in pos.items() if v}


class MaterialCursor:
    """One party's sequential view over its provisioned dealer material.

    It takes the party's halves of each window from source.half(key,
    party, at, n) and its local bits from source.party_bit_stream: a
    MaterialSource regenerates them, a process party's store
    (partyproc.WireMaterial) slices what it received or expanded.
    """

    def __init__(self, source, party: int, counts: dict):
        self.source = source
        self.party = party
        self.counts = dict(counts)
        self.pos: dict = {}
        self.windows = list(getattr(counts, "windows", ()))

    def _take(self, key, n):
        cap = self.counts.get(key, 0)
        at = self.pos.get(key, 0)
        if at + n > cap:
            raise Exhausted(f"requested {at + n} of {key!r} but only {cap} provisioned")
        self.pos[key] = at + n
        return self.source.half(key, self.party, at, n)

    def take_triples(self, n: int):
        u, v, w = self._take(("triple",), n)
        return u, v, w

    def take_trunc(self, shift: int, n: int):
        r, rs = self._take(("trunc", shift), n)
        return r, rs

    def take_bits(self, n: int, single: bool = False):
        """n random-bit words: with single, n single bits (SINGLE_BITS);
        else block monomials (("bit",))."""
        return self._take(SINGLE_BITS if single else ("bit",), n)[0]

    def take_local_bits(self, width: int, n: int):
        """n values of width local bits each, one word per value
        (MaterialSource.party_bit_stream)."""
        at = self.pos.get("local_bits", 0)
        self.pos["local_bits"] = at + n
        return self.source.party_bit_stream(self.party, at, n, width)

    def split(self, n: int) -> list:
        """Cursors over the windows the dry run reserved for the n branches
        of the next parallel call, in branch order; each may take material
        only up to the next one's start, and holds the windows of the
        parallel calls nested in its branch. This cursor resumes after
        them."""
        if not self.windows:
            raise Exhausted("no material windows were provisioned for a parallel call")
        bounds, nested = self.windows.pop(0)
        if len(bounds) != n + 1 or _taken(bounds[0]) != _taken(self.pos):
            raise Exhausted("a parallel call does not match the provisioning dry run")
        views = []
        for start, end, inner in zip(bounds, bounds[1:], nested):
            view = copy.copy(self)
            view.pos = dict(start)
            view.counts = {k: min(v, self.counts.get(k, 0)) for k, v in end.items()
                           if isinstance(k, tuple)}
            view.windows = list(inner)
            views.append(view)
        self.pos = dict(bounds[-1])
        return views


def with_slack(counts: dict, slack: float = 0.10) -> Counts:
    """Provisioning counts padded by the configured slack, with their windows."""
    return Counts({k: v + int(np.ceil(v * slack - 1e-9)) for k, v in counts.items()},
                  getattr(counts, "windows", ()))
