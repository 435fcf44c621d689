"""Execution engines for the secure fixed-point pipelines.

Every protocol in this package is written once against the small op surface
below and can run on either engine:

* MpcEngine: values are this party's additive shares; multiplications spend
  Beaver triples, truncations spend dealer pairs, and each step is one
  synchronized exchange with the peer.
* PlainEngine: values are the plain ring elements. It consumes the same
  seeded randomness streams (truncation masks, per-party bit streams) in the
  same order, so its outputs are bit-identical to what the two parties would
  jointly reconstruct. It also counts material consumption, which is how
  sessions are provisioned up front.

Control flow never branches on secrets, so transcript shapes depend only on
input sizes.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .dealer import SIGN_BLOCK, MaterialCursor, MaterialSource, bit_key
from .fixedpoint import DEFAULT_RING, RingConfig, from_signed, to_signed
from .session import PartyRuntime, handshake
from .transport import queue_pair

SIGN_WORDS = (1 << SIGN_BLOCK) - 1  # dealer words per block: its non-empty monomials


def sign_tree(width: int):
    """Shape of msb at a width: (single-bit leaves, block leaves, pairs per level).

    The mask's low width % 3 bits are single-bit leaves; the rest form
    3-bit blocks. Each level combines its nodes pairwise from the bottom in
    one batched product: two products per pair, one for the lowest pair,
    whose P is never needed. An odd node out moves up unchanged."""
    singles, blocks = width % SIGN_BLOCK, width // SIGN_BLOCK
    levels, nodes = [], singles + blocks
    while nodes > 1:
        levels.append(nodes // 2)
        nodes -= nodes // 2
    return singles, blocks, levels


def _leaf_maps(k):
    """Monomial coefficients of a k-bit leaf's map g -> G + P*g, for every
    value of the leaf's k bits of c.

    A leaf covers k consecutive bits of x = c - r mod 2^width, where c is
    public and r the secret mask. Given borrow-in g, the map gives the
    leaf's borrow out, or, for the top leaf (the one that holds bit
    width-1), that bit of x (the sign). Returns int64 (G, P), each indexed
    [top leaf, value of c's k bits, monomial]: the coefficient of the
    monomial over the mask-bit subset S sits at index S.
    """
    cb = np.arange(1 << k)[:, None] >> np.arange(k) & 1
    table = np.empty((2, 2, 1 << k, 1 << k), dtype=np.int64)
    for g in (0, 1):
        for s in range(1 << k):
            borrow = np.full(1 << k, g)
            for t in range(k):
                r_t = (s >> t) & 1
                bit = cb[:, t] ^ r_t ^ borrow
                borrow = (cb[:, t] < r_t + borrow).astype(np.int64)
            table[g, 0, :, s], table[g, 1, :, s] = borrow, bit
    for t in range(k):  # values on the 2^k assignments -> monomial coefficients
        for s in range(1 << k):
            if s >> t & 1:
                table[..., s] -= table[..., s ^ (1 << t)]
    return table[0], table[1] - table[0]


_LEAF_MAPS = {k: _leaf_maps(k) for k in (1, SIGN_BLOCK)}  # single-bit and block leaves


class BaseEngine:
    cfg: RingConfig

    @property
    def frac_bits(self):
        return self.cfg.frac_bits

    # linear ops are share-wise and identical on both engines
    def add(self, a, b):
        with np.errstate(over="ignore"):
            return np.asarray(a + b)

    def sub(self, a, b):
        with np.errstate(over="ignore"):
            return np.asarray(a - b)

    def neg(self, a):
        with np.errstate(over="ignore"):
            return np.asarray(np.uint64(0) - a)

    def sum(self, a, axis):
        return np.sum(a, axis=axis, dtype=self.cfg.udtype)

    def mul_public_int(self, a, k):
        """Multiply by public ring constants (exact, no communication)."""
        k = np.asarray(k).astype(np.int64).view(np.uint64).astype(self.cfg.udtype)
        with np.errstate(over="ignore"):
            return np.asarray(a * k)

    def stack(self, values):
        return np.stack(values)

    def zeros(self, shape):
        return np.zeros(shape, dtype=self.cfg.udtype)

    def phase(self, name):
        return contextlib.nullcontext()


class PlainEngine(BaseEngine):
    """Clear-text twin of the secure evaluation (and its consumption meter)."""

    party = 0  # lets party-indexed closures run unchanged in dry runs

    def __init__(self, source: MaterialSource, cfg: RingConfig | None = None):
        self.source = source
        self.cfg = cfg or source.cfg
        self.pos: dict = {}
        self.opened = 0

    def _advance(self, key, n):
        at = self.pos.get(key, 0)
        self.pos[key] = at + n
        return at

    def counts(self) -> dict:
        """Dealer-material consumption so far, keyed like the dealer's catalog."""
        return {k: v for k, v in self.pos.items() if isinstance(k, tuple)}

    def from_public(self, raw):
        return np.asarray(raw, dtype=self.cfg.udtype)

    def add_public(self, a, raw):
        with np.errstate(over="ignore"):
            return np.asarray(a + np.asarray(raw, dtype=self.cfg.udtype))

    def public_rng(self):
        return self.source.init_rng()

    def open(self, a):
        return np.asarray(a, dtype=self.cfg.udtype)

    def mul(self, a, b, shift=None):
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        self._advance(("triple",), int(np.prod(shape, dtype=np.int64)))
        with np.errstate(over="ignore"):
            p = (np.asarray(a, dtype=self.cfg.udtype)
                 * np.asarray(b, dtype=self.cfg.udtype))
        p = np.ascontiguousarray(np.broadcast_to(p, shape)).reshape(shape)
        if shift:
            p = self.trunc(p, shift)
        return p

    def trunc(self, a, shift):
        shape = np.shape(a)
        a = np.ascontiguousarray(a, dtype=self.cfg.udtype).reshape(shape)
        n = int(np.prod(shape, dtype=np.int64))
        at = self._advance(("trunc", shift), n)
        r = self.source.trunc_plain(shift, at, n).reshape(shape)
        s = to_signed(a, self.cfg)
        low = np.uint64(1) << np.uint64(shift)
        lo_x = a & (low - np.uint64(1))
        lo_r = r & (low - np.uint64(1))
        with np.errstate(over="ignore"):
            carry = ((lo_x + lo_r) >= low).astype(self.cfg.sdtype)
            out = from_signed((s >> self.cfg.sdtype(shift)) + carry, self.cfg)
        return np.asarray(out)

    def bits(self, a, width):
        """Two's-complement bits of a mod 2^width, stacked LSB-first."""
        n = int(np.prod(np.shape(a), dtype=np.int64))
        self._advance(("bit",), width * n)
        self._advance(("triple",), (width - 1) * n)
        a = np.asarray(a, dtype=self.cfg.udtype)
        js = np.arange(width, dtype=np.uint64).reshape((width,) + (1,) * a.ndim)
        return ((a[None, ...] >> js) & np.uint64(1)).astype(self.cfg.udtype)

    def msb(self, a, width):
        """Two's-complement sign of a mod 2^width, as 0 or 1."""
        n = int(np.prod(np.shape(a), dtype=np.int64))
        singles, blocks, levels = sign_tree(width)
        products = sum(2 * pairs - 1 for pairs in levels)
        for key, per in ((bit_key(), singles), (bit_key(SIGN_BLOCK), SIGN_WORDS * blocks),
                         (("triple",), products)):
            if per:
                self._advance(key, per * n)
        a = np.asarray(a, dtype=self.cfg.udtype)
        return ((a >> np.uint64(width - 1)) & np.uint64(1)).astype(self.cfg.udtype)

    def joint_uniform(self, shape):
        """Uniform fixed-point values on (0, 1]: l jointly-XORed bits plus one ulp."""
        l = self.cfg.frac_bits
        n = int(np.prod(shape, dtype=np.int64))
        self._advance(("triple",), l * n)
        at = self._advance("local_bits", l * n)
        b0 = self.source.party_bit_stream(0, at, l * n)
        b1 = self.source.party_bit_stream(1, at, l * n)
        bits = (b0 ^ b1).reshape(n, l)  # sample-major, bit-minor
        weights = (np.uint64(1) << np.arange(l, dtype=np.uint64))
        u = (bits * weights).sum(axis=1, dtype=np.uint64) + np.uint64(1)
        return u.reshape(shape).astype(self.cfg.udtype)


class MpcEngine(BaseEngine):
    """One party's end of the joint evaluation."""

    def __init__(self, rt: PartyRuntime, material: MaterialCursor):
        self.rt = rt
        self.material = material
        self.cfg = rt.cfg
        self.party = rt.party_id

    def phase(self, name):
        return self.rt.phase(name)

    def public_rng(self):
        return self.material.source.init_rng()

    def from_public(self, raw):
        raw = np.asarray(raw, dtype=self.cfg.udtype)
        return raw.copy() if self.party == 0 else np.zeros_like(raw)

    def add_public(self, a, raw):
        with np.errstate(over="ignore"):
            if self.party == 0:
                return np.asarray(a + np.asarray(raw, dtype=self.cfg.udtype))
            return np.asarray(a + np.uint64(0))

    def open(self, a):
        shape = np.shape(a)
        theirs = self.rt.exchange(np.ascontiguousarray(a))
        with np.errstate(over="ignore"):
            return np.asarray(a + theirs).reshape(shape)

    def mul(self, a, b, shift=None):
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        n = int(np.prod(shape, dtype=np.int64))
        u, v, w = (x.reshape(shape) for x in self.material.take_triples(n))
        with np.errstate(over="ignore"):
            d_mine = np.broadcast_to(a, shape) - u
            e_mine = np.broadcast_to(b, shape) - v
            packed = np.concatenate([np.ravel(d_mine), np.ravel(e_mine)])
            peer = self.rt.exchange(packed)
            d = (np.ravel(d_mine) + peer[:n]).reshape(shape)
            e = (np.ravel(e_mine) + peer[n:]).reshape(shape)
            z = w + d * v + e * u
            if self.party == 0:
                z = z + d * e
            z = np.asarray(z)
        if shift:
            z = self.trunc(z, shift)
        return z

    def trunc(self, a, shift):
        shape = np.shape(a)
        n = int(np.prod(shape, dtype=np.int64))
        r, rs = (x.reshape(shape) for x in self.material.take_trunc(shift, n))
        with np.errstate(over="ignore"):
            masked = np.asarray(a + r).reshape(shape)
        m = self.open(masked)
        with np.errstate(over="ignore"):
            t = from_signed(to_signed(m, self.cfg) >> self.cfg.sdtype(shift), self.cfg)
            out = self.neg(rs)
            if self.party == 0:
                out = out + t
            return np.asarray(out)

    def bits(self, a, width):
        shape = np.shape(a)
        n = int(np.prod(shape, dtype=np.int64))
        flat = np.ravel(np.asarray(a, dtype=self.cfg.udtype))
        r_bits = self.material.take_bits(width * n).reshape(width, n)
        weights = (np.uint64(1) << np.arange(width, dtype=np.uint64))[:, None]
        with np.errstate(over="ignore"):
            r_arith = (r_bits * weights).sum(axis=0, dtype=self.cfg.udtype)
            mask = np.uint64((1 << width) - 1) if width < self.cfg.lam else ~np.uint64(0)
            masked = np.asarray((flat + r_arith) & mask)
        c = np.ravel(self.open(masked)) & mask
        # subtract the secret mask bitwise: x = c - r mod 2^width, ripple borrow
        out = np.empty((width, n), dtype=self.cfg.udtype)
        borrow = self.zeros(n)
        for j in range(width):
            cj = (c >> np.uint64(j)) & np.uint64(1)
            rj = r_bits[j]
            if j == 0:
                m = self.zeros(n)  # borrow is publicly zero
            else:
                m = self.mul(rj, borrow, shift=None)
            with np.errstate(over="ignore"):
                t = rj + borrow - np.uint64(2) * m  # r_j XOR borrow
                out[j] = self.add_public(t, cj) - np.uint64(2) * (t * cj)
                borrow = np.where(np.asarray(cj, dtype=bool), m, rj + borrow - m)
        return out.reshape((width,) + shape)

    def msb(self, a, width):
        """Sign of a mod 2^width in log depth: one opening, then a tree.

        Opens c = (a + r) mod 2^width for a dealer mask r whose bits come as
        single bits and as 3-bit blocks with all their monomials. Every leaf's
        borrow map is then a local affine combination of its monomials, with
        coefficients looked up by the leaf's bits of c (_LEAF_MAPS), and the
        maps compose up a pairwise tree to the sign bit of c - r.
        """
        shape = np.shape(a)
        n = int(np.prod(shape, dtype=np.int64))
        singles, blocks, levels = sign_tree(width)
        groups = []  # (leaf positions, bits per leaf, monomial shares)
        if singles:
            bits = self.material.take_bits(singles * n).reshape(singles, 1, n)
            groups.append((np.arange(singles), 1, bits))
        if blocks:
            words = self.material.take_bits(SIGN_WORDS * blocks * n, block=SIGN_BLOCK)
            mono = words.reshape(blocks, n, SIGN_WORDS).transpose(0, 2, 1)
            groups.append((singles + SIGN_BLOCK * np.arange(blocks), SIGN_BLOCK, mono))
        flat = np.ravel(np.asarray(a, dtype=self.cfg.udtype))
        mask = np.uint64((1 << width) - 1) if width < self.cfg.lam else ~np.uint64(0)
        with np.errstate(over="ignore"):
            r = self.zeros(n)
            for pos, k, mono in groups:
                for t in range(k):
                    r = r + self.sum(mono[:, (1 << t) - 1]
                                     << (pos + t).astype(np.uint64)[:, None], axis=0)
            c = np.ravel(self.open((flat + r) & mask)) & mask
            G, P = [], []
            for pos, k, mono in groups:
                top = (pos + k == width).astype(np.intp)[:, None]
                val = (c >> pos.astype(np.uint64)[:, None]) & np.uint64((1 << k) - 1)
                val = val.astype(np.intp)  # each leaf's k bits of c
                for coef, out in zip(_LEAF_MAPS[k], (G, P)):
                    coef = coef.astype(self.cfg.udtype)
                    share = sum(coef[top, val, s] * mono[:, s - 1] for s in range(1, 1 << k))
                    out.append(self.add_public(share, coef[top, val, 0]))
            G, P = np.concatenate(G), np.concatenate(P)
            for m in levels:  # (G, P)_hi o (G, P)_lo = (G_hi + P_hi G_lo, P_hi P_lo)
                lo, hi = slice(0, 2 * m, 2), slice(1, 2 * m, 2)
                prod = self.mul(np.concatenate([P[hi], P[hi][1:]]),
                                np.concatenate([G[lo], P[lo][1:]]))
                G = np.concatenate([G[hi] + prod[:m], G[2 * m:]])
                P = np.concatenate([P[:1], prod[m:], P[2 * m:]])
        return G[0].reshape(shape)

    def joint_uniform(self, shape):
        l = self.cfg.frac_bits
        n = int(np.prod(shape, dtype=np.int64))
        mine = self.material.take_local_bits(l * n).reshape(n, l)
        zero = np.zeros_like(mine)
        a0 = mine if self.party == 0 else zero
        a1 = mine if self.party == 1 else zero
        prod = self.mul(a0, a1, shift=None)
        with np.errstate(over="ignore"):
            ubits = a0 + a1 - np.uint64(2) * prod
            weights = (np.uint64(1) << np.arange(l, dtype=np.uint64))
            u = (ubits * weights).sum(axis=1, dtype=self.cfg.udtype)
            u = self.add_public(u, np.uint64(1))
        return u.reshape(shape)


def estimate_counts(fn, session_seed: int = 0, cfg: RingConfig = DEFAULT_RING) -> dict:
    """Dry-run a pipeline on the plain engine to get exact material counts.

    Protocol control flow is data-independent, so counting on zero-filled
    inputs is exact for any inputs of the same shape.
    """
    eng = PlainEngine(MaterialSource(session_seed, cfg), cfg)
    fn(eng)
    return eng.counts()


def run_two_party(fn, *, session_seed: int, counts: dict, cfg: RingConfig = DEFAULT_RING,
                  session_id: int = 1, transport: str = "queue",
                  handshake_public: dict | None = None):
    """Run fn(engine) on both parties concurrently; returns ([res0, res1], [eng0, eng1]).

    transport "queue" uses in-process channels; "tcp" runs the same lock-step
    rounds over loopback sockets.
    """
    source = MaterialSource(session_seed, cfg)
    if transport == "queue":
        ch0, ch1 = queue_pair()
    elif transport == "tcp":
        import socket

        from .transport import SocketChannel

        lo = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        lo.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        lo.bind(("127.0.0.1", 0))
        lo.listen(1)
        port = lo.getsockname()[1]
        cl = socket.create_connection(("127.0.0.1", port))
        sv, _ = lo.accept()
        lo.close()
        ch0, ch1 = SocketChannel(sv), SocketChannel(cl)
    else:
        raise ValueError(f"unknown transport {transport!r}")

    results = [None, None]
    engines = [None, None]
    errors = [None, None]

    def run(party, channel):
        try:
            rt = PartyRuntime(party, session_id, channel, cfg)
            if handshake_public is not None:
                handshake(rt, handshake_public)
            eng = MpcEngine(rt, MaterialCursor(source, party, counts))
            engines[party] = eng
            results[party] = fn(eng)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            errors[party] = exc

    threads = [threading.Thread(target=run, args=(p, c), name=f"party{p}")
               for p, c in ((0, ch0), (1, ch1))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results, engines
