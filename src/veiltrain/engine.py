"""Execution engines for the secure fixed-point pipelines.

Every protocol in this package is written once against the small op surface
below and can run on either engine:

* MpcEngine: values are this party's additive shares; multiplications spend
  Beaver triples, truncations spend dealer pairs, and each step is one
  synchronized exchange with the peer. A truncation and the products of its
  result share one exchange (tmul: trunc is a tmul without products, mul a
  tmul of one summand taken as it is). Every opening of a masked, truncated
  sum, open's and the leaf ops', goes through one method (_open_sum).
  Comparisons (msb, lead) open the input under a dealer mask whose
  bits come in 3-bit blocks, the leaves (leaf_layout), and resolve the
  borrow out of each leaf with a log-depth prefix over them; lead may
  truncate its input in that opening's round. Joint
  uniforms open the parties' local bits under single dealer bits, one word
  per uniform (joint_uniform); geometric exponents open theirs under whole
  leaves of block bits and count their leading zeros with msb's prefix
  (joint_geometric). A party's local bits are one word per value.
  Independent branches run side by side (parallel) and share their rounds;
  a branch may run branches of its own, whose rounds ride in its.
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
import functools
import threading

import numpy as np

from .dealer import (_BLOCK_BITS, SIGN_BLOCK, SIGN_WORDS, SINGLE_BITS, Counts, MaterialCursor,
                     MaterialSource)
from .fixedpoint import DEFAULT_RING, RingConfig, truncate
from .session import PartyRuntime, handshake
from .transport import queue_pair

_MASK_TAKE_WORDS = 1 << 17  # single bits joint_uniform takes at a time

# outputs of a leaf's map g -> G + P*g (g: the borrow into the leaf's lowest
# bit): its borrow out, whether its bits of x are nonzero, its top bit of x
BORROW, NONZERO, TOP_BIT = 0, 1, 2


def leaf_layout(width: int):
    """Lowest bits of the leaves of a width-bit mask, low to high: every
    leaf is a 3-bit block, so the width must be a positive multiple of 3.
    The msb and lead ops both take their leaves from here."""
    if width <= 0 or width % SIGN_BLOCK:
        raise ValueError(f"a mask width must be a positive multiple of {SIGN_BLOCK}, "
                         f"got {width}")
    return range(0, width, SIGN_BLOCK)


def whole_leaves(bits: int) -> int:
    """bits rounded up to whole leaves (leaf_layout): the narrowest mask
    width that covers them. A joint_geometric value has whole_leaves(l)
    jointly sampled bits."""
    return SIGN_BLOCK * -(-bits // SIGN_BLOCK)


def prefix_plan(n: int, want):
    """Sklansky schedule leaving node i with the composition of nodes 0..i,
    for every i in want; compositions no wanted node depends on are dropped.

    Returns one list per round of (dst, src, anchored) steps, node dst
    absorbing node src below it. An anchored step's result starts at node 0:
    for borrow maps that result is applied to borrow-in 0, so it needs only
    G (one product), where other steps need G and P (two)."""
    levels, s = [], 0
    while (1 << s) < n:
        levels.append([(i, (i >> s << s) - 1, i < 2 << s) for i in range(n) if i >> s & 1])
        s += 1
    need = set(want)
    for lv in reversed(range(len(levels))):
        levels[lv] = [step for step in levels[lv] if step[0] in need]
        need |= {src for _, src, _ in levels[lv]}
    return [level for level in levels if level]


def _plan_products(plan):
    return sum(1 if anchored else 2 for level in plan for _, _, anchored in level)


def msb_plan(width: int):
    """Borrow-map schedule of msb: every leaf reduced onto the top one."""
    leaves = len(leaf_layout(width))
    return prefix_plan(leaves, [leaves - 1])


def lead_plan(width: int):
    """Schedule of lead, over the leaves but one: the borrow prefix runs it
    on all leaves but the top one, the suffix OR on the nonzero flags of all
    leaves but the lowest one, from the top down."""
    inner = len(leaf_layout(width)) - 1
    return prefix_plan(inner, range(inner))


def _leaf_maps():
    """Monomial coefficients of a leaf's maps g -> G + P*g, for every value
    of the leaf's k = SIGN_BLOCK bits of c.

    A leaf covers k consecutive bits of x = c - r mod 2^width, where c is
    public and r the secret mask. Given borrow-in g, the maps give the
    leaf's borrow out (BORROW), whether its k bits of x are nonzero
    (NONZERO) and the top one of those bits (TOP_BIT). Returns (G, P) as
    ring elements, each indexed [output, value of c's k bits, monomial]: the
    coefficient of the monomial over the mask-bit subset S sits at index S.
    """
    k = SIGN_BLOCK
    cb = np.arange(1 << k)[:, None] >> np.arange(k) & 1
    table = np.empty((2, 3, 1 << k, 1 << k), dtype=np.int64)
    for g in (0, 1):
        for s in range(1 << k):
            borrow, nonzero = np.full(1 << k, g), 0
            for t in range(k):
                r_t = (s >> t) & 1
                bit = cb[:, t] ^ r_t ^ borrow
                borrow = (cb[:, t] < r_t + borrow).astype(np.int64)
                nonzero = nonzero | bit
            table[g, :, :, s] = borrow, nonzero, bit
    table = _monomials(table)
    return table[0].view(np.uint64), (table[1] - table[0]).view(np.uint64)


def _monomials(table):
    """Monomial coefficients, in place, of functions of a leaf's SIGN_BLOCK
    mask bits given by their values on every assignment of those bits (last
    axis, indexed by the subset S of bits set)."""
    for t in range(SIGN_BLOCK):
        for s in range(1 << SIGN_BLOCK):
            if s >> t & 1:
                table[..., s] -= table[..., s ^ (1 << t)]
    return table


def _zero_count_maps():
    """Monomial coefficients of a leaf's map C -> lz + Z*C, for the leading
    zeros of b = z xor rho, z public and rho the leaf's mask bits: lz counts
    the leading zeros of the leaf's SIGN_BLOCK bits of b, top bit first, and
    Z says whether all of them are zero. Returns (lz, Z) as ring elements,
    each indexed like _LEAF_MAPS with its one output: [0, value of z's bits,
    monomial]."""
    k = SIGN_BLOCK
    b = np.arange(1 << k)[:, None] ^ np.arange(1 << k)  # [z's bits, rho's bits S]
    lz = np.array([k - v.bit_length() for v in range(1 << k)])[b]
    return tuple(_monomials(t[None].astype(np.int64)).view(np.uint64) for t in (lz, b == 0))


_LEAF_MAPS = _leaf_maps()
_ZERO_COUNT_MAPS = _zero_count_maps()


def _low_mask(width: int):
    return np.uint64((1 << int(width)) - 1)


class Results(tuple):
    """The arrays one engine op returns; size counts their elements, as an
    array's size would."""

    @property
    def size(self):
        return sum(int(np.size(a)) for a in self)


def _branch_result(i, branch, result):
    """A parallel branch's result, an array or Results, whose elements the
    callers count (np.size); TypeError naming the branch otherwise."""
    if not isinstance(result, (np.ndarray, Results)):
        raise TypeError(f"parallel branch {i} ({getattr(branch, '__qualname__', branch)}) "
                        f"returned {type(result).__name__}, not an array or engine.Results")
    return result


def _rows(a, idx):
    """a's rows (axis 0) at the indices idx, or all of a for None."""
    return a if idx is None else a[np.asarray(idx, dtype=np.intp)]


def _pairs(square):
    """tmul's square as a pair (i, j) of row indices (None: all rows): True,
    a sequence s of rows (i = j = s), or the pair itself, a tuple."""
    if square is True:
        return None, None
    if isinstance(square, tuple):
        return square
    return square, square


def _summands(x, shift):
    """tmul's (array, shift) pairs: x and shift themselves, or their
    matching sequences zipped."""
    if isinstance(x, (list, tuple)):
        if not isinstance(shift, (list, tuple)) or len(shift) != len(x) or not x:
            raise ValueError("tmul takes one shift per summand")
        return list(zip(x, shift))
    return [(x, shift)]


def _runs(a, shift):
    """A summand's (rows, shift) runs: all of a under one shift (None: a
    as it is), or, where shift is a sequence, one shift per row of a (axis
    0), consecutive rows of one shift in one run."""
    if shift is None or np.ndim(shift) == 0:
        return [(slice(None), shift)]
    rows = np.shape(a)[0]
    if len(shift) != rows:
        raise ValueError("a summand takes one shift per row")
    runs, start = [], 0
    for j in range(1, rows + 1):
        if j == rows or shift[j] != shift[start]:
            runs.append((slice(start, j), shift[start]))
            start = j
    return runs


def _shifted(opened, terms):
    """p_i = (x_i + r_i) >> shift_i for the masked summands' terms
    (MpcEngine._masked), from their openings, in order, run by run; 0 for
    a summand, or rows of one, taken as it is."""
    opened, out = iter(opened), []
    for runs, rs in terms:
        if all(s is None for _, s in runs):
            out.append(np.uint64(0))
        elif len(runs) == 1:
            out.append(truncate(next(opened), runs[0][1]))
        else:
            p = np.zeros(np.shape(rs), dtype=np.uint64)
            for at, s in runs:
                if s is not None:
                    p[at] = truncate(next(opened), s)
            out.append(p)
    return out


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
        return np.sum(a, axis=axis, dtype=np.uint64)

    def mul_public_int(self, a, k):
        """Multiply by public ring constants (exact, no communication)."""
        k = np.asarray(k).astype(np.int64).view(np.uint64)
        with np.errstate(over="ignore"):
            return np.asarray(a * k)

    def stack(self, values):
        return np.stack(values)

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.uint64)

    def phase(self, name):
        return contextlib.nullcontext()


class PlainEngine(BaseEngine):
    """Clear-text twin of the secure evaluation (and its consumption meter)."""

    party = 0  # lets party-indexed closures run unchanged in dry runs

    def __init__(self, source: MaterialSource, cfg: RingConfig | None = None):
        self.source = source
        self.cfg = cfg or source.cfg
        self.pos: dict = {}
        self.windows: list = []  # the parallel calls' windows so far, as Counts holds them

    def _advance(self, key, n):
        at = self.pos.get(key, 0)
        self.pos[key] = at + n
        return at

    def counts(self) -> Counts:
        """Dealer-material consumption so far, keyed like the dealer's catalog,
        with the windows of the parallel calls so far."""
        return Counts({k: v for k, v in self.pos.items() if isinstance(k, tuple)}, self.windows)

    def parallel(self, *branches):
        """Run each branch(engine) in turn and return their results, each an
        array or Results (TypeError naming the branch otherwise). This
        fixes the order in which the branches' material windows follow each
        other; MpcEngine.parallel runs the branches side by side on them.
        The windows of parallel calls inside a branch are recorded under
        that branch."""
        outer, bounds, nested, out = self.windows, [dict(self.pos)], [], []
        try:
            for i, branch in enumerate(branches):
                self.windows = []
                out.append(_branch_result(i, branch, branch(self)))
                nested.append(tuple(self.windows))
                bounds.append(dict(self.pos))
        finally:
            self.windows = outer
        outer.append((tuple(bounds), tuple(nested)))
        return Results(out)

    def from_public(self, raw):
        return np.asarray(raw, dtype=np.uint64)

    def add_public(self, a, raw):
        with np.errstate(over="ignore"):
            return np.asarray(a + np.asarray(raw, dtype=np.uint64))

    def open(self, x, shift=None):
        """The sum of tmul-style summands, opened (MpcEngine.open); each
        truncated summand goes through trunc. x alone is opened as is."""
        return functools.reduce(self.add, self._truncated(x, shift))

    def _truncated(self, x, shift):
        """trunc(x_i, shift_i) for tmul's summands, x_i itself where the
        shift is None; a summand with one shift per row goes through trunc
        run by run (engine._runs)."""
        out = []
        for a, s in _summands(x, shift):
            a, runs = np.asarray(a, dtype=np.uint64), _runs(a, s)
            if len(runs) == 1:
                s = runs[0][1]
                out.append(a if s is None else self.trunc(a, s))
                continue
            t = a.copy()
            for at, si in runs:
                if si is not None:
                    t[at] = self.trunc(a[at], si)
            out.append(t)
        return out

    def mul(self, a, b):
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        self._advance(("triple",), int(np.prod(shape, dtype=np.int64)))
        with np.errstate(over="ignore"):
            p = np.asarray(a, dtype=np.uint64) * np.asarray(b, dtype=np.uint64)
        return np.ascontiguousarray(np.broadcast_to(p, shape)).reshape(shape)

    def trunc(self, a, shift):
        """truncate(a + r) - truncate(r) for the dealer's mask r: what the
        parties open and subtract (MpcEngine.tmul), on the whole ring."""
        shape = np.shape(a)
        n = int(np.prod(shape, dtype=np.int64))
        at = self._advance(("trunc", shift), n)
        r = self.source.trunc_plain(shift, at, n).reshape(shape)
        with np.errstate(over="ignore"):
            return np.asarray(truncate(np.asarray(a, dtype=np.uint64) + r, shift)
                              - truncate(r, shift))

    def tmul(self, x, shift, y=None, square=False, rows=None):
        """The truncations trunc(x_i, shift_i) and, in the same round, the
        untruncated products of their sum t's rows with y and with
        themselves (see MpcEngine.tmul). Spends what trunc and mul would."""
        out = self._truncated(x, shift)
        if y is not None or square is not False:
            t = functools.reduce(self.add, out)
        if y is not None:
            out.append(self.mul(_rows(t, rows), y))
        if square is not False:
            i, j = _pairs(square)
            out.append(self.mul(_rows(t, i), _rows(t, j)))
        return Results(out)

    def _count_leaf_op(self, a, width, products):
        n = int(np.prod(np.shape(a), dtype=np.int64))
        self._advance(("bit",), SIGN_WORDS * len(leaf_layout(width)) * n)
        self._advance(("triple",), products * n)
        return np.asarray(a, dtype=np.uint64) & _low_mask(width)

    def msb(self, a, width):
        """Two's-complement sign of a mod 2^width, as 0 or 1."""
        x = self._count_leaf_op(a, width, _plan_products(msb_plan(width)))
        return x >> np.uint64(width - 1)

    def lead(self, a, width, shift=None):
        """Results (a, one-hot): the one-hot over leaf_layout(width) of the
        leaf holding the top set bit of a mod 2^width, leaves stacked on a
        new first axis; a = 0 marks the lowest leaf. With shift, a is the
        sum of tmul-style summands, each truncated through trunc (see
        MpcEngine.lead); without, a as it is."""
        a = functools.reduce(self.add, self._truncated(a, shift))
        plan = lead_plan(width)
        leaves = leaf_layout(width)
        x = self._count_leaf_op(
            a, width, _plan_products(plan) + len(leaves) - 1 + sum(map(len, plan)))
        tops = np.array(leaves, dtype=np.uint64) + np.uint64(SIGN_BLOCK)
        above = (x[None, ...] >> tops.reshape((-1,) + (1,) * x.ndim)) != 0
        first = np.ones((1,) + x.shape, dtype=bool)
        return Results((a, (np.concatenate([first, above[:-1]]) & ~above).astype(np.uint64)))

    def _joint_bits(self, shape, width):
        """The values of width jointly-XORed bits each: the XOR of both
        parties' bit streams, one word per value."""
        n = int(np.prod(shape, dtype=np.int64))
        at = self._advance("local_bits", n)
        b = self.source.party_bit_stream(0, at, n, width)
        b ^= self.source.party_bit_stream(1, at, n, width)
        return b

    def joint_uniform(self, shape):
        """Uniform fixed-point values on (0, 1]: l jointly-XORed bits plus one
        ulp. Spends the single bits that mask them, l per value."""
        l = self.cfg.frac_bits
        self._advance(SINGLE_BITS, l * int(np.prod(shape, dtype=np.int64)))
        return (self._joint_bits(shape, l) + np.uint64(1)).reshape(shape)

    def joint_geometric(self, shape):
        """Geometric(1/2) integers: the leading zeros of W = whole_leaves(l)
        jointly-XORed bits, W where all are zero. Spends what
        MpcEngine.joint_geometric does."""
        width = whole_leaves(self.cfg.frac_bits)
        x = self._count_leaf_op(self._joint_bits(shape, width), width,
                                _plan_products(msb_plan(width)))
        top = np.frexp(x.astype(np.float64))[1]  # the bit length; 0 at x = 0
        return (width - top).astype(np.uint64).reshape(shape)


class MpcEngine(BaseEngine):
    """One party's end of the joint evaluation."""

    def __init__(self, rt: PartyRuntime, material: MaterialCursor):
        self.rt = rt
        self.material = material
        self.cfg = rt.cfg
        self.party = rt.party_id

    def phase(self, name):
        return self.rt.phase(name)

    def from_public(self, raw):
        raw = np.asarray(raw, dtype=np.uint64)
        return raw.copy() if self.party == 0 else np.zeros_like(raw)

    def add_public(self, a, raw):
        with np.errstate(over="ignore"):
            if self.party == 0:
                return np.asarray(a + np.asarray(raw, dtype=np.uint64))
            return np.asarray(a + np.uint64(0))

    def open(self, x, shift=None):
        """x opened; or, with shifts, the sum of tmul-style summands
        trunc(x_i, shift_i) (x_i as it is where shift_i is None, broadcast
        against the others), opened in the same one round as the
        truncations (_open_sum at 64 bits, r = 0). It sends a word per
        truncated element and one per output element."""
        if shift is None:
            shape = np.shape(x)
            theirs = self.rt.exchange(np.ascontiguousarray(x))
            with np.errstate(over="ignore"):
                return np.asarray(x + theirs).reshape(shape)
        return self._open_sum(x, shift)[0]

    def _open_sum(self, x, shift, r=np.uint64(0), width=64):
        """(sum_i trunc(x_i, shift_i) + r) mod 2^width for tmul-style
        summands (x_i as it is where shift_i is None, broadcast against the
        others) and a mask r shared in the ring, opened in one round; and
        this party's share of the sum.

        Every x_i + r_i is opened (_masked), and with them the low width
        bits of r - rs, rs = sum_i rs_i; the output is (sum_i p_i + r - rs)
        mod 2^width, p_i = (x_i + r_i) >> shift_i. A summand taken as it is
        enters rs as -x_i, so with r = 0 the word -rs is the sum of those
        summands less the truncated ones' rs_i: the output less the public
        p_i, so it shows nothing more. Below 64 bits
        the full word would show rs's high bits, and with them bits of the
        x_i; its low width bits are uniform where r's are."""
        sends, terms = self._masked(x, shift)
        mask = _low_mask(width)
        with np.errstate(over="ignore"):
            rest = (r - functools.reduce(self.add, [rs for _, rs in terms])) & mask
            opened = self._open_all(sends + [rest])
            ps = _shifted(opened[:-1], terms)
            c = functools.reduce(self.add, ps, opened[-1]) & mask
        return c, functools.reduce(self.add, self._unmasked(ps, terms))

    def _masked(self, x, shift):
        """tmul's summands, masked: the arrays x_i + r_i to open, for the
        truncated ones (run by run, engine._runs), and a (runs, rs_i) term
        per summand, where rs_i is r_i shifted; a summand (or row) taken as
        it is has shift None and rs_i = -x_i, so that t = sum_i p_i - rs
        holds for every summand."""
        sends, terms = [], []
        for a, s in _summands(x, shift):
            a, runs = np.asarray(a, dtype=np.uint64), _runs(a, s)
            if len(runs) == 1:  # a in one piece
                s = runs[0][1]
                rs = self.neg(a) if s is None else self._mask_run(a, s, sends)
            else:
                rs = self.neg(a)
                for at, si in runs:
                    if si is not None:
                        rs[at] = self._mask_run(a[at], si, sends)
            terms.append((runs, rs))
        return sends, terms

    def _mask_run(self, a, shift, sends):
        """Append a + r to sends for a truncation pair (r, rs) per element
        of a; returns rs."""
        r, rs = (m.reshape(a.shape) for m in self.material.take_trunc(shift, a.size))
        sends.append(self.add(a, r))
        return rs

    def _unmasked(self, ps, terms):
        """This party's shares t_i = p_i - rs_i of the masked summands
        (_masked), from their public p_i (_shifted)."""
        return [p_i - rs_i if self.party == 0 else self.neg(rs_i)
                for p_i, (_, rs_i) in zip(ps, terms)]

    def _open_all(self, sends):
        """The arrays sends, opened in one round, each in its shape; a
        single send is opened as it is, with no packed copy."""
        flat = [np.ravel(v) for v in sends]
        opened = self.open(flat[0] if len(flat) == 1 else np.concatenate(flat))
        parts = np.split(opened, np.cumsum([np.size(v) for v in sends])[:-1])
        return [m.reshape(np.shape(v)) for m, v in zip(parts, sends)]

    def mul(self, a, b):
        """a * b: tmul's one product, of a summand taken as it is."""
        return self.tmul(a, None, b)[-1]

    def trunc(self, a, shift):
        return self.tmul(a, shift)[0]

    def tmul(self, x, shift, y=None, square=False, rows=None):
        """Truncations and, in the same round, untruncated products of
        their sum. x and shift are an array and a shift, or matching
        sequences of both (the arrays of one shape where a product is asked
        for); t_i = trunc(x_i, shift_i) and t = sum_i t_i. The products are
        of t's rows (axis 0): t[rows] * y (all of t when rows is None,
        broadcast against y), then, if square is set, t * t (square True),
        t[square] * t[square] (square a sequence of rows) or t[i] * t[j]
        (square a tuple (i, j) of index arrays of one length, repeats
        allowed). A summand whose shift is None is taken as it is, t_i =
        x_i, and opens nothing. A summand's shift may also be a sequence,
        one per row (axis 0), so that rows of one array are truncated by
        different shifts, or taken as they are (None), at no cost beyond
        their own (engine._runs). Returns the t_i and then the products
        asked for; trunc is tmul without products.

        It spends what the truncations and mul would: a truncation pair
        (r_i, rs_i) per element of x_i, rs_i being r_i arithmetically
        shifted, and a triple (a, b, c) per product. With rs = sum_i rs_i,
        the parties open every m_i = x_i + r_i, with rs + a (rs[i] + a and
        rs[j] + b for a square) or y - b for the second operand, all at
        once. p_i = m_i >> shift_i is public and t_i = p_i - rs_i, so the
        Beaver masked value t - a = sum_i p_i - (rs + a) needs no round of
        its own. rs + a and rs + b are uniform, as a and b are; so each
        round opens as many words as the truncations' and mul's two rounds
        would, and each x_i + r_i once. A summand taken as it is enters rs
        as -x_i (MpcEngine._masked).
        """
        sends, terms = self._masked(x, shift)
        masked, jobs = len(sends), []
        if y is not None or square is not False:
            rs = functools.reduce(self.add, [rs for _, rs in terms])
        with np.errstate(over="ignore"):
            if y is not None:
                left = _rows(rs, rows)
                a, b, c = self._triples(np.broadcast_shapes(left.shape, np.shape(y)))
                words = np.empty((2,) + a.shape, dtype=np.uint64)  # one send, formed in
                np.add(left, a, out=words[0, ...])  # place: mul's two words
                np.subtract(y, b, out=words[1, ...])
                sends.append(words)
                jobs.append((rows, a, b, c))
            if square is not False:
                i, j = _pairs(square)
                left = _rows(rs, i)
                a, b, c = self._triples(left.shape)
                sends.append(np.stack([left + a, _rows(rs, j) + b]))
                jobs.append((i, a, b, c))
            parts = self._open_all(sends) if sends else []  # nothing to open: no round
            ps = _shifted(parts, terms)
            out = self._unmasked(ps, terms)
            if jobs:  # sum_i p_i, 0 where every summand is taken as it is
                p = np.broadcast_to(functools.reduce(self.add, ps), rs.shape)
            for k, (i, a, b, c) in enumerate(jobs):
                d = _rows(p, i) - parts[masked + k][0]
                e = parts[masked + k][1]
                if k == len(jobs) - 1 and square is not False:  # the square's
                    e = _rows(p, _pairs(square)[1]) - e
                z = d * b
                z += c
                z += e * a
                if self.party == 0:
                    z += d * e
                out.append(z)
        return Results(out)

    def _triples(self, shape):
        n = int(np.prod(shape, dtype=np.int64))
        return (m.reshape(shape) for m in self.material.take_triples(n))

    def _open_leaves(self, a, width, shift=None):
        """Take a width-bit mask r in leaves and open c = (a + r) mod 2^width
        (_open_sum), a the sum of tmul-style summands truncated in the same
        round; a as it is for shift None. Returns c, flat, the leaves'
        monomial shares (_take_leaves) and this party's share of a."""
        shape = np.broadcast_shapes(*(np.shape(x) for x, _ in _summands(a, shift)))
        n = int(np.prod(shape, dtype=np.int64))
        pos = leaf_layout(width)
        mono = self._take_leaves(len(pos), n)
        r = self.zeros(n)
        with np.errstate(over="ignore"):
            for p, leaf in zip(pos, mono):
                for t, word in enumerate(_BLOCK_BITS):
                    r += leaf[:, word] << np.uint64(p + t)
        c, t = self._open_sum(a, shift, r.reshape(shape), width)
        return np.ravel(c), mono, t

    def _take_leaves(self, leaves, n):
        """The bit words of n values' masks of the given number of leaves:
        per leaf, in order, one [value, monomial] array, a value's block of
        SIGN_WORDS words a row. A leaf is one take, so no array holds more
        than one leaf's words."""
        return [self.material.take_bits(SIGN_WORDS * n).reshape(n, SIGN_WORDS)
                for _ in range(leaves)]

    def _maps(self, c, mono, outputs, maps=_LEAF_MAPS):
        """Shares (G, P) [leaf, element] of each leaf's map for the output
        named in outputs (one index per leaf, None to skip the leaf), with
        coefficients looked up by the leaf's bits of c in maps; mono holds
        the leaves' monomial shares (_take_leaves)."""
        G, P = self.zeros((len(outputs), len(c))), self.zeros((len(outputs), len(c)))
        with np.errstate(over="ignore"):
            for i, (o, words) in enumerate(zip(outputs, mono)):
                if o is None:
                    continue
                digit = (c >> np.uint64(SIGN_BLOCK * i)) & np.uint64((1 << SIGN_BLOCK) - 1)
                val = digit.astype(np.intp)
                for coef, dst in zip(maps, (G, P)):
                    table = coef[o, val]  # [value, monomial], the constant first
                    share = np.einsum("vm,vm->v", table[:, 1:], words)  # wraps mod 2^64
                    dst[i] = self.add_public(share, table[:, 0])
        return G, P

    def _compose(self, G, P, plan):
        """Run a prefix plan on borrow maps, one batched product per round:
        (G, P)_dst o (G, P)_src = (G_dst + P_dst G_src, P_dst P_src). Returns G."""
        G, P = G.copy(), P.copy()
        for level in plan:
            dst, src = [i for i, _, _ in level], [j for _, j, _ in level]
            full = [(i, j) for i, j, anchored in level if not anchored]
            prod = self.mul(np.concatenate([P[dst], P[[i for i, _ in full]]]),
                            np.concatenate([G[src], P[[j for _, j in full]]]))
            with np.errstate(over="ignore"):
                G[dst] += prod[:len(dst)]
            P[[i for i, _ in full]] = prod[len(dst):]
        return G

    def msb(self, a, width):
        """Sign of a mod 2^width in log depth: one opening, then a tree.

        Opens c = (a + r) mod 2^width for a dealer mask r whose bits come in
        3-bit blocks with all their monomials. Every leaf's borrow map is then
        a local affine combination of its monomials, and the maps compose onto
        the top leaf, whose map gives the sign bit of c - r.
        """
        leaves = len(leaf_layout(width))
        c, mono, _ = self._open_leaves(a, width)
        outputs = [BORROW] * (leaves - 1) + [TOP_BIT]
        G, P = self._maps(c, mono, outputs)
        return self._compose(G, P, msb_plan(width))[-1].reshape(np.shape(a))

    def lead(self, a, width, shift=None):
        """One-hot of the leaf holding a's top set bit, for 0 <= a < 2^width.

        After one opening, a Sklansky prefix of the borrow maps gives every
        leaf its borrow-in g, one batched product evaluates each leaf's
        "my bits of x are nonzero" map NA + NB*g, and a Sklansky suffix OR
        of those flags gives S_i, "a has a bit set in leaf i or above". The
        one-hot is S_i - S_(i+1), with S_0 taken as 1.

        Returns Results (a, one-hot), a this party's share of the input.
        With shift, a is the sum of tmul-style summands (x_i, shift_i),
        truncated in the opening's round (_open_leaves): a truncation
        followed by lead takes one round fewer, and as many words, as the
        two would apart.
        """
        c, mono, t = self._open_leaves(a, width, shift)
        shape, leaves = np.shape(t), len(leaf_layout(width))
        n, plan = len(c), lead_plan(width)
        above = self.zeros((0, n))
        if leaves > 1:
            G, P = self._maps(c, mono, [BORROW] * (leaves - 1) + [None])
            g = self._compose(G[:-1], P[:-1], plan)  # g[i]: borrow into leaf i + 1
            NA, NB = self._maps(c, mono, [None] + [NONZERO] * (leaves - 1))
            with np.errstate(over="ignore"):
                nonzero = NA[1:] + self.mul(NB[1:], g)
            above = nonzero[::-1].copy()
            for level in plan:  # OR, from the top leaf down
                dst, src = [i for i, _, _ in level], [j for _, j, _ in level]
                prod = self.mul(above[dst], above[src])
                with np.errstate(over="ignore"):
                    above[dst] += above[src] - prod
            above = above[::-1]  # above[i]: a has a bit set in leaf i + 1 or higher
        one = self.add_public(self.zeros((1, n)), np.uint64(1))
        ext = np.concatenate([one, above, self.zeros((1, n))])
        with np.errstate(over="ignore"):
            hot = (ext[:-1] - ext[1:]).reshape((leaves,) + shape)
        return Results((t, hot))

    def parallel(self, *branches):
        """Run each branch(engine) side by side and return their results,
        each an array or Results (TypeError naming the branch otherwise).

        Every round carries the payloads of all branches that have not yet
        finished, in branch order, in one exchange with the peer; so the
        call takes as many rounds as its longest branch. Each branch takes
        material from the window the dry run reserved for it (PlainEngine.
        parallel), so every value equals that of running the branches in
        turn. Branch 0 runs in the calling thread, the others in threads of
        the same name. A failing branch stops the others at their next round
        and its exception is raised.

        A branch may call parallel itself: its branches' rounds go through
        its own, so they ride in this call's rounds, and they take their
        material from the windows the dry run nested under the branch. A
        branch stopped by a failure outside it stops its own branches too."""
        cursors = self.material.split(len(branches))
        rounds = _Rounds(self.rt, len(branches))
        stack = self.rt.transcript.phase_stack
        out, failures, aborted = [None] * len(branches), [], []

        def run(i, own_stack=None):
            if own_stack is not None:
                self.rt.transcript.adopt(own_stack)
            try:
                out[i] = _branch_result(i, branches[i], branches[i](
                    MpcEngine(_BranchRuntime(self.rt, rounds, i), cursors[i])))
                rounds.finish(i)
            except _Aborted:  # a failure elsewhere stopped the branch
                aborted.append(i)
                rounds.abort()
            except BaseException as exc:  # noqa: BLE001 - raised by the caller
                failures.append(exc)
                rounds.abort()

        name = threading.current_thread().name
        threads = [threading.Thread(target=run, args=(i, list(stack)), name=name)
                   for i in range(1, len(branches))]
        for t in threads:
            t.start()
        if branches:
            run(0)
        for t in threads:
            t.join()
        if failures:
            raise failures[0]
        if aborted:
            raise _Aborted()
        return Results(out)

    def joint_uniform(self, shape):
        """Uniform fixed-point values on (0, 1] in one masked XOR opening.

        The j-th bit of uniform i is u_j = b0_j xor b1_j, b_p_j being party
        p's local bits; the dealer's single random bits rho_j (SINGLE_BITS)
        mask them. A bit shared additively in the ring carries
        an XOR sharing of itself in its shares' low bits (the daBit
        observation), so each party sends one word per uniform, sum_j 2^j
        (b_p_j xor lsb[rho_j]_p), and both XOR the two words into the public
        z = u xor rho. Then u_j = z_j + (1 - 2 z_j) rho_j is local, and u =
        sum_j 2^j u_j plus one ulp. The peer sees only z; the dealer, which
        knows rho, never sees it."""
        l = self.cfg.frac_bits
        n = int(np.prod(shape, dtype=np.int64))
        mine = self.material.take_local_bits(l, n)
        rho = self._uniform_masks(n, l)
        z = self._xor_open(mine, rho)
        u, one = self.zeros(n), np.uint64(1)
        with np.errstate(over="ignore"):
            for j in range(l):
                term = one - (((z >> np.uint64(j)) & one) << one)  # 1 - 2 z_j
                term *= rho[j]
                term <<= np.uint64(j)
                u += term
            u = self.add_public(u, z + one)
        return u.reshape(shape)

    def _uniform_masks(self, n, width):
        """The dealer's single bits that mask n values of width jointly
        sampled bits each, one array per bit: bit j of value i is single bit
        i * width + j. They are taken _MASK_TAKE_WORDS or fewer at a time."""
        rho = [np.empty(n, dtype=np.uint64) for _ in range(width)]
        step = max(1, _MASK_TAKE_WORDS // width)  # values per take
        for lo in range(0, n, step):
            m = min(step, n - lo)
            bits = self.material.take_bits(m * width, single=True).reshape(m, width)
            for row, column in zip(rho, bits.T):
                row[lo:lo + m] = column
        return rho

    def _xor_open(self, mine, rho):
        """The public z = b xor rho of jointly sampled bits b, the XOR of
        both parties' local bits, under the dealer's bits rho (shares in the
        ring). mine holds this party's bits, one word per value, low bit
        first; rho yields one array over the values per bit, low bit first.
        One word per value each way (joint_uniform)."""
        sent, one = mine.copy(), np.uint64(1)
        for j, bit in enumerate(rho):
            sent ^= (bit & one) << np.uint64(j)
        return sent ^ self.rt.exchange(sent)

    def joint_geometric(self, shape):
        """Geometric(1/2) integers in 1 + ceil(log2(W/3)) rounds: the count
        of leading zeros of W = whole_leaves(l) jointly sampled bits,
        capped at W, so P(e = j) = 2^-(j+1) below the cap.

        The bits are opened as joint_uniform opens them, one word per value,
        under dealer bits in whole leaves that carry all their monomials.
        Given the public z = b xor rho, a leaf's leading-zero count lz and
        its all-zero flag Z are multilinear in its bits of rho, so local
        combinations of its monomial words (_ZERO_COUNT_MAPS). The maps
        C -> lz + Z C compose like msb's borrow maps, the top leaf last, and
        their composition onto the top leaf is e. The peer sees z and Beaver
        differences only; the dealer, which knows rho, sees neither."""
        width = whole_leaves(self.cfg.frac_bits)
        G, P = self._open_zero_counts(int(np.prod(shape, dtype=np.int64)), width)
        return self._compose(G, P, msb_plan(width))[-1].reshape(shape)

    def _open_zero_counts(self, n, width):
        """joint_geometric's opening and its leaves' maps (G, P) = (lz, Z),
        [leaf, value]; the bits and their masks are freed on return, before
        the products."""
        leaves = width // SIGN_BLOCK
        mine = self.material.take_local_bits(width, n)
        mono = self._take_leaves(leaves, n)
        rho = (mono[j // SIGN_BLOCK][:, _BLOCK_BITS[j % SIGN_BLOCK]]  # bit 3i + t: leaf i's t
               for j in range(width))
        return self._maps(self._xor_open(mine, rho), mono, [0] * leaves, _ZERO_COUNT_MAPS)


class _Aborted(Exception):
    """A sibling parallel branch, or one of an enclosing call, failed."""


class _Rounds:
    """The round barrier of one parallel call on one party.

    Each branch posts its payload for the next round. The branch whose post
    or finish leaves every running branch posted sends all payloads, in
    branch order, in one exchange with the peer, and leaves each branch its
    part of the reply. It wakes the others only when it blocks (or
    finishes): the branches share one interpreter lock, so waking them
    earlier would only make them wait for it. The round is recorded under
    the phase path of the lowest-numbered branch in it, and the others ride
    in it (Transcript.ride). In a branch of an enclosing parallel call, rt
    is that branch's runtime: the exchange goes through the enclosing
    barrier, and both calls' other branches ride."""

    def __init__(self, rt: PartyRuntime, n: int):
        self.rt = rt
        self.cond = threading.Condition()
        self.live = set(range(n))
        self.posted: dict = {}   # branch -> (payload, phase stack)
        self.replies: dict = {}
        self.failed = False

    def exchange(self, branch: int, payload):
        with self.cond:
            alone = len(self.live) == 1  # the others have finished
        if alone:
            return self.rt.exchange(payload)
        with self.cond:
            self.posted[branch] = (payload, self.rt.transcript.phase_stack)
            sends = self._complete()
            if sends is None:
                self.cond.notify_all()
            while sends is None and branch not in self.replies:
                if self.failed:
                    raise _Aborted()
                self.cond.wait()
        if sends is not None:
            self._send(sends)
        with self.cond:
            return self.replies.pop(branch)

    def finish(self, branch: int):
        with self.cond:
            self.live.discard(branch)
            sends = self._complete()
        if sends is not None:
            self._send(sends)
        with self.cond:
            self.cond.notify_all()

    def abort(self):
        with self.cond:
            self.failed = True
            self.cond.notify_all()

    def _complete(self):
        """The round's posts, in branch order, once every running branch
        has posted; None before. Called with the lock held."""
        if self.failed or not self.posted or self.posted.keys() != self.live:
            return None
        return [(j, *self.posted.pop(j)) for j in sorted(self.posted)]

    def _send(self, sends):
        transcript = self.rt.transcript
        own = transcript.phase_stack
        transcript.adopt(sends[0][2])
        try:
            reply = self.rt.exchange(np.concatenate([np.ravel(p) for _, p, _ in sends]))
            transcript.ride(stack for _, _, stack in sends[1:])
        except BaseException:
            self.abort()
            raise
        finally:
            transcript.adopt(own)
        parts = np.split(reply, np.cumsum([np.size(p) for _, p, _ in sends])[:-1])
        with self.cond:
            for (j, p, _), part in zip(sends, parts):
                self.replies[j] = part.reshape(np.shape(p))


class _BranchRuntime:
    """A parallel branch's end of the session: its rounds go through the
    call's barrier; phases, ring and party are the session's."""

    def __init__(self, rt: PartyRuntime, rounds: _Rounds, branch: int):
        self.rt, self.rounds, self.branch = rt, rounds, branch
        self.cfg, self.party_id, self.transcript = rt.cfg, rt.party_id, rt.transcript

    def exchange(self, payload):
        return self.rounds.exchange(self.branch, payload)

    def phase(self, name):
        return self.rt.phase(name)


def estimate_counts(fn, session_seed: int = 0, cfg: RingConfig = DEFAULT_RING) -> Counts:
    """Dry-run a pipeline on the plain engine to get exact material counts
    and the windows of its parallel branches.

    Protocol control flow is data-independent, so counting on zero-filled
    inputs is exact for any inputs of the same shape.
    """
    eng = PlainEngine(MaterialSource(session_seed, cfg), cfg)
    fn(eng)
    return eng.counts()


def run_two_party(fn, *, session_seed: int, counts: dict | None = None,
                  cfg: RingConfig = DEFAULT_RING, session_id: int = 1,
                  handshake_public: dict | None = None):
    """Run fn(engine) on both parties concurrently, over in-process
    channels; returns ([res0, res1], [eng0, eng1]).

    Without counts the parties are provisioned exactly, from a dry run of fn
    (estimate_counts). A party that fails closes its channel, so its peer
    fails at its next receive; the first failure is raised.
    """
    if counts is None:
        counts = estimate_counts(fn, session_seed, cfg)
    source = MaterialSource(session_seed, cfg)
    ch0, ch1 = queue_pair()

    results = [None, None]
    engines = [None, None]
    errors = []

    def run(party, channel):
        try:
            rt = PartyRuntime(party, session_id, channel, cfg)
            if handshake_public is not None:
                handshake(rt, handshake_public)
            eng = MpcEngine(rt, MaterialCursor(source, party, counts))
            engines[party] = eng
            results[party] = fn(eng)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            errors.append(exc)
            channel.close()

    threads = [threading.Thread(target=run, args=(p, c), name=f"party{p}")
               for p, c in ((0, ch0), (1, ch1))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for ch in (ch0, ch1):
        ch.close()
    if errors:
        raise errors[0]
    return results, engines
