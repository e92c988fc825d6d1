"""Exact truncated power series in q.

A QSeries holds coefficients for the exponents offset + i, 0 <= i < prec,
where the offset is a rational with denominator dividing 24 (the grid on
which eta quotients live).  Every coefficient is a Python int, and
from_pairs and lincomb refuse anything else; a rational expression
keeps its one denominator outside the series (see formspec.evaluate).
Coefficients are read from the list itself: coeffs[i] is the
coefficient of q^(offset + i).

Every operation records the precision that is guaranteed valid for its
result, so truncation never silently produces wrong tails.

Every series is stored the same way: its offset and one list of prec
coefficients, zeros included.  Theta series and pentagonal-number
products carry only O(sqrt(prec)) nonzero terms; a series built from
its terms (from_pairs, as every theta, eta and psi atom is) also keeps
them, so pairs() and nnz never scan its list, and derive and U_m carry
them over.  A product takes the operand with fewer nonzeros as the row
source, and _plan, the one dispatch point, prices three paths from the
nonzero counts, the stride d, prec and the coefficient widths, and
takes the cheapest: a loop over pairs of nonzero terms, the row pass,
or one decimal NTT product.

The row pass: each nonzero row term adds a shifted multiple of the
other operand.  It skips the zeros a dilation leaves: when the other
operand's nonzeros all sit on multiples of some d (E4(4) has d = 4), a
row term at i updates only out[i::d].  The gcd d is read from the
nonzero indices and the read stops as soon as it reaches 1.  The other
operand's every d-th coefficient is packed once into one int of
fixed-width byte slots, and each residue mod d is a sum of that int
scaled and shifted once per row term; the slots are wide enough that
none carries into the next once a constant in every slot makes them all
positive.  The terms are summed in Horner order, from the largest shift
down: the running sum is shifted to the next term and that term's
multiple is added, a multiple of the packed int cut to the slots the
term can reach, rounded up to a sixteenth of the residue.  Each term
thus makes three passes (shift, multiply, add) over the n - k slots it
reaches plus at most ceil(n / 16) slots of slack.  Slots of up to 8
bytes are signed machine words: one array packs an operand and one
array reads each residue back.  Wider slots are written by int.to_bytes
and read back by int.from_bytes, one slot at a time through map.  With
s nonzero row terms that costs O(prec * s / d) slot bytes, all of it in
C.  One pass can build a sum of products: every product packs its own
operand, their row terms share each residue's Horner loop, and each
residue is read back once.
The NTT path multiplies two big Decimals instead: each list is packed
into fixed-width decimal slots, with a bias of its own that makes every
slot positive, wide enough that no product coefficient can carry into
its neighbour.  libmpdec multiplies the two exactly with its
number-theoretic transform (a transform over finite fields, so nothing
is rounded), in a context that traps any rounding.  Every pass over
the slots runs in C, one block of _BLOCK slots per call: one % format
writes a block, one struct unpack splits a block of the product's low
digits into slots, which int reads, and one accumulate builds the
prefix sums of the bias terms, which one map subtracts.  Powers are
taken by square-and-multiply, and a power of eta starts from Jacobi's
identity for eta^3, another sum with O(sqrt(prec)) terms.  No floating
point anywhere.

lincomb builds an integer linear combination sum k a b + sum k s of
products and series into one list: every row-pass product of one
stride shares one row pass, with k folded into its row terms, and the
other terms are added into that list, the pair loop in place and the
rest by one map pass each.  mul is its one-term case; a sum or a
scaled series is a lincomb call of its own.

U_m of a product (u_mul) never forms the product whose every m-th
coefficient it keeps: it sums the products of the operands' m-sections,
each on prec // m positions, in one lincomb, and skips a pair with an
all-zero section.

Every O(prec) pass over a coefficient list (pairs, lincomb, derive, the
E4 sieve, _ntt's pack and readback) iterates in C through map,
compress, % formats, struct and slice assignment, not in a
Python-level loop per coefficient.

Every generator takes a dilation index m and writes the series at mz
straight onto its grid, at stride m; nothing substitutes q -> q^m.

QSeries values are treated as immutable: every operation returns a new
object and never mutates its operands.
"""

from __future__ import annotations

import operator
import struct
import sys
from array import array
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_DOWN, Context,
                     Decimal, Inexact, Rounded)
from fractions import Fraction
from functools import reduce
from itertools import (accumulate, chain, compress, count, islice, repeat,
                       takewhile)
from math import gcd, isqrt

from .arith import DirichletCharacter

# QSeries.density calls a series sparse while nnz * SPARSE_FACTOR <= prec.
SPARSE_FACTOR = 16

# Exact integer arithmetic on Decimals: nothing is ever rounded.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded])
# Slots packed per string in _ntt and per bytes block in _row_pass.
_BLOCK = 512
# The array typecode of the narrowest machine word of at least w bytes,
# for w = 1..8 (later, narrower codes overwrite earlier ones).
_WORD = {w: code for code in "QLIHB"
         for w in range(1, array(code).itemsize + 1)}
# The row pass cuts its packed operand to a multiple of 1/_CUTS of a
# residue's slots.
_CUTS = 16
# The int <-> str digit limit of CPython 3.10.7 and later (0: none).
_int_str_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _as_offset(value) -> Fraction:
    off = Fraction(value)
    if 24 % off.denominator:
        raise ValueError("offset denominator must divide 24, got %s" % off)
    return off


def _require_int(c):
    if type(c) is not int:
        raise TypeError("q-series coefficients are ints, got %r" % (c,))


class QSeries:
    """Truncated exact power series sum_i coeffs[i] q^(offset + i)."""

    __slots__ = ("offset", "coeffs", "_pairs")

    def __init__(self, offset, coeffs: list, pairs: tuple | None = None):
        # Takes the list as is; from_pairs builds one.  pairs, when known,
        # is the tuple of the list's nonzero (index, value) terms in
        # increasing index order.
        self.offset = _as_offset(offset)
        self.coeffs = coeffs
        self._pairs = pairs

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs, prec: int, offset=0) -> "QSeries":
        """The series with the given (index, int value) terms and zeros
        elsewhere; each index must lie in [0, prec) and occur once.  The
        nonzero terms are kept, so pairs() never reads the list."""
        if prec < 0:
            raise ValueError("prec must be nonnegative")
        coeffs = [0] * prec
        seen = set()
        kept = []
        for i, c in pairs:
            if not 0 <= i < prec:
                raise ValueError("index %d outside [0, %d)" % (i, prec))
            if i in seen:
                raise ValueError("index %d given twice" % i)
            seen.add(i)
            _require_int(c)
            if c:
                coeffs[i] = c
                kept.append((i, c))
        kept.sort(key=operator.itemgetter(0))
        return cls(offset, coeffs, tuple(kept))

    # -- inspection --------------------------------------------------------

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    @property
    def nnz(self) -> int:
        if self._pairs is not None:
            return len(self._pairs)
        return len(self.coeffs) - self.coeffs.count(0)

    @property
    def density(self) -> str:
        """The label "sparse" while nnz * SPARSE_FACTOR <= prec, else
        "dense", for reports; _plan, not this label, picks a product's
        path."""
        return "sparse" if self.nnz * SPARSE_FACTOR <= self.prec else "dense"

    def pairs(self):
        """Iterate nonzero (index, value) in increasing index order."""
        if self._pairs is not None:
            return iter(self._pairs)
        c = self.coeffs
        return zip(compress(count(), c), filter(None, c))

    # -- operators ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.offset == other.offset and self.coeffs == other.coeffs

    def __repr__(self):
        return "QSeries(offset=%s, prec=%d, nnz=%d, %s)" % (
            self.offset, self.prec, self.nnz, self.density)


# -- ring operations -------------------------------------------------------

def check_common_grid(a_offset: Fraction, b_offset: Fraction) -> int:
    """b_offset - a_offset as an int; a non-integer one is refused."""
    if (shift := b_offset - a_offset).denominator != 1:
        raise ValueError("offsets %s and %s are not on a common grid"
                         % (a_offset, b_offset))
    return shift.numerator


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Truncated Cauchy product; offsets add, prec = min(prec_a, prec_b).

    The one-term case of lincomb: the operand with fewer nonzeros is the
    row source, and _plan picks the pair loop over nonzero terms, the row
    pass (each nonzero row term adds its multiple of the other operand,
    shifted, as one big-int shift-add on that operand packed into one
    int) or one exact Decimal product of slot-packed lists (_ntt).
    """
    return lincomb([(1, a, b)])


def lincomb(terms) -> QSeries:
    """sum k a b over the product terms (k, a, b) plus sum k s over the
    series terms (k, s), each k an int, built into one list.

    The offsets must differ by integers.  The result starts at the
    lowest offset and keeps the exponents that every term knows (a
    product knows min(prec_a, prec_b) of them from a.offset + b.offset),
    so it equals the nested add of the scaled terms.  Each product takes
    the path _plan gives it, with the operand of fewer nonzeros as the
    row source.  Every row-pass product of one stride d goes into one
    _row_pass call, its row terms moved by its offset and multiplied by
    its k, so no product is ever a list of its own.  One loop adds each
    row pass's list, then each _ntt product and series term, by one map
    pass and drops it; a first part that is a list made for this sum is
    the result list itself.  The pair loop adds k c c' into the result
    in place.  A term with k = 0 is never built; it still bounds the
    window.
    """
    spans = [(t[1].offset + t[2].offset, min(t[1].prec, t[2].prec))
             if len(t) == 3 else (t[1].offset, t[1].prec) for t in terms]
    offset = min(off for off, _ in spans)
    spans = [(check_common_grid(offset, off), n) for off, n in spans]
    prec = max(0, min(shift + n for shift, n in spans))
    groups = {}     # stride d -> the (row terms, coeffs) of one row pass
    lists = []      # (shift, values, k), each added by one map pass
    pair_terms = []
    for (k, *factors), (shift, _) in zip(terms, spans):
        _require_int(k)
        lim = prec - shift
        if not k or lim <= 0:
            continue
        if len(factors) == 1:
            lists.append((shift, islice(factors[0].coeffs, lim), k))
            continue
        a, b = factors
        if a.nnz > b.nnz:
            a, b = b, a
        path, d = _plan(a, b)
        if path == "rows":
            groups.setdefault(d, []).append((
                [(shift + i, k * c)
                 for i, c in takewhile(lambda t: t[0] < lim, a.pairs())],
                b.coeffs))
        elif path == "pairs":
            pair_terms.append((shift, lim, k, a, b))
        else:
            ac = a.coeffs[:lim]
            lists.append((shift, _ntt(ac, ac if b is a else b.coeffs[:lim]),
                          k))
            del ac
    # Each part is made, or taken out of lists, only as it is added.
    parts = chain(((0, _row_pass(group, d, prec), 1)
                   for d, group in groups.items()),
                  map(lists.pop, repeat(0, len(lists))))
    out = None
    for shift, values, k in parts:
        if k != 1:
            values = map(operator.mul, values, repeat(k))
        if out is None and not shift and type(values) is list:
            out = values        # a list made for this sum alone
        else:
            if out is None:
                out = [0] * prec
            out[shift:] = map(operator.add, out[shift:], values)
        del values
    if out is None:
        out = [0] * prec
    for shift, lim, k, a, b in pair_terms:
        bp = list(b.pairs())
        for i, c in a.pairs():
            if i >= lim:
                break
            top = lim - i
            c *= k
            i += shift
            for j, v in bp:
                if j >= top:
                    break
                out[i + j] += c * v
    return QSeries(offset, out)


# The cost of one multiply-add of the pair loop, and of one decimal digit
# of an _ntt operand slot, each in bytes of a row-pass big-int pass (see
# _plan).
_PLAN_COST = 80


def _plan(a: QSeries, b: QSeries) -> tuple[str, int]:
    """The path of the product a b, where a has no more nonzero terms
    than b, and the stride it runs at: ("pairs", 1), ("rows", d) or
    ("ntt", 1), d the gcd of b's nonzero indices below prec (_stride).

    Each path is priced from nnz, d, prec and the coefficient widths
    alone, in bytes of a row-pass big-int pass, with both operands'
    nonzero terms taken as spread evenly.  With s and t the nonzero
    terms of a and b, n = min(prec_a, prec_b), A = max|a| and
    B = max|b|:
      - rows: a row term reaches n / (2 d) slots on average, w bytes
        each, w the slot width for (B + 1) s A, at least the row pass's
        own, whose bound sum |c| (max|b| + 1) over a residue's row terms
        is at most (B + 1) s A: s n w / (2 d);
      - pairs: about s t / 2 pairs of terms fall below n, each one
        interpreted multiply-add: _PLAN_COST s t / 2;
      - ntt: n slots of D decimal digits, D those of
        4 n (A + 1) (B + 1): _PLAN_COST n D.
    The cheapest wins, and a tie goes to the first of pairs, rows, ntt.
    ntt is left out when bits * 30103 // 100000 + 1, bits the bit length of
    4 n (A + 1) (B + 1), passes CPython's int <-> str digit limit: it
    bounds an _ntt slot's digits from above, and the slots go through str.
    _PLAN_COST is the one measured constant.  Timing all three paths on
    fifteen product shapes, those of the named forms among them, every
    shape goes to its fastest path for any _PLAN_COST in [59, 117]
    (CHANGES.md), and 80 is near the middle of that range.
    """
    n = min(a.prec, b.prec)
    s, t = a.nnz, b.nnz
    if not s or not n:
        return "pairs", 1
    if b._pairs is None:
        d = _stride(b.coeffs, n)
        big_b = max(map(abs, islice(b.coeffs, 0, n, d)))
    else:
        # The kept terms give the same stride and maximum without a scan.
        low = list(takewhile(lambda t: t[0] < n, b._pairs))
        d = reduce(gcd, map(operator.itemgetter(0), low), 0) or 1
        big_b = max(map(abs, map(operator.itemgetter(1), low)), default=0)
    big_a = big_b if a is b else max(map(abs, (
        a.coeffs if a._pairs is None
        else map(operator.itemgetter(1), a._pairs))))
    bits = (4 * n * (big_a + 1) * (big_b + 1)).bit_length()
    costs = [(_PLAN_COST * s * t // 2, "pairs", 1),
             (s * n * _slot_bytes((big_b + 1) * s * big_a) // (2 * d),
              "rows", d)]
    if not 0 < _int_str_limit() < bits * 30103 // 100000 + 1:
        costs.append((_PLAN_COST * n * (bits * 3 // 10 + 1), "ntt", 1))
    return min(costs, key=operator.itemgetter(0))[1:]


def _slot_bytes(m: int) -> int:
    """The row pass's slot width for a slot sum bounded by m: the bytes
    of 2 m, rounded up to a machine word up to 8 bytes."""
    w = max(1, ((2 * m).bit_length() + 7) // 8)
    return array(_WORD[w]).itemsize if w <= 8 else w


def _stride(coeffs: list, prec: int) -> int:
    """The gcd of the nonzero indices below prec; 1 when no index but 0
    is nonzero.  It divides d0, the gcd of the first two nonzero indices
    above 0, and since gcd(d0, i) = gcd(d0, i mod d0) it is the gcd of
    d0 and the residues r = 1, ..., d0 - 1 that hold a nonzero term, each
    read as one slice.  Nothing past the second nonzero index is read
    when d0 is 1."""
    d0 = reduce(gcd, islice(filter(None, compress(range(prec), coeffs)), 2),
                0)
    return reduce(gcd, (r for r in range(1, d0) if any(coeffs[r:prec:d0])),
                  d0) or 1


def _row_pass(terms: list, d: int, prec: int) -> list:
    """The prec coefficients of sum_j sum c q^i B_j(q) over the terms
    (rows_j, coeffs_j): rows_j holds the row terms (i, c) of B_j, in
    increasing order of i and each with i < prec, and coeffs_j holds
    B_j's coefficients, of which those below prec sit on multiples of d.
    A term's list may be shorter than prec when none of its rows reach
    past its end.  One term is one product; several are the sum of
    their products, built as one.

    A row term at i = r + d k adds c coeffs_j[d t] to out[r + d (k + t)],
    so each residue r mod d is a sum of shifted multiples of the
    B_j[::d].  Each B_j[::d] is packed once into one int
    P_j = sum_t coeffs_j[d t] 256^(w t), and a residue's n slots are the
    sum of c (P_j << 8 w k) over its row terms.  With M the largest
    over the residues of sum |c| (max|B_j| + 1) over its row terms
    (k, c), max|B_j| read from the coeffs_j[d t] below prec, and w the
    bytes of 2M, every slot of that sum lies in (-H, H), H = 2^(8w-1),
    and so does every coeffs_j[d t], since every term has a row term and
    each c is nonzero.  So adding H to every slot makes each one a w-byte
    value that carries into none of its neighbours, and the low n slots
    are the low 8 w n bits whatever the slots above them hold.  So the
    sum is only needed modulo 2^(8 w n), and a term at k only needs the
    low n - k slots of its P_j.

    The terms are summed in Horner order, from the highest k down, rows
    of every j merged: acc = (acc << 8 w (k' - k)) + c low_j, where k'
    is the previous term's k and low_j is P_j cut to the smallest
    multiple of ceil(n / _CUTS) slots that covers n - k; every P_j is
    cut at those same points.  A cut is less than ceil(n / _CUTS) slots
    longer than n - k, so acc never spans more than n - k slots plus
    that slack and the bits of the c, and a term costs three big-int
    passes (a shift, a multiply, an add) over the n - k slots it reaches
    plus that slack.  Each P_j is cut at most _CUTS times per residue,
    and one cut of each is alive at a time; the last, of all n slots, is
    P_j itself, which has at most one slot more.  acc is shifted by the
    lowest k, H is added to every slot, and the low n slots, each a
    coefficient plus H, are read back: one readback per residue, however
    many terms.  Each P_j is packed from its slots plus H the same way,
    and H is taken off the whole int at once.

    Each slot width has one codec.  Up to 8 bytes, w is rounded up to a
    machine word of 1, 2, 4 or 8 bytes and a slot is one signed word,
    whose top bit flipped adds H: each B_j[::d] is packed as one array
    passed to int.from_bytes, and each residue is read back as one array
    over its bytes, both arrays byte-swapped on a big-endian machine.  A
    wider slot is written as int.to_bytes(c + H, w, "little"), in blocks
    of at most _BLOCK slots so that no list of every slot exists, and
    read back by int.from_bytes over struct.iter_unpack, less H.
    """
    out = [0] * prec
    terms = [(rows, coeffs) for rows, coeffs in terms if rows]
    if not terms:
        return out
    # The slot bound: sum |c| (max|B_j| + 1) over a residue's row terms.
    residues, sums = {}, {}
    for j, (rows, coeffs) in enumerate(terms):
        high = max(map(abs, coeffs[0:prec:d])) + 1
        for i, c in rows:
            residues.setdefault(i % d, []).append((i // d, c, j))
            sums[i % d] = sums.get(i % d, 0) + abs(c) * high
    w = _slot_bytes(max(sums.values()))
    bits = 8 * w
    half = 1 << (bits - 1)

    def flipped(n):
        # H in each of n slots: adds H to every slot, or flips its top bit.
        return int.from_bytes(half.to_bytes(w, "little") * n, "little")

    # The codec of the slot width: encode(values, n) is the int of the n
    # slots v + H, and decode(x, n) the n values v of such an int x.
    if w <= 8:
        code = _WORD[w].lower()
        swap = sys.byteorder != "little"

        def words(values):
            # Signed words whose bytes are little-endian.
            out = array(code, values)
            if swap:
                out.byteswap()
            return out

        def encode(values, n):
            return int.from_bytes(words(values), "little") ^ flipped(n)

        def decode(x, n):
            return words((x ^ flipped(n)).to_bytes(w * n, "little"))
    else:
        def encode(values, n):
            values = map(operator.add, values, repeat(half))
            return int.from_bytes(b"".join([b"".join(map(
                int.to_bytes, islice(values, _BLOCK), repeat(w),
                repeat("little"))) for _ in range(0, n, _BLOCK)]), "little")

        def decode(x, n):
            return map(operator.sub, map(int.from_bytes, map(
                operator.itemgetter(0), struct.iter_unpack(
                    "%ds" % w, x.to_bytes(w * n, "little"))),
                repeat("little")), repeat(half))

    packed = []
    for _, coeffs in terms:
        n = len(range(0, min(prec, len(coeffs)), d))
        packed.append(encode(islice(coeffs, 0, prec, d), n) - flipped(n))
    for r, row_terms in residues.items():
        if len(terms) > 1:
            row_terms.sort(key=operator.itemgetter(0))
        n = len(range(r, prec, d))
        step = -(-n // _CUTS)
        cuts = [0] * len(terms)
        lows = [0] * len(terms)
        # acc grows at every term, and glibc's malloc maps each block
        # larger than any it has freed afresh, so every page of every
        # term's result would be a new page fault.  Freeing one block as
        # large as the loop's live ints (acc, c * low, their sum and a cut
        # of each P_j) first makes the loop reuse freed memory instead.
        bytes((len(terms) + 3) * w * (n + step + 1))
        acc = 0
        last = row_terms[-1][0]
        for k, c, j in reversed(row_terms):
            if n - k > cuts[j]:
                cut = cuts[j] = min(n, -(-(n - k) // step) * step)
                p = packed[j]
                lows[j] = p if cut == n else p & ((1 << bits * cut) - 1)
            acc <<= bits * (last - k)
            acc += c * lows[j]
            last = k
        p = lows = None
        acc <<= bits * last
        acc += flipped(n)
        acc &= (1 << bits * n) - 1
        values = decode(acc, n)
        del acc
        out[r::d] = values
        del values
    return out


def _ntt(ac: list, bc: list) -> list:
    """Product of two int lists of equal length n, truncated to n terms,
    by one exact Decimal multiplication (libmpdec's number-theoretic
    transform); passing one list twice squares it.

    Each list is packed into fixed-width decimal slots with its own
    bias, B_a = max|a| + 1 and B_b = max|b| + 1, which makes every slot
    positive.  Slot k of the product is then
    v_k = c_k + sum_{i <= k} (B_b a_i + B_a b_i + B_a B_b); it lies in
    [0, 4 n B_a B_b), so slots of that many digits never carry into each
    other.  The context traps Inexact and Rounded: a product that did
    not fit would raise, never round.  _plan sends no product here whose
    slots could pass CPython's int <-> str digit limit.

    Every pass over the n slots runs in C, one block of _BLOCK slots per
    call.  Packing writes a block's biased values, highest slot first,
    with one % format.  The low n slots are read back from the end of
    the product's fixed-point digit string, one block at a time: one
    struct unpack splits the block's bytes into slots and int reads
    each.  One accumulate over the terms of the sum above makes the
    biases, and one map subtracts them.
    """
    n = len(ac)
    if not n:
        return []
    ba = max(map(abs, ac)) + 1
    bb = ba if bc is ac else max(map(abs, bc)) + 1
    w = Decimal(4 * n * ba * bb).adjusted() + 1

    def put(values):
        values = tuple(values)
        return ("%%0%dd" % w * len(values)) % values

    def pack(coeffs, bias):
        # Slot n-1 leads the digit string.
        return Decimal("".join([put(map(operator.add,
                                        reversed(coeffs[k:k + _BLOCK]),
                                        repeat(bias)))
                                for k in range((n - 1) // _BLOCK * _BLOCK,
                                               -1, -_BLOCK)]))

    pa = pack(ac, ba)
    v = _EXACT.multiply(pa, pa if bc is ac else pack(bc, bb))
    del pa
    # The low n slots are the digits of v / 10^(w n) after the point;
    # fixed-point format writes all w n of them, leading zeros included,
    # and never the high half's.
    v = _EXACT.scaleb(v, -w * n)
    v = _EXACT.subtract(v, v.to_integral_value(ROUND_DOWN, _EXACT))
    s = format(v, "f")
    del v
    top = len(s)
    whole = struct.Struct("%ds" % w * _BLOCK)

    def read(k):
        # Slots k to k + m - 1, lowest first; slot k ends at top - w k.
        m = min(_BLOCK, n - k)
        layout = whole if m == _BLOCK else struct.Struct("%ds" % w * m)
        return map(int, reversed(layout.unpack(
            s[top - w * (k + m):top - w * k].encode())))

    if bc is ac:
        terms = map(operator.add, map(operator.mul, ac, repeat(2 * ba)),
                    repeat(ba * ba))
    else:
        terms = map(operator.add,
                    map(operator.add, map(operator.mul, ac, repeat(bb)),
                        map(operator.mul, bc, repeat(ba))),
                    repeat(ba * bb))
    return list(map(operator.sub,
                    chain.from_iterable(map(read, range(0, n, _BLOCK))),
                    accumulate(terms)))


def pow_(a: QSeries, e: int) -> QSeries:
    """a^e by left-to-right square-and-multiply: one squaring per bit of
    e after the leading one, and one product with a per set bit."""
    if e < 1:
        raise ValueError("exponent must be a positive integer")
    result = a
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, a)
    return result


def derive(a: QSeries) -> QSeries:
    """b * q d/dq, where the offset is a/b in lowest terms: the coefficient
    at exponent e is multiplied by b e, which is the int a + b i at index
    i.  On an integer offset (b = 1) this is q d/dq itself.  A series
    that keeps its nonzero terms is derived from them alone."""
    off = a.offset
    num, den = off.numerator, off.denominator
    if a._pairs is not None:
        return QSeries.from_pairs(((i, c * (num + den * i))
                                   for i, c in a._pairs), a.prec, off)
    return QSeries(off, list(map(operator.mul, a.coeffs,
                                 range(num, num + den * a.prec, den))))


def u_op(m: int, a: QSeries) -> QSeries:
    """Index extraction: coefficient of q^n in the result is the
    coefficient of q^(m n) in a.  Requires an integer offset; the result
    is reported on offset 0 with prec = prec_a // m, cut further when a
    negative offset leaves fewer exponents m n known."""
    check_u_grid(m, a.offset)
    off = int(a.offset)
    # a is known for exponents below off + prec_a: n < ceil(that / m).
    prec = max(0, min(a.prec // m, -(-(off + a.prec) // m)))
    # n0 is the first n >= 0 whose exponent m n is at or above off.
    n0 = min(prec, max(0, -(-off // m)))
    pairs = a._pairs
    if pairs is not None:
        pairs = tuple((n, c) for n, c in (((i + off) // m, c)
                                          for i, c in pairs
                                          if not (i + off) % m)
                      if 0 <= n < prec)
    return QSeries(0, [0] * n0 + a.coeffs[m * n0 - off:m * prec - off:m],
                   pairs)


def u_mul(m: int, a: QSeries, b: QSeries) -> QSeries:
    """u_op(m, mul(a, b)), built from the m-sections of the operands:

        U_m(A B) = sum_{r=0}^{m-1} U_m(q^-r A) U_m(q^r B).

    a's offset is first moved onto b (a shift is a new offset on the same
    list), so each product runs on prec // m positions and only the
    exponents U_m keeps are ever computed.  A pair with an all-zero
    section contributes nothing and is skipped; b's section is built only
    when a's is nonzero.  The section products left are one lincomb (a
    single one is mul).  Offset, prec and coefficients equal those of
    u_op(m, mul(a, b)).
    """
    offset = a.offset + b.offset
    check_u_grid(m, offset)
    if offset <= -m:
        # Then a section of b has terms at negative n, which u_op cuts
        # although the sum still needs them; take the product whole.
        return u_op(m, mul(a, b))

    def section_term(r):
        x = u_op(m, QSeries(-r, a.coeffs, a._pairs))
        if not any(x.coeffs):
            return None
        y = u_op(m, QSeries(offset + r, b.coeffs, b._pairs))
        return (1, x, y) if any(y.coeffs) else None

    terms = [t for t in map(section_term, range(m)) if t is not None]
    if not terms:
        # With offset > -m, every section of a has prec_a // m positions
        # and every section of b has prec_b // m.
        return QSeries(0, [0] * (min(a.prec, b.prec) // m))
    return mul(*terms[0][1:]) if len(terms) == 1 else lincomb(terms)


def check_u_grid(m: int, offset: Fraction):
    """Refuse U_m of a series whose offset is off the integer grid, and
    an index m below 1."""
    if m < 1:
        raise ValueError("operator index must be a positive integer")
    if offset.denominator != 1:
        raise ValueError("U_%d needs an integer exponent grid, offset is %s"
                         % (m, offset))


# -- generators --------------------------------------------------------------

def _lacunary(m: int, prec: int, terms, offset=0) -> QSeries:
    """sum_e c q^(m e) over the (e, c) pairs of terms, which come in
    increasing e, cut at prec and with the given offset."""
    if m < 1:
        raise ValueError("dilation index must be a positive integer")
    if prec < 1:
        raise ValueError("prec must be positive")
    return QSeries.from_pairs(takewhile(lambda t: t[0] < prec,
                                        ((m * e, c) for e, c in terms)),
                              prec, offset)


def eta(m: int, prec: int) -> QSeries:
    """q^(m/24) prod (1 - q^(m n)), via the pentagonal number sum
    sum_j (-1)^j q^(m j(3j-1)/2) at stride m with a fractional offset of
    m/24; O(sqrt(prec / m)) terms."""
    def pentagonal():
        yield 0, 1
        for j in count(1):
            s = -1 if j % 2 else 1
            yield j * (3 * j - 1) // 2, s
            yield j * (3 * j + 1) // 2, s
    return _lacunary(m, prec, pentagonal(), Fraction(m, 24))


def eta_pow(m: int, e: int, prec: int) -> QSeries:
    """eta(mz)^e, from e >= 3 on as (eta^3)^(e // 3) eta^(e % 3), with
    eta^3 read off Jacobi's identity, a sum of O(sqrt(prec / m)) terms:
    eta(mz)^3 = q^(m/8) sum_{n >= 0} (-1)^n (2n+1) q^(m n(n+1)/2)."""
    if e < 3:
        return pow_(eta(m, prec), e)

    def jacobi():
        for n in count():
            yield n * (n + 1) // 2, (-1) ** n * (2 * n + 1)
    cube = pow_(_lacunary(m, prec, jacobi(), Fraction(m, 8)), e // 3)
    return mul(cube, pow_(eta(m, prec), e % 3)) if e % 3 else cube


def theta(m: int, prec: int) -> QSeries:
    """sum_{n in Z} q^(m n^2): 1 + 2 q^m + 2 q^(4m) + ..."""
    return _lacunary(m, prec, chain([(0, 1)],
                                    ((n * n, 2) for n in count(1))))


def psi(m: int, prec: int) -> QSeries:
    """q^(m/8) sum_{n >= 0} q^(m n(n+1)/2) = eta(2mz)^2 / eta(mz)."""
    return _lacunary(m, prec, ((n * (n + 1) // 2, 1) for n in count()),
                     Fraction(m, 8))


def theta_psi(psi: DirichletCharacter, m: int, prec: int) -> QSeries:
    """Weighted theta series sum_{n in Z} psi(n) n q^(m n^2) for an odd
    primitive real character psi; the +-n terms double."""
    if not psi.is_odd:
        raise ValueError("theta_psi needs an odd character "
                         "(an even one sums to zero)")
    if not psi.is_primitive:
        raise ValueError("theta_psi needs a primitive character")
    return _lacunary(m, prec, ((n * n, 2 * psi(n) * n) for n in count(1)))


def eisenstein_e4(m: int, prec: int) -> QSeries:
    """E4(mz) = 1 + 240 sum sigma_3(n) q^(m n), for the n with m n < prec,
    written at stride m.

    sigma_3 is multiplicative, with sigma_3(p^v) = 1 + p^3 sigma_3(p^(v-1)),
    so the table starts at 240 everywhere and each prime p multiplies its
    multiples n = p t by sigma_3(p^v), v the power of p in n, in one
    slice product.  The factors for t = 1, 2, ... are sigma_3(p) with
    sigma_3(p^(j+1)) written over every p^j-th t, j = 1, 2, ...
    """
    if m < 1:
        raise ValueError("dilation index must be a positive integer")
    if prec < 1:
        raise ValueError("prec must be positive")
    top = (prec + m - 1) // m
    sig = [240] * top
    is_prime = bytearray(b"\x01") * top
    for p in range(2, isqrt(top - 1) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = bytes(len(range(p * p, top, p)))
    for p in compress(range(2, top), is_prime[2:]):
        p3 = p * p * p
        s = 1 + p3
        factors = [s] * ((top - 1) // p)
        pj = p
        while pj * p < top:
            s = 1 + p3 * s
            factors[pj - 1::pj] = [s] * len(range(pj - 1, len(factors), pj))
            pj *= p
        sig[p::p] = map(operator.mul, sig[p::p], factors)
    sig[0] = 1
    out = [0] * prec
    out[::m] = sig
    return QSeries(0, out)
