"""Exact truncated power series in q.

A QSeries holds coefficients for the exponents offset + i, 0 <= i < prec,
where the offset is a rational with denominator dividing 24 (the grid on
which eta quotients live).  Every coefficient is a Python int, and
from_pairs and scalar_mul refuse anything else; a rational expression
keeps its one denominator outside the series (see formspec.evaluate).
Coefficients are read from the list itself: coeffs[i] is the
coefficient of q^(offset + i).

Every operation records the precision that is guaranteed valid for its
result, so truncation never silently produces wrong tails.

Every series is stored the same way: its offset and one list of prec
coefficients, zeros included.  Theta series and pentagonal-number
products carry only O(sqrt(prec)) nonzero terms, so a product counts
the nonzeros of its operands and takes the one with fewer as the row
source.  A series is sparse while nnz * 16 <= prec; when both operands
are sparse the product runs over pairs of nonzero terms, otherwise each
nonzero row term adds a shifted multiple of the other operand (the row
pass).  That pass skips the zeros a dilation leaves: when the other
operand's nonzeros all sit on multiples of some d (E4(4) has d = 4), a
row term at i updates only out[i::d].  The gcd d is read from the
nonzero indices and the read stops as soon as it reaches 1.  The other
operand's every d-th coefficient is packed once into one int of
fixed-width byte slots, and each residue mod d is a sum of that int
scaled and shifted once per row term, plus a constant in every slot that
keeps all slots positive; the slots are wide enough that none carries
into the next.  Slots of up to 8 bytes are machine words: an array packs
them and a memoryview cast reads each residue back, both in C; wider
slots are packed and read back one bytes object each.  With s nonzero
row terms that costs O(prec * s / d) limb operations, all of them in C.
When both operands are dense, the product is one multiplication of two
big Decimals instead: each list is packed into fixed-width decimal
slots, with a bias of its own that makes every slot positive, wide
enough that no product coefficient can carry into its neighbour.
libmpdec multiplies the two exactly with its number-theoretic transform
(a transform over finite fields, so nothing is rounded), in a context
that traps any rounding; the low slots are read back and the bias cross
terms removed with prefix sums.  Powers are taken by square-and-multiply,
and a power of eta starts from Jacobi's identity for eta^3, another sum
with O(sqrt(prec)) terms.  No floating point anywhere.

U_m of a product (u_mul) never forms the product whose every m-th
coefficient it keeps: it sums the products of the operands' m-sections,
each on prec // m positions, and skips a pair with an all-zero section.

Every O(prec) pass over a coefficient list (pairs, add, scalar_mul,
derive, the E4 sieve) iterates in C through map, compress and slice
assignment, not in a Python-level loop per coefficient.

Every generator takes a dilation index m and writes the series at mz
straight onto its grid, at stride m; nothing substitutes q -> q^m.

QSeries values are treated as immutable: every operation returns a new
object and never mutates its operands.
"""

from __future__ import annotations

import operator
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

# A series is sparse while nnz * SPARSE_FACTOR <= prec.
SPARSE_FACTOR = 16

# Exact integer arithmetic on Decimals: nothing is ever rounded.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded])
# Slots packed per string in _ntt and _row_pass.
_BLOCK = 512
# The array typecode of the narrowest machine word of at least w bytes,
# for w = 1..8 (later, narrower codes overwrite earlier ones).
_WORD = {w: code for code in "QLIHB"
         for w in range(1, array(code).itemsize + 1)}
# The int <-> str digit limit of CPython 3.10.7 and later (0: none).
_int_str_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


class PrecisionError(ValueError):
    """A series does not reach the q^prec its integer table needs
    (raised by forms.integer_table)."""


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

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset, coeffs: list):
        # Takes the list as is; from_pairs builds one.
        self.offset = _as_offset(offset)
        self.coeffs = coeffs

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs, prec: int, offset=0) -> "QSeries":
        """The series with the given (index, int value) terms and zeros
        elsewhere; each index must lie in [0, prec) and occur once."""
        if prec < 0:
            raise ValueError("prec must be nonnegative")
        coeffs = [0] * prec
        seen = set()
        for i, c in pairs:
            if not 0 <= i < prec:
                raise ValueError("index %d outside [0, %d)" % (i, prec))
            if i in seen:
                raise ValueError("index %d given twice" % i)
            seen.add(i)
            _require_int(c)
            if c:
                coeffs[i] = c
        return cls(offset, coeffs)

    # -- inspection --------------------------------------------------------

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    @property
    def nnz(self) -> int:
        return len(self.coeffs) - self.coeffs.count(0)

    @property
    def density(self) -> str:
        """The product loop this series selects: "sparse" while
        nnz * SPARSE_FACTOR <= prec, else "dense"."""
        return "sparse" if self.nnz * SPARSE_FACTOR <= self.prec else "dense"

    def pairs(self):
        """Iterate nonzero (index, value) in increasing index order."""
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

def add(a: QSeries, b: QSeries) -> QSeries:
    """Coefficientwise sum on the common grid.

    Offsets must differ by an integer; the result window is the
    intersection of what both operands guarantee.
    """
    check_common_grid(a.offset, b.offset)
    if b.offset < a.offset:
        a, b = b, a
    shift = int(b.offset - a.offset)
    out = a.coeffs[:shift + b.prec]
    out[shift:] = map(operator.add, out[shift:], b.coeffs)
    return QSeries(a.offset, out)


def check_common_grid(a_offset: Fraction, b_offset: Fraction):
    """Refuse a sum of series whose offsets differ by a non-integer."""
    if (a_offset - b_offset).denominator != 1:
        raise ValueError("offsets %s and %s are not on a common grid"
                         % (a_offset, b_offset))


def scalar_mul(a: QSeries, r: int) -> QSeries:
    """Multiply every coefficient by the int r."""
    _require_int(r)
    return QSeries(a.offset, list(map(operator.mul, a.coeffs, repeat(r))))


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Truncated Cauchy product; offsets add, prec = min(prec_a, prec_b).

    The operand with fewer nonzeros is the row source.  When both are
    sparse, the pair loop multiplies nonzero terms only; when both are
    dense, one exact Decimal product of slot-packed lists (_ntt) does the
    work; otherwise each nonzero row term adds its multiple of the other
    operand, shifted, as one big-int shift-add on that operand packed
    into one int (_row_pass): O(prec * s / d) limb operations for s row
    terms and the other operand's nonzeros on multiples of d.
    """
    offset = a.offset + b.offset
    prec = min(a.prec, b.prec)
    na, nb = a.nnz, b.nnz
    if na > nb:
        a, b, na, nb = b, a, nb, na
    sparse_a = na * SPARSE_FACTOR <= a.prec
    sparse_b = nb * SPARSE_FACTOR <= b.prec
    if not (sparse_a or sparse_b):
        ac = a.coeffs[:prec]
        return QSeries(offset, _ntt(ac, ac if b is a else b.coeffs[:prec]))
    if not (sparse_a and sparse_b):
        # b's nonzeros below prec sit on multiples of d, so a row term at
        # i reaches only out[i::d]; d = 1 is every slot.
        rows = list(takewhile(lambda t: t[0] < prec, a.pairs()))
        return QSeries(offset, _row_pass(rows, b.coeffs,
                                         _stride(b.coeffs, prec), prec))
    out = [0] * prec
    bp = list(b.pairs())
    for i, c in a.pairs():
        lim = prec - i
        if lim <= 0:
            break
        for j, d in bp:
            if j >= lim:
                break
            out[i + j] += c * d
    return QSeries(offset, out)


def _stride(coeffs: list, prec: int) -> int:
    """The gcd of the nonzero indices below prec, read only until it
    reaches 1; 1 when no index but 0 is nonzero."""
    d = 0
    for j in compress(range(prec), coeffs):
        d = gcd(d, j)
        if d == 1:
            break
    return d or 1


def _row_pass(rows: list, coeffs: list, d: int, prec: int) -> list:
    """The prec coefficients of sum c q^i b(q) over the row terms (i, c),
    each with i < prec, where b's coefficients are coeffs and those below
    prec sit on multiples of d.

    A row term at i = r + d k adds c coeffs[d t] to out[r + d (k + t)],
    so each residue r mod d is a sum of shifted multiples of b[::d].
    b[::d] is packed once into one int P = sum_t coeffs[d t] 256^(w t),
    and a residue's sum is M in every slot plus c (P << 8 w k) per row
    term: one shift-add, run in C over the whole list.  With
    B = max|b| + 1 and M = B sum|c|, every slot of the sum lies in
    (0, 2M), so slots of w bytes, enough for 2M, never carry into each
    other, and the low n slots are the low 8 w n bits whatever the slots
    above them hold.  So a term at k needs only P's low n - k slots:
    the sum is then exact modulo 2^(8 w n), which is all that is read.
    P is packed from the slots coeffs[d t] + B, which lie in (0, 2B) and
    so fit too, and the bias is then taken off the whole int at once.

    When w is at most 8 on a little-endian machine, w is rounded up to a
    machine word of 1, 2, 4 or 8 bytes: an array of words is packed in
    one pass and each residue is read back through a memoryview of its
    bytes.  Wider slots are packed and read back one bytes object each.
    """
    out = [0] * prec
    if not rows:
        return out
    bias = max(map(abs, islice(coeffs, 0, prec, d))) + 1
    m = bias * sum(abs(c) for _, c in rows)
    w = ((2 * m).bit_length() + 7) // 8
    code = _WORD.get(w) if sys.byteorder == "little" else None

    def slots(value, n):
        return int.from_bytes(value.to_bytes(w, "little") * n, "little")

    if code:
        w = array(code).itemsize
        packed = array(code, map(operator.add, islice(coeffs, 0, prec, d),
                                 repeat(bias)))
    else:
        packed = bytearray()
        for k in range(0, prec, _BLOCK * d):
            packed += b"".join([(x + bias).to_bytes(w, "little") for x in
                                coeffs[k:min(k + _BLOCK * d, prec):d]])
    p = int.from_bytes(packed, "little") - slots(bias, len(range(0, prec, d)))
    del packed
    residues = {}
    for i, c in rows:
        residues.setdefault(i % d, []).append((i // d, c))
    bits = 8 * w
    for r, terms in residues.items():
        n = len(range(r, prec, d))
        acc = slots(m, n)
        for k, c in terms:
            acc += (c * (p & ((1 << bits * (n - k)) - 1))) << (bits * k)
        buf = (acc & ((1 << bits * n) - 1)).to_bytes(w * n, "little")
        del acc
        out[r::d] = (map(operator.sub, memoryview(buf).cast(code), repeat(m))
                     if code else [int.from_bytes(buf[j:j + w], "little") - m
                                   for j in range(0, w * n, w)])
    return out


def _ntt(ac: list, bc: list) -> list:
    """Product of two int lists of equal length n, truncated to n terms,
    by one exact Decimal multiplication (libmpdec's number-theoretic
    transform); passing one list twice squares it.

    Each list is packed into fixed-width decimal slots with its own
    bias, B_a = max|a| + 1 and B_b = max|b| + 1, which makes every slot
    positive.  Slot k of the product is then
    v_k = c_k + B_b S_a(k) + B_a S_b(k) + B_a B_b (k + 1), where S is a
    prefix sum; it lies in [0, 4 n B_a B_b), so slots of that many digits
    never carry into each other.  The context traps Inexact and Rounded:
    a product that did not fit would raise, never round.
    """
    n = len(ac)
    if not n:
        return []
    ba = max(map(abs, ac)) + 1
    bb = ba if bc is ac else max(map(abs, bc)) + 1
    w = Decimal(4 * n * ba * bb).adjusted() + 1
    if 0 < _int_str_limit() < w:
        # CPython refuses int <-> str this wide; Decimal does not.
        slot, read = ((lambda x: str(Decimal(x)).zfill(w)),
                      (lambda digits: int(Decimal(digits))))
    else:
        slot, read = ("%%0%dd" % w).__mod__, int

    def pack(coeffs, bias):
        # Slot n-1 leads the digit string; blocks keep the per-slot
        # strings of only _BLOCK slots alive at a time.
        return Decimal("".join(["".join([slot(c + bias) for c in
                                         reversed(coeffs[k:k + _BLOCK])])
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
    bab = ba * bb
    return [read(s[k - w:k]) - bb * sa - ba * sb - bab * i
            for i, k, sa, sb in zip(count(1), range(top, top - w * n, -w),
                                    accumulate(ac), accumulate(bc))]


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
    i.  On an integer offset (b = 1) this is q d/dq itself."""
    off = a.offset
    num, den = off.numerator, off.denominator
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
    return QSeries(0, [0] * n0 + a.coeffs[m * n0 - off:m * prec - off:m])


def u_mul(m: int, a: QSeries, b: QSeries) -> QSeries:
    """u_op(m, mul(a, b)), built from the m-sections of the operands:

        U_m(A B) = sum_{r=0}^{m-1} U_m(q^-r A) U_m(q^r B).

    a's offset is first moved onto b (a shift is a new offset on the same
    list), so each product runs on prec // m positions and only the
    exponents U_m keeps are ever computed.  A pair with an all-zero
    section contributes nothing and is skipped; b's section is built only
    when a's is nonzero.  Offset, prec and coefficients equal those of
    u_op(m, mul(a, b)).
    """
    offset = a.offset + b.offset
    check_u_grid(m, offset)
    if offset <= -m:
        # Then a section of b has terms at negative n, which u_op cuts
        # although the sum still needs them; take the product whole.
        return u_op(m, mul(a, b))

    def section_product(r):
        x = u_op(m, QSeries(-r, a.coeffs))
        if not any(x.coeffs):
            return None
        y = u_op(m, QSeries(offset + r, b.coeffs))
        return mul(x, y) if any(y.coeffs) else None

    products = (s for s in map(section_product, range(m)) if s is not None)
    first = next(products, None)
    if first is None:
        # With offset > -m, every section of a has prec_a // m positions
        # and every section of b has prec_b // m.
        return QSeries(0, [0] * (min(a.prec, b.prec) // m))
    return reduce(add, products, first)


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
