"""Exact truncated power series in q.

A QSeries holds coefficients for the exponents offset + i, 0 <= i < prec,
where the offset is a rational with denominator dividing 24 (the grid on
which eta quotients live).  Coefficients are exact: Python ints, with
Fraction entries appearing only after non-integer scalar multiples.

Reading at or past offset + prec raises PrecisionError; exponents below
the window, or off the integer grid, read as exact zeros.  Every
operation records the precision that is guaranteed valid for its result,
so truncation never silently produces wrong tails.

Two storage layouts are used: a dense coefficient list, or a sorted list
of (index, value) pairs when nonzero terms are sparse (theta series and
pentagonal-number products carry O(sqrt(prec)) terms).  A series is kept
sparse while nnz * 16 <= prec.  Products dispatch on layout; with one
operand holding s nonzero terms the cost is O(prec * s) coefficient
operations, and dense*dense falls back to row-sliced schoolbook
convolution.  No floating point, no FFT.

QSeries values are treated as immutable: every operation returns a new
object and never mutates its operands.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import DirichletCharacter

# Keep the pair layout while nnz * SPARSE_FACTOR <= prec.
SPARSE_FACTOR = 16


class PrecisionError(ValueError):
    """A coefficient was requested at or beyond the valid window."""


def _as_offset(value) -> Fraction:
    off = Fraction(value)
    if 24 % off.denominator:
        raise ValueError("offset denominator must divide 24, got %s" % off)
    return off


def _normalize(value):
    # Collapse integral Fractions back to int so later arithmetic stays fast.
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


class QSeries:
    """Truncated exact power series sum_i c_i q^(offset + i)."""

    __slots__ = ("offset", "prec", "_dense", "_sparse")

    def __init__(self, offset, prec: int, *, dense=None, sparse=None):
        if prec < 0:
            raise ValueError("prec must be nonnegative")
        if (dense is None) == (sparse is None):
            raise ValueError("exactly one of dense/sparse storage expected")
        self.offset = _as_offset(offset)
        self.prec = prec
        if dense is not None:
            if len(dense) != prec:
                raise ValueError("dense storage must have length prec")
            self._dense = dense
            self._sparse = None
        else:
            last = -1
            for i, c in sparse:
                if not 0 <= i < prec:
                    raise ValueError("sparse index %d outside [0, %d)" % (i, prec))
                if i <= last:
                    raise ValueError("sparse indices must be strictly increasing")
                if c == 0:
                    raise ValueError("sparse storage must omit zero values")
                last = i
            self._dense = None
            self._sparse = sparse

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_dense(cls, coeffs, offset=0) -> "QSeries":
        return cls(offset, len(coeffs), dense=list(coeffs))

    @classmethod
    def from_pairs(cls, pairs, prec: int, offset=0) -> "QSeries":
        pairs = sorted((i, c) for i, c in pairs if c != 0)
        return _choose_layout(pairs, prec, _as_offset(offset))

    @classmethod
    def zero(cls, prec: int, offset=0) -> "QSeries":
        return cls(offset, prec, sparse=[])

    @classmethod
    def one(cls, prec: int) -> "QSeries":
        return cls(0, prec, sparse=[(0, 1)])

    # -- inspection --------------------------------------------------------

    @property
    def density(self) -> str:
        return "dense" if self._dense is not None else "sparse"

    @property
    def nnz(self) -> int:
        if self._sparse is not None:
            return len(self._sparse)
        return sum(1 for c in self._dense if c)

    def pairs(self):
        """Iterate nonzero (index, value) in increasing index order."""
        if self._sparse is not None:
            yield from self._sparse
        else:
            for i, c in enumerate(self._dense):
                if c:
                    yield i, c

    def dense_list(self) -> list:
        """Coefficients as a fresh dense list of length prec."""
        if self._dense is not None:
            return list(self._dense)
        out = [0] * self.prec
        for i, c in self._sparse:
            out[i] = c
        return out

    def to_dense(self) -> "QSeries":
        return QSeries(self.offset, self.prec, dense=self.dense_list())

    def to_sparse(self) -> "QSeries":
        return QSeries(self.offset, self.prec, sparse=list(self.pairs()))

    def coefficient(self, exponent):
        """Exact coefficient of q^exponent.

        Raises PrecisionError past the valid window; exponents below the
        window or off the grid are exact zeros.
        """
        rel = Fraction(exponent) - self.offset
        if rel.denominator != 1:
            if Fraction(exponent) >= self.offset + self.prec:
                raise PrecisionError("exponent %s beyond precision" % (exponent,))
            return 0
        i = int(rel)
        if i < 0:
            return 0
        if i >= self.prec:
            raise PrecisionError("exponent %s beyond precision" % (exponent,))
        if self._dense is not None:
            return self._dense[i]
        for j, c in self._sparse:
            if j == i:
                return c
            if j > i:
                break
        return 0

    def is_integral(self) -> bool:
        """True when every stored coefficient is an integer."""
        return all(not isinstance(c, Fraction) or c.denominator == 1
                   for _, c in self.pairs())

    def truncate(self, prec: int) -> "QSeries":
        """Restrict the window to the first prec grid positions."""
        if prec > self.prec:
            raise PrecisionError("cannot extend precision from %d to %d"
                                 % (self.prec, prec))
        if self._dense is not None:
            return QSeries(self.offset, prec, dense=self._dense[:prec])
        kept = [(i, c) for i, c in self._sparse if i < prec]
        return _choose_layout(kept, prec, self.offset)

    # -- operators ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.offset == other.offset and self.prec == other.prec
                and list(self.pairs()) == list(other.pairs()))

    def __hash__(self):
        return hash((self.offset, self.prec, tuple(self.pairs())))

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(other))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return scalar_mul(self, other)
        return mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return scalar_mul(self, other)
        return NotImplemented

    def __pow__(self, e):
        return pow_(self, e)

    def __repr__(self):
        return "QSeries(offset=%s, prec=%d, nnz=%d, %s)" % (
            self.offset, self.prec, self.nnz, self.density)

    def __str__(self):
        terms = []
        for i, c in self.pairs():
            if len(terms) == 8:
                terms.append("...")
                break
            e = self.offset + i
            terms.append("%s*q^%s" % (c, e))
        return " + ".join(terms) if terms else "0"


def _choose_layout(pairs, prec: int, offset) -> QSeries:
    if len(pairs) * SPARSE_FACTOR <= prec:
        return QSeries(offset, prec, sparse=pairs)
    out = [0] * prec
    for i, c in pairs:
        out[i] = c
    return QSeries(offset, prec, dense=out)


# -- ring operations -------------------------------------------------------

def add(a: QSeries, b: QSeries) -> QSeries:
    """Coefficientwise sum on the common grid.

    Offsets must differ by an integer; the result window is the
    intersection of what both operands guarantee.
    """
    if (a.offset - b.offset).denominator != 1:
        raise ValueError("offsets %s and %s are not on a common grid"
                         % (a.offset, b.offset))
    if b.offset < a.offset:
        a, b = b, a
    shift = int(b.offset - a.offset)
    end = min(a.offset + a.prec, b.offset + b.prec)
    prec = int(end - a.offset)
    if a._sparse is not None and b._sparse is not None:
        acc = {}
        for i, c in a._sparse:
            if i < prec:
                acc[i] = c
        for j, c in b._sparse:
            k = j + shift
            if k < prec:
                acc[k] = acc.get(k, 0) + c
        pairs = sorted((i, c) for i, c in acc.items() if c != 0)
        return _choose_layout(pairs, prec, a.offset)
    out = [0] * prec
    for i, c in a.pairs():
        if i < prec:
            out[i] = c
    for j, c in b.pairs():
        k = j + shift
        if k < prec:
            out[k] += c
    return QSeries(a.offset, prec, dense=out)


def neg(a: QSeries) -> QSeries:
    if a._sparse is not None:
        return QSeries(a.offset, a.prec, sparse=[(i, -c) for i, c in a._sparse])
    return QSeries(a.offset, a.prec, dense=[-c for c in a._dense])


def scalar_mul(a: QSeries, r) -> QSeries:
    """Multiply every coefficient by the rational r, keeping exact values.

    Integral results stay ints; a non-dividing denominator produces
    Fraction entries.
    """
    if isinstance(r, int):
        num, den = r, 1
    else:
        r = Fraction(r)
        num, den = r.numerator, r.denominator

    def scale(c):
        if isinstance(c, int) and den != 1:
            q, rem = divmod(c * num, den)
            return q if rem == 0 else Fraction(c * num, den)
        return _normalize(c * num if den == 1 else c * Fraction(num, den))

    if num == 0:
        return QSeries.zero(a.prec, a.offset)
    if a._sparse is not None:
        return QSeries(a.offset, a.prec,
                       sparse=[(i, scale(c)) for i, c in a._sparse])
    return QSeries(a.offset, a.prec, dense=[scale(c) if c else 0
                                            for c in a._dense])


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Truncated Cauchy product; offsets add, prec = min(prec_a, prec_b)."""
    offset = a.offset + b.offset
    prec = min(a.prec, b.prec)
    if a._sparse is not None and b._sparse is not None:
        if len(a._sparse) > len(b._sparse):
            a, b = b, a
        acc = {}
        bp = b._sparse
        for i, c in a._sparse:
            lim = prec - i
            if lim <= 0:
                break
            for j, d in bp:
                if j >= lim:
                    break
                k = i + j
                if k in acc:
                    acc[k] += c * d
                else:
                    acc[k] = c * d
        pairs = sorted((k, v) for k, v in acc.items() if v != 0)
        return _choose_layout(pairs, prec, offset)
    if a._sparse is None and b._sparse is None:
        return QSeries(offset, prec,
                       dense=_convolve_dense(a._dense, b._dense, prec))
    if a._sparse is None:
        a, b = b, a
    # a sparse, b dense: one shifted fused multiply-add pass per term.
    out = [0] * prec
    bd = b._dense
    for i, c in a._sparse:
        if i >= prec:
            break
        seg = bd[:prec - i]
        out[i:] = [x + c * y for x, y in zip(out[i:], seg)]
    return QSeries(offset, prec, dense=out)


def _convolve_dense(A, B, prec: int):
    # Schoolbook convolution, sliced one source row at a time so each row
    # is a single fused pass; zero rows are skipped.
    out = [0] * prec
    for i in range(min(len(A), prec)):
        x = A[i]
        if not x:
            continue
        seg = B[:prec - i]
        out[i:] = [o + x * y for o, y in zip(out[i:], seg)]
    return out


def pow_(a: QSeries, e: int) -> QSeries:
    """Repeated left-to-right multiplication; exact."""
    if e < 1:
        raise ValueError("exponent must be a positive integer")
    result = a
    for _ in range(e - 1):
        result = mul(result, a)
    return result


def derive(a: QSeries) -> QSeries:
    """q d/dq: multiply the coefficient at exponent e by e."""
    off = a.offset
    if off.denominator == 1:
        o = int(off)
        factor = lambda i: o + i
    else:
        factor = lambda i: off + i
    if a._sparse is not None:
        pairs = []
        for i, c in a._sparse:
            v = _normalize(c * factor(i))
            if v != 0:
                pairs.append((i, v))
        return QSeries(off, a.prec, sparse=pairs)
    return QSeries(off, a.prec,
                   dense=[_normalize(c * factor(i)) if c else 0
                          for i, c in enumerate(a._dense)])


def dilate(m: int, a: QSeries, max_prec: int | None = None) -> QSeries:
    """Substitute q -> q^m: exponent e maps to m*e, prec scales to m*prec."""
    if m < 1:
        raise ValueError("dilation index must be a positive integer")
    if m == 1:
        return a if max_prec is None else a.truncate(min(max_prec, a.prec))
    offset = a.offset * m
    prec = a.prec * m
    if max_prec is not None:
        prec = min(prec, max_prec)
    if a._sparse is not None:
        pairs = [(i * m, c) for i, c in a._sparse if i * m < prec]
        return _choose_layout(pairs, prec, offset)
    out = [0] * prec
    src = a._dense[:(prec + m - 1) // m]
    out[::m] = src + [0] * (len(out[::m]) - len(src))
    return QSeries(offset, prec, dense=out)


def u_op(m: int, a: QSeries) -> QSeries:
    """Index extraction: coefficient of q^n in the result is the
    coefficient of q^(m n) in a.  Requires an integer offset; the result
    is reported on offset 0 with prec = prec_a // m."""
    if m < 1:
        raise ValueError("operator index must be a positive integer")
    if a.offset.denominator != 1:
        raise ValueError("U_%d needs an integer exponent grid, offset is %s"
                         % (m, a.offset))
    off = int(a.offset)
    prec = a.prec // m
    if a._sparse is not None:
        pairs = []
        for i, c in a._sparse:
            e = off + i
            if e % m == 0 and e // m < prec:
                pairs.append((e // m, c))
        return _choose_layout(pairs, prec, 0)
    i0 = (-off) % m
    n0 = (off + i0) // m
    taken = a._dense[i0::m]
    out = [0] * n0 + taken
    out = (out + [0] * prec)[:prec]
    return QSeries(0, prec, dense=out)


# -- generators --------------------------------------------------------------

def euler(prec: int) -> QSeries:
    """prod_{n>=1} (1 - q^n) truncated, via the pentagonal number sum
    sum_j (-1)^j q^(j(3j-1)/2); O(sqrt(prec)) terms."""
    if prec < 1:
        raise ValueError("prec must be positive")
    pairs = [(0, 1)]
    j = 1
    while True:
        e1 = j * (3 * j - 1) // 2
        if e1 >= prec:
            break
        s = -1 if j % 2 else 1
        pairs.append((e1, s))
        e2 = j * (3 * j + 1) // 2
        if e2 < prec:
            pairs.append((e2, s))
        j += 1
    return _choose_layout(pairs, prec, Fraction(0))


def eta(m: int, prec: int) -> QSeries:
    """q^(m/24) prod (1 - q^(m n)): the pentagonal sum at stride m with a
    fractional offset of m/24."""
    if m < 1:
        raise ValueError("dilation index must be a positive integer")
    if prec < 1:
        raise ValueError("prec must be positive")
    pairs = [(0, 1)]
    j = 1
    while True:
        e1 = m * (j * (3 * j - 1) // 2)
        if e1 >= prec:
            break
        s = -1 if j % 2 else 1
        pairs.append((e1, s))
        e2 = m * (j * (3 * j + 1) // 2)
        if e2 < prec:
            pairs.append((e2, s))
        j += 1
    return _choose_layout(pairs, prec, Fraction(m, 24))


def theta(m: int, prec: int) -> QSeries:
    """sum_{n in Z} q^(m n^2): 1 + 2 q^m + 2 q^(4m) + ..."""
    if m < 1:
        raise ValueError("dilation index must be a positive integer")
    if prec < 1:
        raise ValueError("prec must be positive")
    pairs = [(0, 1)]
    n = 1
    while m * n * n < prec:
        pairs.append((m * n * n, 2))
        n += 1
    return _choose_layout(pairs, prec, Fraction(0))


def theta_psi(psi: DirichletCharacter, m: int, prec: int) -> QSeries:
    """Weighted theta series sum_{n in Z} psi(n) n q^(m n^2) for an odd
    primitive real character psi; the +-n terms double."""
    if m < 1:
        raise ValueError("dilation index must be a positive integer")
    if prec < 1:
        raise ValueError("prec must be positive")
    if not psi.is_odd:
        raise ValueError("theta_psi needs an odd character "
                         "(an even one sums to zero)")
    if not psi.is_primitive:
        raise ValueError("theta_psi needs a primitive character")
    pairs = []
    n = 1
    while m * n * n < prec:
        v = psi(n)
        if v:
            pairs.append((m * n * n, 2 * v * n))
        n += 1
    return _choose_layout(pairs, prec, Fraction(0))


def eisenstein_e4(prec: int) -> QSeries:
    """Weight-4 Eisenstein series 1 + 240 sum sigma_3(n) q^n, with the
    divisor powers filled by a sieve."""
    if prec < 1:
        raise ValueError("prec must be positive")
    sig = [0] * prec
    for d in range(1, prec):
        dc = d * d * d
        for mult in range(d, prec, d):
            sig[mult] += dc
    out = [240 * s for s in sig]
    out[0] = 1
    return QSeries(0, prec, dense=out)

