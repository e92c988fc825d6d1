import random
import sys
import tracemalloc
from array import array
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsigns import qseries as qs
from qsigns.arith import DirichletCharacter, kronecker
from qsigns.forms import integer_table
from qsigns.formspec import evaluate, parse_formspec
from qsigns.qseries import SPARSE_FACTOR, QSeries

from oracles import (dilated, euler_product_literal, poly_mul, r2_list,
                     sigma_k, tau_list)


def from_list(coeffs, offset=0):
    coeffs = list(coeffs)
    return QSeries.from_pairs(enumerate(coeffs), len(coeffs), offset)


def at(s, e):
    """The coefficient of q^e in s (integer offset), zero below the window."""
    i = e - int(s.offset)
    return s.coeffs[i] if i >= 0 else 0


def series_window(s):
    """(offset, dense coefficients) for comparisons."""
    return s.offset, s.coeffs


def random_series(rng, prec, offset=0):
    if rng.random() < 0.5:
        nnz = rng.randint(0, max(1, prec // 20))
        idx = sorted(rng.sample(range(prec), min(nnz, prec)))
        pairs = [(i, rng.choice([-3, -2, -1, 1, 2, 3])) for i in idx]
        return QSeries.from_pairs(pairs, prec, offset)
    return from_list([rng.randint(-9, 9) for _ in range(prec)], offset)


class TestAdd:
    def test_cancellation(self):
        a = QSeries.from_pairs([(1, 1), (2, 1)], 4)
        b = QSeries.from_pairs([(1, -1)], 4)
        assert list(qs.lincomb([(1, a), (1, b)]).pairs()) == [(2, 1)]

    def test_truncation_dominates(self):
        a = from_list([1, 2])
        b = QSeries.from_pairs([(3, 1)], 4)
        out = qs.lincomb([(1, a), (1, b)])
        assert out.prec == 2 and out.coeffs == [1, 2]

    def test_common_fractional_offset(self):
        a = QSeries.from_pairs([(0, 1)], 3, offset=Fraction(1, 24))
        b = QSeries.from_pairs([(1, 1)], 3, offset=Fraction(1, 24))
        out = qs.lincomb([(1, a), (1, b)])
        assert out.offset == Fraction(1, 24)
        assert list(out.pairs()) == [(0, 1), (1, 1)]

    def test_offset_shift(self):
        a = from_list([1, 1, 1, 1], offset=0)
        b = from_list([5, 5], offset=2)
        out = qs.lincomb([(1, a), (1, b)])
        assert out.offset == 0 and out.coeffs == [1, 1, 6, 6]

    def test_incompatible_grids_rejected(self):
        with pytest.raises(ValueError):
            qs.lincomb([(1, qs.eta(1, 5)), (1, qs.theta(1, 5))])


class TestMul:
    def test_telescoping(self):
        a = from_list([1, -1, 0, 0])
        b = from_list([1, 1, 1, 1])
        assert qs.mul(a, b).coeffs == [1, 0, 0, 0]

    def test_theta_squared_counts_lattice_points(self):
        got = qs.mul(qs.theta(1, 5), qs.theta(1, 5))
        assert got.coeffs == r2_list(5)

    def test_euler_squared(self):
        got = qs.mul(qs.eta(1, 6), qs.eta(1, 6))
        want = poly_mul(euler_product_literal(6), euler_product_literal(6), 6)
        assert got.offset == Fraction(1, 12)
        assert got.coeffs == want == [1, -2, -1, 2, 1, 2]

    def test_offsets_add(self):
        out = qs.mul(qs.eta(2, 30), qs.eta(22, 30))
        assert out.offset == 1

    def test_dense_sparse_equals_schoolbook(self):
        rng = random.Random(2024)
        for prec in (17, 64, 257, 512):
            sparse = random_series(rng, prec)
            dense = from_list([rng.randint(-9, 9) for _ in range(prec)])
            lhs = qs.mul(sparse, dense)
            rhs = qs.mul(dense, sparse)   # the same row source either way
            assert series_window(lhs) == series_window(rhs)
            want = poly_mul(sparse.coeffs, dense.coeffs, prec)
            assert lhs.coeffs == want

    def test_sparse_sparse_equals_schoolbook(self):
        rng = random.Random(99)
        for prec in (32, 128):
            a, b = (QSeries.from_pairs(
                        [(i, rng.choice([-2, -1, 1, 2]))
                         for i in rng.sample(range(prec), prec // 16)], prec)
                    for _ in range(2))
            assert a.density == b.density == "sparse"
            got = qs.mul(a, b)
            want = poly_mul(a.coeffs, b.coeffs, prec)
            assert got.coeffs == want

    @pytest.mark.parametrize("few_a, few_b", [(True, True), (True, False),
                                              (False, False)])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_both_loops_match_oracle(self, few_a, few_b, data):
        a = data.draw(_series_with(few_a))
        b = data.draw(_series_with(few_b))
        assert a.density == ("sparse" if few_a else "dense")
        assert b.density == ("sparse" if few_b else "dense")
        prec = min(a.prec, b.prec)
        want = poly_mul(a.coeffs, b.coeffs, prec)
        for got in (qs.mul(a, b), qs.mul(b, a)):
            assert got.offset == a.offset + b.offset
            assert got.coeffs == want


    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_strided_operand_matches_oracle(self, d, data):
        # A dense operand on the multiples of d (as E4(4) and eta(2)eta(22)
        # are), or on them but for one term; row terms off those multiples.
        prec = data.draw(st.integers(16, 80))
        dense_prec = prec + data.draw(st.integers(0, 8))
        terms = dict.fromkeys(range(0, dense_prec, d))
        if data.draw(st.booleans()):
            terms[data.draw(st.integers(1, dense_prec - 1)
                            .filter(lambda j: j % d))] = None
        dense = QSeries.from_pairs(
            [(j, data.draw(_NONZERO)) for j in terms], dense_prec,
            data.draw(st.sampled_from([0, 1, Fraction(1, 24)])))
        rows = data.draw(st.lists(
            st.integers(1, prec - 1).filter(lambda i: i % d), min_size=1,
            max_size=prec // SPARSE_FACTOR, unique=True))
        sparse = QSeries.from_pairs(
            [(i, data.draw(_NONZERO)) for i in rows], prec)
        assert dense.density == "dense" and sparse.density == "sparse"
        want = poly_mul(sparse.coeffs, dense.coeffs, prec)
        for got in (qs.mul(sparse, dense), qs.mul(dense, sparse)):
            assert got.offset == dense.offset
            assert got.coeffs == want

    def test_stride_probe(self):
        assert qs._stride(qs.eisenstein_e4(4, 200).coeffs, 200) == 4
        assert qs._stride(qs.mul(qs.eta(2, 99), qs.eta(22, 99)).coeffs,
                          99) == 2
        # Only indices below prec count.
        assert qs._stride([0, 0, 5, 0, 7, 3], 5) == 2
        assert qs._stride([1, 0, 0], 3) == 1
        assert qs._stride([], 0) == 1

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_stride_is_the_gcd_of_the_nonzero_indices(self, data):
        # _stride reads d0 off the first two nonzero indices and takes its
        # gcd with the residues mod d0 that hold a nonzero term; it must
        # equal the gcd of every nonzero index below prec, whatever lies
        # at 0 or past prec.
        prec = data.draw(st.integers(0, 120))
        d = data.draw(st.integers(1, 12))
        multiples = data.draw(st.lists(st.integers(0, 130 // d), max_size=12))
        others = data.draw(st.lists(st.integers(0, 130), max_size=2))
        coeffs = [0] * 131
        for j in [m * d for m in multiples] + others:
            coeffs[j] = data.draw(_NONZERO)
        want = 0
        for j in range(1, prec):
            if coeffs[j]:
                want = gcd(want, j)
        assert qs._stride(coeffs, prec) == (want or 1)

    def test_stride_below_the_first_two_indices(self):
        # The first two nonzero indices give 12; the third cuts it to 4.
        coeffs = [0] * 40
        coeffs[0] = coeffs[12] = coeffs[24] = coeffs[28] = 1
        assert qs._stride(coeffs, 40) == 4
        assert qs._stride(coeffs, 28) == 12

    def test_stride_probe_stops_at_one(self):
        # A stride-1 operand is read only up to its second nonzero term.
        def coeffs():
            yield from (0, 3, 0, 4)
            raise AssertionError("read past the point where the gcd is 1")
        assert qs._stride(coeffs(), 10) == 1


class TestUMul:
    @pytest.mark.parametrize("m", range(1, 6))
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_u_op_of_product_and_oracle(self, m, data):
        a, b = data.draw(_u_mul_operands(m))
        got = qs.u_mul(m, a, b)
        want = qs.u_op(m, qs.mul(a, b))
        assert (got.offset, got.prec, got.coeffs) == \
            (want.offset, want.prec, want.coeffs)
        # q^n of the image is q^(m n) of the schoolbook product.
        off = int(a.offset + b.offset)
        prod = poly_mul(a.coeffs, b.coeffs, min(a.prec, b.prec))
        assert got.coeffs == [prod[m * n - off] if 0 <= m * n - off < len(prod)
                              else 0 for n in range(got.prec)]

    @pytest.mark.parametrize("m", range(1, 6))
    def test_eta1_eta23(self, m):
        a, b = qs.eta(1, 300), qs.eta(23, 250)
        got, want = qs.u_mul(m, a, b), qs.u_op(m, qs.mul(a, b))
        assert got.offset == want.offset == 0
        assert got.coeffs == want.coeffs and got.nnz > 0

    def test_refuses_what_u_op_refuses(self):
        with pytest.raises(ValueError,
                           match="U_4 needs an integer exponent grid, "
                                 "offset is 1/24"):
            qs.u_mul(4, qs.eta(1, 30), qs.theta(1, 30))
        with pytest.raises(ValueError, match="positive integer"):
            qs.u_mul(0, qs.theta(1, 30), qs.theta(1, 30))


@st.composite
def _u_mul_operands(draw, m):
    """Two series whose offsets sum to an integer (both integers,
    negative ones included, or fractional as for eta(1) eta(23)), of
    unequal precs, each zero on a random set of residues mod m."""
    if draw(st.booleans()):
        oa, ob = draw(st.integers(-12, 12)), draw(st.integers(-12, 12))
    else:
        k = Fraction(draw(st.integers(1, 23)), 24)
        oa, ob = k + draw(st.integers(-3, 3)), -k + draw(st.integers(-3, 3))
    return _sectioned(draw, m, oa), _sectioned(draw, m, ob)


def _sectioned(draw, m, offset):
    prec = draw(st.integers(0, 40))
    keep = draw(st.sets(st.integers(0, m - 1)))
    vals = draw(st.lists(st.integers(-9, 9), min_size=prec, max_size=prec))
    return QSeries.from_pairs([(i, v) for i, v in enumerate(vals)
                               if i % m in keep], prec, offset)


_NONZERO = st.integers(-10**6, 10**6).filter(bool)


@st.composite
def _series_with(draw, few):
    """A series on a random offset whose nonzero count puts it on the
    sparse side of SPARSE_FACTOR (few) or the dense side."""
    prec = draw(st.integers(16, 64))
    cut = prec // SPARSE_FACTOR
    k = draw(st.integers(0, cut) if few else st.integers(cut + 1, prec))
    idx = draw(st.lists(st.integers(0, prec - 1), min_size=k, max_size=k,
                        unique=True))
    vals = draw(st.lists(_NONZERO, min_size=k, max_size=k))
    offset = draw(st.sampled_from([0, 1, Fraction(1, 24), Fraction(1, 2)]))
    return QSeries.from_pairs(zip(idx, vals), prec, offset)


# Signed ints up to 2^256, and +-(10^k - 1) and +-10^k: the largest
# value of one decimal length and the smallest of the next, where the
# bias max|a| + 1 and with it the slot width steps.
_EDGES = st.integers(0, 80).flatmap(lambda k: st.sampled_from(
    [10**k - 1, 10**k, 1 - 10**k, -10**k]))
_WIDE = st.one_of(st.integers(-2**256, 2**256), _EDGES)


@st.composite
def _dense_ints(draw):
    """An int list of length 1..64: wide signed values, all one
    sign, alternating signs, one slot-boundary value throughout (every
    product coefficient then sits at its largest possible magnitude),
    or any of these with its upper part zero."""
    prec = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["wide", "negative", "positive",
                                 "alternating", "extreme"]))
    if kind == "extreme":
        xs = [draw(_EDGES.filter(bool))] * prec
    elif kind == "alternating":
        xs = [(-1) ** i * x for i, x in enumerate(draw(st.lists(
            st.integers(0, 2**256), min_size=prec, max_size=prec)))]
    else:
        values = {"wide": _WIDE,
                  "negative": st.integers(-2**256, -1),
                  "positive": st.integers(1, 2**256)}[kind]
        xs = draw(st.lists(values, min_size=prec, max_size=prec))
    if draw(st.booleans()):
        cut = draw(st.integers(0, prec - 1))
        xs[prec - cut:] = [0] * cut
    return xs


class TestNtt:
    @given(xs=_dense_ints(), ys=_dense_ints(),
           offset=st.sampled_from([0, 1, Fraction(1, 24)]))
    @settings(max_examples=300, deadline=None)
    def test_dense_ints_match_oracle(self, xs, ys, offset):
        # Every product is sent to _ntt, whatever _plan would pick.
        a, b = from_list(xs, offset), from_list(ys)
        want = poly_mul(xs, ys, min(len(xs), len(ys)))
        with mock.patch.object(qs, "_ntt", wraps=qs._ntt) as spy, \
                mock.patch.object(qs, "_plan", return_value=("ntt", 1)):
            for got in (qs.mul(a, b), qs.mul(b, a)):
                assert got.offset == offset
                assert got.coeffs == want
            assert qs.mul(a, a).coeffs == poly_mul(xs, xs, len(xs))
            assert spy.call_count == 3
            # the squaring passes one list twice
            assert spy.call_args.args[0] is spy.call_args.args[1]

    @given(xs=_dense_ints(), ys=_dense_ints())
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_oracle(self, xs, ys):
        # The kernel alone, on lists of equal length that mul would not
        # all send to it: n = 1, zeros, upper parts zero.
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        assert qs._ntt(xs, ys) == poly_mul(xs, ys, n)
        assert qs._ntt(xs, xs) == poly_mul(xs, xs, n)

    @pytest.mark.parametrize("xs, ys", [([0], [0]), ([1], [-1]),
                                        ([9], [10]), ([-10], [-10]),
                                        ([5, 0, 0], [0, 0, 0])])
    def test_short_lists(self, xs, ys):
        assert qs._ntt(xs, ys) == poly_mul(xs, ys, len(xs))
        assert qs._ntt(xs, xs) == poly_mul(xs, xs, len(xs))
        assert qs._ntt([], []) == []

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_slots_wider_than_the_int_str_limit(self, data):
        # Coefficients above 10^4400 make each slot wider than the 4300
        # digits CPython converts between int and str by default.
        n = data.draw(st.integers(1, 3))
        big = st.integers(10**4400, 10**4410)
        xs = [data.draw(big) * data.draw(st.sampled_from([-1, 1]))
              for _ in range(n)]
        ys = [data.draw(st.one_of(big, st.integers(-9, 9)))
              for _ in range(n)]
        assert qs._ntt(xs, ys) == poly_mul(xs, ys, n)
        assert qs._ntt(xs, xs) == poly_mul(xs, xs, n)

    @pytest.mark.parametrize("n", [511, 512, 513, 1024, 1025, 1537])
    def test_lists_across_block_edges(self, n):
        # _ntt packs and reads back _BLOCK slots per call; these lengths
        # end a block exactly, one slot early or late, or after one slot
        # of a new block.  xs is signed to 2^120 with its upper part zero,
        # ys all negative.
        assert qs._BLOCK == 512
        rng = random.Random(n)
        cut = rng.randrange(1, n)
        xs = [rng.randint(-2**120, 2**120) for _ in range(cut)]
        xs += [0] * (n - cut)
        ys = [-rng.randint(1, 2**120) for _ in range(n)]
        assert qs._ntt(xs, ys) == poly_mul(xs, ys, n)
        assert qs._ntt(ys, xs) == poly_mul(ys, xs, n)
        assert qs._ntt(xs, xs) == poly_mul(xs, xs, n)
        assert qs._ntt(ys, ys) == poly_mul(ys, ys, n)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int <-> str digit limit")
    def test_decimal_slots_across_block_edges(self):
        # Under a 640-digit limit, slots of values near 10^320 are too wide
        # for int <-> str, so packing and readback go through Decimal, in
        # blocks of _BLOCK slots as the narrow path does.
        n = 521
        rng = random.Random(n)
        xs = [rng.choice([-1, 1]) * rng.randint(10**319, 10**320)
              for _ in range(n)]
        ys = [rng.randint(-10**320, 10**320) for _ in range(n - 9)] + [0] * 9
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            # A value below the slot bound 4 n B_a B_b is already too long.
            with pytest.raises(ValueError):
                str(4 * n * max(map(abs, xs)) ** 2)
            got = (qs._ntt(xs, ys), qs._ntt(xs, xs))
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == (poly_mul(xs, ys, n), poly_mul(xs, xs, n))

    @given(xs=_dense_ints(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_fraction_operand_is_refused(self, xs, data):
        # Every coefficient is an int, so no operand can leave the
        # integer kernel; a rational coefficient never becomes a series.
        i = data.draw(st.integers(0, len(xs) - 1))
        bad = list(xs)
        bad[i] = data.draw(st.fractions(-9, 9, max_denominator=12)
                           .filter(bool))
        with pytest.raises(TypeError):
            from_list(bad)
        with pytest.raises(TypeError):
            QSeries.from_pairs(enumerate(bad), len(bad))
        with pytest.raises(TypeError):
            qs.lincomb([(bad[i], from_list(xs))])


# Row-pass values: signed ints up to a few hundred bits, and the byte
# edges +-(256^k - 1) and +-256^k, where the slot width of the packed
# row pass steps.
_BYTE_EDGES = st.integers(0, 40).flatmap(lambda k: st.sampled_from(
    [256**k - 1, 256**k, 1 - 256**k, -256**k]))
_ROW_VALUES = st.one_of(st.integers(-2**300, 2**300), _BYTE_EDGES)


@st.composite
def _strided_values(draw, count):
    """count nonzero ints: wide and mixed, or the carry extremes, where
    every value is +max or -max (one sign throughout, or mixed)."""
    kind = draw(st.sampled_from(["wide", "plus", "minus", "mixed"]))
    if kind == "wide":
        return draw(st.lists(_ROW_VALUES.filter(bool), min_size=count,
                             max_size=count))
    top = abs(draw(_ROW_VALUES.filter(bool)))
    if kind == "mixed":
        return [draw(st.sampled_from([-top, top])) for _ in range(count)]
    return [top if kind == "plus" else -top] * count


@st.composite
def _row_terms(draw, prec, d, most):
    """Up to most row terms on [0, prec), all on a random set of
    residues mod d (so some residues may have none), with values of one
    sign or both."""
    keep = draw(st.sets(st.integers(0, d - 1), min_size=1))
    idx = draw(st.lists(st.integers(0, prec - 1).filter(lambda i: i % d
                                                         in keep),
                        max_size=most, unique=True))
    sign = draw(st.sampled_from([1, -1, 0]))
    vals = [abs(v) * sign if sign else v
            for v in draw(st.lists(_ROW_VALUES.filter(bool),
                                   min_size=len(idx), max_size=len(idx)))]
    return dict(zip(idx, vals))


@st.composite
def _kernel_at_width(draw, width):
    """(rows, coeffs, d, prec) for _row_pass whose slot width, the bytes
    of 2 B S with B = max|coeffs[::d] below prec| + 1 and S the sum of
    |c| over the rows, is width.  The rows share one residue mod d, so
    _row_pass's bound is B S, and |coeffs[0]| = B - 1, below prec at
    every prec, is the largest |coeffs|."""
    prec = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    r = draw(st.integers(0, min(d, prec) - 1))
    idx = draw(st.lists(st.integers(0, (prec - 1 - r) // d).map(
        lambda k: r + d * k), min_size=1, max_size=6, unique=True))
    rows = sorted(zip(idx, draw(st.lists(
        st.integers(-3, 3).filter(bool), min_size=len(idx),
        max_size=len(idx)))))
    total = sum(abs(c) for _, c in rows)
    # 256^(width - 1) <= 2 B S < 256^width, with B >= 2.
    bias = draw(st.integers(max(2, -(-256 ** (width - 1) // (2 * total))),
                            (256 ** width - 1) // (2 * total)))
    coeffs = [0] * (prec + draw(st.integers(0, 8)))
    for j in range(0, len(coeffs), d):
        coeffs[j] = draw(st.integers(1 - bias, bias - 1))
    coeffs[0] = draw(st.sampled_from([1 - bias, bias - 1]))
    return rows, coeffs, d, prec


def _big_endian_words():
    """Patch qseries' array so that every word stores its bytes
    big-endian and reads bytes as big-endian words, as on a big-endian
    machine."""
    def big_array(code, values=()):
        words = array(code, values)
        words.byteswap()
        return words

    return mock.patch.object(qs, "array", big_array)


_OFFSETS = st.sampled_from([0, 1, Fraction(1, 24), Fraction(1, 2)])


class TestRowPass:
    """The sparse x dense product: shift-adds on one slot-packed int."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, data):
        # A dense operand on the multiples of d (prec 1 to 3 included), a
        # sparse row source that may be all zero, may reach past the
        # dense operand's prec and may leave residues mod d empty.
        d = data.draw(st.integers(1, 5))
        dense_prec = data.draw(st.one_of(st.integers(1, 3),
                                         st.integers(4, 72)))
        terms = list(range(0, dense_prec, d))
        dense = QSeries.from_pairs(
            zip(terms, data.draw(_strided_values(len(terms)))), dense_prec,
            data.draw(_OFFSETS))
        sparse_prec = data.draw(st.integers(16, 160))
        rows = data.draw(_row_terms(sparse_prec, d,
                                    sparse_prec // SPARSE_FACTOR))
        sparse = QSeries.from_pairs(rows.items(), sparse_prec,
                                    data.draw(_OFFSETS))
        assert dense.density == "dense" and sparse.density == "sparse"
        prec = min(dense_prec, sparse_prec)
        want = poly_mul(sparse.coeffs, dense.coeffs, prec)
        # Every product with a row term is sent to the row pass at the
        # dense operand's stride, whatever _plan would pick.
        with mock.patch.object(qs, "_row_pass", wraps=qs._row_pass) as spy, \
                mock.patch.object(qs, "_plan", lambda a, b: (
                    "rows", qs._stride(b.coeffs, min(a.prec, b.prec)))):
            for got in (qs.mul(sparse, dense), qs.mul(dense, sparse)):
                assert got.offset == sparse.offset + dense.offset
                assert got.coeffs == want
            assert spy.call_count == 2

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_oracle(self, data):
        # The kernel alone, at every prec from 1 on, with as many row
        # terms as slots; the caller has cut them at prec.
        prec = data.draw(st.integers(1, 48))
        d = data.draw(st.integers(1, 5))
        width = prec + data.draw(st.integers(0, 8))
        terms = list(range(0, width, d))
        coeffs = [0] * width
        for j, v in zip(terms, data.draw(_strided_values(len(terms)))):
            coeffs[j] = v
        rows = sorted(data.draw(_row_terms(prec, d, prec)).items())
        row_coeffs = [0] * prec
        for i, c in rows:
            row_coeffs[i] = c
        assert qs._row_pass([(rows, coeffs)], d, prec) == \
            poly_mul(row_coeffs, coeffs, prec)

    @pytest.mark.parametrize("width", range(1, 18))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_every_slot_width_matches_oracle(self, width, data):
        # Values drawn so that 2 B sum|c|, B = max|b[::d]| + 1, takes
        # width bytes.  Up to 8 bytes a slot is one signed machine word:
        # the operand is packed as one array and each residue is read back
        # as one; wider slots are written and read by int.to_bytes and
        # int.from_bytes, with no array at all.
        rows, coeffs, d, prec = data.draw(_kernel_at_width(width))
        row_coeffs = [0] * prec
        for i, c in rows:
            row_coeffs[i] = c
        with mock.patch.object(qs, "array", wraps=array) as spy:
            got = qs._row_pass([(rows, coeffs)], d, prec)
        assert got == poly_mul(row_coeffs, coeffs, prec)
        # _slot_bytes makes an empty array to read a word's size.
        codes = [c.args[0] for c in spy.call_args_list if len(c.args) > 1]
        residues = len({i % d for i, _ in rows})
        assert codes == ([qs._WORD[width].lower()] * (1 + residues)
                         if width <= 8 else [])

    @pytest.mark.parametrize("width", [1, 3, 7, 9, 11, 16, 17])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_big_endian_every_width_matches_oracle(self, width, data):
        # The byte order is read at call time.  Words that store their
        # bytes big-endian stand in for such a machine's arrays: up to 8
        # bytes every packed and read-back array is byte-swapped, and
        # wider slots never make one.
        rows, coeffs, d, prec = data.draw(_kernel_at_width(width))
        row_coeffs = [0] * prec
        for i, c in rows:
            row_coeffs[i] = c
        with _big_endian_words(), \
                mock.patch.object(qs.sys, "byteorder", "big"):
            assert qs._row_pass([(rows, coeffs)], d, prec) == \
                poly_mul(row_coeffs, coeffs, prec)

    @pytest.mark.parametrize("scale", [1000, 2 ** 70], ids=["words", "wide"])
    def test_big_endian_reads_words_through_the_reversed_map(self, scale):
        # One 4-byte word per slot: big-endian words give the native
        # product once byte-swapped, and a wrong one when not, so the
        # stand-in tests the swap.  A 10-byte slot is written and read
        # little-endian by int.to_bytes and int.from_bytes, so it gives
        # the native product whatever sys.byteorder says.
        prec, d = 60, 2
        coeffs = [(-1) ** j * (j % 7) * scale if j % d == 0 else 0
                  for j in range(prec)]
        rows = [(0, 3), (5, -2), (12, 1)]
        row_coeffs = [0] * prec
        for i, c in rows:
            row_coeffs[i] = c
        native = qs._row_pass([(rows, coeffs)], d, prec)
        assert native == poly_mul(row_coeffs, coeffs, prec)
        with _big_endian_words():
            with mock.patch.object(qs.sys, "byteorder", "big"):
                assert qs._row_pass([(rows, coeffs)], d, prec) == native
            swapped = qs._row_pass([(rows, coeffs)], d, prec)
        assert (swapped == native) == (scale > 2 ** 64)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_horner_cuts_match_oracle(self, data):
        # Residues long enough that a cut of P, ceil(n / _CUTS) slots, is
        # more than one slot, and row terms where n - k sits on a cut
        # boundary, one slot either side of it, at k = 0 and at k = n - 1.
        prec = data.draw(st.integers(200, 2000))
        d = data.draw(st.integers(1, 5))
        coeffs = [0] * prec
        for j in range(0, prec, d):
            coeffs[j] = data.draw(st.integers(-2 ** 70, 2 ** 70))
        rows = {}
        for r in data.draw(st.sets(st.integers(0, d - 1), min_size=1)):
            n = len(range(r, prec, d))
            step = -(-n // qs._CUTS)
            assert step > 1
            edges = {0, n - 1} | {n - j * step + e
                                  for j in range(1, qs._CUTS + 1)
                                  for e in (-1, 0, 1)}
            for k in data.draw(st.sets(st.sampled_from(sorted(
                    k for k in edges if 0 <= k < n)), min_size=1)):
                rows[r + d * k] = data.draw(st.integers(-10 ** 6, 10 ** 6)
                                            .filter(bool))
        rows = sorted(rows.items())
        row_coeffs = [0] * prec
        for i, c in rows:
            row_coeffs[i] = c
        assert qs._row_pass([(rows, coeffs)], d, prec) == \
            poly_mul(row_coeffs, coeffs, prec)

    def test_wide_slots_past_one_block_match_oracle(self):
        # More than _BLOCK wide slots at d = 1, so the operand is written
        # in three blocks, the last one short.
        prec = 2 * qs._BLOCK + 7
        coeffs = [(-1) ** j * (2 ** 70 + 977 * j) for j in range(prec)]
        rows = [(0, 5), (1, -3), (qs._BLOCK, 2), (prec - 1, -7)]
        row_coeffs = [0] * prec
        for i, c in rows:
            row_coeffs[i] = c
        widths, slot_bytes = [], qs._slot_bytes
        with mock.patch.object(qs, "_slot_bytes", lambda m: widths.append(
                slot_bytes(m)) or widths[-1]):
            assert qs._row_pass([(rows, coeffs)], 1, prec) == \
                poly_mul(row_coeffs, coeffs, prec)
        assert widths == [10]

    @pytest.mark.parametrize("wide", [False, True], ids=["words", "wide"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_several_terms_match_oracle(self, wide, data):
        # Two to four terms, each its own operand on the multiples of d
        # (some shorter than prec), whose row terms share positions with
        # other terms' or sit apart, with c of both signs; slots of at
        # most 8 bytes, or wider ones.
        prec = data.draw(st.integers(1, 80))
        d = data.draw(st.integers(1, 5))
        shared = data.draw(st.lists(st.integers(0, prec - 1), min_size=1,
                                    max_size=6, unique=True))
        values = (st.integers(2 ** 70, 2 ** 200) if wide
                  else st.integers(1, 2 ** 40))
        terms, want = [], [0] * prec
        for _ in range(data.draw(st.integers(2, 4))):
            idx = sorted(set(data.draw(st.lists(st.sampled_from(shared))))
                         | set(data.draw(st.lists(
                             st.integers(0, prec - 1), max_size=4))))
            rows = [(i, data.draw(st.integers(-2 ** 10, 2 ** 10)
                                  .filter(bool))) for i in idx]
            length = prec - (min(idx) if idx else 0)
            length += data.draw(st.integers(0, prec - length + 4))
            coeffs = [data.draw(values) * data.draw(st.sampled_from([-1, 1]))
                      if j % d == 0 else 0 for j in range(length)]
            terms.append((rows, coeffs))
            row_coeffs = [0] * prec
            for i, c in rows:
                row_coeffs[i] = c
            want = [x + y for x, y in zip(want, poly_mul(
                row_coeffs, coeffs + [0] * prec, prec))]
        widths, slot_bytes = [], qs._slot_bytes
        with mock.patch.object(qs, "_slot_bytes", lambda m: widths.append(
                slot_bytes(m)) or widths[-1]):
            assert qs._row_pass(terms, d, prec) == want
        assert all((w > 8) == wide for w in widths)
        # The one bound: max over the residues r of sum |c| (max|B_j| + 1)
        # over r's row terms, max|B_j| read below prec.
        sums = {}
        for rows, coeffs in terms:
            high = max(map(abs, coeffs[0:prec:d])) + 1
            for i, c in rows:
                sums[i % d] = sums.get(i % d, 0) + abs(c) * high
        assert widths == ([slot_bytes(max(sums.values()))] if sums else [])

    def test_slots_are_sized_by_the_largest_coefficient(self):
        # One row c = 2^60 at i = prec - 1 reaches B[0] = 1 alone, yet its
        # slots hold 2 * 2^60 (2^20 + 1), the bound from max|B| = 2^20:
        # 82 bits, so 11 bytes, not the 8 of the coefficients it reaches.
        prec = 40
        coeffs = [1] * (prec - 1) + [2 ** 20]
        rows = [(prec - 1, 2 ** 60)]
        widths, slot_bytes = [], qs._slot_bytes
        with mock.patch.object(qs, "_slot_bytes", lambda m: widths.append(
                slot_bytes(m)) or widths[-1]):
            assert qs._row_pass([(rows, coeffs)], 1, prec) == \
                [0] * (prec - 1) + [2 ** 60]
        assert widths == [11]

    def test_delta_shaped_product_peaks_below_twice_its_result(self):
        # The row pass keeps one packed copy of the dense operand and one
        # residue's sum alive, never a per-slot object or a row's copy.
        prec = 20000
        rows = qs.derive(qs.theta(1, prec))
        e4 = qs.eisenstein_e4(4, prec)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = qs.mul(rows, e4)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # The list and the int objects it holds (small ints are shared).
        footprint = sys.getsizeof(out.coeffs) + sum(
            sys.getsizeof(c) for c in out.coeffs if not -5 <= c <= 256)
        assert peak < 2 * footprint


class TestRingAxioms:
    def test_axioms_on_random_triples(self):
        rng = random.Random(515)
        for _ in range(100):
            offset = rng.choice([0, 1, Fraction(1, 24), Fraction(1, 2)])
            a = random_series(rng, 64, offset)
            b = random_series(rng, 64, offset)
            c = random_series(rng, 64, offset)
            assert series_window(qs.mul(a, b)) == series_window(qs.mul(b, a))
            assert series_window(qs.mul(qs.mul(a, b), c)) == \
                series_window(qs.mul(a, qs.mul(b, c)))
            lhs = qs.mul(a, qs.lincomb([(1, b), (1, c)]))
            rhs = qs.lincomb([(1, qs.mul(a, b)), (1, qs.mul(a, c))])
            assert series_window(lhs) == series_window(rhs)

    @given(st.lists(st.integers(-9, 9), min_size=8, max_size=24),
           st.lists(st.integers(-9, 9), min_size=8, max_size=24))
    @settings(max_examples=120)
    def test_commutativity_hypothesis(self, xs, ys):
        prec = min(len(xs), len(ys))
        a, b = from_list(xs[:prec]), from_list(ys[:prec])
        assert qs.mul(a, b).coeffs == qs.mul(b, a).coeffs


class TestPow:
    def test_eta24_is_tau(self):
        s = qs.pow_(qs.eta(1, 8), 24)
        assert s.offset == 1
        assert s.coeffs[:4] == [1, -24, 252, -1472]
        assert s.coeffs[:8] == tau_list(8)[1:9]

    def test_identity(self):
        a = qs.eta(1, 10)
        assert qs.pow_(a, 1) == a

    def test_square(self):
        out = qs.pow_(from_list([1, 1, 0]), 2)
        assert out.coeffs == [1, 2, 1]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            qs.pow_(qs.eta(1, 4), 0)

    @pytest.mark.parametrize("base", [
        QSeries.from_pairs([(0, 1), (5, -2), (17, 3)], 64, Fraction(1, 24)),
        from_list([(-1) ** i * (i % 7) for i in range(24)]),
        # dense on a fractional offset
        from_list([2, -3] * 6, offset=Fraction(1, 2)),
    ], ids=["sparse", "dense", "fraction"])
    def test_matches_repeated_products(self, base):
        coeffs = base.coeffs
        want = coeffs
        for e in range(1, 31):
            got = qs.pow_(base, e)
            assert got.offset == e * base.offset
            assert got.coeffs == want
            want = poly_mul(want, coeffs, base.prec)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_eta_powers_match_repeated_products(self, m):
        # The atom eta(m)^e goes through eta_pow, which starts from e = 3
        # with Jacobi's eta^3; every denominator stays 1.
        prec = 150
        base = dilated(_euler_literal(), m, prec)
        want = base
        for e in range(1, 31):
            got, den = evaluate(parse_formspec("eta(%d)^%d" % (m, e)), prec)
            assert (got.offset, den) == (Fraction(e * m, 24), 1)
            assert got.coeffs == want
            want = poly_mul(want, base, prec)

    def test_eta24_takes_three_squarings(self, monkeypatch):
        # eta^24 = (((eta^3)^2)^2)^2, with eta^3 from Jacobi's identity.
        calls = []
        mul = qs.mul

        def counting(a, b):
            calls.append(a is b)
            return mul(a, b)

        monkeypatch.setattr(qs, "mul", counting)
        out = qs.eta_pow(1, 24, 200)
        assert calls == [True] * 3
        assert out.offset == 1
        assert out.coeffs == tau_list(200)[1:]


class TestEuler:
    """The Euler product prod (1 - q^n) is eta(1) without its q^(1/24)."""

    def test_known_values(self):
        assert list(qs.eta(1, 8).pairs()) == [(0, 1), (1, -1), (2, -1),
                                             (5, 1), (7, 1)]
        assert list(qs.eta(1, 1).pairs()) == [(0, 1)]
        assert list(qs.eta(1, 13).pairs()) == [(0, 1), (1, -1), (2, -1),
                                              (5, 1), (7, 1), (12, -1)]

    def test_matches_literal_product_to_256(self):
        literal = euler_product_literal(256)
        assert qs.eta(1, 256).coeffs == literal
        for prec in list(range(1, 40)) + [100, 200, 255]:
            assert qs.eta(1, prec).coeffs == literal[:prec]

    def test_sparse_layout(self):
        assert qs.eta(1, 1000).density == "sparse"
        assert qs.eta(1, 1000).nnz <= 4 * 32   # O(sqrt(prec)) terms


class TestEta:
    def test_offset_and_leading_terms(self):
        e = qs.eta(1, 8)
        assert e.offset == Fraction(1, 24)
        assert list(e.pairs())[:3] == [(0, 1), (1, -1), (2, -1)]

    def test_eta2_eta22_offset_one(self):
        assert qs.mul(qs.eta(2, 40), qs.eta(22, 40)).offset == 1

    def test_level_11_square(self):
        e1 = qs.eta(1, 10)
        e11 = qs.eta(11, 10)
        out = qs.mul(qs.mul(e1, e1), qs.mul(e11, e11))
        assert out.offset == 1
        assert out.coeffs[:7] == [1, -2, -1, 2, 1, 2, -2]


class TestTheta:
    def test_known_values(self):
        assert list(qs.theta(1, 5).pairs()) == [(0, 1), (1, 2), (4, 2)]
        assert list(qs.theta(11, 12).pairs()) == [(0, 1), (11, 2)]
        assert list(qs.theta(4, 17).pairs()) == [(0, 1), (4, 2), (16, 2)]


class TestThetaPsi:
    def test_minus_four(self):
        psi = DirichletCharacter(top=-4)
        out = qs.theta_psi(psi, 1, 10)
        assert list(out.pairs()) == [(1, 2), (9, -6)]

    def test_minus_three(self):
        psi = DirichletCharacter(top=-3)
        out = qs.theta_psi(psi, 1, 13)
        # psi(3) = 0, so the q^9 term is absent entirely
        assert list(out.pairs()) == [(1, 2), (4, -4)]

    def test_prec_one_is_zero(self):
        psi = DirichletCharacter(top=-4)
        assert list(qs.theta_psi(psi, 1, 1).pairs()) == []

    def test_rejects_even_character(self):
        with pytest.raises(ValueError):
            qs.theta_psi(DirichletCharacter(top=5), 1, 10)

    def test_rejects_imprimitive_character(self):
        with pytest.raises(ValueError):
            qs.theta_psi(DirichletCharacter(top=-9), 1, 10)


# m in 1..7 against precisions on both sides of the first term m, as
# (m, prec) pairs; prec = m - 1 = 0 is the refusal below.
LACUNARY_CASES = sorted({(m, prec) for m in range(1, 8)
                         for prec in (1, m - 1, m, m + 1, 59, 997) if prec})


@lru_cache(maxsize=None)
def _euler_literal():
    return euler_product_literal(997)


@lru_cache(maxsize=None)
def _euler_cubed():
    literal = _euler_literal()
    return poly_mul(poly_mul(literal, literal, 997), literal, 997)


class TestLacunary:
    """eta, eta^3, theta, theta_psi and psi against direct sums and literal
    products on the grid m e."""

    @pytest.mark.parametrize("m, prec", LACUNARY_CASES)
    def test_eta_is_the_dilated_euler_product(self, m, prec):
        got = qs.eta(m, prec)
        assert (got.offset, got.coeffs) == (
            Fraction(m, 24), dilated(_euler_literal(), m, prec))

    @pytest.mark.parametrize("m, prec", LACUNARY_CASES)
    def test_eta_cubed_is_the_cubed_euler_product(self, m, prec):
        # Jacobi's identity: eta(mz)^3 on offset m/8.
        got = qs.eta_pow(m, 3, prec)
        assert (got.offset, got.coeffs) == (
            Fraction(m, 8), dilated(_euler_cubed(), m, prec))

    @pytest.mark.parametrize("m, prec", LACUNARY_CASES)
    def test_theta_counts_representations(self, m, prec):
        want = [0] * prec
        for n in range(-isqrt(prec), isqrt(prec) + 1):
            if m * n * n < prec:
                want[m * n * n] += 1
        got = qs.theta(m, prec)
        assert (got.offset, got.coeffs) == (0, want)

    @pytest.mark.parametrize("top", [-3, -4])
    @pytest.mark.parametrize("m, prec", LACUNARY_CASES)
    def test_theta_psi_is_its_sum(self, m, prec, top):
        want = [0] * prec
        for n in range(-isqrt(prec), isqrt(prec) + 1):
            if m * n * n < prec:
                want[m * n * n] += kronecker(top, n) * n
        got = qs.theta_psi(DirichletCharacter(top=top), m, prec)
        assert (got.offset, got.coeffs) == (0, want)

    @pytest.mark.parametrize("m, prec", LACUNARY_CASES)
    def test_psi_marks_the_triangular_numbers(self, m, prec):
        want = [0] * prec
        for n in range(prec):
            if m * n * (n + 1) // 2 < prec:
                want[m * n * (n + 1) // 2] = 1
        got = qs.psi(m, prec)
        assert (got.offset, got.coeffs) == (Fraction(m, 8), want)

    @pytest.mark.parametrize("prec", [1, 2, 59, 997])
    def test_psi_is_an_eta_quotient(self, prec):
        # psi(z) eta(z) = eta(2z)^2, on offset 1/8 + 1/24 = 2 * 2/24.
        assert qs.mul(qs.psi(1, prec), qs.eta(1, prec)) == \
            qs.pow_(qs.eta(2, prec), 2)

    @pytest.mark.parametrize("make", [
        lambda m, prec: qs.eta(m, prec), lambda m, prec: qs.theta(m, prec),
        lambda m, prec: qs.theta_psi(DirichletCharacter(top=-3), m, prec),
        lambda m, prec: qs.eta_pow(m, 3, prec),
        lambda m, prec: qs.psi(m, prec)],
        ids=["eta", "theta", "theta_psi", "eta_cubed", "psi"])
    def test_refusals_keep_their_messages(self, make):
        for m in (0, -2):
            with pytest.raises(ValueError, match="^dilation index must be "
                                                 "a positive integer$"):
                make(m, 10)
        for prec in (0, -1):
            with pytest.raises(ValueError, match="^prec must be positive$"):
                make(1, prec)


class TestDerive:
    def test_basic(self):
        assert qs.derive(from_list([1, 1, 1])).coeffs == [0, 1, 2]

    def test_theta(self):
        assert list(qs.derive(qs.theta(1, 5)).pairs()) == [(1, 2), (4, 8)]

    def test_fractional_offset(self):
        # On an offset a/b, derive is b q d/dq: q^(1/24 + i) gets 1 + 24 i.
        s = QSeries.from_pairs([(0, 1), (2, -3)], 3, offset=Fraction(1, 24))
        out = qs.derive(s)
        assert out.offset == Fraction(1, 24)
        assert list(out.pairs()) == [(0, 1), (2, -147)]
        half = qs.derive(from_list([1, 1], offset=Fraction(3, 2)))
        assert half.coeffs == [3, 5]

    def test_leibniz_rule(self):
        # With derive = b q d/dq on an offset of denominator b:
        # b_a * derive(a b) = b_ab * (derive(a) b + a derive(b)).
        rng = random.Random(31)
        for offset in (0, Fraction(1, 24)):
            for _ in range(25):
                a = random_series(rng, 64, offset)
                b = random_series(rng, 64, offset)
                ba = a.offset.denominator
                bab = (a.offset + b.offset).denominator
                lhs = qs.lincomb([(ba, qs.derive(qs.mul(a, b)))])
                rhs = qs.lincomb([(bab, qs.mul(qs.derive(a), b)),
                                  (bab, qs.mul(a, qs.derive(b)))])
                assert series_window(lhs) == series_window(rhs)


class TestDilate:
    def test_u_undoes_dilate(self):
        rng = random.Random(63)
        for m in (2, 3, 4, 7):
            for offset in (0, 1, 3):
                a = random_series(rng, 40, offset)
                up = QSeries(a.offset * m, dilated(a.coeffs, m, m * a.prec))
                back = qs.u_op(m, up)
                # compare on the window both sides guarantee
                for n in range(int(a.offset) + a.prec):
                    if n < back.prec:
                        assert back.coeffs[n] == at(a, n)


class TestUOp:
    def test_known_values(self):
        a = QSeries.from_pairs([(3, 1), (4, 1), (8, 1)], 12)
        assert list(qs.u_op(4, a).pairs()) == [(1, 1), (2, 1)]
        b = QSeries.from_pairs([(3, 1)], 12)
        assert list(qs.u_op(4, b).pairs()) == []

    def test_rejects_fractional_offset(self):
        with pytest.raises(ValueError):
            qs.u_op(4, qs.eta(1, 30))

    def test_prec_floor(self):
        assert qs.u_op(4, from_list([0] * 11)).prec == 2

    def test_nonzero_offset(self):
        a = from_list([7, 8, 9, 10], offset=1)   # q + .. q^4
        out = qs.u_op(2, a)
        assert out.offset == 0 and out.coeffs == [0, 8]

    def test_negative_offset(self):
        out = qs.u_op(4, from_list(range(1, 10), offset=-4))   # q^-4 .. q^4
        assert out.offset == 0 and out.coeffs == [5, 9]

    def test_negative_offset_reports_only_the_known_window(self):
        # q^-8 .. q^0 are known, so only q^0 of the image is.
        out = qs.u_op(4, from_list(range(1, 10), offset=-8))
        assert out.prec == 1 and out.coeffs == [9]

    def test_every_reported_coefficient_is_known(self):
        rng = random.Random(41)
        for _ in range(200):
            a = random_series(rng, rng.randint(0, 30), rng.randint(-12, 12))
            m = rng.randint(1, 5)
            out = qs.u_op(m, a)
            assert out.prec <= a.prec // m
            for n in range(out.prec):
                assert out.coeffs[n] == at(a, m * n)


class TestEisenstein:
    def test_leading_coefficients(self):
        e4 = qs.eisenstein_e4(1, 3)
        assert e4.coeffs == [1, 240, 2160]

    def test_sieve_matches_direct_sigma(self):
        # Every n < 5000, prime powers such as 2^12 and 3^7 among them, at
        # every dilation m = 1..5.
        want = [1] + [240 * sigma_k(n, 3) for n in range(1, 5000)]
        assert 2 ** 12 < 5000 and 3 ** 7 < 5000
        for m in range(1, 6):
            e4 = qs.eisenstein_e4(m, 5000 * m)
            assert e4.coeffs[::m] == want
            assert not any(c for i, c in enumerate(e4.coeffs) if i % m)

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("prec", [1, 2, 7, 58, 201])
    def test_dilation_is_written_at_stride_m(self, m, prec):
        # E4 sieved to ceil(prec / m) positions and placed at stride m.
        base = qs.eisenstein_e4(1, -(-prec // m)).coeffs
        got = qs.eisenstein_e4(m, prec)
        assert (got.offset, got.coeffs) == (0, dilated(base, m, prec))

    def test_refusals_keep_their_messages(self):
        for m in (0, -2):
            with pytest.raises(ValueError, match="^dilation index must be "
                                                 "a positive integer$"):
                qs.eisenstein_e4(m, 10)
        for prec in (0, -1):
            with pytest.raises(ValueError, match="^prec must be positive$"):
                qs.eisenstein_e4(1, prec)


class TestWindowSemantics:
    def test_offset_denominator_validated(self):
        with pytest.raises(ValueError):
            QSeries.from_pairs([(0, 1)], 2, offset=Fraction(1, 5))

    def test_sparse_invariants_validated(self):
        with pytest.raises(ValueError):
            QSeries.from_pairs([(1, 1), (1, 2)], 4)
        with pytest.raises(ValueError):
            QSeries.from_pairs([(5, 1)], 4)
        with pytest.raises(ValueError):
            QSeries.from_pairs([(-1, 1)], 4)
        assert list(QSeries.from_pairs([(2, 1), (0, 0)], 4).pairs()) == [(2, 1)]


class TestScalarAndIntegrality:
    def test_exact_division_stays_int(self):
        # A rational scalar stays in the evaluator's denominator, and the
        # one division happens at finalization.
        s, den = evaluate(parse_formspec("1/4*(8*theta(1) - 4*theta(4))"), 5)
        assert den == 4 and s.coeffs == [4, 16, 0, 0, 8]
        assert all(type(c) is int for c in s.coeffs)
        assert integer_table(s, 4, den=den) == [1, 4, 0, 0, 2]
        s, den = evaluate(parse_formspec("1/4*theta(1)"), 5)
        assert den == 4 and s.coeffs == [1, 2, 0, 0, 2]
        with pytest.raises(ValueError, match="1/4 at q\\^0"):
            integer_table(s, 4, den=den)

    def test_scalar_through_operators(self):
        s = qs.lincomb([(3, qs.theta(1, 5))])
        assert list(s.pairs()) == [(0, 3), (1, 6), (4, 6)]
        assert qs.lincomb([(1, s), (-1, s)]).nnz == 0
