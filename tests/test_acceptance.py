"""Acceptance gate.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass line on success (run with -s to see them).  The two
X = 10^5 builds are shared module fixtures and their build time is charged
against the table-reproduction budgets.
"""

import random
import time
from fractions import Fraction

import pytest

from qsigns import coeffio, hecke, qseries as qs, signs
from qsigns.arith import kronecker
from qsigns.forms import NAMED, Form, delta_form, expression_form, g_form

from oracles import (dilated, euler_product_literal, poly_mul,
                     recurrence_oracle)

BIG = 100_000

# Printed table rows: X -> value, with the stated absolute tolerances.
TABLE1_TOT = {10: "0.600", 100: "0.520", 1000: "0.518",
              10_000: "0.504600", 100_000: "0.499600"}
TABLE1_FUND = {10: "0.667", 100: "0.548", 1000: "0.515",
               10_000: "0.501643", 100_000: "0.500016"}
TABLE2_TOT = {10: "0.500", 100: "0.500", 1000: "0.500",
              10_000: "0.496042", 100_000: "0.501022"}
# the X = 10 cell is excluded: the printed 1.000 is inconsistent with this
# indexing, under which -4 is fundamental and a(4) = -1 gives {3:+, 4:-}
TABLE2_FUND = {10_000: "0.491968", 100_000: "0.500861"}

TOT_TOL = Fraction(5, 10_000)
FUND_TOL_DELTA = Fraction(5, 1000)
FUND_TOL_G = Fraction(1, 100)

DELTA_PRINTED = {1: 1, 4: -56, 5: 120, 8: -240, 9: 9,
                 12: 1440, 13: -1320, 16: -704, 17: -240}
G_PRINTED = {3: 1, 4: -1, 11: -1, 12: -1, 15: 1, 16: 2,
             20: 1, 23: -1, 27: -1, 31: -1, 44: 1, 55: 1}


@pytest.fixture(scope="module")
def delta_big():
    t0 = time.perf_counter()
    f = delta_form(BIG)
    return f, time.perf_counter() - t0


@pytest.fixture(scope="module")
def g_big():
    t0 = time.perf_counter()
    f = g_form(BIG)
    return f, time.perf_counter() - t0


@pytest.fixture(scope="module")
def tau_form():
    return expression_form(NAMED["Delta"], 300)


@pytest.fixture(scope="module")
def g11_form():
    return expression_form(NAMED["G11"], 20)


def _restrict(f: Form, prec: int) -> Form:
    return Form(weight_num=f.weight_num, level=f.level, character=f.character,
                coeffs=f.coeffs[:prec + 1])


def test_criterion_1_printed_expansions():
    t0 = time.perf_counter()
    d = delta_form(20)
    g = g_form(60)
    elapsed = time.perf_counter() - t0
    for n, v in DELTA_PRINTED.items():
        assert d.coeffs[n] == v, ("delta", n)
    for n in range(1, 18):
        if n not in DELTA_PRINTED:
            assert d.coeffs[n] == 0, ("delta", n)
    for n, v in G_PRINTED.items():
        assert g.coeffs[n] == v, ("g", n)
    for n in range(1, 56):
        if n not in G_PRINTED:
            assert g.coeffs[n] == 0, ("g", n)
    assert elapsed < 1.0, "runtime %.3fs exceeds 1 s" % elapsed
    print("\n[criterion 1] PASS printed expansions exact (%.3fs)" % elapsed)


def table_ratios(f, index_set, xs):
    """X -> R at each X of xs as the signs table counts it: signs.counts
    over the statistic's mask, as an exact Fraction."""
    tallies = signs.counts(f, index_set(f, max(xs)), xs)
    return {X: Fraction(n_pos, n_pos + n_neg)
            for X, (n_pos, n_neg) in zip(xs, tallies)}


def test_criterion_2_table1(delta_big):
    d, build_seconds = delta_big
    t0 = time.perf_counter()
    for X, got in table_ratios(d, signs.prefix, TABLE1_TOT).items():
        printed = TABLE1_TOT[X]
        assert abs(got - Fraction(printed)) <= TOT_TOL, (X, printed, got)
    for X, got in table_ratios(d, signs.fundamental, TABLE1_FUND).items():
        printed = TABLE1_FUND[X]
        assert abs(got - Fraction(printed)) <= FUND_TOL_DELTA, \
            (X, printed, got)
    elapsed = build_seconds + (time.perf_counter() - t0)
    assert elapsed <= 300, "runtime %.1fs exceeds 5 min" % elapsed
    print("\n[criterion 2] PASS table 1 reproduced at X<=1e5 (%.1fs)" % elapsed)


def test_criterion_3_table2(g_big):
    """Table 2 for g.  R_tot matches every printed digit.  R_fund does
    not: it is 0.490946 at X = 10^4 (printed 0.491968) and 0.500991 at
    10^5 (printed 0.500861), inside FUND_TOL_G but not digit for digit.

    Six conventions for the indices n that R_fund counts were tried, and
    none reproduces both printed cells: -n a fundamental discriminant
    (the one used here), n odd, 4 does not divide n, 11 does not divide
    n, gcd(n, 22) = 1, and n square-free.

    The counts behind the two cells, on a 10^5 build of g:
    - X = 10^4: 732 positive among 1491 nonzero.  The printed 0.491968
      is 735/1494 rounded (three more positive indices, no more
      negative ones), and no other count within +-8 of ours rounds to it.
    - X = 10^5: 7585 positive among 15140 nonzero.  No count with at
      least as many positive and nonzero indices, up to 160 more
      nonzero ones, rounds to the printed 0.500861.
    So extra indices in the paper's count could explain the first cell
    but not the second.  The gap stays open; the 1 % tolerance is kept
    as it is, not widened to fit.
    """
    g, build_seconds = g_big
    t0 = time.perf_counter()
    for X, got in table_ratios(g, signs.prefix, TABLE2_TOT).items():
        printed = TABLE2_TOT[X]
        assert abs(got - Fraction(printed)) <= TOT_TOL, (X, printed, got)
    for X, got in table_ratios(g, signs.fundamental, TABLE2_FUND).items():
        printed = TABLE2_FUND[X]
        assert abs(got - Fraction(printed)) <= FUND_TOL_G, (X, printed, got)
    elapsed = build_seconds + (time.perf_counter() - t0)
    assert elapsed <= 120, "runtime %.1fs exceeds 2 min" % elapsed
    print("\n[criterion 3] PASS table 2 reproduced, X=10 fund cell excluded "
          "(%.1fs)" % elapsed)


def test_criterion_4_eigenvalues_match_oracles(delta_big, g_big, tau_form,
                                               g11_form):
    d, _ = delta_big
    g, _ = g_big
    for p in (3, 5, 7, 13):
        rd = hecke.eigen_report(d, p)
        assert rd.is_eigen and rd.lam == tau_form.coeffs[p], \
            ("delta", p, rd.lam)
        rg = hecke.eigen_report(g, p)
        assert rg.is_eigen and rg.lam == g11_form.coeffs[p], ("g", p, rg.lam)
    print("\n[criterion 4] PASS T(p^2) eigenvalues equal the eta-product "
          "oracles for p in {3,5,7,13}")


def test_criterion_5_shimura_lift(delta_big, tau_form):
    d, _ = delta_big
    F = hecke.shimura_lift(_restrict(d, 10_000), 1)
    assert F.prec == 100 and F.weight_num == 24
    for n in range(1, 100, 2):
        assert F.coeffs[n] == tau_form.coeffs[n], n
    for p in (3, 5, 7):
        rep = hecke.extract_eigenvalue(F.coeffs[:F.prec // p + 1],
                                       hecke.t_integral(p, F).coeffs, p=p,
                                       k=6)
        assert rep.is_eigen and rep.lam == tau_form.coeffs[p], p
    print("\n[criterion 5] PASS lift at t=1: A(n)=tau(n) on odd n<=99 and "
          "T(p) eigenvalues match for p in {3,5,7}")


def test_criterion_6_local_recurrence(delta_big, g_big):
    d, _ = delta_big
    g, _ = g_big
    # The recurrence along t p^(2m) is the T(p^2) eigen equation: each
    # prime's verdict holds, and the two-term oracle gives every a(t p^(2m))
    # within precision.
    for name, f, ts in (("delta", d, (1, 5)), ("g", g, (3,))):
        for p in (3, 5, 7):
            rep = hecke.eigen_report(f, p)
            assert rep.is_eigen, (name, p, rep)
            for t in ts:
                seq = [f.coeffs[n] for n in signs.prime_powers(f, t, p)]
                assert recurrence_oracle(seq[0], seq[1], rep.lam,
                                         p ** (2 * f.k - 1), len(seq)) == seq
    assert d.coeffs[81] == 252 * 9 - 3 ** 11 == -174879
    print("\n[criterion 6] PASS local recurrence holds within precision 1e5; "
          "a(81) = -174879 exactly")


def test_criterion_7_bounds_and_witnesses(delta_big, g_big):
    d, _ = delta_big
    g, _ = g_big
    for f, k in ((d, 6), (g, 1)):
        for p in (3, 5, 7, 13):
            rep = hecke.eigen_report(f, p)
            assert rep.is_eigen
            assert rep.deligne_ok and rep.lam ** 2 <= 4 * p ** (2 * k - 1), \
                (k, p, rep.lam)
            assert abs(rep.lam) < p ** k + p ** (k - 1), (k, p, rep.lam)
    for f in (d, g):
        for p in (3, 5, 7):
            found = signs.prop2_witnesses(f, p, 10_000)
            assert all(n is not None for n in found.values()), \
                (f.weight_num, p, found)
            for (eps, s), n in found.items():
                assert kronecker(n, p) == eps and \
                    (1 if f.coeffs[n] > 0 else -1) == s
    print("\n[criterion 7] PASS eigenvalue bounds hold and both-sign "
          "witnesses found in both classes for p in {3,5,7}, n <= 1e4")


def test_criterion_8_property_suites(delta_big, g_big):
    t0 = time.perf_counter()
    rng = random.Random(808)

    def rand_series(prec, offset=0):
        if rng.random() < 0.5:
            idx = sorted(rng.sample(range(prec), prec // 20))
            return qs.QSeries.from_pairs([(i, rng.choice([-3, -1, 1, 2]))
                                          for i in idx], prec, offset)
        return qs.QSeries.from_pairs(
            [(i, rng.randint(-9, 9)) for i in range(prec)], prec, offset)

    def window(s):
        return s.offset, s.coeffs

    # ring axioms at prec 64, 100 random triples
    for _ in range(100):
        offset = rng.choice([0, 1, Fraction(1, 24)])
        a, b, c = (rand_series(64, offset) for _ in range(3))
        assert window(qs.mul(a, b)) == window(qs.mul(b, a))
        assert window(qs.mul(qs.mul(a, b), c)) == window(qs.mul(a, qs.mul(b, c)))
        assert window(qs.mul(a, qs.lincomb([(1, b), (1, c)]))) == \
            window(qs.lincomb([(1, qs.mul(a, b)), (1, qs.mul(a, c))]))

    # eta(1) is the literal Euler product at prec 256
    assert qs.eta(1, 256).coeffs == euler_product_literal(256)

    # sparse*dense row pass equals schoolbook at prec 512, in either order
    sp = qs.theta(1, 512)
    de = qs.QSeries.from_pairs([(i, rng.randint(-9, 9)) for i in range(512)],
                               512)
    assert qs.mul(sp, de).coeffs == qs.mul(de, sp).coeffs
    assert qs.mul(sp, de).coeffs == poly_mul(sp.coeffs, de.coeffs, 512)

    # Leibniz rule at prec 64; derive is b q d/dq on an offset over b, so
    # b_a derive(a b) = b_ab (derive(a) b + a derive(b))
    for offset in (0, Fraction(1, 24)):
        a, b = rand_series(64, offset), rand_series(64, offset)
        ba, bab = a.offset.denominator, (a.offset + b.offset).denominator
        assert window(qs.lincomb([(ba, qs.derive(qs.mul(a, b)))])) == \
            window(qs.lincomb([(bab, qs.mul(qs.derive(a), b)),
                               (bab, qs.mul(a, qs.derive(b)))]))

    # U_m undoes dilation
    for m in (2, 4, 5):
        a = rand_series(48, offset=1)
        up = qs.QSeries(a.offset * m, dilated(a.coeffs, m, m * a.prec))
        back = qs.u_op(m, up)
        for n in range(back.prec):
            assert back.coeffs[n] == (a.coeffs[n - 1] if n >= 1 else 0)

    # coefficient files round-trip at prec 1000
    named = [(name, expression_form(NAMED[name], 1000))
             for name in ("Delta", "G11")]
    for form_id, form in [("delta", _restrict(delta_big[0], 1000)),
                          ("g", _restrict(g_big[0], 1000))] + named:
        cf = coeffio.CoefficientFile(form_id, form)
        assert coeffio.parse(cf.serialize()).serialize() == cf.serialize()

    elapsed = time.perf_counter() - t0
    assert elapsed < 60, "property suites took %.1fs" % elapsed
    print("\n[criterion 8] PASS property suites green (%.1fs)" % elapsed)
