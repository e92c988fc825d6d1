import io
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import compress, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsigns import hecke, signs
from qsigns.arith import (DirichletCharacter, is_fundamental_discriminant,
                          is_squarefree, kronecker)
from qsigns.cli import main
from qsigns.coeffio import CoefficientFile
from qsigns.forms import Form, expression_form

from oracles import recurrence_oracle, sign_scan
from qsigns.signs import (dprime_filter, first_nonzero, fundamental, prefix,
                          prime_powers, prop2_witnesses, render_ratio, scan,
                          square_class)


def artificial_form(values, weight_num=13, level=4, a0=0):
    coeffs = [a0] + list(values)
    return Form(weight_num=weight_num, level=level,
                character=DirichletCharacter.trivial(level),
                coeffs=coeffs)


def selected(mask):
    """The n that a statistic's mask selects, in ascending order."""
    return list(compress(count(), mask))


def tally(f, index_set, X):
    """(n_pos, n_neg) up to X alone, as the signs table counts it."""
    return signs.counts(f, index_set(f, X), [X])[0]


def sign_changes(values):
    """(count, positions) of the scan over the whole of values."""
    rep = scan(artificial_form(values), range(1, len(values) + 1))
    return rep.sign_change_count, rep.change_positions


class TestSignChanges:
    def test_known_values(self):
        assert sign_changes([1, -56, 120, -240, 9]) == (4, [2, 3, 4, 5])
        assert sign_changes([0, 0, 3, 0, 5]) == (0, [])

    def test_delta_prefix(self, delta3k):
        rep = scan(delta3k, range(1, 18))
        assert rep.sign_change_count >= 5

    def test_zero_runs_bridge(self):
        assert sign_changes([1, 0, 0, -1, 0, -2, 0, 3]) == (2, [4, 8])


class TestScanOracle:
    """The scan against the literal oracle: delete the zeros, then count
    adjacent flips."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, data):
        values = [0] + data.draw(st.lists(st.integers(-3, 3), min_size=1,
                                          max_size=40))
        indices = data.draw(st.lists(st.integers(1, len(values) - 1),
                                     max_size=60))
        self._check(values, indices)

    @pytest.mark.parametrize("values, indices", [
        ([0, 0, 0, 0], [1, 2, 3]),          # every entry zero
        ([0, 0, 0, 0], []),                 # no entry
        ([0, -7], [1]),                     # a single entry
        ([0, 5, 0], [2]),                   # a single zero
        ([0] + [(-1) ** n * n for n in range(1, 30)], list(range(1, 30))),
    ], ids=["all-zero", "empty", "single", "single-zero", "alternating"])
    def test_edge_cases(self, values, indices):
        self._check(values, indices)

    def _check(self, values, indices):
        rep = scan(artificial_form(values[1:]), indices)
        _, _, _, positions, witnesses = sign_scan(values, indices)
        assert rep.entries == len(indices)
        assert rep.change_positions == positions
        assert rep.sign_change_count == len(positions)
        assert rep.witnesses == witnesses


class TestFirstNegative:
    """Both forms start positive, so their first negative coefficient is
    the first sign change of the scan."""

    def test_forms(self, delta3k, g3k):
        for f in (delta3k, g3k):
            rep = scan(f, range(1, 101))
            assert rep.change_positions[0] == 4
            assert f.coeffs[4] < 0
            assert all(f.coeffs[n] >= 0 for n in range(1, 4))

    def test_absent(self):
        f = artificial_form([1, 0, 0, 1, 1, 0, 0, 1])
        assert tally(f, prefix, 8) == (4, 0)
        assert scan(f, range(1, 9)).change_positions == []


class TestSubseq:
    def test_known_values(self, delta3k, g3k):
        def values(f, t):
            return [f.coeffs[n] for n in square_class(f, t)]
        assert values(delta3k, 1)[:4] == [1, -56, 9, -704]
        assert values(delta3k, 5)[:1] == [120]
        assert values(g3k, 3)[:3] == [1, -1, -1]

    def test_range_violation(self, delta3k):
        # 54^2 <= 3000 < 55^2: the class stops at the precision
        assert square_class(delta3k, 1) == [n * n for n in range(1, 55)]
        assert square_class(delta3k, 2999) == [2999]     # 2999 is prime
        with pytest.raises(ValueError, match="beyond the form's precision"):
            square_class(delta3k, 3001)
        with pytest.raises(ValueError, match="square-free"):
            square_class(delta3k, 12)    # 12 is not square-free
        # The precision is checked first: 3004 = 4 * 751 is refused as
        # beyond it, not as a t that is not square-free.
        with pytest.raises(ValueError, match="beyond the form's precision"):
            square_class(delta3k, 3004)


class TestRPlusTot:
    """R_tot as the table reads it: counts over prefix's mask."""

    def test_delta_at_10(self, delta3k):
        assert prefix(delta3k, 10) == b"\x00" + b"\x01" * 10
        assert tally(delta3k, prefix, 10) == (3, 2)
        assert render_ratio(3, 3 + 2, 3) == "0.600"

    def test_g_at_10(self, g3k):
        assert tally(g3k, prefix, 10) == (1, 1)
        assert render_ratio(1, 1 + 1, 3) == "0.500"

    def test_ratio_consistency(self, delta3k):
        n_pos, n_neg = tally(delta3k, prefix, 1000)
        assert 0 <= n_pos <= n_pos + n_neg <= 1000
        rep = scan(delta3k, range(1, 1001))
        assert rep.sign_change_count <= n_pos + n_neg - 1

    def test_order_independence_of_counts(self, delta3k):
        idx = list(range(1, 501))
        random.Random(5).shuffle(idx)
        pos = sum(1 for n in idx if delta3k.coeffs[n] > 0)
        neg = sum(1 for n in idx if delta3k.coeffs[n] < 0)
        assert (pos, neg) == tally(delta3k, prefix, 500)

    def test_monotone_consistency(self, delta3k):
        small, large = signs.counts(delta3k, prefix(delta3k, 900), [300, 900])
        pos_tail = sum(1 for n in range(301, 901) if delta3k.coeffs[n] > 0)
        neg_tail = sum(1 for n in range(301, 901) if delta3k.coeffs[n] < 0)
        assert large == (small[0] + pos_tail, small[1] + neg_tail)
        short = scan(delta3k, range(1, 301))
        assert scan(delta3k, range(1, 901)).change_positions[
            :short.sign_change_count] == short.change_positions

    def test_zero_denominator_rejected(self, tmp_path, capsys):
        # No ratio exists without a nonzero entry; the table refuses it.
        f = artificial_form([0, 0, 0, 0])
        assert tally(f, prefix, 4) == (0, 0)
        src = tmp_path / "zero.txt"
        CoefficientFile("zero", f).write(str(src))
        assert main(["signs", "--in", str(src), "--X-list", "10,4"]) == 2
        assert capsys.readouterr() == (
            "", "error: X=10 exceeds precision 4\n")
        assert main(["signs", "--in", str(src), "--X-list", "4"]) == 2
        assert capsys.readouterr() == (
            "", "error: no nonzero entries up to X=4\n")


class TestRPlusFund:
    """R_fund as the table reads it: counts over fundamental's mask."""

    def test_delta_at_10(self, delta3k):
        # qualifying n: 1, 5, 8 (9 is not square-free, 4 = 4*1 is not
        # fundamental); positives are 1, 5
        assert selected(fundamental(delta3k, 10)) == [1, 5, 8]
        assert tally(delta3k, fundamental, 10) == (2, 1)
        assert render_ratio(2, 2 + 1, 3) == "0.667"

    def test_g_at_10_documented_indexing(self, g3k):
        # k odd indexes by -n fundamental: n = 3 (+1) and n = 4 (-1)
        assert selected(fundamental(g3k, 10)) == [3, 4, 7, 8]
        assert tally(g3k, fundamental, 10) == (1, 1)

    @given(X=st.integers(0, 3000), weight_num=st.sampled_from([3, 13]))
    @settings(max_examples=60, deadline=None)
    def test_sieve_matches_trial_division(self, X, weight_num):
        # k = 1 indexes by -n, k = 6 by n; the n the sieve's mask selects
        # against the per-n rule with trial division.
        f = artificial_form([0] * 3000, weight_num=weight_num)
        sign = -1 if f.k % 2 else 1
        mask = fundamental(f, X)
        assert len(mask) == X + 1
        assert selected(mask) == [n for n in range(1, X + 1)
                                  if is_fundamental_discriminant(sign * n)]

    def test_restriction_subset_of_tot(self, g3k):
        assert sum(tally(g3k, fundamental, 1000)) <= \
            sum(tally(g3k, prefix, 1000))


# a(n) for the count tests: mostly small, with zeros, and some past 64 bits.
VALUES = st.sampled_from([0, 0, 0, 1, -1]) | st.integers(-10 ** 20, 10 ** 20)


class TestCounts:
    """The table's counts against the literal oracle over the n <= X that
    each mask selects, and its refusal of an X with no nonzero entry
    against those oracle counts.  a(0) is drawn nonzero: no mask selects
    it."""

    @staticmethod
    def _draw(data):
        values = data.draw(st.lists(VALUES, min_size=1, max_size=60))
        f = artificial_form(values, a0=data.draw(VALUES.filter(bool)),
                            weight_num=data.draw(st.sampled_from([3, 13])))
        xs = data.draw(st.lists(st.integers(1, f.prec), min_size=1,
                                max_size=8))
        return f, xs

    @staticmethod
    def _oracle(f, xs):
        """sign_scan's (n_pos, n_neg) at each X of xs, per mask."""
        out = []
        for index_set in (prefix, fundamental):
            ns = selected(index_set(f, max(xs)))
            out.append([sign_scan(f.coeffs, [n for n in ns if n <= X])[:2]
                        for X in xs])
        return out

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_counts_are_scans(self, data):
        f, xs = self._draw(data)
        got = [signs.counts(f, index_set(f, max(xs)), xs)
               for index_set in (prefix, fundamental)]
        assert got == self._oracle(f, xs)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_the_table_refuses_at_the_x_scan_finds_empty(self, data):
        f, xs = self._draw(data)
        rows, empty = [], None
        for X, (tot, fund) in zip(xs, zip(*self._oracle(f, xs))):
            if sum(tot) == 0 or sum(fund) == 0:
                empty = X
                break
            rows.append("%d,%s\n" % (X, ",".join(
                render_ratio(n_pos, n_pos + n_neg, 3 if X <= 1000 else 6)
                for n_pos, n_neg in (tot, fund))))
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "f.txt")
            CoefficientFile("f", f).write(src)
            err, out = io.StringIO(), io.StringIO()
            with redirect_stderr(err), redirect_stdout(out):
                rc = main(["signs", "--in", src,
                           "--X-list", ",".join(map(str, xs))])
        if empty is None:
            assert (rc, err.getvalue()) == (0, "")
            assert out.getvalue() == "X,R_tot,R_fund\n" + "".join(rows)
        else:
            assert (rc, out.getvalue()) == (2, "")
            assert err.getvalue() == ("error: no nonzero entries up to X=%d\n"
                                      % empty)

    def test_a0_is_never_counted(self):
        # theta^3 has a(0) = 1 and no negative a(n); with -7 in place of
        # a(0), neither statistic's counts move.
        f = expression_form("theta(1)^3", 200)
        assert f.coeffs[0] == 1
        g = Form(weight_num=f.weight_num, level=f.level,
                 character=f.character, coeffs=[-7] + f.coeffs[1:])
        xs = [1, 4, 50, 200, 4]
        for index_set in (prefix, fundamental):
            got = signs.counts(f, index_set(f, 200), xs)
            assert signs.counts(g, index_set(g, 200), xs) == got
            assert all(n_neg == 0 for _, n_neg in got)
            assert got[3][0] > 0


class TestRenderRatio:
    def test_half_away_from_zero(self):
        assert render_ratio(1, 8, 2) == "0.13"
        assert render_ratio(1, 4, 1) == "0.3"
        assert render_ratio(2, 3, 3) == "0.667"
        assert render_ratio(1, 2, 0) == "1"
        assert render_ratio(0, 1, 6) == "0.000000"
        assert render_ratio(501643, 1000000, 6) == "0.501643"


class TestDprimeFilter:
    def test_known_values(self):
        T = [1, 2, 3, 5, 6, 7, 10]
        assert dprime_filter(T, [3], [1]) == [1, 7, 10]
        assert dprime_filter(T, [], []) == T
        assert dprime_filter([3, 6], [3], [1]) == []
        # (t/2) has period 8: 1 at t = 1, 7 mod 8, -1 at t = 3, 5 mod 8
        assert dprime_filter(range(-9, 10), [2], [1]) == [-9, -7, -1, 1, 7, 9]

    def test_two_conditions(self):
        T = list(range(1, 50))
        got = dprime_filter(T, [3, 5], [1, -1])
        for t in got:
            assert kronecker(t, 3) == 1 and kronecker(t, 5) == -1

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            dprime_filter([1], [3, 3], [1, 1])

    @given(st.lists(st.integers(-500, 5000), max_size=300),
           st.lists(st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13]),
                              st.sampled_from([-1, 0, 1])),
                    max_size=4, unique_by=lambda pe: pe[0]))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_t_kronecker(self, T, conditions):
        # T holds repeats, negatives and 0.
        primes = [p for p, _ in conditions]
        eps = [e for _, e in conditions]
        assert dprime_filter(iter(T), primes, eps) == [
            t for t in T
            if all(kronecker(t, p) == e for p, e in conditions)]

    def test_keeps_its_refusals(self):
        with pytest.raises(ValueError, match="equal length"):
            dprime_filter([1], [3], [1, -1])
        with pytest.raises(ValueError, match="9 is not prime"):
            dprime_filter([1], [9], [1])


class TestSquarefreeSurvey:
    def test_delta_listed_entries(self, delta3k):
        hits = first_nonzero(delta3k, (1, 5, 13, 17))
        assert hits == {1: 1, 5: 5, 13: 13, 17: 17}
        assert [delta3k.coeffs[n] for n in hits.values()] == \
            [1, 120, -1320, -240]

    def test_g_listed_entries(self, g3k):
        # t = 1: a(1) = 0, the first nonzero in the class is a(4)
        hits = first_nonzero(g3k, (3, 11, 15, 1))
        assert hits == {3: 3, 11: 11, 15: 15, 1: 4}
        assert [g3k.coeffs[n] for n in hits.values()] == [1, -1, 1, -1]

    def test_survey_report(self, delta3k):
        first = first_nonzero(delta3k, range(1, 21))
        ts, rep = list(first), scan(delta3k, first.values())
        # every square-free t <= 20 has a nonzero a(t n^2) within 3000
        assert ts == [t for t in range(1, 21) if is_squarefree(t)]
        values = {t: delta3k.coeffs[n] for t, n in first.items()}
        assert {1: 1, 5: 120, 13: -1320, 17: -240}.items() <= values.items()
        assert rep.entries == len(ts)
        assert rep.sign_change_count >= 1
        # a Kronecker-class filter keeps its t in order, square-free only
        kept = list(first_nonzero(delta3k, dprime_filter(range(1, 21),
                                                         [3], [1])))
        assert kept == [t for t in ts if kronecker(t, 3) == 1]


class TestProp2Empirical:
    def test_witnesses_exist(self, delta3k, g3k):
        for f in (delta3k, g3k):
            for p in (3, 5, 7):
                found = prop2_witnesses(f, p, 3000)
                assert all(n is not None for n in found.values()), (f, p)
                for (eps, s), n in found.items():
                    assert kronecker(n, p) == eps
                    assert (1 if f.coeffs[n] > 0 else -1) == s

    def test_pinned_witnesses(self, delta3k):
        found = prop2_witnesses(delta3k, 3, 10_000)
        assert found[(-1, 1)] == 5     # a(5) = 120 > 0, (5/3) = -1
        assert found[(-1, -1)] == 8    # a(8) = -240 < 0, (8/3) = -1


class TestSignChangesBeyondPrecision:
    def test_power_sequence_changes_sign(self, delta3k):
        # along 9^m the sequence goes 1, 9, -174879, ...: a sign change
        # appears by m = 2, and the verified recurrence, continued past
        # the precision, keeps it visible
        for p in (3, 5):
            rep = hecke.eigen_report(delta3k, p)
            assert rep.is_eigen
            seq = [delta3k.coeffs[n] for n in prime_powers(delta3k, 1, p)]
            ext = recurrence_oracle(seq[0], seq[1], rep.lam,
                                    p ** (2 * delta3k.k - 1), 7)
            assert ext[:len(seq)] == seq
            count, _ = sign_changes(ext)
            assert count >= 1, p
