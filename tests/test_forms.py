import math
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsigns import forms
from qsigns import formspec as fs
from qsigns import qseries as qs
from qsigns.arith import DirichletCharacter
from qsigns.forms import (NAMED, Form, delta_form, expression_form, g_form,
                          integer_table, plus_space_check)
from qsigns.formspec import evaluate, parse_formspec

from oracles import tau_list, ternary_theta, x0_11_list

# Printed leading expansions of the two half-integral forms.
DELTA_COEFFS = {1: 1, 4: -56, 5: 120, 8: -240, 9: 9,
                12: 1440, 13: -1320, 16: -704, 17: -240}
G_COEFFS = {3: 1, 4: -1, 11: -1, 12: -1, 15: 1, 16: 2,
            20: 1, 23: -1, 27: -1, 31: -1, 44: 1, 55: 1}

# g = (theta_Q1 - theta_Q2) / 2 for the ternary forms
#   Q1 = 3x^2 + 15y^2 + 15z^2 + 14yz - 2xz + 2xy,
#   Q2 = 4x^2 + 11y^2 + 12z^2 - 4xz,
# the two classes for p = 11 in Gross, "Heights and special values of
# L-series" (1987).  Splitting 4(x^2 + xy + 3y^2) = (2x + y)^2 + 11y^2
# by the parity of 2x + y gives theta_Q2; 3 Q1 = (3x + y - z)^2
# + 44(y^2 + yz + z^2), split by y - z mod 3 and the same parity trick,
# gives theta_Q1(3z), so U_3 of the first sum is 2 theta_Q1.
Q1_GRAM = ((3, 1, -1), (1, 15, 7), (-1, 7, 15))
Q2_GRAM = ((4, 0, -2), (0, 11, 0), (-2, 0, 12))
A44 = ("(theta(44)*theta(132)"
       " + (theta(11)-theta(44))*(theta(33)-theta(132)))")
A132 = ("(theta(132)*theta(396)"
        " + (theta(33)-theta(132))*(theta(99)-theta(396)))")
TWICE_THETA_Q1 = "U(3, 2*%s*theta(9) + (%s - %s)*(theta(1) - theta(9)))" % (
    A132, A44, A132)
THETA_Q2 = ("theta(11)*(theta(4)*theta(44)"
            " + (theta(1)-theta(4))*(theta(11)-theta(44)))")
G_TERNARY = "1/4*%s - 1/2*%s" % (TWICE_THETA_Q1, THETA_Q2)


class TestDeltaForm:
    def test_printed_expansion(self):
        # the printed list is complete through q^17; beyond that only the
        # support condition is pinned
        d = delta_form(20)
        for n in range(1, 18):
            assert d.coeffs[n] == DELTA_COEFFS.get(n, 0), n
        for n in range(18, 21):
            if n % 4 in (2, 3):
                assert d.coeffs[n] == 0, n

    def test_metadata(self):
        d = delta_form(10)
        assert d.weight_num == 13 and d.k == 6
        assert d.level == 4 and d.character.is_trivial

    def test_plus_space_support(self):
        assert plus_space_check(delta_form(100)) == []


class TestGForm:
    def test_printed_expansion(self):
        # the printed list is complete through q^55
        g = g_form(60)
        for n in range(1, 56):
            assert g.coeffs[n] == G_COEFFS.get(n, 0), n

    def test_metadata(self):
        g = g_form(10)
        assert g.weight_num == 3 and g.k == 1
        assert g.level == 44

    def test_plus_space_support(self):
        # k odd: support is n = 0, 3 mod 4
        g = g_form(100)
        assert plus_space_check(g) == []
        for n in range(1, 101):
            if n % 4 in (1, 2):
                assert g.coeffs[n] == 0, n

    def test_u4_runs_on_the_output_prec(self, monkeypatch):
        # U_4 of the product is built from 4-sections at 401 positions;
        # only the eta(2) eta(22) pair loop runs at the 4x prec of 1604.
        seen, mul, want = [], qs.mul, g_form(400).coeffs

        def spy(a, b):
            seen.append((min(a.prec, b.prec), a.nnz, b.nnz))
            return mul(a, b)

        etas = (1604, qs.eta(2, 1604).nnz, qs.eta(22, 1604).nnz)
        monkeypatch.setattr(qs, "mul", spy)
        assert forms._named("g", 400).coeffs == want
        assert [s for s in seen if s[0] > 401] == [etas]
        assert any(s[0] == 401 for s in seen)

    def test_dsl_route_agrees_bit_exactly(self):
        prec = 120
        g = g_form(prec)
        series, den = evaluate(
            parse_formspec("1/2*U(4, theta(11)*eta(2)*eta(22))"), 4 * prec)
        assert den == 2
        assert integer_table(series, prec, den=den) == g.coeffs
        # without the normalization the raw operator image is exactly 2x
        raw, den = evaluate(parse_formspec("U(4, theta(11)*eta(2)*eta(22))"),
                            4 * prec)
        assert den == 1
        assert integer_table(raw, prec) == [2 * c for c in g.coeffs]


class TestGTernaryRoute:
    # The expression's header declares another level than g's, so only
    # the tables are compared.
    def test_table_equals_g(self):
        form = forms.expression_form(G_TERNARY, 10 ** 4)
        assert form.coeffs == g_form(10 ** 4).coeffs

    @pytest.mark.parametrize("spec, gram, times", [
        (TWICE_THETA_Q1, Q1_GRAM, 2), (THETA_Q2, Q2_GRAM, 1)],
        ids=["Q1", "Q2"])
    def test_each_part_is_a_ternary_theta(self, spec, gram, times):
        form = forms.expression_form(spec, 2000)
        assert form.coeffs == [times * r for r in ternary_theta(gram, 2001)]


class TestDeltaDslRoute:
    def test_constructor_matches_expression(self):
        prec = 60
        d = delta_form(prec)
        series, den = evaluate(
            parse_formspec("1/4*(2*E4(4)*D(theta(1)) - 1/4*D(E4(4))*theta(1))"),
            prec + 1)
        assert den == 16
        assert integer_table(series, prec, den=den) == d.coeffs

    def test_second_construction(self):
        # delta = theta F (theta^8 - 18 theta^4 F + 32 F^2), with
        # F = q psi(q^2)^4 (M_{13/2}(4) is spanned by theta^(13-4j) F^j).
        # Nine of its products run on the decimal NTT and one on the row
        # pass; delta's own expression runs its two on the row pass.
        form = forms.expression_form(
            "theta(1)*psi(2)^4*(theta(1)^8 - 18*theta(1)^4*psi(2)^4"
            " + 32*psi(2)^8)", 10 ** 4)
        assert (form.weight_num, form.level) == (13, 4)
        assert form.coeffs == delta_form(10 ** 4).coeffs


def _plans(spec, prec):
    """The (path, stride) _plan gives each product of a build, in order."""
    seen, plan = [], qs._plan

    def spy(a, b):
        seen.append(plan(a, b))
        return seen[-1]
    with mock.patch.object(qs, "_plan", spy):
        forms.expression_form(spec, prec)
    return seen


class TestPlan:
    """The product paths of the named forms at the benchmark's sizes."""

    @pytest.mark.parametrize("name, prec, want", [
        # Both of delta's products: theta(1) or its derivative as the row
        # source over E4(4) or its derivative, on the stride 4.
        ("delta", 100_000, [("rows", 4), ("rows", 4)]),
        # g: the eta(2) eta(22) pair loop at 4x prec, then the one nonzero
        # 4-section product, a theta(11) section over an eta section.
        ("g", 100_000, [("pairs", 1), ("rows", 1)]),
        # Delta = eta^24: the square of Jacobi's eta^3 by pairs, then two
        # dense squarings.
        ("Delta", 20_000, [("pairs", 1), ("ntt", 1), ("ntt", 1)]),
        # G11: eta(1)^2 and eta(11)^2 by pairs, their product on _ntt (it
        # took 0.93 s on the row pass against 0.29 s).
        ("G11", 100_000, [("pairs", 1), ("pairs", 1), ("ntt", 1)]),
        ("E4(1)^2", 7_000, [("ntt", 1)])])
    def test_named_shapes(self, name, prec, want):
        assert _plans(NAMED.get(name, name), prec) == want


class TestSharedSubtrees:
    def test_delta_builds_e4_and_theta_once(self):
        with mock.patch.object(qs, "eisenstein_e4",
                               wraps=qs.eisenstein_e4) as e4, \
                mock.patch.object(qs, "theta", wraps=qs.theta) as theta:
            want = delta_form(300).coeffs
        assert e4.call_count == theta.call_count == 1
        # A subtree asked for once is not kept: each eta of g is built
        # once as it is.
        with mock.patch.object(qs, "eta", wraps=qs.eta) as eta:
            g_form(300)
        assert eta.call_count == 2
        assert want == forms.expression_form(NAMED["delta"], 300).coeffs

    def test_a_repeated_subtree_is_dropped_after_its_last_use(self):
        # theta(2) is asked for three times at need 5 and once at 10.
        # Each pair's value is a fresh object watched through a weakref:
        # once a value's asks are used up, it is dead at every later build
        # and after evaluate returns.
        node = parse_formspec("theta(2)*E4(1) + D(theta(2))*theta(2)"
                              " + U(2, theta(2)*theta(1))")
        schedule = fs._schedule(node, 5)
        assert schedule[(parse_formspec("theta(2)"), 5)][0] == 3
        assert schedule[(parse_formspec("theta(2)"), 10)][0] == 1
        built, used = {}, dict.fromkeys(schedule, 0)

        class Value:
            pass

        def alive_after_last_ask():
            return [pair for pair, ref in built.items()
                    if used[pair] == schedule[pair][0] and ref() is not None]

        def value(x, need, terms):
            assert alive_after_last_ask() == []
            asked = [f for _, _, factors in schedule[x, need][1]
                     for f in factors]
            assert [v for _, _, factors in terms for v, _ in factors] == [
                built[a]() for a in asked]
            for pair in asked:
                used[pair] += 1
            made = Value()
            built[x, need] = weakref.ref(made)
            return made, 1

        with mock.patch.object(fs, "_value", value):
            result, _ = fs.evaluate(node, 5)
        assert alive_after_last_ask() == []
        assert used == {pair: asks for pair, (asks, _) in schedule.items()
                        } | {(node, 5): 0}
        assert result is built[node, 5]()

    def test_each_nodes_terms_are_read_once(self):
        # _schedule reads each pair's terms once, and the steps take them
        # from it: evaluate reads them once per (node, need) pair, and
        # signature, whose schedule is at need 0, once per node.
        node = parse_formspec("D(theta(2))*theta(2) + 2*U(2, theta(2)"
                              "*D(theta(1))) - U(2, psi(4)*D(psi(4)))"
                              " + 1/2*D(theta(2))*(3*theta(1))")
        read, busy, terms = [], [], fs._terms

        def spy(x):
            assert not busy, "%s reads terms" % busy[-1]
            read.append(x)
            return terms(x)

        def step(real):
            def wrapped(*args):
                busy.append(real.__name__)
                try:
                    return real(*args)
                finally:
                    busy.pop()
            return wrapped

        with mock.patch.object(fs, "_terms", spy), \
                mock.patch.object(fs, "_value", step(fs._value)), \
                mock.patch.object(fs, "_signature", step(fs._signature)):
            nodes = [x for x, _ in fs._schedule(node, 5)]
            assert len(set(nodes)) < len(nodes)
            read.clear()
            fs.evaluate(node, 5)
            assert Counter(read) == Counter(nodes)
            read.clear()
            fs.signature(node)
            assert Counter(read) == Counter(set(nodes))


class TestRamanujanDelta:
    def test_against_literal_expansion(self):
        D = expression_form(NAMED["Delta"], 60)
        assert D.coeffs == tau_list(60)[:61]

    def test_pinned_values(self):
        D = expression_form(NAMED["Delta"], 3)
        assert (D.coeffs[1], D.coeffs[2], D.coeffs[3]) == (1, -24, 252)

    def test_tau_multiplicative(self, delta_wt12):
        D = delta_wt12
        for m in range(2, 301):
            for n in range(2, 301 // m + 1):
                if math.gcd(m, n) == 1 and m * n <= 300:
                    assert D.coeffs[m * n] == D.coeffs[m] * D.coeffs[n], (m, n)


class TestX011:
    def test_against_literal_expansion(self):
        G = expression_form(NAMED["G11"], 40)
        assert G.coeffs == x0_11_list(40)[:41]

    def test_pinned_values(self):
        G = expression_form(NAMED["G11"], 11)
        assert [G.coeffs[n] for n in range(1, 8)] == [1, -2, -1, 2, 1, 2, -2]
        assert G.coeffs[11] == 1


class TestFinalization:
    def test_plus_space_violation_detected(self, monkeypatch):
        coeffs = [0] * 101
        coeffs[1], coeffs[2] = 1, 1
        f = Form(weight_num=13, level=4,
                 character=DirichletCharacter.trivial(4), coeffs=coeffs)
        assert plus_space_check(f) == [2]
        # theta^13 has weight 13/2 and a(2) = r_13(2) != 0: delta's
        # constructor refuses it in place of delta's expression.
        monkeypatch.setitem(NAMED, "delta", "theta(1)^13")
        with pytest.raises(ValueError, match="fails at n=2"):
            delta_form(20)

    @pytest.mark.parametrize("weight_num, level", [(13, 0), (13, -4),
                                                   (24, 0), (24, -1)])
    def test_level_must_be_positive(self, weight_num, level):
        with pytest.raises(ValueError, match="level must be positive"):
            Form(weight_num=weight_num, level=level,
                 character=DirichletCharacter.trivial(4), coeffs=[0, 1])

    def test_prec_is_the_table_length_minus_one(self):
        f = Form(weight_num=24, level=1,
                 character=DirichletCharacter.trivial(1), coeffs=[0, 1, -24])
        assert f.prec == 2 and f.coeffs[2] == -24

    def test_level_must_be_divisible_by_4(self):
        with pytest.raises(ValueError):
            Form(weight_num=3, level=11,
                 character=DirichletCharacter.trivial(11),
                 coeffs=[0, 0])

    @pytest.mark.parametrize("level, top, modulus", [(4, 5, 5), (12, 8, 8),
                                                     (44, -3, 3)])
    def test_character_modulus_must_divide_the_level(self, level, top,
                                                     modulus):
        with pytest.raises(ValueError, match="character modulus %d does not "
                           "divide the level %d" % (modulus, level)):
            Form(weight_num=3, level=level,
                 character=DirichletCharacter(top=top, modulus=modulus),
                 coeffs=[0, 1])

    def test_integer_table_rejects_fractions(self):
        # theta(1) + 3 theta(4) = 4 + 2q + 8q^4: den 4 leaves a fraction
        # at q^1, den 2 divides every coefficient, a(0) included
        even = qs.lincomb([(1, qs.theta(1, 6)), (3, qs.theta(4, 6))])
        with pytest.raises(ValueError,
                           match="non-integral coefficient 1/2 at q\\^1$"):
            integer_table(even, 5, den=4)
        assert integer_table(even, 5, den=2) == [2, 1, 0, 0, 4, 0]
        # a(0) = 1 is read like every other entry
        with pytest.raises(ValueError,
                           match="non-integral coefficient 1/2 at q\\^0$"):
            integer_table(qs.theta(1, 6), 5, den=2)
        # the same through the evaluator
        series, den = evaluate(
            parse_formspec("-1/2*(theta(1) + 3*theta(4))"), 6)
        assert integer_table(series, 5, den=den) == [-2, -1, 0, 0, -4, 0]

    @given(weight_num=st.sampled_from([1, 3, 5, 13]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_plus_space_check_is_the_per_index_definition(self, weight_num,
                                                          data):
        # k = weight_num // 2 of both parities; violations planted on any
        # residue, so some are allowed entries and some are not.
        prec = data.draw(st.integers(0, 60))
        coeffs = [0] * (prec + 1)
        for n in data.draw(st.sets(st.integers(0, prec))):
            coeffs[n] = data.draw(st.integers(-5, 5).filter(bool))
        f = Form(weight_num=weight_num, level=4,
                 character=DirichletCharacter.trivial(4), coeffs=coeffs)
        sign = (-1) ** f.k
        assert plus_space_check(f) == [
            n for n in range(1, prec + 1)
            if (sign * n) % 4 in (2, 3) and coeffs[n] != 0]

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_integer_table_names_the_first_fraction(self, data):
        # Several non-multiples of den planted in a window of multiples;
        # the error names the lowest exponent among those the table reads.
        den = data.draw(st.integers(2, 12))
        off = data.draw(st.integers(-3, 3))
        prec = data.draw(st.integers(max(0, off), 30))
        length = prec + 1 - off + data.draw(st.integers(0, 4))
        coeffs = [den * data.draw(st.integers(-9, 9)) for _ in range(length)]
        lo = max(0, off)
        planted = data.draw(st.sets(st.integers(lo, prec), min_size=1,
                                    max_size=5))
        for e in planted:
            coeffs[e - off] += data.draw(st.integers(1, den - 1))
        first = min(planted)
        with pytest.raises(ValueError) as err:
            integer_table(qs.QSeries(off, coeffs), prec, den)
        assert str(err.value) == "non-integral coefficient %s at q^%d" % (
            Fraction(coeffs[first - off], den), first)

    def test_integer_table_rejects_fractional_offset(self):
        with pytest.raises(ValueError):
            integer_table(qs.eta(1, 6), 5)

    def test_integer_table_refuses_a_series_short_of_prec(self):
        # a(5) lies past the series' last exponent 2: no zero is padded.
        with pytest.raises(forms.PrecisionError,
                           match=r"^q\^5 beyond precision$"):
            integer_table(qs.QSeries(0, [1, 2, 3]), 5)


def test_readme_library_example(capsys):
    # The README's Library block runs as written, and each line it prints
    # equals the comment on its print call, up to a parenthesised note.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    wanted = [line.split("# ", 1)[1] for line in block.splitlines()
              if line.startswith("print(")]
    assert len(printed) == len(wanted) == 4
    for got, want in zip(printed, wanted):
        assert want == got or want.startswith(got + " ("), (got, want)


def test_the_working_precision_cap_is_g_at_the_largest_prec():
    # Every named form builds at LARGE_PREC_CAP; g asks the most of any.
    needs = {name: fs.working_prec(parse_formspec(spec),
                                   forms.LARGE_PREC_CAP + 1)
             for name, spec in NAMED.items()}
    assert max(needs.values()) == needs["g"] == forms.WORKING_PREC_CAP
