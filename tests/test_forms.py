import math

import pytest

from qsigns import forms
from qsigns import qseries as qs
from qsigns.arith import DirichletCharacter
from qsigns.forms import (NAMED, Form, delta_form, g_form, integer_table,
                          plus_space_check, ramanujan_delta, x0_11_form)
from qsigns.formspec import evaluate, parse_formspec

from oracles import tau_list, x0_11_list

# Printed leading expansions of the two half-integral forms.
DELTA_COEFFS = {1: 1, 4: -56, 5: 120, 8: -240, 9: 9,
                12: 1440, 13: -1320, 16: -704, 17: -240}
G_COEFFS = {3: 1, 4: -1, 11: -1, 12: -1, 15: 1, 16: 2,
            20: 1, 23: -1, 27: -1, 31: -1, 44: 1, 55: 1}


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
        assert NAMED["delta"][1]

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
        assert g.level == 44 and NAMED["g"][1]

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
            seen.append((min(a.prec, b.prec), a.density, b.density))
            return mul(a, b)

        monkeypatch.setattr(qs, "mul", spy)
        assert forms._named("g", 400).coeffs == want
        assert [s for s in seen if s[0] > 401] == [(1604, "sparse", "sparse")]
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
        form, offset = forms.expression_form(
            "theta(1)*psi(2)^4*(theta(1)^8 - 18*theta(1)^4*psi(2)^4"
            " + 32*psi(2)^8)", 10 ** 4)
        assert (form.weight_num, form.level, offset) == (13, 4, 1)
        assert form.coeffs == delta_form(10 ** 4).coeffs


class TestRamanujanDelta:
    def test_against_literal_expansion(self):
        D = ramanujan_delta(60)
        assert D.coeffs == tau_list(60)[:61]

    def test_pinned_values(self):
        D = ramanujan_delta(3)
        assert (D.coeffs[1], D.coeffs[2], D.coeffs[3]) == (1, -24, 252)

    def test_tau_multiplicative(self, delta_wt12):
        D = delta_wt12
        for m in range(2, 301):
            for n in range(2, 301 // m + 1):
                if math.gcd(m, n) == 1 and m * n <= 300:
                    assert D.coeffs[m * n] == D.coeffs[m] * D.coeffs[n], (m, n)


class TestX011:
    def test_against_literal_expansion(self):
        G = x0_11_form(40)
        assert G.coeffs == x0_11_list(40)[:41]

    def test_pinned_values(self):
        G = x0_11_form(11)
        assert [G.coeffs[n] for n in range(1, 8)] == [1, -2, -1, 2, 1, 2, -2]
        assert G.coeffs[11] == 1


class TestFinalization:
    def test_plus_space_violation_detected(self, monkeypatch):
        coeffs = [0] * 101
        coeffs[1], coeffs[2] = 1, 1
        f = Form(weight_num=13, level=4,
                 character=DirichletCharacter.trivial(4), coeffs=coeffs)
        assert plus_space_check(f) == [2]
        # theta^13 has weight 13/2 and a(2) = r_13(2) != 0: a named form
        # flagged for the plus space is refused, an unflagged one is not.
        monkeypatch.setitem(NAMED, "flagged", ("theta(1)^13", True))
        monkeypatch.setitem(NAMED, "unflagged", ("theta(1)^13", False))
        with pytest.raises(ValueError, match="fails at n=2"):
            forms._named("flagged", 20)
        assert plus_space_check(forms._named("unflagged", 20))[0] == 2

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

    def test_integer_table_rejects_fractions(self):
        # theta(1) + 3 theta(4) = 4 + 2q + 8q^4: den 4 leaves a fraction
        # at q^1, den 2 divides every coefficient, a(0) included
        even = qs.add(qs.theta(1, 6), qs.scalar_mul(qs.theta(4, 6), 3))
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

    def test_integer_table_rejects_fractional_offset(self):
        with pytest.raises(ValueError):
            integer_table(qs.eta(1, 6), 5)
