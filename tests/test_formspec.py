from fractions import Fraction

import pytest

from qsigns import formspec as fs
from qsigns.formspec import (Add, Diff, E4, Eta, FormSpecError, Mul, Pow,
                             Scale, Sub, Theta, ThetaPsi, U, evaluate,
                             formal_weight, level_hint, parse_formspec)

from oracles import tau_list

G_SPEC = "theta(11)*eta(2)*eta(22)"
DELTA_SPEC = "1/4*(2*E4(4)*D(theta(1)) - 1/4*D(E4(4))*theta(1))"


class TestParse:
    def test_eta_power(self):
        assert parse_formspec("eta(1)^24") == Pow(Eta(1), 24)

    def test_g_definition(self):
        got = parse_formspec("U(4, %s)" % G_SPEC)
        assert got == U(4, Mul(Mul(Theta(11), Eta(2)), Eta(22)))

    def test_rational_scale_and_parens(self):
        got = parse_formspec("1/4*(theta(1) + eta(4))")
        assert got == Scale(Fraction(1, 4), Add(Theta(1), Eta(4)))

    def test_difference_and_precedence(self):
        got = parse_formspec("theta(1)*theta(2) - E4(1)")
        assert got == Sub(Mul(Theta(1), Theta(2)), E4(1))

    def test_thetapsi_signed_argument(self):
        assert parse_formspec("thetapsi(-4, 1)") == ThetaPsi(-4, 1)

    def test_nested_operators(self):
        got = parse_formspec("D(U(2, theta(1)))")
        assert got == Diff(U(2, Theta(1)))

    def test_whitespace_insensitive(self):
        assert parse_formspec(" eta( 2 ) ^ 3 ") == Pow(Eta(2), 3)

    def test_unbalanced_paren_reports_offset(self):
        text = "1/4*(2*E4(4)*D(theta(1)) - "
        with pytest.raises(FormSpecError) as err:
            parse_formspec(text)
        assert err.value.pos == len(text)

    def test_unknown_name(self):
        with pytest.raises(FormSpecError) as err:
            parse_formspec("zeta(1)")
        assert err.value.pos == 0

    def test_dilation_range(self):
        with pytest.raises(FormSpecError):
            parse_formspec("eta(0)")
        with pytest.raises(FormSpecError):
            parse_formspec("U(0, eta(1))")

    def test_trailing_junk(self):
        with pytest.raises(FormSpecError):
            parse_formspec("eta(1))")

    def test_bare_number_is_not_a_factor(self):
        with pytest.raises(FormSpecError):
            parse_formspec("3 + eta(1)")

    def test_zero_denominator(self):
        with pytest.raises(FormSpecError):
            parse_formspec("1/0*eta(1)")


class TestEvaluate:
    def test_eta24(self):
        s = evaluate(parse_formspec("eta(1)^24"), 5)
        assert [s.coefficient(n) for n in range(1, 5)] == tau_list(5)[1:5]

    def test_e4(self):
        s = evaluate(parse_formspec("E4(1)"), 3)
        assert s.dense_list() == [1, 240, 2160]

    def test_theta(self):
        s = evaluate(parse_formspec("theta(1)"), 2)
        assert s.dense_list() == [1, 2]

    def test_u_gets_extra_working_precision(self):
        s = evaluate(parse_formspec("U(4, theta(1))"), 10)
        assert s.prec >= 10
        assert [s.coefficient(n) for n in (0, 1, 4, 9)] == [1, 2, 2, 2]

    def test_fractional_offset_into_u_rejected(self):
        with pytest.raises(ValueError):
            evaluate(parse_formspec("U(2, eta(1))"), 4)

    def test_dilated_e4(self):
        s = evaluate(parse_formspec("E4(4)"), 9)
        assert s.dense_list() == [1, 0, 0, 0, 240, 0, 0, 0, 2160]


class TestMetadataHints:
    def test_weights(self):
        assert formal_weight(parse_formspec("eta(1)^24")) == 12
        assert formal_weight(parse_formspec(DELTA_SPEC)) == Fraction(13, 2)
        assert formal_weight(parse_formspec("U(4, %s)" % G_SPEC)) == \
            Fraction(3, 2)
        assert formal_weight(parse_formspec("thetapsi(-4, 1)")) == \
            Fraction(3, 2)

    def test_mixed_weight_sum_rejected(self):
        with pytest.raises(ValueError):
            formal_weight(parse_formspec("eta(1) + E4(1)"))

    def test_level_hints(self):
        assert level_hint(parse_formspec("eta(1)^24")) == 1
        assert level_hint(parse_formspec(DELTA_SPEC)) == 4
        assert level_hint(parse_formspec("U(4, %s)" % G_SPEC)) == 44
        assert level_hint(parse_formspec("theta(1)")) == 4
        assert level_hint(parse_formspec("theta(3)*eta(2)")) == 12
        assert level_hint(parse_formspec("thetapsi(-3, 2)")) == 72
