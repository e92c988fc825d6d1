from math import isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsigns import arith, cli, hecke, signs
from qsigns.arith import DirichletCharacter, divisors, kronecker
from qsigns.forms import NAMED, Form, delta_form, expression_form, g_form

from oracles import (recurrence_oracle, shimura_lift_loop, t_integral_loop,
                     t_square_half_loop, u_loop)

# Frozen by the two-term recurrence a(9^(m)) = 252 a(..) - 3^11 a(..):
# a(81) = 252*9 - 177147 = -174879
# a(729) = 252*(-174879) - 177147*9 = -45663831
# a(6561) = 252*(-45663831) - 177147*(-174879) = 19472004801
DELTA_POWERS_OF_3 = [1, 9, -174879, -45663831, 19472004801]


def bound_verdicts(lam, p, k):
    """(deligne_ok, elementary_bound_ok) of the EigenReport with
    eigenvalue lam."""
    rep = hecke.extract_eigenvalue([0, 1], [0, lam], p, k)
    return rep.deligne_ok, rep.elementary_bound_ok


def powers(f, t, p):
    """a(t p^(2m)) along signs.prime_powers."""
    return [f.coeffs[n] for n in signs.prime_powers(f, t, p)]


def test_frozen_values_match_their_oracle():
    assert DELTA_POWERS_OF_3 == recurrence_oracle(1, 9, 252, 3 ** 11, 5)


# (level, top): the trivial character of the level (top None) and real
# characters (top/.) of period dividing it.
LEVEL_CHARACTERS = [(4, None), (44, None), (12, 12), (20, -20), (56, 8),
                    (4, -4), (60, -15), (12, -3)]


@st.composite
def lift_cases(draw):
    """A half-integral Form, k = 1..6, on the trivial character of a level
    divisible by 4 or a kronecker character whose modulus 4 divides, and
    a square-free t within its precision.  The table holds drawn ints,
    zeros among them, on t's square class and small ints elsewhere."""
    level, top = draw(st.sampled_from(LEVEL_CHARACTERS))
    character = (DirichletCharacter.trivial(level) if top is None
                 else DirichletCharacter(top=top, modulus=level))
    k = draw(st.integers(1, 6))
    prec = draw(st.integers(1, 3000))
    t = draw((st.integers(1, min(prec, 30)) | st.integers(1, prec))
             .filter(arith.is_squarefree))
    coeffs = [n % 7 - 3 for n in range(prec + 1)]
    size = isqrt(prec // t)
    values = draw(st.lists(st.integers(-2 ** 70, 2 ** 70) | st.just(0),
                           min_size=size, max_size=size))
    for m, v in enumerate(values, start=1):
        coeffs[t * m * m] = v
    return Form(2 * k + 1, level, character, coeffs), t


class TestShimuraLift:
    def test_leading_values(self, delta3k):
        lift = hecke.shimura_lift(delta3k, 1)
        assert lift.coeffs[1] == 1
        assert lift.coeffs[2] == -56
        assert lift.coeffs[3] == 252

    def test_result_metadata(self, delta3k):
        lift = hecke.shimura_lift(delta3k, 1)
        assert isinstance(lift, Form) and lift.k == 6
        assert lift.weight_num == 24 and lift.level == 2
        assert not lift.half_integral and lift.character.is_trivial
        assert lift.prec ** 2 <= delta3k.prec
        assert lift.prec == 54    # isqrt(3000)

    def test_lift_reads_only_its_window(self):
        lift = hecke.shimura_lift(delta_form(400), 1)
        assert lift.prec == 20    # isqrt(400)

    def test_first_entry_is_a_t(self, delta3k, g3k):
        for f, t in ((delta3k, 1), (delta3k, 5), (g3k, 3)):
            lift = hecke.shimura_lift(f, t)
            assert lift.coeffs[1] == f.coeffs[t]

    @pytest.mark.parametrize("t", [1, 5])
    def test_lift_uses_the_form_character(self, t):
        # Weight 13/2 on level 12 with the character (12/.): the lift's
        # twist is (12/d) ((-1)^6 t / d), not the trivial-character
        # (144 t / d), which differs at d = 5.
        chi = DirichletCharacter(top=12, modulus=12)
        f = Form(weight_num=13, level=12, character=chi,
                 coeffs=[0] + [(-1) ** n * (n % 7 + 1) for n in range(1, 901)])
        lift = hecke.shimura_lift(f, t)
        want = [sum(kronecker(12, d) * kronecker(t, d) * d ** 5
                    * f.coeffs[n * n * t // (d * d)] for d in divisors(n))
                for n in range(1, lift.prec + 1)]
        assert lift.coeffs[1:] == want and lift.prec == isqrt(900 // t)

    def test_odd_lift_values_are_tau(self, delta3k, delta_wt12):
        lift = hecke.shimura_lift(delta3k, 1)
        for n in range(1, lift.prec + 1, 2):
            assert lift.coeffs[n] == delta_wt12.coeffs[n], n

    @pytest.mark.parametrize("t", [3, 11, 15, 23])
    def test_odd_lift_values_of_g_are_g11(self, t):
        # g's lift at t is a weight-2 form on Gamma_0(22); at every odd n
        # it is a(t) times the newform eta(z)^2 eta(11z)^2 of level 11.
        g = g_form(40000)
        lift = hecke.shimura_lift(g, t)
        g11 = expression_form(NAMED["G11"], lift.prec + 1)
        assert lift.prec == isqrt(40000 // t) and g.coeffs[t]
        for n in range(1, lift.prec + 1, 2):
            assert lift.coeffs[n] == g.coeffs[t] * g11.coeffs[n], n

    def test_rejects_bad_t(self, delta3k):
        with pytest.raises(ValueError):
            hecke.shimura_lift(delta3k, 12)
        with pytest.raises(ValueError):
            hecke.shimura_lift(delta3k, 3001)

    def test_rejects_integral_weight(self, delta_wt12):
        with pytest.raises(ValueError):
            hecke.shimura_lift(delta_wt12, 1)

    @given(case=lift_cases())
    @settings(max_examples=150, deadline=None)
    def test_lift_equals_its_per_n_divisor_sum(self, case):
        f, t = case
        lift = hecke.shimura_lift(f, t)
        assert lift.coeffs == shimura_lift_loop(f, t)
        assert lift.weight_num == 4 * f.k and lift.level == f.level // 2

    def test_t_is_checked_once(self, delta3k, monkeypatch):
        # signs.square_class checks t; the lift's character does not.
        calls, is_squarefree = [], arith.is_squarefree

        def spy(n):
            calls.append(n)
            return is_squarefree(n)

        monkeypatch.setattr(signs, "is_squarefree", spy)
        monkeypatch.setattr(arith, "is_squarefree", spy)
        hecke.shimura_lift(delta3k, 5)
        assert calls == [5]

    @pytest.mark.parametrize("name, top, moduli, t", [
        ("psi", -3, (3, 36), 1), ("delta", 5, (5, 20), 1),
        ("delta", 5, (5, 20), 5)])
    def test_a_character_is_read_mod_the_level(self, name, top, moduli, t):
        # 4 divides the level, so chi vanishes at 2 as a character mod
        # the level even when its written modulus is odd: the lift is the
        # same for either modulus.  thetapsi(-3, 1) (weight 3/2, level 36)
        # with (-3/.) mod 3 has (-3/2) = -1, which no longer enters:
        # A(2) = a(4) and A(4) = a(16).  delta (k = 6) is put on level 20
        # with (5/.), where ((-1)^6 t / .) has an odd period at t = 1, 5.
        f = (expression_form("thetapsi(-3, 1)", 400) if name == "psi"
             else delta_form(400))
        forms = [Form(f.weight_num, lcm(f.level, m),
                      DirichletCharacter(top, m), f.coeffs) for m in moduli]
        lifts = [hecke.shimura_lift(g, t) for g in forms]
        assert lifts[0] == lifts[1]
        assert lifts[1].coeffs == shimura_lift_loop(forms[1], t)
        if name == "psi":
            assert lifts[0].coeffs[2] == f.coeffs[4] == -4
            assert lifts[0].coeffs[4] == f.coeffs[16] == 8


class TestTSquareHalf:
    def test_delta_p3_first_entry(self, delta3k):
        b = hecke.t_square_half(3, delta3k).coeffs
        assert b[1] == 252 * delta3k.coeffs[1] == 252

    def test_g_p3_at_3(self, g3k):
        b = hecke.t_square_half(3, g3k).coeffs
        assert b[3] == -1 * g3k.coeffs[3] == -1

    def test_delta_p5_eigenvalue(self, delta3k, delta_wt12):
        rep = hecke.eigen_report(delta3k, 5)
        assert rep.is_eigen and rep.lam == delta_wt12.coeffs[5] == 4830

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_theta_cubed_keeps_its_constant_term(self, p):
        # M_{3/2}(4) is spanned by theta^3, so T(p^2) theta^3 =
        # (1 + p) theta^3 at every index, a(0) = 1 included.
        f = expression_form("theta(1)^3", 300)
        b = hecke.t_square_half(p, f).coeffs
        assert b[0] == 1 + p
        assert b == [(1 + p) * c for c in f.coeffs[:len(b)]]

    def test_bad_prime_rejected(self, delta3k, g3k):
        with pytest.raises(ValueError):
            hecke.t_square_half(2, delta3k)
        with pytest.raises(ValueError):
            hecke.t_square_half(11, g3k)
        with pytest.raises(ValueError):
            hecke.t_square_half(9, delta3k)

    def test_eigen_for_all_checked_primes(self, delta3k, g3k, delta_wt12,
                                          g11_wt2):
        for p in (3, 5, 7, 13):
            rd = hecke.eigen_report(delta3k, p)
            assert rd.is_eigen and rd.lam == delta_wt12.coeffs[p], p
            rg = hecke.eigen_report(g3k, p)
            assert rg.is_eigen and rg.lam == g11_wt2.coeffs[p], p


class TestOperatorPrecision:
    def test_p_squared_beyond_precision_is_refused(self):
        with pytest.raises(ValueError,
                           match=r"p\^2 = 121 exceeds the precision 100"):
            hecke.t_square_half(11, delta_form(100))
        assert hecke.t_square_half(11, delta_form(121)).prec == 1

    def test_p_beyond_precision_is_refused(self):
        with pytest.raises(ValueError, match="p = 13 exceeds the precision 12"):
            hecke.t_integral(13, expression_form(NAMED["G11"], 12))
        g11 = expression_form(NAMED["G11"], 13)
        assert hecke.t_integral(13, g11).prec == 1

    def test_precision_is_checked_before_the_prime(self):
        # A p that is neither within the precision nor prime is refused
        # for the precision, the check that reads no trial division.
        with pytest.raises(ValueError,
                           match=r"p\^2 = 144 exceeds the precision 100"):
            hecke.t_square_half(12, delta_form(100))
        with pytest.raises(ValueError, match="p = 12 exceeds the precision 10"):
            hecke.t_integral(12, expression_form(NAMED["G11"], 10))

    def test_m_beyond_precision_is_refused(self):
        with pytest.raises(ValueError,
                           match="m = 101 exceeds the precision 100"):
            hecke.u_image(101, delta_form(100))
        assert hecke.u_image(100, delta_form(100)).prec == 1


class TestUImage:
    @pytest.mark.parametrize("spec", ["theta(1)", "theta(1)^3", "E4(1)",
                                      "eta(1)^24",
                                      "eta(2)*eta(22)*theta(11)"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 9])
    def test_agrees_with_the_expression(self, spec, m):
        # f | U_m and the expression U(m, f) have one level rule and the
        # same coefficients.
        f = expression_form(spec, 240)
        image = hecke.u_image(m, f)
        expr = expression_form("U(%d, %s)" % (m, spec), 240 // m)
        assert (image.weight_num, image.level, image.coeffs) == \
            (expr.weight_num, expr.level, expr.coeffs)

    def test_character(self, delta3k):
        assert hecke.u_image(3, delta3k).character == \
            DirichletCharacter(top=16 * 12, modulus=12)
        assert hecke.u_image(4, delta3k).character == \
            DirichletCharacter.trivial(4)
        # U_3 twists (192/.) by (12/.) to the square top 48^2: the
        # trivial character mod 12, on U_9's coefficients.
        u33 = hecke.u_image(3, hecke.u_image(3, delta3k))
        assert u33.character == DirichletCharacter.trivial(12)
        assert u33.coeffs == hecke.u_image(9, delta3k).coeffs
        tau = expression_form(NAMED["Delta"], 30)
        assert hecke.u_image(3, tau).character == \
            DirichletCharacter.trivial(3)

    @pytest.mark.parametrize("m", [0, -2])
    def test_index_must_be_positive(self, delta3k, m):
        with pytest.raises(ValueError, match="index must be positive"):
            hecke.u_image(m, delta3k)


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


@st.composite
def image_cases(draw):
    """A Form with an int table holding zeros, of either weight, on a
    trivial or a kronecker character, and the operator, its prime or
    index, and the oracle to check it against."""
    level, top = draw(st.sampled_from(LEVEL_CHARACTERS))
    character = (DirichletCharacter.trivial(level) if top is None
                 else DirichletCharacter(top=top, modulus=level))
    half = draw(st.booleans())
    k = draw(st.integers(1, 5))
    prec = draw(st.integers(1, 700))
    coeffs = draw(st.lists(st.integers(-2 ** 70, 2 ** 70) | st.just(0),
                           min_size=prec + 1, max_size=prec + 1))
    f = Form(2 * k + 1 if half else 4 * k, level, character, coeffs)
    op = draw(st.sampled_from(["hecke", "u"]))
    if op == "u":
        m = draw(st.integers(1, prec))
        return hecke.u_image, m, f, u_loop
    q = 2 if half else 1
    primes = [p for p in PRIMES if level % p and p ** q <= prec]
    if not primes:
        m = draw(st.integers(1, prec))
        return hecke.u_image, m, f, u_loop
    p = draw(st.sampled_from(primes))
    if half:
        return hecke.t_square_half, p, f, t_square_half_loop
    return hecke.t_integral, p, f, t_integral_loop


class TestImageRule:
    @given(case=image_cases())
    @settings(max_examples=150, deadline=None)
    def test_operators_equal_their_per_n_loops(self, case):
        operator, p, f, loop = case
        image = operator(p, f)
        assert image.coeffs == loop(p, f)
        assert image.weight_num == f.weight_num

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_twist_divisible_and_not_divisible_by_p(self, delta3k, g3k, p):
        # prec // p^2 >= p, so n runs over multiples of p and of p^2 and
        # over every nonzero residue.
        for f in (delta3k, g3k):
            assert hecke.t_square_half(p, f).coeffs == t_square_half_loop(p, f)


class TestTIntegral:
    def test_delta_wt12(self, delta_wt12):
        for p in (2, 3):
            seq = hecke.t_integral(p, delta_wt12).coeffs
            assert seq[1] == delta_wt12.coeffs[p]

    def test_g11(self, g11_wt2):
        assert hecke.t_integral(3, g11_wt2).coeffs[1] == \
            g11_wt2.coeffs[3] == -1

    def test_bad_prime_rejected(self, g11_wt2):
        with pytest.raises(ValueError):
            hecke.t_integral(11, g11_wt2)

    def test_weight_parity_enforced(self, delta3k):
        with pytest.raises(ValueError):
            hecke.t_square_half(3, expression_form(NAMED["Delta"], 50))
        with pytest.raises(ValueError):
            hecke.t_integral(3, delta3k)

    def test_lift_hecke_commutation(self, delta3k, delta_wt12):
        # T(p^2) upstairs and T(p) on the lift extract the same eigenvalue
        F = hecke.shimura_lift(delta3k, 1)
        for p in (3, 5, 7, 11, 13):
            upstairs = hecke.eigen_report(delta3k, p)
            downstairs = hecke.extract_eigenvalue(
                F.coeffs[:F.prec // p + 1], hecke.t_integral(p, F).coeffs,
                p=p, k=6)
            assert upstairs.is_eigen and downstairs.is_eigen, p
            assert upstairs.lam == downstairs.lam == delta_wt12.coeffs[p], p


class TestExtractEigenvalue:
    def test_eigen_case(self, delta3k):
        before = delta3k.coeffs[:delta3k.prec // 9 + 1]
        rep = hecke.extract_eigenvalue(before,
                                       hecke.t_square_half(3, delta3k).coeffs,
                                       p=3, k=6)
        assert rep.is_eigen and rep.lam == 252
        assert rep.first_violation is None
        assert rep.satake == (252, 3 ** 11, -1)
        assert rep.deligne_ok and rep.elementary_bound_ok

    def test_non_eigenform_mix(self, delta3k, g3k):
        # delta + g (padded) is not an eigenform of T(9)
        prec = 2000
        mix_coeffs = [delta3k.coeffs[n] + g3k.coeffs[n] if n else 0
                      for n in range(prec + 1)]
        mix = Form(weight_num=13, level=4,
                   character=DirichletCharacter.trivial(4),
                   coeffs=mix_coeffs)
        rep = hecke.extract_eigenvalue(mix.coeffs[:prec // 9 + 1],
                                       hecke.t_square_half(3, mix).coeffs,
                                       p=3, k=6)
        assert not rep.is_eigen
        assert rep.first_violation is not None

    def test_all_zero_before_rejected(self):
        with pytest.raises(ValueError):
            hecke.extract_eigenvalue([0, 0, 0], [0, 5, 5], p=3, k=6)

    def test_non_integral_ratio(self):
        rep = hecke.extract_eigenvalue([0, 2, 4], [0, 3, 6], p=3, k=6)
        assert not rep.is_eigen and rep.lam is None
        assert "not an integer" in rep.note
        assert rep.satake is rep.deligne_ok is rep.elementary_bound_ok is None

    def test_integer_lambda_gets_bound_verdicts(self):
        # lam = 12 at p = 3 in weight 3/2 breaks both bounds, eigen or not.
        for after, eigen in (([0, 12, 24], True), ([0, 12, 25], False)):
            rep = hecke.extract_eigenvalue([0, 1, 2], after, p=3, k=1)
            assert (rep.lam, rep.is_eigen) == (12, eigen)
            assert rep.deligne_ok is rep.elementary_bound_ok is False


def test_weight_one_half_is_refused():
    theta = Form(weight_num=1, level=4,
                 character=DirichletCharacter.trivial(4),
                 coeffs=[1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0])
    for call in (lambda: hecke.t_square_half(3, theta),
                 lambda: hecke.eigen_report(theta, 3),
                 lambda: hecke.shimura_lift(theta, 1)):
        with pytest.raises(ValueError, match="weight 1/2 is not supported"):
            call()


class TestLocalPowerSequence:
    def test_delta_powers_of_three(self):
        d = delta_form(10_000)
        seq = powers(d, 1, 3)
        # 3^8 = 6561 <= 10^4 < 3^10, so m runs 0..4
        assert signs.prime_powers(d, 1, 3) == [1, 9, 81, 729, 6561]
        assert seq == DELTA_POWERS_OF_3

    def test_g_t3(self, g3k):
        seq = powers(g3k, 3, 3)
        assert seq[:2] == [1, -1]

    def test_delta_t5(self, delta3k):
        assert powers(delta3k, 5, 3)[0] == 120

    def test_extension_matches_direct(self, delta3k):
        # The recurrence verified within prec 3000 predicts a(3^8), which
        # only a prec-10^4 build reads directly.
        rep = hecke.eigen_report(delta3k, 3)
        assert rep.is_eigen
        seq = powers(delta3k, 1, 3)
        assert len(seq) == 4
        ext = recurrence_oracle(seq[0], seq[1], rep.lam, 3 ** 11, 5)
        assert ext == powers(delta_form(10_000), 1, 3)

    def test_range_errors(self, delta3k):
        with pytest.raises(ValueError, match="beyond the form's precision"):
            signs.prime_powers(delta3k, 3001, 3)
        with pytest.raises(ValueError, match="divides the level"):
            signs.prime_powers(delta3k, 1, 2)
        with pytest.raises(ValueError, match="square-free"):
            signs.prime_powers(delta3k, 12, 3)
        with pytest.raises(ValueError, match="not prime"):
            signs.prime_powers(delta3k, 1, 9)


def _mix(delta, g, prec=2000):
    """delta + g, written in weight 13/2 on level 4: no T(p^2) eigenform."""
    return Form(weight_num=13, level=4,
                character=DirichletCharacter.trivial(4),
                coeffs=[delta.coeffs[n] + g.coeffs[n] if n else 0
                        for n in range(prec + 1)])


class TestRecurrence:
    def test_hand_values(self, delta3k, g3k):
        # a(9) = 1*(252 - chi(3) 3^5) with chi(3) = (16/3) = 1
        assert delta3k.character.twist((-1) ** 6 * 1)(3) == 1
        assert delta3k.coeffs[9] == 252 - 3 ** 5 == 9
        # a(27) = a(3)*(lambda_3 - 0) for g, chi vanishing at 3
        assert g3k.character.twist((-1) ** 1 * 3)(3) == 0
        assert g3k.coeffs[27] == g3k.coeffs[3] * -1 == -1
        assert delta3k.coeffs[81] == 252 * 9 - 3 ** 11 == -174879

    def test_failure_propagates(self, delta3k, g3k):
        # The recurrence suite reads one verdict per prime: a form that is
        # no eigenform fails at every t, and each entry says why.
        ok, fields = cli.SUITES["recurrence"](_mix(delta3k, g3k), [1, 5],
                                              [3], None)
        assert not ok and len(fields["checks"]) == 2
        for check in fields["checks"]:
            assert not check["pass"] and check["max_m"] == 0
            assert check["note"].startswith("not a T(p^2) eigenform: ")

    @pytest.mark.parametrize("form, ts, ps", [
        ("delta", (1, 5, 13), (3, 5, 7, 11)),
        ("g", (3, 7, 15), (3, 5, 7, 13)),
        ("mix", (1, 5), (3, 5, 7))])
    def test_verdict_is_the_eigen_check(self, delta3k, g3k, form, ts, ps):
        # Step m of the recurrence is T(p^2) f = lam f at n = t p^(2m-2):
        # delta and g pass the eigen check at every p, and the two-term
        # oracle continues a(t), a(t p^2) through every a(t p^(2m))
        # within precision; their mix passes at no p.
        f = {"delta": delta3k, "g": g3k, "mix": _mix(delta3k, g3k)}[form]
        for p in ps:
            rep = hecke.eigen_report(f, p)
            assert rep.is_eigen == (form != "mix"), (p, rep)
            if not rep.is_eigen:
                continue
            p2k1 = f.character(p) ** 2 * p ** (2 * f.k - 1)
            for t in ts:
                seq = powers(f, t, p)
                assert len(seq) >= 2, (t, p)
                assert recurrence_oracle(seq[0], seq[1], rep.lam, p2k1,
                                         len(seq)) == seq, (t, p)


class TestSatakeAndBounds:
    def test_satake_examples(self):
        assert hecke.satake(252, 3, 6) == (252, 177147, -1)
        assert hecke.satake(-1, 3, 1) == (-1, 3, -1)

    def test_satake_positive_discriminant(self):
        # |lam| big enough forces two real roots
        assert hecke.satake(100, 3, 1)[2] == 1

    def test_bounds_examples(self):
        assert bound_verdicts(252, 3, 6) == (True, True)
        assert bound_verdicts(-1, 3, 1) == (True, True)
        assert bound_verdicts(12, 3, 1) == (False, False)

    def test_deligne_implies_elementary(self):
        # 2 p^(k-1/2) < p^k + p^(k-1) by AM-GM, so Deligne is the stronger
        # bound; deligne_ok is satake's discriminant sign <= 0, which is
        # lam^2 <= 4 p^(2k-1).
        for p in (3, 5, 7):
            for k in (1, 2, 6):
                for lam in range(-4 * p ** k, 4 * p ** k + 1, max(1, p ** k // 3)):
                    deligne, elementary = bound_verdicts(lam, p, k)
                    assert deligne == (hecke.satake(lam, p, k)[2] <= 0) \
                        == (lam * lam <= 4 * p ** (2 * k - 1)), (lam, p, k)
                    if deligne:
                        assert elementary, (lam, p, k)

    @given(lam=st.integers(-10 ** 6, 10 ** 6), p=st.sampled_from([2, 3, 5, 7]),
           k=st.integers(1, 6))
    def test_deligne_ok_is_the_satake_sign(self, lam, p, k):
        rep = hecke.extract_eigenvalue([0, 1], [0, lam], p, k)
        assert rep.satake == hecke.satake(lam, p, k)
        assert rep.deligne_ok is (rep.satake[2] <= 0) \
            is (lam * lam <= 4 * p ** (2 * k - 1))
