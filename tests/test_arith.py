import random
from math import gcd, isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsigns import coeffio, formspec, hecke, signs
from qsigns.arith import (PRIME_TEST_BOUND, SMALL_PRIMES, DirichletCharacter,
                          FrozenRecord, Record, divisors,
                          is_fundamental_discriminant, is_prime,
                          is_squarefree, kronecker, u_type)
from qsigns.forms import Form
from qsigns.signs import square_class

from oracles import legendre_euler, squarefree_kernel

ODD_PRIMES_UNDER_200 = [p for p in range(3, 200) if is_prime(p)]


class TestKronecker:
    def test_known_values(self):
        assert kronecker(7, 1) == 1
        assert kronecker(16, 2) == 0
        assert kronecker(2, 3) == -1
        assert kronecker(-4, 7) == -1

    def test_agrees_with_euler_criterion(self):
        for p in ODD_PRIMES_UNDER_200:
            for a in range(p):
                assert kronecker(a, p) == legendre_euler(a, p), (a, p)

    def test_at_zero(self):
        assert kronecker(1, 0) == 1
        assert kronecker(-1, 0) == 1
        for a in (0, 2, -2, 5, 100):
            assert kronecker(a, 0) == 0

    def test_negative_bottom(self):
        # (a/-1) = sign(a); (a/-n) = (a/-1)(a/n)
        assert kronecker(5, -1) == 1
        assert kronecker(-5, -1) == -1
        assert kronecker(-3, -5) == -kronecker(-3, 5)

    def test_multiplicative_both_arguments(self):
        rng = random.Random(20240901)
        for _ in range(1200):
            a = rng.randint(-60, 60)
            b = rng.randint(-60, 60)
            n = rng.randint(-60, 60)
            assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
            assert kronecker(a, b * n) == kronecker(a, b) * kronecker(a, n)

    @given(st.integers(-500, 500), st.integers(-500, 500),
           st.integers(-500, 500))
    @settings(max_examples=200)
    def test_multiplicative_top_hypothesis(self, a, b, n):
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)

    def test_values_in_range(self):
        for a in range(-30, 30):
            for n in range(-30, 30):
                assert kronecker(a, n) in (-1, 0, 1)


def chi_t(chi, k, t):
    """The Shimura lift's character chi ((-1)^k t / .)."""
    return chi.twist((-1) ** k * t)


def chi_star(chi, k):
    """T(p^2)'s character chi (-4/.)^k."""
    return chi.twist((-4) ** k)


class TestChiTN:
    def test_known_values(self):
        trivial4, trivial44 = (DirichletCharacter.trivial(4),
                               DirichletCharacter.trivial(44))
        assert chi_t(trivial4, 6, 1)(2) == 0
        assert chi_t(trivial4, 6, 1)(3) == 1
        assert chi_t(trivial44, 1, 3)(3) == 0
        # the form's own character enters: (12/5) = -1
        assert chi_t(DirichletCharacter.trivial(12), 6, 1)(5) == 1
        assert chi_t(DirichletCharacter(top=12, modulus=12), 6, 1)(5) == -1

    def test_rejects_bad_arguments(self):
        f = Form(weight_num=13, level=4,
                 character=DirichletCharacter.trivial(4), coeffs=[0] * 20)
        with pytest.raises(ValueError, match="square-free"):
            # 12 = 4 * 3 is not square-free: square_class checks t
            square_class(f, 12)
        with pytest.raises(ValueError, match="divisible by 4"):
            # a half-integral level not divisible by 4 is Form's to refuse
            Form(weight_num=13, level=6,
                 character=DirichletCharacter.trivial(6), coeffs=[0, 1])

    def test_character_object_matches(self):
        # chi_t for k = 1, t = 3 and the trivial character mod 44 as a
        # DirichletCharacter
        chi = DirichletCharacter(top=-44 * 44 * 3)
        for d in range(-20, 20):
            assert chi(d) == chi_t(DirichletCharacter.trivial(44), 1, 3)(d)
        # periodicity at the declared modulus
        for d in range(1, 50):
            assert chi(d + chi.modulus) == chi(d)


class TestChiStar:
    def test_known_values(self):
        assert chi_star(DirichletCharacter.trivial(4), 6)(3) == 1
        assert chi_star(DirichletCharacter.trivial(44), 1)(7) == -1
        assert chi_star(DirichletCharacter.trivial(44), 1)(2) == 0

    def test_even_k_drops_the_twist(self):
        chi = DirichletCharacter.trivial(4)
        for a in range(1, 30, 2):
            assert chi_star(chi, 2)(a) == chi(a)


@st.composite
def characters(draw):
    """A valid DirichletCharacter: trivial mod N, or (top/.) mod any
    modulus that is a period of it, else mod a multiple of its default
    period."""
    if draw(st.booleans()):
        return DirichletCharacter.trivial(draw(st.integers(1, 200)))
    top = draw(st.integers(-300, 300).filter(bool))
    try:
        return DirichletCharacter(top, draw(st.integers(1, 400)))
    except ValueError:
        return DirichletCharacter(top, DirichletCharacter(top).modulus
                                  * draw(st.integers(1, 6)))


@st.composite
def tops_and_moduli(draw):
    """A (top, modulus) pair DirichletCharacter accepts: the modulus is
    drawn, or else a multiple of the top's default period.  About half
    the tops are positive squares."""
    top = draw(st.one_of(st.integers(-300, 300).filter(bool),
                         st.integers(1, 20).map(lambda s: s * s)))
    modulus = draw(st.integers(1, 400))
    try:
        DirichletCharacter(top, modulus)
    except ValueError:
        modulus = DirichletCharacter(top).modulus * draw(st.integers(1, 6))
    return top, modulus


class TestTrivialFromTheTop:
    @given(tops_and_moduli())
    @example((9, 3))
    @example((2304, 12))
    @settings(max_examples=300, deadline=None)
    def test_trivial_exactly_when_one_on_every_unit(self, pair):
        top, modulus = pair
        chi = DirichletCharacter(top, modulus)
        ones = all(chi(a) == 1 for a in range(1, modulus + 1)
                   if gcd(a, modulus) == 1)
        assert chi.is_trivial == ones
        if ones:
            trivial = DirichletCharacter.trivial(modulus)
            assert chi == trivial and hash(chi) == hash(trivial)
            assert coeffio.format_character(chi) == "trivial:%d" % modulus

    @given(characters())
    @settings(max_examples=300, deadline=None)
    def test_square_is_one_at_every_good_prime(self, chi):
        # T(p^2) and T(p) leave out chi(p)^2 on this ground.
        for p in ODD_PRIMES_UNDER_200 + [2]:
            if chi.modulus % p:
                assert chi(p) ** 2 == 1, p

    def test_g_character_is_trivial_mod_44(self):
        # g's character as (44/.)(-44/.)(-4/.): the top 88^2 is a square.
        chi = DirichletCharacter(44).twist(-44).twist(-4)
        assert chi == DirichletCharacter.trivial(44)
        assert chi.is_trivial and chi.top == 44 ** 2


class TestTwist:
    @given(characters(), st.integers(-300, 300).filter(bool))
    @settings(max_examples=300, deadline=None)
    def test_twist_is_the_product_off_its_modulus(self, chi, top):
        twisted = chi.twist(top)
        assert twisted.modulus % chi.modulus == 0
        for d in range(-60, 61):
            if gcd(d, twisted.modulus) == 1:
                assert twisted(d) == chi(d) * kronecker(top, d), d
            else:
                assert twisted(d) == 0, d

    def test_given_modulus_is_kept(self):
        chi = DirichletCharacter.trivial(4).twist(12, 12)
        assert chi == DirichletCharacter(top=16 * 12, modulus=12)
        with pytest.raises(ValueError, match="not periodic"):
            DirichletCharacter.trivial(4).twist(-3, 4)


class TestFundamentalDiscriminant:
    def test_known_values(self):
        assert is_fundamental_discriminant(5)
        assert not is_fundamental_discriminant(9)
        assert is_fundamental_discriminant(8)
        assert is_fundamental_discriminant(-4)

    def test_one_is_fundamental(self):
        assert is_fundamental_discriminant(1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_fundamental_discriminant(0)

    def test_against_kernel_rule(self):
        # d is fundamental iff it equals the discriminant of Q(sqrt(d)):
        # m if m = 1 mod 4 else 4m, with m the square-free kernel of d.
        for d in range(-10_000, 10_001):
            if d == 0:
                continue
            m = (1 if d > 0 else -1) * squarefree_kernel(abs(d))
            disc = m if m % 4 == 1 else 4 * m
            assert is_fundamental_discriminant(d) == (d == disc), d


class TestSquarefree:
    # n = t m^2 with t the square-free kernel (oracles.squarefree_kernel):
    # is_squarefree accepts t, and accepts n exactly when n = t.
    def test_decompose_examples(self):
        for n, t, m in ((12, 3, 2), (1, 1, 1), (360, 10, 6)):
            assert squarefree_kernel(n) == t and t * m * m == n
            assert is_squarefree(t)
            assert is_squarefree(n) == (m == 1)

    def test_roundtrip_to_1e5(self):
        # against a sieve that strikes every multiple of a square
        N = 100_000
        free = [True] * (N + 1)
        for d in range(2, isqrt(N) + 1):
            free[d * d::d * d] = [False] * (N // (d * d))
        assert all(is_squarefree(n) == free[n] for n in range(1, N + 1))
        rng = random.Random(7)
        for n in rng.sample(range(1, N + 1), 2000):
            t = squarefree_kernel(n)
            m = isqrt(n // t)
            assert t * m * m == n and is_squarefree(t)

    @given(st.integers(1, 10_000))
    @settings(max_examples=300)
    def test_t_has_no_square_factor(self, n):
        t = squarefree_kernel(n)
        assert is_squarefree(t)
        assert is_squarefree(n) == all(n % (d * d)
                                       for d in range(2, isqrt(n) + 1))

    def test_is_squarefree_basics(self):
        assert is_squarefree(1)
        assert is_squarefree(2310)
        assert not is_squarefree(4)
        assert not is_squarefree(18)
        with pytest.raises(ValueError):
            is_squarefree(0)


class TestDivisors:
    def test_known_values(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(49) == [1, 7, 49]

    def test_ascending_and_complete(self):
        for n in range(1, 500):
            ds = divisors(n)
            assert ds == sorted(set(ds))
            assert ds == [d for d in range(1, n + 1) if n % d == 0]


def _strong_probable_prime(n, a):
    """True when odd n passes the strong probable-prime test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2 ** r, n) == n - 1 for r in range(s))


class TestIsPrime:
    def test_equals_a_sieve_below_1e5(self):
        N = 10 ** 5
        sieve = bytearray([0, 0]) + bytearray([1]) * (N - 2)
        for p in range(2, isqrt(N) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, N, p)))
        assert [n for n in range(-5, N) if is_prime(n)] == [
            n for n in range(N) if sieve[n]]

    @pytest.mark.parametrize("n", [561, 41041, 3825123056546413051])
    def test_pseudoprimes_are_composite(self, n):
        # Carmichael numbers, and a strong pseudoprime to every prime
        # base up to 31: only the bases 37 and 41 see it is composite.
        if n > 10 ** 6:
            assert all(_strong_probable_prime(n, a) for a in
                       (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
        assert not is_prime(n)

    def test_a_prime_past_the_precision_cap(self):
        assert is_prime(10000000000000061)
        assert not is_prime(1000003 * 10000000000000061)

    def test_refuses_a_number_past_the_exact_bound(self):
        # The bound is the least strong pseudoprime to all 13 bases.
        assert all(_strong_probable_prime(PRIME_TEST_BOUND, a)
                   for a in SMALL_PRIMES)
        assert PRIME_TEST_BOUND == 1287836182261 * 2575672364521
        with pytest.raises(ValueError, match="exact below %d"
                           % PRIME_TEST_BOUND):
            is_prime(10 ** 30 + 57)
        assert not is_prime(10 ** 30 + 58)      # a factor 2 still decides


@pytest.mark.parametrize("level, m, half_integral, want", [
    (4, 2, True, 8), (4, 3, True, 12), (4, 4, True, 4), (44, 3, True, 132),
    (44, 4, True, 44), (4, 2, False, 4), (1, 3, False, 3), (1, 1, False, 1),
])
def test_u_level(level, m, half_integral, want):
    assert u_type(level, m, half_integral)[0] == want


def test_u_twist_is_4m_exactly_off_the_squares():
    # The level and the twist come from one test: (4m/.) on level
    # lcm(N, 4m) for a half-integral form and a non-square m, else none.
    for m in range(1, 50):
        square = m in (1, 4, 9, 16, 25, 36, 49)
        assert u_type(4, m, True) == ((lcm(4, m), 1) if square
                                      else (lcm(4, 4 * m), 4 * m)), m
        assert u_type(4, m, False) == (lcm(4, m), 1), m


class TestDirichletCharacter:
    def test_trivial(self):
        chi = DirichletCharacter.trivial(44)
        assert chi.is_trivial and not chi.is_odd and chi.is_primitive is False
        for a in range(1, 100):
            import math
            assert chi(a) == (1 if math.gcd(a, 44) == 1 else 0)
        assert chi(-1) == 1

    def test_quadratic_minus_four(self):
        psi = DirichletCharacter(top=-4)
        assert psi.is_odd and psi.is_primitive
        assert [psi(n) for n in range(8)] == [0, 1, 0, -1, 0, 1, 0, -1]

    def test_rejects_zero_top(self):
        with pytest.raises(ValueError):
            DirichletCharacter(top=0)

    def test_zero_off_the_units_mod_the_modulus(self):
        # (-3/.) read mod 36 is a character mod 36: (-3/2) = -1 and
        # (-3/4) = 1 as Kronecker symbols, but 2 and 4 are no units mod 36.
        chi = DirichletCharacter(top=-3, modulus=36)
        assert (chi(2), chi(4), chi(3)) == (0, 0, 0)
        for a in range(-80, 80):
            want = kronecker(-3, a) if gcd(a, 36) == 1 else 0
            assert chi(a) == want
            assert chi(a + 36) == chi(a)

    def test_modulus_must_be_a_period(self):
        # A modulus is accepted exactly when a -> (top/a) on its units
        # repeats with it, checked over two periods of lcm(M, 4|top|),
        # where every such function repeats.
        for top in (t for t in range(-24, 25) if t):
            for modulus in range(1, 25):
                period = 4 * abs(top) * modulus // gcd(4 * abs(top), modulus)
                first = {}
                periodic = all(
                    first.setdefault(a % modulus, kronecker(top, a))
                    == kronecker(top, a)
                    for a in range(1, 2 * period + 1)
                    if gcd(a, modulus) == 1)
                if periodic:
                    DirichletCharacter(top=top, modulus=modulus)
                else:
                    with pytest.raises(ValueError) as err:
                        DirichletCharacter(top=top, modulus=modulus)
                    assert str(err.value) == ("(%d/.) is not periodic on the "
                                              "units mod %d" % (top, modulus))

    def test_complete_multiplicativity_and_periodicity(self):
        rng = random.Random(11)
        for top in (-4, -3, 5, 8, 12, -20, 44 * 44):
            chi = DirichletCharacter(top=top)
            for _ in range(300):
                a, b = rng.randint(-200, 200), rng.randint(-200, 200)
                assert chi(a * b) == chi(a) * chi(b)
            for a in range(1, 80):
                assert chi(a + chi.modulus) == chi(a)
                assert chi(a) in (-1, 0, 1)


# The value classes that check nothing of their own: Record's constructor
# binds every field.
PLAIN_RECORDS = [formspec.Atom, formspec.Diff, formspec.U, formspec.Add,
                 formspec.Mul, formspec.Scale, hecke.EigenReport,
                 signs.SignStatsReport, coeffio.CoefficientFile]
FIELD_VALUES = st.one_of(st.integers(), st.text(max_size=4), st.none(),
                         st.tuples(st.integers()))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@st.composite
def plain_records(draw):
    """A plain value class, a value per field, and a split of the fields
    into a positional head and a keyword tail."""
    cls = draw(st.sampled_from(PLAIN_RECORDS))
    n = len(cls.__slots__)
    values = draw(st.lists(FIELD_VALUES, min_size=n, max_size=n))
    return cls, values, draw(st.integers(0, n))


class TestRecord:
    def test_only_the_checking_classes_write_an_init(self):
        classes = {c for c in _subclasses(Record)
                   if c.__module__.startswith("qsigns.")} - {FrozenRecord}
        checked = {Form, DirichletCharacter}
        assert classes == set(PLAIN_RECORDS) | checked
        assert {c for c in classes if "__init__" in vars(c)} == checked

    @settings(max_examples=200, deadline=None)
    @given(plain_records())
    def test_position_and_name_build_one_object(self, case):
        cls, values, cut = case
        names = cls.__slots__
        by_position = cls(*values)
        by_name = cls(**dict(zip(names, values)))
        mixed = cls(*values[:cut], **dict(zip(names[cut:], values[cut:])))
        assert by_position == by_name == mixed
        assert tuple(getattr(mixed, name) for name in names) == tuple(values)
        if issubclass(cls, FrozenRecord):
            assert hash(by_position) == hash(by_name) == hash(mixed)

    @settings(max_examples=200, deadline=None)
    @given(plain_records())
    def test_refuses_a_missing_unknown_or_repeated_field(self, case):
        cls, values, cut = case
        names = cls.__slots__
        # The first field of every plain class has no default.
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], values[1:])))
        with pytest.raises(TypeError):
            cls(*values, no_such_field=0)
        with pytest.raises(TypeError):
            cls(*values, 0)
        if cut:
            with pytest.raises(TypeError):
                cls(*values[:cut], **dict(zip(names[cut - 1:],
                                              values[cut - 1:])))

    @settings(max_examples=100, deadline=None)
    @given(plain_records(), FIELD_VALUES)
    def test_frozen_fields_refuse_assignment(self, case, value):
        cls, values, cut = case
        record = cls(*values)
        i = min(cut, len(values) - 1)
        name = cls.__slots__[i]
        if issubclass(cls, FrozenRecord):
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            assert getattr(record, name) == values[i]
        else:
            setattr(record, name, value)
            assert getattr(record, name) == value

    @pytest.mark.parametrize("cls", PLAIN_RECORDS)
    def test_a_left_out_field_takes_its_default(self, cls):
        defaults = cls._defaults
        required = [n for n in cls.__slots__ if n not in defaults]
        assert cls.__slots__[len(required):] == tuple(defaults)
        record = cls(*range(len(required)))
        for name, value in defaults.items():
            hash(value)         # immutable: one object serves every record
            assert getattr(record, name) == value
