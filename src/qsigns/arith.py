"""Number-theoretic primitives.

Kronecker symbols, real Dirichlet characters given by a Kronecker-symbol
top, fundamental discriminants, square-free and prime tests and divisor
enumeration.  Everything here is a pure function of its arguments, but
for Record and FrozenRecord, the value-class bases of the package.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm


def kronecker(a: int, n: int) -> int:
    """Extended Kronecker symbol (a/n) for arbitrary integers a, n.

    Completely multiplicative in both arguments.  (a/0) is 1 for a = +-1
    and 0 otherwise; (a/-1) is -1 exactly when a < 0.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        # (a/2) = 1 if a = +-1 mod 8, -1 if a = +-3 mod 8.
        twos = 0
        while n % 2 == 0:
            n //= 2
            twos += 1
        if twos % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    # n is now odd and positive: Jacobi symbol by quadratic reciprocity.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def is_squarefree(n: int) -> bool:
    """True when no square of a prime divides n (n >= 1)."""
    if n < 1:
        raise ValueError("expected a positive integer")
    if n % 4 == 0:
        return False
    if n % 2 == 0:
        n //= 2
    if n % 9 == 0:
        return False
    if n % 3 == 0:
        n //= 3
    d = 5
    # Each divisor found is removed completely (a repeat means a square),
    # so composite trial values can never fire.
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return False
        d += 2
    return True


def is_fundamental_discriminant(d: int) -> bool:
    """True for d = 1, square-free d = 1 mod 4, and 4m with m = 2,3 mod 4
    square-free.  d = 0 is rejected."""
    if d == 0:
        raise ValueError("0 is not a discriminant")
    r = d % 4
    if r == 1:
        return is_squarefree(abs(d))
    if r == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(abs(m))
    return False


def fundamental_mask(sign: int, squarefree: bytearray) -> bytearray:
    """mask[n] = 1 exactly when sign n is a fundamental discriminant, for
    0 <= n <= N = len(squarefree) - 1 and sign = +-1, where
    squarefree[n] = 1 exactly when n >= 1 is square-free.

    is_fundamental_discriminant's rule, one slice per residue class:
    sign n = 1 mod 4, that is n = sign mod 4, takes squarefree[n]; and
    n = 4m with sign m = 2, 3 mod 4, that is m = 2 sign, 3 sign mod 4,
    takes squarefree[m].  Every other n is 0."""
    N = len(squarefree) - 1
    mask = bytearray(N + 1)
    r = sign % 4
    mask[r::4] = squarefree[r::4]
    for r in (2 * sign % 4, 3 * sign % 4):
        mask[4 * r::16] = squarefree[r:N // 4 + 1:4]
    return mask


def divisors(n: int) -> list[int]:
    """Ascending list of the positive divisors of n."""
    if n < 1:
        raise ValueError("expected a positive integer")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# Trial division by the primes 2..41 decides every n < 41^2, and strong
# probable-prime tests to these 13 bases decide every n below
# PRIME_TEST_BOUND, the least strong pseudoprime to all of them
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017).
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test, without trial division past 41.  A
    number with no factor up to 41 and not below PRIME_TEST_BOUND is
    refused."""
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return n > 1
    if n >= PRIME_TEST_BOUND:
        raise ValueError("cannot decide whether %d is prime: the test is "
                         "exact below %d" % (n, PRIME_TEST_BOUND))
    s = ((n - 1) & (1 - n)).bit_length() - 1    # n - 1 = 2^s d, d odd
    for a in SMALL_PRIMES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def require_good_prime(p: int, level: int):
    """Refuse a p that is not prime or divides the level."""
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    if level % p == 0:
        raise ValueError("p=%d divides the level %d" % (p, level))


def u_type(level: int, m: int, half_integral: bool) -> tuple[int, int]:
    """(level, twist) of f | U_m for f on level N, whose character is f's
    times (twist/.): (lcm(N, 4m), 4m) for a half-integral f and a
    non-square m (Ono, The Web of Modularity, Prop. 3.7), and otherwise
    (lcm(N, m), 1), no twist."""
    if half_integral and isqrt(m) ** 2 != m:
        return lcm(level, 4 * m), 4 * m
    return lcm(level, m), 1


def _default_period(top: int) -> int:
    # (top/.) on the units mod |top| (top = 0,1 mod 4) or mod 4|top|
    # (otherwise) is periodic with that period.
    return abs(top) if top % 4 in (0, 1) else 4 * abs(top)


def _is_period(top: int, modulus: int) -> bool:
    """True when a -> (top/a) on the units mod the modulus has that
    period: every prime of top divides it (else (top/p) = 0 while some
    p + k modulus is a unit with a value +-1), and so does the conductor
    of (top/.).  Write top = s f^2 with s square-free; s divides the
    modulus with the primes of top, so only the conductor's 2-part is
    left: 8 when s is even, 4 when s = 3 mod 4.  The odd part of s is
    that of top mod 8, since an odd square is 1 mod 8."""
    rest = abs(top)
    while (g := gcd(rest, modulus)) > 1:
        rest //= g
    if rest != 1:
        return False
    twos = (top & -top).bit_length() - 1
    two_part = 8 if twos % 2 else 4 if (top >> twos) % 4 == 3 else 1
    return modulus % two_part == 0


class Record:
    """A value class whose fields are its __slots__: the constructor binds
    its arguments, by position or by name, to the fields in order and
    takes a field left out from the class's _defaults (immutable values
    only); == compares the fields of two objects of one class, and the
    repr names them."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        for name, value in zip(self.__slots__, self._bind(args, kwargs)):
            object.__setattr__(self, name, value)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The field values of a constructor call, in field order."""
        names = self.__slots__
        if not kwargs and len(args) == len(names):
            return args
        cls = type(self).__name__
        if len(args) > len(names):
            raise TypeError("%s() takes %d fields, got %d"
                            % (cls, len(names), len(args)))
        given = dict(zip(names, args))
        for name in kwargs:
            if name not in names:
                raise TypeError("%s() has no field %r" % (cls, name))
            if name in given:
                raise TypeError("%s() got field %r twice" % (cls, name))
        given.update(kwargs)
        values = []
        for name in names:
            if name in given:
                values.append(given[name])
            elif name in self._defaults:
                values.append(self._defaults[name])
            else:
                raise TypeError("%s() is missing field %r" % (cls, name))
        return tuple(values)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % item for item in zip(self.__slots__, self._values())))


class FrozenRecord(Record):
    """A Record whose fields are set once, by the constructor, and which
    hashes by them.  The constructor computes the hash and keeps it, so
    hashing a tree of records hashes each node once, not its whole
    subtree at every lookup."""

    __slots__ = ("_hash",)

    def __init__(self, *args, **kwargs):
        values = self._bind(args, kwargs)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash(values))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a %s"
                             % (name, type(self).__name__))

    def __hash__(self) -> int:
        return self._hash


class DirichletCharacter(FrozenRecord):
    """Real Dirichlet character mod the modulus: a -> (top/a) on the
    units, 0 on every a sharing a factor with the modulus.

    Only real characters are supported; the modulus is a period of the
    character (not necessarily the conductor; 0 picks _default_period),
    and a modulus that is not is refused.  Every prime of the top divides
    it, so a positive square top is 1 on every unit: it is stored as
    modulus^2 and sets is_trivial, and the record equals trivial(modulus).
    """

    __slots__ = ("top", "modulus", "is_trivial")

    def __init__(self, top: int, modulus: int = 0):
        if top == 0:
            raise ValueError("character top must be nonzero")
        if modulus == 0:
            modulus = _default_period(top)
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if not _is_period(top, modulus):
            raise ValueError("(%d/.) is not periodic on the units mod %d"
                             % (top, modulus))
        square = top > 0 and isqrt(top) ** 2 == top
        super().__init__(modulus ** 2 if square else top, modulus, square)

    @classmethod
    def trivial(cls, N: int) -> "DirichletCharacter":
        """The trivial character modulo N (1 on units, 0 elsewhere)."""
        if N < 1:
            raise ValueError("modulus must be positive")
        return cls(N * N, N)

    def __call__(self, a: int) -> int:
        return kronecker(self.top, a) if gcd(a, self.modulus) == 1 else 0

    def twist(self, top: int, modulus: int = 0) -> "DirichletCharacter":
        """This character times (top/.), mod the modulus, or else mod the
        lcm of this modulus and (top/.)'s default period."""
        return DirichletCharacter(self.top * top, modulus or lcm(
            self.modulus, _default_period(top)))

    @property
    def is_odd(self) -> bool:
        """True when the character takes -1 at -1."""
        return self.top < 0

    @property
    def is_primitive(self) -> bool:
        return self.top == 1 or is_fundamental_discriminant(self.top)
